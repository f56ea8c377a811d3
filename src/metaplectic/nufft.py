"""Type-2 nonuniform FFT in two dimensions.

Evaluates trigonometric sums

    out_q = sum_{j,k} coeffs[j,k] exp(i ((j - J//2) xi1_q + (k - K//2) xi2_q))

at arbitrary targets (xi1, xi2) in [-pi, pi), by Kaiser-Bessel gridding:
deconvolve the modes by the window transform, evaluate on a 2x-oversampled
fine grid with one FFT, then interpolate each target from a w x w patch of
fine-grid samples.  With the default width the quadrature error is below
1e-10 relative, uniformly in the targets.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.fft import next_fast_len
from scipy.special import i0

__all__ = ["nufft2d2"]

_WIDTH = 12          # spreading width in fine-grid cells
_BETA = 2.30 * _WIDTH  # Kaiser-Bessel shape for 2x oversampling


def _kb_window(t: np.ndarray, half_width: float) -> np.ndarray:
    """Kaiser-Bessel window I0(beta sqrt(1 - (t/a)^2)) on |t| <= a, else 0."""
    u = t / half_width
    inside = np.abs(u) < 1.0
    out = np.zeros_like(t)
    out[inside] = i0(_BETA * np.sqrt(1.0 - u[inside] ** 2))
    return out


def _kb_transform(s: np.ndarray, half_width: float) -> np.ndarray:
    """Continuous Fourier transform of the window at frequencies s."""
    gamma2 = _BETA ** 2 - (half_width * s) ** 2
    out = np.empty_like(s, dtype=float)
    pos = gamma2 > 0
    g = np.sqrt(gamma2[pos])
    out[pos] = np.sinh(g) / g
    g = np.sqrt(-gamma2[~pos])
    out[~pos] = np.where(g < 1e-30, 1.0, np.sin(g) / np.maximum(g, 1e-30))
    return 2.0 * half_width * out


def _axis_setup(n_modes: int):
    n_fine = next_fast_len(max(2 * n_modes, 4 * _WIDTH))
    h = 2.0 * math.pi / n_fine
    half_width = 0.5 * _WIDTH * h
    modes = np.arange(n_modes) - n_modes // 2
    deconv = _kb_transform(modes.astype(float), half_width)
    return n_fine, h, half_width, modes, deconv


def nufft2d2(xi1: np.ndarray, xi2: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """out_q = sum_{j,k} coeffs[j,k] e^{i((j-J//2) xi1_q + (k-K//2) xi2_q)}.

    xi1, xi2: same-shape target arrays with values in [-pi, pi).
    """
    if xi1.shape != xi2.shape:
        raise ValueError("target arrays must have the same shape")
    j_modes, k_modes = coeffs.shape
    n1, h1, a1, m1, d1 = _axis_setup(j_modes)
    n2, h2, a2, m2, d2 = _axis_setup(k_modes)

    b = coeffs / np.multiply.outer(d1, d2)
    fine = np.zeros((n1, n2), dtype=complex)
    fine[np.ix_(m1 % n1, m2 % n2)] = b
    grid = np.fft.ifft2(fine) * (n1 * n2)

    shape = xi1.shape
    u1 = (np.asarray(xi1, dtype=float).ravel() % (2.0 * math.pi)) / h1
    u2 = (np.asarray(xi2, dtype=float).ravel() % (2.0 * math.pi)) / h2
    q = u1.size
    start1 = np.ceil(u1 - 0.5 * _WIDTH).astype(np.int64)
    start2 = np.ceil(u2 - 0.5 * _WIDTH).astype(np.int64)
    offs = np.arange(_WIDTH)
    w1 = _kb_window((u1[:, None] - (start1[:, None] + offs[None, :])) * h1, a1)
    w2 = _kb_window((u2[:, None] - (start2[:, None] + offs[None, :])) * h2, a2)

    cols = (start2[:, None] + offs[None, :]) % n2  # (q, w)
    out = np.zeros(q, dtype=complex)
    for t in range(_WIDTH):
        rows = (start1 + t) % n1
        patch = grid[rows[:, None], cols]  # (q, w)
        out += w1[:, t] * np.einsum("qw,qw->q", patch, w2)
    return (out * (h1 * h2)).reshape(shape)
