"""Type-2 nonuniform FFT in two dimensions, the tests' reference evaluator.

Evaluates trigonometric sums

    out_q = sum_{j,k} coeffs[j,k] exp(i ((j - J//2) xi1_q + (k - K//2) xi2_q))

at arbitrary targets (xi1, xi2) in [-pi, pi), by the plain Kaiser-Bessel
gridding of Barnett, Magland & af Klinteberg (SIAM J. Sci. Comput. 41,
2019): deconvolve the modes by the window transform, evaluate them on a
2x-oversampled fine grid with one FFT, pad that grid periodically by w, and
contract each target's w x w patch with the window on each axis.  With the
default width the error is below 1e-10 relative, uniformly in the targets;
each target costs O(w^2) and 2 w Bessel function values.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import _BLOCK_BYTES, _next_fast_len

__all__ = ["nufft2d2"]

_WIDTH = 12          # spreading width in fine-grid cells
_BETA = 2.30 * _WIDTH  # Kaiser-Bessel shape for 2x oversampling
# Targets per block: a block's (b, w, w) patch takes an eighth of _BLOCK_BYTES
# (2 MiB); 10^5 targets in one block would take 230 MB.
_TARGETS_PER_BLOCK = _BLOCK_BYTES // 8 // (16 * _WIDTH * _WIDTH)


def _kb_window(t: np.ndarray, half_width: float) -> np.ndarray:
    """Kaiser-Bessel window I0(beta sqrt(1 - (t/a)^2)) on |t| <= a, else 0."""
    u = t / half_width
    inside = np.abs(u) < 1.0
    out = np.zeros_like(t)
    out[inside] = np.i0(_BETA * np.sqrt(1.0 - u[inside] ** 2))
    return out


def _kb_transform(s: np.ndarray, half_width: float) -> np.ndarray:
    """Continuous Fourier transform of the window at frequencies s,
    2 a sinh(g) / g with g = sqrt(beta^2 - (a s)^2).  On a fine grid
    oversampled at least 2x, |a s| <= pi w / 4 < beta, so g is real."""
    g = np.sqrt(_BETA ** 2 - (half_width * s) ** 2)
    return 2.0 * half_width * np.sinh(g) / g


def _axis(n_modes: int, xi: np.ndarray):
    """Fine-grid size, the modes' fine-grid indices and deconvolution weights,
    and per target its patch's first cell and its distance in cells from it."""
    n_fine = _next_fast_len(max(2 * n_modes, 4 * _WIDTH))
    h = 2.0 * math.pi / n_fine
    modes = np.arange(n_modes) - n_modes // 2
    deconv = h / _kb_transform(modes.astype(float), 0.5 * _WIDTH * h)
    u = (np.asarray(xi, dtype=float).ravel() % (2.0 * math.pi)) / h
    start = np.ceil(u - 0.5 * _WIDTH)
    return n_fine, modes % n_fine, deconv, start.astype(np.int64) % n_fine, u - start


def nufft2d2(xi1: np.ndarray, xi2: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """out_q = sum_{j,k} coeffs[j,k] e^{i((j-J//2) xi1_q + (k-K//2) xi2_q)}.

    xi1, xi2: same-shape target arrays with values in [-pi, pi).
    """
    if xi1.shape != xi2.shape:
        raise ValueError("target arrays must have the same shape")
    n1, m1, d1, start1, u1 = _axis(coeffs.shape[0], xi1)
    n2, m2, d2, start2, u2 = _axis(coeffs.shape[1], xi2)
    fine = np.zeros((n1, n2), dtype=complex)
    fine[np.ix_(m1, m2)] = coeffs * np.multiply.outer(d1, d2)
    fine = np.pad(np.fft.ifft2(fine, norm="forward"), (0, _WIDTH), mode="wrap")

    cells = np.arange(_WIDTH)
    out = np.empty(u1.size, dtype=complex)
    for lo in range(0, u1.size, _TARGETS_PER_BLOCK):
        sl = slice(lo, lo + _TARGETS_PER_BLOCK)
        rows = start1[sl, None] + cells  # (b, w), inside the padded grid
        cols = start2[sl, None] + cells
        w1 = _kb_window(u1[sl, None] - cells, 0.5 * _WIDTH)
        w2 = _kb_window(u2[sl, None] - cells, 0.5 * _WIDTH)
        patch = fine[rows[:, :, None], cols[:, None, :]]  # (b, w, w)
        out[sl] = (w1[:, None, :] @ (patch @ w2[:, :, None]))[:, 0, 0]
    return out.reshape(xi1.shape)
