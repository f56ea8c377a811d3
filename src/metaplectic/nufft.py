"""Type-2 nonuniform FFT in two dimensions, the tests' reference evaluator.

Evaluates trigonometric sums

    out_q = sum_{j,k} coeffs[j,k] exp(i ((j - J//2) xi1_q + (k - K//2) xi2_q))

at arbitrary targets (xi1, xi2) in [-pi, pi), by Kaiser-Bessel gridding:
deconvolve the modes by the window transform, evaluate on a 2x-oversampled
fine grid with one FFT, then interpolate each target from a w x w patch of
fine-grid samples.  With the default width the quadrature error is below
1e-10 relative, uniformly in the targets.

The interpolation costs O(q w^2) for q targets and calls no special
function.  As in FINUFFT (Barnett, Magland & af Klinteberg, SIAM J. Sci.
Comput. 41, 2019), the window is read from a table built once at import: for
each of the w offsets, a Chebyshev interpolant in the target's position
within its cell.  The fine grid is padded periodically by w rows and
columns, so each target's w x w patch is one gather of w contiguous rows at
a fixed stencil from its corner, with no wrap-around per offset; a batched
matmul contracts it with the two window vectors.  Targets go in blocks
whose patches fit in cache.
"""

from __future__ import annotations

import math

import numpy as np
from numpy import i0
from numpy.polynomial.chebyshev import chebfit
from numpy.lib.stride_tricks import sliding_window_view

from .grids import _BLOCK_BYTES, _next_fast_len

__all__ = ["nufft2d2"]

_WIDTH = 12          # spreading width in fine-grid cells
_BETA = 2.30 * _WIDTH  # Kaiser-Bessel shape for 2x oversampling
# Chebyshev degree of the window table; from degree 13 on its error against
# _kb_window is the rounding of i0 itself (6e-15 of the peak).
_DEGREE = 16
# Targets per block: a block's (b, w, w) patch takes an eighth of _BLOCK_BYTES
# (2 MiB), so it stays in cache between the gather and the matmul.
_TARGETS_PER_BLOCK = _BLOCK_BYTES // 8 // (16 * _WIDTH * _WIDTH)


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


def _window_table() -> np.ndarray:
    """(w, _DEGREE + 1) Chebyshev coefficients of the window at offsets
    t = 0..w-1 from a target's patch corner ``start``, in the local variable
    x = 2 (u - start) - (w - 1) in (-1, 1]; offset t then lies
    (x + w - 1) / 2 - t fine cells from the target u."""
    nodes = np.cos(math.pi * (np.arange(_DEGREE + 1) + 0.5) / (_DEGREE + 1))
    dist = 0.5 * (nodes[:, None] + (_WIDTH - 1)) - np.arange(_WIDTH)
    return chebfit(nodes, _kb_window(dist, 0.5 * _WIDTH), _DEGREE).T


_TABLE = _window_table()


def _window_weights(x: np.ndarray) -> np.ndarray:
    """(w, q) window values at every offset for local positions ``x`` (q,):
    the three-term recurrence on a (deg + 1, q) array, then one matmul."""
    cheb = np.empty((_DEGREE + 1, x.size))
    cheb[0] = 1.0
    cheb[1] = x
    two_x = 2.0 * x
    for k in range(2, _DEGREE + 1):
        np.multiply(two_x, cheb[k - 1], out=cheb[k])
        cheb[k] -= cheb[k - 2]
    return _TABLE @ cheb


def _axis_setup(n_modes: int):
    n_fine = _next_fast_len(max(2 * n_modes, 4 * _WIDTH))
    h = 2.0 * math.pi / n_fine
    modes = np.arange(n_modes) - n_modes // 2
    deconv = _kb_transform(modes.astype(float), 0.5 * _WIDTH * h)
    return n_fine, h, modes, deconv


def _corner(xi: np.ndarray, h: float):
    """Patch corner (fine-grid index) and local position x of each target."""
    u = (np.asarray(xi, dtype=float).ravel() % (2.0 * math.pi)) / h
    start = np.ceil(u - 0.5 * _WIDTH)
    return start.astype(np.int64), 2.0 * (u - start) - (_WIDTH - 1)


def nufft2d2(xi1: np.ndarray, xi2: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """out_q = sum_{j,k} coeffs[j,k] e^{i((j-J//2) xi1_q + (k-K//2) xi2_q)}.

    xi1, xi2: same-shape target arrays with values in [-pi, pi).
    """
    if xi1.shape != xi2.shape:
        raise ValueError("target arrays must have the same shape")
    j_modes, k_modes = coeffs.shape
    n1, h1, m1, d1 = _axis_setup(j_modes)
    n2, h2, m2, d2 = _axis_setup(k_modes)

    # modes -> fine grid one axis at a time, so the first inverse FFT runs
    # only on the J rows that hold modes; then pad periodically by w
    mode_rows = np.zeros((j_modes, n2), dtype=complex)
    mode_rows[:, m2 % n2] = coeffs * (h1 * h2) / np.multiply.outer(d1, d2)
    fine = np.zeros((n1, n2), dtype=complex)
    fine[m1 % n1] = np.fft.ifft(mode_rows, axis=1, norm="forward")
    # in place: into a fresh (n1, n2) array this FFT took 1.6-1.8x as long
    # (1024 x 1024, x86)
    np.fft.ifft(fine, axis=0, norm="forward", out=fine)
    flat = np.pad(fine, ((0, _WIDTH), (0, _WIDTH)), mode="wrap").ravel()
    # row r of ``strips`` is the w samples from flat[r] on
    strips = sliding_window_view(flat, _WIDTH)
    row_len = n2 + _WIDTH
    stencil = row_len * np.arange(_WIDTH)

    start1, x1 = _corner(xi1, h1)
    start2, x2 = _corner(xi2, h2)
    base = (start1 % n1) * row_len + start2 % n2
    out = np.empty(base.size, dtype=complex)
    for lo in range(0, base.size, _TARGETS_PER_BLOCK):
        sl = slice(lo, lo + _TARGETS_PER_BLOCK)
        patch = strips[base[sl, None] + stencil]  # (b, w, w)
        w1 = _window_weights(x1[sl]).T[:, None, :]  # (b, 1, w)
        w2 = _window_weights(x2[sl]).T[:, :, None]  # (b, w, 1)
        out[sl] = (w1 @ (patch @ w2))[:, 0, 0]
    return out.reshape(xi1.shape)
