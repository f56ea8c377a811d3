"""Phase-space side of the metaplectic calculus.

Cross-Wigner transforms, phase-space translations, Bopp operators, and the
extended metaplectic operators acting on functions of z = (x, p).  The
extended operator attached to (S, nu) is realized by honest quadrature of
its phase-space integral

    (2 pi hbar)^{-n} pref Integral exp(i u.Sigma u / 2 hbar) Ttilde(K u) F du

over one of the two rows (K, Sigma, pref) of the table of integral forms,
``symplectic._integral_form``: the Cayley row (form name s1) or the twisted
row (form names alfa1 and alfa2, which are one route).  The integral is
reduced, by the substitution v = z - K u / 2 that places the integration
variable on the sample lattice of F, to a quadratic chirp times a
sheared-lattice Fourier sum, which is evaluated by a type-2 nonuniform FFT.
One degree of freedom (two-dimensional phase space).
"""

from __future__ import annotations

import math

import numpy as np

from . import config
from .errors import GridMismatchError, OutOfDomainError, TruncationError
from .grids import (Grid, SampledFunction, _Lattice, _box_radius, _centered_fft,
                    _checked_values, _next_fast_len, _raised_cosine, _support_box,
                    _translate, _trapezoid, _warn_at_edge, hermite_function,
                    interpolate_values, require_same_frame)
from .nufft import nufft2d2
from .symplectic import SymplecticMatrix, _integral_form, standard_j

__all__ = [
    "PhaseGrid",
    "PhaseFunction",
    "cross_wigner",
    "phase_shift",
    "compose_linear",
    "moyal_inner",
    "wigner_basis",
    "metaplectic_phase_apply",
    "bopp_apply",
]


class PhaseGrid(_Lattice):
    """Uniform centered lattice on two-dimensional phase space.

    x-axis: N points, spacing 2X/N; p-axis: N_p points, spacing 2P_max/N_p.
    The grid compatible with a configuration Grid (the one produced by
    cross_wigner) has N_p = N and P_max = pi hbar N / (4X): the p-lattice
    sits at half the dual-grid spacing, which is exactly the resolution at
    which the x +- y/2 diagonal sampling of the Wigner integral becomes
    integer index arithmetic.
    """

    __slots__ = ()

    def __init__(self, n: int, N: int, X: float, N_p: int, P_max: float):
        if n != 1:
            raise GridMismatchError("phase-space grids support n = 1 only")
        if N < 8 or N_p < 8:
            raise GridMismatchError("phase-space grid needs at least 8 points per axis")
        if X <= 0 or P_max <= 0:
            raise GridMismatchError("X and P_max must be positive")
        super().__init__(n, (N, N_p), (X, P_max))

    @classmethod
    def compatible(cls, grid: Grid, hbar: float) -> "PhaseGrid":
        if grid.n != 1:
            raise GridMismatchError("phase-space grids support n = 1 only")
        return cls(1, grid.N, grid.X, grid.N, math.pi * hbar * grid.N / (4.0 * grid.X))

    N = property(lambda self: self.sizes[0])
    N_p = property(lambda self: self.sizes[1])
    X = property(lambda self: self.widths[0])
    P_max = property(lambda self: self.widths[1])
    dx = property(lambda self: self.steps[0])
    dp = property(lambda self: self.steps[1])

    def x_axis(self) -> np.ndarray:
        return self.axes()[0]

    def p_axis(self) -> np.ndarray:
        return self.axes()[1]

    def __repr__(self) -> str:
        return (f"PhaseGrid(n=1, N={self.N}, X={self.X}, "
                f"N_p={self.N_p}, P_max={self.P_max})")


class PhaseFunction:
    """Complex samples of F: phase space -> C, with hbar attached.

    L2 quantities use the product trapezoid weight (boundary samples
    half-weighted)."""

    __slots__ = ("grid", "hbar", "values")

    def __init__(self, grid: PhaseGrid, hbar: float, values: np.ndarray):
        values = _checked_values(grid, hbar, values)
        self.grid = grid
        self.hbar = float(hbar)
        # freeze a view: the caller's own array stays writable
        self.values = values.view()
        self.values.flags.writeable = False

    def with_values(self, values: np.ndarray) -> "PhaseFunction":
        return PhaseFunction(self.grid, self.hbar, values)

    def norm(self) -> float:
        return math.sqrt(abs(self.inner(self)))

    def inner(self, other: "PhaseFunction") -> complex:
        require_same_frame(self, other)
        g = self.grid
        prod = self.values * np.conj(other.values)
        return complex(_trapezoid(g.N, g.dx) @ prod @ _trapezoid(g.N_p, g.dp))


def cross_wigner(f: SampledFunction, g: SampledFunction) -> PhaseFunction:
    """Cross-Wigner transform
    W(f,g)(x,p) = (2 pi hbar)^{-n} Integral e^{-i p.y / hbar}
                  f(x + y/2) conj(g(x - y/2)) dy.

    The y-integral is sampled at y = 2 m dx so both factors are read at
    exact lattice indices; one centered FFT per x row then lands the
    result on the compatible PhaseGrid.
    """
    require_same_frame(f, g)
    if f.grid.n != 1:
        raise GridMismatchError("cross_wigner supports n = 1 only")
    n_pts = f.grid.N
    j = np.arange(n_pts)[:, None]
    m = (np.arange(n_pts) - n_pts // 2)[None, :]
    ia = j + m
    ib = j - m
    valid = (ia >= 0) & (ia < n_pts) & (ib >= 0) & (ib < n_pts)
    fa = np.where(valid, f.values[np.clip(ia, 0, n_pts - 1)], 0.0)
    gb = np.where(valid, np.conj(g.values[np.clip(ib, 0, n_pts - 1)]), 0.0)
    corr = fa * gb
    vals = (f.grid.dx / (math.pi * f.hbar)) * _centered_fft(corr, axes=(1,))
    return PhaseFunction(PhaseGrid.compatible(f.grid, f.hbar), f.hbar, vals)


def phase_shift(F: PhaseFunction, z0: np.ndarray) -> PhaseFunction:
    """Phase-space translation
    Ttilde(z0) F(z) = exp(-i sigma(z, z0) / hbar) F(z - z0/2).

    When the half-shift lands on the lattice the translation is an exact
    index move; otherwise cubic interpolation is used.
    """
    z0 = np.asarray(z0, dtype=float).reshape(-1)
    if z0.size != 2:
        raise GridMismatchError("z0 must have length 2")
    x0, p0 = float(z0[0]), float(z0[1])
    shifted = _translate(F.values, F.grid, z0 / 2)
    xx, pp = F.grid.meshgrid()
    mult = np.exp(-1j * (pp * x0 - xx * p0) / F.hbar)
    return F.with_values(mult * shifted)


def compose_linear(F: PhaseFunction, mat: np.ndarray) -> PhaseFunction:
    """Samples of F(mat z) on F's own grid, by cubic interpolation."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (2, 2):
        raise GridMismatchError("mat must be 2x2")
    xx, pp = F.grid.meshgrid()
    return F.with_values(interpolate_values(F.values, F.grid, [
        mat[0, 0] * xx + mat[0, 1] * pp, mat[1, 0] * xx + mat[1, 1] * pp,
    ]))


def moyal_inner(F: PhaseFunction, G: PhaseFunction) -> complex:
    """L2 phase-space inner product (F|G), first argument linear."""
    return F.inner(G)


def wigner_basis(j_max: int, k_max: int, hbar: float, grid: Grid) -> list:
    """The system (2 pi hbar)^{n/2} W(h_j, h_k), j <= j_max, k <= k_max,
    in row-major order; orthonormal by the Moyal identity."""
    if j_max > 8 or k_max > 8:
        raise OutOfDomainError("Hermite orders above 8 are not grid-admissible")
    hs = [hermite_function(j, grid, hbar) for j in range(max(j_max, k_max) + 1)]
    scale = math.sqrt(2.0 * math.pi * hbar)
    out = []
    for j in range(j_max + 1):
        for k in range(k_max + 1):
            w = cross_wigner(hs[j], hs[k])
            out.append(w.with_values(scale * w.values))
    return out


# ----------------------------------------------------------------------
# extended metaplectic operators

def _fft_upsample(vals: np.ndarray, u1: int, u2: int) -> np.ndarray:
    """Trigonometric upsampling by integer factors (zero-padded spectrum)."""
    if u1 == 1 and u2 == 1:
        return vals
    n1, n2 = vals.shape
    big = np.zeros((n1 * u1, n2 * u2), dtype=complex)
    r0 = (n1 * u1) // 2 - n1 // 2
    c0 = (n2 * u2) // 2 - n2 // 2
    big[r0:r0 + n1, c0:c0 + n2] = _centered_fft(vals)
    return _centered_fft(big, inverse=True) / (n1 * n2)


_MAX_WORK_POINTS = 8_000_000


def metaplectic_phase_apply(s: SymplecticMatrix, nu: int, F: PhaseFunction,
                            form: str = "s1") -> PhaseFunction:
    """Apply the extended metaplectic operator of (S, nu) to F.

    The row of the table of integral forms named by ``form`` is reduced by
    the substitution v = z - K u / 2 to a sum over the sample lattice of F,
    where the integrand decays through F itself, so the truncation region
    is the support box of F (the radial cutoff of the z0-form is redundant
    in these coordinates: shifts outside config.R_FACTOR times the support
    radius land outside the reachable output box, which is zero-filled).  The
    lattice is refined by trigonometric upsampling until it resolves the
    chirp and output bandwidths; the sheared Fourier sum is evaluated by
    a type-2 nonuniform FFT.
    """
    if F.grid.n != 1:
        raise GridMismatchError("metaplectic_phase_apply supports n = 1 only")
    if s.n != 1:
        raise GridMismatchError("S must be 2x2 for one degree of freedom")
    if form not in ("s1", "alfa1", "alfa2"):
        raise ValueError(f"unknown form {form!r}")
    k_mat, sigma_mat, pref = _integral_form(s, nu, twisted=form != "s1")
    hbar = F.hbar
    grid = F.grid
    box = _support_box(F.values, pad=2)
    if box is None:
        return F.with_values(np.zeros_like(F.values))
    (i0, i1), (k0, k1) = box
    xo, po = grid.axes()
    r_supp = _box_radius(box, (xo, po))
    xs = xo[i0:i1]
    ps = po[k0:k1]

    # Ttilde(K u) F(z) = exp(i z.(J K) u / hbar) F(z - K u / 2)
    r_bil = standard_j(1) @ k_mat
    b_mat = np.linalg.inv(0.5 * k_mat)
    c_mat = b_mat.T @ sigma_mat @ b_mat
    c_mat = 0.5 * (c_mat + c_mat.T)
    g_mat = -(r_bil @ b_mat + c_mat)
    rb = r_bil @ b_mat
    mz = c_mat + (rb + rb.T)
    pref_full = pref / (2.0 * math.pi * hbar) * abs(np.linalg.det(b_mat))

    # reachable output box: the left-slot transport is bounded by the top
    # singular value of S; beyond it the true values are tail
    sig_max = float(np.linalg.svd(s.entries, compute_uv=False)[0])
    r_out = 1.15 * sig_max * r_supp + 3.0 * math.sqrt(hbar)
    ox = np.nonzero(np.abs(xo) <= r_out)[0]
    op = np.nonzero(np.abs(po) <= r_out)[0]
    zx = xo[ox[0]:ox[-1] + 1]
    zp = po[op[0]:op[-1] + 1]

    # per-axis bandwidth budget: chirp on the v-box plus output coupling
    mvx, mvp = max(abs(xs[0]), abs(xs[-1])), max(abs(ps[0]), abs(ps[-1]))
    mzx, mzp = max(abs(zx[0]), abs(zx[-1])), max(abs(zp[0]), abs(zp[-1]))
    bound1 = (abs(c_mat[0, 0]) * mvx + abs(c_mat[0, 1]) * mvp
              + abs(g_mat[0, 0]) * mzx + abs(g_mat[1, 0]) * mzp) / hbar
    bound2 = (abs(c_mat[1, 0]) * mvx + abs(c_mat[1, 1]) * mvp
              + abs(g_mat[0, 1]) * mzx + abs(g_mat[1, 1]) * mzp) / hbar
    u1 = max(1, math.ceil(grid.dx * bound1 * 1.1 / math.pi + 1.0))
    u2 = max(1, math.ceil(grid.dp * bound2 * 1.1 / math.pi + 1.0))
    if xs.size * u1 * ps.size * u2 > _MAX_WORK_POINTS:
        raise TruncationError(
            f"workspace would need {xs.size * u1} x {ps.size * u2} points; "
            "the chirp bandwidth exceeds the refinement budget"
        )
    work = _fft_upsample(F.values[i0:i1, k0:k1], u1, u2)
    dv1 = grid.dx / u1
    dv2 = grid.dp / u2
    nj, nk = work.shape
    vx = xs[xs.size // 2] + (np.arange(nj) - nj // 2) * dv1
    vp = ps[ps.size // 2] + (np.arange(nk) - nk // 2) * dv2

    quad_v = 0.5 * (c_mat[0, 0] * vx[:, None] ** 2
                    + 2.0 * c_mat[0, 1] * vx[:, None] * vp[None, :]
                    + c_mat[1, 1] * vp[None, :] ** 2)
    coeffs = work * np.exp(1j * quad_v / hbar) * (dv1 * dv2)

    gz1 = (g_mat[0, 0] * zx[:, None] + g_mat[1, 0] * zp[None, :]) / hbar
    gz2 = (g_mat[0, 1] * zx[:, None] + g_mat[1, 1] * zp[None, :]) / hbar
    xi1 = dv1 * gz1
    xi2 = dv2 * gz2
    if max(float(np.max(np.abs(xi1))), float(np.max(np.abs(xi2)))) >= math.pi:
        raise TruncationError("sheared targets exceed the refined Nyquist box")
    core = nufft2d2(xi1, xi2, coeffs)

    vcx, vcp = vx[nj // 2], vp[nk // 2]
    quad_z = 0.5 * (mz[0, 0] * zx[:, None] ** 2
                    + 2.0 * mz[0, 1] * zx[:, None] * zp[None, :]
                    + mz[1, 1] * zp[None, :] ** 2)
    lin_z = gz1 * vcx + gz2 * vcp
    block = pref_full * np.exp(1j * (quad_z / hbar + lin_z)) * core

    out = np.zeros(grid.shape(), dtype=complex)
    out[ox[0]:ox[-1] + 1, op[0]:op[-1] + 1] = block
    if ox[0] > 0 or op[0] > 0:
        _warn_at_edge(block, "output mass reaches the reachable-box boundary", tol=1e-6)
    return F.with_values(out)


# ----------------------------------------------------------------------
# Bopp operators

def bopp_apply(a_sigma, F: PhaseFunction) -> PhaseFunction:
    """Bopp operator with twisted symbol a_sigma:
    A F = (2 pi hbar)^{-n} Integral a_sigma(z0) Ttilde(z0) F dz0.

    a_sigma is a callable (z_x array, z_p array) -> complex array.  The
    z0 lattice is the even sublattice (2 dx, 2 dp), so every half-shift
    is an exact index move; truncation at R = 3 times the support radius
    (``config.R_FACTOR``) with a radial raised-cosine roll-off over the last
    20 percent (``config.CUTOFF_FRACTION``).  The symbol must have decayed
    at the truncation ring, else the quadrature is meaningless.

    The sum over shifts (a, b) is a twisted convolution.  Its row-dependent
    factor e^{i theta_j b}, theta_j = 2 x_j dp / hbar, splits as
    e^{i theta_j (k - c)} e^{-i theta_j (k - b - c)} with c = N_p // 2, i.e.
    a modulation mod = e^{-2 i x p / hbar} of the row-shifted F before the
    p-sum and its conjugate after it.  For each x-shift a the p-sum is then
    one row-independent linear convolution, done by a zero-padded FFT of
    length L = next_fast_len(N_p + min(kp, N_p - 1)): O(Kx N L log L) work
    for Kx x-shifts instead of O(Kx Kp N N_p).
    """
    grid = F.grid
    hbar = F.hbar
    box = _support_box(F.values, pad=2)
    if box is None:
        return F.with_values(np.zeros_like(F.values))
    xg, pg = grid.axes()
    r_supp = _box_radius(box, (xg, pg))
    radius = config.R_FACTOR * max(r_supp, grid.dx)

    step_x = 2.0 * grid.dx
    step_p = 2.0 * grid.dp
    kx = int(math.floor(radius / step_x))
    kp = int(math.floor(radius / step_p))
    x0 = np.arange(-kx, kx + 1) * step_x
    p0 = np.arange(-kp, kp + 1) * step_p
    xx0, pp0 = np.meshgrid(x0, p0, indexing="ij")
    rr = np.hypot(xx0, pp0) / radius

    a_vals = np.asarray(a_sigma(xx0, pp0), dtype=complex)
    if a_vals.shape != xx0.shape:
        raise TruncationError("a_sigma must return an array matching its inputs")
    peak = float(np.max(np.abs(a_vals)))
    ring = (rr >= 0.9) & (rr <= 1.0)
    if peak > 0 and ring.any() and float(np.max(np.abs(a_vals[ring]))) > 1e-3 * peak:
        raise TruncationError(
            "twisted symbol has not decayed at the truncation radius"
        )

    chi = _raised_cosine(rr, config.CUTOFF_FRACTION)
    weights = a_vals * chi * (step_x * step_p) / (2.0 * math.pi * hbar)
    keep = np.abs(weights) > 1e-14 * max(peak, 1e-300)
    weights = np.where(keep, weights, 0.0)

    n_x, n_p = grid.shape()
    # p-shifts of N_p or more move F off the grid; the rest form the kernel
    kp_in = min(kp, n_p - 1)
    length = _next_fast_len(n_p + kp_in)
    kernel = np.zeros((2 * kx + 1, length), dtype=complex)
    kernel[:, np.arange(-kp_in, kp_in + 1) % length] = weights[:, kp - kp_in:kp + kp_in + 1]
    kernel_hat = np.fft.fft(kernel, axis=1)

    mod = np.exp((-2j / hbar) * np.multiply.outer(xg, pg))
    acc = np.zeros(grid.shape(), dtype=complex)
    for ix in np.nonzero(keep.any(axis=1))[0]:
        a = ix - kx
        lo, hi = max(0, a), min(n_x, n_x + a)
        if lo >= hi:
            continue
        g = mod[lo:hi] * F.values[lo - a:hi - a]
        conv = np.fft.ifft(np.fft.fft(g, n=length, axis=1) * kernel_hat[ix], axis=1)[:, :n_p]
        acc[lo:hi] += np.exp(-1j * pg * x0[ix] / hbar) * conv
    return F.with_values(np.conj(mod) * acc)
