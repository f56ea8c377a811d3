"""Phase-space side of the metaplectic calculus.

Cross-Wigner transforms, phase-space translations, Bopp operators, and the
extended metaplectic operators acting on functions of z = (x, p).  The
extended operator attached to (S, nu) is realized by honest quadrature of
its phase-space integral

    (2 pi hbar)^{-n} pref Integral exp(i z0.M z0 / 2 hbar) Ttilde(z0) F dz0

over one of the two rows (M, pref) of the table of integral forms,
``symplectic._integral_form``: the Cayley row (form name s1) or the twisted
row (form names alfa1 and alfa2, which are one route).  The integral is
reduced, by the substitution v = z - z0 / 2 that places the integration
variable on the sample lattice of F, to a quadratic chirp times a Fourier
sum over a lattice refined to the Poisson rate of the integrand.  That sum
is evaluated exactly, as n = 2 ``qfio_apply``'s is: one Fourier-ramp shear of
F and two chirp-z passes.  One degree of freedom (two-dimensional phase space).
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import config
from .errors import (BandwidthExceededWarning, GridMismatchError, OutOfDomainError,
                     TruncationError)
from .grids import (Grid, SampledFunction, _Lattice, _box_radius, _centered_fft,
                    _checked_values, _next_fast_len, _quadratic_phase_sum, _smooth_cutoff,
                    _support_box, _translate, _trapezoid, _warn_at_edge, hermite_function,
                    interpolate_values, require_same_frame)
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


def _spectral_band(f: SampledFunction):
    """(lo, hi): the ends, on the hbar-dual axis, of the box holding the
    spectrum of f above config.TAIL_TOL of its peak; None when f vanishes."""
    box = _support_box(_centered_fft(f.values))
    if box is None:
        return None
    (lo, hi), = box
    p = f.grid.dual(f.hbar).axis()
    return float(p[lo]), float(p[hi - 1])


def cross_wigner(f: SampledFunction, g: SampledFunction) -> PhaseFunction:
    """Cross-Wigner transform
    W(f,g)(x,p) = (2 pi hbar)^{-n} Integral e^{-i p.y / hbar}
                  f(x + y/2) conj(g(x - y/2)) dy.

    The y-integral is sampled at y = 2 m dx so both factors are read at
    exact lattice indices: row j, column m + N/2 of the product of two
    window stacks of the zero-padded samples is f[j + m] conj(g[j - m]).
    One centered FFT per x row then lands the result on the compatible
    PhaseGrid, whose p-axis holds only half the band pi hbar / dx.  W(f, g)
    lives on [(lo_f + lo_g) / 2, (hi_f + hi_g) / 2], the mean of the two
    spectral supports; where that leaves [-P_max, P_max) the FFT folds it
    back and BandwidthExceededWarning is raised.
    """
    require_same_frame(f, g)
    if f.grid.n != 1:
        raise GridMismatchError("cross_wigner supports n = 1 only")
    grid = PhaseGrid.compatible(f.grid, f.hbar)
    bands = [_spectral_band(f), _spectral_band(g)]
    if None not in bands:
        lo, hi = (0.5 * (a + b) for a, b in zip(*bands))
        if lo < -grid.P_max or hi >= grid.P_max:
            warnings.warn(
                f"Wigner function spans p in [{lo:.4g}, {hi:.4g}], beyond the phase-space "
                f"lattice's half band [-{grid.P_max:.4g}, {grid.P_max:.4g}); it folds back. "
                "Increase N or decrease X", BandwidthExceededWarning, stacklevel=2)
    n_pts = f.grid.N
    rows_f = sliding_window_view(np.pad(f.values, n_pts // 2), n_pts)[:n_pts]
    rows_g = sliding_window_view(np.pad(np.conj(g.values), n_pts // 2)[::-1], n_pts)
    corr = rows_f * rows_g[n_pts - 1::-1]
    vals = (f.grid.dx / (math.pi * f.hbar)) * _centered_fft(corr, axes=(1,))
    return PhaseFunction(grid, f.hbar, vals)


def phase_shift(F: PhaseFunction, z0: np.ndarray) -> PhaseFunction:
    """Phase-space translation
    Ttilde(z0) F(z) = exp(-i sigma(z, z0) / hbar) F(z - z0/2).

    When the half-shift lands on the lattice the translation is an exact
    index move; otherwise it reads the trigonometric interpolant of F.  The
    phase is separable, exp(i x p0 / hbar) exp(-i p x0 / hbar): one outer
    product of an x-vector and a p-vector.
    """
    z0 = np.asarray(z0, dtype=float).reshape(-1)
    if z0.size != 2:
        raise GridMismatchError("z0 must have length 2")
    x0, p0 = float(z0[0]), float(z0[1])
    shifted = _translate(F.values, F.grid, z0 / 2)
    xg, pg = F.grid.axes()
    mult = np.multiply.outer(np.exp(1j * xg * p0 / F.hbar), np.exp(-1j * pg * x0 / F.hbar))
    return F.with_values(mult * shifted)


def compose_linear(F: PhaseFunction, mat: np.ndarray) -> PhaseFunction:
    """Samples of F(mat z) on F's own grid: the pull-back of its
    trigonometric interpolant by ``grids.interpolate_values``, exact to F's
    content below rounding.  With mat = S^{-1} it is the covariance
    W(S f) = W(f) o S^{-1}."""
    return F.with_values(interpolate_values(F.values, F.grid, mat))


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

def metaplectic_phase_apply(s: SymplecticMatrix, nu: int, F: PhaseFunction,
                            form: str = "s1") -> PhaseFunction:
    """Apply the extended metaplectic operator of (S, nu) to F.

    The row of the table of integral forms named by ``form`` is reduced by
    the substitution v = z - z0 / 2 to a sum over the sample lattice of F,
    where the integrand decays through F itself, so the truncation region
    is the support box of F (the radial cutoff of the z0-form is redundant
    in these coordinates: shifts outside config.R_FACTOR times the support
    radius land outside the reachable output box, which is zero-filled).

    The sum is the trapezoid rule for the v-integral of F(v) times the chirp
    exp(i v.C v / 2 hbar) times exp(i z.G v / hbar); it is exact when the
    integrand's band on each axis, band(F) + bound, stays below the Poisson
    rate 2 pi / dv, so F is refined by trigonometric upsampling to at least
    u = ceil(1.1 dx bound / (2 pi) + 0.55) points per cell on each axis (on
    an FFT-friendly length).  That sum is n = 2 ``qfio_apply``'s for the
    generating function W = (C, -G^T, C), and is evaluated exactly by the
    same primitive, ``grids._quadratic_phase_sum``, whose workspace cap
    raises TruncationError before F is upsampled.
    """
    if F.grid.n != 1:
        raise GridMismatchError("metaplectic_phase_apply supports n = 1 only")
    if s.n != 1:
        raise GridMismatchError("S must be 2x2 for one degree of freedom")
    if form not in ("s1", "alfa1", "alfa2"):
        raise ValueError(f"unknown form {form!r}")
    m_s, pref = _integral_form(s, nu, twisted=form != "s1")
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

    # Ttilde(z0) F(z) = exp(i z.J z0 / hbar) F(z - z0 / 2); at z0 = 2 (z - v)
    # the phase is v.C v / 2 + z.G v + z.C z / 2 and dz0 = 4 dv
    c_mat = 4.0 * m_s
    g_mat = -(2.0 * standard_j(1) + c_mat)
    pref_full = 4.0 * pref / (2.0 * math.pi * hbar)

    # reachable output box: the left-slot transport is bounded by the top
    # singular value of S; beyond it the true values are tail
    sig_max = float(np.linalg.svd(s.entries, compute_uv=False)[0])
    r_out = 1.15 * sig_max * r_supp + 3.0 * math.sqrt(hbar)
    ox = np.nonzero(np.abs(xo) <= r_out)[0]
    op = np.nonzero(np.abs(po) <= r_out)[0]

    # per-axis bandwidth budget: chirp on the v-box plus output coupling
    mvx, mvp = max(abs(xs[0]), abs(xs[-1])), max(abs(ps[0]), abs(ps[-1]))
    mzx, mzp = max(abs(xo[ox[0]]), abs(xo[ox[-1]])), max(abs(po[op[0]]), abs(po[op[-1]]))
    bound1 = (abs(c_mat[0, 0]) * mvx + abs(c_mat[0, 1]) * mvp
              + abs(g_mat[0, 0]) * mzx + abs(g_mat[1, 0]) * mzp) / hbar
    bound2 = (abs(c_mat[1, 0]) * mvx + abs(c_mat[1, 1]) * mvp
              + abs(g_mat[0, 1]) * mzx + abs(g_mat[1, 1]) * mzp) / hbar
    u1 = max(1, math.ceil(1.1 * grid.dx * bound1 / (2.0 * math.pi) + 0.55))
    u2 = max(1, math.ceil(1.1 * grid.dp * bound2 / (2.0 * math.pi) + 0.55))
    # at least u1 x u2 points per cell, on FFT-friendly lengths
    n_pts = (_next_fast_len(xs.size * u1), _next_fast_len(ps.size * u2))
    z_idx = [range(ox[0] - grid.N // 2, ox[-1] + 1 - grid.N // 2),
             range(op[0] - grid.N_p // 2, op[-1] + 1 - grid.N_p // 2)]
    centre = np.array([xs[xs.size // 2], ps[ps.size // 2]])
    block = _quadratic_phase_sum(F.values[i0:i1, k0:k1], n_pts, grid.steps, centre,
                                 c_mat, -g_mat.T, c_mat, z_idx, grid.steps, hbar)
    block *= pref_full

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
    (``config.R_FACTOR``) with a radial C-infinity roll-off over the last
    20 percent (``config.CUTOFF_FRACTION``).  The symbol must have decayed
    at the truncation ring, else the quadrature is meaningless.

    The quadrature is the finite sum over shifts (a, b) of
    w(a, b) e^{-i p x0_a / hbar} e^{i x p0_b / hbar} F(x - a dx, p - b dp),
    zero-filled where a shift leaves the grid.  The route follows from the
    grid.  When N_p dx dp = pi hbar (every grid ``cross_wigner`` makes; checked
    to 1e-12 relative) both modulations are whole-bin rolls of the spectrum
    of F zero-padded to 2 N_p along p, and the sum is one banded matrix
    product per class of lines of that spectrum (``_bopp_padded_spectrum``).
    On any other grid it is one zero-padded FFT convolution along p per
    x-shift (``_bopp_shift_loop``).  Both are the same sum, to rounding.
    """
    weights = _bopp_weights(a_sigma, F)
    if weights is None:
        return F.with_values(np.zeros_like(F.values))
    grid = F.grid
    rolls = abs(grid.N_p * grid.dx * grid.dp - math.pi * F.hbar) <= 1e-12 * math.pi * F.hbar
    route = _bopp_padded_spectrum if rolls else _bopp_shift_loop
    return F.with_values(route(weights, F))


def _bopp_weights(a_sigma, F: PhaseFunction):
    """The quadrature weights w(a, b) of ``bopp_apply`` on the shifts
    (x0, p0) = (2 a dx, 2 b dp), |a| <= kx, |b| <= kp, as a (2 kx + 1) x
    (2 kp + 1) array: the symbol times the cutoff times the cell over
    2 pi hbar, zero below 1e-14 of the symbol's peak.  None when F or every
    weight vanishes; TruncationError when the symbol is not finite or has not
    decayed at the truncation ring."""
    grid = F.grid
    box = _support_box(F.values, pad=2)
    if box is None:
        return None
    r_supp = _box_radius(box, grid.axes())
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
    if not np.all(np.isfinite(a_vals)):
        raise TruncationError("a_sigma must return finite values")
    peak = float(np.max(np.abs(a_vals)))
    ring = (rr >= 0.9) & (rr <= 1.0)
    if peak > 0 and ring.any() and float(np.max(np.abs(a_vals[ring]))) > 1e-3 * peak:
        raise TruncationError(
            "twisted symbol has not decayed at the truncation radius"
        )

    chi = _smooth_cutoff(rr, config.CUTOFF_FRACTION)
    weights = a_vals * chi * (step_x * step_p) / (2.0 * math.pi * F.hbar)
    keep = np.abs(weights) > 1e-14 * max(peak, 1e-300)
    if not keep.any():
        return None
    return np.where(keep, weights, 0.0)


def _p_kernel(weights: np.ndarray, n_p: int, length: int) -> np.ndarray:
    """The weights' p-shifts b placed at b mod ``length``; shifts of N_p or
    more move F off the grid and are dropped."""
    kp = weights.shape[1] // 2
    kp_in = min(kp, n_p - 1)
    kernel = np.zeros((weights.shape[0], length), dtype=complex)
    kernel[:, np.arange(-kp_in, kp_in + 1) % length] = weights[:, kp - kp_in:kp + kp_in + 1]
    return kernel


def _bopp_shift_loop(weights: np.ndarray, F: PhaseFunction) -> np.ndarray:
    """The Bopp sum on any grid, one x-shift a at a time.  Its row-dependent
    factor e^{i theta_j b}, theta_j = 2 x_j dp / hbar, splits as
    e^{i theta_j (k - c)} e^{-i theta_j (k - b - c)} with c = N_p // 2, i.e.
    a modulation mod = e^{-2 i x p / hbar} of the row-shifted F before the
    p-sum and its conjugate after it.  For each x-shift the p-sum is then
    one row-independent linear convolution, done by a zero-padded FFT of
    length L = next_fast_len(N_p + min(kp, N_p - 1)): O(Kx N L log L) work
    for Kx x-shifts instead of O(Kx Kp N N_p)."""
    grid, hbar = F.grid, F.hbar
    xg, pg = grid.axes()
    n_x, n_p = grid.shape()
    kx, kp = weights.shape[0] // 2, weights.shape[1] // 2
    x0 = np.arange(-kx, kx + 1) * (2.0 * grid.dx)
    length = _next_fast_len(n_p + min(kp, n_p - 1))
    kernel_hat = np.fft.fft(_p_kernel(weights, n_p, length), axis=1)

    mod = np.exp((-2j / hbar) * np.multiply.outer(xg, pg))
    acc = np.zeros(grid.shape(), dtype=complex)
    for ix in np.flatnonzero(weights.any(axis=1)):
        a = ix - kx
        lo, hi = max(0, a), min(n_x, n_x + a)
        if lo >= hi:
            continue
        g = mod[lo:hi] * F.values[lo - a:hi - a]
        conv = np.fft.ifft(np.fft.fft(g, n=length, axis=1) * kernel_hat[ix], axis=1)[:, :n_p]
        acc[lo:hi] += np.exp(-1j * pg * x0[ix] / hbar) * conv
    return np.conj(mod) * acc


def _bopp_padded_spectrum(weights: np.ndarray, F: PhaseFunction) -> np.ndarray:
    """The Bopp sum on a grid with N_p dx dp = pi hbar, with no FFT per shift.

    With L = 2 N_p, Fh = DFT_L of F zero-padded along p and
    G(c, a) = Sum_b w(a, b) e^{2 pi i b c / L}, the modulation e^{i x_j p0_b / hbar}
    is a roll of the p-convolution's spectrum by 2 (j - N // 2) bins and
    e^{-i p x0_a / hbar} one by 2 a bins, so
        out_hat(j, m) = Sum_a ph(a) G(2 (j - N // 2) - m - 2 a, a) Fh(j - a, m + 2 a)
    (indices of G and Fh mod L, Fh zero for rows off the grid), with
    ph(a) = e^{2 pi i 2 a (N_p // 2) / L}, and the output is the first N_p
    samples of IDFT_L(out_hat).  The padding keeps the p-shifts zero-filled,
    as the shift loop's linear convolution does.

    The shift (j, m) -> (j - a, m + 2 a) keeps the line u = (2 j + m) mod L.
    Writing u = r + 4 q mod L (r < g = gcd(4, L), q < L / g) and s = j - q,
    out_hat(s + q, u - 2 (s + q)) = Sum_s' M_r[s, s'] B_r[s', q], where
    B_r[s', q] = Fh(s' + q, (r + 2 q - 2 s') mod L) and
    M_r[s, s'] = ph(a) G(2 (s + s') - 2 (N // 2) - r, a), a = s - s':
    one banded matrix for all lines of the class r.
    """
    n_x, n_p = F.grid.shape()
    length = 2 * n_p
    kx = weights.shape[0] // 2
    rows = np.flatnonzero(weights.any(axis=1))
    # shifts a_lo..a_hi, widened to hold a = 0 so the band pads are >= 0
    a_lo, a_hi = min(rows[0] - kx, 0), max(rows[-1] - kx, 0)
    band = a_hi - a_lo + 1
    shifts = np.arange(a_lo, a_hi + 1)
    turns = (2 * shifts * (n_p // 2)) % length
    g_tab = np.fft.ifft(_p_kernel(weights[shifts + kx], n_p, length), axis=1)
    g_tab *= (length * np.exp(2j * math.pi * turns / length))[:, None]

    n_cls = math.gcd(4, length)
    n_q = length // n_cls
    n_s = n_x + n_q - 1                     # s = i - (n_q - 1), i < n_s
    s = np.arange(n_s) - (n_q - 1)
    q = np.arange(n_q)
    j = s[:, None] + q[None, :]
    sentinel = n_x * length                 # a zero appended to the flat spectrum
    row_at = np.where((j >= 0) & (j < n_x), j * length, -1)
    dm = 2 * q[None, :] - 2 * s[:, None]
    spec = np.zeros(sentinel + 1, dtype=complex)
    spec[:-1].reshape(n_x, length)[...] = np.fft.fft(F.values, n=length, axis=1)

    # row s of M_r holds a = a_hi - t at column t, meeting B_r's row
    # s + t - a_hi, which is row s + t of b_ext
    a_col = a_hi - np.arange(band)
    g_at = 4 * s[:, None] - 2 * a_col[None, :] - 2 * (n_x // 2)
    g_row = (a_col - a_lo) * length
    b_ext = np.zeros((n_s + band - 1, n_q), dtype=complex)
    b_rows = sliding_window_view(b_ext, band, axis=0).transpose(0, 2, 1)
    for r in range(n_cls):
        m_band = g_tab.ravel()[g_row + (g_at - r) % length]
        idx = np.where(row_at >= 0, row_at + (dm + r) % length, sentinel)
        b_ext[a_hi:a_hi + n_s] = spec[idx]
        # class r reads and writes only its own lines, all read above
        spec[idx] = (m_band[:, None, :] @ b_rows)[:, 0]
        spec[-1] = 0.0
    return np.fft.ifft(spec[:-1].reshape(n_x, length), axis=1)[:, :n_p]
