"""Metaplectic operators on sampled functions.

The operator attached to a generating function W = (P, L, Q) and Maslov
branch m is

    S_{W,m} f(x) = (1 / 2 pi i hbar)^{n/2} i^m sqrt|det L|
                   Integral exp(i W(x, x') / hbar) f(x') dx'

and factors exactly as chirp(P) . scale(L, m) . J . chirp(Q), where
J = i^{-n/2} F_hbar is the hbar-scaled Fourier transform.  Three
independent realizations are provided:

* ``qfio_apply(..., method="factored")``: the chirp/scale/Fourier word,
  the scale and Fourier steps fused into exact chirp-z Fourier sums (for a
  full L in n = 2, between two exact shears), with no regridding;
* ``qfio_apply(..., method="quadrature")``: direct trapezoid summation of
  the kernel integral;
* ``bochner_apply``: the phase-space integral over Heisenberg-Weyl
  operators weighted by the Cayley-transform chirp, which depends on the
  Conley-Zehnder index instead of (W, m) and serves as the independent
  oracle for the index bookkeeping.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import config
from .errors import BandwidthExceededWarning, FactorizationFailedError, GridMismatchError
from .grids import (SampledFunction, _box_radius, _centered_fft, _cross_chirp,
                    _fourier_sum_axis, _ldu_plan, _shear, _smooth_cutoff, _support_box,
                    _translate, _warn_at_edge, interpolate_values)
from .indices import maslov_branch
from .symplectic import (
    GeneratingFunction,
    SymplecticMatrix,
    _integral_form,
    det_s_minus_i,
    free_from_generating,
    generating_from_free,
    rotation,
    rotation_generating,
)

__all__ = [
    "chirp_multiply",
    "scale_op",
    "hbar_fourier",
    "heisenberg_weyl",
    "qfio_apply",
    "MetaplecticWord",
    "factor_pair",
    "bochner_apply",
    "support_radius",
]


# ----------------------------------------------------------------------
# elementary operators

def _quadratic_phase(mesh: list[np.ndarray], mat: np.ndarray) -> np.ndarray:
    """(1/2) <M x, x> on a mesh of coordinate arrays."""
    n = len(mesh)
    acc = np.zeros_like(mesh[0])
    for i in range(n):
        for k in range(n):
            acc = acc + 0.5 * mat[i, k] * mesh[i] * mesh[k]
    return acc


def chirp_multiply(f: SampledFunction, p: np.ndarray) -> SampledFunction:
    """Multiply by the chirp exp(i <P x, x> / 2 hbar); P symmetric.

    Pointwise and exactly norm preserving."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    if p.shape != (f.grid.n, f.grid.n):
        raise GridMismatchError(f"chirp matrix must be {f.grid.n}x{f.grid.n}")
    phase = _quadratic_phase(f.grid.meshgrid(), p)
    return f.with_values(f.values * np.exp(1j * phase / f.hbar))


def scale_op(f: SampledFunction, l: np.ndarray, m: int) -> SampledFunction:
    """Scaling operator i^m sqrt|det L| f(L x).

    The branch m must match the sign of det L (even iff positive); L is
    any invertible n x n matrix.  Values at non-lattice points L x come
    from the trigonometric interpolant (``grids.interpolate_values``, exact
    to f's content below rounding); anything pulled from beyond the grid is
    treated as tail (zero).
    """
    l = np.atleast_2d(np.asarray(l, dtype=float))
    n = f.grid.n
    if l.shape != (n, n) or not np.all(np.isfinite(l)):
        raise GridMismatchError(f"scaling matrix must be a finite {n}x{n} matrix")
    m = maslov_branch(l, m)
    vals = interpolate_values(f.values, f.grid, l)
    amp = (1j ** m) * math.sqrt(abs(np.linalg.det(l)))
    return f.with_values(amp * vals)


def hbar_fourier(f: SampledFunction, inverse: bool = False) -> SampledFunction:
    """Apply J = i^{-n/2} F_hbar; the result lives on the hbar-dual grid.

    F_hbar f(p) = (2 pi hbar)^{-n/2} Integral exp(-i p.x / hbar) f(x) dx,
    evaluated exactly on the dual lattice p_k = (pi hbar / X)(k - N/2) by
    a centered FFT.  ``inverse=True`` applies J^{-1} = i^{n/2} F_hbar^{-1}.
    Unitary to rounding; warns when spectral mass reaches the dual edge.
    """
    grid = f.grid
    n = grid.n
    scale = grid.cell_volume() * (2.0 * math.pi * f.hbar) ** (-n / 2.0)
    phase = np.exp(-1j * math.pi * n / 4.0) if not inverse else np.exp(1j * math.pi * n / 4.0)
    vals = phase * scale * _centered_fft(f.values, inverse=inverse)
    _warn_at_edge(vals, "spectral mass reaches the dual-grid edge; increase N or X")
    return SampledFunction(grid.dual(f.hbar), f.hbar, vals, check_tails=False)


def heisenberg_weyl(f: SampledFunction, z0: np.ndarray) -> SampledFunction:
    """Heisenberg-Weyl operator
    T(z0) f(x) = exp(i (p0.x - p0.x0 / 2) / hbar) f(x - x0).

    Shifts by lattice-aligned x0 are exact index moves, others read the
    trigonometric interpolant.  Warns (BandwidthExceededWarning) when the
    shifted function reaches the grid edge, where its mass is lost.
    """
    z0 = np.asarray(z0, dtype=float).reshape(-1)
    n = f.grid.n
    if z0.size != 2 * n:
        raise GridMismatchError(f"z0 must have length {2 * n}")
    x0, p0 = z0[:n], z0[n:]
    vals = _translate(f.values, f.grid, x0)
    mesh = f.grid.meshgrid()
    lin = sum(p0[i] * mesh[i] for i in range(n))
    phase = np.exp(1j * (lin - 0.5 * float(p0 @ x0)) / f.hbar)
    out = f.with_values(phase * vals)
    _warn_at_edge(out.values, "shifted function reaches the grid edge; increase X")
    return out


# ----------------------------------------------------------------------
# quadratic Fourier integral operators

def _qfio_factored(w: GeneratingFunction, m: int, f: SampledFunction) -> SampledFunction:
    """chirp(P) . scale(L, m) . J . chirp(Q), with scale . J fused into
    chirp-z Fourier sums at the targets L x (no regridding).  In n = 2,
    L = P_out Lo D U P_in (``grids._ldu_plan``) and (J g)(Lo p) =
    J(g o Lo^{-T})(p): g is transposed by P_out and sheared by Lo^{-T}, the
    sums run per axis at D, the output is sheared by U and transposed by
    P_in; a diagonal L takes neither.  A target with some (L x)_i or
    (D U P_in x)_i beyond the period [-pi hbar / dx, pi hbar / dx) is zeroed."""
    n, size, dx = f.grid.n, f.grid.N, f.grid.dx
    (swap_out, swap_in), diag, b, c = _ldu_plan(w.L) if n == 2 else ((False,) * 2, w.L[0], 0, 0)
    vals = chirp_multiply(f, w.Q).values
    vals = vals.T if swap_out else vals
    # (J g)(L x_t), axis by axis; axis 0 is padded by each shear's reach |slope| X
    pad = [math.ceil(abs(s) * (size // 2)) for s in (c, b)]
    src, tgt = ([(np.arange(-p, size + p) - size // 2) * dx, f.grid.axis()] for p in pad)
    if c:
        vals = _shear(np.pad(vals, [(pad[0],) * 2, (0, 0)]), 0, c)
    band = math.pi * f.hbar / dx
    keeps = [(l * t >= -band) & (l * t < band) for l, t in zip(diag, tgt)]
    for ax, l_ax in enumerate(diag):
        vals = _fourier_sum_axis(
            vals, ax,
            x0=src[ax][0], dx=dx,
            p0=l_ax * tgt[ax][0], dp=l_ax * dx,
            n_out=tgt[ax].size, hbar=f.hbar, sign=-1,
        )
        vals = vals * keeps[ax].reshape((-1,) + (1,) * (n - 1 - ax))
    if b:
        vals = _shear(vals, 0, -b)[pad[1]:pad[1] + size]
    vals = vals.T if swap_in else vals
    inside = None  # for a diagonal L the kept targets are the box of keeps
    if b or c or swap_in or swap_out:
        mid = [(diag[0], diag[0] * b), (0.0, diag[1])]
        mesh = np.ix_(*f.grid.axes())
        inside = np.ones(vals.shape, dtype=bool)
        for row in {*map(tuple, w.L), *(r[::-1] if swap_in else r for r in mid)}:
            lx = sum(l_ik * x_k for l_ik, x_k in zip(row, mesh))
            inside &= (lx >= -band) & (lx < band)
        vals[~inside] = 0.0
    pref = (
        f.grid.cell_volume()
        * (2.0 * math.pi * f.hbar) ** (-n / 2.0)
        * np.exp(-1j * math.pi * n / 4.0)
        * (1j ** m) * math.sqrt(abs(np.linalg.det(w.L)))
    )
    out = chirp_multiply(f.with_values(pref * vals), w.P)
    if inside is None:
        in_band, edge = all(k.all() for k in keeps), out.values[np.ix_(*keeps)]
    else:
        in_band, edge = inside.all(), out.values
    limit = ("grid edge; increase X" if in_band
             else "alias limit |L x| = pi hbar / dx; increase N or decrease X")
    _warn_at_edge(edge, f"operator output reaches the {limit}", inside=inside)
    return out


def _qfio_quadrature(w: GeneratingFunction, m: int, f: SampledFunction) -> SampledFunction:
    """Direct trapezoid summation of the kernel integral, total point count
    capped at 4096.

    The kernel factors exactly:

        exp(i W(x, x') / hbar)
            = exp(i W(x, 0) / hbar) Prod_{i,k} e_ik[x'_i, x_k] exp(i W(0, x') / hbar)

    with the chirps W(x, 0) = P x.x / 2, W(0, x') = Q x'.x' / 2 and one
    N x N table e_ik[u, v] = exp(-i L_ik x_i[u] x_k[v] / hbar) per entry of
    L, so no phase is evaluated on the pair grid.  n = 1 is one matvec.  For
    n = 2 the sum over x' = (x_a, x_b) at the output (x_t, x_v) is
    Sum_a e00[a, t] e01[a, v] Sum_b rhs[a, b] e10[b, t] e11[b, v]: the N^3
    array rhs[a, b] e00[a, t] e10[b, t] meets e11 in one batched matmul and
    e01 in one contraction over a.  Cost O(N^{n+2}).  Targets with
    max_i |(L x)_i| >= pi hbar / dx are wrapped, as by any trapezoid sum, not
    zeroed as in the factored route; it warns (BandwidthExceededWarning)
    when the output there exceeds config.TAIL_TOL times its peak.
    """
    grid = f.grid
    total = grid.N ** grid.n
    if total > 4096:
        raise GridMismatchError(
            f"quadrature method needs N^n <= 4096 points, got {total}"
        )
    pts = np.stack(grid.meshgrid(), axis=-1)
    zero = np.zeros(grid.n)
    rhs = f.values * grid.trapezoid_weights() * np.exp(1j * w.value(zero, pts) / f.hbar)
    axes = grid.axes()
    e = [[np.exp((-1j * w.L[i, k] / f.hbar) * np.multiply.outer(axes[i], axes[k]))
          for k in range(grid.n)] for i in range(grid.n)]
    if grid.n == 1:
        out = rhs @ e[0][0]
    else:
        rows = e[0][0].T[:, :, None] * rhs  # (t, a, b)
        rows *= e[1][0].T[:, None, :]
        out = np.einsum("tav,av->tv", rows @ e[1][1], e[0][1])
    pref = (
        (2.0 * math.pi * f.hbar) ** (-grid.n / 2.0)
        * np.exp(-1j * math.pi * grid.n / 4.0)
        * (1j ** m) * math.sqrt(abs(np.linalg.det(w.L)))
    )
    out = pref * out * np.exp(1j * w.value(pts, zero) / f.hbar)
    wrapped = np.any(np.abs(pts @ w.L.T) >= math.pi * f.hbar / grid.dx, axis=-1)
    tail = float(np.max(np.abs(out[wrapped]), initial=0.0))
    peak = float(np.max(np.abs(out)))
    if tail > config.TAIL_TOL * peak:
        warnings.warn(
            "operator output reaches the alias limit |L x| = pi hbar / dx; increase N or "
            f"decrease X: relative tail {tail / peak:.2e} > {config.TAIL_TOL:g}; results may "
            "lose accuracy", BandwidthExceededWarning, stacklevel=3)
    return f.with_values(out)


def qfio_apply(w: GeneratingFunction, m: int, f: SampledFunction,
               method: str = "factored") -> SampledFunction:
    """Apply the quadratic Fourier integral operator of (W, m) to f.

    method="factored" uses the exact chirp/scale/Fourier factorization;
    method="quadrature" sums the kernel integral directly.  Both return
    samples on f's own grid.
    """
    if w.n != f.grid.n:
        raise GridMismatchError(f"W has n={w.n} but f has n={f.grid.n}")
    m = maslov_branch(w.L, m)
    if method == "factored":
        return _qfio_factored(w, m, f)
    if method == "quadrature":
        return _qfio_quadrature(w, m, f)
    raise ValueError(f"unknown method {method!r}")


class MetaplecticWord:
    """Finite product of quadratic Fourier integral operators.

    factors[0] is the leftmost operator: the word [(W1, m1), (W2, m2)]
    applies (W2, m2) first.
    """

    __slots__ = ("factors",)

    def __init__(self, factors):
        factors = tuple((w, maslov_branch(w.L, m)) for w, m in factors)
        if not factors:
            raise ValueError("a word needs at least one factor")
        n = factors[0][0].n
        if any(w.n != n for w, _ in factors):
            raise GridMismatchError("all factors must share the same n")
        self.factors = factors

    @property
    def n(self) -> int:
        return self.factors[0][0].n

    def projection(self) -> SymplecticMatrix:
        """Product of the free symplectic matrices of the factors."""
        s = free_from_generating(self.factors[0][0])
        for w, _ in self.factors[1:]:
            s = s @ free_from_generating(w)
        return s

    def inverse(self) -> "MetaplecticWord":
        """Exact inverse word: reversed factors, each (W, m) -> (-W(x',x), n-m)."""
        inv = [(w.inverse(), (w.n - m) % 4) for w, m in reversed(self.factors)]
        return MetaplecticWord(inv)

    def apply(self, f: SampledFunction, method: str = "factored") -> SampledFunction:
        out = f
        for w, m in reversed(self.factors):
            out = qfio_apply(w, m, out, method=method)
        return out

    def __len__(self) -> int:
        return len(self.factors)


_THETA_CANDIDATES = (
    math.pi / 2, math.pi / 3, 2 * math.pi / 3, math.pi / 4,
    3 * math.pi / 4, math.pi / 6, 5 * math.pi / 6,
)
_LAMBDA_CANDIDATES = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0)


def factor_pair(s: SymplecticMatrix):
    """Factor S into two free factors with nondegenerate S_W - I.

    Writes S = S_{W1} S_{W2} with S_{W2} a plane rotation, then shifts
    Q1 -> Q1 + lambda I and P2 -> P2 - lambda I (the operator product is
    unchanged because only Q1 + P2 enters it), scanning lambda over a fixed
    candidate list and keeping the argmax of
    min(|det(S_{W1} - I)|, |det(S_{W2} - I)|).

    Returns ((W1, m1), (W2, m2)).  Raises FactorizationFailedError when no
    candidate clears ``config.DET_FLOOR``, the gate of the integral forms.
    """
    n = s.n
    best_theta, best_sv = None, 0.0
    for theta in _THETA_CANDIDATES:
        cand = s @ rotation(-theta, n)
        sv = np.linalg.svd(cand.b, compute_uv=False)
        smin = float(sv[-1]) / max(1.0, float(sv[0]))
        if smin > best_sv:
            best_theta, best_sv = theta, smin
    if best_theta is None or best_sv <= 1e-8:
        raise FactorizationFailedError("no rotation candidate leaves a free left factor")
    w1 = generating_from_free(s @ rotation(-best_theta, n))
    w2 = rotation_generating(best_theta, n)
    m1 = 0 if np.linalg.det(w1.L) > 0 else 1
    m2 = 0

    eye = np.eye(n)
    best = None
    for lam in _LAMBDA_CANDIDATES:
        w1l = GeneratingFunction(w1.P, w1.L, w1.Q + lam * eye)
        w2l = GeneratingFunction(w2.P - lam * eye, w2.L, w2.Q)
        score = min(abs(det_s_minus_i(w1l)), abs(det_s_minus_i(w2l)))
        if best is None or score > best[0]:
            best = (score, w1l, w2l)
    score, w1l, w2l = best
    if score <= config.DET_FLOOR:
        raise FactorizationFailedError(
            f"lambda scan left min |det(S_W - I)| = {score:.3e} <= {config.DET_FLOOR:g}"
        )
    resid = np.max(np.abs(
        (free_from_generating(w1l) @ free_from_generating(w2l)).entries - s.entries
    ))
    if resid > config.TOL_SYMP * max(1.0, float(np.max(np.abs(s.entries)))):
        raise FactorizationFailedError(f"factor product residual {resid:.3e}")
    return (w1l, m1), (w2l, m2)


# ----------------------------------------------------------------------
# phase-space (Bochner) realization

def support_radius(f: SampledFunction) -> float:
    """Half-width of the bounding box where |f| exceeds config.TAIL_TOL * max|f|."""
    box = _support_box(f.values)
    if box is None:
        return 0.0
    return _box_radius(box, f.grid.axes())


def bochner_apply(s: SymplecticMatrix, nu: int, f: SampledFunction,
                  form: str = "s1") -> SampledFunction:
    """Apply S to f through its phase-space (Bochner) integral

        (2 pi hbar)^{-n} pref Integral exp(i z0.M z0 / 2 hbar) T(z0) f dz0

    over a row (M, pref) of the table of integral forms,
    ``symplectic._integral_form``: form="s1" is the Cayley row, "s2" and
    "s3" the twisted row (checks the Cayley identities).

    The lattice is truncated at |z0| <= R = 3 support_radius(f)
    (``config.R_FACTOR``) with a radial C-infinity roll-off over the last
    20 percent (``config.CUTOFF_FRACTION``); x0 runs over exact grid
    multiples, p0 over a Nyquist-resolved uniform lattice.  One degree of
    freedom only.  Independent of the (W, m) data: uses (S, nu) and the
    Cayley transform, which is what makes it an oracle for the index laws.

    The x0 x p0 coefficients are those of the direct construction on the
    same lattice, built from separable pieces: the roll-off is evaluated on
    the quadrant x0, p0 >= 0 and mirrored (bit-identical), and the phase
    (m00 x0^2 / 2 + (m01 - 1/2) x0 p0 + m11 p0^2 / 2) / hbar splits into a
    row chirp, a column chirp, and the cross term, taken from a two-level
    table (``grids._cross_chirp``).  An exp or hypot over the full lattice
    is never evaluated.  The shifts f(x - x0) are the rows of one window
    stack of f, zero-padded by the largest shift.
    """
    if f.grid.n != 1:
        raise GridMismatchError("bochner_apply supports n = 1 only")
    if form not in ("s1", "s2", "s3"):
        raise ValueError(f"unknown form {form!r}")
    m_s, pref = _integral_form(s, nu, twisted=form != "s1")
    hbar = f.hbar
    grid = f.grid
    dx = grid.dx
    x_lo = -(grid.N // 2) * dx

    r_f = support_radius(f)
    if r_f == 0.0:
        return f.with_values(np.zeros_like(f.values))
    # shifts beyond X + r_f move the support off the grid entirely
    radius = min(config.R_FACTOR * r_f, grid.X + r_f)
    k_max = int(math.floor(radius / dx))
    x0 = np.arange(-k_max, k_max + 1) * dx

    # p0 at 2.5x the Nyquist rate of the chirp
    slope = (abs(m_s[1, 1]) * radius + abs(m_s[0, 1]) * radius
             + grid.X + 0.5 * radius) / hbar
    dp0 = math.pi / (2.5 * max(slope, 1.0 / radius))
    j_max = int(math.ceil(radius / dp0))
    p0 = np.arange(-j_max, j_max + 1) * dp0

    # the roll-off on the quadrant x0, p0 >= 0, mirrored: (-k) dx = -(k dx)
    # exactly, so the mirror is bit-identical to the roll-off of the lattice
    chi = _smooth_cutoff(np.hypot.outer(x0[k_max:], p0[j_max:]) / radius,
                         config.CUTOFF_FRACTION)
    chi = np.concatenate((chi[:0:-1], chi), axis=0)
    chi = np.concatenate((chi[:, :0:-1], chi), axis=1)

    # the chirp z0.M z0 / 2 and the shift phase -p0 x0 / 2 of T(z0): the
    # row chirp m00 x0^2 / 2 multiplies the shifted rows, the column chirp
    # and the cross term (m01 - 1/2) x0 p0 come from the two-level table
    row_chirp = np.exp(0.5j * m_s[0, 0] * x0 * x0 / hbar)
    theta = (m_s[0, 1] - 0.5) * dx * dp0 / hbar
    coeff = _cross_chirp(theta, -k_max, k_max + 1, j_max, 0.5 * m_s[1, 1] * p0 * p0 / hbar)
    coeff *= chi

    # inner p0 transform: for each x0 row, sum_p0 coeff exp(i p0 x / hbar)
    inner = _fourier_sum_axis(
        coeff, 1, x0=float(p0[0]), dx=dp0,
        p0=x_lo, dp=dx, n_out=grid.N, hbar=hbar, sign=1,
    )  # shape (len(x0), N); axis 1 is the output x index

    # row idx of the reversed window stack of f, zero-padded by k_max, is
    # f(x - x0[idx]); rows are summed in shift order, and factors keep their
    # order too (complex products need not commute bit for bit)
    np.multiply(row_chirp[:, None], inner, out=inner)
    np.multiply(sliding_window_view(np.pad(f.values, k_max), grid.N)[::-1], inner, out=inner)
    out = inner.sum(axis=0)
    out *= pref / (2.0 * math.pi * hbar) * dx * dp0
    return f.with_values(out)
