"""Metaplectic operators on sampled functions.

The operator attached to a generating function W = (P, L, Q) and Maslov
branch m is

    S_{W,m} f(x) = (1 / 2 pi i hbar)^{n/2} i^m sqrt|det L|
                   Integral exp(i W(x, x') / hbar) f(x') dx'

and factors exactly as chirp(P) . scale(L, m) . J . chirp(Q), where
J = i^{-n/2} F_hbar is the hbar-scaled Fourier transform.  Three
independent realizations are provided:

* ``qfio_apply(..., method="factored")``: the chirp/scale/Fourier word,
  with the scale and Fourier steps fused into one exact chirp-z Fourier
  sum so no intermediate regridding occurs;
* ``qfio_apply(..., method="quadrature")``: direct trapezoid summation of
  the kernel integral;
* ``bochner_apply``: the phase-space integral over Heisenberg-Weyl
  operators weighted by the Cayley-transform chirp, which depends on the
  Conley-Zehnder index instead of (W, m) and serves as the independent
  oracle for the index bookkeeping.
"""

from __future__ import annotations

import math

import numpy as np

from . import config
from .errors import FactorizationFailedError, GridMismatchError
from .grids import (SampledFunction, _BLOCK_BYTES, _box_radius, _centered_fft,
                    _integer_shift, _next_fast_len, _raised_cosine, _support_box,
                    _translate, _warn_at_edge, interpolate_values)
from .indices import maslov_branch
from .symplectic import (
    GeneratingFunction,
    SymplecticMatrix,
    _integral_form,
    cayley,
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
# exact Fourier sums on arbitrary uniform target lattices (chirp z)

def _fourier_sum_axis(values: np.ndarray, axis: int, x0: float, dx: float,
                      p0: float, dp: float, n_out: int, hbar: float,
                      sign: int) -> np.ndarray:
    """Along one axis: out_t = sum_j values_j exp(sign i (p0 + t dp)(x0 + j dx) / hbar).

    Exact to rounding for any uniform target lattice, cost O((N + n_out) log):
    Bluestein's chirp z (Rabiner, Schafer & Rader 1969).  With
    theta = sign dp dx / hbar, the identity j t = (j^2 + t^2 - (t - j)^2) / 2
    turns the sum into one linear convolution with exp(-i theta k^2 / 2),
    k = -(N - 1) .. n_out - 1, done by one zero-padded FFT."""
    work = np.moveaxis(values, axis, -1)
    nsrc = work.shape[-1]
    theta = sign * dp * dx / hbar
    j = np.arange(nsrc)
    t = np.arange(n_out)
    k = np.arange(1 - nsrc, n_out)
    pre = np.exp(1j * (sign * p0 * dx / hbar * j + 0.5 * theta * (j * j)))
    post = np.exp(1j * (sign * (p0 * x0 + t * dp * x0) / hbar + 0.5 * theta * (t * t)))
    length = _next_fast_len(nsrc + n_out - 1)
    kernel = np.zeros(length, dtype=complex)
    kernel[k % length] = np.exp(-0.5j * theta * (k * k))
    # numpy.fft writes in its input's layout, and on strided rows (axis 0 of
    # a 2-D array) it ran about 1.4x slower than on a contiguous copy
    spec = np.fft.fft(np.ascontiguousarray(work * pre), n=length, axis=-1)
    spec *= np.fft.fft(kernel)  # in place: one padded array alive, not three
    conv = np.fft.ifft(spec, axis=-1, out=spec)
    return np.moveaxis(conv[..., :n_out] * post, -1, axis)


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
    from cubic interpolation; anything pulled from beyond the grid is
    treated as tail (zero).
    """
    l = np.atleast_2d(np.asarray(l, dtype=float))
    m = maslov_branch(l, m)
    n = f.grid.n
    if l.shape != (n, n):
        raise GridMismatchError(f"scaling matrix must be {n}x{n}")
    axes = f.grid.meshgrid()
    pts = [sum(l[i, k] * axes[k] for k in range(n)) for i in range(n)]
    vals = interpolate_values(f.values, f.grid, pts)
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

    Shifts by lattice-aligned x0 are exact index moves; other shifts use
    cubic interpolation.  Warns (BandwidthExceededWarning) when the shifted
    function reaches the grid edge, where its mass is lost.
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
    """chirp(P) . scale(L, m) . J . chirp(Q), with scale . J fused into a
    single chirp-z Fourier sum evaluated at the targets L x on the output
    grid (no intermediate regridding, hence no interpolation loss)."""
    n = f.grid.n
    if n == 2 and (abs(w.L[0, 1]) > 0 or abs(w.L[1, 0]) > 0):
        raise GridMismatchError("factored method supports diagonal L only for n = 2")
    g = chirp_multiply(f, w.Q)
    # (J g)(L x_t) for every output point x_t, axis by axis.
    vals = g.values
    x_lo = -(f.grid.N // 2) * f.grid.dx
    for ax in range(n):
        l_ax = w.L[ax, ax] if n == 2 else float(w.L[0, 0])
        vals = _fourier_sum_axis(
            vals, ax,
            x0=x_lo, dx=f.grid.dx,
            p0=l_ax * x_lo, dp=l_ax * f.grid.dx,
            n_out=f.grid.N, hbar=f.hbar, sign=-1,
        )
    pref = (
        f.grid.cell_volume()
        * (2.0 * math.pi * f.hbar) ** (-n / 2.0)
        * np.exp(-1j * math.pi * n / 4.0)
        * (1j ** m) * math.sqrt(abs(np.linalg.det(w.L)))
    )
    out = chirp_multiply(f.with_values(pref * vals), w.P)
    _warn_at_edge(out.values, "operator output reaches the grid edge; increase X")
    return out


def _qfio_quadrature(w: GeneratingFunction, m: int, f: SampledFunction) -> SampledFunction:
    """Direct trapezoid summation of the kernel integral; O(total^2) cost,
    total point count capped at 4096."""
    grid = f.grid
    total = grid.N ** grid.n
    if total > 4096:
        raise GridMismatchError(
            f"quadrature method needs N^n <= 4096 points, got {total}"
        )
    mesh = grid.meshgrid()
    pts = np.stack([ax.ravel() for ax in mesh], axis=-1)  # (total, n)
    rhs = f.values.ravel() * grid.trapezoid_weights().ravel()
    pref = (
        (2.0 * math.pi * f.hbar) ** (-grid.n / 2.0)
        * np.exp(-1j * math.pi * grid.n / 4.0)
        * (1j ** m) * math.sqrt(abs(np.linalg.det(w.L)))
    )
    out = np.empty(total, dtype=complex)
    chunk = max(1, _BLOCK_BYTES // (16 * total))
    for start in range(0, total, chunk):
        xs = pts[start:start + chunk]
        phase = w.value(xs[:, None, :], pts[None, :, :])
        out[start:start + chunk] = np.exp(1j * phase / f.hbar) @ rhs
    return f.with_values(pref * out.reshape(grid.shape()))


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

        (2 pi hbar)^{-n} pref Integral exp(i u.Sigma u / 2 hbar) T(K u) f du

    over a row (K, Sigma, pref) of the table of integral forms,
    ``symplectic._integral_form``: form="s1" is the Cayley row (K = I, chirp
    M_S), "s2" and "s3" the twisted row (checks the Cayley identities).
    Every form sums over one z0 = K u lattice, with the Jacobian 1 / |det K|.

    The lattice is truncated at |z0| <= R = 3 support_radius(f)
    (``config.R_FACTOR``) with a radial raised-cosine roll-off over the
    last 20 percent (``config.CUTOFF_FRACTION``); x0 runs over exact grid
    multiples, p0 over a Nyquist-resolved uniform lattice.  One degree of
    freedom only.  Independent of the (W, m) data: uses (S, nu) and the
    Cayley transform, which is what makes it an oracle for the index laws.
    """
    if f.grid.n != 1:
        raise GridMismatchError("bochner_apply supports n = 1 only")
    if form not in ("s1", "s2", "s3"):
        raise ValueError(f"unknown form {form!r}")
    k_mat, sigma, pref = _integral_form(s, nu, twisted=form != "s1")
    kinv = np.linalg.inv(k_mat)
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

    # one z0 lattice for every form; p0 at 2.5x the Nyquist rate of M_S
    m_cay = cayley(s)
    slope = (abs(m_cay[1, 1]) * radius + abs(m_cay[0, 1]) * radius
             + grid.X + 0.5 * radius) / hbar
    dp0 = math.pi / (2.5 * max(slope, 1.0 / radius))
    j_max = int(math.ceil(radius / dp0))
    p0 = np.arange(-j_max, j_max + 1) * dp0

    xx, pp = np.meshgrid(x0, p0, indexing="ij")
    chi = _raised_cosine(np.hypot(xx, pp) / radius, config.CUTOFF_FRACTION)

    # u.Sigma u / 2 at u = K^{-1} z0, and the shift phase of T(z0)
    ux = kinv[0, 0] * xx + kinv[0, 1] * pp
    up = kinv[1, 0] * xx + kinv[1, 1] * pp
    quad = 0.5 * (sigma[0, 0] * ux * ux + 2.0 * sigma[0, 1] * ux * up
                  + sigma[1, 1] * up * up)
    coeff = np.exp(1j * (quad - 0.5 * pp * xx) / hbar) * chi

    # inner p0 transform: for each x0 row, sum_p0 coeff exp(i p0 x / hbar)
    inner = _fourier_sum_axis(
        coeff, 1, x0=float(p0[0]), dx=dp0,
        p0=x_lo, dp=dx, n_out=grid.N, hbar=hbar, sign=1,
    )  # shape (len(x0), N); axis 1 is the output x index

    out = np.zeros(grid.N, dtype=complex)
    fvals = f.values
    for idx in range(x0.size):
        shift = idx - k_max
        out += _integer_shift(fvals, (shift,)) * inner[idx]

    pref = pref / abs(np.linalg.det(k_mat)) / (2.0 * math.pi * hbar)
    out *= pref * dx * dp0
    return f.with_values(out)
