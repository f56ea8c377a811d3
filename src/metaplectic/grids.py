"""Centered lattices for both spaces, and square-integrable sampled functions.

Axis convention: x_j = (j - N/2) dx with dx = 2X/N, j = 0..N-1, so the
center sample x_{N/2} is exactly 0 and the grid covers [-X, X).  N must be
a power of two, at least 8.  The hbar-dual axis has spacing pi hbar / X.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from . import config
from .errors import BandwidthExceededWarning, GridMismatchError, TruncationError

__all__ = [
    "Grid",
    "SampledFunction",
    "sample",
    "gaussian",
    "hermite_function",
    "interpolate_values",
]


class _Lattice:
    """Uniform centered lattice: per-axis point counts ``sizes`` and
    half-widths ``widths``; sample j of axis k sits at (j - sizes[k]//2)
    steps[k] with steps[k] = 2 widths[k] / sizes[k].  ``n`` is the number
    of degrees of freedom, which need not be the number of axes."""

    __slots__ = ("n", "sizes", "widths")

    def __init__(self, n: int, sizes, widths):
        self.n = int(n)
        self.sizes = tuple(int(s) for s in sizes)
        self.widths = tuple(float(w) for w in widths)

    @property
    def steps(self) -> tuple[float, ...]:
        return tuple(2.0 * w / s for s, w in zip(self.sizes, self.widths))

    def axes(self) -> list[np.ndarray]:
        """Sample points along each axis; the center sample is exactly 0."""
        return [(np.arange(s) - s // 2) * h for s, h in zip(self.sizes, self.steps)]

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*self.axes(), indexing="ij"))

    def shape(self) -> tuple[int, ...]:
        return self.sizes

    def cell_volume(self) -> float:
        return math.prod(self.steps)

    def trapezoid_weights(self) -> np.ndarray:
        """Product trapezoid weights (boundary samples half-weighted)."""
        return functools.reduce(np.multiply.outer, [
            _trapezoid(s, h) for s, h in zip(self.sizes, self.steps)])

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and (self.n, self.sizes) == (other.n, other.sizes)
                and all(math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
                        for a, b in zip(self.widths, other.widths)))

    def __hash__(self):
        # widths are left out: equality compares them only to rel 1e-12
        return hash((type(self), self.n, self.sizes))


class Grid(_Lattice):
    """Uniform centered grid on [-X, X)^n."""

    __slots__ = ()

    def __init__(self, n: int, N: int, X: float):
        if n not in (1, 2):
            raise GridMismatchError(f"spatial dimension must be 1 or 2, got {n}")
        if N < 8 or N & (N - 1):
            raise GridMismatchError(f"N must be a power of two >= 8, got {N}")
        if not X > 0:
            raise GridMismatchError(f"half-width must be positive, got {X}")
        super().__init__(n, (N,) * n, (X,) * n)

    N = property(lambda self: self.sizes[0])
    X = property(lambda self: self.widths[0])
    dx = property(lambda self: self.steps[0])

    def axis(self) -> np.ndarray:
        """Sample points along one axis; axis()[N/2] == 0 exactly."""
        return self.axes()[0]

    def dual(self, hbar: float) -> "Grid":
        """hbar-Fourier dual grid: spacing pi hbar / X, same point count."""
        return Grid(self.n, self.N, math.pi * hbar * self.N / (2.0 * self.X))

    def __repr__(self) -> str:
        return f"Grid(n={self.n}, N={self.N}, X={self.X:g})"


def _checked_values(grid, hbar: float, values) -> np.ndarray:
    """``values`` as a complex array, after checking that hbar is positive
    and that the samples are finite and shaped like ``grid``."""
    if not hbar > 0:
        raise GridMismatchError(f"hbar must be positive, got {hbar}")
    values = np.asarray(values, dtype=complex)
    if values.shape != grid.shape():
        raise GridMismatchError(
            f"values shape {values.shape} does not match grid shape {grid.shape()}"
        )
    if not np.all(np.isfinite(values)):
        raise GridMismatchError("values must be finite")
    return values


class SampledFunction:
    """Complex samples of an L^2 function on a Grid, tagged with hbar.

    Mixing different hbar values in one expression is an error; hbar is a
    physical constant of the whole computation, not a per-axis scale.
    """

    __slots__ = ("grid", "hbar", "values")

    def __init__(self, grid: Grid, hbar: float, values: np.ndarray,
                 check_tails: bool = True):
        values = _checked_values(grid, hbar, values)
        self.grid = grid
        self.hbar = float(hbar)
        self.values = values
        if check_tails:
            _warn_at_edge(values, "function reaches the grid edge")

    def with_values(self, values: np.ndarray) -> "SampledFunction":
        return SampledFunction(self.grid, self.hbar, values, check_tails=False)

    def norm(self) -> float:
        """L^2 norm: sqrt(dx^n sum |f_j|^2)."""
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume()))

    def inner(self, other: "SampledFunction") -> complex:
        """(f | g) = dx^n sum f_j conj(g_j), linear in the first slot."""
        require_same_frame(self, other)
        return complex(np.sum(self.values * np.conj(other.values)) * self.grid.cell_volume())

    def __repr__(self) -> str:
        return f"SampledFunction({self.grid!r}, hbar={self.hbar:g})"


def require_same_frame(f: SampledFunction, g: SampledFunction) -> None:
    if f.grid != g.grid:
        raise GridMismatchError(f"grids differ: {f.grid!r} vs {g.grid!r}")
    if not math.isclose(f.hbar, g.hbar, rel_tol=1e-12, abs_tol=0.0):
        raise GridMismatchError(f"hbar differs: {f.hbar} vs {g.hbar}")


def sample(fn, grid: Grid, hbar: float) -> SampledFunction:
    """Sample a callable of n coordinate arrays onto a grid."""
    vals = fn(*grid.meshgrid())
    return SampledFunction(grid, hbar, np.asarray(vals, dtype=complex))


def gaussian(grid: Grid, hbar: float) -> SampledFunction:
    """Standard normalized Gaussian (pi hbar)^(-n/4) exp(-|x|^2 / 2 hbar)."""
    mesh = grid.meshgrid()
    r2 = sum(x * x for x in mesh)
    vals = (math.pi * hbar) ** (-grid.n / 4.0) * np.exp(-r2 / (2.0 * hbar))
    return SampledFunction(grid, hbar, vals.astype(complex))


def hermite_function(k: int, grid: Grid, hbar: float) -> SampledFunction:
    """k-th normalized Hermite function on a one-dimensional grid.

    h_k(x) = (pi hbar)^(-1/4) (2^k k!)^(-1/2) H_k(x / sqrt(hbar))
             exp(-x^2 / 2 hbar),

    an orthonormal family; the hbar Fourier transform maps h_k to
    (-i)^k h_k.  Computed by the normalized three-term recurrence
    h_{j+1} = sqrt(2 / (j+1)) t h_j - sqrt(j / (j+1)) h_{j-1}, t = x / sqrt(hbar),
    so no float overflows at any order (2^k k! does from k = 151).
    """
    if grid.n != 1:
        raise GridMismatchError("hermite_function is one-dimensional; take products for n=2")
    if k < 0:
        raise ValueError("order must be nonnegative")
    x = grid.axis()
    t = x / math.sqrt(hbar)
    # the recurrence runs on h_j e^{t^2/2}, divided pointwise by e^{log_scale}
    # whenever it grows past 1e150: e^{-t^2/2} alone underflows beyond
    # |t| = 38.6, inside the oscillatory region of h_k from k = 745
    prev = np.zeros_like(t)
    vals = np.ones_like(t)
    log_scale = np.zeros_like(t)
    for j in range(k):
        prev, vals = vals, math.sqrt(2.0 / (j + 1)) * t * vals - math.sqrt(j / (j + 1)) * prev
        big = np.abs(vals) > 1e150
        if big.any():
            vals[big] *= 1e-150
            prev[big] *= 1e-150
            log_scale[big] += 150.0 * math.log(10.0)
    vals = (math.pi * hbar) ** (-0.25) * vals * np.exp(log_scale - t * t / 2.0)
    return SampledFunction(grid, hbar, vals.astype(complex))


def interpolate_values(values: np.ndarray, grid: _Lattice, mat) -> np.ndarray:
    """Samples of z -> values(mat z) on the lattice (one or two axes, ``mat``
    square), from the trigonometric interpolant: in index units,
    diag(1/h) mat diag(h) for the steps h, ``_ldu_plan`` factors it and a
    shear, one ``_dilate`` per axis and a shear sum it (Unser, Thevenaz &
    Yaroslavsky, IEEE TIP 4, 1995), each pass on a band-limited line that
    holds its support: exact to the input's content below rounding (eps of
    its peak, in samples and spectrum).  Beyond the band it reads 0."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (values.ndim,) * 2 or not np.all(np.isfinite(mat)) or not mat.any():
        raise GridMismatchError(f"mat must be a finite nonzero {values.ndim}x{values.ndim} matrix")
    steps = np.asarray(grid.steps)
    mat = mat * steps / steps[:, None]
    if values.ndim == 1:
        return _dilate(values, 0, mat[0, 0], values.size)
    # values(P_out Lo D U P_in t), the swaps P by transposes.  Axis 0 carries
    # frequencies w_0 + c w_1 after the first shear, a (w_0 + c w_1) before
    # the last: u_in, u_out rows per cell hold them (in units of pi per cell)
    (swap_out, swap_in), (a, d), b, c = _ldu_plan(mat)
    work = values.T if swap_out else values
    shape = grid.shape()[::-1] if swap_in else grid.shape()
    band = _reach(_centered_fft(work), 2.0 / work.shape[0], 2.0 * c / work.shape[1])
    u_in, u_out = (max(1, math.ceil(r * band)) for r in (1.0, abs(a) if b else 0.0))
    # each shear's axis is padded as far as the sheared samples reach
    reach_c, reach_b = _reach(work, -c, 1.0), _reach(work, 1.0 / a, 0.0) if b else 0.0
    pad_c, pad_b = (max(0, math.ceil(r - (size - size // 2 - 1)))
                    for r, size in ((reach_c, work.shape[1]), (reach_b, shape[0])))
    if u_in > 1:
        work = _dilate(work, 0, 1.0 / u_in, u_in * work.shape[0])
    if c:
        work = _shear(np.pad(work, ((0, 0), (pad_c, pad_c))), 1, -c / u_in)
    rows = u_out * (shape[0] + 2 * pad_b)
    work = _dilate(_dilate(work, 1, d, shape[1]), 0, a * u_in / u_out, rows)
    if b:
        work = _shear(work, 0, -b * u_out)
    first = rows // 2 % u_out + u_out * pad_b  # the row of centered index -(shape[0] // 2)
    work = work[first:first + u_out * shape[0]:u_out]
    return work.T if swap_in else work


def _reach(values: np.ndarray, w0: float, w1: float) -> float:
    """Largest |w0 k0 + w1 k1| over the centered indices (k0, k1) of the
    entries of a 2-D array above rounding, eps times its peak; 0 if none."""
    a = np.abs(values)
    k0, k1 = np.nonzero(a > np.finfo(float).eps * a.max())
    k = w0 * (k0 - a.shape[0] // 2) + w1 * (k1 - a.shape[1] // 2)
    return float(np.max(np.abs(k), initial=0.0))


def _ldu_plan(mat: np.ndarray):
    """((swap_out, swap_in), (a, d), b, c) with mat = P_out [[1, 0], [c, 1]]
    diag(a, d) [[1, b], [0, 1]] P_in, P swapping the axes where flagged: the
    pivot a = mat[swap_out, swap_in] is the nonzero entry (mat must have one)
    with the smallest max(|b|, |c|), (0, 0) on ties: a diagonal mat takes none."""
    plans = []
    for i, k in ((0, 0), (0, 1), (1, 0), (1, 1)):
        if mat[i, k] != 0.0:
            b, c = mat[i, 1 - k] / mat[i, k], mat[1 - i, k] / mat[i, k]
            plans.append((max(abs(b), abs(c)), (bool(i), bool(k)),
                          (mat[i, k], mat[1 - i, 1 - k] - c * mat[i, 1 - k]), b, c))
    return min(plans, key=lambda plan: plan[0])[1:]


def _dilate(values: np.ndarray, axis: int, scale: float, n_out: int) -> np.ndarray:
    """Along ``axis``, the interpolant at scale t for the n_out centered
    indices t: one ``_fourier_sum_axis`` pass on the centered spectrum.
    A read beyond the lattice [-(N // 2), N - N // 2) is 0, never wrapped."""
    size = values.shape[axis]
    theta = 2.0 * math.pi * scale / size
    out = _fourier_sum_axis(_centered_fft(values, axes=(axis,)) / size, axis,
                            x0=-(size // 2), dx=1.0, p0=-(n_out // 2) * theta, dp=theta,
                            n_out=n_out, hbar=1.0, sign=1)
    t = scale * (np.arange(n_out) - n_out // 2)
    keep = (t >= -(size // 2)) & (t < size - size // 2)
    return out * keep.reshape((-1,) + (1,) * (values.ndim - 1 - axis))


def _ramp_shift(values: np.ndarray, axis: int, cells, ramp: np.ndarray) -> np.ndarray:
    """Sample j along ``axis`` replaced by the trigonometric interpolant at
    j - cells: the spectrum on that axis times ``ramp``, which is
    exp(-2 pi i k cells / N) for the frequencies k in [-N//2, N - N//2) in
    ``np.fft`` order (k >= 0 first), the band of the centered interpolant.
    ``cells`` is a scalar or one shift per line (broadcasting against
    ``values`` with size 1 along ``axis``).  A sample whose read point
    j - cells leaves [0, N) wrapped round the period, and is zeroed."""
    out = np.fft.ifft(np.fft.fft(values, axis=axis) * ramp, axis=axis)
    j = np.arange(values.shape[axis]).reshape((-1,) + (1,) * (values.ndim - 1 - axis))
    out[np.broadcast_to((j < cells) | (j >= values.shape[axis] + cells), out.shape)] = 0.0
    return out


def _translate(values: np.ndarray, grid: _Lattice, shift) -> np.ndarray:
    """Samples of z -> values(z - shift), zero-filled: the whole cells of the
    shift are an exact index move; a remainder r above 1e-9 of a cell first
    reads the trigonometric interpolant through ``_ramp_shift`` on its axis."""
    cells = np.asarray(shift, dtype=float) / np.asarray(grid.steps)
    if not np.all(np.isfinite(cells)):
        raise GridMismatchError("shift must be finite")
    whole = np.rint(cells)
    for ax in np.flatnonzero(np.abs(cells - whole) >= 1e-9):
        r, size = cells[ax] - whole[ax], values.shape[ax]
        k = np.fft.ifftshift(np.arange(size) - size // 2)  # np.fft order
        k = k.reshape((-1,) + (1,) * (values.ndim - 1 - ax))
        values = _ramp_shift(values, ax, r, np.exp(-2j * math.pi * r / size * k))
    return _integer_shift(values, tuple(int(c) for c in whole))


def _shear(values: np.ndarray, axis: int, slope: float) -> np.ndarray:
    """Shear of a 2-D array along ``axis`` about its center line: line c of
    the other axis (centered index c - n // 2) moves by slope (c - n // 2)
    cells, so for axis 0 out[j, c] = values(j - slope (c - n // 2), c).  The
    values come from each line's trigonometric interpolant through
    ``_ramp_shift``, whose ramp exp(-2 pi i k slope c / N) is bilinear in
    (k, c) and is built by ``_lattice_cis``, nonnegative k first; reads from
    beyond the line are zeroed, never wrapped."""
    size, lines = values.shape[axis], values.shape[1 - axis]
    c = np.arange(lines) - lines // 2
    theta = -2.0 * math.pi * slope / size
    cols = range(c[0], c[-1] + 1)
    ramp = np.concatenate((_lattice_cis(theta, range(0, size - size // 2), cols),
                           _lattice_cis(theta, range(-(size // 2), 0), cols)))
    cells = slope * c
    if axis == 1:
        ramp, cells = ramp.T, cells[:, None]
    return _ramp_shift(values, axis, cells, ramp)


def _fft_upsample(vals: np.ndarray, shape) -> np.ndarray:
    """Trigonometric upsampling to ``shape`` (zero-padded centered spectrum):
    sample j of axis k of the result sits at (j - shape[k] // 2) / shape[k]
    of the period, as sample j of vals does at (j - n_k // 2) / n_k."""
    if vals.shape == tuple(shape):
        return vals
    n1, n2 = vals.shape
    big = np.zeros(shape, dtype=complex)
    r0 = shape[0] // 2 - n1 // 2
    c0 = shape[1] // 2 - n2 // 2
    big[r0:r0 + n1, c0:c0 + n2] = _centered_fft(vals)
    return _centered_fft(big, inverse=True) / (n1 * n2)


_MAX_WORK_POINTS = 8_000_000


def _shear_plan(g_mat: np.ndarray, n_pts, steps):
    """(l, u, pad, i) for the sum over w of c(w) exp(i z.G w / hbar): the shear
    w_l = w'_l + u w'_l' (l' = 1 - l) that zeroes entry (i, l') of G T, and the
    cells ``pad`` by which it widens axis l of the n_pts lattice with
    ``steps`` on either side.  Of the shears with a nonzero pivot G[i, l]
    (one per entry of a row, and one of each row's pair has |u| <= 1), the
    one with the smallest padded workspace; a zero entry of G gives u = 0
    and no pad."""
    best = None
    for i in (0, 1):
        for l in (0, 1):
            if g_mat[i, l] == 0.0:
                continue
            lp = 1 - l
            u = -g_mat[i, lp] / g_mat[i, l]
            pad = math.ceil(abs(u) * (n_pts[lp] // 2) * steps[lp] / steps[l])
            size = (n_pts[l] + 2 * pad) * n_pts[lp]
            if best is None or size < best[0]:
                best = (size, (l, u, pad, i))
    return best[1]


def _quadratic_phase_sum(values: np.ndarray, n_pts, steps, centre, p_mat: np.ndarray,
                         l_mat: np.ndarray, q_mat: np.ndarray, z_idx, dz,
                         hbar: float) -> np.ndarray:
    """cell Sum_v f(v) exp(i W(z, v) / hbar), W(z, v) = z.P z / 2 - L z.v + v.Q v / 2,
    between two uniform 2-D lattices: v on the n_pts lattice that refines
    ``values`` (steps ``steps``, sample n // 2 of each axis at ``centre``)
    by ``_fft_upsample``, cell its cell area, and z = idx dz for idx in the
    ranges ``z_idx``.  Exact, with no nonuniform FFT: with G = -L^T, the
    shear w = v - centre -> T w of ``_shear_plan`` zeroes an entry of G T,
    ``_shear`` reads f at centre + T w, the chirp v.Q v / 2 is evaluated
    there, and two chirp-z passes (``_fourier_sum_axis``) with one cross
    phase between them sum the rest; u = 0 takes no shear, and a zero
    coupling no cross phase.  Past ``_MAX_WORK_POINTS`` it raises
    TruncationError before the refined array is built."""
    g_mat = -l_mat.T
    steps = tuple(h * n / m for h, n, m in zip(steps, values.shape, n_pts))
    l, u, pad, i = _shear_plan(g_mat, n_pts, steps)
    lp, ip = 1 - l, 1 - i
    n_sheared = _next_fast_len(n_pts[l] + 2 * pad)
    if n_sheared * n_pts[lp] > _MAX_WORK_POINTS:
        raise TruncationError(
            f"workspace would need {n_sheared} x {n_pts[lp]} points; "
            "the chirp bandwidth exceeds the refinement budget"
        )
    work = _fft_upsample(values, n_pts)
    lo = (n_sheared - n_pts[l]) // 2
    work = np.pad(work, [(lo, n_sheared - n_pts[l] - lo) if ax == l else (0, 0) for ax in (0, 1)])
    # indices from the refined lattice's centre sample: w = idx * steps on
    # the workspace, z = idx * dz on the output; every phase below is a
    # bilinear table (_lattice_cis)
    w_idx = [range(-(n // 2), n - n // 2) for n in n_pts]
    w_idx[l] = range(w_idx[l].start - lo, w_idx[l].start - lo + n_sheared)

    # the sample at offset w sits at v = centre + T w, v_l = centre_l + w_l + u w_l';
    # with w = A idx, A = T diag(steps), the chirp v.Q v / 2 is
    # centre.Q centre / 2 + (A^T Q centre).idx + idx.(A^T Q A) idx / 2
    if u:
        work = _shear(work, l, -u * steps[lp] / steps[l])
    a_mat = np.diag(steps)
    a_mat[l, lp] = u * steps[lp]
    h_mat = a_mat.T @ q_mat @ a_mat
    h_vec = a_mat.T @ q_mat @ centre
    a, b = (np.arange(r.start, r.stop, dtype=float) for r in w_idx)
    coeffs = work * _lattice_cis(
        h_mat[0, 1] / hbar, *w_idx,
        row=(0.5 * centre @ q_mat @ centre + h_vec[0] * a + 0.5 * h_mat[0, 0] * a * a) / hbar,
        col=(h_vec[1] * b + 0.5 * h_mat[1, 1] * b * b) / hbar)
    coeffs *= steps[0] * steps[1]

    # z.G (centre + T w) = z.G centre + z.G' w, with G' = G T and G'[i, l'] = 0:
    # sum over w_l' to z_i', take the cross phase z_i' G'[i', l] w_l, sum over
    # w_l to z_i
    g_t = g_mat.copy()
    g_t[:, lp] += u * g_mat[:, l]
    g_t[i, lp] = 0.0
    core = _fourier_sum_axis(coeffs, lp, x0=w_idx[lp][0] * steps[lp], dx=steps[lp],
                             p0=g_t[ip, lp] * z_idx[ip][0] * dz[ip], dp=g_t[ip, lp] * dz[ip],
                             n_out=len(z_idx[ip]), hbar=hbar, sign=1)
    if g_t[ip, l]:
        cross = _lattice_cis(g_t[ip, l] * steps[l] * dz[ip] / hbar, w_idx[l], z_idx[ip])
        core *= cross if l == 0 else cross.T
    core = _fourier_sum_axis(core, l, x0=w_idx[l][0] * steps[l], dx=steps[l],
                             p0=g_t[i, l] * z_idx[i][0] * dz[i], dp=g_t[i, l] * dz[i],
                             n_out=len(z_idx[i]), hbar=hbar, sign=1)
    if l != i:
        core = core.T

    # the output phase z.P z / 2 + z.G centre
    gc = g_mat @ centre
    zx, zp = (np.arange(r.start, r.stop) * h for r, h in zip(z_idx, dz))
    return core * _lattice_cis(
        p_mat[0, 1] * dz[0] * dz[1] / hbar, *z_idx,
        row=(0.5 * p_mat[0, 0] * zx * zx + gc[0] * zx) / hbar,
        col=(0.5 * p_mat[1, 1] * zp * zp + gc[1] * zp) / hbar)


# ----------------------------------------------------------------------
# lattice primitives shared by the configuration-space and phase-space code

# Bytes of complex (16-byte) entries in one block of a blocked quadrature
# sum; the float and complex temporaries of a block are a few times this.
_BLOCK_BYTES = 1 << 24


@functools.lru_cache(maxsize=None)
def _next_fast_len(n: int) -> int:
    """Smallest 11-smooth integer >= n: the FFT lengths that pocketfft
    factors into its own radices 2, 3, 5, 7 and 11."""
    m = max(int(n), 1)
    while True:
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _centered_fft(values: np.ndarray, axes=None, inverse: bool = False) -> np.ndarray:
    """Unnormalized DFT over ``axes`` (all by default) with both index
    origins at the center sample:
    out_k = sum_j values_j exp(-+ 2 pi i (k - N/2)(j - N/2) / N)."""
    shifted = np.fft.ifftshift(values, axes=axes)
    if inverse:
        spec = np.fft.ifftn(shifted, axes=axes, norm="forward")
    else:
        spec = np.fft.fftn(shifted, axes=axes)
    return np.fft.fftshift(spec, axes=axes)


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


def _integer_shift(values: np.ndarray, shifts: tuple[int, ...]) -> np.ndarray:
    """Zero-filled shift: out[j] = values[j - shifts] where defined."""
    out = np.zeros_like(values)
    src = []
    dst = []
    for size, s in zip(values.shape, shifts):
        lo, hi = max(0, s), min(size, size + s)
        dst.append(slice(lo, hi))
        src.append(slice(lo - s, hi - s))
    out[tuple(dst)] = values[tuple(src)]
    return out


def _edge_ratio(values: np.ndarray, inside=None) -> float:
    """Largest |value| in the two outermost layers at either end of every axis
    of the region ``inside`` (the whole array by default), relative to the
    peak; 0 when all vanish."""
    a = np.abs(values)
    peak = float(np.max(a))
    if peak == 0.0:
        return 0.0
    inside = np.ones(a.shape, dtype=bool) if inside is None else inside
    # the region less its points 2 cells deep inside it
    core = inside.copy()
    for ax in range(a.ndim):
        c, i = np.moveaxis(core, ax, 0), np.moveaxis(inside, ax, 0)
        c[2:-2] &= i[:-4] & i[1:-3] & i[3:-1] & i[4:]
        c[:2] = c[-2:] = False
    return float(np.max(a[inside & ~core], initial=0.0)) / peak


def _warn_at_edge(values: np.ndarray, what: str, tol=config.TAIL_TOL, inside=None) -> None:
    """Warn (BandwidthExceededWarning) when the edge layers of ``values`` (of
    the region ``inside``) exceed ``tol`` times its peak: mass has reached
    the lattice edge, so whatever lies beyond it is lost or aliased."""
    edge = _edge_ratio(values, inside)
    if edge > tol:
        warnings.warn(
            f"{what}: relative tail {edge:.2e} > {tol:g}; results may lose accuracy",
            BandwidthExceededWarning,
            stacklevel=3,
        )


def _lattice_cis(theta: float, rows: range, cols: range, row=0.0, col=0.0) -> np.ndarray:
    """exp(i (theta r c + row_r + col_c)) for the integers r in ``rows``
    (first axis) and c in ``cols`` (second axis), with ``row`` and ``col``
    phases per entry of each range or scalars.  With r = r_top + r_low,
    r_top = rows.start + B q and 0 <= r_low < B ~ sqrt(R), the table is
    exp(i theta r_top c) exp(i theta r_low c + i col_c): about 2 sqrt(R) C
    exponentials for R x C entries, and no phase larger than the direct ones."""
    n_rows = len(rows)
    block = math.isqrt(n_rows - 1) + 1
    c = np.arange(cols.start, cols.stop)
    r_top = rows.start + block * np.arange(-(-n_rows // block))
    hi = np.exp(1j * (theta * np.multiply.outer(r_top, c)))
    lo = np.exp(1j * (theta * np.multiply.outer(np.arange(block), c) + col))
    out = (hi[:, None, :] * lo).reshape(-1, c.size)[:n_rows]
    if np.any(row):
        out *= np.exp(1j * np.asarray(row, dtype=float))[:, None]
    return out


def _trapezoid(n_points: int, step: float) -> np.ndarray:
    """One-dimensional trapezoid weights: ``step``, halved at both ends."""
    w = np.full(n_points, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _smooth_cutoff(s: np.ndarray, roll_fraction: float) -> np.ndarray:
    """Radial cutoff: 1 up to 1 - roll_fraction, 0 from 1 on, and between
    them the C-infinity step a / (a + b), a = exp(-1 / (1 - t)),
    b = exp(-1 / t), t = (s - 1 + roll_fraction) / roll_fraction.  Every
    derivative vanishes at both ends, so a trapezoid sum of a smooth
    integrand under it has no algebraic truncation error."""
    t = np.subtract(s, 1.0 - roll_fraction)
    t /= roll_fraction
    np.clip(t, 0.0, 1.0, out=t)
    with np.errstate(divide="ignore"):  # t = 0 and t = 1 give exp(-inf) = 0
        b = np.divide(-1.0, t)
        np.exp(b, out=b)
        np.subtract(1.0, t, out=t)
        np.exp(np.divide(-1.0, t, out=t), out=t)
    b += t
    t /= b
    return t


def _support_box(values: np.ndarray, pad: int = 0):
    """Per-axis index ranges (lo, hi), hi exclusive, of the smallest box
    holding every sample with |v| > config.TAIL_TOL * max|v|, widened by ``pad``
    and clipped to the array; None when all samples vanish."""
    a = np.abs(values)
    peak = float(a.max())
    if peak == 0.0:
        return None
    keep = a > config.TAIL_TOL * peak
    box = []
    for ax in range(a.ndim):
        others = tuple(k for k in range(a.ndim) if k != ax)
        hit = np.nonzero(keep.any(axis=others))[0]
        box.append((max(0, hit[0] - pad), min(a.shape[ax], hit[-1] + 1 + pad)))
    return box


def _box_radius(box, axes) -> float:
    """Largest |coordinate| at the ends of an index box, over all axes."""
    return float(max(max(abs(ax[lo]), abs(ax[hi - 1])) for (lo, hi), ax in zip(box, axes)))
