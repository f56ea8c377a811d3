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
from .errors import BandwidthExceededWarning, GridMismatchError

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


def interpolate_values(values: np.ndarray, grid: _Lattice,
                       points: list[np.ndarray]) -> np.ndarray:
    """Cubic-spline interpolation of sampled values at arbitrary points.

    ``points`` is a list of coordinate arrays, one per lattice axis
    (broadcast to a common shape).  Points outside the lattice evaluate to
    0 (the tails).
    """
    shape = np.broadcast(*points).shape if len(points) > 1 else np.asarray(points[0]).shape
    coords = [np.broadcast_to(np.asarray(pts, dtype=float), shape) / step + size // 2
              for pts, step, size in zip(points, grid.steps, grid.sizes)]
    return _cubic_at(values, np.stack(coords))


def _translate(values: np.ndarray, grid: _Lattice, shift) -> np.ndarray:
    """Samples of z -> values(z - shift), zero-filled: an exact index move
    when every component of ``shift`` is within 1e-9 of a whole cell,
    cubic interpolation otherwise."""
    cells = np.asarray(shift, dtype=float) / np.asarray(grid.steps)
    whole = np.rint(cells)
    if np.max(np.abs(cells - whole)) < 1e-9:
        return _integer_shift(values, tuple(int(c) for c in whole))
    return interpolate_values(values, grid, [ax - s for ax, s in zip(grid.meshgrid(), shift)])


# ----------------------------------------------------------------------
# lattice primitives shared by the configuration-space and phase-space code

# Bytes of complex (16-byte) entries in one block of a blocked quadrature
# sum; the float and complex temporaries of a block are a few times this.
_BLOCK_BYTES = 1 << 24


def _cubic_at(values: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Complex cubic-spline values at fractional index coordinates
    ``coords`` (one row per axis); points outside the array evaluate to 0."""
    # imported here so that importing the package does not load SciPy
    from scipy.ndimage import map_coordinates

    re = map_coordinates(values.real, coords, order=3, mode="constant", cval=0.0)
    im = map_coordinates(values.imag, coords, order=3, mode="constant", cval=0.0)
    return re + 1j * im


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


def _edge_ratio(values: np.ndarray) -> float:
    """Largest |value| in the two outermost layers at either end of every
    axis, relative to the largest |value| overall; 0 when all vanish."""
    a = np.abs(values)
    peak = float(np.max(a))
    if peak == 0.0:
        return 0.0
    worst = 0.0
    for ax in range(a.ndim):
        layers = np.moveaxis(a, ax, 0)
        worst = max(worst, float(np.max(layers[:2])), float(np.max(layers[-2:])))
    return worst / peak


def _warn_at_edge(values: np.ndarray, what: str, tol: float = config.TAIL_TOL) -> None:
    """Warn (BandwidthExceededWarning) when the edge layers of ``values``
    exceed ``tol`` times its peak: mass has reached the lattice edge, so
    whatever lies beyond it is lost or aliased."""
    edge = _edge_ratio(values)
    if edge > tol:
        warnings.warn(
            f"{what}: relative tail {edge:.2e} > {tol:g}; results may lose accuracy",
            BandwidthExceededWarning,
            stacklevel=3,
        )


def _trapezoid(n_points: int, step: float) -> np.ndarray:
    """One-dimensional trapezoid weights: ``step``, halved at both ends."""
    w = np.full(n_points, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _raised_cosine(s: np.ndarray, roll_fraction: float) -> np.ndarray:
    """Radial cutoff: 1 up to 1 - roll_fraction, cosine roll-off to 0 at 1."""
    flat_end = 1.0 - roll_fraction
    out = np.ones_like(s)
    rolling = (s > flat_end) & (s <= 1.0)
    out[rolling] = 0.5 * (1.0 + np.cos(math.pi * (s[rolling] - flat_end) / roll_fraction))
    out[s > 1.0] = 0.0
    return out


def _support_box(values: np.ndarray, rel_tol: float = config.TAIL_TOL, pad: int = 0):
    """Per-axis index ranges (lo, hi), hi exclusive, of the smallest box
    holding every sample with |v| > rel_tol * max|v|, widened by ``pad``
    and clipped to the array; None when all samples vanish."""
    a = np.abs(values)
    peak = float(a.max())
    if peak == 0.0:
        return None
    keep = a > rel_tol * peak
    box = []
    for ax in range(a.ndim):
        others = tuple(k for k in range(a.ndim) if k != ax)
        hit = np.nonzero(keep.any(axis=others))[0]
        box.append((max(0, hit[0] - pad), min(a.shape[ax], hit[-1] + 1 + pad)))
    return box


def _box_radius(box, axes) -> float:
    """Largest |coordinate| at the ends of an index box, over all axes."""
    return float(max(max(abs(ax[lo]), abs(ax[hi - 1])) for (lo, hi), ax in zip(box, axes)))
