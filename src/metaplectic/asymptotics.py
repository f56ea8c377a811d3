"""Stationary phase for quadratic phases and the small-hbar limit of the
extended metaplectic operators.

A quadratic phase has exactly one critical point, so the method of
stationary phase reduces to a single closed-form term

    I(lam) = Integral e^{i lam phi(x)} a(x) dx
           ~ (2 pi / lam)^{k/2} e^{i lam phi(x_c)} e^{i pi sgn(M) / 4}
             a(x_c) / sqrt|det M|,

with relative error O(1/lam).  Applied to the phase-space integral of the
extended operator (phase (1/2) M_S z0.z0 - sigma(z, z0), amplitude
F(z - z0/2), lam = 1/hbar) this yields the leading small-hbar behavior,
which is cross-checked here against a direct oscillatory quadrature: a
trapezoid sum on one lattice, accepted when the sum over its every-other-point
sublattice agrees with it, and otherwise repeated at double resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import DegeneratePhaseError, NumericalDomainError, TruncationError
from .grids import _BLOCK_BYTES, _lattice_cis, _smooth_cutoff, _trapezoid
from .indices import signature
from .symplectic import SymplecticMatrix, _integral_form, _quadratic_form, cayley, standard_j

__all__ = [
    "QuadraticPhase",
    "AsymptoticResult",
    "stationary_phase",
    "oscillatory_quadrature",
    "metaplectic_asymptotic",
    "phase_critical_point",
    "phase_critical_value",
]


@dataclass(frozen=True)
class QuadraticPhase:
    """phi(x) = (1/2) M x.x + b.x + c with M real symmetric."""

    m: np.ndarray
    b: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.m, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if m.shape[0] != m.shape[1] or m.shape[0] != b.size:
            raise DegeneratePhaseError("M and b have incompatible shapes")
        if np.max(np.abs(m - m.T)) > 1e-12 * max(1.0, float(np.max(np.abs(m)))):
            raise DegeneratePhaseError("M must be symmetric")
        object.__setattr__(self, "m", 0.5 * (m + m.T))
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.b.size

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 0.5 * _quadratic_form(self.m, x) + x @ self.b + self.c

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.m + self.b

    def critical_point(self) -> np.ndarray:
        eig = np.linalg.eigvalsh(self.m)
        if np.min(np.abs(eig)) <= config.TOL_EIG:
            raise DegeneratePhaseError("phase Hessian is numerically degenerate")
        return -np.linalg.solve(self.m, self.b)


def stationary_phase(phase: QuadraticPhase, amplitude, lam: float) -> complex:
    """Leading stationary-phase term of Integral e^{i lam phi} a dx."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    xc = phase.critical_point()
    k = phase.dim
    sgn = signature(phase.m)
    amp = complex(np.asarray(amplitude(xc[None, :]), dtype=complex).reshape(-1)[0])
    det = abs(float(np.linalg.det(phase.m)))
    return (
        (2.0 * math.pi / lam) ** (k / 2.0)
        * np.exp(1j * lam * float(phase.value(xc)))
        * np.exp(1j * math.pi * sgn / 4.0)
        * amp / math.sqrt(det)
    )


def oscillatory_quadrature(phase: QuadraticPhase, amplitude, lam: float,
                           radius: float, rel_tol: float = 1e-6,
                           max_doublings: int = 3) -> complex:
    """Direct trapezoid reference for Integral e^{i lam phi} a dx over
    |x| <= radius with a C-infinity cutoff over its last 20 percent
    (``config.CUTOFF_FRACTION``).

    The integrand is sampled once on an (n0+1)-point lattice per axis,
    n0 being 1.25 times the Nyquist count of the phase's largest frequency
    on the box, rounded up to a power of two.  Its every-other-point
    sublattice, the same samples with trapezoid weights for step 2h, gives
    a witness sum (the nested-lattice test of Trefethen & Weideman, SIAM
    Rev. 2014): the fine sum is returned once the two agree to rel_tol
    relative.  Otherwise n0 is doubled.  At most max_doublings lattices are
    sampled, so max_doublings - 1 doublings; when none agrees,
    TruncationError names the lattices and their sizes.  It is raised at
    once on a lattice whose sums are not finite.

    ``amplitude`` receives a (..., k) float array of points, x[..., i]
    being coordinate i, and returns the amplitude's real or complex values
    with the shape of x[..., 0].  The array may be a strided view (in 2-D,
    each coordinate is one contiguous plane) and is filled afresh for
    every call, so the callable may keep or overwrite it."""
    k = phase.dim
    if k > 2:
        raise TruncationError("oscillatory quadrature supports k <= 2")
    slope = lam * (float(np.linalg.norm(phase.m, 2)) * radius
                   + float(np.linalg.norm(phase.b)))
    n0 = int(2 ** math.ceil(math.log2(max(16.0, slope * radius / math.pi * 2.5))))
    n_first = n0
    for _ in range(max_doublings):
        ax = np.linspace(-radius, radius, n0 + 1)
        w = _trapezoid(n0 + 1, ax[1] - ax[0])
        # witness weights: trapezoid for step 2h on the even samples, 0 on the odd
        w2 = np.zeros(n0 + 1)
        w2[::2] = _trapezoid(n0 // 2 + 1, 2.0 * (ax[1] - ax[0]))
        if k == 1:
            vals = (np.asarray(amplitude(ax[:, None])).reshape(-1)
                    * np.exp(1j * lam * phase.value(ax[:, None]))
                    * _smooth_cutoff(np.abs(ax) / radius, config.CUTOFF_FRACTION))
            total = complex(np.sum(vals * w))
            witness = complex(np.sum(vals * w2))
        else:
            # split the quadratic phase into per-axis factors plus a rank-one
            # cross term, and use a separable (product) cutoff, so only the
            # amplitude and the cross factor exp(i lam m12 h^2 k j), taken
            # from the two-level table, touch the full mesh; rows are
            # processed in chunks of an even count to bound memory at high
            # resolution, so each chunk starts on a witness row
            m11, m12, m22 = phase.m[0, 0], phase.m[0, 1], phase.m[1, 1]
            b1, b2 = phase.b
            cut1 = _smooth_cutoff(np.abs(ax) / radius, config.CUTOFF_FRACTION)
            f1 = cut1 * np.exp(1j * lam * (0.5 * m11 * ax * ax + b1 * ax + phase.c))
            f2 = cut1 * np.exp(1j * lam * (0.5 * m22 * ax * ax + b2 * ax))
            e1, c1 = w * f1, w2 * f1
            # one product against both column weightings: the fine sum's
            # w f2 and the witness's w2 f2 (0 on the odd columns); a real
            # chunk meets the same (n0+1) x 2 table read as (n0+1) x 4 reals
            rhs = np.stack([w * f2, w2 * f2], axis=-1)
            rhs_re = rhs.view(float)
            theta = lam * m12 * (2.0 * radius / n0) ** 2
            cols = range(-(n0 // 2), n0 // 2 + 1)
            total = witness = 0.0 + 0.0j
            rows = max(2, _BLOCK_BYTES // (16 * (n0 + 1)) // 2 * 2)
            # axis-major points: a sum over the coordinate axis adds two planes
            buf = np.empty((2, min(rows, n0 + 1), n0 + 1))
            for lo in range(0, n0 + 1, rows):
                hi = min(lo + rows, n0 + 1)
                # both planes every chunk: the callable may write into them
                buf[0, :hi - lo] = ax[lo:hi, None]
                buf[1, :hi - lo] = ax
                vals = np.asarray(amplitude(np.moveaxis(buf[:, :hi - lo], 0, -1)))
                if abs(m12) > 0:
                    chirp = _lattice_cis(theta, range(lo - n0 // 2, hi - n0 // 2), cols)
                    chirp *= vals
                    vals = chirp
                if np.iscomplexobj(vals):
                    sums = vals @ rhs
                else:
                    sums = (vals @ rhs_re).view(complex)
                total += complex(e1[lo:hi] @ sums[:, 0])
                witness += complex(c1[lo:hi:2] @ sums[::2, 1])
        gap = abs(total - witness) / max(abs(total), abs(witness), 1e-300)
        if gap < rel_tol:
            return total
        if not math.isfinite(gap):
            raise TruncationError(
                f"oscillatory quadrature is not finite on the {n0 + 1}-point lattice")
        n0 *= 2
    raise TruncationError(
        f"oscillatory quadrature did not stabilize to {rel_tol:g} on {max_doublings} "
        f"lattices, {n_first + 1} to {n0 // 2 + 1} points per axis"
    )


@dataclass(frozen=True)
class AsymptoticResult:
    leading: complex
    quadrature: complex
    hbar: float
    relative_error: float


def phase_critical_point(s: SymplecticMatrix, z: np.ndarray) -> np.ndarray:
    """z_c = M_S^{-1} J z, the stationary point of the phase-space integral."""
    j = standard_j(s.n)
    return np.linalg.solve(cayley(s), j @ np.asarray(z, dtype=float))


def phase_critical_value(s: SymplecticMatrix, z: np.ndarray) -> float:
    """Phase value at the stationary point: (1/2) (J M_S^{-1} J) z . z."""
    j = standard_j(s.n)
    z = np.asarray(z, dtype=float)
    return 0.5 * float(z @ (j @ np.linalg.solve(cayley(s), j @ z)))


def metaplectic_asymptotic(s: SymplecticMatrix, nu: int, F, z: np.ndarray,
                           hbar: float, support_radius: float = 6.0) -> AsymptoticResult:
    """Leading small-hbar term of the extended metaplectic operator at z,
    against a direct quadrature reference.

    F is a smooth compactly supported callable on phase space, evaluated
    on a fresh (..., 2) float array of points (coordinate axis last, not
    necessarily contiguous) and returning real or complex values;
    support_radius bounds its support.  The leading value is

        i^nu e^{i phi(z_c)/hbar} e^{i pi sgn(M_S)/4}
        F(z - z_c/2) / sqrt(|det(S-I)| |det M_S|),

    the (2 pi hbar)^n factors from the prefactor and the stationary-phase
    lemma having cancelled.  M_S and the prefactor are the Cayley row of the
    table of integral forms (``symplectic._integral_form``).
    """
    if not 0 < hbar < math.inf:
        raise NumericalDomainError(f"hbar must be positive and finite, got {hbar}")
    two_n = 2 * s.n
    m_cay, pref = _integral_form(s, nu, twisted=False)
    if abs(np.linalg.det(s.entries + np.eye(two_n))) <= config.DET_FLOOR:
        raise DegeneratePhaseError("det(S + I) vanishes: M_S is degenerate")
    j = standard_j(s.n)
    z = np.asarray(z, dtype=float).reshape(two_n)
    lam = 1.0 / hbar

    phase = QuadraticPhase(m_cay, -(j @ z))

    def amplitude(z0):
        w = np.multiply(z0, -0.5)
        w += z
        return F(w)

    pref = pref / (2.0 * math.pi * hbar) ** s.n
    lead = pref * stationary_phase(phase, amplitude, lam)

    # the z0-integrand is supported where z - z0/2 lies in supp F
    radius = 2.0 * (support_radius + float(np.linalg.norm(z))) + 1.0
    quad = pref * oscillatory_quadrature(phase, amplitude, lam, radius)
    rel = abs(lead - quad) / max(abs(quad), 1e-12)
    return AsymptoticResult(leading=complex(lead), quadrature=complex(quad),
                            hbar=float(hbar), relative_error=float(rel))
