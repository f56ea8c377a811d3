"""Feichtinger-algebra diagnostics.

The S0 norm of psi with window phi is the L1 phase-space norm of the
cross-Wigner transform W(psi, phi).  Membership in S0 is a condition at
infinity and is not decidable on a finite grid, so every operation here
reports a norm together with a truncation estimate extrapolated from the
boundary-ring decay, never a boolean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import SampledFunction, require_same_frame
from .operators import qfio_apply, factor_pair
from .phase_space import PhaseFunction, cross_wigner, metaplectic_phase_apply
from .symplectic import SymplecticMatrix

__all__ = ["S0Report", "s0_norm", "invariance_check", "s0_via_phase_metaplectic"]


@dataclass(frozen=True)
class S0Report:
    norm_value: float
    window_id: str
    truncation_estimate: float


def _l1_and_tail(F: PhaseFunction) -> tuple:
    """Trapezoid L1 norm plus a geometric tail estimate from the decay of
    the two outermost boundary rings."""
    weighted = np.abs(F.values) * F.grid.trapezoid_weights()
    total = float(weighted.sum())

    def ring_mass(k: int) -> float:
        cols = slice(k, weighted.shape[1] - k)
        return float(weighted[k, cols].sum() + weighted[-1 - k, cols].sum()
                     + weighted[k + 1:-1 - k, k].sum()
                     + weighted[k + 1:-1 - k, -1 - k].sum())

    outer = ring_mass(0)
    inner = ring_mass(1)
    if inner <= 0.0:
        tail = 0.0
    else:
        ratio = outer / inner
        if ratio < 0.95:
            tail = outer * ratio / (1.0 - ratio)
        else:
            # no decay detected at the edge; the ring mass itself is the
            # only honest lower-bound-flavored indicator
            tail = float("inf") if outer > 0 else 0.0
    return total, tail


def s0_norm(psi: SampledFunction, phi: SampledFunction,
            window_id: str = "window") -> S0Report:
    """S0 norm of psi relative to the window phi:
    ||psi||_{phi,S0} = ||W(psi, phi)||_{L1}."""
    require_same_frame(psi, phi)
    total, tail = _l1_and_tail(cross_wigner(psi, phi))
    return S0Report(norm_value=total, window_id=window_id,
                    truncation_estimate=tail)


def invariance_check(psi: SampledFunction, op) -> tuple:
    """(before, after) auto-Wigner L1 norms under a unitary op.

    op is any SampledFunction -> SampledFunction map.  Grid-aligned
    Heisenberg-Weyl shifts translate the Wigner function exactly;
    metaplectic maps transport it along a measure-preserving linear flow,
    so both leave the L1 norm fixed up to truncation.
    """
    before, _ = _l1_and_tail(cross_wigner(psi, psi))
    moved = op(psi)
    after, _ = _l1_and_tail(cross_wigner(moved, moved))
    return before, after


def s0_via_phase_metaplectic(f: SampledFunction, g: SampledFunction,
                             s: SymplecticMatrix, nu: int) -> tuple:
    """The S0 characterization through the extended operator: returns

        (||Stilde W(f,g)||_{L1},  ||W(Shat f, g)||_{L1})

    which are L1 norms of the same function by the intertwining relation,
    computed along two independent routes (phase-space integral versus
    configuration-space operator product).  The branch mismatch between nu
    and the factored word is a unimodular factor and cannot affect L1.
    """
    require_same_frame(f, g)
    lhs_fun = metaplectic_phase_apply(s, nu, cross_wigner(f, g))
    lhs, _ = _l1_and_tail(lhs_fun)
    (w1, m1), (w2, m2) = factor_pair(s)
    moved = qfio_apply(w1, m1, qfio_apply(w2, m2, f))
    rhs, _ = _l1_and_tail(cross_wigner(moved, g))
    return lhs, rhs
