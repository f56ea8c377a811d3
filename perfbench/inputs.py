"""Seeded random inputs, drawn with NumPy alone.

The distributions follow the ones the package's ``verify`` suites use
(``random_free_generating`` and the gated ``random_symplectic`` draws), so
the benchmark feeds the program the same kind of matrices its own
self-checks do, but the draws never depend on the code under test.
"""

from __future__ import annotations

import numpy as np

from reference import cayley


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """One independent generator per input group, so groups do not shift
    each other's draws (any integer seed; NumPy wants it non-negative)."""
    return np.random.default_rng([int(seed) % 2 ** 63, int(stream)])


def _symmetric(n: int, rng: np.random.Generator, scale: float) -> np.ndarray:
    m = rng.uniform(-scale, scale, size=(n, n))
    return 0.5 * (m + m.T)


def free_matrix(P, L, Q) -> np.ndarray:
    """S_W = [[L^-1 Q, L^-1], [P L^-1 Q - L^T, P L^-1]]."""
    linv = np.linalg.inv(L)
    return np.block([[linv @ Q, linv], [P @ linv @ Q - L.T, P @ linv]])


def free_generating(n: int, rng: np.random.Generator, pq_scale: float = 2.0,
                    l_pert: float = 0.5, max_singular: float | None = None,
                    min_det_l: float = 0.5, diagonal_l: bool = False):
    """(P, L, Q): P, Q symmetric uniform in [-pq_scale, pq_scale], L = I + U
    with U uniform in [-l_pert, l_pert] (diagonal when asked), |det L| >=
    min_det_l, and sigma_max(S_W) <= max_singular when given."""
    while True:
        P = _symmetric(n, rng, pq_scale)
        Q = _symmetric(n, rng, pq_scale)
        U = rng.uniform(-l_pert, l_pert, size=(n, n))
        L = np.eye(n) + (np.diag(np.diag(U)) if diagonal_l else U)
        if abs(np.linalg.det(L)) < min_det_l:
            continue
        if max_singular is not None:
            if np.linalg.svd(free_matrix(P, L, Q), compute_uv=False)[0] > max_singular:
                continue
        return P, L, Q


def branch(L) -> int:
    """Maslov branch 0 or 1: even exactly when det L > 0."""
    return 0 if np.linalg.det(np.atleast_2d(L)) > 0 else 1


def random_symplectic(rng: np.random.Generator) -> np.ndarray:
    """Product of two free 2x2 matrices from default draws."""
    a = free_matrix(*free_generating(1, rng))
    b = free_matrix(*free_generating(1, rng))
    return a @ b


def phase_symplectic(rng: np.random.Generator) -> np.ndarray:
    """S gated as the phase suite gates it: sigma_max <= 1.6,
    |det(S - I)| >= 0.3 and max |M_S| <= 3."""
    while True:
        S = random_symplectic(rng)
        if np.linalg.svd(S, compute_uv=False)[0] > 1.6:
            continue
        if abs(np.linalg.det(S - np.eye(2))) < 0.3:
            continue
        if np.max(np.abs(cayley(S))) > 3.0:
            continue
        return S


def transport_symplectic(rng: np.random.Generator, max_singular: float = 1.4) -> np.ndarray:
    """S with |det(S - I)| > 1e-3 (as verify gates it), a free upper-right
    block, and sigma_max <= max_singular so transported supports stay on
    the grid."""
    while True:
        S = random_symplectic(rng)
        if abs(np.linalg.det(S - np.eye(2))) <= 1e-3 or abs(S[0, 1]) < 1e-3:
            continue
        if np.linalg.svd(S, compute_uv=False)[0] > max_singular:
            continue
        return S


def word_factors(rng: np.random.Generator, count: int = 2, max_singular: float = 1.4):
    """Factors (P, L, Q, m) drawn as verify draws them, kept only when the
    whole word still has sigma_max <= max_singular."""
    while True:
        factors = []
        S = np.eye(2)
        for _ in range(count):
            P, L, Q = free_generating(1, rng, max_singular=max_singular)
            factors.append((P, L, Q, branch(L)))
            S = S @ free_matrix(P, L, Q)
        if np.linalg.svd(S, compute_uv=False)[0] <= max_singular:
            return factors
