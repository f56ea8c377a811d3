"""Maslov and Conley-Zehnder index bookkeeping (all indices live mod 4).

The Maslov index m fixes the branch of i^m sqrt|det L| in the quadratic
Fourier integral operator attached to a generating function W = (P, L, Q):
m is even exactly when det L > 0.  The Conley-Zehnder index of the pair
(W, m) is

    nu = m - Inert(W_xx)  mod 4,   W_xx = P + Q - L - L^T,

and satisfies sign(det(S_W - I)) = (-1)^(nu + n).
"""

from __future__ import annotations

import numpy as np

from . import config
from .errors import DegenerateMatrixError, ParityMismatchError
from .symplectic import GeneratingFunction, det_s_minus_i

__all__ = [
    "inertia",
    "signature",
    "maslov_branch",
    "maslov_compose",
    "conley_zehnder",
    "cz_compose",
    "cz_sign_check",
]


def _sym_eigvals(a: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] != a.shape[1]:
        raise DegenerateMatrixError(f"expected a square matrix, got {a.shape}")
    if np.max(np.abs(a - a.T)) > config.TOL_SYMP * max(1.0, np.max(np.abs(a))):
        raise DegenerateMatrixError("inertia is defined for symmetric matrices only")
    vals = np.linalg.eigvalsh(0.5 * (a + a.T))
    if np.any(np.abs(vals) <= config.TOL_EIG):
        raise DegenerateMatrixError(
            f"eigenvalue within {config.TOL_EIG:g} of zero; inertia is ill-defined"
        )
    return vals


def inertia(a: np.ndarray) -> int:
    """Number of negative eigenvalues of a nondegenerate symmetric matrix."""
    return int(np.sum(_sym_eigvals(a) < 0.0))


def signature(a: np.ndarray) -> int:
    """Signature (positive minus negative eigenvalue count); always has the
    parity of the dimension."""
    vals = _sym_eigvals(a)
    return int(np.sum(vals > 0.0) - np.sum(vals < 0.0))


def maslov_branch(l: np.ndarray, branch: int) -> int:
    """Validate a Maslov branch choice against det L and reduce it mod 4.

    i^m sqrt|det L| is a square root of det(L) * (unimodular factor); the
    branch m must be even when det L > 0 and odd when det L < 0.
    """
    l = np.atleast_2d(np.asarray(l, dtype=float))
    det = np.linalg.det(l)
    if abs(det) <= config.TOL_SING:
        raise DegenerateMatrixError("det L is numerically zero")
    m = int(branch) % 4
    if (det > 0.0) != (m % 2 == 0):
        raise ParityMismatchError(
            f"branch {branch} has the wrong parity for det L = {det:.6g}"
        )
    return m


def maslov_compose(m1: int, m2: int, middle: np.ndarray) -> int:
    """Maslov index of a composed operator.

    For the product of the operators attached to (W1, m1) and (W2, m2),
    ``middle`` is P2 + Q1 (inner blocks of the two generating functions) and

        m = m1 + m2 - Inert(P2 + Q1)  mod 4.
    """
    return (int(m1) + int(m2) - inertia(middle)) % 4


def conley_zehnder(w: GeneratingFunction, m: int) -> int:
    """Conley-Zehnder index nu = m - Inert(W_xx) mod 4."""
    m = maslov_branch(w.L, m)
    return (m - inertia(w.hessian_xx())) % 4


def cz_compose(nu1: int, nu2: int, m1: np.ndarray, m2: np.ndarray,
               convention: str = "half") -> int:
    """Conley-Zehnder index of a product from the Cayley transforms.

    With M1 = M_{S1}, M2 = M_{S2} (M1 + M2 nondegenerate):

        nu = nu1 + nu2 + (1/2) sign(M1 + M2)   mod 4   (convention="half")
        nu = nu1 + nu2 + sign(M1 + M2)         mod 4   (convention="printed")

    The half-signature convention is the one selected by the grid oracle
    (and by the parity-operator symbol for the composition of two quarter
    rotations); "printed" is kept for comparison.
    """
    sig = signature(np.asarray(m1) + np.asarray(m2))
    if convention == "half":
        if sig % 2:
            raise DegenerateMatrixError("signature of M1 + M2 is odd; cannot halve")
        corr = sig // 2
    elif convention == "printed":
        corr = sig
    else:
        raise ValueError(f"unknown convention {convention!r}")
    return (int(nu1) + int(nu2) + corr) % 4


def cz_sign_check(w: GeneratingFunction, m: int) -> bool:
    """Verify sign(det(S_W - I)) = (-1)^(nu + n) for the pair (W, m)."""
    nu = conley_zehnder(w, m)
    det = det_s_minus_i(w)
    if abs(det) <= config.TOL_SING:
        raise DegenerateMatrixError("det(S_W - I) is numerically zero")
    return (det > 0.0) == ((nu + w.n) % 2 == 0)
