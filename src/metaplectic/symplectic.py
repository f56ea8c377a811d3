"""Linear symplectic algebra: Sp(n) matrices, free generating functions,
and the symplectic Cayley transform.

Phase-space vectors are ordered z = (x_1..x_n, p_1..p_n).  The standard
symplectic form is sigma(z, z') = (J z) . z' with J = [[0, I], [-I, 0]],
so for n = 1, sigma((x, p), (x', p')) = p x' - x p'.

A free symplectic matrix is one whose upper-right n x n block is
invertible.  Such matrices are exactly the ones generated by a quadratic
form W(x, x') = (1/2) P x.x - L x.x' + (1/2) Q x'.x' with P, Q symmetric
and det L != 0:

    (x, p) = S_W (x', p')   iff   p = d_x W,  p' = -d_x' W.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import config
from .errors import (
    DegenerateMatrixError,
    NonIntegralIndexError,
    NotFreeError,
    SingularAngleError,
    SingularMMinusHalfJError,
    SingularSMinusIError,
)

__all__ = [
    "standard_j",
    "symplectic_form",
    "is_symplectic",
    "SymplecticMatrix",
    "GeneratingFunction",
    "free_from_generating",
    "generating_from_free",
    "chirp_matrix",
    "scaling_matrix",
    "cayley",
    "cayley_inverse",
    "det_s_minus_i",
    "rotation",
    "rotation_generating",
    "random_free_generating",
    "random_symplectic",
]


def standard_j(n: int) -> np.ndarray:
    """Standard symplectic matrix J = [[0, I], [-I, 0]] of size 2n x 2n."""
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, eye], [-eye, zero]])


def symplectic_form(z1: np.ndarray, z2: np.ndarray) -> float:
    """sigma(z1, z2) = (J z1) . z2 = p1.x2 - x1.p2."""
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    if z1.shape != z2.shape or z1.ndim != 1 or z1.size % 2:
        raise DegenerateMatrixError("symplectic_form expects two equal-length even vectors")
    n = z1.size // 2
    return float(z1[n:] @ z2[:n] - z1[:n] @ z2[n:])


def _quadratic_form(mat: np.ndarray, x: np.ndarray, y=None) -> np.ndarray:
    """y.(mat x) over the last axis of broadcastable stacks of vectors; y = x by default."""
    return np.einsum("...i,ij,...j->...", x if y is None else y, mat, x)


def is_symplectic(entries: np.ndarray) -> bool:
    """Check S^T J S = J entrywise within config.TOL_SYMP."""
    entries = np.asarray(entries, dtype=float)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.shape[0] % 2:
        return False
    n = entries.shape[0] // 2
    jmat = standard_j(n)
    return bool(np.max(np.abs(entries.T @ jmat @ entries - jmat)) <= config.TOL_SYMP)


class SymplecticMatrix:
    """A validated element of Sp(n) with block access.

    Parameters
    ----------
    entries : (2n, 2n) array_like
        Real matrix satisfying S^T J S = J within ``config.TOL_SYMP``.
    """

    __slots__ = ("n", "entries")

    def __init__(self, entries: np.ndarray):
        entries = np.array(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.shape[0] % 2:
            raise DegenerateMatrixError(f"expected a square even-dimension matrix, got {entries.shape}")
        if not is_symplectic(entries):
            n = entries.shape[0] // 2
            jmat = standard_j(n)
            resid = np.max(np.abs(entries.T @ jmat @ entries - jmat))
            raise DegenerateMatrixError(
                f"matrix is not symplectic: |S^T J S - J| = {resid:.3e} > {config.TOL_SYMP:g}")
        self.n = entries.shape[0] // 2
        self.entries = entries
        self.entries.setflags(write=False)

    # Blocks S = [[A, B], [C, D]].
    @property
    def a(self) -> np.ndarray:
        return self.entries[: self.n, : self.n]

    @property
    def b(self) -> np.ndarray:
        return self.entries[: self.n, self.n:]

    @property
    def c(self) -> np.ndarray:
        return self.entries[self.n:, : self.n]

    @property
    def d(self) -> np.ndarray:
        return self.entries[self.n:, self.n:]

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        if not isinstance(other, SymplecticMatrix):
            return NotImplemented
        if other.n != self.n:
            raise DegenerateMatrixError("cannot compose symplectic matrices of different n")
        return SymplecticMatrix(self.entries @ other.entries)

    def inv(self) -> "SymplecticMatrix":
        """Symplectic inverse S^{-1} = [[D^T, -B^T], [-C^T, A^T]] (exact blocks)."""
        return SymplecticMatrix(np.block([[self.d.T, -self.b.T], [-self.c.T, self.a.T]]))

    def __repr__(self) -> str:
        return f"SymplecticMatrix(n={self.n})"


class GeneratingFunction:
    """Quadratic generating function W = (P, L, Q) of a free symplectic matrix.

    W(x, x') = (1/2) P x.x - L x.x' + (1/2) Q x'.x', with P, Q symmetric
    and L invertible.
    """

    __slots__ = ("n", "P", "L", "Q")

    def __init__(self, P, L, Q):
        P = np.atleast_2d(np.array(P, dtype=float))
        L = np.atleast_2d(np.array(L, dtype=float))
        Q = np.atleast_2d(np.array(Q, dtype=float))
        n = P.shape[0]
        for name, mat in (("P", P), ("L", L), ("Q", Q)):
            if mat.shape != (n, n):
                raise DegenerateMatrixError(f"{name} must be {n}x{n}, got {mat.shape}")
        for name, mat in (("P", P), ("Q", Q)):
            if np.max(np.abs(mat - mat.T)) > config.TOL_SYMP:
                raise DegenerateMatrixError(
                    f"{name} must be symmetric within {config.TOL_SYMP:g}")
        if abs(np.linalg.det(L)) <= config.TOL_SING:
            raise DegenerateMatrixError("L must be invertible")
        self.n = n
        self.P = 0.5 * (P + P.T)
        self.Q = 0.5 * (Q + Q.T)
        self.L = L
        for mat in (self.P, self.L, self.Q):
            mat.setflags(write=False)

    def value(self, x: np.ndarray, xp: np.ndarray):
        """Evaluate W(x, x'); accepts broadcastable stacks of n-vectors."""
        x = np.asarray(x, dtype=float)
        xp = np.asarray(xp, dtype=float)
        return (0.5 * _quadratic_form(self.P, x) - _quadratic_form(self.L, x, xp)
                + 0.5 * _quadratic_form(self.Q, xp))

    def hessian_xx(self) -> np.ndarray:
        """Hessian of x -> W(x, x): P + Q - L - L^T."""
        return self.P + self.Q - self.L - self.L.T

    def inverse(self) -> "GeneratingFunction":
        """Generating function of S_W^{-1}: W'(x, x') = -W(x', x)."""
        return GeneratingFunction(-self.Q, -self.L.T, -self.P)

    def __repr__(self) -> str:
        return f"GeneratingFunction(n={self.n})"


def free_from_generating(w: GeneratingFunction) -> SymplecticMatrix:
    """Free symplectic matrix of a generating function.

    S_W = [[L^{-1} Q, L^{-1}], [P L^{-1} Q - L^T, P L^{-1}]].  The
    lower-right block is P L^{-1}: this is the unique choice that is
    symplectic for noncommuting blocks and satisfies the round trip
    P = D B^{-1} (for n = 1 it coincides with L^{-1} P).
    """
    linv = np.linalg.inv(w.L)
    a = linv @ w.Q
    b = linv
    c = w.P @ linv @ w.Q - w.L.T
    d = w.P @ linv
    return SymplecticMatrix(np.block([[a, b], [c, d]]))


def generating_from_free(s: SymplecticMatrix) -> GeneratingFunction:
    """Generating function of a free symplectic matrix.

    P = D B^{-1}, L = B^{-1}, Q = B^{-1} A.  Raises NotFreeError when the
    upper-right block is numerically singular.
    """
    if not is_free(s):
        raise NotFreeError(
            f"upper-right block has |det| <= {config.TOL_SING:g}; matrix is not free")
    binv = np.linalg.inv(s.b)
    return GeneratingFunction(s.d @ binv, binv, binv @ s.a)


def is_free(s: SymplecticMatrix) -> bool:
    return abs(np.linalg.det(s.b)) > config.TOL_SING


def chirp_matrix(p: np.ndarray) -> SymplecticMatrix:
    """Projection of the chirp multiplier exp(i P x.x / 2 hbar): [[I, 0], [P, I]]."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    n = p.shape[0]
    return SymplecticMatrix(np.block([[np.eye(n), np.zeros((n, n))], [p, np.eye(n)]]))


def scaling_matrix(l: np.ndarray) -> SymplecticMatrix:
    """Projection of the scaling operator f -> sqrt|det L| f(Lx): [[L^{-1}, 0], [0, L^T]]."""
    l = np.atleast_2d(np.asarray(l, dtype=float))
    n = l.shape[0]
    return SymplecticMatrix(
        np.block([[np.linalg.inv(l), np.zeros((n, n))], [np.zeros((n, n)), l.T]])
    )


def cayley(s: SymplecticMatrix) -> np.ndarray:
    """Symplectic Cayley transform M_S = (1/2) J (S + I)(S - I)^{-1}.

    Returns the symmetric matrix M_S; equals (1/2) J + J (S - I)^{-1}.
    Raises SingularSMinusIError when |det(S - I)| <= config.TOL_SING.
    """
    two_n = 2 * s.n
    smi = s.entries - np.eye(two_n)
    if abs(np.linalg.det(smi)) <= config.TOL_SING:
        raise SingularSMinusIError(f"|det(S - I)| <= {config.TOL_SING:g}")
    jmat = standard_j(s.n)
    m = 0.5 * jmat + jmat @ np.linalg.inv(smi)
    asym = np.max(np.abs(m - m.T))
    if asym > config.TOL_SYMP * max(1.0, np.max(np.abs(m))):
        raise DegenerateMatrixError(f"Cayley transform not symmetric: asymmetry {asym:.3e}")
    return 0.5 * (m + m.T)


def cayley_inverse(m: np.ndarray) -> SymplecticMatrix:
    """Recover S from M_S: S = (M - J/2)^{-1} (M + J/2)."""
    m = np.asarray(m, dtype=float)
    two_n = m.shape[0]
    jmat = standard_j(two_n // 2)
    lower = m - 0.5 * jmat
    if abs(np.linalg.det(lower)) <= config.TOL_SING:
        raise SingularMMinusHalfJError(f"|det(M - J/2)| <= {config.TOL_SING:g}")
    return SymplecticMatrix(np.linalg.inv(lower) @ (m + 0.5 * jmat))


def det_s_minus_i(w: GeneratingFunction) -> float:
    """det(S_W - I) in closed form: (-1)^n det(L^{-1}) det(P + Q - L - L^T)."""
    sign = -1.0 if w.n % 2 else 1.0
    return float(sign / np.linalg.det(w.L) * np.linalg.det(w.hessian_xx()))


def _index_mod4(index, name: str) -> int:
    """An index (Maslov branch or Conley-Zehnder) reduced mod 4.  An integer
    or an integer-valued float such as 2.0 is accepted; 1.5, NaN or inf
    raises NonIntegralIndexError instead of being truncated by int()."""
    if isinstance(index, numbers.Integral):
        return int(index) % 4
    try:
        value = float(index)
    except (TypeError, ValueError):
        value = math.nan
    if not (math.isfinite(value) and value.is_integer()):
        raise NonIntegralIndexError(f"{name} must be a finite integer, got {index!r}")
    return int(value) % 4


def _integral_form(s: SymplecticMatrix, nu: int, twisted: bool):
    """(M, pref): one row of the table of phase-space integral forms.

    The extended operator of (S, nu), its configuration-space Bochner
    realization and their small-hbar limit all integrate, up to the
    (2 pi hbar)^{-n} factor, pref exp(i z0.M z0 / 2 hbar) times the shift
    by z0 over z0.  There are two rows, derived independently:

        Cayley:  M = M_S,  pref = i^nu / sqrt|det(S - I)|
        twisted: the chirp -(JS + (JS)^T)/2 and prefactor i^nu sqrt|det(S - I)|
                 of u, pulled back along z0 = (S - I) u

    so the twisted row never calls ``cayley`` and checks it.  Both rows
    share the gate |det(S - I)| > config.DET_FLOOR (SingularSMinusIError).
    """
    smi = s.entries - np.eye(2 * s.n)
    det_si = float(np.linalg.det(smi))
    if abs(det_si) <= config.DET_FLOOR:
        raise SingularSMinusIError(f"|det(S - I)| = {abs(det_si):.3e} <= {config.DET_FLOOR:g}")
    phase = 1j ** _index_mod4(nu, "nu")
    if not twisted:
        return cayley(s), phase / math.sqrt(abs(det_si))
    js = standard_j(s.n) @ s.entries
    kinv = np.linalg.inv(smi)
    m = -0.5 * kinv.T @ (js + js.T) @ kinv
    return 0.5 * (m + m.T), phase * math.sqrt(abs(det_si)) / abs(det_si)


def rotation(alpha: float, n: int = 1) -> SymplecticMatrix:
    """Rotation by alpha in each (x_i, p_i) plane:
    [[cos a I, sin a I], [-sin a I, cos a I]]."""
    eye = np.eye(n)
    return SymplecticMatrix(
        np.block([[np.cos(alpha) * eye, np.sin(alpha) * eye],
                  [-np.sin(alpha) * eye, np.cos(alpha) * eye]])
    )


def rotation_generating(alpha: float, n: int = 1) -> GeneratingFunction:
    """Generating function of the rotation: P = Q = cot(a) I, L = I / sin(a).

    Undefined at integer multiples of pi (SingularAngleError).
    """
    s = np.sin(alpha)
    if abs(s) <= config.TOL_SING:
        raise SingularAngleError(
            f"rotation angle {alpha!r} is within {config.TOL_SING:g} of a multiple of pi")
    c = np.cos(alpha) / s
    eye = np.eye(n)
    return GeneratingFunction(c * eye, eye / s, c * eye)


def _random_symmetric(n: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.uniform(-2.0, 2.0, size=(n, n))
    return 0.5 * (m + m.T)


def random_free_generating(
    n: int,
    rng: np.random.Generator,
    max_singular: float | None = None,
    min_det_l: float = 0.5,
) -> GeneratingFunction:
    """Draw a random free generating function.

    P, Q have entries uniform in [-2, 2]; L = I + U with U uniform in
    [-0.5, 0.5] and |det L| >= min_det_l.  When ``max_singular`` is given,
    rejection-sample until the largest singular value of S_W stays below it
    (keeps transported supports on the grid).
    """
    for _ in range(1000):
        p = _random_symmetric(n, rng)
        q = _random_symmetric(n, rng)
        l = np.eye(n) + rng.uniform(-0.5, 0.5, size=(n, n))
        if abs(np.linalg.det(l)) < min_det_l:
            continue
        w = GeneratingFunction(p, l, q)
        if max_singular is not None:
            smax = np.linalg.svd(free_from_generating(w).entries, compute_uv=False)[0]
            if smax > max_singular:
                continue
        return w
    raise DegenerateMatrixError("could not draw an admissible generating function")


def random_symplectic(n: int, rng: np.random.Generator) -> SymplecticMatrix:
    """Random element of Sp(n): the product of two free matrices from random
    generating functions (symplectic by construction)."""
    return (free_from_generating(random_free_generating(n, rng))
            @ free_from_generating(random_free_generating(n, rng)))
