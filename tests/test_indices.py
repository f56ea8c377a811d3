"""Index bookkeeping: inertia, Maslov branches, Conley-Zehnder."""

import math

import numpy as np
import pytest

from metaplectic import (
    cayley,
    conley_zehnder,
    cz_compose,
    cz_sign_check,
    DegenerateMatrixError,
    free_from_generating,
    inertia,
    maslov_branch,
    maslov_compose,
    ParityMismatchError,
    random_free_generating,
    rotation,
    rotation_generating,
    signature,
)


def test_inertia_and_signature_on_diagonal():
    a = np.diag([3.0, -1.0, 2.0])
    assert inertia(a) == 1
    assert signature(a) == 1
    assert inertia(-a) == 2
    assert signature(-a) == -1


def test_inertia_congruence_invariance():
    # Inert(R^T A R) = Inert(A) for invertible R (Sylvester)
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = rng.normal(size=(3, 3))
        a = a + a.T
        r = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
        assert inertia(r.T @ a @ r) == inertia(a)


def test_maslov_branch_parity_follows_det_l():
    rng = np.random.default_rng(7)
    for _ in range(30):
        w = random_free_generating(1, rng)
        det_l = np.linalg.det(w.L)
        m = maslov_branch(w.L, 0)
        assert (m % 2 == 0) == (det_l > 0)


def test_maslov_branch_rejects_wrong_parity():
    w = rotation_generating(math.pi / 3)  # det L = 1/sin > 0: m must be even
    with pytest.raises(ParityMismatchError):
        maslov_branch(w.L, 1)


def test_maslov_branch_keeps_valid_choice():
    w = rotation_generating(math.pi / 3)
    assert maslov_branch(w.L, 0) == 0
    assert maslov_branch(w.L, 2) == 2


def test_maslov_compose_rotations():
    # m = m1 + m2 - Inert(P2 + Q1) mod 4; for rotations the middle matrix is
    # cot(alpha) + cot(beta), negative exactly when alpha + beta > pi
    for alpha, beta in ((math.pi / 6, math.pi / 4),
                        (math.pi / 3, math.pi / 2),
                        (math.pi / 2, 2 * math.pi / 3),
                        (2 * math.pi / 3, 3 * math.pi / 4)):
        wa, wb = rotation_generating(alpha), rotation_generating(beta)
        m = maslov_compose(0, 0, wb.P + wa.Q)
        expected = 0 if alpha + beta < math.pi else 3
        assert m == expected


def test_conley_zehnder_rotation_values():
    # nu = m - Inert(P + Q - L - L^T); for the quarter rotation with m = 0
    # the Hessian 2cot(alpha) - 2/sin(alpha) is negative definite on (0, pi)
    for alpha in (math.pi / 6, math.pi / 2, 2 * math.pi / 3):
        w = rotation_generating(alpha)
        assert conley_zehnder(w, 0) == 3


def test_cz_sign_check_random():
    rng = np.random.default_rng(21)
    tested = 0
    while tested < 40:
        w = random_free_generating(1, rng)
        s = free_from_generating(w)
        if abs(np.linalg.det(s.entries - np.eye(2))) < 1e-3:
            continue
        tested += 1
        assert cz_sign_check(w, maslov_branch(w.L, 0))


def test_cz_inverse_negation():
    rng = np.random.default_rng(2)
    tested = 0
    while tested < 30:
        w = random_free_generating(1, rng)
        if abs(np.linalg.det(
                free_from_generating(w).entries - np.eye(2))) < 1e-3:
            continue
        tested += 1
        m = maslov_branch(w.L, 0)
        nu = conley_zehnder(w, m)
        m_inv = (w.n - m) % 4
        assert conley_zehnder(w.inverse(), m_inv) == (-nu) % 4


def test_cz_compose_rotations_half_signature():
    pairs = ((math.pi / 6, math.pi / 4), (math.pi / 4, math.pi / 3),
             (math.pi / 3, math.pi / 2), (math.pi / 2, 2 * math.pi / 3),
             (2 * math.pi / 3, 3 * math.pi / 4))
    for alpha, beta in pairs:
        gamma = alpha + beta
        wa, wb, wg = (rotation_generating(t) for t in (alpha, beta, gamma))
        ma, mb = maslov_branch(wa.L, 0), maslov_branch(wb.L, 0)
        mg = maslov_compose(ma, mb, wb.P + wa.Q)
        nu_direct = conley_zehnder(wg, maslov_branch(wg.L, mg))
        nu_comp = cz_compose(conley_zehnder(wa, ma), conley_zehnder(wb, mb),
                             cayley(rotation(alpha)), cayley(rotation(beta)))
        assert nu_direct == nu_comp


def test_cz_compose_rejects_odd_signature_halving():
    # a nondegenerate 1x1 sum has signature +-1, which cz_compose cannot halve
    for m1, m2 in (([[1.0]], [[0.5]]), ([[-2.0]], [[0.5]])):
        with pytest.raises(DegenerateMatrixError, match="odd"):
            cz_compose(0, 0, np.array(m1), np.array(m2))
    # a 2x2 sum with one zero eigenvalue: signature itself rejects it
    with pytest.raises(DegenerateMatrixError, match="inertia is ill-defined"):
        cz_compose(0, 0, np.diag([1.0, 0.5]), np.diag([-1.0, 0.5]))


def test_cz_compose_printed_variant_differs():
    # the printed full-signature variant disagrees with the half-signature
    # one whenever sign(M1 + M2) is not divisible by 4
    alpha, beta = math.pi / 3, math.pi / 2
    ma, mb = cayley(rotation(alpha)), cayley(rotation(beta))
    nu_half = cz_compose(3, 3, ma, mb)
    nu_printed = (3 + 3 + signature(ma + mb)) % 4
    assert nu_half != nu_printed
