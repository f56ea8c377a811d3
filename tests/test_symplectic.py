"""Matrix-level identities: symplecticity, generating functions, Cayley."""

import math

import numpy as np
import pytest

from metaplectic import (
    BandwidthExceededWarning,
    bochner_apply,
    cayley,
    cayley_inverse,
    chirp_matrix,
    cross_wigner,
    det_s_minus_i,
    free_from_generating,
    gaussian,
    GeneratingFunction,
    generating_from_free,
    Grid,
    is_free,
    is_symplectic,
    metaplectic_asymptotic,
    metaplectic_phase_apply,
    NotFreeError,
    random_free_generating,
    random_symplectic,
    rotation,
    rotation_generating,
    scaling_matrix,
    SingularAngleError,
    SingularSMinusIError,
    standard_j,
    symplectic_form,
    SymplecticMatrix,
)
from metaplectic.symplectic import _integral_form


def test_standard_j_squares_to_minus_identity():
    for n in (1, 2, 3):
        j = standard_j(n)
        np.testing.assert_allclose(j @ j, -np.eye(2 * n), atol=1e-15)


def test_symplectic_form_antisymmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        z1, z2 = rng.normal(size=(2, 4))
        assert abs(symplectic_form(z1, z2) + symplectic_form(z2, z1)) < 1e-14


def test_symplectic_form_convention():
    # sigma(z, z') = p x' - x p' on n = 1
    assert abs(symplectic_form(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
               - (2.0 * 3.0 - 1.0 * 4.0)) < 1e-15


def test_rotation_is_symplectic_and_has_unit_det():
    for alpha in (0.3, 1.0, 2.5, -0.7):
        s = rotation(alpha)
        assert is_symplectic(s.entries)
        assert abs(np.linalg.det(s.entries) - 1.0) < 1e-12


def test_random_symplectic_is_symplectic():
    rng = np.random.default_rng(5)
    for n in (1, 2):
        for _ in range(25):
            s = random_symplectic(n, rng)
            assert is_symplectic(s.entries)


def test_symplectic_matrix_rejects_non_symplectic():
    with pytest.raises(Exception):
        SymplecticMatrix(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_inverse_via_blocks():
    rng = np.random.default_rng(7)
    for _ in range(10):
        s = random_symplectic(2, rng)
        np.testing.assert_allclose(
            s.inv().entries @ s.entries, np.eye(4), atol=1e-10)


def test_generating_round_trip():
    rng = np.random.default_rng(19)
    for _ in range(30):
        w = random_free_generating(1, rng)
        w2 = generating_from_free(free_from_generating(w))
        np.testing.assert_allclose(w2.P, w.P, atol=1e-10)
        np.testing.assert_allclose(w2.L, w.L, atol=1e-10)
        np.testing.assert_allclose(w2.Q, w.Q, atol=1e-10)


def test_free_matrix_round_trip_n2():
    rng = np.random.default_rng(23)
    for _ in range(10):
        w = random_free_generating(2, rng)
        s = free_from_generating(w)
        assert is_symplectic(s.entries)
        s2 = free_from_generating(generating_from_free(s))
        np.testing.assert_allclose(s2.entries, s.entries, atol=1e-10)


def test_generating_value_matches_blocks():
    w = GeneratingFunction(np.array([[2.0]]), np.array([[1.5]]),
                           np.array([[-0.5]]))
    x, xp = np.array([1.2]), np.array([-0.4])
    expected = 0.5 * 2.0 * 1.2 ** 2 - 1.5 * 1.2 * (-0.4) + 0.5 * (-0.5) * 0.4 ** 2
    assert abs(w.value(x, xp) - expected) < 1e-14


def test_generating_value_n2_broadcasts_and_keeps_l_order():
    # W(x, x') = P x.x / 2 - L x.x' + Q x'.x' / 2 with a non-symmetric L, so
    # x and x' swapped in the L term is another number; stacks of x (3, 1, 2)
    # and x' (4, 2) broadcast to a (3, 4) table
    p = np.array([[0.8, -0.3], [-0.3, 0.5]])
    l = np.array([[1.2, 0.7], [-0.4, 0.9]])
    q = np.array([[-0.6, 0.2], [0.2, 1.1]])
    w = GeneratingFunction(p, l, q)
    rng = np.random.default_rng(4)
    x, xp = rng.normal(size=(3, 1, 2)), rng.normal(size=(4, 2))
    out = w.value(x, xp)
    assert out.shape == (3, 4)
    for a in range(3):
        for b in range(4):
            u, v = x[a, 0], xp[b]
            expected = (0.5 * sum(p[i, k] * u[i] * u[k] for i in range(2) for k in range(2))
                        - sum(l[i, k] * u[k] * v[i] for i in range(2) for k in range(2))
                        + 0.5 * sum(q[i, k] * v[i] * v[k] for i in range(2) for k in range(2)))
            assert abs(out[a, b] - expected) < 1e-14 * (1 + abs(expected))


def test_generating_inverse_swaps_and_negates():
    rng = np.random.default_rng(3)
    w = random_free_generating(1, rng)
    wi = w.inverse()
    np.testing.assert_allclose(wi.P, -w.Q, atol=1e-14)
    np.testing.assert_allclose(wi.L, -w.L.T, atol=1e-14)
    np.testing.assert_allclose(wi.Q, -w.P, atol=1e-14)
    s = free_from_generating(w)
    np.testing.assert_allclose(free_from_generating(wi).entries,
                               s.inv().entries, atol=1e-10)


def test_chirp_not_free():
    # chirp matrices have B = 0: no generating function exists
    v = chirp_matrix(np.array([[1.0]]))
    assert not is_free(v)
    with pytest.raises(NotFreeError):
        generating_from_free(v)


def test_scaling_matrix_blocks():
    l = np.array([[2.0]])
    s = scaling_matrix(l)
    np.testing.assert_allclose(s.a, np.array([[0.5]]), atol=1e-15)
    np.testing.assert_allclose(s.d, np.array([[2.0]]), atol=1e-15)
    assert is_symplectic(s.entries)


@pytest.mark.parametrize("alpha", [math.pi / 6, math.pi / 3, math.pi / 2,
                                   2 * math.pi / 3])
def test_rotation_cayley_half_cotangent(alpha):
    m = cayley(rotation(alpha))
    np.testing.assert_allclose(
        m, 0.5 / math.tan(alpha / 2.0) * np.eye(2), atol=1e-12)


@pytest.mark.parametrize("alpha", [math.pi / 6, math.pi / 3, math.pi / 2,
                                   2 * math.pi / 3])
def test_rotation_det_s_minus_i(alpha):
    det = np.linalg.det(rotation(alpha).entries - np.eye(2))
    assert abs(det - 4.0 * math.sin(alpha / 2.0) ** 2) < 1e-12


def test_cayley_symmetry_and_inverse_negation():
    rng = np.random.default_rng(42)
    tested = 0
    while tested < 100:
        s = random_symplectic(1, rng)
        if abs(np.linalg.det(s.entries - np.eye(2))) < 1e-3:
            continue
        tested += 1
        m = cayley(s)
        np.testing.assert_allclose(m, m.T, atol=1e-9)
        np.testing.assert_allclose(cayley(s.inv()), -m, atol=1e-9)


def test_cayley_two_displays_agree():
    # (1/2) J + J (S - I)^{-1}  ==  (1/2) J (S + I)(S - I)^{-1}
    rng = np.random.default_rng(17)
    j = standard_j(1)
    for _ in range(50):
        s = random_symplectic(1, rng)
        si = s.entries - np.eye(2)
        if abs(np.linalg.det(si)) < 1e-3:
            continue
        lhs = cayley(s)
        rhs = 0.5 * j @ (s.entries + np.eye(2)) @ np.linalg.inv(si)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_cayley_round_trip():
    rng = np.random.default_rng(29)
    for n in (1, 2):
        for _ in range(25):
            s = random_symplectic(n, rng)
            if abs(np.linalg.det(s.entries - np.eye(2 * n))) < 1e-3:
                continue
            np.testing.assert_allclose(
                cayley_inverse(cayley(s)).entries, s.entries, atol=1e-8)


def test_cayley_rejects_singular_s_minus_i():
    with pytest.raises(SingularSMinusIError):
        cayley(SymplecticMatrix(np.eye(2)))


_PHI0 = gaussian(Grid(n=1, N=64, X=12.0), 1.0)


def _phi0_wigner():
    # W(phi0, phi0) on 64 points leaves the phase lattice's half band
    with pytest.warns(BandwidthExceededWarning):
        return cross_wigner(_PHI0, _PHI0)


@pytest.mark.parametrize("apply_identity", [
    lambda s: bochner_apply(s, 0, _PHI0),
    lambda s: metaplectic_phase_apply(s, 0, _phi0_wigner()),
    lambda s: metaplectic_asymptotic(
        s, 0, lambda z: np.exp(-np.sum(np.asarray(z) ** 2, axis=-1)),
        np.zeros(2), hbar=0.1),
], ids=["bochner_apply", "metaplectic_phase_apply", "metaplectic_asymptotic"])
def test_phase_space_integrals_reject_singular_s_minus_i(apply_identity):
    # S = I: every phase-space integral form divides by |det(S - I)|
    with pytest.raises(SingularSMinusIError):
        apply_identity(SymplecticMatrix(np.eye(2)))


@pytest.mark.parametrize("route, names", [
    (lambda form: bochner_apply(rotation(1.0), 0, _PHI0, form=form),
     ("s4", "alfa1", "alfa2")),
    (lambda form: metaplectic_phase_apply(rotation(1.0), 0, _phi0_wigner(), form=form),
     ("s4", "s2", "s3")),
], ids=["bochner_apply", "metaplectic_phase_apply"])
def test_integral_form_routes_reject_unknown_form_names(route, names):
    # each route names its own three forms; the other route's names are unknown
    for form in names:
        with pytest.raises(ValueError, match="unknown form"):
            route(form)


def test_integral_form_rows_are_one_integral():
    # z0 = (S - I) u carries the twisted chirp -(JS + (JS)^T)/2 and prefactor
    # i^nu sqrt|det(S - I)| of u into z0 coordinates, where they must equal
    # the Cayley row's M_S and i^nu / sqrt|det(S - I)|
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 60:
        n = 1 + checked % 2
        s = random_symplectic(n, rng)
        if abs(np.linalg.det(s.entries - np.eye(2 * n))) < 1e-3:
            continue
        nu = int(rng.integers(4))
        m_s, pref_c = _integral_form(s, nu, twisted=False)
        m_t, pref_t = _integral_form(s, nu, twisted=True)
        np.testing.assert_array_equal(m_s, cayley(s))
        np.testing.assert_array_equal(m_t, m_t.T)
        assert np.max(np.abs(m_t - m_s)) <= 1e-12 * float(np.max(np.abs(m_s)))
        assert abs(pref_t - pref_c) <= 1e-12 * abs(pref_c)
        checked += 1


def test_det_s_minus_i_matches_matrix_determinant():
    rng = np.random.default_rng(31)
    for _ in range(20):
        w = random_free_generating(1, rng)
        s = free_from_generating(w)
        direct = np.linalg.det(s.entries - np.eye(2))
        assert abs(det_s_minus_i(w) - direct) < 1e-9 * max(1.0, abs(direct))


def test_rotation_generating_rejects_multiples_of_pi():
    with pytest.raises(SingularAngleError):
        rotation_generating(0.0)
    with pytest.raises(SingularAngleError):
        rotation_generating(math.pi)


def test_rotation_generating_projects_to_rotation():
    for alpha in (0.4, 1.1, 2.0, 2.9):
        s = free_from_generating(rotation_generating(alpha))
        np.testing.assert_allclose(s.entries, rotation(alpha).entries,
                                   atol=1e-12)
