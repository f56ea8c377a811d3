"""Stationary phase for quadratic phases and the small-hbar regime."""

import math

import numpy as np
import pytest

from metaplectic import (
    cayley,
    conley_zehnder,
    DegeneratePhaseError,
    metaplectic_asymptotic,
    oscillatory_quadrature,
    phase_critical_point,
    phase_critical_value,
    QuadraticPhase,
    random_symplectic,
    rotation,
    rotation_generating,
    SingularSMinusIError,
    standard_j,
    stationary_phase,
    TruncationError,
)
from metaplectic import config
from metaplectic.grids import _smooth_cutoff, _trapezoid


def test_quadratic_phase_value_and_gradient():
    ph = QuadraticPhase(np.array([[2.0, 0.5], [0.5, -1.0]]),
                        np.array([0.3, -0.2]), 0.1)
    x = np.array([1.0, 2.0])
    expected = 0.5 * (2.0 * 1 + 2 * 0.5 * 2 - 1.0 * 4) + 0.3 - 0.4 + 0.1
    assert abs(ph.value(x) - expected) < 1e-14
    np.testing.assert_allclose(ph.gradient(x), ph.m @ x + ph.b, atol=1e-14)


def test_quadratic_phase_rejects_asymmetric():
    with pytest.raises(DegeneratePhaseError):
        QuadraticPhase(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))


def test_critical_point_zeroes_gradient():
    rng = np.random.default_rng(8)
    for _ in range(10):
        m = rng.normal(size=(2, 2))
        m = m + m.T + 3.0 * np.eye(2)
        ph = QuadraticPhase(m, rng.normal(size=2))
        xc = ph.critical_point()
        assert np.max(np.abs(ph.gradient(xc))) < 1e-10


def test_degenerate_hessian_raises():
    ph = QuadraticPhase(np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2))
    with pytest.raises(DegeneratePhaseError):
        ph.critical_point()


def test_gaussian_integral_exact_limit():
    # with a = exp(-|x|^2 / 2) the integral has a closed form; stationary
    # phase recovers it to O(1/lam)
    ph = QuadraticPhase(np.array([[3.0]]), np.array([0.0]))
    amp = lambda x: np.exp(-0.5 * np.sum(x * x, axis=-1))
    lam = 200.0
    lead = stationary_phase(ph, amp, lam)
    # exact: Integral exp(i lam 3 x^2 / 2 - x^2 / 2) dx
    #      = sqrt(2 pi / (1 - 3 i lam))
    exact = np.sqrt(2 * math.pi / (1.0 - 3j * lam))
    assert abs(lead - exact) / abs(exact) < 2.0 / lam


@pytest.mark.parametrize("lam_pair", [(40.0, 80.0), (80.0, 160.0)])
def test_stationary_phase_first_order_decay_1d(lam_pair):
    ph = QuadraticPhase(np.array([[2.0]]), np.array([0.6]), 0.1)
    amp = lambda x: np.exp(-0.5 * np.sum(x * x, axis=-1)) * (1 + 0.3 * x[..., 0])
    errs = []
    for lam in lam_pair:
        lead = stationary_phase(ph, amp, lam)
        quad = oscillatory_quadrature(ph, amp, lam, radius=10.0)
        errs.append(abs(lead - quad) / abs(quad))
    ratio = errs[1] / errs[0]
    assert 0.3 < ratio < 0.7


def test_stationary_phase_indefinite_2d():
    m = np.array([[1.5, 0.4], [0.4, -0.9]])
    ph = QuadraticPhase(m, np.array([0.2, -0.5]))
    amp = lambda x: np.exp(-0.4 * np.sum(x * x, axis=-1))
    errs = []
    for lam in (20.0, 40.0):
        lead = stationary_phase(ph, amp, lam)
        quad = oscillatory_quadrature(ph, amp, lam, radius=9.0)
        errs.append(abs(lead - quad) / abs(quad))
    assert errs[1] < 0.7 * errs[0]
    assert errs[1] < 0.01


def _gaussian_fresnel(m, b, c, a, lam):
    """Closed form of Integral e^{i lam (M x.x / 2 + b.x + c)} e^{-a |x|^2 / 2} dx:
    (2 pi)^{k/2} det(Q)^{-1/2} e^{i lam c} e^{j.Q^{-1} j / 2}, Q = a I - i lam M,
    j = i lam b, with det(Q)^{-1/2} the product of principal roots over the
    eigenvalues a - i lam mu of Q (all in the right half-plane).  b may be
    complex: a real linear term r.x in the exponent is b = -i r / lam."""
    m = np.atleast_2d(m)
    k = m.shape[0]
    q = a * np.eye(k) - 1j * lam * m
    j = 1j * lam * np.asarray(b)
    root = np.prod(np.sqrt(a - 1j * lam * np.linalg.eigvalsh(m)))
    return ((2 * math.pi) ** (k / 2) / root * np.exp(1j * lam * c)
            * np.exp(0.5 * j @ np.linalg.solve(q, j)))


@pytest.mark.parametrize("m, b, c, lam, kx", [
    pytest.param(np.array([[2.0]]), np.array([0.6]), 0.1, 30.0, None, id="m0-b0-0.1-30.0"),
    pytest.param(np.array([[1.5, 0.4], [0.4, -0.9]]), np.array([0.2, -0.5]), 0.3, 20.0,
                 None, id="m1-b1-0.3-20.0"),
    # a complex amplitude e^{i k.x} shifts the phase slope to b + k / lam
    pytest.param(np.array([[2.0]]), np.array([0.6]), 0.1, 30.0, np.array([2.5]),
                 id="complex-amplitude-1d"),
    pytest.param(np.array([[1.5, 0.4], [0.4, -0.9]]), np.array([0.2, -0.5]), 0.3, 20.0,
                 np.array([1.5, -0.8]), id="complex-amplitude-2d"),
    pytest.param(np.array([[1.5, 0.0], [0.0, -0.9]]), np.array([0.2, -0.5]), 0.3, 10.0,
                 np.array([1.5, -0.8]), id="complex-amplitude-2d-diagonal"),
])
def test_oscillatory_quadrature_matches_gaussian_fresnel_integral(m, b, c, lam, kx):
    a = 2.0
    if kx is None:
        amp = lambda x: np.exp(-0.5 * a * np.sum(x * x, axis=-1))
        slope = b
    else:
        amp = lambda x: np.exp(-0.5 * a * np.sum(x * x, axis=-1) + 1j * (x @ kx))
        slope = b + kx / lam
    quad = oscillatory_quadrature(QuadraticPhase(m, b, c), amp, lam, radius=9.0)
    exact = _gaussian_fresnel(m, slope, c, a, lam)
    assert abs(quad - exact) <= 1e-9 * abs(exact)


@pytest.mark.parametrize("m12", [0.4, 0.0])
def test_oscillatory_quadrature_returns_the_fine_lattice_sum(m12):
    # at lam = 0.5 the lattice has n0 = 64, where the h and 2h sums differ
    # by about 1e-13: the result is the dense trapezoid sum over the fine
    # (n0+1)^2 lattice, with real (m12 = 0) and complex samples alike
    ph = QuadraticPhase(np.array([[1.5, m12], [m12, -0.9]]), np.array([0.2, -0.5]), 0.3)
    lam, radius = 0.5, 9.0
    amp = lambda x: np.exp(-0.4 * np.sum(x * x, axis=-1))
    quad = oscillatory_quadrature(ph, amp, lam, radius=radius)
    ax = np.linspace(-radius, radius, 65)
    w = _trapezoid(65, ax[1] - ax[0]) * _smooth_cutoff(np.abs(ax) / radius, config.CUTOFF_FRACTION)
    pts = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
    dense = np.sum(np.outer(w, w) * amp(pts) * np.exp(1j * lam * ph.value(pts)))
    assert abs(quad - dense) <= 1e-14 * abs(dense)


def test_oscillatory_quadrature_amplitude_may_write_into_its_points():
    # lam = 8 on the indefinite 2-D phase gives n0 = 1024: two row chunks,
    # so a callable that scales its points must not reach the next chunk
    ph = QuadraticPhase(np.array([[1.5, 0.4], [0.4, -0.9]]), np.array([0.2, -0.5]))
    calls = []

    def amp(x):
        return np.exp(-0.4 * np.sum(x * x, axis=-1))

    def amp_writes(x):
        calls.append(x.shape)
        val = amp(x)
        x *= 7.0
        return val

    quad = oscillatory_quadrature(ph, amp, 8.0, radius=9.0)
    assert oscillatory_quadrature(ph, amp_writes, 8.0, radius=9.0) == quad
    assert len(calls) >= 2


def test_oscillatory_quadrature_samples_one_lattice():
    # the lambda = 20 input of test_stationary_phase_indefinite_2d converges
    # on its first lattice: the witness is that lattice's even sublattice,
    # so the amplitude is evaluated on one (n0+1)^2 lattice and nowhere else
    m = np.array([[1.5, 0.4], [0.4, -0.9]])
    b = np.array([0.2, -0.5])
    lam, radius = 20.0, 9.0
    rows, n_points = [], []

    def amp(x):
        # every call is a mesh: record its row values, check its columns
        x = np.asarray(x)
        r, cols = np.unique(x[..., 0]), np.unique(x[..., 1])
        assert x[..., 0].size == r.size * cols.size
        np.testing.assert_array_equal(cols, np.linspace(-radius, radius, cols.size))
        rows.append(r)
        n_points.append(x[..., 0].size)
        return np.exp(-0.4 * np.sum(x * x, axis=-1))

    oscillatory_quadrature(QuadraticPhase(m, b), amp, lam, radius=radius)
    slope = lam * (np.linalg.norm(m, 2) * radius + np.linalg.norm(b))
    n0 = int(2 ** math.ceil(math.log2(max(16.0, slope * radius / math.pi * 2.5))))
    assert sum(n_points) == (n0 + 1) ** 2
    np.testing.assert_array_equal(np.concatenate(rows),
                                  np.linspace(-radius, radius, n0 + 1))


def test_oscillatory_quadrature_raises_when_unconverged():
    ph = QuadraticPhase(np.array([[1.5, 0.4], [0.4, -0.9]]), np.array([0.2, -0.5]))
    amp = lambda x: np.exp(-0.4 * np.sum(x * x, axis=-1))
    with pytest.raises(TruncationError):
        oscillatory_quadrature(ph, amp, 20.0, radius=9.0, rel_tol=1e-16,
                               max_doublings=1)


# a 2-D phase whose first lattice is the smallest, n0 = 16 (17 columns)
_SMALL_PHASE = QuadraticPhase(np.array([[0.9, 0.3], [0.3, -0.6]]), np.array([0.2, -0.1]))


def _column_counter(values):
    # an amplitude that records the column count of each lattice it samples
    cols = []

    def amp(x):
        cols.append(x.shape[-2])
        return values(x)
    return amp, cols


def test_oscillatory_quadrature_raises_at_once_on_non_finite_sums():
    amp, cols = _column_counter(lambda x: np.full(x.shape[:-1], np.nan))
    with pytest.raises(TruncationError, match="not finite"):
        oscillatory_quadrature(_SMALL_PHASE, amp, 1.0, radius=2.0)
    assert set(cols) == {17}


def test_oscillatory_quadrature_default_samples_at_most_three_lattices():
    # noise never meets its witness: the default gives up after the
    # 17-, 33- and 65-column lattices
    rng = np.random.default_rng(3)
    amp, cols = _column_counter(lambda x: rng.normal(size=x.shape[:-1]))
    with pytest.raises(TruncationError,
                       match="did not stabilize to 1e-06 on 3 lattices, 17 to 65 points per axis"):
        oscillatory_quadrature(_SMALL_PHASE, amp, 1.0, radius=2.0)
    assert sorted(set(cols)) == [17, 33, 65]


def test_cayley_determinant_power_identity():
    # det M_S = 2^{-2n} det(S + I) / det(S - I); the 2n power is the one
    # the numerical identity selects (the Hessian is 2n x 2n)
    rng = np.random.default_rng(42)
    for n in (1, 2):
        tested = 0
        while tested < 50:
            s = random_symplectic(n, rng)
            two_n = 2 * n
            det_si = np.linalg.det(s.entries - np.eye(two_n))
            if abs(det_si) < 1e-3:
                continue
            tested += 1
            lhs = np.linalg.det(cayley(s))
            rhs = (2.0 ** (-two_n)
                   * np.linalg.det(s.entries + np.eye(two_n)) / det_si)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_critical_point_and_value_routes_agree():
    rng = np.random.default_rng(6)
    j = standard_j(1)
    tested = 0
    while tested < 10:
        s = random_symplectic(1, rng)
        if (abs(np.linalg.det(s.entries - np.eye(2))) < 0.1
                or abs(np.linalg.det(s.entries + np.eye(2))) < 0.1):
            continue
        tested += 1
        z = rng.normal(size=2)
        zc = phase_critical_point(s, z)
        ph = QuadraticPhase(cayley(s), -(j @ z))
        assert np.max(np.abs(ph.gradient(zc))) < 1e-9
        assert abs(ph.value(zc) - phase_critical_value(s, z)) < 1e-10


def test_metaplectic_asymptotic_hbar_halving():
    alpha = 2 * math.pi / 3
    s = rotation(alpha)
    nu = conley_zehnder(rotation_generating(alpha), 0)
    bump = lambda z: np.exp(-np.sum(np.asarray(z) ** 2, axis=-1))
    z_eval = np.array([0.7, -0.4])
    r1 = metaplectic_asymptotic(s, nu, bump, z_eval, hbar=0.1,
                                support_radius=5.0)
    r2 = metaplectic_asymptotic(s, nu, bump, z_eval, hbar=0.05,
                                support_radius=5.0)
    assert r1.relative_error < 0.4
    assert 0.3 < r2.relative_error / r1.relative_error < 0.7


@pytest.mark.parametrize("hbar", [0.1, 0.05])
def test_metaplectic_asymptotic_quadrature_matches_closed_form(hbar):
    # with F(z) = exp(-|z|^2) the z0-integrand is exp(i lam (M_S z0.z0 / 2
    # - Jz.z0)) exp(-|z0|^2 / 4 + z.z0 - |z|^2): a Gaussian-Fresnel integral
    # with a = 1/2 whose real linear term z.z0 is the slope -i z / lam
    alpha = 2 * math.pi / 3
    s = rotation(alpha)
    nu = conley_zehnder(rotation_generating(alpha), 0)
    bump = lambda z: np.exp(-np.sum(np.asarray(z) ** 2, axis=-1))
    z = np.array([0.7, -0.4])
    lam = 1.0 / hbar
    res = metaplectic_asymptotic(s, nu, bump, z, hbar=hbar, support_radius=5.0)
    pref = (1j ** (nu % 4) / math.sqrt(abs(np.linalg.det(s.entries - np.eye(2))))
            / (2 * math.pi * hbar))
    slope = -(standard_j(1) @ z) - 1j * z / lam
    exact = pref * np.exp(-z @ z) * _gaussian_fresnel(cayley(s), slope, 0.0, 0.5, lam)
    assert abs(res.quadrature - exact) <= 1e-12 * abs(exact)


def test_metaplectic_asymptotic_rejects_singular_gates():
    nu = 0
    bump = lambda z: np.exp(-np.sum(np.asarray(z) ** 2, axis=-1))
    with pytest.raises(SingularSMinusIError):
        metaplectic_asymptotic(rotation(1e-9), nu, bump,
                               np.zeros(2), hbar=0.1)
    with pytest.raises(DegeneratePhaseError):
        # alpha = pi gives S = -I: det(S + I) = 0, M_S degenerate
        metaplectic_asymptotic(rotation(math.pi), nu, bump,
                               np.zeros(2), hbar=0.1)
