"""Phase-space layer: cross-Wigner, Moyal geometry, phase-space shifts,
extended metaplectic operators, and the Bopp quantization."""

import math

import numpy as np
import pytest

from metaplectic import (
    BandwidthExceededWarning,
    bopp_apply,
    cayley,
    compose_linear,
    conley_zehnder,
    cross_wigner,
    cz_compose,
    factor_pair,
    free_from_generating,
    gaussian,
    Grid,
    heisenberg_weyl,
    hermite_function,
    maslov_branch,
    metaplectic_phase_apply,
    MetaplecticWord,
    moyal_inner,
    OutOfDomainError,
    PhaseFunction,
    PhaseGrid,
    phase_shift,
    qfio_apply,
    random_symplectic,
    rotation,
    rotation_generating,
    symplectic_form,
    TruncationError,
    wigner_basis,
)

HBAR = 1.0


@pytest.fixture(scope="module")
def grid():
    return Grid(n=1, N=512, X=12.0)


@pytest.fixture(scope="module")
def phi0(grid):
    return gaussian(grid, HBAR)


@pytest.fixture(scope="module")
def h1(grid):
    return hermite_function(1, grid, HBAR)


def _gated_symplectic(rng):
    while True:
        s = random_symplectic(1, rng)
        sv = np.linalg.svd(s.entries, compute_uv=False)
        if sv[0] > 1.6:
            continue
        if abs(np.linalg.det(s.entries - np.eye(2))) < 0.3:
            continue
        if np.max(np.abs(cayley(s))) > 3.0:
            continue
        return s


def _nu_from_factors(s):
    (w1, m1), (w2, m2) = factor_pair(s)
    return cz_compose(conley_zehnder(w1, m1), conley_zehnder(w2, m2),
                      cayley(free_from_generating(w1)),
                      cayley(free_from_generating(w2)))


def test_phase_grid_compatible(grid):
    pg = PhaseGrid.compatible(grid, HBAR)
    assert pg.N_p == grid.N
    assert abs(pg.dp - math.pi * HBAR / (2 * grid.X)) < 1e-15
    assert abs(pg.P_max - math.pi * HBAR * grid.N / (4 * grid.X)) < 1e-12


def test_wigner_gaussian_closed_form(phi0):
    w = cross_wigner(phi0, phi0)
    xg, pg = w.grid.meshgrid()
    closed = np.exp(-(xg ** 2 + pg ** 2) / HBAR) / (math.pi * HBAR)
    np.testing.assert_allclose(w.values.real, closed, atol=1e-12)
    assert np.max(np.abs(w.values.imag)) < 1e-12


def test_wigner_marginal_is_exact(grid, h1):
    w = cross_wigner(h1, h1)
    marginal = np.sum(w.values.real, axis=1) * w.grid.dp
    np.testing.assert_allclose(marginal, np.abs(h1.values) ** 2, atol=1e-12)


def test_wigner_hermiticity(phi0, h1):
    w01 = cross_wigner(phi0, h1)
    w10 = cross_wigner(h1, phi0)
    np.testing.assert_allclose(w01.values, np.conj(w10.values), atol=1e-12)


def test_moyal_identity(grid, phi0, h1):
    # (W(f,g) | W(f',g')) = (2 pi hbar)^{-1} (f|f') conj((g|g'))
    h2 = hermite_function(2, grid, HBAR)
    lhs = moyal_inner(cross_wigner(phi0, h1), cross_wigner(phi0, h2))
    rhs = (phi0.inner(phi0) * np.conj(h1.inner(h2))) / (2 * math.pi * HBAR)
    assert abs(lhs - rhs) < 1e-10
    lhs2 = moyal_inner(cross_wigner(phi0, h1), cross_wigner(h1, phi0))
    rhs2 = (phi0.inner(h1) * np.conj(h1.inner(phi0))) / (2 * math.pi * HBAR)
    assert abs(lhs2 - rhs2) < 1e-10


def test_wigner_basis_orthonormal(grid):
    basis = wigner_basis(3, 3, HBAR, grid)
    gram = np.array([[moyal_inner(a, b) for b in basis] for a in basis])
    np.testing.assert_allclose(gram, np.eye(16), atol=1e-10)


def test_wigner_basis_rejects_high_order(grid):
    with pytest.raises(OutOfDomainError):
        wigner_basis(9, 0, HBAR, grid)


def test_phase_shift_aligned_exact(grid, phi0, h1):
    w = cross_wigner(phi0, h1)
    dx = w.grid.dx
    dp = w.grid.dp
    z0 = np.array([6 * dx, 10 * dp])
    shifted = phase_shift(w, z0)
    xg, pg = w.grid.meshgrid()
    mult = np.exp(-1j * (pg * z0[0] - xg * z0[1]) / HBAR)
    rolled = np.roll(w.values, (3, 5), axis=(0, 1))
    np.testing.assert_allclose(shifted.values, mult * rolled, atol=1e-12)


def test_intertwining_heisenberg_weyl(grid, phi0, h1):
    dx = grid.dx
    dp = math.pi * HBAR / grid.X
    z0 = np.array([8 * dx, 12 * dp])
    lhs = cross_wigner(heisenberg_weyl(phi0, z0), h1)
    rhs = phase_shift(cross_wigner(phi0, h1), z0)
    np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-9)


def test_phase_shift_cocycle(grid, phi0, h1):
    w = cross_wigner(phi0, h1)
    dx = w.grid.dx
    dp = w.grid.dp
    z0 = np.array([8 * dx, 12 * dp])
    z1 = np.array([-4 * dx, 6 * dp])
    lhs = phase_shift(phase_shift(w, z1), z0)
    rhs = phase_shift(w, z0 + z1)
    phase = np.exp(-1j * symplectic_form(z0, z1) / (2 * HBAR))
    np.testing.assert_allclose(phase * lhs.values, rhs.values, atol=1e-9)


def test_wigner_covariance_under_rotation(grid, phi0):
    # W(S f) = W f o S^{-1}, checked by resampling (interpolation-limited)
    alpha = math.pi / 3
    f = heisenberg_weyl(phi0, np.array([2.0, 0.0]))
    sf = qfio_apply(rotation_generating(alpha), 0, f)
    lhs = cross_wigner(sf, sf)
    rhs = compose_linear(cross_wigner(f, f), rotation(alpha).inv().entries)
    err = np.max(np.abs(lhs.values - rhs.values)) / np.max(np.abs(lhs.values))
    assert err < 1e-4


def test_phase_metaplectic_gaussian_eigenvector(phi0):
    # the auto-Wigner of the ground state is rotation invariant, so the
    # extended operator can only multiply it by its branch phase e^{-i nu'}
    alpha = 2 * math.pi / 3
    w0 = cross_wigner(phi0, phi0)
    nu = conley_zehnder(rotation_generating(alpha), 0)
    out = metaplectic_phase_apply(rotation(alpha), nu, w0)
    np.testing.assert_allclose(out.values,
                               np.exp(-0.5j * alpha) * w0.values, atol=1e-8)


def test_phase_metaplectic_unitarity(phi0, h1):
    rng = np.random.default_rng(3)
    F = cross_wigner(phi0, h1)
    for _ in range(2):
        s = _gated_symplectic(rng)
        out = metaplectic_phase_apply(s, _nu_from_factors(s), F)
        assert abs(out.norm() - F.norm()) / F.norm() < 1e-4


@pytest.mark.parametrize("form", ["alfa1", "alfa2"])
def test_phase_forms_agree(phi0, h1, form):
    rng = np.random.default_rng(9)
    s = _gated_symplectic(rng)
    nu = _nu_from_factors(s)
    F = cross_wigner(phi0, h1)
    base = metaplectic_phase_apply(s, nu, F, form="s1")
    other = metaplectic_phase_apply(s, nu, F, form=form)
    err = np.max(np.abs(base.values - other.values)) / np.max(np.abs(base.values))
    assert err < 1e-5


def test_phase_metaplectic_intertwines_config(grid, phi0, h1):
    # S~ W(f, g) = W(S f, g) with the same Conley-Zehnder branch
    rng = np.random.default_rng(23)
    s = _gated_symplectic(rng)
    (w1, m1), (w2, m2) = factor_pair(s)
    nu = cz_compose(conley_zehnder(w1, m1), conley_zehnder(w2, m2),
                    cayley(free_from_generating(w1)),
                    cayley(free_from_generating(w2)))
    word = MetaplecticWord([(w1, m1), (w2, m2)])
    lhs = metaplectic_phase_apply(s, nu, cross_wigner(phi0, h1))
    rhs = cross_wigner(word.apply(phi0), h1)
    err = np.max(np.abs(lhs.values - rhs.values)) / np.max(np.abs(rhs.values))
    assert err < 1e-4


def test_phase_metaplectic_inverse_branch(phi0, h1):
    # nu' = -nu mod 4: applying S with nu then S^{-1} with -nu is the identity
    rng = np.random.default_rng(40)
    s = _gated_symplectic(rng)
    nu = _nu_from_factors(s)
    F = cross_wigner(phi0, h1)
    out = metaplectic_phase_apply(s, nu, F)
    back = metaplectic_phase_apply(s.inv(), (-nu) % 4, out)
    err = np.max(np.abs(back.values - F.values)) / np.max(np.abs(F.values))
    assert err < 1e-4


def test_bopp_delta_symbol_bias_scales_quadratically(phi0, h1):
    # a Gaussian twisted symbol concentrated at scale sigma reproduces the
    # identity with O(sigma^2) bias
    F = cross_wigner(phi0, h1)
    errs = []
    for sigma in (1.0, 0.7):
        def a_sigma(zx, zp, s=sigma):
            r2 = zx * zx + zp * zp
            return np.exp(-r2 / (2 * s * s * HBAR ** 2)) / (
                2 * math.pi * s * s * HBAR ** 2) * (2 * math.pi * HBAR)
        out = bopp_apply(a_sigma, F)
        errs.append(np.max(np.abs(out.values - F.values))
                    / np.max(np.abs(F.values)))
    ratio = errs[1] / errs[0]
    assert 0.3 < ratio < 0.7  # sigma^2 ratio 0.49, grid effects allowed


def test_bopp_gaussian_symbol_matches_analytic_kernel(phi0, h1):
    # for a Gaussian Weyl symbol the Bopp operator has a closed-form kernel
    # (Gaussian convolutions in x and p separately); spot-check a few points
    F = cross_wigner(phi0, h1)
    grid = F.grid
    tau = 0.8
    zc = np.array([0.5, -0.3])

    def a_sigma(zx, zp):
        r2 = zx * zx + zp * zp
        sig = zp * zc[0] - zx * zc[1]
        return (tau ** 2 / HBAR) * np.exp(-1j * sig / HBAR) * np.exp(
            -tau ** 2 * r2 / (2 * HBAR ** 2))

    out = bopp_apply(a_sigma, F)

    xs = grid.x_axis()
    ps = grid.p_axis()
    w = np.full(grid.N, grid.dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    wp = np.full(grid.N_p, grid.dp)
    wp[0] *= 0.5
    wp[-1] *= 0.5
    pref = 8 * math.pi * tau ** 2 / (2 * math.pi * HBAR) ** 2
    for ix in (200, 256, 300):
        for ip in (220, 256, 290):
            x, p = xs[ix], ps[ip]
            col = np.exp(-2j * (p - zc[1]) * (x - xs) / HBAR
                         - 2 * tau ** 2 * (x - xs) ** 2 / HBAR ** 2) * w
            row = np.exp(2j * (x - zc[0]) * (p - ps) / HBAR
                         - 2 * tau ** 2 * (p - ps) ** 2 / HBAR ** 2) * wp
            expected = pref * (col @ F.values @ row)
            assert abs(out.values[ix, ip] - expected) < 1e-5


def _bopp_direct(a_sigma, F, r_factor=3.0, cutoff_fraction=0.2):
    """The Bopp quadrature as a plain double loop over the even-sublattice
    shifts (a, b): out += w_ab e^{i x p0_b / hbar} e^{-i p x0_a / hbar}
    F(x - a 2dx/2, p - b 2dp/2), with the same truncation as bopp_apply."""
    grid, hbar, vals = F.grid, F.hbar, F.values
    xg, pg = grid.x_axis(), grid.p_axis()
    mag = np.abs(vals)
    keep_f = mag > 1e-12 * mag.max()
    rows = np.nonzero(keep_f.any(axis=1))[0]
    cols = np.nonzero(keep_f.any(axis=0))[0]
    i0, i1 = max(0, rows[0] - 2), min(grid.N, rows[-1] + 3)
    k0, k1 = max(0, cols[0] - 2), min(grid.N_p, cols[-1] + 3)
    r_supp = max(abs(xg[i0]), abs(xg[i1 - 1]), abs(pg[k0]), abs(pg[k1 - 1]))
    radius = r_factor * max(r_supp, grid.dx)
    kx = int(math.floor(radius / (2 * grid.dx)))
    kp = int(math.floor(radius / (2 * grid.dp)))
    out = np.zeros_like(vals)
    for a in range(-kx, kx + 1):
        for b in range(-kp, kp + 1):
            x0, p0 = 2 * a * grid.dx, 2 * b * grid.dp
            s = math.hypot(x0, p0) / radius
            if s > 1.0 or abs(a) >= grid.N or abs(b) >= grid.N_p:
                continue  # outside the cutoff, or F moved off the grid
            chi = 1.0
            if s > 1.0 - cutoff_fraction:
                chi = 0.5 * (1.0 + math.cos(math.pi * (s - 1.0 + cutoff_fraction)
                                            / cutoff_fraction))
            w = a_sigma(x0, p0) * chi * (4 * grid.dx * grid.dp) / (2 * math.pi * hbar)
            shifted = np.zeros_like(vals)
            shifted[max(0, a):grid.N + min(0, a), max(0, b):grid.N_p + min(0, b)] = \
                vals[max(0, -a):grid.N - max(0, a), max(0, -b):grid.N_p - max(0, b)]
            out += (w * np.exp(1j * xg * p0 / hbar))[:, None] \
                * np.exp(-1j * pg * x0 / hbar)[None, :] * shifted
    return out


def _enveloped_phase_function(grid, hbar):
    xx, pp = grid.meshgrid()
    vals = (np.exp(-0.5 * (xx ** 2 + 1.5 * pp ** 2)) * (1.0 + 0.4 * xx - 0.3j * pp)
            * np.exp(1j * (0.7 * xx - 0.4 * pp)))
    return PhaseFunction(grid, hbar, vals)


@pytest.mark.parametrize("pgrid", [
    PhaseGrid(1, 32, 6.0, 48, 5.0),   # not a cross_wigner grid: dp != pi hbar / (2X)
    PhaseGrid(1, 16, 2.0, 48, 5.0),   # x-shifts beyond the grid (kx >= N)
    PhaseGrid(1, 32, 6.0, 16, 1.0),   # p-shifts beyond the grid (kp >= N_p)
])
def test_bopp_matches_direct_shift_sum_on_general_grid(pgrid):
    hbar = 0.8
    F = _enveloped_phase_function(pgrid, hbar)
    zc = np.array([0.3, -0.2])

    def a_sigma(zx, zp):
        return (np.exp(-(zx * zx + zp * zp) / (2 * 1.5 ** 2))
                * np.exp(-1j * (zp * zc[0] - zx * zc[1]) / hbar))

    out = bopp_apply(a_sigma, F).values
    expected = _bopp_direct(a_sigma, F)
    assert np.max(np.abs(expected)) > 0
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_bopp_rejects_symbol_not_decayed_at_truncation_ring():
    pgrid = PhaseGrid(1, 32, 6.0, 48, 5.0)
    F = _enveloped_phase_function(pgrid, 1.0)
    wide = lambda zx, zp: np.exp(-(zx * zx + zp * zp) / (2 * 10.0 ** 2))
    with pytest.raises(TruncationError):
        bopp_apply(wide, F)


def test_phase_grid_equality_and_hash_agree(grid):
    a = PhaseGrid(1, 16, 2.0, 16, 2.0)
    b = PhaseGrid(1, 16, 2.0, 16, 2.0 + 1e-13)
    assert a == b and hash(a) == hash(b)
    assert a != PhaseGrid(1, 16, 2.0, 16, 2.5)
    assert PhaseGrid.compatible(grid, HBAR) != grid


def test_phase_function_leaves_caller_array_writable():
    v = np.zeros((16, 16), complex)
    F = PhaseFunction(PhaseGrid(1, 16, 2.0, 16, 2.0), 1.0, v)
    v[0, 0] = 1.0
    assert not F.values.flags.writeable


def test_phase_metaplectic_warns_when_output_leaves_reachable_box():
    # W(f, g) for coherent states at (+-8, 0) sits at the origin, but its
    # image W(S f, g) under the rotation by 2.5 is centered near (-7.2, 2.4),
    # past the reachable box (radius about 9.2) that is built from F's support
    grid = Grid(n=1, N=512, X=20.0)
    phi0 = gaussian(grid, HBAR)
    F = cross_wigner(heisenberg_weyl(phi0, [8.0, 0.0]), heisenberg_weyl(phi0, [-8.0, 0.0]))
    with pytest.warns(BandwidthExceededWarning, match="reachable-box"):
        metaplectic_phase_apply(rotation(2.5), 0, F)
