"""Phase-space layer: cross-Wigner, Moyal geometry, phase-space shifts,
extended metaplectic operators, and the Bopp quantization."""

import math
import warnings

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
    GeneratingFunction,
    Grid,
    GridMismatchError,
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
    SampledFunction,
    symplectic_form,
    SymplecticMatrix,
    TruncationError,
    wigner_basis,
)
import metaplectic.grids as grids
import metaplectic.phase_space as phase_space
from metaplectic.grids import _box_radius, _centered_fft, _shear, _support_box
from metaplectic.nufft import nufft2d2
from metaplectic.symplectic import _integral_form, standard_j

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


def _cross_wigner_gather(f, g):
    """The index-gather cross-Wigner sum: index arrays j +- m, a validity mask
    and two clipped reads, then the same centred FFT as cross_wigner."""
    n_pts = f.grid.N
    j = np.arange(n_pts)[:, None]
    m = (np.arange(n_pts) - n_pts // 2)[None, :]
    ia, ib = j + m, j - m
    valid = (ia >= 0) & (ia < n_pts) & (ib >= 0) & (ib < n_pts)
    fa = np.where(valid, f.values[np.clip(ia, 0, n_pts - 1)], 0.0)
    gb = np.where(valid, np.conj(g.values[np.clip(ib, 0, n_pts - 1)]), 0.0)
    return (f.grid.dx / (math.pi * f.hbar)) * _centered_fft(fa * gb, axes=(1,))


@pytest.mark.filterwarnings("ignore::metaplectic.BandwidthExceededWarning")
@pytest.mark.parametrize("n_pts", [8, 64, 512])
def test_cross_wigner_matches_index_gather(n_pts):
    # the window stacks read the same products in the same order: bit for bit
    rng = np.random.default_rng(n_pts)
    grid = Grid(n=1, N=n_pts, X=12.0)
    f, g = (SampledFunction(grid, HBAR, rng.normal(size=(n_pts, 2)) @ [1, 1j],
                            check_tails=False) for _ in range(2))
    assert np.array_equal(cross_wigner(f, g).values, _cross_wigner_gather(f, g))


@pytest.mark.parametrize("fraction", [0.45, 0.55, 0.70])
def test_wigner_warns_beyond_half_band(grid, phi0, fraction):
    # f = phi0 e^{i p1 x / hbar} is held by the configuration band pi hbar / dx,
    # but W(f, f) sits at p = p1 and reaches past P_max, half of that band
    f = heisenberg_weyl(phi0, [0.0, fraction * math.pi * HBAR / grid.dx])
    with pytest.warns(BandwidthExceededWarning, match="half band"):
        cross_wigner(f, f)


def test_wigner_silent_inside_half_band(grid, phi0):
    # W(f, g) spans the mean of the two spectral supports: a +-p1 pair sits at
    # p = 0 and stays silent, although each spectrum alone reaches past P_max
    band = math.pi * HBAR / grid.dx
    inside = heisenberg_weyl(phi0, [0.0, 0.30 * band])
    up, down = (heisenberg_weyl(phi0, [0.0, sign * 0.70 * band]) for sign in (1, -1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w_in = cross_wigner(inside, inside)
        w_pair = cross_wigner(up, down)
    xg, pg = w_in.grid.meshgrid()
    p1 = 0.30 * band
    closed = np.exp(-(xg ** 2 + (pg - p1) ** 2) / HBAR) / (math.pi * HBAR)
    np.testing.assert_allclose(w_in.values, closed, rtol=0, atol=1e-12)
    closed = np.exp(2j * 0.70 * band * xg / HBAR) * np.exp(-(xg ** 2 + pg ** 2) / HBAR) / (
        math.pi * HBAR)
    np.testing.assert_allclose(w_pair.values, closed, rtol=0, atol=1e-12)


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
    # W(S f) = W f o S^{-1}, checked by resampling with the trigonometric
    # interpolant (2.7e-13 here)
    alpha = math.pi / 3
    f = heisenberg_weyl(phi0, np.array([2.0, 0.0]))
    sf = qfio_apply(rotation_generating(alpha), 0, f)
    lhs = cross_wigner(sf, sf)
    rhs = compose_linear(cross_wigner(f, f), rotation(alpha).inv().entries)
    err = np.max(np.abs(lhs.values - rhs.values)) / np.max(np.abs(lhs.values))
    assert err < 1e-12


def _displaced_gaussian_wigner(pgrid, z0, mat=np.eye(2)):
    """W(T(z0) phi0)(mat z) = exp(-|mat z - z0|^2 / hbar) / (pi hbar) on pgrid."""
    x, p = np.einsum("ik,k...->i...", mat, np.array(pgrid.meshgrid()))
    return np.exp(-((x - z0[0]) ** 2 + (p - z0[1]) ** 2) / HBAR) / (math.pi * HBAR)


def _spy_ldu_plans(monkeypatch):
    plans = []
    plan = grids._ldu_plan
    monkeypatch.setattr(grids, "_ldu_plan", lambda mat: plans.append(plan(mat)) or plans[-1])
    return plans


def test_compose_linear_matches_closed_form_at_every_pivot(monkeypatch, phi0):
    # the pull-back of W(T(z0) phi0) by rotations, by a symplectic matrix
    # that pivots on entry (1, 0) (the plan works in index units: entry
    # (i, k) times step_k / step_i), and by 20 random symplectic matrices
    # with sigma_max <= 2 (measured 2.0e-13 to 3.2e-13 and 9.6e-14 to
    # 4.3e-13); a dropped pivot fails this test
    plans = _spy_ldu_plans(monkeypatch)
    z0 = np.array([2.0, 1.0])
    w = cross_wigner(*[heisenberg_weyl(phi0, z0)] * 2)
    mats = [rotation(a).inv().entries for a in (0.4, 2.0, 3 * math.pi / 4)]
    h = np.array(w.grid.steps)
    mats.append(np.array([[0.3, 0.5], [-1.6, 2.0 / 3.0]]) * h[:, None] / h)
    rng = np.random.default_rng(5)
    while len(mats) < 24:
        s = random_symplectic(1, rng).entries
        if np.linalg.svd(s, compute_uv=False)[0] <= 2.0:
            mats.append(s)
    for mat in mats:
        ref = _displaced_gaussian_wigner(w.grid, z0, mat)
        out = compose_linear(w, mat).values
        assert np.max(np.abs(out - ref)) / np.max(ref) < 1e-12, mat
    assert {swaps for swaps, *_ in plans} == {
        (False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("alpha", [math.pi / 2, 2.0, 0.4])
def test_compose_linear_on_rectangular_phase_grid(monkeypatch, alpha):
    # N != N_p: a swap of one side only hands the dilations a transposed
    # shape (pi / 2 and 2 swap the input axes only, 0.4 swaps none;
    # measured 6.3e-14 to 9.9e-14)
    plans = _spy_ldu_plans(monkeypatch)
    pgrid = PhaseGrid(1, 256, 12.0, 128, 8.0)
    z0 = np.array([1.0, -0.5])
    mat = rotation(alpha).inv().entries
    out = compose_linear(PhaseFunction(pgrid, HBAR, _displaced_gaussian_wigner(pgrid, z0)), mat)
    ref = _displaced_gaussian_wigner(pgrid, z0, mat)
    assert out.values.shape == (256, 128)
    assert np.max(np.abs(out.values - ref)) / np.max(ref) < 1e-12
    assert plans[0][0] == (False, alpha != 0.4)


@pytest.mark.parametrize("alpha", [math.pi / 4, 3 * math.pi / 4])
def test_compose_linear_drops_no_sample_of_a_lattice_filling_function(alpha):
    # a rotation-invariant Gaussian that is 3e-14 of its peak at the lattice
    # edge: the shears take slope 1 and reach half a line beyond the lattice,
    # where the intermediate images still hold 1e-7 (unpadded, the error was
    # 1.1e-7; measured 1.5e-13)
    pgrid = PhaseGrid(1, 256, 8.0, 256, 8.0)
    x, p = pgrid.meshgrid()
    F = PhaseFunction(pgrid, HBAR, np.exp(-(x * x + p * p) / 2.0))
    assert np.max(np.abs(compose_linear(F, rotation(alpha).entries).values - F.values)) < 1e-12


def _interpolant_nufft(F, mat):
    """F's trigonometric interpolant at mat z by nufft2d2 (to its 1e-10
    relative), 0 beyond the band: the pull-back as it was summed before
    the shear factorization."""
    pts = np.einsum("ik,k...->i...", mat, np.array(F.grid.meshgrid()))
    xi = [2.0 * math.pi * (t / h) / size for t, h, size in zip(pts, F.grid.steps, F.grid.sizes)]
    inside = np.all([(t >= -math.pi) & (t < math.pi) for t in xi], axis=0)
    out = np.zeros(inside.shape, dtype=complex)
    out[inside] = nufft2d2(xi[0][inside], xi[1][inside], _centered_fft(F.values) / F.values.size)
    return out


@pytest.mark.parametrize("width", [9.0, 12.0])
def test_compose_linear_refines_a_band_filling_function(width):
    # on a 64 x 64 lattice the spectrum of exp(-|z - z0|^2) fills the band
    # (to 7e-5 of its peak at the Nyquist frequency for X = 12): the shears
    # widen it beyond the lattice's band, which the refined rows must hold.
    # Unrefined, the errors were 1.0e-7 and 8.7e-5.  At X = 9 the result is
    # the closed form to 1.7e-14-6.6e-14 and the NUFFT's to 3.8e-12 (its own
    # error); at X = 12 the samples under-resolve the function, and the
    # error against the closed form is the NUFFT's, 5.4e-9-7.7e-9, within 0.3 %
    pgrid = PhaseGrid(1, 64, width, 64, width)
    x, p = pgrid.meshgrid()
    F = PhaseFunction(pgrid, HBAR, np.exp(-((x - 0.7) ** 2 + (p + 0.4) ** 2)))
    rng = np.random.default_rng(11)
    mats = []
    while len(mats) < 12:
        s = random_symplectic(1, rng).entries
        if np.linalg.svd(s, compute_uv=False)[0] <= 1.6:
            mats.append(s)
    # pivot 3 and slopes 0.2, 0.07: the last shear needs 4 rows per cell
    mats.append(np.array([[3.0, 0.6], [0.2, 0.04 + 1.0 / 3.0]]))
    for mat in mats:
        xs, ps = np.einsum("ik,k...->i...", mat, np.array([x, p]))
        exact = np.exp(-((xs - 0.7) ** 2 + (ps + 0.4) ** 2))
        out, ref = compose_linear(F, mat).values, _interpolant_nufft(F, mat)
        err, err_ref = (np.max(np.abs(v - exact)) / np.max(exact) for v in (out, ref))
        assert err < max(1e-12, 1.01 * err_ref), mat
        if width == 9.0:
            assert np.max(np.abs(out - ref)) / np.max(exact) < 1e-10


@pytest.mark.parametrize("mat", [[[1.0, np.nan], [0.0, 1.0]], np.zeros((2, 2)), np.eye(3)],
                         ids=["nan", "zero", "3x3"])
def test_compose_linear_rejects_bad_matrix(phi0, mat):
    # a NaN entry used to return an all-zero function; the zero matrix has
    # no pivot for the shear factorization
    with pytest.raises(GridMismatchError):
        compose_linear(cross_wigner(phi0, phi0), np.array(mat))


def test_phase_shift_off_lattice_matches_closed_form(phi0):
    # Ttilde(z0) W(z) = exp(-i sigma(z, z0) / hbar) W(z - z0 / 2) for the
    # Gaussian W(phi0, phi0) = exp(-|z|^2 / hbar) / (pi hbar), with z0 / 2
    # a fraction of a cell on both axes
    w = cross_wigner(phi0, phi0)
    z0 = np.array([0.8123, -0.4567])
    out = phase_shift(w, z0)
    xg, pg = w.grid.meshgrid()
    ref = (np.exp(-1j * (pg * z0[0] - xg * z0[1]) / HBAR)
           * np.exp(-((xg - z0[0] / 2) ** 2 + (pg - z0[1] / 2) ** 2) / HBAR)
           / (math.pi * HBAR))
    assert np.max(np.abs(out.values - ref)) / np.max(np.abs(ref)) < 1e-13


def test_phase_metaplectic_gaussian_eigenvector(phi0):
    # the auto-Wigner of the ground state is rotation invariant, so the
    # extended operator can only multiply it by its branch phase e^{-i nu'}
    alpha = 2 * math.pi / 3
    w0 = cross_wigner(phi0, phi0)
    nu = conley_zehnder(rotation_generating(alpha), 0)
    out = metaplectic_phase_apply(rotation(alpha), nu, w0)
    np.testing.assert_allclose(out.values,
                               np.exp(-0.5j * alpha) * w0.values, atol=1e-11)


def test_phase_metaplectic_unitarity(phi0, h1):
    rng = np.random.default_rng(3)
    F = cross_wigner(phi0, h1)
    for _ in range(2):
        s = _gated_symplectic(rng)
        out = metaplectic_phase_apply(s, _nu_from_factors(s), F)
        assert abs(out.norm() - F.norm()) / F.norm() < 1e-10


@pytest.mark.parametrize("form", ["alfa1", "alfa2"])
def test_phase_forms_agree(phi0, h1, form):
    rng = np.random.default_rng(9)
    s = _gated_symplectic(rng)
    nu = _nu_from_factors(s)
    F = cross_wigner(phi0, h1)
    base = metaplectic_phase_apply(s, nu, F, form="s1")
    other = metaplectic_phase_apply(s, nu, F, form=form)
    err = np.max(np.abs(base.values - other.values)) / np.max(np.abs(base.values))
    assert err < 1e-12


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
    assert err < 1e-10


def test_phase_metaplectic_inverse_branch(phi0, h1):
    # nu' = -nu mod 4: applying S with nu then S^{-1} with -nu is the identity
    rng = np.random.default_rng(40)
    s = _gated_symplectic(rng)
    nu = _nu_from_factors(s)
    F = cross_wigner(phi0, h1)
    out = metaplectic_phase_apply(s, nu, F)
    back = metaplectic_phase_apply(s.inv(), (-nu) % 4, out)
    err = np.max(np.abs(back.values - F.values)) / np.max(np.abs(F.values))
    assert err < 1e-10


def _phase_apply_nufft(s, nu, F, form="s1"):
    """The extended operator by the type-2 NUFFT: the same (M, pref) row, v
    box, output box and chirp, the v lattice refined until the sheared
    targets xi = dv G^T z / hbar lie in [-pi, pi), and the sum over it read
    at those targets by nufft2d2 (to its 1e-10 relative)."""
    m_s, pref = _integral_form(s, nu, twisted=form != "s1")
    hbar, grid = F.hbar, F.grid
    box = _support_box(F.values, pad=2)
    (i0, i1), (k0, k1) = box
    xo, po = grid.axes()
    xs, ps = xo[i0:i1], po[k0:k1]
    c_mat = 4.0 * m_s
    g_mat = -(2.0 * standard_j(1) + c_mat)
    r_out = (1.15 * np.linalg.svd(s.entries, compute_uv=False)[0] * _box_radius(box, (xo, po))
             + 3.0 * math.sqrt(hbar))
    ox, op = np.nonzero(np.abs(xo) <= r_out)[0], np.nonzero(np.abs(po) <= r_out)[0]
    zx, zp = xo[ox[0]:ox[-1] + 1][:, None], po[op[0]:op[-1] + 1][None, :]
    mv = (np.max(np.abs(xs)), np.max(np.abs(ps)))
    mz = (np.max(np.abs(zx)), np.max(np.abs(zp)))
    u = [max(1, math.ceil(step * 1.1 / math.pi * (
        abs(c_mat[ax, 0]) * mv[0] + abs(c_mat[ax, 1]) * mv[1]
        + abs(g_mat[0, ax]) * mz[0] + abs(g_mat[1, ax]) * mz[1]) / hbar + 1.0))
        for ax, step in enumerate((grid.dx, grid.dp))]
    work = grids._fft_upsample(F.values[i0:i1, k0:k1], (u[0] * (i1 - i0), u[1] * (k1 - k0)))
    dv = (grid.dx / u[0], grid.dp / u[1])
    nj, nk = work.shape
    vx = xs[xs.size // 2] + (np.arange(nj) - nj // 2)[:, None] * dv[0]
    vp = ps[ps.size // 2] + (np.arange(nk) - nk // 2)[None, :] * dv[1]
    chirp = 0.5 * (c_mat[0, 0] * vx ** 2 + 2 * c_mat[0, 1] * vx * vp + c_mat[1, 1] * vp ** 2)
    coeffs = work * np.exp(1j * chirp / hbar) * dv[0] * dv[1]
    gz1 = (g_mat[0, 0] * zx + g_mat[1, 0] * zp) / hbar
    gz2 = (g_mat[0, 1] * zx + g_mat[1, 1] * zp) / hbar
    core = nufft2d2(dv[0] * gz1, dv[1] * gz2, coeffs)
    quad_z = 0.5 * (c_mat[0, 0] * zx ** 2 + 2 * c_mat[0, 1] * zx * zp + c_mat[1, 1] * zp ** 2)
    phase = quad_z / hbar + gz1 * vx[nj // 2, 0] + gz2 * vp[0, nk // 2]
    out = np.zeros(grid.shape(), dtype=complex)
    out[ox[0]:ox[-1] + 1, op[0]:op[-1] + 1] = (
        4.0 * pref / (2.0 * math.pi * hbar) * np.exp(1j * phase) * core)
    return out


@pytest.mark.parametrize("seed", [9, 23, 40])
def test_phase_apply_matches_nufft_evaluation(phi0, h1, seed):
    # the shear and chirp-z evaluation against the NUFFT one on the same integral
    s = _gated_symplectic(np.random.default_rng(seed))
    nu = _nu_from_factors(s)
    F = cross_wigner(phi0, h1)
    ref = _phase_apply_nufft(s, nu, F)
    out = metaplectic_phase_apply(s, nu, F).values
    assert np.max(np.abs(out - ref)) / np.max(np.abs(ref)) < 1e-10


# seeds of _gated_symplectic whose G the evaluator shears as (axis l, zeroed
# row i) = (0, 0), (0, 1), (1, 0), (1, 1); S = -I has G = -2J, which already
# has a zero entry, and is not sheared
_PLAN_SEEDS = (11, 1, 0, 21, None)


@pytest.mark.parametrize("hbar", [1.0, 0.5, 0.25])
def test_phase_apply_intertwines_config_at_each_shear(monkeypatch, hbar):
    # S~ W(phi0, h1) = W(S phi0, h1), for every shear the evaluator can pick
    plans = []
    plan = grids._shear_plan
    monkeypatch.setattr(grids, "_shear_plan", lambda *a: plans.append(plan(*a)) or plans[-1])
    grid = Grid(n=1, N=512, X=12.0)
    phi0, h1 = gaussian(grid, hbar), hermite_function(1, grid, hbar)
    F = cross_wigner(phi0, h1)
    for seed in _PLAN_SEEDS:
        s = (SymplecticMatrix(-np.eye(2)) if seed is None
             else _gated_symplectic(np.random.default_rng(seed)))
        (w1, m1), (w2, m2) = factor_pair(s)
        nu = _nu_from_factors(s)
        ref = cross_wigner(MetaplecticWord([(w1, m1), (w2, m2)]).apply(phi0), h1).values
        for form in ("s1", "alfa1"):
            out = metaplectic_phase_apply(s, nu, F, form=form).values
            assert np.max(np.abs(out - ref)) / np.max(np.abs(ref)) < 1e-11, (seed, form)
    assert {(l, i, u == 0) for l, u, _, i in plans} == {
        (0, 0, False), (0, 1, False), (1, 0, False), (1, 1, False), (1, 0, True)}


def test_phase_apply_raises_past_workspace_cap(monkeypatch, phi0, h1):
    # the padded, sheared workspace is what the cap bounds, and it is checked
    # before the input is upsampled; n = 2 qfio_apply shares the cap
    def refuse(*args):
        raise AssertionError("upsampled before the workspace cap was checked")

    monkeypatch.setattr(grids, "_MAX_WORK_POINTS", 10_000)
    monkeypatch.setattr(grids, "_fft_upsample", refuse)
    with pytest.raises(TruncationError, match="refinement budget"):
        metaplectic_phase_apply(rotation(2.0), 0, cross_wigner(phi0, h1))
    w = GeneratingFunction(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))
    with pytest.raises(TruncationError, match="refinement budget"):
        qfio_apply(w, 0, gaussian(Grid(n=2, N=128, X=8.0), HBAR))


def test_quadratic_phase_sum_matches_dense_sum(monkeypatch):
    # cell sum_v f(v) exp(i W(z, v) / hbar) against the O(N^4) sum over the
    # lattice: a Gaussian resolved on a 64 x 56 lattice with unequal steps
    # and a centre off 0, an output lattice of its own, random symmetric P
    # and Q, and one L per plan, the four shears (l, i) and the zero-entry
    # plan.  Both are trapezoid rules of the same integral, exact here to
    # rounding (measured 7.1e-15 to 1.8e-14)
    plans = []
    plan = grids._shear_plan
    monkeypatch.setattr(grids, "_shear_plan", lambda *a: plans.append(plan(*a)) or plans[-1])
    hbar, steps, centre = 0.8, (0.2, 0.22), np.array([0.3, -0.2])
    v = [c + (np.arange(n) - n // 2) * h for c, n, h in zip(centre, (64, 56), steps)]
    vx, vp = np.meshgrid(*v, indexing="ij")
    f = np.exp(-((vx - 0.4) ** 2 + (vp + 0.1) ** 2) / 0.9 + 1j * (0.7 * vx - 0.3 * vp))
    z_idx, dz = (range(-10, 12), range(-9, 8)), (0.3, 0.4)
    z = np.stack([a.ravel() for a in np.meshgrid(
        *(np.arange(r.start, r.stop) * h for r, h in zip(z_idx, dz)), indexing="ij")], axis=1)
    vs = np.stack([vx.ravel(), vp.ravel()], axis=1)
    rng = np.random.default_rng(12)
    for l in ([[1.2, 0.3], [-0.2, 0.9]], [[0.3, 1.2], [0.9, -0.2]], [[-0.2, 0.9], [1.2, 0.3]],
              [[0.9, -0.2], [0.3, 1.2]], [[0.0, 1.0], [2.0, 0.5]]):
        p, q = (0.5 * (a + a.T) for a in rng.uniform(-0.5, 0.5, size=(2, 2, 2)))
        l = np.array(l)
        w = (0.5 * np.einsum("ti,ik,tk->t", z, p, z)[:, None] - (z @ l.T) @ vs.T
             + 0.5 * np.einsum("vi,ik,vk->v", vs, q, vs)[None, :])
        ref = (np.exp(1j * w / hbar) @ f.ravel()).reshape(len(z_idx[0]), len(z_idx[1]))
        ref *= steps[0] * steps[1]
        out = grids._quadratic_phase_sum(f, f.shape, steps, centre, p, l, q, z_idx, dz, hbar)
        assert np.max(np.abs(out - ref)) < 1e-12 * np.max(np.abs(ref)), l
    assert [(l, i, u == 0) for l, u, _, i in plans] == [
        (0, 0, False), (0, 1, False), (1, 0, False), (1, 1, False), (1, 0, True)]


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("slope", [-1.7, 0.45])
def test_shear_matches_dense_trigonometric_interpolant(axis, slope):
    # line c moves by slope (c - lines // 2) cells: out = interpolant(j - that),
    # zero where the read point leaves the line
    rng = np.random.default_rng(axis)
    n, lines = 24, 9
    vals = rng.normal(size=(n, lines)) + 1j * rng.normal(size=(n, lines))
    cells = slope * (np.arange(lines) - lines // 2)
    spec = _centered_fft(vals, axes=(0,))
    kappa = np.arange(n) - n // 2
    expected = np.zeros_like(vals)
    for c in range(lines):
        y = np.arange(n) - cells[c]
        dense = np.exp(2j * math.pi * np.multiply.outer(y - n // 2, kappa) / n) @ spec[:, c] / n
        expected[:, c] = np.where((y >= 0) & (y < n), dense, 0.0)
    if axis == 1:
        vals, expected = vals.T, expected.T
    np.testing.assert_allclose(_shear(vals, axis, slope), expected, rtol=0, atol=1e-13)


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
            # the C-infinity step a / (a + b) over the roll-off
            t = min(max((s - 1.0 + cutoff_fraction) / cutoff_fraction, 0.0), 1.0)
            a_t = math.exp(-1.0 / (1.0 - t)) if t < 1.0 else 0.0
            b_t = math.exp(-1.0 / t) if t > 0.0 else 0.0
            chi = a_t / (a_t + b_t)
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


def test_bopp_roll_off_matches_direct_shift_sum():
    # F fills the grid, so R = 3 X = 18; a symbol of width 0.24 R weighs
    # 3.9e-3 to 1.7e-4 of its peak on the roll-off 0.8 R - R, far above the
    # 1e-14 keep mask and below the 1e-3 decay check on 0.9 R - R, so the
    # shape of the cutoff enters the result
    pgrid = PhaseGrid(1, 32, 6.0, 48, 5.0)
    hbar, radius = 0.8, 18.0
    F = _enveloped_phase_function(pgrid, hbar)
    width = 0.24 * radius
    zc = np.array([0.3, -0.2])

    def a_sigma(zx, zp):
        return (np.exp(-(zx * zx + zp * zp) / (2 * width ** 2))
                * np.exp(-1j * (zp * zc[0] - zx * zc[1]) / hbar))

    assert abs(a_sigma(radius, 0.0)) > 1e-4
    out = bopp_apply(a_sigma, F).values
    expected = _bopp_direct(a_sigma, F)
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_bopp_rejects_symbol_not_decayed_at_truncation_ring():
    pgrid = PhaseGrid(1, 32, 6.0, 48, 5.0)
    F = _enveloped_phase_function(pgrid, 1.0)
    wide = lambda zx, zp: np.exp(-(zx * zx + zp * zp) / (2 * 10.0 ** 2))
    with pytest.raises(TruncationError):
        bopp_apply(wide, F)


def _perfbench_symbols(hbar):
    """The three twisted symbols of the phase_space benchmark: the Gaussian
    Weyl symbol with tau = 0.8 centred at zc, and the delta symbols of width
    sigma = 1 and 0.7."""
    tau, zc = 0.8, np.array([0.5, -0.3])

    def gaussian_symbol(zx, zp):
        return ((tau ** 2 / hbar) * np.exp(-1j * (zp * zc[0] - zx * zc[1]) / hbar)
                * np.exp(-tau ** 2 * (zx * zx + zp * zp) / (2 * hbar ** 2)))

    def delta_symbol(sigma):
        return lambda zx, zp: (np.exp(-(zx * zx + zp * zp) / (2 * sigma ** 2 * hbar ** 2))
                               / (sigma ** 2 * hbar))
    return [gaussian_symbol, delta_symbol(1.0), delta_symbol(0.7)]


@pytest.mark.filterwarnings("ignore::metaplectic.BandwidthExceededWarning")
@pytest.mark.parametrize("n_pts", [64, 128])
def test_bopp_padded_spectrum_matches_shift_loop_on_wigner_input(n_pts):
    # on a cross_wigner grid (N_p dx dp = pi hbar) bopp_apply takes the
    # padded-spectrum route, which reorders the shift loop's finite sum
    # (measured 2.9e-16 to 6.3e-16)
    grid = Grid(n=1, N=n_pts, X=12.0)
    F = cross_wigner(gaussian(grid, HBAR), hermite_function(1, grid, HBAR))
    assert F.grid.N_p * F.grid.dx * F.grid.dp == pytest.approx(math.pi * HBAR, rel=1e-12)
    for a_sigma in _perfbench_symbols(HBAR):
        weights = phase_space._bopp_weights(a_sigma, F)
        loop = phase_space._bopp_shift_loop(weights, F)
        out = bopp_apply(a_sigma, F).values
        assert np.array_equal(out, phase_space._bopp_padded_spectrum(weights, F))
        assert np.max(np.abs(out - loop)) <= 1e-13 * np.max(np.abs(loop))


@pytest.mark.parametrize("n_pts, n_p, X", [
    (40, 27, 5.0),   # odd N_p: the lines of the padded spectrum form two classes
    (24, 50, 3.0),   # N_p > N
    (64, 20, 2.0),   # N > N_p, x-shifts beyond the grid
    (16, 8, 3.0),    # one row block: off-grid entries of a class's product are
                     # nonzero, and must not reach the next class's zero rows
])
def test_bopp_padded_spectrum_matches_direct_sum_on_rectangular_grid(n_pts, n_p, X):
    # any grid with N_p dx dp = pi hbar rolls exactly, whatever N_p; F fills
    # the grid, so every shift drops or zero-fills samples at the edges
    hbar = 0.8
    pgrid = PhaseGrid(1, n_pts, X, n_p, math.pi * hbar * n_pts / (4 * X))
    rng = np.random.default_rng(n_p)
    F = PhaseFunction(pgrid, hbar, rng.normal(size=pgrid.shape()) + 1j * rng.normal(size=pgrid.shape()))
    zc = np.array([2.0, 1.0])

    def a_sigma(zx, zp):
        return (np.exp(-((zx - zc[0]) ** 2 + (zp - zc[1]) ** 2) / (2 * 0.6 ** 2))
                * np.exp(-1j * (0.3 * zp - 0.2 * zx) / hbar))

    weights = phase_space._bopp_weights(a_sigma, F)
    out = bopp_apply(a_sigma, F).values
    loop = phase_space._bopp_shift_loop(weights, F)
    expected = _bopp_direct(a_sigma, F)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(out - loop)) <= 1e-13 * scale
    assert np.max(np.abs(out - expected)) <= 1e-12 * scale


def _edge_gaussian(grid, hbar, x_c, p_c, width):
    xx, pp = grid.meshgrid()
    return PhaseFunction(grid, hbar, np.exp(-((xx - x_c) ** 2 + (pp - p_c) ** 2) / (2 * width ** 2)))


@pytest.mark.parametrize("n_pts", [32, 64])
@pytest.mark.parametrize("edge", ["p", "x"])
def test_bopp_padded_spectrum_keeps_edge_shifts_zero_filled(n_pts, edge):
    # mass near p = 0.8 P_max or x = 0.8 X: a wrapped kernel would fold the
    # shifts that leave the grid back in; the padded spectrum zero-fills them
    # as the shift loop does, and is no further than it from the direct sum.
    # The twisted phase damps the output far from the origin, so errors are
    # measured on the scale of the input, where both routes round
    hbar = 1.0
    grid = PhaseGrid.compatible(Grid(n=1, N=n_pts, X=6.0), hbar)
    centre = (0.0, 0.8 * grid.P_max) if edge == "p" else (0.8 * grid.X, 0.0)
    F = _edge_gaussian(grid, hbar, *centre, 0.5)
    scale = np.max(np.abs(F.values))
    for a_sigma in _perfbench_symbols(hbar):
        weights = phase_space._bopp_weights(a_sigma, F)
        out = bopp_apply(a_sigma, F).values
        loop = phase_space._bopp_shift_loop(weights, F)
        expected = _bopp_direct(a_sigma, F)
        err_out = np.max(np.abs(out - expected)) / scale
        err_loop = np.max(np.abs(loop - expected)) / scale
        assert np.max(np.abs(out - loop)) <= 1e-13 * scale
        assert err_out <= err_loop + 1e-15


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
