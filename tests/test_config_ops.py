"""Configuration-space operators: chirps, scaled Fourier, QFIOs, words,
Heisenberg-Weyl shifts, and the phase-space (Bochner) realization."""

import contextlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from metaplectic import (
    BandwidthExceededWarning,
    bochner_apply,
    cayley,
    chirp_multiply,
    conley_zehnder,
    cz_compose,
    factor_pair,
    free_from_generating,
    gaussian,
    generating_from_free,
    GeneratingFunction,
    Grid,
    GridMismatchError,
    hbar_fourier,
    heisenberg_weyl,
    hermite_function,
    maslov_branch,
    maslov_compose,
    MetaplecticWord,
    qfio_apply,
    random_free_generating,
    random_symplectic,
    rotation,
    rotation_generating,
    SampledFunction,
    scale_op,
    support_radius,
)
from metaplectic import config
import metaplectic.operators as operators
from metaplectic.grids import (_cross_chirp, _fourier_sum_axis, _integer_shift, _next_fast_len,
                              _smooth_cutoff)
from metaplectic.symplectic import _integral_form

HBAR = 1.0


@pytest.fixture(scope="module")
def grid():
    return Grid(n=1, N=512, X=12.0)


@pytest.fixture(scope="module")
def phi0(grid):
    return gaussian(grid, HBAR)


def test_gaussian_is_fourier_eigenvector(phi0):
    out = hbar_fourier(phi0)
    target = gaussian(out.grid, HBAR)
    np.testing.assert_allclose(
        out.values, np.exp(-1j * math.pi / 4) * target.values, atol=1e-8)


def test_fourier_unitarity_and_fourth_power(grid):
    f = hermite_function(3, grid, HBAR)
    out = f
    for _ in range(4):
        out = hbar_fourier(out)
    # J^4 = (-1)^n = -1 on n = 1 (e^{-i n pi / 4} normalization to the
    # fourth power times the parity operator squared)
    np.testing.assert_allclose(out.values, -f.values, atol=1e-7)
    assert abs(hbar_fourier(f).norm() - f.norm()) < 1e-8


def test_fourier_inverse_round_trip(grid):
    f = hermite_function(2, grid, HBAR)
    back = hbar_fourier(hbar_fourier(f), inverse=True)
    np.testing.assert_allclose(back.values, f.values, atol=1e-10)


def test_chirp_multiply_phase(grid, phi0):
    p = np.array([[0.7]])
    out = chirp_multiply(phi0, p)
    x = grid.axis()
    np.testing.assert_allclose(
        out.values, np.exp(0.5j * 0.7 * x * x / HBAR) * phi0.values,
        atol=1e-12)


def test_scale_op_non_diagonal_l_in_two_dimensions():
    # i^m sqrt|det L| f(L x) for the Gaussian is the closed form
    # sqrt|det L| (pi hbar)^{-1/2} exp(-|L x|^2 / 2 hbar); the trigonometric
    # interpolant at N = 128, X = 8 reproduces it to 4.9e-14 relative
    g2 = Grid(n=2, N=128, X=8.0)
    l = np.array([[1.2, 0.5], [-0.3, 0.9]])
    out = scale_op(gaussian(g2, HBAR), l, 0)
    x, y = g2.meshgrid()
    r2 = (l[0, 0] * x + l[0, 1] * y) ** 2 + (l[1, 0] * x + l[1, 1] * y) ** 2
    ref = math.sqrt(np.linalg.det(l) / (math.pi * HBAR)) * np.exp(-r2 / (2 * HBAR))
    assert np.max(np.abs(out.values - ref)) / np.max(ref) < 1e-12


@pytest.mark.parametrize("l", [[[1.0, 0.5]], [[1.0, np.nan], [0.0, 1.0]]], ids=["1x2", "nan"])
@pytest.mark.parametrize("m", [0, 1])
def test_scale_op_rejects_bad_matrix(l, m):
    # L is checked before the Maslov branch, which raised NumPy's
    # LinAlgError on a 1 x 2 L and a parity error or nothing on a NaN
    with pytest.raises(GridMismatchError):
        scale_op(gaussian(Grid(n=2, N=32, X=10.0), HBAR), np.array(l), m)


def test_scale_op_unitary_and_parity(grid, phi0):
    out = scale_op(phi0, np.array([[2.0]]), 0)
    assert abs(out.norm() - phi0.norm()) < 1e-6
    # h_1 is odd, so a negative scaling flips its sign; det L < 0 wants odd m
    h1 = hermite_function(1, grid, HBAR)
    flipped = scale_op(h1, np.array([[-1.0]]), 1)
    np.testing.assert_allclose(flipped.values, 1j * -h1.values, atol=1e-10)


@pytest.mark.parametrize("k", range(5))
def test_mehler_eigenphases(grid, k):
    alpha = math.pi / 3
    w = rotation_generating(alpha)
    hk = hermite_function(k, grid, HBAR)
    out = qfio_apply(w, 0, hk)
    np.testing.assert_allclose(
        out.values, np.exp(-1j * alpha * (k + 0.5)) * hk.values, atol=1e-7)


@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_hermite_function_matches_hermval(grid, hbar):
    t = grid.axis() / math.sqrt(hbar)
    for k in range(9):
        norm = (math.pi * hbar) ** (-0.25) / math.sqrt(2.0 ** k * math.factorial(k))
        ref = norm * np.polynomial.hermite.hermval(t, np.eye(9)[k]) * np.exp(-t * t / 2.0)
        assert np.max(np.abs(hermite_function(k, grid, hbar).values - ref)) < 1e-14


# as floats, 2^k k! is inf from k = 151 and k! itself overflows from k = 171;
# at k = 800, e^{-x^2/2} underflows inside the oscillatory region |x| < 40
@pytest.mark.parametrize("k, X", [(160, 30.0), (180, 30.0), (800, 57.0)])
def test_hermite_function_normalized_at_high_order(k, X):
    h = hermite_function(k, Grid(n=1, N=2048, X=X), HBAR)
    assert abs(h.norm() - 1.0) < 1e-12


def test_quarter_rotation_is_fourier():
    # S_{pi/2} = J, whose operator is i^{-1/2} F_hbar = e^{-i pi/4} F_hbar.
    # On the self-dual box X = sqrt(pi hbar N / 2) the transform's dual
    # lattice coincides with the sampling lattice, so values compare directly.
    sd = Grid(n=1, N=512, X=math.sqrt(math.pi * HBAR * 512 / 2))
    f = hermite_function(1, sd, HBAR)
    w = rotation_generating(math.pi / 2)
    lhs = qfio_apply(w, 0, f)
    rhs = hbar_fourier(f)
    np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-8)


def test_factored_against_quadrature(grid, phi0):
    rng = np.random.default_rng(101)
    for _ in range(3):
        w = random_free_generating(1, rng, max_singular=1.4, min_det_l=0.5)
        a = qfio_apply(w, 0, phi0, method="factored")
        b = qfio_apply(w, 0, phi0, method="quadrature")
        err = np.max(np.abs(a.values - b.values)) / np.max(np.abs(b.values))
        assert err < 1e-12


def test_qfio_unitarity_random_words(grid):
    rng = np.random.default_rng(55)
    hs = [hermite_function(k, grid, HBAR) for k in range(5)]
    for _ in range(5):
        w = random_free_generating(1, rng, max_singular=1.4, min_det_l=0.5)
        for h in hs:
            assert abs(qfio_apply(w, 0, h).norm() - h.norm()) < 1e-6


def test_qfio_inverse_round_trip(grid, phi0):
    rng = np.random.default_rng(77)
    w = random_free_generating(1, rng, max_singular=1.4, min_det_l=0.5)
    m = maslov_branch(w.L, 0)
    word = MetaplecticWord([(w, m)])
    back = word.inverse().apply(word.apply(phi0))
    np.testing.assert_allclose(back.values, phi0.values, atol=1e-9)


def test_word_projection_multiplies_factors():
    rng = np.random.default_rng(31)
    w1 = random_free_generating(1, rng)
    w2 = random_free_generating(1, rng)
    word = MetaplecticWord([(w1, 0), (w2, 0)])
    s = free_from_generating(w1) @ free_from_generating(w2)
    np.testing.assert_allclose(word.projection().entries, s.entries,
                               atol=1e-10)


def test_word_application_order(grid, phi0):
    # leftmost factor acts last: [(w1, m1), (w2, m2)] f = S_{W1} (S_{W2} f)
    w1 = rotation_generating(math.pi / 3)
    w2 = rotation_generating(math.pi / 4)
    word = MetaplecticWord([(w1, 0), (w2, 0)])
    lhs = word.apply(phi0)
    rhs = qfio_apply(w1, 0, qfio_apply(w2, 0, phi0))
    np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-12)


def test_heisenberg_weyl_shift_and_norm(grid, phi0):
    dx = grid.dx
    dp = math.pi * HBAR / grid.X
    z0 = np.array([10 * dx, 8 * dp])
    out = heisenberg_weyl(phi0, z0)
    assert abs(out.norm() - phi0.norm()) < 1e-12
    x = grid.axis()
    expected = (np.exp(1j * (z0[1] * x - 0.5 * z0[1] * z0[0]) / HBAR)
                * np.roll(phi0.values, 10))
    np.testing.assert_allclose(out.values, expected, atol=1e-12)


def test_heisenberg_weyl_off_lattice_matches_closed_form(grid, phi0):
    # x0 = 1.2345 is a fraction of a cell, so the shift reads the
    # trigonometric interpolant through a spectral ramp (7e-16 relative here)
    z0 = np.array([1.2345, 0.7])
    out = heisenberg_weyl(phi0, z0)
    x = grid.axis()
    expected = (np.exp(1j * (z0[1] * x - 0.5 * z0[1] * z0[0]) / HBAR)
                * (math.pi * HBAR) ** -0.25 * np.exp(-(x - z0[0]) ** 2 / (2 * HBAR)))
    assert np.max(np.abs(out.values - expected)) / np.max(np.abs(expected)) < 1e-13


@pytest.mark.parametrize("cells", [7.3, -7.3, 5.6, -5.6],
                         ids=["+7+0.3", "-7-0.3", "+6-0.4", "-6+0.4"])
def test_heisenberg_weyl_mixed_shift_matches_closed_form(grid, phi0, cells):
    # whole cells plus a remainder of either sign: the ramp, then the index move
    z0 = np.array([cells * grid.dx, -0.4])
    out = heisenberg_weyl(phi0, z0)
    x = grid.axis()
    expected = (np.exp(1j * (z0[1] * x - 0.5 * z0[1] * z0[0]) / HBAR)
                * (math.pi * HBAR) ** -0.25 * np.exp(-(x - z0[0]) ** 2 / (2 * HBAR)))
    assert np.max(np.abs(out.values - expected)) / np.max(np.abs(expected)) < 1e-13


def test_weyl_cocycle_aligned(grid, phi0):
    dx = grid.dx
    dp = math.pi * HBAR / grid.X
    z0 = np.array([8 * dx, 6 * dp])
    z1 = np.array([-6 * dx, 10 * dp])
    lhs = heisenberg_weyl(heisenberg_weyl(phi0, z1), z0)
    phase = np.exp(1j * (z0[1] * z1[0] - z0[0] * z1[1]) / (2 * HBAR))
    rhs = heisenberg_weyl(phi0, z0 + z1)
    np.testing.assert_allclose(lhs.values, phase * rhs.values, atol=1e-9)


def test_fractional_rotation_additivity(grid, phi0):
    # composing two rotation operators reproduces the composed-angle
    # operator up to the i^k branch phase predicted by the Maslov cocycle
    f = hermite_function(1, grid, HBAR)
    for alpha, beta in ((math.pi / 4, math.pi / 3),
                        (math.pi / 2, 2 * math.pi / 3)):
        gamma = alpha + beta
        wa, wb, wg = (rotation_generating(t) for t in (alpha, beta, gamma))
        lhs = qfio_apply(wa, 0, qfio_apply(wb, 0, f))
        m_comp = maslov_compose(0, 0, wb.P + wa.Q)
        m_base = maslov_branch(wg.L, m_comp)
        rhs = qfio_apply(wg, m_base, f)
        assert m_base == m_comp
        np.testing.assert_allclose(lhs.values, rhs.values, atol=1e-6)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("axis", [0, 1])
def test_fourier_sum_axis_matches_dense_sum(sign, axis):
    # Bluestein chirp z against the dense O(N n_out) sum, on a target
    # lattice of another length and spacing than the source, hbar != 1
    rng = np.random.default_rng([sign + 1, axis])
    n_src, n_out, hbar = 512, 384, 0.7
    x0, dx = -12.0, 24.0 / n_src
    dp = 1.3 * dx
    p0 = -0.6 * n_out * dp
    shape = [6, 6]
    shape[axis] = n_src
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    out = _fourier_sum_axis(vals, axis, x0, dx, p0, dp, n_out, hbar, sign)
    xs = x0 + dx * np.arange(n_src)
    ps = p0 + dp * np.arange(n_out)
    kern = np.exp(sign * 1j * np.multiply.outer(ps, xs) / hbar)
    ref = np.moveaxis(np.tensordot(kern, vals, axes=([1], [axis])), 0, axis)
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_import_loads_no_scipy():
    # neither the import nor an off-lattice evaluation (shift, rescaling,
    # phase-space pull-back) loads SciPy
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = "\n".join([
        "import sys, numpy as np, metaplectic.cli",
        "from metaplectic import (Grid, compose_linear, cross_wigner, gaussian,",
        "                         heisenberg_weyl, phase_shift, scale_op)",
        "f = gaussian(Grid(1, 64, 8.0), 1.0)",
        "heisenberg_weyl(f, np.array([0.3, 0.2]))",
        "scale_op(f, np.array([[1.3]]), 0)",
        "scale_op(gaussian(Grid(2, 32, 6.0), 1.0), np.array([[1.2, 0.5], [-0.3, 0.9]]), 0)",
        "w = cross_wigner(f, f)",
        "phase_shift(w, np.array([0.3, -0.2]))",
        "compose_linear(w, np.array([[0.8, -0.6], [0.6, 0.8]]))",
        "print([m for m in sys.modules if m.startswith('scipy')])",
    ])
    proc = subprocess.run([sys.executable, "-c", script],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _is_11_smooth(m: int) -> bool:
    for p in (2, 3, 5, 7, 11):
        while m % p == 0:
            m //= p
    return m == 1


def test_next_fast_len_is_the_next_11_smooth_length():
    smooth = [m for m in range(1, 4097 + 4096) if _is_11_smooth(m)]
    for n in range(1, 4097):
        assert _next_fast_len(n) == next(m for m in smooth if m >= n)


def test_next_fast_len_matches_scipy():
    scipy_fft = pytest.importorskip("scipy.fft")
    for n in range(1, 4097):
        assert _next_fast_len(n) == scipy_fft.next_fast_len(n)


def test_support_radius_gaussian(grid, phi0):
    r = support_radius(phi0)
    assert 4.0 < r < 9.0  # exp(-r^2/2) crosses 1e-12 of peak near r = 7.4


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sampled_function_rejects_non_finite_samples(grid, phi0, bad):
    vals = phi0.values.copy()
    vals[7] = bad
    with pytest.raises(GridMismatchError, match="finite"):
        SampledFunction(grid, HBAR, vals)


def test_bochner_matches_factored_rotation(grid, phi0):
    w = rotation_generating(math.pi / 2)
    nu = conley_zehnder(w, 0)
    boch = bochner_apply(rotation(math.pi / 2), nu, phi0)
    fact = qfio_apply(w, 0, phi0)
    err = np.max(np.abs(boch.values - fact.values)) / np.max(np.abs(fact.values))
    assert err < 1e-12  # config.BOCHNER_TOL


@pytest.mark.parametrize("form", ["s1", "s2", "s3"])
def test_bochner_forms_agree(grid, form):
    f = hermite_function(1, grid, HBAR)
    w = rotation_generating(2 * math.pi / 3)
    nu = conley_zehnder(w, 0)
    s = rotation(2 * math.pi / 3)
    out = bochner_apply(s, nu, f, form=form)
    ref = qfio_apply(w, 0, f)
    err = np.max(np.abs(out.values - ref.values)) / np.max(np.abs(ref.values))
    assert err < 1e-12  # config.BOCHNER_TOL
    # the twisted row integrates the Cayley row's chirp on the same lattice
    base = bochner_apply(s, nu, f, form="s1")
    assert np.max(np.abs(out.values - base.values)) / np.max(np.abs(base.values)) < 1e-12


def test_bochner_generic_symplectic_with_composed_index(grid, phi0):
    # draw a non-free S, factor it, compose the Conley-Zehnder index from the
    # factors' Cayley transforms, and check the Bochner realization against
    # the factored word: this exercises the full index-composition chain
    rng = np.random.default_rng(4)
    tested = 0
    while tested < 2:
        s = random_symplectic(1, rng)
        sv = np.linalg.svd(s.entries, compute_uv=False)
        if sv[0] > 1.5 or abs(np.linalg.det(s.entries - np.eye(2))) < 0.3:
            continue
        tested += 1
        (w1, m1), (w2, m2) = factor_pair(s)
        nu = cz_compose(conley_zehnder(w1, m1), conley_zehnder(w2, m2),
                        cayley(free_from_generating(w1)),
                        cayley(free_from_generating(w2)))
        boch = bochner_apply(s, nu, phi0)
        word = MetaplecticWord([(w1, m1), (w2, m2)])
        ref = word.apply(phi0)
        err = np.max(np.abs(boch.values - ref.values)) / np.max(np.abs(ref.values))
        assert err < 1e-12  # config.BOCHNER_TOL


@pytest.mark.parametrize("alpha", [math.pi / 2, 2 * math.pi / 3], ids=["pi/2", "2pi/3"])
def test_bochner_matches_mehler_eigenphase(grid, alpha):
    # the rotation by alpha maps h_k to exp(-i (k + 1/2) alpha) h_k; the
    # C-infinity roll-off leaves the truncated integral no algebraic error
    s = rotation(alpha)
    nu = conley_zehnder(rotation_generating(alpha), 0)
    for k in range(3):
        hk = hermite_function(k, grid, HBAR)
        out = bochner_apply(s, nu, hk).values
        ref = np.exp(-1j * (k + 0.5) * alpha) * hk.values
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def _bochner_dense(s, nu, f, form):
    """bochner_apply with its coefficient built directly on the full x0 x p0
    mesh: one hypot for the roll-off and one exp for the whole phase, then
    the same p0 chirp-z pass and shift loop."""
    m_s, pref = _integral_form(s, nu, twisted=form != "s1")
    hbar, grid = f.hbar, f.grid
    dx = grid.dx
    r_f = support_radius(f)
    radius = min(config.R_FACTOR * r_f, grid.X + r_f)
    k_max = int(math.floor(radius / dx))
    x0 = np.arange(-k_max, k_max + 1) * dx
    slope = (abs(m_s[1, 1]) * radius + abs(m_s[0, 1]) * radius + grid.X + 0.5 * radius) / hbar
    dp0 = math.pi / (2.5 * max(slope, 1.0 / radius))
    j_max = int(math.ceil(radius / dp0))
    p0 = np.arange(-j_max, j_max + 1) * dp0
    xx, pp = np.meshgrid(x0, p0, indexing="ij")
    chi = _smooth_cutoff(np.hypot(xx, pp) / radius, config.CUTOFF_FRACTION)
    quad = 0.5 * (m_s[0, 0] * xx * xx + 2.0 * m_s[0, 1] * xx * pp + m_s[1, 1] * pp * pp)
    coeff = np.exp(1j * (quad - 0.5 * pp * xx) / hbar) * chi
    inner = _fourier_sum_axis(coeff, 1, x0=float(p0[0]), dx=dp0, p0=-(grid.N // 2) * dx,
                              dp=dx, n_out=grid.N, hbar=hbar, sign=1)
    out = np.zeros(grid.N, dtype=complex)
    for idx in range(x0.size):
        out += _integer_shift(f.values, (idx - k_max,)) * inner[idx]
    return out * pref / (2.0 * math.pi * hbar) * dx * dp0


@pytest.mark.parametrize("form", ["s1", "s2"])
def test_bochner_matches_dense_coefficient_lattice(grid, form):
    # a rotation's M has m01 = 0; only the random S exercise the sign of the
    # cross term (m01 - 1/2) x0 p0 against the row and column chirps
    mats = [rotation(math.pi / 2), rotation(2 * math.pi / 3)]
    rng = np.random.default_rng(19)
    while len(mats) < 7:
        s = random_symplectic(1, rng)
        if (np.linalg.svd(s.entries, compute_uv=False)[0] < 1.6
                and abs(np.linalg.det(s.entries - np.eye(2))) > 0.3):
            mats.append(s)
    assert any(abs(_integral_form(s, 0, twisted=False)[0][0, 1]) > 0.1 for s in mats)
    for k in (0, 1):
        f = hermite_function(k, grid, HBAR)
        for s in mats:
            w = generating_from_free(s)
            nu = conley_zehnder(w, 0 if np.linalg.det(w.L) > 0 else 1)
            out = bochner_apply(s, nu, f, form=form).values
            ref = _bochner_dense(s, nu, f, form)
            assert np.max(np.abs(out - ref)) < 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("k_lo, k_hi, j_max", [
    pytest.param(-k, k + 1, j, id=f"{k}-{j}")
    for k, j in [(0, 0), (0, 3), (1, 2), (4, 5), (13, 7), (40, 9)]
] + [pytest.param(57, 80, 6, id="offset-57-80-6")])
def test_cross_chirp_matches_direct_exp(k_lo, k_hi, j_max):
    # K = 1, 3, 9, 27 and 81 rows centred on 0: 3 and 27 cut the last block
    # short (2 x 2, 5 x 6), the squares fill their blocks exactly; the
    # offset range is one row chunk of a longer lattice (23 rows, 5 x 5)
    theta = -0.0371
    j = np.arange(-j_max, j_max + 1)
    col = 0.013 * j * j
    k = np.arange(k_lo, k_hi)[:, None]
    phase = theta * k * j + col
    table = _cross_chirp(theta, k_lo, k_hi, j_max, col)
    assert table.shape == phase.shape
    # rounding of a phase is eps |phase|, and the table multiplies two factors
    tol = 4 * np.finfo(float).eps * (1 + np.max(np.abs(phase)))
    np.testing.assert_allclose(table, np.exp(1j * phase), rtol=0, atol=tol)


def test_qfio_rejects_frame_mismatch(grid):
    other = Grid(n=1, N=256, X=12.0)
    f = gaussian(other, HBAR)
    w = rotation_generating(math.pi / 3)
    out = qfio_apply(w, 0, f)        # different N is fine on its own grid
    assert out.grid.N == 256
    g2 = Grid(n=2, N=64, X=8.0)
    f2 = gaussian(g2, HBAR)
    with pytest.raises(GridMismatchError):
        # rotation generating function is n = 1; dimensions must match
        qfio_apply(w, 0, f2)


def test_grid_equality_and_hash_agree():
    a, b = Grid(1, 8, 1e6), Grid(1, 8, 1e6 + 1e-7)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert Grid(1, 8, 1.0) != Grid(1, 8, 1.0 + 1e-9)
    assert Grid(1, 8, 1.0) != Grid(2, 8, 1.0)


@pytest.mark.parametrize("q", [8.0, 15.0, 30.0])
def test_qfio_warns_when_output_reaches_the_edge(phi0, q):
    # the chirp of W = (0, 1, q) spreads the Gaussian past X = 12: the
    # lattice operator keeps only norms 0.982, 0.861, 0.654 of it
    with pytest.warns(BandwidthExceededWarning, match="operator output"):
        qfio_apply(GeneratingFunction(0.0, 1.0, q), 0, phi0)


def _gaussian_image(p, l, q, m, x, hbar):
    """Closed form of S_{W,m} (pi hbar)^{-1/4} exp(-x^2 / 2 hbar) for
    W = (p, l, q) in one dimension: the Gaussian integral gives
    e^{-i pi/4} i^m sqrt|l| (pi hbar)^{-1/4} (1 - i q)^{-1/2}
    exp(i p x^2 / 2 hbar - l^2 x^2 / 2 hbar (1 - i q)), principal root."""
    return (np.exp(-0.25j * math.pi) * 1j ** m * math.sqrt(abs(l)) * (math.pi * hbar) ** -0.25
            / np.sqrt(1 - 1j * q)
            * np.exp(1j * p * x * x / (2 * hbar) - l * l * x * x / (2 * hbar * (1 - 1j * q))))


@pytest.mark.parametrize("hbar", [0.1, 0.05])
def test_qfio_zeroes_aliased_targets_at_small_hbar(hbar):
    # on N = 512, X = 12 the band of the chirp-z sum is |L x| < pi hbar / dx
    # = 6.7 (hbar = 0.1) or 3.35 (0.05), inside |L| X: unmasked, the sum
    # wraps and the output held periodic copies (norm 1.732 or 2.236).  The
    # N <= 64 quadrature shares the wrap, so the oracle is the closed form.
    grid = Grid(n=1, N=512, X=12.0)
    x = grid.axis()
    f = gaussian(grid, hbar)
    rng = np.random.default_rng(11)
    for _ in range(8):
        w = random_free_generating(1, rng)
        p, l, q = (float(a[0, 0]) for a in (w.P, w.L, w.Q))
        m = 0 if l > 0 else 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", BandwidthExceededWarning)
            out = qfio_apply(w, m, f)
        assert abs(out.norm() - 1.0) < 1e-12
        assert np.max(np.abs(out.values - _gaussian_image(p, l, q, m, x, hbar))) < 1e-11


def test_qfio_zeroes_aliased_targets_per_axis_in_two_dimensions():
    hbar = 0.1
    g2 = Grid(n=2, N=256, X=12.0)
    w = GeneratingFunction(np.diag([1.5, -0.7]), np.diag([1.3, 0.8]), np.diag([-0.5, 0.4]))
    out = qfio_apply(w, 0, gaussian(g2, hbar))
    x, y = g2.meshgrid()
    ref = _gaussian_image(1.5, 1.3, -0.5, 0, x, hbar) * _gaussian_image(-0.7, 0.8, 0.4, 0, y, hbar)
    assert abs(out.norm() - 1.0) < 1e-12
    assert np.max(np.abs(out.values - ref)) < 1e-11


def _gaussian_image_nd(w, m, p0, mesh, hbar):
    """Closed form of S_{W,m} f for f(x') = (pi hbar)^{-n/4}
    exp(-|x'|^2 / 2 hbar + i p0.x' / hbar): with A = 1 - iQ and y = L x - p0,
    c' exp(i x.P x / 2 hbar - y.A^{-1} y / 2 hbar), where
    c' = e^{-i pi n/4} i^m sqrt|det L| (pi hbar)^{-n/4} det(A)^{-1/2}, the
    root a product of principal roots of eigenvalues (Re > 0)."""
    n = w.n
    a = np.eye(n) - 1j * w.Q
    y = np.einsum("ik,k...->i...", w.L, np.array(mesh)) - np.reshape(p0, (n,) + (1,) * n)
    ainv = np.linalg.inv(a)
    quad = sum(ainv[i, k] * y[i] * y[k] for i in range(n) for k in range(n))
    chirp = sum(w.P[i, k] * mesh[i] * mesh[k] for i in range(n) for k in range(n))
    c = (np.exp(-0.25j * math.pi * n) * 1j ** m * math.sqrt(abs(np.linalg.det(w.L)))
         * (math.pi * hbar) ** (-n / 4) / np.prod(np.sqrt(np.linalg.eigvals(a))))
    return c * np.exp((1j * chirp - quad) / (2 * hbar))


@contextlib.contextmanager
def _no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.parametrize("hbar", [1.0, 0.5])
def test_quadrature_n2_full_l_matches_closed_form(hbar):
    # The sum over x'_i has frequency (L x - p0)_i / hbar, so it resolves
    # its integrand where |(L x - p0)_i| < pi hbar / dx, the band of the
    # factored route.  At hbar = 1 the band holds the whole grid; at
    # hbar = 0.5 it holds 42-79 % of it, and beyond it the sum wraps (copies
    # of 1e-8 to 5e-2 relative on these draws), where no closed form is the
    # oracle's target, and the oracle warns (out-of-band output 1e-8 to 5e-2
    # of its peak); at hbar = 1 it must not.  The momentum p0 makes the
    # input odd in part, so a sign error in L cannot hide behind x' -> -x'.
    grid = Grid(n=2, N=64, X=8.0)
    mesh = grid.meshgrid()
    p0 = np.array([0.6, -0.4])
    f = heisenberg_weyl(gaussian(grid, hbar), np.concatenate([np.zeros(2), p0]))
    band = math.pi * hbar / grid.dx
    rng = np.random.default_rng(16)
    for k in range(5):
        p, q = (0.5 * (a + a.T) for a in rng.uniform(-0.5, 0.5, size=(2, 2, 2)))
        l = np.eye(2) + rng.uniform(-0.3, 0.3, size=(2, 2))
        assert l[0, 1] != 0 and l[1, 0] != 0
        w = GeneratingFunction(p, l, q)
        # both branches of the parity of det L
        m = (0 if np.linalg.det(l) > 0 else 1) + 2 * (k % 2)
        with (pytest.warns(BandwidthExceededWarning, match="increase N or decrease X")
              if hbar < 1.0 else _no_warnings()):
            out = qfio_apply(w, m, f, method="quadrature").values
        ref = _gaussian_image_nd(w, m, p0, mesh, hbar)
        y = np.einsum("ik,k...->i...", l, np.array(mesh)) - p0[:, None, None]
        resolved = np.all(np.abs(y) < band, axis=0)
        assert np.max(np.abs(out - ref)[resolved]) < 1e-12 * np.max(np.abs(ref))


def _full_l_draws(hbar, grid):
    """The input and the five draws of the closed-form quadrature test."""
    p0 = np.array([0.6, -0.4])
    f = heisenberg_weyl(gaussian(grid, hbar), np.concatenate([np.zeros(2), p0]))
    rng = np.random.default_rng(16)
    for k in range(5):
        p, q = (0.5 * (a + a.T) for a in rng.uniform(-0.5, 0.5, size=(2, 2, 2)))
        l = np.eye(2) + rng.uniform(-0.3, 0.3, size=(2, 2))
        yield f, p0, GeneratingFunction(p, l, q), (0 if np.linalg.det(l) > 0 else 1) + 2 * (k % 2)


def _in_band(l, grid, hbar):
    """Targets x with every (L x)_i in the band [-pi hbar / dx, pi hbar / dx)."""
    band = math.pi * hbar / grid.dx
    y = np.einsum("ik,k...->i...", l, np.array(grid.meshgrid()))
    return np.all((y >= -band) & (y < band), axis=0)


def test_factored_n2_full_l_matches_closed_form():
    # the shear, per-axis chirp-z and shear route for a full L, on the five
    # draws and on each with its first row negated (det L < 0, odd branch),
    # measured 4.0e-14 to 6.9e-14; the band holds the whole of
    # Grid(2, 128, 12) at hbar = 1, so nothing may warn
    grid = Grid(n=2, N=128, X=12.0)
    for f, p0, w, m in _full_l_draws(1.0, grid):
        flip = GeneratingFunction(w.P, np.diag([-1.0, 1.0]) @ w.L, w.Q)
        for w, m in ((w, m), (flip, m + 1)):
            with _no_warnings():
                out = qfio_apply(w, m, f).values
            ref = _gaussian_image_nd(w, m, p0, grid.meshgrid(), 1.0)
            assert np.max(np.abs(out - ref)) < 1e-12 * np.max(np.abs(ref))


def test_factored_n2_every_pivot_matches_closed_form(monkeypatch):
    # one L per pivot placement, and one whose pivot swaps the input axes
    # with no input shear (c = 0)
    plans = []
    plan = operators._ldu_plan
    monkeypatch.setattr(operators, "_ldu_plan", lambda mat: plans.append(plan(mat)) or plans[-1])
    grid = Grid(n=2, N=128, X=12.0)
    p0 = np.array([0.6, -0.4])
    f = heisenberg_weyl(gaussian(grid, HBAR), np.concatenate([np.zeros(2), p0]))
    pq = np.array([[0.3, -0.1], [-0.1, 0.2]])
    for l in ([[1.2, 0.3], [-0.2, 0.9]], [[0.3, 1.2], [0.9, -0.2]], [[-0.2, 0.9], [1.2, 0.3]],
              [[0.9, -0.2], [0.3, 1.2]], [[0.0, 1.0], [2.0, 0.5]]):
        w = GeneratingFunction(pq, np.array(l), -pq)
        m = 0 if np.linalg.det(w.L) > 0 else 1
        with _no_warnings():
            out = qfio_apply(w, m, f).values
        ref = _gaussian_image_nd(w, m, p0, grid.meshgrid(), HBAR)
        assert np.max(np.abs(out - ref)) < 1e-12 * np.max(np.abs(ref)), l
    assert [swaps for swaps, *_ in plans] == [
        (False, False), (False, True), (True, False), (True, True), (True, False)]
    assert plans[-1][3] == 0.0


def test_factored_n2_full_l_matches_quadrature_in_band():
    # on Grid(2, 64, 10) at hbar = 1 the band holds 69-100 % of the grid:
    # there the two routes sum the same integrand; beyond it the quadrature
    # wraps and the factored route zeroes (measured 1.7e-14 to 4.1e-14)
    grid = Grid(n=2, N=64, X=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BandwidthExceededWarning)
        for f, _, w, m in _full_l_draws(1.0, grid):
            out = qfio_apply(w, m, f).values
            ref = qfio_apply(w, m, f, method="quadrature").values
            inside = _in_band(w.L, grid, 1.0)
            assert np.max(np.abs(out - ref)[inside]) < 1e-12 * np.max(np.abs(ref))


def test_factored_n2_full_l_warns_and_never_wraps():
    grid = Grid(n=2, N=64, X=8.0)
    for f, _, w, m in _full_l_draws(0.5, grid):
        with pytest.warns(BandwidthExceededWarning, match="alias limit"):
            out = qfio_apply(w, m, f).values
        inside = _in_band(w.L, grid, 0.5)
        assert not inside.all() and np.all(out[~inside] == 0.0)


def test_factored_n2_shears_drop_no_sample():
    # L = [[1, 1], [-1, 1]] takes both shears at slope 1: the sheared input
    # and the output's reads reach |slope| X beyond the grid, where the
    # Gaussian is still 1e-7; unpadded, the error was 1.6e-8 (measured 2.7e-15)
    grid = Grid(n=2, N=128, X=8.0)
    w = GeneratingFunction(np.zeros((2, 2)), np.array([[1.0, 1.0], [-1.0, 1.0]]),
                           np.zeros((2, 2)))
    with _no_warnings():
        out = qfio_apply(w, 0, gaussian(grid, HBAR)).values
    ref = _gaussian_image_nd(w, 0, np.zeros(2), grid.meshgrid(), HBAR)
    assert np.max(np.abs(out - ref)) < 1e-12 * np.max(np.abs(ref))


def test_factored_n2_warns_at_the_intermediate_band():
    # L = [[1, 0], [1, 1]] takes the lower shear c = 1, and the chirp-z sums
    # run at D U x = x: their band |x_1| < pi hbar / dx cuts through targets
    # whose L x is in band, where the Gaussian's image reaches 6.7e-10 of its
    # peak.  Those targets are zeroed, with a warning, and the rest match the
    # closed form (1.7e-15)
    grid, hbar = Grid(n=2, N=64, X=8.0), 0.5
    w = GeneratingFunction(np.zeros((2, 2)), np.array([[1.0, 0.0], [1.0, 1.0]]),
                           np.zeros((2, 2)))
    with pytest.warns(BandwidthExceededWarning, match="increase N or decrease X"):
        out = qfio_apply(w, 0, gaussian(grid, hbar)).values
    ref = _gaussian_image_nd(w, 0, np.zeros(2), grid.meshgrid(), hbar)
    x1, band = grid.meshgrid()[1], math.pi * hbar / grid.dx
    kept = _in_band(w.L, grid, hbar) & (x1 >= -band) & (x1 < band)
    assert np.max(np.abs(ref[~kept])) > 1e-10 * np.max(np.abs(ref))
    assert np.all(out[~kept] == 0.0)
    assert np.max(np.abs(out - ref)[kept]) < 1e-12 * np.max(np.abs(ref))


def _gaussian_word_nd(factors, mesh, hbar):
    """Closed form of a word applied to (pi hbar)^{-n/4} exp(-|x|^2 / 2 hbar):
    a Gaussian c exp(i x.G x / 2 hbar) goes under (W, m) to G' = P - L^T B^{-1} L,
    c' = c e^{-i pi n/4} i^m sqrt|det L| / det(-i B)^{1/2} with B = Q + G,
    the root a product of principal roots of eigenvalues (Re > 0)."""
    n = len(mesh)
    gam, c = 1j * np.eye(n), (math.pi * hbar) ** (-n / 4)
    for w, m in reversed(factors):
        b = w.Q + gam
        c *= (np.exp(-0.25j * math.pi * n) * 1j ** m * math.sqrt(abs(np.linalg.det(w.L)))
              / np.prod(np.sqrt(np.linalg.eigvals(-1j * b))))
        gam = w.P - w.L.T @ np.linalg.solve(b, w.L)
    return c * np.exp(1j * sum(gam[i, k] * mesh[i] * mesh[k]
                               for i in range(n) for k in range(n)) / (2 * hbar))


def test_factor_pair_words_n2_match_closed_form():
    # factor_pair's left factor has a full L; the diagonal-only factored
    # route raised GridMismatchError on every one of these words (measured
    # 6.7e-14 to 1.0e-13)
    grid = Grid(n=2, N=256, X=12.0)
    phi0 = gaussian(grid, HBAR)
    rng = np.random.default_rng(3)
    words = 0
    while words < 4:
        s = random_symplectic(2, rng)
        if np.linalg.svd(s.entries, compute_uv=False)[0] > 2.0:
            continue
        factors = factor_pair(s)
        assert any(w.L[0, 1] != 0 for w, _ in factors)
        out = MetaplecticWord(factors).apply(phi0).values
        ref = _gaussian_word_nd(factors, grid.meshgrid(), HBAR)
        assert np.max(np.abs(out - ref)) < 1e-12 * np.max(np.abs(ref))
        words += 1


def _per_axis_factored(w, m, f):
    """The diagonal-L factored route as it was before the shear factorization:
    chirp Q, one chirp-z sum per axis at diag(L) with its band mask, chirp P."""
    n = f.grid.n
    vals = chirp_multiply(f, w.Q).values
    x = f.grid.axis()
    band = math.pi * f.hbar / f.grid.dx
    keeps = [(l * x >= -band) & (l * x < band) for l in np.diag(w.L)]
    for ax, l_ax in enumerate(np.diag(w.L)):
        vals = _fourier_sum_axis(vals, ax, x0=x[0], dx=f.grid.dx, p0=l_ax * x[0],
                                 dp=l_ax * f.grid.dx, n_out=f.grid.N, hbar=f.hbar, sign=-1)
        vals = vals * keeps[ax].reshape((-1,) + (1,) * (n - 1 - ax))
    pref = (f.grid.cell_volume() * (2.0 * math.pi * f.hbar) ** (-n / 2.0)
            * np.exp(-1j * math.pi * n / 4.0) * (1j ** m) * math.sqrt(abs(np.linalg.det(w.L))))
    return chirp_multiply(f.with_values(pref * vals), w.P).values


@pytest.mark.parametrize("hbar", [1.0, 0.1])
def test_factored_diagonal_l_is_bit_identical_to_per_axis_route(hbar):
    # a diagonal L takes no shear and no swap: the outputs are the per-axis
    # route's, bit for bit, in n = 1 and n = 2 (at hbar = 0.1 the band
    # masks zero targets too)
    rng = np.random.default_rng(7)
    for n, size in ((1, 512), (2, 256)):
        grid = Grid(n=n, N=size, X=12.0)
        fs = [gaussian(grid, hbar), heisenberg_weyl(gaussian(grid, hbar), np.full(2 * n, 0.7))]
        for _ in range(2):
            p, q = (np.diag(rng.uniform(-1.0, 1.0, size=n)) for _ in range(2))
            l = np.diag(rng.choice([-1, 1], size=n) * rng.uniform(0.6, 1.4, size=n))
            w = GeneratingFunction(p, l, q)
            m = 0 if np.linalg.det(l) > 0 else 1
            for f in fs:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", BandwidthExceededWarning)
                    assert np.array_equal(qfio_apply(w, m, f).values, _per_axis_factored(w, m, f))


def test_quadrature_rejects_more_than_4096_points():
    f = gaussian(Grid(n=2, N=128, X=8.0), HBAR)
    with pytest.raises(GridMismatchError, match="4096"):
        qfio_apply(GeneratingFunction(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2))), 0, f,
                   method="quadrature")


def test_qfio_warns_when_output_reaches_the_alias_limit():
    # the quarter turn carries momentum 4.8 to position 4.8; at hbar = 0.1
    # the Gaussian's tail then reaches the alias limit pi hbar / dx = 6.7
    grid = Grid(n=1, N=512, X=12.0)
    f = heisenberg_weyl(gaussian(grid, 0.1), np.array([0.0, 4.8]))
    with pytest.warns(BandwidthExceededWarning, match="increase N or decrease X"):
        qfio_apply(rotation_generating(math.pi / 2), 0, f)


def test_sampled_function_warns_at_grid_edge():
    with pytest.warns(BandwidthExceededWarning, match="grid edge"):
        gaussian(Grid(n=1, N=64, X=2.0), HBAR)


def test_hbar_fourier_warns_at_dual_grid_edge():
    # X = 40 with N = 64 puts the dual edge at pi hbar N / 2X = 2.5
    with pytest.warns(BandwidthExceededWarning, match="dual-grid edge"):
        hbar_fourier(gaussian(Grid(n=1, N=64, X=40.0), HBAR))


@pytest.mark.parametrize("x0", [11.0, -240 * 24.0 / 512], ids=["off-lattice", "on-lattice"])
def test_heisenberg_weyl_warns_when_shift_reaches_the_edge(phi0, x0):
    # on N = 512, X = 12 the shift x0 = 11 keeps only norm 0.957 of the Gaussian
    with pytest.warns(BandwidthExceededWarning, match="shifted function"):
        heisenberg_weyl(phi0, np.array([x0, 1.0]))


def test_admissible_operations_do_not_warn(grid, phi0):
    with warnings.catch_warnings():
        warnings.simplefilter("error", BandwidthExceededWarning)
        gaussian(grid, HBAR)
        hbar_fourier(phi0)
        qfio_apply(rotation_generating(1.0), 0, phi0)
        qfio_apply(GeneratingFunction(0.0, 1.0, 1.0), 0, phi0)
        heisenberg_weyl(phi0, np.array([2.0, 1.0]))
