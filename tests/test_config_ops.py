"""Configuration-space operators: chirps, scaled Fourier, QFIOs, words,
Heisenberg-Weyl shifts, and the phase-space (Bochner) realization."""

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
from metaplectic.grids import _next_fast_len
from metaplectic.operators import _fourier_sum_axis

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
    # sqrt|det L| (pi hbar)^{-1/2} exp(-|L x|^2 / 2 hbar); cubic interpolation
    # at N = 128, X = 8 reproduces it to 3.0e-6 relative
    g2 = Grid(n=2, N=128, X=8.0)
    l = np.array([[1.2, 0.5], [-0.3, 0.9]])
    out = scale_op(gaussian(g2, HBAR), l, 0)
    x, y = g2.meshgrid()
    r2 = (l[0, 0] * x + l[0, 1] * y) ** 2 + (l[1, 0] * x + l[1, 1] * y) ** 2
    ref = math.sqrt(np.linalg.det(l) / (math.pi * HBAR)) * np.exp(-r2 / (2 * HBAR))
    assert np.max(np.abs(out.values - ref)) / np.max(ref) < 1e-5


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
        assert err < 1e-5


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
    # SciPy is imported only on first use of the cubic pull-back
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, metaplectic.cli; print([m for m in sys.modules if m.startswith('scipy')])"],
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
    assert err < 1e-3


@pytest.mark.parametrize("form", ["s1", "s2", "s3"])
def test_bochner_forms_agree(grid, form):
    f = hermite_function(1, grid, HBAR)
    w = rotation_generating(2 * math.pi / 3)
    nu = conley_zehnder(w, 0)
    s = rotation(2 * math.pi / 3)
    out = bochner_apply(s, nu, f, form=form)
    ref = qfio_apply(w, 0, f)
    err = np.max(np.abs(out.values - ref.values)) / np.max(np.abs(ref.values))
    assert err < 1e-3


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
        assert err < 1e-3


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
