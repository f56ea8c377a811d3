"""Acceptance gate: the eleven go/no-go checks, one test (and one pass/fail
line under ``pytest -v``) per criterion, each at its stated tolerance and
time budget.
"""

import json
import math
import time

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval

from metaplectic import (
    bochner_apply,
    cayley,
    cayley_inverse,
    conley_zehnder,
    cross_wigner,
    cz_compose,
    factor_pair,
    free_from_generating,
    gaussian,
    Grid,
    heisenberg_weyl,
    hermite_function,
    invariance_check,
    maslov_branch,
    maslov_compose,
    metaplectic_asymptotic,
    metaplectic_phase_apply,
    MetaplecticWord,
    moyal_inner,
    phase_shift,
    qfio_apply,
    random_free_generating,
    random_symplectic,
    rotation,
    rotation_generating,
    RunConfig,
    s0_norm,
    s0_via_phase_metaplectic,
    standard_j,
    wigner_basis,
)
from metaplectic.cli import main
from metaplectic.verify import report_text, run_suite

HBAR = 1.0
GRID = Grid(n=1, N=512, X=12.0)
PHI0 = gaussian(GRID, HBAR)

ANGLES = (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3)


def _rel_l2(a, b):
    return float(np.linalg.norm(np.ravel(a) - np.ravel(b))
                 / np.linalg.norm(np.ravel(b)))


def _nu_from_factors(s):
    (w1, m1), (w2, m2) = factor_pair(s)
    return cz_compose(conley_zehnder(w1, m1), conley_zehnder(w2, m2),
                      cayley(free_from_generating(w1)),
                      cayley(free_from_generating(w2)))


def test_criterion_01_rotation_example():
    # Cayley transform of the alpha-rotation is (1/2) cot(alpha/2) I and
    # det(S_alpha - I) = 4 sin^2(alpha/2), both to 1e-12
    worst_m = worst_d = 0.0
    for alpha in ANGLES:
        s = rotation(alpha)
        worst_m = max(worst_m, float(np.max(np.abs(
            cayley(s) - 0.5 / math.tan(alpha / 2.0) * np.eye(2)))))
        worst_d = max(worst_d, abs(
            float(np.linalg.det(s.entries - np.eye(2)))
            - 4.0 * math.sin(alpha / 2.0) ** 2))
    assert worst_m <= 1e-12
    assert worst_d <= 1e-12


def test_criterion_02_cayley_identities():
    # symmetry, M_{S^{-1}} = -M_S, round trip, two-display equivalence:
    # 100 seeded random S with |det(S - I)| > 1e-3, each residual <= 1e-9
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    j = standard_j(1)
    worst = 0.0
    tested = 0
    while tested < 100:
        s = random_symplectic(1, rng)
        si = s.entries - np.eye(2)
        if abs(np.linalg.det(si)) <= 1e-3:
            continue
        tested += 1
        m = cayley(s)
        worst = max(worst, float(np.max(np.abs(m - m.T))))
        worst = max(worst, float(np.max(np.abs(cayley(s.inv()) + m))))
        worst = max(worst, float(np.max(np.abs(
            cayley_inverse(m).entries - s.entries))))
        alt = 0.5 * j @ (s.entries + np.eye(2)) @ np.linalg.inv(si)
        worst = max(worst, float(np.max(np.abs(m - alt))))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_03_qfio_unitarity():
    # ||S_{W,m} f|| = ||f|| to 1e-6 for Hermites 0..4 under 20 random free W
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    hs = [hermite_function(k, GRID, HBAR) for k in range(5)]
    worst = 0.0
    for _ in range(20):
        w = random_free_generating(1, rng, max_singular=1.4, min_det_l=0.5)
        m = maslov_branch(w.L, 0)
        for h in hs:
            worst = max(worst, abs(qfio_apply(w, m, h).norm() - h.norm()))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_04_oracle_equivalence():
    # factored vs. direct quadrature (1e-5) vs. Bochner quadrature (1e-3)
    # on Gaussian input, 5 free W including the quarter rotation
    t0 = time.monotonic()
    rng = np.random.default_rng(4)
    ws = [rotation_generating(math.pi / 2)]
    while len(ws) < 5:
        w = random_free_generating(1, rng, max_singular=1.4, min_det_l=0.5)
        if abs(np.linalg.det(
                free_from_generating(w).entries - np.eye(2))) < 0.3:
            continue
        ws.append(w)
    worst_quad = worst_boch = 0.0
    for w in ws:
        m = maslov_branch(w.L, 0)
        fact = qfio_apply(w, m, PHI0, method="factored")
        quad = qfio_apply(w, m, PHI0, method="quadrature")
        worst_quad = max(worst_quad, _rel_l2(quad.values, fact.values))
        nu = conley_zehnder(w, m)
        boch = bochner_apply(free_from_generating(w), nu, PHI0)
        worst_boch = max(worst_boch, _rel_l2(boch.values, fact.values))
    elapsed = time.monotonic() - t0
    assert worst_quad <= 1e-5
    assert worst_boch <= 1e-3
    assert elapsed < 60.0


def test_criterion_05_fractional_additivity_index_cocycle():
    # S_alpha S_beta = i^k S_{alpha+beta}: the measured k is an integer
    # (phase residual <= 1e-4 rad) and matches both index-composition routes
    t0 = time.monotonic()
    pairs = ((math.pi / 6, math.pi / 4), (math.pi / 4, math.pi / 3),
             (math.pi / 3, math.pi / 2), (math.pi / 2, 2 * math.pi / 3),
             (2 * math.pi / 3, 3 * math.pi / 4))
    f = (hermite_function(0, GRID, HBAR).values
         + hermite_function(1, GRID, HBAR).values
         + hermite_function(2, GRID, HBAR).values) / math.sqrt(3.0)
    f = PHI0.with_values(f)
    for alpha, beta in pairs:
        gamma = alpha + beta
        wa, wb, wg = (rotation_generating(t) for t in (alpha, beta, gamma))
        lhs = qfio_apply(wa, 0, qfio_apply(wb, 0, f))
        m_ref = maslov_branch(wg.L, 0 if np.linalg.det(wg.L) > 0 else 1)
        ref = qfio_apply(wg, m_ref, f)
        ratio = complex(lhs.inner(ref) / ref.inner(ref))
        assert abs(abs(ratio) - 1.0) <= 1e-6
        phase = math.atan2(ratio.imag, ratio.real)
        k_meas = round(phase / (math.pi / 2)) % 4
        residual = abs(phase - round(phase / (math.pi / 2)) * (math.pi / 2))
        assert residual <= 1e-4

        m_comp = maslov_compose(0, 0, wb.P + wa.Q)
        assert k_meas == (m_comp - m_ref) % 4

        nu_comp = cz_compose(conley_zehnder(wa, 0), conley_zehnder(wb, 0),
                             cayley(rotation(alpha)), cayley(rotation(beta)))
        assert nu_comp == conley_zehnder(wg, maslov_branch(wg.L, m_comp))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0


def test_criterion_06_moyal_wigner():
    # Gram matrix of (2 pi hbar)^{1/2} W(h_j, h_k), j,k <= 3, equals the
    # identity entrywise to 1e-6; position and momentum marginals to 1e-6
    t0 = time.monotonic()
    basis = wigner_basis(3, 3, HBAR, GRID)
    gram = np.array([[moyal_inner(a, b) for b in basis] for a in basis])
    assert float(np.max(np.abs(gram - np.eye(16)))) <= 1e-6

    worst = 0.0
    for k in (0, 2, 3):
        h = hermite_function(k, GRID, HBAR)
        w = cross_wigner(h, h)
        marg_x = np.sum(w.values.real, axis=1) * w.grid.dp
        worst = max(worst, float(np.max(np.abs(marg_x - np.abs(h.values) ** 2))))
        # Hermites are Fourier eigenvectors: the momentum marginal is the
        # same profile evaluated on the p lattice
        p = w.grid.p_axis()
        norm = ((math.pi * HBAR) ** -0.25
                / math.sqrt(2.0 ** k * math.factorial(k)))
        hp = norm * hermval(p / math.sqrt(HBAR), [0] * k + [1]) * np.exp(
            -p * p / (2 * HBAR))
        marg_p = np.sum(w.values.real, axis=0) * w.grid.dx
        worst = max(worst, float(np.max(np.abs(marg_p - hp ** 2))))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_criterion_07_intertwining():
    # W(T(z0) f, g) = Ttilde(z0) W(f, g) to 1e-6 for grid-aligned z0, and
    # Stilde W(f, g) = W(S f, g) to 1e-4 relative L2 for the quarter rotation
    t0 = time.monotonic()
    h1 = hermite_function(1, GRID, HBAR)
    dx = GRID.dx
    dp = math.pi * HBAR / GRID.X
    worst = 0.0
    for z0 in (np.array([8 * dx, 12 * dp]), np.array([-10 * dx, 6 * dp])):
        lhs = cross_wigner(heisenberg_weyl(PHI0, z0), h1)
        rhs = phase_shift(cross_wigner(PHI0, h1), z0)
        worst = max(worst, float(np.max(np.abs(lhs.values - rhs.values))))
    assert worst <= 1e-6

    w_rot = rotation_generating(math.pi / 2)
    nu = conley_zehnder(w_rot, 0)
    F = cross_wigner(PHI0, h1)
    lhs = metaplectic_phase_apply(rotation(math.pi / 2), nu, F)
    rhs = cross_wigner(qfio_apply(w_rot, 0, PHI0), h1)
    assert _rel_l2(lhs.values, rhs.values) <= 1e-4
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0


def test_criterion_08_phase_space_unitarity_and_forms():
    # ||Stilde F|| = ||F|| to 1e-4 for F in {W(phi0,phi0), W(phi0,phi1)} and
    # three S; the (s1)/(alfa1)/(alfa2) forms agree pairwise to 1e-5
    t0 = time.monotonic()
    h1 = hermite_function(1, GRID, HBAR)
    fs = [cross_wigner(PHI0, PHI0), cross_wigner(PHI0, h1)]
    rng = np.random.default_rng(8)
    ss = []
    while len(ss) < 3:
        s = random_symplectic(1, rng)
        sv = np.linalg.svd(s.entries, compute_uv=False)
        if sv[0] > 1.6 or abs(np.linalg.det(s.entries - np.eye(2))) < 0.3:
            continue
        if np.max(np.abs(cayley(s))) > 3.0:
            continue
        ss.append(s)
    worst_unit = 0.0
    worst_forms = 0.0
    for s in ss:
        nu = _nu_from_factors(s)
        for F in fs:
            out = metaplectic_phase_apply(s, nu, F, form="s1")
            worst_unit = max(worst_unit, abs(out.norm() - F.norm()) / F.norm())
        F = fs[1]
        outs = {form: metaplectic_phase_apply(s, nu, F, form=form)
                for form in ("s1", "alfa1", "alfa2")}
        for a in ("s1", "alfa1"):
            for b in ("alfa1", "alfa2"):
                if a == b:
                    continue
                worst_forms = max(worst_forms, _rel_l2(
                    outs[a].values, outs[b].values))
    elapsed = time.monotonic() - t0
    assert worst_unit <= 1e-4
    assert worst_forms <= 1e-5
    assert elapsed < 60.0


def test_criterion_09_feichtinger():
    # ||W phi0||_L1 = 1 to 1e-4; shift and rotation invariance of the
    # auto-Wigner L1 norm; phase-space vs. configuration-space route to 1e-3
    t0 = time.monotonic()
    rep = s0_norm(PHI0, PHI0, window_id="gaussian")
    assert abs(rep.norm_value - 1.0) <= 1e-4

    h1 = hermite_function(1, GRID, HBAR)
    dx = GRID.dx
    dp = math.pi * HBAR / GRID.X
    z0 = np.array([16 * dx, 12 * dp])
    before, after = invariance_check(h1, lambda f: heisenberg_weyl(f, z0))
    assert abs(after - before) / before <= 1e-3
    w_rot = rotation_generating(math.pi / 3)
    before, after = invariance_check(h1, lambda f: qfio_apply(w_rot, 0, f))
    assert abs(after - before) / before <= 1e-3

    nu = conley_zehnder(w_rot, 0)
    lhs, rhs = s0_via_phase_metaplectic(PHI0, h1, rotation(math.pi / 3), nu)
    assert abs(lhs - rhs) / rhs <= 1e-3
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0


def test_criterion_10_asymptotics():
    # det M_S = 2^{-2n} det(S+I)/det(S-I) on 100 random S to 1e-9 (the 2n
    # power is the recorded outcome of the power check, not the printed n),
    # and the stationary-phase error halves per hbar halving (ratio within
    # [0.3, 0.7] over 4 points from hbar = 0.1, rotation case)
    t0 = time.monotonic()
    rng = np.random.default_rng(10)
    worst = 0.0
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
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert worst <= 1e-9

    alpha = 2 * math.pi / 3
    s_rot = rotation(alpha)
    nu = conley_zehnder(rotation_generating(alpha), 0)
    bump = lambda z: np.exp(-np.sum(np.asarray(z) ** 2, axis=-1))
    z_eval = np.array([0.7, -0.4])
    errors = [metaplectic_asymptotic(
        s_rot, nu, bump, z_eval, hbar=0.1 / 2 ** i,
        support_radius=5.0).relative_error for i in range(4)]
    for prev, curr in zip(errors, errors[1:]):
        assert 0.3 <= curr / prev <= 0.7
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0


def test_criterion_11_determinism(tmp_path):
    # `verify --suite all --seed 42` twice: byte-identical reports, both
    # through the library API and through the command-line entry point
    cfg = RunConfig(seed=42)
    assert report_text(run_suite("all", cfg)) == report_text(
        run_suite("all", cfg))

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--suite", "all", "--seed", "42",
                 "--output", str(a)]) == 0
    assert main(["verify", "--suite", "all", "--seed", "42",
                 "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["all_passed"] is True
