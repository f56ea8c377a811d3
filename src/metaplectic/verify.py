"""Invariant suites behind the ``verify`` subcommand.

Each check measures one mathematical identity on concrete grids and reports
the measured error against its tolerance.  Suites are deterministic: every
randomized check draws from a generator seeded by the run seed and a fixed
per-suite offset, so a fixed config yields a byte-identical report.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import config
from .asymptotics import (metaplectic_asymptotic, phase_critical_point,
                          phase_critical_value, QuadraticPhase)
from .config import RunConfig
from .feichtinger import s0_norm, invariance_check, s0_via_phase_metaplectic
from .grids import Grid, gaussian, hermite_function
from .indices import (conley_zehnder, cz_compose, cz_sign_check,
                      maslov_branch, maslov_compose)
from .operators import (bochner_apply, factor_pair, heisenberg_weyl,
                        hbar_fourier, MetaplecticWord, qfio_apply)
from .phase_space import (cross_wigner, metaplectic_phase_apply, moyal_inner,
                          phase_shift, wigner_basis)
from .symplectic import (cayley, cayley_inverse, free_from_generating,
                         generating_from_free, random_free_generating,
                         random_symplectic, rotation, rotation_generating,
                         standard_j, SymplecticMatrix)

SUITES = ("core", "indices", "operators", "phase", "feichtinger",
          "asymptotics", "all")

_SUITE_OFFSET = {"core": 1, "indices": 2, "operators": 3, "phase": 4,
                 "feichtinger": 5, "asymptotics": 6}

__all__ = ["SUITES", "run_suite", "report_text"]


def _check(name: str, measured: float, tolerance: float) -> dict:
    measured = float(measured)
    return {"name": name, "measured": measured, "tolerance": float(tolerance),
            "passed": bool(measured <= tolerance)}


def _gated_symplectic(rng: np.random.Generator, n: int = 1) -> SymplecticMatrix:
    while True:
        s = random_symplectic(n, rng)
        if abs(np.linalg.det(s.entries - np.eye(2 * n))) > 1e-3:
            return s


def _bump(zz) -> np.ndarray:
    """exp(-|z|^2) on (..., 2n) stacked phase-space points: the amplitude
    of the small-hbar checks, here and in the ``asymptotic`` command."""
    zz = np.asarray(zz, dtype=float)
    return np.exp(-np.sum(zz * zz, axis=-1))


def _rel(a, b) -> float:
    na = np.linalg.norm(np.asarray(a) - np.asarray(b))
    nb = np.linalg.norm(np.asarray(b))
    return float(na / nb) if nb > 0 else float(na)


# ----------------------------------------------------------------------
# suite: core

def suite_core(cfg: RunConfig, rng: np.random.Generator) -> list:
    checks = []

    err_m = 0.0
    err_d = 0.0
    for alpha in (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3):
        s = rotation(alpha)
        m = cayley(s)
        err_m = max(err_m, float(np.max(np.abs(
            m - 0.5 / math.tan(alpha / 2.0) * np.eye(2)))))
        err_d = max(err_d, abs(float(np.linalg.det(s.entries - np.eye(2)))
                               - 4.0 * math.sin(alpha / 2.0) ** 2))
    checks.append(_check("core.rotation_cayley_diagonal", err_m, 1e-12))
    checks.append(_check("core.rotation_det_s_minus_i", err_d, 1e-12))

    sym = inv_neg = round_trip = displays = 0.0
    j = standard_j(1)
    for _ in range(40):
        s = _gated_symplectic(rng)
        m = cayley(s)
        sym = max(sym, float(np.max(np.abs(m - m.T))))
        inv_neg = max(inv_neg, float(np.max(np.abs(cayley(s.inv()) + m))))
        round_trip = max(round_trip, float(np.max(np.abs(
            cayley_inverse(m).entries - s.entries))))
        alt = 0.5 * j @ (s.entries + np.eye(2)) @ np.linalg.inv(
            s.entries - np.eye(2))
        displays = max(displays, float(np.max(np.abs(m - alt))))
    checks.append(_check("core.cayley_symmetry", sym, 1e-9))
    checks.append(_check("core.cayley_inverse_negation", inv_neg, 1e-9))
    checks.append(_check("core.cayley_round_trip", round_trip, 1e-9))
    checks.append(_check("core.cayley_two_displays", displays, 1e-9))

    w_err = 0.0
    for _ in range(20):
        w = random_free_generating(1, rng)
        w2 = generating_from_free(free_from_generating(w))
        w_err = max(w_err, float(max(np.max(np.abs(w.P - w2.P)),
                                     np.max(np.abs(w.L - w2.L)),
                                     np.max(np.abs(w.Q - w2.Q)))))
    checks.append(_check("core.generating_round_trip", w_err, 1e-9))

    prod_err = 0.0
    for n in (1, 2):
        for _ in range(10):
            s = random_symplectic(n, rng) @ random_symplectic(n, rng)
            jn = standard_j(n)
            prod_err = max(prod_err, float(np.max(np.abs(
                s.entries.T @ jn @ s.entries - jn))))
    checks.append(_check("core.symplectic_products", prod_err, config.TOL_SYMP))
    return checks


# ----------------------------------------------------------------------
# suite: indices

def suite_indices(cfg: RunConfig, rng: np.random.Generator) -> list:
    checks = []

    parity_bad = 0
    for _ in range(30):
        w = random_free_generating(1, rng)
        m = maslov_branch(w.L, int(rng.integers(0, 4)) * 2 % 4)
        det_l = float(np.linalg.det(w.L))
        if (m % 2 == 0) != (det_l > 0):
            parity_bad += 1
    checks.append(_check("indices.maslov_parity_det_l", float(parity_bad), 0.0))

    sign_bad = 0
    cz_inv_bad = 0
    n_tested = 0
    for _ in range(30):
        w = random_free_generating(1, rng)
        if abs(float(np.linalg.det(
                free_from_generating(w).entries - np.eye(2)))) < 1e-3:
            continue
        n_tested += 1
        m = maslov_branch(w.L, 0)
        if not cz_sign_check(w, m):
            sign_bad += 1
        nu = conley_zehnder(w, m)
        w_inv = w.inverse()
        m_inv = (w.n - m) % 4
        if conley_zehnder(w_inv, m_inv) != (-nu) % 4:
            cz_inv_bad += 1
    checks.append(_check("indices.cz_det_sign", float(sign_bad), 0.0))
    checks.append(_check("indices.cz_inverse_negation", float(cz_inv_bad), 0.0))

    comp_bad = 0
    pairs = ((math.pi / 6, math.pi / 4), (math.pi / 4, math.pi / 3),
             (math.pi / 3, math.pi / 2), (math.pi / 2, 2 * math.pi / 3),
             (2 * math.pi / 3, 3 * math.pi / 4))
    for alpha, beta in pairs:
        gamma = alpha + beta
        wa, wb = rotation_generating(alpha), rotation_generating(beta)
        wg = rotation_generating(gamma)
        ma = maslov_branch(wa.L, 0)
        mb = maslov_branch(wb.L, 0)
        mg = maslov_compose(ma, mb, wb.P + wa.Q)
        nu_g = conley_zehnder(wg, maslov_branch(wg.L, mg))
        nu_cz = cz_compose(conley_zehnder(wa, ma), conley_zehnder(wb, mb),
                           cayley(rotation(alpha)), cayley(rotation(beta)))
        if nu_g != nu_cz:
            comp_bad += 1
    checks.append(_check("indices.cz_compose_rotations", float(comp_bad), 0.0))
    return checks


# ----------------------------------------------------------------------
# suite: operators

def _default_grid(cfg: RunConfig) -> Grid:
    return Grid(n=1, N=cfg.N, X=cfg.X)


def suite_operators(cfg: RunConfig, rng: np.random.Generator) -> list:
    checks = []
    grid = _default_grid(cfg)
    hbar = cfg.hbar
    phi0 = gaussian(grid, hbar)

    jf = hbar_fourier(phi0)
    dual_gauss = gaussian(jf.grid, hbar)
    checks.append(_check(
        "operators.fourier_gaussian_eigenvector",
        float(np.max(np.abs(jf.values
                            - np.exp(-1j * math.pi / 4) * dual_gauss.values))),
        config.FFT_TOL))

    h2 = hermite_function(2, grid, hbar)
    checks.append(_check("operators.fourier_unitarity",
                         abs(hbar_fourier(h2).norm() - h2.norm()), config.FFT_TOL))

    alpha = math.pi / 3
    w_rot = rotation_generating(alpha)
    mehler = 0.0
    for k in range(4):
        hk = hermite_function(k, grid, hbar)
        out = qfio_apply(w_rot, 0, hk)
        mehler = max(mehler, float(np.max(np.abs(
            out.values - np.exp(-1j * alpha * (k + 0.5)) * hk.values))))
    checks.append(_check("operators.mehler_eigenphases", mehler, 1e-6))

    cross = 0.0
    for _ in range(2):
        w = random_free_generating(1, rng, max_singular=1.4, min_det_l=0.5)
        a = qfio_apply(w, 0, phi0, method="factored")
        b = qfio_apply(w, 0, phi0, method="quadrature")
        cross = max(cross, _rel(a.values, b.values))
    checks.append(_check("operators.factored_vs_quadrature", cross,
                         config.CROSS_TOL))

    unit = 0.0
    for _ in range(3):
        w = random_free_generating(1, rng, max_singular=1.4, min_det_l=0.5)
        for k in range(3):
            hk = hermite_function(k, grid, hbar)
            unit = max(unit, abs(qfio_apply(w, 0, hk).norm() - hk.norm()))
    checks.append(_check("operators.unitarity", unit, 1e-6))

    dx = grid.dx
    dp = math.pi * hbar / grid.X
    z0 = np.array([8 * dx, 6 * dp])
    z1 = np.array([-6 * dx, 10 * dp])
    lhs = heisenberg_weyl(heisenberg_weyl(phi0, z1), z0)
    phase = np.exp(1j * (z0[1] * z1[0] - z0[0] * z1[1]) / (2 * hbar))
    rhs = heisenberg_weyl(phi0, z0 + z1)
    checks.append(_check("operators.weyl_cocycle",
                         float(np.max(np.abs(lhs.values - phase * rhs.values))),
                         1e-6))

    w = random_free_generating(1, rng, max_singular=1.4, min_det_l=0.5)
    word = MetaplecticWord([(w, 0)])
    back = word.inverse().apply(word.apply(phi0))
    checks.append(_check("operators.word_inverse_round_trip",
                         _rel(back.values, phi0.values), 1e-6))

    s_rot = rotation(math.pi / 2)
    nu = conley_zehnder(rotation_generating(math.pi / 2), 0)
    boch = bochner_apply(s_rot, nu, phi0)
    fact = qfio_apply(rotation_generating(math.pi / 2), 0, phi0)
    checks.append(_check("operators.bochner_vs_factored", _rel(
        boch.values, fact.values), config.BOCHNER_TOL))
    return checks


# ----------------------------------------------------------------------
# suite: phase

def _gated_phase_symplectic(rng: np.random.Generator) -> SymplecticMatrix:
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


def _nu_of(s: SymplecticMatrix) -> int:
    (w1, m1), (w2, m2) = factor_pair(s)
    nu1 = conley_zehnder(w1, m1)
    nu2 = conley_zehnder(w2, m2)
    return cz_compose(nu1, nu2, cayley(free_from_generating(w1)),
                      cayley(free_from_generating(w2)))


def suite_phase(cfg: RunConfig, rng: np.random.Generator) -> list:
    checks = []
    grid = _default_grid(cfg)
    hbar = cfg.hbar
    phi0 = gaussian(grid, hbar)
    h1 = hermite_function(1, grid, hbar)

    w0 = cross_wigner(phi0, phi0)
    xg, pg = w0.grid.meshgrid()
    closed = np.exp(-(xg ** 2 + pg ** 2) / hbar) / (math.pi * hbar)
    checks.append(_check("phase.wigner_gaussian_closed_form",
                         float(np.max(np.abs(w0.values - closed))), 1e-6))

    marg = np.sum(w0.values.real, axis=1) * w0.grid.dp
    checks.append(_check("phase.wigner_marginal",
                         float(np.max(np.abs(marg - np.abs(phi0.values) ** 2))),
                         1e-6))

    basis = wigner_basis(2, 2, hbar, grid)
    gram = np.array([[moyal_inner(a, b) for b in basis] for a in basis])
    checks.append(_check("phase.moyal_gram",
                         float(np.max(np.abs(gram - np.eye(9)))), 1e-6))

    s = _gated_phase_symplectic(rng)
    nu = _nu_of(s)
    f01 = cross_wigner(phi0, h1)
    out = metaplectic_phase_apply(s, nu, f01)
    checks.append(_check("phase.unitarity",
                         abs(out.norm() - f01.norm()) / f01.norm(), 1e-4))

    out_a2 = metaplectic_phase_apply(s, nu, f01, form="alfa2")
    checks.append(_check("phase.forms_s1_alfa2", _rel(
        out_a2.values, out.values), 1e-5))

    dx = grid.dx
    dp = math.pi * hbar / grid.X
    z0 = np.array([8 * dx, 12 * dp])
    lhs = cross_wigner(heisenberg_weyl(phi0, z0), h1)
    rhs = phase_shift(cross_wigner(phi0, h1), z0)
    checks.append(_check("phase.intertwine_weyl",
                         float(np.max(np.abs(lhs.values - rhs.values))), 1e-6))

    w_rot = rotation_generating(math.pi / 2)
    nu_rot = conley_zehnder(w_rot, 0)
    lhs2 = metaplectic_phase_apply(rotation(math.pi / 2), nu_rot,
                                   cross_wigner(phi0, h1))
    rhs2 = cross_wigner(qfio_apply(w_rot, 0, phi0), h1)
    checks.append(_check("phase.intertwine_metaplectic",
                         _rel(lhs2.values, rhs2.values), 1e-4))

    z1 = np.array([-4 * dx, 8 * dp])
    big = phase_shift(phase_shift(f01, z1), z0)
    coc = np.exp(-1j * (z0[1] * z1[0] - z0[0] * z1[1]) / (2 * hbar))
    small = phase_shift(f01, z0 + z1)
    checks.append(_check("phase.shift_cocycle",
                         float(np.max(np.abs(coc * big.values - small.values))),
                         1e-6))
    return checks


# ----------------------------------------------------------------------
# suite: feichtinger

def suite_feichtinger(cfg: RunConfig, rng: np.random.Generator) -> list:
    checks = []
    grid = _default_grid(cfg)
    hbar = cfg.hbar
    phi0 = gaussian(grid, hbar)
    h1 = hermite_function(1, grid, hbar)

    rep = s0_norm(phi0, phi0, window_id="gaussian")
    checks.append(_check("feichtinger.gaussian_norm_one",
                         abs(rep.norm_value - 1.0), 1e-4))
    checks.append(_check("feichtinger.gaussian_tail_estimate",
                         rep.truncation_estimate, 1e-8))

    dx = grid.dx
    dp = math.pi * hbar / grid.X
    z0 = np.array([16 * dx, 12 * dp])
    before, after = invariance_check(h1, lambda f: heisenberg_weyl(f, z0))
    checks.append(_check("feichtinger.shift_invariance",
                         abs(after - before) / before, 1e-3))

    w_rot = rotation_generating(math.pi / 3)
    before_r, after_r = invariance_check(h1, lambda f: qfio_apply(w_rot, 0, f))
    checks.append(_check("feichtinger.rotation_invariance",
                         abs(after_r - before_r) / before_r, 1e-3))

    s = rotation(math.pi / 3)
    nu = conley_zehnder(w_rot, 0)
    lhs, rhs = s0_via_phase_metaplectic(phi0, h1, s, nu)
    checks.append(_check("feichtinger.metaplectic_characterization",
                         abs(lhs - rhs) / rhs, 1e-3))
    return checks


# ----------------------------------------------------------------------
# suite: asymptotics

def suite_asymptotics(cfg: RunConfig, rng: np.random.Generator) -> list:
    checks = []

    det_err = 0.0
    for n in (1, 2):
        for _ in range(50):
            s = _gated_symplectic(rng, n=n)
            two_n = 2 * n
            det_si = np.linalg.det(s.entries - np.eye(two_n))
            det_sp = np.linalg.det(s.entries + np.eye(two_n))
            lhs = np.linalg.det(cayley(s))
            rhs = 2.0 ** (-two_n) * det_sp / det_si
            det_err = max(det_err, abs(lhs - rhs) / max(abs(rhs), 1.0))
    checks.append(_check("asymptotics.cayley_det_power", det_err, 1e-9))

    route_err = 0.0
    j = standard_j(1)
    for _ in range(10):
        s = _gated_symplectic(rng)
        if abs(np.linalg.det(s.entries + np.eye(2))) < 1e-3:
            continue
        z = rng.normal(size=2)
        zc = phase_critical_point(s, z)
        phase = QuadraticPhase(cayley(s), -(j @ z))
        route_err = max(route_err, abs(float(phase.value(zc))
                                       - phase_critical_value(s, z)))
    checks.append(_check("asymptotics.critical_value_two_routes",
                         route_err, 1e-10))

    alpha = 2 * math.pi / 3
    s_rot = rotation(alpha)
    nu = conley_zehnder(rotation_generating(alpha), 0)
    z_eval = np.array([0.7, -0.4])
    r1 = metaplectic_asymptotic(s_rot, nu, _bump, z_eval, hbar=0.1,
                                support_radius=5.0)
    r2 = metaplectic_asymptotic(s_rot, nu, _bump, z_eval, hbar=0.05,
                                support_radius=5.0)
    ratio = r2.relative_error / r1.relative_error
    checks.append(_check("asymptotics.hbar_halving_ratio",
                         abs(ratio - 0.5), 0.2))
    checks.append(_check("asymptotics.leading_term_accuracy",
                         r2.relative_error, 0.2))
    return checks


# ----------------------------------------------------------------------
# report assembly

_SUITE_FUNCS = {
    "core": suite_core,
    "indices": suite_indices,
    "operators": suite_operators,
    "phase": suite_phase,
    "feichtinger": suite_feichtinger,
    "asymptotics": suite_asymptotics,
}


def run_suite(suite: str, cfg: RunConfig) -> dict:
    """Run one named suite (or ``all``) and assemble the report dict."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    names = [s for s in SUITES if s != "all"] if suite == "all" else [suite]
    grid = _default_grid(cfg)
    checks = []
    for name in names:
        rng = np.random.default_rng([cfg.seed, _SUITE_OFFSET[name]])
        checks.extend(_SUITE_FUNCS[name](cfg, rng))
    checks.sort(key=lambda c: c["name"])
    return {
        "suite": suite,
        "seed": cfg.seed,
        "grid": {"n": grid.n, "N": grid.N, "X": grid.X},
        "hbar": cfg.hbar,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }


def report_text(report: dict) -> str:
    """Serialize a report deterministically (sorted keys, no timestamps)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
