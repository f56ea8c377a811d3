"""Workload ``phase_space``: the paper's extended operator at N = 512, X = 12.

``nufft2d2``, trigonometric upsampling, the Bopp shift loop and
``oscillatory_quadrature`` do the work here; the chirp-z configuration
operators appear only inside ``s0_via_phase_metaplectic``.  One round is:

* ``cross_wigner`` of four Hermite pairs;
* ``moyal_inner`` of six pairs of Wigner functions (Moyal identity);
* ``metaplectic_phase_apply`` in forms s1, alfa1, alfa2, each for its own
  seeded S gated as the ``verify`` phase suite gates it, and for the
  rotation by 2 pi / 3;
* ``phase_shift`` by two seeded lattice vectors;
* ``s0_via_phase_metaplectic`` and ``s0_norm``;
* ``bopp_apply`` on the N = 128 grid: a Gaussian symbol against its
  closed-form kernel, and the delta-symbol ladder sigma = 1, 0.7 (one call
  costs 0.3 s at N = 128 against 21-27 s at N = 512);
* the ``metaplectic_asymptotic`` ladder hbar = 0.1, 0.05, 0.025.
"""

from __future__ import annotations

import math

import numpy as np

import inputs
import reference as ref
from harness import EXACT_TOL, HBAR, Check, Op

N, X = 512, 12.0
ALPHA = 2 * math.pi / 3
BOPP_N = 128
Z_EVAL = np.array([0.7, -0.4])
LADDER = (0.1, 0.05, 0.025)


def _exact(label, out, expected) -> Check:
    return Check(label, ref.rel_err(out, expected), EXACT_TOL)


def _bump(zz):
    zz = np.asarray(zz, dtype=float)
    return np.exp(-np.sum(zz * zz, axis=-1))


def setup(mp, seed: int, tmp: str):
    grid = mp.Grid(1, N, X)
    x, p = ref.phase_axes(N, X, HBAR)
    herm = [ref.hermite(k, x, HBAR) for k in range(3)]
    hk = [mp.SampledFunction(grid, HBAR, h) for h in herm]
    pairs = ((0, 0), (0, 1), (1, 2), (2, 2))
    wig = {ab: mp.cross_wigner(hk[ab[0]], hk[ab[1]]) for ab in pairs}
    ops = []

    def dense_wigner(a, b):
        return ref.wigner_dense(lambda t: ref.hermite(a, t, HBAR),
                                lambda t: ref.hermite(b, t, HBAR), x, p, HBAR)

    for a, b in pairs:
        expected = ((lambda: ref.gaussian_wigner(x, p, HBAR)) if (a, b) == (0, 0)
                    else (lambda a=a, b=b: dense_wigner(a, b)))
        ops.append(Op(f"cross_wigner.h{a}h{b}", "phase_space",
                      lambda a=a, b=b: mp.cross_wigner(hk[a], hk[b]).values,
                      lambda out, e=expected: [_exact("Wigner integral", out, e())]))

    moyal_pairs = (((0, 0), (0, 0)), ((0, 1), (0, 1)), ((0, 0), (0, 1)),
                   ((0, 1), (1, 2)), ((1, 2), (2, 2)), ((2, 2), (2, 2)))
    for u, v in moyal_pairs:
        # (W(a,b) | W(c,d)) = (2 pi hbar)^-1 (h_a|h_c) conj((h_b|h_d))
        expected = float(u == v) / (2 * math.pi * HBAR)
        ops.append(Op(f"moyal.{u[0]}{u[1]}.{v[0]}{v[1]}", "phase_space",
                      lambda u=u, v=v: np.array(mp.moyal_inner(wig[u], wig[v])),
                      lambda out, e=expected: [Check(
                          "Moyal identity", abs(complex(out) - e) * 2 * math.pi * HBAR,
                          EXACT_TOL)]))

    # one seeded S per form (its cost depends on S, so three draws average
    # it), nu from the factor pair, and the intertwining reference
    F01 = wig[(0, 1)]
    F00 = wig[(0, 0)]
    rng = inputs.rng_for(seed, 7)
    for form in ("s1", "alfa1", "alfa2"):
        s_mat, nu, reference = _seeded_phase_map(mp, inputs.phase_symplectic(rng), x, p)
        ops.append(Op(f"phase_apply.{form}.S", "phase_space",
                      lambda s_mat=s_mat, nu=nu, form=form:
                          mp.metaplectic_phase_apply(s_mat, nu, F01, form=form).values,
                      lambda out, e=reference: [_exact("intertwining with S phi0", out, e())]))
    rot = mp.rotation(ALPHA)
    nu_rot = mp.conley_zehnder(mp.rotation_generating(ALPHA), 0)
    for form in ("s1", "alfa1", "alfa2"):
        ops.append(Op(f"phase_apply.{form}.rot", "phase_space",
                      lambda form=form: mp.metaplectic_phase_apply(rot, nu_rot, F00, form=form).values,
                      lambda out: [_exact("Gaussian eigenphase", out,
                                          np.exp(-0.5j * ALPHA) * ref.gaussian_wigner(x, p, HBAR))]))

    rng = inputs.rng_for(seed, 8)
    dx, dp = x[1] - x[0], p[1] - p[0]
    for i in range(2):
        z0 = np.array([2 * int(rng.integers(-40, 41)) * dx, 2 * int(rng.integers(-40, 41)) * dp])

        def shifted(z0=z0):
            # T~(z0) F(z) = exp(-i sigma(z, z0) / hbar) F(z - z0 / 2)
            mult = np.exp(-1j * (p[None, :] * z0[0] - x[:, None] * z0[1]) / HBAR)
            return mult * ref.gaussian_wigner(x - 0.5 * z0[0], p - 0.5 * z0[1], HBAR)
        ops.append(Op(f"phase_shift.z{i}", "phase_space",
                      lambda z0=z0: mp.phase_shift(F00, z0).values,
                      lambda out, e=shifted: [_exact("translated Gaussian Wigner", out, e())]))

    s3 = mp.rotation(math.pi / 3)
    nu3 = mp.conley_zehnder(mp.rotation_generating(math.pi / 3), 0)
    ops.append(Op("s0_via_phase_metaplectic", "feichtinger",
                  lambda: dict(zip(("phase_route", "config_route"),
                                   mp.s0_via_phase_metaplectic(hk[0], hk[1], s3, nu3))),
                  lambda out: [Check("phase route equals configuration route",
                                     abs(out["phase_route"] - out["config_route"])
                                     / abs(out["config_route"]), EXACT_TOL)]))

    def s0_call():
        rep = mp.s0_norm(hk[0], hk[0])
        return {"norm": rep.norm_value, "tail": rep.truncation_estimate}
    ops.append(Op("s0_norm", "feichtinger", s0_call, lambda out: [
        _exact("L1 norm of the Gaussian Wigner function", out["norm"], 1.0),
        Check("truncation estimate", out["tail"], 1e-8, exact=False)]))

    ops.extend(_bopp_ops(mp, seed))
    ops.append(_ladder_op(mp))
    return ops


def _seeded_phase_map(mp, S, x, p):
    """(S, nu, reference): nu from factor_pair and cz_compose, and a callable
    giving S~ W(phi0, h1) = W(S phi0, h1) with S phi0 in closed form."""
    s_mat = mp.SymplecticMatrix(S)
    (w1, m1), (w2, m2) = mp.factor_pair(s_mat)
    nu = mp.cz_compose(mp.conley_zehnder(w1, m1), mp.conley_zehnder(w2, m2),
                       mp.cayley(mp.free_from_generating(w1)),
                       mp.cayley(mp.free_from_generating(w2)))
    factors = [(np.array(w.P), np.array(w.L), np.array(w.Q), m)
               for w, m in ((w1, m1), (w2, m2))]

    def reference():
        alpha, c = ref.gaussian_word(factors, *ref.standard_gaussian(1, HBAR), HBAR)
        return ref.wigner_dense(lambda t: ref.gaussian_values(alpha, c, [t], HBAR),
                                lambda t: ref.hermite(1, t, HBAR), x, p, HBAR)
    return s_mat, nu, reference


def _bopp_ops(mp, seed):
    grid = mp.Grid(1, BOPP_N, X)
    x, p = ref.phase_axes(BOPP_N, X, HBAR)
    F = mp.cross_wigner(mp.SampledFunction(grid, HBAR, ref.hermite(0, x, HBAR)),
                        mp.SampledFunction(grid, HBAR, ref.hermite(1, x, HBAR)))
    tau = 0.8
    zc = inputs.rng_for(seed, 9).uniform(-0.5, 0.5, size=2)

    def gaussian_symbol(zx, zp):
        sig = zp * zc[0] - zx * zc[1]
        return ((tau ** 2 / HBAR) * np.exp(-1j * sig / HBAR)
                * np.exp(-tau ** 2 * (zx * zx + zp * zp) / (2 * HBAR ** 2)))

    def delta_symbol(sigma):
        def a_sigma(zx, zp):
            return (np.exp(-(zx * zx + zp * zp) / (2 * sigma ** 2 * HBAR ** 2))
                    / (2 * math.pi * sigma ** 2 * HBAR ** 2) * (2 * math.pi * HBAR))
        return a_sigma

    def delta_call():
        return np.array([mp.bopp_apply(delta_symbol(s), F).values for s in (1.0, 0.7)])

    def delta_check(out):
        errs = [ref.rel_err(o, F.values) for o in out]
        ratio = errs[1] / errs[0]
        # O(sigma^2) bias: the ratio is 0.49 up to grid effects
        return [Check("delta-symbol bias ratio 0.49", abs(ratio - 0.49), 0.2, exact=False)]

    return [
        Op("bopp.gaussian_symbol", "phase_space",
           lambda: mp.bopp_apply(gaussian_symbol, F).values,
           lambda out: [_exact("closed-form Bopp kernel",
                               out, ref.bopp_gaussian_kernel(F.values, x, p, tau, zc, HBAR))]),
        Op("bopp_delta.ladder", "phase_space", delta_call, delta_check),
    ]


def _ladder_op(mp):
    rot = mp.rotation(ALPHA)
    nu = mp.conley_zehnder(mp.rotation_generating(ALPHA), 0)

    def call():
        res = [mp.metaplectic_asymptotic(rot, nu, _bump, Z_EVAL, hbar=hbar, support_radius=5.0)
               for hbar in LADDER]
        return {"leading": np.array([r.leading for r in res]),
                "relative_error": np.array([r.relative_error for r in res])}

    def check(out):
        S = ref.rotation(ALPHA)
        checks = []
        for value, hbar in zip(out["leading"], LADDER):
            lead = ref.stationary_leading(S, nu, _bump, Z_EVAL, hbar)
            checks.append(Check(f"closed-form leading term at hbar={hbar}",
                                abs(value - lead) / abs(lead), EXACT_TOL))
        errs = out["relative_error"]
        for k in range(len(LADDER) - 1):
            checks.append(Check(f"error halves with hbar ({LADDER[k + 1]})",
                                abs(errs[k + 1] / errs[k] - 0.5), 0.2, exact=False))
        return checks

    return Op("asymptotic.ladder", "asymptotics", call, check)
