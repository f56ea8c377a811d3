"""Workload ``config_space``: configuration-space operators at hbar = 1.

The chirp-z, chirp, interpolation and index layers do the work here; the
NUFFT, Bopp and CSV layers do none.  One round is:

* ``qfio_apply`` factored, n = 1 (N = 512, X = 12) on h0..h3 for 64
  seeded free generating functions and three rotations;
* ``qfio_apply`` factored, n = 2 (N = 256, diagonal L), two seeded draws on
  two inputs, and the quadrature oracle for n = 2 at N = 64 (full L);
* ``MetaplecticWord`` forward and inverse for four seeded two-factor words;
* ``factor_pair`` with the ``maslov_compose`` / ``cz_compose`` bookkeeping
  on four seeded S;
* ``heisenberg_weyl`` on and off the lattice;
* ``bochner_apply`` forms s1, s2, s3 on two rotations;
* three admissibility probes that fail today (see ``probe_ops``).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

import inputs
import reference as ref
from harness import BOCHNER_TOL, EXACT_TOL, HBAR, Check, Op

N, X = 512, 12.0
ROTATIONS = (math.pi / 3, math.pi / 2, 2 * math.pi / 3)
BOCHNER_ROTATIONS = (math.pi / 2, 2 * math.pi / 3)
OFF_LATTICE_TOL = 5e-6  # cubic interpolation of h0..h2: measured <= 3e-7
PROBE_Q = (8.0, 15.0, 30.0)


def _exact(label, out, expected) -> Check:
    return Check(label, ref.rel_err(out, expected), EXACT_TOL)


def setup(mp, seed: int, tmp: str):
    """Build every input of the workload; returns the list of operations."""
    grid = mp.Grid(1, N, X)
    x = ref.axis(N, X)
    herm = [ref.hermite(k, x, HBAR) for k in range(4)]
    fk = [mp.SampledFunction(grid, HBAR, h) for h in herm]
    ops = []

    # n = 1 factored on seeded draws and rotations; many draws, so the worst
    # error (accuracy_digits) does not hinge on one unlucky draw
    rng = inputs.rng_for(seed, 1)
    for i in range(64):
        P, L, Q = (float(a[0, 0]) for a in
                   inputs.free_generating(1, rng, max_singular=1.4, min_det_l=0.5))
        w = mp.GeneratingFunction(P, L, Q)
        m = inputs.branch(L)
        for k in range(4):
            ops.append(Op(
                f"qfio_n1.w{i}.h{k}", "operators",
                lambda w=w, m=m, f=fk[k]: mp.qfio_apply(w, m, f).values,
                lambda out, P=P, L=L, Q=Q, m=m, h=herm[k]: [
                    _exact("dense quadrature", out, ref.qfio_dense_1d(P, L, Q, m, h, x, HBAR))]))
    for alpha in ROTATIONS:
        w = mp.GeneratingFunction(*ref.rotation_generating(alpha))
        for k in range(4):
            ops.append(Op(
                f"qfio_n1.rot{alpha:.4f}.h{k}", "operators",
                lambda w=w, f=fk[k]: mp.qfio_apply(w, 0, f).values,
                lambda out, a=alpha, k=k: [
                    _exact("Mehler eigenphase", out, np.exp(-1j * a * (k + 0.5)) * herm[k])]))

    # n = 2 factored (diagonal L) and the n = 2 quadrature oracle (full L)
    grid2 = mp.Grid(2, 256, X)
    x2 = ref.axis(256, X)
    g0 = ref.hermite(0, x2, HBAR)
    inputs2 = {"h0h0": np.outer(g0, g0), "h1h0": np.outer(ref.hermite(1, x2, HBAR), g0)}
    rng = inputs.rng_for(seed, 2)
    for i in range(2):
        P, L, Q = inputs.free_generating(2, rng, pq_scale=1.0, l_pert=0.3,
                                         diagonal_l=True, max_singular=1.4)
        w = mp.GeneratingFunction(P, L, Q)
        m = inputs.branch(L)
        for name, vals in inputs2.items():
            f = mp.SampledFunction(grid2, HBAR, vals)
            ops.append(Op(
                f"qfio_n2.w{i}.{name}", "operators",
                lambda w=w, m=m, f=f: mp.qfio_apply(w, m, f).values,
                lambda out, P=P, L=L, Q=Q, m=m, v=vals: [
                    _exact("separable dense quadrature", out,
                           ref.qfio_dense_2d_diagonal(P, L, Q, m, v, x2, HBAR))]))

    grid64 = mp.Grid(2, 64, 8.0)
    x64 = ref.axis(64, 8.0)
    mesh64 = list(np.meshgrid(x64, x64, indexing="ij"))
    alpha0, c0 = ref.standard_gaussian(2, HBAR)
    f64 = mp.SampledFunction(grid64, HBAR, ref.gaussian_values(alpha0, c0, mesh64, HBAR))
    P, L, Q = inputs.free_generating(2, inputs.rng_for(seed, 3), pq_scale=0.5,
                                     l_pert=0.3, max_singular=2.0)
    m = inputs.branch(L)
    w64 = mp.GeneratingFunction(P, L, Q)
    ops.append(Op(
        "quadrature_n2.N64", "operators",
        lambda: mp.qfio_apply(w64, m, f64, method="quadrature").values,
        lambda out, P=P, L=L, Q=Q, m=m: [
            _exact("closed-form Gaussian", out,
                   ref.gaussian_values(*ref.gaussian_through(P, L, Q, m, alpha0, c0, HBAR),
                                       mesh64, HBAR))]))

    # words: forward against the closed form, inverse as a round trip
    alpha1, c1 = ref.standard_gaussian(1, HBAR)
    rng = inputs.rng_for(seed, 4)
    for i in range(4):
        factors = inputs.word_factors(rng)
        word = mp.MetaplecticWord([(mp.GeneratingFunction(P, L, Q), m)
                                   for P, L, Q, m in factors])
        ops.append(Op(
            f"word.w{i}.forward", "operators",
            lambda word=word: word.apply(fk[0]).values,
            lambda out, fs=factors: [
                _exact("closed-form Gaussian", out,
                       ref.gaussian_values(*ref.gaussian_word(fs, alpha1, c1, HBAR), [x], HBAR))]))
        ops.append(Op(
            f"word.w{i}.inverse", "operators",
            lambda word=word: word.inverse().apply(word.apply(fk[2])).values,
            lambda out: [_exact("round trip", out, herm[2])]))

    # factor_pair and the index laws, checked through the composite operator
    rng = inputs.rng_for(seed, 5)
    for i in range(4):
        S = inputs.transport_symplectic(rng)
        ops.append(Op(f"factor_pair.S{i}", "operators",
                      _factor_pair_call(mp, mp.SymplecticMatrix(S), fk[0]),
                      _factor_pair_check(S, x, alpha1, c1)))

    # Heisenberg-Weyl shifts
    rng = inputs.rng_for(seed, 6)
    dx = grid.dx
    for i in range(3):
        z0 = np.array([int(rng.integers(-60, 61)) * dx, rng.uniform(-3.0, 3.0)])
        ops.append(_weyl_op(mp, f"weyl.on{i}", z0, i, fk[i], x, EXACT_TOL))
    for i in range(3):
        z0 = rng.uniform(-2.0, 2.0, size=2)
        ops.append(_weyl_op(mp, f"weyl.off{i}", z0, i, fk[i], x, OFF_LATTICE_TOL))

    # Bochner quadrature, all three forms, against the Mehler phase
    for alpha in BOCHNER_ROTATIONS:
        s = mp.rotation(alpha)
        nu = mp.conley_zehnder(mp.rotation_generating(alpha), 0)
        for form in ("s1", "s2", "s3"):
            ops.append(Op(
                f"bochner.{form}.rot{alpha:.4f}", "operators",
                lambda s=s, nu=nu, form=form: mp.bochner_apply(s, nu, fk[0], form=form).values,
                lambda out, a=alpha: [Check("Mehler eigenphase",
                                            ref.rel_err(out, np.exp(-0.5j * a) * herm[0]),
                                            BOCHNER_TOL, exact=False,
                                            group="bochner_apply")]))

    ops.extend(probe_ops(mp, fk[0], herm[0], grid.dx))
    return ops


def _factor_pair_call(mp, S, phi0):
    def call():
        (w1, m1), (w2, m2) = mp.factor_pair(S)
        m = mp.maslov_compose(m1, m2, w2.P + w1.Q)
        nu = mp.cz_compose(mp.conley_zehnder(w1, m1), mp.conley_zehnder(w2, m2),
                           mp.cayley(mp.free_from_generating(w1)),
                           mp.cayley(mp.free_from_generating(w2)))
        nu12 = mp.conley_zehnder(mp.generating_from_free(S), m)
        prod = (mp.free_from_generating(w1) @ mp.free_from_generating(w2)).entries
        out = mp.MetaplecticWord([(w1, m1), (w2, m2)]).apply(phi0).values
        return {"out": out, "prod": np.array(prod), "indices": np.array([m, nu, nu12])}
    return call


def _factor_pair_check(S, x, alpha1, c1):
    binv = np.linalg.inv(S[:1, 1:])
    P12, L12, Q12 = S[1:, 1:] @ binv, binv, binv @ S[:1, :1]

    def check(res):
        m, nu, nu12 = (int(v) for v in res["indices"])
        expected = ref.gaussian_values(*ref.gaussian_through(P12, L12, Q12, m, alpha1, c1),
                                       [x])
        return [
            Check("factor product equals S", ref.rel_err(res["prod"], S), 1e-10),
            Check("cz_compose equals conley_zehnder of the composite",
                  float(nu != nu12), 0.5, exact=False),
            _exact("composite operator with the composed branch", res["out"], expected),
        ]
    return check


def _weyl_op(mp, name, z0, k, f, x, tol):
    def check(out):
        expected = (np.exp(1j * (z0[1] * x - 0.5 * z0[1] * z0[0]) / HBAR)
                    * ref.hermite(k, x - z0[0], HBAR))
        return [Check("analytic shift", ref.rel_err(out, expected), tol,
                      exact=tol == EXACT_TOL)]
    return Op(name, "operators", lambda: mp.heisenberg_weyl(f, z0).values, check)


def probe_ops(mp, phi0, phi0_values, dx):
    """Admissibility probes: W = (P = 0, L = 1, Q = q) on the Gaussian.

    The chirp exp(i q x^2 / 2) pushes spectral mass past the lattice band,
    so the unitary lattice operator can only stay honest by keeping the
    norm, warning (BandwidthExceededWarning) or raising a
    NumericalDomainError.  Today it returns norms 0.982, 0.861 and 0.654
    without a warning, so every probe fails on every seed: the output is
    built with check_tails=False and nothing inspects its edge."""
    norm_in = math.sqrt(dx * float(np.sum(np.abs(phi0_values) ** 2)))
    ops = []
    for q in PROBE_Q:
        def call(q=q):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    out = mp.qfio_apply(mp.GeneratingFunction(0.0, 1.0, q), 0, phi0).values
                except mp.NumericalDomainError:
                    return {"raised": np.array(1)}
            warned = any(issubclass(w.category, mp.BandwidthExceededWarning) for w in caught)
            return {"values": out, "warned": np.array(int(warned))}

        def check(res):
            if "raised" in res or int(res["warned"]):
                return [Check("detected", 0.0, 1.0, exact=False)]
            norm_out = math.sqrt(dx * float(np.sum(np.abs(res["values"]) ** 2)))
            return [Check("norm kept", abs(norm_out - norm_in), 1e-6, exact=False)]
        ops.append(Op(f"probe.q{int(q)}", "operators", call, check, probe=True))
    return ops
