"""Write a BENCH_<n>.json evidence file from perfbench runs.

Run from the root of a source checkout:

    python3 tools/bench.py --out BENCH_1.json --seeds 10 11 12 13 14
    python3 tools/bench.py --out BENCH_1.json --parent ../parent --seeds 10 11 12 13 14

For every seed and every workload of ``BENCHMARK.json`` it runs
``python3 perfbench/run.py`` untraced for the file's ``run_seconds``, and
once per workload traced (at the first seed).  With ``--parent`` it
runs each command in the parent checkout too, alternating which side goes
first, so that drift of a shared machine falls on both sides alike.  It
also times eight per-call rows, best of three calls each (five for
``phase_shift``): the n = 2, N = 64
quadrature oracle on perfbench's draws (``rng_for(seed, 3)``, seeds 0-7)
against its closed-form image, the six ``bochner_apply`` calls of
``config_space`` (forms s1, s2, s3 on the pi/2 and 2pi/3 rotations of
phi0, N = 512, X = 12) against the Mehler eigenphase exp(-i alpha / 2) phi0,
the four ``cross_wigner`` Hermite pairs of ``phase_space`` (N = 512,
X = 12) against the closed-form W(phi0, phi0) or the dense Wigner integral,
and the seven ``metaplectic_phase_apply`` calls of a ``phase_space`` round at
seeds 0-2 against the dense Wigner integral of S phi0, with S phi0 in closed
form from ``reference.gaussian_word``, and ``compose_linear`` on the Wigner
function of T(z0) phi0 (N = 512, X = 12) and on a band-filling Gaussian
(64 x 64, X = 9) for the rotations by 0.4, 2 and 3pi/4 against the closed
forms, and the factored n = 2 ``qfio_apply`` (N = 256, X = 12) on the
standard Gaussian for the left factors of 8 ``factor_pair`` words (full L)
and perfbench's diagonal-L draws (seeds 0-3) against the closed form, and
``bopp_apply`` on W(phi0, h1) (N = 128 and 512, X = 12) for the three
symbols of ``phase_space``, on both routes where the checkout has the shift
loop, against ``reference.bopp_gaussian_kernel``, and ``phase_shift`` of
W(phi0, phi0) (N = 512) on and off the lattice against the closed form.

The file records the machine (``nproc``, the CPU model from
``/proc/cpuinfo``), the Python and NumPy versions, each checkout's git
revision and the tracked files modified in it, every command line and
every result line verbatim, plus per-side medians and quartiles of the
end-to-end metrics and, per metric, the pairs the change won.  Exits 1
when a run fails, prints no strict-JSON result line, or reports failed
operations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Best of three calls per draw; the reference is perfbench's closed form.
QUADRATURE_SNIPPET = r"""
import json, time
import numpy as np
import inputs, reference as ref
import metaplectic as mp
grid = mp.Grid(2, 64, 8.0)
x = ref.axis(64, 8.0)
mesh = list(np.meshgrid(x, x, indexing="ij"))
alpha0, c0 = ref.standard_gaussian(2, 1.0)
f = mp.SampledFunction(grid, 1.0, ref.gaussian_values(alpha0, c0, mesh, 1.0))
rows = []
for seed in range(8):
    P, L, Q = inputs.free_generating(2, inputs.rng_for(seed, 3), pq_scale=0.5,
                                     l_pert=0.3, max_singular=2.0)
    m = inputs.branch(L)
    w = mp.GeneratingFunction(P, L, Q)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        out = mp.qfio_apply(w, m, f, method="quadrature").values
        times.append(time.perf_counter() - t0)
    exact = ref.gaussian_values(*ref.gaussian_through(P, L, Q, m, alpha0, c0, 1.0), mesh, 1.0)
    err = float(np.max(np.abs(out - exact)) / np.max(np.abs(exact)))
    rows.append({"seed": seed, "ms": 1e3 * min(times), "closed_form_error": err})
print(json.dumps(rows))
"""

# The six Bochner calls of config_space, best of three each; the reference
# is the Mehler eigenphase of phi0.
BOCHNER_SNIPPET = r"""
import json, math, time
import numpy as np
import reference as ref
import metaplectic as mp
phi0 = ref.hermite(0, ref.axis(512, 12.0), 1.0)
f = mp.SampledFunction(mp.Grid(1, 512, 12.0), 1.0, phi0)
rows = []
for alpha in (math.pi / 2, 2 * math.pi / 3):
    s = mp.rotation(alpha)
    nu = mp.conley_zehnder(mp.rotation_generating(alpha), 0)
    for form in ("s1", "s2", "s3"):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            out = mp.bochner_apply(s, nu, f, form=form).values
            times.append(time.perf_counter() - t0)
        err = ref.rel_err(out, np.exp(-0.5j * alpha) * phi0)
        rows.append({"form": form, "alpha": alpha, "ms": 1e3 * min(times), "mehler_error": err})
print(json.dumps(rows))
"""

# The four cross_wigner pairs of phase_space, best of three each; the
# reference is the closed form for (h0, h0), the dense Wigner integral else.
CROSS_WIGNER_SNIPPET = r"""
import json, time
import numpy as np
import reference as ref
import metaplectic as mp
x, p = ref.phase_axes(512, 12.0, 1.0)
hk = [mp.SampledFunction(mp.Grid(1, 512, 12.0), 1.0, ref.hermite(k, x, 1.0)) for k in range(3)]
rows = []
for a, b in ((0, 0), (0, 1), (1, 2), (2, 2)):
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        out = mp.cross_wigner(hk[a], hk[b]).values
        times.append(time.perf_counter() - t0)
    exact = (ref.gaussian_wigner(x, p, 1.0) if (a, b) == (0, 0) else ref.wigner_dense(
        lambda t: ref.hermite(a, t, 1.0), lambda t: ref.hermite(b, t, 1.0), x, p, 1.0))
    rows.append({"pair": f"h{a}h{b}", "ms": 1e3 * min(times), "error": ref.rel_err(out, exact)})
print(json.dumps(rows))
"""

# The metaplectic_phase_apply calls of phase_space at seeds 0-2 (forms s1,
# alfa1, alfa2 on the seeded S, the three forms of the 2pi/3 rotation, and
# the pi/3 rotation of s0_via_phase_metaplectic), best of three each; the
# reference is the dense Wigner integral of S phi0 from reference.gaussian_word.
PHASE_APPLY_SNIPPET = r"""
import json, math, time
import inputs, reference as ref
import metaplectic as mp
from wl_phase_space import _seeded_phase_map
x, p = ref.phase_axes(512, 12.0, 1.0)
hk = [mp.SampledFunction(mp.Grid(1, 512, 12.0), 1.0, ref.hermite(k, x, 1.0)) for k in range(2)]
wig = {b: mp.cross_wigner(hk[0], hk[b]) for b in range(2)}


def rotation_map(alpha, b):
    P, L, Q = ref.rotation_generating(alpha)

    def reference():
        a, c = ref.gaussian_word([(P, L, Q, 0)], *ref.standard_gaussian(1, 1.0), 1.0)
        return ref.wigner_dense(lambda t: ref.gaussian_values(a, c, [t], 1.0),
                                lambda t: ref.hermite(b, t, 1.0), x, p, 1.0)
    return mp.rotation(alpha), mp.conley_zehnder(mp.rotation_generating(alpha), 0), reference


calls = []
for seed in (0, 1, 2):
    rng = inputs.rng_for(seed, 7)
    for form in ("s1", "alfa1", "alfa2"):
        calls.append((f"seed {seed}", form, 1,
                      *_seeded_phase_map(mp, inputs.phase_symplectic(rng), x, p)))
for form in ("s1", "alfa1", "alfa2"):
    calls.append(("rotation 2pi/3", form, 0, *rotation_map(2 * math.pi / 3, 0)))
calls.append(("rotation pi/3, s0_via_phase_metaplectic", "s1", 1, *rotation_map(math.pi / 3, 1)))
rows = []
for label, form, b, s, nu, reference in calls:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        out = mp.metaplectic_phase_apply(s, nu, wig[b], form=form).values
        times.append(time.perf_counter() - t0)
    rows.append({"input": label, "form": form, "ms": 1e3 * min(times),
                 "error": ref.rel_err(out, reference())})
print(json.dumps(rows))
"""

# compose_linear on the Wigner function of T(z0) phi0, z0 = (2, 1), by the
# inverse rotations by 0.4, 2 and 3pi/4, best of three each; the reference is
# the closed form exp(-|S^{-1} z - z0|^2 / hbar) / (pi hbar).  The same
# rotations of exp(-|z - z0|^2), z0 = (0.7, -0.4), on a 64 x 64 lattice with
# X = P_max = 9, whose spectrum fills the band, follow.
COMPOSE_LINEAR_SNIPPET = r"""
import json, math, time
import numpy as np
import reference as ref
import metaplectic as mp
x, p = ref.phase_axes(512, 12.0, 1.0)
z0 = np.array([2.0, 1.0])
phi0 = mp.SampledFunction(mp.Grid(1, 512, 12.0), 1.0, ref.hermite(0, x, 1.0))
f = mp.heisenberg_weyl(phi0, z0)
w = mp.cross_wigner(f, f)
rows = []
for alpha in (0.4, 2.0, 3 * math.pi / 4):
    mat = mp.rotation(alpha).inv().entries
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        out = mp.compose_linear(w, mat).values
        times.append(time.perf_counter() - t0)
    xs = mat[0, 0] * x[:, None] + mat[0, 1] * p[None, :] - z0[0]
    ps = mat[1, 0] * x[:, None] + mat[1, 1] * p[None, :] - z0[1]
    exact = np.exp(-(xs ** 2 + ps ** 2)) / math.pi
    rows.append({"alpha": alpha, "ms": 1e3 * min(times),
                 "closed_form_error": ref.rel_err(out, exact)})
pg = mp.PhaseGrid(1, 64, 9.0, 64, 9.0)
xg, pgr = pg.meshgrid()
band_filling = mp.PhaseFunction(pg, 1.0, np.exp(-((xg - 0.7) ** 2 + (pgr + 0.4) ** 2)))
for alpha in (0.4, 2.0, 3 * math.pi / 4):
    mat = mp.rotation(alpha).inv().entries
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        out = mp.compose_linear(band_filling, mat).values
        times.append(time.perf_counter() - t0)
    xs = mat[0, 0] * xg + mat[0, 1] * pgr - 0.7
    ps = mat[1, 0] * xg + mat[1, 1] * pgr + 0.4
    rows.append({"alpha": alpha, "grid": "64 x 64, X = 9", "ms": 1e3 * min(times),
                 "closed_form_error": ref.rel_err(out, np.exp(-(xs ** 2 + ps ** 2)))})
print(json.dumps(rows))
"""

# The factored n = 2 route, best of three each, on the standard Gaussian of
# Grid(2, 256, 12): the left factors (full L) of 8 factor_pair words of
# random S with sigma_max <= 2 (default_rng(3)), and perfbench's diagonal-L
# draws at seeds 0-3 (rng_for(seed, 2)); the reference is the closed-form
# image from reference.gaussian_through.
FACTORED_N2_SNIPPET = r"""
import json, time
import numpy as np
import inputs, reference as ref
import metaplectic as mp
grid = mp.Grid(2, 256, 12.0)
x = ref.axis(256, 12.0)
mesh = list(np.meshgrid(x, x, indexing="ij"))
alpha0, c0 = ref.standard_gaussian(2, 1.0)
f = mp.SampledFunction(grid, 1.0, ref.gaussian_values(alpha0, c0, mesh, 1.0))
draws = []
rng = np.random.default_rng(3)
while len(draws) < 8:
    s = mp.random_symplectic(2, rng)
    if np.linalg.svd(s.entries, compute_uv=False)[0] <= 2.0:
        (w, m), _ = mp.factor_pair(s)
        draws.append((f"factor_pair word {len(draws)}", "full", w, m))
for seed in range(4):
    rng = inputs.rng_for(seed, 2)
    for i in range(2):
        P, L, Q = inputs.free_generating(2, rng, pq_scale=1.0, l_pert=0.3,
                                         diagonal_l=True, max_singular=1.4)
        draws.append((f"seed {seed} draw {i}", "diagonal", mp.GeneratingFunction(P, L, Q),
                      inputs.branch(L)))
rows = []
for label, kind, w, m in draws:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        out = mp.qfio_apply(w, m, f).values
        times.append(time.perf_counter() - t0)
    exact = ref.gaussian_values(*ref.gaussian_through(w.P, w.L, w.Q, m, alpha0, c0, 1.0),
                                mesh, 1.0)
    rows.append({"input": label, "L": kind, "ms": 1e3 * min(times),
                 "closed_form_error": ref.rel_err(out, exact)})
print(json.dumps(rows))
"""

# bopp_apply on W(phi0, h1) at N = 128 and 512 (X = 12) for the three
# symbols of phase_space: the Gaussian symbol tau = 0.8 centred at zc =
# rng_for(0, 9).uniform(-0.5, 0.5, 2), and the delta symbols sigma = 1 and
# 0.7, which are the Gaussian symbol with tau = 1 / sigma centred at 0.  Best
# of three calls of bopp_apply and, where the checkout has it, of the shift
# loop on the same weights; the reference is reference.bopp_gaussian_kernel
# (a dense sum, about 25 s per symbol at N = 512).
BOPP_SNIPPET = r"""
import json, time
import numpy as np
import inputs, reference as ref
import metaplectic as mp
import metaplectic.phase_space as ps
rows = []
zc = inputs.rng_for(0, 9).uniform(-0.5, 0.5, size=2)
for n_pts in (128, 512):
    x, p = ref.phase_axes(n_pts, 12.0, 1.0)
    grid = mp.Grid(1, n_pts, 12.0)
    F = mp.cross_wigner(mp.SampledFunction(grid, 1.0, ref.hermite(0, x, 1.0)),
                        mp.SampledFunction(grid, 1.0, ref.hermite(1, x, 1.0)))
    for label, tau, centre in (("gaussian tau 0.8", 0.8, zc), ("delta sigma 1", 1.0, np.zeros(2)),
                               ("delta sigma 0.7", 1 / 0.7, np.zeros(2))):
        def a_sigma(zx, zp, tau=tau, c=centre):
            return (tau ** 2 * np.exp(-1j * (zp * c[0] - zx * c[1]))
                    * np.exp(-tau ** 2 * (zx * zx + zp * zp) / 2))
        routes = [("bopp_apply", lambda: mp.bopp_apply(a_sigma, F).values)]
        if hasattr(ps, "_bopp_shift_loop"):
            weights = ps._bopp_weights(a_sigma, F)
            routes.append(("shift loop", lambda: ps._bopp_shift_loop(weights, F)))
        exact = ref.bopp_gaussian_kernel(F.values, x, p, tau, centre, 1.0)
        for route, call in routes:
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                out = call()
                times.append(time.perf_counter() - t0)
            rows.append({"N": n_pts, "symbol": label, "route": route, "ms": 1e3 * min(times),
                         "kernel_error": ref.rel_err(out, exact)})
print(json.dumps(rows))
"""

# phase_shift of W(phi0, phi0) at N = 512 (X = 12), best of five calls, by
# two lattice vectors z0 = (2 i dx, 2 k dp) and two vectors off the lattice;
# the reference is the closed form exp(-i sigma(z, z0)) W(phi0, phi0)(z - z0 / 2).
PHASE_SHIFT_SNIPPET = r"""
import json, time
import numpy as np
import reference as ref
import metaplectic as mp
x, p = ref.phase_axes(512, 12.0, 1.0)
phi0 = mp.SampledFunction(mp.Grid(1, 512, 12.0), 1.0, ref.hermite(0, x, 1.0))
F = mp.cross_wigner(phi0, phi0)
dx, dp = x[1] - x[0], p[1] - p[0]
rows = []
for kind, z0 in (("on lattice", (2 * 17 * dx, -2 * 23 * dp)), ("on lattice", (-2 * 40 * dx, 2 * 9 * dp)),
                 ("off lattice", (0.7, -0.4)), ("off lattice", (-1.3, 2.1))):
    z0 = np.array(z0)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        out = mp.phase_shift(F, z0).values
        times.append(time.perf_counter() - t0)
    exact = (np.exp(-1j * (p[None, :] * z0[0] - x[:, None] * z0[1]))
             * ref.gaussian_wigner(x - 0.5 * z0[0], p - 0.5 * z0[1], 1.0))
    rows.append({"z0": z0.tolist(), "kind": kind, "ms": 1e3 * min(times),
                 "closed_form_error": ref.rel_err(out, exact)})
print(json.dumps(rows))
"""

PER_CALL = (
    ("qfio_apply quadrature, n = 2, N = 64, full L", "QUADRATURE_SNIPPET", QUADRATURE_SNIPPET),
    ("bochner_apply s1, s2, s3 on rotations of phi0, N = 512", "BOCHNER_SNIPPET",
     BOCHNER_SNIPPET),
    ("cross_wigner of four Hermite pairs, N = 512", "CROSS_WIGNER_SNIPPET",
     CROSS_WIGNER_SNIPPET),
    ("metaplectic_phase_apply calls of phase_space, seeds 0-2, N = 512",
     "PHASE_APPLY_SNIPPET", PHASE_APPLY_SNIPPET),
    ("compose_linear, inverse rotations of W(T(z0) phi0), N = 512", "COMPOSE_LINEAR_SNIPPET",
     COMPOSE_LINEAR_SNIPPET),
    ("qfio_apply factored, n = 2, N = 256, full and diagonal L", "FACTORED_N2_SNIPPET",
     FACTORED_N2_SNIPPET),
    ("bopp_apply and the shift loop, three symbols on W(phi0, h1), N = 128 and 512",
     "BOPP_SNIPPET", BOPP_SNIPPET),
    ("phase_shift of W(phi0, phi0), on and off the lattice, N = 512", "PHASE_SHIFT_SNIPPET",
     PHASE_SHIFT_SNIPPET),
)


def _reject(token):
    raise ValueError(f"non-finite {token} in the result line")


def machine() -> dict:
    model = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    versions = subprocess.run(
        ["python3", "-c", "import sys, numpy; print(sys.version.split()[0], numpy.__version__)"],
        capture_output=True, text=True, check=True).stdout.split()
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "platform": platform.platform(), "python": versions[0], "numpy": versions[1]}


def revision(checkout: str) -> dict:
    """The checkout's commit and the tracked files that differ from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                              check=True).stdout
    return {"head": git("rev-parse", "HEAD").strip(),
            "modified": sorted(git("diff", "--name-only", "HEAD").split())}


def run_perfbench(side: str, checkout: str, workload: str, seed: int, seconds: float,
                  trace: int) -> dict:
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    row = {"side": side, "workload": workload, "seed": seed, "trace": trace,
           "command": " ".join(cmd), "process_s": round(time.perf_counter() - t0, 3),
           "returncode": proc.returncode,
           "failure_lines": [ln for ln in proc.stderr.splitlines()
                             if ln.startswith(("operation ", "check failed"))]}
    lines = proc.stdout.strip().splitlines()
    row["result_line"] = lines[-1] if lines else ""
    try:
        result = json.loads(row["result_line"], parse_constant=_reject)
        row["ok"] = (proc.returncode == 0 and result["correct"] is True
                     and result["failed"] == 0 and not row["failure_lines"])
    except (ValueError, KeyError, TypeError):
        row["ok"] = False
    return row


def run_snippet(side: str, checkout: str, call: str, name: str, snippet: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(checkout, "src"),
                                         os.path.join(checkout, "perfbench")])
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run(["python3", "-c", snippet], cwd=checkout, env=env,
                          capture_output=True, text=True)
    return {"side": side, "call": call, "command": f"python3 -c {name} (tools/bench.py)",
            "returncode": proc.returncode, "result_line": proc.stdout.strip(),
            "ok": proc.returncode == 0}


def summarize(rows: list, better: dict) -> dict:
    """Per workload and side: median and quartiles of each end-to-end metric
    over the untraced rows, and per-side counts of failed / attempted; with
    both sides, per metric the number of seeds where the change read better
    (ties count for neither).  ``better`` maps each end-to-end metric to
    "lower" or "higher", as ``BENCHMARK.json`` does."""
    out = {}
    for row in rows:
        if row["trace"] or not row["ok"]:
            continue
        result = json.loads(row["result_line"])
        entry = out.setdefault(row["workload"], {}).setdefault(
            row["side"], {"runs": 0, "failed": 0, "attempted": 0,
                          **{name: [] for name in better}})
        entry["runs"] += 1
        entry["failed"] += result["failed"]
        entry["attempted"] += result["attempted"]
        for name in better:
            entry[name].append(result["metrics"][name]["value"])
    for sides in out.values():
        for entry in sides.values():
            for name in better:
                vals = entry[name]
                q = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
                entry[name] = {"median": statistics.median(vals), "q1": q[0], "q3": q[2],
                               "values": vals}
    by_pair = {}
    for row in rows:
        if not row["trace"] and row["ok"]:
            metrics = json.loads(row["result_line"])["metrics"]
            by_pair.setdefault((row["workload"], row["seed"]), {})[row["side"]] = metrics
    for (workload, _), pair in by_pair.items():
        if len(pair) < 2:
            continue
        wins = out[workload].setdefault("change_won", {"pairs": 0})
        wins["pairs"] += 1
        for name, direction in better.items():
            parent, change = pair["parent"][name]["value"], pair["change"][name]["value"]
            won = change > parent if direction == "higher" else change < parent
            wins[name] = wins.get(name, 0) + int(won)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--parent", help="checkout of the parent revision, run alternately")
    args = ap.parse_args(argv)

    here = os.getcwd()
    with open(os.path.join(here, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = float(spec["run_seconds"])
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = [("change", here)]
    if args.parent:
        sides.insert(0, ("parent", os.path.abspath(args.parent)))
    for _, checkout in sides:
        if not os.path.isfile(os.path.join(checkout, "perfbench", "run.py")):
            print(f"bench: no perfbench/run.py under {checkout}", file=sys.stderr)
            return 2

    doc = {"machine": machine(), "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "revisions": {side: revision(checkout) for side, checkout in sides},
           "seconds": seconds, "seeds": args.seeds, "runs": [], "per_call": []}
    flip = 0
    for seed in args.seeds:
        for workload in workloads:
            order = sides if flip % 2 == 0 else sides[::-1]
            flip += 1
            for side, checkout in order:
                row = run_perfbench(side, checkout, workload, seed, seconds, 0)
                doc["runs"].append(row)
                print(f"bench: {side} {workload} seed {seed}: {row['result_line'][:120]}",
                      file=sys.stderr)
    for workload in workloads:
        for side, checkout in sides:
            doc["runs"].append(run_perfbench(side, checkout, workload, args.seeds[0], seconds, 1))
    for call in PER_CALL:
        for side, checkout in sides:
            doc["per_call"].append(run_snippet(side, checkout, *call))
    doc["summary"] = summarize(doc["runs"], better)

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    bad = [r for r in doc["runs"] + doc["per_call"] if not r["ok"]]
    for row in bad:
        print(f"bench: not ok: {row['side']} {row['command']}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
