"""Self-test of the benchmark's checkers; run from the checkout root:

    python3 perfbench/selftest.py [config_space phase_space cli]

For each workload it builds the operations for two seeds, runs one round
of each, and asserts that

1. every check passes on both seeds (the admissibility probes, which fail
   by design, aside);
2. every checker rejects deliberately wrong outputs: the output with its
   phase off by 1e-6 (a real quantity: off by 1e-6 relative), with its
   largest sample set to zero, and the output computed for the other
   seed's inputs (a different S, W, z0 or word).

A mutation that changes the output by less than 1.5 times the checker's
tolerance cannot be seen and is reported as below resolution: the 1e-6
phase against the 5e-6 tolerance of cubic interpolation, a second seed on
inputs that do not depend on the seed, a phase on an output that is zero.
Exits 1 when any check fails or any visible mutation is accepted.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
os.environ["PYTHONPATH"] = os.path.join(ROOT, "src")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import harness  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SEEDS = (0, 1)
PHASE = 1e-6


# ----------------------------------------------------------------------
# the value a mutation perturbs, and how to put it back into the output

def _csv_codec(data: bytes):
    head, _, body = data.partition(b"\n")
    vals = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)

    def encode(a):
        buf = io.StringIO()
        np.savetxt(buf, np.column_stack([a.real, a.imag]), delimiter=",", fmt="%.17g")
        return head + b"\n" + buf.getvalue().encode()
    return vals[:, 0] + 1j * vals[:, 1], encode


def _json_codec(data: bytes, keys):
    obj = json.loads(data)

    def encode(a):
        new = dict(obj)
        if keys == ("re", "im"):
            new["re"], new["im"] = float(a[0].real), float(a[0].imag)
        else:
            new[keys[0]] = type(obj[keys[0]])(a[0].real)
        return json.dumps(new).encode()
    if keys == ("re", "im"):
        return np.array([complex(obj["re"], obj["im"])]), encode
    return np.array([float(obj[keys[0]])]), encode


def _asymptotic_codec(data: bytes):
    head, _, body = data.partition(b"\n")
    rows = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)

    def encode(a):
        new = rows.copy()
        new[:, 1] = np.abs(a)
        buf = io.StringIO()
        np.savetxt(buf, new, delimiter=",", fmt="%.17g")
        return head + b"\n" + buf.getvalue().encode()
    return rows[:, 1], encode


CLI_CODECS = {
    "moyal": lambda d: _json_codec(d, ("re", "im")),
    "s0": lambda d: _json_codec(d, ("norm_value",)),
    "verify": lambda d: _json_codec(d, ("all_passed",)),
    "asymptotic": _asymptotic_codec,
}


def primary(op, out):
    """(array, rebuild): the output's main value and the inverse map."""
    if isinstance(out, bytes):
        return CLI_CODECS.get(op.name, _csv_codec)(out)
    if isinstance(out, dict):
        key = next(iter(out))
        return np.asarray(out[key]), lambda a: {**out, key: a.reshape(np.shape(out[key]))}
    return np.asarray(out), lambda a: a.reshape(np.shape(out))


def _phase_off(a):
    """The 1e-6 phase error; on a real quantity, the same relative error."""
    return a * np.exp(1j * PHASE) if np.iscomplexobj(a) else a * (1.0 + PHASE)


def _zero_largest(a):
    a = np.array(a, dtype=np.result_type(a, float))
    a.flat[int(np.argmax(np.abs(a)))] = 0.0
    return a


def _change(a, b) -> float:
    scale = float(np.max(np.abs(b)))
    return float(np.max(np.abs(a - b))) / scale if scale > 1e-12 else 0.0


def run_round(workload, mp, seed, tmp):
    ops = workload.setup(mp, seed, tmp)
    log = harness.RoundLog()
    harness.run_round(ops, log)
    return ops, log


def selftest(name: str) -> int:
    import importlib
    import metaplectic as mp

    workload = importlib.import_module(WORKLOADS[name])
    problems = 0
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        rounds = {}
        for seed in SEEDS:
            seed_tmp = os.path.join(tmp, f"seed{seed}")
            os.makedirs(seed_tmp)
            ops, log = run_round(workload, mp, seed, seed_tmp)
            failed = [op.name for op in ops if op.name not in log.first]
            bad = [(op.name, c.label) for op, checks in harness.check_outputs(ops, log.first)
                   for c in checks if not c.ok]
            probes = sum(1 for _, checks in log.probe_checks if not all(c.ok for c in checks))
            print(f"{name} seed {seed}: {len(ops)} operations, {len(failed)} raised, "
                  f"{len(bad)} checks failed, {probes} probes failing (expected "
                  f"{sum(op.probe for op in ops)})")
            problems += len(failed) + len(bad)
            for item in failed + bad:
                print(f"  FAIL {item}")
            rounds[seed] = (ops, dict(log.first))

        ops, outs = rounds[SEEDS[0]]
        other = rounds[SEEDS[1]][1]
        tally = {"rejected": 0, "below resolution": 0, "ACCEPTED": 0}
        for op in ops:
            if op.probe:
                continue
            base, rebuild = primary(op, outs[op.name])
            tol = min(c.tol for c in op.check(outs[op.name]))
            mutations = {
                "phase 1e-6": rebuild(_phase_off(base)),
                "largest sample zeroed": rebuild(_zero_largest(base)),
                "other seed's output": other[op.name],
            }
            for label, wrong in mutations.items():
                if _change(primary(op, wrong)[0], base) <= 1.5 * tol:
                    verdict = "below resolution"
                else:
                    verdict = ("rejected" if not all(c.ok for c in op.check(wrong))
                               else "ACCEPTED")
                tally[verdict] += 1
                if verdict == "ACCEPTED":
                    problems += 1
                    print(f"  FAIL {op.name}: {label} accepted")
        print(f"{name} mutations: " + ", ".join(f"{v} {k}" for k, v in tally.items()))
    try:
        os.rmdir(scratch)
    except OSError:
        pass
    return problems


def main(argv) -> int:
    names = argv or ["config_space", "phase_space", "cli"]
    problems = sum(selftest(n) for n in names)
    print("selftest:", "ok" if not problems else f"{problems} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
