"""Workload ``cli``: the command-line tool as a user drives it.

Every operation is one ``python -m metaplectic.cli`` process on files in
the run's temporary directory, so each pays the package import and the
17-digit CSV reads and writes.  One round runs, in order:

    wigner (h1), phase-apply s1 / alfa1 / alfa2 (rotation word on the
    Gaussian Wigner file), moyal (Gaussian Wigner against the wigner
    output), apply factored (seeded two-factor word), apply bochner
    (rotation word), s0, asymptotic (hbar 0.1, 0.05), verify --suite all.

Set-up imports the package and writes the input files with its own
``save_sampled`` / ``save_phase``.  The output files are read back with
NumPy alone and checked against closed forms.  In a traced run each
command instead runs ``cli_traced.py``, which calls ``metaplectic.cli.main``
in a fresh interpreter with spans installed.
"""

from __future__ import annotations

import io
import json
import math
import os
import resource
import subprocess
import sys
import time

import numpy as np

import inputs
import reference as ref
from harness import BOCHNER_TOL, CLI_VARIANTS, EXACT_TOL, HBAR, Check, Op

N, X = 512, 12.0
ALPHA = 2 * math.pi / 3
Z_EVAL = (0.7, -0.4)
HERE = os.path.dirname(os.path.abspath(__file__))

# traced-run state: spans and wrapped names reported by the children,
# and each command variant's process wall time
extra_spans: list = []
_known: set = set()
_walls: dict = {}
_traced = []


def install_trace(tracer) -> set:
    _traced.append(True)
    return _known


def peak_rss_kb() -> float:
    """The largest command process (every child has been waited for)."""
    return float(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def layer_metrics() -> dict:
    return {f"cli.{v}.p50_s": {"value": float(np.median(_walls[v])), "unit": "s"}
            for v in CLI_VARIANTS if v in _walls}


def _read_csv(data: bytes) -> tuple:
    """Header dict and complex payload of a sampled or phase CSV file."""
    head, _, body = data.partition(b"\n")
    vals = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
    return json.loads(head), vals[:, 0] + 1j * vals[:, 1]


def _phase_values(data: bytes) -> np.ndarray:
    header, flat = _read_csv(data)
    return flat.reshape(int(header["N"]), int(header["N_p"]))


def _word_json(factors) -> str:
    return json.dumps([{"P": [[float(P[0, 0])]], "L": [[float(L[0, 0])]],
                        "Q": [[float(Q[0, 0])]], "m": int(m)} for P, L, Q, m in factors])


def setup(mp, seed: int, tmp: str):
    grid = mp.Grid(1, N, X)
    x, p = ref.phase_axes(N, X, HBAR)
    phi0 = ref.hermite(0, x, HBAR)
    din = os.path.join(tmp, "in")
    dout = os.path.join(tmp, "out")
    os.makedirs(din, exist_ok=True)
    os.makedirs(dout, exist_ok=True)
    f0 = mp.SampledFunction(grid, HBAR, phi0)
    mp.save_sampled(os.path.join(din, "f0.csv"), f0)
    mp.save_sampled(os.path.join(din, "h1.csv"),
                    mp.SampledFunction(grid, HBAR, ref.hermite(1, x, HBAR)))
    mp.save_phase(os.path.join(din, "F00.csv"), mp.cross_wigner(f0, f0))
    rot = [ref.rotation_generating(ALPHA) + (0,)]
    factors = inputs.word_factors(inputs.rng_for(seed, 10))
    for name, word in (("rot.json", rot), ("word.json", factors)):
        with open(os.path.join(din, name), "w", encoding="utf-8") as fh:
            fh.write(_word_json(word))

    def path(d, name):
        return os.path.join(din if d == "in" else dout, name)

    gauss_w = ref.gaussian_wigner(x, p, HBAR)
    alpha1, c1 = ref.standard_gaussian(1, HBAR)
    commands = {
        "wigner": (["wigner", "--f", path("in", "h1.csv"), "--out", path("out", "W11.csv")],
                   "W11.csv", lambda d: [Check("W(h1, h1) closed form", ref.rel_err(
                       _phase_values(d), ref.hermite1_wigner(x, p, HBAR)), EXACT_TOL)],
                   "phase_space"),
        "moyal": (["moyal", "--f", path("in", "F00.csv"), "--g", path("out", "W11.csv")],
                  None, lambda d: [Check("Moyal identity (h0 | h1) = 0", abs(complex(
                      json.loads(d)["re"], json.loads(d)["im"])) * 2 * math.pi * HBAR, EXACT_TOL)],
                  "phase_space"),
        "apply.factored": (["apply", "--method", "factored", "--word", path("in", "word.json"),
                            "--in", path("in", "f0.csv"), "--out", path("out", "fact.csv")],
                           "fact.csv", lambda d: [Check("closed-form Gaussian", ref.rel_err(
                               _read_csv(d)[1], ref.gaussian_values(
                                   *ref.gaussian_word(factors, alpha1, c1, HBAR), [x], HBAR)),
                               EXACT_TOL)], "operators"),
        "apply.bochner": (["apply", "--method", "bochner", "--word", path("in", "rot.json"),
                           "--in", path("in", "f0.csv"), "--out", path("out", "boch.csv")],
                          "boch.csv", lambda d: [Check("Mehler eigenphase", ref.rel_err(
                              _read_csv(d)[1], np.exp(-0.5j * ALPHA) * phi0), BOCHNER_TOL,
                              exact=False, group="bochner_apply")], "operators"),
        "s0": (["s0", "--psi", path("in", "f0.csv"), "--window", "hermite:0"],
               None, lambda d: [
                   Check("L1 norm of the Gaussian Wigner function",
                         abs(json.loads(d)["norm_value"] - 1.0), EXACT_TOL),
                   Check("truncation estimate", json.loads(d)["truncation_estimate"], 1e-8,
                         exact=False)], "feichtinger"),
        "asymptotic": (["asymptotic", "--alpha", repr(ALPHA), "--hbar-list", "0.1,0.05",
                        "--z", f"{Z_EVAL[0]},{Z_EVAL[1]}"], None, _asymptotic_check,
                       "asymptotics"),
        "verify": (["verify", "--suite", "all", "--seed", str(seed % 2 ** 32)], None,
                   lambda d: [Check("every verify check passes",
                                    float(not json.loads(d)["all_passed"]), 0.5, exact=False)],
                   "verify"),
    }
    for form in ("s1", "alfa1", "alfa2"):
        commands[f"phase-apply.{form}"] = (
            ["phase-apply", "--form", form, "--word", path("in", "rot.json"),
             "--in", path("in", "F00.csv"), "--out", path("out", f"pa_{form}.csv")],
            f"pa_{form}.csv", lambda d: [Check("Gaussian eigenphase", ref.rel_err(
                _phase_values(d), np.exp(-0.5j * ALPHA) * gauss_w), EXACT_TOL)],
            "phase_space")
    ops = []
    for variant in CLI_VARIANTS:
        argv, outfile, check, layer = commands[variant]
        ops.append(Op(variant, layer,
                      _command(variant, argv, outfile and path("out", outfile), tmp),
                      check))
    return ops


def _asymptotic_check(data: bytes) -> list:
    rows = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)
    checks = []
    for hbar, lead, _, _ in rows:
        # |leading term| is branch-free, so nu does not matter here
        expected = abs(ref.stationary_leading(
            ref.rotation(ALPHA), 0, lambda z: math.exp(-float(z @ z)), np.array(Z_EVAL), hbar))
        checks.append(Check(f"closed-form |leading term| at hbar={hbar:g}",
                            abs(lead - expected) / expected, EXACT_TOL))
    checks.append(Check("error halves with hbar", abs(rows[1, 3] / rows[0, 3] - 0.5), 0.2,
                        exact=False))
    return checks


def _command(variant: str, argv: list, outfile: str | None, tmp: str):
    spans_path = os.path.join(tmp, "spans.json")

    def call():
        if _traced:
            cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"), spans_path] + argv
        else:
            cmd = [sys.executable, "-m", "metaplectic.cli"] + argv
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, cwd=tmp, timeout=150)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode()[-400:]}")
        if _traced:
            _walls.setdefault(variant, []).append(wall)
            with open(spans_path, encoding="utf-8") as fh:
                rec = json.load(fh)
            extra_spans.extend(tuple(s) for s in rec["spans"])
            _known.update(rec["known"])
        if outfile is None:
            return proc.stdout
        with open(outfile, "rb") as fh:
            return fh.read()
    return call
