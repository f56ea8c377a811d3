"""Rounds, checks and metrics shared by the workloads.

A workload is a fixed list of operations.  One *round* calls each of them
once, in order; a run repeats whole rounds until its time is used up, so
the share of failed operations is the same in every run.  Outputs are
checked after the timed rounds: the first round's outputs in full against
their references, every later round's by a fingerprint against the first.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

HBAR = 1.0
EXACT_TOL = 1e-9     # references met to rounding: measured 1e-16 .. 1e-11
BOCHNER_TOL = 5e-7   # truncated phase-space (Bochner) quadrature: measured 3.9e-8


@dataclass
class Check:
    """One comparison of an output with its reference.

    ``exact`` marks references the method should meet to rounding; only
    those enter ``accuracy_digits``.  Method-inherent errors (quadrature
    truncation, cubic interpolation, the small-hbar ladder) are checked
    against their tolerance and reported per layer."""

    label: str
    err: float
    tol: float
    exact: bool = True
    group: str = ""      # per-layer digits key for a method-inherent error

    @property
    def ok(self) -> bool:
        return bool(np.isfinite(self.err) and self.err <= self.tol)


@dataclass
class Op:
    """One call into the program.  ``probe`` marks an admissibility probe:
    a probe whose check fails counts as a failed operation."""

    name: str
    layer: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    probe: bool = False


@dataclass
class RoundLog:
    times: list = field(default_factory=list)
    traced_times: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    first: dict = field(default_factory=dict)
    fingerprints: dict = field(default_factory=dict)
    unstable: list = field(default_factory=list)
    probe_checks: list = field(default_factory=list)


def fingerprint(obj) -> tuple:
    """Cheap summary of an output, compared across rounds with a relative
    tolerance (reductions may differ in the last bits between calls)."""
    if isinstance(obj, np.ndarray):
        a = obj.astype(complex).ravel()
        return ("array", obj.shape, float(np.sum(np.abs(a))),
                float(np.abs(np.sum(a * np.arange(1, a.size + 1)))))
    if isinstance(obj, (bytes, str)):
        data = obj.encode() if isinstance(obj, str) else obj
        return ("bytes", hashlib.sha256(data).hexdigest())
    if isinstance(obj, (tuple, list)):
        return ("seq",) + tuple(fingerprint(o) for o in obj)
    if isinstance(obj, dict):
        return ("dict",) + tuple((k, fingerprint(obj[k])) for k in sorted(obj))
    return ("value", obj)


def _same(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-300)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def run_round(ops: list, log: RoundLog, traced: bool = False) -> bool:
    """Call every operation once and time the whole batch; True when this
    was the first round, whose outputs are now in ``log.first``."""
    outputs = {}
    errors = {}
    t0 = time.perf_counter()
    for op in ops:
        try:
            outputs[op.name] = op.call()
        except Exception as exc:  # an operation that raises is a failed one
            errors[op.name] = exc
    elapsed = time.perf_counter() - t0
    (log.traced_times if traced else log.times).append(elapsed)
    log.attempted += len(ops)
    log.failed += len(errors)
    for name, exc in errors.items():
        print(f"operation {name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    first_round = not log.first and not log.fingerprints
    for op in ops:
        if op.name not in outputs:
            continue
        out = outputs[op.name]
        if op.probe:
            checks = op.check(out)
            log.probe_checks.append((op, checks))
            if not all(c.ok for c in checks):
                log.failed += 1
        fp = fingerprint(out)
        if first_round:
            log.first[op.name] = out
            log.fingerprints[op.name] = fp
        elif op.name in log.fingerprints and not _same(fp, log.fingerprints[op.name]):
            log.unstable.append(op.name)
    return first_round


def run_rounds(ops: list, seconds: float, log: RoundLog, traced: bool = False,
               on_first=None) -> None:
    """Whole rounds until ``seconds`` have passed (at least one)."""
    start = time.perf_counter()
    while True:
        if run_round(ops, log, traced) and on_first is not None:
            on_first(log)
        if time.perf_counter() - start >= seconds:
            return


def check_outputs(ops: list, outputs: dict) -> list:
    """Full checks of one round's outputs: (op, [Check, ...]) per
    non-probe operation that returned."""
    results = []
    for op in ops:
        if op.probe or op.name not in outputs:
            continue
        try:
            checks = op.check(outputs[op.name])
        except Exception as exc:  # a checker that cannot read the output rejects it
            checks = [Check(f"{op.name}: unreadable ({type(exc).__name__}: {exc})",
                            math.inf, 0.0)]
        results.append((op, checks))
    return results


def digits(err: float) -> float:
    """-log10 of a relative error, capped at 16 (rounding of doubles)."""
    return -math.log10(max(err, 1e-16))


def summarize(results: list, log: RoundLog) -> dict:
    """Correctness, worst exact error, and worst error per layer."""
    correct = not log.unstable
    worst = 0.0
    layer_worst: dict = {}
    for op, checks in results:
        for c in checks:
            if not c.ok:
                correct = False
                print(f"check failed: {op.name} {c.label}: {c.err:.3e} > {c.tol:.1e}",
                      file=sys.stderr)
            for key in ([op.layer] if c.exact else []) + ([c.group] if c.group else []):
                layer_worst[key] = max(layer_worst.get(key, 0.0), c.err)
            if c.exact:
                worst = max(worst, c.err)
    for name in log.unstable:
        print(f"check failed: {name} changed between rounds", file=sys.stderr)
    return {"correct": correct, "worst_exact": worst, "layer_worst": layer_worst}


# ----------------------------------------------------------------------
# per-layer metrics from spans

def _pct(values: list, q: float) -> float:
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    pos = q * (len(values) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


_SCALE = {"p50_ms": (0.5, 1e3), "p90_ms": (0.9, 1e3), "p50_us": (0.5, 1e6),
          "p50_s": (0.5, 1.0)}

# metric -> (span name, kind or None for every kind, statistic, unit)
SPAN_METRICS = {
    "operators.factor_pair.p50_us": ("operators.factor_pair", None, "p50_us", "us"),
    "indices.conley_zehnder.p50_us": ("indices.conley_zehnder", None, "p50_us", "us"),
    "grids.interpolate_values.p50_ms": ("grids.interpolate_values", None, "p50_ms", "ms"),
    "grids.interpolate_values.calls": ("grids.interpolate_values", None, "calls", "count"),
    "operators.qfio_apply.factored_n1.p50_ms": ("operators.qfio_apply", "factored_n1", "p50_ms", "ms"),
    "operators.qfio_apply.factored_n1.p90_ms": ("operators.qfio_apply", "factored_n1", "p90_ms", "ms"),
    "operators.qfio_apply.factored_n2.p50_ms": ("operators.qfio_apply", "factored_n2", "p50_ms", "ms"),
    "operators.qfio_apply.quadrature.p50_ms": ("operators.qfio_apply", "quadrature", "p50_ms", "ms"),
    "operators.heisenberg_weyl.p50_ms": ("operators.heisenberg_weyl", "on_lattice", "p50_ms", "ms"),
    "operators.heisenberg_weyl.off_lattice.p50_ms": ("operators.heisenberg_weyl", "off_lattice", "p50_ms", "ms"),
    "operators.bochner_apply.p50_ms": ("operators.bochner_apply", None, "p50_ms", "ms"),
    "nufft.nufft2d2.p50_ms": ("nufft.nufft2d2", None, "p50_ms", "ms"),
    "nufft.nufft2d2.self_s": ("nufft.nufft2d2", None, "self_s", "s"),
    "nufft.nufft2d2.calls": ("nufft.nufft2d2", None, "calls", "count"),
    "phase_space.metaplectic_phase_apply.s1.p50_ms": ("phase_space.metaplectic_phase_apply", "s1", "p50_ms", "ms"),
    "phase_space.metaplectic_phase_apply.alfa1.p50_ms": ("phase_space.metaplectic_phase_apply", "alfa1", "p50_ms", "ms"),
    "phase_space.metaplectic_phase_apply.alfa2.p50_ms": ("phase_space.metaplectic_phase_apply", "alfa2", "p50_ms", "ms"),
    "phase_space.metaplectic_phase_apply.rotation.p50_ms": ("phase_space.metaplectic_phase_apply", "rotation", "p50_ms", "ms"),
    "phase_space.metaplectic_phase_apply.self_s": ("phase_space.metaplectic_phase_apply", None, "self_s", "s"),
    "phase_space.cross_wigner.p50_ms": ("phase_space.cross_wigner", None, "p50_ms", "ms"),
    "phase_space.bopp_apply.p50_ms": ("phase_space.bopp_apply", None, "p50_ms", "ms"),
    "phase_space.moyal_inner.p50_ms": ("phase_space.moyal_inner", None, "p50_ms", "ms"),
    "feichtinger.s0_via_phase_metaplectic.p50_ms": ("feichtinger.s0_via_phase_metaplectic", None, "p50_ms", "ms"),
    "feichtinger.s0_norm.p50_ms": ("feichtinger.s0_norm", None, "p50_ms", "ms"),
    "asymptotics.metaplectic_asymptotic.hbar_0.1.p50_ms": ("asymptotics.metaplectic_asymptotic", "hbar_0.1", "p50_ms", "ms"),
    "asymptotics.metaplectic_asymptotic.hbar_0.05.p50_ms": ("asymptotics.metaplectic_asymptotic", "hbar_0.05", "p50_ms", "ms"),
    "asymptotics.metaplectic_asymptotic.hbar_0.025.p50_ms": ("asymptotics.metaplectic_asymptotic", "hbar_0.025", "p50_ms", "ms"),
    "asymptotics.oscillatory_quadrature.self_s": ("asymptotics.oscillatory_quadrature", None, "self_s", "s"),
}
SPAN_METRICS.update({
    f"serialization.{verb}_{what}.MB_per_s": (f"serialization.{verb}_{what}", None, "MB_per_s", "MB/s")
    for verb in ("save", "load") for what in ("phase", "sampled")
})
SUITES = ("core", "indices", "operators", "phase", "feichtinger", "asymptotics")
SPAN_METRICS.update({
    f"verify.run_suite.{suite}_s": (f"verify.suite_{suite}", None, "p50_s", "s") for suite in SUITES
})

# command variants of the cli workload, in the order a round runs them
CLI_VARIANTS = ("wigner", "phase-apply.s1", "phase-apply.alfa1", "phase-apply.alfa2",
                "moyal", "apply.factored", "apply.bochner", "s0", "asymptotic", "verify")

# layers whose worst relative error is reported as digits:
# metric -> key of summarize()["layer_worst"]
DIGIT_METRICS = {
    "operators.digits": "operators",
    "phase_space.digits": "phase_space",
    "operators.bochner_apply.digits": "bochner_apply",
}


def span_metrics(spans: list, rounds: int, known: set) -> dict:
    """Per-layer metrics from spans gathered over ``rounds`` traced rounds.

    Counts and self times are per round.  A metric whose span name is not
    among the ``known`` wrapped functions is omitted; one that exists but
    was not called on this workload reads 0."""
    by_name: dict = {}
    for name, kind, dur, self_s, nbytes in spans:
        by_name.setdefault(name, []).append((kind, dur, self_s, nbytes))
    out = {}
    for metric, (span, kind, stat, unit) in SPAN_METRICS.items():
        if span not in known:
            continue
        calls = [c for c in by_name.get(span, []) if kind is None or c[0] == kind]
        if stat == "calls":
            value = len(calls) / rounds
        elif stat == "self_s":
            value = sum(c[2] for c in calls) / rounds
        elif stat == "MB_per_s":
            busy = sum(c[1] for c in calls)
            value = sum(c[3] for c in calls) / busy / 1e6 if busy > 0 else 0.0
        else:
            q, scale = _SCALE[stat]
            value = _pct([c[1] for c in calls], q) * scale if calls else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out
