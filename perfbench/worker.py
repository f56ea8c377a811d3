"""One workload in one fresh process.

    python perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --tmp DIR [--setup-only]

Imports the package, builds the workload's inputs, runs whole rounds for
S seconds, checks the outputs, and prints one JSON line.  ``run.py`` starts
it; it is not meant to be run by hand except for debugging.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pickle
import resource
import statistics
import sys

import harness
import tracing

WORKLOADS = {"config_space": "wl_config_space", "phase_space": "wl_phase_space",
             "cli": "wl_cli"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = importlib.import_module(WORKLOADS[args.workload])
    import metaplectic as mp

    ops = workload.setup(mp, args.seed, args.tmp)
    if args.setup_only:
        print(json.dumps({"ops": len(ops)}))
        return 0

    log = harness.RoundLog()
    spill = os.path.join(args.tmp, "first_round.pickle")

    def spill_first(log):
        # keep the first round's outputs out of memory while later rounds run
        with open(spill, "wb") as fh:
            pickle.dump(log.first, fh, protocol=pickle.HIGHEST_PROTOCOL)
        log.first = {}

    if args.trace:
        harness.run_rounds(ops, 0.5 * args.seconds, log, on_first=spill_first)
        tracer = tracing.Tracer()
        known = getattr(workload, "install_trace", tracing.install)(tracer)
        harness.run_rounds(ops, 0.5 * args.seconds, log, traced=True)
    else:
        harness.run_rounds(ops, args.seconds, log, on_first=spill_first)
    peak_kb = getattr(workload, "peak_rss_kb", _own_peak_kb)()

    with open(spill, "rb") as fh:  # written above by this process
        first = pickle.load(fh)
    summary = harness.summarize(harness.check_outputs(ops, first), log)

    if args.trace:
        rounds = len(log.traced_times)
        metrics = harness.span_metrics(tracer.spans + getattr(workload, "extra_spans", []),
                                       rounds, known)
        metrics.update(getattr(workload, "layer_metrics", lambda: {})())
        for variant in harness.CLI_VARIANTS:  # no command ran on this workload
            metrics.setdefault(f"cli.{variant}.p50_s", {"value": 0.0, "unit": "s"})
        for name, key in harness.DIGIT_METRICS.items():
            err = summary["layer_worst"].get(key)
            metrics[name] = {"value": harness.digits(err) if err is not None else 0.0,
                             "unit": "digits"}
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(log.traced_times) / statistics.median(log.times),
            "unit": "ratio"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(log.times), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            "accuracy_digits": {"value": harness.digits(summary["worst_exact"]),
                                "unit": "digits"},
        }
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": log.attempted,
        "failed": log.failed,
        "rounds": len(log.times) + len(log.traced_times),
        "metrics": metrics,
    }))
    return 0


def _own_peak_kb() -> float:
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


if __name__ == "__main__":
    sys.exit(main())
