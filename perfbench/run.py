"""Benchmark entry point; run from the root of a source checkout:

    python3 perfbench/run.py --workload {config_space,phase_space,cli} \
        --seed N --seconds S --trace {0,1}

Each workload runs in a fresh single-threaded process (``worker.py``) with
``src`` on PYTHONPATH, so the package needs no installation.  With
``--trace 0`` the last line of output is the end-to-end metrics:

* ``setup_s``: median over three fresh processes of interpreter start to
  ``import metaplectic`` done and the workload's inputs built;
* ``wall_s``: median time of one round, the workload's fixed batch of calls;
* ``peak_rss_mb``: peak resident memory of the workload process (cli: of
  the largest command process);
* ``accuracy_digits``: -log10 of the worst relative error among the outputs
  checked against an exact reference.

With ``--trace 1`` it is the per-layer metrics instead (see README.md).
Scratch files go to a temporary directory under ``.perfbench_tmp/`` that is
removed at exit.  Exits non-zero, printing no result, when the source tree
is missing or a process fails or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Overrun(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("METAPLECTIC_CONFIG", None)
    return env


def run_child(cmd: list, env: dict, deadline: float) -> tuple:
    """(wall seconds, stdout) of a child that must exit 0 before the deadline."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise Overrun("no time left")
    t0 = time.perf_counter()
    # own process group, so an overrun also stops the commands a worker started
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise Overrun(f"{' '.join(cmd[1:4])} overran") from exc
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:4])} exited {proc.returncode}")
    return wall, out.decode()


def import_times(env: dict, deadline: float) -> dict:
    """Self time of the package's modules and of third-party modules in
    ``python -X importtime -c 'import metaplectic'`` (median of three)."""
    own, third = [], []
    stdlib = set(sys.stdlib_module_names)
    for _ in range(3):
        remaining = deadline - time.monotonic()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import metaplectic"],
                              env=env, capture_output=True, timeout=max(remaining, 1.0))
        if proc.returncode != 0:
            raise RuntimeError("import metaplectic failed")
        mine = other = 0
        for line in proc.stderr.decode().splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            fields = line.split("|")
            self_us = int(fields[0].split(":")[1])
            top = fields[2].strip().split(".")[0]
            if top == "metaplectic":
                mine += self_us
            elif top not in stdlib and not top.startswith("_"):
                other += self_us
        own.append(mine / 1e6)
        third.append(other / 1e6)
    return {"import.metaplectic_s": {"value": statistics.median(own), "unit": "s"},
            "import.third_party_s": {"value": statistics.median(third), "unit": "s"}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("config_space", "phase_space", "cli"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # a terminated benchmark unwinds through run_child, which stops its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "metaplectic", "__init__.py")):
        print("perfbench: run from the root of a source checkout (src/metaplectic missing)",
              file=sys.stderr)
        return 2
    env = child_env(root)
    scratch = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    worker = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed)]
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            setups = []
            if not args.trace:
                for k in range(SETUP_PROBES):
                    probe_tmp = os.path.join(tmp, f"setup{k}")
                    os.makedirs(probe_tmp)
                    setups.append(run_child(worker + ["--tmp", probe_tmp, "--setup-only"],
                                            env, deadline)[0])
            run_tmp = os.path.join(tmp, "run")
            os.makedirs(run_tmp)
            _, out = run_child(worker + ["--tmp", run_tmp, "--seconds", str(args.seconds),
                                         "--trace", str(args.trace)], env, deadline)
            result = json.loads(out.strip().splitlines()[-1])
            if args.trace:
                result["metrics"].update(import_times(env, deadline))
            else:
                result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    except (Overrun, RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    print(f"perfbench: {args.workload} seed {args.seed}: {result.pop('rounds')} rounds",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
