"""wextrap benchmark: one seeded workload, end to end or traced per layer.

    python3 perfbench/run.py --workload {oracle,certificate,contrast}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  The program is used from source (`src/`);
nothing is installed.  Set-up time is the median of several cold
interpreter starts that import wextrap, generate the configs and load the
references, each normalized by the calibration probe (calibration.py).  The workload itself runs in one further process with the BLAS
thread cap fixed below.  Every metric is printed by name with its unit; the
last line is one JSON object with the keys correct, attempted, failed and
metrics.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 9
BLAS_THREAD_CAP = 1
# A run must end within 180 s; the workers get what is left of this.
RUN_LIMIT_S = 170
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                  "NUMEXPR_NUM_THREADS")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({v: str(BLAS_THREAD_CAP) for v in BLAS_VARIABLES})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class WorkerFailed(Exception):
    pass


def _worker(args, extra, timeout) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_seconds(args, deadline) -> tuple[list[float], list[float]]:
    """(normalized, wall) launch-to-ready times of SETUP_SAMPLES cold starts.

    Each start is normalized by the calibration probe its own process times
    right after it is ready: on the same CPU and in the same host state as
    the start, which a probe in this process would not see."""
    import calibration

    normalized, wall = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        ready = _worker(args, ["--setup-only"], deadline - start)
        wall.append(ready["ready"] - start)
        normalized.append(calibration.normalized(wall[-1], ready["probe_s"]))
    return normalized, wall


def _git_commit():
    """HEAD of the checkout, or None outside a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "wextrap", "cli.py")):
        print("no wextrap source under src/; run from the repository root",
              file=sys.stderr)
        return 2
    spec = _spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # Build: byte-compile once, so no timed start pays for compilation.
    deadline = time.monotonic() + RUN_LIMIT_S
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=ROOT, check=True, capture_output=True, timeout=120)
    try:
        setup, setup_wall = ([], []) if args.trace \
            else _setup_seconds(args, deadline)
        result = _worker(args, [], min(2 * args.seconds + 60,
                                       deadline - time.monotonic()))
    except WorkerFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = dict(result["metrics"], setup_s=statistics.median(setup)
                    if setup else None)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}
    provenance = dict(result["provenance"], git_commit=_git_commit(),
                      blas_thread_cap=BLAS_THREAD_CAP,
                      wextrap_threads="unset", setup_samples_s=setup,
                      setup_wall_samples_s=setup_wall)
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print("detail: " + json.dumps(result["detail"], sort_keys=True))
    if result["detail"]["known_defects"]:
        print(f"known defects: {len(result['detail']['known_defects'])} ops "
              "repeat a wrong verdict of the reference commit (see "
              "perfbench/README.md)")
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    for failure in result["failures"]:
        print("failed: " + json.dumps(failure), file=sys.stderr)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
