"""One workload in one process: set up, run a pass, check every op.

Started by run.py, which fixes the environment (BLAS thread cap, import
path) before this interpreter starts.  `--setup-only` stops when the
workload is ready and prints the monotonic clock and the calibration
probe's time, so the parent can time and normalize a cold start.  Otherwise the worker prints one JSON line with the raw
measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import ops  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
WORK = os.path.join(HERE, "_work")
# Probes timed before a pass, so the first op's probe runs warm.
WARMUP_PROBES = 5


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    for sub in ("configs", "artifacts"):
        os.makedirs(os.path.join(path, sub))
    return path


def _op_name(index, cfg):
    return f"op{index:04d}-{catalog.config_id(cfg)}"


def timed_pass(cli_main, blocks, workdir, seconds):
    """Run whole blocks until the pass ends or `seconds` have elapsed.

    The calibration probe is timed before every op and after the last, so
    op i ran between probes i and i + 1.  Returns (ops, probe seconds) with
    ops as (name, cfg, code, latency, error)."""
    import calibration

    for _ in range(WARMUP_PROBES):
        calibration.probe_seconds()
    done, probes = [], []
    t0 = time.perf_counter()
    for block in blocks:
        if time.perf_counter() - t0 >= seconds:
            break
        for cfg in block:
            name = _op_name(len(done), cfg)
            probes.append(calibration.probe_seconds())
            done.append((name, cfg) + ops.run_op(cli_main, cfg, name, workdir))
    probes.append(calibration.probe_seconds())
    return done, probes


def traced_run(cli_main, cfgs, plain_dir, traced_dir):
    """Run every config untraced and traced, alternating which goes first.

    Tracing is installed only around the traced run of each op, so the
    untraced runs execute the program as shipped.  Pairing the two runs of
    an op in time keeps machine noise and first-touch effects out of the
    overhead estimate.  Returns (tracer, plain ops, traced ops)."""
    from tracing import Tracer

    tracer = Tracer()
    traced_main = tracer.wrap(cli_main, "cli.main")
    plain, traced = [], []
    for index, cfg in enumerate(cfgs):
        name = _op_name(index, cfg)
        for run_traced in ((False, True) if index % 2 == 0 else (True, False)):
            if not run_traced:
                plain.append((name, cfg) + ops.run_op(cli_main, cfg, name,
                                                      plain_dir))
                continue
            tracer.op = index
            tracer.install()
            try:
                traced.append((name, cfg) + ops.run_op(traced_main, cfg, name,
                                                       traced_dir))
            finally:
                tracer.uninstall()
    return tracer, plain, traced


def _artifact_files(workdir, name):
    art = os.path.join(workdir, "artifacts")
    return [os.path.join(art, f"{name}{ext}") for ext in (".json", ".csv")
            if os.path.exists(os.path.join(art, f"{name}{ext}"))]


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def check_ops(done, workdir, reference):
    """(failures, known defects) of the ops in `done`."""
    failures, known = [], []
    for name, cfg, code, _, error in done:
        cid = catalog.config_id(cfg)
        doc = None
        if error is None:
            try:
                doc = ops.read_artifact(workdir, name)
            except ValueError as exc:
                error = f"unreadable artifact: {exc}"
        problems, is_known = ops.check(cfg, code, error, doc,
                                       reference["entries"].get(cid),
                                       reference["known_defects"].get(cid))
        if problems:
            failures.append({"op": name, "problems": problems[:3]})
        if is_known:
            known.append(name)
    return failures, known


def percentile(values, q):
    """Linear-interpolation percentile, as numpy's default computes it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _provenance(workload, seed, done):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas = "unknown"
    counts: dict = {}
    for _, cfg, *_ in done:
        counts[cfg["experiment"]] = counts.get(cfg["experiment"], 0) + 1
    return {"workload": workload, "seed": seed,
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas, "op_counts": dict(sorted(counts.items()))}


def end_to_end(workload, done, probes, workdir):
    """Latency and throughput metrics from the normalized op times (see
    calibration.py); the raw wall-time figures go to the detail."""
    import calibration

    wall = [op[3] for op in done]
    latencies = [calibration.normalized(w, 0.5 * (probes[i] + probes[i + 1]))
                 for i, w in enumerate(wall)]
    q = catalog.TAIL_PERCENTILE[workload]
    tail = percentile(latencies, q)
    with open(os.path.join(workdir, "latencies.json"), "w") as fh:
        json.dump({op[0]: {"wall_s": op[3], "normalized_s": x}
                   for op, x in zip(done, latencies)}, fh)
    probe_q = statistics.quantiles(probes, n=4)
    return ({"exp_per_s": len(done) / sum(latencies),
             "latency_p50_s": percentile(latencies, 50),
             "latency_tail_s": tail},
            {"tail_percentile": q, "samples": len(latencies),
             "samples_beyond_tail": sum(1 for x in latencies if x > tail),
             "wall": {"pass_s": sum(wall),
                      "exp_per_s": len(done) / sum(wall),
                      "latency_p50_s": percentile(wall, 50),
                      "latency_tail_s": percentile(wall, q)},
             "probe_s": {"reference": calibration.REFERENCE_S,
                         "quartiles": probe_q,
                         "min": min(probes), "max": max(probes)}})


def per_layer(tracer, plain_s, traced_s, artifact_bytes):
    rows = tracer.by_name()
    counts = tracer.counts

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    def self_s(name):
        return rows.get(name, {}).get("self_s", 0.0)

    out = {}
    for name in ("grids.family_averages", "grids.family_extrema",
                 "weights.class_constant", "weights.membership",
                 "characterization.reverse_holder_check",
                 "interpolation.solve_theta", "compactness.discretize",
                 "operators.apply_pairs.fractional",
                 "operators.apply_pairs.cz_model",
                 "operators.apply_pairs.multiplier"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    for name in ("weights.weight_eval", "weights.bmo_norm",
                 "characterization.verify_equivalence",
                 "interpolation.convexity_identity_check",
                 "interpolation.product_bound_check",
                 "operators.commutator", "operators.symbol_sobolev_norm",
                 "compactness.approximation_numbers",
                 "compactness.matched_amplitude",
                 "compactness.boundedness_sweep", "cli.validate_config",
                 "cli.runner", "serialization.canonical_json"):
        out[f"{name}.self_s"] = self_s(name)
    quad = counts["grids.quad_node_evals"]
    steps = counts["interpolation.theta_steps"]
    out.update({
        "grids.quad_node_evals": quad,
        "grids.leaf_weight_evals": counts["grids.leaf_weight_evals"],
        "grids.evals_per_base_node": (quad / counts["grids.base_nodes"]
                                      if counts["grids.base_nodes"] else 0.0),
        "interpolation.theta_steps": steps,
        "interpolation.certified_per_step": (
            counts["interpolation.certified"] / steps if steps else 0.0),
        "operators.kernel.n_scaling": tracer.kernel_n_scaling(),
        "compactness.svd_elems": counts["compactness.svd_elems"],
        "cli.artifact_bytes": artifact_bytes,
        "trace_overhead_frac": traced_s / plain_s - 1.0,
    })
    return out, rows


def compare_artifacts(done, plain_dir, traced_dir):
    """Failures for ops whose traced artifacts differ from the untraced ones."""
    failures = []
    for name, *_ in done:
        plain = [_read(f) for f in _artifact_files(plain_dir, name)]
        traced = [_read(f) for f in _artifact_files(traced_dir, name)]
        if plain != traced:
            failures.append({"op": name, "problems": [
                "traced artifacts differ from untraced ones"]})
    return failures


# The most of the traced pass that may lie outside every layer span: the
# self time of cli.main (argument parsing, file I/O) plus the timed time
# outside any span.  0.5-1.5% on the seed code.
UNTRACED_LIMIT = 0.03


def traced_report(tracer, done, traced, traced_dir):
    """Per-layer metrics, after checking the spans: see Tracer.check_spans,
    and the layer spans must cover all but UNTRACED_LIMIT of the pass."""
    plain_s = sum(op[3] for op in done)
    traced_s = sum(op[3] for op in traced)
    artifact_bytes = sum(os.path.getsize(f) for name, *_ in traced
                         for f in _artifact_files(traced_dir, name))
    metrics, rows = per_layer(tracer, plain_s, traced_s, artifact_bytes)
    covered = sum(end - start for _, start, end, parent, _ in tracer.spans
                  if parent < 0)
    rows["bench.harness"] = {"calls": len(traced), "self_s": traced_s - covered}
    untraced = rows["bench.harness"]["self_s"] \
        + rows.get("cli.main", {}).get("self_s", 0.0)
    problems = tracer.check_spans()
    if covered > traced_s:
        problems.append(f"root spans cover {covered} s of a {traced_s} s pass")
    if untraced > UNTRACED_LIMIT * traced_s:
        problems.append(f"{untraced} s of the {traced_s} s traced pass is "
                        "outside every layer span")
    if problems:
        raise SystemExit("span check failed: " + "; ".join(problems[:5]))
    return metrics, {"plain_pass_s": plain_s, "traced_pass_s": traced_s,
                     "untraced_frac": untraced / traced_s,
                     "spans": len(tracer.spans),
                     "self_times": {k: rows[k] for k in sorted(rows)}}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=catalog.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # ----- set-up: import the program, generate configs, load references
    from wextrap.cli import main as cli_main

    blocks = catalog.blocks(args.workload, args.seed)
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    ready = time.monotonic()
    if args.setup_only:
        # The probe's time in this fresh process normalizes the start.  It
        # is imported only now, so set-up pays for no import of its own.
        import calibration

        calibration.probe_seconds()
        print(json.dumps({"ready": ready,
                          "probe_s": calibration.probe_seconds()}))
        return 0

    # The thread cap of the kernel loops must come from nowhere but its
    # default, so that removing the variable later cannot move the numbers.
    if "WEXTRAP_THREADS" in os.environ:
        print("WEXTRAP_THREADS must be unset", file=sys.stderr)
        return 2
    problems = catalog.self_check(args.workload, args.seed)
    missing = [catalog.config_id(c)
               for cfgs in catalog.catalog(args.workload).values()
               for c in cfgs if catalog.config_id(c) not in reference["entries"]]
    if missing:
        problems.append(f"{len(missing)} catalog entries have no reference")
    if problems:
        print("benchmark self-check failed: " + "; ".join(problems),
              file=sys.stderr)
        return 2

    plain_dir = _fresh(os.path.join(WORK, args.workload, "plain"))
    if not args.trace:
        done, probes = timed_pass(cli_main, blocks, plain_dir, args.seconds)
        failures, known = check_ops(done, plain_dir, reference)
        metrics, detail = end_to_end(args.workload, done, probes, plain_dir)
        detail["failed_frac"] = len(failures) / len(done)
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["ok_frac"] = 1.0 - detail["failed_frac"]
        attempted = len(done)
    else:
        fixed = [cfg for block in blocks[:catalog.TRACE_BLOCKS[args.workload]]
                 for cfg in block]
        traced_dir = _fresh(os.path.join(WORK, args.workload, "traced"))
        tracer, done, traced = traced_run(cli_main, fixed, plain_dir, traced_dir)
        failures, known = check_ops(done, plain_dir, reference)
        failures += check_ops(traced, traced_dir, reference)[0] \
            + compare_artifacts(done, plain_dir, traced_dir)
        metrics, detail = traced_report(tracer, done, traced, traced_dir)
        spans_path = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.spans}, fh)
        detail["spans_file"] = os.path.relpath(spans_path)
        attempted = len(done) + len(traced)
    detail["known_defects"] = known

    print(json.dumps({"attempted": attempted, "failed": len(failures),
                      "metrics": metrics, "detail": detail,
                      "failures": failures[:20],
                      "provenance": _provenance(args.workload, args.seed, done)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
