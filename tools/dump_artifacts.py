"""Write the artifacts of every preset and every benchmark catalog config.

    python3 /path/to/tools/dump_artifacts.py OUTDIR

Run from the root of the checkout to dump: wextrap is imported from its
`src/` and the catalogs from its `perfbench/catalog.py`, which is only
read.  Every config runs in this process through
`wextrap.cli.main(["run", ...])` with BLAS capped at one thread.  Each run
gets its own directory, OUTDIR/presets/NAME or OUTDIR/WORKLOAD/STRATUM-ID,
holding its JSON (and CSV) artifact and an `exit_code` file.  On stderr
it prints each workload's run count and in-process wall time, so a dump of
two checkouts also gives a rough before/after timing.

To show that a change moves no artifact byte, dump both checkouts with the
same copy of this script and compare:

    (cd parent && python3 ../change/tools/dump_artifacts.py /tmp/before)
    (cd change && python3 tools/dump_artifacts.py /tmp/after)
    diff -r /tmp/before /tmp/after
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import time

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                  "NUMEXPR_NUM_THREADS")


def _run(cli_main, argv, outdir) -> int:
    """cli_main(["run", *argv]) into outdir, quietly; records its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(["run", *argv, "--output-dir", outdir])
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "exit_code"), "w") as fh:
        fh.write(f"{code}\n")
    return code


def _report(workload: str, count: int, start: float) -> None:
    seconds = time.perf_counter() - start
    print(f"{workload}: {count} runs in {seconds:.1f} s", file=sys.stderr)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = os.path.abspath(args[0])
    for name in BLAS_VARIABLES:
        os.environ[name] = "1"
    root = os.getcwd()
    # Nothing is written next to the catalog or the sources.
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import catalog
    from wextrap.cli import main as cli_main
    from wextrap.presets import PRESETS

    start = time.perf_counter()
    for name in sorted(PRESETS):
        _run(cli_main, ["--preset", name], os.path.join(out, "presets", name))
    _report("presets", len(PRESETS), start)
    with tempfile.TemporaryDirectory() as configs:
        for workload in catalog.WORKLOADS:
            count, start = 0, time.perf_counter()
            for stratum, cfgs in catalog.catalog(workload).items():
                for cfg in cfgs:
                    run_id = f"{stratum}-{catalog.config_id(cfg)}"
                    path = os.path.join(configs, f"{run_id}.json")
                    with open(path, "w") as fh:
                        json.dump(cfg, fh)
                    _run(cli_main, [path], os.path.join(out, workload, run_id))
                    count += 1
            _report(workload, count, start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
