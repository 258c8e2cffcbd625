"""Regenerate perfbench/reference.json: every catalog config's exit code,
verdicts and headline numbers, all computed on the current commit.

The committed file was computed on the program's seed commit; regenerate it
only when a change is meant to move the numbers, and say so.  Closed-form
problems the current commit has are recorded as known defects (see
ops.check).  Each stratum's wall time goes to stderr, which is how the block
template in catalog.py is balanced.  Run from the repository root:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import ops  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True, cwd=os.path.dirname(HERE))
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    from wextrap.cli import main as cli_main

    workdir = os.path.join(HERE, "_work", "reference")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "configs"))
    entries, known, failures = {}, {}, 0
    for workload in catalog.WORKLOADS:
        for stratum, cfgs in catalog.catalog(workload).items():
            stratum_s = 0.0
            for cfg in cfgs:
                cid = catalog.config_id(cfg)
                code, secs, error = ops.run_op(cli_main, cfg, cid, workdir)
                stratum_s += secs
                if error is not None or code not in ops.EXPECTED_CODES:
                    failures += 1
                    print(f"{workload}/{stratum} {cid}: exit {code} {error}",
                          file=sys.stderr)
                    continue
                summary = ops.summarize(cfg, code,
                                        ops.read_artifact(workdir, cid))
                entries[cid] = summary
                problems = ops.closed_form(cfg, summary)
                if problems:
                    known[cid] = problems
                    print(f"{workload}/{stratum} {cid}: known defect "
                          f"{problems}", file=sys.stderr)
            print(f"{workload}/{stratum}: {len(cfgs)} configs, "
                  f"{stratum_s:.2f} s", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        fh.write('{"commit": ' + json.dumps(_commit()) + ',\n"known_defects": '
                 + json.dumps(known, sort_keys=True) + ',\n"entries": {\n')
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                            for k, v in sorted(entries.items())))
        fh.write("\n}}\n")
    print(f"{len(entries)} reference entries, {len(known)} known defects, "
          f"{failures} failed configs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
