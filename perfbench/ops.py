"""Running one experiment through the public CLI, and the correctness gate.

Every op goes through `wextrap.cli.main(["run", CONFIG, "--output-dir",
DIR])`, so it includes validation, the runner, canonical serialization and
artifact writing.  The gate compares the op's exit code and headline numbers
with a closed form where one exists, and with the committed reference
catalog always.  Numbers agree within a relative tolerance rather than
byte for byte, so a last-bit change from a kernel rewrite is not a failure.
A wrong verdict the reference commit already gave is reported as a known
defect while it stays unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from fractions import Fraction

REL_TOL = 1e-6
ABS_TOL = 1e-12

# Exit codes an op may end with; 2 (config error) and 3 (compute error)
# always count as failures.
EXPECTED_CODES = (0, 4)


def run_op(main, cfg: dict, name: str, workdir: str):
    """Write the config, run it through the CLI.

    Returns (exit code, seconds, error): error is None, or names the
    exception the call raised, with the exit code then None.  Only the CLI call is
    timed.  Its progress lines are swallowed so the benchmark's own output
    stays parseable.
    """
    cfg_path = os.path.join(workdir, "configs", f"{name}.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    sink = io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            code = main(["run", cfg_path, "--output-dir",
                         os.path.join(workdir, "artifacts")])
        except (Exception, SystemExit) as exc:  # an op that raises has failed
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    return code, elapsed, error


def read_artifact(workdir: str, name: str):
    path = os.path.join(workdir, "artifacts", f"{name}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def _cert_summary(doc: dict) -> dict:
    if not doc["success"]:
        return {"success": False, "blocking_check": doc["blocking_check"]}
    comps = doc.get("components", [doc])
    out = {"success": True,
           "theta": doc.get("common_theta", doc.get("theta")),
           "component_thetas": [c["theta"] for c in comps],
           "u_values": [c["u_membership"]["value"] for c in comps],
           "u_growths": [c["u_membership"]["growth"] for c in comps]}
    if "product_bounds_on_family" in doc:
        bounds = doc["product_bounds_on_family"]["bounds"]
        flat = [b for group in bounds for b in
                (group if isinstance(group, list) else [group])]
        out["bound_ratios"] = [b["ratio"] for b in flat]
    return out


def summarize(cfg: dict, code: int, doc) -> dict:
    """Exit code, verdicts and headline numbers of one op's artifact."""
    out: dict = {"code": code}
    if doc is None:
        return out
    exp = cfg["experiment"]
    if exp == "weight-constant":
        out["value"] = doc["value"]
        if "membership" in doc:
            m = doc["membership"]
            out.update(verdict=m["verdict"], growth=m["growth"],
                       grown_value=m["grown_value"])
    elif exp == "characterize":
        rep = doc["report"]
        out.update(verdict=rep["direct"]["verdict"],
                   componentwise_verdict=rep["componentwise_verdict"],
                   agree=rep["agree"], value=rep["direct"]["value"],
                   growth=rep["direct"]["growth"],
                   component_values=[c["value"] for c in rep["components"]])
    elif exp in ("solve-theta", "product-bound"):
        out.update(_cert_summary(doc))
    elif exp == "compactness-contrast":
        out.update(verdict=doc["verdict"],
                   amplitude_scale=doc["amplitude_scale"],
                   tails=[c["tail"] for c in doc["cells"]])
    elif exp == "boundedness-sweep":
        out.update(max_ratios=[r["max_ratio"] for r in doc["rows"]],
                   class_constants=[r["class_constant"] for r in doc["rows"]])
    elif exp == "symbol-norm":
        out.update(value=doc["value"], extended_value=doc.get("extended_value"))
    return out


def _mismatches(path: str, got, want) -> list[str]:
    """Exact comparison, except floats, which agree within the tolerance."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in sorted(want)
                for m in _mismatches(f"{path}.{k}", got[k], want[k])]
    if isinstance(want, list) and isinstance(got, list) \
            and len(got) == len(want):
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(f"{path}[{i}]", g, w)]
    if isinstance(want, float) and isinstance(got, float):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {got!r} differs from {want!r} beyond tolerance"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _unit_weight(w: dict) -> bool:
    return w == {"type": "constant", "value": 1.0}


def closed_form(cfg: dict, summary: dict) -> list[str]:
    """Problems against a closed form; empty when none applies or it holds.

    * The unit weight has class constant exactly 1 and is a member.
    * The power weight |x - c|^a in dimension d lies in Ap iff
      -d < a < d(p-1).  With c at the origin, a dyadic node of every level,
      the verdict must be conclusive.  Off the nodes a family of finite depth
      may not resolve the singularity, so `inconclusive` (exit 4) is allowed
      there; a conclusive verdict must still match.
    """
    if cfg["experiment"] != "weight-constant":
        return []
    weights = cfg.get("weights") or [cfg.get("weight")]
    problems = []
    if all(w is not None and _unit_weight(w) for w in weights):
        if not math.isclose(summary.get("value", math.nan), 1.0,
                            rel_tol=0, abs_tol=ABS_TOL):
            problems.append(f"unit weight constant {summary.get('value')} != 1")
        if "verdict" in summary and summary["verdict"] != "member":
            problems.append("unit weight is not a member")
    w = cfg.get("weight")
    if cfg["class"]["kind"] == "ap" and w and w["type"] == "power":
        d = cfg["family"]["dim"]
        a, p = Fraction(w["exponent"]), Fraction(cfg["class"]["p"])
        expected = "member" if -d < a < d * (p - 1) else "non_member"
        verdict = summary.get("verdict")
        on_node = not any(w["center"])
        if verdict == "inconclusive" and not on_node:
            if summary["code"] != 4:
                problems.append(f"exit {summary['code']} for an inconclusive "
                                "verdict")
        elif verdict != expected:
            problems.append(f"|x-{w['center']}|^{a} in A{p} (d={d}): verdict "
                            f"{verdict}, closed form {expected}")
        elif summary["code"] != 0:
            problems.append(f"exit {summary['code']} for a conclusive verdict")
    return problems


def check(cfg: dict, code, error, doc, reference, known=None):
    """(problems, known defect) for one op; problems is empty when it is
    correct.

    `known` lists the closed-form problems the reference commit already had
    with this config.  They are a known defect rather than a failure while
    the op's outcome stays the reference's; once the closed form holds, the
    op is checked against the closed form alone, because a fix moves the
    reference numbers.
    """
    if error is not None:
        return [error], False
    if code not in EXPECTED_CODES:
        return [f"unexpected exit code {code}"], False
    if doc is None:
        return ["no artifact written"], False
    try:
        summary = summarize(cfg, code, doc)
    except (KeyError, IndexError, TypeError) as exc:
        return [f"artifact lacks a headline field: {exc!r}"], False
    problems = closed_form(cfg, summary)
    if reference is None:
        return problems + ["no reference entry"], False
    if known and not problems:
        return [], False
    if known and problems == known:
        mismatches = _mismatches("", summary, reference)
        return mismatches, not mismatches
    return problems + _mismatches("", summary, reference), False
