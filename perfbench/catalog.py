"""Fixed experiment catalogs and their seeded, stratified run order.

Each workload's catalog is a fixed set of distinct experiment configs,
grouped into strata of configs that cost about the same.  A block takes a
fixed number of configs from every stratum, so any whole number of blocks
has the same cost mix whatever the seed; the seed chooses which configs of
each stratum share a block, the order of the blocks and the order inside
each block.  A pass walks every block once, so no config repeats.

This module imports nothing from wextrap: the catalog is data, and the
program receives only the generated configs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

WORKLOADS = ("oracle", "certificate", "contrast")


def config_id(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


def _family(max_level, min_level=0, shifts=(0.0,), dim=1, half_width=4.0):
    return {"dim": dim, "half_width": half_width, "min_level": min_level,
            "max_level": max_level, "shifts": list(shifts)}


def _power(a, center=(0.0,)):
    return {"type": "power", "center": list(center), "exponent": a}


_UNIT = {"type": "constant", "value": 1.0}


# ------------------------------------------------------------------ oracle
#
# Power exponents whose Ap verdict has a closed form (-d < a < d(p-1)).
# Exponents sit at least 0.3 inside or outside the closed-form interval, where
# the membership proxy is reliable at depth 8 for a singularity at the origin,
# a dyadic node of every level.  The `ap-offnode` stratum puts the
# singularity off the dyadic nodes, where the seed code gives |x - c|^(5/2)
# a wrong `non_member` verdict in A4 (README.md, "Known defect").
_AP_EXPONENTS = ("-2", "-3/2", "-1/2", "-1/5", "-1/10", "1/5", "1/2", "1",
                 "3/2", "5/2", "7/2", "4")
_AP_ORDERS = ("3/2", "2", "3", "4")
# Singularity positions: the origin and two points off the dyadic nodes, for
# weights checked against the reference only.
_CENTERS = (0.0, 0.37, -1.29)


def _ap_pairs():
    out = []
    for a, p in itertools.product(_AP_EXPONENTS, _AP_ORDERS):
        margin = min(abs(Fraction(a) + 1), abs(Fraction(a) - Fraction(p) + 1))
        if margin < Fraction(3, 10):
            continue
        out.append((_power(a), p))
    for p in _AP_ORDERS:
        out.append((_UNIT, p))
        out.extend(({"type": "log_blowup", "center": [c]}, p) for c in _CENTERS)
    return out


def _weight_constant(cls, family, resolution=64, **body):
    return {"experiment": "weight-constant", "seed": 0, "class": cls,
            "family": family, "resolution": resolution, "membership": True,
            **body}


def _oracle_ap(level, shifts=(0.0,)):
    return [_weight_constant({"kind": "ap", "p": p}, _family(level, shifts=shifts),
                             weight=w)
            for w, p in _ap_pairs()]


def _oracle_ap_offnode():
    # Below, inside, near the top of and above the A4 interval (-1, 3).
    return [_weight_constant({"kind": "ap", "p": "4"}, _family(level),
                             weight=_power(a, (c,)))
            for a, c, level in itertools.product(
                ("-3/2", "1/2", "5/2", "7/2"), _CENTERS[1:], (8, 9, 10))]


_SMALL = ("-1/10", "1/10", "1/5", "3/10")


def _oracle_multi(level):
    fam = _family(level)
    out = []
    for c in _CENTERS:
        for a in _SMALL + ("1/2",):
            for p, q in (("2", "3"), ("3/2", "2"), ("2", "4")):
                out.append(_weight_constant({"kind": "apq", "p": p, "q": q},
                                            fam, weight=_power(a, (c,))))
        for a, b in (("1/10", "1/10"), ("1/5", "-1/10"), ("3/10", "1/5"),
                     ("-1/10", "-1/10")):
            out.extend(_multilinear(fam, [_power(a, (c,)), _power(b, (c,))]))
    return out + _multilinear(fam, [_UNIT, _UNIT])


def _multilinear(fam, weights):
    return [_weight_constant({"kind": "multilinear", "p": ["2", "2"]},
                             fam, weights=weights),
            _weight_constant({"kind": "multilinear_limited", "p": ["2", "2"],
                              "s": ["1", "1"]}, fam, weights=weights),
            _weight_constant({"kind": "multilinear_offdiag", "p": ["2", "2"],
                              "p_star": "2"}, fam, weights=weights)]


def _oracle_planar():
    out = []
    for a, p, (level, res) in itertools.product(
            ("-1", "-1/2", "1/2", "1", "5/2", "-5/2"), ("2", "3", "4"),
            ((3, 16), (2, 32), (4, 8))):
        out.append(_weight_constant({"kind": "ap", "p": p},
                                    _family(level, dim=2), resolution=res,
                                    weight=_power(a, (0.0, 0.0))))
    return out


def _oracle_characterize():
    out = []
    for level, c in itertools.product((6, 7, 8), _CENTERS):
        for a, b in (("3/10", "3/10"), ("1/10", "1/5"), ("-1/10", "1/10"),
                     ("1/5", "1/5"), ("1/2", "1/2")):
            ws = [_power(a, (c,)), _power(b, (c,))]
            base = {"experiment": "characterize", "seed": 0, "weights": ws,
                    "p": ["2", "2"], "family": _family(level),
                    "resolution": 64, "growth_levels": 2, "threshold": 0.01}
            out.append({**base, "theorem": "limited_range", "s": ["1", "1"]})
            out.append({**base, "theorem": "offdiag", "p_star": "2"})
    return out


def _oracle():
    strata = {f"ap-L{lv}": _oracle_ap(lv) for lv in range(8, 13)}
    strata.update({f"multi-L{lv}": _oracle_multi(lv) for lv in (8, 10, 11, 12)})
    strata["shifted-L9"] = _oracle_ap(9, (0.0, 0.25))
    strata["shifted-L11"] = _oracle_ap(11, (0.0, 0.5))
    strata["ap-offnode"] = _oracle_ap_offnode()
    strata["planar"] = _oracle_planar()
    strata["characterize"] = _oracle_characterize()
    return strata


# ------------------------------------------------------------- certificate

def _cert(experiment, case, q, r, v, w, level, depth, bound_level=None):
    cfg = {"experiment": experiment, "seed": 0, "case": case, "q": q, "r": r,
           "v": v, "w": w, "family": _family(level), "c_rhi": 2.0,
           "resolution": 64, "schedule_depth": depth,
           "identity_samples": 1000}
    if bound_level is not None:
        cfg["bound_family"] = _family(bound_level)
    return cfg


_DIAG_CASES = ({"s": ["1", "1"]},)
_DIAG_QR = ((["2", "2"], ["3", "3"]), (["2", "2"], ["4", "4"]),
            (["3", "3/2"], ["3", "3"]), (["2", "2"], ["5/2", "5"]))
_OFF_CASES = ({"alpha": "1/4"}, {"alpha": "1/8"})
_OFF_QR = ((["2", "2"], ["4", "4"]), (["2", "2"], ["3", "6"]),
           (["3/2", "3"], ["4", "4"]))
_CERT_WEIGHTS = (("1/5", "1/5"), ("1/10", "1/5"), ("1/5", "1/10"),
                 ("-1/10", "1/10"), ("3/10", "1/5"), ("0", "1/5"),
                 ("1/10", "-1/10"))


def _cert_stratum(tag, experiment, levels, depths):
    diagonal = tag.startswith("diagonal")
    cases = _DIAG_CASES if diagonal else _OFF_CASES
    qrs = _DIAG_QR if diagonal else _OFF_QR
    out = []
    for extra, (q, r), (a, b), level, depth in itertools.product(
            cases, qrs, _CERT_WEIGHTS, levels, depths):
        v = [_power(a), _power(a)]
        w = [_power(b), _power(b)]
        bound = level + 1 if experiment == "product-bound" else None
        out.append(_cert(experiment, {"tag": tag, **extra}, q, r, v, w, level,
                         depth, bound))
    return out


_TAGS = {"dv": "diagonal_vector", "dc": "diagonal_componentwise",
         "ov": "offdiagonal_vector", "oc": "offdiagonal_componentwise"}


def _certificate():
    strata = {}
    for short, tag in _TAGS.items():
        strata[f"{short}-solve"] = _cert_stratum(tag, "solve-theta",
                                                 (6, 7, 8), (6, 20))
        strata[f"{short}-bound"] = _cert_stratum(tag, "product-bound",
                                                 (6, 7, 8), (12,))
    strata["exhaust"] = (
        _cert_stratum("diagonal_vector", "solve-theta", (6, 7), (1,))
        + _cert_stratum("offdiagonal_vector", "solve-theta", (6, 7), (2,)))
    return strata


# ---------------------------------------------------------------- contrast

_KERNELS = ({"type": "fractional_integral", "beta": 1.0,
             "convention": "homogeneous"},
            {"type": "fractional_integral", "beta": 0.5,
             "convention": "homogeneous"},
            {"type": "cz_model", "rho": 0.2},
            {"type": "cz_model", "rho": 0.3})
_MULTIPLIERS = tuple({"type": "fourier_multiplier",
                      "symbol": {"name": "decaying", "decay": d}}
                     for d in (1.0, 2.0, 3.0))
_BUMPS = (0.5, 0.75, 1.0)
_SIDE = ([1, 0], [0, 1])


def _contrast_cfg(op, index, refinements, bump, log_center=0.0):
    return {"experiment": "compactness-contrast", "seed": 0, "operator": op,
            "index": index,
            "b_cmo": {"type": "bump", "halfwidth": bump, "amplitude": 1.0,
                      "center": 0.0},
            "b_bmo": {"type": "log_abs", "center": log_center},
            "refinements": refinements, "k_probe": 16, "contrast_factor": 2.0,
            "half_width": 4.0, "n_basis": [32, 32], "csv": True}


def _contrast_stratum(ops, indices, refinement_lists, log_centers=(0.0,)):
    return [_contrast_cfg(op, idx, refs, bump, c)
            for op, idx, refs, bump, c in itertools.product(
                ops, indices, refinement_lists, _BUMPS, log_centers)]


def _symbol_norms():
    out = []
    for decay, s, j, res in itertools.product((0.5, 1.0, 2.0), (1.2, 1.6),
                                              (6, 8), (64, 128)):
        out.append({"experiment": "symbol-norm", "seed": 0,
                    "symbol": {"name": "decaying", "decay": decay},
                    "s": s, "j_min": -j, "j_max": j,
                    "freq_halfwidth": 4.0, "freq_resolution": res,
                    "stability_extension": 4})
    return out


def _sweeps():
    out = []
    ops = _KERNELS[:1] + _KERNELS[2:3] + (
        {"type": "fourier_multiplier", "symbol": {"name": "identity"}},)
    for op, n, exps, half in itertools.product(
            ops, (64, 128), (["4", "4", "2"], ["3", "6", "2"]), (4.0, 2.0)):
        out.append({"experiment": "boundedness-sweep", "seed": 0,
                    "operator": op, "exponents": exps,
                    "weights": [{"label": "unweighted"},
                                {"label": "power-02", "w1": _power("1/5"),
                                 "w2": _power("1/5"), "w_out": _power("1/5")}],
                    "grid": {"n": n, "half_width": half}, "trials": "default"})
    return out


_FRACTIONAL = tuple({"type": "fractional_integral", "beta": b,
                     "convention": "homogeneous"} for b in (1.0, 0.5, 1.5))
_CZ = tuple(op for op in _KERNELS if op["type"] == "cz_model")
_LOG_CENTERS = (0.0, 0.25)


def _contrast():
    # A pass holds one N = 512 op, a fractional integral: at ~5 s it is a
    # fifth of the pass already, and only the probes before and after it
    # calibrate it (calibration.py), so more of them would let the host's
    # swings during those ops dominate the run-to-run spread.  The pass also
    # holds fractional ops at N = 256, so the traced run can compare the two
    # sizes.  The multiplier stops at N = 256, where it is already cheap.
    return {
        "k512": _contrast_stratum(_FRACTIONAL, _SIDE, ([512],)),
        "k256": _contrast_stratum(_FRACTIONAL, _SIDE, ([256],)),
        "cz256": _contrast_stratum(_CZ, _SIDE, ([256],)),
        "m256": _contrast_stratum(_MULTIPLIERS, _SIDE, ([256],)),
        "k128": _contrast_stratum(_KERNELS, _SIDE, ([128],), _LOG_CENTERS),
        "k64": _contrast_stratum(_KERNELS, _SIDE + ([1, 1],), ([64],),
                                 _LOG_CENTERS),
        "m64": _contrast_stratum(_MULTIPLIERS, _SIDE + ([1, 1],), ([64],),
                                 _LOG_CENTERS),
        "symbol-norm": _symbol_norms(),
        "sweep": _sweeps(),
    }


_CANDIDATES = {"oracle": _oracle, "certificate": _certificate,
               "contrast": _contrast}

# Configs each stratum contributes to one block.  Within a block the cheap
# strata sit below the latency median, one group of similar cost spans the
# median and another spans the tail percentile, so neither statistic falls on
# a cliff between two cost groups.
BLOCKS = {
    "oracle": {"ap-L8": 1, "ap-L9": 1, "ap-L10": 1, "ap-L11": 2, "ap-L12": 1,
               "multi-L8": 1, "multi-L10": 1, "multi-L11": 1, "multi-L12": 1,
               "shifted-L9": 1, "shifted-L11": 1, "ap-offnode": 2,
               "planar": 1, "characterize": 1},
    "certificate": {"dv-solve": 1, "dc-solve": 1, "ov-solve": 1, "oc-solve": 1,
                    "dv-bound": 1, "dc-bound": 1, "ov-bound": 1, "oc-bound": 1,
                    "exhaust": 1},
    "contrast": {"k512": 1, "k256": 3, "cz256": 2, "m256": 3, "k128": 40,
                 "k64": 60, "m64": 40, "symbol-norm": 10, "sweep": 10},
}

# Blocks in one pass, so the catalog holds PASS_BLOCKS * k configs of a
# stratum with k per block.  A pass takes 22-25 s of op time on the seed
# code on a shared 2-vCPU host in its fast state, and a run starts its last
# block up to 40 s in, so it normally covers the whole catalog: seeds then
# differ only in order.  `contrast` is one block, so its single N = 512 op
# is in every pass.
PASS_BLOCKS = {"oracle": 10, "certificate": 16, "contrast": 1}

# The fixed percentile reported as latency_tail_s: the highest of
# 50/75/90/95/99 with at least ten samples beyond it in one untraced run on
# the seed code.
TAIL_PERCENTILE = {"oracle": 90, "certificate": 90, "contrast": 90}

# Blocks the traced run executes: a fixed list, so for a given seed its
# counts repeat exactly.
TRACE_BLOCKS = {"oracle": 4, "certificate": 5, "contrast": 1}


def catalog(workload: str) -> dict[str, list[dict]]:
    """Stratum name -> configs, in a fixed order independent of any seed."""
    out = {}
    for name, candidates in _CANDIDATES[workload]().items():
        size = PASS_BLOCKS[workload] * BLOCKS[workload][name]
        rng = random.Random(f"catalog:{workload}:{name}")
        out[name] = rng.sample(candidates, size)
    return out


def blocks(workload: str, seed: int) -> list[list[dict]]:
    """The seeded block sequence of one pass over the workload's catalog."""
    rng = random.Random(f"{workload}:{seed}")
    pools = {name: rng.sample(cfgs, len(cfgs))
             for name, cfgs in catalog(workload).items()}
    out = []
    for b in range(PASS_BLOCKS[workload]):
        block = [cfg for name, k in BLOCKS[workload].items()
                 for cfg in pools[name][b * k:(b + 1) * k]]
        rng.shuffle(block)
        out.append(block)
    return out


def self_check(workload: str, seed: int) -> list[str]:
    """Problems with the catalog or its seeded order; empty when sound."""
    problems = []
    ids = [config_id(c) for cfgs in catalog(workload).values() for c in cfgs]
    if len(ids) != len(set(ids)):
        problems.append("duplicate configs in the catalog")
    order = blocks(workload, seed)
    if order != blocks(workload, seed):
        problems.append(f"seed {seed}: the order is not deterministic")
    seen = [config_id(c) for block in order for c in block]
    if sorted(seen) != sorted(ids):
        problems.append(f"seed {seed}: a pass does not cover the catalog "
                        "exactly once")
    if order == blocks(workload, seed + 1):
        problems.append(f"seeds {seed} and {seed + 1} give the same order")
    return problems
