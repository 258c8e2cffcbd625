"""Command-line driver: parse experiment configs, run them, emit artifacts.

Usage:
  wextrap run CONFIG.json [--output-dir DIR]
  wextrap run --preset NAME [--override key=value]... [--output-dir DIR]
  wextrap presets
  wextrap validate CONFIG.json

Exit codes: 0 success, 2 config error, 3 compute error, 4 inconclusive.
Runs are deterministic given (config, seed); every numeric threshold used
during a run is echoed into the output provenance block.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import __version__
from .characterization import (limited_range_criterion, offdiag_criterion,
                               verify_equivalence)
from .compactness import (DEFAULT_BASIS_SIZE, DEFAULT_CONTRAST_FACTOR,
                          boundedness_sweep, compactness_contrast)
from .grids import DIVERGENCE_RATIO, CubeFamily, Grid, quadrature_memo
from .interpolation import parse_case, product_bound_check, solve_theta
from .operators import (FourierMultiplierOperator, FractionalIntegralOperator,
                        KernelSpec, RankOneOperator, SymbolSpec,
                        TruncatedKernelOperator, ZeroOperator, log_symbol,
                        smooth_bump, symbol_sobolev_norm)
from .presets import PRESETS, list_presets, preset_config
from .serialization import canonical_json, write_csv
from .weights import (Exponents, Verdict, WeightSpec, as_fraction, bmo_norm,
                      membership, muckenhoupt_constant,
                      muckenhoupt_pq_constant, multilinear_constant,
                      multilinear_limited_range_constant,
                      multilinear_offdiag_constant, parse_weight)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_INCONCLUSIVE = 4


class ConfigError(ValueError):
    """A malformed config; the arguments are the problems found."""


# ---------------------------------------------------------------- parsing

def parse_pointwise(d: dict) -> Callable:
    """A pointwise-evaluable function: a weight descriptor or a symbol tag."""
    t = d.get("type")
    if t == "bump":
        return smooth_bump(float(d.get("halfwidth", 2.0)),
                           float(d.get("amplitude", 1.0)),
                           float(d.get("center", 0.0)))
    if t == "log_abs":
        return log_symbol(float(d.get("center", 0.0)))
    if t == "coordinate":
        return lambda x: np.asarray(x, dtype=float)
    return parse_weight(d)


def parse_family(d: dict) -> CubeFamily:
    return CubeFamily(int(d["dim"]), float(d["half_width"]),
                      int(d["min_level"]), int(d["max_level"]),
                      tuple(float(s) for s in d.get("shifts", [0.0])),
                      tuple(float(v) for v in d.get("origin", [])))


def _radial_cutoff(lo: float, hi: float) -> Callable:
    from .operators import _smoothstep

    def cut(r):
        return _smoothstep((hi - np.asarray(r, dtype=float)) / (hi - lo))

    return cut


def parse_symbol(d: dict) -> SymbolSpec:
    name = d.get("name")
    if name == "identity":
        return SymbolSpec(lambda a, b: np.ones(np.broadcast(a, b).shape),
                          name="identity")
    if name == "decaying":
        decay = float(d.get("decay", 1.0))
        cutoff = d.get("cutoff")
        cut = (None if cutoff is None
               else _radial_cutoff(float(cutoff[0]), float(cutoff[1])))

        def sigma(a, b):
            a = np.asarray(a, dtype=float)
            b = np.asarray(b, dtype=float)
            out = (1.0 + a ** 2 + b ** 2) ** (-decay / 2.0)
            if cut is not None:
                out = out * cut(np.sqrt(a ** 2 + b ** 2))
            return out

        return SymbolSpec(sigma, name="decaying")
    if name == "first_slot":
        def sigma(a, b):
            a = np.asarray(a, dtype=float)
            return (1.0 + a ** 2) ** -0.5 * np.ones(np.broadcast(a, b).shape)

        return SymbolSpec(sigma, name="first_slot")
    if name == "translation":
        h = float(d.get("offset", 0.0))

        def sigma(a, b):
            return np.exp(2j * np.pi * (np.asarray(a) + np.asarray(b)) * h)

        return SymbolSpec(sigma, name="translation")
    raise ConfigError(f"unknown symbol {name!r}")


def _cz_model_kernel(rho: float) -> KernelSpec:
    def kernel(x, y1, y2):
        s = np.abs(x - y1) + np.abs(x - y2)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.sign(x - y1) / s ** 2

    return KernelSpec(kernel, smoothness_order=1.0, truncation_radius=rho)


def parse_operator(d: dict):
    if int(d.get("dim", 1)) != 1:
        raise ConfigError("operators run on 1-D grids: dim must be 1")
    t = d.get("type")
    if t == "fractional_integral":
        return FractionalIntegralOperator(
            float(d["beta"]), convention=d.get("convention", "homogeneous"))
    if t == "fourier_multiplier":
        return FourierMultiplierOperator(parse_symbol(d["symbol"]))
    if t == "cz_model":
        return TruncatedKernelOperator(_cz_model_kernel(float(d.get("rho", 0.25))))
    if t == "rank_one":
        bump = smooth_bump(1.0)
        return RankOneOperator(bump, bump, bump)
    if t == "zero":
        return ZeroOperator()
    raise ConfigError(f"unknown operator type {t!r}")


def _integer(value) -> int:
    if not isinstance(value, int):
        raise ConfigError("must be an integer")
    return value


def _at_least(low, convert: Callable = int) -> Callable:
    """A parser: convert(value), refused below `low` (and NaN)."""
    def parse(value):
        value = convert(value)
        if not value >= low:
            raise ConfigError(f"must be at least {low}")
        return value
    return parse


def _fractions(values) -> tuple[Fraction, ...]:
    return tuple(as_fraction(v) for v in values)


def _weights(descriptors) -> tuple[WeightSpec, ...]:
    return tuple(parse_weight(d) for d in descriptors)


def _basis_sizes(values) -> tuple[int, int]:
    n1, n2 = (int(v) for v in values)
    if n1 < 1 or n2 < 1:
        raise ConfigError("basis sizes must be positive")
    return n1, n2


def _read(node: dict, key: str, parse: Callable, *default):
    """parse(node[key]); the default, as it is, if one is given and the key
    is absent.  Whatever a malformed value raises becomes a ConfigError
    that names the key."""
    try:
        if default and key not in node:
            return default[0]
        return parse(node[key])
    except ConfigError as exc:
        raise ConfigError(*(f"bad {key}: {p}" for p in exc.args)) from exc
    except (LookupError, TypeError, ValueError, AttributeError,
            ArithmeticError) as exc:
        missing = isinstance(exc, KeyError)
        reason = f"missing required key {exc}" if missing else exc
        raise ConfigError(f"bad {key}: {reason}") from exc


# Optional settings: key -> (parser, default).  Every default of the command
# line is written here and nowhere else.  The library functions default to
# grids.DEFAULT_RESOLUTION = 128; runs from configs use 64.
_SETTINGS = {
    "seed": (_integer, 0),
    "resolution": (_at_least(2), 64),
    "growth_levels": (_at_least(1), 2),
    "threshold": (float, 0.01),
    "membership": (bool, False),
    # C < 1 in <w^t>^(1/t) <= C <w> fails every weight (Holder, t >= 1)
    "c_rhi": (_at_least(1, float), 2.0),
    "schedule_depth": (_at_least(1), 20),
    "stability_threshold": (float, 0.01),
    "identity_samples": (_at_least(1), 1000),
    "half_width": (float, 4.0),
    "n_basis": (_basis_sizes, (DEFAULT_BASIS_SIZE, DEFAULT_BASIS_SIZE)),
    "contrast_factor": (float, DEFAULT_CONTRAST_FACTOR),
    "csv": (bool, False),
    "j_min": (int, -8),
    "j_max": (int, 8),
    "freq_halfwidth": (float, 4.0),
    "freq_resolution": (int, 128),
    "stability_extension": (int, 0),
}


def _settings(cfg: dict, *keys: str) -> dict:
    return {key: _read(cfg, key, *_SETTINGS[key]) for key in keys}


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(*(f"missing required key {k!r}" for k in missing))


# ------------------------------------------------ one parse per experiment
#
# Each parser returns the keyword arguments of its experiment's compute step.

def _parse_class(cfg: dict, kind, cls: dict) -> dict:
    """A class constant: its kind, the arguments it takes before the cube
    family (the weight or weights from `cfg`, the exponents from `cls`), the
    family and the quadrature settings."""
    if kind == "bmo":
        args = (_read(cfg, "weight", parse_pointwise),)
    elif kind == "ap":
        args = (_read(cfg, "weight", parse_weight), _read(cls, "p", as_fraction))
    elif kind == "apq":
        args = (_read(cfg, "weight", parse_weight), _read(cls, "p", as_fraction),
                _read(cls, "q", as_fraction))
    elif kind in ("multilinear", "multilinear_limited", "multilinear_offdiag"):
        args = (_read(cfg, "weights", _weights), _read(cls, "p", Exponents))
        if len(args[0]) != len(args[1]):
            raise ConfigError("weights and p must have equal lengths")
        if kind == "multilinear_limited":
            s = _read(cls, "s", Exponents)
            if len(s) != len(args[1]):
                raise ConfigError("s and p must have equal lengths")
            if any(sj > pj for sj, pj in zip(s, args[1])):
                raise ConfigError("s must satisfy s_j <= p_j componentwise")
            args += (s,)
        elif kind == "multilinear_offdiag":
            args += (_read(cls, "p_star",
                           lambda v: _offdiag_p_star(v, args[1])),)
    else:
        raise ConfigError(f"unknown class kind {kind!r}")
    return {"kind": kind, "args": args,
            "family": _read(cfg, "family", parse_family),
            **_settings(cfg, "resolution", "growth_levels", "threshold")}


def _offdiag_p_star(value, p: Exponents) -> Fraction:
    """p* of the off-diagonal class, which needs 1/m < p <= p* for the
    harmonic p = 1/(1/p_1 + ... + 1/p_m) of m exponents."""
    p_star = as_fraction(value)
    if not Fraction(1, len(p)) < p.harmonic <= p_star:
        raise ConfigError(f"need 1/m < p <= p_star, got harmonic p = "
                          f"{p.harmonic} with m = {len(p)}")
    return p_star


def _parse_weight_constant(cfg: dict) -> dict:
    _require(cfg, "class", "family")
    kind = _read(cfg, "class", lambda cls: cls.get("kind"))
    return {**_parse_class(cfg, kind, cfg["class"]),
            "with_membership": _read(cfg, "membership", *_SETTINGS["membership"])}


def _parse_characterize(cfg: dict) -> dict:
    _require(cfg, "theorem", "weights", "p", "family")
    if cfg["theorem"] == "limited_range":
        return _parse_class(cfg, "multilinear_limited", cfg)
    if cfg["theorem"] == "offdiag":
        return _parse_class(cfg, "multilinear_offdiag", cfg)
    raise ConfigError("theorem must be 'limited_range' or 'offdiag'")


def _parse_solve(cfg: dict) -> dict:
    """Keyword arguments of `solve_theta`, plus the experiment, the schedule
    depth and the family the product bounds are measured on again."""
    _require(cfg, "case", "q", "r", "v", "w", "family")
    q, r = _read(cfg, "q", _fractions), _read(cfg, "r", _fractions)
    v, w = _read(cfg, "v", _weights), _read(cfg, "w", _weights)
    if not len(q) == len(r) == len(v) == len(w):
        raise ConfigError("q, r, v, w must have equal lengths")
    family = _read(cfg, "family", parse_family)

    def fitting_case(d: dict):
        case = parse_case(d)
        # raises when the case's parameters do not fit q; exponents outside
        # the case's range are the solve's hypothesis failure (exit 4)
        case.input_problem(q, r)
        return case

    case = _read(cfg, "case", fitting_case)
    return {"experiment": cfg["experiment"], "case": case,
            "qvec": q, "rvec": r, "vvec": v, "wvec": w, "family": family,
            "bound_family": _read(cfg, "bound_family", parse_family, family),
            **_settings(cfg, "schedule_depth", "c_rhi", "resolution",
                        "growth_levels", "stability_threshold",
                        "identity_samples", "seed")}


def _sweep_row(row: dict) -> dict:
    return {"label": row.get("label", ""),
            "params": {k: row[k] for k in row if k.startswith("param")},
            **{k: _read(row, k, parse_weight, None)
               for k in ("w1", "w2", "w_out")}}


def _sweep_exponents(values) -> tuple[Exponents, tuple[float, float, float]]:
    """[q1, q2, q] as the class exponents (q1, q2) and three norm exponents."""
    q1, q2, q = _fractions(values)
    return Exponents((q1, q2)), (float(q1), float(q2), float(q))


def _parse_sweep(cfg: dict) -> dict:
    _require(cfg, "operator", "exponents", "weights", "grid")
    grid = _read(cfg, "grid", lambda g: Grid(1, int(g["n"]),
                                             float(g["half_width"])))
    qvec, exponents = _read(cfg, "exponents", _sweep_exponents)
    return {"operator": _read(cfg, "operator", parse_operator), "grid": grid,
            "qvec": qvec, "exponents": exponents,
            "rows": _read(cfg, "weights", lambda rows: [_sweep_row(r)
                                                        for r in rows]),
            "family": _read(cfg, "weight_family", parse_family,
                            CubeFamily(1, grid.half_width, 0, 6)),
            **_settings(cfg, "resolution")}


def _parse_contrast(cfg: dict) -> dict:
    """Keyword arguments of `compactness_contrast`, plus the csv flag."""
    _require(cfg, "operator", "index", "b_cmo", "b_bmo", "refinements",
             "k_probe")
    parsed = _settings(cfg, "half_width", "n_basis", "contrast_factor", "csv")
    n1, n2 = parsed["n_basis"]
    index = _read(cfg, "index", tuple)
    if index not in ((1, 0), (0, 1), (1, 1)):
        raise ConfigError("index must be one of [1,0], [0,1], [1,1]")
    refs = _read(cfg, "refinements", lambda values: [int(n) for n in values])
    if not refs or sorted(refs) != refs:
        raise ConfigError("refinements must be a nonempty increasing list")
    if any(n < 2 or n & (n - 1) or n % n1 or n % n2 for n in refs):
        raise ConfigError("refinements must be powers of two divisible by "
                          f"both n_basis sizes {n1} and {n2}")
    # At refinement N the discretized map has min(N, n1 n2) singular values.
    rank = min(refs[0], n1 * n2)
    k_probe = _read(cfg, "k_probe", _integer)
    if not 1 <= k_probe <= rank:
        raise ConfigError(f"k_probe must lie in [1, {rank}], the rank at the "
                          "coarsest refinement")
    return {"base_op": _read(cfg, "operator", parse_operator),
            "b_cmo": _read(cfg, "b_cmo", parse_pointwise),
            "b_bmo": _read(cfg, "b_bmo", parse_pointwise),
            "index": index, "refinements": refs, "k_probe": k_probe, **parsed}


def _parse_symbol_norm(cfg: dict) -> dict:
    symbol = _read(cfg, "symbol", parse_symbol)
    norm = {"s": _read(cfg, "s", float, None),
            "s_vec": _read(cfg, "s_vec", lambda v: tuple(map(float, v)), None)}
    if (norm["s"] is None) == (norm["s_vec"] is None):
        raise ConfigError("exactly one of s, s_vec is required")
    if norm["s_vec"] is not None and len(norm["s_vec"]) != 2:
        raise ConfigError("s_vec must have two entries")
    return {"symbol": symbol, **norm,
            **_settings(cfg, "j_min", "j_max", "freq_halfwidth",
                        "freq_resolution", "stability_extension")}


_PARSERS = {
    "weight-constant": _parse_weight_constant,
    "characterize": _parse_characterize,
    "solve-theta": _parse_solve,
    "product-bound": _parse_solve,
    "boundedness-sweep": _parse_sweep,
    "compactness-contrast": _parse_contrast,
    "symbol-norm": _parse_symbol_norm,
}

EXPERIMENTS = tuple(_PARSERS)


def parse_config(cfg) -> tuple[str, dict]:
    """The one parse of a config: (experiment, keyword arguments of its
    compute step).  Raises ConfigError for every malformed input."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    experiment = cfg.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, "
                          f"got {experiment!r}")
    _settings(cfg, "seed")  # every run echoes it; solves also sample with it
    return experiment, _PARSERS[experiment](cfg)


def validate_config(cfg) -> list[str]:
    """The problems `parse_config` finds; empty when the config parses."""
    try:
        parse_config(cfg)
    except ConfigError as exc:
        return list(exc.args)
    return []


# ------------------------------------------------------------ compute steps

def _provenance(cfg: dict, **applied) -> dict:
    prov = {
        "config": copy.deepcopy(cfg),
        "package_version": __version__,
        "divergence_ratio": DIVERGENCE_RATIO,
    }
    if applied:
        prov["applied"] = applied
    return prov


def _class_constant(kind: str, args: tuple, resolution: int) -> Callable:
    """The map family -> ClassConstant of a parsed class."""
    constant = {"ap": muckenhoupt_constant, "apq": muckenhoupt_pq_constant,
                "bmo": bmo_norm, "multilinear": multilinear_constant,
                "multilinear_limited": multilinear_limited_range_constant,
                "multilinear_offdiag": multilinear_offdiag_constant}[kind]
    return lambda family: constant(*args, family, resolution)


def _run_weight_constant(cfg: dict, kind, args, family, with_membership,
                         resolution, growth_levels, threshold):
    fn = _class_constant(kind, args, resolution)
    # The membership report carries the base family's value, tag and family,
    # so a verdict costs one grown-family pass and no separate base pass.
    if with_membership:
        rep = membership(fn, family, growth_levels, threshold)
    else:
        rep = fn(family)
    prov = _provenance(cfg, resolution=resolution, growth_levels=growth_levels,
                       threshold=threshold, membership=with_membership)
    out = {"experiment": "weight-constant", "value": rep.value,
           "tag": rep.tag, "family": rep.family, "provenance": prov}
    if not with_membership:
        return EXIT_OK, out, None
    out["membership"] = rep.descriptor()
    inconclusive = rep.verdict is Verdict.INCONCLUSIVE
    return (EXIT_INCONCLUSIVE if inconclusive else EXIT_OK), out, None


def _run_characterize(cfg: dict, kind, args, family, resolution,
                      growth_levels, threshold):
    wvec, pvec, extra = args
    criterion = (limited_range_criterion if kind == "multilinear_limited"
                 else offdiag_criterion)(pvec, extra)
    report = verify_equivalence(wvec, criterion,
                                _class_constant(kind, args, resolution),
                                family, pvec, resolution, growth_levels,
                                threshold)
    prov = _provenance(cfg, resolution=resolution, growth_levels=growth_levels,
                       threshold=threshold)
    out = {"experiment": "characterize", "criterion": criterion.descriptor(),
           "report": report.descriptor(), "provenance": prov}
    code = EXIT_OK if report.conclusive else EXIT_INCONCLUSIVE
    return code, out, None


def _run_solve(cfg: dict, experiment, schedule_depth, bound_family, **solve):
    schedule = tuple(Fraction(1, 2 ** k) for k in range(1, schedule_depth + 1))
    outcome = solve_theta(theta_schedule=schedule, **solve)
    out = {"experiment": experiment, **outcome.to_json_dict(),
           "provenance_run": _provenance(cfg)}
    if not outcome.success:
        return EXIT_INCONCLUSIVE, out, None
    if experiment == "solve-theta":
        return EXIT_OK, out, None

    def bounds(cert):
        return [b.descriptor() for b in product_bound_check(
            cert, bound_family, solve["resolution"])]

    cert = outcome.certificate
    out["product_bounds_on_family"] = {
        "family": bound_family.descriptor(),
        "bounds": ([bounds(c) for c in cert.components]
                   if hasattr(cert, "components") else bounds(cert))}
    return EXIT_OK, out, None


def _default_trials(grid_half_width: float):
    bump = smooth_bump(grid_half_width / 2.0)
    narrow = smooth_bump(grid_half_width / 8.0)

    def oscillatory(x):
        return np.cos(2 * np.pi * np.asarray(x)) * bump(x)

    def indicator(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= grid_half_width / 4.0, 1.0, 0.0)

    return [("bump", bump, bump), ("narrow-bump", narrow, narrow),
            ("oscillatory", oscillatory, oscillatory),
            ("indicator", indicator, indicator)]


def _run_boundedness_sweep(cfg: dict, operator, grid, qvec, exponents, rows,
                           family, resolution):
    weight_rows = [{**row, "class_constant": None
                    if row["w1"] is None or row["w2"] is None
                    else multilinear_constant((row["w1"], row["w2"]), qvec,
                                              family, resolution).value}
                   for row in rows]
    trials = _default_trials(grid.half_width)
    results = boundedness_sweep(operator, grid, exponents, weight_rows, trials)
    prov = _provenance(cfg, trials=[name for name, _, _ in trials],
                       grid={"n": grid.n, "half_width": grid.half_width})
    out = {"experiment": "boundedness-sweep",
           "rows": [r.descriptor() for r in results],
           "provenance": prov}
    return EXIT_OK, out, None


def _run_contrast(cfg: dict, csv, **contrast):
    report = compactness_contrast(**contrast)
    out = {"experiment": "compactness-contrast", **report.descriptor(),
           "provenance_run": _provenance(cfg)}
    code = EXIT_INCONCLUSIVE if report.verdict == "inconclusive" else EXIT_OK
    return code, out, report.csv_rows() if csv else None


def _run_symbol_norm(cfg: dict, symbol, j_min, j_max, stability_extension,
                     **norm):
    value = symbol_sobolev_norm(symbol, j_range=range(j_min, j_max + 1), **norm)
    prov = _provenance(cfg, j_range=[j_min, j_max],
                       freq_halfwidth=norm["freq_halfwidth"],
                       freq_resolution=norm["freq_resolution"])
    out = {"experiment": "symbol-norm", "value": value,
           "j_range": [j_min, j_max], "provenance": prov}
    ext = stability_extension
    if ext:
        wider = symbol_sobolev_norm(
            symbol, j_range=range(j_min - ext, j_max + ext + 1), **norm)
        out["extended_value"] = wider
        out["extension_growth"] = wider / value - 1.0 if value else 0.0
    return EXIT_OK, out, None


_RUNNERS = {
    "weight-constant": _run_weight_constant,
    "characterize": _run_characterize,
    "solve-theta": _run_solve,
    "product-bound": _run_solve,
    "boundedness-sweep": _run_boundedness_sweep,
    "compactness-contrast": _run_contrast,
    "symbol-norm": _run_symbol_norm,
}

CSV_COLUMNS = ["N", "symbol_class", "k", "a_k", "a_k_over_a1"]


def run_experiment(cfg: dict) -> tuple[int, Optional[dict], Optional[list]]:
    """Parse once and compute; returns (exit_code, output_doc, csv_rows).

    The computation is one `quadrature_memo()` scope: it reuses its own
    quadrature results and hands none on to the next run."""
    try:
        experiment, parsed = parse_config(cfg)
    except ConfigError as exc:
        return EXIT_CONFIG, {"errors": list(exc.args)}, None
    try:
        with quadrature_memo():
            return _RUNNERS[experiment](cfg, **parsed)
    except Exception as exc:  # surfaced as the compute-error exit status
        return EXIT_COMPUTE, {"error": f"{type(exc).__name__}: {exc}"}, None


def _apply_override(cfg: dict, key: str, raw: str) -> None:
    *path, last = key.split(".")
    node = cfg
    for part in path:
        node = node.setdefault(part, {}) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        raise ConfigError(f"override {key!r} does not name a key of an object")
    try:
        node[last] = json.loads(raw)
    except json.JSONDecodeError:
        node[last] = raw


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wextrap",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config or preset")
    run_p.add_argument("config", nargs="?", help="path to a config JSON file")
    run_p.add_argument("--preset", help="preset name (see `wextrap presets`)")
    run_p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted-key config override")
    run_p.add_argument("--output-dir", default=".", help="artifact directory")

    sub.add_parser("presets", help="list preset experiments")

    val_p = sub.add_parser("validate", help="validate a config file")
    val_p.add_argument("config", help="path to a config JSON file")
    return parser


def _refuse_overwrite(config: Optional[str], artifact: str) -> None:
    """An artifact may not replace the config it came from.  The paths are
    compared as absolute strings, so a link to the config is not caught."""
    if config and os.path.abspath(config) == os.path.abspath(artifact):
        raise ConfigError(f"the artifact {artifact} would overwrite the "
                          "config; choose another --output-dir")


# Built once: every `main` call only parses with it.
_PARSER = _build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _PARSER.parse_args(argv)

    if args.command == "presets":
        for row in list_presets():
            print(f"{row['name']:44s} {row['description']}")
        return EXIT_OK

    try:
        if args.command == "run" and bool(args.config) == bool(args.preset):
            raise ConfigError("provide exactly one of CONFIG or --preset")
        if args.config:
            try:
                with open(args.config) as fh:
                    cfg = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(str(exc)) from exc
            name = os.path.splitext(os.path.basename(args.config))[0]
        elif args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}")
        else:
            cfg, name = preset_config(args.preset), args.preset
        if args.command == "validate":
            parse_config(cfg)
            print("ok")
            return EXIT_OK
        for ov in args.override:
            key, eq, raw = ov.partition("=")
            if not eq:
                raise ConfigError(f"bad override {ov!r}")
            _apply_override(cfg, key, raw)
        json_path = os.path.join(args.output_dir, f"{name}.json")
        csv_path = os.path.join(args.output_dir, f"{name}.csv")
        _refuse_overwrite(args.config, json_path)
        code, out, csv_rows = run_experiment(cfg)
        if code == EXIT_CONFIG:
            raise ConfigError(*out["errors"])
        if csv_rows is not None:
            _refuse_overwrite(args.config, csv_path)
    except ConfigError as exc:
        for problem in exc.args:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(args.output_dir, exist_ok=True)
    with open(json_path, "w") as fh:
        fh.write(canonical_json(out))
    print(f"wrote {json_path}")
    if csv_rows is not None:
        write_csv(csv_path, csv_rows, CSV_COLUMNS)
        print(f"wrote {csv_path}")
    if code == EXIT_COMPUTE:
        print(f"compute error: {out.get('error')}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
