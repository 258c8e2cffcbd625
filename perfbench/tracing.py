"""Spans and counters around the public functions of each wextrap layer.

Tracing is installed from the benchmark's own files, so the program is
unchanged: each public function is replaced, in every wextrap module that
binds it, by a wrapper that records a span (name, start, end, parent span,
op id).  `weights` imports `family_averages` and `cli` imports
`membership`, so wrapping the defining module alone would miss those calls.
Spans stay in memory until the run ends.  A layer's self time is its span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import collections
import functools
import inspect
import math
import sys
import time

import numpy as np

# (defining module, function) -> span name
FUNCTIONS = {
    ("grids", "family_averages"): "grids.family_averages",
    ("grids", "family_extrema"): "grids.family_extrema",
    ("weights", "muckenhoupt_constant"): "weights.class_constant",
    ("weights", "muckenhoupt_pq_constant"): "weights.class_constant",
    ("weights", "multilinear_constant"): "weights.class_constant",
    ("weights", "multilinear_limited_range_constant"): "weights.class_constant",
    ("weights", "multilinear_offdiag_constant"): "weights.class_constant",
    ("weights", "membership"): "weights.membership",
    ("weights", "bmo_norm"): "weights.bmo_norm",
    ("characterization", "verify_equivalence"):
        "characterization.verify_equivalence",
    ("characterization", "reverse_holder_check"):
        "characterization.reverse_holder_check",
    ("interpolation", "solve_theta"): "interpolation.solve_theta",
    ("interpolation", "convexity_identity_check"):
        "interpolation.convexity_identity_check",
    ("interpolation", "product_bound_check"): "interpolation.product_bound_check",
    ("operators", "symbol_sobolev_norm"): "operators.symbol_sobolev_norm",
    ("compactness", "compactness_contrast"): "compactness.compactness_contrast",
    ("compactness", "discretize"): "compactness.discretize",
    ("compactness", "approximation_numbers"): "compactness.approximation_numbers",
    ("compactness", "matched_amplitude"): "compactness.matched_amplitude",
    ("compactness", "boundedness_sweep"): "compactness.boundedness_sweep",
    ("cli", "validate_config"): "cli.validate_config",
    ("serialization", "canonical_json"): "serialization.canonical_json",
    ("serialization", "write_csv"): "serialization.write_csv",
}

# Weight classes that evaluate other weights; every other class is a leaf.
COMPOSITE_WEIGHTS = ("ProductWeight", "PowerOfWeight")

APPLY_PAIRS = {"FractionalIntegralOperator": "operators.apply_pairs.fractional",
               "TruncatedKernelOperator": "operators.apply_pairs.cz_model",
               "FourierMultiplierOperator": "operators.apply_pairs.multiplier",
               "CommutatorOperator": "operators.commutator"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.sizes: dict[int, int] = {}  # fractional span -> grid size N
        self.counts: collections.Counter = collections.Counter()
        self.op = None
        self._stack: list[int] = []
        self._weight_depth = 0
        self._undo: list = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), math.nan, parent, self.op])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    # ------------------------------------------------------------ wrapping

    def wrap(self, fn, name, after=None):
        """`after(arguments, result)` sees the call's arguments by name."""
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner.__setitem__, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((functools.partial(setattr, owner), attr,
                               owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function in every loaded wextrap module."""
        import wextrap.cli as cli
        import wextrap.operators as operators
        import wextrap.weights as weights

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "wextrap" or name.startswith("wextrap.")]
        hooks = {"grids.family_averages": self._count_base_nodes,
                 "grids.family_extrema": self._count_base_nodes,
                 "interpolation.solve_theta": self._count_theta_steps,
                 "compactness.approximation_numbers": self._count_svd}
        for (home, fname), span in FUNCTIONS.items():
            original = getattr(sys.modules[f"wextrap.{home}"], fname)
            wrapper = self.wrap(original, span, hooks.get(span))
            for module in modules:
                if module.__dict__.get(fname) is original:
                    self._patch(module, fname, wrapper)
        for key, runner in list(cli._RUNNERS.items()):
            self._patch(cli._RUNNERS, key, self.wrap(runner, "cli.runner"))
        self._wrap_apply_pairs(operators)
        self._wrap_weight_calls(weights)

    def uninstall(self) -> None:
        while self._undo:
            setter, attr, original = self._undo.pop()
            setter(attr, original)

    def _wrap_apply_pairs(self, operators) -> None:
        tracer = self
        classes = {operators._KernelOperator,
                   operators.FourierMultiplierOperator,
                   operators.CommutatorOperator}
        for cls in classes:
            original = cls.__dict__["apply_pairs"]

            def apply_pairs(op, F1, F2, grid, _original=original):
                name = APPLY_PAIRS.get(type(op).__name__,
                                       "operators.apply_pairs.other")
                idx = tracer.open(name)
                try:
                    return _original(op, F1, F2, grid)
                finally:
                    tracer.close(idx)
                    if name == "operators.apply_pairs.fractional":
                        tracer.sizes[idx] = grid.n

            self._patch(cls, "apply_pairs", apply_pairs)

    def _wrap_weight_calls(self, weights) -> None:
        tracer = self
        pending = [weights.WeightSpec]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if cls is weights.WeightSpec or "__call__" not in cls.__dict__:
                continue
            leaf = cls.__name__ not in COMPOSITE_WEIGHTS

            def __call__(w, x, _original=cls.__dict__["__call__"], _leaf=leaf):
                points = np.shape(x)[0] if np.ndim(x) else 1
                outer = tracer._weight_depth == 0
                if outer:
                    tracer.counts["grids.quad_node_evals"] += points
                    idx = tracer.open("weights.weight_eval")
                if _leaf:
                    tracer.counts["grids.leaf_weight_evals"] += points
                tracer._weight_depth += 1
                try:
                    return _original(w, x)
                finally:
                    tracer._weight_depth -= 1
                    if outer:
                        tracer.close(idx)

            self._patch(cls, "__call__", __call__)

    # ------------------------------------------------------------- counters

    def _count_base_nodes(self, arguments, result) -> None:
        family = arguments["family"]
        self.counts["grids.base_nodes"] += \
            len(family) * arguments["resolution"] ** family.dim

    def _count_theta_steps(self, arguments, outcome) -> None:
        # A componentwise solve delegates to one scalar solve per slot; those
        # inner calls are traced too, so only scalar/vector solves count.
        if arguments["case"].tag.endswith("componentwise"):
            return
        if outcome.success:
            self.counts["interpolation.theta_steps"] += \
                outcome.certificate.schedule_index + 1
            self.counts["interpolation.certified"] += 1
        else:
            self.counts["interpolation.theta_steps"] += len(outcome.failure.trail)

    def _count_svd(self, arguments, result) -> None:
        self.counts["compactness.svd_elems"] += arguments["dmap"].matrix.size

    # ------------------------------------------------------------- analysis

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def swept_self_times(self) -> dict[str, float]:
        """Self time per span name, computed a second way: sweep the span
        intervals in time order and give each instant to the innermost span
        open then (the one that started last)."""
        events = sorted((t, kind, i)
                        for i, (_, start, end, _, _) in enumerate(self.spans)
                        for t, kind in ((start, 1), (end, 0)))
        out: dict[str, float] = collections.defaultdict(float)
        live: set[int] = set()
        last = 0.0
        for t, kind, i in events:
            if live:
                inner = max(live, key=lambda j: (self.spans[j][1], j))
                out[self.spans[inner][0]] += t - last
            last = t
            if kind:
                live.add(i)
            else:
                live.discard(i)
        return out

    def check_spans(self) -> list[str]:
        """Problems with the recorded spans; empty when they are sound.

        Every span has ended, not before it started; a child lies inside its
        parent and belongs to the same op; and each name's self time from
        `by_name` agrees with the swept one.  Overlapping siblings or a child
        outside its parent make the two disagree.
        """
        problems = []
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if not start <= end:  # also false for an end that is NaN
                problems.append(f"span {i} ({name}) ends at {end}, "
                                f"before its start {start}")
            elif parent >= 0:
                pname, pstart, pend, _, pop = self.spans[parent]
                if not (pstart <= start and end <= pend) or pop != op:
                    problems.append(f"span {i} ({name}) is not inside its "
                                    f"parent {parent} ({pname})")
        swept = self.swept_self_times()
        for name, row in sorted(self.by_name().items()):
            if not math.isclose(row["self_s"], swept.get(name, 0.0),
                                rel_tol=1e-6, abs_tol=1e-6):
                problems.append(f"{name}: self time {row['self_s']} s, "
                                f"swept {swept.get(name, 0.0)} s")
        return problems

    def by_name(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            row = out.setdefault(span[0], {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own
        return out

    def kernel_n_scaling(self) -> float:
        """log2 of the mean self time per fractional-integral apply_pairs
        call at N=512 over N=256; 0 without calls at both sizes."""
        own = self.self_times()
        per_n = collections.defaultdict(list)
        for idx, n in self.sizes.items():
            per_n[n].append(own[idx])
        if not per_n.get(256) or not per_n.get(512):
            return 0.0
        mean = {n: sum(v) / len(v) for n, v in per_n.items()}
        return math.log2(mean[512] / mean[256])
