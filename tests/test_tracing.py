"""The benchmark's tracer (`perfbench/tracing.py`, only read here) around one
small run of each experiment kind: every function it wraps still exists,
its spans are sound, and tracing moves no artifact byte."""

import contextlib
import importlib
import importlib.util
import io
import os
import sys

import pytest

from wextrap import cli, operators

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "perfbench", "tracing.py")

_BOUND_FAMILY = '{"dim": 1, "half_width": 4.0, "min_level": 0, "max_level": 4}'
_SMALL_CONTRAST = ["refinements=[64]", "n_basis=[8, 8]", "k_probe=4"]

# run name -> (preset, overrides); every experiment kind, and a contrast for
# each operator class whose `apply_pairs` the tracer wraps
RUNS = {
    "weight-constant": ("power-weight-ap", []),
    "characterize": ("characterize-offdiagonal", []),
    "solve-theta": ("diagonal-certificate", []),
    "product-bound": ("diagonal-certificate",
                      ["experiment=product-bound",
                       f"bound_family={_BOUND_FAMILY}"]),
    "boundedness-sweep": ("multiplier-product-sweep", ["grid.n=64"]),
    "contrast-fractional": ("fractional-contrast", _SMALL_CONTRAST),
    "contrast-cz": ("cz-contrast", _SMALL_CONTRAST),
    "contrast-multiplier": ("multiplier-contrast", _SMALL_CONTRAST),
    "symbol-norm": ("decaying-symbol-norm",
                    ["j_min=-2", "j_max=2", "freq_resolution=32"]),
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def run(main, preset, overrides, outdir) -> int:
    argv = ["run", "--preset", preset, "--output-dir", str(outdir)]
    for override in overrides:
        argv += ["--override", override]
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def artifacts(outdir) -> dict:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def test_every_wrapped_function_exists(tracing):
    for home, name in tracing.FUNCTIONS:
        module = importlib.import_module(f"wextrap.{home}")
        assert callable(getattr(module, name, None)), f"{home}.{name}"
    for cls in (operators._KernelOperator, operators.FourierMultiplierOperator,
                operators.CommutatorOperator):
        assert "apply_pairs" in vars(cls), cls.__name__
    assert set(cli._RUNNERS) == {kind for kind in RUNS
                                 if not kind.startswith("contrast-")} \
        | {"compactness-contrast"}


def test_traced_runs_have_sound_spans_and_unchanged_artifacts(tracing,
                                                              tmp_path):
    tracer = tracing.Tracer()
    traced_main = tracer.wrap(cli.main, "cli.main")
    for op, (name, (preset, overrides)) in enumerate(RUNS.items()):
        plain, traced = tmp_path / "plain" / name, tmp_path / "traced" / name
        code = run(cli.main, preset, overrides, plain)
        # a contrast this small may read inconclusive; it still writes
        assert code in (cli.EXIT_OK, cli.EXIT_INCONCLUSIVE), name
        tracer.op = op
        tracer.install()
        try:
            assert run(traced_main, preset, overrides, traced) == code, name
        finally:
            tracer.uninstall()
        assert artifacts(traced) == artifacts(plain), name
    assert tracer.check_spans() == []
    spans = tracer.by_name()
    assert spans["cli.runner"]["calls"] == len(RUNS)
    for span in ("operators.apply_pairs.fractional",
                 "operators.apply_pairs.cz_model",
                 "operators.apply_pairs.multiplier", "operators.commutator",
                 "grids.family_averages", "weights.weight_eval",
                 "interpolation.solve_theta", "operators.symbol_sobolev_norm"):
        assert span in spans, span
