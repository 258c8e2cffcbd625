"""Driver tests: parsing, validation, presets, artifacts, exit codes."""

import copy
import json
import math

import numpy as np
import pytest

from wextrap import cli
from wextrap.cli import (EXIT_COMPUTE, EXIT_CONFIG, EXIT_INCONCLUSIVE, EXIT_OK,
                         main, parse_case, parse_family, parse_operator,
                         parse_pointwise, parse_weight, run_experiment,
                         validate_config)
from wextrap.presets import PRESETS, list_presets, preset_config
from wextrap.serialization import canonical_json
from wextrap.weights import as_fraction


class TestParsing:
    def test_weight_round_trip(self):
        for desc in (
            {"type": "constant", "value": 2.0},
            {"type": "power", "center": [0.5], "exponent": "2/7"},
            {"type": "log_blowup", "center": [0.0]},
            {"type": "product", "factors": [
                {"type": "power", "center": [0.0], "exponent": "1/2"},
                {"type": "constant", "value": 3.0}]},
            {"type": "power_of",
             "base": {"type": "power", "center": [0.0], "exponent": "1/3"},
             "exponent": "-3/2"},
        ):
            w = parse_weight(desc)
            again = parse_weight(w.descriptor())
            x = np.linspace(0.2, 3.0, 17)
            np.testing.assert_allclose(w(x), again(x), rtol=1e-14)

    def test_bad_weight_rejected(self):
        with pytest.raises(Exception):
            parse_weight({"type": "mystery"})

    def test_pointwise_symbols(self):
        b = parse_pointwise({"type": "log_abs", "center": 0.0})
        assert b(np.array([1.0]))[0] == 0.0
        bump = parse_pointwise({"type": "bump", "halfwidth": 1.0,
                                "amplitude": 2.0})
        assert bump(np.array([0.0]))[0] == pytest.approx(2.0 * math.exp(-1))

    def test_case_tags(self):
        c = parse_case({"tag": "offdiagonal_vector", "alpha": "1/4"})
        assert c.alpha == as_fraction("1/4")
        with pytest.raises(Exception):
            parse_case({"tag": "nonsense"})

    def test_family(self):
        fam = parse_family({"dim": 1, "half_width": 2.0, "min_level": 0,
                            "max_level": 3})
        assert len(fam) == 15

    def test_operators(self):
        assert parse_operator({"type": "zero"}).descriptor()["type"] == "zero"
        op = parse_operator({"type": "fractional_integral", "beta": 1.5})
        assert op.beta == 1.5


class TestValidation:
    def test_unknown_experiment(self):
        errs = validate_config({"experiment": "nope"})
        assert errs

    def test_missing_keys_reported(self):
        errs = validate_config({"experiment": "weight-constant", "seed": 0})
        assert any("class" in e for e in errs)
        assert any("family" in e for e in errs)

    def test_all_presets_validate(self):
        for name in PRESETS:
            assert validate_config(preset_config(name)) == []

    def test_catalog_covers_experiments(self):
        listing = list_presets()
        assert len(listing) >= 6
        tags = {preset_config(row["name"])["experiment"] for row in listing}
        assert {"weight-constant", "characterize", "solve-theta",
                "boundedness-sweep", "compactness-contrast",
                "symbol-norm"} <= tags

    @pytest.mark.parametrize("preset,changes", [
        # one node per cube makes every Ap quantity read exactly 1
        ("power-weight-ap", {"resolution": 1}),
        # the coarsest map (N = 64, 32 x 32 basis) has only 64 singular values
        ("cz-contrast", {"k_probe": 65}),
        ("cz-contrast", {"refinements": [96]}),
        ("cz-contrast", {"n_basis": [48, 32]}),
        # lengths and orders of related vectors
        ("characterize-limited-range", {"s": ["1"]}),
        ("characterize-limited-range", {"p": ["2", "2"], "s": ["3", "1"]}),
        ("diagonal-certificate", {"case": {"tag": "diagonal_vector",
                                           "s": ["1"]}}),
        ("unit-weight-ap", {"class": {"kind": "multilinear", "p": ["2", "2"]},
                            "weights": [{"type": "constant", "value": 1.0}]}),
        # solver and membership settings without a meaning below 1: no
        # growth makes every finite constant a member, C < 1 fails every
        # weight, and an empty schedule or sample set certifies nothing
        ("diagonal-certificate", {"growth_levels": 0}),
        ("diagonal-certificate", {"growth_levels": -1}),
        ("diagonal-certificate", {"schedule_depth": 0}),
        ("diagonal-certificate", {"identity_samples": 0}),
        ("diagonal-certificate", {"c_rhi": 0.5}),
        # the off-diagonal class needs 1/m < p <= p_star (harmonic p)
        ("characterize-offdiagonal", {"p_star": "1/2"}),
        ("characterize-offdiagonal", {"p": ["1", "1"], "p_star": "1"}),
        # a shift outside [0, 1) or a repeated one lays the same cubes again
        ("power-weight-ap", {"family": {"dim": 1, "half_width": 4.0,
                                        "min_level": 0, "max_level": 6,
                                        "shifts": [0.0, 1.0]}}),
        ("power-weight-ap", {"family": {"dim": 1, "half_width": 4.0,
                                        "min_level": 0, "max_level": 6,
                                        "shifts": [0.5, 0.5]}}),
        # weights are parsed by the inverse of their descriptors
        ("diagonal-certificate", {"w": [{"type": "mystery"}] * 2}),
        ("diagonal-certificate", {"v": [{"center": [0.0]}] * 2}),
    ])
    def test_meaningless_input_rejected(self, preset, changes):
        cfg = preset_config(preset)
        cfg.update(changes)
        code, out, _ = run_experiment(cfg)
        assert code == EXIT_CONFIG
        assert any(key in e for key in changes for e in out["errors"])

    @pytest.mark.parametrize("preset", ["fractional-contrast",
                                        "multiplier-product-sweep"])
    def test_operator_dim_other_than_one_rejected(self, preset):
        # every operator runner works on a 1-D grid
        cfg = preset_config(preset)
        cfg["operator"] = {"type": "fractional_integral", "beta": 1.0, "dim": 2}
        assert validate_config(cfg)
        code, out, _ = run_experiment(cfg)
        assert code == EXIT_CONFIG
        assert any("dim" in e for e in out["errors"])

    def test_preset_case_mapping(self):
        cfg = preset_config("offdiagonal-certificate")
        assert cfg["case"]["tag"] == "offdiagonal_vector"
        cfg = preset_config("diagonal-componentwise-certificate")
        assert cfg["case"]["tag"] == "diagonal_componentwise"


class TestRunExperiment:
    def test_unit_weight_value_one(self):
        code, out, csv_rows = run_experiment(preset_config("unit-weight-ap"))
        assert code == EXIT_OK
        assert out["value"] == pytest.approx(1.0, abs=1e-12)
        assert csv_rows is None

    def test_malformed_config_is_config_error(self):
        code, out, _ = run_experiment({"experiment": "solve-theta", "seed": 0})
        assert code == EXIT_CONFIG
        assert out["errors"]

    def test_compute_error_exit(self, monkeypatch):
        # a config that parses, whose compute step raises
        def fail(cfg, **parsed):
            raise FloatingPointError("class constant produced NaN")

        monkeypatch.setitem(cli._RUNNERS, "weight-constant", fail)
        code, out, _ = run_experiment(preset_config("unit-weight-ap"))
        assert code == EXIT_COMPUTE
        assert out == {"error": "FloatingPointError: class constant produced NaN"}

    def test_inconclusive_exit_for_failed_solve(self):
        cfg = preset_config("diagonal-certificate")
        cfg["w"] = [{"type": "power", "center": [0.0], "exponent": "2"}] * 2
        cfg["v"] = [{"type": "power", "center": [0.0], "exponent": "2"}] * 2
        code, out, _ = run_experiment(cfg)
        assert code == EXIT_INCONCLUSIVE
        assert out["success"] is False

    def test_solve_theta_artifact_shape(self):
        from fractions import Fraction
        code, out, _ = run_experiment(preset_config("diagonal-certificate"))
        assert code == EXIT_OK
        assert out["success"] is True
        assert 0 < Fraction(out["theta"]) < 1
        assert out["provenance_run"]["config"]["experiment"] == "solve-theta"
        assert "checks" in out and len(out["checks"]) == 3

    def test_product_bound_reevaluates_on_second_family(self):
        cfg = preset_config("diagonal-certificate")
        cfg["experiment"] = "product-bound"
        cfg["bound_family"] = {"dim": 1, "half_width": 4.0, "min_level": 0,
                               "max_level": 5}
        code, out, _ = run_experiment(cfg)
        assert code == EXIT_OK
        block = out["product_bounds_on_family"]
        assert block["family"]["max_level"] == 5
        assert len(block["bounds"]) == 3
        for bound in block["bounds"]:
            assert bound["ratio"] > 0

    def test_provenance_echoes_thresholds(self):
        code, out, _ = run_experiment(preset_config("power-weight-ap"))
        assert code == EXIT_OK
        prov = out["provenance"]
        assert "divergence_ratio" in prov
        assert prov["config"]["resolution"] == 64
        assert "membership" in out


class TestMainEntry:
    def test_run_preset_writes_artifacts(self, tmp_path):
        code = main(["run", "--preset", "unit-weight-ap",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "unit-weight-ap.json").read_text())
        assert doc["value"] == 1.0

    def test_config_file_run(self, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(preset_config("unit-weight-ap")))
        code = main(["run", str(cfg_path), "--output-dir",
                     str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "exp.json").exists()

    def test_run_next_to_the_config_keeps_the_config(self, tmp_path,
                                                      monkeypatch, capsys):
        # README's `wextrap run myconfig.json`, in the config's directory
        monkeypatch.chdir(tmp_path)
        text = json.dumps(preset_config("unit-weight-ap"))
        (tmp_path / "myconfig.json").write_text(text)
        for _ in range(2):
            assert main(["run", "myconfig.json"]) == EXIT_CONFIG
            assert "would overwrite the config" in capsys.readouterr().err
            assert (tmp_path / "myconfig.json").read_text() == text
        assert [p.name for p in tmp_path.iterdir()] == ["myconfig.json"]

    def test_csv_artifact_may_not_overwrite_the_config(self, tmp_path):
        cfg = preset_config("cz-contrast")
        cfg.update(refinements=[64], n_basis=[8, 8], k_probe=4)
        cfg_path = tmp_path / "contrast.csv"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["run", str(cfg_path), "--output-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert json.loads(cfg_path.read_text()) == cfg
        assert [p.name for p in tmp_path.iterdir()] == ["contrast.csv"]

    def test_malformed_config_writes_nothing(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"experiment": "weight-constant"}))
        out_dir = tmp_path / "out"
        code = main(["run", str(cfg_path), "--output-dir", str(out_dir)])
        assert code == EXIT_CONFIG
        assert not out_dir.exists()

    def test_override_applies(self, tmp_path):
        code = main(["run", "--preset", "unit-weight-ap",
                     "--override", "class.p=\"3\"",
                     "--output-dir", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "unit-weight-ap.json").read_text())
        assert "3" in doc["tag"]

    def test_override_does_not_leak_into_next_call(self, tmp_path):
        assert main(["run", "--preset", "unit-weight-ap",
                     "--override", "class.p=\"3\"",
                     "--output-dir", str(tmp_path / "a")]) == 0
        assert main(["run", "--preset", "unit-weight-ap",
                     "--output-dir", str(tmp_path / "b")]) == 0
        first = json.loads((tmp_path / "a" / "unit-weight-ap.json").read_text())
        second = (tmp_path / "b" / "unit-weight-ap.json").read_text()
        assert "3" in first["tag"]
        _, plain, _ = run_experiment(preset_config("unit-weight-ap"))
        assert second == canonical_json(plain)

    def test_override_below_non_object_is_config_error(self, tmp_path,
                                                        capsys):
        code = main(["run", "--preset", "unit-weight-ap",
                     "--override", "seed.x=1", "--output-dir", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "seed.x" in capsys.readouterr().err
        assert not (tmp_path / "unit-weight-ap.json").exists()

    def test_validate_subcommand(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(preset_config("log-symbol-bmo")))
        assert main(["validate", str(cfg_path)]) == 0
        cfg_path.write_text("{}")
        assert main(["validate", str(cfg_path)]) == EXIT_CONFIG

    def test_presets_subcommand(self, capsys):
        assert main(["presets"]) == 0
        text = capsys.readouterr().out
        assert "fractional-contrast" in text

    def test_requires_exactly_one_source(self):
        assert main(["run"]) == EXIT_CONFIG


MUTANTS = (1, "x", None, [1], {"a": 1})


def _mutations(cfg):
    """Copies of cfg with one value replaced by one mutant: every key at the
    top level, and every key of a dict nested one level down."""
    for key, value in cfg.items():
        paths = [(key,)]
        if isinstance(value, dict):
            paths += [(key, sub) for sub in value]
        for path in paths:
            for mutant in MUTANTS:
                out = copy.deepcopy(cfg)
                node = out
                for part in path[:-1]:
                    node = node[part]
                node[path[-1]] = copy.deepcopy(mutant)
                yield path, out


class TestMutatedPresets:
    def test_type_mutations_give_problems_never_tracebacks(self, tmp_path):
        path = tmp_path / "cfg.json"
        for name in sorted(PRESETS):
            for where, cfg in _mutations(preset_config(name)):
                problems = validate_config(cfg)
                assert isinstance(problems, list), (name, where)
                assert all(isinstance(p, str) for p in problems)
                path.write_text(json.dumps(cfg))
                expected = EXIT_CONFIG if problems else EXIT_OK
                assert main(["validate", str(path)]) == expected, (name, where)


class TestCanonicalJson:
    def test_fixed_float_format(self):
        s = canonical_json({"x": 1.0 / 3.0, "y": 2.0, "inf": math.inf})
        assert "0.33333333333333331" in s
        assert '"inf"' in s
        assert '"y": 2.0' in s

    def test_fraction_rendering(self):
        from fractions import Fraction
        assert '"1/5"' in canonical_json({"e": Fraction(1, 5)})

    def test_sorted_keys_and_stability(self):
        doc = {"b": [1, 2, {"z": 0.1, "a": 0.2}], "a": None, "c": True}
        assert canonical_json(doc) == canonical_json(json.loads(
            canonical_json(doc)))

    def test_csv_contract_columns(self, tmp_path):
        code, out, rows = run_experiment(preset_config("cz-contrast"))
        assert code == EXIT_OK
        from wextrap.serialization import write_csv
        from wextrap.cli import CSV_COLUMNS
        path = tmp_path / "contrast.csv"
        write_csv(path, rows, CSV_COLUMNS)
        header = path.read_text().splitlines()[0]
        assert header == "N,symbol_class,k,a_k,a_k_over_a1"
