import copy
import importlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import seqot.gibbs
import seqot.invariance
from seqot.cli import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    main,
    parse_params,
    run_experiment,
    validate_config,
)


def write_config(tmp_path, name, **kwargs):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": name, **kwargs}))
    return str(path)


def load_report(outdir):
    with open(os.path.join(outdir, "report.json")) as fh:
        return json.load(fh)


class TestConfigParsing:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "talagrand", "extra": 1})

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"experiment": "talagrand", "params": {"bogus": 1}})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "nope"})

    def test_seed_required_for_stochastic(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "ot_basic"})
        cfg = ExperimentConfig.from_dict({"experiment": "ot_basic", "seed": 3})
        assert cfg.seed == 3

    @pytest.mark.parametrize("raw", [
        {"seed": True}, {"seed": -1}, {"output_dir": 5}, {"output_dir": ""},
        {"params": 5},
    ])
    def test_malformed_top_level_value_rejected(self, raw):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "talagrand", **raw})

    def test_defaults_merged(self):
        cfg = ExperimentConfig.from_dict({"experiment": "talagrand"})
        assert cfg.params["K"] == 1.0


class TestRegistry:
    def test_every_experiment_backed_by_module_operations(self):
        for name, entry in EXPERIMENTS.items():
            assert entry.backed_by, name
            for dotted in entry.backed_by:
                module_name, attr = dotted.rsplit(".", 1)
                mod = importlib.import_module(module_name)
                assert callable(getattr(mod, attr)), dotted


class TestRun:
    def test_talagrand_equality_case(self, tmp_path):
        cfg = write_config(tmp_path, "talagrand", output_dir=str(tmp_path / "out"))
        rc = main(["run", cfg])
        assert rc == 0
        report = load_report(str(tmp_path / "out"))
        assert report["passed"]
        assert report["results"]["lhs"] == pytest.approx(0.5, abs=1e-12)
        assert report["results"]["rhs"] == pytest.approx(0.5, abs=1e-12)
        assert (tmp_path / "out" / "data.csv").exists()
        svg = (tmp_path / "out" / "plot.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_invariant_duality_worked_instance(self, tmp_path):
        cfg = write_config(tmp_path, "invariant_duality", seed=1,
                           output_dir=str(tmp_path / "out"))
        rc = main(["run", cfg])
        assert rc == 0
        report = load_report(str(tmp_path / "out"))
        assert report["results"]["primal"] == pytest.approx(0.5, abs=1e-9)
        assert report["results"]["dual"] == pytest.approx(0.5, abs=1e-9)
        assert report["results"]["gap"] <= 1e-9

    def test_no_map_experiment(self, tmp_path):
        cfg = write_config(tmp_path, "no_map", output_dir=str(tmp_path / "out"))
        assert main(["run", cfg]) == 0
        report = load_report(str(tmp_path / "out"))
        assert report["results"]["concentration"] < 0.99

    def test_gibbs_cauchy_uncoupled(self, tmp_path):
        cfg = write_config(tmp_path, "gibbs_cauchy", seed=907,
                           output_dir=str(tmp_path / "out"))
        assert main(["run", cfg]) == 0
        report = load_report(str(tmp_path / "out"))
        results = report["results"]
        assert set(results) == {"n", "rows", "replicates", "ot_points", "epsilon",
                                "passed"}
        row = results["rows"][0]
        assert set(row) == {"m", "d_raw", "d_null", "d_corrected", "se_d", "entropy",
                            "entropy_se", "bound", "per_site", "passed"}
        assert row["entropy"] == 0.0
        assert row["passed"]

    # the exact keys of report["results"]: every field of the result object
    # (definetti names its four; its plan and component maps stay out)
    @pytest.mark.parametrize("name,keys", [
        ("ot_basic", {"values", "gaps", "max_gap", "sizes"}),
        ("invariant_duality", {"primal", "dual", "gap", "orbits", "group_order"}),
        ("transitive_identity", {"full_value", "invariant_single_value",
                                 "dim_times_invariant", "relative_difference",
                                 "per_coordinate_costs", "per_coordinate_spread"}),
        ("no_map", {"value", "concentration", "is_map", "components_identical"}),
        ("quasi_product", {"k_constant", "contraction_bound", "tilt_bounds",
                           "f_log_f", "diagonal_rows", "pair_rows", "passed"}),
        ("definetti", {"value", "assignment", "ground_cost", "concentration"}),
        ("mixture_entropy", {"estimate", "standard_error", "bound", "n_samples",
                             "n_skipped", "passed"}),
        ("talagrand", {"lhs", "rhs", "slack", "K", "method", "passed",
                       "resolution"}),
        ("lemma21", {"lhs_increment", "rhs_increment", "lhs_linearization",
                     "rhs_linearization", "slack_increment", "slack_linearization",
                     "passed", "resolution"}),
        ("gibbs_cauchy", {"n", "rows", "replicates", "ot_points", "epsilon",
                          "passed"}),
    ])
    def test_results_keys_at_default_config(self, tmp_path, monkeypatch, name, keys):
        # the run also calls every function its entry claims to be backed
        # by, each wrapped wherever a seqot module binds it
        backed_by = EXPERIMENTS[name].backed_by
        called = set()
        for dotted in backed_by:
            module_name, attr = dotted.rsplit(".", 1)
            fn = getattr(importlib.import_module(module_name), attr)

            def wrapped(*args, _fn=fn, _dotted=dotted, **kwargs):
                called.add(_dotted)
                return _fn(*args, **kwargs)

            for loaded, module in list(sys.modules.items()):
                if loaded == "seqot" or loaded.startswith("seqot."):
                    for binding, value in list(vars(module).items()):
                        if value is fn:
                            monkeypatch.setattr(module, binding, wrapped)
        raw = {"experiment": name, "output_dir": str(tmp_path)}
        if EXPERIMENTS[name].stochastic:
            raw["seed"] = 1
        assert run_experiment(ExperimentConfig.from_dict(raw)) == 0
        assert set(load_report(str(tmp_path))["results"]) == keys
        assert called == set(backed_by)

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2
        path.write_text("5")  # JSON, but not an object
        assert main(["validate", str(path)]) == 2
        cfg = write_config(tmp_path, "talagrand", params={"bogus": 2})
        assert main(["run", cfg]) == 2

    def test_assertion_failure_exit_code(self, tmp_path):
        # K above the certified constant of a wide target: config error (2)
        cfg = write_config(tmp_path, "talagrand",
                           params={"target": {"mean": 0.0, "sigma": 2.0}, "K": 1.0},
                           output_dir=str(tmp_path / "out"))
        assert main(["run", cfg]) == 2

    def test_runtime_value_error_after_validation_exit_code(self, tmp_path, capsys):
        # a config that validate accepts but whose run fails deep in the
        # solver (a zero-mass row) is a runtime failure, not a config error
        cfg = write_config(tmp_path, "quasi_product",
                           params={"source_tilt_strength": 50}, seed=0,
                           output_dir=str(tmp_path / "out"))
        assert main(["validate", cfg]) == 0
        assert main(["run", cfg]) == 3
        assert "runtime failure" in capsys.readouterr().err

    def test_run_parses_its_config_once(self, tmp_path, monkeypatch):
        # the parse closes the group and builds the Gibbs spec; the run
        # itself must not repeat that work
        calls = []

        def count(module, name):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, **k: calls.append(name) or fn(*a, **k))

        count(seqot.invariance, "closure_from_generators")
        count(seqot.gibbs, "quartic_spec")
        cfg = write_config(tmp_path, "invariant_duality", seed=1,
                           params={"instance": "random", "group": "c3"},
                           output_dir=str(tmp_path / "inv"))
        assert main(["run", cfg]) == 0
        assert calls == ["closure_from_generators"]
        cfg = write_config(tmp_path, "gibbs_cauchy", seed=1,
                           params={"n": 1, "m_list": [0], "samples": 60,
                                   "ot_points": 20, "replicates": 3},
                           output_dir=str(tmp_path / "gibbs"))
        assert main(["run", cfg]) in (0, 1)  # 1: the 3-SE test failed by chance
        assert calls == ["closure_from_generators", "quartic_spec"]

    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out


class TestValidate:
    def test_gibbs_checklist(self, tmp_path):
        cfg = write_config(tmp_path, "gibbs_cauchy", seed=1)
        rc = main(["validate", cfg])
        assert rc == 0

    def test_validate_reports_group_cap(self):
        cfg = ExperimentConfig.from_dict(
            {"experiment": "invariant_duality", "seed": 1,
             "params": {"instance": "random", "group": "s3"}})
        checks = validate_config(cfg)
        names = [c["check"] for c in checks]
        assert "group closure within cap" in names
        assert all(c["passed"] for c in checks)

    def test_validate_flags_bad_target(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "talagrand",
                           params={"target": {"mean": 0.0, "sigma": 2.0}, "K": 1.0})
        assert main(["validate", cfg]) == 2
        out = json.loads(capsys.readouterr().out)
        assert not out["ok"]

    def test_validate_names_asymmetric_pair_potential(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "gibbs_cauchy", seed=1,
            params={"V_coeffs": [0, 0, 0, 0, 1],
                    "W_coeffs": [[0.0, 0.3], [0.0, 0.0]],  # W = 0.3 y: asymmetric
                    "gibbs_params": {"J": 1, "L": 4, "N": 3, "sigma": 1,
                                     "A": 3.9, "B": 1, "C": 4}})
        assert main(["validate", cfg]) == 2
        out = json.loads(capsys.readouterr().out)
        failing = [c for c in out["checks"] if not c["passed"]]
        assert any("symmetry" in c["check"] for c in failing)

    def test_validate_flags_group_closure_blowup(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "invariant_duality", seed=1,
            params={"instance": "random",
                    "group": {"dim": 8,
                              "generators": [[1, 2, 3, 4, 5, 6, 7, 0],
                                             [1, 0, 2, 3, 4, 5, 6, 7]]}})
        assert main(["validate", cfg]) == 2
        out = json.loads(capsys.readouterr().out)
        failing = [c for c in out["checks"] if not c["passed"]]
        assert any("closure" in c["check"] for c in failing)

    def test_group_dict_takes_only_dim_and_generators(self, tmp_path, capsys):
        # a max_size key lifted the closure cap, and S8 (40,320 elements) passed
        cfg = write_config(
            tmp_path, "invariant_duality", seed=1, output_dir=str(tmp_path / "out"),
            params={"instance": "random",
                    "group": {"dim": 8,
                              "generators": [[1, 0, 2, 3, 4, 5, 6, 7],
                                             [1, 2, 3, 4, 5, 6, 7, 0]],
                              "max_size": 100_000}})
        assert main(["validate", cfg]) == 2
        out = json.loads(capsys.readouterr().out)
        failing = [c for c in out["checks"] if not c["passed"]]
        assert [c["check"] for c in failing] == ["group closure within cap"]
        assert "exactly the keys dim and generators" in failing[0]["detail"]
        assert main(["run", cfg]) == 2
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("generator", [[1.5, 0.2], [True, False]])
    def test_validate_rejects_non_integer_generator(self, tmp_path, capsys, generator):
        # both were cast to the permutation [1, 0] and ran as S2
        cfg = write_config(
            tmp_path, "invariant_duality", seed=1, output_dir=str(tmp_path / "out"),
            params={"instance": "random", "group": {"dim": 2, "generators": [generator]}})
        assert main(["validate", cfg]) == 2
        out = json.loads(capsys.readouterr().out)
        failing = [c for c in out["checks"] if not c["passed"]]
        assert [c["detail"] for c in failing] == [
            f"not a permutation of 0..1: {generator}"]
        assert main(["run", cfg]) == 2
        assert not (tmp_path / "out" / "report.json").exists()


    @pytest.mark.parametrize("name,raw", [
        ("talagrand", {"params": {"target": {"bogus": 1}}}),
        ("gibbs_cauchy", {"seed": 1, "params": {"replicates": "x"}}),
        ("mixture_entropy", {"seed": 1, "params": {"mixture": {"bogus": 1}}}),
        ("no_map", {"params": {"a": {"points": [0.0]}}}),
        ("invariant_duality",
         {"seed": 1, "params": {"instance": "random", "group": {"dim": 2}}}),
        ("transitive_identity",
         {"seed": 1, "params": {"instance": "random", "group": 5}}),
        ("ot_basic", {"seed": 1, "params": {"max_atoms": 1}}),
        ("definetti", {"params": {"mu": {"weights": [1.0]}}}),
        ("quasi_product", {"params": {"dim": 0}}),
        ("quasi_product", {"params": {"nodes": "x"}}),
        ("lemma21", {"params": {"t": -1}}),
        ("lemma21", {"params": {"mu": {"mean": 0}}}),
        ("mixture_entropy", {"seed": 1, "params": {"samples": 0}}),
        ("no_map", {"params": {"a": {"points": [], "weights": []}}}),
        ("no_map", {"params": {"d": 0}}),
        ("no_map", {"params": {"d": "x"}}),
        ("no_map", {"params": {"d": 3}}),  # the group s2 acts on 2 coordinates
        ("quasi_product", {"params": {"n_list": ["x"]}}),
        ("quasi_product", {"params": {"n_list": 3}}),
        ("quasi_product", {"params": {"source_tilt_strength": "x"}}),
        ("quasi_product", {"params": {"target_tilt_strength": -1}}),
        ("definetti", {"params": {"resolution": 1}}),
        ("definetti", {"params": {"resolution": "x"}}),
        ("invariant_duality", {"seed": 1, "params": {"instance": "random", "orbits": 0}}),
        ("invariant_duality", {"seed": 1, "params": {"instance": "random", "group": "c0"}}),
        ("transitive_identity",
         {"seed": 1, "params": {"instance": "random", "orbits": "x"}}),
        ("talagrand", {"params": {"mu": {"bogus_inner": 1.0}}}),
        ("mixture_entropy", {"seed": 1, "params": {"m": 2.5, "n": 4}}),
        ("invariant_duality", {"seed": 1, "params": {"instance": "bogus"}}),
        ("lemma21", {"params": {"epsilon": -1}}),
        ("gibbs_cauchy", {"seed": 1, "params": {"n": True, "m_list": [0]}}),
        ("gibbs_cauchy", {"seed": 1, "params": {"epsilon": -1}}),
    ])
    def test_malformed_nested_param_is_a_failed_check(self, tmp_path, capsys,
                                                      name, raw):
        cfg = write_config(tmp_path, name, output_dir=str(tmp_path / "out"), **raw)
        assert main(["validate", cfg]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is False
        assert main(["run", cfg]) == 2
        assert not (tmp_path / "out" / "report.json").exists()

    def test_readme_example_config_validates(self, tmp_path, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("Example config:")[1].split("```json")[1].split("```")[0]
        raw = json.loads(example)
        assert raw["experiment"] == "gibbs_cauchy"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    @pytest.mark.parametrize("params", [
        {"n": 0}, {"m_list": [5]}, {"ot_points": 0}, {"replicates": 1},
    ])
    def test_gibbs_cauchy_range_errors_exit_2(self, tmp_path, capsys, params):
        cfg = write_config(tmp_path, "gibbs_cauchy", seed=1, params=params,
                           output_dir=str(tmp_path / "out"))
        assert main(["validate", cfg]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is False
        assert main(["run", cfg]) == 2
        assert not (tmp_path / "out" / "report.json").exists()


class TestReproducibility:
    @staticmethod
    def canonical(report_path):
        with open(report_path) as fh:
            data = json.load(fh)
        data.pop("timestamp")
        return json.dumps(data, sort_keys=True)

    def test_same_seed_byte_identical_modulo_timestamp(self, tmp_path):
        for name, seed in (("ot_basic", 5), ("invariant_duality", 9)):
            out1, out2 = str(tmp_path / f"{name}_1"), str(tmp_path / f"{name}_2")
            cfg1 = ExperimentConfig.from_dict(
                {"experiment": name, "seed": seed, "output_dir": out1})
            cfg2 = ExperimentConfig.from_dict(
                {"experiment": name, "seed": seed, "output_dir": out2})
            run_experiment(cfg1)
            run_experiment(cfg2)
            a = self.canonical(os.path.join(out1, "report.json"))
            b = self.canonical(os.path.join(out2, "report.json"))
            assert a == b
            with open(os.path.join(out1, "data.csv")) as f1, \
                    open(os.path.join(out2, "data.csv")) as f2:
                assert f1.read() == f2.read()

    def test_empty_output_dir_env_counts_as_unset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OUTPUT_DIR", "")
        cfg = write_config(tmp_path, "talagrand", output_dir=str(tmp_path / "out"))
        assert main(["run", cfg]) == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("OUTPUT_DIR", str(target))
        cfg = ExperimentConfig.from_dict({"experiment": "talagrand"})
        assert cfg.output_dir == str(target)


def _default_config(name, params=None):
    raw = {"experiment": name, "params": params or {}}
    if EXPERIMENTS[name].stochastic:
        raw["seed"] = 1
    return raw


def _paths(value, path=()):
    """Every path into a JSON value, the value itself first."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated_configs(draw, names):
    """A default config with one change at one path: a dropped key or list
    entry, a value of another type, a number pushed out of range, or a bool
    in place of a number."""
    name = draw(st.sampled_from(names))
    params = copy.deepcopy(EXPERIMENTS[name].defaults)
    path = draw(st.sampled_from([p for p in _paths(params) if p]))
    parent = params
    for key in path[:-1]:
        parent = parent[key]
    kind = draw(st.sampled_from(["drop", "swap", "range", "bool"]))
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from({
            "swap": ["x", None, [], {}, 1.5, [1.0], {"x": 1}],
            "range": [-1, 0, -0.5, float("nan")],
            "bool": [True, False]}[kind]))
    return _default_config(name, params)


CHEAP = ["talagrand", "lemma21", "no_map", "invariant_duality", "transitive_identity"]


# a mutated mixture may repeat a component, which MixtureSpec warns about
@pytest.mark.filterwarnings("ignore:mixture components")
class TestParamSpec:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_default_config_validates_with_one_check_per_param(self, name):
        checks = validate_config(ExperimentConfig.from_dict(_default_config(name)))
        assert all(c["passed"] for c in checks), checks
        names = [c["check"] for c in checks]
        assert [n for n in names if n.startswith("param ")] == [
            f"param {p}" for p in EXPERIMENTS[name].params]
        # every cross check reads params that exist, so each one runs
        assert [n for n in names if not n.startswith("param ")] == [
            c.name for c in EXPERIMENTS[name].checks]

    @settings(max_examples=400, deadline=None)
    @given(mutated_configs(sorted(EXPERIMENTS)))
    def test_validate_agrees_with_the_parse_of_run(self, raw):
        config = ExperimentConfig.from_dict(raw)
        checks = validate_config(config)  # never raises
        failed = {c["check"] for c in checks if not c["passed"]}
        try:
            parse_params(config)
            parsed = True
        except ConfigError:
            parsed = False
        assert parsed == (not failed), checks

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(mutated_configs(CHEAP))
    def test_accepted_config_never_exits_2_from_run(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                json.dump({**raw, "output_dir": os.path.join(tmp, "out")}, fh)
            if all(c["passed"] for c in validate_config(ExperimentConfig.from_file(path))):
                assert main(["run", path]) != 2
