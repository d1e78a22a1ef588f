"""End-to-end checks of the command-line interface through click's runner."""

import json
import os
import signal
import stat

import pytest
from click.testing import CliRunner

from conftest import wait_for
from histwalk import experiments
from histwalk.cli import _RUN_KEYS, load_config, main
from histwalk.distributions import Gaussian
from histwalk.errors import ConfigError, InvalidInputError
from histwalk.ratefn import RateFunction

L1_DOC = {
    "model": {
        "dists": [
            {"kind": "gaussian", "mu": 0.0, "sigma2": 1.0},
            {"kind": "gaussian", "mu": 1.0, "sigma2": 1.0},
        ],
        "thresholds": [0.4],
        "window": 10,
        "initial_regime": 0,
    },
    "run": {"version": "delayed", "steps": 30000, "replicas": 2, "seed": 42},
}

L2_DOC = {
    "model": {
        "dists": [
            {"kind": "gaussian", "mu": 0.0, "sigma2": 1.0},
            {"kind": "gaussian", "mu": 1.0, "sigma2": 1.0},
            {"kind": "gaussian", "mu": 2.0, "sigma2": 1.0},
        ],
        "thresholds": [0.4, 1.3],
        "window": 10,
    },
}

# one law of each kind, so that every model float has a place to go wrong
MIXED_DOC = {
    "model": {
        "dists": [
            {"kind": "rademacher", "p": 0.3},
            {"kind": "gaussian", "mu": 0.5, "sigma2": 1.0},
            {"kind": "finite_discrete", "atoms": [0, 1, 2], "weights": [0.25, 0.5, 0.25]},
        ],
        "thresholds": [0.0, 0.75],
        "window": 10,
    },
}

EQUAL_MEANS_DOC = {
    "model": {
        "dists": [
            {"kind": "gaussian", "mu": 0.5, "sigma2": 1.0},
            {"kind": "gaussian", "mu": 0.5, "sigma2": 1.0},
        ],
        "thresholds": [0.5],
        "window": 6,
    },
}


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def mutate(doc, fn):
    clone = json.loads(json.dumps(doc))
    fn(clone)
    return clone


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        spec, run_cfg = load_config(write_config(tmp_path, L1_DOC))
        assert spec.window == 10
        assert spec.thresholds == (0.4,)
        assert isinstance(spec.dists[1], Gaussian)
        assert run_cfg["seed"] == 42

    def test_run_section_is_optional(self, tmp_path):
        spec, run_cfg = load_config(write_config(tmp_path, L2_DOC))
        assert spec.l == 2
        assert run_cfg == {}

    @pytest.mark.parametrize(
        "breaker",
        [
            lambda d: d.update(extra=1),
            lambda d: d["model"].update(burn_in=100),
            lambda d: d["run"].update(tolerances={"speed": 0.1}),
            lambda d: d["model"]["dists"][0].update(kind="cauchy"),
            lambda d: d["model"]["dists"][0].pop("sigma2"),
            lambda d: d["model"]["dists"][0].update(scale=2.0),
            lambda d: d["model"].pop("thresholds"),
            lambda d: d["model"]["dists"][0].update(sigma2=-1.0),
            lambda d: d["run"].update(version="soon"),
            lambda d: d["run"].update(seed=1.5),
            lambda d: d["run"].update(replicas=True),
            lambda d: d["run"].update(n_grid=[10, "20"]),
            lambda d: d["run"].update(output=7),
        ],
        ids=[
            "unknown-top-key",
            "unknown-model-key",
            "tolerances-rejected",
            "unknown-dist-kind",
            "missing-dist-field",
            "extra-dist-field",
            "missing-thresholds",
            "negative-variance",
            "bad-version",
            "float-seed",
            "bool-replicas",
            "stringy-grid",
            "non-string-output",
        ],
    )
    def test_bad_documents_are_rejected(self, tmp_path, breaker):
        path = write_config(tmp_path, mutate(L1_DOC, breaker))
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [("window", 10.5), ("window", True), ("window", "10"), ("initial_regime", 0.9)],
    )
    def test_model_integers_are_not_coerced(self, runner, tmp_path, key, value):
        path = write_config(tmp_path, mutate(L1_DOC, lambda d: d["model"].update({key: value})))
        res = runner.invoke(main, ["validate", path])
        assert res.exit_code == 2
        assert f"model.{key} must be an integer, got {value!r}" in res.stderr

    @pytest.mark.parametrize(
        "dist, key, value, kind",
        [
            (0, "p", "0.3", "a number"),
            (1, "mu", "0.5", "a number"),
            (1, "sigma2", True, "a number"),
            (1, "mu", 10**400, "a number"),
            (2, "atoms", "012", "a list of numbers"),
            (2, "atoms", [0, 1, False], "a list of numbers"),
            (2, "weights", [0.25, "0.5", 0.25], "a list of numbers"),
            (None, "thresholds", ["0.0", 0.75], "a list of numbers"),
            (None, "thresholds", {"0": 0.0, "1": 0.75}, "a list of numbers"),
        ],
    )
    def test_model_floats_are_not_coerced(self, runner, tmp_path, dist, key, value, kind):
        assert invoke(runner, ["validate", write_config(tmp_path, MIXED_DOC)]).exit_code == 0
        where = "model" if dist is None else f"model.dists[{dist}]"

        def breaker(doc):
            (doc["model"] if dist is None else doc["model"]["dists"][dist])[key] = value

        res = runner.invoke(main, ["validate", write_config(tmp_path, mutate(MIXED_DOC, breaker))])
        assert res.exit_code == 2
        assert f"{where}.{key} must be {kind}, got {value!r}" in res.stderr

    @pytest.mark.parametrize("key, value", [("dist", 1), ("output", "report.json")])
    def test_keys_no_command_reads_are_rejected(self, runner, tmp_path, key, value):
        # --dist and --output are flags only; a run key for them would be ignored
        path = write_config(tmp_path, mutate(L1_DOC, lambda d: d["run"].update({key: value})))
        res = runner.invoke(main, ["predict", path])
        assert res.exit_code == 2
        assert f"unknown keys ['{key}'] in run" in res.stderr

    def test_every_run_key_is_a_flag(self):
        # the README's promise: each run key can also be given as the flag of the same name
        flags = {opt for cmd in main.commands.values() for param in cmd.params for opt in param.opts}
        assert {"--" + key.replace("_", "-") for key in _RUN_KEYS} <= flags

    def test_nan_weight_is_a_config_error(self, runner, tmp_path):
        # json.load reads the NaN literal that json.dumps writes
        doc = mutate(MIXED_DOC, lambda d: d["model"]["dists"][2].update(weights=[float("nan"), 0.5, 0.25]))
        res = runner.invoke(main, ["validate", write_config(tmp_path, doc)])
        assert res.exit_code == 2
        assert "model.dists[2]: weights must be strictly positive" in res.stderr

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.json"))

    def test_non_json_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("window: 10\n")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))


class TestValidate:
    def test_good_model(self, runner, tmp_path):
        res = invoke(runner, ["validate", write_config(tmp_path, L1_DOC)])
        assert res.exit_code == 0
        doc = json.loads(res.stdout)
        assert doc["passed"] is True

    def test_broken_assumption_exits_one_with_report(self, runner, tmp_path):
        res = invoke(runner, ["validate", write_config(tmp_path, EQUAL_MEANS_DOC)])
        assert res.exit_code == 1
        doc = json.loads(res.stdout)
        assert doc["mean_ordering"] is False

    def test_parse_error_exits_two(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        res = invoke(runner, ["validate", str(path)])
        assert res.exit_code == 2
        assert "config error" in res.stderr


class TestPredict:
    def test_single_threshold_prediction(self, runner, tmp_path):
        res = invoke(runner, ["predict", write_config(tmp_path, L1_DOC)])
        assert res.exit_code == 0
        doc = json.loads(res.stdout)
        assert doc["predicted_speed"] == 1.0
        assert doc["argmax"] == [1]

    def test_tied_prediction_is_withheld_not_fatal(self, runner, tmp_path):
        # symmetric placement makes both dominance exponents equal
        doc = mutate(L2_DOC, lambda d: d["model"].update(thresholds=[0.5, 1.5]))
        res = invoke(runner, ["predict", write_config(tmp_path, doc)])
        assert res.exit_code == 0
        assert json.loads(res.stdout)["predicted_speed"] is None
        assert "tie" in res.stderr

    def test_invalid_model_exits_one(self, runner, tmp_path):
        res = invoke(runner, ["predict", write_config(tmp_path, EQUAL_MEANS_DOC)])
        assert res.exit_code == 1
        assert "mean_ordering" in res.stderr

    def test_output_file_and_summary_line(self, runner, tmp_path):
        out = tmp_path / "predict.json"
        res = invoke(
            runner, ["predict", write_config(tmp_path, L1_DOC), "--output", str(out)]
        )
        assert res.exit_code == 0
        assert json.loads(out.read_text())["predicted_speed"] == 1.0
        assert "predicted_speed=1.0" in res.stdout


class TestSimulate:
    def test_report_fields(self, runner, tmp_path):
        path = write_config(tmp_path, L1_DOC)
        res = invoke(runner, ["simulate", path, "--steps", "20000"])
        assert res.exit_code == 0
        doc = json.loads(res.stdout)
        assert doc["steps"] == 20000  # flag beats run.steps
        assert doc["replicas"] == 2
        assert 0.3 < doc["est_speed"] < 1.0
        assert {"wald_residual", "wald_stderr", "exit_up_fraction"} <= set(doc["per_regime"][0])

    def test_run_section_supplies_everything(self, runner, tmp_path):
        res = invoke(runner, ["simulate", write_config(tmp_path, L1_DOC)])
        assert res.exit_code == 0
        assert json.loads(res.stdout)["steps"] == 30000

    def test_missing_seed_is_usage_error(self, runner, tmp_path):
        doc = mutate(L1_DOC, lambda d: d["run"].pop("seed"))
        res = invoke(runner, ["simulate", write_config(tmp_path, doc)])
        assert res.exit_code == 2
        assert "seed" in res.stderr

    def test_missing_version_is_usage_error(self, runner, tmp_path):
        doc = mutate(L1_DOC, lambda d: d["run"].pop("version"))
        res = invoke(runner, ["simulate", write_config(tmp_path, doc)])
        assert res.exit_code == 2
        assert "version" in res.stderr

    def test_invalid_model_fails_before_running(self, runner, tmp_path):
        doc = mutate(EQUAL_MEANS_DOC, lambda d: d.update(run=L1_DOC["run"]))
        res = invoke(runner, ["simulate", write_config(tmp_path, doc)])
        assert res.exit_code == 1

    def test_trace_rows(self, runner, tmp_path):
        trace = tmp_path / "trace.csv"
        res = invoke(
            runner,
            ["simulate", write_config(tmp_path, L1_DOC), "--steps", "5000",
             "--trace", str(trace)],
        )
        assert res.exit_code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "n,X_n,regime,window_avg"
        times = [int(row.split(",")[0]) for row in lines[1:]]
        assert times == sorted(times)
        assert times[-1] == 5000

    @pytest.mark.parametrize(
        "error, code, prefix",
        [(MemoryError, 3, "budget error:"), (InvalidInputError, 2, "usage error:")],
    )
    def test_failing_replica_keeps_its_exit_code(self, runner, tmp_path, monkeypatch, error, code, prefix):
        # two CPUs, so that replicas run in a forked child even on a one-CPU host
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        real_run = experiments.run

        def run(spec, version, steps, rng, **kwargs):
            if rng.bit_generator.seed_seq.spawn_key == (1,):  # the second replica
                raise error("replica 1 failed")
            return real_run(spec, version, steps, rng, **kwargs)

        monkeypatch.setattr(experiments, "run", run)
        res = runner.invoke(main, ["simulate", write_config(tmp_path, L1_DOC), "--replicas", "4"])
        assert res.exit_code == code
        assert f"{prefix} replica 1 failed" in res.stderr
        assert "Traceback" not in res.output

    def test_lost_worker_is_a_budget_error(self, runner, tmp_path, monkeypatch):
        # a worker killed by a signal most likely met the out-of-memory killer
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        caller = os.getpid()
        started = tmp_path / "a child started"
        real_run = experiments.run

        def run(spec, version, steps, rng, **kwargs):
            if os.getpid() == caller:
                wait_for(started)  # so that the child claims a replica
                return real_run(spec, version, steps, rng, **kwargs)
            started.touch()
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(experiments, "run", run)
        res = runner.invoke(main, ["simulate", write_config(tmp_path, L1_DOC), "--replicas", "4"])
        assert res.exit_code == 3
        assert "budget error: task" in res.stderr
        assert "was lost: worker processes exited with statuses [-9]" in res.stderr
        assert "Traceback" not in res.output

    def test_output_is_byte_identical_across_reruns(self, runner, tmp_path):
        path = write_config(tmp_path, L1_DOC)
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out_a, out_b):
            res = invoke(
                runner, ["simulate", path, "--steps", "20000", "--output", str(out)]
            )
            assert res.exit_code == 0
            assert "est_speed=" in res.stdout
        assert out_a.read_bytes() == out_b.read_bytes()


class TestSweep:
    def test_csv_has_one_row_per_window(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        res = invoke(
            runner,
            ["sweep", write_config(tmp_path, L1_DOC), "--n-grid", "5,8,12",
             "--steps", "20000", "--output", str(out)],
        )
        assert res.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N,est_speed,stderr,predicted_speed,gap"
        assert len(lines) == 4
        assert [row.split(",")[0] for row in lines[1:]] == ["5", "8", "12"]
        # one stdout summary line per grid point plus the verdict line
        assert res.stdout.count("N=") == 3
        assert "predicted_speed=1.0" in res.stdout

    def test_stdout_mode_prints_the_csv(self, runner, tmp_path):
        res = invoke(
            runner,
            ["sweep", write_config(tmp_path, L1_DOC), "--n-grid", "5,8,12",
             "--steps", "20000"],
        )
        assert res.exit_code == 0
        assert res.stdout.startswith("N,est_speed,stderr,predicted_speed,gap\n")

    def test_json_sidecar(self, runner, tmp_path):
        side = tmp_path / "sweep.json"
        res = invoke(
            runner,
            ["sweep", write_config(tmp_path, L1_DOC), "--n-grid", "5,8,12",
             "--steps", "20000", "--json", str(side)],
        )
        assert res.exit_code == 0
        doc = json.loads(side.read_text())
        assert doc["n_grid"] == [5, 8, 12]
        assert len(doc["reports"]) == 3

    def test_malformed_grid_is_usage_error(self, runner, tmp_path):
        res = runner.invoke(
            main, ["sweep", write_config(tmp_path, L1_DOC), "--n-grid", "5;8"]
        )
        assert res.exit_code == 2


class TestRatefn:
    def test_inclusive_grid_row_count(self, runner, tmp_path):
        res = invoke(
            runner,
            ["ratefn", write_config(tmp_path, L1_DOC), "--dist", "1",
             "--r-grid", "-1:3:0.1"],
        )
        assert res.exit_code == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "r,I_of_r,lambda_star"
        assert len(lines) == 42

    def test_values_round_trip_through_repr(self, runner, tmp_path):
        res = invoke(
            runner,
            ["ratefn", write_config(tmp_path, L1_DOC), "--dist", "1",
             "--r-grid", "-1:3:1"],
        )
        rate = RateFunction(Gaussian(1.0, 1.0))
        for row in res.stdout.splitlines()[1:]:
            r_text, value_text, tilt_text = row.split(",")
            value, tilt = rate.solve(float(r_text))
            assert float(value_text) == value
            assert float(tilt_text) == tilt

    @pytest.mark.parametrize(
        "grid",
        ["1:2", "0:1:0", "3:1:0.5", "a:b:c", "nan:1:0.1", "0:inf:0.1", "-inf:0:1", "0:1e300:1e-300", "0:1:inf"],
    )
    def test_malformed_grid_is_usage_error(self, runner, tmp_path, grid):
        res = runner.invoke(
            main,
            ["ratefn", write_config(tmp_path, L1_DOC), "--dist", "0", "--r-grid", grid],
        )
        assert res.exit_code == 2

    def test_dist_index_out_of_range(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["ratefn", write_config(tmp_path, L1_DOC), "--dist", "5",
             "--r-grid", "0:1:0.5"],
        )
        assert res.exit_code == 2


class TestBlocks:
    @pytest.mark.parametrize(
        "command, fit", [("blocks", "up"), ("exits", "exit_down")], ids=["blocks", "exits"]
    )
    def test_middle_regime_defaults_to_its_thresholds(self, runner, tmp_path, command, fit):
        res = invoke(
            runner,
            [command, write_config(tmp_path, L2_DOC), "--dist", "1",
             "--n-grid", "4,5,6", "--samples", "3000", "--seed", "3"],
        )
        assert res.exit_code == 0
        doc = json.loads(res.stdout)
        assert doc["r_lo"] == 0.4
        assert doc["r_hi"] == 1.3
        assert doc[fit]["slope"] > 0

    @pytest.mark.parametrize("command", ["blocks", "exits"])
    def test_unbounded_regime_demands_explicit_thresholds(self, runner, tmp_path, command):
        res = invoke(
            runner,
            [command, write_config(tmp_path, L1_DOC), "--dist", "1",
             "--n-grid", "4,5,6", "--samples", "1000", "--seed", "3"],
        )
        assert res.exit_code == 2
        assert "usage error:" in res.stderr
        assert "unbounded" in res.stderr

    @pytest.mark.parametrize("command", ["blocks", "exits"])
    def test_non_finite_threshold_names_the_bound_given(self, runner, tmp_path, command):
        res = invoke(
            runner,
            [command, write_config(tmp_path, L1_DOC), "--dist", "1", "--r-lo", "nan",
             "--n-grid", "4,5,6", "--samples", "1000", "--seed", "3"],
        )
        assert res.exit_code == 2
        assert "usage error:" in res.stderr
        assert "r_lo must be finite" in res.stderr
        assert "unbounded" not in res.stderr

    def test_summary_lines_accompany_file_output(self, runner, tmp_path):
        out = tmp_path / "blocks.json"
        res = invoke(
            runner,
            ["blocks", write_config(tmp_path, L1_DOC), "--dist", "1",
             "--n-grid", "4,5,6", "--samples", "3000", "--seed", "3",
             "--r-lo", "0.4", "--r-hi", "1.6", "--output", str(out)],
        )
        assert res.exit_code == 0
        assert res.stdout.count("p_both=") == 3
        assert json.loads(out.read_text())["samples_per_n"] == 3000


class TestExits:
    def test_report_fields(self, runner, tmp_path):
        res = invoke(
            runner,
            ["exits", write_config(tmp_path, L2_DOC), "--dist", "1",
             "--n-grid", "4,6,8", "--samples", "300", "--seed", "9"],
        )
        assert res.exit_code == 0
        doc = json.loads(res.stdout)
        assert len(doc["censored_fractions"]) == 3
        # down to 0.4 costs 0.18, up to 1.3 costs 0.045; the gap drives the decay
        assert doc["exit_down"]["target"] == pytest.approx(0.135, abs=1e-12)

    def test_heavy_censoring_exits_three(self, runner, tmp_path):
        # thresholds so far out that the cap truncates almost every stay
        res = invoke(
            runner,
            ["exits", write_config(tmp_path, L1_DOC), "--dist", "1",
             "--n-grid", "3,4,5", "--samples", "40", "--seed", "9",
             "--r-lo", "-5", "--r-hi", "5", "--cap", "60"],
        )
        assert res.exit_code == 3
        assert "budget error" in res.stderr


class TestPersistence:
    def test_estimate_in_unit_interval(self, runner, tmp_path):
        res = invoke(
            runner,
            ["persistence", write_config(tmp_path, L1_DOC), "--dist", "1",
             "--r", "0.4", "--horizon", "100", "--samples", "4000", "--seed", "5"],
        )
        assert res.exit_code == 0
        doc = json.loads(res.stdout)
        assert 0.0 < doc["estimate"] < 1.0
        assert doc["horizon"] == 100

    def test_missing_level_is_usage_error(self, runner, tmp_path):
        res = invoke(
            runner,
            ["persistence", write_config(tmp_path, L1_DOC), "--dist", "1",
             "--horizon", "100", "--samples", "1000", "--seed", "5"],
        )
        assert res.exit_code == 2

    def test_level_at_or_above_the_mean_is_a_domain_error(self, runner, tmp_path):
        res = invoke(
            runner,
            ["persistence", write_config(tmp_path, L1_DOC), "--dist", "1",
             "--r", "1.5", "--horizon", "100", "--samples", "1000", "--seed", "5"],
        )
        assert res.exit_code == 1

    @pytest.mark.parametrize("level", [float("-inf"), float("nan")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_finite_level_is_usage_error(self, runner, tmp_path, source, level):
        args = ["--horizon", "100", "--samples", "1000", "--seed", "5"]
        if source == "flag":
            path, args = write_config(tmp_path, L1_DOC), args + ["--r", str(level)]
        else:
            path = write_config(tmp_path, mutate(L1_DOC, lambda d: d["run"].update(r=level)))
        res = invoke(runner, ["persistence", path, "--dist", "1", *args])
        assert res.exit_code == 2
        assert "usage error:" in res.stderr
        assert f"r must be finite, got {level}" in res.stderr


    def test_impossible_allocation_is_a_budget_error(self, runner, tmp_path):
        # 2^50 samples is 8 PiB of running sums, beyond any address space
        res = runner.invoke(
            main,
            ["persistence", write_config(tmp_path, L1_DOC), "--dist", "1",
             "--r", "0.5", "--horizon", "10", "--samples", str(2**50), "--seed", "1"],
        )
        assert res.exit_code == 3
        assert "budget error:" in res.stderr
        assert "Traceback" not in res.output


class TestOutputHygiene:
    def test_atomic_write_leaves_no_droppings(self, runner, tmp_path):
        out = tmp_path / "report.json"
        res = invoke(
            runner,
            ["predict", write_config(tmp_path, L1_DOC), "--output", str(out)],
        )
        assert res.exit_code == 0
        leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".histwalk-")]
        assert leftovers == []

    def test_report_mode_follows_the_umask(self, runner, tmp_path):
        out = tmp_path / "report.json"
        old = os.umask(0o022)
        try:
            res = invoke(runner, ["predict", write_config(tmp_path, L1_DOC), "--output", str(out)])
        finally:
            os.umask(old)
        assert res.exit_code == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o644

    def test_unwritable_output_is_usage_error(self, runner, tmp_path):
        res = invoke(
            runner,
            ["predict", write_config(tmp_path, L1_DOC), "--output",
             str(tmp_path / "missing" / "report.json")],
        )
        assert res.exit_code == 2
        assert "i/o error" in res.stderr


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--seed", "-1"],
            ["simulate", "--replicas", "0"],
            ["blocks", "--dist", "1", "--r-lo", "0.4", "--r-hi", "1.6", "--n-grid", "4,6,8", "--samples", "0"],
            ["persistence", "--dist", "1", "--r", "0.4", "--horizon", "0"],
            ["exits", "--dist", "1", "--r-lo", "0.4", "--r-hi", "1.6", "--n-grid", "4,6,8", "--cap", "5"],
            ["simulate", "--steps", str(10**20)],
            ["sweep", "--n-grid", "4,6", "--steps", str(10**20)],
            ["exits", "--dist", "1", "--r-lo", "0.4", "--r-hi", "1.6", "--n-grid", "4,6,8", "--cap", str(10**20)],
        ],
        ids=[
            "negative-seed", "zero-replicas", "zero-samples", "zero-horizon", "cap-below-window",
            "steps-past-2^53", "sweep-steps-past-2^53", "cap-past-2^53",
        ],
    )
    def test_bad_argument_value_exits_two(self, runner, tmp_path, args):
        command, *flags = args
        res = runner.invoke(main, [command, write_config(tmp_path, L1_DOC), *flags])
        assert res.exit_code == 2
        assert "usage error:" in res.stderr
