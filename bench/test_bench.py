"""Tests of the benchmark's own code: metric arithmetic, the tracer's self
time, and that every output check rejects a corrupted or non-deterministic
report. Run with ``python3 -m pytest bench``; they start no process."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer, _count_draws
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent


def _walk_report(workload: str) -> dict:
    config = WORKLOADS[workload].config(1)
    regimes = len(config["model"]["dists"])
    return {
        "master_seed": config["run"]["seed"],
        "est_speed": 1.9995 if workload == "walk-steady" else 0.726,
        "stderr": 0.0019,
        "per_regime": [
            {"regime": i, "completed": 100, "wald_residual": 0.05, "wald_stderr": 0.04}
            for i in range(regimes)
        ],
    }


def _slope(slope: float, slope_se: float) -> dict:
    return {"slope": slope, "slope_se": slope_se}


VALID = {
    "walk-switchy": _walk_report("walk-switchy"),
    "walk-steady": _walk_report("walk-steady"),
    "exit-stays": {
        "master_seed": WORKLOADS["exit-stays"].config(1)["run"]["seed"],
        "censored_fractions": [0.0, 0.0, 0.0],
        "mean_stay": _slope(0.165, 0.00077),
        "exit_down": _slope(0.0217, 0.0013),
    },
    "block-crossings": {
        "master_seed": WORKLOADS["block-crossings"].config(1)["run"]["seed"],
        "up": _slope(0.163, 0.0017),
        "down": _slope(0.165, 0.0017),
    },
}


def _corrupt(report: dict, path: tuple, value) -> dict:
    bad = copy.deepcopy(report)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return bad


CORRUPTIONS = [
    ("walk-switchy", ("per_regime", 1, "wald_residual"), 0.5),
    ("walk-switchy", ("per_regime", 0, "completed"), 0),
    ("walk-switchy", ("per_regime", 0, "wald_stderr"), None),
    ("walk-switchy", ("per_regime",), None),
    ("walk-switchy", ("master_seed",), 7),
    ("walk-steady", ("est_speed",), 1.98),
    ("walk-steady", ("per_regime", 2, "wald_residual"), -0.2),
    ("exit-stays", ("censored_fractions", 2), 0.0001),
    ("exit-stays", ("master_seed",), None),
    ("block-crossings", ("up", "slope"), 0.12),
    ("block-crossings", ("down", "slope"), 0.23),
    ("block-crossings", ("down",), None),
]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_valid_reports_pass(name):
    workload = WORKLOADS[name]
    assert workload.verify(VALID[name], workload.config(1)) == []


@pytest.mark.parametrize("name,path,value", CORRUPTIONS)
def test_each_check_rejects_a_corrupted_report(name, path, value):
    workload = WORKLOADS[name]
    assert workload.verify(_corrupt(VALID[name], path, value), workload.config(1))


def _invocation(report, exit_code=0) -> run.Invocation:
    data = None if report is None else (report if isinstance(report, bytes) else json.dumps(report).encode())
    return run.Invocation(wall_s=1.0, cpu_s=1.0, rss_mb=50.0, exit_code=exit_code, report=data, log="boom")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checker_rejects_a_non_deterministic_report(name):
    workload = WORKLOADS[name]
    checker = run.Checker()

    def check(report):
        return workload.verify(report, workload.config(1))

    assert checker.accept("workload", _invocation(VALID[name]), check) == VALID[name]
    assert checker.accept("workload", _invocation(VALID[name]), check) == VALID[name]
    # a second valid-looking report whose bytes differ from the first one
    other = _corrupt(VALID[name], ("master_seed",), VALID[name]["master_seed"])
    other["extra"] = 1
    assert checker.accept("workload", _invocation(other), check) is None
    assert (checker.attempted, checker.failed) == (3, 1)
    assert "differ" in checker.problems[0]


@pytest.mark.parametrize(
    "inv", [_invocation(VALID["exit-stays"], exit_code=3), _invocation(None), _invocation(b"{not json")]
)
def test_checker_rejects_failed_invocations(inv):
    workload = WORKLOADS["exit-stays"]
    checker = run.Checker()
    assert checker.accept("workload", inv, lambda r: workload.verify(r, workload.config(1))) is None
    assert checker.failed == 1


def test_predict_check_requires_the_known_limit():
    steady = WORKLOADS["walk-steady"]
    assert run.check_predict(steady, {"predicted_speed": 2.0}) == []
    assert run.check_predict(steady, {"predicted_speed": 1.0})
    assert run.check_predict(steady, {"predicted_speed": None})


def test_time_to_1pct_formula():
    # criterion 4's numbers: slope 0.163 with standard error 0.00106
    assert run.time_to_target(3.0, 0.00106 / 0.163) == pytest.approx(3.0 * (0.00106 / 0.163 / 0.01) ** 2)
    assert run.time_to_target(2.0, 0.02) == pytest.approx(8.0)
    assert run.time_to_target(2.0, 0.01) == pytest.approx(2.0)
    block = WORKLOADS["block-crossings"]
    assert block.rel_se(VALID["block-crossings"]) == pytest.approx(0.0017 / 0.163)


def test_medians_keep_counts_whole():
    assert run.median([3.0, 1.0, 2.0, 10.0]) == 2.5
    assert run.median([5, 5, 5, 5]) == 5 and isinstance(run.median([5, 5, 5, 5]), int)
    rows = [{"a": 1.0, "n": 7}, {"a": 3.0, "n": 7}, {"a": 2.0, "n": 7}]
    assert run.median_metrics(rows) == {"a": 2.0, "n": 7}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(2.0)
        return [0.0] * 5

    traced_leaf = tracer.wrap("distributions.sample_n", leaf, _count_draws)

    def middle():
        clock.advance(1.0)
        traced_leaf()
        traced_leaf()
        clock.advance(0.5)

    traced_middle = tracer.wrap("simulator.run", middle)

    def outer():
        clock.advance(3.0)
        traced_middle()

    tracer.wrap("cli.main", outer)()
    assert tracer.spans["distributions.sample_n"] == [2, 4.0, 4.0]
    assert tracer.spans["simulator.run"] == [1, 5.5, 1.5]
    assert tracer.spans["cli.main"] == [1, 8.5, 3.0]
    assert tracer.counts == {"distributions.sample_n.draws": 10, "simulator.run.draws": 10}


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def fail():
        clock.advance(1.0)
        raise SystemExit(2)

    with pytest.raises(SystemExit):
        tracer.wrap("cli.main", fail)()
    assert tracer.spans["cli.main"] == [1, 1.0, 1.0]
    assert tracer.stack == []


def test_counter_that_no_longer_fits_is_reported_not_fatal():
    tracer = Tracer(FakeClock())
    wrapped = tracer.wrap("simulator.run", lambda: object(), lambda t, result: t.add("x", result.steps))
    wrapped()
    assert tracer.spans["simulator.run"][0] == 1
    assert len(tracer.missing) == 1


def test_layer_metrics_from_merged_traces():
    predict = {
        "import_s": 0.2,
        "spans": {"theory.validate": [2, 0.004, 0.003], "ratefn.solve": [4, 0.002, 0.002]},
        "counts": {"ratefn.cgf_evals": 30},
    }
    workload = {
        "import_s": 0.25,
        "spans": {
            "ratefn.solve": [2, 0.001, 0.001],
            "simulator.sample_exit": [1000, 2.0, 1.2],
            "distributions.sample_n": [3000, 0.8, 0.8],
            "cli.main": [1, 2.5, 0.1],
        },
        "counts": {
            "ratefn.cgf_evals": 10,
            "distributions.sample_n.draws": 90_000,
            "simulator.sample_exit.draws": 90_000,
            "simulator.sample_exit.steps": 60_000,
        },
    }
    metrics = run.layer_metrics(*run.merge_traces([predict, workload]))
    assert metrics["ratefn.solve.calls"] == 6
    assert metrics["ratefn.solve.self_s"] == pytest.approx(0.003)
    assert metrics["ratefn.cgf_evals"] == 40
    assert metrics["cli.import_s"] == pytest.approx(0.45)
    assert metrics["simulator.sample_exit.stays_per_s"] == pytest.approx(500.0)
    assert metrics["simulator.sample_exit.draws_per_step"] == pytest.approx(1.5)
    assert metrics["distributions.sample_n.draws_per_s"] == pytest.approx(112_500.0)
    assert metrics["simulator.run.steps_per_s"] == 0.0  # no run span: no division by zero
    names = set(metrics) | {"cli.report_bytes", "distributions.rng_ceiling_draws_per_s",
                            "distributions.sample_n.ceiling_frac", "experiments.time_to_1pct_s",
                            "cli.cpu_s", "cli.tracing_overhead_frac", "cli.wall_s", "host.reference_s"}
    assert names == {name for name, _, _ in run.PER_LAYER}


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}


def test_master_seed_depends_on_workload_and_seed_only():
    assert workloads.master_seed("walk-steady", 3) == workloads.master_seed("walk-steady", 3)
    seeds = {workloads.master_seed(name, s) for name in WORKLOADS for s in range(5)}
    assert len(seeds) == 20 and all(0 <= s < 2**63 for s in seeds)


def test_scale_divides_by_the_references_around_each_cycle(tmp_path, monkeypatch):
    walls = iter([0.4, 0.6, 1.0])
    monkeypatch.setattr(run, "reference", lambda: (next(walls), {"normal": 5e7, "uniform": 2e8}))
    bench_run = run.Run(WORKLOADS["walk-switchy"], 1, tmp_path)
    assert bench_run.scale() == pytest.approx(run.REF_SECONDS / 0.4)
    assert bench_run.scale() == pytest.approx(run.REF_SECONDS / 0.5)
    assert bench_run.scale() == pytest.approx(run.REF_SECONDS / 0.8)
    assert bench_run.ceilings == [5e7] * 3
