"""Entry point of the histwalk benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``bench/`` sits at the root of a checkout whose ``src`` holds the package.
Each workload invocation is a fresh single-process ``python -m histwalk.cli``
with ``src`` on PYTHONPATH, one at a time, timed from outside with
``os.wait4``. A cycle is one ``predict`` invocation (the set-up a user pays
before any Monte Carlo), one workload invocation and one run of the fixed
reference job (``reference.py``). Cycles repeat until ``--seconds`` is spent,
at least MIN_CYCLES times. Every report is checked, and every report of one
seed must be byte-identical.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
medians over cycles, with times scaled to the reference job (REF_SECONDS).
With ``--trace 1`` each cycle runs the workload untraced and under
``bench/tracing.py``, which wraps each layer's public functions in-process,
plus a traced ``predict``; the last line then carries the per-layer metrics,
raw (unscaled), summed over the cycle's two traced invocations and taken as
medians over cycles. Lines before the last one are a human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_CYCLES = 3
MIN_TRACED_CYCLES = 2
INVOCATION_TIMEOUT_S = 60.0
# stop starting cycles after this long, so a run ends well inside 180 s
RUN_DEADLINE_S = 120.0
TARGET_REL_SE = 0.01
# End-to-end times are reported in seconds on a host where the reference job
# takes this long: each invocation's wall time is divided by the mean wall time
# of the reference runs just before and just after it. On a shared host whose
# speed swings by tens of percent within minutes, raw wall time cannot meet
# any useful bound; the ratio can.
REF_SECONDS = 0.5

# (name, unit, better)
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    ("distributions.sample_n.calls", "count", "lower"),
    ("distributions.sample_n.draws", "count", "lower"),
    ("distributions.sample_n.self_s", "s", "lower"),
    ("distributions.sample_n.draws_per_s", "draws/s", "higher"),
    ("distributions.rng_ceiling_draws_per_s", "draws/s", "higher"),
    ("distributions.sample_n.ceiling_frac", "fraction", "higher"),
    ("simulator.run.calls", "count", "higher"),
    ("simulator.run.steps", "count", "higher"),
    ("simulator.run.self_s", "s", "lower"),
    ("simulator.run.steps_per_s", "steps/s", "higher"),
    ("simulator.run.sojourns", "count", "higher"),
    ("simulator.run.censored", "count", "lower"),
    ("simulator.run.draws_per_step", "draws/step", "lower"),
    ("simulator.sample_exit.calls", "count", "higher"),
    ("simulator.sample_exit.self_s", "s", "lower"),
    ("simulator.sample_exit.stays_per_s", "stays/s", "higher"),
    ("simulator.sample_exit.draws_per_step", "draws/step", "lower"),
    ("simulator.sample_block_outcomes.blocks", "count", "higher"),
    ("simulator.sample_block_outcomes.self_s", "s", "lower"),
    ("simulator.sample_block_outcomes.draws_per_s", "draws/s", "higher"),
    ("experiments.estimate_speed.self_s", "s", "lower"),
    ("experiments.fit_exit_statistics.self_s", "s", "lower"),
    ("experiments.fit_block_exponents.self_s", "s", "lower"),
    ("experiments.time_to_1pct_s", "s", "lower"),
    ("ratefn.solve.calls", "count", "lower"),
    ("ratefn.solve.self_s", "s", "lower"),
    ("ratefn.cgf_evals", "count", "lower"),
    ("theory.validate.self_s", "s", "lower"),
    ("theory.predict_limiting_speed.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.load_config_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.cpu_s", "s", "lower"),
    ("cli.tracing_overhead_frac", "fraction", "lower"),
    ("cli.wall_s", "s", "lower"),
    ("host.reference_s", "s", "lower"),
)


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    report: bytes | None
    log: str


def invoke(argv: list[str], output: Path, log_path: Path) -> Invocation:
    """Run one child to completion and measure it from outside."""
    output.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        exit_code=proc.returncode,
        report=output.read_bytes() if output.exists() else None,
        log=log_path.read_text(errors="replace"),
    )


def reference() -> tuple[float, dict]:
    """Wall seconds of one run of the fixed reference job, and the generator
    ceilings (draws per second by base variate) it measured."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(BENCH / "reference.py")],
        capture_output=True, check=True, timeout=INVOCATION_TIMEOUT_S, cwd=ROOT,
    )
    return time.perf_counter() - start, json.loads(done.stdout)


def time_to_target(wall_s: float, rel_se: float, target: float = TARGET_REL_SE) -> float:
    """Projected wall seconds to reach ``target`` relative standard error,
    given that ``wall_s`` reached ``rel_se`` (error shrinks as 1/sqrt(work))."""
    return wall_s * (rel_se / target) ** 2


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median(values: list) -> float | int:
    """Median; of whole counts, the lower middle one, so a count stays whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def median_metrics(rows: list[dict]) -> dict:
    """Per-key median over rows that share their keys."""
    return {key: median([row[key] for row in rows]) for key in rows[0]}


class Checker:
    """Counts attempted and failed invocations and keeps every problem.

    An invocation fails when it exits non-zero, writes no parsable report,
    writes report bytes different from the first report of its kind in this
    run, or fails its check.
    """

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0
        self.first: dict[str, bytes] = {}

    def accept(self, kind: str, inv: Invocation, check) -> dict | None:
        self.attempted += 1
        if inv.report is not None:
            self.first.setdefault(kind, inv.report)
        problems = check_invocation(inv, self.first.get(kind), check)
        if problems:
            self.failed += 1
            self.problems += [f"{kind}: {p}" for p in problems]
            return None
        return json.loads(inv.report)


def check_invocation(inv: Invocation, reference: bytes | None, check) -> list[str]:
    """Problems with one invocation; ``reference`` is the first report of its kind."""
    if inv.exit_code != 0:
        return [f"exit code {inv.exit_code}: {inv.log.strip()[-400:]}"]
    if inv.report is None:
        return ["no report written"]
    if inv.report != reference:
        return ["report bytes differ from the first report of this seed"]
    try:
        report = json.loads(inv.report)
    except ValueError as err:
        return [f"report is not JSON: {err}"]
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    return check(report)


def check_predict(workload: Workload, report: dict) -> list[str]:
    speed = report.get("predicted_speed")
    if not isinstance(speed, float) or abs(speed - workload.predicted_speed) > 1e-12:
        return [f"predicted_speed {speed!r} != {workload.predicted_speed}"]
    return []


class Run:
    """One benchmark run of one workload and seed, in its own work directory."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.config = workload.config(seed)
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n")
        self.checker = Checker()
        self.ceilings: list[float] = []
        self.references: list[float] = []

    def argv(self, kind: str, traced: bool, output: Path) -> list[str]:
        if kind == "predict":
            cli_args = ["predict", str(self.config_path), "--output", str(output)]
        else:
            cli_args = self.workload.argv(str(self.config_path), str(output))
        if traced:
            return [sys.executable, str(BENCH / "tracing.py"), str(self.spans_path(kind)), *cli_args]
        return [sys.executable, "-m", "histwalk.cli", *cli_args]

    def spans_path(self, kind: str) -> Path:
        return self.work / f"{kind}.spans.json"

    def invoke(self, kind: str, traced: bool = False) -> tuple[Invocation, dict | None]:
        tag = f"{kind}{'-traced' if traced else ''}"
        output = self.work / f"{tag}.out"
        if traced:
            self.spans_path(kind).unlink(missing_ok=True)
        inv = invoke(self.argv(kind, traced, output), output, self.work / f"{tag}.log")
        if kind == "predict":
            report = self.checker.accept(kind, inv, lambda r: check_predict(self.workload, r))
        else:
            report = self.checker.accept(kind, inv, lambda r: self.workload.verify(r, self.config))
        return inv, report

    def scale(self) -> float:
        """Run the reference job; return REF_SECONDS over the mean reference
        wall time of this run and the previous one (the cycle between them)."""
        wall, ceilings = reference()
        self.references.append(wall)
        self.ceilings.append(ceilings[self.workload.base_variate])
        return REF_SECONDS / statistics.mean(self.references[-2:])

    def cycles(self, seconds: float, minimum: int):
        """Yield cycle indices until ``seconds`` would be exceeded (at least ``minimum``)."""
        start = time.perf_counter()
        index, last = 0, 0.0
        while True:
            elapsed = time.perf_counter() - start
            if elapsed > RUN_DEADLINE_S or (index >= minimum and elapsed + last > seconds):
                return
            yield index
            last = time.perf_counter() - start - elapsed
            index += 1

    def time_to_1pct(self, wall_s: float, report: dict | None) -> float:
        return time_to_target(wall_s, self.workload.rel_se(report)) if report else 0.0


def timed(run: Run, seconds: float) -> tuple[dict, dict]:
    """Untraced cycles; returns end-to-end metrics and diagnostics."""
    run.invoke("predict")  # warm-up: compiles bytecode, fills the file cache
    run.scale()
    setups, walls, raw_setups, raw_walls, rss = [], [], [], [], []
    report = None
    for _ in run.cycles(seconds, MIN_CYCLES):
        setup, setup_rep = run.invoke("predict")
        inv, rep = run.invoke("workload")
        scale = run.scale()
        if setup_rep is not None:
            setups.append(setup.wall_s * scale)
            raw_setups.append(setup.wall_s)
        if rep is not None:
            report = rep
            walls.append(inv.wall_s * scale)
            raw_walls.append(inv.wall_s)
            rss.append(inv.rss_mb)
    if not walls or not setups:
        return {}, {}
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    extra = {
        "samples": f"{len(walls)} workload, {len(setups)} predict",
        "wall_s range": (min(walls), max(walls)),
        "raw wall_s median and range": (statistics.median(raw_walls), min(raw_walls), max(raw_walls)),
        "raw setup_s median": statistics.median(raw_setups),
        "reference job s, median and range": (
            statistics.median(run.references), min(run.references), max(run.references)
        ),
        "rng_ceiling_draws_per_s": statistics.median(run.ceilings),
        "time_to_1pct_s (raw wall)": run.time_to_1pct(statistics.median(raw_walls), report),
    }
    return metrics, extra


def layer_metrics(spans: dict, counts: dict, import_s: float) -> dict:
    """Per-layer values of one traced cycle from its merged spans and counts."""

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def count(name):
        return counts.get(name, 0)

    sample_n, run_, exit_, blocks = (
        "distributions.sample_n",
        "simulator.run",
        "simulator.sample_exit",
        "simulator.sample_block_outcomes",
    )
    return {
        f"{sample_n}.calls": calls(sample_n),
        f"{sample_n}.draws": count(f"{sample_n}.draws"),
        f"{sample_n}.self_s": self_s(sample_n),
        f"{sample_n}.draws_per_s": ratio(count(f"{sample_n}.draws"), total(sample_n)),
        f"{run_}.calls": calls(run_),
        f"{run_}.steps": count(f"{run_}.steps"),
        f"{run_}.self_s": self_s(run_),
        f"{run_}.steps_per_s": ratio(count(f"{run_}.steps"), total(run_)),
        f"{run_}.sojourns": count(f"{run_}.sojourns"),
        f"{run_}.censored": count(f"{run_}.censored"),
        f"{run_}.draws_per_step": ratio(count(f"{run_}.draws"), count(f"{run_}.steps")),
        f"{exit_}.calls": calls(exit_),
        f"{exit_}.self_s": self_s(exit_),
        f"{exit_}.stays_per_s": ratio(calls(exit_), total(exit_)),
        f"{exit_}.draws_per_step": ratio(count(f"{exit_}.draws"), count(f"{exit_}.steps")),
        f"{blocks}.blocks": count(f"{blocks}.blocks"),
        f"{blocks}.self_s": self_s(blocks),
        f"{blocks}.draws_per_s": ratio(count(f"{blocks}.draws"), total(blocks)),
        "experiments.estimate_speed.self_s": self_s("experiments.estimate_speed"),
        "experiments.fit_exit_statistics.self_s": self_s("experiments.fit_exit_statistics"),
        "experiments.fit_block_exponents.self_s": self_s("experiments.fit_block_exponents"),
        "ratefn.solve.calls": calls("ratefn.solve"),
        "ratefn.solve.self_s": self_s("ratefn.solve"),
        "ratefn.cgf_evals": count("ratefn.cgf_evals"),
        "theory.validate.self_s": self_s("theory.validate"),
        "theory.predict_limiting_speed.self_s": self_s("theory.predict_limiting_speed"),
        "cli.import_s": import_s,
        "cli.load_config_s": total("cli.load_config"),
        "cli.write_s": total("cli.write"),
        "cli.self_s": self_s("cli.main"),
    }


def merge_traces(traces: list[dict]) -> tuple[dict, dict, float]:
    """Sum spans, counts and import time over several traced invocations."""
    spans: dict[str, list] = {}
    counts: dict[str, int] = {}
    for trace in traces:
        for name, (n, tot, own) in trace["spans"].items():
            agg = spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += n
            agg[1] += tot
            agg[2] += own
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return spans, counts, sum(trace["import_s"] for trace in traces)


def traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Cycles of one untraced and one traced workload invocation (alternating
    which goes first) plus a traced predict; returns per-layer metrics."""
    run.invoke("predict")  # warm-up, as in the untraced run
    run.scale()
    rows, untraced_walls, overheads, cpus = [], [], [], []
    missing: set[str] = set()
    report = None
    for index in run.cycles(seconds, MIN_TRACED_CYCLES):
        traced_inv = untraced_inv = None
        for with_trace in (False, True) if index % 2 == 0 else (True, False):
            inv, rep = run.invoke("workload", traced=with_trace)
            if rep is None:
                continue
            report = rep
            if with_trace:
                traced_inv = inv
            else:
                untraced_inv = inv
                untraced_walls.append(inv.wall_s)
                cpus.append(inv.cpu_s)
        if traced_inv is not None and untraced_inv is not None:
            overheads.append(traced_inv.wall_s / untraced_inv.wall_s - 1.0)
        _, predict_rep = run.invoke("predict", traced=True)
        run.scale()
        if traced_inv is None or predict_rep is None:
            continue
        traces = [json.loads(run.spans_path(kind).read_text()) for kind in ("predict", "workload")]
        for trace in traces:
            missing.update(trace["missing"])
        row = layer_metrics(*merge_traces(traces))
        row["cli.report_bytes"] = len(traced_inv.report)
        rows.append(row)
    if not rows or not overheads:
        return {}, {}
    metrics = median_metrics(rows)
    ceiling = statistics.median(run.ceilings)
    wall_s = statistics.median(untraced_walls)
    metrics["distributions.rng_ceiling_draws_per_s"] = ceiling
    metrics["distributions.sample_n.ceiling_frac"] = ratio(
        metrics["distributions.sample_n.draws_per_s"], ceiling
    )
    metrics["experiments.time_to_1pct_s"] = run.time_to_1pct(wall_s, report)
    metrics["cli.cpu_s"] = statistics.median(cpus)
    metrics["cli.tracing_overhead_frac"] = statistics.median(overheads)
    metrics["cli.wall_s"] = wall_s
    metrics["host.reference_s"] = statistics.median(run.references)
    extra = {"cycles": len(rows), "untraced wall_s": wall_s, "missing trace targets": sorted(missing)}
    return metrics, extra


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "histwalk" / "cli.py").is_file():
        print(f"no histwalk sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workload, args.seed, work)
        measure = traced if args.trace else timed
        metrics, extra = measure(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checker = run.checker
    for problem in checker.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if not metrics:
        print("no invocation succeeded; nothing to report", file=sys.stderr)
        return 1
    units = {name: unit for name, unit, _ in (PER_LAYER if args.trace else END_TO_END)}
    print(f"{workload.name} seed={args.seed} trace={args.trace}: "
          f"{checker.attempted - checker.failed}/{checker.attempted} invocations correct")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {units[name]}")
    for name, value in extra.items():
        print(f"  ({name}: {value})")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
