"""The benchmark's four workloads: how to build each one's config from a
seed, which CLI command runs it, and how to check its report.

Model parameters are fixed per workload; the seed only picks the program's
master seed, so each seed is a fresh Monte Carlo stream over the same
problem. Every check must hold for any random stream (a later engine may
consume the stream differently), so each one is a statistical statement with
a wide margin or an exact property of the report, never a pinned number.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

WALD_SIGMAS = 4.0
STEADY_SPEED_TOL = 0.01
BLOCK_SLOPE_REL_TOL = 0.25  # acceptance criterion 4's tolerance


def _gaussian(mu: float) -> dict:
    return {"kind": "gaussian", "mu": mu, "sigma2": 1.0}


def _lattice(weights: list[float]) -> dict:
    return {"kind": "finite_discrete", "atoms": [-1, 0, 1, 2], "weights": weights}


TWO_GAUSSIANS = {"dists": [_gaussian(0.0), _gaussian(1.0)], "thresholds": [0.4], "window": 10}
THREE_GAUSSIANS = {
    "dists": [_gaussian(0.0), _gaussian(1.0), _gaussian(2.0)],
    "thresholds": [0.4, 1.3],
    "window": 40,
}
LATTICE_LADDER = {
    "dists": [
        _lattice([0.3, 0.4, 0.2, 0.1]),
        _lattice([0.1, 0.2, 0.4, 0.3]),
        _lattice([0.05, 0.1, 0.3, 0.55]),
    ],
    "thresholds": [0.4, 1.3],
    "window": 10,
}


def master_seed(workload: str, seed: int) -> int:
    """The program's master seed for one workload and benchmark seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def gaussian_rate(mu: float, sigma2: float, r: float) -> float:
    """Closed-form Cramer rate of a Gaussian law, the slope the block fit targets."""
    return (r - mu) ** 2 / (2.0 * sigma2)


def check_walk(report: dict, limit: float | None = None) -> list[str]:
    """Every regime has completed sojourns and a Wald residual within
    WALD_SIGMAS standard errors of 0; with ``limit``, the speed estimate is
    within STEADY_SPEED_TOL of that predicted limit."""
    problems = []
    for stats in report["per_regime"]:
        regime = stats["regime"]
        if not stats["completed"] or stats["wald_stderr"] is None:
            problems.append(f"regime {regime} has too few completed sojourns ({stats['completed']})")
            continue
        if abs(stats["wald_residual"]) > WALD_SIGMAS * stats["wald_stderr"]:
            problems.append(
                f"regime {regime} Wald residual {stats['wald_residual']!r} exceeds "
                f"{WALD_SIGMAS} x stderr {stats['wald_stderr']!r}"
            )
    if limit is not None and not abs(report["est_speed"] - limit) <= STEADY_SPEED_TOL:
        problems.append(f"est_speed {report['est_speed']!r} is not within {STEADY_SPEED_TOL} of {limit}")
    return problems


def check_exits(report: dict) -> list[str]:
    censored = report["censored_fractions"]
    if any(frac != 0.0 for frac in censored):
        return [f"censored stays: {censored}"]
    return []


def check_blocks(report: dict, config: dict, dist: int) -> list[str]:
    """Up and down slopes within criterion 4's tolerance of the closed-form
    Gaussian rates of law ``dist`` at r_hi and r_lo."""
    law = config["model"]["dists"][dist]
    problems = []
    for side, r in (("up", config["run"]["r_hi"]), ("down", config["run"]["r_lo"])):
        target = gaussian_rate(law["mu"], law["sigma2"], r)
        slope = report[side]["slope"]
        if not abs(slope - target) <= BLOCK_SLOPE_REL_TOL * target:
            problems.append(f"{side} slope {slope!r} is not within {BLOCK_SLOPE_REL_TOL:.0%} of {target!r}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    model: dict
    run: dict
    # limiting speed `predict` must report for this model (exact theory, no Monte Carlo)
    predicted_speed: float
    # which raw generator the laws map from: "normal" or "uniform"
    base_variate: str
    # problems with a report given its config; empty when it is correct
    check: Callable[[dict, dict], list[str]]
    # relative standard error of the report's headline estimate
    rel_se: Callable[[dict], float]
    # law index for the single-law commands (exits, blocks)
    dist: int | None = None

    def config(self, seed: int) -> dict:
        return {"model": self.model, "run": {**self.run, "seed": master_seed(self.name, seed)}}

    def argv(self, config_path: str, output_path: str) -> list[str]:
        dist = [] if self.dist is None else ["--dist", str(self.dist)]
        return [self.command, config_path, *dist, "--output", output_path]

    def verify(self, report: dict, config: dict) -> list[str]:
        """Problems with one workload report; empty when it is correct."""
        problems = []
        if report.get("master_seed") != config["run"]["seed"]:
            problems.append(f"master_seed {report.get('master_seed')!r} != {config['run']['seed']}")
        try:
            problems += self.check(report, config)
        except (KeyError, TypeError) as err:
            problems.append(f"malformed report: {err!r}")
        return problems


def _speed_rel_se(report: dict) -> float:
    return report["stderr"] / abs(report["est_speed"])


def _slope_rel_se(key: str) -> Callable[[dict], float]:
    return lambda report: report[key]["slope_se"] / abs(report[key]["slope"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="walk-switchy",
            why="delayed rule at N=10, a switch every ~77 steps: per-switch engine work and discarded draws dominate",
            command="simulate",
            model=TWO_GAUSSIANS,
            run={"version": "delayed", "steps": 250_000, "replicas": 4},
            predicted_speed=1.0,
            base_variate="normal",
            check=lambda report, config: check_walk(report),
            rel_se=_speed_rel_se,
        ),
        Workload(
            name="walk-steady",
            why="instantaneous rule, three laws, N=40, a switch every ~3e5 steps: steady-state scan and sampling, switch path bypassed",
            command="simulate",
            model=THREE_GAUSSIANS,
            run={"version": "instantaneous", "steps": 1_500_000, "replicas": 16},
            predicted_speed=2.0,
            base_variate="normal",
            check=lambda report, config: check_walk(report, limit=2.0),
            rel_se=_speed_rel_se,
        ),
        Workload(
            name="exit-stays",
            why="many short sample_exit calls on a lattice law: per-call overhead, inverse-CDF sampling, Newton-solved rates",
            command="exits",
            model=LATTICE_LADDER,
            run={"n_grid": [10, 20, 30], "samples": 4_000},
            predicted_speed=0.9,
            base_variate="uniform",
            check=lambda report, config: check_exits(report),
            rel_se=_slope_rel_se("mean_stay"),
            dist=1,
        ),
        Workload(
            name="block-crossings",
            why="vectorised fresh-block batches, ~20M draws in 4M-element arrays: the batch sampler and the memory peak",
            command="blocks",
            model=TWO_GAUSSIANS,
            run={"n_grid": [10, 20, 30, 40], "samples": 100_000, "r_lo": 0.4, "r_hi": 1.6},
            predicted_speed=1.0,
            base_variate="normal",
            check=lambda report, config: check_blocks(report, config, dist=1),
            rel_se=_slope_rel_se("up"),
            dist=1,
        ),
    )
}
