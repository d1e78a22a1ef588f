"""Pinned SHA-256 digests of CLI report bytes on tiny configs.

Acceptance criterion 10 only compares reruns of the same code. These digests
also catch a refactor that silently changes how the random stream is consumed
or how a report is serialised. A deliberate change of either updates the
digests here and says so in CHANGES.md. A case whose arguments name no
``OUT`` file pins its stdout instead; every JSON report must also be strict
JSON, with no NaN or Infinity.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from histwalk.cli import main


def _gaussian(mu):
    return {"kind": "gaussian", "mu": mu, "sigma2": 1.0}


def _lattice(weights):
    return {"kind": "finite_discrete", "atoms": [-1, 0, 1, 2], "weights": weights}


TWO_GAUSSIANS = {
    "model": {"dists": [_gaussian(0.0), _gaussian(1.0)], "thresholds": [0.4], "window": 5},
    "run": {"version": "delayed", "seed": 11},
}
LATTICE_LADDER = {
    "model": {
        "dists": [
            _lattice([0.3, 0.4, 0.2, 0.1]),
            _lattice([0.1, 0.2, 0.4, 0.3]),
            _lattice([0.05, 0.1, 0.3, 0.55]),
        ],
        "thresholds": [0.4, 1.3],
        "window": 5,
    },
    "run": {"version": "instantaneous", "seed": 12},
}
# Rademacher(0.3)/(0.7): no other case reads a Rademacher law, so these pin
# its bytes, including the exact -0.4 of its mean
RADEMACHER_LADDER = {
    "model": {
        "dists": [{"kind": "rademacher", "p": 0.3}, {"kind": "rademacher", "p": 0.7}],
        "thresholds": [-0.1],
        "window": 5,
    },
    "run": {"version": "delayed", "seed": 13},
}
# means 0.1 and 1.45 do not interlace threshold 2.5, which no atom reaches
FAILING_LADDER = {
    "model": {
        "dists": [_lattice([0.3, 0.4, 0.2, 0.1]), _lattice([0.05, 0.1, 0.2, 0.65])],
        "thresholds": [2.5],
        "window": 5,
    },
}

# name -> (config, CLI arguments after the config path; OUT is the report file)
CASES = {
    "simulate": (TWO_GAUSSIANS, ["simulate", "--steps", "6000", "--replicas", "2", "--output", "OUT"]),
    "simulate-trace": (LATTICE_LADDER, ["simulate", "--steps", "6000", "--replicas", "2", "--trace", "OUT"]),
    "sweep-json": (TWO_GAUSSIANS, ["sweep", "--n-grid", "3,5", "--steps", "4000", "--replicas", "2",
                                   "--json", "OUT"]),
    "exits": (LATTICE_LADDER, ["exits", "--dist", "1", "--n-grid", "3,5,7", "--samples", "400",
                               "--output", "OUT"]),
    "blocks": (TWO_GAUSSIANS, ["blocks", "--dist", "1", "--r-lo", "0.4", "--r-hi", "1.6",
                               "--n-grid", "4,6,8", "--samples", "3000", "--output", "OUT"]),
    "predict": (LATTICE_LADDER, ["predict", "--output", "OUT"]),
    "predict-rademacher": (RADEMACHER_LADDER, ["predict", "--output", "OUT"]),
    "simulate-rademacher": (RADEMACHER_LADDER, ["simulate", "--steps", "6000", "--replicas", "2",
                                                "--output", "OUT"]),
    "validate": (LATTICE_LADDER, ["validate"]),
    "validate-failing": (FAILING_LADDER, ["validate"]),
    "sweep-csv": (TWO_GAUSSIANS, ["sweep", "--n-grid", "3,5", "--steps", "4000", "--replicas", "2",
                                  "--output", "OUT"]),
    "ratefn": (LATTICE_LADDER, ["ratefn", "--dist", "1", "--r-grid", "-1.25:2.25:0.25", "--output", "OUT"]),
    "persistence": (TWO_GAUSSIANS, ["persistence", "--dist", "1", "--r", "0.2", "--horizon", "60",
                                    "--samples", "2000", "--output", "OUT"]),
}
EXIT_CODES = {"validate-failing": 1}  # every other case exits 0
CSV_CASES = {"simulate-trace", "sweep-csv", "ratefn"}

DIGESTS = {
    "simulate": "7a1bcd666d2b6cd9d6234e454f8b2eee9ebd7b91eff3ac637171e135e1a80b31",
    "simulate-trace": "93ddd4ecbcb771ad9bc7354b744262234d388d332d7033c82ef32474b5fba67e",
    "sweep-json": "f7a8d7ad52a06bb284951ce61cc344d8697f6c6e2bb38ec7e430ffc68c66b527",
    "exits": "4e979a4e9e163a346992b3e972cf25416dad63946500d7ec7b3130c2e9dcbd7d",
    "blocks": "d57d7ae2c8b6d23fe20e28b9903c4c7b5bb91d07bfe5fb7c6afe044d5a8fee52",
    "predict": "4760a7e03dab4789c334fa8b2c0e4cb7c43b790c11f7592ca3f2ea9428337ceb",
    "predict-rademacher": "cb94dbfba8271f3341fcef9eab172a8c8d1fa1b2d745ce75cad4749e8e594e77",
    "simulate-rademacher": "abd57ca5c9bdec813e7e863b9b17b964d1babf791b892addb178c13f7a34a693",
    "validate": "bb78bbc66b028f43ae11335e5871e24cffad78c8b0ebbed59af4d9420f6fb212",
    "validate-failing": "8f96c7aac0b6b24ae28c2598cfe7660df7bd43ac1df1e00174865d9c43be2c60",
    "sweep-csv": "0dc84e8924b333a067cd11ad153d548cceccc1a8d9b2a656db310da5497e3722",
    "ratefn": "0c732cafc1dba1c00d26da7f3338d38d57f4ce063f80ecea3e2bcac5fc6a23b4",
    "persistence": "98d046bc6bde9c639a5a42e0893e3c7e7fe231e95dc68bd66c6784f53186cd33",
}


def cli_argv(name, tmp_path) -> list[str]:
    """The CLI arguments of one case, with its config written to ``tmp_path``
    and its report going to ``tmp_path / "report"``."""
    config, args = CASES[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "report"
    return [args[0], str(path)] + [str(out) if a == "OUT" else a for a in args[1:]]


def report_bytes(name, tmp_path) -> bytes:
    res = CliRunner().invoke(main, cli_argv(name, tmp_path), catch_exceptions=False)
    assert res.exit_code == EXIT_CODES.get(name, 0), res.output
    if "OUT" not in CASES[name][1]:
        return res.stdout_bytes
    return (tmp_path / "report").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_pinned_digest(name, tmp_path):
    assert hashlib.sha256(report_bytes(name, tmp_path)).hexdigest() == DIGESTS[name]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("name", sorted(set(CASES) - CSV_CASES))
def test_json_reports_are_strict_json(name, tmp_path):
    json.loads(report_bytes(name, tmp_path), parse_constant=_reject_constant)
