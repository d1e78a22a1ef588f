"""The benchmark's per-layer trace (``bench/tracing.py``) wraps functions by
the names its callers look them up under. A refactor that renames one leaves
the layer's counters at zero, so run the tracer on the tiny report configs
and require every target found and each sampling layer counted."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_report_bytes import cli_argv

ROOT = Path(__file__).resolve().parents[1]

# case -> the counters its sampling layer must make nonzero
COUNTERS = {
    "simulate": ("simulator.run.steps", "simulator.run.sojourns"),
    "exits": ("simulator.sample_exit.steps",),
    "blocks": ("simulator.sample_block_outcomes.blocks",),
    "predict": (),
}


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    """Exit code, stderr and spans of each case, traced in concurrent processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    procs = {}
    try:
        for name in COUNTERS:
            tmp = tmp_path_factory.mktemp(name)
            cmd = [sys.executable, str(ROOT / "bench" / "tracing.py"), str(tmp / "spans.json"), *cli_argv(name, tmp)]
            procs[name] = (tmp, subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True))
        out = {}
        for name, (tmp, proc) in procs.items():
            _, err = proc.communicate(timeout=60)
            out[name] = (proc.returncode, err, tmp / "spans.json")
        return out
    finally:
        for _, proc in procs.values():
            proc.kill()


@pytest.mark.parametrize("name", sorted(COUNTERS))
def test_tracer_finds_every_hook(traces, name):
    code, err, spans_path = traces[name]
    assert code == 0, err
    spans = json.loads(spans_path.read_text())
    assert spans["missing"] == []
    for counter in COUNTERS[name]:
        assert spans["counts"].get(counter, 0) > 0, counter
