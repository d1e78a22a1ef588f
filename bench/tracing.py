"""Outside-in span and count recorder for one histwalk CLI invocation.

Run as ``python3 bench/tracing.py SPANS.json CLI_ARGS...`` with ``src`` on
``PYTHONPATH``. It imports ``histwalk.cli`` (timing the import), wraps the
public functions of each layer at the module where the caller looks them up,
runs the CLI in-process with the given arguments, writes the aggregated spans
and counts to SPANS.json and exits with the CLI's exit code.

``from .x import y`` binds a copy of ``y`` in the importing module, so each
name is wrapped where it is looked up (``histwalk.simulator.sample_n``, not
``histwalk.distributions.sample_n``). A target that no longer exists, or a
result whose shape a counter no longer understands, is listed under
``missing`` rather than failing the run; its metrics then read 0.

Nothing here touches report bytes: wrappers return what they wrap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


class Tracer:
    """Aggregates spans by name: calls, total seconds and self seconds.

    Self time is a span's duration minus the durations of the spans opened
    directly inside it. Counts are plain integers keyed by metric name.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [name, child seconds] of each open span
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def parent(self) -> str | None:
        """Name of the innermost open span."""
        return self.stack[-1][0] if self.stack else None

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` inside a span called ``name``; ``on_return(tracer, result)``
        records counts after the span has closed, so its cost is not in it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self.stack.pop()
                agg = self.spans.setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
                if self.stack:
                    self.stack[-1][1] += elapsed
            if on_return is not None:
                try:
                    on_return(self, result)
                except (AttributeError, TypeError, KeyError) as err:
                    note = f"{name}: {err!r}"
                    if note not in self.missing:
                        self.missing.append(note)
            return result

        return traced

    def counted(self, name: str, fn):
        """``fn`` with its calls counted under ``name`` and no span."""

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counting

    def summary(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "missing": self.missing}


def _count_draws(tracer: Tracer, draws) -> None:
    tracer.add("distributions.sample_n.draws", len(draws))
    parent = tracer.parent()
    if parent is not None:
        tracer.add(f"{parent}.draws", len(draws))


def _count_run(tracer: Tracer, result) -> None:
    tracer.add("simulator.run.steps", int(result.steps))
    tracer.add("simulator.run.sojourns", len(result.records))
    tracer.add("simulator.run.censored", sum(1 for rec in result.records if rec.censored))


def _count_exit(tracer: Tracer, record) -> None:
    tracer.add("simulator.sample_exit.steps", int(record.steps))
    tracer.add("simulator.sample_exit.censored", int(bool(record.censored)))


def _count_blocks(tracer: Tracer, tally) -> None:
    tracer.add("simulator.sample_block_outcomes.blocks", sum(tally.values()))


# (module, attribute path where the workloads' callers look the name up,
#  span name, counter)
SPANS = (
    ("histwalk.simulator", "sample_n", "distributions.sample_n", _count_draws),
    ("histwalk.experiments", "run", "simulator.run", _count_run),
    ("histwalk.experiments", "sample_exit", "simulator.sample_exit", _count_exit),
    ("histwalk.experiments", "sample_block_outcomes", "simulator.sample_block_outcomes", _count_blocks),
    ("histwalk.cli", "estimate_speed", "experiments.estimate_speed", None),
    ("histwalk.cli", "fit_exit_statistics", "experiments.fit_exit_statistics", None),
    ("histwalk.cli", "fit_block_exponents", "experiments.fit_block_exponents", None),
    ("histwalk.ratefn", "RateFunction.solve", "ratefn.solve", None),
    ("histwalk.cli", "validate_model", "theory.validate", None),
    ("histwalk.theory", "validate", "theory.validate", None),
    ("histwalk.cli", "predict_limiting_speed", "theory.predict_limiting_speed", None),
    ("histwalk.cli", "load_config", "cli.load_config", None),
    ("histwalk.cli", "_write_atomic", "cli.write", None),
)
# calls counted without a span: cgf_derivatives as looked up by ratefn's solver
COUNTS = (("histwalk.ratefn", "cgf_derivatives", "ratefn.cgf_evals"),)


def _owner(module: str, path: str):
    """The object holding the last attribute of ``path``, and that attribute."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, attr)  # raises AttributeError when the target is gone
    return owner, attr


def _patch(tracer: Tracer, module: str, path: str, make) -> None:
    """Replace the target with ``make(target)``, or record it as missing."""
    try:
        owner, attr = _owner(module, path)
    except (ImportError, AttributeError):
        tracer.missing.append(f"{module}.{path}")
        return
    setattr(owner, attr, make(getattr(owner, attr)))


def install(tracer: Tracer) -> None:
    """Wrap every target in SPANS and COUNTS."""
    for module, path, name, on_return in SPANS:
        _patch(tracer, module, path, lambda fn: tracer.wrap(name, fn, on_return))
    for module, path, name in COUNTS:
        _patch(tracer, module, path, lambda fn: tracer.counted(name, fn))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    cli = importlib.import_module("histwalk.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    entry = tracer.wrap("cli.main", cli.main)
    try:
        entry(args=cli_args, prog_name="histwalk")
        code = 0
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "exit_code": code, **tracer.summary()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
