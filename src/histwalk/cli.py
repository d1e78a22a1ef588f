"""Command-line front end.

Reads a JSON config describing the model (and optional run defaults),
dispatches to the theory and experiment layers, and writes JSON or CSV
reports. Reports go to ``--output`` files atomically (temp file + rename)
with one stdout summary line per grid point; without ``--output`` the report
itself is the stdout payload. Exit codes: 0 success, 1 domain failure,
2 usage or config error, 3 exhausted budget or excess censoring.

The Monte Carlo layer (``experiments`` and the ``simulator``, ``sampling`` and
``fitting`` modules it uses) is imported on the first call into it. Only
that layer imports numpy, so ``validate``, ``predict`` and ``ratefn`` load
neither the layer nor numpy.

``run`` is the program's entry point, for the ``histwalk`` script and for
``python -m histwalk.cli``: it freezes the garbage collector's objects as the
process exits, so teardown skips collecting the objects built at import (about
24k with numpy loaded), while ``main``, the click group that in-process callers
invoke, never does.
"""

from __future__ import annotations

import atexit
import functools
import gc
import importlib
import json
import math
import os
from dataclasses import asdict, fields

# the theory commands make no BLAS calls, the Monte Carlo commands' only ones
# are the slope fits' dot products over a few grid points, and their parallel
# work runs in forked processes, so OpenBLAS's own threads would only start
# and idle; numpy reads this when first imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click

from .distributions import FiniteDiscrete, Gaussian, Rademacher
from .errors import (
    AssumptionError,
    ConfigError,
    DegenerateEstimateError,
    ExcessCensoringError,
    InvalidChainError,
    InvalidInputError,
    NonConvergenceError,
    _real,
)
from .ratefn import RateFunction
from .theory import VERSIONS, ModelSpec, predict_limiting_speed, threshold_bounds
from .theory import validate as validate_model


def _on_first_call(module: str, name: str):
    """A function named ``name`` that calls ``histwalk.<module>.<name>``,
    importing that module on its first call. The commands call it through
    this module's globals, where a caller can also replace it."""

    def call(*args, **kwargs):
        return getattr(importlib.import_module(f".{module}", __package__), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


estimate_speed = _on_first_call("experiments", "estimate_speed")
sweep_window = _on_first_call("experiments", "sweep_window")
fit_block_exponents = _on_first_call("experiments", "fit_block_exponents")
fit_exit_statistics = _on_first_call("experiments", "fit_exit_statistics")
estimate_persistence_constant = _on_first_call("experiments", "estimate_persistence_constant")
run_walk = _on_first_call("simulator", "run")

_MODEL_KEYS = {"dists", "thresholds", "window", "initial_regime"}
_DIST_LAWS = {"gaussian": Gaussian, "rademacher": Rademacher, "finite_discrete": FiniteDiscrete}


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}")


def _build_dist(obj, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    kind = obj.get("kind")
    if kind not in _DIST_LAWS:
        raise ConfigError(f"{where}: kind must be one of {sorted(_DIST_LAWS)}, got {kind!r}")
    law = _DIST_LAWS[kind]
    names = {f.name for f in fields(law)}
    _reject_unknown(obj, names | {"kind"}, where)
    missing = sorted(names - set(obj))
    if missing:
        raise ConfigError(f"{where} is missing {missing}")
    read = _numbers if law is FiniteDiscrete else _number
    values = {name: read(obj, name, where) for name in sorted(names)}
    try:
        return law(**values)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}") from err


def _is_int(value) -> bool:
    """A JSON integer: floats, strings and booleans are rejected, not coerced."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number(obj: dict, key: str, where: str) -> float:
    value = obj[key]
    if not _real(value):
        raise ConfigError(f"{where}.{key} must be a number, got {value!r}")
    return float(value)


def _numbers(obj: dict, key: str, where: str) -> tuple[float, ...]:
    value = obj[key]
    if not isinstance(value, list) or not all(_real(v) for v in value):
        raise ConfigError(f"{where}.{key} must be a list of numbers, got {value!r}")
    return tuple(float(v) for v in value)


# each run key, in the order checked: what its value must be, and the test of it
_RUN_KEYS = {
    "version": (" or ".join(map(repr, VERSIONS)), VERSIONS.__contains__),
    **dict.fromkeys(("steps", "replicas", "seed", "samples", "cap", "horizon"), ("an integer", _is_int)),
    **dict.fromkeys(("r", "r_lo", "r_hi"), ("a number", _real)),
    "n_grid": ("a list of integers", lambda value: isinstance(value, list) and all(map(_is_int, value))),
}


def _check_run_section(run_cfg: dict) -> None:
    _reject_unknown(run_cfg, set(_RUN_KEYS), "run")
    for key, (what, ok) in _RUN_KEYS.items():
        value = run_cfg.get(key)
        if value is not None and not ok(value):
            raise ConfigError(f"run.{key} must be {what}, got {value!r}")


def load_config(path: str) -> tuple[ModelSpec, dict]:
    """Parse and structurally check a config file; unknown keys are errors."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(raw, {"model", "run"}, "config")
    model = raw.get("model")
    if not isinstance(model, dict):
        raise ConfigError("config needs a model object")
    _reject_unknown(model, _MODEL_KEYS, "model")
    for key in ("dists", "thresholds", "window"):
        if key not in model:
            raise ConfigError(f"model is missing {key!r}")
    for key in ("window", "initial_regime"):
        if key in model and not _is_int(model[key]):
            raise ConfigError(f"model.{key} must be an integer, got {model[key]!r}")
    if not isinstance(model["dists"], list):
        raise ConfigError("model.dists must be a list")
    dists = tuple(_build_dist(obj, f"model.dists[{i}]") for i, obj in enumerate(model["dists"]))
    thresholds = _numbers(model, "thresholds", "model")
    try:
        spec = ModelSpec(
            dists=dists,
            thresholds=thresholds,
            window=model["window"],
            initial_regime=model.get("initial_regime", 0),
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(f"model: {err}") from err
    run_cfg = raw.get("run", {})
    if not isinstance(run_cfg, dict):
        raise ConfigError("run section must be an object")
    _check_run_section(run_cfg)
    return spec, run_cfg


def _fail(code: int, message: str) -> None:
    click.echo(message, err=True)
    raise SystemExit(code)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except ConfigError as err:
            _fail(2, f"config error: {err}")
        except InvalidInputError as err:
            _fail(2, f"usage error: {err}")
        except (NonConvergenceError, ExcessCensoringError, MemoryError, ChildProcessError) as err:
            # a lost worker process most likely met the kernel's out-of-memory
            # killer; ChildProcessError is an OSError, so it is caught first
            _fail(3, f"budget error: {err}")
        except OSError as err:
            _fail(2, f"i/o error: {err}")
        except (AssumptionError, InvalidChainError, DegenerateEstimateError) as err:
            _fail(1, f"domain error: {err}")

    return wrapper


def _require_valid(spec: ModelSpec) -> None:
    report = validate_model(spec)
    if not report.passed:
        failed = [name for name in ("mean_ordering", "tail_support", "light_tails") if not getattr(report, name)]
        for line in report.details:
            click.echo(f"warning: {line}", err=True)
        _fail(1, "model validation failed: " + ", ".join(failed))


def _resolve(name: str, flag, run_cfg: dict, default=None, required: bool = False):
    value = flag if flag is not None else run_cfg.get(name, default)
    if value is None and required:
        raise ConfigError(f"{name} is required (flag or run.{name})")
    return value


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise click.BadParameter(f"{what} must be comma-separated integers, got {text!r}")


def _grid_from(flag, run_cfg) -> tuple[int, ...]:
    if flag is not None:
        return _parse_int_list(flag, "--n-grid")
    grid = run_cfg.get("n_grid")
    if grid is None:
        raise ConfigError("n_grid is required (flag --n-grid or run.n_grid)")
    return tuple(grid)


def _pick_dist(spec: ModelSpec, index: int):
    if not 0 <= index <= spec.l:
        raise click.BadParameter(f"--dist must be in [0, {spec.l}], got {index}")
    return spec.dists[index]


def _finite(name: str, value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvalidInputError(f"{name} must be finite, got {value}")
    return value


def _law_grid_inputs(config, dist_index, n_grid, seed, r_lo, r_hi):
    """What the single-law grid commands share: the checked model and run
    section, the law picked by --dist, the grid, the seed, and thresholds
    that default to the regime's own and must be finite."""
    spec, run_cfg = load_config(config)
    _require_valid(spec)
    d = _pick_dist(spec, dist_index)
    grid = _grid_from(n_grid, run_cfg)
    seed = int(_resolve("seed", seed, run_cfg, required=True))
    bounds = []
    for name, flag, default in zip(("r_lo", "r_hi"), (r_lo, r_hi), threshold_bounds(spec, dist_index)):
        given = _resolve(name, flag, run_cfg)
        if given is None and not math.isfinite(default):
            raise InvalidInputError(f"regime {dist_index} has an unbounded side; pass --r-lo/--r-hi explicitly")
        bounds.append(_finite(name, default if given is None else given))
    return run_cfg, d, grid, seed, bounds[0], bounds[1]


def _parse_r_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise click.BadParameter(f"--r-grid must look like lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise click.BadParameter(f"--r-grid must be numeric lo:hi:step, got {text!r}")
    if not all(map(math.isfinite, (lo, hi, step))):
        raise click.BadParameter(f"--r-grid needs finite lo, hi and step, got {text!r}")
    if not step > 0 or hi < lo:
        raise click.BadParameter(f"--r-grid needs hi >= lo and step > 0, got {text!r}")
    span = (hi - lo) / step  # inf when the quotient overflows
    if not span < 999_999.5:  # round(span) + 1 rows, at most 1e6
        raise click.BadParameter(f"--r-grid would produce more than 1000000 rows, got {text!r}")
    return [lo + k * step for k in range(int(round(span)) + 1)]


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_atomic(path: str, text: str) -> None:
    # created 0666 less the umask, as open(path, "w") would; mkstemp gives 0600
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".histwalk-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, output: str | None, summaries=()) -> None:
    if output:
        _write_atomic(output, text)
        for line in summaries:
            click.echo(line)
    else:
        click.echo(text, nl=False)


_dist_option = click.option("--dist", "dist_index", type=int, required=True, help="regime index into model.dists")
_seed_option = click.option("--seed", type=int, default=None, help="master seed; mandatory, never defaulted")
_n_grid_option = click.option("--n-grid", "n_grid", type=str, default=None, help="comma-separated window sizes")
_version_option = click.option("--version", type=click.Choice(VERSIONS), default=None)
_output_option = click.option("--output", type=click.Path(), default=None)


def _law_grid_options(fn):
    """The options of the single-law grid commands, ``blocks`` and ``exits``."""
    for option in reversed((
        _dist_option,
        _n_grid_option,
        click.option("--samples", type=int, default=None),
        _seed_option,
        click.option("--r-lo", "r_lo", type=float, default=None, help="defaults to the regime's lower threshold"),
        click.option("--r-hi", "r_hi", type=float, default=None, help="defaults to the regime's upper threshold"),
        _output_option,
    )):
        fn = option(fn)
    return fn


@click.group()
def main():
    """Workbench for random walks whose step law switches when the recent
    window average crosses fixed thresholds."""


@main.command(name="validate")
@click.argument("config", type=click.Path())
@_guarded
def cmd_validate(config):
    """Check mean ordering, threshold reachability and tail lightness."""
    spec, _ = load_config(config)
    report = validate_model(spec)
    click.echo(_dump_json(asdict(report)), nl=False)
    if not report.passed:
        raise SystemExit(1)


@main.command(name="predict")
@click.argument("config", type=click.Path())
@click.option("--output", type=click.Path(), default=None, help="write JSON here instead of stdout")
@_guarded
def cmd_predict(config, output):
    """Per-regime exponents and the predicted limiting speed."""
    spec, _ = load_config(config)
    _require_valid(spec)
    report = predict_limiting_speed(spec)
    for warning in report.warnings:
        click.echo(f"warning: {warning}", err=True)
    _emit(_dump_json(asdict(report)), output, [f"predicted_speed={report.predicted_speed}"])


@main.command(name="simulate")
@click.argument("config", type=click.Path())
@_version_option
@click.option("--steps", type=int, default=None)
@click.option("--replicas", type=int, default=None)
@_seed_option
@_output_option
@click.option("--trace", type=click.Path(), default=None, help="also write a one-replica checkpoint CSV")
@_guarded
def cmd_simulate(config, version, steps, replicas, seed, output, trace):
    """Estimate the speed with batch-means errors and sojourn statistics."""
    spec, run_cfg = load_config(config)
    version = _resolve("version", version, run_cfg, required=True)
    steps = int(_resolve("steps", steps, run_cfg, default=1_000_000))
    replicas = int(_resolve("replicas", replicas, run_cfg, default=4))
    seed = int(_resolve("seed", seed, run_cfg, required=True))
    _require_valid(spec)
    report = estimate_speed(spec, version, steps, replicas, seed)
    for warning in report.warnings:
        click.echo(f"warning: {warning}", err=True)
    if trace:
        _write_trace(spec, version, steps, seed, trace)
    _emit(
        _dump_json(asdict(report)),
        output,
        [
            f"version={version} N={spec.window} est_speed={report.est_speed!r} "
            f"stderr={report.stderr!r}"
        ],
    )


def _write_trace(spec, version, steps, seed, path):
    import numpy as np

    res = run_walk(spec, version, steps, np.random.default_rng(np.random.SeedSequence(seed)))
    lines = ["n,X_n,regime,window_avg"]
    for t, x, reg, wavg in zip(
        res.trace.times, res.trace.positions, res.trace.regimes, res.trace.window_avgs
    ):
        lines.append(f"{int(t)},{float(x)!r},{int(reg)},{float(wavg)!r}")
    _write_atomic(path, "\n".join(lines) + "\n")


def _sweep_csv(sw) -> str:
    lines = ["N,est_speed,stderr,predicted_speed,gap"]
    for n, rep, gap in zip(sw.n_grid, sw.reports, sw.gaps):
        lines.append(f"{n},{rep.est_speed!r},{rep.stderr!r},{sw.predicted_speed!r},{gap!r}")
    return "\n".join(lines) + "\n"


@main.command(name="sweep")
@click.argument("config", type=click.Path())
@_version_option
@_n_grid_option
@click.option("--replicas", type=int, default=None)
@_seed_option
@click.option("--steps", type=int, default=None, help="fixed per-window budget; default grows with N")
@click.option("--output", type=click.Path(), default=None, help="CSV destination")
@click.option("--json", "json_path", type=click.Path(), default=None, help="full JSON report destination")
@_guarded
def cmd_sweep(config, version, n_grid, replicas, seed, steps, output, json_path):
    """Speed estimates across window sizes versus the predicted limit."""
    spec, run_cfg = load_config(config)
    version = _resolve("version", version, run_cfg, required=True)
    grid = _grid_from(n_grid, run_cfg)
    replicas = int(_resolve("replicas", replicas, run_cfg, default=4))
    seed = int(_resolve("seed", seed, run_cfg, required=True))
    steps = _resolve("steps", steps, run_cfg)
    _require_valid(spec)
    sw = sweep_window(spec, version, grid, replicas, seed, steps=steps)
    if not sw.monotone_within_noise:
        click.echo("warning: gaps to the predicted speed are not monotone within noise", err=True)
    if json_path:
        _write_atomic(json_path, _dump_json(asdict(sw)))
    summaries = [
        f"N={n} est_speed={rep.est_speed!r} stderr={rep.stderr!r} gap={gap!r}"
        for n, rep, gap in zip(sw.n_grid, sw.reports, sw.gaps)
    ]
    summaries.append(
        f"predicted_speed={sw.predicted_speed!r} final_gap={sw.final_gap!r} "
        f"monotone_within_noise={sw.monotone_within_noise}"
    )
    _emit(_sweep_csv(sw), output, summaries)


@main.command(name="ratefn")
@click.argument("config", type=click.Path())
@_dist_option
@click.option("--r-grid", "r_grid", type=str, required=True, help="lo:hi:step, inclusive")
@click.option("--output", type=click.Path(), default=None, help="CSV destination")
@_guarded
def cmd_ratefn(config, dist_index, r_grid, output):
    """Tabulate the rate function and its optimal tilt on an r grid."""
    spec, _ = load_config(config)
    _require_valid(spec)
    d = _pick_dist(spec, dist_index)
    rate = RateFunction(d)
    lines = ["r,I_of_r,lambda_star"]
    for r in _parse_r_grid(r_grid):
        value, tilt = rate.solve(r)
        lines.append(f"{r:.10g},{value!r},{tilt!r}")
    _emit("\n".join(lines) + "\n", output, [f"rows={len(lines) - 1}"])


@main.command(name="blocks")
@click.argument("config", type=click.Path())
@_law_grid_options
@_guarded
def cmd_blocks(config, dist_index, n_grid, samples, seed, r_lo, r_hi, output):
    """Fit decay exponents of fresh-block threshold crossings."""
    run_cfg, d, grid, seed, r_lo, r_hi = _law_grid_inputs(config, dist_index, n_grid, seed, r_lo, r_hi)
    samples = int(_resolve("samples", samples, run_cfg, default=100_000))
    report = fit_block_exponents(d, r_lo, r_hi, grid, samples, seed)
    for warning in report.warnings:
        click.echo(f"warning: {warning}", err=True)
    up_by_n = dict(zip(report.up.ns, report.up.values))
    dn_by_n = dict(zip(report.down.ns, report.down.values))
    bo_by_n = {} if report.both is None else dict(zip(report.both.ns, report.both.values))
    summaries = [
        f"N={n} p_up={up_by_n.get(n, 0.0)!r} p_down={dn_by_n.get(n, 0.0)!r} "
        f"p_both={bo_by_n.get(n, 0.0)!r}"
        for n in grid
    ]
    summaries.append(
        f"up_slope={report.up.slope!r} down_slope={report.down.slope!r} "
        f"both_slope={None if report.both is None else report.both.slope!r}"
    )
    _emit(_dump_json(asdict(report)), output, summaries)


@main.command(name="exits")
@click.argument("config", type=click.Path())
@_law_grid_options
@click.option("--cap", type=int, default=None, help="per-stay step budget before censoring")
@_guarded
def cmd_exits(config, dist_index, n_grid, samples, cap, seed, r_lo, r_hi, output):
    """Fit exit-direction and mean-stay exponents for a fresh stay."""
    run_cfg, d, grid, seed, r_lo, r_hi = _law_grid_inputs(config, dist_index, n_grid, seed, r_lo, r_hi)
    samples = int(_resolve("samples", samples, run_cfg, default=10_000))
    cap = int(_resolve("cap", cap, run_cfg, default=10_000_000))
    report = fit_exit_statistics(d, r_lo, r_hi, grid, samples, cap, seed)
    down_by_n = dict(zip(report.exit_down.ns, report.exit_down.values))
    stay_by_n = dict(zip(report.mean_stay.ns, report.mean_stay.values))
    summaries = [
        f"N={n} p_down={down_by_n.get(n, 0.0)!r} mean_stay={stay_by_n.get(n, 0.0)!r} "
        f"censored={frac!r}"
        for n, frac in zip(grid, report.censored_fractions)
    ]
    summaries.append(
        f"down_slope={report.exit_down.slope!r} stay_slope={report.mean_stay.slope!r}"
    )
    _emit(_dump_json(asdict(report)), output, summaries)


@main.command(name="persistence")
@click.argument("config", type=click.Path())
@_dist_option
@click.option("--r", "r_level", type=float, default=None, help="level the running mean must hold")
@click.option("--horizon", type=int, default=None)
@click.option("--samples", type=int, default=None)
@_seed_option
@_output_option
@_guarded
def cmd_persistence(config, dist_index, r_level, horizon, samples, seed, output):
    """Estimate the probability the running mean never dips below a level."""
    spec, run_cfg = load_config(config)
    _require_valid(spec)
    d = _pick_dist(spec, dist_index)
    r_level = _finite("r", _resolve("r", r_level, run_cfg, required=True))
    horizon = int(_resolve("horizon", horizon, run_cfg, required=True))
    samples = int(_resolve("samples", samples, run_cfg, default=100_000))
    seed = int(_resolve("seed", seed, run_cfg, required=True))
    estimate = estimate_persistence_constant(d, r_level, horizon, samples, seed)
    doc = {
        "dist": dist_index,
        "r": r_level,
        "horizon": horizon,
        "samples": samples,
        "master_seed": seed,
        "estimate": estimate,
    }
    _emit(_dump_json(doc), output, [f"estimate={estimate!r}"])


def run():
    """Run the command line, then exit without teardown's collections.

    ``gc.freeze`` moves every tracked object to the permanent generation,
    which the collections run at interpreter shutdown skip. Hooks run last
    registered first, so this one runs after every hook that the commands and
    the libraries they import register; those hooks, stdio flushing and the
    exit status are as without it.
    """
    atexit.register(gc.freeze)
    main()


if __name__ == "__main__":
    run()
