"""Command line front end for the network analytics library.

Subcommands:

``clustering``     mean clustering coefficient by the requested modes
``separation``     chain-count curves over a grid of angular gaps
``sweep-phi``      window-width sweeps: clustering ratio and normalized
                   antipodal chain counts, one column per chain order
``mc-validate``    the three-way consistency battery (series analytics,
                   direct quadrature, Monte Carlo sampling) with one
                   pass/fail line per check
``kernel-info``    kernel validation report and mean degree

A run is configured by a JSON document (``--config``), with common scalars
also available as flags.  Output is CSV or JSON; CSV carries ``#`` header
lines with the tool version, the schema version, and a digest of the fully
resolved configuration.  Identical configuration and seed give byte
identical output, whatever the thread count.

Every command takes ``--config``, ``--out``, ``--format`` and ``--threads``,
and only those other flags it reads:

``clustering``, ``separation``  ``--seed --trials --modes --p --phi --radius``
``sweep-phi``                   ``--p`` (the height of the swept window)
``mc-validate``                 ``--seed``
``kernel-info``                 ``--p --phi --radius``

Exit codes: 0 success, 1 validation-battery failure, 2 configuration
error (a bad flag or config value: one ``config error:`` line), 3
numerical failure.

Angular gaps are plain angles in radians; multiply by the circle radius
for arc length.  Chain-count values are expected counts and may exceed 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import warnings

import numpy as np

from . import __version__, fourier, montecarlo, quadrature
from .kernels import (
    CircleModel,
    CosineSeries,
    CostBudgetError,
    ProductKernel,
    TorusModel,
    UniformWindow,
    ZeroMeanDegreeWarning,
    axis_mean_degree,
    kernel_from_config,
    kernel_to_config,
    mean_degree,
    model_axes,
    model_from_config,
    model_to_config,
    validate,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VALIDATION_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3

CLUSTERING_MODES = ("closed", "leading", "full", "quadrature", "mc")
SEPARATION_MODES = ("leading", "full", "quadrature", "mc")
BATTERY_TRIAL_KEYS = ("mean_degree", "clustering", "chain", "direct_link")
# closed-form harmonics one sweep-phi run may sum, widths times tail_terms
# rounded up to whole blocks; checked before the width grid exists
SWEEP_COST_BUDGET = 1 << 30


class ConfigError(Exception):
    """The configuration document or flags are unusable."""


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _load_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError("config document must be a JSON object")
    return document


def _scaled(value, scale, key):
    # ``value * scale`` for the number at config key ``key``, as the node
    # count is derived from it; no string, boolean or overflow gets that far
    try:
        product = value * scale if _is_real(value) else math.nan
    except OverflowError:  # an integer too large for a float
        product = math.inf
    if not math.isfinite(product):
        raise ConfigError(f"{key} must be a finite number")
    return product


def _resolve_config(args):
    """Merge the config file with the command's flags and fill defaults."""
    flags = vars(args)  # holds only the flags the command takes
    config = _load_config_file(args.config) if args.config else {}
    config = json.loads(json.dumps(config))  # deep copy, JSON types only
    for section in ("space", "kernel", "mc", "computation", "output"):
        if not isinstance(config.get(section, {}), dict):
            raise ConfigError(f"{section} must be a JSON object")
    # sweep-phi sweeps the half-width of a window of height computation.p
    # (--p) and reads no model
    sweep = args.command == "sweep-phi"
    p, phi, radius = None if sweep else flags.get("p"), flags.get("phi"), flags.get("radius")
    if "space" not in config or "kernel" not in config:
        config.setdefault("space", {"type": "circle",
                                    "radius": 20.0 if radius is None else radius})
        config.setdefault("kernel", {"type": "uniform", "p": 0.1 if p is None else p,
                                     "half_width": 0.5 if phi is None else phi})
    elif (p, phi, radius) != (None, None, None):
        raise ConfigError("model flags cannot override a config file that "
                          "already defines the model")
    mc_section = config.setdefault("mc", {})
    if "nodes" in mc_section:
        raise ConfigError("mc.nodes is not settable: the node count is round(2*pi*R) "
                          "of space.radius or of each of space.radii")
    for key, default in (("trials", 100), ("seed", 20260822), ("threads", 1)):
        if flags.get(key) is not None:
            mc_section[key] = flags[key]
        mc_section.setdefault(key, default)
    output = config.setdefault("output", {})
    if args.format is not None:
        output["format"] = args.format
    if args.out is not None:
        output["path"] = args.out
    output.setdefault("format", "csv")
    computation = config.setdefault("computation", {})
    if flags.get("modes") is not None:
        computation["modes"] = [m.strip() for m in args.modes.split(",") if m.strip()]
    if sweep and args.p is not None:
        computation["p"] = args.p
    # the node count follows from the radius by unit spacing: n = round(2 pi R)
    space = config["space"]
    if space.get("type") == "circle":
        space.setdefault("radius", 20.0)
        mc_section["nodes"] = round(_scaled(space["radius"], 2.0 * math.pi, "space.radius"))
    elif space.get("type") == "torus" and space.get("radii"):
        if not isinstance(space["radii"], list):
            raise ConfigError("space.radii must be a list of numbers")
        mc_section["nodes"] = [round(_scaled(r, 2.0 * math.pi, "space.radii"))
                               for r in space["radii"]]
    return config


# what a malformed kernel or model document raises while it is read
# (KernelValidationError is a ValueError)
_CONFIG_FAULTS = (KeyError, TypeError, ValueError)


def _build_model(config):
    try:
        return model_from_config(config)
    except _CONFIG_FAULTS as exc:
        raise ConfigError(f"bad model configuration: {exc}") from exc


def _config_digest(config) -> str:
    # the digest identifies what was computed; scheduling knobs and output
    # destinations never change results, so they stay out of the hash and
    # out of byte comparisons between runs
    reduced = json.loads(json.dumps(config))
    reduced.get("mc", {}).pop("threads", None)
    reduced.pop("output", None)
    canonical = json.dumps(reduced, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _is_count(value, least):
    # JSON true/false arrive as bool, a subclass of int; they are not counts
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _is_real(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive_int(config, section, key, default=None):
    value = config[section].get(key, default)
    if not _is_count(value, 1):
        raise ConfigError(f"{section}.{key} must be a positive integer")
    return value


def _master_seed(config):
    seed = config["mc"]["seed"]
    if not _is_count(seed, 0):
        raise ConfigError("mc.seed (--seed) must be a non-negative integer")
    return seed


def _threads(config):
    threads = config["mc"]["threads"]
    if not _is_count(threads, 1):
        raise ConfigError("mc.threads (--threads) must be a positive integer")
    return threads


def _analytic_settings(config, command, known_modes, default_modes, default_tolerance):
    """Modes, series terms, correction order and quadrature tolerance."""
    computation = config["computation"]
    modes = computation.get("modes", default_modes)
    if not isinstance(modes, list) or not all(isinstance(m, str) for m in modes):
        raise ConfigError("computation.modes must be a list of mode names")
    for mode in modes:
        if mode not in known_modes:
            raise ConfigError(f"unknown {command} mode {mode!r}; "
                              f"expected one of {known_modes}")
    order = computation.get("correction_order", fourier.DEFAULT_CORRECTION_ORDER)
    if not _is_count(order, 0):
        raise ConfigError("computation.correction_order must be a non-negative integer")
    tolerance = computation.get("tolerance", default_tolerance)
    if tolerance is not None and not (_is_real(tolerance) and 0.0 < tolerance < math.inf):
        raise ConfigError("computation.tolerance must be a positive finite number")
    terms = _positive_int(config, "computation", "terms", fourier.DEFAULT_TERMS)
    return modes, terms, order, tolerance


def _chain_orders(computation, default, least):
    orders = computation.get("k_list", default)
    if not isinstance(orders, list) or not all(_is_count(k, least) for k in orders):
        kind = "positive" if least else "non-negative"
        raise ConfigError(f"computation.k_list must be a list of {kind} integers")
    if len(set(orders)) != len(orders):
        raise ConfigError("computation.k_list must not repeat a chain order")
    return orders


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _csv_text(config, schema_name, columns, records):
    """Header lines, then one line per record in the record's key order."""
    lines = [f"# tool: ringnet {__version__}",
             f"# schema: {schema_name} v{SCHEMA_VERSION}",
             f"# config-digest: sha256:{_config_digest(config)}",
             ",".join(columns)]
    for record in records:
        lines.append(",".join(_cell(value) for value in record.values()))
    return "\n".join(lines) + "\n"


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _require_finite(records):
    """Refuse to write nan or inf: neither is a result, nor valid JSON."""
    for record in records:
        bad = [key for key, value in record.items()
               if isinstance(value, float) and not math.isfinite(value)]
        if bad:
            where = ", ".join(f"{key}={value!r}" for key, value in record.items()
                              if key not in bad and value is not None)
            raise FloatingPointError(f"non-finite {' and '.join(bad)} at {where}")


def _json_text(config, schema_name, records):
    document = {
        "tool": f"ringnet {__version__}",
        "schema": f"{schema_name} v{SCHEMA_VERSION}",
        "config_digest": f"sha256:{_config_digest(config)}",
        "records": records,
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _emit(text, path):
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output to {path}: {exc.strerror or exc}") from exc


# ---------------------------------------------------------------------------
# shared analytic helpers
# ---------------------------------------------------------------------------

def _series_for_kernel(kernel, terms):
    if isinstance(kernel, UniformWindow):
        return fourier.uniform_window_series(kernel, terms)
    if isinstance(kernel, CosineSeries):
        return kernel  # a cosine kernel is its own expansion
    raise ConfigError("series modes need a uniform or cosine kernel per axis")


def _mc_settings(config):
    """The sampled grid shape, one node count round(2 pi R) per axis, the
    trial count, the master seed and the thread count of mode ``mc``."""
    nodes = config["mc"]["nodes"]  # an int on a circle, a list on a torus
    shape = tuple(nodes) if isinstance(nodes, list) else (nodes,)
    if min(shape) < 3:
        raise ConfigError("ring sampling needs at least 3 nodes per axis, "
                          "round(2*pi*R): every radius must be at least 0.4")
    return shape, _positive_int(config, "mc", "trials"), _master_seed(config), _threads(config)


# every record holds its keys in the order of its CSV columns
CLUSTERING_COLUMNS = ("mode", "value", "error_estimate", "trials")
SEPARATION_COLUMNS = ("k", "b", "value", "error_estimate", "mode", "trials")


def _clustering_record(mode, value, error, trials=None):
    return {"mode": mode, "value": float(value), "error_estimate": float(error),
            "trials": trials}


def _separation_record(order, gap, value, error, mode, trials=None):
    return {"k": order, "gap": float(gap), "value": float(value),
            "error_estimate": float(error), "mode": mode, "trials": trials}


# ---------------------------------------------------------------------------
# clustering command
# ---------------------------------------------------------------------------

def cmd_clustering(config):
    model = _build_model(config)
    modes, terms, correction_order, tolerance = _analytic_settings(
        config, "clustering", CLUSTERING_MODES, ["closed", "leading", "quadrature"], None)
    tail_terms = _positive_int(config, "computation", "tail_terms", 1_000_000)
    axes = model_axes(model)
    if "closed" in modes and not (len(axes) == 1 and isinstance(axes[0][1], UniformWindow)):
        raise ConfigError("mode 'closed' needs a circle model with a uniform window kernel")
    if "full" in modes and len(axes) != 1:
        raise ConfigError("full mode does not factorise over torus axes")
    with warnings.catch_warnings():
        # the zero case becomes a hard config error right here
        warnings.simplefilter("ignore", ZeroMeanDegreeWarning)
        degree = mean_degree(model)
    if degree == 0.0:
        raise ConfigError("mean degree is zero; clustering is undefined")
    # mode mc's settings are checked before any mode runs
    sampling = _mc_settings(config) if "mc" in modes else None
    records = []
    for mode in modes:
        if mode == "closed":
            window = axes[0][1]
            estimate = fourier.clustering_uniform(window.p, window.half_width,
                                                  tail_terms=tail_terms)
            records.append(_clustering_record(mode, estimate.value,
                                              estimate.error_bound))
        elif mode in ("leading", "full"):
            value = 1.0
            bound = 0.0
            for radius, kernel in axes:
                value *= fourier.clustering_from_series(
                    _series_for_kernel(kernel, terms), radius,
                    axis_mean_degree(radius, kernel), mode=mode,
                    correction_order=correction_order)
                bound += fourier.clustering_tail_bound(kernel, terms)
            records.append(_clustering_record(mode, value, bound))
        elif mode == "quadrature":
            result = quadrature.clustering_result(model, tol=tolerance)
            records.append(_clustering_record(mode, result.value,
                                              result.error_estimate))
        else:
            shape, trials, seed, threads = sampling
            estimate = montecarlo.estimate_clustering(shape, model.kernel, trials, seed,
                                                      threads=threads)
            records.append(_clustering_record(mode, estimate.mean,
                                              estimate.std_error,
                                              estimate.trials))
    return records, CLUSTERING_COLUMNS, "clustering"


# ---------------------------------------------------------------------------
# separation command
# ---------------------------------------------------------------------------

def _gap_grid(config):
    grid = config["computation"].get("gap_grid")
    if grid is None:
        count = _positive_int(config, "computation", "gap_points", 25)
        grid = np.linspace(0.0, math.pi, count).tolist()
    if not (isinstance(grid, list) and grid
            and all(_is_real(g) and math.isfinite(g) for g in grid)
            and all(a < b for a, b in zip(grid, grid[1:]))):
        raise ConfigError("computation.gap_grid must be a non-empty, strictly "
                          "increasing list of finite numbers")
    return [float(g) for g in grid]


def _analytic_records(model, series, order, gaps, direct, mode, terms,
                      correction_order, tolerance, brackets):
    """One chain order's rows of a series or quadrature mode, each route
    called once for the whole grid; ``direct`` is the kernel at each gap,
    ``brackets`` each order's power sums."""
    ((radius, kernel),) = model_axes(model)
    errors = [fourier.chain_tail_bound(kernel, radius, order, terms)
              if order and mode != "quadrature" else 0.0] * gaps.size
    if order == 0:
        values = direct  # zero intermediaries is the direct link itself
    elif mode == "quadrature":
        results = quadrature.chain_count_curve(model, order, gaps, tol=tolerance)
        values = [result.value for result in results]
        errors = [result.error_estimate for result in results]
    elif mode == "leading":
        values = fourier.chain_count_leading(series, radius, order, gaps,
                                             brackets[order])
    elif order == 1:
        values = fourier.chain_count_one(series, radius, gaps, direct, brackets[1])
    else:
        values = fourier.chain_count_two(series, radius, gaps, direct, correction_order,
                                         brackets[2])
    # a route that returns one value gives it at every gap
    return [_separation_record(order, gap, value, error, mode) for gap, value, error
            in zip(gaps, np.broadcast_to(values, gaps.shape), errors)]


def cmd_separation(config):
    model = _build_model(config)
    axes = model_axes(model)
    if len(axes) != 1:
        raise ConfigError("separation curves are defined on circle models")
    ((_, kernel),) = axes
    computation = config["computation"]
    modes, terms, correction_order, tolerance = _analytic_settings(
        config, "separation", SEPARATION_MODES, ["leading"], quadrature.DEFAULT_TOL)
    orders = _chain_orders(computation, [1, 2], least=0)
    nested = [mode for mode in modes if mode in ("full", "quadrature")]
    if nested and max(orders, default=0) > 2:
        raise ConfigError(f"{nested[0]} mode covers chain orders 1 and 2")
    grid = _gap_grid(config)
    # mode mc's settings and offsets are checked before any mode runs
    sampling = _separation_sampling(config, grid) if "mc" in modes else None
    gaps = np.asarray(grid)
    direct = kernel.evaluate(gaps)
    records = []
    series = brackets = None
    for mode in modes:
        if mode == "mc":
            records.extend(_separation_mc(kernel, orders, *sampling))
            continue
        if mode != "quadrature" and series is None:
            # one series and its power sums serve every order of both modes
            series = _series_for_kernel(kernel, terms)
            positive = [order for order in orders if order]
            brackets = dict(zip(positive, fourier.leading_brackets(series, positive, gaps)))
        for order in orders:
            records.extend(_analytic_records(model, series, order, gaps, direct, mode,
                                             terms, correction_order, tolerance, brackets))
    return records, SEPARATION_COLUMNS, "separation"


def _separation_sampling(config, grid):
    """Mode mc's settings and the node offsets its grid gaps map to."""
    (nodes,), trials, seed, threads = _mc_settings(config)
    offsets = []
    for gap in grid:
        offset = round(gap * nodes / (2.0 * math.pi))
        # the grid endpoint 0 has no pair to measure; duplicates collapse
        if 0 < offset <= nodes // 2 and offset not in offsets:
            offsets.append(offset)
    if not offsets:
        raise ConfigError("no gap in the grid maps to a usable node offset")
    return nodes, offsets, trials, seed, threads


def _separation_mc(kernel, orders, nodes, offsets, trials, seed, threads):
    max_sep = max(orders, default=0)
    histograms = montecarlo.estimate_separation_histograms(
        nodes, kernel, offsets, max_sep, trials, seed, threads=threads)
    measured = [(2.0 * math.pi * offset / nodes, histogram.probabilities())
                for offset, histogram in zip(offsets, histograms)]
    records = []
    for order in orders:
        for attained, probabilities in measured:
            fraction = probabilities[order]
            spread = math.sqrt(max(fraction * (1.0 - fraction), 0.0) / trials)
            records.append(_separation_record(order, attained, fraction, spread,
                                              "mc", trials))
    return records


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------

def cmd_sweep_phi(config):
    computation = config["computation"]
    height = computation.get("p", 0.1)
    if not _is_real(height) or not 0.0 <= height <= 1.0:
        raise ConfigError("computation.p (--p) must be a number in [0, 1]")
    orders = _chain_orders(computation, [1, 2, 4, 6, 10, 20], least=1)
    # sets the clustering column only: the antipodal counts are exact sums
    tail_terms = _positive_int(config, "computation", "tail_terms", 200_000)
    grid = computation.get("phi_grid")
    if grid is None:
        points = _positive_int(config, "computation", "phi_points", 64)
    elif not isinstance(grid, list) or not all(_is_real(v) for v in grid):
        raise ConfigError("computation.phi_grid must be a list of numbers")
    else:
        points = len(grid)
    # every width sums its harmonics in whole blocks
    blocks = -(-tail_terms // fourier.SUM_BLOCK_TERMS)
    cost = points * blocks * fourier.SUM_BLOCK_TERMS
    if cost > SWEEP_COST_BUDGET:
        raise CostBudgetError("closed-form harmonics of the sweep-phi grid", cost,
                              SWEEP_COST_BUDGET)
    if grid is None:
        grid = np.linspace(math.pi / points, math.pi, points).tolist()
    grid = [float(v) for v in grid]
    if not grid or not all(0.0 < v <= math.pi for v in grid):
        raise ConfigError("phi grid values must lie in (0, pi]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("phi grid must be strictly increasing")
    widths = np.array(grid)
    fourier.check_antipodal_budget(orders, widths)

    ratio_rows = []
    for width in grid:
        estimate = fourier.clustering_uniform(height, width, tail_terms=tail_terms)
        ratio_rows.append({"phi": width, "clustering_over_p": estimate.value / height})

    # only the normalized counts are read, and they do not depend on the
    # mean degree argument
    curves = {f"ptilde_k{order}": fourier.antipodal_chain_count_uniform(
        height, widths, 1.0, order).normalized.value.tolist() for order in orders}
    curve_rows = [{"phi": width, **{name: values[index] for name, values in curves.items()}}
                  for index, width in enumerate(grid)]
    return ratio_rows, curve_rows


def _emit_sweep(config, ratio_rows, curve_rows):
    output = config["output"]
    if output["format"] == "json":
        records = {"clustering_ratio": ratio_rows, "antipodal_curves": curve_rows}
        _emit(_json_text(config, "sweep-phi", records), output.get("path"))
        return
    ratio_text = _csv_text(config, "sweep-phi-clustering", ratio_rows[0], ratio_rows)
    curve_text = _csv_text(config, "sweep-phi-antipodal", curve_rows[0], curve_rows)
    path = output.get("path")
    # a path that exists as neither a file nor a directory, such as /dev/null
    # or a pipe, takes both tables as stdout does
    if not path or (os.path.exists(path) and not os.path.isfile(path)
                    and not os.path.isdir(path)):
        _emit(ratio_text + "\n" + curve_text, path)
        return
    root = path[:-4] if path.endswith(".csv") else path
    _emit(ratio_text, root + "-clustering.csv")
    _emit(curve_text, root + "-antipodal.csv")


# ---------------------------------------------------------------------------
# kernel-info command
# ---------------------------------------------------------------------------

def cmd_kernel_info(config):
    """Emit the kernel validation report; exit 2 when the kernel is invalid."""
    try:
        kernel = kernel_from_config(config["kernel"])
    except _CONFIG_FAULTS as exc:
        raise ConfigError(f"bad kernel configuration: {exc}") from exc
    try:
        model, problems = _build_model(config), []
    except ConfigError as exc:
        # a model that checked its kernel carries the kernel's violations;
        # the kernel is checked here only if the model refused before that
        problems = getattr(exc.__cause__, "kernel_problems", None)
        if problems is None:
            problems = validate(kernel)
        if not problems:
            raise
    record = {
        "kernel": kernel_to_config(kernel),
        "valid": not problems,
        "violations": problems,
        "mean_degree": None,
        "nodes": config["mc"].get("nodes"),
    }
    if not problems:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroMeanDegreeWarning)
            record["mean_degree"] = float(mean_degree(model))
        record["model"] = model_to_config(model)
    output = config["output"]
    if output["format"] == "json":
        text = _json_text(config, "kernel-info", record)
    else:
        rows = [{"field": "valid", "value": str(record["valid"]).lower()},
                {"field": "violations",
                 "value": ";".join(problems) if problems else "none"},
                {"field": "mean_degree", "value": record["mean_degree"]},
                {"field": "nodes", "value": record["nodes"]}]
        text = _csv_text(config, "kernel-info", ("field", "value"), rows)
    _emit(text, output.get("path"))
    return EXIT_OK if not problems else EXIT_CONFIG_ERROR


# ---------------------------------------------------------------------------
# validation battery
# ---------------------------------------------------------------------------

def _battery_checks(config):
    seed = _master_seed(config)
    threads = _threads(config)
    terms = _positive_int(config, "computation", "terms", 200_000)
    trials = config["computation"].get("battery_trials", {})
    if not isinstance(trials, dict):
        raise ConfigError("computation.battery_trials must be a JSON object")
    for key, value in trials.items():
        if key not in BATTERY_TRIAL_KEYS:
            raise ConfigError(f"computation.battery_trials has unknown key {key!r}; "
                              f"expected some of {BATTERY_TRIAL_KEYS}")
        if not _is_count(value, 1):
            raise ConfigError(f"computation.battery_trials.{key} must be a "
                              "positive integer")

    checks = []

    def check(name, left, right, tolerance, scale=None):
        gap = abs(left - right)
        allowed = tolerance if scale is None else tolerance * scale
        checks.append((name, left, right, gap, allowed, gap <= allowed))

    height, width = 0.1, 1.0
    closed = fourier.clustering_uniform(height, width, tail_terms=terms)
    window = UniformWindow(height, width)
    radius = 20.0
    degree = 2.0 * radius * height * width
    # the long series is dropped once used, not held through every later check
    series_value = fourier.clustering_from_series(
        fourier.uniform_window_series(window, terms), radius, degree, mode="leading")
    check("clustering-closed-vs-series", closed.value, series_value,
          1e-10, scale=abs(closed.value))
    model = CircleModel(radius, window)
    quad_value = quadrature.clustering_result(model).value
    check("clustering-closed-vs-quadrature", closed.value, quad_value,
          1e-6, scale=abs(closed.value))

    chain_window = UniformWindow(0.05, 0.5)
    chain_model = CircleModel(20.0, chain_window)
    chain_series = fourier.uniform_window_series(chain_window, 4096)
    for order, gap_value in ((1, 0.7), (2, 0.7)):
        lead = fourier.chain_count_leading(chain_series, 20.0, order, gap_value)
        quad = quadrature.chain_count_result(chain_model, order, gap_value).value
        check(f"chain-leading-vs-quadrature-k{order}", lead, quad,
              1e-6, scale=max(abs(quad), 1e-12))

    nodes = 2048
    ring_radius = nodes / (2.0 * math.pi)
    offset = 160
    gap_value = 2.0 * math.pi * offset / nodes
    discrete = quadrature.discrete_chain_count(nodes, chain_window, 1, offset)
    continuum = fourier.chain_count_leading(chain_series, ring_radius, 1, gap_value)
    check("chain-discrete-vs-continuum", discrete.reduced, continuum,
          0.05, scale=max(abs(continuum), 1e-12))

    reduction_series = fourier.uniform_window_series(chain_window, 512)
    direct = float(chain_window.evaluate(np.asarray([0.4]))[0])
    bare = fourier.chain_count_two(reduction_series, 20.0, 0.4, direct,
                                   correction_order=0)
    reference = (1.0 - direct) * fourier.chain_count_leading(
        reduction_series, 20.0, 2, 0.4)
    check("chain-full-reduces-to-leading", bare, reference, 1e-14,
          scale=max(abs(reference), 1e-12))

    degree_nodes = 1024
    degree_kernel = UniformWindow(0.2, 0.5)
    degree_trials = trials.get("mean_degree", 150)
    estimate = montecarlo.estimate_mean_degree(degree_nodes, degree_kernel,
                                               degree_trials, seed,
                                               threads=threads)
    exact = quadrature.discrete_mean_degree(degree_nodes, degree_kernel)
    check("mc-mean-degree", estimate.mean, exact, 3.5,
          scale=max(estimate.std_error, 1e-12))

    cluster_nodes = 4096
    cluster_kernel = UniformWindow(0.1, 1.0)
    cluster_trials = trials.get("clustering", 16)
    cluster_estimate = montecarlo.estimate_clustering(
        cluster_nodes, cluster_kernel, cluster_trials, seed, threads=threads)
    check("mc-clustering", cluster_estimate.mean, closed.value, 3.5,
          scale=max(cluster_estimate.std_error, 1e-12))

    chain_nodes = 128
    chain_trials = trials.get("chain", 6000)
    chain_estimates = montecarlo.estimate_chain_counts(
        chain_nodes, chain_window, 16, (1, 2), chain_trials, seed, threads=threads)
    for order, mc_estimate in zip((1, 2), chain_estimates):
        exact = quadrature.discrete_chain_count(chain_nodes, chain_window,
                                                order, 16).reduced
        check(f"mc-chain-k{order}", mc_estimate.mean, exact, 3.5,
              scale=max(mc_estimate.std_error, 1e-12))

    link_nodes = 256
    link_kernel = UniformWindow(0.3, 1.2)
    link_trials = trials.get("direct_link", 2500)
    inside, outside = montecarlo.estimate_separation_histograms(
        link_nodes, link_kernel, (20, 100), 0, link_trials, seed, threads=threads)
    inside_fraction = inside.probabilities()[0]
    inside_gap = 2.0 * math.pi * 20 / link_nodes
    inside_q = float(link_kernel.evaluate(np.asarray([inside_gap]))[0])
    spread = math.sqrt(inside_q * (1.0 - inside_q) / link_trials)
    check("mc-direct-link-inside", inside_fraction, inside_q, 3.5,
          scale=max(spread, 1e-12))
    check("mc-direct-link-outside", float(outside.counts[0]), 0.0, 0.0)

    torus_kernel = ProductKernel((UniformWindow(0.5, 0.9),
                                  UniformWindow(0.4, 1.1)))
    torus_model = TorusModel((6.0, 5.0), torus_kernel)
    torus_series = [fourier.uniform_window_series(f, 2048)
                    for f in torus_kernel.factors]
    factorized = fourier.chain_count_torus(torus_series, (6.0, 5.0), 2,
                                           (0.7, 0.4))
    grid_value = quadrature.chain_count_torus_grid(torus_model, 2, (0.7, 0.4))
    check("torus-chain-factorization", factorized, grid_value, 1e-3,
          scale=max(abs(grid_value), 1e-12))
    cluster_factorized = quadrature.clustering_result(torus_model).value
    cluster_grid = quadrature.clustering_torus_grid(torus_model)
    check("torus-clustering-factorization", cluster_factorized, cluster_grid,
          1e-3, scale=max(abs(cluster_grid), 1e-12))

    return checks


def cmd_mc_validate(config):
    checks = _battery_checks(config)
    rows = [{"status": "PASS" if passed else "FAIL", "check": name,
             "left": float(left), "right": float(right),
             "difference": float(gap), "allowed": float(allowed)}
            for name, left, right, gap, allowed, passed in checks]
    failures = sum(row["status"] == "FAIL" for row in rows)
    output = config["output"]
    if output["format"] == "json":
        text = _json_text(config, "mc-validate", rows)
    else:
        text = (_csv_text(config, "mc-validate", rows[0], rows)
                + f"# result: {'PASS' if failures == 0 else 'FAIL'} "
                  f"({len(rows) - failures}/{len(rows)} checks)\n")
    _emit(text, output.get("path"))
    return EXIT_OK if failures == 0 else EXIT_VALIDATION_FAILURE


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as a config error, as a bad config value is."""

    def error(self, message):
        raise ConfigError(message)


_FLAGS = {
    "--config": {"help": "path to a JSON configuration document"},
    "--out": {"help": "output path (sweep-phi uses it as a prefix)"},
    "--format": {"choices": ("csv", "json")},
    "--threads": {"type": int, "help": "worker threads for trials"},
    "--seed": {"type": int, "help": "master seed for sampling"},
    "--trials": {"type": int, "help": "Monte Carlo trials"},
    "--modes": {"help": "comma separated list of modes"},
    "--p": {"type": float, "help": "uniform window height"},
    "--phi": {"type": float, "help": "uniform window half-width"},
    "--radius": {"type": float, "help": "circle radius"},
}
# the flags each command reads beyond --config, --out, --format and
# --threads; every command takes --threads, a scheduling setting
COMMAND_FLAGS = {
    "clustering": ("--seed", "--trials", "--modes", "--p", "--phi", "--radius"),
    "separation": ("--seed", "--trials", "--modes", "--p", "--phi", "--radius"),
    "sweep-phi": ("--p",),
    "mc-validate": ("--seed",),
    "kernel-info": ("--p", "--phi", "--radius"),
}


def _build_parser():
    parser = _Parser(
        prog="ringnet",
        description="clustering and separation analytics for distance-kernel "
                    "random networks on circles and tori")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, flags in COMMAND_FLAGS.items():
        sub = subparsers.add_parser(name)
        for flag in ("--config", "--out", "--format", "--threads") + flags:
            sub.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # only --help exits: it has printed the help
            return exc.code
        config = _resolve_config(args)
        if args.command == "mc-validate":
            return cmd_mc_validate(config)
        if args.command == "kernel-info":
            return cmd_kernel_info(config)
        if args.command == "sweep-phi":
            ratio_rows, curve_rows = cmd_sweep_phi(config)
            _require_finite(ratio_rows + curve_rows)
            _emit_sweep(config, ratio_rows, curve_rows)
            return EXIT_OK
        command = cmd_clustering if args.command == "clustering" else cmd_separation
        records, columns, schema = command(config)
        _require_finite(records)
        output = config["output"]
        if output["format"] == "json":
            text = _json_text(config, schema, records)
        else:
            text = _csv_text(config, schema, columns, records)
        _emit(text, output.get("path"))
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (quadrature.QuadratureError, CostBudgetError,
            montecarlo.EstimateUndefinedError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
