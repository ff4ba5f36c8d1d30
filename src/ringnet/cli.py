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

Exit codes: 0 success, 1 validation-battery failure, 2 configuration
error, 3 numerical failure.

Angular gaps are plain angles in radians; multiply by the circle radius
for arc length.  Chain-count values are expected counts and may exceed 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import warnings

import numpy as np

from . import __version__, fourier, montecarlo, quadrature
from .kernels import (
    CircleModel,
    CosineSeries,
    KernelValidationError,
    ProductKernel,
    TorusModel,
    UniformWindow,
    ZeroMeanDegreeWarning,
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


def _default_model_config(args):
    kernel = {"type": "uniform",
              "p": args.p if args.p is not None else 0.1,
              "half_width": args.phi if args.phi is not None else 0.5}
    space = {"type": "circle"}
    if args.radius is not None:
        space["radius"] = args.radius
    return {"space": space, "kernel": kernel}


def _resolve_config(args):
    """Merge the config file with flag overrides and fill defaults."""
    config = _load_config_file(args.config) if args.config else {}
    config = json.loads(json.dumps(config))  # deep copy, JSON types only
    if "space" not in config or "kernel" not in config:
        defaults = _default_model_config(args)
        config.setdefault("space", defaults["space"])
        config.setdefault("kernel", defaults["kernel"])
    else:
        if args.p is not None or args.phi is not None or args.radius is not None:
            raise ConfigError("model flags cannot override a config file that "
                              "already defines the model")
    mc_section = config.setdefault("mc", {})
    if args.trials is not None:
        mc_section["trials"] = args.trials
    if args.seed is not None:
        mc_section["seed"] = args.seed
    if args.threads is not None:
        mc_section["threads"] = args.threads
    mc_section.setdefault("trials", 100)
    mc_section.setdefault("seed", 20260822)
    mc_section.setdefault("threads", 1)
    output = config.setdefault("output", {})
    if args.format is not None:
        output["format"] = args.format
    if args.out is not None:
        output["path"] = args.out
    output.setdefault("format", "csv")
    computation = config.setdefault("computation", {})
    if args.modes is not None:
        computation["modes"] = [m.strip() for m in args.modes.split(",") if m.strip()]
    # the node count and the radius are tied by unit spacing: n = round(2 pi R)
    space = config["space"]
    if space.get("type") == "circle":
        if "radius" not in space:
            nodes = mc_section.get("nodes")
            space["radius"] = (nodes / (2.0 * math.pi)) if nodes else 20.0
        mc_section.setdefault("nodes", round(2.0 * math.pi * space["radius"]))
    elif space.get("type") == "torus":
        radii = space.get("radii")
        if radii:
            mc_section.setdefault(
                "nodes", [round(2.0 * math.pi * r) for r in radii])
    return config


def _build_model(config):
    try:
        return model_from_config(config)
    except (KeyError, TypeError, ValueError, KernelValidationError) as exc:
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


def _analytic_settings(config, default_modes, default_tolerance):
    """Modes, series terms, correction order and quadrature tolerance."""
    computation = config["computation"]
    modes = computation.get("modes", default_modes)
    if not isinstance(modes, list) or not all(isinstance(m, str) for m in modes):
        raise ConfigError("computation.modes must be a list of mode names")
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
    return orders


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _csv_text(config, schema_name, columns, rows):
    lines = [f"# tool: ringnet {__version__}",
             f"# schema: {schema_name} v{SCHEMA_VERSION}",
             f"# config-digest: sha256:{_config_digest(config)}",
             ",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(value) for value in row))
    return "\n".join(lines) + "\n"


def _cell(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_text(config, schema_name, records):
    document = {
        "tool": f"ringnet {__version__}",
        "schema": f"{schema_name} v{SCHEMA_VERSION}",
        "config_digest": f"sha256:{_config_digest(config)}",
        "records": records,
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _emit(text, path):
    if path:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# shared analytic helpers
# ---------------------------------------------------------------------------

def _series_for_kernel(kernel, terms):
    if isinstance(kernel, UniformWindow):
        return fourier.uniform_window_series(kernel, terms)
    if isinstance(kernel, CosineSeries):
        return fourier.FourierSeries(kernel.coeffs)
    raise ConfigError("series modes need a uniform or cosine kernel per axis")


def _ring_nodes(config):
    nodes = config["mc"].get("nodes")
    if not isinstance(nodes, int) or nodes < 3:
        raise ConfigError("mc.nodes must be an integer of at least 3 for ring sampling")
    return nodes


def _clustering_record(mode, value, error, trials=None):
    return {"mode": mode, "value": float(value), "error_estimate": float(error),
            "trials": trials}


def _uniform_only(model, mode):
    if not (isinstance(model, CircleModel) and isinstance(model.kernel, UniformWindow)):
        raise ConfigError(f"mode {mode!r} needs a circle model with a uniform window kernel")
    return model.kernel


# ---------------------------------------------------------------------------
# clustering command
# ---------------------------------------------------------------------------

def cmd_clustering(config):
    model = _build_model(config)
    modes, terms, correction_order, tolerance = _analytic_settings(
        config, ["closed", "leading", "quadrature"], None)
    tail_terms = _positive_int(config, "computation", "tail_terms", 1_000_000)
    with warnings.catch_warnings():
        # the zero case becomes a hard config error right here
        warnings.simplefilter("ignore", ZeroMeanDegreeWarning)
        degree = mean_degree(model)
    if degree == 0.0:
        raise ConfigError("mean degree is zero; clustering is undefined")
    records = []
    for mode in modes:
        if mode not in CLUSTERING_MODES:
            raise ConfigError(f"unknown clustering mode {mode!r}; "
                              f"expected one of {CLUSTERING_MODES}")
        if mode == "closed":
            window = _uniform_only(model, mode)
            estimate = fourier.clustering_uniform(window.p, window.half_width,
                                                  tail_terms=tail_terms)
            records.append(_clustering_record(mode, estimate.value,
                                              estimate.error_bound))
        elif mode in ("leading", "full"):
            if mode == "full" and not isinstance(model, CircleModel):
                raise ConfigError("full mode does not factorise over torus axes")
            value = 1.0
            bound = 0.0
            for radius, kernel in model_axes(model):
                series = _series_for_kernel(kernel, terms)
                axis_degree = mean_degree(CircleModel(radius, kernel))
                value *= fourier.clustering_from_series(
                    series, radius, axis_degree, mode=mode,
                    correction_order=correction_order)
                if isinstance(kernel, UniformWindow):
                    # tail of the dropped kernel harmonics
                    bound += kernel.p / (np.pi * kernel.half_width ** 2) / terms ** 2
            records.append(_clustering_record(mode, value, bound))
        elif mode == "quadrature":
            result = quadrature.clustering_result(model, tol=tolerance)
            records.append(_clustering_record(mode, result.value,
                                              result.error_estimate))
        else:
            if isinstance(model, CircleModel):
                shape = _ring_nodes(config)
            else:
                nodes = config["mc"].get("nodes")
                if (not isinstance(nodes, list)
                        or len(nodes) != model.dimension
                        or any(not isinstance(v, int) or v < 3 for v in nodes)):
                    raise ConfigError("mc.nodes must list one integer of at "
                                      "least 3 per torus axis")
                shape = tuple(nodes)
            estimate = montecarlo.estimate_clustering(
                shape, model.kernel, _positive_int(config, "mc", "trials"),
                _master_seed(config), threads=_threads(config))
            records.append(_clustering_record(mode, estimate.mean,
                                              estimate.std_error,
                                              estimate.trials))
    columns = ("mode", "value", "error_estimate", "trials")
    rows = [(r["mode"], r["value"], r["error_estimate"],
             "" if r["trials"] is None else r["trials"]) for r in records]
    return records, columns, rows, "clustering"


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


def _model_label(model):
    doc = model_to_config(model)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _analytic_curve(model, series, order, grid, mode, terms, correction_order,
                    tolerance):
    kernel = model.kernel
    values = []
    errors = []
    for gap in grid:
        direct = float(np.atleast_1d(kernel.evaluate(np.asarray([gap])))[0])
        if order == 0:
            # zero intermediaries is the direct link itself
            values.append(direct)
            errors.append(0.0)
        elif mode == "leading":
            values.append(fourier.chain_count_leading(series, model.radius,
                                                      order, gap))
            errors.append(_uniform_tail_bound(kernel, model.radius, order, terms))
        elif mode == "full":
            if order == 1:
                values.append(fourier.chain_count_one(series, model.radius,
                                                      gap, direct))
            elif order == 2:
                values.append(fourier.chain_count_two(
                    series, model.radius, gap, direct,
                    correction_order=correction_order))
            else:
                raise ConfigError("full mode covers chain orders 1 and 2")
            errors.append(_uniform_tail_bound(kernel, model.radius, order, terms))
        else:
            if order not in (1, 2):
                raise ConfigError("quadrature mode covers chain orders 1 and 2")
            result = quadrature.chain_count_result(model, order, gap, tol=tolerance)
            values.append(result.value)
            errors.append(result.error_estimate)
    return fourier.SeparationCurve(separation=order, gaps=tuple(grid),
                                   values=tuple(values), mode=mode,
                                   model_label=_model_label(model),
                                   errors=tuple(errors))


def cmd_separation(config):
    model = _build_model(config)
    if not isinstance(model, CircleModel):
        raise ConfigError("separation curves are defined on circle models")
    computation = config["computation"]
    modes, terms, correction_order, tolerance = _analytic_settings(
        config, ["leading"], quadrature.DEFAULT_TOL)
    orders = _chain_orders(computation, [1, 2], least=0)
    grid = _gap_grid(config)
    curves = []
    trial_counts = {}
    for mode in modes:
        if mode not in SEPARATION_MODES:
            raise ConfigError(f"unknown separation mode {mode!r}; "
                              f"expected one of {SEPARATION_MODES}")
        if mode == "mc":
            mc_curves, mc_trials = _separation_mc(config, model, orders, grid)
            curves.extend(mc_curves)
            trial_counts.update({id(c): mc_trials for c in mc_curves})
            continue
        series = _series_for_kernel(model.kernel, terms)
        for order in orders:
            curves.append(_analytic_curve(model, series, order, grid, mode,
                                          terms, correction_order, tolerance))
    records = []
    for curve in curves:
        for gap, value, error in zip(curve.gaps, curve.values, curve.errors):
            records.append({"k": curve.separation, "gap": gap, "value": value,
                            "error_estimate": error, "mode": curve.mode,
                            "trials": trial_counts.get(id(curve))})
    columns = ("k", "b", "value", "error_estimate", "mode", "trials")
    rows = [(r["k"], r["gap"], r["value"], r["error_estimate"], r["mode"],
             "" if r["trials"] is None else r["trials"]) for r in records]
    return records, columns, rows, "separation"


def _uniform_tail_bound(kernel, radius, order, terms):
    if not isinstance(kernel, UniformWindow):
        return 0.0
    degree = 2.0 * radius * kernel.p * kernel.half_width
    prefactor = (kernel.p / np.pi) * (degree / kernel.half_width) ** order
    return prefactor * 2.0 / (order * float(terms) ** order)


def _separation_mc(config, model, orders, grid):
    nodes = _ring_nodes(config)
    trials = _positive_int(config, "mc", "trials")
    seed = _master_seed(config)
    threads = _threads(config)
    max_sep = max(orders, default=0)
    offsets = []
    for gap in grid:
        offset = round(gap * nodes / (2.0 * math.pi))
        # the grid endpoint 0 has no pair to measure; duplicates collapse
        if 0 < offset <= nodes // 2 and offset not in offsets:
            offsets.append(offset)
    if not offsets:
        raise ConfigError("no gap in the grid maps to a usable node offset")
    per_order = {order: ([], [], []) for order in orders}
    histograms = montecarlo.estimate_separation_histograms(
        nodes, model.kernel, offsets, max_sep, trials, seed, threads=threads)
    for offset, histogram in zip(offsets, histograms):
        attained = 2.0 * math.pi * offset / nodes
        probabilities = histogram.probabilities()
        for order in orders:
            fraction = probabilities[order]
            spread = math.sqrt(max(fraction * (1.0 - fraction), 0.0) / trials)
            gaps, values, errors = per_order[order]
            gaps.append(attained)
            values.append(fraction)
            errors.append(spread)
    label = _model_label(model)
    curves = [fourier.SeparationCurve(separation=order, gaps=tuple(gaps),
                                      values=tuple(values), mode="mc",
                                      model_label=label, errors=tuple(errors))
              for order, (gaps, values, errors) in per_order.items()]
    return curves, trials


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------

def cmd_sweep_phi(config):
    computation = config["computation"]
    height = computation.get("p", 0.1)
    if not _is_real(height) or not 0.0 <= height <= 1.0:
        raise ConfigError("computation.p must be a number in [0, 1]")
    orders = _chain_orders(computation, [1, 2, 4, 6, 10, 20], least=1)
    # sets the clustering column only: the antipodal counts are exact sums
    tail_terms = _positive_int(config, "computation", "tail_terms", 200_000)
    grid = computation.get("phi_grid")
    if grid is None:
        count = _positive_int(config, "computation", "phi_points", 64)
        grid = np.linspace(math.pi / count, math.pi, count).tolist()
    if not isinstance(grid, list) or not all(_is_real(v) for v in grid):
        raise ConfigError("computation.phi_grid must be a list of numbers")
    grid = [float(v) for v in grid]
    if not grid or not all(0.0 < v <= math.pi for v in grid):
        raise ConfigError("phi grid values must lie in (0, pi]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("phi grid must be strictly increasing")

    ratio_rows = []
    for width in grid:
        estimate = fourier.clustering_uniform(height, width, tail_terms=tail_terms)
        ratio_rows.append((width, estimate.value / height))

    curve_rows = []
    for width in grid:
        row = [width]
        for order in orders:
            result = fourier.antipodal_chain_count_uniform(
                height, width, 2.0 * height * width, order, tail_terms=tail_terms)
            # the normalization cancels the mean degree, so any consistent
            # positive value works as the degree argument here
            row.append(result.normalized.value)
        curve_rows.append(tuple(row))

    ratio_columns = ("phi", "clustering_over_p")
    curve_columns = ("phi", *[f"ptilde_k{order}" for order in orders])
    return ratio_rows, ratio_columns, curve_rows, curve_columns, orders


def _emit_sweep(config, parts):
    ratio_rows, ratio_columns, curve_rows, curve_columns, orders = parts
    output = config["output"]
    if output["format"] == "json":
        records = {
            "clustering_ratio": [dict(zip(ratio_columns, row)) for row in ratio_rows],
            "antipodal_curves": [dict(zip(curve_columns, row)) for row in curve_rows],
        }
        _emit(_json_text(config, "sweep-phi", records), output.get("path"))
        return
    ratio_text = _csv_text(config, "sweep-phi-clustering", ratio_columns, ratio_rows)
    curve_text = _csv_text(config, "sweep-phi-antipodal", curve_columns, curve_rows)
    path = output.get("path")
    if path:
        root = path[:-4] if path.endswith(".csv") else path
        _emit(ratio_text, root + "-clustering.csv")
        _emit(curve_text, root + "-antipodal.csv")
    else:
        sys.stdout.write(ratio_text)
        sys.stdout.write("\n")
        sys.stdout.write(curve_text)


# ---------------------------------------------------------------------------
# kernel-info command
# ---------------------------------------------------------------------------

def cmd_kernel_info(config):
    """Emit the kernel validation report; exit 2 when the kernel is invalid."""
    try:
        kernel = kernel_from_config(config["kernel"])
    except KernelValidationError as exc:
        raise ConfigError(f"bad kernel configuration: {exc}") from exc
    problems = validate(kernel)
    record = {
        "kernel": kernel_to_config(kernel),
        "valid": not problems,
        "violations": problems,
        "mean_degree": None,
        "nodes": config["mc"].get("nodes"),
    }
    if not problems:
        model = _build_model(config)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ZeroMeanDegreeWarning)
            record["mean_degree"] = float(mean_degree(model))
        record["model"] = model_to_config(model)
    output = config["output"]
    if output["format"] == "json":
        text = _json_text(config, "kernel-info", record)
    else:
        columns = ("field", "value")
        rows = [("valid", str(record["valid"]).lower()),
                ("violations", ";".join(problems) if problems else "none"),
                ("mean_degree",
                 "" if record["mean_degree"] is None else record["mean_degree"]),
                ("nodes", "" if record["nodes"] is None else record["nodes"])]
        text = _csv_text(config, "kernel-info", columns, rows)
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
    quad_value = quadrature.clustering_by_quadrature(model)
    check("clustering-closed-vs-quadrature", closed.value, quad_value,
          1e-6, scale=abs(closed.value))

    chain_window = UniformWindow(0.05, 0.5)
    chain_model = CircleModel(20.0, chain_window)
    chain_series = fourier.uniform_window_series(chain_window, 4096)
    for order, gap_value in ((1, 0.7), (2, 0.7)):
        lead = fourier.chain_count_leading(chain_series, 20.0, order, gap_value)
        quad = quadrature.chain_count_by_quadrature(chain_model, order, gap_value)
        check(f"chain-leading-vs-quadrature-k{order}", lead, quad,
              1e-6, scale=max(abs(quad), 1e-12))

    nodes = 2048
    ring_radius = nodes / (2.0 * math.pi)
    offset = 160
    gap_value = 2.0 * math.pi * offset / nodes
    discrete = quadrature.discrete_chain_count(nodes, chain_window, 1, offset)
    continuum = fourier.chain_count_leading(
        fourier.uniform_window_series(chain_window, 4096),
        ring_radius, 1, gap_value)
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
    for order in (1, 2):
        mc_estimate = montecarlo.estimate_chain_count(
            chain_nodes, chain_window, 16, order, chain_trials, seed,
            threads=threads)
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
    cluster_factorized = quadrature.clustering_by_quadrature(torus_model)
    cluster_grid = quadrature.clustering_torus_grid(torus_model)
    check("torus-clustering-factorization", cluster_factorized, cluster_grid,
          1e-3, scale=max(abs(cluster_grid), 1e-12))

    return checks


def cmd_mc_validate(config):
    checks = _battery_checks(config)
    lines = [f"# tool: ringnet {__version__}",
             f"# schema: mc-validate v{SCHEMA_VERSION}",
             f"# config-digest: sha256:{_config_digest(config)}",
             "status,check,left,right,difference,allowed"]
    failures = 0
    for name, left, right, gap, allowed, passed in checks:
        status = "PASS" if passed else "FAIL"
        if not passed:
            failures += 1
        lines.append(",".join([status, name, repr(float(left)),
                               repr(float(right)), repr(float(gap)),
                               repr(float(allowed))]))
    lines.append(f"# result: {'PASS' if failures == 0 else 'FAIL'} "
                 f"({len(checks) - failures}/{len(checks)} checks)")
    text = "\n".join(lines) + "\n"
    _emit(text, config["output"].get("path"))
    return EXIT_OK if failures == 0 else EXIT_VALIDATION_FAILURE


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ringnet",
        description="clustering and separation analytics for distance-kernel "
                    "random networks on circles and tori")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in ("clustering", "separation", "sweep-phi", "mc-validate",
                 "kernel-info"):
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", help="path to a JSON configuration document")
        sub.add_argument("--out", help="output path (sweep-phi uses it as a prefix)")
        sub.add_argument("--format", choices=("csv", "json"))
        sub.add_argument("--seed", type=int, help="master seed for sampling")
        sub.add_argument("--trials", type=int, help="Monte Carlo trials")
        sub.add_argument("--threads", type=int, help="worker threads for trials")
        sub.add_argument("--modes", help="comma separated list of modes")
        sub.add_argument("--p", type=float, help="uniform window height")
        sub.add_argument("--phi", type=float, help="uniform window half-width")
        sub.add_argument("--radius", type=float, help="circle radius")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        if args.command == "mc-validate":
            return cmd_mc_validate(config)
        if args.command == "kernel-info":
            return cmd_kernel_info(config)
        if args.command == "clustering":
            records, columns, rows, schema = cmd_clustering(config)
        elif args.command == "separation":
            records, columns, rows, schema = cmd_separation(config)
        else:
            _emit_sweep(config, cmd_sweep_phi(config))
            return EXIT_OK
        output = config["output"]
        if output["format"] == "json":
            text = _json_text(config, schema, records)
        else:
            text = _csv_text(config, schema, columns, rows)
        _emit(text, output.get("path"))
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (quadrature.QuadratureError, quadrature.BudgetError, montecarlo.CostBudgetError,
            montecarlo.EstimateUndefinedError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
