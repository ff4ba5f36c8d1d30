"""Numerical integration and exact discrete summation oracles."""

import collections
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringnet import quadrature
from ringnet.kernels import mean_degree, wrap_angle
from ringnet.quadrature import IntegrationResult
from ringnet import (
    CircleModel,
    CosineSeries,
    CostBudgetError,
    ProductKernel,
    QuadratureError,
    TorusModel,
    UniformWindow,
    chain_count_leading,
    chain_count_result,
    chain_count_torus_grid,
    clustering_result,
    clustering_torus_grid,
    discrete_chain_count,
    discrete_mean_degree,
    uniform_window_series,
)

from memory import traced_peak


def test_clustering_quad_constant_kernel():
    model = CircleModel(5.0, CosineSeries((0.2,)))
    assert clustering_result(model).value == pytest.approx(0.2, abs=1e-9)


def test_clustering_quad_scales_linearly():
    low = clustering_result(CircleModel(8.0, UniformWindow(0.1, 1.0))).value
    high = clustering_result(CircleModel(8.0, UniformWindow(0.2, 1.0))).value
    assert high == pytest.approx(2.0 * low, rel=1e-8)


def test_clustering_quad_anchor_invariance():
    model = CircleModel(12.0, UniformWindow(0.25, 0.7))
    base = clustering_result(model).value
    moved = clustering_result(model, anchor=1.234).value
    assert moved == pytest.approx(base, rel=1e-8)


def test_chain_quad_zero_kernel():
    model = CircleModel(5.0, CosineSeries((0.0,)))
    assert chain_count_result(model, 1, 0.5).value == 0.0
    assert chain_count_result(model, 2, 0.5).value == 0.0


def test_chain_quad_zero_window_is_exactly_zero():
    # no outer node carries a nonzero factor: the nested sum is empty
    model = CircleModel(20.0, UniformWindow(0.0, 0.5))
    for gap in (0.0, 0.7, math.pi):
        for with_exclusion in (False, True):
            result = chain_count_result(model, 2, gap, with_exclusion)
            assert (result.value, result.error_estimate) == (0.0, 0.0)


def test_window_below_breakpoint_resolution_is_refused():
    # at 1e-13 the two window edges merge into one panel edge and no node
    # falls inside: the integrals would read 0 where clustering is 0.75 p;
    # at 4.6e-12 merged inner edges gave 0.07555 with an achieved
    # difference of 2.0e-4
    for width in (1e-13, 1e-12, 4.6e-12, quadrature.MIN_FEATURE):
        model = CircleModel(20.0, UniformWindow(0.1, width))
        with pytest.raises(QuadratureError):
            clustering_result(model)
        for k in (1, 2):
            with pytest.raises(QuadratureError):
                chain_count_result(model, k, 0.0)
    for width in (1.5 * quadrature.MIN_FEATURE, 1e-6):
        model = CircleModel(20.0, UniformWindow(0.1, width))
        assert clustering_result(model).value == pytest.approx(0.075, rel=1e-12)
        # reduced two-intermediary count at gap 0: R^2 p^3 3 w^2
        expected = 20.0 ** 2 * 0.1 ** 3 * 3.0 * width ** 2
        assert chain_count_result(model, 2, 0.0).value == pytest.approx(expected,
                                                                        rel=1e-12)


def test_chain_quad_matches_series_leading():
    kernel = UniformWindow(0.1, 0.8)
    model = CircleModel(20.0, kernel)
    terms = 4096
    series = uniform_window_series(kernel, terms)
    degree = 2.0 * 20.0 * kernel.p * kernel.half_width
    for k in (1, 2):
        # truncated-series tail bound at the stored number of harmonics
        tail = ((kernel.p / math.pi) * (degree / kernel.half_width) ** k
                * 2.0 / (k * float(terms) ** k))
        for gap in (0.0, 0.6, 1.3):
            quad = chain_count_result(model, k, gap).value
            lead = chain_count_leading(series, 20.0, k, gap)
            assert abs(lead - quad) <= tail + 1e-8 * abs(quad)


def test_chain_quad_exclusion_reduces_value():
    kernel = UniformWindow(0.3, 0.9)
    model = CircleModel(15.0, kernel)
    for k in (1, 2):
        for gap in (0.0, 0.5, 1.2):
            reduced = chain_count_result(model, k, gap).value
            full = chain_count_result(model, k, gap, with_exclusion=True).value
            assert full <= reduced + 1e-12


def test_chain_quad_exclusion_vanishes_at_small_p():
    # relative gap between full and reduced shrinks linearly with p
    gaps = []
    for p in (1e-2, 1e-3):
        model = CircleModel(15.0, UniformWindow(p, 0.9))
        reduced = chain_count_result(model, 2, 0.5).value
        full = chain_count_result(model, 2, 0.5, with_exclusion=True).value
        gaps.append((reduced - full) / reduced)
    assert gaps[1] == pytest.approx(gaps[0] / 10.0, rel=0.05)


def test_discrete_chain_zero_kernel():
    counts = discrete_chain_count(16, UniformWindow(0.0, 1.0), 1, 4)
    assert counts.reduced == 0.0
    assert counts.with_exclusion == 0.0


def test_discrete_chain_four_nodes_constant():
    # complete constant kernel on 4 nodes, ends opposite: both free nodes
    # form a 1-chain, each discounted by one direct-link exclusion
    p = 0.37
    counts = discrete_chain_count(4, UniformWindow(p, math.pi), 1, 2)
    assert counts.reduced == pytest.approx(2.0 * p * p, abs=1e-15)
    assert counts.with_exclusion == pytest.approx(2.0 * p * p * (1.0 - p),
                                                  abs=1e-15)


def test_discrete_chain_three_intermediates_complete():
    # n equal nodes with q=1 everywhere: ordered choices of 3 distinct
    # intermediates among the n-2 others
    n = 9
    counts = discrete_chain_count(n, UniformWindow(1.0, math.pi), 3, 4)
    expected = (n - 2) * (n - 3) * (n - 4)
    assert counts.reduced == pytest.approx(expected, rel=1e-14)


class _UnevaluatedKernel:
    def evaluate(self, angles):
        raise AssertionError("the kernel was evaluated before the budget check")


@pytest.mark.parametrize("k", [2, 3])
def test_discrete_chain_matrix_budget_refuses_before_any_work(k):
    n = quadrature.MAX_MATRIX_NODES + 1
    with pytest.raises(CostBudgetError) as refused:
        discrete_chain_count(n, _UnevaluatedKernel(), k, 16)
    assert (refused.value.cost, refused.value.budget) == (4097, 4096)


def test_discrete_chain_one_intermediary_needs_no_matrix():
    kernel = UniformWindow(0.05, 0.5)
    n = 2 * quadrature.MAX_MATRIX_NODES
    radius = n / (2.0 * math.pi)
    offset = 320
    discrete = discrete_chain_count(n, kernel, 1, offset).reduced
    continuum = chain_count_leading(uniform_window_series(kernel, 4096), radius, 1,
                                    2.0 * math.pi * offset / n)
    assert abs(discrete - continuum) <= 4.0 / (kernel.half_width * radius) * continuum


def test_discrete_vs_continuum_gap():
    kernel = UniformWindow(0.05, 0.5)
    n = 1024
    radius = n / (2.0 * math.pi)
    offset = 64
    gap = 2.0 * math.pi * offset / n
    series = uniform_window_series(kernel, 4096)
    discrete = discrete_chain_count(n, kernel, 2, offset).reduced
    continuum = chain_count_leading(series, radius, 2, gap)
    # documented discretisation gap is O(1/(Phi*R)) relative
    scale = 4.0 / (kernel.half_width * radius)
    assert abs(discrete - continuum) <= scale * abs(continuum)


def test_discrete_mean_degree_brute_force():
    kernel = UniformWindow(0.5, 0.2)
    n = 256
    assert discrete_mean_degree(n, kernel) == pytest.approx(8.0, abs=1e-12)
    angles = 2.0 * math.pi * np.arange(1, n) / n
    brute = float(np.sum(kernel.evaluate(angles)))
    assert discrete_mean_degree(n, kernel) == pytest.approx(brute, rel=1e-14)


def test_torus_clustering_factorized_vs_grid():
    kernel = ProductKernel((UniformWindow(0.5, 0.9), UniformWindow(0.4, 1.1)))
    model = TorusModel((6.0, 5.0), kernel)
    factorized = clustering_result(model).value
    grid = clustering_torus_grid(model)
    assert factorized == pytest.approx(grid, rel=1e-6)


def test_torus_chain_factorized_vs_grid():
    kernel = ProductKernel((UniformWindow(0.5, 0.9), UniformWindow(0.4, 1.1)))
    model = TorusModel((6.0, 5.0), kernel)
    for k in (1, 2):
        factorized = chain_count_result(model, k, (0.7, 0.4)).value
        grid = chain_count_torus_grid(model, k, (0.7, 0.4))
        assert factorized == pytest.approx(grid, rel=1e-6)


def test_chain_quad_rejects_bad_order():
    model = CircleModel(5.0, UniformWindow(0.1, 0.5))
    with pytest.raises(ValueError):
        chain_count_result(model, 3, 0.5)


# ---------------------------------------------------------------------------
# the batched nested-quadrature core against a per-point reference
# ---------------------------------------------------------------------------
# The reference computes one inner integral per outer node, with a fresh
# Gauss-Legendre rule for every panel rule and breakpoints collected in a set.
# The batched core evaluates the same points with the same products and the
# same summation order, so the two must agree bit for bit.

_REF_ORDERS = (4, 8, 16, 32, 64, 128, 256, 512)
_ref_leggauss = functools.lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)
_REF_COUNTS = (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)


def _ref_derived(base, shifts):
    return sorted({float(wrap_angle(sign * point + shift))
                   for shift in shifts for point in [*base, 0.0]
                   for sign in (1.0, -1.0)})


def _ref_rule(kernel, shifts, level):
    return _ref_cached_rule(kernel, tuple(shifts), level)


# the outer nodes of a grid share their coordinate on each axis with many
# others, and so their inner rules; each distinct rule is built once.  The
# arrays are only read
@functools.lru_cache(maxsize=1024)
def _ref_cached_rule(kernel, shifts, level):
    base = list(kernel.breakpoints())
    breaks = []
    if base:
        wrapped = np.atleast_1d(wrap_angle(np.asarray(_ref_derived(base, shifts))))
        inside = np.sort(wrapped[(wrapped > -math.pi + 1e-13)
                                 & (wrapped < math.pi - 1e-13)])
        if inside.size:
            breaks = list(inside[np.concatenate([[True], np.diff(inside) > 1e-12])])
    if not breaks:
        count = _REF_COUNTS[min(level, len(_REF_COUNTS) - 1)]
        step = 2.0 * math.pi / count
        return -math.pi + step * (np.arange(count) + 0.5), np.full(count, step)
    base_x, base_w = _ref_leggauss(_REF_ORDERS[min(level, len(_REF_ORDERS) - 1)])
    edges = np.array([-math.pi, *breaks, math.pi])
    nodes, weights = [], []
    for left, right in zip(edges[:-1], edges[1:]):
        half = 0.5 * (right - left)
        nodes.append(0.5 * (left + right) + half * base_x)
        weights.append(half * base_w)
    return np.concatenate(nodes), np.concatenate(weights)


def _ref_grid(kernels, shifts, level):
    rules = [_ref_rule(kernel, s, level) for kernel, s in zip(kernels, shifts)]
    meshes = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    points = np.stack([m.ravel() for m in meshes], axis=-1)
    weights = np.ones(points.shape[0])
    for mesh in np.meshgrid(*[r[1] for r in rules], indexing="ij"):
        weights = weights * mesh.ravel()
    return points, weights


def _ref_converge(value_at, tol):
    previous = None
    for level in range(6):
        value = value_at(level)
        if previous is not None and abs(value - previous) <= tol:
            return value
        previous = value
    raise QuadratureError("reference did not converge")


def _ref_nested(kernels, outer_shifts, outer_factor, inner_shifts, integrand, tol):
    def value_at(level):
        points, weights = _ref_grid(kernels, outer_shifts, level)
        total = 0.0
        for point, weight, factor in zip(points, weights, outer_factor(points)):
            if factor == 0.0:
                continue
            nodes, inner_weights = _ref_grid(
                kernels, [[*s, x] for s, x in zip(inner_shifts, point)], level)
            inner = float(np.sum(inner_weights * integrand(point, nodes)))
            total += weight * factor * inner
        return total

    return _ref_converge(value_at, tol)


def _ref_chain_integral(kernels, evaluate, k, gaps, with_exclusion, tol):
    gaps = np.asarray(gaps, dtype=float)
    if k == 1:
        def value_at(level):
            points, weights = _ref_grid(kernels, [[0.0, g] for g in gaps], level)
            values = evaluate(points) * evaluate(gaps[None, :] - points)
            return float(np.sum(weights * values))
        return _ref_converge(value_at, tol)

    def outer_factor(points):
        factor = evaluate(points)
        return factor * (1.0 - evaluate(points - gaps[None, :])) if with_exclusion else factor

    def integrand(x, points):
        values = evaluate(points - x[None, :]) * evaluate(gaps[None, :] - points)
        return values * (1.0 - evaluate(points)) if with_exclusion else values

    outer = [_ref_derived(list(kernel.breakpoints()), [0.0, g])
             for kernel, g in zip(kernels, gaps)]
    return _ref_nested(kernels, outer, outer_factor, [[0.0, g] for g in gaps],
                       integrand, tol)


def _ref_triangle(kernels, evaluate, anchor, tol):
    anchor = np.asarray(anchor, dtype=float)
    outer = [[a] + [a + 2.0 * b for b in kernel.breakpoints()]
             for kernel, a in zip(kernels, anchor)]
    return _ref_nested(
        kernels, outer, lambda points: evaluate(points - anchor[None, :]),
        [[a] for a in anchor],
        lambda x, points: evaluate(points - x[None, :]) * evaluate(points - anchor[None, :]),
        tol)


def _circle_evaluate(kernel):
    return lambda points: kernel.evaluate(points[:, 0])


def ref_chain_circle(model, k, gap, with_exclusion=False, tol=1e-9):
    kernel = model.kernel
    value = model.radius ** k * _ref_chain_integral(
        [kernel], _circle_evaluate(kernel), k, [gap], with_exclusion, tol)
    if with_exclusion:
        value = value * (1.0 - kernel.evaluate(np.array([gap]))[0])
    return value


def ref_clustering_circle(model, anchor=0.0, tol=1e-9):
    kernel = model.kernel
    triangle = _ref_triangle([kernel], _circle_evaluate(kernel), [anchor], tol)
    return model.radius ** 2 * triangle / mean_degree(model) ** 2


def ref_chain_torus_grid(model, k, gaps, tol=1e-6):
    # the unfactorised route evaluates the product kernel as a whole
    integral = _ref_chain_integral(model.kernel.factors, model.kernel.evaluate,
                                   k, gaps, False, tol)
    return float(np.prod(model.radii)) ** k * integral


def ref_clustering_torus_grid(model, tol=1e-6):
    integral = _ref_triangle(model.kernel.factors, model.kernel.evaluate,
                             np.zeros(model.dimension), tol)
    return float(np.prod(model.radii)) ** 2 * integral / mean_degree(model) ** 2


CIRCLE_KERNELS = {
    "narrow": UniformWindow(0.1, 0.5),
    "wide": UniformWindow(0.3, 2.2),
    "cosine": CosineSeries((0.2, 0.08, 0.03)),
}
TORUS_KERNELS = {
    "windows": ProductKernel((UniformWindow(0.5, 0.9), UniformWindow(0.4, 1.1))),
    "mixed": ProductKernel((UniformWindow(0.5, 0.9), CosineSeries((0.3, 0.1)))),
}


@pytest.mark.parametrize("name", sorted(CIRCLE_KERNELS))
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("with_exclusion", [False, True])
def test_chain_quad_bit_identical_to_per_point_reference(name, k, with_exclusion):
    model = CircleModel(20.0, CIRCLE_KERNELS[name])
    for gap in (0.0, 0.7, 2.9):
        expected = ref_chain_circle(model, k, gap, with_exclusion)
        assert chain_count_result(model, k, gap, with_exclusion).value == expected


@pytest.mark.parametrize("name", sorted(CIRCLE_KERNELS))
def test_triangle_bit_identical_to_per_point_reference(name):
    model = CircleModel(12.0, CIRCLE_KERNELS[name])
    for anchor in (0.0, 1.234, -2.9):
        expected = ref_clustering_circle(model, anchor)
        assert clustering_result(model, anchor=anchor).value == expected


@pytest.mark.parametrize("name", sorted(TORUS_KERNELS))
def test_torus_grids_bit_identical_to_per_point_reference(name):
    model = TorusModel((6.0, 5.0), TORUS_KERNELS[name])
    for k in (1, 2):
        expected = ref_chain_torus_grid(model, k, (0.7, 0.4))
        assert chain_count_torus_grid(model, k, (0.7, 0.4)) == expected
    assert clustering_torus_grid(model) == ref_clustering_torus_grid(model)


@pytest.mark.parametrize("name", sorted(CIRCLE_KERNELS))
@pytest.mark.parametrize("space", ["circle", "torus"])
def test_grids_on_one_axis_equal_the_factorised_route(name, space):
    # a circle, or a torus of one radius, is the grids' one-axis case
    kernel = CIRCLE_KERNELS[name]
    model = (CircleModel(12.0, kernel) if space == "circle"
             else TorusModel((12.0,), ProductKernel((kernel,))))
    for k in (1, 2):
        for gap in (0.0, 0.7, 2.0):
            assert chain_count_torus_grid(model, k, (gap,)) == \
                chain_count_result(model, k, gap, tol=1e-6).value
    assert clustering_torus_grid(model) == clustering_result(model, tol=1e-6).value


@settings(max_examples=30, deadline=None)
@given(p=st.floats(0.01, 1.0), half_width=st.floats(0.05, math.pi),
       gap=st.floats(0.0, math.pi), anchor=st.floats(-math.pi, math.pi),
       k=st.sampled_from([1, 2]), with_exclusion=st.booleans())
def test_batched_core_matches_reference_property(p, half_width, gap, anchor, k,
                                                 with_exclusion):
    model = CircleModel(10.0, UniformWindow(p, half_width))
    expected = ref_chain_circle(model, k, gap, with_exclusion, tol=1e-7)
    assert chain_count_result(model, k, gap, with_exclusion, tol=1e-7).value == expected
    expected = ref_clustering_circle(model, anchor, tol=1e-7)
    assert clustering_result(model, tol=1e-7, anchor=anchor).value == expected


def test_gauss_rules_computed_once_per_order(monkeypatch):
    calls = collections.Counter()
    leggauss = np.polynomial.legendre.leggauss

    def counted(order):
        calls[order] += 1
        return leggauss(order)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    quadrature._gauss_rule.cache_clear()
    try:
        circle = CircleModel(20.0, UniformWindow(0.1, 0.5))
        for gap in (0.3, 0.9):
            chain_count_result(circle, 2, gap, with_exclusion=True)
        clustering_result(circle, anchor=0.4)
        torus = TorusModel((6.0, 5.0), TORUS_KERNELS["windows"])
        chain_count_torus_grid(torus, 2, (0.7, 0.4))
        clustering_torus_grid(torus)
    finally:
        quadrature._gauss_rule.cache_clear()
    assert calls
    assert max(calls.values()) == 1


def test_inner_batches_respect_the_cap(monkeypatch):
    circle = CircleModel(20.0, UniformWindow(0.1, 0.5))
    torus = TorusModel((6.0, 5.0), TORUS_KERNELS["windows"])
    expected = (chain_count_result(circle, 2, 0.7, with_exclusion=True).value,
                clustering_result(circle, anchor=1.0).value,
                chain_count_torus_grid(torus, 2, (0.7, 0.4)))
    cap = 500
    batches, blocks = [], []
    multiply_out, panel_rule = quadrature._multiply_out, quadrature._panel_rule

    def recorded_batch(tables, slots, out):  # each product of a batch of grid rows
        batches.append(out.shape)
        return multiply_out(tables, slots, out)

    def recorded_block(breaks, level):  # each block of one axis's rules
        nodes, weights = panel_rule(breaks, level)
        blocks.append(nodes.shape)
        return nodes, weights

    monkeypatch.setattr(quadrature, "MAX_BATCH_POINTS", cap)
    monkeypatch.setattr(quadrature, "_multiply_out", recorded_batch)
    monkeypatch.setattr(quadrature, "_panel_rule", recorded_block)
    got = (chain_count_result(circle, 2, 0.7, with_exclusion=True).value,
           clustering_result(circle, anchor=1.0).value,
           chain_count_torus_grid(torus, 2, (0.7, 0.4)))
    assert got == expected
    for shapes in (batches, blocks):
        assert any(rows > 1 for rows, _ in shapes)
        assert all(rows * size <= cap or rows == 1 for rows, size in shapes)
    # a torus grid row of 6,400 points makes a batch of its own
    assert any(rows == 1 and size > cap for rows, size in batches)


@pytest.mark.parametrize("name", sorted(TORUS_KERNELS))
def test_torus_grid_builds_axis_rules_once_per_coordinate(monkeypatch, name):
    # an inner row's rule and factors on an axis depend only on its outer
    # node's coordinate there, of which level 1 has 32 per axis for 1,024
    # rows; built per row, the windows pair made 992 kernel calls over
    # 433,608 points and 500 panel rules, the mixed one 1,948 over 940,452
    # and 978
    model = TorusModel((6.0, 5.0), TORUS_KERNELS[name])
    expected = (ref_chain_torus_grid(model, 2, (0.7, 0.4)), ref_clustering_torus_grid(model))
    points, rules = [], []
    for cls in {type(factor) for factor in model.kernel.factors}:
        def counted(kernel, angle, evaluate=cls.evaluate):
            points.append(np.size(angle))
            return evaluate(kernel, angle)

        monkeypatch.setattr(cls, "evaluate", counted)
    panel_rule = quadrature._panel_rule

    def counted_rule(breaks, level):
        rules.append(level)
        return panel_rule(breaks, level)

    monkeypatch.setattr(quadrature, "_panel_rule", counted_rule)
    got = (chain_count_torus_grid(model, 2, (0.7, 0.4)), clustering_torus_grid(model))
    assert got == expected
    assert len(points) <= 40
    assert sum(points) <= 40_000
    assert len(rules) <= 24


def test_torus_grid_pair_peak_memory():
    # per-axis rule blocks and two reused grid buffers: the windows pair
    # peaked at 2.49 MiB traced when every batch built its own rules
    model = TorusModel((6.0, 5.0), TORUS_KERNELS["windows"])
    peak = traced_peak(lambda: (chain_count_torus_grid(model, 2, (0.7, 0.4)),
                                clustering_torus_grid(model)))
    assert peak <= 2 * 2 ** 20


def test_torus_grid_pair_multiplies_out_only_the_support(monkeypatch):
    # each window is nonzero on under a third of its axis: multiplying out
    # whole grids formed 23,478,176 points for the pair
    model = TorusModel((6.0, 5.0), TORUS_KERNELS["windows"])
    expected = (ref_chain_torus_grid(model, 2, (0.7, 0.4)), ref_clustering_torus_grid(model))
    formed = []
    multiply_out = quadrature._multiply_out

    def counted(tables, slots, out):
        formed.append(out.size)
        return multiply_out(tables, slots, out)

    monkeypatch.setattr(quadrature, "_multiply_out", counted)
    assert (chain_count_torus_grid(model, 2, (0.7, 0.4)), clustering_torus_grid(model)) == expected
    assert sum(formed) <= 5_000_000


def test_support_spans_of_factor_tables():
    tables = [np.array([[0.0, 1.0, 2.0, 0.0, 3.0, 0.0],
                        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]]),
              np.array([[5.0, 5.0, 5.0, 5.0, 5.0, 0.0],
                        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                        [0.5, 0.5, 0.5, 0.5, 0.5, 0.5]])]
    assert quadrature._support(tables).tolist() == [[1, 5], [0, 0], [0, 6]]


def test_torus_grid_beyond_reach_is_exactly_zero():
    # no chain reaches the gap: every batch's support is empty
    model = TorusModel((6.0, 5.0), ProductKernel((UniformWindow(0.5, 0.3),
                                                  UniformWindow(0.4, 0.3))))
    for k in (1, 2):
        value = chain_count_torus_grid(model, k, (2.5, 2.5), tol=1e-4)
        assert value == ref_chain_torus_grid(model, k, (2.5, 2.5), tol=1e-4)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_torus_grid_of_factors_without_zeros():
    # a cosine factor is nonzero everywhere: the support is the whole grid
    # (nested grids with one such axis: the "mixed" kernel above)
    model = TorusModel((6.0, 5.0), ProductKernel((CosineSeries((0.3, 0.1)),
                                                  CosineSeries((0.25, 0.05)))))
    assert chain_count_torus_grid(model, 1, (0.7, 0.4)) == \
        ref_chain_torus_grid(model, 1, (0.7, 0.4))


@settings(max_examples=10, deadline=None)
@given(windows=st.lists(st.builds(UniformWindow, p=st.floats(0.05, 1.0),
                                  half_width=st.floats(0.1, 3.0)), min_size=2, max_size=2),
       gaps=st.tuples(st.floats(0.0, math.pi), st.floats(0.0, math.pi)),
       k=st.sampled_from([1, 2]))
def test_torus_grids_bit_identical_to_reference_property(windows, gaps, k):
    model = TorusModel((6.0, 5.0), ProductKernel(tuple(windows)))
    expected = ref_chain_torus_grid(model, k, gaps, tol=1e-4)
    assert chain_count_torus_grid(model, k, gaps, tol=1e-4) == expected
    expected = ref_clustering_torus_grid(model, tol=1e-4)
    assert clustering_torus_grid(model, tol=1e-4) == expected


@pytest.mark.parametrize("integral, budget, value", [
    (lambda model: chain_count_torus_grid(model, 2, (0.7, 0.4)), 1_000_000,
     48.468960000000095),
    (clustering_torus_grid, 200_000, 0.1124999999999999),
], ids=["chain", "clustering"])
def test_torus_grid_evaluates_kernels_per_axis(monkeypatch, integral, budget, value):
    # on a tensor grid each axis argument takes n_a values per row of outer
    # nodes; evaluating the kernels at all N grid points instead would cost
    # 27,872,160 kernel points for the chain and 3,422,208 for clustering
    points = []
    evaluate = UniformWindow.evaluate

    def counted(kernel, angle):
        points.append(np.size(angle))
        return evaluate(kernel, angle)

    monkeypatch.setattr(UniformWindow, "evaluate", counted)
    assert integral(TorusModel((6.0, 5.0), TORUS_KERNELS["windows"])) == value
    assert sum(points) <= budget


def test_error_estimate_is_scaled_achieved_difference():
    # a smooth kernel with enough harmonics that the coarse levels differ
    kernel = CosineSeries(tuple(0.1 * 0.8 ** n for n in range(41)))
    for k in (1, 2):
        near = chain_count_result(CircleModel(10.0, kernel), k, 0.7, tol=1e-3)
        far = chain_count_result(CircleModel(20.0, kernel), k, 0.7, tol=1e-3)
        assert near.error_estimate > 0.0
        assert far.value == pytest.approx(2.0 ** k * near.value, rel=1e-14)
        assert far.error_estimate == pytest.approx(2.0 ** k * near.error_estimate,
                                                   rel=1e-14)
        assert near.evaluations > 0


def test_product_error_propagates_factor_errors():
    first = IntegrationResult(2.0, 0.1, 1)
    second = IntegrationResult(3.0, 0.2, 1)
    error = quadrature._product_error([(5.0, first), (-1.0, second)])
    # |(10 +- 0.5)(-3 +- 0.2)| deviates from 30 by at most 10.5*3.2 - 30
    assert error == pytest.approx(10.5 * 3.2 - 30.0, rel=1e-14)


# ---------------------------------------------------------------------------
# curves: every gap of a grid through the core at once
# ---------------------------------------------------------------------------

SMOOTH = CosineSeries(tuple(0.1 * 0.8 ** n for n in range(41)))


@st.composite
def gap_grids(draw):
    """1-40 gaps in any order, repeats included, drawn from a few values."""
    values = draw(st.lists(st.floats(0.0, math.pi), min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(values), min_size=1, max_size=40))


@settings(max_examples=15, deadline=None)
@given(kernel=st.one_of(st.builds(UniformWindow, p=st.floats(0.01, 1.0),
                                  half_width=st.floats(0.05, math.pi)),
                        st.just(SMOOTH)),
       gaps=gap_grids(), k=st.sampled_from([1, 2]), with_exclusion=st.booleans())
def test_curve_bit_identical_to_one_gap_calls_property(kernel, gaps, k, with_exclusion):
    model = CircleModel(10.0, kernel)
    curve = quadrature.chain_count_curve(model, k, gaps, with_exclusion, tol=1e-7)
    assert len(curve) == len(gaps)
    single, reference = {}, {}
    for gap, result in zip(gaps, curve):
        if gap not in single:
            single[gap] = chain_count_result(model, k, gap, with_exclusion, tol=1e-7)
            reference[gap] = ref_chain_circle(model, k, gap, with_exclusion, tol=1e-7)
        assert result == single[gap]  # value, error_estimate and evaluations
        assert result.value == reference[gap]


def test_curve_raises_the_first_failing_gap_in_grid_order():
    # at tol 0 a level must repeat the previous value bit for bit: of these
    # gaps only 0.982 and 1.767 never do, and each fails with its own numbers
    model = CircleModel(20.0, SMOOTH)
    grid = [math.pi / 4.0, 5.0 * math.pi / 16.0, 3.0 * math.pi / 8.0, 9.0 * math.pi / 16.0]
    alone = {}
    for gap in grid:
        try:
            chain_count_result(model, 1, gap, tol=0.0)
        except QuadratureError as error:
            alone[gap] = (error.achieved, error.evaluations)
    assert sorted(alone) == [grid[1], grid[3]]
    assert alone[grid[1]] != alone[grid[3]]
    for gaps in (grid[:3], grid):
        with pytest.raises(QuadratureError) as info:
            quadrature.chain_count_curve(model, 1, gaps, tol=0.0)
        assert (info.value.achieved, info.value.evaluations) == alone[grid[1]]


def test_curve_derives_breakpoints_once_per_level(monkeypatch):
    # the gaps of a curve share each level's rule construction: 97 gaps call
    # _inner_breaks as often as the one gap that needs the most levels
    model = CircleModel(20.0, UniformWindow(0.1, 0.5))
    grid = np.linspace(0.0, math.pi, 97)
    calls = []
    inner_breaks = quadrature._inner_breaks

    def counted(candidates):
        calls.append(len(candidates))
        return inner_breaks(candidates)

    monkeypatch.setattr(quadrature, "_inner_breaks", counted)

    def call_count(gaps, k):
        calls.clear()
        quadrature.chain_count_curve(model, k, gaps, with_exclusion=True)
        return len(calls)

    for k in (1, 2):
        alone = [call_count([gap], k) for gap in grid]
        slowest = grid[int(np.argmax(alone))]
        assert call_count(grid, k) == call_count([grid[0], slowest], k) == max(alone)


def test_curve_stacks_inner_rows_up_to_the_cap(monkeypatch):
    # how many gaps share one pass of inner rule construction, and one block
    # of rules and kernel calls, moves no bit; the cosine kernel's 32 or more
    # live outer nodes per gap need a larger cap to stack several gaps
    inner_sums = quadrature._inner_sums
    stacks, blocks = [], []

    def recording(axes, points, inner_shifts, factors, level, stack, *totals):
        gaps = points[[point for point, _, _ in stack], 0]
        stacks.append((sum(terms.size for _, terms, _ in stack), len(set(gaps.tolist()))))

        def recorded(kernel, gap, x, y):  # once per block of inner rules
            blocks.append(len(set(gap.ravel().tolist())))
            return factors[0](kernel, gap, x, y)

        inner_sums(axes, points, inner_shifts, [recorded, *factors[1:]], level, stack,
                   *totals)

    grid = np.linspace(0.0, math.pi, 13)
    for kernel, cap in ((UniformWindow(0.1, 0.5), 40), (SMOOTH, 100)):
        model = CircleModel(20.0, kernel)
        expected = [chain_count_result(model, 2, gap, with_exclusion=True) for gap in grid]
        stacks.clear()
        blocks.clear()
        monkeypatch.setattr(quadrature, "MAX_STACKED_ROWS", cap)
        monkeypatch.setattr(quadrature, "_inner_sums", recording)
        assert quadrature.chain_count_curve(model, 2, grid, with_exclusion=True) == expected
        monkeypatch.undo()
        assert any(gaps > 1 for _, gaps in stacks)
        assert all(rows <= cap or gaps == 1 for rows, gaps in stacks)
        assert any(gaps > 1 for gaps in blocks)  # one block serves several gaps


def test_curve_evaluates_many_gaps_per_kernel_call(monkeypatch):
    # kernel evaluation is elementwise, so rows of all 97 gaps share blocks:
    # 388 calls for k = 1 and 582 for k = 2 when each gap had its own
    model = CircleModel(20.0, UniformWindow(0.1, 0.5))
    grid = np.linspace(0.0, math.pi, 97)
    calls = []
    evaluate = UniformWindow.evaluate

    def counted(kernel, angle):
        calls.append(np.size(angle))
        return evaluate(kernel, angle)

    monkeypatch.setattr(UniformWindow, "evaluate", counted)
    for k in (1, 2):
        quadrature.chain_count_curve(model, k, grid)
    assert len(calls) < 120


def test_curve_memory_does_not_grow_with_gaps():
    # the outer rules of a curve's gaps are built a block of gaps at a time,
    # so 4,000 gaps peak no higher than 1,000 do
    model = CircleModel(20.0, UniformWindow(0.1, 0.5))
    for count in (1_000, 4_000):
        peak = traced_peak(lambda: quadrature.chain_count_curve(
            model, 2, np.linspace(0.0, math.pi, count), tol=1e-4))
        assert peak <= 8 * 2 ** 20


def test_outer_rule_blocks_move_no_bit(monkeypatch):
    model = CircleModel(20.0, UniformWindow(0.1, 0.5))
    grid = np.linspace(0.0, math.pi, 37)
    for k in (1, 2):
        expected = quadrature.chain_count_curve(model, k, grid, with_exclusion=True)
        monkeypatch.setattr(quadrature, "MAX_OUTER_POINTS", 5)
        assert quadrature.chain_count_curve(model, k, grid, with_exclusion=True) == expected
        monkeypatch.undo()
