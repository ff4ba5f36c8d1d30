"""Numerical integration and exact discrete summation oracles."""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringnet import quadrature
from ringnet.kernels import mean_degree, wrap_angle
from ringnet.quadrature import IntegrationResult, chain_count_result
from ringnet import (
    CircleModel,
    CosineSeries,
    ProductKernel,
    QuadratureError,
    TorusModel,
    UniformWindow,
    chain_count_by_quadrature,
    chain_count_leading,
    chain_count_torus_grid,
    clustering_by_quadrature,
    clustering_torus_grid,
    discrete_chain_count,
    discrete_mean_degree,
    integrate_periodic,
    uniform_window_series,
)


def test_integrate_constant():
    result = integrate_periodic(lambda x: np.full_like(x, 0.7), tol=1e-12)
    assert result.value == pytest.approx(2.0 * math.pi * 0.7, abs=1e-12)
    assert result.error_estimate >= 0.0
    assert result.evaluations > 0


def test_integrate_uniform_window():
    kernel = UniformWindow(0.3, 0.8)
    result = integrate_periodic(kernel.evaluate, kernel.breakpoints(), tol=1e-12)
    assert result.value == pytest.approx(2.0 * 0.3 * 0.8, abs=1e-11)


def test_integrate_cosine_orthogonality():
    result = integrate_periodic(lambda x: np.cos(3.0 * x), tol=1e-12)
    assert result.value == pytest.approx(0.0, abs=1e-11)


def test_integrate_budget_failure():
    kernel = UniformWindow(0.5, 1.0)
    # an undeclared discontinuity converges too slowly for a tiny budget
    with pytest.raises(QuadratureError) as info:
        integrate_periodic(kernel.evaluate, (), tol=1e-12, max_evaluations=64)
    assert info.value.achieved > 1e-12
    assert info.value.evaluations <= 64


def test_clustering_quad_constant_kernel():
    model = CircleModel(5.0, CosineSeries((0.2,)))
    assert clustering_by_quadrature(model) == pytest.approx(0.2, abs=1e-9)


def test_clustering_quad_scales_linearly():
    low = clustering_by_quadrature(CircleModel(8.0, UniformWindow(0.1, 1.0)))
    high = clustering_by_quadrature(CircleModel(8.0, UniformWindow(0.2, 1.0)))
    assert high == pytest.approx(2.0 * low, rel=1e-8)


def test_clustering_quad_anchor_invariance():
    model = CircleModel(12.0, UniformWindow(0.25, 0.7))
    base = clustering_by_quadrature(model)
    moved = clustering_by_quadrature(model, anchor=1.234)
    assert moved == pytest.approx(base, rel=1e-8)


def test_chain_quad_zero_kernel():
    model = CircleModel(5.0, CosineSeries((0.0,)))
    assert chain_count_by_quadrature(model, 1, 0.5) == 0.0
    assert chain_count_by_quadrature(model, 2, 0.5) == 0.0


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
            quad = chain_count_by_quadrature(model, k, gap)
            lead = chain_count_leading(series, 20.0, k, gap)
            assert abs(lead - quad) <= tail + 1e-8 * abs(quad)


def test_chain_quad_exclusion_reduces_value():
    kernel = UniformWindow(0.3, 0.9)
    model = CircleModel(15.0, kernel)
    for k in (1, 2):
        for gap in (0.0, 0.5, 1.2):
            reduced = chain_count_by_quadrature(model, k, gap)
            full = chain_count_by_quadrature(model, k, gap, with_exclusion=True)
            assert full <= reduced + 1e-12


def test_chain_quad_exclusion_vanishes_at_small_p():
    # relative gap between full and reduced shrinks linearly with p
    gaps = []
    for p in (1e-2, 1e-3):
        model = CircleModel(15.0, UniformWindow(p, 0.9))
        reduced = chain_count_by_quadrature(model, 2, 0.5)
        full = chain_count_by_quadrature(model, 2, 0.5, with_exclusion=True)
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
    factorized = clustering_by_quadrature(model)
    grid = clustering_torus_grid(model)
    assert factorized == pytest.approx(grid, rel=1e-6)


def test_torus_chain_factorized_vs_grid():
    kernel = ProductKernel((UniformWindow(0.5, 0.9), UniformWindow(0.4, 1.1)))
    model = TorusModel((6.0, 5.0), kernel)
    for k in (1, 2):
        factorized = chain_count_by_quadrature(model, k, (0.7, 0.4))
        grid = chain_count_torus_grid(model, k, (0.7, 0.4))
        assert factorized == pytest.approx(grid, rel=1e-6)


def test_chain_quad_rejects_bad_order():
    model = CircleModel(5.0, UniformWindow(0.1, 0.5))
    with pytest.raises(ValueError):
        chain_count_by_quadrature(model, 3, 0.5)


# ---------------------------------------------------------------------------
# the batched nested-quadrature core against a per-point reference
# ---------------------------------------------------------------------------
# The reference computes one inner integral per outer node, with a fresh
# Gauss-Legendre rule for every panel rule and breakpoints collected in a set.
# The batched core evaluates the same points with the same products and the
# same summation order, so the two must agree bit for bit.

_REF_ORDERS = (4, 8, 16, 32, 64, 128, 256, 512)
_REF_COUNTS = (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)


def _ref_derived(base, shifts):
    return sorted({float(wrap_angle(sign * point + shift))
                   for shift in shifts for point in [*base, 0.0]
                   for sign in (1.0, -1.0)})


def _ref_rule(kernel, shifts, level):
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
    base_x, base_w = np.polynomial.legendre.leggauss(
        _REF_ORDERS[min(level, len(_REF_ORDERS) - 1)])
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
        assert chain_count_by_quadrature(model, k, gap, with_exclusion) == expected


@pytest.mark.parametrize("name", sorted(CIRCLE_KERNELS))
def test_triangle_bit_identical_to_per_point_reference(name):
    model = CircleModel(12.0, CIRCLE_KERNELS[name])
    for anchor in (0.0, 1.234, -2.9):
        expected = ref_clustering_circle(model, anchor)
        assert clustering_by_quadrature(model, anchor=anchor) == expected


@pytest.mark.parametrize("name", sorted(TORUS_KERNELS))
def test_torus_grids_bit_identical_to_per_point_reference(name):
    model = TorusModel((6.0, 5.0), TORUS_KERNELS[name])
    for k in (1, 2):
        expected = ref_chain_torus_grid(model, k, (0.7, 0.4))
        assert chain_count_torus_grid(model, k, (0.7, 0.4)) == expected
    assert clustering_torus_grid(model) == ref_clustering_torus_grid(model)


@settings(max_examples=30, deadline=None)
@given(p=st.floats(0.01, 1.0), half_width=st.floats(0.05, math.pi),
       gap=st.floats(0.0, math.pi), anchor=st.floats(-math.pi, math.pi),
       k=st.sampled_from([1, 2]), with_exclusion=st.booleans())
def test_batched_core_matches_reference_property(p, half_width, gap, anchor, k,
                                                 with_exclusion):
    model = CircleModel(10.0, UniformWindow(p, half_width))
    expected = ref_chain_circle(model, k, gap, with_exclusion, tol=1e-7)
    assert chain_count_by_quadrature(model, k, gap, with_exclusion, tol=1e-7) == expected
    expected = ref_clustering_circle(model, anchor, tol=1e-7)
    assert clustering_by_quadrature(model, tol=1e-7, anchor=anchor) == expected


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
            chain_count_by_quadrature(circle, 2, gap, with_exclusion=True)
        clustering_by_quadrature(circle, anchor=0.4)
        torus = TorusModel((6.0, 5.0), TORUS_KERNELS["windows"])
        chain_count_torus_grid(torus, 2, (0.7, 0.4))
        clustering_torus_grid(torus)
        integrate_periodic(circle.kernel.evaluate, circle.kernel.breakpoints(),
                           tol=1e-14)
    finally:
        quadrature._gauss_rule.cache_clear()
    assert calls
    assert max(calls.values()) == 1


def test_inner_batches_respect_the_cap(monkeypatch):
    circle = CircleModel(20.0, UniformWindow(0.1, 0.5))
    torus = TorusModel((6.0, 5.0), TORUS_KERNELS["windows"])
    expected = (chain_count_by_quadrature(circle, 2, 0.7, with_exclusion=True),
                clustering_by_quadrature(circle, anchor=1.0),
                chain_count_torus_grid(torus, 2, (0.7, 0.4)))
    cap = 500
    batches = []
    evaluate = quadrature._eval_axes

    def recording(axes, points):
        if points.ndim == 3:  # inner points of a batch of outer nodes
            batches.append(points.shape[:2])
        return evaluate(axes, points)

    monkeypatch.setattr(quadrature, "MAX_BATCH_POINTS", cap)
    monkeypatch.setattr(quadrature, "_eval_axes", recording)
    got = (chain_count_by_quadrature(circle, 2, 0.7, with_exclusion=True),
           clustering_by_quadrature(circle, anchor=1.0),
           chain_count_torus_grid(torus, 2, (0.7, 0.4)))
    assert got == expected
    assert any(rows > 1 for rows, _ in batches)
    assert all(rows * size <= cap or rows == 1 for rows, size in batches)
    assert any(rows == 1 and size > cap for rows, size in batches)


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
