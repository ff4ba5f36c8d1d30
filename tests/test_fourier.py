"""Series analytics: coefficients, chain counts, clustering, closed forms."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringnet import fourier
from ringnet import (
    CostBudgetError,
    CircleModel,
    CosineSeries,
    FourierSeries,
    SeparationCurve,
    UniformWindow,
    antipodal_chain_count_uniform,
    chain_count_by_quadrature,
    chain_count_leading,
    chain_count_one,
    chain_count_torus,
    chain_count_two,
    chain_count_uniform,
    chain_count_torus_grid,
    clustering_from_series,
    clustering_uniform,
    discrete_chain_count,
    ProductKernel,
    TorusModel,
    series_from_kernel,
    uniform_window_series,
)


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def test_uniform_coeffs_full_circle():
    series = uniform_window_series(UniformWindow(0.1, math.pi), 32)
    assert series.coeffs[0] == pytest.approx(0.1, abs=1e-15)
    assert all(abs(c) < 1e-15 for c in series.coeffs[1:])


def test_uniform_coeffs_half_circle_first_harmonic():
    series = uniform_window_series(UniformWindow(0.2, math.pi / 2.0), 8)
    assert series.coeffs[1] == pytest.approx(0.2 / math.pi, rel=1e-14)


def test_uniform_coeffs_constant_term():
    series = uniform_window_series(UniformWindow(0.3, 0.7), 8)
    assert series.coeffs[0] == pytest.approx(0.3 * 0.7 / math.pi, rel=1e-14)


def test_numeric_coeffs_match_closed_form():
    window = UniformWindow(0.25, 0.9)
    numeric = series_from_kernel(window, 64)
    closed = uniform_window_series(window, 64)
    np.testing.assert_allclose(numeric.coeffs, closed.coeffs, rtol=1e-10,
                               atol=1e-13)


def test_numeric_coeffs_idempotent_on_cosine():
    kernel = CosineSeries((0.3, 0.1, 0.04))
    series = series_from_kernel(kernel, 6)
    np.testing.assert_allclose(series.coeffs[:3], kernel.coeffs, atol=1e-12)
    np.testing.assert_allclose(series.coeffs[3:], 0.0, atol=1e-12)


def test_numeric_coeffs_zero_kernel():
    series = series_from_kernel(UniformWindow(0.0, 1.0), 8)
    assert all(c == 0.0 for c in series.coeffs)


def test_coefficient_decay_bound():
    p, width = 0.4, 1.3
    series = uniform_window_series(UniformWindow(p, width), 512)
    for n in range(1, 513):
        assert abs(series.coeffs[n]) <= p / (math.pi * n) + 1e-15


def per_element_coeffs(values):
    """The coefficient tuple as built element by element with float()."""
    coeffs = tuple(float(c) for c in values)
    assert coeffs and all(math.isfinite(c) for c in coeffs)
    return coeffs


def reference_leading_bracket(coeffs, k, gap):
    """Power sum a_0^(k+1) + 2 sum a_n^(k+1) cos(n gap) from the tuple."""
    a = np.asarray(coeffs)
    total = a[0] ** (k + 1)
    if len(coeffs) > 1:
        n = np.arange(1, len(coeffs))
        total += 2.0 * float(np.sum(a[1:] ** (k + 1) * np.cos(n * gap)))
    return float(total)


def window_tail(p, width, terms):
    n = np.arange(1, terms + 1)
    return p * width / np.pi, p * np.sin(n * width) / (np.pi * n)


@pytest.mark.parametrize("values", [
    (0.42,),
    (0.0, -0.0, 1, 2 ** 60 + 1, np.float32(0.1), np.float64(1e-300), "0.25"),
    (window_tail(0.1, 1.0, 4096)[0], *window_tail(0.1, 1.0, 4096)[1]),
    (window_tail(0.05, 0.5, 200_000)[0], *window_tail(0.05, 0.5, 200_000)[1]),
], ids=["constant", "mixed-types", "window-4096", "window-200k"])
def test_series_built_in_one_pass_equals_per_element_build(values):
    series = FourierSeries(values)
    expected = per_element_coeffs(values)
    assert type(series.coeffs) is tuple
    assert all(type(c) is float for c in series.coeffs)
    # bit for bit, signed zeros included
    assert (np.asarray(series.coeffs).view(np.uint64).tolist()
            == np.asarray(expected).view(np.uint64).tolist())
    assert hash(series) == hash((expected,))
    assert series == FourierSeries(expected)
    for k, gap in ((1, 0.0), (2, 0.7), (5, math.pi)):
        assert fourier._leading_bracket(series, k, gap) == \
            reference_leading_bracket(expected, k, gap)


def test_window_series_equals_per_element_build():
    p, width, terms = 0.1, 1.0, 4096
    head, tail = window_tail(p, width, terms)
    series = uniform_window_series(UniformWindow(p, width), terms)
    assert series.coeffs == per_element_coeffs((head, *tail))
    assert hash(series) == hash((per_element_coeffs((head, *tail)),))


def test_series_array_is_read_only():
    series = uniform_window_series(UniformWindow(0.1, 1.0), 64)
    with pytest.raises(ValueError):
        series._array[0] = 1.0
    assert series.coeffs[0] == 0.1 * 1.0 / math.pi


@pytest.mark.parametrize("values", [(), (1.0, math.nan), (math.inf,), ((1.0, 2.0),)])
def test_series_rejects_bad_coefficients(values):
    with pytest.raises(ValueError):
        FourierSeries(values)


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------

def test_eval_zero_series():
    series = FourierSeries((0.0, 0.0, 0.0))
    assert series.evaluate(1.234) == 0.0


def test_eval_constant_series():
    series = FourierSeries((0.42,))
    for phi in (0.0, 1.0, -2.5, math.pi):
        assert series.evaluate(phi) == pytest.approx(0.42, abs=1e-15)


def test_eval_converges_to_window_interior():
    p, width = 0.3, 1.0
    series = uniform_window_series(UniformWindow(p, width), 4096)
    # partial-sum error at an interior point is controlled by the
    # Dirichlet-kernel bound for the jump at the window edge
    bound = 2.0 * p / (math.pi * 4097 * math.sin(width / 2.0))
    assert abs(series.evaluate(0.0) - p) <= bound * 50


# ---------------------------------------------------------------------------
# chain counts from series
# ---------------------------------------------------------------------------

def test_leading_zero_series():
    series = FourierSeries((0.0, 0.0))
    for k in (1, 2, 3):
        assert chain_count_leading(series, 10.0, k, 0.5) == 0.0


def test_leading_matches_uniform_closed_route():
    p, width, radius = 0.12, 0.8, 20.0
    terms = 2048
    series = uniform_window_series(UniformWindow(p, width), terms)
    degree = 2.0 * radius * p * width
    for k in (1, 2):
        for gap in (0.0, 0.5, 1.1, math.pi):
            by_series = chain_count_leading(series, radius, k, gap)
            closed = chain_count_uniform(p, width, degree, k, gap,
                                         tail_terms=terms)
            assert by_series == pytest.approx(closed.value, rel=1e-12,
                                              abs=1e-15)


def test_leading_vs_discrete_two_chain_oracle():
    # the sum-to-integral gap is O(1/(width*radius)); the constant stays
    # below 3 here and the gap shrinks when the ring is refined
    kernel = UniformWindow(0.05, 0.5)
    series = uniform_window_series(kernel, 4096)
    rels = []
    for n in (125, 1000):
        radius = n / (2.0 * math.pi)
        offset = round(0.3 * n / (2.0 * math.pi))
        gap = 2.0 * math.pi * offset / n
        discrete = discrete_chain_count(n, kernel, 1, offset).reduced
        continuum = chain_count_leading(series, radius, 1, gap)
        rel = abs(discrete - continuum) / continuum
        assert rel <= 3.0 / (kernel.half_width * radius)
        rels.append(rel)
    assert rels[1] < rels[0] / 2.0


def test_full_one_certain_direct_link():
    series = uniform_window_series(UniformWindow(0.5, 1.0), 256)
    assert chain_count_one(series, 10.0, 0.3, 1.0) == 0.0


def test_full_one_no_direct_link_equals_leading():
    series = uniform_window_series(UniformWindow(0.5, 1.0), 256)
    lead = chain_count_leading(series, 10.0, 1, 2.5)
    assert chain_count_one(series, 10.0, 2.5, 0.0) == pytest.approx(lead)


def test_full_two_zero_series():
    series = FourierSeries((0.0, 0.0))
    assert chain_count_two(series, 10.0, 0.5, 0.0) == 0.0


def test_full_two_corrections_off_reduces_to_leading():
    series = uniform_window_series(UniformWindow(0.3, 0.8), 512)
    direct = 0.0
    bare = chain_count_two(series, 15.0, 0.9, direct, correction_order=0)
    lead = chain_count_leading(series, 15.0, 2, 0.9)
    assert bare == pytest.approx(lead, rel=1e-14)


def test_full_two_matches_exclusion_quadrature():
    # finite series kernel: both routes are exact, agreement is machine level
    kernel = CosineSeries((0.4, 0.1, 0.05, 0.02))
    model = CircleModel(9.0, kernel)
    series = FourierSeries(kernel.coeffs)
    for gap in (0.0, 0.7, 1.9, math.pi):
        direct = float(kernel.evaluate(gap))
        full = chain_count_two(series, 9.0, gap, direct, correction_order=3)
        quad = chain_count_by_quadrature(model, 2, gap, with_exclusion=True)
        assert full == pytest.approx(quad, rel=1e-12, abs=1e-13)


def test_full_vs_leading_bounded_by_discrete_correction():
    kernel = UniformWindow(0.02, 0.5)
    radius = 20.0
    n = int(2.0 * math.pi * radius)
    series = uniform_window_series(kernel, 4096)
    offset = 8
    gap = 2.0 * math.pi * offset / n
    counts = discrete_chain_count(n, kernel, 2, offset)
    discrete_correction = (counts.reduced - counts.with_exclusion)
    direct = float(kernel.evaluate(gap))
    lead = chain_count_leading(series, radius, 2, gap)
    full = chain_count_two(series, radius, gap, direct)
    # continuum correction stays within a discretisation factor of the
    # exact discrete correction
    assert abs(lead - full) <= 2.5 * discrete_correction + 1e-9
    assert abs(lead - full) >= 0.4 * discrete_correction
    # beyond total reach every route vanishes up to truncation dust
    for value in (chain_count_leading(series, radius, 2, math.pi),
                  chain_count_two(series, radius, math.pi, 0.0),
                  discrete_chain_count(n, kernel, 2, n // 2).reduced):
        assert abs(value) < 1e-8


def test_chain_parity_and_periodicity():
    series = uniform_window_series(UniformWindow(0.2, 1.1), 512)
    for k in (1, 2):
        for gap in (0.3, 1.0, 2.2):
            plus = chain_count_leading(series, 7.0, k, gap)
            minus = chain_count_leading(series, 7.0, k, -gap)
            around = chain_count_leading(series, 7.0, k, gap + 2.0 * math.pi)
            assert minus == pytest.approx(plus, rel=1e-12)
            assert around == pytest.approx(plus, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------

def test_clustering_route_equivalence_same_truncation():
    terms = 20_000
    for p, width in ((0.05, 0.3), (0.5, 1.4), (1.0, 2.9)):
        series = uniform_window_series(UniformWindow(p, width), terms)
        closed = clustering_uniform(p, width, tail_terms=terms)
        for radius in (5.0, 50.0):
            degree = 2.0 * radius * p * width
            value = clustering_from_series(series, radius, degree,
                                           mode="leading")
            assert value == pytest.approx(closed.value, rel=1e-10)


def test_clustering_constant_kernel():
    p = 0.3
    radius = 11.0
    series = FourierSeries((p,))
    degree = 2.0 * math.pi * radius * p
    leading = clustering_from_series(series, radius, degree, mode="leading")
    assert leading == pytest.approx(p, rel=1e-14)
    full = clustering_from_series(series, radius, degree, mode="full",
                                  correction_order=4)
    assert full == pytest.approx(p * (1.0 - p) ** 2, rel=1e-12)


def test_clustering_radius_invariance():
    series = uniform_window_series(UniformWindow(0.2, 0.9), 1024)
    base_degree = 2.0 * 10.0 * 0.2 * 0.9
    base = clustering_from_series(series, 10.0, base_degree, mode="leading")
    scaled = clustering_from_series(series, 30.0, 3.0 * base_degree,
                                    mode="leading")
    assert scaled == pytest.approx(base, rel=1e-13)


def test_clustering_rejects_zero_degree():
    series = uniform_window_series(UniformWindow(0.2, 0.9), 64)
    with pytest.raises(ValueError):
        clustering_from_series(series, 10.0, 0.0, mode="leading")


def test_clustering_uniform_full_circle_identity():
    for p in (0.01, 0.37, 1.0):
        result = clustering_uniform(p, math.pi)
        assert result.value == pytest.approx(p, abs=1e-14)


def test_clustering_uniform_plateau():
    result = clustering_uniform(0.1, 1.0, tail_terms=200_000)
    assert result.value / 0.1 == pytest.approx(0.75, abs=0.005)
    narrow = clustering_uniform(0.1, 0.02, tail_terms=200_000)
    assert narrow.value / 0.1 == pytest.approx(0.75, abs=0.02)


def test_clustering_uniform_error_bound_honest():
    coarse = clustering_uniform(0.3, 0.7, tail_terms=100)
    fine = clustering_uniform(0.3, 0.7, tail_terms=1_000_000)
    assert abs(coarse.value - fine.value) <= coarse.error_bound
    assert coarse.error_bound > fine.error_bound


# ---------------------------------------------------------------------------
# uniform closed forms for chains
# ---------------------------------------------------------------------------

def test_chain_uniform_full_circle_value():
    p = 0.2
    radius = 8.0
    degree = 2.0 * math.pi * radius * p  # half-width pi covers everything
    for k in (1, 2, 3):
        result = chain_count_uniform(p, math.pi, degree, k, 0.77)
        assert result.value == pytest.approx(p * degree ** k, rel=1e-12)


def test_chain_uniform_error_bound_honest():
    degree = 2.0 * 20.0 * 0.1 * 0.8
    coarse = chain_count_uniform(0.1, 0.8, degree, 1, 0.0, tail_terms=50)
    fine = chain_count_uniform(0.1, 0.8, degree, 1, 0.0, tail_terms=500_000)
    assert abs(coarse.value - fine.value) <= coarse.error_bound


def test_antipodal_equals_generic_at_pi():
    p, width = 0.15, 2.0
    degree = 2.0 * 25.0 * p * width
    for k in (1, 2, 6):
        at_pi = antipodal_chain_count_uniform(p, width, degree, k)
        generic = chain_count_uniform(p, width, degree, k, math.pi)
        assert at_pi.value.value == pytest.approx(generic.value, rel=1e-10,
                                                  abs=1e-12)


def test_antipodal_normalization_full_circle():
    p = 0.2
    degree = 2.0 * math.pi * 10.0 * p
    for k in (1, 2, 10):
        result = antipodal_chain_count_uniform(p, math.pi, degree, k)
        assert result.normalized.value == pytest.approx(p / math.pi, rel=1e-12)


def test_antipodal_threshold_order_shifts_with_k():
    p = 0.1
    grid = np.linspace(0.05, math.pi, 120)
    half = 0.5 * p / math.pi
    thresholds = []
    for k in (1, 2, 4, 6, 10, 20):
        values = [antipodal_chain_count_uniform(
            p, float(w), 2.0 * p * float(w), k, tail_terms=50_000
        ).normalized.value for w in grid]
        thresholds.append(next(w for w, v in zip(grid, values) if v >= half))
    assert all(a > b for a, b in zip(thresholds, thresholds[1:]))


def test_chain_uniform_bound_covers_rounding_beyond_reach():
    # (k+1) w < pi: no chain reaches the antipode, so the true count is 0 and
    # whatever the truncated sum returns is rounding that the bound must cover
    p = 0.1
    for k in (4, 6, 10, 20):
        for width in np.linspace(math.pi / 64, math.pi, 64):
            if (k + 1) * width >= math.pi:
                break
            result = chain_count_uniform(p, float(width), 2.0 * p * width * 20.0,
                                         k, math.pi)
            assert abs(result.value) <= result.error_bound


# ---------------------------------------------------------------------------
# exact antipodal counts from the cardinal B-spline
# ---------------------------------------------------------------------------

def _bspline_exact(order, x):
    # alternating binomial sum in exact rational arithmetic
    x = Fraction(x)
    total = sum((-1) ** i * math.comb(order, i) * (x - i) ** (order - 1)
                for i in range(order + 1) if x > i)
    return total / math.factorial(order - 1)


@pytest.mark.parametrize("order", [2, 3, 21, 81, 161])
def test_bspline_matches_exact_rational_sum(order):
    rng = np.random.default_rng(order)
    points = np.concatenate([rng.uniform(0.0, order, 24),
                             [0.0, 0.5, 1.0, order / 2.0, float(order), -0.5,
                              order + 0.5]])
    values = fourier._cardinal_bspline(order, points)
    for x, value in zip(points, values):
        exact = _bspline_exact(order, float(x))
        if exact < 1e-300:
            # below the normal range the float result may underflow to 0
            assert abs(value) <= 1e-300
            continue
        # the documented bound: four roundings per recurrence level
        assert abs(Fraction(float(value)) - exact) <= fourier._gamma(4 * order) * exact


def test_antipodal_first_order_closed_form():
    p, radius = 0.15, 20.0
    for width in np.linspace(0.1, math.pi, 37):
        degree = 2.0 * radius * p * width
        result = antipodal_chain_count_uniform(p, float(width), degree, 1)
        expected = p * degree * max(0.0, 2.0 - math.pi / width)
        assert result.value.value == pytest.approx(expected, rel=1e-14,
                                                   abs=1e-15)
        assert abs(result.value.value - expected) <= result.value.error_bound + 1e-18


def test_antipodal_exact_zero_beyond_reach():
    for k in (1, 2, 6, 20):
        for width in np.linspace(0.01, 0.999 * math.pi / (k + 1), 9):
            result = antipodal_chain_count_uniform(0.2, float(width), 3.0, k)
            assert result.value.value == 0.0
            assert result.normalized.value == 0.0


def test_antipodal_high_order_narrow_window():
    # k = 20 at w = 0.3: alternating sums cancel here; the recurrence must
    # match an exact rational evaluation at the same rounded arguments
    p, width, k = 0.1, 0.3, 20
    order = k + 1
    result = antipodal_chain_count_uniform(p, width, 1.0, k)
    pi = Fraction(math.pi)
    total = Fraction(0)
    for odd in range(-order, order + 1, 2):
        if abs(odd) * pi <= order * Fraction(width):
            total += _bspline_exact(
                order, (pi * odd + order * Fraction(width)) / (2 * Fraction(width)))
    expected = float(Fraction(p) / pi * total)
    assert result.normalized.value == pytest.approx(expected, rel=1e-13)
    series = chain_count_uniform(p, width, 1.0, k, math.pi)
    assert abs(series.value - result.value.value) <= (series.error_bound
                                                      + result.value.error_bound)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 12),
       width=st.floats(0.05, math.pi),
       p=st.floats(0.01, 1.0),
       radius=st.floats(1.0, 50.0))
def test_antipodal_exact_agrees_with_truncated_series(k, width, p, radius):
    degree = 2.0 * radius * p * width
    exact = antipodal_chain_count_uniform(p, width, degree, k)
    series = chain_count_uniform(p, width, degree, k, math.pi, tail_terms=4096)
    assert abs(exact.value.value - series.value) <= (series.error_bound
                                                     + exact.value.error_bound)


def test_antipodal_budget_refuses_before_work(monkeypatch):
    calls = []
    spline = fourier._cardinal_bspline
    monkeypatch.setattr(fourier, "_cardinal_bspline",
                        lambda *args: calls.append(args) or spline(*args))
    # k = 100 at the widest window stays within the budget
    antipodal_chain_count_uniform(0.1, math.pi, 1.0, 100)
    assert len(calls) == 1
    order = 10_000_001
    with pytest.raises(CostBudgetError) as refused:
        antipodal_chain_count_uniform(0.1, math.pi, 1.0, order - 1)
    assert len(calls) == 1
    assert refused.value.cost == (order + 1) * order ** 2


# ---------------------------------------------------------------------------
# torus factorization
# ---------------------------------------------------------------------------

def test_torus_single_axis_degenerates():
    series = uniform_window_series(UniformWindow(0.2, 0.9), 1024)
    lead = chain_count_leading(series, 12.0, 2, 0.6)
    torus = chain_count_torus([series], (12.0,), 2, (0.6,))
    assert torus == pytest.approx(lead, rel=1e-14)


def test_torus_zero_factor_kills_product():
    live = uniform_window_series(UniformWindow(0.2, 0.9), 128)
    dead = FourierSeries((0.0,))
    assert chain_count_torus([live, dead], (6.0, 7.0), 1, (0.3, 0.2)) == 0.0


def test_torus_factorized_vs_tensor_grid():
    kernel = ProductKernel((UniformWindow(0.5, 0.9), UniformWindow(0.4, 1.1)))
    model = TorusModel((6.0, 5.0), kernel)
    factor_series = [uniform_window_series(f, 2048) for f in kernel.factors]
    value = chain_count_torus(factor_series, (6.0, 5.0), 2, (0.7, 0.4))
    grid = chain_count_torus_grid(model, 2, (0.7, 0.4))
    assert value == pytest.approx(grid, rel=1e-3)


def test_separation_curve_validation():
    curve = SeparationCurve(separation=1, gaps=(0.0, 0.5), values=(0.1, 0.2),
                            mode="leading", model_label="test")
    assert curve.values == (0.1, 0.2)
    with pytest.raises(ValueError):
        SeparationCurve(separation=1, gaps=(0.5, 0.1), values=(0.1, 0.2),
                        mode="leading", model_label="test")
    with pytest.raises(ValueError):
        SeparationCurve(separation=1, gaps=(0.0, 0.5), values=(0.1, 0.2),
                        mode="nonsense", model_label="test")
