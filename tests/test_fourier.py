"""Series analytics: coefficients, chain counts, clustering, closed forms."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from ringnet import fourier
from ringnet import (
    CostBudgetError,
    CircleModel,
    CosineSeries,
    FourierSeries,
    UniformWindow,
    antipodal_chain_count_uniform,
    chain_count_leading,
    chain_count_one,
    chain_count_result,
    chain_count_torus,
    chain_count_two,
    chain_count_uniform,
    chain_count_torus_grid,
    clustering_from_series,
    clustering_uniform,
    discrete_chain_count,
    ProductKernel,
    TorusModel,
    uniform_window_series,
)

from memory import traced_peak


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


def quad_coeffs(kernel, terms):
    """Cosine coefficients (1/2pi) int Q(phi) cos(n phi) dphi for n = 0..terms
    by scipy's adaptive cosine-weighted quadrature, split at the kernel's
    breakpoints: an oracle that shares no code with ringnet."""
    edges = [-math.pi, *sorted(kernel.breakpoints()), math.pi]
    return [sum(integrate.quad(lambda phi: float(kernel.evaluate(phi)), left, right,
                               weight="cos", wvar=n, epsabs=1e-14, epsrel=1e-12)[0]
                for left, right in zip(edges[:-1], edges[1:])) / (2.0 * math.pi)
            for n in range(terms + 1)]


def test_numeric_coeffs_match_closed_form():
    window = UniformWindow(0.25, 0.9)
    numeric = quad_coeffs(window, 64)
    closed = uniform_window_series(window, 64)
    np.testing.assert_allclose(numeric, closed.coeffs, rtol=1e-10, atol=1e-13)


def test_numeric_coeffs_idempotent_on_cosine():
    kernel = CosineSeries((0.3, 0.1, 0.04))
    coeffs = quad_coeffs(kernel, 6)
    np.testing.assert_allclose(coeffs[:3], kernel.coeffs, atol=1e-12)
    np.testing.assert_allclose(coeffs[3:], 0.0, atol=1e-12)


def test_numeric_coeffs_zero_kernel():
    coeffs = quad_coeffs(UniformWindow(0.0, 1.0), 8)
    assert all(c == 0.0 for c in coeffs)


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


def reference_power_sum(coeffs, k, gap):
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
        assert fourier.leading_brackets(series, (k,), gap) == \
            [reference_power_sum(expected, k, gap)]


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


def test_signed_zero_coefficients_make_equal_series_and_one_cache_key():
    plus, minus = FourierSeries((0.02, 0.0, 0.01)), FourierSeries((0.02, -0.0, 0.01))
    assert plus == minus and hash(plus) == hash(minus)
    assert plus != FourierSeries((0.02, 0.0, 0.01, 0.0)) and plus != (0.02, 0.0, 0.01)
    assert type(minus.coeffs) is tuple and all(type(c) is float for c in minus.coeffs)
    assert math.copysign(1.0, minus.coeffs[1]) == -1.0
    # the correction tables are cached by series: the second is a cache hit
    fourier._correction_tables.cache_clear()
    for series in (plus, minus):
        clustering_from_series(series, 1.0, 2.0 * math.pi * 0.02, mode="full",
                               correction_order=2)
    assert fourier._correction_tables.cache_info()[:2] == (1, 1)


def test_series_is_immutable():
    series = FourierSeries((0.3, 0.1))
    for name in ("coeffs", "_array", "other"):
        with pytest.raises(AttributeError):
            setattr(series, name, (0.1,))
        with pytest.raises(AttributeError):
            delattr(series, name)
    assert series.coeffs == (0.3, 0.1)
    assert repr(series) == "CosineSeries(coeffs=(0.3, 0.1))"


def test_window_series_builds_no_per_coefficient_objects():
    terms = 200_000
    tracemalloc.start()
    try:
        series = uniform_window_series(UniformWindow(0.1, 1.0), terms)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a few arrays of one float per harmonic while the tail is formed (4.1
    # at most), and the series' own array kept; building a tuple of floats
    # kept 5 arrays' worth and peaked at 9
    array = 8 * (terms + 1)
    assert peak <= 4.5 * array
    assert kept <= 1.1 * array
    assert series.order == terms


@pytest.mark.parametrize("window", [UniformWindow(0.1, 1.0), UniformWindow(1.0, math.pi),
                                    UniformWindow(0.3, 1e-3), UniformWindow(1e-300, 0.5)])
@pytest.mark.parametrize("terms", [1, 7, 4096, fourier.SUM_BLOCK_TERMS,
                                   fourier.SUM_BLOCK_TERMS + 1, 200_000])
def test_window_series_tail_formed_in_place_keeps_its_bits(window, terms):
    n = np.arange(1, terms + 1)
    tail = window.p * np.sin(n * window.half_width) / (np.pi * n)
    expected = np.concatenate(([window.p * window.half_width / np.pi], tail))
    series = uniform_window_series(window, terms)
    assert series._array.tobytes() == expected.tobytes()  # signed zeros too


def test_window_series_tail_needs_one_more_array():
    terms = 200_000
    peak = traced_peak(lambda: uniform_window_series(UniformWindow(0.1, 1.0), terms))
    assert peak <= 3.25 * 8 * (terms + 1)


def test_window_series_keeps_the_array_it_forms():
    # the tail is formed a block of SUM_BLOCK_TERMS harmonics at a time, and
    # the series takes the coefficient array as its own; formed whole and
    # copied into the series, 200,000 terms peaked at 4.77 MiB
    assert traced_peak(lambda: uniform_window_series(UniformWindow(0.1, 1.0), 200_000)) \
        <= 1.8 * 2 ** 20
    coeffs = np.array([0.2, 0.1, 0.05])
    series = FourierSeries(coeffs)  # the public constructor copies
    coeffs[1] = 0.3
    assert series.coeffs == (0.2, 0.1, 0.05)


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


@pytest.mark.parametrize("series", [
    uniform_window_series(UniformWindow(0.1, 0.5), 4096),
    FourierSeries(tuple(0.1 * 0.8 ** n for n in range(41))),
    FourierSeries((0.3,)),
], ids=["window-4096", "smooth-41", "constant"])
def test_gap_arrays_give_the_one_gap_bits(series):
    # 37 gaps, repeats and both ends included, span several cosine-table
    # blocks of the 4096-term series
    gaps = np.concatenate([np.random.default_rng(5).uniform(0.0, math.pi, 33),
                           [0.0, math.pi, 0.7, 0.7]])
    direct = np.linspace(0.0, 1.0, gaps.size)
    for k in (1, 2, 5):
        counts = chain_count_leading(series, 20.0, k, gaps)
        assert counts.tolist() == [chain_count_leading(series, 20.0, k, g) for g in gaps]
    ones = chain_count_one(series, 20.0, gaps, direct)
    twos = chain_count_two(series, 20.0, gaps, direct, correction_order=8)
    for gap, d, one, two in zip(gaps, direct, ones, twos):
        assert one == chain_count_one(series, 20.0, float(gap), float(d))
        assert two == chain_count_two(series, 20.0, float(gap), float(d),
                                      correction_order=8)
    with pytest.raises(ValueError):
        chain_count_one(series, 20.0, gaps[:2], np.array([0.5, 1.5]))


@pytest.mark.parametrize("cells", [1, 4097, 5 * 4096, fourier.MAX_TABLE_CELLS])
def test_shared_power_sums_give_the_one_order_bits(monkeypatch, cells):
    # one cosine table per block of gaps serves every order; blocks of one
    # gap, a gap and a bit, five gaps and the real size
    monkeypatch.setattr(fourier, "MAX_TABLE_CELLS", cells)
    series = uniform_window_series(UniformWindow(0.1, 0.5), 4096)
    gaps = np.concatenate([np.random.default_rng(8).uniform(0.0, math.pi, 21), [0.0, 0.7]])
    direct = np.linspace(0.0, 1.0, gaps.size)
    orders = (1, 2, 5)
    shared = fourier.leading_brackets(series, orders, gaps)
    assert fourier.leading_brackets(series, orders, 0.7) == [s[-1] for s in shared]
    for k, sums in zip(orders, shared):
        assert sums.tolist() == [fourier.leading_brackets(series, (k,), g)[0] for g in gaps]
        assert (chain_count_leading(series, 20.0, k, gaps, sums).tolist()
                == chain_count_leading(series, 20.0, k, gaps).tolist())
    kept = shared[1].copy()
    assert (chain_count_two(series, 20.0, gaps, direct, 8, shared[1]).tolist()
            == chain_count_two(series, 20.0, gaps, direct, 8).tolist())
    assert (chain_count_one(series, 20.0, gaps, direct, shared[0]).tolist()
            == chain_count_one(series, 20.0, gaps, direct).tolist())
    assert shared[1].tolist() == kept.tolist()  # the corrections work on a copy


def test_leading_curve_memory_is_capped():
    # the cosine table is built in blocks of MAX_TABLE_CELLS; unblocked, 2,000
    # gaps at 4,096 harmonics would hold two 62.5 MiB temporaries
    series = uniform_window_series(UniformWindow(0.1, 0.5), 4096)
    gaps = np.linspace(0.0, math.pi, 2000)
    tracemalloc.start()
    try:
        counts = chain_count_leading(series, 20.0, 2, gaps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20
    for index in (0, 1234, 1999):
        assert counts[index] == chain_count_leading(series, 20.0, 2, gaps[index])


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
        quad = chain_count_result(model, 2, gap, with_exclusion=True).value
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


def _clustering_oracle(p, width):
    # elementary closed form of the triple overlap of three windows on the
    # circle, test-only: C/p = [3 w^2 + max(0, 3 w - 2 pi)^2] / (4 w^2)
    excess = max(0.0, 3.0 * width - 2.0 * math.pi)
    return p * (3.0 * width * width + excess * excess) / (4.0 * width * width)


def _clustering_with_pow(p, width, terms):
    # the sum as it was written with libm pow, kept as a reference
    n = np.arange(1, terms + 1)
    partial = float(np.sum(np.sin(n * width) ** 3 / n.astype(float) ** 3))
    prefactor = p / (np.pi * width ** 2)
    return prefactor * (width ** 3 + 2.0 * partial)


# the sweep-phi default grid: 64 widths up to pi at 200k harmonics
SWEEP_WIDTHS = np.linspace(math.pi / 64, math.pi, 64).tolist()


def _assert_clustering_matches_oracle(p, width, terms):
    result = clustering_uniform(p, width, tail_terms=terms)
    oracle = _clustering_oracle(p, width)
    # a few ulps for the oracle's own rounding
    slack = 8.0 * math.ulp(oracle) if oracle else 0.0
    assert abs(result.value - oracle) <= result.error_bound + slack


@pytest.mark.parametrize("width", SWEEP_WIDTHS)
def test_clustering_uniform_matches_oracle_on_sweep_grid(width):
    _assert_clustering_matches_oracle(0.1, width, 200_000)


# widths far below 1/N leave the truncated series unconverged, with the
# tail bound carrying the whole value; 1e-3 keeps the property informative
@settings(max_examples=40, deadline=None)
@given(p=st.floats(0.0, 1.0),
       width=st.floats(1e-3, math.pi),
       terms=st.integers(1_000, 1_000_000))
@example(p=0.1, width=math.pi, terms=1_000)
@example(p=1.0, width=2.0 * math.pi / 3.0, terms=1_000_000)
@example(p=0.1, width=1.0, terms=200_000)
# a subnormal prefactor: its rounding is absolute, 7e-323 here
@example(p=2.2250738585e-313, width=3.1415926535897927, terms=16_374)
def test_clustering_uniform_within_bound_of_oracle(p, width, terms):
    _assert_clustering_matches_oracle(p, width, terms)


@pytest.mark.parametrize("width", [SWEEP_WIDTHS[0], 1.0, 2.0 * math.pi / 3.0,
                                   SWEEP_WIDTHS[50], math.pi])
def test_clustering_uniform_agrees_with_pow_reference(width):
    result = clustering_uniform(0.1, width, tail_terms=200_000)
    reference = _clustering_with_pow(0.1, width, 200_000)
    assert abs(result.value - reference) <= result.error_bound


def test_clustering_uniform_bound_covers_rounding():
    # past the tail the bound keeps the rounding of N sines and cubes
    p, width, terms = 0.3, 0.7, 1_000_000
    result = clustering_uniform(p, width, tail_terms=terms)
    prefactor = p / (math.pi * width ** 2)
    assert result.error_bound > prefactor / terms ** 2
    assert result.error_bound < 1e3 * terms * 2.0 ** -53 * result.value


# ---------------------------------------------------------------------------
# closed-form sums formed in blocks of harmonics
# ---------------------------------------------------------------------------

def _unblocked_clustering_uniform(p, half_width, tail_terms):
    # clustering_uniform as it was before blocking, kept as the reference
    n = np.arange(1.0, tail_terms + 1.0)
    ratio = n * half_width
    np.sin(ratio, out=ratio)
    np.divide(ratio, n, out=ratio)
    cube = np.square(ratio)
    cube *= ratio
    partial = float(np.sum(cube))
    magnitude = float(np.sum(np.abs(cube, out=cube)))
    head = half_width ** 3
    prefactor = p / (np.pi * half_width ** 2)
    value = prefactor * (head + 2.0 * partial)
    tail = 1.0 / float(tail_terms) ** 2
    widest = (tail_terms * half_width + 8.0) * fourier.UNIT_ROUNDOFF
    sine_slack = (3.0 * (1.0 + widest) ** 2 * fourier.UNIT_ROUNDOFF
                  * (half_width * fourier._ZETA_TWO_BOUND
                     + 8.0 * fourier._ZETA_THREE_BOUND))
    rounding = (fourier._gamma(tail_terms + 16) * (head + 2.0 * magnitude)
                + 2.0 * sine_slack)
    subnormal = 2.0 * math.ulp(0.0) * (1.0 + head + 2.0 * magnitude) if p else 0.0
    return float(value), float(prefactor * (tail + rounding) + subnormal)


def _unblocked_chain_count_uniform(p, half_width, mean_degree, k, gap, tail_terms):
    # chain_count_uniform as it was before blocking, kept as the reference
    n = np.arange(1, tail_terms + 1)
    sines = np.sin(n * half_width)
    terms = (sines / n) ** (k + 1) * np.cos(n * gap)
    head = half_width ** (k + 1)
    bracket = head + 2.0 * float(np.sum(terms))
    prefactor = (p / np.pi) * (mean_degree / half_width) ** k
    tail = 2.0 / (k * float(tail_terms) ** k)
    sine_slack = (n * half_width + 8.0) * fourier.UNIT_ROUNDOFF
    cosine_slack = (n * abs(gap) + 8.0) * fourier.UNIT_ROUNDOFF
    reach = (np.abs(sines) + sine_slack) / n
    arguments = reach ** k * ((k + 1) * sine_slack / n + reach * cosine_slack)
    rounding = (fourier._gamma(tail_terms + 12)
                * (head + 2.0 * float(np.sum(np.abs(terms))))
                + 2.0 * float(np.sum(arguments)))
    return float(prefactor * bracket), float(prefactor * (tail + rounding))


SUBNORMAL_P = 2.2250738585e-313


def _assert_blocked_sums_match_unblocked(p, width, terms, k, gap):
    assert tuple(clustering_uniform(p, width, tail_terms=terms)) == \
        _unblocked_clustering_uniform(p, width, terms)
    assert tuple(chain_count_uniform(p, width, 3.5, k, gap, tail_terms=terms)) == \
        _unblocked_chain_count_uniform(p, width, 3.5, k, gap, terms)


# blocks patched small, so that N runs over 1, B - 1, B, B + 1 and a few B
@settings(max_examples=80, deadline=None)
@given(block=st.sampled_from([1, 2, 7, 64]),
       blocks=st.integers(0, 4),
       offset=st.integers(-1, 1),
       p=st.one_of(st.just(0.0), st.just(SUBNORMAL_P), st.floats(0.0, 1.0)),
       width=st.floats(1e-3, math.pi),
       k=st.integers(1, 6),
       gap=st.floats(0.0, math.pi))
@example(block=7, blocks=0, offset=1, p=0.1, width=math.pi, k=2, gap=math.pi)
@example(block=64, blocks=1, offset=-1, p=0.0, width=1.0, k=1, gap=0.0)
@example(block=64, blocks=3, offset=1, p=SUBNORMAL_P, width=3.1415926535897927,
         k=3, gap=0.7)
def test_blocked_sums_equal_unblocked_sums(block, blocks, offset, p, width, k, gap):
    terms = max(1, block * blocks + offset)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fourier, "SUM_BLOCK_TERMS", block)
        _assert_blocked_sums_match_unblocked(p, width, terms, k, gap)


@pytest.mark.parametrize("terms", [1, fourier.SUM_BLOCK_TERMS - 1, fourier.SUM_BLOCK_TERMS,
                                   fourier.SUM_BLOCK_TERMS + 1,
                                   3 * fourier.SUM_BLOCK_TERMS + 5])
def test_blocked_sums_equal_unblocked_sums_at_the_block_size(terms):
    for p, width in ((0.1, 1.0), (SUBNORMAL_P, math.pi), (0.0, 0.3)):
        _assert_blocked_sums_match_unblocked(p, width, terms, 2, 0.4)


def test_closed_form_sum_memory_is_one_or_two_term_buffers():
    # unblocked, the clustering sum peaked at three and the chain sum at
    # nine arrays of N floats (24 and 72 MiB here)
    terms = 2 ** 20
    full = 8 * terms
    assert traced_peak(lambda: clustering_uniform(0.1, 1.0, tail_terms=terms)) \
        <= 1.25 * full
    assert traced_peak(lambda: chain_count_uniform(0.1, 1.0, 4.0, 3, 0.5,
                                                    tail_terms=terms)) <= 2.25 * full


# 120 widths: the sweep grid, repeats, both ends, and many beyond reach
ANTIPODAL_WIDTHS = np.concatenate([
    SWEEP_WIDTHS, np.random.default_rng(11).uniform(1e-3, math.pi, 51),
    [1e-3, 0.5, 0.5, math.pi, math.pi]])


@pytest.mark.parametrize("k", [1, 2, 3, 6, 20, 64, 127])
def test_antipodal_width_arrays_give_the_one_width_bits(k):
    widths = np.sort(ANTIPODAL_WIDTHS)
    counts = antipodal_chain_count_uniform(0.1, widths, 7.5, k)
    for index, width in enumerate(widths.tolist()):
        alone = antipodal_chain_count_uniform(0.1, width, 7.5, k)
        assert [field[index] for field in (*counts.value, *counts.normalized)] \
            == [*alone.value, *alone.normalized]


def test_antipodal_width_arrays_run_in_blocks_of_cells(monkeypatch):
    # one run of widths per recurrence while the cells fit, more runs
    # (each width's images in one of them) when they do not
    calls = []
    spline = fourier._cardinal_bspline
    monkeypatch.setattr(fourier, "_cardinal_bspline",
                        lambda order, x: calls.append(len(x)) or spline(order, x))
    widths = np.array(SWEEP_WIDTHS)
    whole = antipodal_chain_count_uniform(0.1, widths, 1.0, 20)
    assert len(calls) == 1
    monkeypatch.setattr(fourier, "MAX_TABLE_CELLS", 21 * 8)
    calls.clear()
    blocked = antipodal_chain_count_uniform(0.1, widths, 1.0, 20)
    assert len(calls) > 10 and sum(calls) == sum(
        int(fourier._antipodal_images(21, width)) for width in SWEEP_WIDTHS)
    assert all(np.array_equal(a, b) for a, b in zip((*whole.value, *whole.normalized),
                                                     (*blocked.value, *blocked.normalized)))


def test_antipodal_budget_names_the_first_refused_width_then_order():
    # k = 130 is refused only at the wider width, k = 400 at both: widths
    # come first, so k = 400 at width 0.5 is the refused pair
    with pytest.raises(CostBudgetError) as refused:
        fourier.check_antipodal_budget([130, 400], [0.5, 3.0])
    assert str(refused.value) == ("antipodal B-spline sum for k=400: cost 10291264 "
                                  "exceeds budget 2097152")
    with pytest.raises(CostBudgetError) as refused:
        fourier.check_antipodal_budget([130, 400], [3.0])
    assert "k=130" in str(refused.value)
    fourier.check_antipodal_budget([1, 20, 127], SWEEP_WIDTHS)
    fourier.check_antipodal_budget([], SWEEP_WIDTHS)


# ---------------------------------------------------------------------------
# series term budget
# ---------------------------------------------------------------------------

def _refuse_allocation(*_args, **_kwargs):
    raise AssertionError("allocated an array before the term budget check")


@pytest.mark.parametrize("terms", [fourier.MAX_SERIES_TERMS + 1, 2 ** 62])
@pytest.mark.parametrize("call", [
    lambda t: clustering_uniform(0.1, 1.0, tail_terms=t),
    lambda t: chain_count_uniform(0.1, 1.0, 4.0, 2, 0.5, tail_terms=t),
    lambda t: uniform_window_series(UniformWindow(0.1, 1.0), t),
], ids=["clustering", "chain", "window-series"])
def test_series_term_budget_refuses_before_allocating(monkeypatch, call, terms):
    monkeypatch.setattr(np, "arange", _refuse_allocation)
    with pytest.raises(CostBudgetError) as info:
        call(terms)
    assert info.value.budget == fourier.MAX_SERIES_TERMS
    assert info.value.cost == terms


def test_antipodal_count_ignores_term_budget():
    # no tail is dropped, so a huge tail_terms is accepted and unused
    huge = antipodal_chain_count_uniform(0.1, 1.0, 4.0, 2, tail_terms=2 ** 62)
    assert huge == antipodal_chain_count_uniform(0.1, 1.0, 4.0, 2)


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


def test_correction_budget_refuses_before_building_tables(monkeypatch):
    def refuse(*_args):
        raise AssertionError("built correction tables past the cost budget")

    monkeypatch.setattr(fourier, "_correction_tables", refuse)
    series = uniform_window_series(UniformWindow(0.1, 0.5), 4096)
    # order 1024 is the largest within the budget, far above the default
    assert fourier._effective_correction_order(series, 1024) == 1024
    assert (2 * fourier.DEFAULT_CORRECTION_ORDER + 1) ** 3 * 500 < \
        fourier.CORRECTION_COST_BUDGET
    for call in (
            lambda: chain_count_two(series, 20.0, 0.3, 0.0, correction_order=1025),
            lambda: clustering_from_series(series, 20.0, 2.0, mode="full",
                                           correction_order=5000)):
        with pytest.raises(CostBudgetError) as refused:
            call()
        assert refused.value.budget == fourier.CORRECTION_COST_BUDGET
    # orders past the stored series are clamped before the budget applies
    short = uniform_window_series(UniformWindow(0.1, 0.5), 64)
    assert fourier._effective_correction_order(short, 5000) == 64


@pytest.mark.parametrize("call", [
    lambda series: chain_count_two(series, 20.0, 0.3, 0.0, correction_order=-1),
    lambda series: clustering_from_series(series, 20.0, 2.0, mode="full",
                                          correction_order=-5),
], ids=["chain-count-two", "clustering-full"])
def test_negative_correction_order_is_refused(call):
    series = uniform_window_series(UniformWindow(0.1, 0.5), 64)
    with pytest.raises(ValueError, match="correction order must be non-negative"):
        call(series)


def test_one_cosine_series_type():
    import ringnet

    assert ringnet.FourierSeries is ringnet.CosineSeries is fourier.FourierSeries
    assert "CorrectionCostWarning" not in ringnet.__all__
    series = uniform_window_series(UniformWindow(0.1, 0.5), 8)
    assert isinstance(series, CosineSeries)


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

