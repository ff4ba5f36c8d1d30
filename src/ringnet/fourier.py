"""Series analytics for clustering and separation on circular spaces.

Every even 2-pi-periodic link kernel has a cosine expansion, and the
expected chain counts between two fixed nodes turn into power sums of the
expansion coefficients: a chain of k hops contributes the (k+1)-th powers.
This module builds truncated expansions, evaluates the resulting chain and
clustering formulas (with and without the non-link factors that mark a
chain as shortest), and carries explicit truncation bounds for the closed
forms of the sharp-window kernel where the infinite tail is known.  An
expansion is a ``FourierSeries``, which is the cosine kernel class
``kernels.CosineSeries`` under a second name.

The chain count to the antipode of a sharp window is summed exactly
instead: it is p N^k times the density of k+1 uniform steps on [-w, w]
wrapped onto the circle and read at pi, a finite sum of cardinal B-spline
values (the Irwin-Hall density) over the few images within reach, and
exactly 0 beyond reach, (k+1) w < pi.  The B-spline comes from the Cox-de
Boor recurrence (de Boor, J. Approx. Theory 6, 1972), whose terms are all
non-negative, so its error bound is a floating-point rounding bound.  The
work is capped by ``MAX_SPLINE_OPS``.  The truncated series for the same
count, ``chain_count_uniform`` at a gap of pi, is the independent
cross-check.

Every truncated series here holds one array entry per harmonic, so the
harmonic count is capped by ``MAX_SERIES_TERMS``; a larger request raises
``CostBudgetError`` before any array exists.

Everything here is pure arithmetic on coefficient arrays; the quadrature
module computes the same quantities by direct integration and serves as the
independent cross-check.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .kernels import (TWO_PI, CostBudgetError, DimensionError, UniformWindow,
                      axis_mean_degree)
from .kernels import CosineSeries as FourierSeries

DEFAULT_TERMS = 4096
DEFAULT_CORRECTION_ORDER = 128
DEFAULT_TAIL_TERMS = 500_000
# index triples the cubic correction tables may touch, (2 M + 1)^3 at
# correction order M: order 1024 (about 25 s for the tables) is the largest
# that runs, and a larger one raises CostBudgetError before any table exists
CORRECTION_COST_BUDGET = (2 * 1024 + 1) ** 3
# Cox-de Boor work (images times (k+1)^2) allowed for one antipodal count
MAX_SPLINE_OPS = 1 << 21
# harmonics one truncated series may hold or sum (64 MiB per float array)
MAX_SERIES_TERMS = 1 << 23
# cells in one block of a curve's table, gaps times harmonics of a
# power-sum cosine table or images times order of a B-spline recurrence: a
# fixed bound on the memory of a curve's temporaries (512 KiB), not an option
MAX_TABLE_CELLS = 1 << 16
# harmonics per block of a closed-form sum or a sharp-window series: terms
# are formed block by block into one full-length buffer, so the
# temporaries stay 128 KiB each
SUM_BLOCK_TERMS = 1 << 14
# upper bounds on sum 1/n^2 = pi^2/6 = 1.64493... and sum 1/n^3 = 1.20205...
_ZETA_TWO_BOUND = 1.645
_ZETA_THREE_BOUND = 1.2021
UNIT_ROUNDOFF = 2.0 ** -53


class UncertainValue(NamedTuple):
    """A value together with a rigorous bound on its truncation error."""

    value: float
    error_bound: float


class AntipodalChainCount(NamedTuple):
    """Chain count to the opposite point, raw and degree-normalized."""

    value: UncertainValue
    normalized: UncertainValue


# ---------------------------------------------------------------------------
# building series
# ---------------------------------------------------------------------------

def uniform_window_series(window: UniformWindow, terms: int = DEFAULT_TERMS) -> FourierSeries:
    """Closed-form expansion of a sharp window of height p and half-width w.

    The constant coefficient is p*w/pi and the n-th is p*sin(n*w)/(pi*n).
    """
    if terms < 1:
        raise ValueError("need at least one harmonic")
    _check_series_terms("sharp-window series", terms)
    coeffs = np.empty(terms + 1)
    coeffs[0] = window.p * window.half_width / np.pi
    for block, n in _harmonic_blocks(terms):
        # the tail p*sin(n*w)/(pi*n), formed in place a block at a time
        tail = coeffs[1:][block]
        np.sin(np.multiply(n, window.half_width, out=tail), out=tail)
        tail *= window.p
        tail /= np.multiply(n, np.pi, out=n)
    return FourierSeries._owning(coeffs)


# ---------------------------------------------------------------------------
# coefficient power sums
# ---------------------------------------------------------------------------

def _coeff_lookup(series: FourierSeries, index_array):
    """Coefficient at arbitrary signed indices, zero past the stored order."""
    padded = np.append(series._array, 0.0)
    return padded[np.minimum(np.abs(index_array), series.order + 1)]


def leading_brackets(series: FourierSeries, orders: Sequence[int], gap) -> list:
    """Power sums a_0^(k+1) + 2 sum a_n^(k+1) cos(n gap) for each chain order
    k of ``orders``, at a gap (floats) or a 1-D array of gaps (arrays): one
    cosine table per block of ``MAX_TABLE_CELLS`` serves every order, and
    each row is summed alone, as one order at one gap is."""
    a = series._array
    gaps = np.asarray(gap, dtype=float).reshape(-1)
    totals = [np.full(gaps.size, a[0] ** (k + 1)) for k in orders]
    if series.order:
        powers, n = [a[1:] ** (k + 1) for k in orders], np.arange(1, series.order + 1)
        block = max(1, MAX_TABLE_CELLS // series.order)
        for start in range(0, gaps.size, block):
            table = gaps[start:start + block, None] * n
            np.cos(table, out=table)
            for total, power in zip(totals, powers):
                # the last order multiplies the cosine table in place
                terms = np.multiply(table, power, out=table if power is powers[-1] else None)
                total[start:start + block] += 2.0 * np.sum(terms, axis=1)
    return [float(total[0]) for total in totals] if np.ndim(gap) == 0 else totals


@lru_cache(maxsize=8)
def _correction_tables(series: FourierSeries, correction_order: int):
    # gap-independent pieces of the quadratic and cubic correction sums,
    # cached because curve evaluation reuses them across the whole grid
    mc = correction_order
    m_idx = np.arange(-mc, mc + 1)
    m_val = _coeff_lookup(series, m_idx)
    pair = _coeff_lookup(series, m_idx[:, None] + m_idx[None, :])
    pair_weight = np.einsum("n,mn->m", m_val, pair ** 2, optimize=False)

    s_idx = np.arange(-2 * mc, 2 * mc + 1)
    shifted = s_idx[None, :] - m_idx[:, None]
    left = _coeff_lookup(series, shifted) * _coeff_lookup(series, s_idx)[None, :]
    left[np.abs(shifted) > mc] = 0.0
    right = _coeff_lookup(series, s_idx[:, None] + m_idx[None, :])
    # einsum keeps the reduction order fixed, so results do not depend on
    # how many threads the underlying BLAS would have used
    inner = np.einsum("ms,sp->mp", left, right, optimize=False)
    return m_idx, m_val, pair_weight, inner


def _correction_sums(series: FourierSeries, gaps, correction_order: int):
    """Quadratic and cubic correction sums at each of ``gaps``, in real form.

    All indices run over -correction_order..correction_order; the imaginary
    parts cancel by the evenness symmetry and are never formed.
    """
    m_idx, m_val, pair_weight, inner = _correction_tables(series, correction_order)
    for gap in gaps:
        cos_vec = m_val * np.cos(m_idx * gap)
        sin_vec = m_val * np.sin(m_idx * gap)
        double = float(np.sum(cos_vec * pair_weight))
        triple = float(np.einsum("m,mp,p->", cos_vec, inner, cos_vec, optimize=False)
                       - np.einsum("m,mp,p->", sin_vec, inner, sin_vec, optimize=False))
        yield double, triple


def _effective_correction_order(series: FourierSeries, correction_order: int) -> int:
    # indices past the stored order would multiply zero coefficients, so
    # larger requests are clamped; the sums stay active (a constant series
    # still gets its index-zero correction terms)
    mc = min(correction_order, series.order)
    cost = (2 * mc + 1) ** 3
    if cost > CORRECTION_COST_BUDGET:
        raise CostBudgetError(f"cubic correction sums at order {mc}", cost,
                              CORRECTION_COST_BUDGET)
    return mc


def _two_step_bracket(series: FourierSeries, gap, correction_order: int, bracket=None):
    # the leading power sum (``bracket`` when given), less twice the
    # quadratic correction sum plus the cubic one, like leading_brackets at
    # a gap or an array of gaps; order zero switches the corrections off
    if correction_order < 0:
        raise ValueError("correction order must be non-negative")
    gaps = np.asarray(gap, dtype=float).reshape(-1)
    bracket = np.array(leading_brackets(series, (2,), gaps)[0] if bracket is None else bracket,
                       dtype=float).reshape(-1)
    if correction_order > 0:
        mc = _effective_correction_order(series, correction_order)
        for index, (double, triple) in enumerate(_correction_sums(series, gaps, mc)):
            bracket[index] = bracket[index] - 2.0 * double + triple
    return float(bracket[0]) if np.ndim(gap) == 0 else bracket


# ---------------------------------------------------------------------------
# chain counts and clustering from a series
# ---------------------------------------------------------------------------

def chain_count_leading(series: FourierSeries, radius: float, k: int, gap,
                        bracket=None):
    """Expected k-intermediary chain count, leading order.

    The reduced expectation without any non-link factors: exact by linearity
    for the truncated kernel the series represents, and free to exceed 1.
    ``gap`` is a float, or a 1-D array of gaps for an array of counts, each
    bit for bit its one-gap count; ``chain_count_one`` and
    ``chain_count_two`` take gap arrays the same way, and all three take
    the order's power sums from :func:`leading_brackets` as ``bracket``.
    """
    if k < 1:
        raise ValueError("chain counts need at least one intermediary")
    if bracket is None:
        bracket = leading_brackets(series, (k,), gap)[0]
    return (TWO_PI * radius) ** k * bracket


def chain_count_one(series: FourierSeries, radius: float, gap, direct_prob,
                    bracket=None):
    """One-intermediary chain count with the no-direct-link factor.

    ``direct_prob`` is the kernel value at ``gap`` (one per gap), supplied
    by the caller so the series truncation never leaks into the factor.
    """
    if not np.all((0.0 <= direct_prob) & (direct_prob <= 1.0)):
        raise ValueError("direct link probability must lie in [0, 1]")
    return (1.0 - direct_prob) * chain_count_leading(series, radius, 1, gap, bracket)


def chain_count_two(series: FourierSeries, radius: float, gap, direct_prob,
                    correction_order: int = DEFAULT_CORRECTION_ORDER, bracket=None):
    """Two-intermediary chain count with all non-link factors.

    On top of the leading power sum, the no-skip factors contribute a
    quadratic double sum (entering twice, by symmetry of the two skips) and
    a cubic triple sum.  ``correction_order`` truncates those two sums; zero
    switches them off entirely, which reduces the result to the leading
    count times the no-direct-link factor, exactly.  Positive orders are
    clamped to the stored series order; a clamped order M whose tables
    would touch (2 M + 1)^3 > ``CORRECTION_COST_BUDGET`` index triples
    raises ``CostBudgetError`` before any table is built, and a negative
    order raises ``ValueError``.
    """
    if not np.all((0.0 <= direct_prob) & (direct_prob <= 1.0)):
        raise ValueError("direct link probability must lie in [0, 1]")
    bracket = _two_step_bracket(series, gap, correction_order, bracket)
    return (TWO_PI * radius) ** 2 * (1.0 - direct_prob) * bracket


def clustering_from_series(series: FourierSeries, radius: float, mean_degree: float,
                           mode: str = "leading",
                           correction_order: int = DEFAULT_CORRECTION_ORDER) -> float:
    """Mean clustering coefficient from the expansion coefficients.

    The leading mode is the cubic power sum over the squared mean degree.
    The full mode subtracts twice the quadratic correction sum and adds the
    cubic one, both at gap zero; it deliberately carries no no-direct-link
    factor, because clustering conditions on the base pair being linked
    rather than asking for a shortest chain.  The radius cancels against
    the mean degree, so the result is invariant under rescaling both.
    """
    if mean_degree <= 0.0:
        raise ValueError("mean degree must be positive to normalize clustering")
    if mode not in ("leading", "full"):
        raise ValueError(f"unknown clustering mode {mode!r}")
    bracket = _two_step_bracket(series, 0.0,
                                correction_order if mode == "full" else 0)
    return (TWO_PI * radius) ** 2 / mean_degree ** 2 * bracket


def chain_count_torus(factor_series: Sequence[FourierSeries],
                      radii: Sequence[float], k: int, gaps: Sequence[float]) -> float:
    """Leading chain count on a torus with a per-axis product kernel.

    The product structure carries over to the coefficients, so the count is
    the product of the per-axis counts; one axis degenerates to the circle
    formula.
    """
    if not (len(factor_series) == len(radii) == len(gaps)):
        raise DimensionError(
            f"got {len(factor_series)} series, {len(radii)} radii, "
            f"{len(gaps)} gap components")
    value = 1.0
    for series, radius, gap in zip(factor_series, radii, gaps):
        value *= chain_count_leading(series, radius, k, gap)
    return value


# ---------------------------------------------------------------------------
# closed forms for the sharp window
# ---------------------------------------------------------------------------

def clustering_uniform(p: float, half_width: float,
                       tail_terms: int = 1_000_000) -> UncertainValue:
    """Clustering of the sharp-window kernel by its closed-form series.

    The series is p/(pi w^2) * (w^3 + 2 sum sin(n w)^3 / n^3), summed over
    the first N = ``tail_terms`` harmonics.  Each term is evaluated without
    a power function, in this order: r = n * w, r = sin(r), r = r / n,
    cube = r * r, cube = cube * r.  The terms are formed in blocks of
    ``SUM_BLOCK_TERMS`` harmonics into one buffer of N cubes, and one
    ``np.sum`` runs over that whole buffer, so the value does not depend on
    the block size.

    The reported bound is the prefactor p/(pi w^2) times
      * the dropped tail, below 1/N^2 (twice sum_{n>N} 1/n^3);
      * the sines of the rounded arguments, each off by at most
        s_n = (n w + 8) u, which moves a cube by at most 3 s_n (1 + s_n)^2
        / n^3; summed with sum 1/n^2 < 1.645 and sum 1/n^3 < 1.2021;
      * gamma_{N+16} times (w^3 + 2 sum |cube|), covering the divide and
        the two multiplies of every term, the sum and the prefactor;
    and, outside that scaling and for p > 0, 2 ulp(0) (1 + w^3 + 2 sum |cube|)
    for a subnormal prefactor or value, whose rounding is absolute.
    Here u = 2^-53 and gamma_k = k u / (1 - k u).  At w = pi every sine
    term vanishes and the value is p.  ``tail_terms`` above
    ``MAX_SERIES_TERMS`` raises ``CostBudgetError`` before any work.
    """
    if not 0.0 < half_width <= np.pi:
        raise ValueError("window half-width must lie in (0, pi]")
    if not 0.0 <= p <= 1.0:
        raise ValueError("window height must lie in [0, 1]")
    _check_series_terms("closed-form clustering series", tail_terms)
    # the operation order below is part of the result: it reproduces the
    # pinned battery value bit for bit, so keep it when editing
    cube = np.empty(tail_terms)
    for block, n in _harmonic_blocks(tail_terms):
        ratio = n * half_width
        np.sin(ratio, out=ratio)
        np.divide(ratio, n, out=ratio)
        np.square(ratio, out=cube[block])
        cube[block] *= ratio
    partial = float(np.sum(cube))
    magnitude = float(np.sum(np.abs(cube, out=cube)))
    head = half_width ** 3
    prefactor = p / (np.pi * half_width ** 2)
    value = prefactor * (head + 2.0 * partial)
    tail = 1.0 / float(tail_terms) ** 2
    widest = (tail_terms * half_width + 8.0) * UNIT_ROUNDOFF
    sine_slack = (3.0 * (1.0 + widest) ** 2 * UNIT_ROUNDOFF
                  * (half_width * _ZETA_TWO_BOUND + 8.0 * _ZETA_THREE_BOUND))
    rounding = (_gamma(tail_terms + 16) * (head + 2.0 * magnitude)
                + 2.0 * sine_slack)
    # underflow rounds absolutely; a zero height gives an exact zero
    subnormal = 2.0 * math.ulp(0.0) * (1.0 + head + 2.0 * magnitude) if p else 0.0
    return UncertainValue(float(value), float(prefactor * (tail + rounding) + subnormal))


def clustering_tail_bound(kernel, terms: int) -> float:
    """Tail p/(pi w^2) / terms^2 of :func:`clustering_uniform`, the bound on
    the harmonics a series mode drops; 0 for a cosine kernel (exact)."""
    if not isinstance(kernel, UniformWindow):
        return 0.0
    return kernel.p / (np.pi * kernel.half_width ** 2) / terms ** 2


def chain_count_uniform(p: float, half_width: float, mean_degree: float,
                        k: int, gap: float,
                        tail_terms: int = DEFAULT_TAIL_TERMS) -> UncertainValue:
    """Leading k-intermediary chain count for the sharp window, closed form.

    Evaluates (p/pi) (N/w)^k * (w^(k+1) + 2 sum sin(n w)^(k+1) cos(n gap)
    / n^(k+1)) with an explicit tail bound of 2 / (k tail_terms^k) on the
    bracket, plus a bound on the floating-point rounding of the sines,
    cosines and the sum, which dominates where the true count is 0.
    Equals the generic power-sum route on the same kernel.  The terms and
    their rounding bounds are formed in blocks of ``SUM_BLOCK_TERMS``
    harmonics into two buffers of N entries, each summed whole.
    ``tail_terms`` above ``MAX_SERIES_TERMS`` raises ``CostBudgetError``
    before any work.
    """
    if k < 1:
        raise ValueError("chain counts need at least one intermediary")
    if not 0.0 < half_width <= np.pi:
        raise ValueError("window half-width must lie in (0, pi]")
    _check_series_terms(f"closed-form chain series for k={k}", tail_terms)
    terms = np.empty(tail_terms)
    arguments = np.empty(tail_terms)
    for block, n in _harmonic_blocks(tail_terms):
        angle = n * half_width
        sines = np.sin(angle)
        terms[block] = (sines / n) ** (k + 1) * np.cos(n * gap)
        # rounding: the sine and cosine of the rounded arguments n*w and
        # n*gap are each off by at most (n*x + 8) units of roundoff; every
        # term then compounds a few roundings, and the sum gamma_N of its
        # absolute terms
        sine_slack = (angle + 8.0) * UNIT_ROUNDOFF
        cosine_slack = (n * abs(gap) + 8.0) * UNIT_ROUNDOFF
        reach = (np.abs(sines) + sine_slack) / n
        arguments[block] = reach ** k * ((k + 1) * sine_slack / n + reach * cosine_slack)
    head = half_width ** (k + 1)
    bracket = head + 2.0 * float(np.sum(terms))
    prefactor = (p / np.pi) * (mean_degree / half_width) ** k
    tail = 2.0 / (k * float(tail_terms) ** k)
    rounding = (_gamma(tail_terms + 12)
                * (head + 2.0 * float(np.sum(np.abs(terms, out=terms))))
                + 2.0 * float(np.sum(arguments)))
    return UncertainValue(float(prefactor * bracket),
                          float(prefactor * (tail + rounding)))


def chain_tail_bound(kernel, radius: float, k: int, terms: int) -> float:
    """Tail (p/pi) (N/w)^k 2 / (k terms^k) of :func:`chain_count_uniform` at
    N = 2 R p w, the bound on the harmonics a k-intermediary series chain
    count drops; 0 for a cosine kernel (exact)."""
    if not isinstance(kernel, UniformWindow):
        return 0.0
    degree = axis_mean_degree(radius, kernel)
    prefactor = (kernel.p / np.pi) * (degree / kernel.half_width) ** k
    return prefactor * 2.0 / (k * float(terms) ** k)


def _check_series_terms(what: str, terms: int) -> None:
    if terms > MAX_SERIES_TERMS:
        raise CostBudgetError(f"harmonics of the {what}", terms, MAX_SERIES_TERMS)


def _harmonic_blocks(terms: int):
    # (slice, harmonic numbers n as floats) of consecutive blocks of
    # SUM_BLOCK_TERMS harmonics covering 1..terms
    for start in range(0, terms, SUM_BLOCK_TERMS):
        stop = min(start + SUM_BLOCK_TERMS, terms)
        yield slice(start, stop), np.arange(start + 1.0, stop + 1.0)


def _gamma(count: int) -> float:
    # Higham's gamma_n = n u / (1 - n u): the relative error of n compounded
    # roundings
    return count * UNIT_ROUNDOFF / (1.0 - count * UNIT_ROUNDOFF)


def _cardinal_bspline(order: int, x):
    """Cardinal B-spline N_order at the points ``x`` (array friendly).

    N_order is the density of a sum of ``order`` independent U(0, 1)
    variables, a piecewise polynomial on [0, order].  It is evaluated by
    the Cox-de Boor recurrence N_r(y) = (y N_{r-1}(y) + (r - y)
    N_{r-1}(y - 1)) / (r - 1), carried for every shift y = x - i at once.
    Every term is non-negative, so each level adds at most four roundings:
    the result is N_order(x) (1 + theta) with |theta| <= gamma_{4 order},
    as long as no intermediate value underflows.
    The alternating binomial sum for the same polynomial cancels
    catastrophically at high orders; this recurrence does not.
    """
    x = np.asarray(x, dtype=float)[..., None]
    shifts = np.arange(order)
    y = x - shifts
    values = ((y >= 0.0) & (y < 1.0)).astype(float)
    for r in range(2, order + 1):
        live = order - r + 1
        values = (y[..., :live] * values[..., :live]
                  + ((r + shifts[:live]) - x) * values[..., 1:live + 1]) / (r - 1)
    return values[..., 0]


def _antipodal_images(order: int, half_widths):
    # odd multiples of pi within reach at each width, both signs, as exact
    # integers in floats; the margin keeps every image whose exact argument
    # lies in the support despite rounding
    reach = np.floor(order * half_widths * (1.0 + 8.0 * UNIT_ROUNDOFF) / np.pi)
    return reach + reach % 2.0


def check_antipodal_budget(orders: Sequence[int], half_widths) -> None:
    """Refuse antipodal counts over ``MAX_SPLINE_OPS`` before any work.

    The work of one count is its images times (k+1)^2.  Raises
    ``CostBudgetError`` for the first refused pair of a half-width (outer,
    one or a 1-D array) and a chain order k of ``orders`` (inner).
    """
    widths = np.asarray(half_widths, dtype=float).reshape(-1)
    refused = np.empty((widths.size, len(orders)), dtype=bool)
    for index, k in enumerate(orders):
        refused[:, index] = _antipodal_images(k + 1, widths) > MAX_SPLINE_OPS // (k + 1) ** 2
    if refused.any():
        width, index = divmod(int(np.argmax(refused)), len(orders))
        order = orders[index] + 1
        cost = int(_antipodal_images(order, widths[width])) * order * order
        raise CostBudgetError(f"antipodal B-spline sum for k={order - 1}", cost,
                              MAX_SPLINE_OPS)


def _antipodal_densities(order: int, widths, images):
    """Image sums sum_j N_m(t_j) of m = ``order`` at each of ``widths``.

    One Cox-de Boor recurrence runs over the images of a run of widths,
    about ``MAX_TABLE_CELLS`` images times m at a time, and each width's
    images are summed alone, bit for bit as for that width by itself.
    """
    starts = np.cumsum(images) - images
    # a run: the widths whose first image falls in one block of cells
    run = starts * order // MAX_TABLE_CELLS
    cuts = [0, *(np.flatnonzero(np.diff(run)) + 1).tolist(), widths.size]
    densities = np.empty(widths.size)
    for first, last in zip(cuts, cuts[1:]):
        count = images[first:last]
        offset = starts[first:last] - starts[first]
        # the odd multiples -top, 2 - top, ..., top of each width, with
        # top = images - 1
        odd = (2 * (np.arange(count.sum()) - np.repeat(offset, count))
               - np.repeat(count - 1, count)).astype(float)
        width = np.repeat(widths[first:last], count)
        values = _cardinal_bspline(order, (np.pi * odd + order * width) / (2.0 * width))
        densities[first:last] = [np.sum(values[start:start + n])
                                 for start, n in zip(offset.tolist(), count.tolist())]
    return densities


def antipodal_chain_count_uniform(p: float, half_width, mean_degree: float,
                                  k: int,
                                  tail_terms: int = DEFAULT_TAIL_TERMS) -> AntipodalChainCount:
    """Chain count to the diametrically opposite point, sharp window, exact.

    The count is p N^k times the density of a walk of k+1 uniform steps on
    [-w, w], wrapped onto the circle and read at pi.  With m = k + 1 that
    is p N^k sum_j N_m(t_j), N_m the cardinal B-spline and
    t_j = (pi + 2 pi j + m w) / (2 w), over the images with
    |pi + 2 pi j| <= m w; beyond reach, (k+1) w < pi, the sum is empty and
    the count is exactly 0.  Also returns the count divided by pi times
    the k-th power of the mean degree, (p / pi) sum_j N_m(t_j), the
    normalization used for threshold plots.

    ``half_width`` is a float, or a 1-D array of widths for arrays in
    every field, each bit for bit its one-width count: one B-spline
    recurrence then runs over the images of many widths.

    The error bounds cover floating-point rounding in the recurrence, the
    image sum and the arguments t_j.  ``tail_terms`` is accepted for
    compatibility with the truncated series and ignored: no tail is
    dropped.  The work, images times m^2, must stay within
    ``MAX_SPLINE_OPS`` (every k up to 127 at every width); larger requests
    raise ``CostBudgetError`` before any work.
    """
    if k < 1:
        raise ValueError("chain counts need at least one intermediary")
    widths = np.asarray(half_width, dtype=float).reshape(-1)
    if not np.all((0.0 < widths) & (widths <= np.pi)):
        raise ValueError("window half-width must lie in (0, pi]")
    check_antipodal_budget([k], widths)
    order = k + 1
    images = _antipodal_images(order, widths).astype(np.int64)
    density = _antipodal_densities(order, widths, images)
    # relative rounding of the recurrence, the image sum and the prefactor,
    # plus each argument off by at most 4 m units of roundoff times the
    # Lipschitz constant 1 of N_m
    rounding = (2.0 * _gamma(4 * order + images + 4) * density
                + images * 4.0 * order * UNIT_ROUNDOFF)
    raw = p * mean_degree ** k
    normalized = p / np.pi
    fields = (raw * density, raw * rounding, normalized * density, normalized * rounding)
    if np.ndim(half_width) == 0:
        fields = [float(field[0]) for field in fields]
    return AntipodalChainCount(UncertainValue(*fields[:2]), UncertainValue(*fields[2:]))
