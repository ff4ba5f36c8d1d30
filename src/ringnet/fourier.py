"""Series analytics for clustering and separation on circular spaces.

Every even 2-pi-periodic link kernel has a cosine expansion, and the
expected chain counts between two fixed nodes turn into power sums of the
expansion coefficients: a chain of k hops contributes the (k+1)-th powers.
This module builds truncated expansions, evaluates the resulting chain and
clustering formulas (with and without the non-link factors that mark a
chain as shortest), and carries explicit truncation bounds for the closed
forms of the sharp-window kernel where the infinite tail is known.

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

Everything here is pure arithmetic on coefficient arrays; the quadrature
module computes the same quantities by direct integration and serves as the
independent cross-check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .kernels import TWO_PI, CostBudgetError, DimensionError, UniformWindow
from .quadrature import integrate_periodic

DEFAULT_TERMS = 4096
DEFAULT_CORRECTION_ORDER = 128
DEFAULT_TAIL_TERMS = 500_000
# triples touched by the cubic correction sums before a cost warning fires
CORRECTION_COST_BUDGET = 40_000_000
# Cox-de Boor work (images times (k+1)^2) allowed for one antipodal count
MAX_SPLINE_OPS = 1 << 21
UNIT_ROUNDOFF = 2.0 ** -53

CURVE_MODES = ("leading", "full", "quadrature", "mc")


class CorrectionCostWarning(Warning):
    """Cubic correction sums were requested beyond the cost budget."""


class UncertainValue(NamedTuple):
    """A value together with a rigorous bound on its truncation error."""

    value: float
    error_bound: float


class AntipodalChainCount(NamedTuple):
    """Chain count to the opposite point, raw and degree-normalized."""

    value: UncertainValue
    normalized: UncertainValue


@dataclass(frozen=True)
class FourierSeries:
    """Truncated cosine expansion of an even real periodic function.

    Only the non-negative-index coefficients are stored; the function value
    is ``coeffs[0] + 2 * sum(coeffs[n] * cos(n * phi))``.  Coefficients past
    the stored order are treated as zero everywhere in this module.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        array = np.array(self.coeffs, dtype=float)
        if array.ndim != 1:
            raise ValueError("series coefficients must be a flat sequence")
        if not array.size:
            raise ValueError("a series needs at least the constant coefficient")
        if not np.all(np.isfinite(array)):
            raise ValueError("series coefficients must be finite")
        array.setflags(write=False)
        object.__setattr__(self, "coeffs", tuple(array.tolist()))
        # the same values as an array, for the vectorised power sums
        object.__setattr__(self, "_array", array)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, angle):
        """Value of the expansion at ``angle`` (array friendly)."""
        phi = np.asarray(angle, dtype=float)
        scalar = phi.ndim == 0
        flat = np.atleast_1d(phi).ravel()
        a = self._array
        out = np.full(flat.shape, a[0])
        if self.order:
            harmonics = np.arange(1, self.order + 1)
            # blockwise so a long grid times a long series stays in memory
            for start in range(0, flat.size, 4096):
                block = flat[start:start + 4096]
                table = np.cos(block[:, None] * harmonics[None, :])
                out[start:start + 4096] += 2.0 * np.einsum(
                    "gk,k->g", table, a[1:], optimize=False)
        out = out.reshape(np.atleast_1d(phi).shape)
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class SeparationCurve:
    """Tabulated chain-count values over a grid of angular gaps.

    ``separation`` is the number of intermediaries, ``mode`` records which
    computation produced the values, and ``model_label`` describes the
    underlying space and kernel for provenance.
    """

    separation: int
    gaps: tuple[float, ...]
    values: tuple[float, ...]
    mode: str
    model_label: str
    errors: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.separation < 0:
            raise ValueError("separation must be non-negative")
        if self.mode not in CURVE_MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {CURVE_MODES}")
        gaps = tuple(float(g) for g in self.gaps)
        values = tuple(float(v) for v in self.values)
        if len(gaps) != len(values) or not gaps:
            raise ValueError("gap grid and values must be non-empty and equally long")
        if any(b <= a for a, b in zip(gaps, gaps[1:])):
            raise ValueError("gap grid must be strictly increasing")
        if not all(math.isfinite(v) for v in values):
            raise ValueError("curve values must be finite")
        errors = self.errors
        if errors is not None:
            errors = tuple(float(e) for e in errors)
            if len(errors) != len(values):
                raise ValueError("error column must match the value column")
        object.__setattr__(self, "gaps", gaps)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "errors", errors)


# ---------------------------------------------------------------------------
# building series
# ---------------------------------------------------------------------------

def uniform_window_series(window: UniformWindow, terms: int = DEFAULT_TERMS) -> FourierSeries:
    """Closed-form expansion of a sharp window of height p and half-width w.

    The constant coefficient is p*w/pi and the n-th is p*sin(n*w)/(pi*n).
    """
    if terms < 1:
        raise ValueError("need at least one harmonic")
    n = np.arange(1, terms + 1)
    head = window.p * window.half_width / np.pi
    tail = window.p * np.sin(n * window.half_width) / (np.pi * n)
    return FourierSeries(np.concatenate(([head], tail)))


def series_from_kernel(kernel, terms: int, tol: float = 1e-12) -> FourierSeries:
    """Expansion coefficients by direct integration against each harmonic.

    Works for any 1-d kernel; the integrals split at the kernel's jump
    points.  Cost grows with the harmonic index (the integrand oscillates),
    so this route is meant for moderate orders; sharp windows have the
    closed form above for large ones.
    """
    if terms < 1:
        raise ValueError("need at least one harmonic")
    breaks = kernel.breakpoints()
    coeffs = []
    for n in range(terms + 1):
        def integrand(phi, n=n):
            return kernel.evaluate(phi) * np.cos(n * phi)

        result = integrate_periodic(integrand, breakpoints=breaks, tol=tol)
        coeffs.append(result.value / TWO_PI)
    return FourierSeries(tuple(coeffs))


# ---------------------------------------------------------------------------
# coefficient power sums
# ---------------------------------------------------------------------------

def _coeff_lookup(series: FourierSeries, index_array):
    """Coefficient at arbitrary signed indices, zero past the stored order."""
    idx = np.abs(np.asarray(index_array))
    a = series._array
    out = np.zeros(idx.shape)
    inside = idx <= series.order
    out[inside] = a[idx[inside]]
    return out


def _leading_bracket(series: FourierSeries, k: int, gap: float) -> float:
    # symmetric-index power sum: a_0^(k+1) + 2 sum a_n^(k+1) cos(n gap)
    a = series._array
    total = a[0] ** (k + 1)
    if series.order:
        n = np.arange(1, series.order + 1)
        total += 2.0 * float(np.sum(a[1:] ** (k + 1) * np.cos(n * gap)))
    return float(total)


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


def _correction_sums(series: FourierSeries, gap: float, correction_order: int):
    """Quadratic and cubic correction sums at one gap, in real form.

    All indices run over -correction_order..correction_order; the imaginary
    parts cancel by the evenness symmetry and are never formed.
    """
    m_idx, m_val, pair_weight, inner = _correction_tables(series, correction_order)
    cos_vec = m_val * np.cos(m_idx * gap)
    sin_vec = m_val * np.sin(m_idx * gap)
    double = float(np.sum(cos_vec * pair_weight))
    triple = float(np.einsum("m,mp,p->", cos_vec, inner, cos_vec, optimize=False)
                   - np.einsum("m,mp,p->", sin_vec, inner, sin_vec, optimize=False))
    return double, triple


def _effective_correction_order(series: FourierSeries, correction_order: int) -> int:
    if correction_order < 0:
        raise ValueError("correction order must be non-negative")
    # indices past the stored order would multiply zero coefficients, so
    # larger requests are clamped; the sums stay active (a constant series
    # still gets its index-zero correction terms)
    mc = min(correction_order, series.order)
    cost = (2 * mc + 1) ** 3
    if cost > CORRECTION_COST_BUDGET:
        warnings.warn(
            f"cubic correction sums touch {cost} index triples, over the "
            f"budget of {CORRECTION_COST_BUDGET}; expect a slow evaluation",
            CorrectionCostWarning, stacklevel=3)
    return mc


# ---------------------------------------------------------------------------
# chain counts and clustering from a series
# ---------------------------------------------------------------------------

def chain_count_leading(series: FourierSeries, radius: float, k: int, gap: float) -> float:
    """Expected k-intermediary chain count, leading order.

    The reduced expectation without any non-link factors: exact by linearity
    for the truncated kernel the series represents, and free to exceed 1.
    """
    if k < 1:
        raise ValueError("chain counts need at least one intermediary")
    return (TWO_PI * radius) ** k * _leading_bracket(series, k, gap)


def chain_count_one(series: FourierSeries, radius: float, gap: float,
                    direct_prob: float) -> float:
    """One-intermediary chain count with the no-direct-link factor.

    ``direct_prob`` is the kernel value at ``gap``, supplied by the caller
    so the series truncation never leaks into the factor.
    """
    if not 0.0 <= direct_prob <= 1.0:
        raise ValueError("direct link probability must lie in [0, 1]")
    return (1.0 - direct_prob) * chain_count_leading(series, radius, 1, gap)


def chain_count_two(series: FourierSeries, radius: float, gap: float,
                    direct_prob: float,
                    correction_order: int = DEFAULT_CORRECTION_ORDER) -> float:
    """Two-intermediary chain count with all non-link factors.

    On top of the leading power sum, the no-skip factors contribute a
    quadratic double sum (entering twice, by symmetry of the two skips) and
    a cubic triple sum.  ``correction_order`` truncates those two sums; zero
    switches them off entirely, which reduces the result to the leading
    count times the no-direct-link factor, exactly.  Positive orders are
    clamped to the stored series order.
    """
    if not 0.0 <= direct_prob <= 1.0:
        raise ValueError("direct link probability must lie in [0, 1]")
    bracket = _leading_bracket(series, 2, gap)
    if correction_order > 0:
        mc = _effective_correction_order(series, correction_order)
        double, triple = _correction_sums(series, gap, mc)
        bracket = bracket - 2.0 * double + triple
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
    bracket = _leading_bracket(series, 2, 0.0)
    if mode == "full" and correction_order > 0:
        mc = _effective_correction_order(series, correction_order)
        double, triple = _correction_sums(series, 0.0, mc)
        bracket = bracket - 2.0 * double + triple
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

    The series is p/(pi w^2) * (w^3 + 2 sum sin(n w)^3 / n^3); the reported
    bound covers the dropped tail, which is below 1/tail_terms^2 of the
    prefactor.  At w = pi every sine term vanishes and the value is p.
    """
    if not 0.0 < half_width <= np.pi:
        raise ValueError("window half-width must lie in (0, pi]")
    if not 0.0 <= p <= 1.0:
        raise ValueError("window height must lie in [0, 1]")
    n = np.arange(1, tail_terms + 1)
    partial = float(np.sum(np.sin(n * half_width) ** 3 / n.astype(float) ** 3))
    prefactor = p / (np.pi * half_width ** 2)
    value = prefactor * (half_width ** 3 + 2.0 * partial)
    bound = prefactor / tail_terms ** 2
    return UncertainValue(float(value), float(bound))


def chain_count_uniform(p: float, half_width: float, mean_degree: float,
                        k: int, gap: float,
                        tail_terms: int = DEFAULT_TAIL_TERMS) -> UncertainValue:
    """Leading k-intermediary chain count for the sharp window, closed form.

    Evaluates (p/pi) (N/w)^k * (w^(k+1) + 2 sum sin(n w)^(k+1) cos(n gap)
    / n^(k+1)) with an explicit tail bound of 2 / (k tail_terms^k) on the
    bracket, plus a bound on the floating-point rounding of the sines,
    cosines and the sum, which dominates where the true count is 0.
    Equals the generic power-sum route on the same kernel.
    """
    if k < 1:
        raise ValueError("chain counts need at least one intermediary")
    if not 0.0 < half_width <= np.pi:
        raise ValueError("window half-width must lie in (0, pi]")
    n = np.arange(1, tail_terms + 1)
    sines = np.sin(n * half_width)
    terms = (sines / n) ** (k + 1) * np.cos(n * gap)
    head = half_width ** (k + 1)
    bracket = head + 2.0 * float(np.sum(terms))
    prefactor = (p / np.pi) * (mean_degree / half_width) ** k
    tail = 2.0 / (k * float(tail_terms) ** k)
    # rounding: the sine and cosine of the rounded arguments n*w and n*gap
    # are each off by at most (n*x + 8) units of roundoff; every term then
    # compounds a few roundings, and the sum gamma_N of its absolute terms
    sine_slack = (n * half_width + 8.0) * UNIT_ROUNDOFF
    cosine_slack = (n * abs(gap) + 8.0) * UNIT_ROUNDOFF
    reach = (np.abs(sines) + sine_slack) / n
    arguments = reach ** k * ((k + 1) * sine_slack / n + reach * cosine_slack)
    rounding = (_gamma(tail_terms + 12) * (head + 2.0 * float(np.sum(np.abs(terms))))
                + 2.0 * float(np.sum(arguments)))
    return UncertainValue(float(prefactor * bracket),
                          float(prefactor * (tail + rounding)))


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


def antipodal_chain_count_uniform(p: float, half_width: float, mean_degree: float,
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

    The error bounds cover floating-point rounding in the recurrence, the
    image sum and the arguments t_j.  ``tail_terms`` is accepted for
    compatibility with the truncated series and ignored: no tail is
    dropped.  The work, images times m^2, must stay within
    ``MAX_SPLINE_OPS`` (every k up to 127 at every width); larger requests
    raise ``CostBudgetError`` before any work.
    """
    if k < 1:
        raise ValueError("chain counts need at least one intermediary")
    if not 0.0 < half_width <= np.pi:
        raise ValueError("window half-width must lie in (0, pi]")
    order = k + 1
    # largest odd multiple of pi within reach; the margin keeps every image
    # whose exact argument lies in the support despite rounding
    top = math.floor(order * half_width * (1.0 + 8.0 * UNIT_ROUNDOFF) / np.pi)
    top -= 1 - top % 2
    images = top + 1
    cost = images * order * order
    if cost > MAX_SPLINE_OPS:
        raise CostBudgetError(f"antipodal B-spline sum for k={k}", cost,
                              MAX_SPLINE_OPS)
    odd = np.arange(-top, top + 1, 2, dtype=float)
    shifted = (np.pi * odd + order * half_width) / (2.0 * half_width)
    density = float(np.sum(_cardinal_bspline(order, shifted)))
    # relative rounding of the recurrence, the image sum and the prefactor,
    # plus each argument off by at most 4 m units of roundoff times the
    # Lipschitz constant 1 of N_m
    rounding = (2.0 * _gamma(4 * order + images + 4) * density
                + images * 4.0 * order * UNIT_ROUNDOFF)
    raw = p * mean_degree ** k
    normalized = p / np.pi
    return AntipodalChainCount(
        UncertainValue(raw * density, raw * rounding),
        UncertainValue(normalized * density, normalized * rounding))
