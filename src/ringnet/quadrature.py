"""Numerical quadrature and exact discrete oracles.

This module deliberately avoids the series machinery in :mod:`ringnet.fourier`
so that its results can serve as an independent cross-check.  It offers

* a periodic integrator over [-pi, pi] that splits the domain at kernel
  discontinuities (composite Gauss-Legendre panels) and switches to an
  equispaced rule when the integrand is smooth,
* chain and clustering integrals for circle and torus models, evaluated by
  nested one-dimensional quadrature so that panel edges can track the
  discontinuities introduced by shifted kernel factors, and
* exact expected chain counts on a finite ring of equally spaced nodes,
  obtained by brute-force summation over intermediate nodes.

Every nested integral runs through one batched core, :func:`_nested_integral`:
the inner integrals of all outer nodes with a nonzero factor are evaluated
together, rows with equal panel counts in batches of at most
``MAX_BATCH_POINTS`` inner points, each kernel at the nodes of its own axis
and multiplied out on the tensor grid in axis order.  The outer sum is
accumulated node by node, so values are bit for bit those of a per-point
loop.  Gauss-Legendre rules are computed once per order and process.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kernels import (CostBudgetError, TorusModel, TWO_PI, axis_mean_degree,
                      mean_degree, model_axes, wrap_angle)

DEFAULT_TOL = 1e-9
DEFAULT_TORUS_TOL = 1e-6

_GAUSS_ORDERS = (4, 8, 16, 32, 64, 128, 256, 512)
_SMOOTH_COUNTS = (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192)

# inner points evaluated together in one batch of a nested integral: a
# fixed bound on the memory of its temporaries, not a tuning option
MAX_BATCH_POINTS = 1 << 15
# breakpoints closer together than this become one panel edge
BREAK_RESOLUTION = 1e-12
# narrowest kernel feature the rules resolve.  Merged edges moved the
# clustering of a window of half-width 4.6e-11 by 1.7e-3 of its value, and
# at 4.6e-12 by more than its achieved difference; from 7e-11 on it was exact
MIN_FEATURE = 100 * BREAK_RESOLUTION
# ring size of the n-by-n link matrix behind the exact two- and
# three-intermediary counts (128 MiB at the limit)
MAX_MATRIX_NODES = 4096


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    ``achieved`` carries the best error estimate reached before giving up.
    """

    def __init__(self, message, achieved=None, evaluations=0):
        super().__init__(message)
        self.achieved = achieved
        self.evaluations = evaluations


@dataclass(frozen=True)
class IntegrationResult:
    """Value of an integral with an error estimate and evaluation count."""

    value: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class ChainCounts:
    """Expected chain counts between two ring nodes.

    ``reduced`` sums the plain product of link probabilities along the chain;
    ``with_exclusion`` additionally multiplies the non-link factors that make
    the chain the shortest connection (available for one or two
    intermediaries, ``None`` otherwise).
    """

    reduced: float
    with_exclusion: float | None


# ---------------------------------------------------------------------------
# node/weight construction
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _gauss_rule(order):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _rule_size(count, level):
    """Nodes of the rule at ``level`` with ``count`` interior breakpoints."""
    if count:
        return (count + 1) * _GAUSS_ORDERS[min(level, len(_GAUSS_ORDERS) - 1)]
    return _SMOOTH_COUNTS[min(level, len(_SMOOTH_COUNTS) - 1)]


def _inner_breaks(candidates):
    """Sorted distinct breakpoints in (-pi, pi) per row of ``candidates``, at
    the front of the row and padded with +inf, and their count per row."""
    wrapped = wrap_angle(candidates)
    inside = (wrapped > -math.pi + 1e-13) & (wrapped < math.pi - 1e-13)
    ordered = np.sort(np.where(inside, wrapped, np.inf), axis=1)
    keep = np.isfinite(ordered)
    with np.errstate(invalid="ignore"):  # inf - inf in the padding
        keep[:, 1:] &= np.diff(ordered, axis=1) > BREAK_RESOLUTION
    return np.sort(np.where(keep, ordered, np.inf), axis=1), keep.sum(axis=1)


def _derived_breaks(base, shifts):
    """Breakpoint candidates per row of ``shifts`` (R, S): every base point
    and 0, with either sign, offset by every shift of the row; none at all
    for a kernel without breakpoints."""
    column = np.asarray(shifts, dtype=float)[:, :, None]
    if not base:
        return np.empty((column.shape[0], 0))
    points = np.array([*base, 0.0])
    derived = np.concatenate([points + column, -points + column], axis=2)
    return wrap_angle(derived.reshape(column.shape[0], -1))


def _panel_rule(breaks, level):
    """Nodes and weights (R, n) over [-pi, pi] for refinement ``level``, one
    row per row of interior ``breaks`` (R, B).

    With breakpoints the rule is composite Gauss-Legendre on the panels
    between consecutive breakpoints; without any it is the equispaced
    midpoint rule, which converges spectrally for smooth periodic integrands.
    """
    rows = breaks.shape[0]
    if breaks.shape[1]:
        base_x, base_w = _gauss_rule(_GAUSS_ORDERS[min(level, len(_GAUSS_ORDERS) - 1)])
        edges = np.pad(breaks, ((0, 0), (1, 1)), constant_values=(-math.pi, math.pi))
        left, right = edges[:, :-1, None], edges[:, 1:, None]
        half = 0.5 * (right - left)
        nodes = 0.5 * (left + right) + half * base_x
        return nodes.reshape(rows, -1), (half * base_w).reshape(rows, -1)
    count = _SMOOTH_COUNTS[min(level, len(_SMOOTH_COUNTS) - 1)]
    step = TWO_PI / count
    nodes = -math.pi + step * (np.arange(count) + 0.5)
    return np.repeat(nodes[None, :], rows, axis=0), np.full((rows, count), step)


def integrate_periodic(f, breakpoints=(), tol=DEFAULT_TOL, max_evaluations=2_000_000):
    """Integrate ``f`` over one period [-pi, pi].

    Parameters
    ----------
    f : callable
        Vectorised integrand; called with an array of angles, must return an
        array of the same length.
    breakpoints : sequence of float
        Angles where the integrand is not smooth.  They are wrapped into the
        period and used as panel edges.
    tol : float
        Absolute tolerance on the result.  Refinement stops once two
        successive rules agree to within ``tol``.
    max_evaluations : int
        Budget on the total number of integrand evaluations.

    Returns
    -------
    IntegrationResult

    Raises
    ------
    QuadratureError
        If the tolerance is not reached within the evaluation budget; the
        error carries the tolerance actually achieved.
    """
    breaks, counts = _inner_breaks(np.asarray(breakpoints, dtype=float).reshape(1, -1))
    breaks = breaks[:, :counts[0]]
    # the levels whose rules fit in the evaluation budget together
    sizes = [_rule_size(counts[0], level) for level in range(len(_SMOOTH_COUNTS))]
    levels = int(np.searchsorted(np.cumsum(sizes), max_evaluations, side="right"))

    def value_at(level):
        nodes, weights = _panel_rule(breaks, level)
        return float(np.sum(weights[0] * np.asarray(f(nodes[0]), dtype=float))), nodes.size

    return _converge(value_at, tol, "periodic integral", levels)


def _outer(per_axis):
    """Row-wise outer product (G, N) of per-axis arrays (G, n_a), the first
    axis slowest, multiplied from 1.0 in axis order: bit for bit the product
    a loop over the axes forms at each point of the full grid."""
    product = np.ones((per_axis[0].shape[0], 1))
    for values in per_axis:
        product = (product[:, :, None] * values[:, None, :]).reshape(len(product), -1)
    return product


def _kernel_product(axes, ends, starts=None):
    """Product (G, N) of the per-axis kernels at the angles ``ends - starts``,
    each an array (G, n_a) or a value per axis; each kernel sees only the
    n_a angles of its own axis, not the N points of the tensor grid."""
    ends = ends if starts is None else [e - s for e, s in zip(ends, starts)]
    return _outer([kernel.evaluate(a) for (_, kernel), a in zip(axes, ends)])


def _tensor_rules(axes, shifts, level):
    """Tensor-grid rules for R rows of shifts, ``shifts[a]`` (R, S_a) per axis,
    in batches of rows with equal panel counts on every axis and at most
    ``MAX_BATCH_POINTS`` points (or one row).  Yields the row indices, the
    per-axis nodes (G, n_a) and the grid weights (G, N) of each batch."""
    per_axis = [_inner_breaks(_derived_breaks(kernel.breakpoints(), s))
                for (_, kernel), s in zip(axes, shifts)]
    counts = np.stack([axis_counts for _, axis_counts in per_axis], axis=1)
    shapes, group_of_row = np.unique(counts, axis=0, return_inverse=True)
    for group, shape in enumerate(shapes):
        members = np.flatnonzero(group_of_row.ravel() == group)
        size = math.prod(_rule_size(count, level) for count in shape)
        step = max(1, MAX_BATCH_POINTS // size)
        for start in range(0, members.size, step):
            rows = members[start:start + step]
            rules = [_panel_rule(breaks[rows, :count], level)
                     for (breaks, _), count in zip(per_axis, shape)]
            yield rows, [nodes for nodes, _ in rules], _outer([w for _, w in rules])


def _tensor_rule(axes, shifts, level):
    """Per-axis nodes (1, n_a) and grid weights (N,) for one row of shifts."""
    ((_, nodes, weights),) = _tensor_rules(axes, [np.array([s], float) for s in shifts], level)
    return nodes, weights[0]


def _nested_integral(axes, outer_shifts, outer_factor, inner_shifts, integrand,
                     level):
    """Iterated integral at one level: the outer grid sum of ``weight *
    outer_factor(x) * inner(x)``, inner(x) the integral over y of
    ``integrand(x, y)`` on panels from ``inner_shifts`` and x's coordinates.
    Both take per-axis nodes, x (G, 1) and y (G, n_a), and return (G, N)
    values on the tensor grid.  Returns the value and the points evaluated."""
    nodes, weights = _tensor_rule(axes, outer_shifts, level)
    factor = outer_factor(nodes)[0]
    live = np.flatnonzero((factor != 0.0) & (weights != 0.0))
    if not live.size:
        return 0.0, weights.size  # the outer factor vanishes at every node
    outer = [axis_nodes[0, index] for axis_nodes, index in  # (L,) per axis
             zip(nodes, np.unravel_index(live, [n.shape[1] for n in nodes]))]
    shifts = [np.column_stack([np.tile(np.asarray(fixed, dtype=float), (live.size, 1)),
                               x]) for fixed, x in zip(inner_shifts, outer)]
    inner = np.empty(live.size)
    evaluations = weights.size
    for rows, grid, grid_weights in _tensor_rules(axes, shifts, level):
        values = integrand([x[rows, None] for x in outer], grid)
        inner[rows] = np.sum(grid_weights * values, axis=1)
        evaluations += values.size
    total = 0.0
    for term in (weights[live] * factor[live] * inner).tolist():
        total += term  # one node at a time in grid order, as a per-node loop adds
    return total, evaluations


def _check_resolved(axes):
    """Refuse a kernel whose breakpoints, or a breakpoint and 0, lie within
    ``MIN_FEATURE`` of each other.  Panel edges derive from exactly these
    points, shifted, and edges closer than ``BREAK_RESOLUTION`` merge: a
    window of half-width 1e-12 has no node left inside it and would
    integrate to 0."""
    for _, kernel in axes:
        # breakpoints lie in (-pi, pi); np.sort, not np.unique, which loads
        # numpy.ma on its first call
        gaps = np.diff(np.sort([*kernel.breakpoints(), 0.0]))
        if np.any(gaps <= MIN_FEATURE):
            raise QuadratureError(
                f"a kernel feature {gaps.min():.1e} wide is below the "
                f"quadrature resolution of {MIN_FEATURE:.0e}")


def _converge(value_at, tol, label, levels=6):
    """Refine until two successive values agree to within ``tol``;
    ``value_at(level)`` returns a value and its evaluation count."""
    previous, difference, evaluations = None, math.inf, 0
    for level in range(levels):
        value, count = value_at(level)
        evaluations += count
        if previous is not None:
            difference = abs(value - previous)
            if difference <= tol:
                return IntegrationResult(value, difference, evaluations)
        previous = value
    raise QuadratureError(f"{label} did not converge to {tol:.1e}",
                          achieved=difference, evaluations=evaluations)


def _chain_integral(axes, k, gaps, with_exclusion, tol):
    _check_resolved(axes)
    if k == 1:
        # integral over x of Q(x) * Q(gap - x); the only exclusion factor for
        # one intermediary is the direct-link term the callers apply
        def value_at(level):
            nodes, weights = _tensor_rule(axes, [(0.0, g) for g in gaps], level)
            values = _kernel_product(axes, nodes) * _kernel_product(axes, gaps, nodes)
            return float(np.sum(weights * values)), values.size

        return _converge(value_at, tol, "one-intermediate chain integral")

    # Iterated integral over x, y of Q(x) Q(y-x) Q(gap-y) [1-Q(y)] [1-Q(x-gap)],
    # the bracketed factors only when exclusions are requested.  The inner
    # level runs at the same refinement level as the outer one; convergence
    # is judged on the composed value, so both resolutions double together.
    def outer_factor(x):
        factor = _kernel_product(axes, x)
        return factor * (1.0 - _kernel_product(axes, x, gaps)) if with_exclusion else factor

    def integrand(x, y):
        values = _kernel_product(axes, y, x) * _kernel_product(axes, gaps, y)
        return values * (1.0 - _kernel_product(axes, y)) if with_exclusion else values

    # the composed outer integrand changes slope wherever a moving edge of
    # the inner window crosses a fixed break, so the outer panel edges are
    # the sumset of the fixed breaks with the window edges
    outer = [_derived_breaks(kernel.breakpoints(), [[0.0, g]])[0]
             for (_, kernel), g in zip(axes, gaps)]
    return _converge(lambda level: _nested_integral(
        axes, outer, outer_factor, [(0.0, g) for g in gaps], integrand, level),
        tol, "two-intermediate chain integral")


def _triangle_integral(axes, anchor, tol):
    # iterated integral over x, y of Q(x - anchor) Q(y - x) Q(y - anchor),
    # one anchor angle per axis; inner refinement is locked to the outer
    # level, see _chain_integral for the rationale
    _check_resolved(axes)
    outer = [[a] + [a + 2.0 * b for b in kernel.breakpoints()]
             for (_, kernel), a in zip(axes, anchor)]
    return _converge(lambda level: _nested_integral(
        axes, outer, lambda x: _kernel_product(axes, x, anchor), [(a,) for a in anchor],
        lambda x, y: _kernel_product(axes, y, x) * _kernel_product(axes, y, anchor), level),
        tol, "triangle integral")


def _product_error(terms):
    """Error of the product of ``scale * result.value`` over (scale, result)
    pairs when each value may be off by its ``error_estimate``."""
    size, error = 1.0, 0.0
    for scale, result in terms:
        error = abs(scale) * (error * (abs(result.value) + result.error_estimate)
                              + size * result.error_estimate)
        size *= abs(scale * result.value)
    return error


# ---------------------------------------------------------------------------
# chain and clustering integrals
# ---------------------------------------------------------------------------

def _chain_setup(model, k, gap, tol):
    if k not in (1, 2):
        raise ValueError(f"chain quadrature supports 1 or 2 intermediaries, got {k}")
    axes = model_axes(model)
    gaps = np.atleast_1d(np.asarray(gap, dtype=float))
    if gaps.shape[0] != len(axes):
        raise ValueError(f"expected {len(axes)} gap components, got {gaps.shape[0]}")
    if tol is None:
        tol = DEFAULT_TOL if len(axes) == 1 else DEFAULT_TORUS_TOL
    return axes, gaps, tol


def chain_count_result(model, k, gap, with_exclusion=False, tol=None):
    """Expected k-intermediary chain count between nodes a fixed distance apart.

    Parameters
    ----------
    model : CircleModel or TorusModel
        Geometry and kernel.  For a torus, ``gap`` is a per-axis sequence of
        angular separations.
    k : int
        Number of intermediaries along the chain (1 or 2).
    gap : float or sequence of float
        Angular separation of the two endpoint nodes.
    with_exclusion : bool
        If true, include the non-link factors that mark the chain as the
        shortest connection: no direct link between the endpoints and, for
        two intermediaries, no skip links past either one.
    tol : float
        Absolute tolerance passed to the nested integrations; defaults to
        1e-9 for circles and 1e-6 for tori.

    Returns
    -------
    IntegrationResult
        The expected chain count; reduced values (``with_exclusion=False``)
        are plain expectations and may exceed 1.  ``error_estimate`` is the
        achieved difference of the last two refinement levels, scaled like
        the value (``R**k`` per axis, the direct-link factor).
    """
    axes, gaps, tol = _chain_setup(model, k, gap, tol)
    if with_exclusion and len(axes) > 1:
        raise ValueError("exclusion factors do not factorise over torus axes; "
                         "they are supported for circle models only")

    # the integrand factorises over the axes, so each axis is integrated on
    # its own and the results multiplied (cross-check: the *_torus_grid
    # routines evaluate the same integrals without factorising)
    value, terms = 1.0, []
    for (radius, kernel), axis_gap in zip(axes, gaps):
        integral = _chain_integral([(radius, kernel)], k, np.array([axis_gap]),
                                   with_exclusion, tol)
        terms.append((radius ** k, integral))
        value *= radius ** k * integral.value
    error = _product_error(terms)
    if with_exclusion:
        direct = _kernel_product(axes, gaps[:, None, None])[0, 0]
        value = value * (1.0 - direct)
        error = error * abs(1.0 - direct)
    return IntegrationResult(value, error, sum(r.evaluations for _, r in terms))


def chain_count_by_quadrature(model, k, gap, with_exclusion=False, tol=None):
    """The value of :func:`chain_count_result`, a float."""
    return chain_count_result(model, k, gap, with_exclusion, tol).value


def clustering_result(model, tol=None, anchor=0.0):
    """Mean clustering coefficient by direct integration.

    Integrates the product of the three link probabilities around a triangle
    with one vertex pinned at ``anchor``, divided by the squared mean degree.
    For a torus model the integral factorises over the axes; the factorised
    product is what is returned (see :func:`clustering_torus_grid` for the
    unfactorised cross-check).  ``error_estimate`` of the returned
    :class:`IntegrationResult` is the achieved difference of the triangle
    integrals, scaled like the value.
    """
    axes = model_axes(model)
    if tol is None:
        tol = DEFAULT_TOL if len(axes) == 1 else DEFAULT_TORUS_TOL
    degree = mean_degree(model)
    if degree == 0.0:
        raise ValueError("mean degree is zero; clustering is undefined")
    value, terms = 1.0, []
    for radius, kernel in axes:
        triangle = _triangle_integral([(radius, kernel)], np.array([anchor]), tol)
        axis_degree = axis_mean_degree(radius, kernel)
        terms.append((radius ** 2 / axis_degree ** 2, triangle))
        value *= radius ** 2 * triangle.value / axis_degree ** 2
    return IntegrationResult(value, _product_error(terms),
                             sum(r.evaluations for _, r in terms))


def clustering_by_quadrature(model, tol=None, anchor=0.0):
    """The value of :func:`clustering_result`, a float."""
    return clustering_result(model, tol, anchor).value


# ---------------------------------------------------------------------------
# unfactorised torus grids
# ---------------------------------------------------------------------------

def clustering_torus_grid(model, tol=DEFAULT_TORUS_TOL):
    """Clustering coefficient on a torus without factorising the integrand:
    the 2K-dimensional triangle integral on nested tensor grids over the
    triangle corners, divided by the squared mean degree.  The cross-check
    for :func:`clustering_by_quadrature`."""
    if not isinstance(model, TorusModel):
        raise TypeError("clustering_torus_grid expects a torus model")
    degree = mean_degree(model)
    if degree == 0.0:
        raise ValueError("mean degree is zero; clustering is undefined")
    integral = _triangle_integral(model_axes(model), np.zeros(model.dimension), tol)
    return float(np.prod(model.radii)) ** 2 * integral.value / degree ** 2


def chain_count_torus_grid(model, k, gaps, tol=DEFAULT_TORUS_TOL):
    """Reduced chain count on a torus by unfactorised tensor-grid quadrature:
    :func:`chain_count_by_quadrature` with ``with_exclusion=False``, on full
    K-dimensional grids, as its cross-check."""
    if not isinstance(model, TorusModel):
        raise TypeError("chain_count_torus_grid expects a torus model")
    axes, gaps, tol = _chain_setup(model, k, gaps, tol)
    integral = _chain_integral(axes, k, gaps, False, tol)
    return float(np.prod(model.radii)) ** k * integral.value


# ---------------------------------------------------------------------------
# exact discrete oracles
# ---------------------------------------------------------------------------

def discrete_mean_degree(n, kernel):
    """Exact expected degree on a ring of ``n`` equally spaced nodes."""
    if n < 2:
        raise ValueError("need at least two nodes")
    offsets = np.arange(1, n // 2 + 1)
    probabilities = np.atleast_1d(kernel.evaluate(TWO_PI * offsets / n))
    multiplicity = np.full(offsets.shape, 2.0)
    if n % 2 == 0:
        multiplicity[-1] = 1.0  # the antipodal node pairs up only once
    return float(np.sum(multiplicity * probabilities))


def discrete_chain_count(n, kernel, k, offset):
    """Exact expected chain counts between ring nodes 0 and ``offset``.

    Sums the product of link probabilities over all ordered tuples of
    distinct intermediate nodes (excluding both endpoints) on a ring of
    ``n`` equally spaced nodes.  For one or two intermediaries the variant
    with exclusion factors (no endpoint link; for two intermediaries also no
    skip links) is returned alongside; for three intermediaries only the
    reduced count is available.

    The two- and three-intermediary counts build an n-by-n matrix of link
    probabilities, so a ring above ``MAX_MATRIX_NODES`` raises
    ``CostBudgetError`` before the matrix exists.
    """
    if n < 3:
        raise ValueError("need at least three nodes")
    if not 1 <= offset < n:
        raise ValueError(f"offset must be in [1, n), got {offset}")
    if k not in (1, 2, 3):
        raise ValueError(f"supported chain lengths have 1-3 intermediaries, got {k}")
    if k >= 2 and n > MAX_MATRIX_NODES:
        raise CostBudgetError(f"link matrix nodes for k={k} chains", n,
                              MAX_MATRIX_NODES)

    indices = np.arange(n)
    ring_values = np.atleast_1d(kernel.evaluate(TWO_PI * indices / n))
    to_start = ring_values[indices % n]                    # Q(0, C)
    to_end = ring_values[(indices - offset) % n]           # Q(C, offset)
    direct = float(ring_values[offset % n])

    start = to_start.copy()
    end = to_end.copy()
    start[0] = start[offset] = 0.0
    end[0] = end[offset] = 0.0

    if k == 1:
        reduced = float(np.einsum("i,i->", start, end, optimize=False))
        return ChainCounts(reduced, (1.0 - direct) * reduced)

    # pairwise link probabilities with both endpoints and the diagonal removed
    matrix = ring_values[(indices[:, None] - indices[None, :]) % n]
    matrix[np.arange(n), np.arange(n)] = 0.0
    matrix[0, :] = matrix[:, 0] = 0.0
    matrix[offset, :] = matrix[:, offset] = 0.0

    if k == 2:
        reduced = float(np.einsum("i,ij,j->", start, matrix, end, optimize=False))
        skip_start = start * (1.0 - to_end)     # no link C1 -- end
        skip_end = end * (1.0 - to_start)       # no link start -- C2
        guarded = float(np.einsum("i,ij,j->", skip_start, matrix, skip_end,
                                  optimize=False))
        return ChainCounts(reduced, (1.0 - direct) * guarded)

    walks = float(np.einsum("i,ij,jk,k->", start, matrix, matrix, end,
                            optimize=False))
    # remove walks that revisit the first intermediate as the third one
    squared_diag = np.einsum("ij,ji->i", matrix, matrix, optimize=False)
    revisits = float(np.einsum("i,i,i->", start, end, squared_diag, optimize=False))
    return ChainCounts(walks - revisits, None)
