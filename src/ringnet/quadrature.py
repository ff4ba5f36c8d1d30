"""Numerical quadrature and exact discrete oracles.

This module deliberately avoids the series machinery in :mod:`ringnet.fourier`
so that its results can serve as an independent cross-check.  It offers

* chain and clustering integrals for circle and torus models, evaluated by
  nested one-dimensional quadrature over [-pi, pi]: composite Gauss-Legendre
  panels whose edges track the discontinuities of the shifted kernel
  factors, or an equispaced rule where the integrand is smooth, and
* exact expected chain counts on a finite ring of equally spaced nodes,
  obtained by brute-force summation over intermediate nodes.

Chain and triangle integrals run through one core that refines a set of
points (the gaps of a curve, or one gap or anchor) in lockstep, each until
it converges; per level the points share breakpoints, grouping and panel
rules.  An integrand is an ordered list of per-axis factors.  An inner
row's rule and factor values on an axis depend only on the point and the
outer node's coordinate there, so each axis builds them once per distinct
pair, named by the outer grid's own per-axis indices, in blocks of equal
panel counts and at most ``MAX_BATCH_POINTS`` nodes.  On a grid of more
than one axis a row's products vanish outside the columns where every
factor is nonzero, found once per rule block, so rows are multiplied out
only on that sub-grid, rows of one sub-grid together, in batches of at
most ``MAX_BATCH_POINTS`` points, in two reused buffers: each factor's
product over the axes in axis order, the first axis slowest, then
``((F_1 * F_2) * ...) * W`` with the weights last.  Each row is written
into zeros and summed whole on its own: every factor and weight is finite
and at least 0, so the zeros are the +0.0 the products outside would be.
Each point's outer sum runs node by node, so values are bit for bit those
of a per-point loop.  Gauss-Legendre rules are computed once per order
and process.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kernels import (CostBudgetError, TorusModel, TWO_PI, axis_mean_degree,
                      mean_degree, model_axes, wrap_angle)

DEFAULT_TOL = 1e-9
DEFAULT_TORUS_TOL = 1e-6

# the rules of the six refinement levels: Gauss-Legendre orders per panel,
# and node counts of the equispaced rule
_GAUSS_ORDERS = (4, 8, 16, 32, 64, 128)
_SMOOTH_COUNTS = (32, 64, 128, 256, 512, 1024)

# nodes of one axis's rules built together in one block, and grid points of
# the rows multiplied out together in one batch; inner rows of a curve's
# gaps stacked for one pass of rule construction: fixed bounds on the memory
# of their temporaries, not tuning options
MAX_BATCH_POINTS = 1 << 15
MAX_STACKED_ROWS = 1 << 12
# points of a curve whose outer rules one pass of rule construction builds,
# a fixed bound on the memory of their breakpoint tables
MAX_OUTER_POINTS = 1 << 8
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
        return (count + 1) * _GAUSS_ORDERS[level]
    return _SMOOTH_COUNTS[level]


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
    rows, count = breaks.shape
    if count:
        base_x, base_w = _gauss_rule(_GAUSS_ORDERS[level])
        edges = np.empty((rows, count + 2))
        edges[:, 0], edges[:, 1:-1], edges[:, -1] = -math.pi, breaks, math.pi
        left, right = edges[:, :-1, None], edges[:, 1:, None]
        half = 0.5 * (right - left)
        nodes = 0.5 * (left + right) + half * base_x
        return nodes.reshape(rows, -1), (half * base_w).reshape(rows, -1)
    count = _SMOOTH_COUNTS[level]
    step = TWO_PI / count
    nodes = -math.pi + step * (np.arange(count) + 0.5)
    return np.repeat(nodes[None, :], rows, axis=0), np.full((rows, count), step)


class _AxisRules:
    """One axis's panel rules at ``level`` for the rows of ``shifts`` (T, S),
    with per row the ``columns`` its factors see before the nodes (each an
    array (T,)).  Rows are kept in blocks of equal panel counts and at most
    ``MAX_BATCH_POINTS`` nodes (or one row): ``block`` and ``slot`` give each
    row's block and its position there."""

    def __init__(self, kernel, columns, shifts, level):
        self.kernel, self.columns, self.level = kernel, columns, level
        self.breaks, counts = _inner_breaks(_derived_breaks(kernel.breakpoints(), shifts))
        order = np.argsort(counts, kind="stable")
        edges = (np.flatnonzero(np.diff(counts[order])) + 1).tolist()
        self.members, self.counts = [], []
        for start, end in zip([0, *edges], [*edges, order.size]):
            count = int(counts[order[start]])
            step = max(1, MAX_BATCH_POINTS // _rule_size(count, level))
            for begin in range(start, end, step):
                self.members.append(order[begin:min(begin + step, end)])
                self.counts.append(count)
        self.block, self.slot = np.empty(order.size, dtype=int), np.empty(order.size, dtype=int)
        for block, rows in enumerate(self.members):
            self.block[rows], self.slot[rows] = block, np.arange(rows.size)

    def build(self, block, factors, support):
        """Nodes and weights (B, n) of the rules in ``block``, the values of
        each of ``factors(kernel, *columns, nodes)`` there, and, if
        ``support``, per rule the columns outside which some factor is 0
        (see :func:`_support`)."""
        rows = self.members[block]
        nodes, weights = _panel_rule(self.breaks[rows, :self.counts[block]], self.level)
        columns = [column[rows, None] for column in self.columns]
        values = [factor(self.kernel, *columns, nodes) for factor in factors]
        return nodes, weights, values, _support(values) if support else None


def _support(tables):
    """Per row of the factor tables (B, n), the columns [start, stop) from
    the first to the last where every table is nonzero, (B, 2): the row's
    products are 0 outside them.  (0, 0) for a row with no such column."""
    live = np.logical_and.reduce([table != 0.0 for table in tables])
    spans = np.zeros((live.shape[0], 2), dtype=np.intp)
    spans[:, 0] = np.argmax(live, axis=1)
    spans[:, 1] = live.shape[1] - np.argmax(live[:, ::-1], axis=1)
    spans[~live.any(axis=1)] = 0
    return spans


def _multiply_out(tables, slots, out):
    """Rows ``slots[a]`` of the per-axis tables (T_a, n_a) multiplied out on
    the tensor grid into ``out`` (G, N), the first axis slowest, in axis
    order: bit for bit a product from 1.0, as 1.0 * a is a."""
    if len(tables) == 1:  # mode "clip" writes into out unbuffered
        return np.take(tables[0], slots[0], axis=0, out=out, mode="clip")
    product = tables[0][slots[0]]
    for table, slot in zip(tables[1:-1], slots[1:-1]):
        product = (product[:, :, None] * table[slot][:, None, :]).reshape(len(product), -1)
    last = tables[-1][slots[-1]]
    np.multiply(product[:, :, None], last[:, None, :],
                out=out.reshape(len(product), -1, last.shape[1]))
    return out


def _grid_batches(rules, rows, factors):
    """Tensor grids of the grid rows whose rule on axis a is row ``rows[a]``
    of ``rules[a]``, grouped by their blocks, first axis first.  Each block
    is built once per group that needs it.  On more than one axis a row's
    products are 0 outside the columns of each axis where every factor is
    nonzero, so only that sub-grid is multiplied out: the rows of a group
    are ordered by their sub-grids, and the runs of :func:`_sub_grids` are
    cut into batches of at most ``MAX_BATCH_POINTS`` sub-grid points (or
    one row).  Yields per batch the grid rows, per axis the block's nodes
    (B_a, n_a), the rows' slots in it and the sub-grid's columns (a slice),
    and two reused buffers (G, M) over the sub-grid: the product of the
    ``factors`` in their order, and that of the weights."""
    keys = np.stack([r.block[i] for r, i in zip(rules, rows)])
    order = np.lexsort(keys[::-1])
    keys = keys[:, order]
    edges = (np.flatnonzero(np.any(keys[:, 1:] != keys[:, :-1], axis=0)) + 1).tolist()
    groups, capacity = [], 0
    for start, end in zip([0, *edges], [*edges, order.size]):
        blocks = keys[:, start].tolist()
        size = math.prod(_rule_size(r.counts[b], r.level) for r, b in zip(rules, blocks))
        groups.append((order[start:end], blocks))
        capacity = max(capacity, min((end - start) * size, max(MAX_BATCH_POINTS, size)))
    first, second = np.empty(capacity), np.empty(capacity)
    # a grid of one axis takes one gather per point, which cutting saves no
    # more than finding its support costs
    support = len(rules) > 1
    built = [(None, None)] * len(rules)
    for group, blocks in groups:
        for axis, block in enumerate(blocks):
            if built[axis][0] != block:
                built[axis] = (None, None)  # free the old block before the new is built
                built[axis] = (block, rules[axis].build(block, factors, support))
        nodes, weights, values, spans = zip(*[tables for _, tables in built])
        slots = [r.slot[i[group]] for r, i in zip(rules, rows)]
        if support:
            # per row the [start, stop) of each axis, all 0 for an empty sub-grid
            bounds = np.concatenate([span[slot] for span, slot in zip(spans, slots)], axis=1)
            bounds[np.any(bounds[:, 0::2] == bounds[:, 1::2], axis=1)] = 0
            ranked = np.lexsort(bounds.T[::-1])
            runs = _sub_grids(bounds[ranked])
        else:
            ranked, runs = np.arange(group.size), [(0, group.size, [0], [nodes[0].shape[1]])]
        for start, end, low, high in runs:
            columns = [slice(*span) for span in zip(low, high)]
            points = math.prod(h - l for l, h in zip(low, high))
            step = max(1, MAX_BATCH_POINTS // max(points, 1))
            for begin in range(start, end, step):
                rows_in = ranked[begin:min(begin + step, end)]
                batch_slots = [slot[rows_in] for slot in slots]
                grid = first[:rows_in.size * points].reshape(rows_in.size, points)
                spare = second[:grid.size].reshape(grid.shape)
                if points:  # else every product of the rows is 0
                    _multiply_out([v[0][:, c] for v, c in zip(values, columns)],
                                  batch_slots, grid)
                    for factor in range(1, len(factors)):
                        grid *= _multiply_out([v[factor][:, c] for v, c in zip(values, columns)],
                                              batch_slots, spare)
                    _multiply_out([w[:, c] for w, c in zip(weights, columns)], batch_slots, spare)
                yield group[rows_in], nodes, batch_slots, columns, grid, spare
        del nodes, weights, values, spans  # nor may these hold it then


def _sub_grids(bounds):
    """Runs of the sorted rows of ``bounds`` (R, 2K) that share one sub-grid:
    (start, end, low, high), the sub-grid's columns [low, high) per axis
    holding those of each row of the run.  Rows of equal bounds form a run,
    and neighbouring runs merge while rows times sub-grid points stay
    within ``MAX_BATCH_POINTS``; empty sub-grids (all bounds 0) sort first
    and merge with no other."""
    cuts = (np.flatnonzero(np.any(bounds[1:] != bounds[:-1], axis=1)) + 1).tolist()
    runs = []
    for start, end in zip([0, *cuts], [*cuts, len(bounds)]):
        low, high = bounds[start, 0::2].tolist(), bounds[start, 1::2].tolist()
        if runs and any(runs[-1][3]):
            first, _, run_low, run_high = runs[-1]
            merged = [min(a, b) for a, b in zip(low, run_low)], \
                [max(a, b) for a, b in zip(high, run_high)]
            if (end - first) * math.prod(h - l for l, h in zip(*merged)) <= MAX_BATCH_POINTS:
                runs[-1] = (first, end, *merged)
                continue
        runs.append((start, end, low, high))
    return runs


def _grid_sums(rules, rows, factors):
    """The weighted grid sums of the products of ``factors`` over the rows of
    :func:`_grid_batches`, and the points of each: the weights go on last,
    so each point is ``((F_1 * F_2) * ...) * W``.  A sub-grid is written
    into zeros and whole rows are summed, at most ``MAX_BATCH_POINTS``
    points (or one row) at a time: every factor and weight is finite and at
    least 0, so each point outside it is +0.0 as its product would be, and
    the row sums are bit for bit those of the whole grid."""
    sums, sizes = np.empty(rows[0].size), np.empty(rows[0].size, dtype=int)
    zeros = np.zeros(0)  # zero again after each use
    for batch, nodes, _, columns, grid, weights in _grid_batches(rules, rows, factors):
        shape = [n.shape[1] for n in nodes]
        size = math.prod(shape)
        sizes[batch] = size
        if grid.shape[1] == size:
            grid *= weights
            sums[batch] = np.sum(grid, axis=1)
            continue
        step = max(1, MAX_BATCH_POINTS // size)
        if zeros.size < min(step, batch.size) * size:
            zeros = np.zeros(min(step, batch.size) * size)
        for begin in range(0, batch.size, step):
            part = slice(begin, begin + step)
            count = len(batch[part])
            full = zeros[:count * size].reshape(count, *shape)
            region = full[(slice(None), *columns)]
            np.multiply(grid[part].reshape(region.shape), weights[part].reshape(region.shape),
                        out=region)
            sums[batch[part]] = np.sum(full.reshape(count, size), axis=1)
            region[...] = 0.0
    return sums, sizes


def _point_rules(axes, points, shifts, level):
    """Per axis the rules of the points whose shifts are ``shifts[a]``
    (P, S_a), one row per point, whose factors see the point's coordinate;
    built for ``MAX_OUTER_POINTS`` points at a time.  Yields the points'
    indices, their rules and, per axis, each point's row in them."""
    for start in range(0, len(points), MAX_OUTER_POINTS):
        block = np.arange(start, min(start + MAX_OUTER_POINTS, len(points)))
        rules = [_AxisRules(kernel, [points[block, axis]], s[block], level)
                 for axis, ((_, kernel), s) in enumerate(zip(axes, shifts))]
        yield block, rules, [np.arange(block.size)] * len(axes)


def _nested_integral(axes, points, outer_shifts, outer_factors, inner_shifts, inner_factors,
                     level):
    """Iterated integrals at one level per row of ``points``: the outer grid
    sum of ``weight * outer(point, x) * inner(x)``, inner(x) the integral
    over y of ``inner(point, x, y)`` on panels from the point's
    ``inner_shifts`` and x's coordinates.  Each is a product over the axes
    and over its per-axis factors ``factor(kernel, point, x)`` or
    ``factor(kernel, point, x, y)``, which see one axis's coordinates (T, 1)
    and nodes (T, n).  The inner rows of consecutive points are stacked up
    to ``MAX_STACKED_ROWS`` (or one point's rows).  Returns the values and
    the points evaluated."""
    totals, evaluations, stack, stacked = [0.0] * len(points), [0] * len(points), [], 0
    for block, rules, rows in _point_rules(axes, points, outer_shifts, level):
        for batch, nodes, slots, columns, factors, weights in _grid_batches(rules, rows,
                                                                            outer_factors):
            size = math.prod(n.shape[1] for n in nodes)
            shape = [c.stop - c.start for c in columns]
            for row, point in enumerate(block[batch].tolist()):
                evaluations[point] = size
                live = np.flatnonzero((factors[row] != 0.0) & (weights[row] != 0.0))
                if stack and stacked + live.size > MAX_STACKED_ROWS:
                    _inner_sums(axes, points, inner_shifts, inner_factors, level, stack,
                                totals, evaluations)
                    stack, stacked = [], 0
                index = np.unravel_index(live, shape)
                stack.append((point, weights[row, live] * factors[row, live],
                              [_distinct(n[s[row], c], i)
                               for n, s, c, i in zip(nodes, slots, columns, index)]))
                stacked += live.size
    _inner_sums(axes, points, inner_shifts, inner_factors, level, stack, totals, evaluations)
    return totals, evaluations


def _distinct(nodes, index):
    """The nodes of one axis that ``index`` picks, each once in axis order,
    and the position among them of every pick."""
    used = np.zeros(nodes.size, dtype=bool)
    used[index] = True
    picked = np.flatnonzero(used)
    position = np.empty(nodes.size, dtype=int)
    position[picked] = np.arange(picked.size)
    return nodes[picked], position[index]


def _inner_sums(axes, points, inner_shifts, factors, level, stack, totals, evaluations):
    """The inner integrals at the live outer nodes of the points in ``stack``,
    (point, outer terms, per axis the distinct node coordinates and each
    node's position among them) each, added up into ``totals``.  An inner
    row's rule and factor values on an axis depend only on the point and
    the node's coordinate on that axis, so each is built once per distinct
    pair."""
    count = sum(terms.size for _, terms, _ in stack)
    if not count:
        return  # the outer factors vanish at every node: each total is 0
    rules, rows = [], []
    for axis, ((_, kernel), fixed) in enumerate(zip(axes, inner_shifts)):
        coordinates, index = zip(*[picks[axis] for _, _, picks in stack])
        offsets = np.cumsum([0, *[c.size for c in coordinates]])
        owners = np.repeat([point for point, _, _ in stack], np.diff(offsets))
        coordinates = np.concatenate(coordinates)
        rules.append(_AxisRules(kernel, [points[owners, axis], coordinates],
                                np.column_stack([fixed[owners], coordinates]), level))
        rows.append(np.concatenate([i + offset for i, offset in zip(index, offsets.tolist())]))
    inner, sizes = _grid_sums(rules, rows, factors)
    start = 0
    for point, terms, _ in stack:
        end = start + terms.size
        evaluations[point] += int(sizes[start:end].sum())
        for term in (terms * inner[start:end]).tolist():
            totals[point] += term  # one node at a time in grid order, as a per-node loop adds
        start = end


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


def _converge(value_at, count, tol, label):
    """Refine ``count`` integrals in lockstep over the refinement levels, each
    until two successive values agree to within ``tol``: ``value_at(level,
    active)`` returns the values and evaluation counts of the integrals
    indexed by ``active``.  Returns per integral an IntegrationResult or its
    QuadratureError."""
    outcomes, previous = [None] * count, [None] * count
    difference, evaluations = [math.inf] * count, [0] * count
    active = list(range(count))
    for level in range(len(_GAUSS_ORDERS)):
        if not active:
            break
        for index, value, evaluated in zip(active, *value_at(level, np.array(active))):
            evaluations[index] += evaluated
            if level:  # every active integral has a value at each level so far
                difference[index] = abs(value - previous[index])
                if difference[index] <= tol:
                    outcomes[index] = IntegrationResult(value, difference[index],
                                                        evaluations[index])
            previous[index] = value
        active = [index for index in active if outcomes[index] is None]
    for index in active:
        outcomes[index] = QuadratureError(f"{label} did not converge to {tol:.1e}",
                                          achieved=difference[index],
                                          evaluations=evaluations[index])
    return outcomes


def _checked(outcome):
    """A result of :func:`_converge`, or its error raised."""
    if isinstance(outcome, QuadratureError):
        raise outcome
    return outcome


def _chain_integral(axes, k, points, with_exclusion, tol):
    # chain integrals at the per-axis gaps of each row of ``points`` (P, K)
    _check_resolved(axes)
    fixed = [np.column_stack([np.zeros(len(points)), gaps]) for gaps in points.T]
    if k == 1:
        # integral over x of Q(x) * Q(gap - x); the only exclusion factor for
        # one intermediary is the direct-link term the callers apply
        factors = [lambda kernel, gap, x: kernel.evaluate(x),
                   lambda kernel, gap, x: kernel.evaluate(gap - x)]

        def value_at(level, active):
            values, evaluations = np.empty(active.size), np.empty(active.size, dtype=int)
            for block, rules, rows in _point_rules(axes, points[active],
                                                   [s[active] for s in fixed], level):
                values[block], evaluations[block] = _grid_sums(rules, rows, factors)
            return values.tolist(), evaluations.tolist()

        return _converge(value_at, len(points), tol, "one-intermediate chain integral")

    # Iterated integral over x, y of Q(x) Q(y-x) Q(gap-y) [1-Q(y)] [1-Q(x-gap)],
    # the bracketed factors only when exclusions are requested: they are one
    # axis's, as exclusions are refused on a torus.  The inner level runs at
    # the same refinement level as the outer one; convergence is judged on
    # the composed value, so both resolutions double together.
    outer_factors = [lambda kernel, gap, x: kernel.evaluate(x)]
    inner_factors = [lambda kernel, gap, x, y: kernel.evaluate(y - x),
                     lambda kernel, gap, x, y: kernel.evaluate(gap - y)]
    if with_exclusion:
        outer_factors.append(lambda kernel, gap, x: 1.0 - kernel.evaluate(x - gap))
        inner_factors.append(lambda kernel, gap, x, y: 1.0 - kernel.evaluate(y))

    # the composed outer integrand changes slope wherever a moving edge of
    # the inner window crosses a fixed break, so the outer panel edges are
    # the sumset of the fixed breaks with the window edges
    outer = [_derived_breaks(kernel.breakpoints(), s) for (_, kernel), s in zip(axes, fixed)]
    return _converge(lambda level, active: _nested_integral(
        axes, points[active], [s[active] for s in outer], outer_factors,
        [s[active] for s in fixed], inner_factors, level),
        len(points), tol, "two-intermediate chain integral")


def _triangle_integral(axes, anchors, tol):
    # iterated integral over x, y of Q(x - anchor) Q(y - x) Q(y - anchor),
    # one anchor angle per axis in each row of ``anchors``; inner refinement
    # is locked to the outer level, see _chain_integral for the rationale
    _check_resolved(axes)
    outer = [np.column_stack([a, *(a + 2.0 * b for b in kernel.breakpoints())])
             for (_, kernel), a in zip(axes, anchors.T)]
    inner = [a[:, None] for a in anchors.T]
    return _converge(lambda level, active: _nested_integral(
        axes, anchors[active], [s[active] for s in outer],
        [lambda kernel, anchor, x: kernel.evaluate(x - anchor)], [s[active] for s in inner],
        [lambda kernel, anchor, x, y: kernel.evaluate(y - x),
         lambda kernel, anchor, x, y: kernel.evaluate(y - anchor)],
        level), len(anchors), tol, "triangle integral")


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

def _chain_setup(model, k, gaps, tol):
    if k not in (1, 2):
        raise ValueError(f"chain quadrature supports 1 or 2 intermediaries, got {k}")
    axes = model_axes(model)
    points = np.asarray(gaps, dtype=float).reshape(len(gaps), -1)
    if points.shape[1] != len(axes):
        raise ValueError(f"expected {len(axes)} gap components, got {points.shape[-1]}")
    if tol is None:
        tol = DEFAULT_TOL if len(axes) == 1 else DEFAULT_TORUS_TOL
    return axes, points, tol


def chain_count_result(model, k, gap, with_exclusion=False, tol=None):
    """Expected k-intermediary chain count between nodes a fixed distance
    apart: :func:`chain_count_curve` at the one gap ``gap``."""
    return chain_count_curve(model, k, [gap], with_exclusion, tol)[0]


def chain_count_curve(model, k, gaps, with_exclusion=False, tol=None):
    """Expected k-intermediary chain counts between nodes at each of ``gaps``.

    ``model`` is a CircleModel or a TorusModel, ``k`` the number of
    intermediaries along the chain (1 or 2) and each gap the angular
    separation of the two endpoint nodes, a per-axis sequence on a torus.
    ``with_exclusion`` includes the non-link factors that mark the chain as
    the shortest connection: no direct link between the endpoints and, for
    two intermediaries, no skip links past either one.  ``tol`` is the
    absolute tolerance of the nested integrations, by default 1e-9 for
    circles and 1e-6 for tori.

    Returns an IntegrationResult per gap, bit for bit that of the gap alone:
    the gaps share each level's rules and retire where they would stop
    alone.  Reduced values (``with_exclusion=False``) are plain expectations
    and may exceed 1.  ``error_estimate`` is the achieved difference of the
    last two refinement levels, scaled like the value (``R**k`` per axis,
    the direct-link factor).  If a gap does not converge, raises the
    QuadratureError of the first such gap in grid order.
    """
    axes, points, tol = _chain_setup(model, k, gaps, tol)
    if with_exclusion and len(axes) > 1:
        raise ValueError("exclusion factors do not factorise over torus axes; "
                         "they are supported for circle models only")

    # the integrand factorises over the axes, so each axis is integrated on
    # its own and the results multiplied (cross-check: the *_torus_grid
    # routines evaluate the same integrals without factorising)
    per_axis = [_chain_integral([axis], k, axis_gaps[:, None], with_exclusion, tol)
                for axis, axis_gaps in zip(axes, points.T)]
    # exclusions imply one axis
    direct = axes[0][1].evaluate(points[:, 0]) if with_exclusion else [None] * len(points)
    results = []
    for point_direct, integrals in zip(direct, zip(*per_axis)):
        terms = [(radius ** k, _checked(integral))
                 for (radius, _), integral in zip(axes, integrals)]
        value = math.prod(scale * integral.value for scale, integral in terms)
        error = _product_error(terms)
        if with_exclusion:
            value = value * (1.0 - point_direct)
            error = error * abs(1.0 - point_direct)
        results.append(IntegrationResult(value, error,
                                         sum(r.evaluations for _, r in terms)))
    return results


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
        (triangle,) = _triangle_integral([(radius, kernel)], np.array([[anchor]], float), tol)
        axis_degree = axis_mean_degree(radius, kernel)
        terms.append((radius ** 2 / axis_degree ** 2, _checked(triangle)))
        value *= radius ** 2 * triangle.value / axis_degree ** 2
    return IntegrationResult(value, _product_error(terms),
                             sum(r.evaluations for _, r in terms))


# ---------------------------------------------------------------------------
# unfactorised torus grids
# ---------------------------------------------------------------------------

def clustering_torus_grid(model, tol=DEFAULT_TORUS_TOL):
    """Clustering coefficient on a torus without factorising the integrand:
    the 2K-dimensional triangle integral on nested tensor grids over the
    triangle corners, divided by the squared mean degree.  The cross-check
    for :func:`clustering_result`."""
    if not isinstance(model, TorusModel):
        raise TypeError("clustering_torus_grid expects a torus model")
    degree = mean_degree(model)
    if degree == 0.0:
        raise ValueError("mean degree is zero; clustering is undefined")
    (integral,) = _triangle_integral(model_axes(model), np.zeros((1, model.dimension)), tol)
    return float(np.prod(model.radii)) ** 2 * _checked(integral).value / degree ** 2


def chain_count_torus_grid(model, k, gaps, tol=DEFAULT_TORUS_TOL):
    """Reduced chain count on a torus by unfactorised tensor-grid quadrature:
    :func:`chain_count_result` with ``with_exclusion=False``, on full
    K-dimensional grids, as its cross-check."""
    if not isinstance(model, TorusModel):
        raise TypeError("chain_count_torus_grid expects a torus model")
    axes, points, tol = _chain_setup(model, k, [gaps], tol)
    (integral,) = _chain_integral(axes, k, points, False, tol)
    return float(np.prod(model.radii)) ** k * _checked(integral).value


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
