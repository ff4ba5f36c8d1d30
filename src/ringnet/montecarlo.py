"""Sampling of the discrete random graphs behind the continuum formulas.

Nodes sit at unit spacing around a ring (or on a torus grid) and every
unordered pair is linked independently with the kernel probability at the
pair's wrapped angular distance.  This module draws such graphs
reproducibly and measures on them the quantities the analytic modules
predict: mean degree, pooled clustering, simple chain counts between two
pinned nodes, and the empirical distribution of the separation (shortest
path length minus one).  Measurements run on whole arrays.  Each triangle
is counted once, on its link from first to second node under a direction
of the links that leaves no directed triangle, by ANDing bitset rows of
forward neighbours; when every link is shorter than a third of the ring,
a row holds only the band of words that such links reach.  The rows are
laid out before any draw from the longest link the plan can make, and
each generator call's links are set into them and dropped.  Chain counts
and the separations read joined edge columns through boolean node masks.
One breadth-first search, a whole frontier per step, gives the separation
at every requested offset.

Reproducibility contract: the random value deciding a candidate pair is a
pure function of the sample seed and the pair's canonical position (offset
block times base node), realized with one counter-based bit generator per
sample whose counter skips directly to each active pair block.  The node
grid is the group Z_n1 x ... x Z_nd, and a ring is its one-axis case.  An
offset vector d and its negation -d link the same pairs, so only the
block that comes first of the two in flat mixed-radix order is drawn; in
a self-inverse block (d = -d, on a ring the half-circle offset n/2) only
the candidates whose partner is the higher node link.  So every pair is
drawn once.  Trial seeds are derived from a master seed and the trial
index alone, and all aggregation runs in trial order, so results are
identical for any thread count; the worker pool never exceeds the CPUs
available to the process.

What does not depend on the seed is worked out once per (shape, kernel)
and cached as a read-only sampling plan: the link probability and first
counter of every active offset block, the counter skips and draw sizes of
the generator calls, the per-axis coordinates of every node, and each
call's keep mask: the draws that are candidates, none past the last node
and, in a self-inverse block, only those whose partner is the higher
node.  A sample keys its Philox stream with its seed and walks the plan;
its decisions are the kept draws below their link probability.  Links
are decoded from them, and mean degrees count them without building a
link.  The plan changes no random value and no edge.

A separation histogram with ``max_sep`` 0 counts direct links, so a trial
needs only the values that decide its pinned pairs.  When the plan shows
that reading them costs fewer draws than sampling the graph, each trial
keys its stream as a sample does, skips to the counter of each pair's
value and draws up to it; the histogram is the one the sampled graphs give.

The estimators run each worker's contiguous run of trials in batches of up
to ``MAX_BATCH_DRAWS`` candidate draws.  A batch is the disjoint union of
its graphs: node i of the batch's graph t is the union node t * n + i.
Every graph still draws from its own stream, writing its values into its
row of one buffer per generator call of the plan.  Each call's links of
the whole union come out as one chunk, measured as it comes or joined,
and per-graph results are split off by node number, or by the graph's
run of links where those run in node order.  A graph's random
values, edges and measurements do not depend on the batch it is in, so
batching changes no result.  A
:class:`GraphSample` is the batch of one, its edges sorted once as integer
keys low * n + high.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import threading
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .kernels import (
    CostBudgetError,
    KernelValidationError,
    ProductKernel,
    TWO_PI,
    validate,
)

# candidate-pair draws allowed per sample before sampling refuses to run
MAX_CANDIDATE_DRAWS = 1 << 26
# cells allowed in the bitset adjacency rows of one sample, a bit each
MAX_ADJACENCY_CELLS = 1 << 28
# uniform values fetched per generator call while sampling (8 bytes each)
MAX_RUN_DRAWS = 1 << 14
# 64-bit words per gathered array of bitset rows while counting triangles
MAX_BITSET_WORDS = 1 << 16
# candidate draws (8 bytes each) of the trials sampled and measured as one
# batch: a fixed bound on a batch's memory, not a tuning option.  A batch
# of more than one trial also holds at most this many nodes (and, counting
# triangles, bitset words), so its union node numbers stay below it
MAX_BATCH_DRAWS = 1 << 16
# candidate draws that sampling a graph and searching it for direct links
# take in the time of one read of a pinned pair's value (a counter skip and
# a generator call); measured at 270 to 380 with 8 to 32 pairs a trial on
# rings of 256 and 1024 nodes
PAIR_READ_DRAWS = 256


class EstimateUndefinedError(Exception):
    """The requested estimator has an empty denominator on every sample."""


class McEstimate(NamedTuple):
    """Sample mean with its standard error over independent trials."""

    mean: float
    std_error: float
    trials: int


@dataclass(frozen=True)
class GraphSample:
    """One realized random graph on a node grid.

    ``shape`` holds the node count of each grid axis, one axis for a ring
    and more for a torus; node numbers run over the grid in flat
    mixed-radix order.  ``edges`` is the canonical pair set: an (E, 2)
    integer array, each row an unordered pair stored as (low, high), rows
    sorted lexicographically.  That representation is symmetric and
    self-loop free by construction.
    """

    shape: tuple[int, ...]
    seed: int
    edges: np.ndarray

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        _require_grid(shape)
        edges = np.asarray(self.edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must be an (E, 2) array")
        edges.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "edges", edges)

    @property
    def n(self) -> int:
        return math.prod(self.shape)

    def degrees(self) -> np.ndarray:
        """Per-node degree counts."""
        return np.bincount(self.edges.ravel(), minlength=self.n)


@dataclass(frozen=True)
class SeparationHistogram:
    """Distribution of the separation between two pinned nodes.

    ``counts[s]`` is the number of trials with separation s (a direct link
    is separation zero); the final bucket collects trials where the target
    was unreached or farther than ``max_sep``.
    """

    counts: tuple[int, ...]
    trials: int
    max_sep: int

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if len(counts) != self.max_sep + 2:
            raise ValueError("need one bucket per separation plus the unreached one")
        if sum(counts) != self.trials:
            raise ValueError("bucket counts must add up to the trial count")
        object.__setattr__(self, "counts", counts)

    def probabilities(self) -> tuple[float, ...]:
        """Bucket fractions; the unreached bucket absorbs rounding so the
        entries sum to exactly one."""
        head = [c / self.trials for c in self.counts[:-1]]
        return (*head, 1.0 - math.fsum(head))


# ---------------------------------------------------------------------------
# trial seeds and the trial pool
# ---------------------------------------------------------------------------

# the 32-bit hash constants of numpy's SeedSequence
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_step(values: np.ndarray, hash_const: int, multiplier: int):
    # one seed-sequence hash of uint32 ``values``, and the next constant
    values = values ^ np.uint32(hash_const)
    hash_const = hash_const * multiplier & _MASK32
    values = values * np.uint32(hash_const)
    return values ^ (values >> np.uint32(16)), hash_const


@functools.lru_cache(maxsize=16)
def _master_pool(master_seed: int) -> tuple:
    # the pool of SeedSequence(master_seed) and the hash constant that its
    # mixing leaves: 4 steps to fill the pool, 12 to mix it and 4 per
    # master word past the fourth
    words = max(1, -(-master_seed.bit_length() // 32))
    steps = 16 + 4 * max(0, words - 4)
    return (tuple(np.random.SeedSequence(master_seed).pool.tolist()),
            _INIT_A * pow(_MULT_A, steps, 1 << 32) & _MASK32)


def _trial_seeds(master_seed: int, indices) -> np.ndarray:
    """``trial_seed(master_seed, t)`` for every trial index t below 2**64 in
    ``indices``, as uint64 in one pass of array operations.

    The spawn key enters only the last mixing stage of
    ``SeedSequence(master_seed, spawn_key=(t,))``.  The stages before it
    see the master seed's words, padded with zero words, and a zero word
    hashes like a missing one, so they leave the pool of
    ``SeedSequence(master_seed)``.  The index's 32-bit words (one below
    2**32, else two) are mixed into copies of that pool, and the seed is
    hashed from the first two pool words.
    """
    indices = np.atleast_1d(np.asarray(indices, dtype=np.uint64))
    words, hash_const = _master_pool(operator.index(master_seed))
    pool = [np.full(indices.shape, word, dtype=np.uint32) for word in words]
    for shift in (0, 32):
        key_word = (indices >> np.uint64(shift)).astype(np.uint32)  # low 32 bits
        mixed = []
        for value in pool:
            hashed, hash_const = _hash_step(key_word, hash_const, _MULT_A)
            value = np.uint32(_MIX_MULT_L) * value - np.uint32(_MIX_MULT_R) * hashed
            mixed.append(value ^ (value >> np.uint32(16)))
        two_words = indices >> np.uint64(32) != 0
        pool = mixed if shift == 0 else [np.where(two_words, m, p) for m, p in zip(mixed, pool)]
    low, hash_const = _hash_step(pool[0], _INIT_B, _MULT_B)
    high, _ = _hash_step(pool[1], hash_const, _MULT_B)
    return low.astype(np.uint64) | high.astype(np.uint64) << np.uint64(32)


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Derived 64-bit seed of one trial, a pure function of its inputs: the
    first 64-bit word of ``SeedSequence(master_seed,
    spawn_key=(trial_index,))``, for trial indices below 2**64."""
    return int(_trial_seeds(master_seed, trial_index)[0])


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _map_runs(task, trials: int, threads: int) -> list:
    # ``task(start, stop)`` returns a list of results for the trials in
    # [start, stop); one contiguous run of trials per worker, since a
    # future per trial costs more than a whole small-graph trial
    if trials < 1:
        raise ValueError("need at least one trial")
    workers = min(threads, _available_cpus())
    if workers <= 1:
        return task(0, trials)
    # loaded only for a pool: it brings in logging and more, which a serial
    # run would pay for on every start
    from concurrent.futures import ThreadPoolExecutor

    size = -(-trials // workers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        runs = pool.map(lambda start: task(start, min(start + size, trials)),
                        range(0, trials, size))
        return [result for run in runs for result in run]


# ---------------------------------------------------------------------------
# graph sampling
# ---------------------------------------------------------------------------

@functools.cache
def _philox_key_type():
    # numpy loads np.random on first use, so the class is made on the first
    # sample rather than on every import of ringnet
    class PhiloxKey(np.random.bit_generator.ISeedSequence):
        # hands Philox its 128-bit key, two uint64 words with the sample
        # seed in the low one, as is; ``Philox(key=...)`` would first build
        # a seed sequence from operating system entropy and then discard it
        def __init__(self, words: np.ndarray):
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError("a Philox key is two 64-bit words")
            return self._words

    return PhiloxKey


class _Chunk(NamedTuple):
    # one generator call: advance the counter by ``skip``, draw ``blocks``
    # offset blocks of the plan's ``width`` values each, and link the kept
    # candidates of every block whose draw is below its link probability.
    # A candidate is a node, and its partner is the node its block's offset
    # vector leads to; the draws past the last node are not kept.  In a
    # self-inverse block (an offset vector equal to its negation) every
    # pair is a candidate twice, and only the candidate whose partner is
    # the higher node is kept
    skip: int
    blocks: int
    self_inverse: bool
    probs: np.ndarray    # (blocks, 1)
    offsets: np.ndarray  # int32 (axes, blocks): the offset vector of each block
    keep: np.ndarray     # bool (blocks, width), or (1, width) for every block alike


class _SamplingPlan(NamedTuple):
    # everything a sample of one (shape, kernel) needs that does not
    # depend on its seed; the arrays are read-only.  A ring is the torus
    # of one axis
    shape: tuple
    width: int
    chunks: tuple
    components: tuple  # per-axis int32 coordinate of every node
    # the active offset blocks in ascending order (block b holds the offset
    # vector whose flat mixed-radix index is b + 1), the first counter of
    # each, and each one's link probability
    blocks: np.ndarray
    counters: np.ndarray
    probs: np.ndarray
    # the longest link any active block can make, counted round the ring of
    # node numbers
    reach: int


def _read_only(array) -> np.ndarray:
    array = np.asarray(array)
    array.setflags(write=False)
    return array


def _require_valid(kernel):
    problems = validate(kernel)
    if problems:
        raise KernelValidationError("; ".join(problems))


def _require_grid(shape: tuple):
    if not shape or any(s < 1 for s in shape):
        raise ValueError("node grid shape must be positive in every axis")
    if math.prod(shape) < 2:
        raise ValueError("a graph needs at least two nodes")


def _require_sampleable(n: int, what: str):
    # every active offset block draws one candidate per node, so a graph
    # with more nodes than the draw budget can never be sampled; refusing
    # on n alone comes before anything of size n is allocated
    if n > MAX_CANDIDATE_DRAWS:
        raise CostBudgetError(what, n, MAX_CANDIDATE_DRAWS)


def _plan(shape: tuple, factors: tuple) -> _SamplingPlan:
    # the half-offset layout on Z_n1 x ... x Z_nd.  An offset vector and its
    # negation link the same pairs, so only the one that comes first in
    # flat order is drawn; all of those have a first component of at most
    # half its axis.  Block b owns the counters from b * stride on, so a
    # pair's random value depends only on the seed and the pair's position
    n = math.prod(shape)
    space = "ring" if len(shape) == 1 else "torus"
    _require_sampleable(n, f"candidate pairs per offset block of this {space} sample")
    # per-axis kernel values at every axis offset (on the first axis up to
    # half its length), combined into the link probability of every offset
    # vector in flat order
    grid = np.ones((1,))
    for axis, (length, factor) in enumerate(zip(shape, factors)):
        steps = np.arange(length // 2 + 1 if axis == 0 else length)
        grid = np.multiply.outer(grid, np.asarray(factor.evaluate(TWO_PI * steps / length)))
    grid = grid.reshape(-1)  # leading singleton folds away
    deltas = np.flatnonzero(grid > 0.0)
    deltas = deltas[deltas != 0]
    negated = np.ravel_multi_index([(-c) % length for c, length
                                    in zip(np.unravel_index(deltas, shape), shape)], shape)
    first = deltas <= negated
    deltas, self_inverse = deltas[first], (deltas == negated)[first]
    # a self-inverse block holds n / 2 candidate pairs, any other n
    total = int(deltas.size) * n - int(np.count_nonzero(self_inverse)) * (n // 2)
    if total > MAX_CANDIDATE_DRAWS:
        raise CostBudgetError(f"candidate pairs for this {space} sample",
                              total, MAX_CANDIDATE_DRAWS)
    stride = -(-n // 4)  # counters per block, 4 draws each
    blocks, probs = _read_only(deltas - 1), _read_only(grid[deltas])
    offsets = _read_only(np.stack(np.unravel_index(deltas, shape)).astype(np.int32))
    # Consecutive blocks of one kind are drawn together, at most
    # MAX_RUN_DRAWS values per call, and the counter skips over the blocks
    # between.  Each block takes all 4 * stride values of its counter
    # range, so the next block starts on its own first counter
    per_call = max(1, MAX_RUN_DRAWS // (4 * stride))
    breaks = np.flatnonzero((np.diff(deltas) != 1) | np.diff(self_inverse)) + 1
    bounds = [0, *breaks.tolist(), deltas.size]
    # coordinate tables for wrapped addition of an offset vector
    components = tuple(_read_only(c.astype(np.int32)) for c in
                       np.unravel_index(np.arange(n), shape))
    # the candidates of a block that are kept: every node, and no draw
    # past the last one; in a self-inverse block, the nodes whose partner
    # is the higher node
    nodes = _read_only(np.arange(4 * stride)[None, :] < n)
    chunks = []
    position = 0  # block at which the stream stands
    for run_start, run_stop in zip(bounds, bounds[1:]):
        for start in range(run_start, run_stop, per_call):
            stop = min(start + per_call, run_stop)
            keep = nodes
            if self_inverse[start]:
                count = stop - start
                hits = np.tile(np.arange(n, dtype=np.int32), count)
                partner = _partners(shape, components, offsets[:, start:stop], hits,
                                    np.repeat(np.arange(count), n))
                keep = np.zeros((count, 4 * stride), dtype=bool)
                keep[:, :n] = (hits < partner).reshape(count, n)
                keep = _read_only(keep)
            chunks.append(_Chunk(
                skip=int(blocks[start] - position) * stride,
                blocks=stop - start,
                self_inverse=bool(self_inverse[start]),
                probs=probs[start:stop, None],
                offsets=offsets[:, start:stop],
                keep=keep))
            position = int(blocks[stop - 1]) + 1
    # a link of offset vector d moves a node's number by d_i - w_i L_i on
    # each axis i of length L_i, in mixed radix, where w_i = 1 if the link
    # wraps round the axis, as it can wherever d_i > 0
    moves = np.zeros((1, deltas.size), dtype=np.int64)
    for length, delta_axis in zip(shape, offsets.astype(np.int64)):
        wrapped = np.where(delta_axis > 0, delta_axis - length, delta_axis)
        moves = np.concatenate((moves * length + delta_axis, moves * length + wrapped))
    moves = np.abs(moves)
    return _SamplingPlan(shape, 4 * stride, tuple(chunks), components, blocks,
                         _read_only(blocks * stride), probs,
                         int(np.max(np.minimum(moves, n - moves), initial=0)))


@functools.lru_cache(maxsize=16)
def _cached_plan(shape: tuple, kernel) -> _SamplingPlan:
    # a refused or invalid request raises, and lru_cache stores no result
    _require_valid(kernel)
    _require_grid(shape)
    factors = kernel.factors if isinstance(kernel, ProductKernel) else (kernel,)
    if len(factors) != len(shape):
        raise ValueError("a sample needs a kernel with one factor per grid axis")
    return _plan(shape, factors)


_PLAN_LOCK = threading.Lock()


def _sampling_plan(shape, kernel) -> _SamplingPlan:
    # trial threads share one plan; the lock keeps them from building it twice
    shape = tuple(int(s) for s in np.atleast_1d(shape))
    with _PLAN_LOCK:
        return _cached_plan(shape, kernel)


class _Batch(NamedTuple):
    # the disjoint union of ``size`` graphs of ``n`` nodes each: node i of
    # graph t is the union node t * n + i.  Each link is stored once, by
    # its lower and its higher union node, in no particular order (int32
    # when sampled: the draw budgets keep union nodes below 2**31)
    n: int
    size: int
    low: np.ndarray
    high: np.ndarray


def _wrap(values: np.ndarray, n: int) -> np.ndarray:
    # values in [0, 2 n) taken round a ring of n, in place
    return np.subtract(values, n, out=values, where=values >= n)


def _philox_streams(seeds: np.ndarray) -> list:
    # the Philox bit generator and its Generator of each seed's stream,
    # keyed with the seed as the low word
    words = np.zeros((seeds.size, 2), dtype=np.uint64)
    words[:, 0] = seeds
    streams = []
    for key in words:
        bits = np.random.Philox(_philox_key_type()(key))
        streams.append((bits, np.random.Generator(bits)))
    return streams


def _partners(shape: tuple, components: tuple, offsets: np.ndarray, nodes: np.ndarray,
              rows: np.ndarray) -> np.ndarray:
    # the partner of each node of ``nodes``, the node plus the offset vector
    # ``offsets[:, row]`` of its row wrapped axis by axis, as a flat index
    # built up from the first axis
    axes = zip(shape, components, offsets)
    length, node_axis, delta_axis = next(axes)
    partner = _wrap(node_axis[nodes] + delta_axis[rows], length)
    for length, node_axis, delta_axis in axes:
        partner *= length
        partner += _wrap(node_axis[nodes] + delta_axis[rows], length)
    return partner


def _decisions(plan: _SamplingPlan, seeds: np.ndarray):
    # per generator call of the plan, its chunk and which candidates of the
    # graphs with the given seeds link, (graphs, blocks, width): the kept
    # ones whose draw is below their block's link probability.  Each graph
    # draws from its own Philox stream as a sample alone does, writing the
    # values of each call into its row of the call's buffer
    size, width = seeds.size, plan.width
    streams = _philox_streams(seeds)
    for chunk in plan.chunks:
        draws = np.empty((size, chunk.blocks * width))
        for (bits, generator), row in zip(streams, draws):
            if chunk.skip:
                bits.advance(chunk.skip)
            generator.random(out=row)
        decided = draws.reshape(size, chunk.blocks, width) < chunk.probs
        decided &= chunk.keep
        yield chunk, decided


def _batch_links(plan: _SamplingPlan, seeds: np.ndarray):
    # the links of the graphs with the given seeds, one chunk per generator
    # call of the plan: int32 arrays of their low and high union nodes,
    # found for all graphs in one pass per call
    size, width = seeds.size, plan.width
    n = math.prod(plan.shape)
    for chunk, decided in _decisions(plan, seeds):
        # the draw count of a call stays below 2**31, as its union nodes do
        linked = np.flatnonzero(decided).astype(np.int32)
        rows = linked // width  # graph * blocks + block
        hits = linked - rows * width
        if size > 1:
            graphs = rows // chunk.blocks
            rows -= graphs * chunk.blocks
        partner = _partners(plan.shape, plan.components, chunk.offsets, hits, rows)
        low, high = np.minimum(hits, partner), np.maximum(hits, partner)
        if size > 1:  # node i of graph g is the union node g * n + i
            graphs *= n
            low, high = low + graphs, high + graphs
        yield low, high


def _sample_batch(plan: _SamplingPlan, seeds: np.ndarray) -> _Batch:
    # the links of all calls joined, for measurements that read them twice
    chunks = list(_batch_links(plan, seeds))
    return _Batch(math.prod(plan.shape), seeds.size,
                  *(_joined([chunk[end] for chunk in chunks], np.int32) for end in (0, 1)))


def _pair_blocks(plan: _SamplingPlan, source: int, targets: np.ndarray) -> tuple:
    # where _batch_links decides each pair {source, target}: the index in
    # ``plan.blocks`` of the pair's offset block (-1 if that block is
    # inactive), and the pair's column, which candidate of the block it is.
    # A pair {a, b}, a < b, is candidate a of the block of the offset vector
    # d from a to b when d comes first of d and -d in flat order (so always
    # when d is self-inverse), and candidate b of the block of -d otherwise
    low, high = np.minimum(source, targets), np.maximum(source, targets)
    delta = negated = 0
    for length, node_axis in zip(plan.shape, plan.components):
        step = (node_axis[high] - node_axis[low]) % length
        delta = delta * length + step
        negated = negated * length + (length - step) % length
    forward = delta <= negated
    offset = np.where(forward, delta, negated)
    column = np.where(forward, low, high)
    index = np.searchsorted(plan.blocks, offset - 1)
    found = index < plan.blocks.size
    found[found] = plan.blocks[index[found]] == offset[found] - 1
    return np.where(found, index, -1), column


def _pair_links(plan: _SamplingPlan, seeds: np.ndarray, source: int,
                targets: np.ndarray) -> np.ndarray:
    # whether the graph of each seed (rows) links ``source`` to each target
    # (columns), decided from the one value per pair that _batch_links
    # draws for it: each graph's stream skips to every counter that holds a
    # pair's value and draws up to that value.  A pair of an inactive block
    # never links
    index, column = _pair_blocks(plan, source, targets)
    active = index >= 0
    index, column = index[active], column[active]
    words = column % 4  # each counter gives four values
    counters, rows = np.unique(plan.counters[index] + column // 4, return_inverse=True)
    draws = np.zeros(counters.size, dtype=np.int64)
    np.maximum.at(draws, rows, words + 1)
    # after reading a counter the stream stands on the next one
    skips = counters - np.concatenate(([0], counters[:-1] + 1))
    values = np.empty((seeds.size, counters.size, 4))
    for (bits, generator), row in zip(_philox_streams(seeds), values):
        for skip, count, out in zip(skips.tolist(), draws.tolist(), row):
            bits.advance(skip)  # which also drops what the last counter left
            generator.random(out=out[:count])
    linked = np.zeros((seeds.size, targets.size), dtype=bool)
    linked[:, active] = values[:, rows, words] < plan.probs[index]
    return linked


def _joined(parts: list, dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


def _single(sample: GraphSample) -> _Batch:
    return _Batch(sample.n, 1, sample.edges[:, 0], sample.edges[:, 1])


def _canonical_edges(keys: list, n: int) -> np.ndarray:
    # a pair (low, high) has the key low * n + high, so the sorted keys are
    # the lexicographically sorted pairs
    keys = np.sort(_joined(keys, np.int64))
    low = keys // n
    return np.stack((low, keys - low * n), axis=1)


def sample_graph(shape, kernel, seed: int) -> GraphSample:
    """Draw one random graph; identical arguments give identical graphs.

    ``shape`` is a node count for the ring or a per-axis count sequence for
    a torus grid, and the kernel's factors (a product kernel's own, or the
    kernel itself) must number its axes: ``(n,)`` with a one-factor product
    kernel is the ring of ``n`` with that factor.  The seed-independent part
    of the work, the sampling plan, is built once per (shape, kernel).
    """
    plan = _sampling_plan(shape, kernel)
    batch = _sample_batch(plan, np.array([seed], dtype=np.uint64))
    return GraphSample(plan.shape, seed,
                       _canonical_edges([batch.low.astype(np.int64) * batch.n + batch.high],
                                        batch.n))


# ---------------------------------------------------------------------------
# measurements on a batch of graphs, and on one sample as a batch of one
# ---------------------------------------------------------------------------

def _bitset_rows(n: int, reach: int) -> tuple:
    # (banded, words, width, span) of the bitset rows of graphs of n nodes
    # whose links are at most ``reach`` long round the ring of node numbers:
    # ``width`` words a row, ``span`` of them ANDed per link, of the
    # ``words`` of a full row.  Refuses rows of more than
    # MAX_ADJACENCY_CELLS cells (a bit each) per graph before any exist
    words = -(-n // 64)
    # a node at most ``reach`` ahead of a lies in the ``band`` words from
    # a's own word on, counted round the ring of words; across the seam
    # the last word's 64 * words - n unused bits count too
    band = (reach + 64 * words - n) // 64 + 2
    # Banded rows: with 3 * reach < n, each link points to the end that is
    # at most ``reach`` ahead, and no triangle closes round the ring, as its
    # three links add up to less than n.  Row a holds the ``band`` words
    # from a's own word on, then ``band`` zero words; read from the word
    # that holds b, it lines up with b's row word by word.  They are used
    # when at most half as long as full rows; otherwise, for wide windows,
    # a row holds all words of the graph and a link points to its higher node
    banded = 3 * reach < n and 2 * band <= words
    width = 2 * band if banded else words
    if 64 * n * width > MAX_ADJACENCY_CELLS:
        raise CostBudgetError("bitset adjacency rows for this graph",
                              64 * n * width, MAX_ADJACENCY_CELLS)
    return banded, words, width, band if banded else words


def _triangle_counts(n: int, size: int, reach: int, links):
    # pooled numerator and denominator of each of ``size`` graphs of n
    # nodes: linked neighbour pairs and all neighbour pairs, summed over
    # nodes.  ``links`` yields (low, high) union node arrays, each link once
    # and none longer than ``reach``.  A triangle is a linked pair of
    # neighbours at each of its three corners, so the numerator is three
    # times the triangle count.  Each link is directed a -> b by an order of
    # the nodes, so that a triangle has a first, a second and a third node
    # and is counted once, on its link from first to second, as the forward
    # neighbours that a and b share, |F(a) & F(b)|.  Row a holds F(a) as
    # bits (bit j % 64 of word j // 64 stands for node j of a's graph)
    banded, words, width, span = _bitset_rows(n, reach)
    nodes = size * n
    # link a -> b is bit a * row_bits + column of the rows, with b's column
    # in a banded row counted from a's own word on, round the ring of
    # ``ring_bits`` bits; the budgets keep these numbers below 2**28, so
    # int32 chunks hold them
    row_bits, ring_bits = 64 * width, 64 * words
    rows = np.zeros(nodes * width, dtype="<u8")  # byte k of a word: its bits 8k on
    word_bits = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))  # bit j
    for low, high in links:
        if banded:
            length = high - low
            ahead = length <= reach  # else low is ahead, across the seam
            src = np.where(ahead, low, high)
            column = np.where(ahead, length, ring_bits - length)
            column += (src % n if size > 1 else src) & 63
        else:
            src, column = low, high % n if size > 1 else high
        bit = src * row_bits + column
        # every link is stored once, so no bit is set twice and adding is or-ing
        np.add.at(rows, bit >> 6, word_bits[bit & 63])
    forward = np.bitwise_count(rows.reshape(nodes, width)).sum(axis=1, dtype=np.int64)
    degrees = forward.copy()
    # the rows are read back in runs of whole nodes that end where their
    # links pass a multiple of ``per_run``, so that a run holds one block of
    # ``per_block`` links unless a node has more than half a block's
    per_block = max(1, MAX_BITSET_WORDS // span)
    per_run = max(1, per_block // 2, per_block - int(forward.max()))
    ends = np.cumsum(forward)
    bounds = np.append(np.searchsorted(ends, np.arange(0, ends[-1], per_run), side="right"),
                       nodes).tolist()
    # every word of the rows starts a record of the ``span`` words from it
    # on, so that a link's words are gathered as one record copy
    windows = np.ndarray((rows.size - span + 1,), np.dtype((np.void, 8 * span)),
                         rows, strides=(8,))
    linked = np.zeros(size, dtype=np.int64)
    row_bytes = rows.view(np.uint8)
    for start, stop in zip(bounds, bounds[1:]):
        if start == stop:
            continue
        # the set bits of rows start..stop - 1, numbered from row start's first
        block = row_bytes[8 * width * start:8 * width * stop]
        held = np.flatnonzero(block != 0)
        bits = np.flatnonzero(np.unpackbits(block[held], bitorder="little").view(bool))
        bits = (held[bits >> 3] << 3) + (bits & 7)
        src, column = np.divmod(bits, row_bits)
        src += start
        cell = (bits >> 6) + start * width  # the word of the rows that holds b
        del held, bits  # before the gathers, the largest arrays of a run
        local = src % n if size > 1 else src  # a's number in its graph
        if banded:
            column += local & -64
            _wrap(column, ring_bits)
        dst = column + (src - local) if size > 1 else column
        np.add.at(degrees, dst, 1)
        gather = cell if banded else src * width
        for first in range(0, src.size, per_block):
            part = slice(first, first + per_block)
            common = windows[gather[part]].view(rows.dtype)
            common &= windows[dst[part] * width].view(rows.dtype)
            # a block's bits number far below 2**31
            common = np.bitwise_count(common)
            if size > 1:
                # the links run in node order, so each graph's are one run
                # of the block, and so are their words
                totals = np.zeros(common.size + 1, dtype=np.int32)
                np.cumsum(common, dtype=np.int32, out=totals[1:])
                ends = np.searchsorted(src[part], np.arange(size + 1) * n)
                linked += np.diff(totals[ends * span])
            else:
                linked += int(common.sum(dtype=np.int32))
    degrees = degrees.reshape(size, n)
    return 3 * linked, np.sum(degrees * (degrees - 1) // 2, axis=1)


def _link_reach(n: int, links) -> int:
    # the longest of the links, counted round the ring of node numbers
    return max((int(np.max(np.minimum(high - low, n + low - high), initial=0))
                for low, high in links), default=0)


def _clustering_counts(sample: GraphSample) -> tuple[int, int]:
    # the edges go in views of a generator call's size, as sampled links do
    low, high = sample.edges.T
    links = [(low[start:start + MAX_RUN_DRAWS], high[start:start + MAX_RUN_DRAWS])
             for start in range(0, low.size, MAX_RUN_DRAWS)]
    linked, pairs = _triangle_counts(sample.n, 1, _link_reach(sample.n, links), links)
    return int(linked[0]), int(pairs[0])


def _reduce_clustering(counts: Iterable[tuple[int, int]]) -> McEstimate:
    counts = list(counts)
    pairs_total = sum(pairs for _, pairs in counts)
    if pairs_total == 0:
        raise EstimateUndefinedError(
            "no node with two neighbours in any sample; clustering undefined")
    mean = sum(linked for linked, _ in counts) / pairs_total
    ratios = [linked / pairs for linked, pairs in counts if pairs]
    if len(ratios) > 1:
        std_error = float(np.std(ratios, ddof=1) / math.sqrt(len(ratios)))
    else:
        std_error = 0.0
    return McEstimate(float(mean), std_error, len(counts))


def empirical_clustering(samples: Iterable[GraphSample]) -> McEstimate:
    """Pooled clustering over a stream of samples.

    The mean is the pooled ratio (all linked neighbour pairs over all
    neighbour pairs, across every node and sample); the standard error
    comes from treating each sample's own ratio as a batch.
    """
    return _reduce_clustering(_clustering_counts(s) for s in samples)


def _pinned_pair(n: int, offsets, anchor: int):
    # a graph's anchor and the node ``offset`` past it, for every offset
    offsets = np.asarray(offsets, dtype=np.int64)
    if np.any((offsets <= 0) | (offsets > n // 2)):
        raise ValueError("offset must lie in (0, n/2]")
    _require_sampleable(n, "nodes of this graph")
    return anchor % n, (anchor + offsets) % n


def _pinned_nodes(batch: _Batch, offsets, anchor: int):
    # each graph's anchor and the node ``offset`` past it, for every offset
    # (graphs x offsets), as union nodes
    source, targets = _pinned_pair(batch.n, offsets, anchor)
    first = np.arange(0, batch.size * batch.n, batch.n)
    return first + source, first[:, None] + targets


def _node_set(n: int, nodes) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[nodes] = True
    return mask


def _far_ends(batch: _Batch, nodes: np.ndarray) -> np.ndarray:
    # the far end of every link that leaves the node set ``nodes`` (a
    # boolean mask), once per link and direction: a link inside the set
    # gives both of its ends
    return np.concatenate((batch.high[nodes[batch.low]], batch.low[nodes[batch.high]]))


def _check_orders(orders):
    if not set(orders) <= {1, 2, 3}:
        raise ValueError("chain counting supports 1, 2, or 3 intermediaries")


def _chain_counts(batch: _Batch, offset: int, orders: Sequence[int],
                  anchor: int) -> np.ndarray:
    # simple chains between each graph's pinned nodes (graphs x orders)
    source, target = _pinned_nodes(batch, (offset,), anchor)
    target = target[:, 0]
    n, nodes = batch.n, batch.size * batch.n
    near_source = _node_set(nodes, _far_ends(batch, _node_set(nodes, source)))
    near_target = _node_set(nodes, _far_ends(batch, _node_set(nodes, target)))
    # a first intermediary is not the target, a last one not the source
    near_source[target] = False
    near_target[source] = False
    counts = np.empty((batch.size, len(orders)), dtype=np.int64)
    for column, k in enumerate(orders):
        if k == 1:
            middles = np.flatnonzero(near_source & near_target)
        elif k == 2:
            # a link is never a loop, so its two intermediaries differ
            middles = _far_ends(batch, near_source)
            middles = middles[near_target[middles]]
        else:
            # a middle node j with a_j links to first and b_j links to last
            # intermediaries closes a_j * b_j chains, c_j of which use a
            # single node as first and last intermediary; no chain runs
            # through an endpoint
            a, b, c = (np.bincount(_far_ends(batch, ends), minlength=nodes)
                       for ends in (near_source, near_target, near_source & near_target))
            a[source] = a[target] = 0
            c[source] = c[target] = 0
            counts[:, column] = np.sum((a * b - c).reshape(batch.size, n), axis=1)
            continue
        counts[:, column] = np.bincount(middles // n, minlength=batch.size)
    return counts


def chain_count_in_sample(sample: GraphSample, offset: int, k: int,
                          anchor: int = 0) -> int:
    """Number of simple k-intermediary chains between two pinned nodes.

    The endpoints are ``anchor`` and ``anchor + offset`` (wrapped); the
    intermediaries are pairwise distinct and avoid both endpoints.
    """
    _check_orders((k,))
    return int(_chain_counts(_single(sample), offset, (k,), anchor)[0, 0])


def _reduce_counts(values) -> McEstimate:
    values = np.asarray(values, dtype=float)
    mean = float(np.mean(values))
    if values.size > 1:
        std_error = float(np.std(values, ddof=1) / math.sqrt(values.size))
    else:
        std_error = 0.0
    return McEstimate(mean, std_error, int(values.size))


def _separation_table(batch: _Batch, offsets: Sequence[int], max_sep: int,
                      anchor: int) -> np.ndarray:
    # separation from each graph's anchor to each offset's node (graphs x
    # offsets, negative beyond max_sep) from one breadth-first search over
    # the union, a whole frontier per step, that stops once every target is
    # reached.  A step reads the edge columns through boolean node masks,
    # so no adjacency index is built
    source, targets = _pinned_nodes(batch, offsets, anchor)
    nodes = batch.size * batch.n
    distance = np.full(nodes, -1, dtype=np.int64)
    frontier = _node_set(nodes, source)
    distance[frontier] = 0
    for depth in range(1, max_sep + 2):
        frontier = _node_set(nodes, _far_ends(batch, frontier)) & (distance < 0)
        distance[frontier] = depth
        if not frontier.any() or np.all(distance[targets] >= 0):
            break
    return distance[targets] - 1


def _separations(sample: GraphSample, offsets: Sequence[int], max_sep: int,
                 anchor: int) -> list:
    # separation to each offset's node in one sample (None beyond max_sep)
    table = _separation_table(_single(sample), offsets, max_sep, anchor)
    return [sep if sep >= 0 else None for sep in table[0].tolist()]


def separation_in_sample(sample: GraphSample, offset: int, max_sep: int,
                         anchor: int = 0):
    """Separation between the pinned nodes, or None when unreached.

    Separation is the shortest path length minus one, so a direct link is
    zero.  The search stops past ``max_sep``, returning None.
    """
    return _separations(sample, (offset,), max_sep, anchor)[0]


def _reduce_separations(separations, max_sep: int) -> SeparationHistogram:
    # ``separations`` negative where the target was not reached
    separations = np.asarray(separations, dtype=np.int64)
    buckets = np.where(separations < 0, max_sep + 1, separations)
    return SeparationHistogram(tuple(np.bincount(buckets, minlength=max_sep + 2)),
                               buckets.size, max_sep)


def empirical_separation_histogram(samples: Iterable[GraphSample], offset: int,
                                   max_sep: int, anchor: int = 0) -> SeparationHistogram:
    """Histogram of the separation over a stream of samples."""
    if max_sep < 0:
        raise ValueError("max_sep must be non-negative")
    return _reduce_separations(
        [_separation_table(_single(s), (offset,), max_sep, anchor)[0, 0] for s in samples],
        max_sep)


# ---------------------------------------------------------------------------
# trial drivers (sampling and measuring fused, thread friendly)
# ---------------------------------------------------------------------------

def _run_seeds(task, cost: int, trials: int, master_seed: int,
               threads: int) -> np.ndarray:
    # ``task(seeds)`` on the trial seeds in batches of as many trials as
    # keep ``cost`` values per trial within MAX_BATCH_DRAWS, or one trial;
    # its rows (one per trial) stacked in trial order
    per_batch = max(1, MAX_BATCH_DRAWS // max(1, cost))

    def run(start, stop):
        seeds = _trial_seeds(master_seed, np.arange(start, stop))
        return [task(seeds[first:first + per_batch])
                for first in range(0, stop - start, per_batch)]

    return np.concatenate(_map_runs(run, trials, threads))


def _graph_draws(plan: _SamplingPlan) -> int:
    return plan.width * plan.blocks.size


def _run_batches(plan: _SamplingPlan, measure, trials: int, master_seed: int,
                 threads: int, row_words: int = 1) -> np.ndarray:
    # ``measure(seeds)`` on every batch of trial seeds, its rows (one per
    # graph) stacked in trial order.  A batch holds as many trials as keep
    # its draws, and its nodes times ``row_words``, within MAX_BATCH_DRAWS,
    # or one trial
    cost = max(_graph_draws(plan), math.prod(plan.shape) * row_words)
    return _run_seeds(measure, cost, trials, master_seed, threads)


def estimate_mean_degree(shape, kernel, trials: int, master_seed: int,
                         threads: int = 1) -> McEstimate:
    """Mean degree over freshly sampled trials."""
    plan = _sampling_plan(shape, kernel)
    n = math.prod(plan.shape)

    def degrees(seeds):  # each graph's links counted a call at a time
        return 2.0 * sum((np.count_nonzero(decided.reshape(seeds.size, -1), axis=1)
                          for _, decided in _decisions(plan, seeds)),
                         np.zeros(seeds.size, dtype=np.int64)) / n

    return _reduce_counts(_run_batches(plan, degrees, trials, master_seed, threads))


def estimate_clustering(shape, kernel, trials: int, master_seed: int,
                        threads: int = 1) -> McEstimate:
    """Pooled clustering over freshly sampled trials."""
    plan = _sampling_plan(shape, kernel)
    n = math.prod(plan.shape)
    # the links of a sampled graph reach no further than the plan's blocks,
    # so its rows are laid out, and refused, before any draw
    width = _bitset_rows(n, plan.reach)[2]
    counts = _run_batches(
        plan, lambda seeds: np.stack(_triangle_counts(n, seeds.size, plan.reach,
                                                      _batch_links(plan, seeds)), axis=1),
        trials, master_seed, threads, width)
    return _reduce_clustering(counts.tolist())


def estimate_chain_counts(shape, kernel, offset: int, orders: Sequence[int],
                          trials: int, master_seed: int, threads: int = 1,
                          anchor: int = 0) -> tuple[McEstimate, ...]:
    """One mean simple chain count over freshly sampled trials per number of
    intermediaries in ``orders``, all measured on the same trials.

    Each estimate equals the one a call with its order alone returns, and
    every trial graph is sampled once.
    """
    orders = tuple(orders)
    _check_orders(orders)
    plan = _sampling_plan(shape, kernel)
    table = _run_batches(
        plan, lambda seeds: _chain_counts(_sample_batch(plan, seeds), offset, orders, anchor),
        trials, master_seed, threads)
    return tuple(_reduce_counts(column) for column in table.T)


def estimate_separation_histograms(shape, kernel, offsets: Sequence[int],
                                   max_sep: int, trials: int, master_seed: int,
                                   threads: int = 1, anchor: int = 0
                                   ) -> tuple[SeparationHistogram, ...]:
    """One separation histogram over freshly sampled trials per offset, all
    measured on the same trials.

    Each histogram equals the one a call with its offset alone returns, and
    every trial graph is sampled and searched once.  With ``max_sep`` 0 the
    histogram counts direct links only; when the pinned pairs of a trial
    cost fewer draws to read than its graph (``PAIR_READ_DRAWS`` each),
    each trial reads the values that decide its pinned pairs instead.
    Those are the values its graph's sample draws for them, so the result
    is the same.
    """
    if max_sep < 0:
        raise ValueError("max_sep must be non-negative")
    offsets = tuple(offsets)
    plan = _sampling_plan(shape, kernel)
    if max_sep == 0:
        source, targets = _pinned_pair(math.prod(plan.shape), offsets, anchor)
        reads = np.count_nonzero(_pair_blocks(plan, source, targets)[0] >= 0)
        if reads * PAIR_READ_DRAWS < _graph_draws(plan):
            # a direct link is separation 0, its absence beyond max_sep
            table = _run_seeds(
                lambda seeds: _pair_links(plan, seeds, source, targets).astype(np.int64) - 1,
                4 * reads, trials, master_seed, threads)
            return tuple(_reduce_separations(column, max_sep) for column in table.T)
    table = _run_batches(
        plan, lambda seeds: _separation_table(_sample_batch(plan, seeds), offsets, max_sep,
                                              anchor),
        trials, master_seed, threads)
    return tuple(_reduce_separations(column, max_sep) for column in table.T)
