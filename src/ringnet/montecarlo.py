"""Sampling of the discrete random graphs behind the continuum formulas.

Nodes sit at unit spacing around a ring (or on a torus grid) and every
unordered pair is linked independently with the kernel probability at the
pair's wrapped angular distance.  This module draws such graphs
reproducibly and measures on them the quantities the analytic modules
predict: mean degree, pooled clustering, simple chain counts between two
pinned nodes, and the empirical distribution of the separation (shortest
path length minus one).  Measurements run on whole arrays: triangles are
counted on bitset adjacency rows, and one breadth-first search per trial,
a whole frontier per step, gives the separation at every requested offset.

Reproducibility contract: the random value deciding a candidate pair is a
pure function of the sample seed and the pair's canonical position (offset
block times base node), realized with one counter-based bit generator per
sample whose counter skips directly to each active pair block.  Trial
seeds are derived from a master seed and the trial index alone, and all
aggregation runs in trial order, so results are identical for any thread
count; the worker pool never exceeds the CPUs available to the process.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
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
# cells allowed in a transient adjacency matrix (a byte each when dense,
# a bit each when packed into bitset rows)
MAX_ADJACENCY_CELLS = 1 << 28
# index operations allowed in one three-intermediary chain count
MAX_CHAIN_OPS = 1 << 32
# uniform values fetched per generator call while sampling (8 bytes each)
MAX_RUN_DRAWS = 1 << 14
# 64-bit words per gathered array of bitset rows while counting triangles
MAX_BITSET_WORDS = 1 << 16


class EstimateUndefinedError(Exception):
    """The requested estimator has an empty denominator on every sample."""


class McEstimate(NamedTuple):
    """Sample mean with its standard error over independent trials."""

    mean: float
    std_error: float
    trials: int


@dataclass(frozen=True)
class GraphSample:
    """One realized random graph on ring- or torus-positioned nodes.

    ``edges`` is the canonical pair set: an (E, 2) integer array, each row
    an unordered pair stored as (low, high), rows sorted lexicographically.
    That representation is symmetric and self-loop free by construction.
    """

    shape: tuple[int, ...]
    seed: int
    edges: np.ndarray

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        if not shape or any(s < 1 for s in shape):
            raise ValueError("node grid shape must be positive in every axis")
        if math.prod(shape) < 2:
            raise ValueError("a graph needs at least two nodes")
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


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Derived 64-bit seed of one trial, a pure function of its inputs."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(trial_index,))
    return int(seq.generate_state(1, np.uint64)[0])


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def run_trials(worker, trials: int, master_seed: int, threads: int = 1) -> list:
    """Run ``worker(seed)`` once per trial and collect results in trial order.

    The per-trial seeds come from :func:`trial_seed`, and the ordered merge
    makes the output independent of the thread count.  The pool never has
    more workers than the CPUs this process may run on.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    seeds = [trial_seed(master_seed, t) for t in range(trials)]
    workers = min(threads, _available_cpus())
    if workers <= 1:
        return [worker(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, seeds))


# ---------------------------------------------------------------------------
# graph sampling
# ---------------------------------------------------------------------------

def _block_runs(seed: int, blocks: np.ndarray, stride: int):
    # uniform draws for the ascending offset blocks ``blocks``, all from one
    # counter-based stream per sample.  Block b owns the counters from
    # b * stride on, so a pair's random value depends only on the seed and
    # the pair's canonical index.  Consecutive blocks are drawn together,
    # at most MAX_RUN_DRAWS values per call, and the counter skips over
    # inactive blocks.  Each block takes all 4 * stride values of its
    # counter range, so the next block starts on its own first counter.
    # Yields (run blocks, draws of shape (run, 4 * stride)).
    width = 4 * stride
    per_call = max(1, MAX_RUN_DRAWS // width)
    bits = np.random.Philox(key=np.uint64(seed))
    generator = np.random.Generator(bits)
    position = 0  # block at which the stream stands
    bounds = [0, *(np.nonzero(np.diff(blocks) != 1)[0] + 1).tolist(), blocks.size]
    for run_start, run_stop in zip(bounds, bounds[1:]):
        for start in range(run_start, run_stop, per_call):
            chunk = blocks[start:min(start + per_call, run_stop)]
            if chunk[0] != position:
                bits.advance(int(chunk[0] - position) * stride)
            draws = generator.random(chunk.size * width)
            position = int(chunk[-1]) + 1
            yield chunk, draws.reshape(chunk.size, width)


def _require_valid(kernel):
    problems = validate(kernel)
    if problems:
        raise KernelValidationError("; ".join(problems))


def _canonical_sample(shape, seed: int, pieces: list) -> GraphSample:
    edges = np.concatenate(pieces) if pieces else np.empty((0, 2), dtype=np.int64)
    return GraphSample(shape, seed, edges[np.lexsort((edges[:, 1], edges[:, 0]))])


def _require_sampleable(n: int, what: str):
    # every active offset block draws one candidate per node, so a graph
    # with more nodes than the draw budget can never be sampled; refusing
    # on n alone comes before anything of size n is allocated
    if n > MAX_CANDIDATE_DRAWS:
        raise CostBudgetError(what, n, MAX_CANDIDATE_DRAWS)


def _sample_ring(n: int, kernel, seed: int) -> GraphSample:
    _require_sampleable(n, "candidate pairs per offset block of this ring sample")
    offsets = np.arange(1, n // 2 + 1)
    probs = np.asarray(kernel.evaluate(TWO_PI * offsets / n))
    counts = np.where(2 * offsets == n, n // 2, n)
    active = probs > 0.0
    total = int(np.sum(counts[active]))
    if total > MAX_CANDIDATE_DRAWS:
        raise CostBudgetError("candidate pairs for this ring sample",
                              total, MAX_CANDIDATE_DRAWS)
    # counter stride per block, in 4-draw counter units
    stride = -(-n // 4)
    pieces = []
    for blocks, draws in _block_runs(seed, np.nonzero(active)[0], stride):
        rows, hits = np.nonzero(draws[:, :n] < probs[blocks, None])
        # the half-circle block holds only n/2 candidates
        keep = hits < counts[blocks][rows]
        rows, hits = rows[keep], hits[keep]
        if hits.size:
            partner = (hits + offsets[blocks][rows]) % n
            pieces.append(np.sort(np.stack([hits, partner], axis=1), axis=1))
    return _canonical_sample((n,), seed, pieces)


def _sample_torus(shape: Sequence[int], kernel: ProductKernel, seed: int) -> GraphSample:
    shape = tuple(int(s) for s in shape)
    total_nodes = math.prod(shape)
    _require_sampleable(total_nodes,
                        "candidate pairs per offset block of this torus sample")
    # per-axis kernel values at every axis offset, combined into the link
    # probability of every offset vector (flattened mixed-radix order)
    grid = np.ones((1,))
    for length, factor in zip(shape, kernel.factors):
        values = np.asarray(factor.evaluate(TWO_PI * np.arange(length) / length))
        grid = np.multiply.outer(grid, values)
    delta_probs = grid.reshape(-1)  # leading singleton folds away
    active_deltas = np.nonzero(delta_probs > 0.0)[0]
    active_deltas = active_deltas[active_deltas != 0]
    total = int(active_deltas.size) * total_nodes
    if total > MAX_CANDIDATE_DRAWS:
        raise CostBudgetError("candidate pairs for this torus sample",
                              total, MAX_CANDIDATE_DRAWS)
    # component tables for vectorized wrapped addition of an offset vector
    components = np.unravel_index(np.arange(total_nodes), shape)
    stride = -(-total_nodes // 4)
    pieces = []
    for blocks, draws in _block_runs(seed, active_deltas - 1, stride):
        deltas = blocks + 1
        rows, hits = np.nonzero(draws[:, :total_nodes] < delta_probs[deltas, None])
        if not hits.size:
            continue
        delta_components = np.unravel_index(deltas[rows], shape)
        shifted = [(components[axis][hits] + delta_components[axis]) % shape[axis]
                   for axis in range(len(shape))]
        partner = np.ravel_multi_index(shifted, shape)
        # each unordered pair shows up under an offset and its negation;
        # keeping source < partner picks exactly one of the two
        keep = hits < partner
        if np.any(keep):
            pieces.append(np.stack([hits[keep], partner[keep]], axis=1))
    return _canonical_sample(shape, seed, pieces)


def sample_graph(shape, kernel, seed: int) -> GraphSample:
    """Draw one random graph; identical arguments give identical graphs.

    ``shape`` is a node count for the ring or a per-axis count sequence for
    a torus grid paired with a product kernel.
    """
    _require_valid(kernel)
    shape = tuple(int(s) for s in np.atleast_1d(shape))
    if len(shape) == 1:
        if shape[0] < 2:
            raise ValueError("a graph needs at least two nodes")
        if isinstance(kernel, ProductKernel):
            raise ValueError("a ring sample needs a one-dimensional kernel")
        return _sample_ring(shape[0], kernel, seed)
    if not isinstance(kernel, ProductKernel) or len(kernel.factors) != len(shape):
        raise ValueError("a torus sample needs a product kernel with one "
                         "factor per grid axis")
    return _sample_torus(shape, kernel, seed)


# ---------------------------------------------------------------------------
# per-sample measurements
# ---------------------------------------------------------------------------

def _dense_adjacency(sample: GraphSample) -> np.ndarray:
    n = sample.n
    if n * n > MAX_ADJACENCY_CELLS:
        raise CostBudgetError("dense adjacency for this graph",
                              n * n, MAX_ADJACENCY_CELLS)
    dense = np.zeros((n, n), dtype=bool)
    edges = sample.edges
    dense[edges[:, 0], edges[:, 1]] = True
    dense[edges[:, 1], edges[:, 0]] = True
    return dense


def _packed_adjacency(sample: GraphSample) -> np.ndarray:
    # adjacency rows as bitsets: bit j % 64 of word j // 64 in row i is set
    # when i and j are linked
    n = sample.n
    if n * n > MAX_ADJACENCY_CELLS:
        raise CostBudgetError("packed adjacency for this graph",
                              n * n, MAX_ADJACENCY_CELLS)
    words = -(-n // 64)
    src, dst = np.concatenate([sample.edges, sample.edges[:, ::-1]]).T
    rows = np.zeros(n * words, dtype=np.uint64)
    # every pair is stored once, so no bit is set twice and adding is or-ing
    np.add.at(rows, src * words + (dst >> 6),
              np.left_shift(np.uint64(1), (dst & 63).astype(np.uint64)))
    return rows.reshape(n, words)


def _clustering_counts(sample: GraphSample) -> tuple[int, int]:
    # pooled numerator and denominator: linked neighbour pairs and all
    # neighbour pairs, summed over nodes.  A linked pair (u, v) of
    # neighbours of w is a triangle, so the numerator is the sum over
    # edges (u, v) of |N(u) & N(v)|, counted on bitset rows in batches
    rows = _packed_adjacency(sample)
    degrees = sample.degrees()
    pairs = int(np.sum(degrees * (degrees - 1) // 2))
    per_batch = max(1, MAX_BITSET_WORDS // rows.shape[1])
    linked = 0
    for start in range(0, sample.edges.shape[0], per_batch):
        batch = sample.edges[start:start + per_batch]
        common = rows[batch[:, 0]] & rows[batch[:, 1]]
        linked += int(np.bitwise_count(common).sum())
    return linked, pairs


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


def _chain_endpoints(sample: GraphSample, offset: int, anchor: int):
    n = sample.n
    if not 0 < offset <= n // 2:
        raise ValueError("offset must lie in (0, n/2]")
    source = anchor % n
    target = (anchor + offset) % n
    return source, target


def chain_count_in_sample(sample: GraphSample, offset: int, k: int,
                          anchor: int = 0) -> int:
    """Number of simple k-intermediary chains between two pinned nodes.

    The endpoints are ``anchor`` and ``anchor + offset`` (wrapped); the
    intermediaries are pairwise distinct and avoid both endpoints.
    """
    if k not in (1, 2, 3):
        raise ValueError("chain counting supports 1, 2, or 3 intermediaries")
    source, target = _chain_endpoints(sample, offset, anchor)
    dense = _dense_adjacency(sample)
    if k == 1:
        return int(np.count_nonzero(dense[source] & dense[target]))
    near_source = np.nonzero(dense[source])[0]
    near_source = near_source[near_source != target]
    near_target = np.nonzero(dense[target])[0]
    near_target = near_target[near_target != source]
    if near_source.size == 0 or near_target.size == 0:
        return 0
    if k == 2:
        block = dense[np.ix_(near_source, near_target)]
        # the adjacency diagonal is empty, so equal intermediaries drop out
        return int(np.count_nonzero(block))
    cost = near_source.size * sample.n * near_target.size
    if cost > MAX_CHAIN_OPS:
        raise CostBudgetError("three-intermediary chain count", cost, MAX_CHAIN_OPS)
    rows_source = dense[near_source].astype(np.int64)
    rows_target = dense[near_target].astype(np.int64)
    common = np.einsum("ij,kj->ik", rows_source, rows_target, optimize=False)
    # middles running through an endpoint are not chains
    common -= np.outer(rows_source[:, source], rows_target[:, source])
    common -= np.outer(rows_source[:, target], rows_target[:, target])
    # first and last intermediary must differ
    common[np.equal.outer(near_source, near_target)] = 0
    return int(common.sum())


def _reduce_counts(values: Iterable[int]) -> McEstimate:
    values = np.asarray(list(values), dtype=float)
    mean = float(np.mean(values))
    if values.size > 1:
        std_error = float(np.std(values, ddof=1) / math.sqrt(values.size))
    else:
        std_error = 0.0
    return McEstimate(mean, std_error, int(values.size))


def empirical_chain_count(samples: Iterable[GraphSample], offset: int, k: int,
                          anchor: int = 0) -> McEstimate:
    """Mean simple chain count over a stream of samples."""
    return _reduce_counts(chain_count_in_sample(s, offset, k, anchor)
                          for s in samples)


def _separations(sample: GraphSample, offsets: Sequence[int], max_sep: int,
                 anchor: int) -> list:
    # separation from the anchor to each offset's node (None beyond max_sep)
    # from one breadth-first search over compressed sparse rows, a whole
    # frontier per step, that stops once every target is reached
    targets = np.asarray([_chain_endpoints(sample, offset, anchor)[1]
                          for offset in offsets], dtype=np.int64)
    n = sample.n
    _require_sampleable(n, "nodes of this graph")
    src, dst = np.concatenate([sample.edges, sample.edges[:, ::-1]]).T
    indices = dst[np.argsort(src, kind="stable")]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    distance = np.full(n, -1, dtype=np.int64)
    frontier = np.asarray([anchor % n])
    distance[frontier] = 0
    for depth in range(1, max_sep + 2):
        starts = indptr[frontier]
        lengths = indptr[frontier + 1] - starts
        ends = np.cumsum(lengths)
        # the frontier's neighbour lists, gathered from ``indices`` at once
        reached = indices[np.arange(ends[-1])
                          + np.repeat(starts - ends + lengths, lengths)]
        frontier = np.unique(reached[distance[reached] < 0])
        distance[frontier] = depth
        if frontier.size == 0 or np.all(distance[targets] >= 0):
            break
    return [int(d) - 1 if d > 0 else None for d in distance[targets]]


def separation_in_sample(sample: GraphSample, offset: int, max_sep: int,
                         anchor: int = 0):
    """Separation between the pinned nodes, or None when unreached.

    Separation is the shortest path length minus one, so a direct link is
    zero.  The search stops past ``max_sep``, returning None.
    """
    return _separations(sample, (offset,), max_sep, anchor)[0]


def _reduce_separations(separations: Iterable, max_sep: int) -> SeparationHistogram:
    buckets = np.asarray([max_sep + 1 if sep is None else sep for sep in separations],
                         dtype=np.int64)
    return SeparationHistogram(tuple(np.bincount(buckets, minlength=max_sep + 2)),
                               buckets.size, max_sep)


def empirical_separation_histogram(samples: Iterable[GraphSample], offset: int,
                                   max_sep: int, anchor: int = 0) -> SeparationHistogram:
    """Histogram of the separation over a stream of samples."""
    if max_sep < 0:
        raise ValueError("max_sep must be non-negative")
    return _reduce_separations(
        (separation_in_sample(s, offset, max_sep, anchor) for s in samples),
        max_sep)


# ---------------------------------------------------------------------------
# trial drivers (sampling and measuring fused, thread friendly)
# ---------------------------------------------------------------------------

def estimate_mean_degree(shape, kernel, trials: int, master_seed: int,
                         threads: int = 1) -> McEstimate:
    """Mean degree over freshly sampled trials."""
    def worker(seed):
        sample = sample_graph(shape, kernel, seed)
        return 2.0 * sample.edges.shape[0] / sample.n

    return _reduce_counts(run_trials(worker, trials, master_seed, threads))


def estimate_clustering(shape, kernel, trials: int, master_seed: int,
                        threads: int = 1) -> McEstimate:
    """Pooled clustering over freshly sampled trials."""
    def worker(seed):
        return _clustering_counts(sample_graph(shape, kernel, seed))

    return _reduce_clustering(run_trials(worker, trials, master_seed, threads))


def estimate_chain_count(shape, kernel, offset: int, k: int, trials: int,
                         master_seed: int, threads: int = 1,
                         anchor: int = 0) -> McEstimate:
    """Mean simple chain count over freshly sampled trials."""
    def worker(seed):
        return chain_count_in_sample(sample_graph(shape, kernel, seed),
                                     offset, k, anchor)

    return _reduce_counts(run_trials(worker, trials, master_seed, threads))


def estimate_separation_histograms(shape, kernel, offsets: Sequence[int],
                                   max_sep: int, trials: int, master_seed: int,
                                   threads: int = 1, anchor: int = 0
                                   ) -> tuple[SeparationHistogram, ...]:
    """One separation histogram per offset, all measured on the same trials.

    Each histogram equals the :func:`estimate_separation_histogram` call
    for its offset, but every trial graph is sampled and searched once.
    """
    if max_sep < 0:
        raise ValueError("max_sep must be non-negative")
    offsets = tuple(offsets)

    def worker(seed):
        return _separations(sample_graph(shape, kernel, seed), offsets,
                            max_sep, anchor)

    per_trial = run_trials(worker, trials, master_seed, threads)
    return tuple(_reduce_separations(column, max_sep) for column in zip(*per_trial))


def estimate_separation_histogram(shape, kernel, offset: int, max_sep: int,
                                  trials: int, master_seed: int,
                                  threads: int = 1,
                                  anchor: int = 0) -> SeparationHistogram:
    """Separation histogram over freshly sampled trials."""
    return estimate_separation_histograms(
        shape, kernel, (offset,), max_sep, trials, master_seed, threads, anchor)[0]
