"""Graph sampling, estimators, and the determinism contract."""

import math
import re
import threading
import time
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ringnet import montecarlo
from ringnet import (
    CosineSeries,
    CostBudgetError,
    EstimateUndefinedError,
    GraphSample,
    KernelValidationError,
    ProductKernel,
    UniformWindow,
    chain_count_in_sample,
    discrete_chain_count,
    discrete_mean_degree,
    empirical_clustering,
    empirical_separation_histogram,
    estimate_chain_counts,
    estimate_clustering,
    estimate_mean_degree,
    estimate_separation_histograms,
    sample_graph,
    separation_in_sample,
    trial_seed,
)

from memory import traced_peak


def ring_sample(n, edges):
    return GraphSample(shape=(n,), seed=0,
                       edges=np.asarray(sorted(edges), dtype=np.int64).reshape(-1, 2))


# ---------------------------------------------------------------------------
# reference measurements: node-by-node loops the array kernels must equal
# ---------------------------------------------------------------------------

def reference_neighbor_lists(sample):
    edges = sample.edges
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order]
    starts = np.searchsorted(src, np.arange(sample.n + 1))
    return [dst[starts[i]:starts[i + 1]] for i in range(sample.n)]


def reference_clustering_counts(sample):
    """Linked neighbour pairs and all neighbour pairs, node by node."""
    n = sample.n
    dense = np.zeros((n, n), dtype=bool)
    dense[sample.edges[:, 0], sample.edges[:, 1]] = True
    dense[sample.edges[:, 1], sample.edges[:, 0]] = True
    linked = 0
    pairs = 0
    for node_neighbors in reference_neighbor_lists(sample):
        degree = node_neighbors.size
        if degree < 2:
            continue
        pairs += degree * (degree - 1) // 2
        block = dense[np.ix_(node_neighbors, node_neighbors)]
        linked += int(np.count_nonzero(block)) // 2
    return linked, pairs


def reference_separation(sample, offset, max_sep, anchor=0):
    """Separation by a node-at-a-time breadth-first search, None if unreached."""
    n = sample.n
    source = anchor % n
    target = (anchor + offset) % n
    neighbors = reference_neighbor_lists(sample)
    limit = max_sep + 1  # path length cap
    distance = np.full(n, -1, dtype=np.int64)
    distance[source] = 0
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        depth = distance[node]
        if depth >= limit:
            break
        for neighbor in neighbors[node]:
            if distance[neighbor] < 0:
                if neighbor == target:
                    return int(depth)  # path length depth + 1, separation depth
                distance[neighbor] = depth + 1
                frontier.append(neighbor)
    return None


def reference_chain_count(sample, offset, k, anchor=0):
    """Simple chains with k intermediaries between the pinned nodes, path by
    path: every intermediary is new, and none is an endpoint."""
    n = sample.n
    source = anchor % n
    target = (anchor + offset) % n
    neighbors = [set(row.tolist()) for row in reference_neighbor_lists(sample)]
    near_target = neighbors[target]

    def chains(path):
        if len(path) == k:  # the next node is the last intermediary
            return sum(node not in path for node in neighbors[path[-1]] & near_target)
        return sum(chains(path + [node]) for node in neighbors[path[-1]]
                   if node != target and node not in path)

    return chains([source])


def networkx_oracle(sample, offsets, max_sep, anchor=0):
    """Triangle corners (3 x triangles) and separations from networkx."""
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    graph.add_nodes_from(range(sample.n))
    graph.add_edges_from(sample.edges.tolist())
    lengths = nx.single_source_shortest_path_length(graph, anchor % sample.n,
                                                    cutoff=max_sep + 1)
    hops = [lengths.get((anchor + offset) % sample.n) for offset in offsets]
    return (sum(nx.triangles(graph).values()),
            [None if h is None else h - 1 for h in hops])


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_deterministic():
    kernel = UniformWindow(0.4, 0.6)
    first = sample_graph(200, kernel, seed=123)
    second = sample_graph(200, kernel, seed=123)
    np.testing.assert_array_equal(first.edges, second.edges)
    third = sample_graph(200, kernel, seed=124)
    assert not np.array_equal(first.edges, third.edges)


def test_sample_zero_kernel_empty():
    sample = sample_graph(64, UniformWindow(0.0, 1.0), seed=5)
    assert sample.edges.shape == (0, 2)


def test_sample_certain_kernel_complete():
    n = 40
    sample = sample_graph(n, UniformWindow(1.0, math.pi), seed=5)
    assert sample.edges.shape[0] == n * (n - 1) // 2
    assert np.all(sample.degrees() == n - 1)


def test_sample_edges_canonical():
    sample = sample_graph(128, UniformWindow(0.5, 0.5), seed=9)
    assert np.all(sample.edges[:, 0] < sample.edges[:, 1])
    as_tuples = set(map(tuple, sample.edges))
    assert len(as_tuples) == sample.edges.shape[0]


def test_sample_respects_window_support():
    n = 128
    kernel = UniformWindow(0.9, 0.4)
    sample = sample_graph(n, kernel, seed=77)
    spans = np.abs(sample.edges[:, 1] - sample.edges[:, 0])
    spans = np.minimum(spans, n - spans)
    max_span = math.floor(0.4 * n / (2.0 * math.pi))
    assert np.all(spans <= max_span)


def test_sample_mean_degree_oracle():
    n = 256
    kernel = UniformWindow(0.5, 0.2)
    estimate = estimate_mean_degree(n, kernel, trials=1000, master_seed=31)
    exact = discrete_mean_degree(n, kernel)
    assert exact == pytest.approx(8.0)
    assert abs(estimate.mean - exact) <= 3.0 * estimate.std_error


def test_sample_torus_shape():
    kernel = ProductKernel((UniformWindow(0.7, 0.9), UniformWindow(0.6, 1.0)))
    sample = sample_graph((12, 10), kernel, seed=3)
    assert sample.n == 120
    assert np.all(sample.edges < 120)
    estimate = estimate_mean_degree((12, 10), kernel, trials=400, master_seed=8)

    # exact discrete degree: sum the product kernel over all grid offsets,
    # then drop the self pair at offset zero
    def axis_sum(count, factor):
        angles = 2.0 * math.pi * np.arange(count) / count
        return float(np.sum(factor.evaluate(angles)))

    expected = (axis_sum(12, kernel.factors[0]) * axis_sum(10, kernel.factors[1])
                - 0.7 * 0.6)
    assert abs(estimate.mean - expected) <= 4.0 * estimate.std_error


def contract_torus_edges(shape, kernel, seed):
    """Edges rebuilt from the sampling contract, one offset block at a time.

    Offset block b holds the offset vector d whose flat mixed-radix index
    is b + 1, and is drawn only when d comes first of d and -d in flat
    order.  Its N candidates draw from a fresh ``Philox(key=seed)``
    advanced to counter ``b * ceil(N / 4)``; candidate i links node i to
    node i + d when its draw is below the link probability.  In a
    self-inverse block (d = -d) only the candidates whose partner is the
    higher node link.  No pair is drawn twice.
    """
    shape = tuple(shape)
    total = math.prod(shape)
    stride = -(-total // 4)
    axis_probs = [np.asarray(factor.evaluate(2.0 * math.pi * np.arange(length) / length))
                  for length, factor in zip(shape, kernel.factors)]
    drawn, pairs = set(), []
    for delta in range(1, total):
        components = np.unravel_index(delta, shape)
        negated = int(np.ravel_multi_index(
            [(-c) % length for c, length in zip(components, shape)], shape))
        prob = math.prod(float(p[c]) for p, c in zip(axis_probs, components))
        if negated < delta or prob <= 0.0:
            continue
        bits = np.random.Philox(key=np.uint64(seed))
        bits.advance((delta - 1) * stride)
        draws = np.random.Generator(bits).random(total)
        for node in range(total):
            node_components = np.unravel_index(node, shape)
            partner = int(np.ravel_multi_index(
                [(a + c) % length for a, c, length
                 in zip(node_components, components, shape)], shape))
            if negated == delta and partner < node:
                continue
            pair = (min(node, partner), max(node, partner))
            assert pair not in drawn
            drawn.add(pair)
            if draws[node] < prob:
                pairs.append(pair)
    return sorted(pairs)


def contract_ring_edges(n, kernel, seed):
    """Ring edges from the contract: offsets 1..n/2, the last of which holds
    only n/2 candidates when n is even."""
    stride = -(-n // 4)
    pairs = set()
    for offset in range(1, n // 2 + 1):
        prob = float(kernel.evaluate(2.0 * math.pi * offset / n))
        if prob <= 0.0:
            continue
        count = n // 2 if 2 * offset == n else n
        bits = np.random.Philox(key=np.uint64(seed))
        bits.advance((offset - 1) * stride)
        draws = np.random.Generator(bits).random(count)
        for node in np.nonzero(draws < prob)[0]:
            partner = (int(node) + offset) % n
            pairs.add((min(int(node), partner), max(int(node), partner)))
    return sorted(pairs)


def interior_zero_kernel():
    # 1/4 + 1/4 cos(4 phi): zero at pi/4 and 3pi/4, positive in between
    return CosineSeries((0.25, 0.0, 0.0, 0.0, 0.125))


@pytest.mark.parametrize("n, kernel", [
    (5, UniformWindow(0.6, math.pi)),       # odd, every offset active
    (127, UniformWindow(0.3, 1.7)),         # odd
    (130, UniformWindow(0.5, math.pi)),     # even, not a multiple of 4
    (128, UniformWindow(0.5, math.pi)),     # multiple of 4, half-circle block
    (1024, UniformWindow(0.05, math.pi)),   # several draw calls per sample
    (128, interior_zero_kernel()),          # inactive blocks between active ones
])
def test_sample_ring_matches_contract(n, kernel):
    for trial in range(4):
        seed = trial_seed(20260822, trial)
        expected = contract_ring_edges(n, kernel, seed)
        edges = sample_graph(n, kernel, seed).edges
        assert [tuple(row) for row in edges.tolist()] == expected


def test_contract_kernel_has_interior_zeros():
    # the zeros evaluate to a few ulps either side of 0: 2.8e-17 at offset
    # 16 and -5.6e-17 at 48, so the block at 48 is the inactive one
    offsets = np.arange(1, 65)
    probs = np.asarray(interior_zero_kernel().evaluate(2.0 * math.pi * offsets / 128))
    assert np.all(np.abs(probs[[15, 47]]) <= 1e-16)
    assert list(offsets[probs <= 0.0]) == [48]


@pytest.mark.parametrize("shape, kernel", [
    ((12, 10), ProductKernel((UniformWindow(0.7, 0.9), UniformWindow(0.6, 1.0)))),
    ((4, 4, 5), ProductKernel((UniformWindow(0.5, 1.6), interior_zero_kernel(),
                               UniformWindow(0.4, 1.3)))),
])
def test_sample_torus_matches_contract(shape, kernel):
    # the active offset vectors are not contiguous in flattened order
    axis_active = [np.asarray(f.evaluate(2.0 * math.pi * np.arange(s) / s)) > 0.0
                   for s, f in zip(shape, kernel.factors)]
    assert not all(axis_active[-1])
    for trial in range(4):
        seed = trial_seed(20260822, trial)
        expected = contract_torus_edges(shape, kernel, seed)
        edges = sample_graph(shape, kernel, seed).edges
        assert [tuple(row) for row in edges.tolist()] == expected


# ---------------------------------------------------------------------------
# clustering estimator
# ---------------------------------------------------------------------------

def test_clustering_complete_graph():
    n = 12
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    estimate = empirical_clustering([ring_sample(n, edges)])
    assert estimate.mean == 1.0
    assert estimate.std_error == 0.0


def test_clustering_cycle_graph_triangle_free():
    n = 10
    edges = [(i, (i + 1) % n) for i in range(n)]
    estimate = empirical_clustering([ring_sample(n, sorted(
        (min(a, b), max(a, b)) for a, b in edges))])
    assert estimate.mean == 0.0


def test_clustering_undefined_without_neighbor_pairs():
    with pytest.raises(EstimateUndefinedError):
        empirical_clustering([ring_sample(8, [(0, 1)])])


def test_clustering_matches_closed_form():
    n, p, width = 2048, 0.2, 1.0
    estimate = estimate_clustering(n, UniformWindow(p, width),
                                   trials=8, master_seed=99)

    # exact mean of the pooled estimator on the discrete ring: fraction of
    # distinct in-window offset pairs whose difference is itself in-window
    reach = math.floor(width * n / (2.0 * math.pi))
    offsets = np.r_[np.arange(-reach, 0), np.arange(1, reach + 1)]
    diff = (offsets[:, None] - offsets[None, :]) % n
    diff = np.minimum(diff, n - diff)
    distinct = offsets[:, None] != offsets[None, :]
    discrete = p * np.sum((diff <= reach) & distinct) / np.sum(distinct)
    assert abs(estimate.mean - discrete) <= 3.5 * estimate.std_error

    # the continuum value sits a discretisation step away
    closed = 0.15  # p * 3/4 plateau
    radius = n / (2.0 * math.pi)
    gap_bound = 2.0 * closed / (width * radius)
    assert abs(estimate.mean - closed) <= gap_bound + 3.5 * estimate.std_error


# ---------------------------------------------------------------------------
# chain counts
# ---------------------------------------------------------------------------

def test_chain_count_empty_graph():
    sample = ring_sample(16, [])
    for k in (1, 2, 3):
        assert chain_count_in_sample(sample, 8, k) == 0


def test_chain_count_complete_graph():
    n = 14
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    sample = ring_sample(n, edges)
    assert chain_count_in_sample(sample, 7, 1) == n - 2
    assert chain_count_in_sample(sample, 7, 2) == (n - 2) * (n - 3)
    assert chain_count_in_sample(sample, 7, 3) == (n - 2) * (n - 3) * (n - 4)


def test_chain_count_hand_built():
    # path 0-2-1 plus direct 0-1: one single-intermediate chain, and the
    # direct edge is not a chain
    sample = ring_sample(6, [(0, 1), (0, 2), (1, 2)])
    assert chain_count_in_sample(sample, 1, 1) == 1
    assert chain_count_in_sample(sample, 1, 2) == 0


def test_chain_count_distinct_intermediates_only():
    # 0-2-3-2-1 style revisits must not count as 3-chains
    sample = ring_sample(8, [(0, 2), (2, 3), (1, 3), (2, 4), (1, 4)])
    # simple 2-intermediate chains: 0-2-3-1 and 0-2-4-1
    assert chain_count_in_sample(sample, 1, 2) == 2
    assert chain_count_in_sample(sample, 1, 3) == 0


def test_chain_count_mc_matches_discrete():
    n = 128
    kernel = UniformWindow(0.05, 0.5)
    for k, offset in ((1, 16), (2, 24)):
        (estimate,) = estimate_chain_counts(n, kernel, offset, (k,),
                                            trials=4000, master_seed=55)
        exact = discrete_chain_count(n, kernel, k, offset).reduced
        assert abs(estimate.mean - exact) <= 3.5 * estimate.std_error


def test_chain_count_anchor_invariance():
    n = 128
    kernel = UniformWindow(0.05, 0.5)
    (base,) = estimate_chain_counts(n, kernel, 16, (1,), trials=2000, master_seed=4)
    (moved,) = estimate_chain_counts(n, kernel, 16, (1,), trials=2000, master_seed=5,
                                     anchor=37)
    spread = math.hypot(base.std_error, moved.std_error)
    assert abs(base.mean - moved.mean) <= 3.5 * spread


def test_chain_count_budget_guard():
    sample = ring_sample(4, [(0, 1)])
    # chains are counted on the edge list, so a large ring needs no n x n
    # matrix and no budget of its own
    big = GraphSample(shape=(100_000,), seed=0,
                      edges=np.zeros((0, 2), dtype=np.int64))
    assert chain_count_in_sample(big, 50_000, 3) == 0
    assert chain_count_in_sample(sample, 2, 3) == 0


def test_chain_count_memory_is_linear_in_nodes():
    n = 1 << 20
    edgeless = GraphSample(shape=(n,), seed=0,
                           edges=np.zeros((0, 2), dtype=np.int64))

    def count():
        assert chain_count_in_sample(edgeless, n // 2, 3) == 0

    assert traced_peak(count) <= 64 * 2 ** 20


# ---------------------------------------------------------------------------
# separation histogram
# ---------------------------------------------------------------------------

def test_separation_direct_link():
    sample = ring_sample(6, [(0, 3)])
    assert separation_in_sample(sample, 3, 4) == 0


def test_separation_two_hops():
    sample = ring_sample(6, [(0, 1), (1, 3)])
    assert separation_in_sample(sample, 3, 4) == 1


def test_separation_unreached():
    sample = ring_sample(6, [(0, 1)])
    assert separation_in_sample(sample, 3, 4) is None


def test_separation_depth_cap():
    chain = [(i, i + 1) for i in range(5)]
    sample = ring_sample(12, chain)
    assert separation_in_sample(sample, 5, 10) == 4
    assert separation_in_sample(sample, 5, 4) == 4
    assert separation_in_sample(sample, 5, 3) is None


def test_histogram_sums_to_one():
    (histogram,) = estimate_separation_histograms(
        128, UniformWindow(0.2, 0.7), offsets=(10,), max_sep=3,
        trials=500, master_seed=21)
    probabilities = histogram.probabilities()
    assert len(probabilities) == 5  # 0..3 plus unreached bucket
    assert math.fsum(probabilities) == 1.0


def test_histogram_empty_graph_unreached():
    histogram = empirical_separation_histogram(
        [ring_sample(16, [])], offset=5, max_sep=3)
    probabilities = histogram.probabilities()
    assert probabilities[-1] == 1.0
    assert all(v == 0.0 for v in probabilities[:-1])


def test_histogram_direct_entry_matches_kernel():
    n = 256
    kernel = UniformWindow(0.3, 1.2)
    trials = 1500
    (inside,) = estimate_separation_histograms(n, kernel, offsets=(20,), max_sep=0,
                                               trials=trials, master_seed=13)
    gap = 2.0 * math.pi * 20 / n
    q_inside = float(kernel.evaluate(gap))
    spread = math.sqrt(q_inside * (1.0 - q_inside) / trials)
    assert abs(inside.probabilities()[0] - q_inside) <= 3.5 * spread
    (outside,) = estimate_separation_histograms(n, kernel, offsets=(100,), max_sep=0,
                                                trials=trials, master_seed=13)
    assert outside.probabilities()[0] == 0.0


def test_histogram_one_hop_small_p_regime():
    n = 256
    kernel = UniformWindow(0.02, 1.0)
    trials = 6000
    offset = round(1.5 * n / (2.0 * math.pi))
    (histogram,) = estimate_separation_histograms(n, kernel, (offset,), max_sep=1,
                                                  trials=trials, master_seed=17)
    observed = histogram.probabilities()[1]
    expected_count = discrete_chain_count(n, kernel, 1, offset).with_exclusion
    predicted = 1.0 - math.exp(-expected_count)
    spread = math.sqrt(max(predicted * (1.0 - predicted), 1e-12) / trials)
    assert abs(observed - predicted) <= 3.5 * spread + expected_count ** 2


# ---------------------------------------------------------------------------
# determinism and aggregation
# ---------------------------------------------------------------------------

def test_trial_seed_pure_function():
    assert trial_seed(42, 0) == trial_seed(42, 0)
    assert trial_seed(42, 0) != trial_seed(42, 1)
    assert trial_seed(42, 0) != trial_seed(43, 0)


@pytest.mark.parametrize("trials", [1, 2, 3, 5, 33])
def test_each_worker_runs_contiguous_trials(monkeypatch, trials):
    monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 2)

    def task(start, stop):
        results = []
        for trial in range(start, stop):
            time.sleep(0.002)  # lets the other worker take trials meanwhile
            results.append((trial, threading.get_ident()))
        return results

    results = montecarlo._map_runs(task, trials, threads=2)
    assert [trial for trial, _ in results] == list(range(trials))
    # two workers, one contiguous run of trials each
    idents = [ident for _, ident in results]
    assert sum(a != b for a, b in zip(idents, idents[1:])) <= 1


def test_estimates_thread_invariant():
    kernel = UniformWindow(0.3, 0.6)
    a = estimate_clustering(512, kernel, trials=12, master_seed=3, threads=1)
    b = estimate_clustering(512, kernel, trials=12, master_seed=3, threads=8)
    assert a == b
    ha = estimate_separation_histograms(256, kernel, (7,), 2, 50, 3, threads=1)
    hb = estimate_separation_histograms(256, kernel, (7,), 2, 50, 3, threads=8)
    assert ha == hb
    ca = estimate_chain_counts(256, kernel, 7, (1, 2), 50, 3, threads=1)
    cb = estimate_chain_counts(256, kernel, 7, (1, 2), 50, 3, threads=8)
    assert ca == cb


def test_std_error_scaling():
    kernel = UniformWindow(0.3, 0.6)
    small = estimate_mean_degree(256, kernel, trials=64, master_seed=11)
    large = estimate_mean_degree(256, kernel, trials=1024, master_seed=11)
    ratio = small.std_error / large.std_error
    assert 2.0 < ratio < 8.0  # expect about 4 with statistical slack


def test_sample_budget_guard():
    with pytest.raises(CostBudgetError):
        sample_graph(1 << 22, UniformWindow(0.5, math.pi), seed=1)


@pytest.mark.parametrize("shape", [(5, 0), (-3, 4), (1, 1)])
@pytest.mark.parametrize("call", [
    lambda shape, kernel: sample_graph(shape, kernel, 1),
    lambda shape, kernel: estimate_mean_degree(shape, kernel, 3, 1),
    lambda shape, kernel: estimate_clustering(shape, kernel, 3, 1),
    lambda shape, kernel: estimate_chain_counts(shape, kernel, 1, (1,), 3, 1),
    lambda shape, kernel: estimate_separation_histograms(shape, kernel, (1,), 0, 3, 1),
], ids=["sample_graph", "mean_degree", "clustering", "chain_counts", "separation"])
def test_every_sampled_space_refuses_a_bad_shape(call, shape):
    # the refusal a graph sample of that shape gives
    with pytest.raises(ValueError) as expected:
        GraphSample(shape, 0, np.zeros((0, 2), dtype=np.int64))
    kernel = ProductKernel((UniformWindow(0.5, 0.9), UniformWindow(0.4, 1.1)))
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        call(shape, kernel)


# a node count whose per-node arrays the operating system refuses outright:
# any check that came after an allocation of size n would fail with
# MemoryError instead of the budget error
HUGE_NODES = 1 << 40


def test_sample_refuses_huge_ring_before_allocating():
    with pytest.raises(CostBudgetError):
        sample_graph(HUGE_NODES, UniformWindow(0.1, 0.5), seed=1)


def test_sample_refuses_huge_torus_before_allocating():
    kernel = ProductKernel((UniformWindow(0.5, 0.9), UniformWindow(0.4, 1.1)))
    with pytest.raises(CostBudgetError):
        sample_graph((1 << 20, 1 << 20), kernel, seed=1)


def test_measurements_refuse_huge_graph_before_allocating():
    huge = GraphSample(shape=(HUGE_NODES,), seed=0,
                       edges=np.zeros((0, 2), dtype=np.int64))
    with pytest.raises(CostBudgetError):
        separation_in_sample(huge, 5, 3)
    with pytest.raises(CostBudgetError):
        empirical_clustering([huge])
    for k in (1, 2, 3):
        with pytest.raises(CostBudgetError):
            chain_count_in_sample(huge, 5, k)


# ---------------------------------------------------------------------------
# array kernels against the node-by-node references and networkx
# ---------------------------------------------------------------------------

@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 24))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return ring_sample(n, draw(st.sets(st.sampled_from(pairs))))


EMPTY = ring_sample(9, [])
# node 0, the default anchor, has no neighbour while the rest are linked
ISOLATED_SOURCE = ring_sample(6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
# an even ring: offset n/2 is the antipode, reached both ways round
CYCLE = ring_sample(8, [(i, i + 1) for i in range(7)] + [(0, 7)])


@settings(max_examples=60, deadline=None)
@given(sample=small_graphs(), data=st.data())
@example(sample=EMPTY, data=None)
@example(sample=ISOLATED_SOURCE, data=None)
@example(sample=CYCLE, data=None)
def test_kernels_match_references(sample, data):
    n = sample.n
    if data is None:  # explicit examples: every anchor and max_sep 0..3
        anchors, max_seps = range(n), range(4)
    else:
        anchors = [data.draw(st.integers(0, 2 * n), label="anchor")]
        max_seps = [data.draw(st.integers(0, 4), label="max_sep")]
    counts = montecarlo._clustering_counts(sample)
    assert counts == reference_clustering_counts(sample)
    offsets = list(range(1, n // 2 + 1))  # includes n/2 on even rings
    for anchor in anchors:
        for max_sep in max_seps:
            expected = [reference_separation(sample, o, max_sep, anchor)
                        for o in offsets]
            assert networkx_oracle(sample, offsets, max_sep,
                                   anchor) == (counts[0], expected)
            assert montecarlo._separations(sample, offsets, max_sep,
                                           anchor) == expected
            assert [separation_in_sample(sample, o, max_sep, anchor)
                    for o in offsets] == expected


@pytest.mark.parametrize("shape, kernel", [
    (512, UniformWindow(0.3, 0.6)),
    (300, UniformWindow(0.05, 2.5)),
    ((12, 10), ProductKernel((UniformWindow(0.7, 0.9), UniformWindow(0.6, 1.0)))),
])
def test_kernels_match_references_on_sampled_graphs(shape, kernel):
    for trial in range(3):
        sample = sample_graph(shape, kernel, trial_seed(20260822, trial))
        counts = montecarlo._clustering_counts(sample)
        assert counts == reference_clustering_counts(sample)
        offsets = list(range(1, sample.n // 2 + 1, 7))
        expected = [reference_separation(sample, o, 3, anchor=11) for o in offsets]
        assert networkx_oracle(sample, offsets, 3, anchor=11) == (counts[0], expected)
        assert montecarlo._separations(sample, offsets, 3, 11) == expected
        for offset in offsets:
            for k in (1, 2, 3):
                assert chain_count_in_sample(sample, offset, k, anchor=11) == \
                    reference_chain_count(sample, offset, k, anchor=11)


@settings(max_examples=60, deadline=None)
@given(sample=small_graphs(), data=st.data())
@example(sample=EMPTY, data=None)
@example(sample=ISOLATED_SOURCE, data=None)
@example(sample=CYCLE, data=None)
def test_chain_counts_match_reference(sample, data):
    n = sample.n
    if data is None:  # explicit examples: every anchor
        anchors = range(n)
    else:
        anchors = [data.draw(st.integers(0, 2 * n), label="anchor")]
    for anchor in anchors:
        for offset in range(1, n // 2 + 1):  # includes n/2 on even rings
            for k in (1, 2, 3):
                assert chain_count_in_sample(sample, offset, k, anchor) == \
                    reference_chain_count(sample, offset, k, anchor)


def test_triangle_batches_cover_every_edge(monkeypatch):
    sample = sample_graph(256, UniformWindow(0.4, 1.0), seed=3)
    expected = reference_clustering_counts(sample)
    assert sample.edges.shape[0] % 3 != 0
    # banded rows AND 2 of the 4 words of a row here: one link per block,
    # then 6 links per block with a shorter last block
    for words in (1, 3 * 4 + 1):
        monkeypatch.setattr(montecarlo, "MAX_BITSET_WORDS", words)
        assert montecarlo._clustering_counts(sample) == expected


def union_batch(shape, graphs):
    """The batch of ``graphs``, (E, 2) edge arrays on the node grid
    ``shape``: node i of graph t is the union node t * n + i."""
    n = math.prod(shape)
    low, high = ([np.asarray(t * n + edges[:, column], dtype=np.int64)
                  for t, edges in enumerate(graphs)] for column in (0, 1))
    return montecarlo._Batch(n, len(graphs), np.concatenate(low), np.concatenate(high))


def ring_window_graph(n, reach, links, seed):
    """``links`` random links on a ring of n nodes, mostly short and none
    longer than ``reach`` round the ring, one of exactly ``reach``, and a few
    triangles that close round the ring wherever three links that short can
    (3 * reach >= n).  Many links cross the seam between nodes n - 1 and 0,
    and so do the triangles (e - 1, e, e + reach - 1) of the nodes e on the
    last bit of a word: each puts a shared neighbour as many words ahead as
    a link of that reach can."""
    if links == 0:
        return np.zeros((0, 2), dtype=np.int64)
    rng = np.random.default_rng(seed)
    start = rng.integers(0, n, links)
    span = np.where(rng.random(links) < 0.7, rng.integers(1, min(reach, 6) + 1, links),
                    rng.integers(1, reach + 1, links))
    span[0] = reach
    ends = [(start, start + span)]
    if reach > 1:
        last_bits = np.arange(63, n, 64)
        corners = np.stack((last_bits - 1, last_bits, last_bits + reach - 1))
        ends.append((corners.ravel(), np.roll(corners, -1, axis=0).ravel()))
    if 3 * reach >= n:  # spans d1, d2 and n - d1 - d2, each at most reach
        for x in rng.integers(0, n, 3):
            d1 = rng.integers(max(1, n - 2 * reach), reach + 1)
            d2 = rng.integers(max(1, n - d1 - reach), min(reach, n - d1 - 1) + 1)
            corners = np.array([x, x + d1, x + d1 + d2])
            ends.append((corners, np.roll(corners, -1)))
    a, b = (np.concatenate(column) % n for column in zip(*ends))
    keys = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    return np.stack((keys // n, keys % n), axis=1)


@st.composite
def ring_window_batches(draw):
    # 3 * reach at n - 1, n or n + 1, or n anywhere from 2 * reach on
    reach = draw(st.integers(1, 360), label="reach")
    n = draw(st.one_of(st.sampled_from([3 * reach + 1, 3 * reach, 3 * reach - 1]),
                       st.integers(max(2, 2 * reach), 1100)), label="n")
    graphs = [ring_window_graph(n, reach, draw(st.integers(0, 2 * n), label="links"),
                                draw(st.integers(0, 2 ** 32), label="seed"))
              for _ in range(draw(st.integers(1, 3), label="graphs"))]
    return (n,), graphs


@st.composite
def torus_batches(draw):
    shape = draw(st.sampled_from([(12, 10), (30, 40), (64, 20), (200, 7)]))
    kernel = ProductKernel((UniformWindow(0.7, draw(st.floats(0.05, 1.2))),
                            UniformWindow(0.6, draw(st.floats(0.05, 1.2)))))
    seeds = draw(st.lists(st.integers(0, 2 ** 32), min_size=1, max_size=3))
    return shape, [sample_graph(shape, kernel, seed).edges for seed in seeds]


@st.composite
def triangle_cases(draw):
    # one word per gathered array takes one link per block: small batches only
    shape, graphs = draw(st.one_of(ring_window_batches(), torus_batches()))
    small = sum(edges.shape[0] for edges in graphs) <= 3000
    return shape, graphs, small and draw(st.booleans(), label="one_word")


# 3 * reach is n - 1 (banded rows), n and n + 1 (full rows), with rows of
# 15 words and the last word 59 to 61 bits short
@settings(max_examples=30, deadline=None)
@given(case=triangle_cases())
@example(case=((9,), [np.zeros((0, 2), dtype=np.int64)], False))
@example(case=((901,), [ring_window_graph(901, 300, 1500, 1),
                        ring_window_graph(901, 300, 0, 2)], False))
@example(case=((900,), [ring_window_graph(900, 300, 1500, 3)], False))
@example(case=((899,), [ring_window_graph(899, 300, 900, 4),
                        ring_window_graph(899, 300, 900, 5),
                        ring_window_graph(899, 300, 700, 6)], True))
def test_forward_triangle_counts_match_reference(case):
    shape, graphs, one_word = case
    expected = [reference_clustering_counts(GraphSample(shape, 0, edges))
                for edges in graphs]
    words = 1 if one_word else montecarlo.MAX_BITSET_WORDS
    batch = union_batch(shape, graphs)
    with mock.patch.object(montecarlo, "MAX_BITSET_WORDS", words):
        links = [(batch.low, batch.high)]
        linked, pairs = montecarlo._triangle_counts(
            batch.n, batch.size, montecarlo._link_reach(batch.n, links), links)
    assert list(zip(linked.tolist(), pairs.tolist())) == expected


def test_triangle_count_memory_on_the_clustering_check_graph():
    # the battery's 4096-node clustering graph, reach 651 of 4096 nodes,
    # streamed into banded rows; from a joined batch, banded rows peaked at
    # 2.0 MiB, full forward rows at 3.1 MiB and full rows counting each
    # triangle three times at 8.1 MiB
    plan = montecarlo._sampling_plan(4096, UniformWindow(0.1, 1.0))
    seeds = montecarlo._trial_seeds(20260822, [0])
    peak = traced_peak(lambda: montecarlo._triangle_counts(
        4096, 1, plan.reach, montecarlo._batch_links(plan, seeds)))
    assert peak <= 2.5 * 2 ** 20


def test_multi_offset_histograms_match_per_offset_references():
    n, kernel, max_sep, trials, seed = 128, UniformWindow(0.2, 0.9), 3, 40, 5
    offsets = (1, 7, 20, 64, 7)
    single = estimate_separation_histograms(n, kernel, offsets, max_sep,
                                            trials, seed, threads=1)
    assert estimate_separation_histograms(n, kernel, offsets, max_sep,
                                          trials, seed, threads=2) == single
    samples = [sample_graph(n, kernel, trial_seed(seed, t)) for t in range(trials)]
    for offset, histogram in zip(offsets, single):
        assert (histogram,) == estimate_separation_histograms(
            n, kernel, (offset,), max_sep, trials, seed)
        counts = [0] * (max_sep + 2)
        for sample in samples:
            sep = reference_separation(sample, offset, max_sep)
            counts[-1 if sep is None else sep] += 1
        assert histogram.counts == tuple(counts)


def counting_philox_streams(monkeypatch):
    """The stream seed of every Philox generator made from now on."""
    streams = []
    original = np.random.Philox

    def counting(key):
        streams.append(int(key.generate_state(2, np.uint64)[0]))
        return original(key)

    monkeypatch.setattr(np.random, "Philox", counting)
    return streams


def test_multi_offset_call_samples_each_trial_once(monkeypatch):
    streams = counting_philox_streams(monkeypatch)
    histograms = estimate_separation_histograms(
        96, UniformWindow(0.2, 0.9), range(1, 49), 2, 7, 9)
    assert len(histograms) == 48
    assert streams == [trial_seed(9, t) for t in range(7)]


def test_chain_orders_share_one_sampling_pass(monkeypatch):
    shape, kernel, offset, trials, seed = 128, UniformWindow(0.05, 0.5), 16, 300, 4
    single = [estimate_chain_counts(shape, kernel, offset, (k,), trials, seed, anchor=5)[0]
              for k in (1, 2, 3)]
    streams = counting_philox_streams(monkeypatch)
    assert estimate_chain_counts(shape, kernel, offset, (3, 1, 2, 1), trials, seed,
                                 anchor=5) == (single[2], single[0], single[1], single[0])
    assert streams == [trial_seed(seed, t) for t in range(trials)]
    assert estimate_chain_counts(shape, kernel, offset, (), trials, seed) == ()
    with pytest.raises(ValueError):
        estimate_chain_counts(shape, kernel, offset, (1, 4), trials, seed)


# ---------------------------------------------------------------------------
# batches of trials against per-trial references
# ---------------------------------------------------------------------------

BATCH_CASES = [
    (16, UniformWindow(0.6, math.pi)),     # dense: every offset active
    (41, UniformWindow(0.3, 1.3)),         # odd ring
    (96, UniformWindow(0.25, 0.7)),        # several offset blocks per call
    ((6, 5), ProductKernel((UniformWindow(0.7, 0.9), UniformWindow(0.6, 1.0)))),
    ((4, 4, 3), ProductKernel((UniformWindow(0.5, 1.6), interior_zero_kernel(),
                               UniformWindow(0.4, 1.3)))),
    # every nonzero offset vector is self-inverse; only (0, 1) links, from
    # nodes 0 and 2, which are not the first columns of its block
    ((2, 2), ProductKernel((UniformWindow(0.7, 1.0), UniformWindow(0.6, math.pi)))),
]


def reference_estimate(values):
    values = np.asarray(values, dtype=float)
    error = float(np.std(values, ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return montecarlo.McEstimate(float(np.mean(values)), error, values.size)


def reference_pooled_clustering(counts):
    ratios = [linked / pairs for linked, pairs in counts if pairs]
    error = float(np.std(ratios, ddof=1) / math.sqrt(len(ratios))) if len(ratios) > 1 else 0.0
    return montecarlo.McEstimate(sum(c[0] for c in counts) / sum(c[1] for c in counts),
                                 error, len(counts))


def batch_budget(shape, kernel, per_batch, bitset_rows):
    """A draw budget that puts ``per_batch`` trials in each batch."""
    plan = montecarlo._sampling_plan(shape, kernel)
    n = math.prod(plan.shape)
    draws = plan.width * sum(chunk.blocks for chunk in plan.chunks)
    return per_batch * max(draws, n * -(-n // 64) if bitset_rows else n)


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(BATCH_CASES), trials=st.integers(1, 7),
       per_batch=st.integers(1, 3), seed=st.integers(0, 2 ** 40), data=st.data())
@example(case=BATCH_CASES[2], trials=7, per_batch=3, seed=20260822, data=None)
@example(case=BATCH_CASES[3], trials=5, per_batch=2, seed=1, data=None)
@example(case=BATCH_CASES[0], trials=4, per_batch=1, seed=2, data=None)
def test_batched_estimators_match_per_trial_references(case, trials, per_batch, seed, data):
    shape, kernel = case
    samples = [sample_graph(shape, kernel, trial_seed(seed, t)) for t in range(trials)]
    n = samples[0].n
    if data is None:
        offsets, anchor, max_sep = [1, n // 2, 3, 3], 5, 2
    else:
        offsets = data.draw(st.lists(st.integers(1, n // 2), min_size=1, max_size=4),
                            label="offsets")
        anchor = data.draw(st.integers(0, 2 * n), label="anchor")
        max_sep = data.draw(st.integers(0, 3), label="max_sep")
    sizes = []
    original = montecarlo._decisions

    def recording(plan, seeds):  # every estimator draws its graphs' decisions here
        sizes.append(seeds.size)
        return original(plan, seeds)

    def batches(bitset_rows=False):
        # the budget of one trial per batch, or of ``per_batch`` trials and
        # a shorter last batch when they do not divide the trial count
        budget = 1 if per_batch == 1 else batch_budget(shape, kernel, per_batch, bitset_rows)
        sizes.clear()
        return mock.patch.multiple(montecarlo, MAX_BATCH_DRAWS=budget,
                                   _decisions=recording)

    expected_sizes = [per_batch] * (trials // per_batch) + [trials % per_batch] * (
        trials % per_batch > 0)
    with batches():
        degree = estimate_mean_degree(shape, kernel, trials, seed)
    assert sizes == expected_sizes
    assert degree == reference_estimate([2.0 * s.edges.shape[0] / s.n for s in samples])

    with batches(bitset_rows=True):
        counts = [reference_clustering_counts(s) for s in samples]
        if sum(pairs for _, pairs in counts):
            assert estimate_clustering(shape, kernel, trials, seed) == \
                reference_pooled_clustering(counts)
        else:
            with pytest.raises(EstimateUndefinedError):
                estimate_clustering(shape, kernel, trials, seed)
    assert sizes == expected_sizes

    with batches():
        chains = estimate_chain_counts(shape, kernel, offsets[0], (1, 2, 3), trials,
                                       seed, anchor=anchor)
    assert sizes == expected_sizes
    for k, estimate in zip((1, 2, 3), chains):
        assert estimate == reference_estimate(
            [reference_chain_count(s, offsets[0], k, anchor) for s in samples])

    with batches():
        histograms = estimate_separation_histograms(shape, kernel, offsets, max_sep,
                                                    trials, seed, anchor=anchor)
    # direct links come from the pinned pairs' values, not from sampled
    # graphs, where reading those costs fewer draws than a graph
    assert sizes == ([] if pair_read_selected(shape, kernel, offsets, max_sep, anchor)
                     else expected_sizes)
    for offset, histogram in zip(offsets, histograms):
        buckets = [0] * (max_sep + 2)
        for sample in samples:
            sep = reference_separation(sample, offset, max_sep, anchor)
            buckets[-1 if sep is None else sep] += 1
        assert histogram.counts == tuple(buckets)


def pair_read_selected(shape, kernel, offsets, max_sep, anchor):
    """Whether a histogram reads its pinned pairs' values: a direct-link
    histogram whose active pairs cost fewer draws to read than a graph."""
    plan = montecarlo._sampling_plan(shape, kernel)
    source, targets = montecarlo._pinned_pair(math.prod(plan.shape), offsets, anchor)
    reads = np.count_nonzero(montecarlo._pair_blocks(plan, source, targets)[0] >= 0)
    return max_sep == 0 and reads * montecarlo.PAIR_READ_DRAWS < montecarlo._graph_draws(plan)


# ---------------------------------------------------------------------------
# triangle counts streamed from the sampler
# ---------------------------------------------------------------------------

def test_clustering_memory_on_the_clustering_check_graph():
    # sampling, row filling and read-back of two 4096-node graphs; joining
    # each graph's 266,789 links into arrays peaked at 4.23 MiB
    kernel = UniformWindow(0.1, 1.0)
    assert traced_peak(lambda: estimate_clustering(4096, kernel, 2, 20260822)) <= 2.5 * 2 ** 20
    # a sample's edges go in as chunks too; in one piece they peaked at 15.2 MiB
    sample = sample_graph(4096, kernel, 5)
    assert traced_peak(lambda: empirical_clustering([sample])) <= 2.5 * 2 ** 20


# the sampled grids of BATCH_CASES have full rows; these two have banded ones
BANDED_ROW_CASES = [
    (512, UniformWindow(0.3, 0.6)),
    ((40, 40), ProductKernel((UniformWindow(0.5, 0.5), UniformWindow(0.4, 0.9)))),
]


@pytest.mark.parametrize("words", [1, None], ids=["one-word-blocks", "default-blocks"])
@pytest.mark.parametrize("shape, kernel", [*BATCH_CASES, *BANDED_ROW_CASES])
def test_streamed_triangle_counts_match_reference(shape, kernel, words):
    plan = montecarlo._sampling_plan(shape, kernel)
    n = math.prod(plan.shape)
    assert montecarlo._bitset_rows(n, plan.reach)[0] == (
        (shape, kernel) in BANDED_ROW_CASES)
    seeds = montecarlo._trial_seeds(20260822, range(4))
    samples = [sample_graph(shape, kernel, seed) for seed in seeds.tolist()]
    expected = [reference_clustering_counts(sample) for sample in samples]
    with mock.patch.object(montecarlo, "MAX_BITSET_WORDS",
                           words or montecarlo.MAX_BITSET_WORDS):
        # batches of one graph, and of three with a shorter last batch
        for size in (1, 3):
            counts = []
            for first in range(0, seeds.size, size):
                batch = seeds[first:first + size]
                linked, pairs = montecarlo._triangle_counts(
                    n, batch.size, plan.reach, montecarlo._batch_links(plan, batch))
                counts += zip(linked.tolist(), pairs.tolist())
            assert counts == expected
        assert [montecarlo._clustering_counts(sample) for sample in samples] == expected
        if sum(pairs for _, pairs in expected):
            assert empirical_clustering(samples) == reference_pooled_clustering(expected)


def test_clustering_budget_counts_row_cells_before_any_draw(monkeypatch):
    streams = counting_philox_streams(monkeypatch)
    # 22,500 nodes whose links reach 47 rows of the grid: banded rows of 224
    # words, 323M cells, are over the budget though the draws are not
    kernel = ProductKernel((UniformWindow(0.5, 2.0), UniformWindow(0.5, 0.01)))
    with pytest.raises(CostBudgetError, match="bitset adjacency rows"):
        estimate_clustering((150, 150), kernel, 3, 1)
    assert streams == []
    # a banded ring counts 20,000 * 8 words of rows, far below the n**2
    # cells that were once refused
    estimate = estimate_clustering(20_000, UniformWindow(0.1, 0.05), 2, 1)
    assert abs(estimate.mean - 0.075) < 0.003
    assert len(streams) == 2


def test_degree_and_clustering_estimates_join_no_links(monkeypatch):
    def joined(plan, seeds):
        raise AssertionError("the links were joined")

    monkeypatch.setattr(montecarlo, "_sample_batch", joined)
    for shape, kernel in (BATCH_CASES[2], BANDED_ROW_CASES[1]):
        estimate_mean_degree(shape, kernel, 3, 1)
        estimate_clustering(shape, kernel, 3, 1)


# ---------------------------------------------------------------------------
# keep masks: each candidate pair decided once, and mean degree from decisions
# ---------------------------------------------------------------------------

KEEP_CASES = [
    *BATCH_CASES,
    (127, UniformWindow(0.3, 1.7)),       # odd, draws past the last node
    (130, UniformWindow(0.5, math.pi)),   # even, not a multiple of 4: both
    (128, UniformWindow(0.5, math.pi)),   # half-circle block
    ((12, 10), ProductKernel((UniformWindow(0.7, math.pi), UniformWindow(0.6, math.pi)))),
]
# 892,928 unordered candidate pairs of 4,096 nodes
WIDE_TORUS = ((64, 64), ProductKernel((UniformWindow(0.5, 0.9), UniformWindow(0.4, 1.1))))


def candidate_pairs(shape, kernel):
    """Unordered node pairs of positive link probability, from the kernel
    on every offset vector of the grid."""
    shape = tuple(np.atleast_1d(shape))
    factors = kernel.factors if len(shape) > 1 else (kernel,)
    probs = np.ones(())
    for length, factor in zip(shape, factors):
        probs = np.multiply.outer(probs, np.asarray(
            factor.evaluate(2.0 * math.pi * np.arange(length) / length)))
    coords = np.stack(np.unravel_index(np.arange(math.prod(shape)), shape), axis=1)
    pairs = set()
    for a, b in zip(*np.triu_indices(len(coords), 1)):
        if probs[tuple((coords[b] - coords[a]) % shape)] > 0.0:
            pairs.add((int(a), int(b)))
    return pairs


def kept_candidates(plan):
    """Per kept candidate of every block: the node, its partner and whether
    the block is self-inverse."""
    n = math.prod(plan.shape)
    coords = np.stack(np.unravel_index(np.arange(n), plan.shape), axis=1)
    kept = []
    for chunk in plan.chunks:
        keep = np.broadcast_to(chunk.keep, (chunk.blocks, plan.width))
        for block, row in enumerate(keep):
            nodes = np.flatnonzero(row)
            assert nodes.max(initial=0) < n
            partners = np.ravel_multi_index(
                ((coords[nodes] + chunk.offsets[:, block]) % plan.shape).T, plan.shape)
            kept += [(a, b, chunk.self_inverse) for a, b in zip(nodes.tolist(),
                                                                 partners.tolist())]
    return kept


@pytest.mark.parametrize("shape, kernel", KEEP_CASES)
def test_kept_candidates_are_the_candidate_pairs(shape, kernel):
    kept = kept_candidates(montecarlo._sampling_plan(shape, kernel))
    pairs = [(min(a, b), max(a, b)) for a, b, _ in kept]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == candidate_pairs(shape, kernel)
    assert all(a < b for a, b, self_inverse in kept if self_inverse)


def test_kept_candidates_of_the_wide_torus():
    plan = montecarlo._sampling_plan(*WIDE_TORUS)
    kept = kept_candidates(plan)
    assert len(kept) == 892_928
    assert len({(min(a, b), max(a, b)) for a, b, _ in kept}) == 892_928
    assert all(a < b for a, b, self_inverse in kept if self_inverse)


@pytest.mark.parametrize("shape, kernel", KEEP_CASES)
def test_mean_degree_counts_decisions_without_links(monkeypatch, shape, kernel):
    def built(plan, seeds):
        raise AssertionError("links were built")

    trials, seed = 5, 20260822
    expected = reference_estimate([
        2.0 * sample_graph(shape, kernel, trial_seed(seed, t)).edges.shape[0]
        / math.prod(np.atleast_1d(shape)) for t in range(trials)])
    monkeypatch.setattr(montecarlo, "_batch_links", built)
    assert estimate_mean_degree(shape, kernel, trials, seed) == expected
    assert estimate_mean_degree(shape, kernel, trials, seed, threads=2) == expected


# ---------------------------------------------------------------------------
# direct links read from the pinned pairs' own values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape, kernel", BATCH_CASES)
def test_pair_reads_equal_the_sampled_graphs(shape, kernel):
    plan = montecarlo._sampling_plan(shape, kernel)
    n = math.prod(plan.shape)
    offsets = list(range(1, n // 2 + 1))  # n/2 on even grids, inactive blocks
    trials, seed = 6, 20260822
    samples = [sample_graph(shape, kernel, trial_seed(seed, t)) for t in range(trials)]
    seeds = montecarlo._trial_seeds(seed, range(trials))
    inactive = 0
    for anchor in (0, 1, n // 2 + 1, n - 1, 2 * n):
        source, targets = montecarlo._pinned_pair(n, offsets, anchor)
        inactive += np.count_nonzero(montecarlo._pair_blocks(plan, source, targets)[0] < 0)
        expected = [[reference_separation(sample, offset, 0, anchor) == 0
                     for offset in offsets] for sample in samples]
        assert montecarlo._pair_links(plan, seeds, source, targets).tolist() == expected
        # both sides of the selection give the histogram of the sampled graphs
        histograms = []
        for per_read in (0, 10 ** 9):
            with mock.patch.object(montecarlo, "PAIR_READ_DRAWS", per_read):
                histograms.append(estimate_separation_histograms(
                    shape, kernel, offsets, 0, trials, seed, anchor=anchor))
        assert histograms[0] == histograms[1]
        assert [h.counts[0] for h in histograms[0]] == np.sum(expected, axis=0).tolist()
    # every grid but the dense ring has offsets whose block never links
    assert inactive > 0 or plan.blocks.size == n // 2


@pytest.mark.parametrize("shape, kernel, offsets, pair_read", [
    # the direct-link check of the battery: one active read against 12,288
    # draws per graph
    (256, UniformWindow(0.3, 1.2), (20, 100), True),
    ((12, 10), ProductKernel((UniformWindow(0.7, 0.9), UniformWindow(0.6, 1.0))),
     (1, 13, 60), True),
    # 63 active reads cost more than the 8,064 draws of a graph
    (126, UniformWindow(0.2, math.pi), tuple(range(1, 64)), False),
])
def test_pair_read_is_selected_by_its_cost(monkeypatch, shape, kernel, offsets, pair_read):
    monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 2)
    trials, seed = 40, 7
    assert pair_read_selected(shape, kernel, offsets, 0, 0) == pair_read
    with mock.patch.object(montecarlo, "PAIR_READ_DRAWS", 0 if not pair_read else 10 ** 9):
        other_path = estimate_separation_histograms(shape, kernel, offsets, 0, trials, seed)
    sampled = []
    original = montecarlo._sample_batch

    def recording(plan, seeds):
        sampled.append(seeds.size)
        return original(plan, seeds)

    monkeypatch.setattr(montecarlo, "_sample_batch", recording)
    streams = counting_philox_streams(monkeypatch)
    single = estimate_separation_histograms(shape, kernel, offsets, 0, trials, seed)
    assert streams == [trial_seed(seed, t) for t in range(trials)]
    assert (sum(sampled) == 0) == pair_read
    assert single == other_path
    streams.clear()
    assert estimate_separation_histograms(shape, kernel, offsets, 0, trials, seed,
                                          threads=2) == single
    # two workers make their streams side by side
    assert sorted(streams) == sorted(trial_seed(seed, t) for t in range(trials))


@pytest.mark.parametrize("shape, kernel, offsets, max_sep, error", [
    (256, UniformWindow(0.3, 1.2), (20, 0), 0, ValueError),
    (256, UniformWindow(0.3, 1.2), (129,), 0, ValueError),
    ((6, 5), ProductKernel((UniformWindow(0.7, 0.9), UniformWindow(0.6, 1.0))),
     (16,), 0, ValueError),
    (256, UniformWindow(0.3, 1.2), (20,), -1, ValueError),
    (HUGE_NODES, UniformWindow(0.1, 0.5), (20,), 0, CostBudgetError),
    (256, CosineSeries((0.1, 0.5)), (20,), 0, KernelValidationError),
    (256, ProductKernel((UniformWindow(0.7, 0.9), UniformWindow(0.6, 1.0))), (20,), 0,
     ValueError),
])
def test_pair_read_refuses_as_the_sampled_graphs_do(shape, kernel, offsets, max_sep, error):
    # the same call with the pair read always and never selected
    messages = []
    for per_read in (0, 10 ** 9):
        with mock.patch.object(montecarlo, "PAIR_READ_DRAWS", per_read):
            with pytest.raises(error) as raised:
                estimate_separation_histograms(shape, kernel, offsets, max_sep, 5, 3)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    # a larger max_sep, which always samples, raises the same
    if max_sep == 0:
        with pytest.raises(error, match=re.escape(messages[0])):
            estimate_separation_histograms(shape, kernel, offsets, 1, 5, 3)


def test_batched_chain_count_memory_does_not_grow_with_trials():
    kernel = UniformWindow(0.05, 0.5)
    for trials in (2_000, 20_000):
        peak = traced_peak(lambda: estimate_chain_counts(128, kernel, 16, (2,), trials,
                                                         master_seed=3))
        assert peak <= 3 * 2 ** 20


@pytest.mark.parametrize("master_seed", [0, 1, 7, 20260822, 2 ** 32 + 5,
                                         2 ** 70 + 12345, 2 ** 200 + 3])
def test_trial_seeds_match_seed_sequence(master_seed):
    # one-word and two-word trial indices; master seeds of one to seven
    # 32-bit words, past the seed sequence's four-word pool
    indices = [*range(3000), 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 7, 2 ** 64 - 1]
    expected = [int(np.random.SeedSequence(master_seed, spawn_key=(t,))
                    .generate_state(1, np.uint64)[0]) for t in indices]
    assert montecarlo._trial_seeds(master_seed, indices).tolist() == expected
    assert [trial_seed(master_seed, t) for t in indices[::300]] == expected[::300]
    assert trial_seed(master_seed, indices[-1]) == expected[-1]


# ---------------------------------------------------------------------------
# sampling plans, keyed edge order and stream keys
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("shape, kernel", [
    (128, UniformWindow(0.05, 0.5)),
    ((12, 10), ProductKernel((UniformWindow(0.7, 0.9), UniformWindow(0.6, 1.0)))),
])
def test_plan_built_once_per_shape_and_kernel(monkeypatch, shape, kernel, threads):
    expected = estimate_mean_degree(shape, kernel, 50, 4, threads=1)
    calls = []
    original = UniformWindow.evaluate

    def counting(self, angle):
        calls.append(self)
        return original(self, angle)

    monkeypatch.setattr(UniformWindow, "evaluate", counting)
    montecarlo._cached_plan.cache_clear()
    assert estimate_mean_degree(shape, kernel, 50, 4, threads=threads) == expected
    # one evaluation per kernel factor, all made while building the plan
    factors = getattr(kernel, "factors", (kernel,))
    assert calls == list(factors)


@pytest.mark.parametrize("shape, kernel, blocks", [
    # the battery's clustering graph
    (4096, UniformWindow(0.1, 1.0), 651),
    # 436 active offset vectors, drawn once for each pair d, -d
    ((64, 64), ProductKernel((UniformWindow(0.5, 0.9), UniformWindow(0.4, 1.1))), 218),
])
def test_plan_draws_each_offset_pair_once(shape, kernel, blocks):
    plan = montecarlo._sampling_plan(shape, kernel)
    assert plan.blocks.size == blocks
    assert montecarlo._graph_draws(plan) == 4096 * blocks  # 2,666,496 and 892,928


def test_plan_arrays_are_read_only():
    ring = montecarlo._sampling_plan((130,), UniformWindow(0.5, math.pi))
    torus = montecarlo._sampling_plan(
        (4, 4, 5), ProductKernel((UniformWindow(0.5, 1.6), interior_zero_kernel(),
                                  UniformWindow(0.4, 1.3))))
    arrays = [array for plan in (ring, torus) for chunk in plan.chunks
              for array in (chunk.probs, chunk.offsets)]
    arrays += list(torus.components)
    assert arrays
    for array in arrays:
        with pytest.raises(ValueError):
            array.flat[0] = 0


def reference_canonical_order(edges):
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


@st.composite
def unique_edge_pieces(draw):
    """A unique (low, high) pair set in random order, split into pieces."""
    n = draw(st.integers(2, 60))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda pair: pair[0] < pair[1]),
                          unique=True, max_size=120))
    cuts = sorted(draw(st.lists(st.integers(0, len(pairs)), max_size=4)))
    bounds = [0, *cuts, len(pairs)]
    return n, [np.asarray(pairs[a:b], dtype=np.int64).reshape(-1, 2)
               for a, b in zip(bounds, bounds[1:])]


def sampled_pieces(shape, kernel):
    sample = sample_graph(shape, kernel, seed=17)
    shuffled = np.random.default_rng(3).permutation(sample.edges)
    return sample.n, np.array_split(shuffled, 3)


@settings(max_examples=80, deadline=None)
@given(case=unique_edge_pieces())
@example(case=sampled_pieces(200, UniformWindow(0.4, 0.6)))
@example(case=sampled_pieces((12, 10), ProductKernel((UniformWindow(0.7, 0.9),
                                                      UniformWindow(0.6, 1.0)))))
@example(case=(9, []))
@example(case=(9, [np.empty((0, 2), dtype=np.int64)]))
def test_keyed_order_equals_lexsort(case):
    n, pieces = case
    keys = [piece[:, 0] * n + piece[:, 1] for piece in pieces]
    edges = montecarlo._canonical_edges(keys, n)
    expected = reference_canonical_order(np.concatenate(pieces) if pieces else [])
    assert edges.dtype == np.int64
    assert edges.shape == expected.shape
    assert np.array_equal(edges, expected)


def reference_batch_links(plan, seeds):
    """The links of a batch by the key round trip they were once decoded
    with: each link as the int64 key low * N + high of its union nodes (N
    of them), one key array per generator call, and the keys split again by
    division; node coordinates, wraps and graph numbers by
    ``np.unravel_index``, ``%`` and ``divmod``."""
    size, width, n = len(seeds), plan.width, math.prod(plan.shape)
    nodes = size * n
    streams = [np.random.Philox(key=np.uint64(seed)) for seed in seeds]
    keys = []
    for chunk in plan.chunks:
        draws = np.empty((size, chunk.blocks * width))
        for bits, row in zip(streams, draws):
            bits.advance(chunk.skip)
            np.random.Generator(bits).random(out=row)
        linked = np.flatnonzero(draws.reshape(size, chunk.blocks, width) < chunk.probs)
        rows, hits = np.divmod(linked, width)
        keep = hits < n
        graphs, rows = np.divmod(rows[keep], chunk.blocks)
        hits = hits[keep]
        partner = np.zeros_like(hits)
        for length, node_axis, delta_axis in zip(plan.shape, np.unravel_index(hits, plan.shape),
                                                 chunk.offsets.astype(np.int64)):
            partner = partner * length + (node_axis + delta_axis[rows]) % length
        if chunk.self_inverse:
            keep = hits < partner
            hits, partner, graphs = hits[keep], partner[keep], graphs[keep]
        low, high = np.minimum(hits, partner), np.maximum(hits, partner)
        keys.append((low + graphs * n) * nodes + high + graphs * n)
    return np.divmod(np.concatenate(keys) if keys else np.empty(0, dtype=np.int64), nodes)


@st.composite
def link_batches(draw):
    """A ring or torus node grid, a window kernel per axis and 1 to 4 seeds."""
    widths = st.one_of(st.just(math.pi), st.floats(0.05, math.pi))
    lengths = [draw(st.integers(2, 70))] if draw(st.booleans()) else draw(
        st.lists(st.integers(2, 7), min_size=2, max_size=3))
    factors = [UniformWindow(draw(st.floats(0.05, 1.0)), draw(widths)) for _ in lengths]
    kernel = factors[0] if len(lengths) == 1 else ProductKernel(tuple(factors))
    seeds = draw(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=4))
    return tuple(lengths), kernel, seeds


@settings(max_examples=60, deadline=None)
@given(case=link_batches())
# the half-circle block of an even ring holds fewer candidates than draws
@example(case=((128,), UniformWindow(0.5, math.pi), [3]))
@example(case=((130,), UniformWindow(0.5, math.pi), [3, 4, 5]))
@example(case=((1024,), UniformWindow(0.05, math.pi), [7, 8]))
@example(case=((128,), interior_zero_kernel(), [1, 2]))
@example(case=((4, 4, 5), ProductKernel((UniformWindow(0.5, 1.6), interior_zero_kernel(),
                                         UniformWindow(0.4, 1.3))), [9]))
@example(case=((12, 10), ProductKernel((UniformWindow(0.7, 0.9),
                                        UniformWindow(0.6, 1.0))), [9, 10, 11, 12]))
@example(case=((2, 2), ProductKernel((UniformWindow(0.7, math.pi),
                                      UniformWindow(0.6, math.pi))), [5, 6]))
def test_decoded_links_equal_the_key_round_trip(case):
    shape, kernel, seeds = case
    plan = montecarlo._sampling_plan(shape, kernel)
    batch = montecarlo._sample_batch(plan, np.array(seeds, dtype=np.uint64))
    low, high = batch.low, batch.high
    expected_low, expected_high = reference_batch_links(plan, seeds)
    assert np.array_equal(low, expected_low)
    assert np.array_equal(high, expected_high)
    assert low.dtype == high.dtype == np.int32


class EntropyDrawn(Exception):
    """A seed sequence asked the operating system for entropy."""


def test_sampling_draws_no_entropy(monkeypatch):
    import numpy.random.bit_generator as bit_generator

    ring = UniformWindow(0.5, math.pi)
    torus = ProductKernel((UniformWindow(0.7, 0.9), UniformWindow(0.6, 1.0)))
    seeds = [trial_seed(20260822, trial) for trial in range(3)]
    # the contract rebuilds use Philox(key=...), which draws entropy
    expected = ([contract_ring_edges(128, ring, seed) for seed in seeds]
                + [contract_torus_edges((12, 10), torus, seed) for seed in seeds])

    def refuse(_bits):
        raise EntropyDrawn

    # SeedSequence() without entropy takes its bits from here
    monkeypatch.setattr(bit_generator, "randbits", refuse)
    with pytest.raises(EntropyDrawn):
        np.random.SeedSequence()
    drawn = ([sample_graph(128, ring, seed).edges.tolist() for seed in seeds]
             + [sample_graph((12, 10), torus, seed).edges.tolist() for seed in seeds])
    assert [[tuple(row) for row in edges] for edges in drawn] == expected


def test_budget_refusal_is_not_cached():
    kernel = UniformWindow(0.1, 0.5)
    cached = montecarlo._cached_plan.cache_info().currsize
    for _ in range(2):
        with pytest.raises(CostBudgetError):
            sample_graph(HUGE_NODES, kernel, seed=1)
    assert montecarlo._cached_plan.cache_info().currsize == cached
