"""Graph sampling, estimators, and the determinism contract."""

import math
import threading
import time
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ringnet import montecarlo
from ringnet import (
    CosineSeries,
    CostBudgetError,
    EstimateUndefinedError,
    GraphSample,
    ProductKernel,
    UniformWindow,
    chain_count_in_sample,
    discrete_chain_count,
    discrete_mean_degree,
    empirical_clustering,
    empirical_separation_histogram,
    estimate_chain_count,
    estimate_clustering,
    estimate_mean_degree,
    estimate_separation_histogram,
    estimate_separation_histograms,
    run_trials,
    sample_graph,
    separation_in_sample,
    trial_seed,
)


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

    Offset block b (offset vector b + 1, flattened in mixed-radix order)
    draws its N candidates from a fresh ``Philox(key=seed)`` advanced to
    counter ``b * ceil(N / 4)``; candidate i links node i to node i + offset
    when its draw is below the link probability.
    """
    shape = tuple(shape)
    total = math.prod(shape)
    stride = -(-total // 4)
    axis_probs = [np.asarray(factor.evaluate(2.0 * math.pi * np.arange(length) / length))
                  for length, factor in zip(shape, kernel.factors)]
    pairs = set()
    for delta in range(1, total):
        components = np.unravel_index(delta, shape)
        prob = math.prod(float(p[c]) for p, c in zip(axis_probs, components))
        if prob <= 0.0:
            continue
        bits = np.random.Philox(key=np.uint64(seed))
        bits.advance((delta - 1) * stride)
        draws = np.random.Generator(bits).random(total)
        for node in np.nonzero(draws < prob)[0]:
            node_components = np.unravel_index(int(node), shape)
            partner = int(np.ravel_multi_index(
                [(a + c) % length for a, c, length
                 in zip(node_components, components, shape)], shape))
            # each pair shows up under an offset and its negation
            if node < partner:
                pairs.add((int(node), partner))
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
    offsets = np.arange(1, 65)
    probs = np.asarray(interior_zero_kernel().evaluate(2.0 * math.pi * offsets / 128))
    assert list(offsets[probs <= 0.0]) == [16, 48]


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
        estimate = estimate_chain_count(n, kernel, offset, k,
                                        trials=4000, master_seed=55)
        exact = discrete_chain_count(n, kernel, k, offset).reduced
        assert abs(estimate.mean - exact) <= 3.5 * estimate.std_error


def test_chain_count_anchor_invariance():
    n = 128
    kernel = UniformWindow(0.05, 0.5)
    base = estimate_chain_count(n, kernel, 16, 1, trials=2000, master_seed=4)
    moved = estimate_chain_count(n, kernel, 16, 1, trials=2000, master_seed=5,
                                 anchor=37)
    spread = math.hypot(base.std_error, moved.std_error)
    assert abs(base.mean - moved.mean) <= 3.5 * spread


def test_chain_count_budget_guard():
    sample = ring_sample(4, [(0, 1)])
    big = GraphSample(shape=(100_000,), seed=0,
                      edges=np.zeros((0, 2), dtype=np.int64))
    with pytest.raises(CostBudgetError):
        chain_count_in_sample(big, 50_000, 3)
    # small graphs stay affordable
    assert chain_count_in_sample(sample, 2, 3) == 0


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
    histogram = estimate_separation_histogram(
        128, UniformWindow(0.2, 0.7), offset=10, max_sep=3,
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
    inside = estimate_separation_histogram(n, kernel, offset=20, max_sep=0,
                                           trials=trials, master_seed=13)
    gap = 2.0 * math.pi * 20 / n
    q_inside = float(kernel.evaluate(gap))
    spread = math.sqrt(q_inside * (1.0 - q_inside) / trials)
    assert abs(inside.probabilities()[0] - q_inside) <= 3.5 * spread
    outside = estimate_separation_histogram(n, kernel, offset=100, max_sep=0,
                                            trials=trials, master_seed=13)
    assert outside.probabilities()[0] == 0.0


def test_histogram_one_hop_small_p_regime():
    n = 256
    kernel = UniformWindow(0.02, 1.0)
    trials = 6000
    offset = round(1.5 * n / (2.0 * math.pi))
    histogram = estimate_separation_histogram(n, kernel, offset, max_sep=1,
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


def test_run_trials_thread_invariant():
    def worker(seed):
        return seed * 2 + 1

    single = run_trials(worker, 32, master_seed=7, threads=1)
    multi = run_trials(worker, 32, master_seed=7, threads=8)
    assert single == multi


@pytest.mark.parametrize("trials", [1, 2, 3, 5, 33])
def test_each_worker_runs_contiguous_trials(monkeypatch, trials):
    monkeypatch.setattr(montecarlo, "_available_cpus", lambda: 2)

    def worker(seed):
        time.sleep(0.002)  # lets the other worker take trials meanwhile
        return seed, threading.get_ident()

    results = run_trials(worker, trials, master_seed=7, threads=2)
    assert [seed for seed, _ in results] == [trial_seed(7, t) for t in range(trials)]
    # two workers, one contiguous run of trials each
    idents = [ident for _, ident in results]
    assert sum(a != b for a, b in zip(idents, idents[1:])) <= 1


def test_estimates_thread_invariant():
    kernel = UniformWindow(0.3, 0.6)
    a = estimate_clustering(512, kernel, trials=12, master_seed=3, threads=1)
    b = estimate_clustering(512, kernel, trials=12, master_seed=3, threads=8)
    assert a == b
    ha = estimate_separation_histogram(256, kernel, 7, 2, 50, 3, threads=1)
    hb = estimate_separation_histogram(256, kernel, 7, 2, 50, 3, threads=8)
    assert np.array_equal(ha.counts, hb.counts)


def test_std_error_scaling():
    kernel = UniformWindow(0.3, 0.6)
    small = estimate_mean_degree(256, kernel, trials=64, master_seed=11)
    large = estimate_mean_degree(256, kernel, trials=1024, master_seed=11)
    ratio = small.std_error / large.std_error
    assert 2.0 < ratio < 8.0  # expect about 4 with statistical slack


def test_sample_budget_guard():
    with pytest.raises(CostBudgetError):
        sample_graph(1 << 22, UniformWindow(0.5, math.pi), seed=1)


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


def test_triangle_batches_cover_every_edge(monkeypatch):
    sample = sample_graph(256, UniformWindow(0.4, 1.0), seed=3)
    expected = reference_clustering_counts(sample)
    assert sample.edges.shape[0] % 3 != 0
    # rows are 4 words long: one edge per batch, then 3 edges per batch
    # with a shorter last batch
    for words in (1, 3 * 4 + 1):
        monkeypatch.setattr(montecarlo, "MAX_BITSET_WORDS", words)
        assert montecarlo._clustering_counts(sample) == expected


def test_multi_offset_histograms_match_per_offset_references():
    n, kernel, max_sep, trials, seed = 128, UniformWindow(0.2, 0.9), 3, 40, 5
    offsets = (1, 7, 20, 64, 7)
    single = estimate_separation_histograms(n, kernel, offsets, max_sep,
                                            trials, seed, threads=1)
    assert estimate_separation_histograms(n, kernel, offsets, max_sep,
                                          trials, seed, threads=2) == single
    samples = [sample_graph(n, kernel, trial_seed(seed, t)) for t in range(trials)]
    for offset, histogram in zip(offsets, single):
        assert histogram == estimate_separation_histogram(
            n, kernel, offset, max_sep, trials, seed)
        counts = [0] * (max_sep + 2)
        for sample in samples:
            sep = reference_separation(sample, offset, max_sep)
            counts[-1 if sep is None else sep] += 1
        assert histogram.counts == tuple(counts)


def test_multi_offset_call_samples_each_trial_once(monkeypatch):
    calls = []
    original = montecarlo.sample_graph

    def counting(shape, kernel, seed):
        calls.append(seed)
        return original(shape, kernel, seed)

    monkeypatch.setattr(montecarlo, "sample_graph", counting)
    histograms = estimate_separation_histograms(
        96, UniformWindow(0.2, 0.9), range(1, 49), 2, 7, 9)
    assert len(histograms) == 48
    assert calls == [trial_seed(9, t) for t in range(7)]


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
