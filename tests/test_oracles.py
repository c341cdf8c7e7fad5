"""Property tests: the sparse/vectorized kernels equal the loop oracles, the
hook-and-shortcut component labels equal a union-find's, the
degree-class odds-product fit equals the node-level Newton fit, the
power-law fit that reads each tail as a suffix equals the per-cutoff one, the
once-per-cycle k-cycle count equals the ordered-tuple sum and, bit for bit,
the whole-array product, the uniform sampler equals, bit for bit, the sample
of the built uniform matrix, the masked sampler, text writer, random matrix
and volume shift equal their index-array oracles, the keyed clustered graph,
empirical overlap and edge-list writer equal their loop, pairwise and
tuple-sort oracles, the ``np.loadtxt`` text reader equals the line-by-line
reader, the eigenpair tsvd model solved on open-twin classes equals the
dense-SVD one, and the linear, convex-combination and hdop builders that
write the adjacency at its CSR positions equal, bit for bit, their
dense-adjacency oracles."""

import importlib.util
import itertools
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_connected_graph
from eigm import oddsproduct, probmatrix, stats
from eigm.bounds import er_construction
from eigm.graphs import (
    Graph,
    _component_labels,
    connected_components,
    degrees,
    largest_connected_component,
    serialize_edge_list,
)
from eigm.modelzoo import fit_volume_shift, hdop, linear_model, tsvd_model
from eigm.oddsproduct import EXCLUDED_LOGIT, FitConvergenceError, fit_odds_product
from eigm.probmatrix import (
    ProbMatrix,
    ZeroVolumeError,
    convex_combine,
    empirical_overlap,
    expected_kcycles_exact,
    expected_kcycles_trace,
    load_probmatrix,
    overlap,
    sample,
    sample_uniform,
    save_probmatrix,
    to_dense,
    volume,
)
from eigm.stats import (
    DisconnectedGraphError,
    char_path_length,
    compare,
    global_clustering,
    triangle_counts,
)
from eigm.synth import (
    clustered_graph,
    powerlaw_configuration_graph,
    random_probmatrix,
)


@st.composite
def raw_edge_lists(draw, max_n=12):
    """(n, edges) with n >= 1; edges repeat, point both ways and loop."""
    n = draw(st.integers(1, max_n))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    return n, edges


@st.composite
def graphs(draw, max_n=12):
    """Random graphs, including the single-node and edgeless graphs."""
    return Graph.from_edges(*draw(raw_edge_lists(max_n)))


@st.composite
def equal_size_components(draw):
    """k >= 2 connected components of one size, node ids shuffled."""
    size = draw(st.integers(1, 5))
    k = draw(st.integers(2, 4))
    label = draw(st.permutations(range(size * k)))
    edges = []
    for c in range(k):
        nodes = [label[c * size + i] for i in range(size)]
        edges += list(zip(nodes, nodes[1:]))  # a spanning path
        if size > 2:
            pick = st.sampled_from(nodes)
            edges += draw(st.lists(st.tuples(pick, pick), max_size=size))
    return Graph.from_edges(size * k, edges)


def _assert_same_graph(fast: Graph, slow: Graph):
    assert fast == slow
    assert fast.indptr.dtype == slow.indptr.dtype == np.int64
    assert fast.indices.dtype == slow.indices.dtype == np.int64


@given(raw_edge_lists())
@settings(max_examples=100, deadline=None)
def test_from_edges_matches_oracle(case):
    n, edges = case
    _assert_same_graph(Graph.from_edges(n, edges), oracles.from_edges(n, edges))


def test_from_edges_errors_match_oracle():
    for n, edges in ((3, [(0, 1), (3, 1)]), (2, [(-1, 0)]), (0, []), (0, [(0, 1)])):
        with pytest.raises(ValueError) as fast:
            Graph.from_edges(n, edges)
        with pytest.raises(ValueError) as slow:
            oracles.from_edges(n, edges)
        assert str(fast.value) == str(slow.value)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_edge_array_matches_oracle(g):
    e = g.edge_array()
    ref = oracles.edge_array(g)
    assert e.shape == ref.shape == (g.m, 2)
    assert e.dtype == ref.dtype and np.array_equal(e, ref)
    assert np.array_equal(g.edge_keys(), ref[:, 0] * g.n + ref[:, 1])


@st.composite
def word_boundary_graphs(draw):
    """Graphs on 63 to 65 or 127 to 129 nodes, whose neighbor bit rows end
    around a uint64 word boundary, or on 1, 2 or 200 nodes: densities from
    edgeless to complete, some isolated nodes, sometimes a star hub."""
    n = draw(st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129, 200]))
    density = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < density
    hub = draw(st.none() | st.integers(0, n - 1))
    if hub is not None:
        keep |= (iu == hub) | (ju == hub)
    isolated = draw(st.lists(st.integers(0, n - 1), max_size=3))
    keep &= ~np.isin(iu, isolated) & ~np.isin(ju, isolated)
    return Graph.from_edges(n, np.column_stack([iu[keep], ju[keep]]))


@given(graphs() | word_boundary_graphs())
@settings(max_examples=150, deadline=None)
def test_triangle_counts_match_oracle(g):
    t, total = triangle_counts(g)
    t_ref, total_ref = oracles.triangle_counts(g)
    assert t.dtype == np.int64 and np.array_equal(t, t_ref)
    assert type(total) is int and total == total_ref
    assert t.sum() == 3 * total


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_connected_components_match_oracle(g):
    assert connected_components(g) == oracles.connected_components(g)


@given(st.one_of(graphs(), equal_size_components()))
@settings(max_examples=100, deadline=None)
def test_largest_connected_component_matches_oracle(g):
    lcc, id_map = largest_connected_component(g)
    lcc_ref, id_map_ref = oracles.largest_connected_component(g)
    _assert_same_graph(lcc, lcc_ref)
    assert id_map == id_map_ref


@given(equal_size_components())
@settings(max_examples=50, deadline=None)
def test_lcc_tie_breaks_toward_smallest_id(g):
    _, id_map = largest_connected_component(g)
    assert id_map[0] == 0


@st.composite
def hub_graphs(draw):
    """One to three hubs, each joined to most of up to 150 nodes, over a
    sparse random rest: a few rows hold most of the neighbor entries."""
    n = draw(st.integers(2, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hubs = rng.choice(n, size=draw(st.integers(1, min(3, n))), replace=False)
    spokes = [(h, j) for h in hubs for j in np.flatnonzero(rng.random(n) < 0.8)]
    rest = rng.integers(0, n, size=(n, 2))
    return Graph.from_edges(n, [*spokes, *rest[rng.random(n) < 2.0 / n]])


@given(st.one_of(graphs(), hub_graphs()))
@example(Graph.from_edges(700, [(0, j) for j in range(1, 700)]))  # a star
@example(Graph.from_edges(700, [(j, j + 1) for j in range(699)]))  # a 699-level BFS
@settings(max_examples=100, deadline=None)
def test_char_path_length_matches_dijkstra(g):
    lcc, _ = largest_connected_component(g)
    if lcc.n == 1:
        assert math.isnan(char_path_length(lcc))
    else:
        assert char_path_length(lcc) == oracles.char_path_length(lcc)


@st.composite
def shuffled_forests(draw):
    """Paths and random recursive trees on 1 to 400 nodes in random node
    order, each tree edge cut with a drawn probability: one long path or
    tree, many small components, or only isolated nodes."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(n)
    child = np.arange(1, n)
    parent = child - 1 if draw(st.booleans()) else (rng.random(n - 1) * child).astype(np.int64)
    keep = rng.random(n - 1) >= draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    return Graph.from_edges(n, np.column_stack([order[child], order[parent]])[keep])


@given(st.one_of(graphs(), equal_size_components(), shuffled_forests()))
@settings(max_examples=150, deadline=None)
def test_component_labels_match_union_find(g):
    count, labels = _component_labels(g)
    count_ref, labels_ref = oracles.component_labels(g)
    assert count == count_ref
    assert labels.shape == (g.n,) and np.array_equal(labels, labels_ref)


def test_component_labels_take_few_rounds_on_a_long_random_order_path():
    order = np.random.default_rng(0).permutation(5000)
    g = Graph.from_edges(5000, np.column_stack([order[:-1], order[1:]]))
    # one convergence test per round
    with mock.patch.object(np, "array_equal", wraps=np.array_equal) as rounds:
        count, labels = _component_labels(g)
    assert count == 1 and not labels.any()
    # hooking each parent keeps this to a few rounds; pulling only the
    # smallest neighbouring label took thousands
    assert rounds.call_count <= 20


def _reversed_labels(g):
    """``_component_labels`` with its components numbered backwards."""
    k, labels = _component_labels(g)
    return k, k - 1 - labels


@given(st.one_of(graphs(), equal_size_components()))
@settings(max_examples=100, deadline=None)
def test_lcc_and_path_length_do_not_depend_on_label_order(g):
    with pytest.MonkeyPatch.context() as mp:
        for module in ("eigm.graphs", "eigm.stats"):
            mp.setattr(f"{module}._component_labels", _reversed_labels)
        lcc, id_map = largest_connected_component(g)
        cpl = char_path_length(lcc)
        if oracles.component_labels(g)[0] > 1:
            with pytest.raises(DisconnectedGraphError):
                char_path_length(g)
    lcc_ref, id_map_ref = oracles.largest_connected_component(g)
    _assert_same_graph(lcc, lcc_ref)
    assert id_map == id_map_ref
    if lcc.n == 1:
        assert math.isnan(cpl)
    else:
        assert cpl == oracles.char_path_length(lcc)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_compare_clustering_matches_global_clustering(g):
    rec = compare(g, g)
    expected = global_clustering(g)
    assert rec.clustering_coeff == expected or (
        math.isnan(rec.clustering_coeff) and math.isnan(expected)
    )


@st.composite
def graph_pairs(draw):
    """A reference and a generated graph on the same node set."""
    n, edges = draw(raw_edge_lists())
    node = st.integers(0, n - 1)
    other = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    return Graph.from_edges(n, edges), Graph.from_edges(n, other)


def _same_correlation(got: float, want: float) -> bool:
    # a zero correlation comes out of either sum as cancellation noise near
    # 1e-17, so values within 1e-12 of 0 compare absolutely
    return (math.isnan(got) and math.isnan(want)) or math.isclose(
        got, want, rel_tol=1e-12, abs_tol=1e-12
    )


_CYCLE = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])


@given(graph_pairs())
@example((Graph.from_edges(1, []), Graph.from_edges(1, [])))  # one node
@example((_CYCLE, _CYCLE))  # regular: constant degrees
@example((_CYCLE, Graph.from_edges(6, [])))  # edgeless sample
@example((_CYCLE, Graph.from_edges(6, [(0, 1)])))  # one edge
@settings(max_examples=150, deadline=None)
def test_correlations_match_the_pearson_oracle(pair):
    ref, gen = pair
    rec = compare(ref, gen)
    t_ref, t_gen = oracles.triangle_counts(ref)[0], oracles.triangle_counts(gen)[0]
    assert _same_correlation(rec.degree_pearson, oracles.pearson(degrees(ref), degrees(gen)))
    assert _same_correlation(rec.triangle_pearson, oracles.pearson(t_ref, t_gen))
    assert _same_correlation(rec.assortativity, oracles.assortativity(gen))


@st.composite
def zipf_degrees(draw):
    """Heavy-tailed degrees: a Zipf draw of 1-300 entries, exponent 1.5-4."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.zipf(draw(st.floats(1.5, 4.0)), size=draw(st.integers(1, 300)))


@given(
    st.one_of(
        st.lists(st.integers(0, 40), max_size=60).map(np.array),  # zeros
        st.tuples(st.integers(0, 9), st.integers(0, 60)).map(lambda t: np.full(t[1], t[0])),
        st.lists(st.integers(0, 20), max_size=9).map(np.array),  # below _MIN_TAIL
        zipf_degrees(),
    )
)
@example(np.array([], dtype=np.int64))
@settings(max_examples=300, deadline=None)
def test_fit_power_law_matches_the_per_cutoff_oracle(d):
    # equal fits, or None on both sides
    assert stats.fit_power_law(d) == oracles.fit_power_law(d)


@st.composite
def corrupted_graphs(draw):
    """A valid graph whose CSR arrays had one neighbor id overwritten."""
    g = draw(graphs(max_n=8).filter(lambda g: g.m > 0))
    indices = g.indices.copy()
    indices[draw(st.integers(0, len(indices) - 1))] = draw(st.integers(-1, g.n))
    return Graph(n=g.n, indptr=g.indptr, indices=indices, m=g.m)


def _accepts(check, g) -> bool:
    try:
        check(g)
    except AssertionError:
        return False
    return True


@given(st.one_of(graphs(), corrupted_graphs()))
@settings(max_examples=150, deadline=None)
def test_validate_matches_oracle(g):
    assert _accepts(Graph.validate, g) == _accepts(oracles.validate, g)


def test_validate_rejects_each_broken_invariant():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])  # indices [1, 0, 2, 1]
    broken = [
        np.array([1, 0, 2, 2]),  # self-loop at 2 (and asymmetric)
        np.array([1, 2, 0, 1]),  # row 1 unsorted
        np.array([2, 0, 2, 1]),  # (0, 2) without (2, 0)
        np.array([1, 0, 3, 1]),  # neighbor id out of range
    ]
    cases = [Graph(n=3, indptr=path.indptr, indices=i, m=2) for i in broken]
    # a mirrored duplicate pair is symmetric but not simple
    cases.append(Graph(n=2, indptr=np.array([0, 2, 4]), indices=np.array([1, 1, 0, 0]), m=2))
    for g in cases:
        assert not _accepts(Graph.validate, g)
        assert not _accepts(oracles.validate, g)


@pytest.mark.parametrize("chunk", [1, 64, 100, 512])
def test_char_path_length_source_blocks(chunk, monkeypatch):
    # n > 64 puts the sources in several bit-word blocks; at n = 700 the last
    # block is narrower than the others (188 sources in 3 words at chunk 512)
    monkeypatch.setattr(stats, "_SOURCES", chunk)
    graphs = [random_connected_graph(150, 0.03, seed=seed) for seed in range(3)]
    for g in graphs + [clustered_graph(100, 7, 5e-4, seed=0)]:  # connected, n = 700
        assert char_path_length(g) == oracles.char_path_length(g)


def test_row_blocked_kernels_match_oracles(monkeypatch):
    g, _ = largest_connected_component(clustered_graph(20, 6, 0.01, seed=1))
    t_ref, total_ref = oracles.triangle_counts(g)
    cpl_ref = oracles.char_path_length(g)
    # a gather budget below 2m words makes every source block one word wide,
    # and n = 120 puts the sources in two of them
    assert len(g.indices) > 40 and g.n == 120
    monkeypatch.setattr(stats, "_GATHER_WORDS", 40)
    monkeypatch.setattr(stats, "_EDGE_BLOCK_WORDS", 5)  # edge blocks of 2 edges
    t, total = triangle_counts(g)
    assert np.array_equal(t, t_ref) and total == total_ref
    assert char_path_length(g) == cpl_ref


@st.composite
def sequences_with_zeros(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    d = draw(st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1))
    return np.array(draw(st.permutations(d + [0])))


@st.composite
def all_equal_sequences(draw, max_n=12):
    """One degree class (k = 1)."""
    n = draw(st.integers(1, max_n))
    return np.full(n, draw(st.integers(0, n - 1)))


@st.composite
def all_distinct_sequences(draw, max_n=12):
    """n distinct fractional targets in (0, n - 1), so k = n."""
    n = draw(st.integers(2, max_n))
    tenths = st.integers(1, 10 * (n - 1) - 1)
    return np.array(draw(st.lists(tenths, min_size=n, max_size=n, unique=True))) / 10


def _fit_outcome(fit, d):
    try:
        return fit(d)
    except FitConvergenceError as exc:
        return exc


@given(
    st.one_of(
        graphs().map(degrees),
        sequences_with_zeros(),
        all_equal_sequences(),
        all_distinct_sequences(),
    ),
)
@settings(max_examples=300, deadline=None)
def test_class_fit_matches_node_oracle(d):
    # Expected differences: a failing fit may stop at another iteration with
    # another residual in its message (near-singular steps round differently
    # in the k x k and n x n systems), and ``ridge_used`` may differ, since a
    # singular node Jacobian can have a nonsingular class restriction (see
    # test_class_fit_needs_no_ridge_on_two_equal_degrees).
    slow = _fit_outcome(oracles.fit_odds_product, d)
    fast = _fit_outcome(fit_odds_product, d)
    report = fast.report if isinstance(fast, FitConvergenceError) else fast[2]
    assert report.iterations == len(report.residual_history) - 1  # converged or not
    if isinstance(slow, FitConvergenceError):
        assert isinstance(fast, FitConvergenceError)
        return
    assert not isinstance(fast, FitConvergenceError), str(fast)
    (_, p_slow, report_slow), (_, p_fast, report_fast) = slow, fast
    assert report_fast.iterations == report_slow.iterations
    assert report_fast.converged == report_slow.converged
    assert np.abs(p_fast.mat - p_slow.mat).max() <= 1e-12


def test_class_fit_needs_no_ridge_on_two_equal_degrees():
    # d = [1, 1]: the node Jacobian [[b, b], [b, b]] is singular, the 1 x 1
    # class Jacobian [2b] is not; both fits reach the same P
    _, p_slow, report_slow = oracles.fit_odds_product(np.array([1, 1]))
    _, p_fast, report_fast = fit_odds_product(np.array([1, 1]))
    assert report_slow.ridge_used and not report_fast.ridge_used
    assert report_fast.iterations == report_slow.iterations
    assert np.abs(p_fast.mat - p_slow.mat).max() <= 1e-12


@given(
    st.lists(
        st.one_of(
            st.sampled_from([0.0, -2.5, 3.0, EXCLUDED_LOGIT]),  # repeated logits
            st.floats(-40.0, 40.0),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=200, deadline=None)
def test_prob_from_logits_gathers_the_dense_formula(logits):
    logits = np.array(logits)
    p = oddsproduct._prob_from_logits(logits)
    assert p.flags.c_contiguous
    assert p.tobytes() == oracles.prob_from_logits(logits).tobytes()


@st.composite
def cycle_cases(draw):
    """(P, k): n in 1..10 (n < k included), binary or fractional entries,
    with zeros.  Nonzero fractions are >= 1e-3, so no product of six of
    them underflows to zero."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(3, 6))
    if draw(st.booleans()):
        entry = st.sampled_from([0.0, 1.0])
    else:
        entry = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    iu = np.triu_indices(n, 1)
    a = np.zeros((n, n))
    a[iu] = draw(st.lists(entry, min_size=len(iu[0]), max_size=len(iu[0])))
    return ProbMatrix.from_array(a + a.T), k


@given(cycle_cases())
@settings(max_examples=150, deadline=None)
def test_kcycles_exact_matches_ordered_tuple_oracle(case):
    p, k = case
    fast, slow = expected_kcycles_exact(p, k), oracles.expected_kcycles_exact(p, k)
    if slow == 0.0:
        assert fast == 0.0
    else:
        assert fast == pytest.approx(slow, rel=1e-12, abs=0.0)


@given(st.integers(1, 14), st.integers(3, 6), st.integers(0, 2**32 - 1),
       st.floats(0.0, 1.0), st.sampled_from([1.0, 0.1, 1e-60, 1e-300]))
@settings(max_examples=150, deadline=None)
def test_kcycles_exact_equals_whole_array_product(n, k, seed, lo, scale):
    # entries below lo become zeros; at scales 1e-60 and 1e-300 the products
    # pass through subnormals and underflow to zero
    m = np.array(random_probmatrix(n, seed).mat)
    m[m < lo] = 0.0
    p = ProbMatrix.from_array(m * scale)
    # the (sets, orders, k) index cube, gathered and multiplied in one expression
    sets = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    orders = [(0, *q) for q in itertools.permutations(range(1, k)) if q[0] < q[-1]]
    cyc = sets.reshape(-1, k)[:, orders]
    want = float(p.mat[cyc, np.roll(cyc, -1, axis=-1)].prod(-1).sum())
    assert expected_kcycles_exact(p, k) == want


@given(st.integers(1, 60), st.integers(3, 6), st.integers(0, 2**32 - 1),
       st.sampled_from([1.0, 0.1]))
@settings(max_examples=100, deadline=None)
def test_kcycle_trace_matches_matrix_power_oracle(n, k, seed, scale):
    p = random_probmatrix(n, seed, scale)
    fast, slow = expected_kcycles_trace(p, k), oracles.expected_kcycles_trace(p, k)
    assert math.isclose(fast, slow, rel_tol=1e-12)


@st.composite
def sampler_cases(draw):
    """(P, seed): n in 1..40; entries below ``lo`` become exact zeros and
    entries above ``hi`` exact ones, so P ranges from all-zero through mixed
    to binary; the sampling seed is any 64-bit integer."""
    n = draw(st.integers(1, 40))
    lo = draw(st.floats(0.0, 1.0))
    hi = draw(st.floats(lo, 1.0))
    m = np.array(oracles.random_probmatrix(n, draw(st.integers(0, 2**32 - 1))).mat)
    m[m < lo] = 0.0
    m[m > hi] = 1.0
    return ProbMatrix.from_array(m), draw(st.integers(0, 2**64 - 1))


# Row-block sizes for `_upper_blocks`: one pair per block, blocks that split
# and join rows, and the default, which covers any n <= 40 in one block.
_SAMPLE_BLOCKS = (1, 2, 7, 64, probmatrix._SAMPLE_BLOCK)


@given(sampler_cases())
@settings(max_examples=200, deadline=None)
def test_sample_matches_index_array_oracle(case):
    p, seed = case
    expect = oracles.sample(p, seed)
    for block in _SAMPLE_BLOCKS:
        with mock.patch.object(probmatrix, "_SAMPLE_BLOCK", block):
            assert sample(p, seed) == expect


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sample_matches_index_array_oracle_at_tiny_n(n):
    # the sample seed differs from the matrix seed: drawn with the same
    # stream, every draw u would meet its probability u, and no pair is an edge
    for seed in range(50):
        p = oracles.random_probmatrix(n, seed)
        expect = oracles.sample(p, seed + 1)
        for block in _SAMPLE_BLOCKS:
            with mock.patch.object(probmatrix, "_SAMPLE_BLOCK", block):
                assert sample(p, seed + 1) == expect


@given(st.integers(1, 40), st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
       st.integers(0, 2**64 - 1))
@settings(max_examples=150, deadline=None)
def test_sample_uniform_matches_sample_of_uniform_matrix(n, prob, seed):
    want = sample(er_construction(n, prob), seed)
    for block in _SAMPLE_BLOCKS:
        with mock.patch.object(probmatrix, "_SAMPLE_BLOCK", block):
            assert sample_uniform(n, prob, seed) == want


@given(sampler_cases(), st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_empirical_overlap_matches_pairwise_oracle(case, k):
    p, seed = case
    drawn = [sample(p, seed ^ t) for t in range(k)]
    if volume(p) == 0.0:
        for overlap_of in (empirical_overlap, oracles.empirical_overlap):
            with pytest.raises(ZeroVolumeError):
                overlap_of(p, drawn)
        return
    got, want = empirical_overlap(p, drawn), oracles.empirical_overlap(p, drawn)
    if k < 2:
        assert math.isnan(got) and math.isnan(want)
    elif k == 2:
        assert got == want
    else:  # the pairwise oracle rounds once per pair
        assert math.isclose(got, want, rel_tol=1e-14)


@given(st.integers(1, 30), st.integers(2, 9),
       st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
       st.integers(0, 2**64 - 1))
@settings(max_examples=150, deadline=None)
def test_clustered_graph_matches_loop_oracle(n_cliques, clique_size, bridge_prob, seed):
    want = oracles.clustered_graph(n_cliques, clique_size, bridge_prob, seed)
    for block in _SAMPLE_BLOCKS:
        with mock.patch.object(probmatrix, "_SAMPLE_BLOCK", block):
            _assert_same_graph(clustered_graph(n_cliques, clique_size, bridge_prob, seed), want)


def _assert_writes_text_oracle(p: ProbMatrix):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.pmat"
        save_probmatrix(p, path)
        assert path.read_text(encoding="utf-8") == oracles.probmatrix_text(p)


@given(sampler_cases())
@settings(max_examples=100, deadline=None)
def test_save_probmatrix_matches_text_oracle(case):
    _assert_writes_text_oracle(case[0])


@st.composite
def text_format_cases(draw):
    """P with n in 1..30 whose pairs are, in proportions hypothesis picks,
    exact zeros, exact ones, values below 1e-300 (subnormals included) and
    uniform draws."""
    n = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**32 - 2))
    zero, one, tiny = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)))
    u = oracles.random_probmatrix(n, seed).mat
    kind = oracles.random_probmatrix(n, seed + 1).mat
    m = np.where(kind < tiny, u * 10.0 ** -(300 + 23 * kind), u)
    m = np.where(kind < one, 1.0, m)
    m = np.where(kind < zero, 0.0, m)
    np.fill_diagonal(m, 0.0)
    return ProbMatrix.from_array(m)


@given(text_format_cases())
@settings(max_examples=100, deadline=None)
def test_save_probmatrix_formats_zeros_ones_and_subnormals_like_text_oracle(p):
    _assert_writes_text_oracle(p)


@pytest.mark.parametrize("mat", [
    np.zeros((1, 1)),
    np.ones((4, 4)) - np.eye(4),
], ids=["n1", "complete-n4"])
def test_save_probmatrix_matches_text_oracle_at_the_edges(mat):
    _assert_writes_text_oracle(ProbMatrix.from_array(mat))


@given(text_format_cases())
@settings(max_examples=100, deadline=None)
def test_load_probmatrix_matches_line_oracle(p):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.pmat"
        save_probmatrix(p, path)
        loaded = load_probmatrix(path).mat
        assert np.array_equal(loaded, oracles.load_probmatrix(path).mat)
        assert np.array_equal(loaded, p.mat)


@pytest.mark.parametrize("text", [
    pytest.param("0 1 0.5\n", id="no-header"),
    pytest.param("n=0\n", id="n-zero"),
    pytest.param("n=3\n0 1\n", id="two-columns"),
    pytest.param("n=3\n0 1 0.5 0.5\n", id="four-columns"),
    pytest.param("n=3\n# i j p\n0 1 0.5\n", id="comment-line"),
    pytest.param("n=3\n0.5 1 0.5\n", id="non-integer-index"),
    pytest.param("n=3\n1 1 0.5\n", id="i-equals-j"),
    pytest.param("n=3\n0 1 0.5\n2 1 0.5\n", id="i-above-j"),
    pytest.param("n=3\n0 3 0.5\n", id="j-equals-n"),
    pytest.param("n=3\n-1 2 0.5\n", id="negative-index"),
    pytest.param("n=3\n0 1 1.5\n", id="p-above-one"),
    pytest.param("n=3\n0 1 -0.1\n", id="p-negative"),
    pytest.param("n=3\n0 1 nan\n", id="p-nan"),
    pytest.param("n=3\n0 1 inf\n", id="p-inf"),
])
def test_malformed_text_fails_in_both_readers(tmp_path, text):
    path = tmp_path / "bad.pmat"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError):
        load_probmatrix(path)
    with pytest.raises(ValueError):
        oracles.load_probmatrix(path)


def test_blank_lines_tabs_crlf_and_repeats_load_like_the_oracle(tmp_path):
    path = tmp_path / "p.pmat"
    path.write_bytes(b"n=4\r\n0 1 0.25\r\n\r\n \t\n1\t3\t1\r\n 2  3 1e-310 \r\n0 1 0.5\r\n")
    loaded = load_probmatrix(path).mat
    assert np.array_equal(loaded, oracles.load_probmatrix(path).mat)
    assert (loaded[0, 1], loaded[1, 3], loaded[2, 3]) == (0.5, 1.0, 1e-310)


def test_header_only_file_is_the_zero_matrix_without_warnings(tmp_path):
    path = tmp_path / "zero.pmat"
    save_probmatrix(ProbMatrix.from_array(np.zeros((3, 3))), path)
    assert path.read_text(encoding="utf-8") == "n=3\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(load_probmatrix(path).mat, np.zeros((3, 3)))


@pytest.mark.parametrize("scale", [1.0, 0.1])
def test_random_probmatrix_matches_index_array_oracle(scale):
    for n in range(1, 41):
        want = oracles.random_probmatrix(n, 7 * n, scale)
        for block in _SAMPLE_BLOCKS:
            with mock.patch.object(probmatrix, "_SAMPLE_BLOCK", block):
                assert random_probmatrix(n, 7 * n, scale) == want


def _twin_classes(g: Graph) -> int:
    """Number of distinct neighbor sets: the order of the matrix tsvd solves."""
    return len({tuple(g.neighbors(i)) for i in range(g.n)})


def _truncation_gap(g: Graph, k: int) -> float:
    """|lambda_k| - |lambda_(k+1)|, infinite where the rank-k truncation is
    unique anyway (k = n, or only zero eigenvalues from the k-th on)."""
    lam = np.sort(np.abs(np.linalg.eigvalsh(to_dense(g).mat)))[::-1]
    if k == g.n or lam[k - 1] < 1e-9:
        return math.inf
    return lam[k - 1] - lam[k]


def _assert_tsvd_matches_svd_oracle(g: Graph, k: int) -> ProbMatrix:
    # with |lambda_k| = |lambda_(k+1)| the rank-k truncation is not unique
    assert _truncation_gap(g, k) > 1e-6
    p = tsvd_model(g, k)
    assert np.abs(p.mat - oracles.tsvd_model(g, k).mat).max() <= 1e-10
    assert abs(volume(p) - g.m) <= 1e-6 * g.m
    return p


@pytest.mark.parametrize("k", [8, 16, 40])
def test_tsvd_matches_svd_oracle_on_both_solvers(k):
    g, _ = largest_connected_component(powerlaw_configuration_graph(260, 2.2, seed=2))
    assert (g.n, _twin_classes(g)) == (210, 122)
    # rank 8 takes eigsh (8k <= n_c); rank 16 takes eigh, as 8k <= n but
    # 8k > n_c; rank 40 takes eigh
    _assert_tsvd_matches_svd_oracle(g, k)


@pytest.mark.parametrize("k", [2, 3, 8, 21])
def test_tsvd_of_a_star_is_the_star(k):
    # K_{1,20} has two twin classes, so every k >= 2 keeps its whole spectrum
    # (eigsh would refuse k >= n_c = 2; eigh on the 2 x 2 matrix keeps both)
    star = Graph.from_edges(21, [(0, j) for j in range(1, 21)])
    assert _twin_classes(star) == 2
    p = _assert_tsvd_matches_svd_oracle(star, k)
    assert np.abs(p.mat - to_dense(star).mat).max() <= 1e-10
    assert overlap(p) == pytest.approx(1.0, abs=1e-10)


@st.composite
def graphs_with_twins(draw):
    """Random graphs plus nodes that copy the neighbor set of a random node
    (an open twin of it), then up to two isolated nodes."""
    n, edges = draw(raw_edge_lists(max_n=16))
    g = Graph.from_edges(n, edges)
    adj = [set(g.neighbors(i).tolist()) for i in range(n)]
    for src in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8)):
        for j in adj[src]:
            adj[j].add(len(adj))
        adj.append(set(adj[src]))
    size = len(adj) + draw(st.integers(0, 2))
    return Graph.from_edges(size, [(i, j) for i, nb in enumerate(adj) for j in nb])


@given(graphs_with_twins(), st.data())
@settings(max_examples=60, deadline=None)
def test_tsvd_matches_svd_oracle_on_graphs_with_twins(g, data):
    k = data.draw(st.integers(1, g.n))
    assume(g.m > 0 and _truncation_gap(g, k) > 1e-3)
    _assert_tsvd_matches_svd_oracle(g, k)


# K_{3,7}: two open-twin classes
_K37 = Graph.from_edges(10, itertools.product(range(3), range(3, 10)))
# a 10-cycle with 5 leaves on node 0 and 3 on node 5, plus 2 isolated nodes,
# whose class has a zero row: 13 open-twin classes, so rank 20 exceeds n_c
_TWIN_LEAVES = Graph.from_edges(20, [*((i, (i + 1) % 10) for i in range(10)),
                                     *((0, j) for j in range(10, 15)),
                                     *((5, j) for j in range(15, 18))])


@pytest.mark.parametrize("g, k", [
    # the all-ones start vector of eigsh is the eigenvector of 8 and is
    # orthogonal to the eigenvector of -8
    pytest.param(Graph.from_edges(16, itertools.product(range(8), range(8, 16))),
                 2, id="K8,8"),
    # the start vector lies in the span of the two top eigenvectors (9 and 5)
    pytest.param(Graph.from_edges(16, [*itertools.combinations(range(10), 2),
                                       *itertools.combinations(range(10, 16), 2)]),
                 2, id="K10+K6"),
    # |lambda| = sqrt3, sqrt3, 1, 1, 0: k = n - 1 takes eigh and is unique
    pytest.param(Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 4, id="P5"),
    *(pytest.param(_K37, k, id=f"K3,7-rank{k}") for k in (2, 5, 10)),
    *(pytest.param(_TWIN_LEAVES, k, id=f"C10+twin-leaves-rank{k}") for k in (2, 6, 13, 20)),
])
def test_tsvd_matches_svd_oracle_on_structured_spectra(g, k):
    _assert_tsvd_matches_svd_oracle(g, k)


@pytest.mark.parametrize("n", [2, 3, 17, 500])
def test_volume_shift_matches_index_array_oracle(n):
    rng = np.random.Generator(np.random.Philox(key=n))
    l = rng.normal(0.0, 0.5, size=(n, n))
    l = 0.5 * (l + l.T)
    target = 0.3 * n * (n - 1) / 2
    assert fit_volume_shift(l, target) == oracles.fit_volume_shift(l, target)


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_volume_shift_matches_index_array_oracle_on_bench_reference(monkeypatch):
    workloads = _bench_workloads()
    scale = workloads.SCALES["full"]
    g = workloads.powerlaw_reference(scale["powerlaw_draw_n"], scale["powerlaw_n"], 0)
    shifts = []

    def checked_shift(l, target_volume):
        shifts.append(fit_volume_shift(l, target_volume))
        assert shifts[-1] == oracles.fit_volume_shift(l, target_volume)
        return shifts[-1]

    monkeypatch.setattr("eigm.modelzoo.fit_volume_shift", checked_shift)
    for k in scale["powerlaw_ranks"]:
        tsvd_model(g, k)
    assert len(shifts) == len(scale["powerlaw_ranks"])


@st.composite
def graphs_with_isolated_nodes(draw):
    """Random graphs with up to three isolated nodes appended."""
    n, edges = draw(raw_edge_lists())
    return Graph.from_edges(n + draw(st.integers(0, 3)), edges)


OMEGAS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def _assert_same_model(fast, slow, *args):
    """Bit-identical matrices, or the same exception with the same message."""
    try:
        want = slow(*args)
    except (ValueError, FitConvergenceError) as exc:
        with pytest.raises(type(exc)) as got:
            fast(*args)
        assert str(got.value) == str(exc)
        return
    assert np.array_equal(fast(*args).mat, want.mat)


@given(graphs_with_isolated_nodes(), OMEGAS)
@settings(max_examples=150, deadline=None)
def test_linear_model_matches_dense_oracle(g, omega):
    _assert_same_model(linear_model, oracles.linear_model, g, omega)


@given(graphs_with_isolated_nodes(), OMEGAS, st.integers(0, 2**32),
       st.floats(0.0, 1.0, exclude_min=True))
@settings(max_examples=150, deadline=None)
def test_convex_combine_matches_dense_oracle(g, omega, seed, scale):
    p = random_probmatrix(g.n, seed, scale)
    _assert_same_model(convex_combine, oracles.convex_combine, p, g, omega)


@given(graphs_with_isolated_nodes())
@settings(max_examples=150, deadline=None)
def test_serialize_edge_list_matches_tuple_sort_oracle(g):
    assert serialize_edge_list(g) == oracles.serialize_edge_list(g)


@given(graphs_with_isolated_nodes())
@settings(max_examples=150, deadline=None)
def test_save_probmatrix_matches_text_oracle_on_odds_product_fits(g):
    """Few distinct values, repeated across rows; an isolated node's row is
    all zero."""
    try:
        _, p, _ = fit_odds_product(degrees(g))
    except FitConvergenceError:
        return
    _assert_writes_text_oracle(p)


@pytest.mark.parametrize("kind", ["fit", "all-distinct"])
def test_save_probmatrix_peak_stays_below_one_copy_of_p(tmp_path, kind):
    if kind == "fit":
        _, p, _ = fit_odds_product(degrees(clustered_graph(86, 7, 5e-4, seed=0)))
    else:
        p = random_probmatrix(600, 0)
    tracemalloc.start()
    try:
        save_probmatrix(p, tmp_path / "p.pmat")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * p.n**2


@st.composite
def hdop_cases(draw):
    """A graph and h in {0, n} or drawn from [0, n]."""
    g = draw(graphs_with_isolated_nodes())
    return g, draw(st.one_of(st.sampled_from([0, g.n]), st.integers(0, g.n)))


@given(hdop_cases())
@settings(max_examples=150, deadline=None)
def test_hdop_matches_dense_oracle(case):
    _assert_same_model(hdop, oracles.hdop, *case)


def test_csr_builders_match_dense_oracles_on_bench_references():
    workloads = _bench_workloads()
    scale = workloads.SCALES["full"]
    g = workloads.powerlaw_reference(scale["powerlaw_draw_n"], scale["powerlaw_n"], 0)
    for h in (0, 64, 125, 256):
        assert np.array_equal(hdop(g, h).mat, oracles.hdop(g, h).mat)
    c = clustered_graph(scale["clustered_cliques"], 7, 5e-4, seed=0)
    _, p, _ = fit_odds_product(degrees(c))
    for omega in (0.0, 0.25, 0.5, 1.0):
        assert np.array_equal(linear_model(c, omega).mat, oracles.linear_model(c, omega).mat)
        assert np.array_equal(convex_combine(p, c, omega).mat,
                              oracles.convex_combine(p, c, omega).mat)
