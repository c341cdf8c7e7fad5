"""Property tests: the sparse/vectorized kernels equal the loop oracles, the
degree-class odds-product fit equals the node-level Newton fit, the
once-per-cycle k-cycle count equals the ordered-tuple sum, and the masked
sampler, text writer, random matrix and volume shift equal their
index-array oracles, the ``np.loadtxt`` text reader equals the line-by-line
reader, and the eigenpair tsvd model equals the dense-SVD one."""

import importlib.util
import itertools
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_connected_graph
from eigm import stats
from eigm.graphs import (
    Graph,
    connected_components,
    degrees,
    largest_connected_component,
)
from eigm.modelzoo import fit_volume_shift, tsvd_model
from eigm.oddsproduct import FitConvergenceError, fit_odds_product
from eigm.probmatrix import (
    ProbMatrix,
    expected_kcycles_exact,
    load_probmatrix,
    sample,
    save_probmatrix,
    to_dense,
    volume,
)
from eigm.stats import char_path_length, compare, global_clustering, triangle_counts
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
    for n, edges in ((3, [(0, 1), (3, 1)]), (2, [(-1, 0)]), (0, [])):
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


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_triangle_counts_match_oracle(g):
    t, total = triangle_counts(g)
    t_ref, total_ref = oracles.triangle_counts(g)
    assert t.dtype == np.int64 and np.array_equal(t, t_ref)
    assert type(total) is int and total == total_ref


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


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_char_path_length_matches_dijkstra(g):
    lcc, _ = largest_connected_component(g)
    if lcc.n == 1:
        assert math.isnan(char_path_length(lcc))
    else:
        assert char_path_length(lcc) == oracles.char_path_length(lcc)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_compare_clustering_matches_global_clustering(g):
    rec = compare(g, g)
    expected = global_clustering(g)
    assert rec.clustering_coeff == expected or (
        math.isnan(rec.clustering_coeff) and math.isnan(expected)
    )


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
def test_char_path_length_source_blocks(chunk):
    # n > 64 puts the sources in several bit-word blocks
    for seed in range(3):
        g = random_connected_graph(150, 0.03, seed=seed)
        assert char_path_length(g, chunk=chunk) == oracles.char_path_length(g)


def test_row_blocked_kernels_match_oracles(monkeypatch):
    g, _ = largest_connected_component(clustered_graph(20, 6, 0.01, seed=1))
    t_ref, total_ref = oracles.triangle_counts(g)
    cpl_ref = oracles.char_path_length(g)
    monkeypatch.setattr(stats, "_BLOCK_ENTRIES", 40)  # many small row blocks
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


@given(sampler_cases())
@settings(max_examples=200, deadline=None)
def test_sample_matches_index_array_oracle(case):
    p, seed = case
    assert sample(p, seed) == oracles.sample(p, seed)


@given(sampler_cases())
@settings(max_examples=100, deadline=None)
def test_save_probmatrix_matches_text_oracle(case):
    p, _ = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.pmat"
        save_probmatrix(p, path)
        assert path.read_text(encoding="utf-8") == oracles.probmatrix_text(p)


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
        assert random_probmatrix(n, 7 * n, scale) == oracles.random_probmatrix(n, 7 * n, scale)


def _assert_tsvd_matches_svd_oracle(g: Graph, k: int):
    if k < g.n:
        # with |lambda_k| = |lambda_(k+1)| the rank-k truncation is not unique
        lam = np.sort(np.abs(np.linalg.eigvalsh(to_dense(g).mat)))[::-1]
        assert lam[k - 1] - lam[k] > 1e-6
    p = tsvd_model(g, k)
    assert np.abs(p.mat - oracles.tsvd_model(g, k).mat).max() <= 1e-10
    assert abs(volume(p) - g.m) <= 1e-6 * g.m


@pytest.mark.parametrize("k", [16, 40])
def test_tsvd_matches_svd_oracle_on_both_solvers(k):
    g, _ = largest_connected_component(powerlaw_configuration_graph(260, 2.2, seed=2))
    assert g.n == 210
    # rank 16 takes eigsh (8k <= n), rank 40 takes eigh
    _assert_tsvd_matches_svd_oracle(g, k)


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


def test_volume_shift_matches_index_array_oracle_on_bench_reference(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
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
