import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigm.graphs import Graph
from eigm.probmatrix import (
    DEFAULT_DENSE_CAP,
    CapacityError,
    ProbMatrix,
    ZeroVolumeError,
    convex_combine,
    empirical_overlap,
    expected_kcycles_exact,
    expected_kcycles_trace,
    expected_triangles,
    load_probmatrix,
    overlap,
    sample,
    sample_uniform,
    save_probmatrix,
    to_dense,
    volume,
)
from eigm.bounds import check_cc_tightness, er_construction
from eigm.synth import clustered_graph, random_probmatrix

from conftest import complete_graph, pair_overlap_mean, prob_matrices, small_graphs


def brute_force_expected_triangles(p: ProbMatrix) -> float:
    """Independent oracle: enumerate all graphs on n nodes.

    Sums P(G) * triangles(G) over all 2^(n(n-1)/2) graphs; usable for
    n <= 6 only.
    """
    n = p.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = 0.0
    for mask in itertools.product((0, 1), repeat=len(pairs)):
        prob = 1.0
        adj = np.zeros((n, n))
        for bit, (i, j) in zip(mask, pairs):
            q = p.mat[i, j]
            prob *= q if bit else (1.0 - q)
            if bit:
                adj[i, j] = adj[j, i] = 1
        if prob == 0.0:
            continue
        tri = np.trace(adj @ adj @ adj) / 6.0
        total += prob * tri
    return total


def test_volume_examples():
    p = ProbMatrix.from_array([[0.0, 0.5], [0.5, 0.0]])
    assert volume(p) == 0.5
    er = er_construction(10, 0.3)
    assert volume(er) == pytest.approx(0.3 * 45)
    tri = to_dense(Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)]))
    assert volume(tri) == 3.0


def test_overlap_examples(triangle):
    assert overlap(to_dense(triangle)) == 1.0
    assert overlap(er_construction(8, 0.37)) == pytest.approx(0.37)
    p = ProbMatrix.from_array([[0.0, 0.5], [0.5, 0.0]])
    assert overlap(p) == pytest.approx(0.5)


def test_overlap_zero_volume_error():
    p = ProbMatrix.from_array(np.zeros((3, 3)))
    with pytest.raises(ZeroVolumeError):
        overlap(p)
    with pytest.raises(ZeroVolumeError):
        empirical_overlap(p, [sample(p, 0), sample(p, 1)])


def test_constructor_validation():
    with pytest.raises(ValueError):
        ProbMatrix.from_array([[0.0, 1.5], [1.5, 0.0]])
    with pytest.raises(ValueError):
        ProbMatrix.from_array([[0.0, 0.2], [0.3, 0.0]])
    with pytest.raises(ValueError, match="^probability matrix must be square$"):
        ProbMatrix.from_array(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="^probability matrix must be nonempty$"):
        ProbMatrix.from_array(np.zeros((0, 0)))
    with pytest.warns(UserWarning):
        p = ProbMatrix.from_array([[0.5, 0.2], [0.2, 0.5]])
    assert np.all(np.diagonal(p.mat) == 0.0)


def test_constructor_names_non_finite_entries():
    # NaN != NaN, so a symmetry test alone would misreport this matrix
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="entries must be finite"):
            ProbMatrix.from_array([[0.0, bad], [bad, 0.0]])


@st.composite
def one_entry_from_symmetric(draw):
    """A symmetric n x n array, n in 1..600, with one entry (i, j) replaced:
    in the first diagonal tile, in the last (often partial) 256 x 256 tile,
    in an off-diagonal tile, or anywhere; the new value is drawn from
    [0, 1], or is -0.0 facing 0.0."""
    n = draw(st.one_of(st.sampled_from([1, 2, 255, 256, 257, 511, 512, 513]), st.integers(1, 600)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.random((n, n))
    a = a + a.T
    a /= 2.0
    last = (n - 1) // 256 * 256
    where = draw(st.sampled_from(["first", "last", "off", "anywhere"]))
    if where == "off" and n > 256:
        i, j = draw(st.integers(0, 255)), draw(st.integers(256, n - 1))
        if draw(st.booleans()):
            i, j = j, i
    elif where == "last":
        i, j = draw(st.integers(last, n - 1)), draw(st.integers(last, n - 1))
    elif where == "first":
        i, j = draw(st.integers(0, min(n, 256) - 1)), draw(st.integers(0, min(n, 256) - 1))
    else:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        a[i, j], a[j, i] = 0.0, 0.0
        a[i, j] = -0.0
    else:
        a[i, j] = draw(st.floats(0.0, 1.0))
    return a


@given(one_entry_from_symmetric())
@settings(max_examples=150, deadline=None)
def test_tiled_symmetry_check_matches_array_equal(a):
    symmetric = np.array_equal(a, a.T)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a planted diagonal entry is zeroed
        if symmetric:
            ProbMatrix.from_array(a)
        else:
            with pytest.raises(ValueError, match="^probability matrix must be symmetric$"):
                ProbMatrix.from_array(a)


def test_from_array_takes_over_an_owned_writeable_float64_array():
    a = np.array([[0.0, 0.5], [0.5, 0.0]])
    p = ProbMatrix.from_array(a)
    assert np.shares_memory(p.mat, a)
    assert not p.mat.flags.writeable


# each input has a nonzero diagonal, and each float input an entry 1e-12
# above 1: from_array zeroes and clips these in the array it keeps
_OVER = 1.0 + 1e-12
_FLOATS = [[0.5, _OVER], [_OVER, 0.0]]


def _read_only(a):
    a.flags.writeable = False
    return a


class _Sub(np.ndarray):
    pass


def _owned_subclass():
    a = _Sub((2, 2))
    a[...] = _FLOATS
    return a


@pytest.mark.parametrize("make", [
    lambda: _read_only(np.array(_FLOATS)),
    lambda: np.array([[0.5, _OVER, 9.0], [_OVER, 0.0, 9.0]])[:, :2],
    lambda: _FLOATS,
    lambda: np.array([[1, 1], [1, 0]]),
    _owned_subclass,
], ids=["read-only", "view", "list", "int", "subclass"])
def test_from_array_copies_any_other_input(make):
    arr = make()
    before = np.array(arr, dtype=np.float64)
    with pytest.warns(UserWarning, match="nonzero diagonal"):
        p = ProbMatrix.from_array(arr)
    assert not np.shares_memory(p.mat, arr)
    assert np.array_equal(np.asarray(arr), before)
    assert type(p.mat) is np.ndarray
    assert np.array_equal(p.mat, [[0.0, 1.0], [1.0, 0.0]])


def test_to_dense_examples(triangle):
    single = Graph.from_edges(2, [(0, 1)])
    assert np.array_equal(to_dense(single).mat, [[0, 1], [1, 0]])
    empty = Graph.from_edges(3, [])
    assert np.array_equal(to_dense(empty).mat, np.zeros((3, 3)))
    assert np.array_equal(to_dense(triangle).mat, np.ones((3, 3)) - np.eye(3))
    with pytest.raises(CapacityError):
        to_dense(Graph.from_edges(DEFAULT_DENSE_CAP + 1, []))


@given(small_graphs(max_n=12))
@example(Graph.from_edges(1, []))
@example(Graph.from_edges(5, [(1, 3)]))  # three isolated nodes
@settings(max_examples=100, deadline=None)
def test_to_dense_equals_the_csr_adjacency(g):
    assert np.array_equal(to_dense(g).mat, g.to_csr().toarray())


def test_sample_determinism_and_limits(triangle):
    a = to_dense(triangle)
    for seed in (0, 1, 12345):
        assert sample(a, seed) == triangle
    zero = ProbMatrix.from_array(np.zeros((4, 4)))
    assert sample(zero, 7).m == 0
    er = er_construction(30, 0.4)
    assert sample(er, 99) == sample(er, 99)
    assert sample(er, 99) != sample(er, 100)


@pytest.mark.parametrize("prob", [-0.5, 1.5, float("nan"), float("inf")])
def test_sample_uniform_refuses_prob_outside_the_unit_interval(prob):
    with pytest.raises(ValueError, match=rf"^prob must be in \[0, 1\], got {prob}$"):
        sample_uniform(5, prob, 0)
    # its two callers keep their own, narrower checks, which run first
    with pytest.raises(ValueError, match="^bridge_prob must be in"):
        clustered_graph(2, 3, prob, 0)
    with pytest.raises(ValueError, match="^gamma must be in"):
        check_cc_tightness(50, prob, samples=3, seed=0)


def test_sample_draw_order_contract():
    # pair (i, j) consumes draw number rank(i, j) in row-major i<j order;
    # for n=4 the pairs are (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)
    from eigm.rng import make_rng

    n = 4
    for seed in range(20):
        p = np.zeros((n, n))
        p[1, 2] = p[2, 1] = 0.5  # row-major rank 3
        g = sample(ProbMatrix.from_array(p), seed=seed)
        u = make_rng(seed).random(6)
        expect = {(1, 2)} if u[3] < 0.5 else set()
        got = {(int(a), int(b)) for a, b in g.edge_array()}
        assert got == expect


def test_sample_peaks_under_eight_mib():
    # rows are drawn in blocks of about 2**18 pairs: one block's draws,
    # gathered probabilities and mask set the peak, about 4.3 MiB here
    p = er_construction(1500, 0.05)
    tracemalloc.start()
    try:
        sample(p, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_sample_edge_count_moments():
    n, gamma = 1000, 0.3
    er = er_construction(n, gamma)
    npairs = n * (n - 1) // 2
    counts = [sample(er, seed).m for seed in range(5)]
    mean = np.mean(counts)
    sigma = math.sqrt(npairs * gamma * (1 - gamma) / 5)
    assert abs(mean - gamma * npairs) <= 3 * sigma


def test_empirical_overlap_binary(triangle):
    assert pair_overlap_mean(to_dense(triangle), seed=3, trials=4) == 1.0


def test_empirical_overlap_er():
    er = er_construction(200, 0.5)
    trials = 20
    est = pair_overlap_mean(er, seed=11, trials=trials)
    npairs = 200 * 199 // 2
    vol = 0.5 * npairs
    # per-trial variance of |E1 ∩ E2| / vol: binomial(npairs, 0.25) / vol^2
    se = math.sqrt(npairs * 0.25 * 0.75 / vol**2 / trials)
    assert abs(est - 0.5) <= 3 * se


def test_empirical_overlap_nan_below_two_samples(triangle):
    p = to_dense(triangle)
    assert math.isnan(empirical_overlap(p, [sample(p, 0)]))


@given(prob_matrices(max_n=12), st.integers(2, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_empirical_overlap_is_mean_shared_fraction_over_pairs(p, k, seed):
    drawn = [sample(p, seed + t) for t in range(k)]
    vol = volume(p)
    edge_sets = [set(map(tuple, g.edge_array().tolist())) for g in drawn]
    pairs = list(itertools.combinations(edge_sets, 2))
    expect = sum(len(a & b) / vol for a, b in pairs) / len(pairs)
    # one count of the shared edges rounds once, the sum over pairs once per pair
    assert math.isclose(empirical_overlap(p, drawn), expect, rel_tol=0 if k == 2 else 1e-14)


def test_expected_triangles_examples(triangle):
    assert expected_triangles(to_dense(triangle)) == pytest.approx(1.0)
    er = er_construction(7, 0.4)
    assert expected_triangles(er) == pytest.approx(0.4**3 * math.comb(7, 3))
    # brute-force oracle value for n=4, gamma=0.5: 0.5
    er4 = er_construction(4, 0.5)
    assert expected_triangles(er4) == pytest.approx(0.5)
    assert brute_force_expected_triangles(er4) == pytest.approx(0.5)


@given(prob_matrices(max_n=5))
@settings(max_examples=20, deadline=None)
def test_expected_triangles_matches_brute_force(p):
    assert expected_triangles(p) == pytest.approx(
        brute_force_expected_triangles(p), rel=1e-9, abs=1e-12
    )


@pytest.mark.parametrize("k", range(3, 7))
def test_kcycles_trace_at_one_and_two_nodes(k):
    assert expected_kcycles_trace(ProbMatrix.from_array(np.zeros((1, 1))), k) == 0.0
    # P = [[0, x], [x, 0]]: P^k is x^k I for even k and x^(k-1) P for odd k
    x = 0.3
    p = ProbMatrix.from_array(np.array([[0.0, x], [x, 0.0]]))
    want = 0.0 if k % 2 else 2.0 * x**k / (2.0 * k)
    assert expected_kcycles_trace(p, k) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_kcycles_trace_examples(triangle):
    p = to_dense(triangle)
    assert expected_kcycles_trace(p, 3) == pytest.approx(expected_triangles(p))
    c4 = to_dense(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    # closed-walk oracle: 8 closed 4-walks per start node on a 4-cycle
    assert expected_kcycles_trace(c4, 4) == pytest.approx(32 / 8)
    assert expected_kcycles_trace(c4, 4) >= 1.0
    zero = ProbMatrix.from_array(np.zeros((5, 5)))
    for k in range(3, 7):
        assert expected_kcycles_trace(zero, k) == 0.0
    with pytest.raises(ValueError):
        expected_kcycles_trace(p, 2)
    with pytest.raises(ValueError):
        expected_kcycles_trace(p, 7)


def test_kcycles_exact_examples():
    c4 = to_dense(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    assert expected_kcycles_exact(c4, 4) == pytest.approx(1.0)
    k4 = to_dense(complete_graph(4))
    assert expected_kcycles_exact(k4, 4) == pytest.approx(3.0)
    er = er_construction(6, 0.5)
    assert expected_kcycles_exact(er, 4) == pytest.approx(0.0625 * 45)
    with pytest.raises(ValueError):
        expected_kcycles_exact(er_construction(15, 0.5), 4)
    with pytest.raises(ValueError, match=r"^k must be in \[3, 6\]$"):
        expected_kcycles_exact(er, 2)


def test_kcycles_exact_peaks_under_eight_mib():
    # one k x k block per node set and an (orders, sets) product, about
    # 4 MiB at n = 14, k = 6; a (sets, orders, k) index cube would take 25 MiB
    p = random_probmatrix(14, 3)
    expected_kcycles_exact(random_probmatrix(6, 3), 6)
    tracemalloc.start()
    try:
        expected_kcycles_exact(p, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@given(prob_matrices(max_n=8))
@settings(max_examples=20, deadline=None)
def test_kcycles_exact_below_trace(p):
    for k in (4, 5):
        assert expected_kcycles_exact(p, k) <= expected_kcycles_trace(p, k) + 1e-12


@given(prob_matrices(max_n=12))
@settings(max_examples=50, deadline=None)
def test_lemma_overlap_volume_identity(p):
    ov_v = overlap(p) * volume(p)
    frob_half = float((p.mat**2).sum()) / 2.0
    assert ov_v == pytest.approx(frob_half, rel=1e-9)


@given(prob_matrices(max_n=12))
@settings(max_examples=40, deadline=None)
def test_overlap_bounded_by_support(p):
    # overlap is a p-weighted average of the support entries
    ov = overlap(p)
    support = p.mat[p.mat > 0]
    assert support.min() - 1e-12 <= ov <= 1.0 + 1e-12


def test_convex_combine(triangle):
    a = to_dense(triangle)
    base = er_construction(3, 0.25)
    assert convex_combine(base, triangle, 0.0) == base
    both = convex_combine(base, triangle, 1.0)
    assert both == a
    assert overlap(both) == 1.0
    zero = ProbMatrix.from_array(np.zeros((3, 3)))
    half = convex_combine(zero, triangle, 0.5)
    assert half.mat[0, 1] == 0.5
    assert volume(half) == pytest.approx(0.5 * volume(a))
    with pytest.raises(ValueError):
        convex_combine(base, triangle, 1.5)
    with pytest.raises(ValueError):
        convex_combine(er_construction(4, 0.5), triangle, 0.5)


def test_volume_linearity_under_combination(triangle):
    a = to_dense(triangle)
    p = er_construction(3, 0.2)
    for omega in (0.0, 0.3, 0.7, 1.0):
        combined = convex_combine(p, triangle, omega)
        assert volume(combined) == pytest.approx(
            (1 - omega) * volume(p) + omega * volume(a)
        )


def test_persistence_round_trip(tmp_path):
    p = er_construction(6, 0.375)
    path = tmp_path / "p.pmat"
    save_probmatrix(p, path)
    q = load_probmatrix(path)
    assert p == q
    text = path.read_text()
    assert text.splitlines()[0] == "n=6"


def test_persistence_text_format(tmp_path):
    a = np.zeros((4, 4))
    a[0, 1], a[0, 3], a[1, 2], a[2, 3] = 0.1, 1 / 3, 1.0, 2.5e-7
    path = tmp_path / "p.pmat"
    save_probmatrix(ProbMatrix.from_array(a + a.T), path)
    assert path.read_text() == (
        "n=4\n"
        "0 1 0.10000000000000001\n"
        "0 3 0.33333333333333331\n"
        "1 2 1\n"
        "2 3 2.4999999999999999e-07\n"
    )


def test_failed_write_leaves_no_file(tmp_path, failing_pmat_write):
    p = er_construction(4, 0.5)
    path = tmp_path / "p.pmat"
    with pytest.raises(OSError, match="No space left"):
        save_probmatrix(p, path)
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_the_old_file(tmp_path, failing_pmat_write):
    path = tmp_path / "p.pmat"
    path.write_text("n=2\n0 1 0.5\n", encoding="utf-8")
    with pytest.raises(OSError):
        save_probmatrix(er_construction(4, 0.5), path)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text(encoding="utf-8") == "n=2\n0 1 0.5\n"


def test_persistence_rejects_bad_input(tmp_path):
    path = tmp_path / "bad.pmat"
    path.write_text("n=3\n0 1 1.5\n")
    with pytest.raises(ValueError):
        load_probmatrix(path)
    path.write_text("n=3\n1 0 0.5\n")
    with pytest.raises(ValueError):
        load_probmatrix(path)
    path.write_text("0 1 0.5\n")
    with pytest.raises(ValueError):
        load_probmatrix(path)


def test_load_checks_capacity_before_allocating(tmp_path):
    path = tmp_path / "huge.pmat"
    path.write_text("n=100000000\n0 1 0.5\n")
    with pytest.raises(CapacityError):
        load_probmatrix(path)
