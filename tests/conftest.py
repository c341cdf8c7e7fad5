import math

import numpy as np
import pytest
from hypothesis import strategies as st

from eigm.graphs import Graph
from eigm.probmatrix import ProbMatrix, empirical_overlap, sample
from eigm.rng import derive_seed, make_rng


def graph_from_pair_list(n, pairs):
    return Graph.from_edges(n, pairs)


@pytest.fixture
def triangle():
    return Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def star4():
    # K_{1,3}: hub 0
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


@pytest.fixture
def cycle5():
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


@pytest.fixture
def k4_minus_edge():
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


class _FailingWrites:
    """A text file whose ``fail_at``-th write raises OSError."""

    def __init__(self, fh, fail_at):
        self.fh, self.left = fh, fail_at

    def write(self, text):
        self.left -= 1
        if self.left == 0:
            raise OSError(28, "No space left on device")
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)


@pytest.fixture
def failing_pmat_write(monkeypatch):
    """Make ``save_probmatrix`` fail on its third write: the header and the
    first row go out, the second row raises OSError."""
    monkeypatch.setattr(
        "eigm.probmatrix.open",
        lambda *args, **kwargs: _FailingWrites(open(*args, **kwargs), 3),
        raising=False,
    )


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_connected_graph(n: int, extra_edge_prob: float, seed: int) -> Graph:
    """Random spanning tree plus iid extra edges; always connected."""
    rng = make_rng(seed)
    edges = set()
    order = rng.permutation(n)
    for k in range(1, n):
        u = int(order[k])
        v = int(order[int(rng.integers(k))])
        edges.add((min(u, v), max(u, v)))
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(len(iu)) < extra_edge_prob
    for u, v in zip(iu[keep], ju[keep]):
        edges.add((int(u), int(v)))
    return Graph.from_edges(n, edges)


def er_triangle_tightness_ratio(n: int) -> float:
    """Closed-form lhs/rhs for the triangle bound on the uniform matrix.

    gamma cancels: C(n,3) / ((sqrt(2)/3) * C(n,2)^{3/2}).  Approaches 1
    from below as n grows, witnessing tightness.
    """
    pairs = n * (n - 1) / 2.0
    triples = n * (n - 1) * (n - 2) / 6.0
    return triples / ((math.sqrt(2.0) / 3.0) * pairs**1.5)


@st.composite
def small_graphs(draw, min_n=2, max_n=8, min_degree=0):
    """Random small graphs; with min_degree=1 every node touches an edge."""
    n = draw(st.integers(min_n, max_n))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.sampled_from(all_pairs), min_size=0, max_size=len(all_pairs)))
    edges = set(picks)
    if min_degree >= 1:
        used = {u for e in edges for u in e}
        for i in range(n):
            if i not in used:
                j = (i + 1) % n
                edges.add((min(i, j), max(i, j)))
                used.add(i)
                used.add(j)
    return Graph.from_edges(n, edges)


def pair_overlap_mean(p: ProbMatrix, seed: int, trials: int) -> float:
    """Mean of ``empirical_overlap`` over ``trials`` fresh sample pairs."""
    return sum(
        empirical_overlap(
            p,
            [sample(p, derive_seed(seed, "overlap-pair", t, k)) for k in (0, 1)],
        )
        for t in range(trials)
    ) / trials


@st.composite
def prob_matrices(draw, min_n=2, max_n=10, sparse=False):
    n = draw(st.integers(min_n, max_n))
    scale = 0.1 if sparse else 1.0
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.Generator(np.random.Philox(key=seed))
    a = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    a[iu] = rng.random(len(iu[0])) * scale
    return ProbMatrix.from_array(a + a.T)
