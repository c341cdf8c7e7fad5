import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigm.bounds import er_construction
from eigm.cli import main
from eigm.graphs import degrees
from eigm.probmatrix import CapacityError
from eigm.synth import random_bounded_degree_graph, random_probmatrix


@given(st.integers(2, 30), st.integers(2, 5), st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_bounded_degree_graph_caps_degree_without_isolated_nodes(n, dmax, seed):
    d = degrees(random_bounded_degree_graph(n, dmax, seed))
    assert d.max() <= dmax and d.min() >= 1


def test_bounded_degree_graph_routes_an_edge_through_the_last_isolated_node():
    # greedy insertion leaves the triangle 0-2-3 and node 1 isolated;
    # the edge (0, 2) is routed through node 1
    g = random_bounded_degree_graph(4, 2, seed=5)
    assert g.edge_array().tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]


def test_bounded_degree_graph_dmax_one():
    d = degrees(random_bounded_degree_graph(6, 1, seed=0))
    assert d.tolist() == [1] * 6
    with pytest.raises(ValueError, match="even n"):
        random_bounded_degree_graph(5, 1, seed=0)


@pytest.mark.parametrize(
    "build",
    [
        lambda n: random_probmatrix(n, seed=0),
        lambda n: er_construction(n, 0.1),
        lambda n: random_bounded_degree_graph(n, 3, seed=0),
    ],
)
def test_generators_refuse_huge_n_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="exceeds dense-matrix cap"):
            build(10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--theorem", "cc", "--n", "300000"],
        ["verify", "--theorem", "tri", "--n", "100000000", "--trials", "1"],
        ["cell-verify", "--n", "100000000"],
    ],
)
def test_cli_huge_n_is_one_line_error(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceeds dense-matrix cap" in err
    assert len(err.strip().splitlines()) == 1


def test_cell_verify_max_degree_two(capsys):
    assert main(["cell-verify", "--max-degree", "2", "--seed", "0"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 5 and all(int(r.split(",")[1]) <= 2 for r in rows)
