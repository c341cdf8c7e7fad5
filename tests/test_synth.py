import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigm.bounds import er_construction
from eigm.cli import main
from eigm.graphs import degrees
from eigm.probmatrix import CapacityError
from eigm.synth import (
    clustered_graph,
    powerlaw_configuration_graph,
    random_bounded_degree_graph,
    random_probmatrix,
)


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


@pytest.mark.parametrize("scale", [0.0, -0.5, 1.5, float("nan")])
def test_random_probmatrix_rejects_scale_outside_unit_interval(scale):
    with pytest.raises(ValueError, match=r"^scale must be in \(0, 1\]$"):
        random_probmatrix(4, 0, scale)


def test_random_probmatrix_peak_memory():
    # the result and one row block's draws and mask; from_array makes no copy
    n = 1000
    random_probmatrix(4, seed=0)
    tracemalloc.start()
    try:
        random_probmatrix(n, seed=1, scale=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * n * n


def test_clustered_graph_peak_memory():
    # the bridges are drawn in row blocks, with no n x n matrix: at n=2100 a
    # uniform P alone would take 33.6 MiB
    clustered_graph(2, 7, 5e-4, seed=0)
    tracemalloc.start()
    try:
        clustered_graph(300, 7, 5e-4, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "build",
    [
        lambda n: random_probmatrix(n, seed=0),
        lambda n: er_construction(n, 0.1),
        lambda n: random_bounded_degree_graph(n, 3, seed=0),
        lambda n: clustered_graph(n // 7, 7, 0.1, seed=0),
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
        ["verify", "--theorem", "kcycle", "--n", "100000000", "--trials", "1"],
        ["verify", "--theorem", "cc", "--n", "10001"],
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


@pytest.mark.parametrize("args, message", [
    ((3, 4, 0.0, 0), r"bridge_prob must be in \(0, 1\], got 0.0"),
    ((3, 4, -0.5, 0), r"bridge_prob must be in \(0, 1\], got -0.5"),
    ((3, 4, 1.5, 0), r"bridge_prob must be in \(0, 1\], got 1.5"),
    ((3, 4, float("nan"), 0), r"bridge_prob must be in \(0, 1\], got nan"),
    ((0, 4, 0.1, 0), "need n_cliques >= 1 and clique_size >= 2"),
    ((3, 1, 0.1, 0), "need n_cliques >= 1 and clique_size >= 2"),
    ((1429, 7, 0.1, 0), "n=10003 exceeds dense-matrix cap 10000"),
])
def test_clustered_graph_refuses_bad_arguments_in_one_line(args, message):
    with pytest.raises(ValueError, match=message) as exc:
        clustered_graph(*args)
    assert "\n" not in str(exc.value)


# n, m and the sha256 of edge_array().tobytes() of the synthetic references
# that bench/workloads.py builds at seed 0; bench/expected only checks
# outputs, so a change to synth that moves these inputs shows here first.
@pytest.mark.parametrize("build, n, m, sha256", [
    (lambda: clustered_graph(100, 7, 5e-4, seed=0), 700, 2314,
     "1a6de2ad7eefcf715424d411345b9fb1f836d5790091aa254d8754e54711826d"),
    (lambda: clustered_graph(120, 7, 5e-4, seed=0), 840, 2817,
     "e0cc413e0e30b7a197819c5493e2e0368847625ff74ab6385024312d61abbb39"),
    (lambda: powerlaw_configuration_graph(1500, 2.2, seed=1), 1500, 1699,
     "26ef2831ea0315e181117a2474c902ed0ceaf2bfdf28c13656556b675eb4d58a"),
], ids=["clustered_700", "clustered_840", "powerlaw_1500"])
def test_bench_synthetic_inputs_are_pinned(build, n, m, sha256):
    g = build()
    assert (g.n, g.m) == (n, m)
    assert hashlib.sha256(g.edge_array().tobytes()).hexdigest() == sha256
