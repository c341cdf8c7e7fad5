import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigm.graphs import (
    EdgeListParseError,
    Graph,
    connected_components,
    degrees,
    largest_connected_component,
    load_edge_list,
    parse_edge_list,
    serialize_edge_list,
)

from conftest import small_graphs


def test_parse_path():
    g, id_map = parse_edge_list("0 1\n1 2\n")
    assert g.n == 3 and g.m == 2
    assert id_map == (0, 1, 2)


def test_parse_dedup_and_self_loop():
    g, _ = parse_edge_list("0 1\n1 0\n1 1\n")
    assert g.n == 2 and g.m == 1


def test_parse_comments_and_weights():
    text = "# comment\n% another\n\n5 9 0.25\n9 12 3\n"
    g, id_map = parse_edge_list(text)
    assert g.n == 3 and g.m == 2
    assert id_map == (5, 9, 12)
    assert id_map.index(9) == 1


def test_parse_errors_carry_line_numbers():
    with pytest.raises(EdgeListParseError) as exc:
        parse_edge_list("0 1\nx 2\n")
    assert exc.value.line_no == 2
    with pytest.raises(EdgeListParseError):
        parse_edge_list("0 1 2 3\n")
    with pytest.raises(EdgeListParseError):
        parse_edge_list("-1 2\n")


def test_parse_empty_is_error():
    with pytest.raises(EdgeListParseError):
        parse_edge_list("# nothing here\n")


def test_noncontiguous_ids_densified():
    g, id_map = parse_edge_list("100 7\n7 42\n")
    assert g.n == 3
    assert id_map == (7, 42, 100)
    # edge (7,100) -> dense (0,2)
    assert 2 in g.neighbors(0)


def test_degrees(triangle, star4):
    assert degrees(triangle).tolist() == [2, 2, 2]
    assert degrees(star4).tolist() == [3, 1, 1, 1]
    assert degrees(star4).sum() == 2 * star4.m


def test_lcc_tie_break_two_triangles():
    g = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    )
    lcc, id_map = largest_connected_component(g)
    assert lcc.n == 3 and lcc.m == 3
    assert id_map == (0, 1, 2)


def test_lcc_already_connected(triangle):
    lcc, id_map = largest_connected_component(triangle)
    assert lcc == triangle
    assert id_map == (0, 1, 2)


def test_lcc_star_plus_edge():
    g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (4, 5)])
    lcc, id_map = largest_connected_component(g)
    assert lcc.n == 4 and lcc.m == 3
    assert id_map == (0, 1, 2, 3)


def test_lcc_idempotent():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    lcc1, _ = largest_connected_component(g)
    lcc2, _ = largest_connected_component(lcc1)
    assert lcc1 == lcc2


def test_components_order():
    g = Graph.from_edges(5, [(1, 3), (0, 4)])
    comps = connected_components(g)
    assert comps == [[0, 4], [1, 3], [2]]


def test_serialize_header_and_round_trip(cycle5):
    text = serialize_edge_list(cycle5)
    assert text.splitlines()[0] == "# n=5 m=5"
    g2, _ = parse_edge_list(text)
    assert g2 == cycle5


def test_from_pairs_matches_from_edges():
    edges = [(0, 2), (1, 3), (0, 1)]
    a = Graph.from_edges(4, edges)
    us, vs = zip(*edges)
    b = Graph.from_pairs(4, np.array(us), np.array(vs))
    assert a == b
    with pytest.raises(ValueError):
        Graph.from_pairs(4, np.array([2]), np.array([1]))


@st.composite
def upper_pair_lists(draw):
    """(n, pairs) with 0 <= u < v < n; pairs may repeat."""
    n = draw(st.integers(2, 8))
    pair = st.integers(1, n - 1).flatmap(
        lambda v: st.tuples(st.integers(0, v - 1), st.just(v))
    )
    return n, draw(st.lists(pair, max_size=12))


@given(upper_pair_lists())
@settings(max_examples=200, deadline=None)
def test_from_pairs_raises_iff_a_pair_repeats(case):
    n, pairs = case
    us = np.array([u for u, _ in pairs], dtype=np.int64)
    vs = np.array([v for _, v in pairs], dtype=np.int64)
    if len(set(pairs)) < len(pairs):
        with pytest.raises(ValueError, match="duplicate pairs"):
            Graph.from_pairs(n, us, vs)
    else:
        assert Graph.from_pairs(n, us, vs) == Graph.from_edges(n, pairs)


def test_load_edge_list(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n1 2\n", encoding="utf-8")
    g, _ = load_edge_list(path)
    assert g.n == 3 and g.m == 2


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_round_trip_property(g):
    # holds for all graphs: isolated nodes survive as self-loop lines
    g2, _ = parse_edge_list(serialize_edge_list(g))
    assert g2 == g


def test_serialize_isolated_nodes():
    g = Graph.from_edges(4, [(1, 3)])
    text = serialize_edge_list(g)
    assert text.splitlines() == ["# n=4 m=1", "0 0", "1 3", "2 2"]
    g2, id_map = parse_edge_list(text)
    assert g2 == g and id_map == (0, 1, 2, 3)


@given(small_graphs())
@settings(max_examples=40, deadline=None)
def test_construction_invariants(g):
    g.validate()
    assert degrees(g).sum() == 2 * g.m


@given(small_graphs())
@settings(max_examples=25, deadline=None)
def test_lcc_idempotent_property(g):
    lcc1, _ = largest_connected_component(g)
    lcc2, _ = largest_connected_component(lcc1)
    assert lcc1 == lcc2
