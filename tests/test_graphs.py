import pytest
from hypothesis import given, strategies as st

from intervalcubes import (
    Graph,
    GraphParseError,
    induced_subgraph,
    non_edges,
    parse_graph,
    serialize_graph,
)

from conftest import complete_graph, path_graph


def test_parse_p3():
    g = parse_graph("3 2\n0 1\n1 2")
    assert g.n == 3
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_single_isolated_vertex():
    g = parse_graph("1 0")
    assert g.n == 1
    assert g.edges() == []


def test_parse_rejects_too_many_vertices(monkeypatch):
    from intervalcubes import graphs

    monkeypatch.setattr(graphs, "MAX_VERTICES", 3)
    assert parse_graph("3 0").n == 3
    with pytest.raises(GraphParseError, match="line 1.*4 vertices exceeds the limit of 3"):
        parse_graph("4 0")


def test_parse_rejects_self_loop():
    with pytest.raises(GraphParseError, match="line 2.*self-loop"):
        parse_graph("2 1\n0 0")


def test_parse_rejects_out_of_range():
    with pytest.raises(GraphParseError, match="line 2"):
        parse_graph("2 1\n0 5")


def test_parse_rejects_malformed_line():
    with pytest.raises(GraphParseError, match="line 3"):
        parse_graph("3 2\n0 1\n1 2 7")


def test_parse_rejects_wrong_edge_count():
    with pytest.raises(GraphParseError, match="expected 3"):
        parse_graph("3 3\n0 1\n1 2")


def test_parse_collapses_duplicates_and_order():
    g = parse_graph("3 3\n1 0\n0 1\n2 1")
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_tolerates_blank_lines():
    g = parse_graph("\n3 1\n\n0 2\n\n")
    assert g.edges() == [(0, 2)]


def test_serialize_round_trip():
    g = parse_graph("4 3\n2 0\n0 1\n3 2")
    text = serialize_graph(g)
    assert text == "4 3\n0 1\n0 2\n2 3\n"
    assert parse_graph(text) == g
    assert serialize_graph(parse_graph(text)) == text


def test_induced_subgraph_k3_pair():
    h, keep = induced_subgraph(complete_graph(3), [0, 1])
    assert keep == (0, 1)
    assert h.edges() == [(0, 1)]


def test_induced_subgraph_p3_endpoints():
    h, _ = induced_subgraph(path_graph(3), [0, 2])
    assert h.n == 2 and h.edges() == []


def test_induced_subgraph_identity():
    g = path_graph(5)
    h, keep = induced_subgraph(g, range(5))
    assert h == g and keep == (0, 1, 2, 3, 4)


def test_induced_subgraph_rejects_bad_vertex():
    with pytest.raises(ValueError):
        induced_subgraph(path_graph(3), [0, 7])


def test_non_edges_examples():
    assert non_edges(complete_graph(4)) == []
    assert non_edges(path_graph(3)) == [(0, 2)]
    assert non_edges(Graph(3)) == [(0, 1), (0, 2), (1, 2)]


@given(
    st.integers(min_value=0, max_value=9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(
                    st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))
                ).filter(lambda e: e[0] != e[1]),
                max_size=20,
            ),
        )
    )
)
def test_edge_count_partition(case):
    n, edges = case
    g = Graph(n, edges)
    assert g.edge_count + len(non_edges(g)) == n * (n - 1) // 2


@given(
    st.integers(min_value=0, max_value=8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(
                    st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))
                ).filter(lambda e: e[0] != e[1]),
                max_size=15,
            ),
        )
    )
)
def test_serialize_parse_identity(case):
    n, edges = case
    g = Graph(n, edges)
    assert parse_graph(serialize_graph(g)) == g


def test_induced_full_set_preserves_edge_count():
    g = parse_graph("5 4\n0 1\n1 2\n2 3\n0 4")
    h, _ = induced_subgraph(g, range(g.n))
    assert h.edge_count == g.edge_count


def test_graph_rejects_self_loop_and_range():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 3)])
