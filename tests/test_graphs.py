import pytest
from hypothesis import given, settings, strategies as st

from intervalcubes import (
    Graph,
    GraphParseError,
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


@pytest.mark.parametrize("text, message", [
    ("-1 0\n", "line 1: header counts must be non-negative"),
    ("3 -1\n", "line 1: header counts must be non-negative"),
    ("2 1\n0 x\n", "line 2: edge endpoints must be integers"),
], ids=["negative-n", "negative-m", "non-integer-endpoint"])
def test_parse_refuses_with_the_line(text, message):
    with pytest.raises(GraphParseError) as excinfo:
        parse_graph(text)
    assert str(excinfo.value) == message


def test_parse_rejects_wrong_edge_count():
    with pytest.raises(GraphParseError, match="expected 3"):
        parse_graph("3 3\n0 1\n1 2")


def test_parse_collapses_duplicates_and_order():
    g = parse_graph("3 3\n1 0\n0 1\n2 1")
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_tolerates_blank_lines():
    for text, edges in [
        ("\n3 1\n\n0 2\n\n", [(0, 2)]),
        ("3 2\r\n0 1\r\n1 2\r\n", [(0, 1), (1, 2)]),
        ("3 2\n0 1\n \t \n   \n1 2\n", [(0, 1), (1, 2)]),
    ]:
        assert parse_graph(text).edges() == edges, text


def test_parse_counts_line_numbers_across_blank_lines():
    with pytest.raises(GraphParseError, match="line 4: endpoint out of range"):
        parse_graph("\n3 1\n\n0 5")
    with pytest.raises(GraphParseError, match="line 5: edge line must be"):
        parse_graph("3 2\n \n0 1\n\n1 2 7")


# every character `str.isspace` accepts here, the line breaks of
# `str.splitlines` among them, and some that are neither
BLANKS = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029\u3000"


class _Refused(Exception):
    pass


def _refuse(n):
    raise _Refused(n)


def _header_by_lines(text: str):
    """What the header says when every line is split first: the error
    text, or the vertex count the header gives."""
    lines = text.splitlines()
    head = next((i for i, ln in enumerate(lines) if ln and not ln.isspace()), None)
    if head is None:
        return "missing header line"
    parts = lines[head].split()
    if len(parts) != 2:
        return f"line {head + 1}: header must be 'n m'"
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        return f"line {head + 1}: header must be two integers"
    if n < 0 or m < 0:
        return f"line {head + 1}: header counts must be non-negative"
    return n


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=BLANKS + "\x00\u2027-01x", max_size=24))
def test_header_is_the_first_non_blank_line_splitlines_gives(text):
    """The header is found without splitting the text: the same line, with
    the same number, as the first non-blank one of `text.splitlines()`."""
    with pytest.raises((_Refused, GraphParseError)) as excinfo:
        parse_graph(text, _refuse)
    found = excinfo.value.args[0] if excinfo.type is _Refused else str(excinfo.value)
    assert found == _header_by_lines(text)


def test_refuse_sees_the_vertex_count_before_any_edge_line():
    with pytest.raises(_Refused) as excinfo:
        parse_graph("\x0c\n 5 3\n0 9\nnot an edge\n", _refuse)
    assert excinfo.value.args == (5,)
    with pytest.raises(GraphParseError, match="line 2: header must be two integers"):
        parse_graph("\r\n5 x\n", _refuse)


def test_parse_reports_edge_count_before_malformed_lines():
    with pytest.raises(GraphParseError, match="expected 3 edge lines, found 2") as excinfo:
        parse_graph("3 3\n0 1\nx y")
    assert excinfo.value.line is None


def test_serialize_round_trip():
    g = parse_graph("4 3\n2 0\n0 1\n3 2")
    text = serialize_graph(g)
    assert text == "4 3\n0 1\n0 2\n2 3\n"
    assert parse_graph(text) == g
    assert serialize_graph(parse_graph(text)) == text


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


def test_graph_rejects_self_loop_and_range():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 3)])
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        Graph(-1)


def test_graph_build_peak_stays_near_what_it_holds():
    # the nested family: spine intervals [0, i] and points j + 1/2, 1200
    # vertices and 359,400 edges.  Holding the sets and their frozen copies
    # at once peaks near twice the finished adjacency.
    import tracemalloc

    n = 600
    edges = [(i, k) for k in range(n) for i in range(k)]
    edges += [(i, n + j) for i in range(n) for j in range(i)]
    tracemalloc.start()
    try:
        graph = Graph(2 * n, edges)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.edge_count == len(edges)
    assert peak < 1.3 * held
