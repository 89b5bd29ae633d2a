"""The LexBFS recognizer against the PQ-tree recognizer it replaced, and
against the two hand-rolled partition refinements that `_Partition`
replaced.

Against the PQ-tree, both must give the same verdict and reason tag.
Every accepted ordering must pass the full validator and the pipeline's
sanity check, and the chordality test read off the LexBFS walk must agree
with the reference elimination ordering, and the maximal cliques read off
the same walk must be the Bron–Kerbosch ones.  Against the refinements in
`recognition_reference`, which keeps its cliques as frozensets, the
clique list (each clique's member set, in the same order) and the
outcome, ordering or reason tag, must be identical.
"""

from __future__ import annotations

import itertools
import random
import sys
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcubes import (
    CliqueOrdering, GenConfig, Graph, model_to_graph, parse_graph, random_interval_model,
    recognize_and_order, serialize_graph,
)
from intervalcubes.recognition import _check_ordering_sanity, maximal_cliques_chordal

from conftest import (
    bron_kerbosch, chordal_graphs, cycle_graph, dense_graphs, interval_models, net_graph,
    recognition_outcome, relabelled, relabelled_model_graphs,
)
from pqtree_reference import perfect_elimination_ordering as reference_peo
from pqtree_reference import recognize_and_order as reference_recognize
import recognition_reference
from validators import validate_ordering


def assert_matches_reference(graph: Graph):
    """The library's outcome, the clique ordering or the reason tag, once
    checked against the reference's."""
    result = recognition_outcome(recognize_and_order, graph)
    reference = recognition_outcome(reference_recognize, graph)
    if isinstance(result, str) or isinstance(reference, str):
        assert result == reference, (graph.n, graph.edges())
    else:
        assert validate_ordering(graph, result).ok, (graph.n, graph.edges())
        _check_ordering_sanity(graph, result)
    cliques = maximal_cliques_chordal(graph)
    assert (cliques is None) == (reference_peo(graph) is None), (graph.n, graph.edges())
    if cliques is not None:
        assert len(set(as_sets(cliques))) == len(cliques)
        assert set(as_sets(cliques)) == bron_kerbosch(graph)
    # the same cliques in the same order, and the same ordering or reason
    # tag: the reference pops its pivots from a set, so this also checks
    # that the arrangement does not depend on the order pivots are taken
    refined = recognition_reference.maximal_cliques_chordal(graph)
    assert as_sets(cliques) == as_sets(refined), (graph.n, graph.edges())
    assert result == recognition_outcome(recognition_reference.recognize_and_order, graph)
    return result


def as_sets(cliques):
    return None if cliques is None else [frozenset(clique) for clique in cliques]


def spider(legs: int, length: int) -> Graph:
    """`legs` paths of `length` edges from hub 0.  Three legs of length two
    or more hold an asteroidal triple, so such a spider is chordal but not
    interval; with length one it is a star."""
    edges = []
    for leg in range(legs):
        prev = 0
        for step in range(length):
            v = 1 + leg * length + step
            edges.append((prev, v))
            prev = v
    return Graph(1 + legs * length, edges)


def subdivided_claw(a: int, b: int, c: int) -> Graph:
    """Legs of a, b and c edges from one hub."""
    edges, n = [], 1
    for length in (a, b, c):
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    return Graph(n, edges)


# An interval graph on 11 vertices that four plain LBFS+ sweeps with an
# interval-ordering check reject.
ELEVEN = Graph(
    11,
    [
        (0, 3), (0, 4), (0, 5), (0, 7), (1, 3), (1, 5), (2, 3), (2, 4), (2, 5),
        (2, 6), (2, 7), (2, 8), (2, 9), (2, 10), (3, 4), (3, 5), (3, 6), (3, 7),
        (3, 8), (3, 9), (3, 10), (4, 5), (4, 6), (4, 7), (4, 8), (4, 9), (4, 10),
        (5, 6), (5, 7), (5, 8), (5, 9), (6, 7), (7, 8), (8, 9),
    ],
)


def test_every_labelled_graph_up_to_five_vertices():
    graphs = 0
    verdicts = set()
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            graph = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            result = assert_matches_reference(graph)
            verdicts.add(result if isinstance(result, str) else "interval")
            graphs += 1
    assert graphs == 1099
    # the smallest chordal graphs that are not interval have 6 vertices
    assert verdicts == {"interval", "not-chordal"}


@settings(max_examples=300, deadline=None)
@given(interval_models(), st.data())
def test_relabelled_models_with_toggled_pairs(model, data):
    graph = model_to_graph(model)
    n = graph.n
    perm = data.draw(st.permutations(range(n)))
    edges = {(min(u, v), max(u, v)) for u, v in relabelled(graph, perm).edges()}
    if n >= 2:
        vertex = st.integers(0, n - 1)
        pairs = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
        for u, v in data.draw(st.lists(pairs, max_size=3)):
            edges ^= {(min(u, v), max(u, v))}
    assert_matches_reference(Graph(n, edges))


def test_random_trees():
    rng = random.Random(11)
    verdicts = set()
    for trial in range(300):
        n = rng.randint(2, 30)
        tree = Graph(n, [(i, rng.randint(0, i - 1)) for i in range(1, n)])
        result = assert_matches_reference(tree)
        verdicts.add(result if isinstance(result, str) else "interval")
    assert verdicts == {"interval", "no-consecutive-ordering"}


def test_cycles_are_not_chordal():
    for n in range(4, 9):
        assert assert_matches_reference(cycle_graph(n)) == "not-chordal"


def test_asteroidal_triples_are_rejected():
    rejected = [net_graph(), spider(3, 2), spider(4, 2), spider(3, 3), subdivided_claw(2, 3, 4)]
    for graph in rejected:
        assert assert_matches_reference(graph) == "no-consecutive-ordering"
    # one or two long legs leave a caterpillar, which is interval
    for graph in (spider(5, 1), subdivided_claw(1, 1, 5), subdivided_claw(1, 4, 4)):
        assert isinstance(assert_matches_reference(graph), CliqueOrdering)


def test_every_labelling_of_the_net_and_the_tent():
    """The two chordal non-interval graphs on six vertices: the net (a
    triangle with a pendant at each corner) and the tent, or 3-sun (a
    triangle with a vertex on each side, adjacent to that side's ends)."""
    tent = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 1), (3, 2), (4, 0), (4, 2), (5, 0), (5, 1)])
    for graph in (net_graph(), tent):
        for perm in itertools.permutations(range(6)):
            assert assert_matches_reference(relabelled(graph, perm)) == "no-consecutive-ordering"


def test_graph_that_four_lbfs_sweeps_reject():
    assert isinstance(assert_matches_reference(ELEVEN), CliqueOrdering)


def nested(size: int) -> Graph:
    """Intervals [0, i] for i = 1..size, vertices 0..size-1, and the points
    i + 1/2 for i = 0..size-1, vertices size..2*size-1."""
    clique = [(u, v) for u in range(size) for v in range(u + 1, size)]
    points = [(v, size + i) for i in range(size) for v in range(i, size)]
    return Graph(2 * size, clique + points)


def test_deep_nesting_needs_no_deep_recursion():
    """The nested family drove the PQ-tree's recursion as deep as the
    nesting; with 60 frames to spare recognition must still succeed."""
    graph = nested(200)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        result = recognize_and_order(graph)
    finally:
        sys.setrecursionlimit(limit)
    assert result.k == 200
    assert validate_ordering(graph, result).ok


@settings(max_examples=400, deadline=None)
@given(st.one_of(relabelled_model_graphs(), chordal_graphs(), dense_graphs()))
def test_same_cliques_and_outcome_as_the_refinements_replaced(graph):
    assert_matches_reference(graph)


def test_recognition_holds_no_set_per_vertex_or_clique():
    """Recognition keeps the earlier neighbours, parents and cliques in
    int lists.  On this edge list (400 vertices, about 33k edges) a
    frozenset per vertex and per clique, the pending set and the dicts
    keyed by vertex peaked near 3 MiB above the graph; the lists stay
    under 1 MiB."""
    model = random_interval_model(GenConfig(n=400, seed=0, dist="uniform"))
    graph = parse_graph(serialize_graph(model_to_graph(model)))
    tracemalloc.start()
    try:
        recognize_and_order(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
