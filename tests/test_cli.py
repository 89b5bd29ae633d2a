import hashlib
import json
import weakref

import pytest

from intervalcubes import (
    CliqueOrdering,
    CubeRepresentation,
    GenConfig,
    model_to_graph,
    parse_graph,
    random_interval_model,
    serialize_graph,
)
from intervalcubes import (
    cli, construct, generate, graphs, intervals, oracle, rationals, recognition, search, verify,
)
from intervalcubes.cli import main
from intervalcubes.graphs import DISTRIBUTIONS
from intervalcubes.params import best_dimension, ceil_log2, parameters

from conftest import make_model, model_text, star_model

P3_TEXT = "3 2\n0 1\n1 2\n"
C4_TEXT = "4 4\n0 1\n1 2\n2 3\n0 3\n"
K3_TEXT = "3 3\n0 1\n0 2\n1 2\n"


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text(P3_TEXT)
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(C4_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_recognize_interval(capsys, p3_file):
    code, out, _ = run(capsys, "recognize", p3_file)
    assert code == 0
    assert json.loads(out) == {"interval": True, "cliques": 2}


def test_recognize_non_interval_exit_1(capsys, c4_file):
    code, out, _ = run(capsys, "recognize", c4_file)
    assert code == 1
    assert json.loads(out)["reason"] == "not-chordal"


def test_order_and_label(capsys, p3_file):
    code, out, _ = run(capsys, "order", p3_file)
    assert code == 0
    assert json.loads(out) == {"k": 2, "left": [0, 0, 1], "right": [0, 1, 1]}
    code, out, _ = run(capsys, "label", p3_file)
    assert code == 0
    assert json.loads(out)["alpha"] == 2


def test_json_output_is_written_in_a_few_batches():
    """Every document is `json.dumps(indent=2, sort_keys=True)` and a
    newline, written in batches: not held whole, and not one write per
    encoder chunk, which is a system call each on an unbuffered stdout."""
    from types import SimpleNamespace

    from intervalcubes.graphs import write_json

    writes = []
    obj = {"cliques": [list(range(j, j + 50)) for j in range(2000)], "k": 2000}
    write_json(obj, SimpleNamespace(write=writes.append))
    assert "".join(writes) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert 2 < len(writes) <= 5


P3_BEST = """{
  "coords": [
    [-3],
    [-1],
    [2]
  ],
  "dimension": 1,
  "side": 3,
  "unit": 3
}
"""
P3_CLAW_TRACE = """{
  "coords": [
    [-3, 0, -3],
    [-1, 0, -1],
    [2, 2, -1]
  ],
  "dimension": 3,
  "side": 3,
  "trace": {
    "bits": [0, 1, 2],
    "branch": [
      [0, 0, 1],
      [1, 1, 1],
      [0, 0, 0]
    ],
    "claw": 2,
    "codes": [2, 2, 3],
    "levels": [0, 0, 1],
    "power": 1,
    "scale": ["0", "1"]
  },
  "unit": 2
}
"""


@pytest.mark.parametrize("flags, expected", [
    (("--variant", "best", "--normalize"), P3_BEST),
    (("--variant", "claw", "--trace"), P3_CLAW_TRACE),
], ids=["best", "claw-trace"])
def test_representation_is_written_one_vertex_per_line(capsys, p3_file, flags, expected):
    """A representation's rows are one line each, `json.dumps`'s unindented
    list of the record's ints, and so are the trace's lists and each row of
    its `branch`; the keys keep the indented layout of every other
    document.  Each value counts units of 1/unit: under `--normalize` the
    side is the unit."""
    assert run(capsys, "construct", p3_file, *flags) == (0, expected, "")


def test_representation_is_written_in_a_few_batches():
    """The rows reach the handle a few thousand at a time: not one write
    per row, a system call each on an unbuffered stdout, nor one string of
    the whole document."""
    from types import SimpleNamespace

    from conftest import representation_obj, representation_text

    n = 10**4
    rep = CubeRepresentation(n, 3, (tuple(range(n)), tuple(range(0, -n, -1))), 2)
    writes = []
    rep.dump(SimpleNamespace(write=writes.append))
    assert "".join(writes) == representation_text(representation_obj(rep)) + "\n"
    assert 2 < len(writes) <= 8 and max(map(len, writes)) < len("".join(writes)) / 2


@pytest.mark.parametrize("flags", [
    ("--variant", "best", "--normalize"), ("--variant", "claw", "--trace"), ("--variant", "alpha"),
], ids=["best", "claw-trace", "alpha"])
def test_construct_writes_the_same_bytes_to_stdout_and_out(capsys, tmp_path, flags):
    path = tmp_path / "model.json"
    path.write_text(model_text(random_interval_model(GenConfig(200, 1, "unit-jitter"))))
    code, out, _ = run(capsys, "construct", str(path), *flags)
    assert code == 0
    assert run(capsys, "construct", str(path), *flags, "--out", str(tmp_path / "rep.json"))[0] == 0
    assert (tmp_path / "rep.json").read_text(encoding="utf-8") == out
    # "{", '  "coords": [', then the rows, one line each
    assert out.split("\n")[202] == "  ],"

def test_params(capsys, p3_file):
    code, out, _ = run(capsys, "params", p3_file)
    assert code == 0
    obj = json.loads(out)
    assert obj["psi"] == 2 and obj["alpha"] == 2 and obj["lower_bound"] == 1


@pytest.mark.parametrize("text", ["0 0\n", '{"intervals": []}'], ids=["edge-list", "model"])
def test_empty_graph_accepted(capsys, tmp_path, text):
    path = tmp_path / "empty"
    path.write_text(text)
    expected = {
        "recognize": {"interval": True, "cliques": 0},
        "order": {"k": 0, "left": [], "right": []},
        "label": {"levels": [], "anchors": [], "alpha": 0},
        "params": {"psi": 0, "alpha": 0, "lower_bound": 0, "witness": None},
    }
    for command, obj in expected.items():
        code, out, _ = run(capsys, command, str(path))
        assert (code, json.loads(out)) == (0, obj), command
    code, out, _ = run(capsys, "construct", str(path), "--variant", "best")
    assert code == 0 and json.loads(out)["coords"] == []


def test_construct_variants(capsys, p3_file):
    code, out, _ = run(capsys, "construct", p3_file)
    assert code == 0
    assert json.loads(out)["dimension"] == 3
    code, out, _ = run(capsys, "construct", p3_file, "--variant", "alpha")
    assert json.loads(out)["dimension"] == 1
    code, out, _ = run(capsys, "construct", p3_file, "--variant", "best")
    assert json.loads(out)["dimension"] == 1


def test_construct_normalize_and_trace(capsys, p3_file):
    code, out, _ = run(capsys, "construct", p3_file, "--normalize", "--trace")
    assert code == 0
    obj = json.loads(out)
    assert obj["side"] == obj["unit"] == 3
    assert obj["trace"]["claw"] == 2
    assert set(obj["trace"]) == {"power", "claw", "bits", "scale", "codes", "levels", "branch"}


def test_construct_non_interval_exit_1(capsys, c4_file):
    code, _, err = run(capsys, "construct", c4_file)
    assert code == 1
    assert "not an interval graph" in err


def test_construct_complete_graph_degenerate_trace(capsys, tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT)
    code, out, _ = run(capsys, "construct", str(path), "--trace")
    assert code == 0
    obj = json.loads(out)
    assert obj["dimension"] == 0
    assert obj["trace"] is None


def test_verify_round_trip(capsys, tmp_path, p3_file):
    rep_path = tmp_path / "rep.json"
    code, out, _ = run(capsys, "construct", p3_file, "--out", str(rep_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", p3_file, str(rep_path))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_failure_exit_2(capsys, tmp_path, p3_file):
    rep_path = tmp_path / "rep.json"
    run(capsys, "construct", p3_file, "--out", str(rep_path))
    obj = json.loads(rep_path.read_text())
    obj["coords"][2][0] = "0"  # collapse the leaf separation
    rep_path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", p3_file, str(rep_path))
    assert code == 2
    assert json.loads(out)["missing_separation"] == [[0, 2]]


def test_verify_reads_any_graph_without_recognition(capsys, tmp_path, c4_file):
    """C_4 is not an interval graph (recognition would exit 1), yet
    `verify` checks a representation of it against its adjacency."""
    rep = {"dimension": 2, "side": "1", "coords": [[0, 1], [1, 0], [0, -1], [-1, 0]]}
    rep_path = tmp_path / "c4.rep.json"
    rep_path.write_text(json.dumps(rep))
    code, out, _ = run(capsys, "verify", c4_file, str(rep_path))
    assert code == 0 and json.loads(out)["ok"] is True
    rep["coords"][0] = [-5, 0]
    rep_path.write_text(json.dumps(rep))
    code, out, _ = run(capsys, "verify", c4_file, str(rep_path))
    assert code == 2
    assert json.loads(out)["missing_adjacency"] == [[0, 1], [0, 3]]


def test_construct_verifies_an_edge_list_against_its_recognized_ordering(
    capsys, monkeypatch, p3_file
):
    """The verifier gets the CliqueOrdering recognition returned, and the
    parsed Graph is unreachable before the builder runs."""

    class WatchedGraph(graphs.Graph):
        """A Graph that takes weak references, its fields set directly,
        since a Record's fields are its class's own slots."""

        __slots__ = ("__weakref__",)

    seen, parse = {}, cli.parse_graph

    def parse_watched(text, refuse=None):
        watched = object.__new__(WatchedGraph)
        for name, value in zip(graphs.Graph.__slots__, parse(text, refuse)._values()):
            object.__setattr__(watched, name, value)
        seen["graph"] = weakref.ref(watched)
        return watched

    recognize, build, check = (
        recognition.recognize_and_order, construct.build_best, verify.verify_representation
    )

    def recognized(graph):
        seen["parsed"] = type(graph)
        seen["ordering"] = recognize(graph)
        return seen["ordering"]

    def built(ordering):
        seen["graph alive at build"] = seen["graph"]() is not None
        seen["built from"] = ordering
        return build(ordering)

    def verified(ranges, rep):
        seen["verified against"] = ranges
        return check(ranges, rep)

    monkeypatch.setattr(cli, "parse_graph", parse_watched)
    monkeypatch.setattr(recognition, "recognize_and_order", recognized)
    monkeypatch.setattr(construct, "build_best", built)
    monkeypatch.setattr(verify, "verify_representation", verified)
    code, _, _ = run(capsys, "construct", p3_file, "--variant", "best")
    assert code == 0
    assert seen["parsed"] is WatchedGraph and seen["graph alive at build"] is False
    assert isinstance(seen["ordering"], CliqueOrdering)
    assert seen["built from"] is seen["verified against"] is seen["ordering"]


def test_exact(capsys, tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT)
    code, out, _ = run(capsys, "exact", str(path))
    assert code == 0
    assert json.loads(out)["cubicity"] == 0


def test_exact_reports_an_exceeded_bound(capsys, tmp_path):
    path = tmp_path / "star3.txt"
    path.write_text("4 3\n0 1\n0 2\n0 3\n")
    code, out, _ = run(capsys, "exact", str(path), "--max-b", "1")
    assert code == 0
    assert out == (
        '{\n  "b_max": 1,\n  "candidates_enumerated": 18,\n  "cover_nodes": 3,\n'
        '  "exceeded": true\n}\n'
    )


def test_exact_size_refusal_exit_3(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("9 0\n")
    code, _, err = run(capsys, "exact", str(path))
    assert code == 3


def test_exact_refuses_a_model_before_building_its_graph(capsys, tmp_path, monkeypatch):
    def no_graph(model):
        raise AssertionError("built the graph of a model the oracle refuses")

    monkeypatch.setattr(intervals, "model_to_graph", no_graph)
    path = tmp_path / "nine.json"
    path.write_text(model_text(make_model([(i, i + 1) for i in range(9)])))
    assert run(capsys, "exact", str(path)) == (
        3, "", "9 vertices exceeds the oracle bound of 8\n"
    )


def test_exact_refuses_a_model_on_its_record_count(capsys, tmp_path, monkeypatch):
    """Before any endpoint text is read, so a model of nine records exits 3
    however malformed its records are, as an edge list does on its header."""
    def no_text(value):
        raise AssertionError("read the endpoints of a model the oracle refuses")

    monkeypatch.setattr(rationals, "parse_ratio", no_text)
    path = tmp_path / "nine.json"
    well_formed = [{"id": i, "lo": str(i), "hi": str(i + 1)} for i in range(9)]
    for records in (well_formed, [{"id": 0, "lo": "x"}] * 9):
        path.write_text(json.dumps({"intervals": records}))
        assert run(capsys, "exact", str(path)) == (
            3, "", "9 vertices exceeds the oracle bound of 8\n"
        )
    # the document's shape is still checked first
    path.write_text(json.dumps({"intervals": [1] * 9}))
    assert run(capsys, "exact", str(path))[0] == 65


def test_exact_refuses_an_edge_list_on_its_header(capsys, tmp_path, monkeypatch):
    def no_graph(*args):
        raise AssertionError("read the edges of a graph the oracle refuses")

    monkeypatch.setattr(graphs, "Graph", no_graph)
    path = tmp_path / "nine.txt"
    path.write_text("\n 9 8\n" + "".join(f"{i} {i + 1}\n" for i in range(8)))
    assert run(capsys, "exact", str(path)) == (
        3, "", "9 vertices exceeds the oracle bound of 8\n"
    )
    # the header is still checked first
    path.write_text("9 x\n")
    assert run(capsys, "exact", str(path))[0] == 65


@pytest.mark.parametrize("variant", ["claw", "alpha", "best"])
def test_construct_puts_a_model_on_its_grid_once(capsys, tmp_path, monkeypatch, variant):
    """The sweep and the verifier read the grid ints the model was loaded
    with; neither puts the endpoints on a grid again."""
    calls = []
    on_grid = intervals._on_grid
    monkeypatch.setattr(intervals, "_on_grid", lambda *args: calls.append(1) or on_grid(*args))
    path = tmp_path / "model.json"
    path.write_text(model_text(random_interval_model(GenConfig(30, 2, "unit-jitter"))))
    calls.clear()
    code, _, _ = run(capsys, "construct", str(path), "--variant", variant, "--normalize")
    assert code == 0 and len(calls) == 1


def test_gen_pipes_into_construct(capsys, tmp_path):
    model_path = tmp_path / "model.json"
    code, out, _ = run(capsys, "gen", "--n", "12", "--seed", "5", "--out", str(model_path))
    assert code == 0
    code, out, _ = run(capsys, "construct", str(model_path), "--variant", "best")
    assert code == 0
    assert json.loads(out)["dimension"] >= 0


def test_gen_deterministic(capsys):
    code, out1, _ = run(capsys, "gen", "--n", "6", "--seed", "9")
    code, out2, _ = run(capsys, "gen", "--n", "6", "--seed", "9")
    assert out1 == out2


def test_search_csv(capsys, tmp_path):
    csv_path = tmp_path / "hist.csv"
    code, out, _ = run(
        capsys, "search", "--count", "30", "--n-max", "5", "--seed", "4",
        "--csv", str(csv_path),
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["graphs_tried"] == 30
    assert obj["counterexamples"] == []
    assert csv_path.read_text().startswith("psi,alpha,cubicity,dimension,count")


def test_bad_input_exit_65(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nonsense file\n")
    code, _, err = run(capsys, "recognize", str(path))
    assert code == 65


@pytest.mark.parametrize("text, message", [
    ("-1 0\n", "line 1: header counts must be non-negative"),
    ("2 1\n0 x\n", "line 2: edge endpoints must be integers"),
], ids=["negative-n", "non-integer-endpoint"])
def test_bad_edge_list_names_its_line_exit_65(capsys, tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert run(capsys, "recognize", str(path)) == (65, "", f"bad input: {message}\n")


def test_usage_error_exit_64(capsys):
    code, out, err = run(capsys, "construct", "--variant", "bogus", "x")
    assert code == 64
    assert out == ""
    assert err.startswith("usage: intervalcubes construct ")


def test_help_returns_0(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: intervalcubes ")
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--count", "1", "--n-max", "1"],
        ["search", "--count", "1", "--n-max", "9"],
        ["search", "--count", "-1"],
    ],
)
def test_search_bad_arguments_exit_64(capsys, argv):
    assert main(argv) == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--n", "0"],
        ["gen", "--n", "-3"],
        ["exact", "graph.txt", "--max-b", "0"],
        ["exact", "graph.txt", "--max-b", "-2"],
    ],
)
def test_bad_arguments_exit_64_before_reading(capsys, argv):
    # graph.txt does not exist: the arguments are rejected before any input is read
    assert main(argv) == 64


def _rep_doc(p3_file, tmp_path, capsys, **changes):
    rep_path = tmp_path / "rep.json"
    run(capsys, "construct", p3_file, "--out", str(rep_path))
    obj = json.loads(rep_path.read_text())
    obj.update(changes)
    rep_path.write_text(json.dumps(obj))
    return str(rep_path)


@pytest.mark.parametrize(
    "changes",
    [
        {"side": "-1"},
        {"side": "0"},
        {"dimension": "3"},
        {"dimension": 3.9},
        {"dimension": True, "coords": [["0"], ["1"], ["2"]]},
        {"coords": ["123", "456", "789"]},
        {"coords": [["1e100000", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]},
        {"dimension": 2, "coords": [["1", True], ["0", "0"], ["0", "0"]]},
        {"dimension": 2, "coords": [[1, 1.0], [0, 0], [0, 0]]},
        {"dimension": 2, "coords": [["1/2", ["x"]], ["0", "0"], ["0", "0"]]},
    ],
)
def test_verify_malformed_representation_exit_65(capsys, tmp_path, p3_file, changes):
    rep_path = _rep_doc(p3_file, tmp_path, capsys, **changes)
    code, out, err = run(capsys, "verify", p3_file, rep_path)
    assert code == 65
    assert out == "" and err.startswith("bad input:")


@pytest.mark.parametrize("unit", [0, -1, True, 1.0, "2", 2**1100])
def test_verify_refuses_a_bad_unit_exit_65(capsys, tmp_path, p3_file, unit):
    rep_path = _rep_doc(p3_file, tmp_path, capsys, unit=unit)
    code, out, err = run(capsys, "verify", p3_file, rep_path)
    assert code == 65
    assert out == "" and err == "bad input: unit must be a positive integer of at most 1024 bits\n"


@pytest.mark.parametrize("flags", [
    ("--variant", "best", "--normalize"), ("--variant", "claw"), ("--variant", "alpha"),
], ids=["best", "claw", "alpha"])
def test_verify_reads_rational_text_as_it_reads_the_grid(capsys, tmp_path, flags):
    """A written document, the rational text earlier versions wrote for
    the same build, and each with three rows shifted as the benchmark
    corrupts them (ints with integer texts, or texts alone) give `verify`
    the same report, byte for byte, and the same exit code."""
    from conftest import rational_obj, shifted

    model_path = tmp_path / "model.json"
    model_path.write_text(model_text(random_interval_model(GenConfig(60, 1, "unit-jitter"))))
    rep_path = tmp_path / "rep.json"
    assert run(capsys, "construct", str(model_path), *flags, "--out", str(rep_path))[0] == 0
    grid = json.loads(rep_path.read_text())
    old = rational_obj(CubeRepresentation.loads(rep_path.read_text()))
    outcomes = []
    for obj in (grid, old, shifted(grid, [0, 7, 30]), shifted(old, [0, 7, 30])):
        rep_path.write_text(json.dumps(obj))
        outcomes.append(run(capsys, "verify", str(model_path), str(rep_path)))
    assert outcomes[0] == outcomes[1] and outcomes[0][0] == 0
    assert outcomes[2] == outcomes[3] and outcomes[2][0] == 2


def _primes(count):
    found = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found if p * p <= candidate):
            found.append(candidate)
        candidate += 1
    return found


def test_verify_refuses_an_unbounded_grid_exit_65(capsys, tmp_path):
    # 1/p over the first 2000 primes: 25 kB whose common grid needs a
    # 24,856-bit unit; the fold stops at the cap instead
    graph_path = tmp_path / "edgeless.txt"
    graph_path.write_text("2000 0\n")
    rep_path = tmp_path / "primes.json"
    coords = [[f"1/{p}"] for p in _primes(2000)]
    rep_path.write_text(json.dumps({"dimension": 1, "side": "1", "coords": coords}))
    code, out, err = run(capsys, "verify", str(graph_path), str(rep_path))
    assert code == 65
    assert out == "" and f"more than {verify.MAX_UNIT_BITS} bits" in err

    # a normalized build of a generated model still loads and verifies
    model = random_interval_model(GenConfig(n=300, seed=3, dist="unit-jitter"))
    model_path = tmp_path / "model.json"
    model_path.write_text(model_text(model))
    code, _, _ = run(capsys, "construct", str(model_path), "--variant", "best", "--normalize",
                     "--out", str(rep_path))
    assert code == 0
    unit = CubeRepresentation.loads(rep_path.read_text()).unit
    assert unit.bit_length() <= verify.MAX_UNIT_BITS
    assert run(capsys, "verify", str(model_path), str(rep_path))[0] == 0


def test_model_past_the_grid_limit_exits_65(capsys, tmp_path):
    """A model's ends share one grid, whose unit is the lcm of their
    denominators: [0, 1/p] over the first 100 primes needs 730 bits and
    still builds and verifies, over the first 200 it needs 1704 and is
    refused as malformed input by every command that reads it."""
    model_path, rep_path = tmp_path / "primes.json", tmp_path / "rep.json"

    def write(count):
        records = [{"id": i, "lo": "0", "hi": f"1/{p}"} for i, p in enumerate(_primes(count))]
        model_path.write_text(json.dumps({"intervals": records}))

    write(100)
    assert run(capsys, "construct", str(model_path), "--variant", "best", "--normalize",
               "--out", str(rep_path))[0] == 0
    assert run(capsys, "verify", str(model_path), str(rep_path))[0] == 0
    write(200)
    refusal = f"bad input: the common grid needs a unit of more than {graphs.MAX_UNIT_BITS} bits\n"
    for argv in (["construct", str(model_path)], ["verify", str(model_path), str(rep_path)],
                 ["params", str(model_path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (65, "", refusal)


def test_verify_refuses_a_dimension_without_coordinates_exit_65(capsys, tmp_path):
    # 47 bytes that would otherwise make the verifier build a million columns
    graph_path = tmp_path / "empty.txt"
    graph_path.write_text("0 0\n")
    rep_path = tmp_path / "rep.json"
    rep_path.write_text('{"dimension": 1000000, "side": 1, "coords": []}')
    code, out, err = run(capsys, "verify", str(graph_path), str(rep_path))
    assert code == 65
    assert out == "" and err.startswith("bad input:") and "dimension must be 0" in err
    rep_path.write_text('{"dimension": 0, "side": 1, "coords": []}')
    assert run(capsys, "verify", str(graph_path), str(rep_path))[0] == 0


def test_verify_non_object_documents_exit_65(capsys, tmp_path, p3_file):
    for text in ("[]", '"rep"', "3"):
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert run(capsys, "verify", p3_file, str(path))[0] == 65
        assert run(capsys, "verify", str(path), p3_file)[0] == 65


# deeper than json's parser recurses: a RecursionError would exit 1, the
# "not an interval graph" code, with a traceback
DEEP = "[" * 10**5 + "]" * 10**5


@pytest.mark.parametrize(
    "argv",
    [["recognize", "deep"], ["params", "deep"], ["construct", "deep"], ["verify", "deep", "deep"],
     ["verify", "p3", "deep"]],
)
def test_deeply_nested_json_exit_65(capsys, tmp_path, p3_file, argv):
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    files = {"deep": str(path), "p3": p3_file}
    code, out, err = run(capsys, *[files.get(a, a) for a in argv])
    assert (code, out) == (65, "")
    assert err == "bad input: JSON nested too deeply\n"


def test_long_decimal_coordinate_is_refused_in_a_bounded_line(capsys, tmp_path, p3_file):
    rep_path = _rep_doc(p3_file, tmp_path, capsys, coords=[["0." + "1" * 10**6]] * 3, dimension=1)
    code, out, err = run(capsys, "verify", p3_file, rep_path)
    assert (code, out) == (65, "")
    assert err == f"bad input: not a rational: {'0.' + '1' * 38!r}... (1000002 characters)\n"


def test_decimal_that_cannot_be_written_back_exit_65(capsys, tmp_path):
    """Its reduced numerator has 6000 digits, more than `str` writes, so
    the model is refused where it is read, not when it is written."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"intervals": [{"id": 0, "lo": "0", "hi": "1" * 3000 + "." + "1" * 3000}]}))
    code, out, err = run(capsys, "params", str(path))
    assert (code, out) == (65, "")
    assert err.startswith("bad input: not a rational: '1111") and len(err) < 100


@pytest.mark.parametrize(
    "records",
    [
        [{"id": True, "lo": "0", "hi": "1"}, {"id": 0, "lo": "0", "hi": "1"}],
        [{"id": 0, "lo": "0", "hi": "1e100000"}],
        [{"id": 0, "lo": "1E5", "hi": "2E5"}],
        [3],
    ],
)
def test_malformed_model_exit_65(capsys, tmp_path, records):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"intervals": records}))
    code, out, err = run(capsys, "order", str(path))
    assert code == 65
    assert out == "" and err.startswith("bad input:")


def test_search_counts_oracle_refusals(capsys):
    # --n-max stops at the oracle's vertex bound, so every sample is tried
    # and the report still carries the count
    code, out, _ = run(capsys, "search", "--count", "23", "--n-max", "8", "--seed", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["oracle_refused"] == 0
    assert obj["graphs_tried"] == 23


def _model_and_edge_list(tmp_path, name, model):
    model_path = tmp_path / f"{name}.json"
    model_path.write_text(model_text(model))
    edges_path = tmp_path / f"{name}.txt"
    edges_path.write_text(serialize_graph(model_to_graph(model)))
    return str(model_path), str(edges_path)


def test_model_input_skips_recognition(capsys, tmp_path, monkeypatch):
    """Model JSON takes its ordering from the endpoint sweep, so the route
    may pick other cliques and coordinates than the edge list of the same
    graph, but every parameter, dimension, verdict and exit code agrees.
    No command here builds the model's graph."""
    models = {f"gen-{seed}": random_interval_model(GenConfig(12, seed, dist))
              for seed, dist in enumerate(DISTRIBUTIONS)}
    models["star"] = star_model(5)
    models["two-cliques"] = make_model([(0, 1), (0, 1), (3, 4)])
    models["clique"] = make_model([(0, 2), (1, 3)])
    commands = [["recognize"], ["order"], ["label"], ["params"]] + [
        ["construct", "--variant", v] for v in ("claw", "alpha", "best")
    ]

    def refuse(graph):
        raise AssertionError("model input went through recognition")

    def no_graph(model):
        raise AssertionError("built a graph no command step reads")

    for name, model in models.items():
        model_path, edges_path = _model_and_edge_list(tmp_path, name, model)
        for command in commands:
            code, edge_out, _ = run(capsys, *command, edges_path)
            with monkeypatch.context() as patch:
                patch.setattr(recognition, "recognize_and_order", refuse)
                patch.setattr(intervals, "model_to_graph", no_graph)
                model_code, model_out, _ = run(capsys, *command, model_path)
            assert model_code == code == 0
            edge_obj, model_obj = json.loads(edge_out), json.loads(model_out)
            if command[0] in ("recognize", "label"):
                assert model_obj.get("alpha") == edge_obj.get("alpha")
                assert model_obj.get("cliques") == edge_obj.get("cliques")
            elif command[0] == "order":
                assert model_obj["k"] == edge_obj["k"]
            elif command[0] == "params":
                for key in ("psi", "alpha", "lower_bound"):
                    assert model_obj[key] == edge_obj[key]
            else:
                assert model_obj["dimension"] == edge_obj["dimension"]
                rep_path = tmp_path / f"{name}-rep.json"
                rep_path.write_text(model_out)
                for graph_path in (model_path, edges_path):
                    code, out, _ = run(capsys, "verify", graph_path, str(rep_path))
                    assert code == 0 and json.loads(out)["ok"] is True


def test_vertex_limit_refuses_before_allocating(capsys, tmp_path, monkeypatch):
    def no_graph(*args):
        raise AssertionError("allocated the graph")

    monkeypatch.setattr(graphs, "Graph", no_graph)
    path = tmp_path / "huge.txt"
    path.write_text(f"{graphs.MAX_VERTICES + 1} 0\n")
    code, _, err = run(capsys, "recognize", str(path))
    assert code == 65
    assert "exceeds the limit" in err

    def no_model(*args):
        raise AssertionError("generated the model")

    monkeypatch.setattr(generate, "random_interval_model", no_model)
    assert main(["gen", "--n", str(graphs.MAX_VERTICES + 1)]) == 64


# The paths below run only when the oracle or a builder misbehaves, so each
# test makes it misbehave.

def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _psi(graph) -> int:
    return parameters(recognition.recognize_and_order(graph))[0]


def test_search_reports_a_sample_above_the_lower_bound(capsys, tmp_path, monkeypatch):
    """An oracle that reports ceil(log2 psi) + 1 on every psi >= 2 sample:
    each such sample is a counterexample, which the recheck (the same
    oracle) confirms, and whose graph text reads back to the sample."""
    sampled = []

    def above_the_bound(graph, b_max):
        if _psi(graph) < 2:
            return oracle.exact_cubicity(graph, b_max=b_max)
        sampled.append(graph)
        return oracle.ExactResult(((),) * (ceil_log2(_psi(graph)) + 1), 0, 0)

    monkeypatch.setattr(search, "exact_cubicity", above_the_bound)
    out_path = tmp_path / "search.json"
    code, _, err = run(capsys, "search", "--count", "12", "--n-max", "6", "--out", str(out_path))
    assert code == 0
    # the report's bytes, pinned as test_output_digests pins the others'
    assert _sha256(out_path) == "136625ef82a8b59d9735fc7188a04defd79db5af911271584171a20820a5ae0f"
    report = json.loads(out_path.read_text())
    found = report["counterexamples"]
    assert found and report["bound_violations"] == []
    assert err.startswith(f"FOUND {len(found)} candidate counterexample(s)")
    for entry in found:
        graph = parse_graph(entry["graph"])
        assert graph in sampled
        assert entry["psi"] == _psi(graph) >= 2
        assert entry["cubicity"] == entry["lower_bound"] + 1 == ceil_log2(entry["psi"]) + 1


def test_search_reports_a_broken_upper_bound(capsys, tmp_path, monkeypatch):
    def exceeded(graph, b_max):
        return oracle.Exceeded(b_max, 0, 0)

    monkeypatch.setattr(search, "exact_cubicity", exceeded)
    out_path = tmp_path / "search.json"
    code, _, err = run(capsys, "search", "--count", "5", "--n-max", "6", "--out", str(out_path))
    assert code == 0
    assert _sha256(out_path) == "aced1456e35597110a7d85097a6aa61e2acbb4b74c0d1e36779a3932baf22879"
    report = json.loads(out_path.read_text())
    assert report["graphs_tried"] == len(report["bound_violations"]) == 5
    assert report["histogram"] == [] and report["counterexamples"] == []
    for entry in report["bound_violations"]:
        graph = parse_graph(entry["graph"])
        assert entry["psi"] == _psi(graph)
        assert entry["bound"] == max(1, best_dimension(entry["psi"], entry["alpha"]))
    assert err == "BUG: 5 instance(s) broke the proven upper bound\n"


# each command's arguments, with GRAPH for an input and DEST for a
# destination; one given none writes to --out
UNWRITABLE = {
    "recognize": ["GRAPH"],
    "order": ["GRAPH"],
    "label": ["GRAPH"],
    "params": ["GRAPH"],
    "construct": ["GRAPH", "--variant", "best"],
    "verify": ["GRAPH", "GRAPH"],
    "exact": ["GRAPH"],
    "gen": ["--n", "1000000"],
    "search --out": ["--count", "3000", "--n-max", "8", "--seed", "1"],
    "search --csv": ["--count", "3000", "--n-max", "8", "--seed", "1", "--csv", "DEST"],
}


def refuse_before_work(capsys, monkeypatch, p3_file, case, path):
    """Run `case` with `path` as its destination, every command's work
    patched to fail, and return its stderr once it exits 65 with no output."""
    def working(*args, **kwargs):
        raise AssertionError("started the work before the destination was checked")

    for module, name in ((cli, "_read_text"), (generate, "random_interval_model"),
                         (search, "tightness_search"), (construct, "build_best")):
        monkeypatch.setattr(module, name, working)
    given = {"GRAPH": p3_file, "DEST": str(path)}
    argv = [case.split()[0]] + [given.get(a, a) for a in UNWRITABLE[case]]
    if str(path) not in argv:
        argv += ["--out", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (65, "")
    return err


@pytest.mark.parametrize("case", UNWRITABLE)
def test_every_command_refuses_an_unwritable_destination_before_its_work(
    capsys, tmp_path, monkeypatch, p3_file, case
):
    """Each destination is checked before any input is read or any sample
    drawn, and is neither created nor opened."""
    path = tmp_path / "missing" / "out.json"
    err = refuse_before_work(capsys, monkeypatch, p3_file, case, path)
    assert err.startswith("bad input: ")
    assert not path.parent.exists()


@pytest.mark.parametrize("case", UNWRITABLE)
def test_every_command_refuses_a_directory_destination_before_its_work(
    capsys, tmp_path, monkeypatch, p3_file, case
):
    """A directory is writable to `os.access`, but no file can be opened
    on it: `search --out /tmp` sampled for 0.8 s before it failed."""
    path = tmp_path / "dir"
    path.mkdir()
    err = refuse_before_work(capsys, monkeypatch, p3_file, case, path)
    assert err == f"bad input: cannot write {str(path)!r}\n"
    assert list(path.iterdir()) == []


def test_a_writable_destination_is_taken_as_it_is(capsys, tmp_path, monkeypatch, p3_file):
    # an existing file is overwritten, and a file in the working
    # directory needs no directory part
    monkeypatch.chdir(tmp_path)
    for name in ("out.json", "out.json", "here.json"):
        assert run(capsys, "order", p3_file, "--out", name)[:2] == (0, "")
        assert json.loads((tmp_path / name).read_text())["k"] == 2


@pytest.mark.parametrize(
    "variant, builder",
    [("claw", "build_representation"), ("alpha", "build_alpha_representation"),
     ("best", "build_best")],
)
def test_construct_refuses_a_representation_that_fails_verification(
    capsys, tmp_path, monkeypatch, p3_file, variant, builder
):
    real = getattr(construct, builder)

    def moved(rep):
        coords = [list(col) for col in rep.coords]
        coords[0][0] += 10 * rep.side + 1  # far from every other cube
        return CubeRepresentation(rep.n, rep.side, tuple(map(tuple, coords)), rep.unit)

    def one_cube_moved(ordering):
        built = real(ordering)
        return (moved(built[0]), built[1]) if variant == "claw" else moved(built)

    monkeypatch.setattr(construct, builder, one_cube_moved)
    out_path = tmp_path / "rep.json"
    code, out, err = run(
        capsys, "construct", p3_file, "--variant", variant, "--trace", "--out", str(out_path)
    )
    assert (code, out) == (2, "")
    heading, report = err.split("\n", 1)
    assert heading == "constructed representation failed verification"
    assert json.loads(report)["ok"] is False
    assert not out_path.exists()
