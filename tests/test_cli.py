import json

import pytest

from intervalcubes import (
    CubeRepresentation,
    GenConfig,
    model_to_graph,
    random_interval_model,
    serialize_graph,
)
from intervalcubes import generate, graphs, intervals, recognition, verify
from intervalcubes.cli import main
from intervalcubes.generate import DISTRIBUTIONS

from conftest import make_model, star_model

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
    obj = json.loads(out)
    assert len(obj["cliques"]) == 2
    code, out, _ = run(capsys, "label", p3_file)
    assert code == 0
    assert json.loads(out)["alpha"] == 2


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
        "order": {"cliques": [], "left": [], "right": []},
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
    assert obj["side"] == "1"
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


def test_exact(capsys, tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text(K3_TEXT)
    code, out, _ = run(capsys, "exact", str(path))
    assert code == 0
    assert json.loads(out)["cubicity"] == 0


def test_exact_size_refusal_exit_3(capsys, tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("9 0\n")
    code, _, err = run(capsys, "exact", str(path))
    assert code == 3


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


def test_usage_error_exit_64(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["construct", "--variant", "bogus", "x"])
    assert excinfo.value.code == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--count", "1", "--n-max", "1"],
        ["search", "--count", "1", "--n-max", "9"],
        ["search", "--count", "-1"],
    ],
)
def test_search_bad_arguments_exit_64(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 64


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
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 64


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
    ],
)
def test_verify_malformed_representation_exit_65(capsys, tmp_path, p3_file, changes):
    rep_path = _rep_doc(p3_file, tmp_path, capsys, **changes)
    code, out, err = run(capsys, "verify", p3_file, rep_path)
    assert code == 65
    assert out == "" and err.startswith("bad input:")


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
    model_path.write_text(model.dumps())
    code, _, _ = run(capsys, "construct", str(model_path), "--variant", "best", "--normalize",
                     "--out", str(rep_path))
    assert code == 0
    unit = CubeRepresentation.loads(rep_path.read_text()).unit
    assert unit.bit_length() <= verify.MAX_UNIT_BITS
    assert run(capsys, "verify", str(model_path), str(rep_path))[0] == 0


def test_verify_non_object_documents_exit_65(capsys, tmp_path, p3_file):
    for text in ("[]", '"rep"', "3"):
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert run(capsys, "verify", p3_file, str(path))[0] == 65
        assert run(capsys, "verify", str(path), p3_file)[0] == 65


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
    # the 23rd sample of seed 3 at n <= 8 has more non-edges than the
    # oracle takes; the run keeps going and reports it
    code, out, _ = run(capsys, "search", "--count", "23", "--n-max", "8", "--seed", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["oracle_refused"] >= 1
    assert obj["graphs_tried"] + obj["oracle_refused"] == 23


def _model_and_edge_list(tmp_path, name, model):
    model_path = tmp_path / f"{name}.json"
    model_path.write_text(model.dumps())
    edges_path = tmp_path / f"{name}.txt"
    edges_path.write_text(serialize_graph(model_to_graph(model)))
    return str(model_path), str(edges_path)


def test_model_input_skips_recognition(capsys, tmp_path, monkeypatch):
    """Model JSON takes its ordering from the endpoint sweep, so the route
    may pick other cliques and coordinates than the edge list of the same
    graph, but every parameter, dimension, verdict and exit code agrees.
    The commands that read no graph never build one."""
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
                if command[0] in ("recognize", "order", "label"):
                    patch.setattr(intervals, "model_to_graph", no_graph)
                model_code, model_out, _ = run(capsys, *command, model_path)
            assert model_code == code == 0
            edge_obj, model_obj = json.loads(edge_out), json.loads(model_out)
            if command[0] in ("recognize", "label"):
                assert model_obj.get("alpha") == edge_obj.get("alpha")
                assert model_obj.get("cliques") == edge_obj.get("cliques")
            elif command[0] == "order":
                assert len(model_obj["cliques"]) == len(edge_obj["cliques"])
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
    with pytest.raises(SystemExit) as excinfo:
        main(["gen", "--n", str(graphs.MAX_VERTICES + 1)])
    assert excinfo.value.code == 64
