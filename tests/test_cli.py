import json

import pytest

from intervalcubes.cli import main

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


def test_search_counts_oracle_refusals(capsys):
    # the 23rd sample of seed 3 at n <= 8 has more non-edges than the
    # oracle takes; the run keeps going and reports it
    code, out, _ = run(capsys, "search", "--count", "23", "--n-max", "8", "--seed", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["oracle_refused"] >= 1
    assert obj["graphs_tried"] + obj["oracle_refused"] == 23
