import pytest

from intervalcubes import tightness_search
from intervalcubes.oracle import ExactResult, exact_cubicity
from intervalcubes.search import histogram_csv

from conftest import star_graph


def test_small_search_runs_clean():
    report = tightness_search(count=150, n_max=6, seed=1)
    assert report.graphs_tried == 150
    assert report.bound_violations == []
    assert report.counterexamples == []
    assert sum(report.histogram.values()) == 150


def test_search_refuses_n_max_below_2():
    with pytest.raises(ValueError, match="n_max must be at least 2"):
        tightness_search(1, n_max=1)


def test_search_determinism():
    a = tightness_search(count=60, n_max=5, seed=3)
    b = tightness_search(count=60, n_max=5, seed=3)
    assert a.to_json_obj() == b.to_json_obj()


def test_histogram_csv_shape():
    report = tightness_search(count=40, n_max=5, seed=2)
    csv = histogram_csv(report)
    lines = csv.strip().splitlines()
    assert lines[0] == "psi,alpha,cubicity,dimension,count"
    assert len(lines) == len(report.histogram) + 1


def test_counterexample_entries_would_reverify():
    # no real counterexample is expected; exercise the recheck path by hand
    from intervalcubes.search import _recheck_counterexample
    from intervalcubes import serialize_graph

    g = star_graph(4)  # cub 2 > 1 is FALSE (lower bound is 2), so recheck fails
    entry = {
        "graph": serialize_graph(g),
        "psi": 4,
        "alpha": 4,
        "cubicity": 2,
        "lower_bound": 2,
    }
    assert not _recheck_counterexample(entry)


def test_injected_stars_match_lower_bound():
    from intervalcubes import ceil_log2

    for m in range(2, 7):
        result = exact_cubicity(star_graph(m))
        assert isinstance(result, ExactResult)
        assert result.cubicity == ceil_log2(m)


def test_refused_samples_are_counted_not_fatal():
    # the library's n_max may pass the oracle's vertex bound, which the
    # CLI's may not: the third sample of seed 3 at n <= 9 has 9 vertices
    report = tightness_search(count=3, n_max=9, seed=3)
    assert report.oracle_refused == 1
    assert report.graphs_tried == 2
    assert report.to_json_obj()["oracle_refused"] == 1
    assert sum(report.histogram.values()) == 2


def test_search_runs_one_claw_pass_and_no_build(monkeypatch):
    from intervalcubes import construct, labelling, params

    calls = {"psi": 0, "table": 0, "witness": 0, "build": 0}

    def counting(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)

        return wrapper

    # every binding of the suffix-best table and of the psi pass
    table = counting("table", labelling.suffix_best)
    monkeypatch.setattr(labelling, "suffix_best", table)
    monkeypatch.setattr(params, "suffix_best", table)
    monkeypatch.setattr(params, "vertex_claws", counting("psi", params.vertex_claws))
    # the witness walk, bound in params; the labelling walks its own binding
    monkeypatch.setattr(params, "earliest_finish", counting("witness", params.earliest_finish))
    monkeypatch.setattr(construct, "_build", counting("build", construct._build))
    monkeypatch.setattr(construct, "_build_alpha", counting("build", construct._build_alpha))
    report = tightness_search(count=23, n_max=8, seed=3)
    assert report.graphs_tried + report.oracle_refused == 23
    # one suffix-best table and one psi pass per sample, and no witness
    # walk: the search needs psi, not a witness
    assert calls == {"psi": 23, "table": 23, "witness": 0, "build": 0}
