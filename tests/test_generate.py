import pytest

from intervalcubes import (
    GenConfig,
    random_interval_model,
    recognize_and_order,
)
from intervalcubes.graphs import DISTRIBUTIONS

from conftest import model_pipeline, model_text
from validators import validate_ordering


def test_single_interval_is_k1():
    model = random_interval_model(GenConfig(n=1, seed=4))
    graph, _ = model_pipeline(model)
    assert graph.n == 1 and graph.edge_count == 0


def test_determinism_bit_for_bit():
    for dist in DISTRIBUTIONS:
        cfg = GenConfig(n=30, seed=123, dist=dist)
        assert random_interval_model(cfg) == random_interval_model(cfg)
        assert model_text(random_interval_model(cfg)) == model_text(random_interval_model(cfg))


def test_different_seeds_differ():
    a = random_interval_model(GenConfig(n=20, seed=1))
    b = random_interval_model(GenConfig(n=20, seed=2))
    assert a != b


def test_rejects_empty():
    with pytest.raises(ValueError):
        random_interval_model(GenConfig(n=0, seed=0))


def test_rejects_unknown_distribution():
    with pytest.raises(ValueError):
        GenConfig(n=3, seed=0, dist="bogus")


def test_pipeline_round_trip_n50():
    model = random_interval_model(GenConfig(n=50, seed=7, dist="uniform"))
    graph, ordering = model_pipeline(model)
    assert validate_ordering(graph, ordering).ok
    recognized = recognize_and_order(graph)
    assert validate_ordering(graph, recognized).ok


def test_all_distributions_produce_valid_models():
    for dist in DISTRIBUTIONS:
        for seed in range(5):
            model = random_interval_model(GenConfig(n=12, seed=seed, dist=dist))
            graph, ordering = model_pipeline(model)
            assert validate_ordering(graph, ordering).ok
