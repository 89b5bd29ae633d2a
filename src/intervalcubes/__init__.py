"""Unit-cube intersection representations of interval graphs.

Recognize interval graphs, compute the claw and independence numbers,
build cube representations whose dimension is ceil(log2 claw) + 2 or
ceil(log2 alpha), verify them exactly, and cross-check everything against
brute-force oracles at small scale.

Each exported name is imported from its module on first use (PEP 562), so
`import intervalcubes` loads no submodule and a CLI command only the ones
it runs.
"""

# module -> the names it exports here
_MODULES = {
    "construct": "ConstructionTrace bit branch_codes build_alpha_representation build_best "
    "build_degenerate build_representation clique_scale normalize_unit",
    "generate": "GenConfig random_interval_model",
    "graphs": "ConstructionError Graph GraphParseError NotIntervalError SizeRefusalError "
    "non_edges parse_graph serialize_graph",
    "intervals": "DISTRIBUTIONS CliqueOrdering IntervalModel greedy_independent "
    "model_to_clique_ordering model_to_graph ordering_from_cliques",
    "labelling": "Labelling label_vertices",
    "oracle": "ExactResult Exceeded exact_cubicity",
    "params": "ParamReport StarWitness ceil_log2 neighborhood_mis param_report",
    "recognition": "NotInterval recognize_and_order require_ordering",
    "search": "SearchReport histogram_csv tightness_search",
    "verify": "CubeRepresentation VerificationReport verify_representation",
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names.split()}
__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
