"""Unit-cube intersection representations of interval graphs.

Recognize interval graphs, compute the claw and independence numbers,
build cube representations whose dimension is ceil(log2 claw) + 2 or
ceil(log2 alpha), verify them exactly, and cross-check everything against
brute-force oracles at small scale.
"""

from .construct import (
    ConstructionTrace,
    CubeRepresentation,
    PaddedGraph,
    bit,
    branch_codes,
    build_alpha_representation,
    build_best,
    build_degenerate,
    build_representation,
    clique_scale,
    normalize_unit,
    pad_graph,
)
from .generate import DISTRIBUTIONS, GenConfig, random_interval_model
from .graphs import (
    Graph,
    GraphParseError,
    non_edges,
    parse_graph,
    serialize_graph,
)
from .intervals import (
    CliqueOrdering,
    IntervalModel,
    greedy_independent,
    model_to_clique_ordering,
    model_to_graph,
    ordering_from_cliques,
)
from .labelling import Labelling, label_vertices
from .oracle import ExactResult, Exceeded, SizeRefusalError, exact_cubicity
from .params import (
    ParamReport,
    StarWitness,
    ceil_log2,
    claw_number,
    neighborhood_mis,
    param_report,
)
from .recognition import (
    ConstructionError,
    NotInterval,
    NotIntervalError,
    recognize_and_order,
    require_ordering,
)
from .search import SearchReport, histogram_csv, tightness_search
from .verify import VerificationReport, complete_dimensions, verify_representation

__version__ = "0.1.0"
