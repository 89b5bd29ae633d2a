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
    induced_subgraph,
    non_edges,
    parse_graph,
    serialize_graph,
)
from .intervals import (
    CliqueOrdering,
    IntervalModel,
    greedy_independent,
    make_model,
    model_to_clique_ordering,
    model_to_graph,
    ordering_from_cliques,
    validate_ordering,
)
from .labelling import Labelling, label_vertices, validate_labelling
from .oracle import (
    ExactResult,
    Exceeded,
    SizeRefusalError,
    brute_alpha,
    brute_claw,
    exact_cubicity,
    indifference_ordering,
    indifference_supergraphs,
    unit_realization,
)
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
from .reports import ValidationReport, Violation
from .search import SearchReport, histogram_csv, tightness_search
from .verify import (
    VerificationReport,
    check_trace,
    complete_dimensions,
    verify_representation,
)

__version__ = "0.1.0"
