"""graphdiv: constructive clique-number divisions for hereditary graph
classes, the colorings they imply, and exact oracles to verify both."""

from .core import (
    CHROMATIC_BUDGET,
    CLIQUE_BUDGET,
    CliqueResult,
    Graph,
    VertexSet,
    WeightFn,
    chromatic_number_exact,
    clique_number,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    induced_subgraph,
    max_weight_clique,
    path_graph,
)
from .errors import (
    BudgetExceededError,
    DegenerateCliqueError,
    GraphDivError,
    NotInClassError,
    ParseError,
    TheoremViolationError,
)
from .formats import emit_graph6, parse_dimacs, parse_graph6, parse_graph6_lines
from .recognition import (
    BULL_PATTERN,
    C5_PATTERN,
    ClassReport,
    Embedding,
    P5_PATTERN,
    classify,
    embedding_is_valid,
    find_bull,
    find_c5,
    find_homogeneous_set,
    find_induced,
    find_odd_antihole,
    find_odd_hole,
    find_p5,
    imperfection_witness,
    is_homogeneous,
    is_perfect,
    pattern_for_name,
)
from .divisibility import (
    C5Classification,
    PerfectDivision,
    QuotientStep,
    TwoDivision,
    classify_against_c5,
    find_perfect_nonneighborhood_vertex,
    is_two_divisible_oracle,
    perfect_divide,
    quotient_by_homogeneous_set,
    recombine,
    two_divide,
    verify_perfect_division,
    verify_two_division,
)
from .coloring import (
    BoundCertificate,
    Coloring,
    color_via_perfect_division,
    color_via_two_division,
    power_of_two_bound,
    quadratic_bound,
)
from .corpus import (
    canonical_graph,
    canonical_key,
    nonisomorphic_graphs,
    random_graph,
    twin_substitute,
)
from .harness import graphs_with_ids
from .report import build_report, report_to_json, scrub_volatile

__version__ = "0.1.0"
