"""Workbench for the combinatorics of random And/Or Boolean formulas."""

from .boolfun import BoolFunc, Literal
from .errors import (DomainError, InputError, NumericError, ResourceCapError,
                     StructureError)
from .trees import (
    AND,
    OR,
    ModelId,
    Tree,
    canonicalize,
    compute_function,
    dual_tree,
    format_tree,
    parse_tree,
)
from .exhaustive import (
    Distribution,
    classifier_counts,
    classify_tautologies,
    count_trees,
    distribution,
    distribution_by_generation,
    generate_trees,
    is_simple_tautology,
    is_simple_x,
)
from .series import (
    AUX_KINDS,
    PowerSeries,
    SanityReport,
    series_sanity,
    solve_aux_series,
    solve_half_series,
    solve_model_series,
)
from .singular import (
    REFERENCE_CONSTANTS,
    RatioResult,
    SingularityReport,
    analytic_evaluators,
    constant_estimate,
    dominant_singularity,
    limiting_ratio,
    probability_literal,
    probability_true,
    singularity_report,
    w_rates,
)
from .patterns import (
    LemmaReport,
    PatternId,
    PatternMatch,
    RestrictionCount,
    count_restrictions,
    labelling_count,
    labelling_weight,
    match_pattern,
    minimal_embedding,
    stirling2,
    verify_pattern_lemmas,
)
from .complexity import (
    Bounds,
    ExpansionTally,
    MinimalTreeSet,
    complexity,
    complexity_model_independence,
    enumerate_expansions,
    lambda_bounds,
    lambda_t_reference,
    lambda_x_bounds,
    probability_vs_bounds,
)

__version__ = "0.1.0"
