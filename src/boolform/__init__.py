"""Workbench for the combinatorics of random And/Or Boolean formulas.

The package re-exports each module's public functions.  One name is both:
`boolform.complexity` is the function complexity(), which shadows the
submodule of that name as a package attribute.  Reach the module with
importlib.import_module("boolform.complexity") or through sys.modules.
"""

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
    trees_computing,
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
    verify_pattern_lemmas,
)
from .complexity import (
    Bounds,
    ExpansionTally,
    MinimalTreeSet,
    complexity,
    enumerate_expansions,
    lambda_bounds,
    lambda_t_reference,
    lambda_x_bounds,
    probability_vs_bounds,
)

__version__ = "0.1.0"
