"""School choice with feature-weighted uncertain student preferences.

Students rate colleges per feature; a random weight vector on the simplex
aggregates the ratings into a preference order.  The package provides the
deferred-acceptance engine with four proposing strategies, exact and Monte
Carlo stability-probability evaluation, brute-force optima, incentive
audits, instance generators and a CLI.
"""

from .model import (
    BetaWeights,
    DiscreteWeights,
    Instance,
    Matching,
    MatchingVerdict,
    ModelError,
    ParseError,
    ProsResult,
    UniformSimplex,
    ValidationError,
    parse_instance,
    serialize_instance,
    validate_matching,
)
from .prob import (
    BlockInterval,
    PairwiseCase,
    expected_utility,
    stability_interval,
    pairwise_case_2f,
    potential_blockers,
    pr_prefers,
    pr_top,
    pros_exact,
    pros_exact_2f,
    pros_exact_discrete,
    pros_monte_carlo,
)
from .gda import GdaTrace, Strategy, comparison_vector, next_college, run_gda
from .oracle import (
    BudgetExceededError,
    IcAuditReport,
    OptResult,
    approx_ratio,
    audit_ic,
    check_transitivity,
    enumerate_matchings,
    optimal_pros,
)
from .instances import (
    TransformResult,
    canonical,
    gen_random,
    golden_ratio,
    herf_tight,
    icr_conflict,
    non_transitive,
    reduce_to_uniform,
    vanishing_ratio,
    worked_example,
)

__version__ = "0.1.0"
