"""Exact combinatorics of cohomological representations of U(p,q), O(p,q)
and Sp(p,q): parameters, Poincare series, isolation tests, degree supports
and GL(n,R) restriction heuristics."""

__version__ = "0.1.0"

from .autdegrees import (
    CONDITIONAL_NOTE,
    CoverageTag,
    DegreeSet,
    N,
    degree_support,
    lemC_bruteforce,
    li_coverage,
    relth_coverage,
)
from .characters import (
    Character,
    CompactGroupSpec,
    factor_roots,
    invariant_poincare,
    standard_weights,
)
from .errors import (
    BadRank,
    BoxOverflow,
    CohomrepsError,
    DomainError,
    InexactDivision,
    InvariantViolation,
    NotADivisor,
    NotCompatible,
    NotNested,
    NotOrthogonal,
    PalindromeViolation,
    SignatureMismatch,
    WrongFamily,
)
from .glrestrict import (
    GLBlock,
    GLRep,
    RepkaResult,
    hyp_chain_epsilon,
    hyp_transfer,
    parse_glrep,
    prediction_modes_disagree,
    rel_threshold_met,
    repka_diagonal,
    restrict_prediction,
    rho,
    rho_rank1,
    t_matrix,
)
from .isolation import (
    IsolationVerdict,
    isolated_O,
    isolated_Sp,
    isolated_U_explicit,
    isolated_U_search,
    isolated_d0,
    t1intro_inequalities,
)
from .partitions import (
    OrthogonalDecomposition,
    Rectangle,
    SkewDecomposition,
    canonical,
    compatible_pairs,
    complement,
    conjugate,
    contains,
    enumerate_partitions_in_box,
    format_partition,
    is_compatible,
    is_orthogonal,
    orthogonal_decomposition,
    orthogonal_partitions,
    parse_partition,
    rectangle_decomposition,
    skew_box_set,
)
from .polynomials import IntPoly, gaussian_binomial
from .reps import (
    CohRep,
    Family,
    admits_flag_zero,
    block_tags,
    enumerate_reps,
    full_cohomology,
    group_and_module,
    hodge_type,
    lp_character,
    make_rep,
    poincare_closed,
    poincare_oracle,
    r_G,
    text_form,
    trivial_rep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
