"""Exact combinatorics of cohomological representations of U(p,q), O(p,q)
and Sp(p,q): parameters, Poincare series, isolation tests, degree supports
and GL(n,R) restriction heuristics.

The public names below are imported from their submodule on first access
(PEP 562), so `import cohomreps` loads no submodule until one is used.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each submodule and the public names it exports; a submodule also exports
# itself under its own name.
_EXPORTS = {
    "autdegrees": "CONDITIONAL_NOTE CoverageTag DegreeSet N degree_support lemC_bruteforce "
    "li_coverage relth_coverage",
    "characters": "Character CompactGroupSpec factor_roots invariant_poincare standard_weights",
    "errors": "BadRank BoxOverflow CohomrepsError DomainError InexactDivision InvariantViolation "
    "NotADivisor NotCompatible NotNested NotOrthogonal PalindromeViolation SignatureMismatch "
    "WrongFamily",
    "glrestrict": "GLBlock GLRep RepkaResult hyp_chain_epsilon hyp_transfer parse_glrep "
    "prediction_modes_disagree rel_threshold_met repka_diagonal restrict_prediction rho "
    "rho_rank1 t_matrix",
    "isolation": "IsolationVerdict isolated_O isolated_Sp isolated_U_explicit isolated_U_search "
    "isolated_d0 t1intro_inequalities verdicts",
    "partitions": "OrthogonalDecomposition Rectangle SkewDecomposition canonical compatible_pairs "
    "complement conjugate contains count_orthogonal count_pairs enumerate_partitions_in_box "
    "format_partition is_compatible is_orthogonal orthogonal_decomposition orthogonal_partitions "
    "parse_partition rectangle_decomposition skew_box_set",
    "polynomials": "IntPoly gaussian_binomial",
    "reps": "CohRep Family admits_flag_zero block_tags count_reps enumerate_reps full_cohomology "
    "group_and_module hodge_type iter_reps lp_character make_rep poincare_closed poincare_oracle "
    "r_G text_form trivial_rep",
}

_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in (module, *names.split())
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module_name = _MODULE_OF.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{module_name}", __name__)
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
