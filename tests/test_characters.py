"""Character arithmetic, Weyl constant terms, invariant Poincare series.

The constant-term identity CT(D) = |W| is the load-bearing check here: it
exercises the root enumeration, the Weyl order formula and the denominator
expansion for every factor kind at once.
"""

import pytest

from cohomreps import (
    Character,
    CompactGroupSpec,
    DomainError,
    InexactDivision,
    SignatureMismatch,
    adams,
    exterior_powers,
    group_and_module,
    invariant_poincare,
    trivial_multiplicity,
)
from cohomreps import characters
from cohomreps.characters import (
    _exterior_series,
    _factor_denominator,
    _pack_module,
    factor_rank,
    factor_roots,
    factor_weyl_order,
    standard_weights,
)
from cohomreps.polynomials import IntPoly


def test_character_basic_arithmetic():
    a = Character(2, {(1, 0): 1})
    b = Character(2, {(0, 1): 2})
    assert (a + b).terms == {(1, 0): 1, (0, 1): 2}
    assert (a - a).terms == {}
    assert (a * b).terms == {(1, 1): 2}
    assert a.scale(3).terms == {(1, 0): 3}
    assert a.dimension() == 1
    assert Character.one(2).constant_term() == 1


def test_character_drops_zero_terms():
    chi = Character(1, {(0,): 0, (1,): 2})
    assert chi.terms == {(1,): 2}


def test_character_rank_mismatch():
    with pytest.raises(SignatureMismatch):
        Character(2, {(1,): 1})
    with pytest.raises(SignatureMismatch):
        Character(2) + Character(3)


def test_divide_exact():
    chi = Character(1, {(0,): 4})
    assert chi.divide_exact(2).terms == {(0,): 2}
    with pytest.raises(InexactDivision):
        chi.divide_exact(3)


def test_adams_scales_exponents():
    chi = Character(2, {(1, -1): 1, (0, 0): 1})
    assert adams(chi, 3).terms == {(3, -3): 1, (0, 0): 1}
    with pytest.raises(ValueError):
        adams(chi, 0)


def test_exterior_powers_of_standard_u2():
    std = Character.from_weights(2, [(1, 0), (0, 1)])
    e = exterior_powers(std, 3)
    assert e[0] == Character.one(2)
    assert e[1] == std
    assert e[2].terms == {(1, 1): 1}  # the determinant weight
    assert e[3].terms == {}


def packed_series(chi):
    """The engine's exterior series of chi, decoded back to characters."""
    box, weights = _pack_module(chi)
    return [
        Character(chi.rank, {box.unpack(k): c for k, c in level.items()})
        for level in _exterior_series(weights)
    ]


def test_genuine_series_matches_newton():
    # a weight with multiplicity, plus a few singletons, under U(2) x U(1)
    chi = Character.from_weights(
        3, [(1, 0, 0), (1, 0, 0), (0, 1, -1), (-1, 0, 1), (0, 0, 0)]
    )
    direct = packed_series(chi)
    newton = exterior_powers(chi, chi.dimension())
    assert len(direct) == len(newton)
    for lhs, rhs in zip(direct, newton):
        assert lhs == rhs


def test_genuine_series_on_quaternionic_block():
    _, chi = group_and_module((("quat", 1, 2),))
    direct = packed_series(chi)
    newton = exterior_powers(chi, chi.dimension())
    assert direct == newton


def reference_denominator(factor):
    """prod over all roots of (1 - x^alpha), expanded on weight tuples."""
    terms = {(0,) * factor_rank(factor): 1}
    for alpha in factor_roots(factor):
        nxt = dict(terms)
        for w, c in terms.items():
            shifted = tuple(x + y for x, y in zip(w, alpha))
            nxt[shifted] = nxt.get(shifted, 0) - c
        terms = {w: c for w, c in nxt.items() if c}
    return terms


FACTORS = [
    ("U", 1),
    ("U", 2),
    ("U", 3),
    ("SO", 1),
    ("SO", 2),
    ("SO", 3),
    ("SO", 4),
    ("SO", 5),
    ("Sp", 1),
    ("Sp", 2),
]


@pytest.mark.parametrize("factor", FACTORS, ids=lambda f: f"{f[0]}{f[1]}")
def test_constant_term_of_denominator_is_weyl_order(factor):
    dd = _factor_denominator(factor)
    rank = factor_rank(factor)
    assert dd.get((0,) * rank, 0) == factor_weyl_order(factor)


@pytest.mark.parametrize(
    "factor",
    FACTORS + [("U", 5), ("Sp", 4), ("SO", 8)],
    ids=lambda f: f"{f[0]}{f[1]}",
)
def test_packed_denominator_matches_tuple_expansion(factor):
    dd = _factor_denominator(factor)
    assert dd == reference_denominator(factor)
    # CT(D) = |W| alone would not see a sign slip in the balanced digits
    assert all(dd[tuple(-x for x in w)] == c for w, c in dd.items())


def test_weyl_orders():
    assert factor_weyl_order(("U", 3)) == 6
    assert factor_weyl_order(("SO", 2)) == 1
    assert factor_weyl_order(("SO", 3)) == 2
    assert factor_weyl_order(("SO", 4)) == 4
    assert factor_weyl_order(("SO", 5)) == 8
    assert factor_weyl_order(("Sp", 2)) == 8


def test_root_counts():
    assert len(factor_roots(("U", 3))) == 6
    assert len(factor_roots(("SO", 2))) == 0
    assert len(factor_roots(("SO", 5))) == 8
    assert len(factor_roots(("Sp", 2))) == 8


def test_standard_weights():
    assert standard_weights(("U", 2)) == [(1, 0), (0, 1)]
    assert sorted(standard_weights(("Sp", 1))) == [(-1,), (1,)]
    assert len(standard_weights(("SO", 5))) == 5
    assert (0, 0) in standard_weights(("SO", 5))
    assert standard_weights(("SO", 1)) == [()]


def test_trivial_multiplicity_invariants_of_adjoint_u2():
    # adjoint module of U(2): the center contributes the only invariant line,
    # the other zero weight sits inside the three dimensional summand
    chi = Character.from_weights(2, [(1, -1), (-1, 1), (0, 0), (0, 0)])
    group = CompactGroupSpec((("U", 2),))
    assert trivial_multiplicity(chi, group) == 1


def test_trivial_multiplicity_rank_mismatch():
    group = CompactGroupSpec((("U", 2),))
    with pytest.raises(SignatureMismatch):
        trivial_multiplicity(Character.one(3), group)


def test_trivial_multiplicity_rejects_non_invariant_input():
    # x^0 + x^(1,-1) is not Weyl invariant, the division by |W| = 2 fails
    chi = Character.from_weights(2, [(0, 0), (1, -1)])
    group = CompactGroupSpec((("U", 2),))
    with pytest.raises(InexactDivision):
        trivial_multiplicity(chi, group)


def test_invariant_poincare_torus_module():
    # 3 trivial weights under U(1): exterior algebra is fully invariant
    chi = Character.from_weights(1, [(0,)] * 3)
    group = CompactGroupSpec((("U", 1),))
    assert invariant_poincare(group, chi) == IntPoly([1, 3, 3, 1])


def test_invariant_poincare_term_budget_on_big_modules(monkeypatch):
    # 21 zero weights: each of the 22 exterior powers holds a single term
    chi = Character.from_weights(1, [(0,)] * 21)
    group = CompactGroupSpec((("U", 1),))
    poly = invariant_poincare(group, chi)
    assert poly.coeffs[1] == 21
    assert poly(1) == 2**21
    monkeypatch.setattr(characters, "SERIES_TERM_BUDGET", 21)
    with pytest.raises(DomainError, match="--closed-only"):
        invariant_poincare(group, chi)


def test_invariant_poincare_rejects_virtual_characters():
    chi = Character(1, {(0,): -1})
    with pytest.raises(DomainError):
        invariant_poincare(CompactGroupSpec((("U", 1),)), chi)


def test_group_spec_slices():
    group = CompactGroupSpec((("U", 2), ("SO", 5), ("Sp", 1)))
    assert group.rank == 5
    assert group.slices == ((0, 2), (2, 4), (4, 5))
    assert group.weyl_order == 2 * 8 * 2
