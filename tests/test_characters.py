"""Characters, Weyl denominators, invariant Poincare series.

The engine is held to a reference that shares none of its method: the
full-denominator engine it replaced, which expands every exterior power of
the module in full and divides CT(level * D) by |W|, with D the product
over all roots. That reference, and the Newton recursion that checks its
exterior series, live here. The constant-term identity CT(D) = |W| checks
the root enumeration and the Weyl order formula for every factor kind at
once; the product over the positive roots, expanded and merged by brute
force orbits, checks the engine's Weyl tables.
"""

from collections import Counter
from itertools import permutations, product
from math import prod
from operator import mul

import pytest

from cohomreps import (
    Character,
    CompactGroupSpec,
    DomainError,
    InexactDivision,
    SignatureMismatch,
    group_and_module,
    invariant_poincare,
)
from cohomreps import characters
from cohomreps.characters import (
    _weyl_table,
    factor_rank,
    factor_roots,
    factor_weyl_order,
    standard_weights,
)
from cohomreps.checks import signatures
from cohomreps.polynomials import IntPoly

# --- reference: character ring and the Newton recursion --------------------


class Char(Character):
    """A character with the ring operations the references need."""

    __slots__ = ()

    @classmethod
    def one(cls, rank):
        return cls(rank, {(0,) * rank: 1})

    def _check(self, other):
        if self.rank != other.rank:
            raise SignatureMismatch(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return Char(self.rank, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = tuple(x + y for x, y in zip(w1, w2))
                out[w] = out.get(w, 0) + c1 * c2
        return Char(self.rank, out)

    def scale(self, k):
        return Char(self.rank, {w: k * c for w, c in self.terms.items()})

    def divide_exact(self, k):
        out = {}
        for w, c in self.terms.items():
            d, r = divmod(c, k)
            if r:
                raise InexactDivision(f"coefficient {c} of {w} is not divisible by {k}")
            out[w] = d
        return Char(self.rank, out)


def adams(chi, i):
    """The i-th Adams operation: each exponent tuple scaled by i."""
    if i < 1:
        raise ValueError("Adams operations are defined here for i >= 1")
    out = {}
    for w, c in chi.terms.items():
        sw = tuple(i * x for x in w)
        out[sw] = out.get(sw, 0) + c
    return Char(chi.rank, out)


def exterior_powers(chi, kmax):
    """[e_0, ..., e_kmax] by k e_k = sum over i of (-1)^(i-1) e_(k-i) psi_i(chi)."""
    powers = [Char.one(chi.rank)]
    psi = [adams(chi, i) for i in range(1, kmax + 1)]
    for k in range(1, kmax + 1):
        acc = Char(chi.rank)
        for i in range(1, k + 1):
            term = powers[k - i] * psi[i - 1]
            acc = acc + term if i % 2 else acc - term
        powers.append(acc.divide_exact(k))
    return powers


# --- reference: full exterior series against the full denominator ----------


class Box:
    """Balanced mixed-radix packing of the weights in |w_i| <= bounds[i]."""

    def __init__(self, bounds):
        self.bounds = tuple(bounds)
        self.places = []
        place = 1
        for b in self.bounds:
            self.places.append(place)
            place *= 2 * b + 1

    def contains(self, w):
        return all(abs(x) <= b for x, b in zip(w, self.bounds))

    def pack(self, w):
        return sum(x * p for x, p in zip(w, self.places))

    def unpack(self, key):
        out = []
        for b in self.bounds:
            digit = (key + b) % (2 * b + 1) - b
            out.append(digit)
            key = (key - digit) // (2 * b + 1)
        return tuple(out)


def pack_module(chi):
    """The box holding every sum of weights of chi, and chi's weights packed."""
    bounds = [0] * chi.rank
    for w, c in chi.terms.items():
        for i, x in enumerate(w):
            bounds[i] += c * abs(x)
    box = Box(bounds)
    return box, [box.pack(w) for w, mult in sorted(chi.terms.items()) for _ in range(mult)]


def exterior_series(weights):
    """Levels of prod over the packed weights of (1 + t x^w), each in full."""
    series = [{0: 1}]
    for w in weights:
        series.append({})
        for k in range(len(series) - 1, 0, -1):
            target = series[k]
            for v, c in series[k - 1].items():
                target[v + w] = target.get(v + w, 0) + c
    return series


def factor_denominator(factor):
    """Coefficients of prod over all roots of (1 - x^alpha), expanded packed."""
    roots = factor_roots(factor)
    box = Box(sum(abs(alpha[i]) for alpha in roots) for i in range(factor_rank(factor)))
    terms = {0: 1}
    for alpha in map(box.pack, roots):
        nxt = dict(terms)
        for w, c in terms.items():
            nxt[w + alpha] = nxt.get(w + alpha, 0) - c
        terms = {w: c for w, c in nxt.items() if c}
    return {box.unpack(w): c for w, c in terms.items()}


def divide_by_weyl_order(total, group):
    mult, rem = divmod(total, group.weyl_order)
    if rem:
        raise InexactDivision(
            f"constant term {total} is not divisible by the Weyl group order {group.weyl_order}"
        )
    return mult


def trivial_multiplicity(chi, group):
    """CT(chi * D) / |W|, D the product of the factor denominators."""
    if chi.rank != group.rank:
        raise SignatureMismatch(f"character rank {chi.rank} does not match group rank {group.rank}")
    denoms = [factor_denominator(f) for f in group.factors]
    total = 0
    for w, c in chi.terms.items():
        for dd, (a, b) in zip(denoms, group.slices):
            c *= dd.get(tuple(-x for x in w[a:b]), 0)
        total += c
    return divide_by_weyl_order(total, group)


def reference_poincare(group, chi):
    """The invariant Poincare polynomial, one full exterior power at a time."""
    box, weights = pack_module(chi)
    denominator = {0: 1}
    for factor, (start, _) in zip(group.factors, group.slices):
        pad = (0,) * start
        local = {
            -box.pack(pad + w): c
            for w, c in factor_denominator(factor).items()
            if box.contains(pad + w)
        }
        denominator = {k1 + k2: c1 * c2 for k1, c1 in denominator.items() for k2, c2 in local.items()}
    return IntPoly(
        divide_by_weyl_order(sum(c * denominator.get(k, 0) for k, c in level.items()), group)
        for level in exterior_series(weights)
    )


# --- the references on their own -------------------------------------------


def test_character_basic_arithmetic():
    a = Char(2, {(1, 0): 1})
    b = Char(2, {(0, 1): 2})
    assert (a + b).terms == {(1, 0): 1, (0, 1): 2}
    assert (a - a).terms == {}
    assert (a * b).terms == {(1, 1): 2}
    assert a.scale(3).terms == {(1, 0): 3}
    assert a.dimension() == 1
    assert Char.one(2).terms == {(0, 0): 1}


def test_character_drops_zero_terms():
    chi = Character(1, {(0,): 0, (1,): 2})
    assert chi.terms == {(1,): 2}


def test_character_rank_mismatch():
    with pytest.raises(SignatureMismatch):
        Character(2, {(1,): 1})
    with pytest.raises(SignatureMismatch):
        Char(2) + Char(3)


def test_divide_exact():
    chi = Char(1, {(0,): 4})
    assert chi.divide_exact(2).terms == {(0,): 2}
    with pytest.raises(InexactDivision):
        chi.divide_exact(3)


def test_adams_scales_exponents():
    chi = Char(2, {(1, -1): 1, (0, 0): 1})
    assert adams(chi, 3).terms == {(3, -3): 1, (0, 0): 1}
    with pytest.raises(ValueError):
        adams(chi, 0)


def test_exterior_powers_of_standard_u2():
    std = Char.from_weights(2, [(1, 0), (0, 1)])
    e = exterior_powers(std, 3)
    assert e[0] == Char.one(2)
    assert e[1] == std
    assert e[2].terms == {(1, 1): 1}  # the determinant weight
    assert e[3].terms == {}


def packed_series(chi):
    """The reference's exterior series of chi, decoded back to characters."""
    box, weights = pack_module(chi)
    return [
        Char(chi.rank, {box.unpack(k): c for k, c in level.items()})
        for level in exterior_series(weights)
    ]


def test_genuine_series_matches_newton():
    # a weight with multiplicity, plus a few singletons, under U(2) x U(1)
    chi = Char.from_weights(
        3, [(1, 0, 0), (1, 0, 0), (0, 1, -1), (-1, 0, 1), (0, 0, 0)]
    )
    direct = packed_series(chi)
    newton = exterior_powers(chi, chi.dimension())
    assert len(direct) == len(newton)
    for lhs, rhs in zip(direct, newton):
        assert lhs == rhs


def test_genuine_series_on_quaternionic_block():
    _, chi = group_and_module((("quat", 1, 2),))
    chi = Char(chi.rank, chi.terms)
    assert packed_series(chi) == exterior_powers(chi, chi.dimension())


def reference_denominator(factor, roots=None):
    """prod over the roots of (1 - x^alpha), expanded on weight tuples."""
    terms = {(0,) * factor_rank(factor): 1}
    for alpha in factor_roots(factor) if roots is None else roots:
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
BIG_FACTORS = FACTORS + [("U", 5), ("Sp", 4), ("SO", 8)]


def factor_id(f):
    return f"{f[0]}{f[1]}"


@pytest.mark.parametrize("factor", FACTORS, ids=factor_id)
def test_constant_term_of_denominator_is_weyl_order(factor):
    dd = factor_denominator(factor)
    rank = factor_rank(factor)
    assert dd.get((0,) * rank, 0) == factor_weyl_order(factor)


@pytest.mark.parametrize("factor", BIG_FACTORS, ids=factor_id)
def test_packed_denominator_matches_tuple_expansion(factor):
    dd = factor_denominator(factor)
    assert dd == reference_denominator(factor)
    # CT(D) = |W| alone would not see a sign slip in the balanced digits
    assert all(dd[tuple(-x for x in w)] == c for w, c in dd.items())


def test_trivial_multiplicity_invariants_of_adjoint_u2():
    # adjoint module of U(2): the center contributes the only invariant line,
    # the other zero weight sits inside the three dimensional summand
    chi = Character.from_weights(2, [(1, -1), (-1, 1), (0, 0), (0, 0)])
    group = CompactGroupSpec((("U", 2),))
    assert trivial_multiplicity(chi, group) == 1


def test_trivial_multiplicity_rank_mismatch():
    group = CompactGroupSpec((("U", 2),))
    with pytest.raises(SignatureMismatch):
        trivial_multiplicity(Char.one(3), group)


def test_invariant_poincare_rank_mismatch():
    group = CompactGroupSpec((("U", 2),))
    with pytest.raises(SignatureMismatch, match="character rank 3 does not match group rank 2"):
        invariant_poincare(group, Character(3, {}))


def test_trivial_multiplicity_rejects_non_invariant_input():
    # x^0 + x^(1,-1) is not Weyl invariant, the division by |W| = 2 fails
    chi = Character.from_weights(2, [(0, 0), (1, -1)])
    group = CompactGroupSpec((("U", 2),))
    with pytest.raises(InexactDivision):
        trivial_multiplicity(chi, group)


# --- the engine --------------------------------------------------------------


def reference_half_denominator(factor):
    """prod over the positive roots alpha of (1 - x^-alpha), expanded: the
    roots whose first nonzero coordinate is positive."""
    zero = (0,) * factor_rank(factor)
    return reference_denominator(factor, [tuple(-x for x in a) for a in factor_roots(factor) if a > zero])


def weyl_orbit(factor, w):
    """The orbit of w under W by brute force: every permutation of w under
    every sign pattern W allows, none for U and an even number of flips for
    SO(2m)."""
    kind, n = factor
    signs = [s for s in product((1, -1), repeat=len(w)) if prod(s) > 0 or kind != "SO" or n % 2]
    signs = [(1,) * len(w)] if kind == "U" else signs
    return frozenset(tuple(map(mul, s, v)) for v in permutations(w) for s in signs)


@pytest.mark.parametrize("factor", BIG_FACTORS, ids=factor_id)
def test_half_denominator_is_weyl_denominator(factor):
    half = reference_half_denominator(factor)
    # the sum over W of det(u) x^(u rho - rho)
    assert len(half) == factor_weyl_order(factor)
    assert set(half.values()) <= {1, -1}
    # the half times its mirror image is the product over all roots
    mirror = [tuple(-x for x in w) for w in half]
    full = Char(factor_rank(factor), half) * Char(factor_rank(factor), dict(zip(mirror, half.values())))
    assert full.terms == reference_denominator(factor)
    # the engine's table is that sum merged by orbit
    merged = Counter()
    for w, c in half.items():
        merged[weyl_orbit(factor, w)] += c
    table = _weyl_table(factor)
    orbits = {weyl_orbit(factor, w): c for w, c in table.items()}
    # one key per orbit, and no orbit whose signs cancel
    assert len(orbits) == len(table)
    assert orbits == {orbit: c for orbit, c in merged.items() if c}


def test_weyl_tables_of_the_largest_factors_under_the_cap():
    # |W| = 40 320, 46 080 and 46 080 merge to these many orbits
    sizes = {f: len(_weyl_table(f)) for f in [("U", 8), ("Sp", 6), ("SO", 13)]}
    assert sizes == {("U", 8): 4782, ("Sp", 6): 4983, ("SO", 13): 5579}


@pytest.mark.parametrize("factor", [("U", 9), ("Sp", 7), ("SO", 14), ("U", 20)], ids=factor_id)
def test_half_denominator_past_the_cap_is_refused(factor):
    assert factor_weyl_order(factor) > characters.HALF_DENOMINATOR_CAP
    with pytest.raises(DomainError, match="half denominator of more than 100000 terms; cohomology --closed-only"):
        _weyl_table(factor)


def test_bad_group_factor():
    with pytest.raises(ValueError, match=r"^bad group factor \('X', 1\)$"):
        CompactGroupSpec((("X", 1),))
    assert repr(CompactGroupSpec((("U", 2),))) == "CompactGroupSpec(factors=(('U', 2),))"


def test_weyl_orders():
    assert factor_weyl_order(("U", 3)) == 6
    assert factor_weyl_order(("SO", 2)) == 1
    assert factor_weyl_order(("SO", 3)) == 2
    assert factor_weyl_order(("SO", 4)) == 4
    assert factor_weyl_order(("SO", 5)) == 8
    assert factor_weyl_order(("Sp", 2)) == 8


def textbook_roots(factor):
    """e_i - e_j for U(n); +-e_i +- e_j, and 2e_i for Sp(n) or e_i for odd
    SO(n), in the n // 2 or n coordinates of the factor's torus."""
    kind, n = factor
    rank = factor_rank(factor)

    def e(*entries):
        v = [0] * rank
        for i, c in entries:
            v[i] += c
        return tuple(v)

    if kind == "U":
        return {e((i, 1), (j, -1)) for i in range(n) for j in range(n) if i != j}
    signs = (1, -1)
    roots = {e((i, s), (j, t)) for i in range(rank) for j in range(i) for s in signs for t in signs}
    if kind == "Sp":
        roots |= {e((i, 2 * s)) for i in range(rank) for s in signs}
    elif n % 2:
        roots |= {e((i, s)) for i in range(rank) for s in signs}
    return roots


# every factor whose half denominator HALF_DENOMINATOR_CAP lets through
UNDER_THE_CAP = [("U", n) for n in range(9)] + [("Sp", n) for n in range(7)]
UNDER_THE_CAP += [("SO", n) for n in range(14)]


@pytest.mark.parametrize("factor", UNDER_THE_CAP, ids=factor_id)
def test_roots_are_the_textbook_root_system(factor):
    assert factor_weyl_order(factor) <= characters.HALF_DENOMINATOR_CAP
    roots = factor_roots(factor)
    assert len(roots) == len(set(roots))
    assert set(roots) == textbook_roots(factor)


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


MODULES = [((style, a, b),) for style in ("her", "quat", "real") for a, b in signatures(5)] + [
    (("her", 1, 2), ("quat", 1, 2)),
    (("her", 2, 2), ("quat", 1, 1)),
    (("her", 1, 2), ("real", 2, 3)),
    (("her", 2, 1), ("real", 3, 3)),
    (("real", 4, 4),),
]


@pytest.mark.parametrize("tags", MODULES, ids=lambda tags: "+".join(f"{s}{a}{b}" for s, a, b in tags))
def test_engine_matches_reference(tags):
    group, chi = group_and_module(tags)
    assert invariant_poincare(group, chi) == reference_poincare(group, chi)


def test_even_orthogonal_targets_keep_the_sign_parity():
    # the self-dual 2-forms of SO(4) are the adjoint of one SU(2) factor, so
    # the invariants of their exterior algebra are those of the 3-sphere;
    # flipping one sign maps them to the anti-self-dual 2-forms, so the
    # module is SO(4)- but not O(4)-invariant
    chi = Character.from_weights(2, [(1, 1), (-1, -1), (0, 0)])
    group = CompactGroupSpec((("SO", 4),))
    assert invariant_poincare(group, chi) == IntPoly([1, 0, 0, 1])
    assert reference_poincare(group, chi) == IntPoly([1, 0, 0, 1])


def test_targets_are_merged_dominant_weights(monkeypatch):
    seen = []
    targets = characters._targets
    monkeypatch.setattr(characters, "_targets", lambda *args: seen.append(targets(*args)) or seen[-1])
    group, chi = group_and_module((("her", 3, 3),))
    invariant_poincare(group, chi)
    # |W| = 36 for U(3) x U(3); the 6 terms of each factor merge to 5
    assert len(seen[0]) == 25


def test_invariant_poincare_torus_module():
    # 3 trivial weights under U(1): exterior algebra is fully invariant
    chi = Character.from_weights(1, [(0,)] * 3)
    group = CompactGroupSpec((("U", 1),))
    assert invariant_poincare(group, chi) == IntPoly([1, 3, 3, 1])


def test_invariant_poincare_term_budget_on_big_modules(monkeypatch):
    # 21 zero weights: one target, and each half series holds one weight
    chi = Character.from_weights(1, [(0,)] * 21)
    group = CompactGroupSpec((("U", 1),))
    poly = invariant_poincare(group, chi)
    assert poly.coeffs[1] == 21
    assert poly(1) == 2**21
    monkeypatch.setattr(characters, "JOIN_WORK_BUDGET", 1)
    assert invariant_poincare(group, chi) == poly
    monkeypatch.setattr(characters, "JOIN_WORK_BUDGET", 0)
    with pytest.raises(DomainError, match="--closed-only"):
        invariant_poincare(group, chi)


def test_invariant_poincare_rejects_virtual_characters():
    chi = Character(1, {(0,): -1})
    with pytest.raises(DomainError):
        invariant_poincare(CompactGroupSpec((("U", 1),)), chi)


@pytest.mark.parametrize("factors", [(("U", 2.0), ("SO", True)), (("Sp", "1"),)])
def test_group_spec_rejects_non_int_sizes(factors):
    with pytest.raises(ValueError, match="bad group factor"):
        CompactGroupSpec(factors)


@pytest.mark.parametrize("terms", [{(0.7,): 1.9}, {(0,): 1.0}, {(True,): 1}, {(0,): True}])
def test_character_rejects_non_int_data(terms):
    with pytest.raises(DomainError, match="must be ints"):
        Character(1, terms)
    with pytest.raises(ValueError, match="nonnegative int"):
        Character(1.0, {})


def test_group_spec_slices():
    group = CompactGroupSpec((("U", 2), ("SO", 5), ("Sp", 1)))
    assert group.rank == 5
    assert group.slices == ((0, 2), (2, 4), (4, 5))
    assert group.weyl_order == 2 * 8 * 2
