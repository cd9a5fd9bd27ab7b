"""Exact characters of products of compact classical groups, and the
invariants in their exterior algebras.

A character of a rank-n torus is a finite integer combination of weights,
stored as a sparse dict mapping each exponent tuple to its multiplicity.
Everything in this module is exact: no floats and no truncation.

The group side is a product of factors U(n), SO(n), Sp(n). The invariant
multiplicity of a Weyl-invariant character f is a constant term against
half the Weyl denominator,

    mult_triv(f) = CT(f * prod over positive roots alpha of (1 - x^-alpha)),

and by the Weyl denominator identity that half product is the sum over the
Weyl group W of sgn(u) x^(u rho - rho): |W| terms, each +1 or -1. So the
multiplicity is the sum of sgn(u) f(u rho - rho) over W, and since f is
W-invariant each of these targets can be moved to its dominant
representative and equal targets merged first.

invariant_poincare applies this to every exterior power of a module at
once, on packed weights. A weight w with |w_i| <= 2 B_i is stored as the
int sum of w_i * P_i, where P_0 = 1 and P_(i+1) = P_i * (4 B_i + 1), so
each w_i is a balanced (signed) digit; packing is linear, so adding weights
is adding ints. B_i is the sum of |w_i| over all weights of the module, so
every exterior-power weight has |w_i| <= B_i, and the doubled range keeps a
difference of two such weights from aliasing a third. The weights are split
into two halves, each half's exterior series is grown on its own, and each
target's coefficient is the meet-in-the-middle join (Horowitz and Sahni,
JACM 21, 1974) of the two: sum over v of A[v] * B[target - v]. The full
exterior series is never built.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import factorial
from operator import add, sub

from .errors import DomainError, InvariantViolation, SignatureMismatch
from .polynomials import IntPoly

Weight = tuple  # tuple of ints
Factor = tuple  # (kind, n) with kind in {"U", "SO", "Sp"}

_KINDS = ("U", "SO", "Sp")


class Character:
    """Sparse virtual character of a rank-n torus."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None):
        if type(rank) is not int or rank < 0:
            raise ValueError(f"rank {rank!r} must be a nonnegative int")
        clean = {}
        for w, c in (terms or {}).items():
            w = tuple(w)
            if len(w) != rank:
                raise SignatureMismatch(
                    f"weight {w} has length {len(w)}, expected rank {rank}"
                )
            if type(c) is not int or any(type(x) is not int for x in w):
                raise DomainError(f"weight {w!r} and multiplicity {c!r} must be ints")
            if c:
                clean[w] = clean.get(w, 0) + c
        self.rank = rank
        self.terms = {w: c for w, c in clean.items() if c}

    @classmethod
    def from_weights(cls, rank: int, weights) -> "Character":
        return cls(rank, Counter(map(tuple, weights)))

    def dimension(self) -> int:
        """Value at the identity, i.e. the sum of all multiplicities."""
        return sum(self.terms.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Character)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        items = sorted(self.terms.items())
        return f"Character(rank={self.rank}, terms={dict(items)!r})"


# Upper bound on the join work of invariant_poincare: the number of merged
# targets times the number of distinct weights in a half series. It is
# checked before the targets of all factors are multiplied out and as each
# half grows, so the first half is refused before the second is built and
# the two halves hold at most 2 * budget / targets weights. The real
# central block of O(6,7) (3.6e7) fits; U(4,5) (1.2e8), Sp(3,4) flag 0
# (1.4e9) and U(5,5) (5.0e9) do not.
JOIN_WORK_BUDGET = 40_000_000

# Upper bound on |W| of one compact factor, the number of terms of its half
# denominator, checked before the product is multiplied out: U(8) (40 320
# terms) is expanded; U(9) (362 880), Sp(7) and SO(14) are not.
HALF_DENOMINATOR_CAP = 100_000


def _check_factor(factor: Factor) -> Factor:
    kind, n = factor
    if kind not in _KINDS or type(n) is not int or n < 0:
        raise ValueError(f"bad group factor {factor!r}")
    return factor


def factor_rank(factor: Factor) -> int:
    kind, n = _check_factor(factor)
    return n if kind != "SO" else n // 2


def factor_weyl_order(factor: Factor) -> int:
    kind, n = _check_factor(factor)
    if kind == "U":
        return factorial(n)
    if kind == "Sp":
        return 2**n * factorial(n)
    k = n // 2
    if n % 2 or k == 0:
        return 2**k * factorial(k)
    return 2 ** (k - 1) * factorial(k)


def factor_roots(factor: Factor):
    """All roots (positive and negative) in factor-local coordinates.

    They are the nonzero weights of the adjoint representation, built from
    the standard one: std (x) std* for U(n), Sym^2 std for Sp(n) and
    Lambda^2 std for SO(n) (Fulton and Harris, Representation Theory,
    Lectures 15-20).
    """
    std = standard_weights(factor)
    if factor[0] == "U":
        weights = (tuple(map(sub, u, v)) for u, v in permutations(std, 2))
    else:
        pairs = combinations_with_replacement if factor[0] == "Sp" else combinations
        weights = (tuple(map(add, u, v)) for u, v in pairs(std, 2))
    return [w for w in weights if any(w)]


def standard_weights(factor: Factor):
    """Weights of the defining representation, factor-local coordinates.

    The roots and every Levi module are built from these lists.
    """
    kind, n = _check_factor(factor)
    rank = factor_rank(factor)

    def e(i, c=1):
        v = [0] * rank
        v[i] = c
        return tuple(v)

    if kind == "U":
        return [e(i) for i in range(n)]
    weights = [e(i, s) for i in range(rank) for s in (1, -1)]
    if kind == "SO" and n % 2:
        weights.append((0,) * rank)
    return weights


@lru_cache(maxsize=None)  # one entry of |W| terms per factor (kind, n) in use
def _half_denominator(factor: Factor):
    """prod over the positive roots alpha of (1 - x^-alpha), as a dict.

    The positive roots are the ones whose first nonzero coordinate is
    positive; they are multiplied in sorted order, the fastest order
    measured. By the Weyl denominator identity the result has exactly |W|
    terms, each +1 or -1; the tests hold it to that. DomainError is raised
    before a product of more than HALF_DENOMINATOR_CAP terms is expanded.
    """
    if factor_weyl_order(factor) > HALF_DENOMINATOR_CAP:
        raise _over_budget(f"a half denominator of more than {HALF_DENOMINATOR_CAP} terms")
    zero = (0,) * factor_rank(factor)
    terms = {zero: 1}
    for alpha in sorted(a for a in factor_roots(factor) if a > zero):
        nxt = dict(terms)
        for w, c in terms.items():
            shifted = tuple(x - y for x, y in zip(w, alpha))
            nxt[shifted] = nxt.get(shifted, 0) - c
        terms = {w: c for w, c in nxt.items() if c}
    return terms


def _dominant(factor: Factor, w: Weight) -> Weight:
    """A representative of the Weyl orbit of w, the same for the whole orbit.

    U(n) permutes coordinates; Sp(n) and SO(2m+1) also flip any signs;
    SO(2m) flips an even number of them, so when no coordinate is zero the
    parity of the negative ones rides on the smallest.
    """
    kind, n = factor
    if kind == "U":
        return tuple(sorted(w))
    out = sorted(map(abs, w))
    if kind == "SO" and n % 2 == 0 and out and out[0] and sum(x < 0 for x in w) % 2:
        out[0] = -out[0]
    return tuple(out)


def _over_budget(need: str = "") -> DomainError:
    need = need or f"more than {JOIN_WORK_BUDGET} join steps"
    return DomainError(
        f"the invariants of this module need {need}; cohomology "
        "--closed-only skips them, except on the real central block of "
        "an orthogonal rep"
    )


def _targets(group: CompactGroupSpec, bounds, pack, limit: int):
    """The packed weights u rho - rho of the half denominator, moved to
    their dominant representatives, merged, and kept only inside the box;
    mapped to their summed signs. DomainError is raised before there would
    be more than limit of them."""
    targets = {0: 1}
    for factor, (start, stop) in zip(group.factors, group.slices):
        local_bounds = bounds[start:stop]
        pad = (0,) * start
        local = {}
        for w, sign in _half_denominator(factor).items():
            if all(abs(x) <= b for x, b in zip(w, local_bounds)):
                key = pack(pad + _dominant(factor, w))
                local[key] = local.get(key, 0) + sign
        local = {k: s for k, s in local.items() if s}
        if len(targets) * len(local) > limit:
            raise _over_budget()
        targets = {k1 + k2: s1 * s2 for k1, s1 in targets.items() for k2, s2 in local.items()}
    return targets


def _half_series(weights, shift: int, limit: int):
    """prod over the packed weights of (1 + t x^w), keyed by packed weight.

    Each value holds all its levels in one int, the multiplicity in the
    k-th exterior power at bit offset k * shift. DomainError is raised as
    soon as the series holds more than limit weights.
    """
    series = {0: 1}
    for w in weights:
        get = series.get
        for v, c in list(series.items()):
            series[v + w] = get(v + w, 0) + (c << shift)
        if len(series) > limit:
            raise _over_budget()
    return series


class CompactGroupSpec(namedtuple("CompactGroupSpec", "factors")):
    """An ordered product of compact factors acting through one big torus."""

    __slots__ = ()

    def __new__(cls, factors: tuple):
        for f in factors:
            _check_factor(f)
        return super().__new__(cls, factors)

    @property
    def rank(self) -> int:
        return sum(factor_rank(f) for f in self.factors)

    @property
    def weyl_order(self) -> int:
        order = 1
        for f in self.factors:
            order *= factor_weyl_order(f)
        return order

    @property
    def slices(self):
        out = []
        start = 0
        for f in self.factors:
            r = factor_rank(f)
            out.append((start, start + r))
            start += r
        return tuple(out)


def invariant_poincare(group: CompactGroupSpec, chi: Character) -> IntPoly:
    """Generating polynomial of invariants in the exterior algebra of chi.

    Coefficient of t^j is the trivial multiplicity in the j-th exterior
    power of the genuine character chi. DomainError is raised when the join
    would take more than JOIN_WORK_BUDGET steps.
    """
    if chi.rank != group.rank:
        raise SignatureMismatch(
            f"character rank {chi.rank} does not match group rank {group.rank}"
        )
    if any(c < 0 for c in chi.terms.values()):
        raise DomainError("exterior powers need a genuine character")
    bounds = [0] * chi.rank
    for w, c in chi.terms.items():
        for i, x in enumerate(w):
            bounds[i] += c * abs(x)
    places = []
    place = 1
    for b in bounds:
        places.append(place)
        place *= 4 * b + 1

    def pack(w):
        return sum(x * p for x, p in zip(w, places))

    weights = [pack(w) for w, mult in sorted(chi.terms.items()) for _ in range(mult)]
    dim = len(weights)
    # 0 and every weight of the first half are weights of its series, so
    # the join work is at least the number of targets times this many
    least_half = len({0, *weights[: dim // 2]})
    targets = _targets(group, bounds, pack, JOIN_WORK_BUDGET // least_half)
    # Level j of a join term counts j-subsets of the weights, fewer than
    # 2^dim; the signed sum over targets stays below 2^(bits - 2).
    bits = dim + sum(map(abs, targets.values())).bit_length() + 2
    limit = JOIN_WORK_BUDGET // len(targets)
    first = _half_series(weights[: dim // 2], bits, limit)
    second = _half_series(weights[dim // 2 :], bits, limit)
    by_sign = {}
    for key, sign in targets.items():
        by_sign.setdefault(sign, []).append(key)
    # Positive and negative targets are summed apart, so every digit of
    # pos and neg is a nonnegative count; for each v the second half is
    # looked up at every key - v and the hits summed before one multiply.
    pos = neg = 0
    get = second.get
    for v, c in first.items():
        up = down = 0
        for sign, keys in by_sign.items():
            hits = sum(filter(None, map(get, map(v.__rsub__, keys))))
            if sign > 0:
                up += sign * hits
            else:
                down -= sign * hits
        pos += c * up
        neg += c * down
    mask = (1 << bits) - 1
    coeffs = []
    for k in range(dim + 1):
        p, n = (pos >> (k * bits)) & mask, (neg >> (k * bits)) & mask
        if (p | n) >> (bits - 2):
            raise InvariantViolation(f"level {k} of the join overflowed {bits - 2} bits")
        coeffs.append(p - n)
    if coeffs[0] != 1 or min(coeffs) < 0:
        raise InvariantViolation(
            f"invariant counts {coeffs} are not those of an exterior algebra"
        )
    return IntPoly(coeffs)
