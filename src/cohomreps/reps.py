"""Cohomological representations of U(p,q), O(p,q) and Sp(p,q).

A representation A(lam, mu) of the unitary or quaternionic family is indexed
by a nested pair of partitions whose skew shape splits into rectangles; the
orthogonal family uses a single self-complementary lam. The quaternionic
family additionally carries a binary flag selecting which of two Levi types
realizes the pair; the flag is forced to 1 unless the bottom row of the box
lies entirely inside the skew shape.

Each representation knows its lowest cohomological degree R and the module
(l cap p) on which cohomology is an invariant-theory problem. Poincare
series come in two independent implementations: a closed product of Gaussian
binomials (and, for the real central block of the orthogonal family, the
Poincare polynomial of a real Grassmannian), and a direct evaluation through
exterior powers and Weyl integration that never looks at the factorization.
"""

from __future__ import annotations

import gc
from collections import namedtuple
from contextlib import contextmanager
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import DomainError, InvariantViolation, NotOrthogonal, WrongFamily
from .partitions import (
    OrthogonalDecomposition,
    SkewDecomposition,
    brackets,
    canonical,
    check_box,
    compatible_pairs,
    complement,
    count_orthogonal,
    count_pairs,
    orthogonal_decomposition,
    orthogonal_partitions,
    rectangle_decomposition,
)

if TYPE_CHECKING:  # polynomials is loaded when a closed product is built
    from .polynomials import IntPoly

FAMILIES = ("U", "O", "Sp")


class Family(namedtuple("Family", "kind p q")):
    """A group U(p,q), O(p,q) or Sp(p,q); ordered as the tuple (kind, p, q)."""

    __slots__ = ()

    def __new__(cls, kind: str, p: int, q: int):
        if kind not in FAMILIES:
            raise WrongFamily(f"unknown family {kind!r}")
        if type(p) is not int or type(q) is not int:
            raise DomainError(f"signature ({p!r},{q!r}) must be integers")
        if p < 1 or q < 1:
            raise DomainError(f"signature ({p},{q}) must be positive")
        check_box(p, q)
        return super().__new__(cls, kind, p, q)


def r_G(family: Family) -> int:
    """Smallest nonzero lowest degree the family can produce, by signature."""
    base = min(family.p, family.q)
    return 2 * base if family.kind == "Sp" else base


class CohRep(NamedTuple):
    family: Family
    lam: tuple
    mu: tuple
    flag: Optional[int]
    skew: SkewDecomposition
    orth: Optional[OrthogonalDecomposition]
    R: int
    sign_multiplicity: Optional[str]

    def __repr__(self) -> str:
        return f"CohRep({text_form(self)})"


def admits_flag_zero(lam: tuple, mu: tuple, p: int) -> bool:
    """Whether the bottom box row lies in the skew shape, as Sp flag 0 needs."""
    return len(lam) < p <= len(mu)


def _check_R(R: int, expected: int, lam, mu) -> None:
    # R is read off the rectangle areas; the partition sizes give it too.
    if R != expected:
        raise InvariantViolation(
            f"lowest degree of ({lam}, {mu}) is {R} from the rectangles "
            f"but {expected} from the partition sizes"
        )


def make_rep(family: Family, lam, mu=None, flag=None) -> CohRep:
    """Build and validate a representation of the given family."""
    p, q = family.p, family.q
    lam = canonical(lam)

    if family.kind == "O":
        if flag is not None:
            raise WrongFamily("the flag parameter belongs to the Sp family")
        orth = orthogonal_decomposition(lam, p, q)
        comp = complement(lam, p, q)
        if mu is not None and canonical(mu) != comp:
            raise NotOrthogonal(
                "for the orthogonal family the second partition is the "
                f"complement {comp} of the first"
            )
        return _rep(family, lam, comp, None, orth.skew, orth)

    if mu is None:
        raise DomainError(f"family {family.kind} needs both partitions")
    mu = canonical(mu)
    skew = rectangle_decomposition(lam, mu, p, q)
    if family.kind == "U":
        if flag is not None:
            raise WrongFamily("the flag parameter belongs to the Sp family")
    elif type(flag) is not int or flag not in (0, 1):
        raise DomainError("the Sp family needs flag 0 or 1")
    elif flag == 0 and not admits_flag_zero(lam, mu, p):
        raise DomainError(
            "flag 0 requires the bottom box row to lie inside the skew "
            "shape; this pair only admits flag 1"
        )
    return _rep(family, lam, mu, flag, skew)


def _rep(family: Family, lam, mu, flag, skew, orth=None) -> CohRep:
    """A rep from a valid parameter and its decomposition; checks R."""
    if family.kind == "O":
        return CohRep(family, lam, mu, None, skew, orth, sum(lam), "unresolved")
    pq = family.p * family.q
    areas = sum(a * b for a, b in skew.rectangles)
    expected = sum(lam) + pq - sum(mu)  # lam plus the complement of mu
    if family.kind == "U":
        R = pq - areas
    elif flag == 1:
        R = 2 * pq - areas
        expected += pq
    else:
        a, b = skew.rectangles[-1]
        R = 2 * pq - 2 * a * b - (areas - a * b)
        expected += pq - a * b
    _check_R(R, expected, lam, mu)
    return CohRep(family, lam, mu, flag, skew, None, R, None)


def trivial_rep(family: Family) -> CohRep:
    p, q = family.p, family.q
    if family.kind == "O":
        return make_rep(family, ())
    full = (q,) * p
    return make_rep(family, (), full, flag=0 if family.kind == "Sp" else None)


# Enumeration refuses a group with more parameters than this: U(7,7) has
# 335 682, Sp(7,7) and O(14,14) 437 880, U(8,8) 2 534 136. A cached rep
# takes about 0.5 kB (enumerate_reps of U(7,7) peaks at 183 MB), so the
# bound keeps a cached group under about half a gigabyte.
MAX_REPS = 1_000_000


def count_reps(family: Family) -> int:
    """The number of representations of the family, without building any:
    a transfer sum over the rows of the box, polynomial in p and q."""
    kind, p, q = family
    if kind == "O":
        return count_orthogonal(p, q)
    pairs, flag_zero = count_pairs(p, q)
    # in Sp each pair with lam_p = 0 < mu_p also carries flag 0
    return pairs + flag_zero if kind == "Sp" else pairs


def iter_reps(family: Family):
    """The representations of the family one at a time, ordered by (lam,
    mu, flag); none is kept.

    A family with more than MAX_REPS is refused with DomainError at the
    call, before any representation is built.
    """
    count = count_reps(family)
    if count > MAX_REPS:
        kind, p, q = family
        raise DomainError(
            f"{kind}({p},{q}) has {count} representations, more than the "
            f"{MAX_REPS} that enumeration builds"
        )
    return _generate(family)


def _generate(fam: Family):
    kind, p, q = fam
    if kind == "O":
        for lam, mu, orth in orthogonal_partitions(p, q):
            yield _rep(fam, lam, mu, None, orth.skew, orth)
        return
    for lam, mu, skew in compatible_pairs(p, q):
        if kind == "Sp" and admits_flag_zero(lam, mu, p):
            yield _rep(fam, lam, mu, 0, skew)
        yield _rep(fam, lam, mu, 1 if kind == "Sp" else None, skew)


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector, then restore its former state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@lru_cache(maxsize=None)  # one entry per group, like the isolation tables built from it
@collector_paused()  # every rep is kept, so each older-generation pass would walk them again
def _enumerate_cached(kind: str, p: int, q: int):
    return tuple(iter_reps(Family(kind, p, q)))


def enumerate_reps(family: Family):
    """All representations of the family, ordered by (lam, mu, flag): the
    reps of iter_reps as a tuple, cached per group."""
    return _enumerate_cached(family.kind, family.p, family.q)


def hodge_type(rep: CohRep):
    """Bidegree (R_plus, R_minus) splitting R; unitary family only."""
    if rep.family.kind != "U":
        raise WrongFamily("Hodge bidegrees exist only for the unitary family")
    p, q = rep.family.p, rep.family.q
    return (sum(rep.lam), p * q - sum(rep.mu))


# ---------------------------------------------------------------------------
# The (l cap p) module. Each block tag describes one Levi factor pair and
# the piece of p it acts on:
#   ("her", a, b)   U(a) x U(b) on E (x) F* + E* (x) F
#   ("quat", a, b)  Sp(a) x Sp(b) on the tensor product of the standards
#   ("real", a, b)  SO(a) x SO(b) on the tensor product of the standards
# ---------------------------------------------------------------------------

# Each style's compact kind and its module dimension per cell of the a x b
# block, which is also the degree step of the block's closed factor.
BLOCKS = {"her": ("U", 2), "quat": ("Sp", 4), "real": ("SO", 1)}


def _key(rep: CohRep):
    """What fixes the rep's Levi blocks, and R: (rectangles, flag == 0, R)
    for U and Sp, so U shares with Sp flag 1, and (pairs, center, R) for O."""
    if rep.orth is None:
        return rep.skew.rectangles, rep.flag == 0, rep.R
    return rep.orth.pairs, rep.orth.center, rep.R


def _blocks(pairs, last):  # the block tags of a key, whose R they do not need
    tags = [("her", a, b) for a, b in pairs]
    if last is True:  # Sp flag 0
        tags[-1] = ("quat", *pairs[-1])
    elif last and 0 not in last:  # the center of O, unless a side is 0
        tags.append(("real", *last))
    return tuple(tags)


def block_tags(rep: CohRep):
    """The Levi blocks of the rep's module, as tags in the table above."""
    return _blocks(*_key(rep)[:2])


def _negative(w):
    return tuple(-x for x in w)


def _module_dimension(tags) -> int:
    return sum(BLOCKS[style][1] * a * b for style, a, b in tags)


def group_and_module(tags):
    """The compact group and the character of the module that tags describe.

    Every block is built from the standard weights of its two factors: a
    quaternionic or real block acts on their tensor product, a hermitian
    block on E (x) F* and its dual. InvariantViolation is raised when the
    dimension differs from the one the blocks give.
    """
    from .characters import Character, CompactGroupSpec, standard_weights

    factors = tuple((BLOCKS[style][0], n) for style, a, b in tags for n in (a, b))
    group = CompactGroupSpec(factors)
    weights = []
    for i, (style, _, _) in enumerate(tags):
        left, right = factors[2 * i : 2 * i + 2]
        (start, _), (_, stop) = group.slices[2 * i : 2 * i + 2]
        wb = standard_weights(right)
        if style == "her":  # E (x) F* here, its dual below
            wb = list(map(_negative, wb))
        local = [u + v for u in standard_weights(left) for v in wb]
        if style == "her":
            local += [_negative(w) for w in local]
        pad, tail = (0,) * start, (0,) * (group.rank - stop)
        weights += [pad + w + tail for w in local]
    chi = Character.from_weights(group.rank, weights)
    expected = _module_dimension(tags)
    if chi.dimension() != expected:
        raise InvariantViolation(
            f"the module of {tags} has dimension {chi.dimension()}, "
            f"its Levi blocks give {expected}"
        )
    return group, chi


def lp_character(rep: CohRep):
    """The compact Levi factor and the character of its module inside p."""
    return group_and_module(block_tags(rep))


# Bounds on the closed product. Each block (a, b) multiplies and divides
# the running product by about min(a, b) binomials 1 - t^k each, one pass
# over at most `degree` coefficients apiece, where degree, the module
# dimension, is the degree of the product. On a 2-vCPU machine one block
# just under the degree bound (U(158,158), degree 49 928) takes about
# 0.8 s, and 2 000 blocks of size 1 x 1, at the bound on degree times the
# sum of the min(a, b), about 1.2 s; under the degree bound alone 1 000
# blocks of size 5 x 5 (degree 50 000) took 73 s. The degree bound also
# keeps a thin block, such as the real block 1 x n of O(1,n), from listing
# millions of coefficients.
MAX_CLOSED_DEGREE = 50_000
MAX_CLOSED_WORK = 10_000_000


# A formatting memo starts over when it holds this many entries, so a stream
# of values that never repeat, such as the lam and mu of O, does not grow it.
# U(7,7) and Sp(7,7) keep theirs: 3 432 partitions and as many rectangle lists.
MEMO_SIZE = 1 << 13


class Memo(dict):
    """The value `form` gives each key looked up, made once while the memo
    lasts (MEMO_SIZE); Memo(brackets) names partitions, which are trusted
    to be canonical."""

    def __init__(self, form):
        super().__init__()
        self.form = form

    def __missing__(self, key):
        if len(self) >= MEMO_SIZE:
            self.clear()
        text = self[key] = self.form(key)
        return text


# Products holds a Poincare polynomial per key, `form` of the key's block
# tags shifted by t^R, so a warm call is one dict lookup: 2 375 keys for
# the 26 578 reps with p+q <= 9, 5 047 for the 75 152 with p+q <= 10. One
# of degree at most MAX_CACHED_DEGREE, its R leading zeros counted, has at
# most 513 coefficients below 2^512 (they sum to at most 2^degree): under
# 54 kB, and MAX_PRODUCTS entries under 230 MB. As R plus the dimension is
# at most 4pq, every rep with pq <= 128 is kept; a longer one (U(158,158)
# trivial holds 2.4 MiB) is rebuilt per call, in 2 ms at degree 1 000.
MAX_CACHED_DEGREE = 512
MAX_PRODUCTS = 4096


class Products(Memo):
    def __missing__(self, key):
        poly = self.form(_blocks(*key[:2])).shift(key[2])
        if poly.degree <= MAX_CACHED_DEGREE:
            if len(self) >= MAX_PRODUCTS:
                self.clear()
            self[key] = poly
        return poly


def _closed_product(tags) -> IntPoly:
    degree, sides = _module_dimension(tags), sum(min(a, b) for _, a, b in tags)
    if degree > MAX_CLOSED_DEGREE or degree * sides > MAX_CLOSED_WORK:
        raise DomainError(
            f"the closed product has degree {degree} over blocks whose shorter "
            f"sides sum to {sides}; it is built up to degree {MAX_CLOSED_DEGREE} "
            f"and degree times sides {MAX_CLOSED_WORK}"
        )
    from .polynomials import ONE, times_gaussian, times_grassmannian

    poly = ONE
    for style, a, b in tags:
        if style == "real":
            poly = times_grassmannian(poly, a, b)
        else:
            poly = times_gaussian(poly, a + b, a, BLOCKS[style][1])
    return poly


def poincare_closed(rep: CohRep) -> IntPoly:
    """Poincare polynomial of the cohomology, as a product over blocks.

    Hermitian blocks contribute a Gaussian binomial in t^2, quaternionic
    blocks one in t^4, and the real central block of the orthogonal family
    the Poincare polynomial of a real Grassmannian; the invariants engine
    is never run. The product is shifted by t^R, so degrees are absolute,
    and cached per key, apart from the oracle's cache. A product past
    MAX_CLOSED_DEGREE or MAX_CLOSED_WORK is refused with DomainError
    before any factor is built.
    """
    return _CLOSED[_key(rep)]


@lru_cache(maxsize=None)  # one short polynomial per module; 117 for p+q <= 8
def _oracle_poincare(module) -> IntPoly:
    from .characters import invariant_poincare

    group, chi = group_and_module(module)
    return invariant_poincare(group, chi)


_CLOSED = Products(_closed_product)
_ORACLE = Products(lambda tags: _oracle_poincare(tuple(sorted(
    (s, a, b) if a <= b else (s, b, a) for s, a, b in tags))))


def poincare_oracle(rep: CohRep) -> IntPoly:
    """Same polynomial as poincare_closed, computed without factorizing.

    The whole module is fed to the exterior-power and Weyl-integration
    machinery at once. Results are cached per key, and the engine's per
    module: the multiset of blocks, each with its sides in order, since a
    block (a, b) is the block (b, a) with its two factors swapped.
    """
    return _ORACLE[_key(rep)]


def full_cohomology(rep: CohRep):
    """Nonzero cohomology as ((degree, dimension), ...), degrees absolute."""
    return tuple((deg, c) for deg, c in enumerate(poincare_oracle(rep).coeffs) if c)


# every call of text_form names its lam and mu here, validated with the rep
_NAMES = Memo(brackets)


def text_form(rep: CohRep) -> str:
    """The rep as text, e.g. U(2,2) A[[1]|[2,1]]; each partition is named
    once while the module's memo lasts (MEMO_SIZE)."""
    kind, p, q = rep.family
    head = f"{kind}({p},{q})"
    if kind == "O":
        return f"{head} A[{_NAMES[rep.lam]}]"
    body = f"A[{_NAMES[rep.lam]}|{_NAMES[rep.mu]}]"
    if kind == "Sp":
        return f"{head} {body}_{rep.flag}"
    return f"{head} {body}"
