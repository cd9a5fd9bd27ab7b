"""Exact character arithmetic for products of compact classical groups.

A character of a rank-n torus is a finite integer combination of weights,
stored as a sparse dict mapping each exponent tuple to its multiplicity.
Everything in this module is exact: no floats, no truncation, and any
division that must come out exact is checked.

The group side is a product of factors U(n), SO(n), Sp(n). The invariant
multiplicity of a character is extracted with the Weyl integration formula
in its purely algebraic form

    mult_triv(chi) = CT(chi * D) / |W|,

where D = prod over all roots alpha of (1 - x^alpha) and CT takes the
coefficient of x^0. D factors over the group factors and is cached per
factor. trivial_multiplicity evaluates CT(chi * D) as a lazy dot product:
for each weight m of chi, look up the coefficient of -m in each factor's
denominator.

invariant_poincare, the engine behind the Poincare series oracle, works on
packed weights instead of tuples. A weight w inside a box |w_i| <= B_i is
stored as the int sum of w_i * P_i, where P_0 = 1 and
P_(i+1) = P_i * (2 B_i + 1), so each w_i is a balanced (signed) digit.
Packing is linear, so adding weights is adding ints, and any sum of weights
that stays inside the box decodes uniquely. With B_i the sum of |w_i| over
all weights of the module, every exterior-power weight stays inside the
box. The product of the factor denominators is then expanded once, in the
same packing, and each constant term is a dict lookup per term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .errors import DomainError, InexactDivision, SignatureMismatch
from .polynomials import IntPoly

Weight = tuple  # tuple of ints
Factor = tuple  # (kind, n) with kind in {"U", "SO", "Sp"}

_KINDS = ("U", "SO", "Sp")


class Character:
    """Sparse virtual character of a rank-n torus."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        clean = {}
        for w, c in (terms or {}).items():
            w = tuple(int(x) for x in w)
            if len(w) != rank:
                raise SignatureMismatch(
                    f"weight {w} has length {len(w)}, expected rank {rank}"
                )
            c = int(c)
            if c:
                clean[w] = clean.get(w, 0) + c
        self.rank = rank
        self.terms = {w: c for w, c in clean.items() if c}

    @classmethod
    def zero(cls, rank: int) -> "Character":
        return cls(rank, {})

    @classmethod
    def one(cls, rank: int) -> "Character":
        return cls(rank, {(0,) * rank: 1})

    @classmethod
    def from_weights(cls, rank: int, weights) -> "Character":
        terms = {}
        for w in weights:
            w = tuple(int(x) for x in w)
            terms[w] = terms.get(w, 0) + 1
        return cls(rank, terms)

    def dimension(self) -> int:
        """Value at the identity, i.e. the sum of all multiplicities."""
        return sum(self.terms.values())

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.rank, 0)

    def _check(self, other: "Character") -> None:
        if self.rank != other.rank:
            raise SignatureMismatch(
                f"rank mismatch: {self.rank} vs {other.rank}"
            )

    def __add__(self, other: "Character") -> "Character":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return Character(self.rank, out)

    def __sub__(self, other: "Character") -> "Character":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) - c
        return Character(self.rank, out)

    def __mul__(self, other: "Character") -> "Character":
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for w1, c1 in a.items():
            for w2, c2 in b.items():
                w = tuple(x + y for x, y in zip(w1, w2))
                out[w] = out.get(w, 0) + c1 * c2
        return Character(self.rank, out)

    def scale(self, k: int) -> "Character":
        return Character(self.rank, {w: k * c for w, c in self.terms.items()})

    def divide_exact(self, k: int) -> "Character":
        out = {}
        for w, c in self.terms.items():
            d, r = divmod(c, k)
            if r:
                raise InexactDivision(
                    f"coefficient {c} of {w} is not divisible by {k}"
                )
            out[w] = d
        return Character(self.rank, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Character)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        items = sorted(self.terms.items())
        return f"Character(rank={self.rank}, terms={dict(items)!r})"


def adams(chi: Character, i: int) -> Character:
    """The i-th Adams operation: each exponent tuple scaled by i."""
    if i < 1:
        raise ValueError("Adams operations are defined here for i >= 1")
    out = {}
    for w, c in chi.terms.items():
        sw = tuple(i * x for x in w)
        out[sw] = out.get(sw, 0) + c
    return Character(chi.rank, out)


def exterior_powers(chi: Character, kmax: int):
    """[e_0, e_1, ..., e_kmax] via the Newton recursion.

    k * e_k = sum over i in 1..k of (-1)^(i-1) * e_(k-i) * psi_i(chi).
    For an actual (nonvirtual) character every division is exact; the check
    is kept as an internal consistency tripwire. Powers past the dimension
    of chi come out as zero on their own.
    """
    powers = [Character.one(chi.rank)]
    psi = [adams(chi, i) for i in range(1, kmax + 1)]
    for k in range(1, kmax + 1):
        acc = Character.zero(chi.rank)
        for i in range(1, k + 1):
            term = powers[k - i] * psi[i - 1]
            acc = acc + term if i % 2 else acc - term
        powers.append(acc.divide_exact(k))
    return powers


# Upper bound on the number of terms held at once by the exterior series
# of invariant_poincare, summed over all exterior powers. Each term costs
# about 100 bytes, so the cap keeps the series under about 1 GB. The
# trivial rep of U(4,4) (6.8M terms) fits; U(4,5) does not.
SERIES_TERM_BUDGET = 8_000_000


class _Box:
    """Balanced mixed-radix packing of the weights in |w_i| <= bounds[i]."""

    __slots__ = ("bounds", "places")

    def __init__(self, bounds):
        self.bounds = tuple(bounds)
        places = []
        place = 1
        for b in self.bounds:
            places.append(place)
            place *= 2 * b + 1
        self.places = tuple(places)

    def contains(self, w) -> bool:
        return all(abs(x) <= b for x, b in zip(w, self.bounds))

    def pack(self, w) -> int:
        return sum(x * p for x, p in zip(w, self.places))

    def unpack(self, key: int) -> Weight:
        out = []
        for b in self.bounds:
            base = 2 * b + 1
            digit = (key + b) % base - b
            out.append(digit)
            key = (key - digit) // base
        return tuple(out)


def _pack_module(chi: Character):
    """The smallest box holding every sum of weights of a genuine chi, and
    the weights of chi packed in it, repeated by multiplicity."""
    bounds = [0] * chi.rank
    for w, c in chi.terms.items():
        for i, x in enumerate(w):
            bounds[i] += c * abs(x)
    box = _Box(bounds)
    weights = [
        box.pack(w) for w, mult in sorted(chi.terms.items()) for _ in range(mult)
    ]
    return box, weights


def _exterior_series(weights):
    """Levels of prod over the packed weights of (1 + t x^w).

    Level k maps packed weights to their multiplicity in the k-th exterior
    power. Nothing ever cancels, so the number of live terms only grows; it
    is counted against SERIES_TERM_BUDGET and DomainError is raised past it.
    """
    series = [{0: 1}]
    live = 1
    for w in weights:
        series.append({})
        for k in range(len(series) - 1, 0, -1):
            target = series[k]
            get = target.get
            live -= len(target)
            for v, c in series[k - 1].items():
                target[v + w] = get(v + w, 0) + c
            live += len(target)
            if live > SERIES_TERM_BUDGET:
                raise DomainError(
                    f"the exterior series of this dimension-{len(weights)} "
                    f"module needs more than {SERIES_TERM_BUDGET} terms; "
                    "cohomology --closed-only skips it, except on the real "
                    "central block of an orthogonal rep"
                )
    return series


def _check_factor(factor: Factor) -> Factor:
    kind, n = factor
    if kind not in _KINDS or int(n) < 0:
        raise ValueError(f"bad group factor {factor!r}")
    return (kind, int(n))


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
    """All roots (positive and negative) in factor-local coordinates."""
    kind, n = _check_factor(factor)
    rank = factor_rank(factor)

    def e(i, c=1):
        v = [0] * rank
        v[i] = c
        return tuple(v)

    def pm_pairs():
        out = []
        for i in range(rank):
            for j in range(i + 1, rank):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = [0] * rank
                        v[i], v[j] = si, sj
                        out.append(tuple(v))
        return out

    if kind == "U":
        roots = []
        for i in range(n):
            for j in range(n):
                if i != j:
                    v = [0] * n
                    v[i], v[j] = 1, -1
                    roots.append(tuple(v))
        return roots
    if kind == "Sp":
        return pm_pairs() + [e(i, 2 * s) for i in range(rank) for s in (1, -1)]
    # SO(n)
    roots = pm_pairs()
    if n % 2:
        roots += [e(i, s) for i in range(rank) for s in (1, -1)]
    return roots


def standard_weights(factor: Factor):
    """Weights of the defining representation, factor-local coordinates."""
    kind, n = _check_factor(factor)
    rank = factor_rank(factor)

    def e(i, c=1):
        v = [0] * rank
        v[i] = c
        return tuple(v)

    if kind == "U":
        return [e(i) for i in range(n)]
    if kind == "Sp":
        return [e(i, s) for i in range(rank) for s in (1, -1)]
    weights = [e(i, s) for i in range(rank) for s in (1, -1)]
    if n % 2:
        weights.append((0,) * rank)
    return weights


@lru_cache(maxsize=None)
def _factor_denominator(factor: Factor):
    """Coefficients of prod over all roots of (1 - x^alpha), as a dict."""
    roots = factor_roots(factor)
    box = _Box(
        sum(abs(alpha[i]) for alpha in roots) for i in range(factor_rank(factor))
    )
    terms = {0: 1}
    for alpha in map(box.pack, roots):
        nxt = dict(terms)
        for w, c in terms.items():
            nxt[w + alpha] = nxt.get(w + alpha, 0) - c
        # Zeros are deleted in place: filtering into a fresh dict at every
        # step fragments the heap that the cached result then lives in.
        for w in [w for w, c in nxt.items() if not c]:
            del nxt[w]
        terms = nxt
    return {box.unpack(w): c for w, c in terms.items()}


@dataclass(frozen=True)
class CompactGroupSpec:
    """An ordered product of compact factors acting through one big torus."""

    factors: tuple

    def __post_init__(self):
        for f in self.factors:
            _check_factor(f)

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


def trivial_multiplicity(chi: Character, group: CompactGroupSpec) -> int:
    """Multiplicity of the trivial representation in chi.

    Raises InexactDivision when chi is not a genuine invariant-theoretic
    input (for instance a non Weyl-invariant sum of weights).
    """
    if chi.rank != group.rank:
        raise SignatureMismatch(
            f"character rank {chi.rank} does not match group rank {group.rank}"
        )
    denoms = [_factor_denominator(f) for f in group.factors]
    slices = group.slices
    total = 0
    for w, c in chi.terms.items():
        prod = c
        for dd, (a, b) in zip(denoms, slices):
            neg = tuple(-x for x in w[a:b])
            coeff = dd.get(neg, 0)
            if not coeff:
                prod = 0
                break
            prod *= coeff
        total += prod
    return _divide_by_weyl_order(total, group)


def _divide_by_weyl_order(total: int, group: CompactGroupSpec) -> int:
    mult, rem = divmod(total, group.weyl_order)
    if rem:
        raise InexactDivision(
            f"constant term {total} is not divisible by the Weyl group "
            f"order {group.weyl_order}"
        )
    return mult


def invariant_poincare(group: CompactGroupSpec, chi: Character) -> IntPoly:
    """Generating polynomial of invariants in the exterior algebra of chi.

    Coefficient of t^j is the trivial multiplicity in the j-th exterior
    power of the genuine character chi. Every power is expanded in full, on
    packed weights; DomainError is raised when the series would hold more
    than SERIES_TERM_BUDGET terms.
    """
    if chi.rank != group.rank:
        raise SignatureMismatch(
            f"character rank {chi.rank} does not match group rank {group.rank}"
        )
    if any(c < 0 for c in chi.terms.values()):
        raise DomainError("exterior powers need a genuine character")
    box, weights = _pack_module(chi)
    # CT(level * D) needs the coefficient of -m in D for each weight m of a
    # level. Denominator terms outside the box match no weight and are
    # dropped before the per-factor pieces are multiplied out.
    denominator = {0: 1}
    for factor, (start, _) in zip(group.factors, group.slices):
        pad = (0,) * start
        local = {
            -box.pack(pad + w): c
            for w, c in _factor_denominator(factor).items()
            if box.contains(pad + w)
        }
        denominator = {
            k1 + k2: c1 * c2
            for k1, c1 in denominator.items()
            for k2, c2 in local.items()
        }
    coeffs = []
    for level in _exterior_series(weights):
        small, big = sorted((level, denominator), key=len)
        total = sum(c * big.get(k, 0) for k, c in small.items())
        coeffs.append(_divide_by_weyl_order(total, group))
    return IntPoly(coeffs)
