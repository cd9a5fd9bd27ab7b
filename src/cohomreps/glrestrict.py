"""Restriction heuristics for representations of GL(n, R).

A representation is described by unitary-induction blocks u(m, j) with an
optional complementary-series twist written u(m, j)[alpha], alpha a rational
strictly between 0 and 1/2. The block contributes one ladder of j evenly
spaced exponents, repeated m times (and duplicated with shifts +alpha and
-alpha when twisted). Concatenating and sorting all entries produces the
exponent vector T of the representation.

Restriction from GL(n) to GL(m) is predicted by aligning T against the
half-sum vectors of the two groups and keeping m of the n slots, then
clipping negative entries to zero. Two reasonable alignments exist (keep
the outermost slots, or keep the top ones) and they do not always agree;
both are exposed and the disagreement is reported rather than hidden.

All arithmetic uses Fraction, so every comparison downstream is exact.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import BadRank, DomainError, WrongFamily

_BLOCK_RE = re.compile(r"^u\((\d+),(\d+)\)(?:\[(\d+)/(\d+)\])?$")


class GLBlock(namedtuple("GLBlock", "m j alpha")):
    """u(m, j), twisted by alpha when alpha is not None."""

    __slots__ = ()

    def __new__(cls, m: int, j: int, alpha: Optional[Fraction] = None):
        exact_alpha = alpha is None or type(alpha) is Fraction
        if type(m) is not int or type(j) is not int or not exact_alpha:
            raise DomainError(f"u({m!r},{j!r})[{alpha!r}] needs int sizes and a Fraction twist")
        if m not in (1, 2):
            raise DomainError(f"block multiplicity must be 1 or 2, got {m}")
        if j < 1:
            raise DomainError(f"block length must be positive, got {j}")
        if alpha is not None and not 0 < alpha < Fraction(1, 2):
            raise DomainError(
                f"twist must lie strictly between 0 and 1/2, got {alpha}"
            )
        return super().__new__(cls, m, j, alpha)

    @property
    def size(self) -> int:
        return self.m * self.j * (2 if self.alpha is not None else 1)

    def exponents(self):
        ladder = [Fraction(self.j - 1, 2) - k for k in range(self.j)]
        out = []
        for x in ladder:
            if self.alpha is None:
                out.extend([x] * self.m)
            else:
                out.extend([x + self.alpha] * self.m)
                out.extend([x - self.alpha] * self.m)
        return out


class GLRep(NamedTuple):
    blocks: tuple

    @property
    def n(self) -> int:
        return sum(b.size for b in self.blocks)


def parse_glrep(text: str) -> GLRep:
    """Parse block syntax like "u(1,3)+u(2,2)[1/3]" into a GLRep."""
    blocks = []
    for chunk in text.replace(" ", "").split("+"):
        match = _BLOCK_RE.match(chunk)
        if not match:
            raise DomainError(f"cannot parse block {chunk!r}")
        m, j, num, den = match.groups()
        if den is not None and int(den) == 0:
            raise DomainError(f"twist denominator is zero in block {chunk!r}")
        alpha = Fraction(int(num), int(den)) if num is not None else None
        blocks.append(GLBlock(int(m), int(j), alpha))
    if not blocks:
        raise DomainError("empty block list")
    return GLRep(tuple(blocks))


def rho(n: int):
    """Half-sum vector ((n-1)/2, (n-3)/2, ..., (1-n)/2) of GL(n)."""
    if type(n) is not int or n < 1:
        raise BadRank(f"need an int n >= 1, got {n!r}")
    return tuple(Fraction(n - 1, 2) - k for k in range(n))


# A larger n is refused by t_matrix; restricting GL(20 000) takes about 1 s
# on a 2-vCPU machine, and the time grows linearly with n.
MAX_RANK = 20_000


def t_matrix(rep: GLRep):
    """All block exponents of the representation, sorted downwards. A rep
    of GL(n) with n above MAX_RANK is refused with DomainError before any
    exponent is built."""
    if rep.n > MAX_RANK:
        raise DomainError(f"GL({rep.n}) is larger than the GL({MAX_RANK}) whose exponents are built")
    out = []
    for block in rep.blocks:
        out.extend(block.exponents())
    return tuple(sorted(out, reverse=True))


def pad_rho(m: int, n: int):
    """rho(m) stretched to length n: positives up top, negatives at the
    bottom, zeros in between."""
    if type(m) is not int or type(n) is not int or not 1 <= m <= n:
        raise BadRank(f"need ints 1 <= m <= n, got m={m!r} n={n!r}")
    half = m // 2
    rm = rho(m)
    return rm[:half] + (Fraction(0),) * (n - 2 * half) + rm[m - half :]


def _exact(x) -> Fraction:
    """x as a Fraction; only ints and Fractions are exact inputs."""
    if type(x) not in (int, Fraction):
        raise DomainError(f"{x!r} is not an int or a Fraction")
    return Fraction(x)


def restrict_prediction(T, m: int, mode: str = "outer"):
    """Predicted exponent vector of the restriction to GL(m).

    The vector T - rho(n) + pad_rho(m, n) is reduced to m entries either by
    keeping the outermost slots (default) or the top ones, after which
    negative entries are clipped to zero. No re-sorting happens, so a
    prediction exposes any failure of interlacing on purpose.
    """
    T = tuple(map(_exact, T))
    n = len(T)
    if type(m) is not int or not 1 <= m <= n:
        raise BadRank(f"cannot restrict length {n} to length {m!r}")
    if mode not in ("outer", "top"):
        raise DomainError(f"unknown clip mode {mode!r}")
    rn = rho(n)
    padded = pad_rho(m, n)
    v = [T[i] - rn[i] + padded[i] for i in range(n)]
    if mode == "top":
        kept = v[:m]
    else:
        head = (m + 1) // 2
        tail = m - head
        kept = v[:head] + (v[n - tail :] if tail else [])
    return tuple(max(x, Fraction(0)) for x in kept)


def prediction_modes_disagree(T, m: int) -> bool:
    return restrict_prediction(T, m, "outer") != restrict_prediction(T, m, "top")


def rho_rank1(kind: str, n: int) -> Fraction:
    """Half-sum size for the rank-one groups SU(n,1) and SO(n,1)."""
    if type(n) is not int or n < 1:
        raise BadRank(f"need an int n >= 1, got {n!r}")
    if kind == "SU":
        return Fraction(n)
    if kind == "SO":
        return Fraction(n - 1, 2)
    raise WrongFamily(f"rank-one half-sums cover SU and SO, not {kind!r}")


def hyp_transfer(rho_G: Fraction, rho_H: Fraction, eps: Fraction) -> Fraction:
    """Push a spectral-gap bound through a rank-one embedding H < G."""
    rho_G, rho_H, eps = _exact(rho_G), _exact(rho_H), _exact(eps)
    if not rho_G >= rho_H > 0:
        raise DomainError(f"need rho_G >= rho_H > 0, got {rho_G}, {rho_H}")
    if eps < 0:
        raise DomainError(f"need eps >= 0, got {eps}")
    return rho_G - rho_H + eps


def hyp_chain_epsilon(n: int) -> Fraction:
    """Bound for SU(n,1) obtained by iterating hyp_transfer from SU(2,1).

    The seed value at n = 2 is 4/5; each step up the chain adds exactly 1,
    so the result is n - 6/5.
    """
    if type(n) is not int or n < 2:
        raise DomainError(f"the chain starts at the int n = 2, got {n!r}")
    eps = Fraction(4, 5)
    for k in range(3, n + 1):
        eps = hyp_transfer(rho_rank1("SU", k), rho_rank1("SU", k - 1), eps)
    return eps


def rel_threshold_met(rho_L0, rho_restriction, eps) -> bool:
    """Strict comparison 2 * rho_L0 - rho_restriction > eps."""
    rho_L0, rho_restriction, eps = _exact(rho_L0), _exact(rho_restriction), _exact(eps)
    if rho_L0 <= 0 or rho_restriction < 0 or eps < 0:
        raise DomainError("half-sums must be positive and eps nonnegative")
    return 2 * rho_L0 - rho_restriction > eps


class RepkaResult(NamedTuple):
    kind: str  # "tempered" or "complementary"
    parameter: Optional[Fraction]


def repka_diagonal(r, s) -> RepkaResult:
    """Diagonal restriction of a pair of complementary series of SL(2, R).

    Parameters r and s must lie strictly between 0 and 1. The restriction
    stays tempered when r + s <= 1 and otherwise meets exactly one
    complementary series, with parameter r + s - 1.
    """
    r, s = _exact(r), _exact(s)
    if not (0 < r < 1 and 0 < s < 1):
        raise DomainError(f"need 0 < r, s < 1, got r={r} s={s}")
    if r + s <= 1:
        return RepkaResult("tempered", None)
    return RepkaResult("complementary", r + s - 1)
