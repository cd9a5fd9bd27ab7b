"""Degree bookkeeping for automorphic cohomology classes.

The first half computes, for a rank-n group and a divisor b of n, how far
from the middle dimension pq a class pulled up from a proper parabolic
datum can land. N(b, n, p) is the closed form of that defect; the brute
force companion maximizes over all integer vectors up to order and also
reports whether every reachable value has the same parity.

The second half tags representations by which general vanishing or
nonvanishing theorems cover them (answering either a growth question, Q1,
or a question about degrees, Q2).
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple, Optional

from .errors import DomainError, NotADivisor, SignatureMismatch
from .reps import CohRep, Memo

CONDITIONAL_NOTE = (
    "assumes every automorphic representation with cohomology comes from "
    "a parameter attached to a rational Levi subgroup (unproved)"
)


def _require_ints(names: str, *values) -> None:
    """DomainError unless every value is an int; bools are not."""
    for i, x in enumerate(values):
        if type(x) is not int:
            raise DomainError(f"{names.split()[i]} must be an integer, got {x!r}")


def N(b: int, n: int, p: int) -> int:
    """Largest defect sum over b equal groups of columns, closed form."""
    _require_ints("b n p", b, n, p)
    if b < 1 or n < 1:
        raise DomainError(f"need b, n >= 1, got b={b} n={n}")
    if n % b:
        raise NotADivisor(f"{b} does not divide {n}")
    if p < 0 or p > n:
        raise DomainError(f"need 0 <= p <= n, got p={p}")
    a = n // b
    x = p // b
    return b * x * x + (b - 2 * p) * x + (a - 1) * p


# The Lemma C walk is refused past this many parts tried: its cost follows
# its depth as well as its partitions, so a count of steps bounds it. On 2
# vCPUs a=40, b=40, p=800 and a=1, b=10^9, p=5*10^8 are refused in 0.6 to
# 0.9 s; no call of `verify lemC --max-n 100` tries over 16 000 parts.
MAX_LEMC_STEPS = 1_000_000
_REFUSED = "the walk of lemC_bruteforce({}, {}, {}) tries over {} parts"


def lemC_bruteforce(a: int, b: int, p: int):
    """Maximize sum x_i (a - x_i) over 0 <= x_i <= a with sum x_i = p.

    Returns (maximum, parity_uniform) where the flag records whether every
    achievable value of the sum has the same parity. The walk runs once per
    (a, b, p) while its memo lasts; one trying more than MAX_LEMC_STEPS
    parts is refused with DomainError, remembered or not.
    """
    _require_ints("a b p", a, b, p)
    if a < 0 or b < 1:
        raise DomainError(f"need a >= 0 and b >= 1, got a={a} b={b}")
    if p < 0 or p > a * b:
        raise DomainError(f"need 0 <= p <= a*b, got p={p}")
    best, uniform, steps = _WALKS[a, b, p]
    if steps > MAX_LEMC_STEPS:
        raise DomainError(_REFUSED.format(a, b, p, MAX_LEMC_STEPS))
    return best, uniform


def _walk(key: tuple) -> tuple:
    """(maximum, parity_uniform, parts tried) of one walk, or DomainError."""
    a, b, p = key
    # The sum ignores the order of the x_i, so only nonincreasing vectors
    # are walked: a stack holds (slots, remaining, largest part allowed, sum
    # so far), no part is below remaining / slots, zero parts add nothing.
    values, stack, steps = set(), [(b, p, a, 0)], 0
    while stack:
        slots, remaining, top, acc = stack.pop()
        if not remaining:
            values.add(acc)
            continue
        parts = range(-(-remaining // slots), min(top, remaining) + 1)
        steps += len(parts)
        if steps > MAX_LEMC_STEPS:
            raise DomainError(_REFUSED.format(a, b, p, MAX_LEMC_STEPS))
        for x in parts:
            stack.append((slots - 1, remaining - x, x, acc + x * (a - x)))
    return max(values), len({v % 2 for v in values}) == 1, steps


_WALKS = Memo(_walk)


# A larger degree support is refused, like MAX_REPS for enumeration.
MAX_DEGREES = 1_000_000
# A larger n is refused: its divisor walk would take over 10^7 steps, about
# 1 s on a 2-vCPU machine.
MAX_N = 10**14


class DegreeSet(NamedTuple):
    """Degrees reachable below and above the middle dimension pq, and the
    bands as (b, N(b, n, p)) for each divisor b > 1 of n, b ascending."""

    degrees: tuple
    center: int
    bands: tuple

    @property
    def parity(self) -> int:
        return self.center % 2

    @property
    def is_parity_uniform(self) -> bool:
        return all(d % 2 == self.parity for d in self.degrees)


def degree_support(n: int, p: int, q: int) -> DegreeSet:
    """Union over divisors b > 1 of n of the bands [pq - N(b), pq + N(b)].

    Each band steps by 2 from its own endpoints, so bands whose endpoints
    have the same parity nest and the union is the widest band of each
    parity. It need not be parity-uniform; the DegreeSet keeps the middle
    dimension around so callers can check symmetry or parity themselves.
    A support of more than MAX_DEGREES degrees is refused with DomainError
    before any degree is listed. The divisors are walked up to sqrt(n), so
    an n above MAX_N is refused with DomainError before the walk.
    """
    _require_ints("n p q", n, p, q)
    if p + q != n:
        raise SignatureMismatch(f"p + q = {p + q} does not match n = {n}")
    if not 1 <= p <= q:
        raise DomainError(f"need 1 <= p <= q, got p={p} q={q}")
    if n > MAX_N:
        raise DomainError(f"n={n} is more than the {MAX_N} whose divisors are walked")
    low = [b for b in range(1, isqrt(n) + 1) if n % b == 0]
    bands = tuple((b, N(b, n, p)) for b in low[1:] + [n // b for b in low[::-1] if b * b != n])
    widest = {w % 2: w for w in sorted(w for _, w in bands)}
    size = sum(w + 1 for w in widest.values())
    if size > MAX_DEGREES:
        raise DomainError(
            f"the degree support of n={n}, p={p}, q={q} has {size} degrees, "
            f"more than the {MAX_DEGREES} that are listed"
        )
    center = p * q
    support = sorted(d for w in widest.values() for d in range(center - w, center + w + 1, 2))
    return DegreeSet(tuple(support), center, bands)


class CoverageTag(NamedTuple):
    tag: str  # "Q1", "Q2" or "none"
    source: Optional[str]  # "LiGen", "ttt", "relth" or None


_NONE = CoverageTag("none", None)


def _flat_rows(lam, p: int) -> Optional[int]:
    """The value r when lam is (r, ..., r) with exactly p rows, else None.

    The empty partition counts as r = 0.
    """
    if not lam:
        return 0
    if len(lam) == p and lam[0] == lam[-1]:
        return lam[0]
    return None


def li_coverage(rep: CohRep) -> CoverageTag:
    """Coverage by the general nonvanishing results of Li.

    Unitary: one rectangle whose perimeter exceeds that of the box answers
    the degree question. Orthogonal and quaternionic (flag 0): a single
    large central block answers the growth question.
    """
    kind, p, q = rep.family
    if kind == "O":
        if (p + q) % 2:
            r = _flat_rows(rep.lam, p)
            covered = r is not None and 4 * r < p + q - 2
        else:  # the centre is (0, 0), which never passes, or a rectangle
            covered = not rep.orth.pairs and 2 * sum(rep.orth.center) > p + q + 2
        return CoverageTag("Q1", "LiGen") if covered else _NONE
    rects = rep.skew.rectangles
    perimeter = 2 * sum(rects[0]) if len(rects) == 1 else 0  # 0 never passes
    if kind == "U":
        return CoverageTag("Q2", "LiGen") if perimeter > p + q else _NONE
    return CoverageTag("Q1", "LiGen") if rep.flag == 0 and perimeter >= p + q else _NONE


def relth_coverage(rep: CohRep) -> CoverageTag:
    """Coverage by relative theta transfer and by the tensor tricks, read
    from the flat values r of lam and c of mu (see _flat_rows). Growth
    answers (Q1) come before degree answers (Q2), transfer before tensor.
    """
    kind, p, q = rep.family
    if kind == "Sp":  # the tensor trick's reps all pass this, so it never decides
        covered = rep.flag == 0 and not rep.lam and _flat_rows(rep.mu, p) is not None
        return CoverageTag("Q1", "relth") if covered else _NONE
    r = _flat_rows(rep.lam, p)
    if p < 2 or r is None:
        return _NONE
    if kind == "O":  # (r^p) lies in its complement ((q - r)^p): 2r <= q holds
        growth = 2 * r <= min(q - 2, p + q - 5)
        return CoverageTag("Q1", "relth") if growth else CoverageTag("Q2", "ttt")
    c = _flat_rows(rep.mu, p)
    if c is None:
        return _NONE
    if c >= r + 2:
        return CoverageTag("Q2", "relth")
    return CoverageTag("Q2", "ttt") if r + c == q else _NONE  # lam in mu: r <= c, so 2r <= q
