"""Isolation tests for cohomological representations.

Two notions are covered. Isolation in the unitary dual is decided by
searching for parameters whose skew cell sets differ from the given one in
a single box (two boxes for the orthogonal family, whose shapes can only
change symmetrically). Isolation among the parameters with invariant
vectors at infinity ("degree zero" spectrum) only looks at enlargements of
the cell set. In both cases the verdict carries the list of offending
neighbor parameters, so an empty witness list is equivalent to isolation.

The unitary family also has a closed-form criterion on the rectangles of
the skew shape; it is implemented separately so the two can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import DomainError, WrongFamily
from .partitions import format_partition
from .reps import CohRep, Family, admits_flag_zero, enumerate_reps


@dataclass(frozen=True)
class IsolationVerdict:
    isolated: bool
    witnesses: tuple
    criterion: str


def _pair_label(lam, mu, flag=None) -> str:
    base = f"A[{format_partition(lam)}|{format_partition(mu)}]"
    return base if flag is None else f"{base}_{flag}"


def _orth_label(lam) -> str:
    return f"A[{format_partition(lam)}]"


@lru_cache(maxsize=None)
def _pair_index(p: int, q: int):
    """Map each skew cell set to the compatible pairs carrying it.

    Entries are (lam, mu, last_rectangle, admits_flag_zero); the last
    rectangle is None for the empty skew shape.
    """
    index = {}
    for rep in enumerate_reps(Family("U", p, q)):
        rects = rep.skew.rectangles
        last = tuple(rects[-1]) if rects else None
        index.setdefault(rep.skew.boxes, []).append(
            (rep.lam, rep.mu, last, admits_flag_zero(rep.lam, rep.mu, p))
        )
    return {k: tuple(v) for k, v in index.items()}


@lru_cache(maxsize=None)
def _orth_index(p: int, q: int):
    index = {}
    for rep in enumerate_reps(Family("O", p, q)):
        index.setdefault(rep.skew.boxes, []).append(rep.lam)
    return {k: tuple(v) for k, v in index.items()}


def _grid(p: int, q: int):
    return [(r, c) for r in range(1, p + 1) for c in range(1, q + 1)]


def _one_box_variants(boxes, p, q, grow_only=False):
    for cell in _grid(p, q):
        if cell not in boxes:
            yield boxes | {cell}
        elif not grow_only:
            yield boxes - {cell}


def _two_box_variants(boxes, p, q, grow_only=False):
    outside = [c for c in _grid(p, q) if c not in boxes]
    for pair in combinations(outside, 2):
        yield boxes | set(pair)
    if grow_only:
        return
    for pair in combinations(sorted(boxes), 2):
        yield boxes - set(pair)
    for cin in sorted(boxes):
        for cout in outside:
            yield (boxes - {cin}) | {cout}


def _require(rep: CohRep, kind: str) -> None:
    if rep.family.kind != kind:
        raise WrongFamily(
            f"this criterion applies to the {kind} family, "
            f"not {rep.family.kind}"
        )


def isolated_U_search(rep: CohRep) -> IsolationVerdict:
    """Unitary-dual isolation by exhausting one-box neighbors."""
    _require(rep, "U")
    p, q = rep.family.p, rep.family.q
    index = _pair_index(p, q)
    witnesses = set()
    for variant in _one_box_variants(rep.skew.boxes, p, q):
        for lam, mu, _, _ in index.get(frozenset(variant), ()):
            witnesses.add(_pair_label(lam, mu))
    wits = tuple(sorted(witnesses))
    return IsolationVerdict(not wits, wits, "search")


def isolated_U_explicit(rep: CohRep) -> IsolationVerdict:
    """Unitary-dual isolation from the shape of the parameters alone.

    Draw the boundary paths of both partitions inside the p x q box. The
    representation is isolated exactly when every rectangle of the skew
    shape is at least 2x2 and the two paths never turn at a common point.
    Crossings of the top and bottom edges of the box count as turns, which
    the sentinels q+1 and -1 below arrange. A turn where a path merges
    into the left wall, or leaves the right wall, is not a genuine corner
    and is ignored. Witness strings describe the violated condition.
    """
    _require(rep, "U")
    p, q = rep.family.p, rep.family.q
    witnesses = []
    for i, (a, b) in enumerate(rep.skew.rectangles):
        if min(a, b) < 2:
            witnesses.append(
                f"rectangle {i + 1} has size {a}x{b}, a strip of width 1"
            )
    lam_pad = [q + 1] + list(rep.lam) + [0] * (p - len(rep.lam)) + [-1]
    mu_pad = [q + 1] + list(rep.mu) + [0] * (p - len(rep.mu)) + [-1]
    for i in range(1, p + 1):
        x = lam_pad[i]
        if x != mu_pad[i]:
            continue
        if x > 0 and lam_pad[i + 1] < x and mu_pad[i + 1] < x:
            witnesses.append(
                f"both paths leave column {x} below row {i}"
            )
        if x < q and lam_pad[i - 1] > x and mu_pad[i - 1] > x:
            witnesses.append(
                f"both paths drop to column {x} above row {i}"
            )
    wits = tuple(witnesses)
    return IsolationVerdict(not wits, wits, "explicit")


def isolated_O(rep: CohRep) -> IsolationVerdict:
    """Unitary-dual isolation for the orthogonal family (two-box search)."""
    _require(rep, "O")
    p, q = rep.family.p, rep.family.q
    index = _orth_index(p, q)
    witnesses = set()
    for variant in _two_box_variants(rep.skew.boxes, p, q):
        for lam in index.get(frozenset(variant), ()):
            witnesses.add(_orth_label(lam))
    wits = tuple(sorted(witnesses))
    return IsolationVerdict(not wits, wits, "search")


def _sp_zero_conditions(rep: CohRep):
    a, b = rep.skew.rectangles[-1]
    conds = []
    if a + b < 3:
        conds.append(
            f"the quaternionic block is {a}x{b}; isolation needs its "
            "side lengths to sum to at least 3"
        )
    return (a, b), conds


def isolated_Sp(rep: CohRep) -> IsolationVerdict:
    """Unitary-dual isolation for the quaternionic family.

    With flag 1 the search runs over all compatible pairs at one-box
    distance. With flag 0 only neighbors that themselves carry flag 0 with
    the same quaternionic block can interfere, but the block must also be
    big enough on its own.
    """
    _require(rep, "Sp")
    p, q = rep.family.p, rep.family.q
    index = _pair_index(p, q)
    witnesses = set()
    if rep.flag == 1:
        for variant in _one_box_variants(rep.skew.boxes, p, q):
            for lam, mu, _, _ in index.get(frozenset(variant), ()):
                witnesses.add(_pair_label(lam, mu))
        wits = tuple(sorted(witnesses))
        return IsolationVerdict(not wits, wits, "search")

    block, conds = _sp_zero_conditions(rep)
    witnesses.update(conds)
    for variant in _one_box_variants(rep.skew.boxes, p, q):
        for lam, mu, last, admits in index.get(frozenset(variant), ()):
            if admits and last == block:
                witnesses.add(_pair_label(lam, mu, flag=0))
    wits = tuple(sorted(witnesses))
    return IsolationVerdict(not wits, wits, "search")


def isolated_d0(rep: CohRep) -> IsolationVerdict:
    """Isolation among parameters contributing to the degree-zero spectrum.

    Only enlargements of the skew cell set matter here: one extra box for
    the unitary and quaternionic families, two for the orthogonal one.
    """
    p, q = rep.family.p, rep.family.q
    kind = rep.family.kind
    witnesses = set()
    if kind == "O":
        index = _orth_index(p, q)
        for variant in _two_box_variants(rep.skew.boxes, p, q, grow_only=True):
            for lam in index.get(frozenset(variant), ()):
                witnesses.add(_orth_label(lam))
    else:
        index = _pair_index(p, q)
        restricted = kind == "Sp" and rep.flag == 0
        block = tuple(rep.skew.rectangles[-1]) if restricted else None
        for variant in _one_box_variants(rep.skew.boxes, p, q, grow_only=True):
            for lam, mu, last, admits in index.get(frozenset(variant), ()):
                if restricted and not (admits and last == block):
                    continue
                flag = 0 if restricted else None
                witnesses.add(_pair_label(lam, mu, flag=flag))
    wits = tuple(sorted(witnesses))
    return IsolationVerdict(not wits, wits, "search")


def t1intro_inequalities(p: int, q: int, r: int) -> bool:
    """Closed inequalities matching orthogonal isolation of A((r^p)).

    The partition (r, ..., r) with p rows must fit alongside its complement,
    which is exactly the condition 2r <= q.
    """
    if p < 1 or q < 1 or r < 0 or 2 * r > q:
        raise DomainError(
            f"need p, q >= 1 and 0 <= 2r <= q, got p={p} q={q} r={r}"
        )
    return p >= 2 and q >= 2 * r + 2 and p + q >= 2 * r + 5
