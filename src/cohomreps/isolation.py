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
from itertools import chain, combinations
from typing import NamedTuple

from .errors import DomainError, WrongFamily
from .reps import BracketNames, CohRep, Family, admits_flag_zero, enumerate_reps


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


@lru_cache(maxsize=None)  # one entry per box, built by its first flag-0 search
def _flag_zero_index(p: int, q: int):
    """Map each last rectangle to a map from the cell bitmasks of the pairs
    admitting flag 0 that end in it to their sorted flag-0 labels."""
    index, names = {}, BracketNames()
    for rep in enumerate_reps(Family("U", p, q)):
        if admits_flag_zero(rep.lam, rep.mu, p):
            runs = index.setdefault(rep.skew.rectangles[-1], {})
            runs.setdefault(rep.skew.cells, []).append(f"A[{names[rep.lam]}|{names[rep.mu]}]_0")
    return {block: {k: tuple(sorted(v)) for k, v in runs.items()} for block, runs in index.items()}


# Unbounded like _index: one entry per box and move count, a tuple of pq or
# C(pq, 2) small ints (300 for the two-cell flips of a 5 x 5 box).
@lru_cache(maxsize=None)
def _flips(p: int, q: int, moves: int) -> tuple:
    """Bitmasks of every set of `moves` cells of the p x q box."""
    return tuple(sum(1 << i for i in cells) for cells in combinations(range(p * q), moves))


def _neighbors(cells: int, p: int, q: int, moves: int, grow_only: bool) -> list:
    """Cell bitmasks of the p x q box that differ from `cells` in exactly
    `moves` cells, or that add `moves` cells to it when growing."""
    flips = _flips(p, q, moves)
    if grow_only:
        return [cells | f for f in flips if not cells & f]
    return [cells ^ f for f in flips]


def _search(rep: CohRep, grow_only=False, block=None, extra=()) -> IsolationVerdict:
    """Collect the parameters at one-box distance (two for O) from `rep`.

    With a block, only neighbors admitting flag 0 whose last rectangle is
    that block count, labelled as flag 0; `extra` adds condition strings.
    """
    kind, p, q = rep.family.kind, rep.family.p, rep.family.q
    orth = kind == "O"
    index = _index("O" if orth else "U", p, q) if block is None else _flag_zero_index(p, q)[block]
    neighbors = _neighbors(rep.skew.cells, p, q, 2 if orth else 1, grow_only)
    # A label belongs to one bitmask, so the runs of distinct neighbors are
    # disjoint, and sorting their concatenation merges the sorted runs.
    wits = tuple(sorted(chain(extra, *filter(None, map(index.get, neighbors)))))
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
    a, b = block = rep.skew.rectangles[-1]
    conds = ()
    if a + b < 3:
        conds = (
            f"the quaternionic block is {a}x{b}; isolation needs its "
            "side lengths to sum to at least 3",
        )
    return _search(rep, block=block, extra=conds)


def isolated_d0(rep: CohRep) -> IsolationVerdict:
    """Isolation among parameters contributing to the degree-zero spectrum.

    Only enlargements of the skew cell set matter here: one extra box for
    the unitary and quaternionic families, two for the orthogonal one.
    """
    block = rep.skew.rectangles[-1] if rep.flag == 0 else None
    return _search(rep, grow_only=True, block=block)


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
