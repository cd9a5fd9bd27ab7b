"""Isolation tests for cohomological representations.

Two notions are covered. Isolation in the unitary dual is decided by
searching for parameters whose skew cell sets differ from the given one in
a single cell (two cells for the orthogonal family, whose shapes can only
change symmetrically). Isolation among the parameters with invariant
vectors at infinity ("degree zero" spectrum) only looks at enlargements of
the cell set. In both cases the verdict carries the list of offending
neighbor parameters, so an empty witness list is equivalent to isolation.
The search merges the sorted labels of the neighbor cell sets that some
parameter carries. A sweep over a group looks its finished verdicts up in
the group's neighbor table, built once per group; `verdicts` decodes and
merges the neighbors of one parameter instead, which suits one query.

The unitary family also has a closed-form criterion on the rectangles of
the skew shape; it is implemented separately so the two can be compared.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations_with_replacement, compress, product
from math import comb, prod
from typing import NamedTuple

from .errors import DomainError, WrongFamily
from .partitions import brackets, follows
from .reps import CohRep, Family, Memo, collector_paused, enumerate_reps


class IsolationVerdict(NamedTuple):
    isolated: bool
    witnesses: tuple
    criterion: str


_ISOLATED = IsolationVerdict(True, (), "search")  # every isolated verdict is one object
_EXPLICIT_ISOLATED = IsolationVerdict(True, (), "explicit")


@lru_cache(maxsize=None)  # one entry per group, like the unbounded _enumerate_cached
@collector_paused()  # all it builds stays in the table, like _enumerate_cached
def _index(kind: str, p: int, q: int):
    """The neighbor table of a group: each cell bitmask its parameters carry
    mapped to the finished verdicts of its searches under all flips, under
    those that add cells, and if it has a flag-0 block (`_block`) the same
    two over the neighbors with that same block, whose `_0` labels are built
    once per table, so every sweep only looks its verdict up. Sp reads the
    unitary table, which holds the same pairs."""
    labels, names = {}, Memo(brackets)
    for rep in enumerate_reps(Family(kind, p, q)):
        lam = names[rep.lam]
        body = lam if kind == "O" else f"{lam}|{names[rep.mu]}"
        labels.setdefault(rep.skew.cells, []).append(f"A[{body}]")
    labels = {cells: tuple(sorted(v)) for cells, v in labels.items()}
    blocks = {} if kind == "O" else {c: b for c in labels if (b := _block(p, q, c))}
    # Rows of carried masks are intervals, so a flip between two takes from
    # the larger only cells ending its rows: each pair is found once, there.
    inner = sum(((1 << q) - 1 >> 2 << 1) << r * q for r in range(p))  # columns 2..q-1
    pair, table = {f & -f: f for f in _flips(p, q, kind == "O")}, {cells: [] for cells in labels}
    for big in labels:
        ends = big & ~(big << 1 & big >> 1 & inner)
        while ends:
            flip = pair.get(ends & -ends)  # with this end as its lowest cell, if any
            ends &= ends - 1
            if flip and (small := big ^ flip) in labels:
                table[big].append(small)
                table[small].append(big)
    zeros = {cells: tuple(label + "_0" for label in labels[cells]) for cells in blocks}
    for cells, found in table.items():
        table[cells] = _merge(cells, found, list(map(labels.get, found)))
        if block := blocks.get(cells):  # only a neighbor with the same block interferes
            kept = [n for n in found if blocks.get(n) == block]
            table[cells] += _merge(cells, kept, list(map(zeros.get, kept)), block)
    return table


def _flips(p: int, q: int, orth: bool) -> tuple:
    """Bitmasks of each cell of the p x q box, or for O of each pair of
    cells mirrored through its centre: an O cell set is centrally
    symmetric, and a box has at most one self-mirrored cell, so no other
    two-cell flip can land on one."""
    n = p * q
    if orth:
        return tuple(1 << i | 1 << n - 1 - i for i in range(n // 2))
    return tuple(1 << i for i in range(n))


# The witnesses a decoded search lists at most. They grow like 4^n: 12 012
# sit next to the empty skew of U(7,7), 218 790 next to that of U(9,9) and
# about 1.4e11 next to a one-cell skew of U(20,20). The 74 256 next to the
# empty skew of U(6,12), listed once for both searches, take 0.7 s and 46 MB
# in a fresh CLI process on 2 vCPUs.
MAX_WITNESSES = 100_000

# The boxes a decoded search takes on. It builds a mask of the pq cells for
# each cell, (pq)^2 / 8 bytes a list, and reads the p rows of each, so past
# MAX_CELLS cells or MAX_ROW_READS row reads (p * pq) it is refused before
# any mask is built. At the bounds, U(100,100) and U(1000,1) with lam = mu
# = () take 0.5 and 0.7 s and 36 MB in a fresh CLI process on 2 vCPUs.
MAX_CELLS = 10_000
MAX_ROW_READS = 1_000_000


def _shape(kind: str, p: int, q: int, cells: int):
    """The rows of every parameter whose skew has this cell bitmask, as
    (rows, runs), or None when no parameter has it.

    A nonempty row must be one interval, which fixes (lam_r, mu_r) =
    rows[r]. An empty row (x, x] is None in rows, and a run (r, k, top,
    bottom) of k of them from row r takes the weakly decreasing x with
    bottom <= x <= top: top is lam of the row above, or q, and bottom mu of
    the row below. Rows that touch must satisfy `follows`. An O cell set is
    centrally symmetric and mu is the complement of lam, so O keeps its
    upper p // 2 rows and, for odd p, its middle row (x, q - x]. Under the
    last row kept lies a floor: the empty (0, 0] for U and odd p; for even
    p the mirror of the last upper row, which for an empty (x, x] is
    (q - x, q - x] and follows it when x >= (q + 1) // 2.
    """
    full, floor, rows = (1 << q) - 1, (0, 0), []
    for r in range(p):
        row = cells >> r * q & full
        lo, hi = (row & -row).bit_length() - 1, row.bit_length()
        if row and row != (1 << hi) - (1 << lo):
            return None
        rows.append((lo, hi) if row else None)
    if kind == "O":
        if rows != [row and (q - row[1], q - row[0]) for row in reversed(rows)]:
            return None
        half = p // 2
        if p % 2 and rows[half] is None:  # an empty middle row is (q/2, q/2]
            if q % 2:
                return None
            rows[half] = (q // 2, q // 2)
        if not p % 2:
            floor = rows[half] or ((q + 1) // 2,) * 2
        rows = rows[: half + p % 2]
    runs, above, start = [], (q, q), 0
    for r, row in enumerate([*rows, floor]):
        if row is None:
            continue
        if r > start:
            if above[0] < row[1]:
                return None
            runs.append((start, r - start, above[0], row[1]))
        elif not follows(above, row):
            return None
        above, start = row, r + 1
    return rows, runs


def _count(shape) -> int:
    """The number of parameters a shape holds: a product of
    C(top - bottom + k, k) over its runs of empty rows."""
    return prod(comb(top - bottom + k, k) for _, k, top, bottom in shape[1]) if shape else 0


def _labels(kind: str, p: int, q: int, shape) -> tuple:
    """The sorted witness labels of the parameters a shape holds."""
    if shape is None:
        return ()
    rows, runs = shape
    lam, mu = [row[0] if row else 0 for row in rows], [row[1] if row else 0 for row in rows]
    fills = [combinations_with_replacement(range(top, bottom - 1, -1), k) for _, k, top, bottom in runs]
    labels = []
    for xs in product(*fills):
        for (start, k, _, _), run in zip(runs, xs):
            lam[start : start + k] = mu[start : start + k] = run
        if kind == "O":  # the lower rows mirror the upper ones
            whole = lam + [q - x for x in reversed(mu[: p // 2])]
            labels.append(f"A[{brackets([x for x in whole if x])}]")
        else:
            labels.append(f"A[{brackets([x for x in lam if x])}|{brackets([x for x in mu if x])}]")
    return tuple(sorted(labels))


def witness_count(kind: str, p: int, q: int, cells: int) -> int:
    """The number of parameters of U(p,q), or of O(p,q) for kind "O", whose
    skew has this cell bitmask, without listing them: a product of
    C(top - bottom + k, k) over the runs of empty rows. Sp holds the pairs
    of U."""
    return _count(_shape(kind, p, q, cells))


def decode(kind: str, p: int, q: int, cells: int) -> tuple:
    """The sorted witness labels, A[lam|mu] or for O A[lam], of the
    parameters whose skew has this cell bitmask; see witness_count."""
    return _labels(kind, p, q, _shape(kind, p, q, cells))


def _block(p: int, q: int, cells: int):
    """The flag-0 block (a, b) of a cell mask of the p x q box, in rows
    p-a+1..p, columns 1..b: its bottom a rows are (0, b], b > 0, and the
    row above is not. None when the bottom row is not (0, b]."""
    row = cells >> (p - 1) * q
    if not row or row & row + 1:
        return None
    differ = (cells ^ cells >> q) & (1 << (p - 1) * q) - 1  # each upper row XOR the one below
    return p - 1 - (differ.bit_length() - 1) // q, row.bit_length()


def _merge(cells: int, neighbors: list, runs: list, block=None) -> tuple:
    """The search verdicts of a mask under all flips and under those adding
    cells, from the sorted label run of each neighbor mask; for a flag-0
    `block`, whose labels end in `_0`, the first also needs the block big
    enough."""
    # A label belongs to one bitmask, so the runs of distinct neighbors are
    # disjoint, and sorting their concatenation merges the sorted runs.
    dual = sorted(chain.from_iterable(runs))
    if block and sum(block) < 3:  # after the labels, which start "A["
        dual.append(
            "the quaternionic block is {}x{}; isolation needs its side lengths "
            "to sum to at least 3".format(*block)
        )
    grown = compress(runs, map(cells.__lt__, neighbors))
    found = tuple(dual), tuple(sorted(chain.from_iterable(grown)))
    return tuple(IsolationVerdict(False, wits, "search") if wits else _ISOLATED for wits in found)


def _sweep(rep: CohRep, kind: str, grow_only=False) -> IsolationVerdict:
    """The verdict the table of `rep`'s group holds for it: one lookup."""
    return _index(kind, rep.family.p, rep.family.q)[rep.skew.cells][grow_only + 2 * (rep.flag == 0)]


def _require(rep: CohRep, kind: str) -> None:
    if rep.family.kind != kind:
        raise WrongFamily(f"this criterion applies to the {kind} family, not {rep.family.kind}")


def isolated_U_search(rep: CohRep) -> IsolationVerdict:
    """Unitary-dual isolation by exhausting one-box neighbors. The first call
    on a group builds its table (U(2,40): about 2 s); one query: `verdicts`."""
    _require(rep, "U")
    return _sweep(rep, "U")


def isolated_U_explicit(rep: CohRep) -> IsolationVerdict:
    """Unitary-dual isolation from the shape of the parameters alone.

    Draw the boundary paths of both partitions inside the p x q box. The
    representation is isolated exactly when every rectangle of the skew
    shape is at least 2x2 and the two paths never turn at a common point,
    which can only lie on an empty row (x, x]. Since lam lies inside mu,
    both leave column x below that row when mu does, and both drop to it
    above the row when lam does. Above the box lam reads q and below it mu
    reads 0, so a crossing of the top or bottom edge counts as a turn, and
    a path merging into the left wall or leaving the right wall does not.
    Witness strings describe the violated condition; calls share their text
    and the verdict of every isolated rep.
    """
    _require(rep, "U")
    lam, mu = rep.lam, rep.mu
    # Rows 1..len(lam) are empty where lam_i = mu_i, the rest down to
    # len(mu) are not, and lam can only drop to row len(mu) + 1, at 0.
    turns, above = [], rep.family.q  # lam above the box reads q
    for i, (x, y) in enumerate(zip(lam, mu), 1):
        if x == y:
            leave, drop = _TURNS[x, i]
            if i == len(mu) or mu[i] < x:
                turns.append(leave)
            if above > x:
                turns.append(drop)
        above = x
    if len(lam) == len(mu) < rep.family.p:
        turns.append(_TURNS[0, len(mu) + 1][1])
    wits = _STRIPS[rep.skew.rectangles] + tuple(turns)
    return IsolationVerdict(False, wits, "explicit") if wits else _EXPLICIT_ISOLATED


_STRIPS = Memo(
    lambda rects: tuple(
        f"rectangle {i} has size {a}x{b}, a strip of width 1"
        for i, (a, b) in enumerate(rects, 1) if min(a, b) < 2
    )
)
_TURNS = Memo(  # keyed by (column, row)
    lambda at: (
        "both paths leave column {} below row {}".format(*at),
        "both paths drop to column {} above row {}".format(*at),
    )
)


def isolated_O(rep: CohRep) -> IsolationVerdict:
    """Unitary-dual isolation for the orthogonal family (two-box search). The
    first call on a group builds its table (U(2,40): about 2 s); one query:
    `verdicts`."""
    _require(rep, "O")
    return _sweep(rep, "O")


def isolated_Sp(rep: CohRep) -> IsolationVerdict:
    """Unitary-dual isolation for the quaternionic family.

    With flag 1 the search runs over all compatible pairs at one-box
    distance. With flag 0 only neighbors that themselves carry flag 0 with
    the same quaternionic block can interfere, but the block must also be
    big enough on its own. The first call on a group builds the table of
    U(p,q) (U(2,40): about 2 s); one query: `verdicts`.
    """
    _require(rep, "Sp")
    return _sweep(rep, "U")


def isolated_d0(rep: CohRep) -> IsolationVerdict:
    """Isolation among parameters contributing to the degree-zero spectrum.

    Only enlargements of the skew cell set matter here: one extra box for
    the unitary and quaternionic families, two for the orthogonal one. The
    first call on a group builds its table (U(2,40): about 2 s); one query:
    `verdicts`.
    """
    return _sweep(rep, "O" if rep.family.kind == "O" else "U", grow_only=True)


def verdicts(rep: CohRep) -> tuple:
    """(unitary_dual, explicit, degree_zero) of one parameter: the verdicts
    of isolated_U_search, isolated_O or isolated_Sp, of isolated_U_explicit
    (None outside U) and of isolated_d0.

    Both searches merge one run per flip, in flip order, decoded once from
    the parameter's own neighbor masks: no group is enumerated and no mask
    hashed, which suits one query, while the functions above share a table
    per group and suit a sweep. DomainError is raised for a box past
    MAX_CELLS or MAX_ROW_READS, before any neighbor is built, and when the
    neighbors carry more than MAX_WITNESSES witnesses, before any is listed.
    """
    kind, p, q = rep.family
    if p * q > MAX_CELLS or p * p * q > MAX_ROW_READS:
        raise DomainError(
            f"a decoded search of {kind}({p},{q}) flips {p * q} cells and reads "
            f"{p * p * q} rows, more than the {MAX_CELLS} cells or "
            f"{MAX_ROW_READS} rows that it takes on"
        )
    neighbors = list(map(rep.skew.cells.__xor__, _flips(p, q, kind == "O")))
    block = rep.flag == 0 and rep.skew.rectangles[-1]
    if block:  # only a neighbor with the same block interferes
        neighbors = [n for n in neighbors if _block(p, q, n) == block]
    shapes = [_shape(kind, p, q, n) for n in neighbors]
    count = sum(map(_count, shapes))
    if count > MAX_WITNESSES:
        raise DomainError(
            f"the neighbors of this parameter carry {count} witnesses, more than "
            f"the {MAX_WITNESSES} that a decoded search lists"
        )
    runs = [_labels(kind, p, q, shape) for shape in shapes]
    if block:  # no label is a prefix of another, so suffixed they stay sorted
        runs = [tuple(label + "_0" for label in run) for run in runs]
    dual, d0 = _merge(rep.skew.cells, neighbors, runs, block)
    explicit = isolated_U_explicit(rep) if kind == "U" else None
    return dual, explicit, d0


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
