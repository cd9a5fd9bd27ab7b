"""Young-diagram combinatorics inside a p x q box.

Partitions are stored as tuples of weakly decreasing positive integers
(canonical form strips trailing zeros). Box cells are addressed 1-based as
(row, col) with row 1 at the top, matching the usual English drawing of a
diagram. A skew shape mu/lambda that splits into rectangles meeting at most
in corner points is the combinatorial backbone of everything downstream, so
the decomposition routine here is the most heavily checked code in the
package.
"""

from __future__ import annotations

import json
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import (
    BoxOverflow,
    NotCompatible,
    NotNested,
    NotOrthogonal,
    PalindromeViolation,
)

Partition = tuple  # tuple of ints, weakly decreasing, no trailing zeros
BoxSet = frozenset  # frozenset of (row, col), 1-based


def canonical(parts: Sequence[int]) -> Partition:
    """Validate a part sequence and strip trailing zeros.

    Raises ValueError for a part that is not an int (bools included),
    negative parts or an increasing step; zeros may only appear at the
    tail.
    """
    parts = tuple(parts)
    for i, x in enumerate(parts):
        if type(x) is not int:
            raise ValueError(f"parts must be integers, got {x!r}")
        if x < 0:
            raise ValueError(f"negative part {x}")
        if i and parts[i - 1] < x:
            raise ValueError(f"parts must be weakly decreasing, got {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def weight(lam: Partition) -> int:
    return sum(lam)


def length(lam: Partition) -> int:
    return len(lam)


def conjugate(lam: Partition) -> Partition:
    """Diagonal transpose of the diagram."""
    lam = canonical(lam)
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > c) for c in range(lam[0]))


def fits_in_box(lam: Partition, p: int, q: int) -> bool:
    lam = canonical(lam)
    return len(lam) <= p and (not lam or lam[0] <= q)


def _require_in_box(lam: Partition, p: int, q: int) -> Partition:
    lam = canonical(lam)
    if not fits_in_box(lam, p, q):
        raise BoxOverflow(f"partition {lam} does not fit in a {p}x{q} box")
    return lam


def complement(lam: Partition, p: int, q: int) -> Partition:
    """180-degree rotated complement of lam inside the p x q box."""
    padded = _padded(_require_in_box(lam, p, q), p)
    return canonical(tuple(q - padded[p - 1 - i] for i in range(p)))


def contains(inner: Partition, outer: Partition) -> bool:
    """Diagram containment: every row of inner fits inside outer's row."""
    inner = canonical(inner)
    outer = canonical(outer)
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def skew_box_set(lam: Partition, mu: Partition, p: int, q: int) -> BoxSet:
    """The cell set {(r, c) : lam_r < c <= mu_r} of the skew shape mu/lam."""
    lam = canonical(lam)
    mu = _require_in_box(mu, p, q)
    if not contains(lam, mu):
        raise NotNested(f"{lam} is not contained in {mu}")
    cells = set()
    for r in range(1, p + 1):
        lo = lam[r - 1] if r <= len(lam) else 0
        hi = mu[r - 1] if r <= len(mu) else 0
        for c in range(lo + 1, hi + 1):
            cells.add((r, c))
    return frozenset(cells)


class Rectangle(NamedTuple):
    rows: int
    cols: int


class SkewDecomposition(NamedTuple):
    """Rectangles of a compatible skew shape, top-right block first.

    anchors[i] is the 1-based (row, col) of rectangle i's top-left cell.
    cells is the absolute cell set of the whole skew shape as a bitmask of
    the p x q box: bit (r - 1) * q + (c - 1) stands for cell (r, c).
    """

    rectangles: tuple
    anchors: tuple
    cells: int

    @property
    def boxes(self) -> BoxSet:
        """The cell set as a frozenset of (row, col), read off the rectangles."""
        return frozenset(
            (r, c)
            for (a, b), (r0, c0) in zip(self.rectangles, self.anchors)
            for r in range(r0, r0 + a)
            for c in range(c0, c0 + b)
        )

    @property
    def box_count(self) -> int:
        return self.cells.bit_count()


def _skew_runs(lam_pad: tuple, mu_pad: tuple) -> Optional[list]:
    """The rectangles of mu/lam as row runs, or None if the pair is not compatible.

    The compatibility rule, trusting its input: the rows are padded to the
    box height, lam_pad is a partition and mu_pad contains it. Row r of the
    skew occupies the column interval (lam_r, mu_r]. Two consecutive
    nonempty rows belong to one rectangle exactly when their intervals
    coincide; if the intervals overlap without being equal, some connected
    component is not a rectangle. Rows with disjoint intervals start a new
    rectangle strictly down and to the left, touching the previous one in
    at most a corner. A run is (first_row, last_row, lo, hi), 1-based rows,
    columns in (lo, hi].
    """
    runs = []
    for r, (lo, hi) in enumerate(zip(lam_pad, mu_pad), start=1):
        if lo == hi:
            continue
        if runs and runs[-1][1] == r - 1:  # the row above is nonempty
            first, _, above_lo, above_hi = runs[-1]
            if (above_lo, above_hi) == (lo, hi):
                runs[-1] = (first, r, lo, hi)
                continue
            # Intervals weakly shrink leftwards down the rows, so the row
            # above meets this one iff it starts strictly left of this
            # one's right end.
            if above_lo < hi:
                return None
        runs.append((r, r, lo, hi))
    return runs


def _decomposition(runs, q: int) -> SkewDecomposition:
    """The SkewDecomposition of a sequence of row runs in a box of width q."""
    cells = 0
    for a, b, lo, hi in runs:
        row = (1 << hi) - (1 << lo)  # columns lo + 1 .. hi
        for r in range(a - 1, b):
            cells |= row << r * q
    return SkewDecomposition(
        rectangles=tuple(Rectangle(b - a + 1, hi - lo) for a, b, lo, hi in runs),
        anchors=tuple((a, lo + 1) for a, b, lo, hi in runs),
        cells=cells,
    )


def _padded(lam: Partition, p: int) -> tuple:
    return lam + (0,) * (p - len(lam))


def rectangle_decomposition(
    lam: Partition, mu: Partition, p: int, q: int
) -> SkewDecomposition:
    """Split mu/lam into maximal rectangles or raise NotCompatible."""
    lam = canonical(lam)
    mu = _require_in_box(mu, p, q)
    if not contains(lam, mu):
        raise NotNested(f"{lam} is not contained in {mu}")
    lam_pad, mu_pad = _padded(lam, p), _padded(mu, p)
    runs = _skew_runs(lam_pad, mu_pad)
    if runs is None:
        r = next(r for r in range(2, p + 1) if _skew_runs(lam_pad[:r], mu_pad[:r]) is None)
        raise NotCompatible(
            f"skew of ({lam}, {mu}) in {p}x{q}: rows {r - 1} and {r} "
            "overlap in more than a corner"
        )
    return _decomposition(runs, q)


def compatible_pairs(p: int, q: int) -> Iterator[tuple]:
    """Every compatible pair in the p x q box as (lam, mu, decomposition).

    The pairs come in (lam, mu) lex order. For each lam, mu is built row by
    row, and row r only takes values that keep the skew compatible: the
    empty row mu_r = lam_r; the rectangle above continued, mu_r = mu_(r-1),
    when row r-1 is nonempty and lam_r = lam_(r-1); or a new rectangle
    ending at most at column lam_(r-1) (q for the first row), so it starts
    strictly down and to the left of the one above. An empty row always
    fits, so every partial mu completes and the work is proportional to
    the output; no incompatible pair is ever built.
    """

    def rows(lam, edges, mu, runs):
        # edges = (q, lam_1, ..., lam_p); mu and runs cover the rows so far
        i = len(mu)
        if i == p:
            yield lam, mu[: p - mu.count(0)], _decomposition(runs, q)
            return
        lo = edges[i + 1]
        yield from rows(lam, edges, mu + (lo,), runs)
        if i and lo == edges[i] and mu[-1] > lo:
            run = (runs[-1][0], i + 1, lo, mu[-1])
            yield from rows(lam, edges, mu + (mu[-1],), runs[:-1] + (run,))
        for hi in range(lo + 1, edges[i] + 1):
            yield from rows(lam, edges, mu + (hi,), runs + ((i + 1, i + 1, lo, hi),))

    for lam in enumerate_partitions_in_box(p, q):
        yield from rows(lam, (q,) + _padded(lam, p), (), ())


def is_compatible(lam: Partition, mu: Partition, p: int, q: int) -> bool:
    try:
        rectangle_decomposition(lam, mu, p, q)
    except (BoxOverflow, NotNested, NotCompatible, ValueError):
        return False
    return True


class OrthogonalDecomposition(NamedTuple):
    """Palindrome data of the skew shape of (lam, complement(lam)).

    pairs lists the mirrored rectangles from the outside in (each shown
    once), center is the self-paired middle block, recorded as a plain
    (rows, cols) tuple which may be (0, 0) when the pairs exhaust the shape.
    """

    skew: SkewDecomposition
    pairs: tuple
    center: tuple


def orthogonal_decomposition(lam: Partition, p: int, q: int) -> OrthogonalDecomposition:
    lam = _require_in_box(lam, p, q)
    mu = complement(lam, p, q)
    if not contains(lam, mu):
        raise NotOrthogonal(
            f"{lam} is not contained in its complement {mu} in {p}x{q}"
        )
    try:
        skew = rectangle_decomposition(lam, mu, p, q)
    except NotCompatible as exc:
        raise NotOrthogonal(str(exc)) from exc
    return _palindrome(lam, skew, p, q)


def _palindrome(
    lam: Partition, skew: SkewDecomposition, p: int, q: int
) -> OrthogonalDecomposition:
    rects, anchors = skew.rectangles, skew.anchors
    m = len(rects)
    # The skew of (lam, complement(lam)) is centrally symmetric, so the
    # rectangle list must read the same from both ends and each anchor must
    # map onto its partner under 180-degree rotation of the box. Symmetry
    # makes a failure here impossible; the check stays as a tripwire.
    for i in range(m):
        j = m - 1 - i
        a, b = rects[i]
        r0, c0 = anchors[i]
        mirror = (p - r0 - a + 2, q - c0 - b + 2)
        if rects[j] != rects[i] or anchors[j] != mirror:
            raise PalindromeViolation(
                f"decomposition of {lam} in {p}x{q} is not palindromic: "
                f"rectangle {i} has no mirror partner"
            )
    pairs = rects[: m // 2]
    center = tuple(rects[m // 2]) if m % 2 else (0, 0)
    return OrthogonalDecomposition(skew=skew, pairs=pairs, center=center)


def orthogonal_partitions(p: int, q: int) -> Iterator[tuple]:
    """Every orthogonal lam in the p x q box as (lam, complement, decomposition).

    Lex order in lam. The padded complement is plain arithmetic on the
    padded rows, and the skew goes through the same compatibility rule as
    rectangle_decomposition; the palindrome tripwire runs on every result.
    """
    for lam in enumerate_partitions_in_box(p, q):
        lam_pad = _padded(lam, p)
        comp_pad = tuple(q - x for x in reversed(lam_pad))
        if any(x > y for x, y in zip(lam_pad, comp_pad)):
            continue
        runs = _skew_runs(lam_pad, comp_pad)
        if runs is not None:
            comp = comp_pad[: p - comp_pad.count(0)]
            yield lam, comp, _palindrome(lam, _decomposition(runs, q), p, q)


def is_orthogonal(lam: Partition, p: int, q: int) -> bool:
    try:
        orthogonal_decomposition(lam, p, q)
    except (BoxOverflow, NotOrthogonal, ValueError):
        return False
    return True


def enumerate_partitions_in_box(p: int, q: int) -> Iterator[Partition]:
    """All partitions with at most p parts, each at most q, in lex order."""
    if p < 0 or q < 0:
        raise ValueError("box dimensions must be nonnegative")

    def gen(max_part: int, slots: int) -> Iterator[Partition]:
        yield ()
        if slots:
            for first in range(1, max_part + 1):
                for rest in gen(first, slots - 1):
                    yield (first,) + rest

    return gen(q, p)


def format_partition(lam: Partition) -> str:
    """Canonical bracket form, e.g. [3,1]; the empty partition prints []."""
    return brackets(canonical(lam))


def brackets(lam: Partition) -> str:
    """The bracket form of format_partition, for a partition already in
    canonical form; nothing is checked."""
    return "[" + ",".join(map(str, lam)) + "]"


def parse_partition(text: str) -> Partition:
    """Inverse of format_partition; accepts any JSON integer array."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a partition literal: {text!r}") from exc
    if not isinstance(data, list):
        raise ValueError(f"not a partition literal: {text!r}")
    return canonical(data)
