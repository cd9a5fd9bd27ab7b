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
from dataclasses import dataclass
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
    lam = _require_in_box(lam, p, q)
    padded = lam + (0,) * (p - len(lam))
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


@dataclass(frozen=True)
class SkewDecomposition:
    """Rectangles of a compatible skew shape, top-right block first.

    anchors[i] is the 1-based (row, col) of rectangle i's top-left cell.
    boxes is the absolute cell set of the whole skew shape.
    """

    rectangles: tuple
    anchors: tuple
    boxes: BoxSet

    @property
    def box_count(self) -> int:
        return len(self.boxes)


def rectangle_decomposition(
    lam: Partition, mu: Partition, p: int, q: int
) -> SkewDecomposition:
    """Split mu/lam into maximal rectangles or raise NotCompatible.

    Row r of the skew occupies the column interval (lam_r, mu_r]. Two
    consecutive nonempty rows belong to one rectangle exactly when their
    intervals coincide; if the intervals overlap without being equal, some
    connected component is not a rectangle and the pair is rejected. Rows
    with disjoint intervals start a new rectangle strictly down and to the
    left, touching the previous one in at most a corner.
    """
    lam = canonical(lam)
    mu = _require_in_box(mu, p, q)
    if not contains(lam, mu):
        raise NotNested(f"{lam} is not contained in {mu}")
    lam_pad = lam + (0,) * (p - len(lam))
    mu_pad = mu + (0,) * (p - len(mu))

    runs = []  # (first_row, last_row, col_lo, col_hi) with cols in (lo, hi]
    prev_nonempty = None  # row index of the last nonempty row seen
    for r in range(1, p + 1):
        lo, hi = lam_pad[r - 1], mu_pad[r - 1]
        if lo == hi:
            continue
        if runs and prev_nonempty == r - 1 and (runs[-1][2], runs[-1][3]) == (lo, hi):
            runs[-1] = (runs[-1][0], r, lo, hi)
        else:
            # Intervals weakly shrink leftwards down the rows, so the
            # previous row's interval meets this one iff it starts strictly
            # left of this one's right end.
            if runs and prev_nonempty == r - 1 and runs[-1][2] < hi:
                raise NotCompatible(
                    f"skew of ({lam}, {mu}) in {p}x{q}: rows {r - 1} and {r} "
                    "overlap in more than a corner"
                )
            runs.append((r, r, lo, hi))
        prev_nonempty = r

    rectangles = tuple(Rectangle(b - a + 1, hi - lo) for a, b, lo, hi in runs)
    anchors = tuple((a, lo + 1) for a, b, lo, hi in runs)
    boxes = frozenset(
        (r, c) for a, b, lo, hi in runs for r in range(a, b + 1) for c in range(lo + 1, hi + 1)
    )
    return SkewDecomposition(rectangles=rectangles, anchors=anchors, boxes=boxes)


def is_compatible(lam: Partition, mu: Partition, p: int, q: int) -> bool:
    try:
        rectangle_decomposition(lam, mu, p, q)
    except (BoxOverflow, NotNested, NotCompatible, ValueError):
        return False
    return True


@dataclass(frozen=True)
class OrthogonalDecomposition:
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
    return "[" + ",".join(str(x) for x in canonical(lam)) + "]"


def parse_partition(text: str) -> Partition:
    """Inverse of format_partition; accepts any JSON integer array."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a partition literal: {text!r}") from exc
    if not isinstance(data, list):
        raise ValueError(f"not a partition literal: {text!r}")
    return canonical(data)
