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
from itertools import groupby, product
from typing import Iterator, NamedTuple, Sequence

from .errors import (
    BoxOverflow,
    DomainError,
    NotCompatible,
    NotNested,
    NotOrthogonal,
    PalindromeViolation,
)

Partition = tuple  # tuple of ints, weakly decreasing, no trailing zeros


def canonical(parts: Sequence[int]) -> Partition:
    """Validate a part sequence and strip trailing zeros.

    Raises ValueError for a part that is not an int (bools included),
    negative parts or an increasing step; zeros may only appear at the
    tail. The error quotes the first part at fault, its repr cut to 40
    characters, with its index and the number of parts.
    """
    parts = tuple(parts)
    for i, x in enumerate(parts):
        fault = ("parts must be integers" if type(x) is not int else "negative part" if x < 0
                 else "parts must be weakly decreasing" if i and parts[i - 1] < x else "")
        if fault:
            raise ValueError(f"{fault}, got {repr(x)[:40]} (index {i} of {len(parts)})")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def conjugate(lam: Partition) -> Partition:
    """Diagonal transpose of the diagram."""
    lam = canonical(lam)
    return tuple(sum(1 for part in lam if part > c) for c in range(lam[0] if lam else 0))


MAX_GRID_POINTS = 1_000_000  # (p + 1)(q + 1); 999 x 999 and 499 999 x 1 take about 1 s


def check_box(p: int, q: int) -> None:
    """ValueError unless p and q are ints >= 0 (not bools), DomainError past
    MAX_GRID_POINTS: a count sums over the grid points, a cell mask has pq bits."""
    if type(p) is not int or type(q) is not int or p < 0 or q < 0:
        raise ValueError(f"box dimensions must be nonnegative integers, got {p!r} x {q!r}")
    if (points := (p + 1) * (q + 1)) > MAX_GRID_POINTS:
        raise DomainError(f"the {p}x{q} box has {points} grid points, more than {MAX_GRID_POINTS}")


def _require_in_box(lam: Partition, p: int, q: int) -> Partition:
    lam = canonical(lam)
    check_box(p, q)
    if len(lam) > p or lam and lam[0] > q:
        raise BoxOverflow(f"partition {lam} does not fit in a {p}x{q} box")
    return lam


def complement(lam: Partition, p: int, q: int) -> Partition:
    """180-degree rotated complement of lam inside the p x q box."""
    return _complement(_padded(_require_in_box(lam, p, q), p), q)


def _complement(rows: tuple, q: int) -> Partition:
    """The canonical complement of a partition padded to the box height."""
    return tuple(q - x for x in reversed(rows[rows.count(q) :]))  # a part q leaves a zero


def contains(inner: Partition, outer: Partition) -> bool:
    """Diagram containment: every row of inner fits inside outer's row."""
    inner, outer = canonical(inner), canonical(outer)
    return len(inner) <= len(outer) and all(x <= y for x, y in zip(inner, outer))


def _require_nested(lam: Partition, mu: Partition, p: int, q: int) -> tuple:
    """lam and mu padded to the box height, after canonical on lam and
    _require_in_box on mu; NotNested unless lam lies inside mu."""
    lam, mu = canonical(lam), _require_in_box(mu, p, q)
    if len(lam) > len(mu) or any(x > y for x, y in zip(lam, mu)):
        raise NotNested(f"{lam} is not contained in {mu}")
    return _padded(lam, p), _padded(mu, p)


def skew_box_set(lam: Partition, mu: Partition, p: int, q: int) -> frozenset:
    """The cell set {(r, c) : lam_r < c <= mu_r} of the skew shape mu/lam."""
    rows = enumerate(zip(*_require_nested(lam, mu, p, q)), start=1)
    return frozenset((r, c) for r, (lo, hi) in rows for c in range(lo + 1, hi + 1))


class Rectangle(NamedTuple):
    rows: int
    cols: int


class SkewDecomposition(NamedTuple):
    """Rectangles of a compatible skew shape, top-right block first.

    cells is the absolute cell set of the whole skew shape as a bitmask of
    the p x q box: bit (r - 1) * q + (c - 1) stands for cell (r, c).
    """

    rectangles: tuple
    cells: int


def follows(above: tuple, row: tuple) -> bool:
    """The row rule of compatibility, stated only here: whether the skew row
    (lo, hi] = (lam_r, mu_r] may sit under the row above, (lam_(r-1),
    mu_(r-1)], row 0 being the virtual (q, q). It may if it ends where the
    row above starts or further left, so they meet at most in a corner, or
    if it is the same nonempty interval, a rectangle continued."""
    return row[1] <= above[0] or row == above and row[0] < row[1]


def _skew(lam_pad: tuple, mu_pad: tuple, q: int) -> SkewDecomposition:
    """The decomposition of mu/lam in a box of width q; NotCompatible at the
    first row that does not follow the one above by follows. Trusts its
    input: the rows are padded to the box height, and lam_pad is a
    partition contained in mu_pad. A run of k equal nonempty rows (lo, hi] is
    one Rectangle(k, hi - lo); follows is checked at the first row of a run.
    The cells are read from one binary numeral, last row and column first, in time linear in pq."""
    rects, bits, above, r = [], [], (q, q), 0
    for row, run in groupby(zip(lam_pad, mu_pad)):
        if not follows(above, row):
            lam, mu, p = canonical(lam_pad), canonical(mu_pad), len(lam_pad)
            raise NotCompatible(
                f"skew of ({lam}, {mu}) in {p}x{q}: rows {r} and {r + 1} "
                "overlap in more than a corner"
            )
        (lo, hi), k = row, len(list(run))
        bits.append(("0" * (q - hi) + "1" * (hi - lo) + "0" * lo) * k)
        if lo < hi:
            rects.append(Rectangle(k, hi - lo))
        above, r = row, r + k
    return SkewDecomposition(tuple(rects), int("0" + "".join(reversed(bits)), 2))


def _padded(lam: Partition, p: int) -> tuple:
    return lam + (0,) * (p - len(lam))


def rectangle_decomposition(
    lam: Partition, mu: Partition, p: int, q: int
) -> SkewDecomposition:
    """Split mu/lam into maximal rectangles or raise NotCompatible."""
    return _skew(*_require_nested(lam, mu, p, q), q)


def compatible_pairs(p: int, q: int) -> Iterator[tuple]:
    """Every compatible pair in the p x q box as (lam, mu, decomposition).

    The pairs come in (lam, mu) lex order. For each lam, mu is built one run
    of k equal parts lo at a time, by the rule of follows solved for the run:
    all rows empty, (lo,) * k, or one rectangle (lo, hi] over its first j
    rows, (hi,) * j + (lo,) * (k - j), lo < hi <= top, the part above (q for
    the first run). These offers and their rectangles and cells are built
    once per run, for every partial mu. The empty offer always follows, so
    no incompatible pair is built. The pairs share one object per Rectangle
    size, mu and rectangle list, so a cached group holds each once.
    """
    lams = enumerate_partitions_in_box(p, q)  # checks the box before the table is built
    rect, mus, lists = _rectangles(p, q), {}, {}
    for lam in lams:
        level, top, shift = [((), (), 0)], q, 0  # (mu, rectangles, cells) so far
        for lo, run in groupby(_padded(lam, p)):
            k = len(list(run))
            empty = (lo,) * k if lo else ()  # no zero part: mu comes out canonical
            ones = [0]  # ones[j]: column 1 of the run's first j rows
            for i in range(k):
                ones.append(ones[-1] | 1 << shift + i * q)
            offers = [(empty, (), 0)] + [
                ((hi,) * j + empty[j:], (rect[j][hi - lo],), ((1 << hi) - (1 << lo)) * ones[j])
                for hi, j in product(range(lo + 1, top + 1), range(1, k + 1))]
            level = [(mu + a, rects + b, cells | c)
                     for mu, rects, cells in level for a, b, c in offers]
            top, shift = lo, shift + k * q
        for mu, rects, cells in level:
            skew = SkewDecomposition(lists.setdefault(rects, rects), cells)
            yield lam, mus.setdefault(mu, mu), skew


def _rectangles(p: int, q: int) -> list:
    """The Rectangle of each size (rows, cols) in the p x q box, at [rows][cols]."""
    return [[Rectangle(a, b) for b in range(q + 1)] for a in range(p + 1)]


def _row_sums(p: int, q: int) -> tuple:
    """The transfer of follows over p rows from (q, q), in vectors of length
    q + 1: at_least[x] counts the partial pairs whose last lam is at least x,
    ending[hi] those ending in a row (lo, hi], lo < hi, the same for every lo,
    as it follows each row whose lam is >= hi, or itself."""
    at_least, ending = [1] * (q + 1), [0] * (q + 1)
    for _ in range(p):
        ending = [0] + [a + e for a, e in zip(at_least[1:], ending[1:])]
        total = longer = 0  # longer: the rows (x, hi] with hi > x
        for x in range(q, -1, -1):
            total += at_least[x] + longer  # at_least[x]: the empty row (x, x]
            at_least[x] = total
            longer += ending[x]
    return at_least, ending


def count_pairs(p: int, q: int) -> tuple:
    """(compatible pairs, those with lam_p = 0 < mu_p) of the p x q box."""
    check_box(p, q)
    at_least, ending = _row_sums(p, q)
    return at_least[0], sum(ending)


def is_compatible(lam: Partition, mu: Partition, p: int, q: int) -> bool:
    """Whether (lam, mu) is compatible in the p x q box; ValueError if malformed."""
    try:
        rectangle_decomposition(lam, mu, p, q)
    except (BoxOverflow, NotNested, NotCompatible):
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
    rows = _padded(lam, p)
    mu = _complement(rows, q)
    if any(x + y > q for x, y in zip(rows, reversed(rows))):  # lam_i > mu_i
        raise NotOrthogonal(f"{lam} is not contained in its complement {mu} in {p}x{q}")
    try:
        skew = _skew(rows, _padded(mu, p), q)
    except NotCompatible as exc:
        raise NotOrthogonal(str(exc)) from exc
    return _palindrome(lam, skew, p, q)


# Each byte with its eight bits in reverse order, indexed by the byte.
_REVERSED_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _palindrome(
    lam: Partition, skew: SkewDecomposition, p: int, q: int
) -> OrthogonalDecomposition:
    # The skew of (lam, complement(lam)) is centrally symmetric: rotating
    # the box by 180 degrees reverses its p*q cell bits and the rectangle
    # list. Symmetry makes a failure here impossible; the check stays as a
    # tripwire. The bits are reversed a byte at a time, through a table.
    rects, cells, m, n = skew.rectangles, skew.cells, len(skew.rectangles), p * q
    size = (n + 7) // 8
    turned = int.from_bytes(cells.to_bytes(size, "little").translate(_REVERSED_BITS), "big")
    if rects != rects[::-1] or cells != turned >> 8 * size - n:
        raise PalindromeViolation(f"decomposition of {lam} in {p}x{q} is not centrally symmetric")
    pairs = rects[: m // 2]
    center = tuple(rects[m // 2]) if m % 2 else (0, 0)
    return OrthogonalDecomposition(skew=skew, pairs=pairs, center=center)


def orthogonal_partitions(p: int, q: int) -> Iterator[tuple]:
    """Every orthogonal lam in the p x q box as (lam, complement, decomposition).

    Lex order in lam. Row i of the skew is (lam_i, q - lam_j], j = p - 1 - i its mirror,
    so the skew is compatible when its lower half is. The upper (p + 1) // 2 rows come
    from the box walk, an odd middle (x, q - x] needing 2x <= q. They fix each lower
    row's hi; its lo is the rule of follows solved for lo under the row above (a, b],
    which for the first lower row is (x, q - x], x the last upper part: for even p its
    own mirror, followed on the same terms. The palindrome tripwire runs on each lam."""
    check_box(p, q)
    rect = _rectangles(p, q)
    m = p // 2  # the lower rows, below the upper p - m
    for upper in _box_partitions(p - m, q):
        rows = _padded(upper, p - m)
        x = rows[-1] if p else 0  # the last upper part
        if p % 2 and 2 * x > q:
            continue
        middle = p % 2 * (2 * x < q)  # the one row of a nonempty middle
        level = [((x,), (), middle, ((1 << q - x) - (1 << x)) << m * q if middle else 0)]
        edges = (q - x,) + tuple(q - y for y in reversed(rows[:m]))  # b, then each hi
        for k in range(m):  # lower row p - m + k from bit s, its mirror row m - 1 - k below bit u
            b, hi, s, u, grown = edges[k], edges[k + 1], (p - m + k) * q, (m - k) * q, []
            ends = (1 << s + hi) - (1 << u - hi)  # the hi ends of (lo, hi] and its mirror
            for lower, rects, centre, cells in level:  # lower: x, then the lower rows
                a = lower[-1]
                if hi <= a:  # lo < hi opens a rectangle; the empty row lo = hi comes last
                    grown += [(lower + (lo,), rects + (rect[1][hi - lo],), centre,
                               cells | ends + (1 << u - lo) - (1 << s + lo)) for lo in range(hi)]
                    grown.append((lower + (hi,), rects, centre, cells))
                elif b == hi and a < b:  # lo = a continues a lower rectangle, or the centre
                    end = rects and rects[:-1] + (rect[rects[-1].rows + 1][hi - a],)
                    cells |= ends + (1 << u - a) - (1 << s + a)
                    grown.append((lower + (a,), end, centre + 2 * (not rects), cells))
            level = grown
        for lower, rects, centre, cells in level:
            mid = (rect[centre][q - 2 * x],) if centre else ()
            skew = SkewDecomposition(rects[::-1] + mid + rects, cells)
            lam = rows + lower[1:]
            canon = lam[: p - lam.count(0)]
            yield canon, _complement(lam, q), _palindrome(canon, skew, p, q)


def count_orthogonal(p: int, q: int) -> int:
    """The orthogonal lam of the p x q box. Their skews are centrally
    symmetric, so each is a compatible pair on its upper p // 2 rows plus a
    middle that follows the last of them, (lo, hi], by follows: for even p
    its mirror (q - hi, q - lo], which does when 2 lo >= q, for odd p one of
    the rows (x, q - x], 2x <= q, which does when q - x <= lo. Either middle
    is (lo, hi) itself, continued, when lo + hi = q < 2 hi."""
    check_box(p, q)
    at_least, ending = _row_sums(p // 2, q)
    mid = (q + 1) // 2
    return (sum(at_least[mid:]) if p % 2 else at_least[mid]) + sum(ending[q // 2 + 1 :])


def is_orthogonal(lam: Partition, p: int, q: int) -> bool:
    """Whether lam is orthogonal in the p x q box; ValueError if malformed."""
    try:
        orthogonal_decomposition(lam, p, q)
    except (BoxOverflow, NotOrthogonal):
        return False
    return True


def enumerate_partitions_in_box(p: int, q: int) -> Iterator[Partition]:
    """All partitions with at most p parts, each at most q, in lex order."""
    check_box(p, q)
    return _box_partitions(p, q)


def _box_partitions(p: int, q: int) -> Iterator[Partition]:
    stack = [()]
    while stack:
        lam = stack.pop()
        yield lam
        if len(lam) < p:
            stack.extend([lam + (x,) for x in range(lam[-1] if lam else q, 0, -1)])


def format_partition(lam: Partition) -> str:
    """Canonical bracket form, e.g. [3,1]; the empty partition prints []."""
    return brackets(canonical(lam))


def brackets(lam: Partition) -> str:
    """The bracket form of format_partition, for a partition already in
    canonical form; nothing is checked."""
    return "[" + ",".join(map(str, lam)) + "]"


def parse_partition(text: str) -> Partition:
    """Inverse of format_partition; accepts any JSON integer array. A
    refused text is quoted by its first 40 characters and its length, so
    the error stays short however long the input."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError):  # json recurses into each nested list
        data = None
    if not isinstance(data, list):
        raise ValueError(f"not a partition literal: {text[:40]!r} ({len(text)} characters)")
    return canonical(data)
