"""Partition and skew-shape combinatorics."""

import inspect
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomreps import (
    BoxOverflow,
    DomainError,
    NotCompatible,
    NotNested,
    NotOrthogonal,
    PalindromeViolation,
    Rectangle,
    SkewDecomposition,
    canonical,
    compatible_pairs,
    complement,
    conjugate,
    contains,
    count_orthogonal,
    count_pairs,
    enumerate_partitions_in_box,
    format_partition,
    is_compatible,
    is_orthogonal,
    orthogonal_decomposition,
    orthogonal_partitions,
    parse_partition,
    rectangle_decomposition,
    skew_box_set,
)
from cohomreps import partitions
from cohomreps.checks import signatures
from cohomreps.partitions import _palindrome, follows


def boxed_partitions(max_p=4, max_q=4):
    """Strategy producing (lam, p, q) with lam inside the p x q box."""

    def build(draw):
        p = draw(st.integers(1, max_p))
        q = draw(st.integers(1, max_q))
        rows = draw(st.integers(0, p))
        parts = []
        cap = q
        for _ in range(rows):
            cap = draw(st.integers(0, cap))
            parts.append(cap)
        return canonical(parts), p, q

    return st.composite(build)()


class TestCanonical:
    def test_strips_trailing_zeros(self):
        assert canonical([3, 1, 0, 0]) == (3, 1)

    def test_empty(self):
        assert canonical([]) == ()
        assert canonical([0, 0]) == ()

    def test_rejects_increase(self):
        with pytest.raises(ValueError):
            canonical([1, 2])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            canonical([2, -1])

    def test_zero_before_positive_rejected(self):
        with pytest.raises(ValueError):
            canonical([2, 0, 1])

    @pytest.mark.parametrize("parts", [(1.7,), [True, False], [2, 1.0], ["1"]])
    def test_rejects_non_int_parts(self, parts):
        with pytest.raises(ValueError, match="integers"):
            canonical(parts)


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2)) == (2, 2)


def test_fits_in_box():
    # A partition fits the box exactly when complement takes it.
    assert complement((2, 2), 2, 2) == ()
    for lam in [(5,), (3,), (1, 1, 1)]:  # too wide or too tall
        with pytest.raises(BoxOverflow):
            complement(lam, 2, 2)


def test_complement_examples():
    assert complement((2, 1), 2, 3) == (2, 1)
    assert complement((), 2, 2) == (2, 2)
    assert complement((2, 2), 2, 2) == ()


def test_contains():
    assert contains((1,), (2, 1))
    assert not contains((2, 1), (1,))
    assert contains((), ())


def test_skew_box_set_cells_are_one_based():
    cells = skew_box_set((1,), (2, 1), 2, 2)
    assert cells == frozenset({(1, 2), (2, 1)})


def test_skew_box_set_requires_nesting():
    with pytest.raises(NotNested):
        skew_box_set((2,), (1,), 2, 2)


def decode_cells(cells, p, q):
    """The (row, col) set of a cell bitmask of the p x q box."""
    return frozenset((i // q + 1, i % q + 1) for i in range(p * q) if cells >> i & 1)


class TestRectangleDecomposition:
    def test_single_rectangle(self):
        dec = rectangle_decomposition((1, 1, 1), (3, 3, 3), 3, 4)
        assert dec.rectangles == (Rectangle(3, 2),)
        assert decode_cells(dec.cells, 3, 4) == {(r, c) for r in (1, 2, 3) for c in (2, 3)}
        assert dec.cells.bit_count() == 6

    def test_two_corner_touching_rectangles(self):
        dec = rectangle_decomposition((2, 1), (3, 2), 2, 3)
        assert dec.rectangles == (Rectangle(1, 1), Rectangle(1, 1))
        assert decode_cells(dec.cells, 2, 3) == {(1, 3), (2, 2)}

    def test_gap_between_rectangles_allowed(self):
        # middle row is empty, blocks need not touch at all
        dec = rectangle_decomposition((3, 2, 1), (4, 2, 2), 3, 4)
        assert dec.rectangles == (Rectangle(1, 1), Rectangle(1, 1))
        assert decode_cells(dec.cells, 3, 4) == {(1, 4), (3, 2)}

    def test_overlapping_rows_rejected(self):
        with pytest.raises(NotCompatible):
            rectangle_decomposition((1,), (2, 2), 2, 2)

    def test_empty_skew(self):
        dec = rectangle_decomposition((2, 1), (2, 1), 2, 2)
        assert dec.rectangles == ()
        assert dec.cells == 0

    def test_full_box(self):
        dec = rectangle_decomposition((), (2, 2), 2, 2)
        assert dec.rectangles == (Rectangle(2, 2),)
        assert dec.cells == 0b1111


def test_incompatible_pair_names_the_overlapping_rows():
    with pytest.raises(NotCompatible, match="rows 2 and 3 overlap"):
        rectangle_decomposition((2, 1), (3, 2, 2), 3, 3)
    # the bad row 3 follows the run of the equal rows 1 and 2
    with pytest.raises(NotCompatible, match="rows 2 and 3 overlap"):
        rectangle_decomposition((1, 1), (2, 2, 2), 3, 2)


@pytest.mark.parametrize("p, q", [(1, 1), (1, 3), (2, 3), (3, 2), (3, 4), (4, 4)])
def test_compatible_pairs_filter_the_box_product(p, q):
    pairs = compatible_pairs(p, q)
    assert inspect.isgenerator(pairs)
    parts = list(enumerate_partitions_in_box(p, q))
    assert list(pairs) == [
        (lam, mu, rectangle_decomposition(lam, mu, p, q))
        for lam in parts
        for mu in parts
        if is_compatible(lam, mu, p, q)
    ]


# The thin boxes past signatures(12) have long runs of equal upper parts,
# several rectangle offers per run, and bottom runs that continue the centre
# over many rows.
@pytest.mark.parametrize(
    "p, q",
    [*signatures(12), (1, 40), (40, 1), (2, 25), (25, 2), (41, 1), (30, 2), (31, 2), (20, 3),
     (21, 3)],
)
def test_orthogonal_partitions_filter_the_box(p, q):
    shapes = orthogonal_partitions(p, q)
    assert inspect.isgenerator(shapes)
    assert list(shapes) == [
        (lam, complement(lam, p, q), orthogonal_decomposition(lam, p, q))
        for lam in enumerate_partitions_in_box(p, q)
        if is_orthogonal(lam, p, q)
    ]


def test_cells_bitmask_decodes_to_skew_box_set():
    for p, q in signatures(8):
        shapes = list(compatible_pairs(p, q))
        shapes += [(lam, mu, orth.skew) for lam, mu, orth in orthogonal_partitions(p, q)]
        for lam, mu, skew in shapes:
            assert skew.cells >> p * q == 0
            box_set = skew_box_set(lam, mu, p, q)
            assert decode_cells(skew.cells, p, q) == box_set, (lam, mu)
            built = rectangle_decomposition(lam, mu, p, q).cells
            assert decode_cells(built, p, q) == box_set, (lam, mu)


def test_decomposition_repr():
    skew = rectangle_decomposition((1,), (2, 1), 2, 2)
    assert repr(skew) == (
        "SkewDecomposition(rectangles=(Rectangle(rows=1, cols=1), Rectangle(rows=1, cols=1)), "
        "cells=6)"
    )


@pytest.mark.parametrize(
    "skew",
    [
        rectangle_decomposition((), (1,), 2, 2),
        SkewDecomposition((Rectangle(1, 2), Rectangle(1, 1)), 0b1001),
    ],
    ids=["cells", "rectangles"],
)
def test_palindrome_tripwire_fires_without_central_symmetry(skew):
    # 2 x 2 box: one corner cell, then a symmetric cell set whose rectangle
    # list does not read the same reversed
    with pytest.raises(PalindromeViolation, match="not centrally symmetric"):
        _palindrome((), skew, 2, 2)


BOX_CALLS = pytest.mark.parametrize(
    "call",
    [
        lambda p, q: complement((1,), p, q),
        lambda p, q: skew_box_set((), (1,), p, q),
        lambda p, q: rectangle_decomposition((), (1,), p, q),
        lambda p, q: list(compatible_pairs(p, q)),
        lambda p, q: orthogonal_decomposition((), p, q),
        lambda p, q: list(orthogonal_partitions(p, q)),
        lambda p, q: list(enumerate_partitions_in_box(p, q)),
        count_pairs,
        count_orthogonal,
    ],
    ids=[
        "complement", "skew_box_set", "rectangle_decomposition",
        "compatible_pairs", "orthogonal_decomposition", "orthogonal_partitions",
        "enumerate_partitions_in_box", "count_pairs", "count_orthogonal",
    ],
)


@pytest.mark.parametrize("p, q", [(-2, 3), (2, -1), (2.0, 2), (2, 2.0), (True, 2), (2, True)])
@BOX_CALLS
def test_box_dimensions_must_be_nonnegative_ints(call, p, q):
    with pytest.raises(ValueError, match="box dimensions must be nonnegative integers"):
        call(p, q)


# Boxes of 1 000 001 grid points (p + 1)(q + 1), one past MAX_GRID_POINTS;
# larger ones run only in a bounded process (tests/test_cli.py), as a call
# that missed the bound would fill memory with their partitions
@pytest.mark.parametrize("p, q", [(1_000_000, 0), (0, 1_000_000)])
@BOX_CALLS
def test_box_past_the_grid_bound_is_refused_at_once(call, p, q):
    with pytest.raises(DomainError, match=r"box has \d+ grid points, more than 1000000"):
        call(p, q)


def test_box_at_the_grid_bound_is_taken():
    assert complement((), 999_999, 0) == () and complement((), 999, 999) == (999,) * 999


def test_a_box_taking_call_validates_lam_and_the_box_once(monkeypatch):
    calls = Counter()
    for name in ("canonical", "check_box"):

        def counted(*args, real=getattr(partitions, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(partitions, name, counted)
    for call, lams in [
        (lambda: orthogonal_decomposition((3, 3, 3), 4, 6), 1),
        (lambda: rectangle_decomposition((1,), (3, 1), 4, 6), 2),
        (lambda: skew_box_set((1,), (3, 1), 4, 6), 2),
    ]:
        calls.clear()
        call()
        assert calls == {"canonical": lams, "check_box": 1}


def test_is_compatible_never_raises():
    assert is_compatible((), (2, 2), 2, 2)
    assert not is_compatible((1,), (2, 2), 2, 2)
    assert not is_compatible((3,), (3,), 2, 2)  # lam sticks out of the box


@pytest.mark.parametrize(
    "call",
    [
        lambda: is_compatible((), (), 2.0, 2),
        lambda: is_compatible((1, 2), (2, 2), 2, 2),
        lambda: is_orthogonal((), True, 2),
        lambda: is_orthogonal((), -1, 2),
        lambda: is_orthogonal((1.0,), 2, 2),
    ],
    ids=["float-box", "increasing-lam", "bool-box", "negative-box", "float-part"],
)
def test_predicates_raise_on_malformed_input(call):
    # a bad box or a non-partition is an error, not a pair that fails the rule
    with pytest.raises(ValueError):
        call()


def rule_pairs(p, q):
    """Every (lam, mu) of the p x q box, by a row DFS over follows alone."""
    found, stack = [], [((), (), (q, q))]
    while stack:
        lam, mu, above = stack.pop()
        if len(lam) == p:
            found.append((canonical(lam), canonical(mu)))
            continue
        for lo in range(q + 1):
            for hi in range(lo, q + 1):
                if follows(above, (lo, hi)):
                    stack.append((lam + (lo,), mu + (hi,), (lo, hi)))
    return sorted(found)


def test_compatible_pairs_is_the_row_rule_solved_for_mu():
    # the thin boxes have the long runs of equal rows that p+q <= 9 lacks
    thin = [(20, 1), (30, 1), (12, 2), (16, 2), (8, 3)]
    boxes = [(p, q) for p in range(10) for q in range(10 - p)]
    for p, q in [*boxes, *thin, *[(q, p) for p, q in thin]]:
        got = [(lam, mu) for lam, mu, _ in compatible_pairs(p, q)]
        assert got == rule_pairs(p, q), (p, q)


def test_count_pairs_is_the_transfer_sum_of_the_row_rule():
    for q in range(11):
        rows = [(lo, hi) for lo in range(q + 1) for hi in range(lo, q + 1)]
        for p in range(11):
            states = {(q, q): 1}
            for _ in range(p):
                states = {
                    row: sum(n for above, n in states.items() if follows(above, row))
                    for row in rows
                }
            flag_zero = sum(n for (lo, hi), n in states.items() if lo == 0 < hi)
            assert count_pairs(p, q) == (sum(states.values()), flag_zero), (p, q)


def test_count_orthogonal_is_the_row_rule_on_the_upper_half():
    # The skew of (lam, complement) is centrally symmetric: a compatible pair
    # on its upper p // 2 rows, under a middle that follows the last of them,
    # the mirror of that row for even p, a row (x, q - x] for odd p.
    for q in range(11):
        rows = [(lo, hi) for lo in range(q + 1) for hi in range(lo, q + 1)]
        for p in range(11):
            states = {(q, q): 1}
            for _ in range(p // 2):
                states = {
                    row: sum(n for above, n in states.items() if follows(above, row))
                    for row in rows
                }
            count = 0
            for (lo, hi), n in states.items():
                middles = [(x, q - x) for x in range(q // 2 + 1)] if p % 2 else [(q - hi, q - lo)]
                count += n * sum(follows((lo, hi), mid) for mid in middles)
            assert count_orthogonal(p, q) == count, (p, q)


def test_counts_are_the_enumeration_lengths():
    for p in range(7):
        for q in range(7):
            pairs = flag_zero = 0
            for lam, mu, _ in compatible_pairs(p, q):
                pairs += 1
                flag_zero += len(lam) < p <= len(mu)
            assert count_pairs(p, q) == (pairs, flag_zero), (p, q)
            assert count_orthogonal(p, q) == len(list(orthogonal_partitions(p, q))), (p, q)


def brute_rectangles(lam, mu, p, q):
    """The edge-connected components of the cells of mu/lam as rectangles,
    by top row; None when some component is not a full rectangle."""
    cells, rects = set(skew_box_set(lam, mu, p, q)), []
    while cells:
        todo, part = [cells.pop()], []
        while todo:
            r, c = cell = todo.pop()
            part.append(cell)
            for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nb in cells:
                    cells.remove(nb)
                    todo.append(nb)
        rows, cols = {r for r, _ in part}, {c for _, c in part}
        height, width = max(rows) - min(rows) + 1, max(cols) - min(cols) + 1
        if len(part) != height * width:
            return None
        rects.append((min(rows), Rectangle(height, width)))
    return tuple(rect for _, rect in sorted(rects))


def test_compatibility_is_a_chain_of_rectangle_components():
    nested = 0
    for p, q in signatures(8):
        parts = list(enumerate_partitions_in_box(p, q))
        for lam in parts:
            for mu in parts:
                if not contains(lam, mu):
                    continue
                nested += 1
                rects = brute_rectangles(lam, mu, p, q)
                assert is_compatible(lam, mu, p, q) == (rects is not None), (lam, mu)
                if rects is not None:
                    assert rectangle_decomposition(lam, mu, p, q).rectangles == rects
    assert nested == 6900


def test_orthogonal_partitions_are_the_brute_force_orthogonal_lams():
    total = 0
    for p, q in signatures(12):
        expected = []
        for lam in enumerate_partitions_in_box(p, q):
            mu = complement(lam, p, q)
            if contains(lam, mu) and brute_rectangles(lam, mu, p, q) is not None:
                expected.append(lam)
        assert [lam for lam, _, _ in orthogonal_partitions(p, q)] == expected, (p, q)
        total += len(expected)
    assert total == 1687


class TestOrthogonal:
    def test_empty_partition(self):
        dec = orthogonal_decomposition((), 2, 2)
        assert dec.pairs == ()
        assert dec.center == (2, 2)

    def test_paired_blocks(self):
        # (1) in the 2x2 box: two single cells mirrored through the middle
        dec = orthogonal_decomposition((1,), 2, 2)
        assert dec.pairs == (Rectangle(1, 1),)
        assert dec.center == (0, 0)

    def test_central_block(self):
        # (1,1) in the 2x3 box: one column fixed by the half turn
        dec = orthogonal_decomposition((1, 1), 2, 3)
        assert dec.pairs == ()
        assert dec.center == (2, 1)

    def test_self_complementary_gives_empty_skew(self):
        dec = orthogonal_decomposition((2,), 2, 2)
        assert dec.skew.rectangles == ()
        assert dec.center == (0, 0)

    def test_not_orthogonal(self):
        # (2) in 2x2 is orthogonal but (2,1) is not nested in its complement
        with pytest.raises(NotOrthogonal):
            orthogonal_decomposition((2, 1), 2, 2)

    def test_is_orthogonal(self):
        assert is_orthogonal((1, 1), 2, 2)
        assert not is_orthogonal((2, 1), 2, 2)


def test_enumerate_partitions_count():
    # partitions in a p x q box are counted by the binomial coefficient
    from math import comb

    for p, q in [(1, 1), (2, 2), (2, 3), (3, 3)]:
        got = list(enumerate_partitions_in_box(p, q))
        assert len(got) == comb(p + q, p)
        assert len(set(got)) == len(got)


def test_enumerate_partitions_lex_order():
    got = list(enumerate_partitions_in_box(2, 2))
    assert got == sorted(got)


def test_format_and_parse_roundtrip():
    assert format_partition((3, 1)) == "[3,1]"
    assert format_partition(()) == "[]"
    assert parse_partition("[3,1]") == (3, 1)
    assert parse_partition("[]") == ()
    with pytest.raises(ValueError):
        parse_partition("nope")
    with pytest.raises(ValueError):
        parse_partition('{"a": 1}')


def test_parse_refuses_a_nest_too_deep_to_decode():
    with pytest.raises(ValueError, match=r"^not a partition literal: '\[\[\[\["):
        parse_partition("[" * 100_000)


@pytest.mark.parametrize("text", ["[true]", "[2, false]", "[1.5]", '["1"]'])
def test_parse_rejects_non_int_parts(text):
    with pytest.raises(ValueError, match="integers"):
        parse_partition(text)


@settings(max_examples=200, deadline=None)
@given(boxed_partitions())
def test_complement_is_an_involution(data):
    lam, p, q = data
    assert complement(complement(lam, p, q), p, q) == lam


@settings(max_examples=200, deadline=None)
@given(boxed_partitions())
def test_conjugate_commutes_with_complement(data):
    lam, p, q = data
    assert conjugate(complement(lam, p, q)) == complement(conjugate(lam), q, p)


@settings(max_examples=200, deadline=None)
@given(boxed_partitions(), boxed_partitions())
def test_decomposition_boxes_match_cell_set(a, b):
    lam, p, q = a
    mu, _, _ = b
    if not (len(mu) <= p and (not mu or mu[0] <= q) and contains(lam, mu)):
        return
    if not is_compatible(lam, mu, p, q):
        return
    dec = rectangle_decomposition(lam, mu, p, q)
    assert decode_cells(dec.cells, p, q) == skew_box_set(lam, mu, p, q)
    assert dec.cells.bit_count() == sum(a * b for a, b in dec.rectangles)
