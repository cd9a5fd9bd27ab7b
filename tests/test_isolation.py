"""Isolation verdicts: searches, the closed-form corner test, and the
degree-zero variant."""

import gc
import hashlib
import json
import os
import random
from collections import Counter
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomreps import (
    DomainError,
    Family,
    IsolationVerdict,
    WrongFamily,
    admits_flag_zero,
    enumerate_reps,
    isolated_O,
    isolated_Sp,
    isolated_U_explicit,
    isolated_U_search,
    isolated_d0,
    make_rep,
    skew_box_set,
    t1intro_inequalities,
    text_form,
    trivial_rep,
)
from cohomreps import isolation
from cohomreps.checks import run, signatures
from cohomreps.isolation import _block, _flips, decode, verdicts, witness_count
from cohomreps.partitions import brackets, follows
from cohomreps.reps import Memo


class TestUnitarySearch:
    def test_trivial_u22_is_isolated(self):
        verdict = isolated_U_search(trivial_rep(Family("U", 2, 2)))
        assert verdict.isolated
        assert verdict.witnesses == ()
        assert verdict.criterion == "search"

    def test_trivial_u1q_is_not_isolated(self):
        verdict = isolated_U_search(trivial_rep(Family("U", 1, 3)))
        assert not verdict.isolated
        assert verdict.witnesses

    def test_single_wide_rectangle_isolated(self):
        rep = make_rep(Family("U", 3, 4), (1, 1, 1), (3, 3, 3))
        assert isolated_U_search(rep).isolated

    def test_empty_skew_never_isolated(self):
        rep = make_rep(Family("U", 2, 2), (2, 1), (2, 1))
        verdict = isolated_U_search(rep)
        assert not verdict.isolated
        # every witness is a pair label naming the interfering parameter
        assert all(w.startswith("A[") for w in verdict.witnesses)

    def test_wrong_family_rejected(self):
        with pytest.raises(WrongFamily):
            isolated_U_search(trivial_rep(Family("O", 2, 2)))


class TestUnitaryExplicit:
    def test_matches_search_on_small_box(self):
        assert run("isolation", 5)["mismatches"] == []

    def test_thin_rectangle_witness(self):
        verdict = isolated_U_explicit(trivial_rep(Family("U", 1, 3)))
        assert not verdict.isolated
        assert any("strip of width 1" in w for w in verdict.witnesses)

    def test_bottom_contact_witness(self):
        # both partitions end at column 2 on the bottom edge of the box
        rep = make_rep(Family("U", 2, 4), (2, 2), (4, 2))
        verdict = isolated_U_explicit(rep)
        assert not verdict.isolated
        assert any("leave column 2" in w for w in verdict.witnesses)

    def test_top_contact_witness(self):
        rep = make_rep(Family("U", 3, 3), (2,), (2, 2, 2))
        verdict = isolated_U_explicit(rep)
        assert not verdict.isolated
        assert any("drop to column 2" in w for w in verdict.witnesses)

    def test_shared_left_wall_segment_is_harmless(self):
        # lam and mu both have empty bottom rows; the paths run down the
        # left wall together without creating a corner
        rep = make_rep(Family("U", 3, 2), (), (2, 2))
        assert isolated_U_explicit(rep).isolated
        assert isolated_U_search(rep).isolated

    def test_shared_right_wall_segment_is_harmless(self):
        rep = make_rep(Family("U", 3, 2), (2,), (2, 2, 2))
        assert isolated_U_explicit(rep).isolated
        assert isolated_U_search(rep).isolated

    def test_interior_shared_corner(self):
        rep = make_rep(Family("U", 5, 6), (4, 4, 2), (6, 6, 2, 2, 2))
        verdict = isolated_U_explicit(rep)
        assert not verdict.isolated
        assert not isolated_U_search(rep).isolated

    def test_isolated_verdicts_and_witness_text_are_shared(self):
        # one isolated verdict, and one string per turn point and per strip
        # of a rectangle tuple, however many reps find them
        texts, isolated, seen = {}, set(), 0
        for rep in enumerate_reps(Family("U", 4, 4)):
            verdict = isolated_U_explicit(rep)
            if verdict.isolated:
                isolated.add(id(verdict))
            for text in verdict.witnesses:
                key = text if text.startswith("both") else (rep.skew.rectangles, text)
                assert texts.setdefault(key, text) is text, f"{rep!r}"
                seen += 1
        assert len(isolated) == 1 and seen > len(texts)

    def test_witness_digest_is_pinned(self):
        # the text and explicit verdict, witness strings in order, of every
        # rep of U(p,q) with p+q <= 10, on a first pass over each group and
        # on a second one, which the verdict memo answers
        digests, count = [hashlib.sha256(), hashlib.sha256()], 0
        for n in range(2, 11):
            for p in range(1, n):
                group = enumerate_reps(Family("U", p, n - p))
                for digest in digests:
                    for rep in group:
                        digest.update(repr((text_form(rep), isolated_U_explicit(rep))).encode())
                count += len(group)
        assert count == 32483
        pinned = "6ee7aa6b7fdaf5309932e02ec41855655284c84860bf7a45b2ea9049e8fc6042"
        assert [digest.hexdigest() for digest in digests] == [pinned] * 2

    def test_a_warm_explicit_call_reads_no_row(self, monkeypatch):
        monkeypatch.setattr(isolation, "_EXPLICIT", Memo())
        every = [rep for p, q in [(3, 3), (2, 5), (4, 4)] for rep in enumerate_reps(Family("U", p, q))]
        first = [isolated_U_explicit(rep) for rep in every]

        class Refuse:
            def __getitem__(self, key):
                raise AssertionError("a warm explicit call read a row")

        monkeypatch.setattr(isolation, "_TURNS", Refuse())
        monkeypatch.setattr(isolation, "_STRIPS", Refuse())
        assert [isolated_U_explicit(rep) for rep in every] == first
        with pytest.raises(AssertionError, match="read a row"):  # a miss still reads them
            isolated_U_explicit(trivial_rep(Family("U", 2, 2)))
        with pytest.raises(WrongFamily):  # the family is checked before the lookup
            isolated_U_explicit(make_rep(Family("Sp", 3, 3), every[0].lam, every[0].mu, 1))


class TestOrthogonal:
    def test_witness_for_2_4(self):
        rep = make_rep(Family("O", 2, 4), (1, 1))
        verdict = isolated_O(rep)
        assert not verdict.isolated
        assert "A[[2,1]]" in verdict.witnesses

    def test_isolated_at_3_4(self):
        rep = make_rep(Family("O", 3, 4), (1, 1, 1))
        assert isolated_O(rep).isolated

    def test_wrong_family(self):
        with pytest.raises(WrongFamily):
            isolated_O(trivial_rep(Family("U", 2, 2)))


class TestQuaternionic:
    def test_small_block_condition(self):
        rep = make_rep(Family("Sp", 1, 1), (), (1,), flag=0)
        verdict = isolated_Sp(rep)
        assert not verdict.isolated
        assert any("sum to at least 3" in w for w in verdict.witnesses)

    def test_flag_zero_trivial_sp12_isolated(self):
        rep = trivial_rep(Family("Sp", 1, 2))
        assert isolated_Sp(rep).isolated

    def test_flag_one_searches_all_pairs(self):
        rep = make_rep(Family("Sp", 1, 1), (), (1,), flag=1)
        verdict = isolated_Sp(rep)
        assert not verdict.isolated

    def test_flag_one_matches_unitary_search(self):
        # flag 1 searches the unitary pairs, so the whole verdict agrees
        for p, q in signatures(8):
            for rep in enumerate_reps(Family("Sp", p, q)):
                if rep.flag == 1:
                    twin = make_rep(Family("U", p, q), rep.lam, rep.mu)
                    assert isolated_Sp(rep) == isolated_U_search(twin), f"{rep!r}"

    def test_wrong_family(self):
        with pytest.raises(WrongFamily):
            isolated_Sp(trivial_rep(Family("O", 2, 2)))


class TestDegreeZero:
    def test_full_box_cannot_grow(self):
        assert isolated_d0(trivial_rep(Family("U", 1, 3))).isolated
        assert isolated_d0(trivial_rep(Family("O", 2, 2))).isolated
        assert isolated_d0(trivial_rep(Family("Sp", 1, 1))).isolated

    def test_growable_skew_is_not_isolated(self):
        rep = make_rep(Family("U", 2, 2), (1,), (1, 1))
        verdict = isolated_d0(rep)
        assert not verdict.isolated
        assert "A[[]|[1,1]]" in verdict.witnesses

    def test_weaker_than_full_isolation(self):
        # anything isolated in the unitary dual stays isolated here
        for rep in enumerate_reps(Family("U", 2, 3)):
            if isolated_U_search(rep).isolated:
                assert isolated_d0(rep).isolated


# One exact witness tuple per search path: one box both ways (U), flag 0
# with its block condition (Sp), and growth by one box (U, Sp flag 0) or
# two boxes (O).
@pytest.mark.parametrize(
    "judge, family, lam, mu, flag, witnesses",
    [
        pytest.param(
            isolated_U_search, Family("U", 2, 3), (1,), (3, 1), None,
            ("A[[1,1]|[3,1]]", "A[[1]|[2,1]]", "A[[1]|[3]]", "A[[2]|[3,1]]"),
            id="U-search",
        ),
        pytest.param(
            isolated_Sp, Family("Sp", 2, 2), (1,), (2, 1), 0,
            (
                "A[[1]|[1,1]]_0",
                "A[[2]|[2,1]]_0",
                "the quaternionic block is 1x1; isolation needs its side "
                "lengths to sum to at least 3",
            ),
            id="Sp-flag0",
        ),
        pytest.param(
            isolated_d0, Family("U", 2, 3), (), (1,), None,
            ("A[[]|[1,1]]", "A[[]|[2]]"),
            id="U-d0",
        ),
        pytest.param(
            isolated_d0, Family("Sp", 2, 3), (1,), (1, 1), 0,
            ("A[[1]|[2,1]]_0", "A[[2]|[3,1]]_0"),
            id="Sp-flag0-d0",
        ),
        pytest.param(
            isolated_d0, Family("O", 2, 5), (3, 1), None, None,
            ("A[[3]]",),
            id="O-d0",
        ),
    ],
)
def test_witness_tuples(judge, family, lam, mu, flag, witnesses):
    verdict = judge(make_rep(family, lam, mu, flag=flag))
    assert verdict == IsolationVerdict(not witnesses, witnesses, "search")


def reference_variants(boxes, p, q, moves, grow_only):
    """Cell sets of the p x q box reached from `boxes` by changing `moves`
    cells: k removed and moves - k added, or only added when growing.
    Every such change is walked, symmetric or not."""
    grid = ((r, c) for r in range(1, p + 1) for c in range(1, q + 1))
    outside = [cell for cell in grid if cell not in boxes]
    for k in range(1 if grow_only else moves + 1):
        for removed in combinations(boxes, k):
            shrunk = boxes.difference(removed)
            for added in combinations(outside, moves - k):
                yield shrunk.union(added)


def bitmask(cells, q):
    return sum(1 << (r - 1) * q + c - 1 for r, c in cells)


@pytest.mark.parametrize("grow_only", [False, True])
@pytest.mark.parametrize("moves", [1, 2])
def test_flip_neighbors_match_frozenset_variants(moves, grow_only):
    # The one-cell flips of U and Sp reach every one-cell change; the
    # mirrored-pair flips of O reach exactly the two-cell changes that
    # leave the cell set centrally symmetric, indexed or not.
    for kind in ("U", "Sp") if moves == 1 else ("O",):
        for p, q in signatures(7):
            flips = _flips(p, q, kind == "O")
            for rep in enumerate_reps(Family(kind, p, q)):
                cells = rep.skew.cells
                flipped = Counter(
                    cells | f if grow_only else cells ^ f
                    for f in flips
                    if not (grow_only and cells & f)
                )
                variants = reference_variants(
                    skew_box_set(rep.lam, rep.mu, p, q), p, q, moves, grow_only
                )
                expected = Counter(
                    bitmask(v, q)
                    for v in variants
                    if moves == 1 or v == {(p + 1 - r, q + 1 - c) for r, c in v}
                )
                assert flipped == expected, f"{rep!r}"


@lru_cache(maxsize=None)
def reference_index(kind, p, q):
    """Each cell bitmask with (label, last rectangle, admits flag 0) per
    parameter carrying it: the index layout before the sorted runs."""
    index, names = {}, Memo(brackets)
    for rep in enumerate_reps(Family(kind, p, q)):
        lam = names[rep.lam]
        body = lam if kind == "O" else f"{lam}|{names[rep.mu]}"
        rects = rep.skew.rectangles
        index.setdefault(rep.skew.cells, []).append(
            (f"A[{body}]", rects[-1] if rects else None, admits_flag_zero(rep.lam, rep.mu, p))
        )
    return index


def reference_search(rep, grow_only=False, block=None, extra=()):
    """The set-based search over reference_index, the reference for _merge:
    it walks every change of one cell (two for O) given by
    reference_variants, and with a block keeps the neighbors admitting flag 0
    whose last rectangle is that block."""
    kind, p, q = rep.family.kind, rep.family.p, rep.family.q
    orth = kind == "O"
    index = reference_index("O" if orth else "U", p, q)
    variants = reference_variants(
        skew_box_set(rep.lam, rep.mu, p, q), p, q, 2 if orth else 1, grow_only
    )
    neighbors = (bitmask(cells, q) for cells in variants)
    found = [entries for entries in map(index.get, neighbors) if entries]
    if block is None:
        witnesses = {label for entries in found for label, _, _ in entries}
    else:
        witnesses = {
            label + "_0"
            for entries in found
            for label, last, admits in entries
            if admits and last == block
        }
    wits = tuple(sorted(witnesses.union(extra)))
    return IsolationVerdict(not wits, wits, "search")


def reference_dual(rep):
    if rep.family.kind != "Sp" or rep.flag == 1:
        return reference_search(rep)
    a, b = block = rep.skew.rectangles[-1]
    conds = ()
    if a + b < 3:
        conds = (
            f"the quaternionic block is {a}x{b}; isolation needs its side "
            "lengths to sum to at least 3",
        )
    return reference_search(rep, block=block, extra=conds)


DUAL = {"U": isolated_U_search, "O": isolated_O, "Sp": isolated_Sp}


@pytest.mark.parametrize("kind", ["U", "O", "Sp"])
def test_search_matches_the_set_based_reference(kind):
    for p, q in signatures(8):
        for rep in enumerate_reps(Family(kind, p, q)):
            block = rep.skew.rectangles[-1] if rep.flag == 0 else None
            assert DUAL[kind](rep) == reference_dual(rep), f"{rep!r}"
            assert isolated_d0(rep) == reference_search(rep, grow_only=True, block=block), f"{rep!r}"


def test_verdict_digest_is_pinned():
    # Every verdict with p+q <= 8; the same hash over p+q <= 10 (75 152 reps)
    # is a71dff76de1cef115a1c7c25174b6171a37e8d4096d04c3adbb71ce48c433740.
    digest, count = hashlib.sha256(), 0
    for kind in ("U", "O", "Sp"):
        for n in range(2, 9):
            for p in range(1, n):
                for rep in enumerate_reps(Family(kind, p, n - p)):
                    verdicts = (text_form(rep), DUAL[kind](rep), isolated_d0(rep))
                    digest.update(repr(verdicts).encode())
                    count += 1
    assert count == 9412
    assert digest.hexdigest() == "98c7821e979da35c31599e68dcb63d94c5b26330cbad54dbd1e01ccc8edc649e"


@pytest.mark.parametrize("kind", ["U", "O"])
def test_decode_lists_the_pairs_of_every_cell_mask(kind):
    # every bitmask of each box with p*q <= 12, not only the neighbor masks,
    # against the labels of the enumerated reps grouped by cell set
    names, checked = Memo(brackets), 0
    for p, q in signatures(8):
        if p * q > 12:
            continue
        carried = {}
        for rep in enumerate_reps(Family(kind, p, q)):
            body = names[rep.lam] if kind == "O" else f"{names[rep.lam]}|{names[rep.mu]}"
            carried.setdefault(rep.skew.cells, []).append(f"A[{body}]")
        for cells in range(1 << p * q):
            labels = tuple(sorted(carried.get(cells, ())))
            assert decode(kind, p, q, cells) == labels, (p, q, bin(cells))
            assert witness_count(kind, p, q, cells) == len(labels), (p, q, bin(cells))
            checked += 1
    assert checked == 20106


def test_witness_guard_counts_before_listing(monkeypatch):
    # the empty skew of U(7,7) has 12 012 witnesses, one per pair lam = mu
    # next to one of its cells
    rep = make_rep(Family("U", 7, 7), (7,) * 7, (7,) * 7)
    monkeypatch.setattr(isolation, "MAX_WITNESSES", 12012)
    dual, _, degree_zero = verdicts(rep)
    assert len(dual.witnesses) == 12012 and degree_zero == dual
    monkeypatch.setattr(isolation, "MAX_WITNESSES", 12011)
    with pytest.raises(DomainError, match="carry 12012 witnesses, more than the 12011"):
        verdicts(rep)


@pytest.mark.parametrize("p, q", [(101, 100), (1001, 1), (1, 10001)])
def test_box_guard_refuses_before_any_neighbor_is_built(p, q, monkeypatch):
    # past 10 000 cells or 10^6 row reads (p rows of each of pq masks); a
    # neighbor built would call the unset _flips
    monkeypatch.setattr(isolation, "_flips", None)
    with pytest.raises(DomainError, match=f"flips {p * q} cells and reads {p * p * q} rows"):
        verdicts(make_rep(Family("U", p, q), (), ()))


def test_one_shot_verdicts_reach_past_the_enumeration_guard():
    # U(20,20) has about 1.2e17 reps. Its trivial rep has no neighbor. The
    # skew of (), (2,) is the cells (1,1) and (1,2): dropping (1,2) leaves
    # one pair, dropping (1,1) leaves the row (1,2] over 19 empty rows at 0
    # or 1, which 20 pairs carry, and adding (1,3) gives one more pair.
    family = Family("U", 20, 20)
    dual, explicit, degree_zero = verdicts(trivial_rep(family))
    assert dual.isolated and explicit.isolated and degree_zero.isolated
    dual, explicit, degree_zero = verdicts(make_rep(family, (), (2,)))
    assert not dual.isolated and not explicit.isolated
    assert len(dual.witnesses) == 22 and "A[[]|[1]]" in dual.witnesses
    assert degree_zero.witnesses == ("A[[]|[3]]",)


def test_verdicts_decode_each_neighbor_mask_once(monkeypatch):
    # both searches of verdicts read one decoded neighborhood, and the
    # sweep functions read the group index without decoding anything
    calls, shape = Counter(), isolation._shape

    def counted(kind, p, q, cells):
        calls[cells] += 1
        return shape(kind, p, q, cells)

    monkeypatch.setattr(isolation, "_shape", counted)
    for rep in [
        make_rep(Family("U", 4, 5), (5,) * 4, (5,) * 4),  # every flip adds a cell
        make_rep(Family("U", 5, 5), (4, 2, 2, 2), (5, 4, 2, 2, 2)),
        make_rep(Family("Sp", 3, 3), (2, 1), (2, 2, 1), flag=0),
        make_rep(Family("O", 4, 4), (2, 2)),
    ]:
        kind, p, q = rep.family
        flipped = map(rep.skew.cells.__xor__, _flips(p, q, kind == "O"))
        kept = [n for n in flipped if rep.flag != 0 or _block(p, q, n) == rep.skew.rectangles[-1]]
        calls.clear()
        verdicts(rep)
        assert Counter(kept) == calls, f"{rep!r}"
    calls.clear()
    for kind, judge in DUAL.items():
        for rep in enumerate_reps(Family(kind, 3, 4)):
            judge(rep)
            isolated_d0(rep)
    assert not calls


def test_sweeps_read_every_verdict_from_the_neighbor_table(monkeypatch):
    # Building a group's table is one cache miss; after it, a sweep over
    # every rep, flag 0 included, looks its verdicts up: it builds no
    # neighbor and merges nothing, and reps sharing a cell mask and a flag
    # get the same stored verdict objects.
    isolation._index.cache_clear()
    for key in [("U", 3, 4), ("O", 3, 4)]:
        isolation._index(*key)
    assert isolation._index.cache_info().misses == 2
    calls, flips, merge = Counter(), isolation._flips, isolation._merge
    monkeypatch.setattr(isolation, "_flips", lambda *args: calls.update(["flips"]) or flips(*args))
    monkeypatch.setattr(isolation, "_merge", lambda *args: calls.update(["merge"]) or merge(*args))
    flags, first, shared = Counter(), {}, Counter()
    for kind, judge in DUAL.items():
        for rep in enumerate_reps(Family(kind, 3, 4)):
            found = judge(rep), isolated_d0(rep)
            flags[rep.flag] += 1
            kept = first.setdefault((kind, rep.flag, rep.skew.cells), found)
            assert kept[0] is found[0] and kept[1] is found[1], f"{rep!r}"
            shared[rep.flag] += kept is not found
    assert flags[0] and shared[None] and shared[0] and shared[1]
    assert not calls
    assert isolation._index.cache_info().misses == 2


def test_sweeps_read_the_flag_zero_slots_and_share_one_isolated_verdict():
    # an Sp rep with flag 0 reads the two verdicts its mask holds for the
    # flips keeping its block, and every isolated search verdict is one object
    table, apart, isolated = isolation._index("U", 3, 3), 0, set()
    for rep in enumerate_reps(Family("Sp", 3, 3)):
        slot, slots = 2 * (rep.flag == 0), table[rep.skew.cells]
        assert isolated_Sp(rep) is slots[slot] and isolated_d0(rep) is slots[slot + 1], f"{rep!r}"
        apart += rep.flag == 0 and slots[2:] != slots[:2]
        isolated.update(id(verdict) for verdict in slots if verdict.isolated)
    assert apart and len(isolated) == 1


def test_table_build_pauses_the_collector_and_restores_it(monkeypatch):
    seen, table = [], isolation._index("U", 2, 2)

    def failing(fam):
        seen.append(gc.isenabled())
        raise RuntimeError("enumeration failed")

    assert gc.isenabled()
    monkeypatch.setattr(isolation, "enumerate_reps", failing)
    with pytest.raises(RuntimeError):
        isolation._index.__wrapped__("U", 2, 2)
    assert seen == [False] and gc.isenabled()
    monkeypatch.setattr(
        isolation, "enumerate_reps", lambda fam: seen.append(gc.isenabled()) or enumerate_reps(fam)
    )
    assert isolation._index.__wrapped__("U", 2, 2) == table
    assert seen == [False, False] and gc.isenabled()
    gc.disable()
    try:
        isolation._index.__wrapped__("U", 2, 2)
        assert seen == [False, False, False] and not gc.isenabled()
    finally:
        gc.enable()


def test_decoded_verdicts_equal_the_sweep_past_61_cells():
    # Python hashes an int modulo 2^61 - 1, so past 61 cells masks one flip
    # apart share few hash classes; a decoded search hashes no mask.
    rng = random.Random(0)
    for kind, p, q in [("U", 1, 100), ("U", 2, 40), ("Sp", 2, 40), ("O", 2, 70)]:
        pairs = enumerate_reps(Family("O" if kind == "O" else "U", p, q))
        reps = rng.sample(pairs, 40)
        if kind == "Sp":  # half of them with flag 0
            admitting = [r for r in pairs if admits_flag_zero(r.lam, r.mu, p)]
            reps = [
                make_rep(Family(kind, p, q), r.lam, r.mu, flag)
                for flag, some in [(0, rng.sample(admitting, 20)), (1, reps[:20])]
                for r in some
            ]
        for rep in reps:
            explicit = isolated_U_explicit(rep) if kind == "U" else None
            assert verdicts(rep) == (DUAL[kind](rep), explicit, isolated_d0(rep)), f"{rep!r}"


def rss_mb():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def test_one_shot_verdicts_keep_nothing():
    # The flips of the 6 boxes of 6 000 to 10 000 cells below would hold
    # about 28 MB if kept; each query builds its own and no table.
    reps = [trivial_rep(Family("U", 1, q)) for q in range(6000, 10001, 800)]
    before, tables = rss_mb(), isolation._index.cache_info().currsize
    for rep in reps:
        verdicts(rep)
    assert rss_mb() - before < 10
    assert isolation._index.cache_info().currsize == tables


@st.composite
def unitary_reps(draw):
    """A U or Sp rep in a box up to 12 x 12: lam first, then each row of mu
    by the row rule `follows`."""
    kind = draw(st.sampled_from(["U", "Sp"]))
    p, q = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    lam = sorted(draw(st.lists(st.integers(0, q), min_size=p, max_size=p)), reverse=True)
    mu, above = [], (q, q)
    for x in lam:
        his = [hi for hi in range(x, q + 1) if follows(above, (x, hi))]
        above = (x, draw(st.sampled_from(his)))
        mu.append(above[1])
    flag = None
    if kind == "Sp":
        flag = 0 if admits_flag_zero(lam, mu, p) and draw(st.booleans()) else 1
    return make_rep(Family(kind, p, q), lam, mu, flag)


@settings(max_examples=200, deadline=None)
@given(unitary_reps())
def test_a_mask_has_a_block_exactly_when_its_pair_admits_flag_zero(rep):
    # the block read off the cell mask is the last rectangle of the skew
    p = rep.family.p
    block = rep.skew.rectangles[-1] if admits_flag_zero(rep.lam, rep.mu, p) else None
    assert _block(p, rep.family.q, rep.skew.cells) == block


@settings(max_examples=100, deadline=None)
@given(unitary_reps())
def test_decoded_witnesses_are_reps_one_flip_away(rep):
    # past the exhaustive range: each witness builds, and its cell set is
    # one cell away from the rep's (one more cell for degree zero); a flag-0
    # witness keeps the quaternionic block. Listing the witnesses is what
    # costs, so the witness guard is lowered to 10 000 here.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(isolation, "MAX_WITNESSES", 10_000)
        try:
            dual, _, degree_zero = verdicts(rep)
        except DomainError:
            return
    cells = rep.skew.cells
    for verdict, grow_only in ((dual, False), (degree_zero, True)):
        for label in verdict.witnesses[:50]:
            if not label.startswith("A["):  # the block condition
                continue
            lam, mu = label.removesuffix("_0")[2:-1].split("|")
            witness = make_rep(rep.family, json.loads(lam), json.loads(mu), rep.flag)
            flipped = witness.skew.cells ^ cells
            assert flipped.bit_count() == 1, (rep, label)
            assert not (grow_only and flipped & cells), (rep, label)
            if rep.flag == 0:
                assert witness.skew.rectangles[-1] == rep.skew.rectangles[-1], (rep, label)


class TestInequalities:
    def test_values(self):
        assert t1intro_inequalities(2, 5, 1)
        assert t1intro_inequalities(3, 4, 1)
        # the signature bound fails at (2,4) even though q is large enough
        assert not t1intro_inequalities(2, 4, 1)
        assert not t1intro_inequalities(1, 4, 1)
        assert not t1intro_inequalities(2, 3, 1)
        assert not t1intro_inequalities(2, 2, 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            t1intro_inequalities(2, 3, 2)
        with pytest.raises(DomainError):
            t1intro_inequalities(0, 3, 1)
        with pytest.raises(DomainError):
            t1intro_inequalities(2, 3, -1)

    @pytest.mark.parametrize("args", [(2.0, 5, 1), (True, 5, 0), (3, 5, "1"), (2, 5.0, 1)])
    def test_non_int_arguments_are_refused(self, args):
        with pytest.raises(DomainError, match="must be integers"):
            t1intro_inequalities(*args)
