"""Representation parameters, degrees and Poincare series."""

import gc
import tracemalloc
from functools import lru_cache

import pytest

from cohomreps import (
    DomainError,
    Family,
    IntPoly,
    InvariantViolation,
    NotOrthogonal,
    WrongFamily,
    admits_flag_zero,
    block_tags,
    count_reps,
    enumerate_partitions_in_box,
    enumerate_reps,
    full_cohomology,
    hodge_type,
    is_compatible,
    iter_reps,
    lp_character,
    make_rep,
    poincare_closed,
    poincare_oracle,
    r_G,
    text_form,
    trivial_rep,
)
from cohomreps import characters, group_and_module, invariant_poincare, partitions, reps
from cohomreps.checks import run, signatures
from cohomreps.polynomials import gaussian_binomial, grassmannian_poincare
from cohomreps.reps import FAMILIES


class TestFamily:
    def test_valid(self):
        fam = Family("U", 2, 3)
        assert (fam.kind, fam.p, fam.q) == ("U", 2, 3)

    def test_unknown_kind(self):
        with pytest.raises(WrongFamily):
            Family("SL", 2, 2)
        with pytest.raises(WrongFamily, match="^unknown family 'X'$"):
            Family("X", 1, 1)

    def test_bad_signature(self):
        with pytest.raises(DomainError):
            Family("U", 0, 2)
        with pytest.raises(DomainError, match=r"^signature \(0,1\) must be positive$"):
            Family("U", 0, 1)

    def test_value_semantics(self):
        fam = Family("U", 2, 3)
        assert repr(fam) == "Family(kind='U', p=2, q=3)"
        assert fam == ("U", 2, 3) and hash(fam) == hash(("U", 2, 3))
        assert sorted([Family("U", 3, 1), Family("O", 2, 2), Family("U", 2, 3)]) == [
            Family("O", 2, 2), Family("U", 2, 3), Family("U", 3, 1)
        ]

    @pytest.mark.parametrize("p, q", [(2.0, 2), (True, 2), (2, False), (2, "2"), (2, None)])
    def test_non_int_signature(self, p, q):
        with pytest.raises(DomainError, match="integers"):
            Family("U", p, q)

    def test_r_G_values(self):
        assert r_G(Family("U", 2, 3)) == 2
        assert r_G(Family("O", 3, 4)) == 3
        assert r_G(Family("Sp", 2, 5)) == 4


class TestMakeRep:
    def test_unitary_degree(self):
        rep = make_rep(Family("U", 2, 2), (1,), (2, 1))
        assert rep.R == 2
        assert rep.flag is None

    def test_unitary_trivial_is_degree_zero(self):
        rep = trivial_rep(Family("U", 3, 2))
        assert rep.R == 0
        assert rep.lam == () and rep.mu == (2, 2, 2)

    def test_unitary_rejects_flag(self):
        with pytest.raises(WrongFamily):
            make_rep(Family("U", 2, 2), (), (2, 2), flag=1)

    def test_unitary_needs_mu(self):
        with pytest.raises(DomainError):
            make_rep(Family("U", 2, 2), (1,))

    def test_orthogonal_fills_in_complement(self):
        rep = make_rep(Family("O", 2, 4), (1, 1))
        assert rep.mu == (3, 3)
        assert rep.R == 2
        assert rep.sign_multiplicity == "unresolved"

    def test_orthogonal_rejects_wrong_mu(self):
        with pytest.raises(NotOrthogonal):
            make_rep(Family("O", 2, 4), (1, 1), (2, 2))

    def test_orthogonal_accepts_matching_mu(self):
        rep = make_rep(Family("O", 2, 4), (1, 1), (3, 3))
        assert rep.lam == (1, 1)

    def test_orthogonal_rejects_flag(self):
        with pytest.raises(WrongFamily):
            make_rep(Family("O", 2, 2), (), flag=1)

    def test_sp_needs_flag(self):
        with pytest.raises(DomainError):
            make_rep(Family("Sp", 1, 1), (), (1,))

    @pytest.mark.parametrize("flag", [True, False, 1.0, 0.0])
    def test_sp_flag_must_be_an_int(self, flag):
        with pytest.raises(DomainError, match="flag 0 or 1"):
            make_rep(Family("Sp", 1, 1), (), (1,), flag=flag)

    def test_sp_flag_zero_needs_bottom_row_in_skew(self):
        # lam touches the bottom of the box, only flag 1 exists
        with pytest.raises(DomainError):
            make_rep(Family("Sp", 1, 2), (1,), (2,), flag=0)
        rep = make_rep(Family("Sp", 1, 2), (1,), (2,), flag=1)
        assert rep.flag == 1

    def test_sp_flag_one_degree(self):
        rep = make_rep(Family("Sp", 1, 1), (), (1,), flag=1)
        assert rep.R == 1

    def test_sp_flag_zero_degree_uses_bottom_left_block(self):
        # two blocks; doubling must apply to the bottom-left one
        rep = make_rep(Family("Sp", 2, 3), (1,), (3, 1), flag=0)
        assert rep.skew.rectangles[-1] == (1, 1)
        assert rep.R == 8

    def test_trivial_sp_has_flag_zero(self):
        rep = trivial_rep(Family("Sp", 1, 2))
        assert rep.flag == 0 and rep.R == 0


def test_enumeration_counts():
    assert len(enumerate_reps(Family("U", 1, 1))) == 3
    assert len(enumerate_reps(Family("U", 2, 2))) == 18
    assert len(enumerate_reps(Family("O", 1, 1))) == 1
    assert len(enumerate_reps(Family("O", 2, 2))) == 4
    assert len(enumerate_reps(Family("Sp", 1, 1))) == 4


def scan_reps(fam):
    """Reference enumeration: make_rep on every compatible pair of box partitions."""
    p, q = fam.p, fam.q
    parts = list(enumerate_partitions_in_box(p, q))
    found = []
    if fam.kind == "O":
        for lam in parts:
            try:
                found.append(make_rep(fam, lam))
            except NotOrthogonal:
                pass
        return found
    for lam in parts:
        for mu in parts:
            if not is_compatible(lam, mu, p, q):
                continue
            if fam.kind == "U":
                found.append(make_rep(fam, lam, mu))
            else:
                if admits_flag_zero(lam, mu, p):
                    found.append(make_rep(fam, lam, mu, flag=0))
                found.append(make_rep(fam, lam, mu, flag=1))
    return found


@pytest.mark.parametrize("kind", FAMILIES)
def test_enumeration_equals_quadratic_scan(kind):
    # O is cheap to scan, and its enumeration prunes the box rows by hand
    for p, q in signatures(12 if kind == "O" else 9):
        fam = Family(kind, p, q)
        assert list(enumerate_reps(fam)) == scan_reps(fam), f"{kind}({p},{q})"


def test_enumeration_decomposes_each_pair_once(monkeypatch):
    def revalidated(*args, **kwargs):
        raise AssertionError("enumeration went back through the validating path")

    for module in (reps, partitions):
        for name in ("make_rep", "is_compatible", "rectangle_decomposition", "orthogonal_decomposition"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, revalidated)
    for kind in FAMILIES:
        assert reps._enumerate_cached.__wrapped__(kind, 3, 4)


def test_orthogonal_enumeration_skips_the_box_scan(monkeypatch):
    # the lower rows of lam are the mirrored offers of the runs of its upper
    # half, so the work follows the output rather than the C(p+q, p) box
    # partitions, and each offer carries its cells and rectangle, so no
    # finished lam is decomposed again
    def scan(*args):
        raise AssertionError("orthogonal enumeration scanned the box or decomposed a lam")

    monkeypatch.setattr(partitions, "enumerate_partitions_in_box", scan)
    monkeypatch.setattr(partitions, "_skew", scan)
    for p, q in [(1, 1), (3, 4), (6, 6)]:
        assert reps._enumerate_cached.__wrapped__("O", p, q)


# Counts from the dynamic program alone, at sizes that enumeration refuses
# or takes seconds over.
@pytest.mark.parametrize(
    "kind, p, q, count",
    [
        ("U", 7, 7, 335_682),
        ("Sp", 7, 7, 437_880),
        ("U", 8, 8, 2_534_136),
        ("O", 14, 14, 437_880),
        ("O", 16, 16, 3_302_816),
        ("U", 10, 10, 147_530_650),
        ("U", 20, 20, 121_308_311_024_220_006),
    ],
)
def test_count_reps_pins(kind, p, q, count):
    assert count_reps(Family(kind, p, q)) == count


def test_thin_boxes_have_closed_counts():
    for q in [*range(1, 200), 29_999, 30_000]:
        assert count_reps(Family("U", 1, q)) == (q + 1) * (q + 2) // 2, q
        assert count_reps(Family("O", 1, q)) == q // 2 + 1, q


def test_orthogonal_count_of_the_doubled_box_is_the_symplectic_count():
    for a in range(1, 21):
        for b in range(1, 21):
            assert count_reps(Family("O", 2 * a, 2 * b)) == count_reps(Family("Sp", a, b)), (a, b)


def test_count_check_matches_enumeration():
    assert run("count", 10) == {"name": "count", "scale": 10, "cases": 135, "mismatches": []}


def test_iter_reps_is_the_uncached_enumeration():
    fam = Family("Sp", 3, 4)
    first = iter_reps(fam)
    assert first is not iter_reps(fam)
    assert tuple(first) == enumerate_reps(fam)
    assert next(first, None) is None


@pytest.mark.parametrize("kind", ["U", "Sp"])
def test_enumeration_shares_each_partition_rectangle_and_rectangle_list(kind):
    group = tuple(iter_reps(Family(kind, 4, 5)))
    for values in (
        [rep.lam for rep in group],
        [rep.mu for rep in group],
        [rep.skew.rectangles for rep in group],
        [rect for rep in group for rect in rep.skew.rectangles],
    ):
        assert len(set(map(id, values))) == len(set(values)) < len(values)


def test_orthogonal_enumeration_shares_each_rectangle():
    rects = [rect for rep in iter_reps(Family("O", 8, 9)) for rect in rep.skew.rectangles]
    assert len(set(map(id, rects))) == len(set(rects)) < len(rects)


def test_orthogonal_enumeration_shares_each_rectangle_list_pairs_and_center():
    group = tuple(iter_reps(Family("O", 8, 8)))
    for values in (
        [rep.skew.rectangles for rep in group],
        [rep.orth.pairs for rep in group],
        [rep.orth.center for rep in group],
    ):
        assert len(set(map(id, values))) == len(set(values)) < len(values)


def test_a_fresh_enumeration_takes_under_260_bytes_a_rep():
    # 219 bytes a rep measured: the rep, its decomposition and its cell mask,
    # the partitions and rectangles being shared
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        group = tuple(iter_reps(Family("U", 6, 6)))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown / len(group) < 260, grown / len(group)


@pytest.mark.parametrize("kind, p, q", [("U", 8, 8), ("Sp", 8, 8), ("O", 16, 16), ("U", 20, 20)])
def test_enumeration_past_the_guard_is_refused_at_the_call(kind, p, q):
    fam = Family(kind, p, q)
    count = count_reps(fam)
    assert count > reps.MAX_REPS == 1_000_000
    with pytest.raises(DomainError, match=f"^{kind}\\({p},{q}\\) has {count} representations"):
        iter_reps(fam)
    with pytest.raises(DomainError, match=str(count)):
        enumerate_reps(fam)


def test_largest_groups_under_the_guard_are_not_refused():
    # iter_reps refuses at the call, so a generator back means it passed
    for fam in [Family("U", 7, 7), Family("Sp", 7, 7), Family("O", 14, 14)]:
        assert count_reps(fam) <= reps.MAX_REPS
        iter_reps(fam).close()


def test_enumeration_pauses_the_collector_and_restores_it(monkeypatch):
    seen = []

    def failing(fam):
        seen.append(gc.isenabled())
        raise RuntimeError("enumeration failed")

    assert gc.isenabled()
    monkeypatch.setattr(reps, "iter_reps", failing)
    with pytest.raises(RuntimeError):
        reps._enumerate_cached.__wrapped__("U", 2, 2)
    assert seen == [False] and gc.isenabled()
    monkeypatch.undo()
    gc.disable()
    try:
        assert len(reps._enumerate_cached.__wrapped__("U", 2, 2)) == 18
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_enumeration_is_sorted_and_flag_zero_first():
    reps = enumerate_reps(Family("Sp", 1, 1))
    keys = [(r.lam, r.mu, r.flag) for r in reps]
    assert keys == sorted(keys)
    assert keys == [((), (), 1), ((), (1,), 0), ((), (1,), 1), ((1,), (1,), 1)]


def test_memo_starts_over_at_its_size(monkeypatch):
    monkeypatch.setattr(reps, "MEMO_SIZE", 2)
    memo = reps.Memo(str)
    assert [memo[1], memo[2], memo[3]] == ["1", "2", "3"]
    assert memo == {3: "3"}


def test_hodge_type():
    rep = make_rep(Family("U", 1, 1), (1,), (1,))
    assert hodge_type(rep) == (1, 0)
    with pytest.raises(WrongFamily):
        hodge_type(trivial_rep(Family("O", 2, 2)))


def test_lp_character_dimensions():
    group, chi = lp_character(trivial_rep(Family("U", 2, 3)))
    assert chi.dimension() == 12
    assert group.factors == (("U", 2), ("U", 3))
    group, chi = lp_character(trivial_rep(Family("Sp", 1, 2)))
    assert chi.dimension() == 8
    assert group.factors == (("Sp", 1), ("Sp", 2))
    group, chi = lp_character(trivial_rep(Family("O", 2, 2)))
    assert chi.dimension() == 4
    assert group.factors == (("SO", 2), ("SO", 2))


def test_lp_character_checks_the_module_dimension(monkeypatch):
    # standard weight lists that each lost a weight give U(2) x U(3) a
    # module of dimension 2 * 1 * 2 * 2; the oracle runs on an empty cache
    std = characters.standard_weights
    monkeypatch.setattr(characters, "standard_weights", lambda factor: std(factor)[1:])
    monkeypatch.setattr(reps, "_oracle_poincare", lru_cache(reps._oracle_poincare.__wrapped__))
    monkeypatch.setattr(reps, "_ORACLE", reps.Products(reps._ORACLE.form))
    rep = trivial_rep(Family("U", 2, 3))
    with pytest.raises(InvariantViolation, match="dimension 4, its Levi blocks give 12"):
        lp_character(rep)
    with pytest.raises(InvariantViolation, match="dimension 4, its Levi blocks give 12"):
        poincare_oracle(rep)


def test_mirror_blocks_run_the_engine_once(monkeypatch):
    calls = []

    def engine(group, chi):
        calls.append(group.factors)
        return IntPoly([1])

    monkeypatch.setattr(reps, "_oracle_poincare", lru_cache(reps._oracle_poincare.__wrapped__))
    monkeypatch.setattr(reps, "_ORACLE", reps.Products(reps._ORACLE.form))
    monkeypatch.setattr(characters, "invariant_poincare", engine)
    first, second = trivial_rep(Family("Sp", 2, 4)), trivial_rep(Family("Sp", 4, 2))
    assert (block_tags(first), block_tags(second)) == ((("quat", 2, 4),), (("quat", 4, 2),))
    assert poincare_oracle(first) == poincare_oracle(second) == IntPoly([1])
    assert calls == [(("Sp", 2), ("Sp", 4))]


class TestPoincare:
    def test_trivial_u11(self):
        poly = poincare_closed(trivial_rep(Family("U", 1, 1)))
        assert poly == IntPoly([1, 0, 1])

    def test_trivial_u22(self):
        poly = poincare_closed(trivial_rep(Family("U", 2, 2)))
        assert poly == IntPoly([1, 0, 1, 0, 2, 0, 1, 0, 1])

    def test_empty_skew_is_a_single_class_in_the_top_degree(self):
        rep = make_rep(Family("U", 2, 2), (2, 1), (2, 1))
        assert poincare_closed(rep) == IntPoly([0, 0, 0, 0, 1])

    def test_orthogonal_trivial_o22(self):
        poly = poincare_closed(trivial_rep(Family("O", 2, 2)))
        assert poly == IntPoly([1, 0, 2, 0, 1])

    def test_sp12_trivial(self):
        poly = poincare_closed(trivial_rep(Family("Sp", 1, 2)))
        assert poly == IntPoly([1, 0, 0, 0, 1, 0, 0, 0, 1])

    def test_shift_matches_lowest_degree(self):
        rep = make_rep(Family("O", 2, 4), (1, 1))
        poly = poincare_closed(rep)
        assert poly.coeffs[: rep.R] == (0,) * rep.R
        assert poly.coeffs[rep.R] == 1


class TestOracleAgreement:
    def test_u11_cohomology(self):
        assert full_cohomology(trivial_rep(Family("U", 1, 1))) == ((0, 1), (2, 1))

    def test_o22_cohomology(self):
        rep = trivial_rep(Family("O", 2, 2))
        assert full_cohomology(rep) == ((0, 1), (2, 2), (4, 1))
        lam1 = make_rep(Family("O", 2, 2), (1,))
        assert full_cohomology(lam1) == ((1, 1), (3, 1))

    def test_sp11_all_four(self):
        fam = Family("Sp", 1, 1)
        table = {
            ((), (), 1): ((2, 1),),
            ((), (1,), 0): ((0, 1), (4, 1)),
            ((), (1,), 1): ((1, 1), (3, 1)),
            ((1,), (1,), 1): ((2, 1),),
        }
        for rep in enumerate_reps(fam):
            assert full_cohomology(rep) == table[(rep.lam, rep.mu, rep.flag)]

    def test_oracle_equals_closed_on_mixed_cases(self):
        for fam, lam, mu, flag in [
            (Family("U", 2, 3), (1,), (3, 1), None),
            (Family("Sp", 2, 3), (1,), (3, 1), 0),
            (Family("O", 3, 3), (1, 1, 1), None, None),
        ]:
            rep = make_rep(fam, lam, mu, flag) if fam.kind != "O" else make_rep(fam, lam)
            assert poincare_oracle(rep) == poincare_closed(rep)


def test_closed_product_never_runs_the_engine(monkeypatch):
    def engine(*args):
        raise AssertionError("poincare_closed ran the invariants engine")

    monkeypatch.setattr(characters, "invariant_poincare", engine)
    reps._CLOSED.clear()
    for fam in [Family("O", 5, 5), Family("O", 6, 7), Family("Sp", 2, 3), Family("U", 3, 3)]:
        assert poincare_closed(trivial_rep(fam)).is_palindromic()


def test_closed_product_past_its_bounds_is_refused(monkeypatch):
    reps._CLOSED.clear()  # the bounds are checked on a miss
    # U(2,2) trivial: degree 8 over one block of shorter side 2, work 16
    monkeypatch.setattr(reps, "MAX_CLOSED_WORK", 16)
    assert poincare_closed(trivial_rep(Family("U", 2, 2))).degree == 8
    with pytest.raises(DomainError, match="has degree 12 over blocks whose shorter sides sum to 2;"):
        poincare_closed(trivial_rep(Family("U", 2, 3)))
    # U(1,8) trivial: degree 16, work 16, past the degree bound alone
    monkeypatch.setattr(reps, "MAX_CLOSED_DEGREE", 15)
    with pytest.raises(DomainError, match="has degree 16 over blocks whose shorter sides sum to 1;"):
        poincare_closed(trivial_rep(Family("U", 1, 8)))
    monkeypatch.undo()
    with pytest.raises(DomainError, match="has degree 50562 "):
        poincare_closed(trivial_rep(Family("U", 159, 159)))


def test_closed_products_past_the_cached_degree_are_not_cached(monkeypatch):
    # U(16,16) trivial is one hermitian block of degree 512, U(16,17) of 544
    built = []

    def build(tags):
        built.append(tags)
        return reps._closed_product(tags)

    monkeypatch.setattr(reps, "_CLOSED", reps.Products(build))
    short, long = trivial_rep(Family("U", 16, 16)), trivial_rep(Family("U", 16, 17))
    assert poincare_closed(short).degree == reps.MAX_CACHED_DEGREE == 512
    assert len(reps._CLOSED) == 1
    for _ in range(2):
        assert poincare_closed(long) == gaussian_binomial(33, 16).inflate(2).shift(long.R)
    # the long product is built on each call and never stored
    assert list(reps._CLOSED) == [reps._key(short)]
    assert built == [(("her", 16, 16),)] + [(("her", 16, 17),)] * 2


def test_a_closed_product_is_built_once_per_block_list(monkeypatch):
    built = []

    def build(tags):
        built.append(tags)
        return reps._block_product(tags)

    monkeypatch.setattr(reps, "_CLOSED", reps.Products(reps._closed_product))
    monkeypatch.setattr(reps, "_BLOCKS", reps.Blocks(build))
    groups = [Family("U", 3, 3), Family("Sp", 2, 3), Family("O", 4, 5)]
    every = [rep for fam in groups for rep in enumerate_reps(fam)]
    for rep in every:
        assert poincare_closed(rep) == reps._block_product(block_tags(rep)).shift(rep.R)
    # keys that differ only in R share their block list, and its one build
    assert sorted(built) == sorted({block_tags(rep) for rep in every})
    assert len({reps._key(rep) for rep in every}) > len(built)


def test_a_warm_product_is_one_lookup(monkeypatch):
    groups = [Family("U", 3, 3), Family("Sp", 2, 3), Family("O", 4, 5)]
    every = [rep for fam in groups for rep in enumerate_reps(fam)]
    assert {rep.flag for rep in every} == {None, 0, 1}
    first = [(poincare_closed(rep), poincare_oracle(rep)) for rep in every]

    def refuse(*args):
        raise AssertionError("a warm product was built again")

    monkeypatch.setattr(reps, "block_tags", refuse)
    monkeypatch.setattr(reps, "_blocks", refuse)
    monkeypatch.setattr(reps, "group_and_module", refuse)
    monkeypatch.setattr(IntPoly, "shift", refuse)
    assert [(poincare_closed(rep), poincare_oracle(rep)) for rep in every] == first


def test_real_center_block_4_4():
    # the closed Grassmannian product and the engine on SO(4) x SO(4)
    poly = grassmannian_poincare(4, 4)
    assert poly.coeffs == (1, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 3, 0, 0, 0, 1)
    assert poly.is_palindromic()
    assert invariant_poincare(*group_and_module((("real", 4, 4),))) == poly


def test_text_forms():
    assert text_form(trivial_rep(Family("U", 1, 2))) == "U(1,2) A[[]|[2]]"
    assert text_form(make_rep(Family("O", 2, 4), (1, 1))) == "O(2,4) A[[1,1]]"
    assert (
        text_form(make_rep(Family("Sp", 1, 1), (), (1,), flag=0))
        == "Sp(1,1) A[[]|[1]]_0"
    )
