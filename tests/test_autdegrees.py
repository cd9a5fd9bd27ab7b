"""Degree defect formula, brute force companion, supports, coverage tags."""

import hashlib
import time
from collections import defaultdict
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomreps import (
    DomainError,
    Family,
    N,
    NotADivisor,
    SignatureMismatch,
    degree_support,
    enumerate_reps,
    lemC_bruteforce,
    li_coverage,
    make_rep,
    relth_coverage,
    text_form,
    trivial_rep,
)
from cohomreps import autdegrees
from cohomreps.autdegrees import MAX_LEMC_STEPS, MAX_N
from cohomreps.checks import run
from cohomreps.reps import Memo


class TestDefectFormula:
    def test_values(self):
        assert N(2, 4, 2) == 2
        assert N(1, 6, 1) == 5
        assert N(3, 6, 1) == 1
        assert N(2, 6, 3) == 4
        assert N(6, 6, 3) == 0
        assert N(1, 4, 0) == 0

    def test_not_a_divisor(self):
        with pytest.raises(NotADivisor):
            N(4, 6, 1)

    def test_domain(self):
        with pytest.raises(DomainError):
            N(2, 4, 5)
        with pytest.raises(DomainError):
            N(0, 4, 1)

    @pytest.mark.parametrize("args", [(2.0, 4.0, 1.0), (2, 4, True), (2, 4.0, 1)])
    def test_rejects_non_integers(self, args):
        with pytest.raises(DomainError, match="must be an integer"):
            N(*args)

    def test_matches_brute_force_spot(self):
        assert run("lemC", 6)["mismatches"] == []


def test_brute_force_small():
    assert lemC_bruteforce(2, 2, 2) == (2, True)
    assert lemC_bruteforce(1, 3, 2) == (0, True)
    with pytest.raises(DomainError):
        lemC_bruteforce(2, 2, 5)


def test_brute_force_walks_no_deeper_than_the_stack():
    t0 = time.monotonic()
    assert lemC_bruteforce(1, 1500, 0) == (0, True)
    assert lemC_bruteforce(1, 3000, 1500) == (0, True)
    assert time.monotonic() - t0 < 1


@pytest.mark.parametrize("args", [(40, 40, 800), (1, 10**9, 5 * 10**8)])
def test_brute_force_refuses_a_walk_past_its_step_bound(args):
    # many partitions, and one partition 5 * 10^8 parts deep
    t0 = time.monotonic()
    with pytest.raises(DomainError, match=f"tries over {MAX_LEMC_STEPS} parts"):
        lemC_bruteforce(*args)
    assert time.monotonic() - t0 < 5


def test_brute_force_step_bound_counts_each_part_tried(monkeypatch):
    # (2, 2, 2) tries the parts 1 and 2 first, then 1 under the first 1
    monkeypatch.setattr(autdegrees, "MAX_LEMC_STEPS", 3)
    assert lemC_bruteforce(2, 2, 2) == (2, True)
    monkeypatch.setattr(autdegrees, "MAX_LEMC_STEPS", 2)
    with pytest.raises(DomainError, match="tries over 2 parts"):
        lemC_bruteforce(2, 2, 2)


def test_brute_force_matches_every_ordered_vector():
    # every x in [0, a]^b, in any order, for (a + 1)^b <= 10^5 with a <= 10
    for a in range(11):
        for b in range(1, 17):
            if (a + 1) ** b > 10**5:
                break
            term = [x * (a - x) for x in range(a + 1)]
            values = defaultdict(set)
            for xs in product(range(a + 1), repeat=b):
                values[sum(xs)].add(sum(map(term.__getitem__, xs)))
            for p in range(a * b + 1):
                expected = max(values[p]), len({v % 2 for v in values[p]}) == 1
                assert lemC_bruteforce(a, b, p) == expected, (a, b, p)


@pytest.mark.parametrize("args", [(2, 2, 1.0), (2, True, 1), (2.0, 2, 1)])
def test_brute_force_rejects_non_integers(args):
    with pytest.raises(DomainError, match="must be an integer"):
        lemC_bruteforce(*args)


def test_a_refused_walk_is_not_remembered(monkeypatch):
    monkeypatch.setattr(autdegrees, "_WALKS", Memo(autdegrees._walk))
    monkeypatch.setattr(autdegrees, "MAX_LEMC_STEPS", 2)
    with pytest.raises(DomainError, match="tries over 2 parts"):
        lemC_bruteforce(2, 2, 2)
    assert not autdegrees._WALKS
    monkeypatch.setattr(autdegrees, "MAX_LEMC_STEPS", 3)
    assert lemC_bruteforce(2, 2, 2) == (2, True)
    assert autdegrees._WALKS == {(2, 2, 2): (2, True, 3)}


@st.composite
def valid_calls(draw):
    """A function of autdegrees taking three ints, the names of its
    arguments and one valid call of it, with every number at most 6."""
    a, b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    p = draw(st.integers(0, a * b))
    return draw(
        st.sampled_from(
            [
                (N, "b n p", (b, a * b, p)),
                (lemC_bruteforce, "a b p", (a, b, p)),
                (degree_support, "n p q", (a + b, min(a, b), max(a, b))),
            ]
        )
    )


@settings(max_examples=200, deadline=None)
@given(valid_calls(), st.integers(0, 2), st.one_of(st.booleans(), st.floats(), st.text()))
def test_a_non_int_argument_is_refused_by_name(call, slot, bad):
    # also once the all-int call has run, and so been memoized where the
    # function keeps a memo: validation comes before any lookup
    fn, names, args = call
    fn(*args)
    args = args[:slot] + (bad,) + args[slot + 1 :]
    with pytest.raises(DomainError, match=f"^{names.split()[slot]} must be an integer, got "):
        fn(*args)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_brute_force_maximum_is_the_closed_form(a, b, data):
    p = data.draw(st.integers(0, a * b))
    assert lemC_bruteforce(a, b, p)[0] == N(b, a * b, p)


class TestDegreeSupport:
    def test_example_4_2_2(self):
        ds = degree_support(4, 2, 2)
        assert ds.degrees == (2, 4, 6)
        assert ds.center == 4
        assert ds.is_parity_uniform

    def test_prime_rank_pins_the_middle(self):
        for n, p, q in [(5, 2, 3), (7, 3, 4), (3, 1, 2)]:
            ds = degree_support(n, p, q)
            assert ds.degrees == (p * q,)

    def test_mixed_parity_union(self):
        ds = degree_support(6, 1, 5)
        assert ds.degrees == (3, 4, 5, 6, 7)
        assert not ds.is_parity_uniform
        assert ds.parity == 1

    def test_symmetry_about_center(self):
        for n, p, q in [(4, 2, 2), (6, 2, 4), (6, 3, 3), (8, 4, 4), (6, 1, 5)]:
            ds = degree_support(n, p, q)
            mirrored = sorted(2 * ds.center - d for d in ds.degrees)
            assert list(ds.degrees) == mirrored

    def test_support_is_the_union_of_the_bands(self):
        for n in range(2, 60):
            for p in range(1, n // 2 + 1):
                ds = degree_support(n, p, n - p)
                bands = tuple((b, N(b, n, p)) for b in range(2, n + 1) if n % b == 0)
                union = {d for _, w in bands for d in range(ds.center - w, ds.center + w + 1, 2)}
                assert ds.bands == bands, (n, p)
                assert ds.degrees == tuple(sorted(union)), (n, p)

    def test_oversized_support_is_refused_with_its_size(self):
        with pytest.raises(DomainError, match="has 3125001 degrees, more than the 1000000"):
            degree_support(5000, 2500, 2500)

    def test_rank_past_the_walk_bound_is_refused(self):
        n = MAX_N + 1
        with pytest.raises(DomainError, match=f"n={n} is more than the {n - 1}"):
            degree_support(n, 1, n - 1)

    def test_signature_must_sum(self):
        with pytest.raises(SignatureMismatch):
            degree_support(5, 2, 2)

    @pytest.mark.parametrize("args", [(4.0, 2.0, 2.0), (4, 2, 2.0), (2, True, True)])
    def test_rejects_non_integers(self, args):
        with pytest.raises(DomainError, match="must be an integer"):
            degree_support(*args)

    def test_p_at_most_q(self):
        with pytest.raises(DomainError):
            degree_support(5, 3, 2)


class TestCoverage:
    def test_unitary_big_rectangle(self):
        rep = make_rep(Family("U", 2, 3), (1, 1), (2, 2))
        tag = li_coverage(rep)
        assert (tag.tag, tag.source) == ("Q2", "LiGen")

    def test_unitary_tensor_trick(self):
        rep = make_rep(Family("U", 2, 3), (1, 1), (2, 2))
        tag = relth_coverage(rep)
        assert (tag.tag, tag.source) == ("Q2", "ttt")

    def test_orthogonal_central_block(self):
        rep = make_rep(Family("O", 3, 4), (1, 1, 1))
        tag = li_coverage(rep)
        assert (tag.tag, tag.source) == ("Q1", "LiGen")

    def test_orthogonal_transfer(self):
        rep = make_rep(Family("O", 3, 6), (2, 2, 2))
        tag = relth_coverage(rep)
        assert (tag.tag, tag.source) == ("Q1", "relth")

    def test_orthogonal_tensor_trick(self):
        rep = make_rep(Family("O", 2, 4), (1, 1))
        tag = relth_coverage(rep)
        assert (tag.tag, tag.source) == ("Q2", "ttt")

    def test_quaternionic_trivial(self):
        rep = trivial_rep(Family("Sp", 2, 2))
        assert (li_coverage(rep).tag, li_coverage(rep).source) == ("Q1", "LiGen")
        assert relth_coverage(rep).tag == "Q1"

    def test_uncovered_case(self):
        rep = make_rep(Family("U", 2, 2), (2, 1), (2, 1))
        assert li_coverage(rep).tag == "none"
        assert li_coverage(rep).source is None

    def test_orthogonal_even_central_block(self):
        # O(4,4) A[[]]: no pairs, and the central block is the whole 4 x 4 box
        tag = li_coverage(make_rep(Family("O", 4, 4), ()))
        assert (tag.tag, tag.source) == ("Q1", "LiGen")

    def test_unitary_transfer(self):
        # U(2,3) A[[]|[2,2]]: lam is empty (r = 0) and mu is (2, 2), so c = r + 2
        tag = relth_coverage(make_rep(Family("U", 2, 3), (), (2, 2)))
        assert (tag.tag, tag.source) == ("Q2", "relth")

    def test_tag_digest_is_pinned(self):
        # both tags of every rep with p+q <= 10
        digest, count = hashlib.sha256(), 0
        for kind in ("U", "O", "Sp"):
            for n in range(2, 11):
                for p in range(1, n):
                    for rep in enumerate_reps(Family(kind, p, n - p)):
                        tags = (text_form(rep), li_coverage(rep), relth_coverage(rep))
                        digest.update(repr(tags).encode())
                        count += 1
        assert count == 75152
        assert digest.hexdigest() == "a2b0b238539323a57893b63212ae9e215462e245f0230a2e9cb2fd12ea829726"
