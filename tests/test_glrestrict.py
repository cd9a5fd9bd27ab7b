"""Exponent vectors of GL(n, R) representations and restriction predictions.

Everything here is exact rational arithmetic, so equality assertions are
legitimate throughout.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomreps import (
    BadRank,
    DomainError,
    GLBlock,
    GLRep,
    WrongFamily,
    hyp_chain_epsilon,
    hyp_transfer,
    parse_glrep,
    prediction_modes_disagree,
    rel_threshold_met,
    repka_diagonal,
    restrict_prediction,
    rho,
    rho_rank1,
    t_matrix,
)
from cohomreps.glrestrict import MAX_RANK, pad_rho

F = Fraction


def blocks_strategy():
    twists = st.one_of(
        st.none(),
        st.builds(F, st.integers(1, 4), st.just(9)),
    )
    block = st.builds(
        GLBlock, st.sampled_from([1, 2]), st.integers(1, 4), twists
    )
    return st.lists(block, min_size=1, max_size=3)


class TestBlocks:
    def test_block_validation(self):
        with pytest.raises(DomainError, match="^block multiplicity must be 1 or 2, got 3$"):
            GLBlock(3, 1)
        with pytest.raises(DomainError, match="^block length must be positive, got 0$"):
            GLBlock(1, 0)
        with pytest.raises(DomainError, match="^twist must lie strictly between 0 and 1/2, got 1/2$"):
            GLBlock(1, 1, F(1, 2))
        with pytest.raises(DomainError):
            GLBlock(1, 1, F(0))

    def test_sizes(self):
        assert GLBlock(1, 3).size == 3
        assert GLBlock(2, 2).size == 4
        assert GLBlock(2, 2, F(1, 3)).size == 8

    def test_parse(self):
        rep = parse_glrep("u(1,3)+u(2,2)[1/3]")
        assert rep.n == 11
        assert rep.blocks[0] == GLBlock(1, 3)
        assert rep.blocks[1] == GLBlock(2, 2, F(1, 3))

    def test_parse_rejects_junk(self):
        with pytest.raises(DomainError):
            parse_glrep("v(1,3)")
        with pytest.raises(DomainError):
            parse_glrep("u(1,3)[0.2]")
        with pytest.raises(DomainError):
            parse_glrep("")
        with pytest.raises(DomainError, match="twist denominator is zero"):
            parse_glrep("u(1,2)[1/0]")


def test_rho():
    assert rho(3) == (F(1), F(0), F(-1))
    assert rho(2) == (F(1, 2), F(-1, 2))
    with pytest.raises(BadRank):
        rho(0)


def test_t_matrix_examples():
    assert t_matrix(parse_glrep("u(1,3)")) == (F(1), F(0), F(-1))
    assert t_matrix(parse_glrep("u(2,2)")) == (
        F(1, 2),
        F(1, 2),
        F(-1, 2),
        F(-1, 2),
    )
    assert t_matrix(parse_glrep("u(1,2)[1/3]")) == (
        F(5, 6),
        F(1, 6),
        F(-1, 6),
        F(-5, 6),
    )


def test_t_matrix_refuses_a_rank_past_the_bound():
    assert len(t_matrix(GLRep((GLBlock(2, MAX_RANK // 4, F(1, 3)),)))) == MAX_RANK
    with pytest.raises(DomainError, match=f"GL\\({MAX_RANK + 1}\\) is larger"):
        t_matrix(GLRep((GLBlock(1, MAX_RANK), GLBlock(1, 1))))


def test_pad_rho():
    assert pad_rho(2, 4) == (F(1, 2), F(0), F(0), F(-1, 2))
    assert pad_rho(3, 5) == (F(1), F(0), F(0), F(0), F(-1))
    assert pad_rho(1, 3) == (F(0), F(0), F(0))
    with pytest.raises(BadRank):
        pad_rho(4, 3)


class TestPrediction:
    def test_trivial_rep_first_entry(self):
        for n in range(1, 7):
            T = t_matrix(parse_glrep(f"u(1,{n})"))
            for m in range(1, n + 1):
                pred = restrict_prediction(T, m)
                assert pred[0] == F(m - 1, 2)

    def test_modes_can_disagree(self):
        T = t_matrix(parse_glrep("u(1,1)[1/3]+u(1,1)"))
        outer = restrict_prediction(T, 2, "outer")
        top = restrict_prediction(T, 2, "top")
        assert outer == (F(0), F(1, 6))
        assert top == (F(0), F(0))
        assert prediction_modes_disagree(T, 2)

    def test_modes_agree_on_trivial(self):
        T = t_matrix(parse_glrep("u(1,4)"))
        assert not prediction_modes_disagree(T, 2)

    def test_bad_target(self):
        with pytest.raises(BadRank):
            restrict_prediction((F(0),), 2)
        with pytest.raises(DomainError):
            restrict_prediction((F(0), F(0)), 1, "sideways")


def test_rho_rank1():
    assert rho_rank1("SU", 3) == F(3)
    assert rho_rank1("SO", 4) == F(3, 2)
    with pytest.raises(WrongFamily):
        rho_rank1("Sp", 2)
    with pytest.raises(BadRank):
        rho_rank1("SU", 0)


def test_hyp_transfer():
    assert hyp_transfer(F(3), F(2), F(4, 5)) == F(9, 5)
    with pytest.raises(DomainError):
        hyp_transfer(F(1), F(2), F(0))
    with pytest.raises(DomainError):
        hyp_transfer(F(2), F(1), F(-1))


def test_hyp_chain():
    assert hyp_chain_epsilon(2) == F(4, 5)
    assert hyp_chain_epsilon(5) == F(19, 5)
    with pytest.raises(DomainError):
        hyp_chain_epsilon(1)


def test_rel_threshold_is_strict():
    assert rel_threshold_met(F(2), F(3), F(0))
    assert not rel_threshold_met(F(2), F(3), F(1))  # boundary is excluded
    with pytest.raises(DomainError):
        rel_threshold_met(F(0), F(1), F(0))


def test_repka():
    out = repka_diagonal(F(6, 10), F(6, 10))
    assert out.kind == "complementary"
    assert out.parameter == F(1, 5)
    assert repka_diagonal(F(2, 5), F(2, 5)).kind == "tempered"
    assert repka_diagonal(F(1, 2), F(1, 2)).kind == "tempered"
    with pytest.raises(DomainError):
        repka_diagonal(F(1), F(1, 2))


@pytest.mark.parametrize(
    "call",
    [
        lambda x: restrict_prediction([x, F(0)], 1),
        lambda x: hyp_transfer(F(3), F(2), x),
        lambda x: rel_threshold_met(F(2), F(3), x),
        lambda x: repka_diagonal(x, F(1, 2)),
    ],
    ids=["restrict_prediction", "hyp_transfer", "rel_threshold_met", "repka_diagonal"],
)
@pytest.mark.parametrize("x", [0.1, "1/10", True])
def test_rejects_inexact_inputs(call, x):
    # Fraction(0.1) would be the nearest binary float, not 1/10
    with pytest.raises(DomainError, match="is not an int or a Fraction"):
        call(x)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: rho(True), BadRank),
        (lambda: rho(2.0), BadRank),
        (lambda: pad_rho(1, 2.0), BadRank),
        (lambda: rho_rank1("SU", 2.5), BadRank),
        (lambda: rho_rank1("SO", True), BadRank),
        (lambda: hyp_chain_epsilon(3.0), DomainError),
        (lambda: restrict_prediction((F(0), F(0)), True), BadRank),
        (lambda: restrict_prediction((F(0), F(0)), 1.0), BadRank),
    ],
    ids=[
        "rho-bool", "rho-float", "pad_rho-float", "rho_rank1-fraction", "rho_rank1-bool",
        "hyp_chain_epsilon-float", "restrict_prediction-bool", "restrict_prediction-float",
    ],
)
def test_non_int_ranks_are_refused(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("args", [(True, 2), (1.0, 2), (1, 2.5), (1, True), (1, 2, 0.25)])
def test_block_rejects_inexact_inputs(args):
    with pytest.raises(DomainError, match="needs int sizes and a Fraction twist"):
        GLBlock(*args)


@settings(max_examples=150, deadline=None)
@given(blocks_strategy())
def test_t_matrix_negation_symmetry(blocks):
    from cohomreps import GLRep

    T = t_matrix(GLRep(tuple(blocks)))
    assert sorted(T) == sorted(-x for x in T)
    assert T == tuple(sorted(T, reverse=True))
    assert len(T) == GLRep(tuple(blocks)).n


@settings(max_examples=150, deadline=None)
@given(blocks_strategy(), st.data())
def test_prediction_nonnegative_and_clip_idempotent(blocks, data):
    from cohomreps import GLRep

    rep = GLRep(tuple(blocks))
    T = t_matrix(rep)
    m = data.draw(st.integers(1, rep.n))
    mode = data.draw(st.sampled_from(["outer", "top"]))
    pred = restrict_prediction(T, m, mode)
    assert all(x >= 0 for x in pred)
    assert tuple(max(x, F(0)) for x in pred) == pred
