"""Integer polynomial arithmetic and Gaussian binomials."""

from functools import lru_cache
from math import comb

import pytest

from cohomreps import DomainError, IntPoly, gaussian_binomial
from cohomreps.polynomials import ONE, ZERO, grassmannian_poincare


def test_trailing_zeros_dropped():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0, 0]).coeffs == ()


@pytest.mark.parametrize("coeffs", [[1.9, 2.5], [1, 2.0], [True, 0], ["1"]])
def test_rejects_non_int_coefficients(coeffs):
    with pytest.raises(DomainError, match="must be ints"):
        IntPoly(coeffs)


def test_zero_behaviour():
    assert not ZERO
    assert ZERO.degree == -1
    assert ZERO + ONE == ONE
    assert ZERO * ONE == ZERO


def test_add_and_mul():
    a = IntPoly([1, 1])
    assert a + a == IntPoly([2, 2])
    assert a * a == IntPoly([1, 2, 1])
    assert (a * IntPoly([1, -1])) == IntPoly([1, 0, -1])
    # results are trimmed like validated input
    assert (a + IntPoly([0, -1])).coeffs == (1,)
    assert (a + IntPoly([-1, -1])).coeffs == ()


def test_shift_and_inflate():
    a = IntPoly([1, 2])
    assert a.shift(2) == IntPoly([0, 0, 1, 2])
    assert a.inflate(3) == IntPoly([1, 0, 0, 2])
    with pytest.raises(ValueError):
        a.shift(-1)
    with pytest.raises(ValueError):
        a.inflate(0)
    assert ZERO.shift(5) == ZERO


def test_evaluation():
    a = IntPoly([1, 2, 3])
    assert a(0) == 1
    assert a(1) == 6
    assert a(2) == 17


def test_palindrome_check():
    assert IntPoly([1, 0, 2, 0, 1]).is_palindromic()
    assert not IntPoly([1, 2]).is_palindromic()
    assert ZERO.is_palindromic()


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(IntPoly([1, 1])) == "1 + t"
    assert str(IntPoly([0, 0, 2])) == "2*t^2"
    assert str(IntPoly([1, -1])) == "1 - t"


def test_gaussian_small_values():
    assert gaussian_binomial(4, 2).coeffs == (1, 1, 2, 1, 1)
    assert gaussian_binomial(2, 1).coeffs == (1, 1)
    assert gaussian_binomial(3, 1).coeffs == (1, 1, 1)
    assert gaussian_binomial(5, 0) == ONE
    assert gaussian_binomial(3, 5) == ZERO
    assert gaussian_binomial(3, -1) == ZERO


@pytest.mark.parametrize("n, k", [(4.5, 2), (4.0, 2), (4, 2.0), (True, 1)])
def test_gaussian_rejects_non_ints(n, k):
    gaussian_binomial(4, 2)
    gaussian_binomial(1, 1)
    # a float or bool equal to an int argument answered above is refused too
    with pytest.raises(DomainError, match="needs ints"):
        gaussian_binomial(n, k)


@lru_cache(maxsize=None)
def pascal_gaussian(n, k):
    """[n, k] by the Pascal recurrence [n, k] = [n-1, k-1] + t^k [n-1, k]."""
    if k < 0 or k > n:
        return ZERO
    if k == 0 or k == n:
        return ONE
    return pascal_gaussian(n - 1, k - 1) + pascal_gaussian(n - 1, k).shift(k)


def test_gaussian_is_the_pascal_recurrence():
    for n in range(30):
        for k in range(-1, n + 2):
            assert gaussian_binomial(n, k) == pascal_gaussian(n, k), (n, k)


def test_gaussian_counts_at_one():
    for n in range(9):
        for k in range(n + 1):
            assert gaussian_binomial(n, k)(1) == comb(n, k)


def test_gaussian_symmetries():
    for n in range(9):
        for k in range(n + 1):
            g = gaussian_binomial(n, k)
            assert g == gaussian_binomial(n, n - k)
            assert g.is_palindromic()
            assert g.degree == k * (n - k) or not g.coeffs


def test_grassmannian_poincare_known_spaces():
    # SO(1+n)/SO(n) is the sphere S^n, SO(2)/SO(1)xSO(1) the circle, and
    # SO(4)/SO(2)xSO(2) is S^2 x S^2
    for n in range(1, 12):
        assert grassmannian_poincare(1, n).coeffs == (1,) + (0,) * (n - 1) + (1,)
    assert grassmannian_poincare(2, 2).coeffs == (1, 0, 2, 0, 1)
    for a in range(1, 7):
        for b in range(1, 7):
            poly = grassmannian_poincare(a, b)
            assert poly == grassmannian_poincare(b, a)
            assert poly.degree == a * b and poly.is_palindromic()
    with pytest.raises(ValueError):
        grassmannian_poincare(0, 3)
    for a, b in [(True, 1), (2.0, 3), (1, 2.5)]:
        with pytest.raises(ValueError, match="positive ints"):
            grassmannian_poincare(a, b)
