"""Dense integer polynomials in one variable t, plus Gaussian binomials and
the Poincare polynomials of real Grassmannians."""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from operator import add, sub

from .errors import DomainError, InexactDivision


class IntPoly:
    """Immutable polynomial with int coefficients, index = degree."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        if any(type(x) is not int for x in c):
            raise DomainError(f"coefficients {c!r} must be ints")
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "_c", tuple(c))

    @property
    def coeffs(self):
        return self._c

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        c = [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]
        while c and not c[-1]:
            c.pop()
        return _trusted(tuple(c))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if not self._c or not other._c:
            return ZERO
        out = [0] * (len(self._c) + len(other._c) - 1)
        for i, x in enumerate(self._c):
            if x:
                for j, y in enumerate(other._c):
                    out[i + j] += x * y
        # the top coefficient is the product of two nonzero ones
        return _trusted(tuple(out))

    def shift(self, k: int) -> "IntPoly":
        """Multiply by t**k."""
        if k < 0:
            raise ValueError("negative shift")
        if not self._c:
            return self
        return _trusted((0,) * k + self._c)

    def inflate(self, k: int) -> "IntPoly":
        """Substitute t -> t**k."""
        if k < 1:
            raise ValueError("inflation factor must be positive")
        out = [0] * ((len(self._c) - 1) * k + 1)  # empty for ZERO
        for i, x in enumerate(self._c):
            out[i * k] = x
        return _trusted(tuple(out))

    def __call__(self, x: int) -> int:
        val = 0
        for c in reversed(self._c):
            val = val * x + c
        return val

    def is_palindromic(self) -> bool:
        c = self._c
        return c == c[::-1]

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for i, c in enumerate(self._c):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{head}t^{i}" if i > 1 else f"{head}t")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"IntPoly({list(self._c)!r})"


def _trusted(c: tuple) -> IntPoly:
    """The IntPoly on c, a tuple of ints without trailing zeros, unchecked:
    the arithmetic above builds its results from such tuples."""
    poly = object.__new__(IntPoly)
    poly._c = c
    return poly


ZERO = IntPoly()
ONE = IntPoly((1,))


def _times_one_minus(c: list, k: int) -> list:
    """The coefficients of (1 - t^k) times the polynomial with coefficients c."""
    out = c + [0] * k
    out[k:] = map(sub, out[k:], c)
    return out


def _over_one_minus(c: list, k: int) -> list:
    """The coefficients of the polynomial with coefficients c divided by
    1 - t^k; InexactDivision if the division leaves a remainder."""
    # c = (1 - t^k) * quot means quot_i = c_i + quot_(i-k): a running sum
    # over each residue class mod k
    quot = list(c)
    for r in range(k):
        quot[r::k] = accumulate(quot[r::k])
    if any(quot[len(quot) - k :]):
        raise InexactDivision(f"{IntPoly(c)} is not divisible by 1 - t^{k}")
    return quot[: len(quot) - k]


def times_gaussian(poly: IntPoly, n: int, k: int, step: int = 1) -> IntPoly:
    """poly times the Gaussian binomial [n, k] in t^step, 0 <= k <= n.

    [n, k] is the product of (1 - t^(n-k+i)) / (1 - t^i) over i = 1..k.
    The first i factors make [n-k+i, i], so multiplying and dividing one
    factor at a time keeps the running product a polynomial, of degree at
    most that of the result; each division is checked to be exact. The
    arguments are trusted; gaussian_binomial checks them.
    """
    c, k = list(poly.coeffs), min(k, n - k)
    for i in range(1, k + 1):
        c = _over_one_minus(_times_one_minus(c, step * (n - k + i)), step * i)
    return _trusted(tuple(c))


def gaussian_binomial(n: int, k: int) -> IntPoly:
    """The q-binomial coefficient as a polynomial in t."""
    if type(n) is not int or type(k) is not int:
        raise DomainError(f"gaussian_binomial needs ints, got ({n!r}, {k!r})")
    if k < 0 or k > n:
        return ZERO
    return times_gaussian(ONE, n, k)


def _so_degrees(n: int) -> list:
    """Fundamental invariant degrees of SO(n): 2, 4, ..., 2m - 2 and m when
    n = 2m; 2, 4, ..., 2m when n = 2m + 1."""
    return list(range(2, n, 2)) + ([n // 2] if n % 2 == 0 else [])


def times_grassmannian(poly: IntPoly, a: int, b: int) -> IntPoly:
    """poly times the Poincare polynomial of the oriented real Grassmannian
    SO(a+b)/SO(a)xSO(b), a, b >= 1.

    It is also the series of SO(a) x SO(b) invariants in the exterior
    algebra of R^a (x) R^b (Cartan; Borel, Ann. of Math. 57 (1953)):
    prod(1 - t^(2d)) over the degrees d of SO(a+b), divided by the same
    product over the degrees of SO(a) and SO(b). When a and b are both odd
    the ranks differ by one, so the Euler degree (a+b)/2 leaves the
    numerator and a factor 1 + t^(a+b-1) comes in. The degrees on both
    sides cancel first, so the running product stays within about twice
    the degree of the result; each division is checked to be exact.
    """
    top, bottom = Counter(_so_degrees(a + b)), Counter(_so_degrees(a) + _so_degrees(b))
    c = list(poly.coeffs)
    if a % 2 and b % 2:
        top[(a + b) // 2] -= 1
        c = list(map(add, c + [0] * (a + b - 1), [0] * (a + b - 1) + c))
    common = top & bottom
    for d in (top - common).elements():
        c = _times_one_minus(c, 2 * d)
    for d in (bottom - common).elements():
        c = _over_one_minus(c, 2 * d)
    return _trusted(tuple(c))


def grassmannian_poincare(a: int, b: int) -> IntPoly:
    """Poincare polynomial of the oriented real Grassmannian
    SO(a+b)/SO(a)xSO(b); see times_grassmannian."""
    if type(a) is not int or type(b) is not int or a < 1 or b < 1:
        raise ValueError(f"block sizes must be positive ints, got {a!r}x{b!r}")
    return times_grassmannian(ONE, a, b)
