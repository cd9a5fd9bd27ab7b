"""Dense integer polynomials in one variable t, plus Gaussian binomials and
the Poincare polynomials of real Grassmannians."""

from __future__ import annotations

from functools import lru_cache

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


# The bound holds the whole triangle n <= 43 (990 entries), so the Pascal
# recursion below finds every smaller entry it needs at any box size the
# package reaches; blocks with p+q <= 10 use at most 66 entries.
# typed, so that a float or bool equal to a cached int reaches the check
@lru_cache(maxsize=1024, typed=True)
def gaussian_binomial(n: int, k: int) -> IntPoly:
    """The q-binomial coefficient as a polynomial in t.

    Computed through the Pascal recurrence [n,k] = [n-1,k-1] + t^k [n-1,k],
    which keeps everything in integer arithmetic.
    """
    if type(n) is not int or type(k) is not int:
        raise DomainError(f"gaussian_binomial needs ints, got ({n!r}, {k!r})")
    if k < 0 or k > n:
        return ZERO
    if k == 0 or k == n:
        return ONE
    return gaussian_binomial(n - 1, k - 1) + gaussian_binomial(n - 1, k).shift(k)


def _so_degrees(n: int) -> list:
    """Fundamental invariant degrees of SO(n): 2, 4, ..., 2m - 2 and m when
    n = 2m; 2, 4, ..., 2m when n = 2m + 1."""
    return list(range(2, n, 2)) + ([n // 2] if n % 2 == 0 else [])


def grassmannian_poincare(a: int, b: int) -> IntPoly:
    """Poincare polynomial of the oriented real Grassmannian SO(a+b)/SO(a)xSO(b).

    It is also the series of SO(a) x SO(b) invariants in the exterior
    algebra of R^a (x) R^b (Cartan; Borel, Ann. of Math. 57 (1953)):
    prod(1 - t^(2d)) over the degrees d of SO(a+b), divided by the same
    product over the degrees of SO(a) and SO(b). When a and b are both odd
    the ranks differ by one, so the Euler degree (a+b)/2 leaves the
    numerator and a factor 1 + t^(a+b-1) comes in. Each division is
    checked to be exact.
    """
    if type(a) is not int or type(b) is not int or a < 1 or b < 1:
        raise ValueError(f"block sizes must be positive ints, got {a!r}x{b!r}")
    top = _so_degrees(a + b)
    poly = ONE
    if a % 2 and b % 2:
        top.remove((a + b) // 2)
        poly = ONE + ONE.shift(a + b - 1)
    for d in top:
        poly = poly * IntPoly([1] + [0] * (2 * d - 1) + [-1])
    for d in _so_degrees(a) + _so_degrees(b):
        # poly = (1 - t^k) * quot means quot_i = poly_i + quot_(i-k)
        k, c = 2 * d, list(poly.coeffs)
        for i in range(k, len(c)):
            c[i] += c[i - k]
        if any(c[len(c) - k :]):
            raise InexactDivision(f"{poly} is not divisible by 1 - t^{k}")
        poly = IntPoly(c[: len(c) - k])
    return poly
