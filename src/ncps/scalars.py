"""Exact coefficient ring for the symbolic engine.

A scalar is one term ``(a + b i) * pi^{p/2} * t^j``, or zero: ``a, b``
rational, ``p >= 0`` a half-power of pi and ``j >= 0`` the grade of a
nilpotent parameter ``t``.  One term is all the calculus builds, since every
word of a symbol, a resolvent layer or a density carries one pi power and one
t grade, so a sum of nonzero terms of different ``(p, j)`` is refused with
:class:`DomainError`.  A cap ``t_cap = M`` makes a grade ``j > M`` zero, so
``t`` is nilpotent of order ``M + 1``; sums and products take the smaller
cap, and ``None`` means no truncation.

``a + b i`` is held as the canonical integer triple ``(re, im, den)`` of
``(re + im i) / den``: ``den > 0``, ``gcd(re, im, den) == 1``, never
``re == im == 0``.  Arithmetic builds no :class:`fractions.Fraction`; those
appear only in the constructors and :meth:`ExactScalar.coefficient`.  pi is
never evaluated on the symbolic path, so every vanishing statement is an
exact zero test.

Scalars are hash-consed: every construction, ``copy`` and pickle included,
returns the one interned object of its value and cap.  Products, sums,
scalings, negations and ``i``-rotations look their result up in one memo
keyed on operand ``id()``s and compute only on a miss; without it the deep
symbol and heat runs took 10% to 95% longer.  That is sound
because interned objects are never freed, so no id is reused, and none is
mutated.  Equality and hashing are value-based and ignore the cap.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from typing import Optional, Union

RationalLike = Union[int, Fraction]
Triple = tuple[int, int, int]

_INTERN: dict = {}  # (t_cap, p, j, triple) -> the one scalar of that value
_MEMO: dict = {}  # operand ids and operation tag -> result


class DomainError(ValueError):
    """Raised when an operation is applied outside its mathematical domain."""


def parse_int(value) -> int:
    """An ``int`` (not a bool), an integral float, or a string ``int()``
    parses; anything else raises, so no value is truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise TypeError(f"not an integer: {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def parse_ints(u) -> tuple[int, ...]:
    """A comma-separated string, list or tuple of :func:`parse_int` entries."""
    if not isinstance(u, (str, list, tuple)):
        raise TypeError(f"not a list of integers: {u!r}")
    return tuple(map(parse_int, u.split(",") if isinstance(u, str) else u))


def parse_value(key: str, value, parse, what: str):
    """``parse(value)`` for the config key or file field ``key``; a value it
    cannot parse is a :class:`DomainError` that names the key, what a value
    must be, and the value given."""
    try:
        return parse(value)
    except DomainError:
        raise
    except (ArithmeticError, TypeError, ValueError):
        raise DomainError(f"{key} must be {what}, got {value!r}") from None


def _canonical(re: int, im: int, den: int) -> Optional[Triple]:
    """``(re, im, den)`` in lowest terms, for ``den > 0``; None for zero."""
    if not (re or im):
        return None
    g = gcd(re, im, den)
    return (re, im, den) if g == 1 else (re // g, im // g, den // g)


def _interned(c: Optional[Triple], p: int, j: int, t_cap: Optional[int]) -> "ExactScalar":
    """The one scalar of this value; ``c`` must be a canonical triple, or
    None for zero, and ``j`` must respect the cap.  Zero has ``p = j = 0``."""
    if c is None:
        p = j = 0
    key = (t_cap, p, j, c)
    obj = _INTERN.get(key)
    if obj is None:
        obj = _INTERN[key] = object.__new__(ExactScalar)
        obj._c, obj.p, obj.j, obj.t_cap = c, p, j, t_cap
    return obj


def _fmt_rational(num: int, den: int) -> str:
    g = gcd(num, den)
    if g != 1:
        num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _fmt_complex(re: int, im: int, den: int) -> str:
    if im == 0:
        return _fmt_rational(re, den)
    sign = "" if im > 0 else "-"
    imtxt = "i" if abs(im) == den else f"{_fmt_rational(abs(im), den)} i"
    if re == 0:
        return sign + imtxt
    return f"{_fmt_rational(re, den)} {sign or '+'} {imtxt}"


class ExactScalar:
    """Immutable element of the coefficient ring: the canonical triple ``_c``
    of ``a + b i``, or None for zero, the pi half-power ``p`` and the t grade
    ``j`` (both 0 for zero), and the cap."""

    __slots__ = ("_c", "p", "j", "t_cap")

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0, p: int = 0, j: int = 0,
                t_cap: Optional[int] = None):
        """``(re + im i) * pi^{p/2} * t^j``, zero when ``j`` exceeds the cap."""
        if t_cap is not None and t_cap < 0:
            raise DomainError("t_cap must be >= 0")
        if p < 0 or j < 0:
            raise DomainError("pi half-power and t grade must be >= 0")
        b, d = re.denominator, im.denominator
        den = b * d // gcd(b, d)
        c = _canonical(re.numerator * (den // b), im.numerator * (den // d), den)
        return _interned(c if t_cap is None or j <= t_cap else None, p, j, t_cap)

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor: the interned object
        return ExactScalar, (*self.coefficient(), self.p, self.j, self.t_cap)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, t_cap: Optional[int] = None) -> "ExactScalar":
        return cls(0, 0, 0, 0, t_cap)

    @classmethod
    def rational(
        cls, re: RationalLike, im: RationalLike = 0, t_cap: Optional[int] = None
    ) -> "ExactScalar":
        return cls(re, im, 0, 0, t_cap)

    @classmethod
    def one(cls, t_cap: Optional[int] = None) -> "ExactScalar":
        return cls(1, 0, 0, 0, t_cap)

    @classmethod
    def pi_half(cls, p: int, coeff: RationalLike = 1, t_cap: Optional[int] = None) -> "ExactScalar":
        """``coeff * pi^{p/2}``."""
        return cls(coeff, 0, p, 0, t_cap)

    @classmethod
    def t_power(cls, j: int, coeff: RationalLike = 1, t_cap: Optional[int] = None) -> "ExactScalar":
        """``coeff * t^j``."""
        return cls(coeff, 0, 0, j, t_cap)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        cap, cap2 = self.t_cap, other.t_cap
        if cap != cap2:
            cap = cap2 if cap is None else cap if cap2 is None else min(cap, cap2)
            return self.truncate_t(cap) + other.truncate_t(cap)
        hit = _MEMO.get(memo_key := (id(self), id(other), "+"))
        if hit is not None:
            return hit
        x, y = self._c, other._c
        if x is None or y is None:
            return _MEMO.setdefault(memo_key, self if y is None else other)
        if self.p != other.p or self.j != other.j:
            raise DomainError(
                "a sum of two terms of different pi power or t grade: "
                f"{self.render()} and {other.render()}"
            )
        (a, b, d), (c, f, e) = x, y
        if d == e:
            out = _canonical(a + c, b + f, d)
        else:
            out = _canonical(a * e + c * d, b * e + f * d, d * e)
        return _MEMO.setdefault(memo_key, _interned(out, self.p, self.j, cap))

    def __neg__(self) -> "ExactScalar":
        return self.times_i(2)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return self + (-other)

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        hit = _MEMO.get(memo_key := (id(self), id(other), "*"))
        if hit is not None:
            return hit
        c1, c2 = self.t_cap, other.t_cap
        cap = c2 if c1 is None else c1 if c2 is None or c1 < c2 else c2
        x, y, j = self._c, other._c, self.j + other.j
        if x is None or y is None or (cap is not None and j > cap):
            return _MEMO.setdefault(memo_key, _interned(None, 0, 0, cap))
        # a product of nonzero Gaussian rationals is nonzero
        (a1, b1, d1), (a2, b2, d2) = x, y
        re, im, den = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2
        g = gcd(re, im, den)
        c = (re, im, den) if g == 1 else (re // g, im // g, den // g)
        return _MEMO.setdefault(memo_key, _interned(c, self.p + other.p, j, cap))

    def scale(self, q: RationalLike) -> "ExactScalar":
        hit = _MEMO.get(memo_key := (id(self), q, "q"))
        if hit is not None:
            return hit
        n, m, c = q.numerator, q.denominator, self._c
        if n == 0:
            return ExactScalar.zero(self.t_cap)
        if c is not None:
            c = _canonical(c[0] * n, c[1] * n, c[2] * m)
        return _MEMO.setdefault(memo_key, _interned(c, self.p, self.j, self.t_cap))

    def times_i(self, k: int = 1) -> "ExactScalar":
        """``i^k`` times this scalar, for k = 1, -1 or 2: the triple's parts
        swap or change sign, so it stays canonical and nothing multiplies."""
        hit = _MEMO.get(memo_key := (id(self), k, "i"))
        if hit is None:
            c = self._c
            if c is not None:
                re, im, den = c
                c = (-re, -im, den) if k == 2 else (-k * im, k * re, den)
            hit = _MEMO[memo_key] = _interned(c, self.p, self.j, self.t_cap)
        return hit

    def conjugate(self) -> "ExactScalar":
        c = self._c
        return _interned(c and (c[0], -c[1], c[2]), self.p, self.j, self.t_cap)

    # -- structure queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return self._c is None

    def coefficient(self) -> tuple[Fraction, Fraction]:
        """``(a, b)`` of the term ``(a + b i) * pi^{p/2} * t^j``."""
        re, im, den = self._c or (0, 0, 1)
        return Fraction(re, den), Fraction(im, den)

    def t_grade(self, j: int) -> "ExactScalar":
        """This scalar if its t grade is ``j`` (t factor kept), else zero."""
        return self if self.j == j else _interned(None, 0, 0, self.t_cap)

    def truncate_t(self, m: int) -> "ExactScalar":
        """Zero if the t grade is above ``m``; the cap becomes ``min(t_cap, m)``."""
        if m < 0:
            raise DomainError("truncation order must be >= 0")
        cap = m if self.t_cap is None else min(self.t_cap, m)
        return _interned(self._c if self.j <= m else None, self.p, self.j, cap)

    def rational_part(self) -> tuple[Fraction, Fraction]:
        """The coefficient if the term is pi-free and t-free, else zero."""
        return (Fraction(0), Fraction(0)) if self.p or self.j else self.coefficient()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self._c == other._c and self.p == other.p and self.j == other.j

    def __hash__(self) -> int:
        return hash((self._c, self.p, self.j))

    def to_complex(self, t: float = 1.0) -> complex:
        """Numerical value with pi evaluated and the t grade read at ``t``."""
        re, im, den = self._c or (0, 0, 1)
        return complex(re / den, im / den) * math.pi ** (self.p / 2.0) * t**self.j

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        if self._c is None:
            return "0"
        p, j = self.p, self.j
        body = _fmt_complex(*self._c)
        factors = []
        if p:
            factors.append(f"pi^{{{p}/2}}" if p % 2 else "pi" if p == 2 else f"pi^{p // 2}")
        if j:
            factors.append("t" if j == 1 else f"t^{j}")
        if not factors:
            return body
        if body == "1":
            return " * ".join(factors)
        if body == "-1":
            return "-" + " * ".join(factors)
        if " " in body or body.startswith("-"):
            body = f"({body})"
        return " * ".join([body] + factors)

    __str__ = render

    def __repr__(self) -> str:
        return f"ExactScalar({self.render()})"


def gamma_half_pair(two_x: int) -> tuple[Fraction, int]:
    """Gamma(two_x / 2) as (rational coefficient, pi half-power).

    Integer arguments give factorials; half-odd arguments give a rational
    multiple of pi^{1/2}.
    """
    if two_x <= 0:
        raise DomainError("gamma argument must be a positive half-integer")
    if two_x % 2 == 0:
        return Fraction(math.factorial(two_x // 2 - 1)), 0
    # Gamma(1/2) = sqrt(pi); Gamma(x + 1) = x Gamma(x)
    coeff = Fraction(1)
    k = two_x
    while k > 1:
        k -= 2
        coeff *= Fraction(k, 2)
    return coeff, 1


def half_gamma(x: RationalLike) -> ExactScalar:
    """Gamma at a positive half-integer, exactly."""
    x = Fraction(x)
    if x <= 0 or (2 * x).denominator != 1:
        raise DomainError(f"half_gamma is defined for positive half-integers, got {x}")
    coeff, p = gamma_half_pair(int(2 * x))
    return ExactScalar.pi_half(p, coeff)
