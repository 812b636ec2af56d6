"""Exact coefficient ring for the symbolic engine.

Scalars are finite sums

    (a + b i) * pi^{p/2} * t^j

with ``a, b`` arbitrary-precision rationals, ``p >= 0`` an integer exponent of
the formal square root of pi, and ``j >= 0`` the grade of a nilpotent
deformation parameter ``t``.  A scalar may carry a cap ``t_cap = M``; grades
``j > M`` are identically dropped by every operation, which makes ``t``
nilpotent of order ``M + 1``.  A cap of ``None`` means "no truncation".

Each coefficient ``a + b i`` is stored as an integer triple ``(re, im, den)``
meaning ``(re + im i) / den``, in canonical form: ``den > 0``,
``gcd(re, im, den) == 1`` and never ``re == im == 0``.  Ring arithmetic is
plain integer arithmetic on these triples and builds no
:class:`fractions.Fraction`.  Fractions appear only at the boundary: the
constructors accept ``int`` or ``Fraction`` values, and :meth:`ExactScalar.terms`
and :meth:`ExactScalar.rational_part` return ``Fraction`` pairs.

pi is never evaluated numerically on the symbolic path: sphere and Gaussian
integrals produce exact rational multiples of half-integer powers of pi and
all vanishing statements are decided by exact zero tests.

Scalars are hash-consed: every construction, ``copy`` and pickle included,
returns the one interned object of its value, the cap counted as part of it.
Products, sums, scalings, negations and the ``i``-rotations of
:mod:`ncps.algebra` look their result up in one memo keyed on operand ``id()``s
and compute only on a miss.  That is sound because interned objects are never
freed, so no id is reused, and no code mutates a scalar's ``_terms`` after
construction.  Equality and hashing stay value-based and ignore the cap.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from typing import Iterator, Mapping, Optional, Union

RationalLike = Union[int, Fraction]
Triple = tuple[int, int, int]

_NO_CAP = 1 << 62  # above every t grade: stands for an absent cap in loops
_INTERN: dict = {}  # (t_cap, sorted term items) -> the one scalar of that value
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


def _min_cap(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _triple(re: RationalLike, im: RationalLike) -> Optional[Triple]:
    """Canonical triple of ``re + im i``, or None for zero."""
    a, b = re.numerator, re.denominator
    c, d = im.numerator, im.denominator
    if not (a or c):
        return None
    den = b * d // gcd(b, d)
    return (a * (den // b), c * (den // d), den)


def _add_triples(x: Triple, y: Triple) -> Optional[Triple]:
    """Canonical sum of two canonical triples, or None for zero."""
    a, b, d = x
    c, f, e = y
    if d == e:
        re, im, den = a + c, b + f, d
    else:
        re, im, den = a * e + c * d, b * e + f * d, d * e
    if not (re or im):
        return None
    g = gcd(re, im, den)
    return (re, im, den) if g == 1 else (re // g, im // g, den // g)


def _interned(terms: dict[tuple[int, int], Triple], t_cap: Optional[int]) -> "ExactScalar":
    """The one scalar of this value; ``terms`` must already hold canonical
    triples only and respect the cap."""
    key = (t_cap, tuple(sorted(terms.items())))
    obj = _INTERN.get(key)
    if obj is None:
        obj = _INTERN[key] = object.__new__(ExactScalar)
        obj._terms, obj.t_cap = terms, t_cap
    return obj


def _fmt_rational(num: int, den: int) -> str:
    g = gcd(num, den)
    if g != 1:
        num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _fmt_complex(re: int, im: int, den: int) -> str:
    if im == 0:
        return _fmt_rational(re, den)
    if re == 0:
        if im == den:
            return "i"
        if im == -den:
            return "-i"
        return f"{_fmt_rational(im, den)} i"
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    imtxt = "i" if mag == den else f"{_fmt_rational(mag, den)} i"
    return f"{_fmt_rational(re, den)} {sign} {imtxt}"


class ExactScalar:
    """Immutable element of the coefficient ring.

    The term map sends ``(p, j)`` (pi half-power, t grade) to the canonical
    integer triple ``(re, im, den)`` of a nonzero complex rational.  Zero
    values are never stored, so ``is_zero`` is a trivial emptiness check, and
    equal values have equal term maps.
    """

    __slots__ = ("_terms", "t_cap")

    def __new__(
        cls,
        terms: Optional[Mapping[tuple[int, int], tuple[RationalLike, RationalLike]]] = None,
        t_cap: Optional[int] = None,
    ):
        if t_cap is not None and t_cap < 0:
            raise DomainError("t_cap must be >= 0")
        clean: dict[tuple[int, int], Triple] = {}
        if terms:
            for (p, j), (re, im) in terms.items():
                if p < 0 or j < 0:
                    raise DomainError("pi half-power and t grade must be >= 0")
                if t_cap is not None and j > t_cap:
                    continue
                v = _triple(re, im)
                if v is not None:
                    clean[(p, j)] = v
        return _interned(clean, t_cap)

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, which
        # returns the interned object instead of filling a fresh one
        return ExactScalar, (dict(self.terms()), self.t_cap)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, t_cap: Optional[int] = None) -> "ExactScalar":
        return cls({}, t_cap)

    @classmethod
    def rational(
        cls,
        re: RationalLike,
        im: RationalLike = 0,
        t_cap: Optional[int] = None,
    ) -> "ExactScalar":
        return cls({(0, 0): (re, im)}, t_cap)

    @classmethod
    def one(cls, t_cap: Optional[int] = None) -> "ExactScalar":
        return cls.rational(1, 0, t_cap)

    @classmethod
    def pi_half(cls, p: int, coeff: RationalLike = 1, t_cap: Optional[int] = None) -> "ExactScalar":
        """``coeff * pi^{p/2}``."""
        return cls({(p, 0): (coeff, 0)}, t_cap)

    @classmethod
    def t_power(cls, j: int, coeff: RationalLike = 1, t_cap: Optional[int] = None) -> "ExactScalar":
        """``coeff * t^j``."""
        return cls({(0, j): (coeff, 0)}, t_cap)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        cap = self.t_cap
        if cap != other.t_cap:
            cap = _min_cap(cap, other.t_cap)
            return self.truncate_t(cap) + other.truncate_t(cap)
        hit = _MEMO.get(memo_key := (id(self), id(other), "+"))
        if hit is not None:
            return hit
        out = self._terms.copy()
        for key, v in other._terms.items():
            if key in out:
                v = _add_triples(out[key], v)
                if v is None:
                    del out[key]
                    continue
            out[key] = v
        return _MEMO.setdefault(memo_key, _interned(out, cap))

    def __neg__(self) -> "ExactScalar":
        hit = _MEMO.get(memo_key := (id(self), "-"))
        if hit is None:
            terms = {k: (-re, -im, den) for k, (re, im, den) in self._terms.items()}
            hit = _MEMO[memo_key] = _interned(terms, self.t_cap)
        return hit

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return self + (-other)

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        hit = _MEMO.get(memo_key := (id(self), id(other), "*"))
        if hit is not None:
            return hit
        c1, c2 = self.t_cap, other.t_cap
        cap = c2 if c1 is None else c1 if c2 is None or c1 < c2 else c2
        top = _NO_CAP if cap is None else cap
        out: dict[tuple[int, int], Triple] = {}
        right = other._terms.items()
        for (p1, j1), (a1, b1, d1) in self._terms.items():
            for (p2, j2), (a2, b2, d2) in right:
                j = j1 + j2
                if j > top:
                    continue
                # a product of nonzero Gaussian rationals is nonzero
                re, im, den = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2
                g = gcd(re, im, den)
                v = (re, im, den) if g == 1 else (re // g, im // g, den // g)
                key = (p1 + p2, j)
                if key in out:
                    v = _add_triples(out[key], v)
                    if v is None:
                        del out[key]
                        continue
                out[key] = v
        return _MEMO.setdefault(memo_key, _interned(out, cap))

    def scale(self, q: RationalLike) -> "ExactScalar":
        hit = _MEMO.get(memo_key := (id(self), q, "q"))
        if hit is not None:
            return hit
        n, m = q.numerator, q.denominator
        if n == 0:
            return ExactScalar.zero(self.t_cap)
        out = {}
        for k, (re, im, den) in self._terms.items():
            re, im, den = re * n, im * n, den * m
            g = gcd(re, im, den)
            out[k] = (re, im, den) if g == 1 else (re // g, im // g, den // g)
        return _MEMO.setdefault(memo_key, _interned(out, self.t_cap))

    def conjugate(self) -> "ExactScalar":
        return _interned(
            {k: (re, -im, den) for k, (re, im, den) in self._terms.items()}, self.t_cap
        )

    # -- structure queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[tuple[int, int], tuple[Fraction, Fraction]]]:
        """Sorted ``((p, j), (re, im))`` pairs with Fraction parts."""
        return (
            (k, (Fraction(re, den), Fraction(im, den)))
            for k, (re, im, den) in sorted(self._terms.items())
        )

    def t_grade(self, j: int) -> "ExactScalar":
        """The sub-sum of terms with t grade exactly ``j`` (t factor kept)."""
        return _interned(
            {k: v for k, v in self._terms.items() if k[1] == j}, self.t_cap
        )

    def truncate_t(self, m: int) -> "ExactScalar":
        """Drop all grades above ``m``; the cap becomes ``min(t_cap, m)``."""
        if m < 0:
            raise DomainError("truncation order must be >= 0")
        cap = m if self.t_cap is None else min(self.t_cap, m)
        return _interned(
            {k: v for k, v in self._terms.items() if k[1] <= m}, cap
        )

    def rational_part(self) -> tuple[Fraction, Fraction]:
        """Coefficient of the pi-free, t-free term."""
        v = self._terms.get((0, 0))
        if v is None:
            return Fraction(0), Fraction(0)
        re, im, den = v
        return Fraction(re, den), Fraction(im, den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def to_complex(self, t: float = 1.0) -> complex:
        """Numerical value with pi evaluated and the t grade read at ``t``."""
        total = 0j
        for (p, j), (re, im, den) in self._terms.items():
            total += complex(re / den, im / den) * math.pi ** (p / 2.0) * t**j
        return total

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (p, j) in sorted(self._terms, key=lambda k: (k[1], k[0])):
            body = _fmt_complex(*self._terms[(p, j)])
            factors = []
            if p:
                factors.append(f"pi^{{{p}/2}}" if p % 2 else "pi" if p == 2 else f"pi^{p // 2}")
            if j:
                factors.append("t" if j == 1 else f"t^{j}")
            if not factors:
                parts.append(body)
                continue
            if body == "1":
                parts.append(" * ".join(factors))
            elif body == "-1":
                parts.append("-" + " * ".join(factors))
            else:
                if " " in body or body.startswith("-"):
                    body = f"({body})"
                parts.append(" * ".join([body] + factors))
        return " + ".join(parts)

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
