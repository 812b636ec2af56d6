"""Free unital *-algebra over the exact scalar ring.

Elements are finite sums of scalar-weighted words in abstract noncommuting
generators.  A generator is an atom ``d^alpha(g)`` or ``d^alpha(g*)``: a base
name, a multi-index of formal derivative orders (one slot per torus
direction), and a star flag.  Bases declared self-adjoint absorb the star via
``(d^alpha g)* = (-1)^{|alpha|} d^alpha(g)``.

The formal trace class keeps the cyclic normal form (every word rotated to its
lexicographically minimal position) as its representative.  Its zero test uses
the full set of linear relations every concrete torus trace satisfies:
cyclicity and vanishing on derivation images, ``tau(delta_mu(x)) = 0``; the
latter membership is decided by exact elimination over the finitely many
necklaces of the relevant grade.  Deformation phases never enter at this
level; concrete evaluation lives in :mod:`ncps.numeric`.

Products truncate in the nilpotent grade ``t`` before any coefficient is
multiplied: a word pair whose coefficients' t grades sum past the smaller of
their caps is skipped, since its product would vanish, uncapped grades
included; the right rows ascend in t grade, so the first pair past the left
cap ends the row.  That one loop, :func:`_mul_rows_into`, merges every
product in place, under a phase 1 or +-i for the Pauli products of
:mod:`ncps.clifford`.  Every finite series in a nilpotent perturbation sums
one orbit of :func:`nilpotent_orbit`, the iterates ``x, step(x), ...`` of a
step that raises the t grade, up to the last nonzero one: the powers of
:func:`nilpotent_powers` behind the Neumann inverse and binomial square root
of a perturbed unit and the leading resolvent layer of :mod:`ncps.symbols`, the
powers of ``c t h`` in :func:`exp_expand`, and the two-sided solve of the
square root in :mod:`ncps.symbols`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional

from .scalars import DomainError, ExactScalar, RationalLike

_NO_CAP = 1 << 62  # above every t grade: stands for an absent cap in the product loop


class Generator(NamedTuple):
    base: str
    deriv: tuple[int, ...]
    star: bool = False
    selfadj: bool = True

    def order_key(self) -> tuple:
        return (self.base, self.deriv, self.star)

    def render(self) -> str:
        name = self.base + ("*" if self.star else "")
        if any(self.deriv):
            dirs = []
            for i, k in enumerate(self.deriv, start=1):
                dirs.extend([str(i)] * k)
            return f"d({','.join(dirs)})({name})"
        return name


def gen(base: str, dim: int, selfadj: bool = True) -> Generator:
    """A fresh underived generator living on the ``dim``-torus."""
    return Generator(base, (0,) * dim, False, selfadj)


@lru_cache(maxsize=None)
def _derived(g: Generator, mu: int, step: int) -> Generator:
    """``g`` with its derivative order in direction ``mu`` (1-based) moved by
    ``step``; the distinct letters are few, so each is built once."""
    d = list(g.deriv)
    d[mu - 1] += step
    return g._replace(deriv=tuple(d))


Word = tuple[Generator, ...]


def _word_key(w: Word) -> tuple:
    return tuple(g.order_key() for g in w)


def _min_rotation(w: Word) -> Word:
    if len(w) < 2:
        return w
    best = w
    best_key = _word_key(w)
    for i in range(1, len(w)):
        rot = w[i:] + w[:i]
        key = _word_key(rot)
        if key < best_key:
            best, best_key = rot, key
    return best


def _render_word(w: Word) -> str:
    if not w:
        return "1"
    parts: list[str] = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        txt = w[i].render()
        if j - i > 1:
            txt += f"^{j - i}"
        parts.append(txt)
        i = j
    return "[" + " . ".join(parts) + "]"


def _grade_rows(a: "AlgebraElement") -> list[tuple[int, int, Word, ExactScalar]]:
    """One ``(t grade, cap, word, coefficient)`` row per term of ``a``, in
    ascending grade; an uncapped coefficient gets cap ``_NO_CAP``, which no
    grade sum reaches."""
    rows = [(s.j, _NO_CAP if s.t_cap is None else s.t_cap, w, s) for w, s in a._terms.items()]
    rows.sort(key=itemgetter(0))
    return rows


def _mul_rows_into(out: dict, left: list, right: list, phase: int = 0) -> None:
    """Merge ``i^phase x y`` (phase 0, 1 or -1) into the zero-free term map
    ``out``, given the :func:`_grade_rows` ``left`` of ``x`` and ``right`` of
    ``y``; pairs are skipped past either cap, and past the left cap the row
    ends.  Every pair left has a nonzero product."""
    for j1, cap1, w1, s1 in left:
        if phase:
            s1 = s1.times_i(phase)
        top = cap1 - j1
        for j2, cap2, w2, s2 in right:
            if j2 > top:
                break
            if j1 + j2 > cap2:
                continue
            _accumulate(out, w1 + w2, s1 * s2)


def _accumulate(out: dict, w: Word, s: ExactScalar) -> None:
    """Merge ``s`` at word ``w`` into the zero-free term map ``out``."""
    old = out.get(w)
    if old is not None:
        s = old + s
        if s.is_zero():
            del out[w]
            return
    out[w] = s


class AlgebraElement:
    """Finite sum of scalar-weighted words; immutable, zero-free term map."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict[Word, ExactScalar]] = None):
        clean: dict[Word, ExactScalar] = {}
        if terms:
            for w, s in terms.items():
                if not s.is_zero():
                    clean[w] = s
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict[Word, ExactScalar]) -> "AlgebraElement":
        """Trusted constructor for internal arithmetic: the term map must
        already be zero-free."""
        obj = object.__new__(cls)
        obj._terms = terms
        return obj

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls({})

    @classmethod
    def scalar(cls, s: ExactScalar) -> "AlgebraElement":
        return cls({(): s})

    @classmethod
    def unit(cls) -> "AlgebraElement":
        return cls.scalar(ExactScalar.one())

    @classmethod
    def rational(cls, re: RationalLike, im: RationalLike = 0) -> "AlgebraElement":
        return cls.scalar(ExactScalar.rational(re, im))

    @classmethod
    def generator(cls, g: Generator) -> "AlgebraElement":
        return cls({(g,): ExactScalar.one()})

    # -- ring structure -------------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self._terms)
        for w, s in other._terms.items():
            _accumulate(out, w, s)
        return AlgebraElement._raw(out)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._raw({w: -s for w, s in self._terms.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        out: dict[Word, ExactScalar] = {}
        if self._terms and other._terms:
            _mul_rows_into(out, _grade_rows(self), _grade_rows(other))
        return AlgebraElement._raw(out)

    def scale(self, s: ExactScalar) -> "AlgebraElement":
        return AlgebraElement({w: c * s for w, c in self._terms.items()})

    def scale_rational(self, q: RationalLike) -> "AlgebraElement":
        if q == 0:
            return AlgebraElement.zero()
        return AlgebraElement._raw({w: s.scale(q) for w, s in self._terms.items()})

    # -- star and derivations ------------------------------------------------

    def adjoint(self) -> "AlgebraElement":
        out: dict[Word, ExactScalar] = {}
        for w, s in self._terms.items():
            sign = 1
            rev: list[Generator] = []
            for g in reversed(w):
                if sum(g.deriv) % 2:
                    sign = -sign
                rev.append(g if g.selfadj else g._replace(star=not g.star))
            coeff = s.conjugate()
            _accumulate(out, tuple(rev), coeff if sign > 0 else -coeff)
        return AlgebraElement._raw(out)

    def delta(self, mu: int) -> "AlgebraElement":
        """Formal derivation in direction ``mu`` (1-based), by the Leibniz rule."""
        out: dict[Word, ExactScalar] = {}
        for w, s in self._terms.items():
            for i, g in enumerate(w):
                if mu < 1 or mu > len(g.deriv):
                    raise DomainError(f"direction {mu} out of range for {g}")
                _accumulate(out, w[:i] + (_derived(g, mu, 1),) + w[i + 1 :], s)
        return AlgebraElement._raw(out)

    def substitute(self, base: str, x: "AlgebraElement") -> "AlgebraElement":
        """Replace each letter ``d^alpha(g)`` with this base by ``delta^alpha x``,
        and ``d^alpha(g*)`` by ``delta^alpha (x*)``."""
        out = AlgebraElement.zero()
        for w, s in self._terms.items():
            prod = AlgebraElement.scalar(s)
            for g in w:
                y = AlgebraElement.generator(g)
                if g.base == base:
                    y = x.adjoint() if g.star else x
                    for mu, order in enumerate(g.deriv, start=1):
                        for _ in range(order):
                            y = y.delta(mu)
                prod = prod * y
            out = out + prod
        return out

    # -- grading and filtering -------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Word, ExactScalar]]:
        return iter(sorted(self._terms.items(), key=lambda kv: _word_key(kv[0])))

    def t_grade(self, j: int) -> "AlgebraElement":
        return AlgebraElement({w: s.t_grade(j) for w, s in self._terms.items()})

    def filter_base_degree(self, bases: Iterable[str], cap: int) -> "AlgebraElement":
        """Drop words containing more than ``cap`` letters from ``bases``."""
        names = set(bases)
        return AlgebraElement._raw(
            {
                w: s
                for w, s in self._terms.items()
                if sum(1 for g in w if g.base in names) <= cap
            }
        )

    def unit_coefficient(self) -> ExactScalar:
        return self._terms.get((), ExactScalar.zero())

    def is_scalar(self) -> bool:
        return all(w == () for w in self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset((w, s) for w, s in self._terms.items()))

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for w, s in self.terms():
            stxt = s.render()
            wtxt = _render_word(w)
            if stxt == "1":
                parts.append(wtxt)
            elif w == ():
                parts.append(f"({stxt})" if " " in stxt else stxt)
            else:
                parts.append(f"({stxt})*{wtxt}")
        return " + ".join(parts)

    __str__ = render

    def __repr__(self) -> str:
        return f"AlgebraElement({self.render()})"


@dataclass(frozen=True, eq=False)
class TauClass:
    """Trace class of an element.

    The representative is the cyclic normal form (every word rotated to its
    lexicographically minimal position).  The zero test works in the full
    quotient that any concrete torus trace satisfies: cyclicity together with
    vanishing on derivations, ``tau(delta_mu(x)) = 0``; the latter is decided
    by an exact membership test in the span of derivation images.
    """

    representative: AlgebraElement

    def is_zero(self) -> bool:
        return _tau_zero(self.representative)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TauClass):
            return NotImplemented
        return _tau_zero(self.representative - other.representative)

    def __hash__(self) -> int:
        return hash(type(self))

    def t_grade(self, j: int) -> "TauClass":
        return TauClass(self.representative.t_grade(j))

    def scale_rational(self, q: RationalLike) -> "TauClass":
        return TauClass(self.representative.scale_rational(q))

    def __add__(self, other: "TauClass") -> "TauClass":
        return TauClass(self.representative + other.representative)

    def __neg__(self) -> "TauClass":
        return TauClass(-self.representative)

    def render(self) -> str:
        return self.representative.render()

    __str__ = render


def tau_class(a: AlgebraElement) -> TauClass:
    """Rotate every word to its minimal cyclic form and recombine."""
    out: dict[Word, ExactScalar] = {}
    for w, s in a._terms.items():
        _accumulate(out, _min_rotation(w), s)
    return TauClass(AlgebraElement._raw(out))


def _grade_key(w: Word) -> tuple:
    """Invariant of a necklace under derivation moves: base letters with their
    star data (sorted) and the total derivative count."""
    return (
        tuple(sorted((g.base, g.star, g.selfadj) for g in w)),
        sum(sum(g.deriv) for g in w),
    )


def _delta_column(y: Word, mu: int) -> dict[Word, Fraction]:
    """Cyclic normal form of ``delta_mu`` applied to a necklace, with
    rational multiplicities."""
    out: dict[Word, Fraction] = {}
    for i, g in enumerate(y):
        w = _min_rotation(y[:i] + (_derived(g, mu, 1),) + y[i + 1 :])
        out[w] = out.get(w, Fraction(0)) + 1
    return {w: c for w, c in out.items() if c}


def _tau_zero(a: AlgebraElement) -> bool:
    rep = tau_class(a).representative
    if rep.is_zero():
        return True
    groups: dict[tuple, dict[Word, ExactScalar]] = {}
    for w, s in rep._terms.items():
        groups.setdefault(_grade_key(w), {})[w] = s
    return all(_group_in_delta_span(terms) for terms in groups.values())


def _group_in_delta_span(terms: dict[Word, ExactScalar]) -> bool:
    """Membership of a graded slice in the span of derivation images."""
    total_deriv = _grade_key(next(iter(terms)))[1]
    if total_deriv == 0:
        return False  # no derivatives to move; the cyclic form is faithful
    dims = {len(g.deriv) for w in terms for g in w}
    if len(dims) != 1:
        return False
    n = dims.pop()

    # closure: peel a derivative off any reachable necklace, collect sources
    # and every necklace their images touch
    sources: set[Word] = set()
    necklaces: set[Word] = set(terms)
    frontier = set(terms)
    columns: list[dict[Word, Fraction]] = []
    while frontier:
        new_neck: set[Word] = set()
        for w in frontier:
            for i, g in enumerate(w):
                for mu in range(1, n + 1):
                    if g.deriv[mu - 1] == 0:
                        continue
                    y = _min_rotation(w[:i] + (_derived(g, mu, -1),) + w[i + 1 :])
                    if y in sources:
                        continue
                    sources.add(y)
                    for nu in range(1, n + 1):
                        col = _delta_column(y, nu)
                        if col:
                            columns.append(col)
                            for neck in col:
                                if neck not in necklaces:
                                    necklaces.add(neck)
                                    new_neck.add(neck)
        frontier = new_neck

    index = {w: i for i, w in enumerate(sorted(necklaces, key=_word_key))}
    mat = [[Fraction(0)] * len(columns) for _ in index]
    for j, col in enumerate(columns):
        for w, c in col.items():
            mat[index[w]][j] = c

    # target vectors, one rational channel per (pi power, t grade, re/im)
    channels: dict[tuple, list[Fraction]] = {}
    for w, s in terms.items():
        for tag, val in zip(("re", "im"), s.coefficient()):
            if val:
                channels.setdefault((s.p, s.j, tag), [Fraction(0)] * len(index))[index[w]] = val
    targets = list(channels.values())

    # eliminate: reduce [mat | targets] and demand zero residual targets
    rows, cols = len(index), len(columns)
    aug = [mat[i] + [tv[i] for tv in targets] for i in range(rows)]
    pivot_row = 0
    for c in range(cols):
        pr = next((r for r in range(pivot_row, rows) if aug[r][c] != 0), None)
        if pr is None:
            continue
        aug[pivot_row], aug[pr] = aug[pr], aug[pivot_row]
        pv = aug[pivot_row][c]
        aug[pivot_row] = [x / pv for x in aug[pivot_row]]
        for r in range(rows):
            if r != pivot_row and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[pivot_row])]
        pivot_row += 1
        if pivot_row == rows:
            break
    for r in range(pivot_row, rows):
        if any(aug[r][cols + k] != 0 for k in range(len(targets))):
            return False
    return True


def exp_expand(base: Generator, c: RationalLike, m: int) -> AlgebraElement:
    """Order-``m`` expansion of ``exp(c * t * base)`` in the nilpotent grade:
    the sum of ``(c t base)^j / j!`` over the orbit of the unit under right
    multiplication by ``c t base``.

    Every coefficient, the unit's included, carries ``t_cap = m`` so that
    subsequent products stay truncated at the same order.
    """
    if any(base.deriv) or base.star:
        raise DomainError("exponentials are declared on underived base generators")
    x = AlgebraElement({(base,): ExactScalar.t_power(1, Fraction(c), t_cap=m)})
    powers = nilpotent_orbit(AlgebraElement.scalar(ExactScalar.one(t_cap=m)), lambda p: p * x)
    out = powers[0]
    for j, power in enumerate(powers[1:], start=1):
        out = out + power.scale_rational(Fraction(1, math.factorial(j)))
    return out


# -- perturbed units -----------------------------------------------------------


def _split_unit(a: AlgebraElement) -> tuple[Fraction, AlgebraElement]:
    """Write ``a = c*1 + nil`` with c rational and nil t-nilpotent, or raise."""
    c_re, c_im = a.unit_coefficient().rational_part()
    grade0 = a.t_grade(0)
    if c_im != 0 or not (grade0 - AlgebraElement.rational(c_re)).is_zero():
        raise DomainError(
            "t-degree-zero part is not a rational multiple of the unit: "
            + a.render()
        )
    nil = a - AlgebraElement.rational(c_re)
    return c_re, nil


def nilpotent_orbit(x, step) -> list:
    """``[x, step(x), step(step(x)), ...]`` up to the last nonzero term, at
    most 64 terms, for a ``step`` that is nilpotent on ``x``; every finite
    series in a nilpotent perturbation sums one such orbit.  The stop test is
    the terms' own ``is_zero``."""
    out = [x]
    while not (nxt := step(out[-1])).is_zero():
        if len(out) == 64:
            raise DomainError("perturbation is not nilpotent")
        out.append(nxt)
    return out


def nilpotent_powers(x: AlgebraElement) -> list[AlgebraElement]:
    """``[1, x, x^2, ...]`` up to the last nonzero power of a nilpotent ``x``."""
    return nilpotent_orbit(AlgebraElement.unit(), lambda p: p * x)


def invert_perturbed_unit(a: AlgebraElement) -> AlgebraElement:
    """Inverse of ``c*1 + nil`` by a finite Neumann series in the nilpotent part."""
    c, nil = _split_unit(a)
    if c == 0:
        raise DomainError("unit part vanishes; element is not invertible")
    powers = nilpotent_powers(nil.scale_rational(Fraction(1, 1) / c))
    out = powers[0]
    for k, power in enumerate(powers[1:], start=1):
        out = out + power.scale_rational(Fraction(-1) ** k)
    return out.scale_rational(Fraction(1, 1) / c)


def sqrt_perturbed_unit(a: AlgebraElement) -> AlgebraElement:
    """Square root of ``1 + nil`` by the binomial series in the nilpotent part."""
    c, nil = _split_unit(a)
    if c != 1:
        raise DomainError("square root requires unit part exactly 1")
    powers = nilpotent_powers(nil)
    out = powers[0]
    coeff = Fraction(1)
    for k, power in enumerate(powers[1:], start=1):
        coeff *= Fraction(3 - 2 * k, 2 * k)  # binom(1/2, k) recurrence
        out = out + power.scale_rational(coeff)
    return out
