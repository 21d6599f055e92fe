"""Exact arithmetic in towers of real quadratic extensions Q(sqrt(d1))(sqrt(d2))...

An element of a depth-k tower has 2^k rational coordinates in binary-counting
monomial order: bit i of an index says whether sqrt(d_i) is a factor of that
monomial, so ``(1, 2, 3, 4)`` over Q(sqrt(2))(sqrt(3)) is
``1 + 2*sqrt(2) + 3*sqrt(3) + 4*sqrt(2)*sqrt(3)``.  It is stored as one pair
``(num, den)``: a tuple of int numerators over one positive int denominator,
reduced so that ``gcd(den, *num) == 1`` (the layout of FLINT's ``fmpq_poly``).
Level i's radicand is a pair of the same kind with 2^i numerators.  Writing
the top generator as ``g``, the first half of ``num`` is the part without
``g`` and the second half its coefficient.  Because each radicand is kept
non-square in the field below it and every pair is reduced, two elements of
the same tower are equal iff their pairs are identical.  The halves of a
reduced pair need not be reduced, so the helpers accept any pair and reduce
every pair they return.

A sum is one ``map`` over equal denominators and a cross-multiplication
otherwise.  A product with a rational operand scales the other's numerators;
any other product recurses by halves on Python ints, with Karatsuba's identity
for the cross term and a plain scale where a level's radicand is rational.
Either way one gcd reduces the result.  Each field keeps its generators'
interval enclosures per precision, so they are computed once.

Numeric questions (signs, approximations) are answered through certified
rational interval arithmetic on the numerators, whose enclosure is then
divided by the denominator, with precision doubling from 128 up to 4096 bits
before giving up with :class:`Inconclusive`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, neg, sub

from ..errors import (DivisionByZero, Inconclusive, IncompatibleTowers, InvalidTower,
                      NegativeRadicand)
from .interval import Interval, sqrt_interval

_MIN_EVAL_BITS = 32
_SIGN_START_BITS = 128
_SIGN_CAP_BITS = 4096


# ---------------------------------------------------------------------------
# raw pair arithmetic
# ---------------------------------------------------------------------------

def _reduced(num, den: int):
    """The canonical pair of num/den (den > 0): both divided by their gcd."""
    g = gcd(den, *num)
    if g == 1:
        return tuple(num), den
    return tuple(c // g for c in num), den // g


def _pair(coords):
    """The canonical pair of a sequence of rationals (ints or Fractions)."""
    coords = [Fraction(c) for c in coords]
    den = lcm(*(c.denominator for c in coords))
    return tuple(c.numerator * (den // c.denominator) for c in coords), den


def _combine(x, y, op):
    """x + y or x - y as ``op`` is ``add`` or ``sub``."""
    (xn, dx), (yn, dy) = x, y
    if dx == dy:
        return _reduced(tuple(map(op, xn, yn)), dx)
    return _reduced(tuple(map(op, [a * dy for a in xn], [b * dx for b in yn])), dx * dy)


def _neg(x):
    return tuple(map(neg, x[0])), x[1]


def _half(x):
    return _reduced(x[0], 2 * x[1])


def _cat(lo, hi):
    """The pair of lo + hi*g, g the generator above the halves ``lo``, ``hi``."""
    (ln, ld), (hn, hd) = lo, hi
    return _reduced(tuple(a * hd for a in ln) + tuple(b * ld for b in hn), ld * hd)


def _mul(x, y, rads):
    """Product of two pairs over the radicand pairs ``rads``: a rational (or
    zero) operand scales the other's numerators, else :func:`_imul` runs."""
    (xn, dx), (yn, dy) = x, y
    if any(xn[1:]):
        if any(yn[1:]):
            z, s = _imul(xn, yn, rads)
            return _reduced(z, dx * dy * s)
        xn, yn = yn, xn
    c = xn[0]
    return _reduced([c * b for b in yn], dx * dy)


def _imul(x, y, rads):
    """(z, s): z the integer coordinates of s*(x0 + x1*g)(y0 + y1*g) for
    integer lists x, y, with g^2 = rn/rd the top radicand.

    s > 0 clears the radicand denominators; it depends only on the level and
    is 1 unless a caller of :class:`TowerField` gave a radicand one.  The
    cross term is Karatsuba's (x0+x1)(y0+y1) - x0*y0 - x1*y1, and a rational
    radicand multiplies x1*y1 as a scale: 3 products per level, 4 when the
    radicand is not rational.
    """
    h = len(x) >> 1
    rn, rd = rads[h.bit_length() - 1]
    if h == 1:
        (x0, x1), (y0, y1) = x, y
        return [rd * x0 * y0 + x1 * y1 * rn[0], rd * (x0 * y1 + x1 * y0)], rd
    x0, x1, y0, y1 = x[:h], x[h:], y[:h], y[h:]
    p0, s = _imul(x0, y0, rads)
    p1, _ = _imul(x1, y1, rads)
    hi = [m - a - b for m, a, b in zip(
        _imul(list(map(add, x0, x1)), list(map(add, y0, y1)), rads)[0], p0, p1)]
    if any(rn[1:]):
        q, f = _imul(p1, rn, rads)[0], rd * s  # q = s*s*x1*y1*rn
    else:
        q, f = [b * rn[0] for b in p1], rd
    if f != 1:
        p0, hi = [f * a for a in p0], [f * c for c in hi]
    return list(map(add, p0, q)) + hi, s * f


def _inv(x, rads):
    num, den = x
    h = len(num) >> 1
    if h == 0:
        n = num[0]
        if not n:
            raise DivisionByZero("inverse of zero")
        return _reduced((den,), n) if n > 0 else _reduced((-den,), -n)
    a, b = (num[:h], den), (num[h:], den)
    if not any(b[0]):
        return _cat(_inv(a, rads), b)
    # (a + b*sqrt(r))^-1 = (a - b*sqrt(r)) / (a^2 - b^2*r)
    rad = rads[h.bit_length() - 1]
    norm = _combine(_mul(a, a, rads), _mul(_mul(b, b, rads), rad, rads), sub)
    if not any(norm[0]):
        raise InvalidTower("conjugate norm vanished: radicand is a square below")
    ninv = _inv(norm, rads)
    return _cat(_mul(a, ninv, rads), _neg(_mul(b, ninv, rads)))


def _eval(x, gens: list[Interval]) -> Interval:
    """Enclosure of x: of its numerators, then divided by its denominator."""
    num, den = x
    v = _eval_num(num, gens)
    return v if den == 1 else Interval(v.lo / den, v.hi / den)


def _eval_num(num, gens: list[Interval]) -> Interval:
    h = len(num) >> 1
    if h == 0:
        return Interval.point(num[0])
    return _eval_num(num[:h], gens) + _eval_num(num[h:], gens) * gens[h.bit_length() - 1]


# ---------------------------------------------------------------------------
# exact square roots
# ---------------------------------------------------------------------------

def _sqrt_in_field(x, rads):
    """An exact square root of ``x`` inside its own field, or None.

    Recursive descent over a_lo + a_hi*g with g the top generator: either
    a_hi = 0 (root is lower-level, or a lower-level multiple of g), or the
    root's lower component solves 4t^2 - 4*a_lo*t + a_hi^2*d = 0, whose
    discriminant must itself be a square one level down.  Every candidate is
    verified by squaring, so a degenerate tower can only cause a miss, never
    a bad hit.
    """
    num, den = x
    h = len(num) >> 1
    if h == 0:
        (n,), d = _reduced(num, den)  # a half of an element need not be reduced
        r, s = isqrt(max(n, 0)), isqrt(d)  # a negative n fails r*r == n
        return ((r,), s) if r * r == n and s * s == d else None
    a_lo, a_hi = (num[:h], den), (num[h:], den)
    rad = rads[h.bit_length() - 1]
    if not any(a_hi[0]):
        r = _sqrt_in_field(a_lo, rads)
        if r is not None:
            return _cat(r, a_hi)
        try:
            quot = _mul(a_lo, _inv(rad, rads), rads)
        except (DivisionByZero, InvalidTower):
            return None
        r = _sqrt_in_field(quot, rads)
        return None if r is None else _cat(a_hi, r)
    disc = _combine(_mul(a_lo, a_lo, rads), _mul(_mul(a_hi, a_hi, rads), rad, rads), sub)
    t = _sqrt_in_field(disc, rads)
    if t is None:
        return None
    for root in (t, _neg(t)):
        lo = _sqrt_in_field(_half(_combine(a_lo, root, add)), rads)
        if lo is None or not any(lo[0]):
            continue
        try:
            hi = _half(_mul(a_hi, _inv(lo, rads), rads))
        except (DivisionByZero, InvalidTower):
            continue
        cand = _cat(lo, hi)
        if not any(_combine(_mul(cand, cand, rads), x, sub)[0]):
            return cand
    return None


def _square_part(n: int) -> tuple[int, int]:
    """Split a positive integer as m*m*s with s squarefree as far as detected.

    Trial division by primes below 10^4, then a perfect-square check on the
    cofactor.  A huge cofactor with a hidden square factor lands in ``s``,
    which costs canonicality but never correctness.
    """
    m, s = 1, 1
    p = 2
    while p * p <= n and p < 10_000:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            m *= p ** (e // 2)
            if e % 2:
                s *= p
        p += 1 if p == 2 else 2
    if n > 1:
        r = isqrt(n)
        if r * r == n:
            m *= r
        else:
            s *= n
    return m, s


# ---------------------------------------------------------------------------
# public classes
# ---------------------------------------------------------------------------

class TowerField:
    """Immutable chain of quadratic adjunctions over Q.

    Level ``i`` stores its radicand as a pair with 2^i numerators.  Fields
    are value objects: equal radicand lists mean the same field, and a shorter
    list that prefixes a longer one embeds into it.
    """

    __slots__ = ("_radicands", "_gens")

    def __init__(self, radicands: tuple = ()):
        """The tower over ``radicands``, tuples of rational coordinates."""
        self._radicands = tuple(map(_pair, radicands))  # one canonical pair per level
        self._gens: dict[int, list[Interval]] = {}  # bits -> generator enclosures

    def _generator_intervals(self, bits: int) -> list[Interval]:
        """Enclosures of sqrt(d_0), sqrt(d_1), ... at ``bits``, computed once."""
        gens = self._gens.get(bits)
        if gens is None:
            gens = []
            for rad in self._radicands:
                gens.append(sqrt_interval(_eval(rad, gens), bits))
            self._gens[bits] = gens
        return gens

    @property
    def depth(self) -> int:
        return len(self._radicands)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TowerField):
            return NotImplemented
        return self._radicands == other._radicands

    def __hash__(self) -> int:
        return hash(self._radicands)

    def is_prefix_of(self, other: TowerField) -> bool:
        return self._radicands == other._radicands[: self.depth]

    def _padded(self, x) -> TowerElem:
        """The element of this field whose leading coordinates are the pair ``x``'s."""
        num, den = x
        return _elem(self, (num + (0,) * ((1 << self.depth) - len(num)), den))

    def rational(self, x) -> TowerElem:
        q = Fraction(x)
        return self._padded(((q.numerator,), q.denominator))

    @property
    def zero(self) -> TowerElem:
        return self.rational(0)

    @property
    def one(self) -> TowerElem:
        return self.rational(1)

    def generator(self, i: int) -> TowerElem:
        """sqrt(d_i) as an element of this field."""
        return self._padded(((0,) * (1 << i) + (1,), 1))

    def radicand(self, i: int) -> TowerElem:
        """d_i lifted into this field."""
        return self._padded(self._radicands[i])

    def generators(self) -> list[TowerElem]:
        return [self.generator(i) for i in range(self.depth)]

    def extend(self, radicand: tuple) -> TowerField:
        """This field with sqrt(radicand) adjoined; ``radicand`` is the
        tuple of rational coordinates of a non-square element of this field."""
        return _tower(self._radicands + (_pair(radicand),))

    def __repr__(self) -> str:
        if not self._radicands:
            return "TowerField(Q)"
        rads = ", ".join(_render(rad, self._radicands) for rad in self._radicands)
        return f"TowerField(Q; {rads})"


QQ = TowerField()


class TowerElem:
    """Element of a :class:`TowerField`; immutable, with exact field arithmetic.

    Mixed-field operations auto-lift when one field prefixes the other and
    raise :class:`IncompatibleTowers` otherwise.  Ints and Fractions coerce.
    """

    __slots__ = ("_field", "_x")

    def __init__(self, field: TowerField, coords: tuple):
        """The element of ``field`` with rational coordinates ``coords``."""
        self._field = field
        self._x = _pair(coords)

    @property
    def field(self) -> TowerField:
        return self._field

    @property
    def tree(self) -> tuple:
        """The coordinate tuple, in the order of :meth:`coefficients`."""
        num, den = self._x
        return tuple(Fraction(c, den) for c in num)

    def lift(self, field: TowerField) -> TowerElem:
        if self._field == field:
            return self
        if not self._field.is_prefix_of(field):
            raise IncompatibleTowers(f"cannot lift {self!r} into {field!r}")
        return field._padded(self._x)

    def _coerce(self, other) -> tuple[TowerElem, TowerElem] | None:
        if isinstance(other, (int, Fraction)):
            return self, self._field.rational(other)
        if not isinstance(other, TowerElem):
            return None
        if self._field == other._field:
            return self, other
        if self._field.is_prefix_of(other._field):
            return self.lift(other._field), other
        if other._field.is_prefix_of(self._field):
            return self, other.lift(self._field)
        raise IncompatibleTowers("operands live in unrelated towers")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return _elem(a._field, _combine(a._x, b._x, add))

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return _elem(a._field, _combine(a._x, b._x, sub))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> TowerElem:
        return _elem(self._field, _neg(self._x))

    def __mul__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return _elem(a._field, _mul(a._x, b._x, a._field._radicands))

    __rmul__ = __mul__

    def inverse(self) -> TowerElem:
        return _elem(self._field, _inv(self._x, self._field._radicands))

    def __truediv__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int) -> TowerElem:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self._field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- predicates and conversions ----------------------------------------

    def __eq__(self, other) -> bool:
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a._x == b._x

    __hash__ = None  # equality lifts across fields; no consistent hash exists

    def is_zero(self) -> bool:
        return not any(self._x[0])

    def is_rational(self) -> bool:
        return not any(self._x[0][1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self._x[0][0], self._x[1])

    def coefficients(self) -> list[Fraction]:
        """Rational coordinates in binary-counting monomial order."""
        return list(self.tree)

    def eval(self, bits: int = 128) -> Interval:
        """Certified enclosure of the real value at the given sqrt precision."""
        if bits < _MIN_EVAL_BITS:
            raise ValueError(f"precision must be at least {_MIN_EVAL_BITS} bits")
        return _eval(self._x, self._field._generator_intervals(bits))

    def sign(self) -> int:
        """Certified sign in {-1, 0, +1}.

        A rational element, zero included, is signed exactly from its
        coordinates; otherwise the interval enclosure is refined until it
        excludes zero.  Only a degenerate tower (hidden square radicand) can
        exhaust the cap.
        """
        if self.is_rational():
            c = self._x[0][0]
            return (c > 0) - (c < 0)
        bits = _SIGN_START_BITS
        while bits <= _SIGN_CAP_BITS:
            s = self.eval(bits).sign()
            if s is not None and s != 0:
                return s
            bits *= 2
        raise Inconclusive(f"sign of {self} undecided at {_SIGN_CAP_BITS} bits")

    def to_float(self) -> float:
        if self.is_rational():
            return self._x[0][0] / self._x[1]
        return self.eval(128).to_float()

    __float__ = to_float

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form; re-parses to an equal element of this field."""
        return _render(self._x, self._field._radicands)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"TowerElem({self.render()})"


def _tower(radicands: tuple) -> TowerField:
    """The field whose radicands are the canonical pairs ``radicands``."""
    f = object.__new__(TowerField)
    f._radicands, f._gens = radicands, {}
    return f


def _elem(field: TowerField, x) -> TowerElem:
    """The element of ``field`` whose canonical pair is ``x``."""
    e = object.__new__(TowerElem)
    e._field = field
    e._x = x
    return e


# ---------------------------------------------------------------------------
# canonical rendering
# ---------------------------------------------------------------------------

def _strip_parens(s: str) -> str:
    return s[1:-1] if s.startswith("(") and s.endswith(")") else s


def _render(x, rads) -> str:
    num, den = x
    terms: list[tuple[int, str]] = []
    for index, n in enumerate(num):
        if not n:
            continue
        c = Fraction(n, den)
        mag = -c if c < 0 else c
        radicals = [
            f"sqrt({_strip_parens(_render(rad, rads))})"
            for i, rad in enumerate(rads)
            if index >> i & 1
        ]
        if not radicals:
            body = str(mag)
        else:
            head = radicals if mag.numerator == 1 else [str(mag.numerator)] + radicals
            body = "*".join(head)
            if mag.denominator != 1:
                body += f"/{mag.denominator}"
        terms.append((-1 if c < 0 else 1, body))
    if not terms:
        return "0"
    sign0, body0 = terms[0]
    parts = [("-" if sign0 < 0 else "") + body0]
    for sign, body in terms[1:]:
        parts.append(f" {'-' if sign < 0 else '+'} {body}")
    rendered = "".join(parts)
    if len(terms) > 1:
        return f"({rendered})"
    return rendered


# ---------------------------------------------------------------------------
# square roots with tower extension
# ---------------------------------------------------------------------------

def sqrt(a: TowerElem) -> TowerElem:
    """Positive square root of ``a``, extending the tower only when needed.

    Resolution order: exact zero, certified-negative rejection, an exact root
    already expressible in ``a``'s field, and finally a canonical adjunction.
    For the last case the radicand is normalized (rational content split off,
    square integer factors removed) so that equal radicands arising from
    different computations produce identical towers.
    """
    f = a.field
    if a.is_zero():
        return f.zero
    if a.sign() < 0:
        raise NegativeRadicand(f"negative radicand {a}")
    hit = _sqrt_in_field(a._x, f._radicands)
    if hit is not None:
        root = _elem(f, hit)
        return root if root.sign() > 0 else -root
    num, den = a._x
    g = gcd(*num)  # a's rational content is g/den, already reduced
    reduced = _elem(f, (tuple(c // g for c in num), 1))
    m, s = _square_part(g * den)
    root = f.rational(Fraction(m, den))
    if s != 1:
        root = root * _sqrt_radicand(f.rational(s))
    if not (reduced.is_rational() and reduced.as_fraction() == 1):
        root = root * _sqrt_radicand(reduced.lift(root.field))
    return root


def _sqrt_radicand(a: TowerElem) -> TowerElem:
    """Root of an already-normalized radicand: in-field hit or one new level."""
    f = a.field
    hit = _sqrt_in_field(a._x, f._radicands)
    if hit is not None:
        root = _elem(f, hit)
        return root if root.sign() > 0 else -root
    g = _tower(f._radicands + (a._x,))
    return g.generator(g.depth - 1)
