"""Exact arithmetic in towers of real quadratic extensions Q(sqrt(d1))(sqrt(d2))...

An element of a depth-k tower is stored as one tuple of its 2^k rational
coordinates in binary-counting monomial order: bit i of an index says whether
sqrt(d_i) is a factor of that monomial, so ``(1, 2, 3, 4)`` over
Q(sqrt(2))(sqrt(3)) is ``1 + 2*sqrt(2) + 3*sqrt(3) + 4*sqrt(2)*sqrt(3)``.
Level i's radicand is stored the same way, as the 2^i coordinates of an
element of the field below.  Writing the top generator as ``g``, the first
half of a tuple is the part without ``g`` and the second half its
coefficient: ``x = x[:h] + x[h:]*g``.  Because each radicand is kept
non-square in the field below it, the coordinates are canonical: two elements
of the same tower are equal iff their tuples are identical.

Products run on integers: each operand's denominators are cleared once, the
recursion by halves multiplies Python ints, using Karatsuba's identity for the
cross term and a plain scale where a level's radicand is rational, and each
result coordinate becomes a ``Fraction`` once at the end.  The kernel reads
the radicands from :class:`TowerField`'s second copy, made once per field,
whose coordinates are ints wherever their denominator is 1 (the radicands
that :func:`sqrt` adjoins always are).  Each field also keeps its generators'
interval enclosures per precision, so they are computed once.

Numeric questions (signs, approximations) are answered through certified
rational interval arithmetic, with precision doubling from 128 up to 4096
bits before giving up with :class:`Inconclusive`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, neg, sub

from ..errors import (
    DivisionByZero,
    Inconclusive,
    IncompatibleTowers,
    InvalidTower,
    NegativeRadicand,
)
from .interval import Interval, sqrt_interval

_MIN_EVAL_BITS = 32
_SIGN_START_BITS = 128
_SIGN_CAP_BITS = 4096
_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# raw coordinate arithmetic
# ---------------------------------------------------------------------------

def _add(x, y):
    return tuple(map(add, x, y))


def _neg(x):
    return tuple(map(neg, x))


def _sub(x, y):
    return tuple(map(sub, x, y))


def _scale(x, c: Fraction):
    return tuple(a * c for a in x)


def _mul(x, y, rads):
    """Product of two coordinate tuples; ``rads`` is a field's ``_int_radicands``.

    Each operand's denominators are cleared once (``x = xi/dx``), the product
    runs on integers in :func:`_imul`, and each result coordinate is built
    once as ``Fraction(z, dx*dy)``.
    """
    if len(x) == 1:
        return (x[0] * y[0],)
    dx, xi = _cleared(x)
    dy, yi = _cleared(y)
    d = dx * dy
    return tuple(Fraction(z, d) if z else _ZERO for z in _imul(xi, yi, rads))


def _cleared(x):
    """(d, xi) with xi the integer coordinates of d*x, d the common denominator."""
    d = lcm(*(c.denominator for c in x))
    return d, [c.numerator * (d // c.denominator) for c in x]


def _imul(x, y, rads):
    """(x0 + x1*g)(y0 + y1*g) on integer lists, g^2 the top radicand.

    The cross term is Karatsuba's (x0+x1)(y0+y1) - x0*y0 - x1*y1, and a
    rational radicand multiplies x1*y1 as a scale: 3 products per level, 4
    when the radicand is not rational.
    """
    h = len(x) >> 1
    if h == 1:
        (x0, x1), (y0, y1) = x, y
        return [x0 * y0 + x1 * y1 * rads[0][0], x0 * y1 + x1 * y0]
    x0, x1, y0, y1 = x[:h], x[h:], y[:h], y[h:]
    p0 = _imul(x0, y0, rads)
    p1 = _imul(x1, y1, rads)
    hi = [m - a - b for m, a, b in zip(
        _imul(list(map(add, x0, x1)), list(map(add, y0, y1)), rads), p0, p1)]
    rad = rads[h.bit_length() - 1]
    if any(rad[1:]):
        return list(map(add, p0, _imul(p1, rad, rads))) + hi
    r = rad[0]
    return [a + b * r for a, b in zip(p0, p1)] + hi


def _inv(x, rads):
    h = len(x) >> 1
    if h == 0:
        if not x[0]:
            raise DivisionByZero("inverse of zero")
        return (1 / x[0],)
    a, b = x[:h], x[h:]
    if not any(b):
        if not any(a):
            raise DivisionByZero("inverse of zero")
        return _inv(a, rads) + b
    # (a + b*sqrt(r))^-1 = (a - b*sqrt(r)) / (a^2 - b^2*r)
    rad = rads[h.bit_length() - 1]
    norm = _sub(_mul(a, a, rads), _mul(_mul(b, b, rads), rad, rads))
    if not any(norm):
        raise InvalidTower("conjugate norm vanished: radicand is a square below")
    ninv = _inv(norm, rads)
    return _mul(a, ninv, rads) + _neg(_mul(b, ninv, rads))


def _eval(x, gens: list[Interval]) -> Interval:
    h = len(x) >> 1
    if h == 0:
        return Interval.point(x[0])
    return _eval(x[:h], gens) + _eval(x[h:], gens) * gens[h.bit_length() - 1]


# ---------------------------------------------------------------------------
# exact square roots
# ---------------------------------------------------------------------------

def _rational_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    rn = isqrt(x.numerator)
    rd = isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _sqrt_in_field(x, rads):
    """An exact square root of ``x`` inside its own field, or None.

    Recursive descent over a_lo + a_hi*g with g the top generator: either
    a_hi = 0 (root is lower-level, or a lower-level multiple of g), or the
    root's lower component solves 4t^2 - 4*a_lo*t + a_hi^2*d = 0, whose
    discriminant must itself be a square one level down.  Every candidate is
    verified by squaring, so a degenerate tower can only cause a miss, never
    a bad hit.
    """
    h = len(x) >> 1
    if h == 0:
        r = _rational_sqrt(x[0])
        return None if r is None else (r,)
    a_lo, a_hi = x[:h], x[h:]
    rad = rads[h.bit_length() - 1]
    if not any(a_hi):
        r = _sqrt_in_field(a_lo, rads)
        if r is not None:
            return r + a_hi
        try:
            # Fraction coordinates: 1 / int would be a float
            quot = _mul(a_lo, _inv(tuple(map(Fraction, rad)), rads), rads)
        except (DivisionByZero, InvalidTower):
            return None
        r = _sqrt_in_field(quot, rads)
        if r is not None:
            return a_hi + r
        return None
    disc = _sub(_mul(a_lo, a_lo, rads), _mul(_mul(a_hi, a_hi, rads), rad, rads))
    t = _sqrt_in_field(disc, rads)
    if t is None:
        return None
    half = Fraction(1, 2)
    for root in (t, _neg(t)):
        lo = _sqrt_in_field(_scale(_add(a_lo, root), half), rads)
        if lo is None or not any(lo):
            continue
        try:
            hi = _scale(_mul(a_hi, _inv(lo, rads), rads), half)
        except (DivisionByZero, InvalidTower):
            continue
        cand = lo + hi
        if not any(_sub(_mul(cand, cand, rads), x)):
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

    Level ``i`` stores its radicand as a tuple of 2^i coordinates.  Fields
    are value objects: equal radicand lists mean the same field, and a shorter
    list that prefixes a longer one embeds into it.
    """

    __slots__ = ("_radicands", "_int_radicands", "_gens")

    def __init__(self, radicands: tuple = ()):
        self._radicands = radicands
        # the kernel's copy: int coordinates where the denominator is 1
        self._int_radicands = tuple(
            tuple(c.numerator if c.denominator == 1 else c for c in rad)
            for rad in radicands
        )
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

    def _padded(self, coords: tuple) -> TowerElem:
        """The element of this field whose leading coordinates are ``coords``."""
        return TowerElem(self, coords + (_ZERO,) * ((1 << self.depth) - len(coords)))

    def rational(self, x) -> TowerElem:
        return self._padded((Fraction(x),))

    @property
    def zero(self) -> TowerElem:
        return self.rational(0)

    @property
    def one(self) -> TowerElem:
        return self.rational(1)

    def generator(self, i: int) -> TowerElem:
        """sqrt(d_i) as an element of this field."""
        return self._padded((_ZERO,) * (1 << i) + (_ONE,))

    def radicand(self, i: int) -> TowerElem:
        """d_i lifted into this field."""
        return self._padded(self._radicands[i])

    def generators(self) -> list[TowerElem]:
        return [self.generator(i) for i in range(self.depth)]

    def extend(self, radicand: tuple) -> TowerField:
        """This field with sqrt(radicand) adjoined; ``radicand`` is the
        coordinate tuple of a non-square element of this field."""
        return TowerField(self._radicands + (radicand,))

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

    __slots__ = ("_field", "_coords")

    def __init__(self, field: TowerField, coords: tuple):
        self._field = field
        self._coords = coords

    @property
    def field(self) -> TowerField:
        return self._field

    @property
    def tree(self) -> tuple:
        """The coordinate tuple, in the order of :meth:`coefficients`."""
        return self._coords

    def lift(self, field: TowerField) -> TowerElem:
        if self._field == field:
            return self
        if not self._field.is_prefix_of(field):
            raise IncompatibleTowers(f"cannot lift {self!r} into {field!r}")
        return field._padded(self._coords)

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
        return TowerElem(a._field, _add(a._coords, b._coords))

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return TowerElem(a._field, _sub(a._coords, b._coords))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> TowerElem:
        return TowerElem(self._field, _neg(self._coords))

    def __mul__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return TowerElem(a._field, _mul(a._coords, b._coords, a._field._int_radicands))

    __rmul__ = __mul__

    def inverse(self) -> TowerElem:
        return TowerElem(self._field, _inv(self._coords, self._field._int_radicands))

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
        return a._coords == b._coords

    __hash__ = None  # equality lifts across fields; no consistent hash exists

    def is_zero(self) -> bool:
        return not any(self._coords)

    def is_rational(self) -> bool:
        return not any(self._coords[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self._coords[0]

    def coefficients(self) -> list[Fraction]:
        """Rational coordinates in binary-counting monomial order."""
        return list(self._coords)

    def eval(self, bits: int = 128) -> Interval:
        """Certified enclosure of the real value at the given sqrt precision."""
        if bits < _MIN_EVAL_BITS:
            raise ValueError(f"precision must be at least {_MIN_EVAL_BITS} bits")
        return _eval(self._coords, self._field._generator_intervals(bits))

    def sign(self) -> int:
        """Certified sign in {-1, 0, +1}.

        A rational element, zero included, is signed exactly from its
        coordinates; otherwise the interval enclosure is refined until it
        excludes zero.  Only a degenerate tower (hidden square radicand) can
        exhaust the cap.
        """
        if self.is_rational():
            c = self._coords[0]
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
            return float(self._coords[0])
        return self.eval(128).to_float()

    __float__ = to_float

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form; re-parses to an equal element of this field."""
        return _render(self._coords, self._field._radicands)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"TowerElem({self.render()})"


# ---------------------------------------------------------------------------
# canonical rendering
# ---------------------------------------------------------------------------

def _strip_parens(s: str) -> str:
    return s[1:-1] if s.startswith("(") and s.endswith(")") else s


def _render(x, rads) -> str:
    terms: list[tuple[int, str]] = []
    for index, c in enumerate(x):
        if not c:
            continue
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
    hit = _sqrt_in_field(a._coords, f._int_radicands)
    if hit is not None:
        root = TowerElem(f, hit)
        return root if root.sign() > 0 else -root
    coeffs = [c for c in a.coefficients() if c != 0]
    content = Fraction(
        gcd(*(c.numerator for c in coeffs)),
        lcm(*(c.denominator for c in coeffs)),
    )
    reduced = a * (1 / content)
    m, s = _square_part(content.numerator * content.denominator)
    root = f.rational(Fraction(m, content.denominator))
    if s != 1:
        root = root * _sqrt_radicand(f.rational(s))
    if not (reduced.is_rational() and reduced.as_fraction() == 1):
        root = root * _sqrt_radicand(reduced.lift(root.field))
    return root


def _sqrt_radicand(a: TowerElem) -> TowerElem:
    """Root of an already-normalized radicand: in-field hit or one new level."""
    f = a.field
    hit = _sqrt_in_field(a._coords, f._int_radicands)
    if hit is not None:
        root = TowerElem(f, hit)
        return root if root.sign() > 0 else -root
    g = f.extend(a._coords)
    return g.generator(g.depth - 1)
