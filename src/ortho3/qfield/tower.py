"""Exact arithmetic in towers of real quadratic extensions Q(sqrt(d1))(sqrt(d2))...

An element of a depth-k tower is stored as a binary coefficient tree: a
Fraction at depth 0, and a pair ``(lo, hi)`` meaning ``lo + hi*sqrt(d)`` at
each deeper level, where ``d`` is that level's radicand (itself an element of
the field below).  Because each radicand is kept non-square in the field
below it, the tree is a canonical coordinate vector: two elements of the same
tower are equal iff their trees are identical.

Numeric questions (signs, approximations) are answered through certified
rational interval arithmetic, with precision doubling from 128 up to 4096
bits before giving up with :class:`Inconclusive`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

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


# ---------------------------------------------------------------------------
# raw tree arithmetic
# ---------------------------------------------------------------------------

def _zero_tree(depth: int):
    if depth == 0:
        return Fraction(0)
    sub = _zero_tree(depth - 1)
    return (sub, sub)


def _rational_tree(x: Fraction, depth: int):
    if depth == 0:
        return x
    return (_rational_tree(x, depth - 1), _zero_tree(depth - 1))


def _lift_tree(tree, from_depth: int, to_depth: int):
    for d in range(from_depth, to_depth):
        tree = (tree, _zero_tree(d))
    return tree


def _is_zero_tree(tree, depth: int) -> bool:
    if depth == 0:
        return tree == 0
    return _is_zero_tree(tree[0], depth - 1) and _is_zero_tree(tree[1], depth - 1)


def _add(x, y, depth: int):
    if depth == 0:
        return x + y
    return (_add(x[0], y[0], depth - 1), _add(x[1], y[1], depth - 1))


def _neg(x, depth: int):
    if depth == 0:
        return -x
    return (_neg(x[0], depth - 1), _neg(x[1], depth - 1))


def _sub(x, y, depth: int):
    return _add(x, _neg(y, depth), depth)


def _mul(x, y, depth: int, rads):
    if depth == 0:
        return x * y
    d = depth - 1
    rad = rads[d]
    lo = _add(_mul(x[0], y[0], d, rads), _mul(_mul(x[1], y[1], d, rads), rad, d, rads), d)
    hi = _add(_mul(x[0], y[1], d, rads), _mul(x[1], y[0], d, rads), d)
    return (lo, hi)


def _scale(x, c: Fraction, depth: int):
    if depth == 0:
        return x * c
    return (_scale(x[0], c, depth - 1), _scale(x[1], c, depth - 1))


def _inv(x, depth: int, rads):
    if depth == 0:
        if x == 0:
            raise DivisionByZero("inverse of zero")
        return 1 / x
    d = depth - 1
    a, b = x
    if _is_zero_tree(b, d):
        if _is_zero_tree(a, d):
            raise DivisionByZero("inverse of zero")
        return (_inv(a, d, rads), _zero_tree(d))
    # (a + b*sqrt(r))^-1 = (a - b*sqrt(r)) / (a^2 - b^2*r)
    norm = _sub(_mul(a, a, d, rads), _mul(_mul(b, b, d, rads), rads[d], d, rads), d)
    if _is_zero_tree(norm, d):
        raise InvalidTower("conjugate norm vanished: radicand is a square below")
    ninv = _inv(norm, d, rads)
    return (_mul(a, ninv, d, rads), _neg(_mul(b, ninv, d, rads), d))


def _flatten(tree, depth: int, out: list):
    """Coefficients in binary-counting monomial order (bit i = generator i)."""
    if depth == 0:
        out.append(tree)
        return out
    _flatten(tree[0], depth - 1, out)
    _flatten(tree[1], depth - 1, out)
    return out


def _eval_tree(tree, depth: int, gens: list[Interval]) -> Interval:
    if depth == 0:
        return Interval.point(tree)
    lo = _eval_tree(tree[0], depth - 1, gens)
    hi = _eval_tree(tree[1], depth - 1, gens)
    return lo + hi * gens[depth - 1]


def _generator_intervals(rads, bits: int) -> list[Interval]:
    gens: list[Interval] = []
    for i, rad in enumerate(rads):
        gens.append(sqrt_interval(_eval_tree(rad, i, gens), bits))
    return gens


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


def _sqrt_in_field(tree, depth: int, rads):
    """An exact square root of ``tree`` inside its own field, or None.

    Recursive descent over x + y*g with g the top generator: either y = 0
    (root is lower-level, or a lower-level multiple of g), or the root's
    lower component solves 4t^2 - 4*a_lo*t + a_hi^2*d = 0, whose discriminant
    must itself be a square one level down.  Every candidate is verified by
    squaring, so a degenerate tower can only cause a miss, never a bad hit.
    """
    if depth == 0:
        return _rational_sqrt(tree)
    d = depth - 1
    a_lo, a_hi = tree
    rad = rads[d]
    if _is_zero_tree(a_hi, d):
        r = _sqrt_in_field(a_lo, d, rads)
        if r is not None:
            return (r, _zero_tree(d))
        try:
            quot = _mul(a_lo, _inv(rad, d, rads), d, rads)
        except (DivisionByZero, InvalidTower):
            return None
        r = _sqrt_in_field(quot, d, rads)
        if r is not None:
            return (_zero_tree(d), r)
        return None
    disc = _sub(_mul(a_lo, a_lo, d, rads), _mul(_mul(a_hi, a_hi, d, rads), rad, d, rads), d)
    t = _sqrt_in_field(disc, d, rads)
    if t is None:
        return None
    half = Fraction(1, 2)
    for root in (t, _neg(t, d)):
        x_sq = _scale(_add(a_lo, root, d), half, d)
        x = _sqrt_in_field(x_sq, d, rads)
        if x is None or _is_zero_tree(x, d):
            continue
        try:
            y = _scale(_mul(a_hi, _inv(x, d, rads), d, rads), half, d)
        except (DivisionByZero, InvalidTower):
            continue
        cand = (x, y)
        if _is_zero_tree(_sub(_mul(cand, cand, depth, rads), tree, depth), depth):
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

    Level ``i`` stores its radicand as a depth-``i`` coefficient tree.  Fields
    are value objects: equal radicand lists mean the same field, and a shorter
    list that prefixes a longer one embeds into it.
    """

    __slots__ = ("_radicands",)

    def __init__(self, radicands: tuple = ()):
        self._radicands = radicands

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

    def rational(self, x) -> TowerElem:
        return TowerElem(self, _rational_tree(Fraction(x), self.depth))

    @property
    def zero(self) -> TowerElem:
        return self.rational(0)

    @property
    def one(self) -> TowerElem:
        return self.rational(1)

    def generator(self, i: int) -> TowerElem:
        """sqrt(d_i) as an element of this field."""
        tree = (_zero_tree(i), _rational_tree(Fraction(1), i))
        return TowerElem(self, _lift_tree(tree, i + 1, self.depth))

    def radicand(self, i: int) -> TowerElem:
        """d_i lifted into this field."""
        return TowerElem(self, _lift_tree(self._radicands[i], i, self.depth))

    def generators(self) -> list[TowerElem]:
        return [self.generator(i) for i in range(self.depth)]

    def extend(self, radicand_tree) -> TowerField:
        return TowerField(self._radicands + (radicand_tree,))

    def __repr__(self) -> str:
        if not self._radicands:
            return "TowerField(Q)"
        rads = ", ".join(
            _render_tree(rad, i, self._radicands) for i, rad in enumerate(self._radicands)
        )
        return f"TowerField(Q; {rads})"


QQ = TowerField()


class TowerElem:
    """Element of a :class:`TowerField`; immutable, with exact field arithmetic.

    Mixed-field operations auto-lift when one field prefixes the other and
    raise :class:`IncompatibleTowers` otherwise.  Ints and Fractions coerce.
    """

    __slots__ = ("_field", "_tree")

    def __init__(self, field: TowerField, tree):
        self._field = field
        self._tree = tree

    @property
    def field(self) -> TowerField:
        return self._field

    @property
    def tree(self):
        return self._tree

    def lift(self, field: TowerField) -> TowerElem:
        if self._field == field:
            return self
        if not self._field.is_prefix_of(field):
            raise IncompatibleTowers(f"cannot lift {self!r} into {field!r}")
        return TowerElem(field, _lift_tree(self._tree, self._field.depth, field.depth))

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
        return TowerElem(a._field, _add(a._tree, b._tree, a._field.depth))

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return TowerElem(a._field, _sub(a._tree, b._tree, a._field.depth))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> TowerElem:
        return TowerElem(self._field, _neg(self._tree, self._field.depth))

    def __mul__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        f = a._field
        return TowerElem(f, _mul(a._tree, b._tree, f.depth, f._radicands))

    __rmul__ = __mul__

    def inverse(self) -> TowerElem:
        f = self._field
        return TowerElem(f, _inv(self._tree, f.depth, f._radicands))

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
        return a._tree == b._tree

    __hash__ = None  # equality lifts across fields; no consistent hash exists

    def is_zero(self) -> bool:
        return _is_zero_tree(self._tree, self._field.depth)

    def is_rational(self) -> bool:
        tree, depth = self._tree, self._field.depth
        while depth:
            if not _is_zero_tree(tree[1], depth - 1):
                return False
            tree, depth = tree[0], depth - 1
        return True

    def as_fraction(self) -> Fraction:
        tree, depth = self._tree, self._field.depth
        while depth:
            if not _is_zero_tree(tree[1], depth - 1):
                raise ValueError(f"{self} is not rational")
            tree, depth = tree[0], depth - 1
        return tree

    def coefficients(self) -> list[Fraction]:
        """Rational coordinates in binary-counting monomial order."""
        return _flatten(self._tree, self._field.depth, [])

    def eval(self, bits: int = 128) -> Interval:
        """Certified enclosure of the real value at the given sqrt precision."""
        if bits < _MIN_EVAL_BITS:
            raise ValueError(f"precision must be at least {_MIN_EVAL_BITS} bits")
        f = self._field
        gens = _generator_intervals(f._radicands, bits)
        return _eval_tree(self._tree, f.depth, gens)

    def sign(self) -> int:
        """Certified sign in {-1, 0, +1}.

        Zero is decided exactly from the coefficient tree; otherwise the
        interval enclosure is refined until it excludes zero.  Only a
        degenerate tower (hidden square radicand) can exhaust the cap.
        """
        if self.is_zero():
            return 0
        bits = _SIGN_START_BITS
        while bits <= _SIGN_CAP_BITS:
            s = self.eval(bits).sign()
            if s is not None and s != 0:
                return s
            bits *= 2
        raise Inconclusive(f"sign of {self} undecided at {_SIGN_CAP_BITS} bits")

    def to_float(self) -> float:
        return self.eval(128).to_float()

    __float__ = to_float

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form; re-parses to an equal element of this field."""
        return _render_tree(self._tree, self._field.depth, self._field._radicands)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"TowerElem({self.render()})"


# ---------------------------------------------------------------------------
# canonical rendering
# ---------------------------------------------------------------------------

def _strip_parens(s: str) -> str:
    return s[1:-1] if s.startswith("(") and s.endswith(")") else s


def _render_tree(tree, depth: int, rads) -> str:
    coeffs = _flatten(tree, depth, [])
    terms: list[tuple[int, str]] = []
    for index, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = -c if c < 0 else c
        radicals = [
            f"sqrt({_strip_parens(_render_tree(rads[i], i, rads))})"
            for i in range(depth)
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
    hit = _sqrt_in_field(a._tree, f.depth, f._radicands)
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
    hit = _sqrt_in_field(a._tree, f.depth, f._radicands)
    if hit is not None:
        root = TowerElem(f, hit)
        return root if root.sign() > 0 else -root
    g = f.extend(a._tree)
    return g.generator(g.depth - 1)
