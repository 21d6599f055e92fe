"""Reference arithmetic for checking ortho3's answers, independent of ortho3.

Exact values live in multiquadratic fields Q(sqrt(p) : p prime), stored as
``{squarefree s: Fraction}`` dicts meaning sum(c * sqrt(s)).  Square roots of
distinct squarefree integers are linearly independent over Q, so this form is
canonical and equality is dict equality.  A value with one nested radical is
written ``P/Q + (S/T) * sqrt(N)`` with P, Q, S, T, N multiquadratic; it is
compared with an ortho3 element without ever dividing, by cross-multiplying.

Float references use the quaternion form of a rotation, which shares no code
path with the Rodrigues formula ortho3 builds from.

Nothing here imports ortho3: ortho3 values reach this module only through
the read-only accessors ``coefficients()``, ``field.depth``,
``field.radicand(i)``, ``is_rational()`` and ``as_fraction()``, called by the
workload checks.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt

# ---------------------------------------------------------------------------
# multiquadratic numbers
# ---------------------------------------------------------------------------


def squarefree(n: int) -> tuple[int, int]:
    """Split a positive integer as g*g*s with s squarefree (trial division)."""
    g, s, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        g *= p ** (e // 2)
        if e % 2:
            s *= p
        p += 1
    return g, s * n


def primes_of(s: int) -> list[int]:
    out, p = [], 2
    while p * p <= s:
        if s % p == 0:
            out.append(p)
            s //= p
        p += 1
    if s > 1:
        out.append(s)
    return out


def mq(x=0) -> dict:
    """Rational x as a multiquadratic number."""
    x = Fraction(x)
    return {1: x} if x else {}


def root(r) -> dict:
    """sqrt(r) for a rational r >= 0."""
    r = Fraction(r)
    if r == 0:
        return {}
    g, s = squarefree(r.numerator * r.denominator)
    return {s: Fraction(g, r.denominator)}


def add(x: dict, y: dict) -> dict:
    out = dict(x)
    for k, c in y.items():
        v = out.get(k, 0) + c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def neg(x: dict) -> dict:
    return {k: -c for k, c in x.items()}


def sub(x: dict, y: dict) -> dict:
    return add(x, neg(y))


def scale(x: dict, c) -> dict:
    c = Fraction(c)
    return {k: v * c for k, v in x.items()} if c else {}


def mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for a, ca in x.items():
        for b, cb in y.items():
            g = math.gcd(a, b)
            k = (a // g) * (b // g)
            v = out.get(k, 0) + ca * cb * g
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def is_rational(x: dict) -> bool:
    return all(k == 1 for k in x)


def to_fraction(x: dict) -> Fraction:
    assert is_rational(x)
    return x.get(1, Fraction(0))


def sign(x: dict) -> int:
    """Certified sign: a nonzero dict is a nonzero real number."""
    if not x:
        return 0
    bits = 64
    while True:
        lo = hi = Fraction(0)
        scale_ = 1 << bits
        for k, c in x.items():
            r = isqrt(k * scale_ * scale_)
            klo, khi = Fraction(r, scale_), Fraction(r + (r * r != k * scale_ * scale_), scale_)
            lo += c * (klo if c > 0 else khi)
            hi += c * (khi if c > 0 else klo)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


def to_float(x: dict) -> float:
    return float(sum(float(c) * math.sqrt(k) for k, c in x.items()))


def to_decimal(x: dict) -> Decimal:
    return sum((Decimal(c.numerator) / Decimal(c.denominator) * Decimal(k).sqrt()
                for k, c in x.items()), Decimal(0))


def conjugate(x: dict, flipped: frozenset) -> dict:
    """Image under sqrt(p) -> -sqrt(p) for each prime p in ``flipped``."""
    return {k: (-c if sum(k % p == 0 for p in flipped) % 2 else c) for k, c in x.items()}


def norm_is_nonsquare(x: dict) -> bool:
    """True when the absolute norm of x is not a rational square, which
    proves x is not a square in any multiquadratic field over its primes
    (nor in one further quadratic extension of it)."""
    gens = sorted({p for k in x for p in primes_of(k)})
    n = mq(1)
    for mask in range(1 << len(gens)):
        n = mul(n, conjugate(x, frozenset(p for i, p in enumerate(gens) if mask >> i & 1)))
    if not is_rational(n):
        raise ArithmeticError("norm is not rational")
    v = to_fraction(n)
    if v < 0:
        return True
    return isqrt(v.numerator) ** 2 != v.numerator or isqrt(v.denominator) ** 2 != v.denominator


def inv(x: dict) -> dict:
    """1/x for a nonzero x: the product of its other conjugates over its norm."""
    gens = sorted({p for k in x for p in primes_of(k)})
    num = mq(1)
    for mask in range(1, 1 << len(gens)):
        num = mul(num, conjugate(x, frozenset(p for i, p in enumerate(gens) if mask >> i & 1)))
    n = mul(num, x)
    if not is_rational(n) or not n:
        raise ArithmeticError("norm is not a nonzero rational")
    return scale(num, 1 / to_fraction(n))


def content(x: dict) -> Fraction:
    """gcd of numerators over lcm of denominators of the coordinates."""
    cs = [abs(c) for c in x.values()]
    return Fraction(math.gcd(*(c.numerator for c in cs)), math.lcm(*(c.denominator for c in cs)))


def render(x: dict) -> str:
    """Text in ortho3's scalar grammar (the benchmark's own spelling)."""
    if not x:
        return "0"
    parts = []
    for k in sorted(x):
        c = x[k]
        mag = abs(c)
        body = str(mag) if k == 1 else f"{mag}*sqrt({k})" if mag != 1 else f"sqrt({k})"
        parts.append(("-" if c < 0 else "+") + body)
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text


# ---------------------------------------------------------------------------
# values with one nested radical:  P/Q + (S/T) * sqrt(N)
# ---------------------------------------------------------------------------


class Expect:
    """Expected exact value P/Q + (S/T)*sqrt(N); N None means no radical."""

    __slots__ = ("P", "Q", "S", "T", "N")

    def __init__(self, P, Q=None, S=None, T=None, N=None):
        self.P = P
        self.Q = Q if Q is not None else mq(1)
        self.S = S if S is not None else {}
        self.T = T if T is not None else mq(1)
        self.N = N if (N is not None and S) else None

    def to_decimal(self) -> Decimal:
        v = to_decimal(self.P) / to_decimal(self.Q)
        if self.N is not None:
            v += to_decimal(self.S) / to_decimal(self.T) * to_decimal(self.N).sqrt()
        return v

    def to_float(self) -> float:
        with localcontext() as ctx:
            ctx.prec = 40
            return float(self.to_decimal())


class Mismatch(AssertionError):
    pass


def _levels(field) -> list:
    """Per tower level: ("r", (factor, key)) when the radicand is rational,
    so sqrt(radicand) = factor*sqrt(key); ("n", multiquadratic radicand)
    when it is not."""
    levels: list = []
    for i in range(field.depth):
        rad = field.radicand(i)
        if rad.is_rational():
            r = rad.as_fraction()
            g, s = squarefree(r.numerator * r.denominator)
            levels.append(("r", (Fraction(g, r.denominator), s)))
        else:
            parts = _fold(rad.coefficients()[: 1 << i], levels)
            if set(parts) - {frozenset()}:
                raise Mismatch("tower has a radicand nested two deep")
            levels.append(("n", parts.get(frozenset(), {})))
    return levels


def _fold(coeffs, levels) -> dict:
    out: dict = {}
    for index, c in enumerate(coeffs):
        if not c:
            continue
        term = mq(c)
        tag = []
        for i, (kind, payload) in enumerate(levels):
            if index >> i & 1:
                if kind == "r":
                    factor, key = payload
                    term = mul(term, {key: factor})
                else:
                    tag.append(i)
        key = frozenset(tag)
        out[key] = add(out.get(key, {}), term)
        if not out[key]:
            del out[key]
    return out


@functools.lru_cache(maxsize=256)
def _field_levels(field) -> tuple:
    return tuple(_levels(field))


def split_tower(elem) -> tuple[dict, dict]:
    """An ortho3 scalar as {set of nested levels: multiquadratic coefficient}
    plus the nested radicands by level.  Rational tower levels fold into the
    multiquadratic part; only levels with a non-rational radicand stay
    symbolic."""
    if isinstance(elem, (int, Fraction)):
        return ({frozenset(): mq(elem)} if elem else {}), {}
    levels = _field_levels(elem.field)
    nested = {i: p for i, (kind, p) in enumerate(levels) if kind == "n"}
    return _fold(elem.coefficients(), levels), nested


def check_equal(elem, want: Expect, what: str) -> None:
    """Raise Mismatch unless the ortho3 scalar equals ``want`` exactly."""
    parts, nested = split_tower(elem)
    check_equal_parts(parts, nested, want, what)


def check_equal_parts(parts: dict, nested: dict, want: Expect, what: str) -> None:
    """``check_equal`` for a value already in split form."""
    parts = dict(parts)
    A = parts.pop(frozenset(), {})
    if want.N is None or is_rational(want.N):
        rhs_root = root(to_fraction(want.N)) if want.N is not None else {}
        if parts:
            raise Mismatch(f"{what}: unexpected nested radical")
        lhs = mul(mul(A, want.Q), want.T)
        rhs = add(mul(want.P, want.T), mul(mul(want.S, want.Q), rhs_root))
        if lhs != rhs:
            raise Mismatch(f"{what}: {render(A)} != expected")
        return
    if len(parts) != 1 or len(next(iter(parts))) != 1:
        raise Mismatch(f"{what}: expected exactly one nested radical, got {len(parts)}")
    (level,), B = next(iter(parts.items()))
    R = nested[level]
    if mul(A, want.Q) != want.P:
        raise Mismatch(f"{what}: rational-radical part differs")
    T2 = mul(want.T, want.T)
    if mul(mul(mul(B, B), R), T2) != mul(mul(want.S, want.S), want.N):
        raise Mismatch(f"{what}: nested-radical part differs")
    if sign(B) != sign(want.S) * sign(want.T):
        raise Mismatch(f"{what}: nested-radical part has the wrong sign")


# ---------------------------------------------------------------------------
# exact geometry from generation parameters
# ---------------------------------------------------------------------------


def cross(v, i: int, j: int) -> dict:
    """Entry (i, j) of the cross-product matrix [v]x."""
    table = {(0, 1): (2, -1), (0, 2): (1, 1), (1, 0): (2, 1),
             (1, 2): (0, -1), (2, 0): (1, -1), (2, 1): (0, 1)}
    if (i, j) not in table:
        return {}
    k, s = table[(i, j)]
    return scale(v[k], s)


def exact_matrix(kind: str, v, N: dict, Pc: dict, Ps: dict, D: dict) -> list[Expect]:
    """Entries of the matrix for axis v/sqrt(N) and angle (Pc/D, Ps/D).

    rotation:       c*I + (1-c)*u u^t + s*[u]x
    rotoreflection: c*I - (1+c)*u u^t + s*[u]x
    reflection:     I - 2*u u^t
    """
    out = []
    DN = mul(D, N)
    for i in range(3):
        for j in range(3):
            vv = mul(v[i], v[j])
            delta = N if i == j else {}
            if kind == "reflection":
                out.append(Expect(sub(delta, scale(vv, 2)), N))
                continue
            k = sub(D, Pc) if kind == "rotation" else neg(add(D, Pc))
            P = add(mul(Pc, delta), mul(k, vv))
            out.append(Expect(P, DN, mul(Ps, cross(v, i, j)), DN, N))
    return out


def expected_decomposition(kind: str, v, N: dict, Pc: dict, Ps: dict, D: dict) -> dict:
    """Kind, determinant, canonical axis and (cos, sin) that classify must
    report for a matrix built from these parameters."""
    det = -1 if kind in ("reflection", "rotoreflection") else 1
    if kind == "reflection":
        Pc, Ps, D = D, {}, D
    cos = Expect(Pc, D)
    first = next(c for c in v if c)
    flip = sign(first) < 0
    axis = [Expect({}, None, neg(c) if flip else c, N, N) for c in v]
    sin = Expect(neg(Ps) if flip else Ps, D)
    if not Ps:
        if Pc == D:  # cos = 1
            if det == 1:
                return {"kind": "identity", "det": 1, "axis": None, "cos": None, "sin": None}
            return {"kind": "reflection", "det": -1, "axis": axis, "cos": cos, "sin": sin}
        if det == -1:
            return {"kind": "point_inversion", "det": -1, "axis": None, "cos": cos, "sin": sin}
        return {"kind": "rotation", "det": 1, "axis": axis, "cos": cos, "sin": sin}
    return {"kind": kind, "det": det, "axis": axis, "cos": cos, "sin": sin}


# ---------------------------------------------------------------------------
# float references
# ---------------------------------------------------------------------------


def quaternion_matrix(u, deg: float) -> list[float]:
    """Rotation about unit u by deg degrees, from the unit quaternion."""
    half = math.radians(deg) / 2.0
    w, sh = math.cos(half), math.sin(half)
    x, y, z = (sh * c for c in u)
    return [
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ]


def householder(u) -> list[float]:
    """Reflection I - 2 u u^t through the plane normal to unit u."""
    return [(1.0 if i == j else 0.0) - 2.0 * u[i] * u[j] for i in range(3) for j in range(3)]


def matmul(a, b) -> list[float]:
    return [sum(a[3 * i + k] * b[3 * k + j] for k in range(3)) for i in range(3) for j in range(3)]


def angle_gap(a: float, b: float) -> float:
    """Distance between two angles in degrees, modulo 360."""
    return abs((a - b + 180.0) % 360.0 - 180.0)


# ---------------------------------------------------------------------------
# rendered-text evaluation (CLI output)
# ---------------------------------------------------------------------------


class Nested(Exception):
    """A rendered value holds the square root of a non-rational number."""


class _Decimals:
    """Rendered text evaluated to Decimal digits."""

    num = Decimal
    add, sub, mul, div = Decimal.__add__, Decimal.__sub__, Decimal.__mul__, Decimal.__truediv__
    neg = Decimal.__neg__

    @staticmethod
    def sqrt(x: Decimal) -> Decimal:
        if x < 0:
            raise ValueError("negative radicand in rendered text")
        return x.sqrt()


class _Multiquadratic:
    """Rendered text evaluated exactly, while every radicand is rational."""

    num = staticmethod(mq)
    add = staticmethod(add)
    sub = staticmethod(sub)
    mul = staticmethod(mul)
    neg = staticmethod(neg)

    @staticmethod
    def div(x: dict, y: dict) -> dict:
        return mul(x, inv(y))

    @staticmethod
    def sqrt(x: dict) -> dict:
        if not is_rational(x):
            raise Nested()
        return root(to_fraction(x))


class _Parser:
    """Recursive descent over ortho3's scalar grammar, into any algebra."""

    def __init__(self, text: str, algebra):
        self.s, self.i, self.a = text.replace(" ", ""), 0, algebra

    def parse(self):
        v = self.expr()
        if self.i != len(self.s):
            raise ValueError(f"trailing text in {self.s!r}")
        return v

    def peek(self) -> str:
        return self.s[self.i] if self.i < len(self.s) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise ValueError(f"bad rendered scalar {self.s!r} at {self.i}")
        self.i += 1

    def expr(self):
        v = self.term()
        while self.peek() in ("+", "-") and self.peek():
            op = self.peek()
            self.i += 1
            v = (self.a.add if op == "+" else self.a.sub)(v, self.term())
        return v

    def term(self):
        v = self.factor()
        while self.peek() in ("*", "/") and self.peek():
            op = self.peek()
            self.i += 1
            v = (self.a.mul if op == "*" else self.a.div)(v, self.factor())
        return v

    def factor(self):
        if self.peek() == "-":
            self.i += 1
            return self.a.neg(self.factor())
        if self.peek() == "(":
            self.i += 1
            v = self.expr()
            self.take(")")
            return v
        if self.s.startswith("sqrt(", self.i):
            self.i += 5
            v = self.expr()
            self.take(")")
            return self.a.sqrt(v)
        start = self.i
        while self.peek().isdigit():
            self.i += 1
        if self.i == start:
            raise ValueError(f"bad rendered scalar {self.s!r} at {self.i}")
        return self.a.num(int(self.s[start:self.i]))


def eval_text(text: str, prec: int = 60) -> Decimal:
    """Value of a rendered scalar expression, to ``prec`` digits."""
    with localcontext() as ctx:
        ctx.prec = prec + 10
        return +_Parser(text, _Decimals).parse()


def parse_multiquadratic(text: str) -> dict:
    """A rendered scalar as an exact multiquadratic number; raises Nested
    when it holds a nested radical."""
    return _Parser(text, _Multiquadratic).parse()
