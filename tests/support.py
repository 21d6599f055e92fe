"""Shared helpers for the test suite: random samplers and comparison utils."""

from __future__ import annotations

import io
import json
import math
import operator
import sys
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

from ortho3 import AngleRep, Mat3, UnitAxis, Vec3, parse_scalar, tower_sqrt
from ortho3.qfield.tower import QQ, TowerElem, TowerField


def max_abs_diff(A: Mat3, B: Mat3) -> float:
    return max(abs(float(a) - float(b)) for a, b in zip(A.entries, B.entries))


def mat_equal_exact(A: Mat3, B: Mat3) -> bool:
    return all(a == b for a, b in zip(A.entries, B.entries))


def vec_max_diff(u: Vec3, v: Vec3) -> float:
    return max(abs(float(a) - float(b)) for a, b in zip(u, v))


def rand_unit_axis(rng) -> UnitAxis:
    while True:
        v = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        n = math.sqrt(v.dot(v))
        if n > 1e-6:
            return UnitAxis(Vec3(v.x / n, v.y / n, v.z / n))


def rand_angle(rng) -> AngleRep:
    return AngleRep.from_degrees(rng.uniform(0.0, 360.0))


def rational_unit_axis(rng) -> UnitAxis:
    """Exact unit axis from the quadruple (m,n,p,q) -> a^2+b^2+c^2 = d^2."""
    while True:
        m, n, p, q = (rng.randint(-5, 5) for _ in range(4))
        d = m * m + n * n + p * p + q * q
        if d == 0:
            continue
        a = m * m + n * n - p * p - q * q
        b = 2 * (m * q + n * p)
        c = 2 * (n * q - m * p)
        return UnitAxis(Vec3(Fraction(a, d), Fraction(b, d), Fraction(c, d)))


def rational_angle(rng) -> AngleRep:
    """Exact angle pair cos = (1-t^2)/(1+t^2), sin = 2t/(1+t^2)."""
    t = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
    den = 1 + t * t
    return AngleRep((1 - t * t) / den, 2 * t / den)


def random_tower(rng, depth: int = 3) -> TowerField:
    """A tower of the requested depth built from small integer radicands."""
    field = QQ
    candidates = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23]
    while field.depth < depth:
        d = rng.choice(candidates)
        root = tower_sqrt(field.rational(d))
        if root.field.depth > field.depth:
            field = root.field
    return field


def random_elem(rng, field: TowerField, span: int = 9) -> TowerElem:
    value = field.zero
    gens = field.generators()
    for index in range(1 << field.depth):
        coeff = Fraction(rng.randint(-span, span), rng.randint(1, span))
        term = field.rational(coeff)
        for i in range(field.depth):
            if index >> i & 1:
                term = term * gens[i]
        value = value + term
    return value


def reference_mul(x, y, rads):
    """Tower product by the five-product Fraction recursion, as a reference.

    ``x`` and ``y`` are coordinate tuples of one depth-k tower and ``rads``
    its radicands' coordinate tuples; with g^2 = d the top radicand,
    (x0 + x1*g)(y0 + y1*g) = (x0*y0 + x1*y1*d) + (x0*y1 + x1*y0)*g.
    """
    h = len(x) >> 1
    if h == 0:
        return (x[0] * y[0],)
    x0, x1, y0, y1 = x[:h], x[h:], y[:h], y[h:]
    d = rads[h.bit_length() - 1]
    lo = map(operator.add, reference_mul(x0, y0, rads),
             reference_mul(reference_mul(x1, y1, rads), d, rads))
    hi = map(operator.add, reference_mul(x0, y1, rads), reference_mul(x1, y0, rads))
    return tuple(lo) + tuple(hi)


def reference_rotation_document() -> str:
    """The worked sqrt(2)/sqrt(3) rotation sample as a matrix document."""
    return json.dumps(
        {
            "mode": "exact",
            "scale": "1/(sqrt(2)*sqrt(3))",
            "matrix": [
                ["sqrt(2)", "sqrt(3)", "1"],
                ["sqrt(2)", "-sqrt(3)", "1"],
                ["sqrt(2)", "0", "-2"],
            ],
        }
    )


def reference_rotation_matrix() -> tuple[Mat3, TowerField]:
    """The same sample as an exact Mat3 over Q(sqrt(2), sqrt(3))."""
    p = parse_scalar("sqrt(2)")
    q = parse_scalar("sqrt(3)", p.field)
    field = q.field
    p = p.lift(field)
    scale = (p * q).inverse()
    rows = [
        [p, q, field.one],
        [p, -q, field.one],
        [p, field.zero, field.rational(-2)],
    ]
    return Mat3.from_rows(rows).scale(scale), field


def _decimal_atan(x: Decimal) -> Decimal:
    """arctan(x) in the current decimal context, by halving and Taylor series."""
    halvings = 0
    while abs(x) > Decimal("0.1"):
        # atan(x) = 2 * atan(x / (1 + sqrt(1 + x^2)))
        x = x / (1 + (1 + x * x).sqrt())
        halvings += 1
    eps = Decimal(10) ** -getcontext().prec
    total, power, k = x, x, 1
    while abs(power) > eps:
        power = -power * x * x
        total += power / (2 * k + 1)
        k += 1
    return total * (1 << halvings)


def reference_rotation_angle_degrees(digits: int = 60) -> Decimal:
    """Expected angle of the reference rotation in degrees, in [0, 360).

    atan2(sin, cos) of the closed forms
    cos = -1/2 - sqrt(2)/4 + sqrt(3)/6 - sqrt(6)/6 and
    sin = -sqrt(6) * sqrt(9 - 2*sqrt(2) - 2*sqrt(6)) / 12,
    evaluated with the standard-library decimal module at ``digits``
    significant digits and no ortho3 code (about 193.3130260354).
    """
    with localcontext() as ctx:
        ctx.prec = digits + 10
        r2, r3, r6 = (Decimal(n).sqrt() for n in (2, 3, 6))
        cos = Decimal(-1) / 2 - r2 / 4 + r3 / 6 - r6 / 6
        sin = -r6 * (9 - 2 * r2 - 2 * r6).sqrt() / 12
        pi = 4 * (4 * _decimal_atan(Decimal(1) / 5) - _decimal_atan(Decimal(1) / 239))
        # cos < 0, so atan2(sin, cos) = pi + atan(sin / cos), in (90, 270) deg
        deg = (pi + _decimal_atan(sin / cos)) * 180 / pi
    with localcontext() as ctx:
        ctx.prec = digits
        return +deg


def run_cli(argv, stdin: str | None = None):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    from ortho3.cli import main

    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()
