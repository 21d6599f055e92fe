"""Backend-generic 3-vectors and 3x3 matrices.

Entries are whatever the scalar backend works over: Python floats for the
float backend, or ints / Fractions / :class:`TowerElem` for the exact one.
All the geometry above this module is written once against the arithmetic
operators plus this backend protocol: ``from_rational``, ``eq``, ``is_zero``,
``lt``, ``sign``, ``sqrt`` (may extend the exact tower), ``to_float``, and the
float-only policies ``is_finite`` (NaN/inf), ``balance`` (an exact power-of-two
rescaling so that a vector's norm^2 neither overflows nor underflows),
``clamp_unit`` (a derived cosine into [-1, 1]), ``eq_loose`` (100x tolerance
for the (cos, sin) pair that ``classify`` derives) and
``prefers_symmetric_axis`` (the axis route that is better conditioned near
sin = 0).  The exact backend answers those five with True, identity,
identity, ``==`` and False, so exact results never meet a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .qfield import tower
from .qfield.tower import QQ, TowerElem


@dataclass(frozen=True, eq=False)
class Vec3:
    """Column 3-vector over any scalar backend."""

    x: object
    y: object
    z: object

    def __iter__(self) -> Iterator:
        yield self.x
        yield self.y
        yield self.z

    def __getitem__(self, i: int):
        return (self.x, self.y, self.z)[i]

    def __add__(self, other: Vec3) -> Vec3:
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: Vec3) -> Vec3:
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> Vec3:
        return Vec3(-self.x, -self.y, -self.z)

    def scale(self, s) -> Vec3:
        return Vec3(self.x * s, self.y * s, self.z * s)

    def dot(self, other: Vec3):
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: Vec3) -> Vec3:
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def __repr__(self) -> str:
        return f"Vec3({self.x!r}, {self.y!r}, {self.z!r})"


@dataclass(frozen=True, eq=False)
class Mat3:
    """Dense 3x3 matrix, row-major."""

    entries: tuple

    def __post_init__(self):
        if len(self.entries) != 9:
            raise ValueError("Mat3 needs exactly 9 entries")

    @classmethod
    def from_rows(cls, rows) -> Mat3:
        return cls(tuple(e for row in rows for e in row))

    @classmethod
    def identity(cls) -> Mat3:
        return cls((1, 0, 0, 0, 1, 0, 0, 0, 1))

    @classmethod
    def diag(cls, a, b, c) -> Mat3:
        return cls((a, 0, 0, 0, b, 0, 0, 0, c))

    @classmethod
    def from_columns(cls, c0: Vec3, c1: Vec3, c2: Vec3) -> Mat3:
        return cls((c0.x, c1.x, c2.x, c0.y, c1.y, c2.y, c0.z, c1.z, c2.z))

    def __getitem__(self, ij: tuple[int, int]):
        i, j = ij
        return self.entries[3 * i + j]

    def col(self, j: int) -> Vec3:
        return Vec3(self.entries[j], self.entries[3 + j], self.entries[6 + j])

    def rows(self) -> list[list]:
        return [list(self.entries[3 * i : 3 * i + 3]) for i in range(3)]

    def matmul(self, other: Mat3) -> Mat3:
        a, b = self.entries, other.entries
        out = []
        for i in range(3):
            for j in range(3):
                out.append(
                    a[3 * i] * b[j] + a[3 * i + 1] * b[3 + j] + a[3 * i + 2] * b[6 + j]
                )
        return Mat3(tuple(out))

    __matmul__ = matmul

    def gram(self) -> Mat3:
        """MᵗM, with each of its 6 distinct entries computed once."""
        a, b, c, d, e, f, g, h, i = self.entries
        return _symmetric(
            a * a + d * d + g * g, a * b + d * e + g * h, a * c + d * f + g * i,
            b * b + e * e + h * h, b * c + e * f + h * i, c * c + f * f + i * i,
        )

    def matvec(self, v: Vec3) -> Vec3:
        e = self.entries
        return Vec3(
            e[0] * v.x + e[1] * v.y + e[2] * v.z,
            e[3] * v.x + e[4] * v.y + e[5] * v.z,
            e[6] * v.x + e[7] * v.y + e[8] * v.z,
        )

    def transpose(self) -> Mat3:
        e = self.entries
        return Mat3((e[0], e[3], e[6], e[1], e[4], e[7], e[2], e[5], e[8]))

    def det(self):
        e = self.entries
        return (
            e[0] * (e[4] * e[8] - e[5] * e[7])
            - e[1] * (e[3] * e[8] - e[5] * e[6])
            + e[2] * (e[3] * e[7] - e[4] * e[6])
        )

    def trace(self):
        e = self.entries
        return e[0] + e[4] + e[8]

    def __add__(self, other: Mat3) -> Mat3:
        return Mat3(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: Mat3) -> Mat3:
        return Mat3(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> Mat3:
        return Mat3(tuple(-a for a in self.entries))

    def scale(self, s) -> Mat3:
        return Mat3(tuple(e * s for e in self.entries))

    def __repr__(self) -> str:
        r = self.rows()
        return f"Mat3({r[0]}, {r[1]}, {r[2]})"


def outer(u: Vec3, v: Vec3) -> Mat3:
    """u vᵗ; when ``u`` is ``v``, the 6 distinct entries are computed once."""
    if u is v:
        x, y, z = u.x, u.y, u.z
        return _symmetric(x * x, x * y, x * z, y * y, y * z, z * z)
    return Mat3.from_rows([[a * b for b in v] for a in u])


def _symmetric(xx, xy, xz, yy, yz, zz) -> Mat3:
    return Mat3((xx, xy, xz, xy, yy, yz, xz, yz, zz))


# ---------------------------------------------------------------------------
# scalar backends
# ---------------------------------------------------------------------------

class FloatBackend:
    """IEEE-double scalars with an absolute comparison tolerance."""

    def __init__(self, tol: float = 1e-9):
        self.tol = tol

    def from_rational(self, x) -> float:
        return float(x)

    def eq(self, a, b) -> bool:
        return abs(a - b) <= self.tol

    def is_zero(self, a) -> bool:
        return abs(a) <= self.tol

    def sign(self, a) -> int:
        if abs(a) <= self.tol:
            return 0
        return 1 if a > 0 else -1

    def sqrt(self, a) -> float:
        # tiny negatives from roundoff snap to zero rather than NaN
        return math.sqrt(a) if a > 0.0 else 0.0

    def to_float(self, a) -> float:
        return float(a)

    def lt(self, a, b) -> bool:
        return a < b

    def is_finite(self, a) -> bool:
        return math.isfinite(a)

    def balance(self, v: Vec3) -> Vec3:
        """``v`` itself while its largest component lies in [2^-510, 2^509),
        so that its norm^2 is a normal float; otherwise ``v`` times the power
        of two that brings that component into [0.5, 1).  The scaling rounds
        only components it pushes below the normal range, which are
        negligible beside the largest."""
        _, e = math.frexp(max(abs(v.x), abs(v.y), abs(v.z)))
        if abs(e) < 510:
            return v
        return Vec3(*(math.ldexp(c, -e) for c in v))

    def clamp_unit(self, a) -> float:
        return min(1.0, max(-1.0, a))

    def eq_loose(self, a, b) -> bool:
        return abs(a - b) <= 100 * self.tol

    def prefers_symmetric_axis(self, det: int, cos) -> bool:
        # nearer the half-turn (rotations) or the mirror (rotoreflections)
        return cos < 0.0 if det == 1 else cos > 0.0

    def __repr__(self) -> str:
        return f"FloatBackend(tol={self.tol})"


class ExactBackend:
    """Tower-exact scalars: ints, Fractions and TowerElems, bit-exact equality."""

    def from_rational(self, x):
        return Fraction(x)

    @staticmethod
    def _elem(a) -> TowerElem:
        return a if isinstance(a, TowerElem) else QQ.rational(a)

    def eq(self, a, b) -> bool:
        return a == b

    def is_zero(self, a) -> bool:
        return a.is_zero() if isinstance(a, TowerElem) else a == 0

    def sign(self, a) -> int:
        if isinstance(a, TowerElem):
            return a.sign()
        return 0 if a == 0 else (1 if a > 0 else -1)

    def sqrt(self, a) -> TowerElem:
        return tower.sqrt(self._elem(a))

    def to_float(self, a) -> float:
        return a.to_float() if isinstance(a, TowerElem) else float(a)

    def lt(self, a, b) -> bool:
        if isinstance(a, TowerElem) or isinstance(b, TowerElem):
            return self.sign(self._elem(a) - b) < 0
        return a < b

    def is_finite(self, a) -> bool:
        return True

    def balance(self, v: Vec3) -> Vec3:
        return v

    def clamp_unit(self, a):
        return a

    def eq_loose(self, a, b) -> bool:
        return a == b

    def prefers_symmetric_axis(self, det: int, cos) -> bool:
        return False

    def __repr__(self) -> str:
        return "ExactBackend()"


def infer_backend(values, tol: float = 1e-9):
    """Exact unless any entry is a float (ints are exact)."""
    if any(isinstance(v, float) for v in values):
        return FloatBackend(tol)
    return ExactBackend()
