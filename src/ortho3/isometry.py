"""Axis-angle construction and decomposition of 3x3 orthogonal matrices.

Direct problem: from a unit axis u = (a, b, c)^t and an angle given as the
pair (cos, sin), build the projection A = u u^t, the cross-product matrix B,
the rotation R = I + sin*B + (cos - 1)(I - A), the reflection S = I - 2A
through the plane normal to u, and the rotoreflection SR = RS.

Inverse problem: :func:`classify` splits an orthogonal matrix into its
determinant, the trace-derived cosine, and the antisymmetric part, which
carries sin * (a, b, c) and therefore fixes the sign of the sine outright;
no two-branch arccos disambiguation is ever needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import InvalidAngle, NonUnitAxis, NotOrthogonal, ZeroAxis
from .linalg3 import Mat3, Vec3, infer_backend, outer


class Kind(Enum):
    IDENTITY = "identity"
    ROTATION = "rotation"
    REFLECTION = "reflection"
    ROTOREFLECTION = "rotoreflection"
    POINT_INVERSION = "point_inversion"


@dataclass(frozen=True, eq=False)
class UnitAxis:
    """Unit vector u = (a, b, c)^t spanning the rotation axis."""

    vec: Vec3

    @property
    def a(self):
        return self.vec.x

    @property
    def b(self):
        return self.vec.y

    @property
    def c(self):
        return self.vec.z

    @classmethod
    def from_vec(cls, v: Vec3, backend=None) -> UnitAxis:
        axis = cls(v)
        _check_unit(axis, backend or infer_backend(tuple(v)))
        return axis

    @classmethod
    def normalize(cls, v: Vec3, backend=None) -> UnitAxis:
        """Scale an arbitrary nonzero vector to unit length.

        In the exact backend the needed square root may extend the tower.
        Only the exactly-zero vector and a NaN or infinite component are
        rejected: a float vector is first rescaled by a power of two, so a
        huge or tiny vector still names a direction and normalizes
        accurately.
        """
        b = backend or infer_backend(tuple(v))
        v = b.balance(v)
        norm2 = v.dot(v)
        if norm2 == 0 or not b.is_finite(norm2):
            raise ZeroAxis(f"axis vector with norm^2 {norm2!r} cannot be normalized")
        if b.eq(norm2, 1):
            return cls(v)
        n = b.sqrt(norm2)
        return cls(Vec3(v.x / n, v.y / n, v.z / n))

    def __repr__(self) -> str:
        return f"UnitAxis({self.vec!r})"


@dataclass(frozen=True, eq=False)
class AngleRep:
    """Angle stored as the pair (cos, sin) plus an optional degree readout."""

    cos_alpha: object
    sin_alpha: object
    degrees: float | None = None

    @classmethod
    def from_degrees(cls, deg: float) -> AngleRep:
        deg = _fold_degrees(deg)
        rad = math.radians(deg)
        return cls(math.cos(rad), math.sin(rad), deg)

    @classmethod
    def from_pair(cls, cos_alpha, sin_alpha, backend=None) -> AngleRep:
        b = backend or infer_backend((cos_alpha, sin_alpha))
        angle = cls(cos_alpha, sin_alpha)
        _check_angle(angle, b)
        return cls(cos_alpha, sin_alpha, _degrees_of(cos_alpha, sin_alpha, b))

    def __repr__(self) -> str:
        return f"AngleRep(cos={self.cos_alpha!r}, sin={self.sin_alpha!r})"


@dataclass(frozen=True, eq=False)
class AxisAngle:
    axis: UnitAxis
    angle: AngleRep


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Classification of an orthogonal matrix into its geometric elements.

    ``axis`` is absent for the identity and for the point inversion (every
    axis would do for -I, so reporting one would be fabricated data); ``angle``
    is absent only for the identity.
    """

    kind: Kind
    axis: UnitAxis | None
    angle: AngleRep | None
    determinant: int
    orthogonality_residual: float

    @property
    def axis_angle(self) -> AxisAngle | None:
        if self.axis is not None and self.angle is not None:
            return AxisAngle(self.axis, self.angle)
        return None


@dataclass(frozen=True)
class InvariantReport:
    det: object
    trace: object
    orthogonality_residual: float


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------

def _check_unit(axis: UnitAxis, b) -> None:
    n2 = axis.vec.dot(axis.vec)
    if not b.eq(n2, 1):
        raise NonUnitAxis(f"axis norm^2 is {n2!r}, expected 1")


def _check_angle(angle: AngleRep, b) -> None:
    c, s = angle.cos_alpha, angle.sin_alpha
    if not b.eq(c * c + s * s, 1):
        raise InvalidAngle(f"cos^2 + sin^2 != 1 for {angle!r}")


def _fold_degrees(deg: float) -> float:
    """deg in [0, 360): ``%`` rounds a tiny negative angle up to 360."""
    deg %= 360.0
    return 0.0 if deg == 360.0 else deg


def _degrees_of(cos_alpha, sin_alpha, b) -> float:
    rad = math.atan2(b.to_float(sin_alpha), b.to_float(cos_alpha)) % math.tau
    return _fold_degrees(math.degrees(rad))


def _validated(axis: UnitAxis, angle: AngleRep | None = None, backend=None):
    """Backend for a build call, after checking the axis and angle once."""
    pair = () if angle is None else (angle.cos_alpha, angle.sin_alpha)
    b = backend or infer_backend(tuple(axis.vec) + pair)
    _check_unit(axis, b)
    if angle is not None:
        _check_angle(angle, b)
    return b


# ---------------------------------------------------------------------------
# direct problem
# ---------------------------------------------------------------------------

def _cross(u: Vec3) -> Mat3:
    return Mat3.from_rows([[0, -u.z, u.y], [u.z, 0, -u.x], [-u.y, u.x, 0]])


def _rotation(u: Vec3, A: Mat3, angle: AngleRep) -> Mat3:
    """R = I + sin*B + (cos - 1)(I - A) for a checked unit u and A = u u^t."""
    eye = Mat3.identity()
    return eye + _cross(u).scale(angle.sin_alpha) + (eye - A).scale(angle.cos_alpha - 1)


def projection_matrix(axis: UnitAxis, backend=None) -> Mat3:
    """Orthogonal projection A = u u^t onto the axis line."""
    _validated(axis, backend=backend)
    return outer(axis.vec, axis.vec)


def cross_matrix(axis: UnitAxis, backend=None) -> Mat3:
    """Antisymmetric B with B v = u ^ v; satisfies -B^2 = I - A."""
    _validated(axis, backend=backend)
    return _cross(axis.vec)


def rotation_matrix(axis: UnitAxis, angle: AngleRep, backend=None) -> Mat3:
    """R = I + sin*B + (cos - 1)(I - A); proper rotation about the axis."""
    _validated(axis, angle, backend)
    return _rotation(axis.vec, outer(axis.vec, axis.vec), angle)


def reflection_matrix(axis: UnitAxis, backend=None) -> Mat3:
    """S = I - 2A; reflection through the plane normal to the axis."""
    _validated(axis, backend=backend)
    return Mat3.identity() - outer(axis.vec, axis.vec).scale(2)


def rotoreflection_matrix(axis: UnitAxis, angle: AngleRep, backend=None) -> Mat3:
    """SR = RS = R - 2A, since S = I - 2A and A R = A."""
    _validated(axis, angle, backend)
    A = outer(axis.vec, axis.vec)
    return _rotation(axis.vec, A, angle) - A.scale(2)


def complete_orthonormal_basis(axis: UnitAxis, backend=None) -> tuple[Vec3, Vec3]:
    """Vectors v, w with {u, v, w} right-handed orthonormal and w = u ^ v.

    Away from the poles, v = (-b, a, 0)/h with h = sqrt(a^2 + b^2); at a pole
    (a = b = 0, tested exactly: the quotients stay well-scaled however small
    h is) the basis degenerates to v = e1, w = u ^ e1.
    """
    b = _validated(axis, backend=backend)
    ax, ay = axis.vec.x, axis.vec.y
    h2 = ax * ax + ay * ay
    if h2 == 0:
        v = Vec3(1, 0, 0)
    else:
        h = b.sqrt(h2)
        v = Vec3(-ay / h, ax / h, 0)
    return v, axis.vec.cross(v)


# ---------------------------------------------------------------------------
# inverse problem
# ---------------------------------------------------------------------------

def _residual(diff: Mat3, b) -> float:
    # exact zeros skip to_float, which would cost an interval evaluation
    return max((abs(b.to_float(e)) for e in diff.entries if e != 0), default=0.0)


def orthogonality_residual(M: Mat3, backend=None) -> float:
    """Max-norm of M^t M - I as a float; zero for exactly orthogonal input."""
    b = backend or infer_backend(M.entries)
    return _residual(M.gram() - Mat3.identity(), b)


def invariant_report(M: Mat3, backend=None) -> InvariantReport:
    """Determinant, trace and orthogonality residual; no classification."""
    b = backend or infer_backend(M.entries)
    return InvariantReport(M.det(), M.trace(), orthogonality_residual(M, b))


def classify(M: Mat3, backend=None, tol: float | None = None) -> Decomposition:
    """Decompose an orthogonal matrix into kind, axis and signed angle.

    Procedure: the determinant snaps to d = +/-1; the trace gives
    cos = (tr - d)/2 (trace is 1 + 2cos for rotations, -1 + 2cos for
    rotoreflections); the antisymmetric part (M - M^t)/2 equals sin * B, so
    its three independent entries are sin * (a, b, c) and determine both the
    axis and the sign of the sine.  When that part vanishes the axis, if any,
    is recovered from the rank-1 projection built out of the symmetric part.

    The reported axis is canonical: its first nonzero component is positive,
    with (axis, sin) flipped together, so angles land in [0, 360) degrees.
    """
    b = backend or infer_backend(M.entries, 1e-9 if tol is None else tol)
    diff = M.gram() - Mat3.identity()
    res = _residual(diff, b)
    if not all(b.is_zero(e) for e in diff.entries):
        raise NotOrthogonal(res)

    # the sign alone decides: det^2 = det(M^t M), which the check above has
    # pinned to 1 (exactly, in the exact backend)
    det = 1 if b.lt(0, M.det()) else -1

    half = b.from_rational(Fraction(1, 2))
    cos = b.clamp_unit((M.trace() - det) * half)

    m = Vec3(
        (M[2, 1] - M[1, 2]) * half,
        (M[0, 2] - M[2, 0]) * half,
        (M[1, 0] - M[0, 1]) * half,
    )

    if not all(b.is_zero(c) for c in m):
        sin_mag = b.sqrt(m.dot(m))
        if b.prefers_symmetric_axis(det, cos):
            u = _symmetric_axis(M, cos, det, b)
            sin = sin_mag if b.lt(0, m.dot(u)) else -sin_mag
        else:
            u = Vec3(m.x / sin_mag, m.y / sin_mag, m.z / sin_mag)
            u, sin = _canonical_flip(u, sin_mag, b)
        if not b.eq_loose(cos * cos + sin * sin, 1):
            raise NotOrthogonal(res)
        kind = Kind.ROTATION if det == 1 else Kind.ROTOREFLECTION
        angle = AngleRep(cos, sin, _degrees_of(cos, sin, b))
        return Decomposition(kind, UnitAxis(u), angle, det, res)

    # sin = 0: cos must be +1 or -1
    zero = b.from_rational(0)
    if b.eq(cos, det):  # M = det * I
        if det == 1:
            return Decomposition(Kind.IDENTITY, None, None, det, res)
        angle = AngleRep(b.from_rational(-1), zero, 180.0)
        return Decomposition(Kind.POINT_INVERSION, None, angle, det, res)
    if not b.eq(cos, -det):
        raise NotOrthogonal(res)
    # the half-turn (det = 1, M = 2A - I) or the mirror (det = -1, M = I - 2A):
    # either way A = (det*M + I)/2
    proj = ((M if det == 1 else -M) + Mat3.identity()).scale(half)
    kind = Kind.ROTATION if det == 1 else Kind.REFLECTION
    angle = AngleRep(b.from_rational(-det), zero, 180.0 if det == 1 else 0.0)
    return Decomposition(kind, UnitAxis(_axis_from_projection(proj, b)), angle, det, res)


def rebuild(dec: Decomposition, backend=None) -> Mat3:
    """Reconstruct the matrix a decomposition came from."""
    if dec.kind is Kind.IDENTITY:
        return Mat3.identity()
    if dec.kind is Kind.POINT_INVERSION:
        return -Mat3.identity()
    if dec.kind is Kind.ROTATION:
        return rotation_matrix(dec.axis, dec.angle, backend)
    if dec.kind is Kind.REFLECTION:
        return reflection_matrix(dec.axis, backend)
    return rotoreflection_matrix(dec.axis, dec.angle, backend)


def _canonical_flip(u: Vec3, sin, b):
    """Make the first nonzero axis component positive, negating sin in step."""
    for comp in u:
        if b.is_zero(comp):
            continue
        if b.sign(comp) < 0:
            return -u, (None if sin is None else -sin)
        return u, sin
    raise ZeroAxis("axis vanished during canonicalization")


def _symmetric_axis(M: Mat3, cos, det: int, b) -> Vec3:
    """Axis read off the rank-1 projection hidden in (M + M^t)/2.

    Dividing the antisymmetric part by a small |sin| amplifies noise; this
    route stays well-conditioned near the half-turn (rotations) and near the
    plain mirror (rotoreflections).
    """
    eye = Mat3.identity()
    sym = (M + M.transpose()).scale(b.from_rational(Fraction(1, 2)))
    if det == 1:
        # M_sym = I + (cos - 1)(I - A)
        proj = eye - (eye - sym).scale(1 / (1 - cos))
    else:
        # M_sym = I - 2A + (cos - 1)(I - A)
        proj = (eye.scale(cos) - sym).scale(1 / (1 + cos))
    return _axis_from_projection(proj, b)


def _axis_from_projection(proj: Mat3, b) -> Vec3:
    """Axis of a symmetric rank-1 projection: its largest column, normalized.

    Ties between equal-norm columns resolve to the lowest column index.
    """
    cols = [proj.col(j) for j in range(3)]
    norms2 = [c.dot(c) for c in cols]
    best = 0
    for j in (1, 2):
        if b.lt(norms2[best], norms2[j]):
            best = j
    n = b.sqrt(norms2[best])
    if b.is_zero(n):
        raise NotOrthogonal(0.0)
    col = cols[best]
    u = Vec3(col.x / n, col.y / n, col.z / n)
    u, _ = _canonical_flip(u, None, b)
    return u
