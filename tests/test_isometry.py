import math
import random
from fractions import Fraction

import pytest
from support import (
    max_abs_diff,
    mat_equal_exact,
    rand_angle,
    rand_unit_axis,
    rational_angle,
    rational_unit_axis,
    reference_rotation_matrix,
    vec_max_diff,
)

from ortho3 import (
    AngleRep,
    ExactBackend,
    FloatBackend,
    InvalidAngle,
    Kind,
    Mat3,
    NonUnitAxis,
    NotOrthogonal,
    UnitAxis,
    Vec3,
    ZeroAxis,
    classify,
    complete_orthonormal_basis,
    cross_matrix,
    invariant_report,
    parse_scalar,
    projection_matrix,
    rebuild,
    reflection_matrix,
    rotation_matrix,
    rotoreflection_matrix,
    tower_sqrt,
)

FB = FloatBackend()
EB = ExactBackend()
E3 = UnitAxis(Vec3(0, 0, 1))


def quaternion_rotation(axis: UnitAxis, degrees: float) -> Mat3:
    """Independent oracle: unit quaternion (cos a/2, sin a/2 * u) to matrix."""
    half = math.radians(degrees) / 2.0
    w, s = math.cos(half), math.sin(half)
    x, y, z = axis.vec.x * s, axis.vec.y * s, axis.vec.z * s
    return Mat3.from_rows(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


# ---------------------------------------------------------------------------
# projection matrix
# ---------------------------------------------------------------------------

def test_projection_coordinate_axis():
    assert projection_matrix(E3, EB).entries == Mat3.diag(0, 0, 1).entries


def test_projection_diagonal_axis():
    s = 1 / math.sqrt(2)
    A = projection_matrix(UnitAxis(Vec3(s, s, 0.0)), FB)
    expected = Mat3.from_rows([[0.5, 0.5, 0], [0.5, 0.5, 0], [0, 0, 0]])
    assert max_abs_diff(A, expected) <= 1e-15


def test_projection_agrees_with_inner_product_form():
    rng = random.Random(31)
    u = rand_unit_axis(rng)
    A = projection_matrix(u, FB)
    for _ in range(20):
        v = Vec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        direct = A.matvec(v)
        via_dot = u.vec.scale(u.vec.dot(v))
        assert vec_max_diff(direct, via_dot) <= 1e-12


def test_projection_idempotent_symmetric_exact():
    rng = random.Random(32)
    u = rational_unit_axis(rng)
    A = projection_matrix(u, EB)
    assert mat_equal_exact(A @ A, A)
    assert mat_equal_exact(A.transpose(), A)
    assert tuple(A.matvec(u.vec)) == tuple(u.vec)


def test_projection_rejects_non_unit_axis():
    with pytest.raises(NonUnitAxis):
        projection_matrix(UnitAxis(Vec3(1, 1, 0)), EB)


# ---------------------------------------------------------------------------
# cross matrix
# ---------------------------------------------------------------------------

def test_cross_matrix_coordinate_axis():
    B = cross_matrix(E3, EB)
    assert B.entries == Mat3.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 0]]).entries


def test_cross_matrix_square_identity():
    rng = random.Random(33)
    eye = Mat3.identity()
    for _ in range(20):
        u = rand_unit_axis(rng)
        A = projection_matrix(u, FB)
        B = cross_matrix(u, FB)
        assert max_abs_diff(-(B @ B), eye - A) <= 1e-14


def test_cross_matrix_action_is_cross_product():
    rng = random.Random(34)
    u = rand_unit_axis(rng)
    B = cross_matrix(u, FB)
    for _ in range(20):
        v = Vec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert vec_max_diff(B.matvec(v), u.vec.cross(v)) <= 1e-14


# ---------------------------------------------------------------------------
# rotation matrix
# ---------------------------------------------------------------------------

def test_rotation_quarter_turn_about_e3():
    R = rotation_matrix(UnitAxis(Vec3(0.0, 0.0, 1.0)), AngleRep(0.0, 1.0), FB)
    expected = Mat3.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    assert max_abs_diff(R, expected) <= 1e-15


def test_rotation_zero_angle_is_identity():
    rng = random.Random(35)
    u = rand_unit_axis(rng)
    R = rotation_matrix(u, AngleRep(1.0, 0.0), FB)
    assert max_abs_diff(R, Mat3.identity()) <= 1e-15


def test_rotation_reference_example_exact():
    M, field = reference_rotation_matrix()
    axis_norm2 = parse_scalar("21-10*sqrt(2)-8*sqrt(3)+8*sqrt(2)*sqrt(3)", field)
    n = tower_sqrt(axis_norm2)
    big = n.field
    p, q = big.generator(0), big.generator(1)
    axis = UnitAxis(Vec3((p + q) / n, (2 - p - q + p * q) / n, 1 / n))
    cos = parse_scalar("-1/2-sqrt(2)/4+sqrt(3)/6-sqrt(2)*sqrt(3)/6", big)
    sin = parse_scalar(
        "-sqrt(2)*sqrt(3)*sqrt(9-2*sqrt(2)-2*sqrt(2)*sqrt(3))/12", big
    )
    R = rotation_matrix(axis, AngleRep(cos, sin.lift(cos.field)), EB)
    lifted = [e.lift(R.entries[0].field) for e in M.entries]
    assert all(a == b for a, b in zip(R.entries, lifted))


def test_rotation_orthogonal_and_trace():
    rng = random.Random(36)
    for _ in range(20):
        u, ang = rand_unit_axis(rng), rand_angle(rng)
        R = rotation_matrix(u, ang, FB)
        assert max_abs_diff(R @ R.transpose(), Mat3.identity()) <= 1e-14
        assert abs(R.det() - 1) <= 1e-12
        assert abs(R.trace() - (1 + 2 * ang.cos_alpha)) <= 1e-12


def test_rotation_rejects_bad_angle():
    with pytest.raises(InvalidAngle):
        rotation_matrix(E3, AngleRep(Fraction(1, 2), Fraction(1, 2)), EB)


def test_rotation_fixes_axis_and_spins_plane():
    rng = random.Random(37)
    u, ang = rand_unit_axis(rng), rand_angle(rng)
    R = rotation_matrix(u, ang, FB)
    assert vec_max_diff(R.matvec(u.vec), u.vec) <= 1e-12
    v, w = complete_orthonormal_basis(u, FB)
    expected = v.scale(ang.cos_alpha) + w.scale(ang.sin_alpha)
    assert vec_max_diff(R.matvec(v), expected) <= 1e-12


# ---------------------------------------------------------------------------
# reflection matrix
# ---------------------------------------------------------------------------

def test_reflection_mirror_through_xy_plane():
    assert reflection_matrix(E3, EB).entries == Mat3.diag(1, 1, -1).entries


def test_reflection_matches_projection_form():
    rng = random.Random(38)
    u = rand_unit_axis(rng)
    S = reflection_matrix(u, FB)
    A = projection_matrix(u, FB)
    for _ in range(20):
        x = Vec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert vec_max_diff(S.matvec(x), x - A.matvec(x).scale(2)) <= 1e-13


def test_reflection_trace_is_one():
    rng = random.Random(39)
    for _ in range(20):
        S = reflection_matrix(rand_unit_axis(rng), FB)
        assert abs(S.trace() - 1) <= 1e-12


# ---------------------------------------------------------------------------
# rotoreflection matrix
# ---------------------------------------------------------------------------

def test_rotoreflection_zero_angle_is_reflection():
    rng = random.Random(40)
    u = rational_unit_axis(rng)
    SR = rotoreflection_matrix(u, AngleRep(Fraction(1), Fraction(0)), EB)
    assert mat_equal_exact(SR, reflection_matrix(u, EB))


def test_rotoreflection_half_turn_is_point_inversion():
    rng = random.Random(41)
    u = rational_unit_axis(rng)
    SR = rotoreflection_matrix(u, AngleRep(Fraction(-1), Fraction(0)), EB)
    assert mat_equal_exact(SR, -Mat3.identity())


def test_rotoreflection_three_computations_agree():
    rng = random.Random(42)
    for _ in range(20):
        u, ang = rand_unit_axis(rng), rand_angle(rng)
        S = reflection_matrix(u, FB)
        R = rotation_matrix(u, ang, FB)
        SR = rotoreflection_matrix(u, ang, FB)
        assert max_abs_diff(S @ R, SR) <= 1e-14
        assert max_abs_diff(R @ S, SR) <= 1e-14


# ---------------------------------------------------------------------------
# adapted orthonormal basis
# ---------------------------------------------------------------------------

def test_basis_pole_case():
    v, w = complete_orthonormal_basis(E3, EB)
    assert tuple(v) == (1, 0, 0)
    assert tuple(w) == (0, 1, 0)


def test_basis_e1_case():
    v, w = complete_orthonormal_basis(UnitAxis(Vec3(1, 0, 0)), EB)
    assert tuple(v) == (0, 1, 0)
    assert tuple(w) == (0, 0, 1)


def test_basis_conjugates_reflection():
    rng = random.Random(43)
    for _ in range(20):
        u = rand_unit_axis(rng)
        v, w = complete_orthonormal_basis(u, FB)
        P = Mat3.from_columns(u.vec, v, w)
        assert max_abs_diff(P @ P.transpose(), Mat3.identity()) <= 1e-14
        S = P @ Mat3.diag(-1, 1, 1) @ P.transpose()
        assert max_abs_diff(S, reflection_matrix(u, FB)) <= 1e-14


def test_basis_right_handed_orthonormal():
    rng = random.Random(44)
    for _ in range(20):
        u = rand_unit_axis(rng)
        v, w = complete_orthonormal_basis(u, FB)
        assert abs(v.dot(v) - 1) <= 1e-12 and abs(w.dot(w) - 1) <= 1e-12
        assert abs(u.vec.dot(v)) <= 1e-12 and abs(u.vec.dot(w)) <= 1e-12
        assert vec_max_diff(u.vec.cross(v), w) <= 1e-12


def test_basis_conjugates_rotation():
    # rotation about u expressed in the adapted basis {v, w, u}: a plain
    # turn about the third basis vector, conjugated back by P = [v w u]
    rng = random.Random(45)
    for _ in range(500):
        u, ang = rand_unit_axis(rng), rand_angle(rng)
        v, w = complete_orthonormal_basis(u, FB)
        P = Mat3.from_columns(v, w, u.vec)
        Rz = Mat3.from_rows(
            [
                [ang.cos_alpha, -ang.sin_alpha, 0.0],
                [ang.sin_alpha, ang.cos_alpha, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        conjugated = P @ Rz @ P.transpose()
        assert max_abs_diff(conjugated, rotation_matrix(u, ang, FB)) <= 1e-12


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_identity():
    dec = classify(Mat3.identity())
    assert dec.kind is Kind.IDENTITY
    assert dec.axis is None and dec.angle is None
    assert dec.determinant == 1


def test_classify_point_inversion():
    dec = classify(-Mat3.identity())
    assert dec.kind is Kind.POINT_INVERSION
    assert dec.axis is None
    assert dec.angle.cos_alpha == -1 and dec.angle.sin_alpha == 0
    assert dec.determinant == -1


def test_classify_mirror_matrix():
    dec = classify(Mat3.diag(1, 1, -1))
    assert dec.kind is Kind.REFLECTION
    assert tuple(dec.axis.vec) == (0, 0, 1)
    assert mat_equal_exact(rebuild(dec), Mat3.diag(1, 1, -1))


def test_classify_reference_example_exact():
    M, field = reference_rotation_matrix()
    dec = classify(M, EB)
    assert dec.kind is Kind.ROTATION
    assert dec.determinant == 1

    cos_expected = parse_scalar("-1/2-sqrt(2)/4+sqrt(3)/6-sqrt(2)*sqrt(3)/6", field)
    assert dec.angle.cos_alpha == cos_expected

    r = parse_scalar("sqrt(9-2*sqrt(2)-2*sqrt(2)*sqrt(3))", field)
    big = r.field
    pq = big.generator(0) * big.generator(1)
    assert dec.angle.sin_alpha == -pq * r / 12
    assert dec.angle.sin_alpha.sign() == -1

    n = tower_sqrt(
        parse_scalar("21-10*sqrt(2)-8*sqrt(3)+8*sqrt(2)*sqrt(3)", big)
    )
    assert n.field == big  # the axis norm lives in the same tower
    p, q = big.generator(0), big.generator(1)
    assert dec.axis.a == (p + q) / n
    assert dec.axis.b == (2 - p - q + pq) / n
    assert dec.axis.c == 1 / n

    rebuilt = rebuild(dec, EB)
    lifted = [e.lift(big) for e in M.entries]
    assert all(a == b for a, b in zip(rebuilt.entries, lifted))


def test_classify_round_trip_float():
    rng = random.Random(45)
    for _ in range(100):
        u, ang = rand_unit_axis(rng), rand_angle(rng)
        for build, kinds in (
            (rotation_matrix, {Kind.ROTATION, Kind.IDENTITY}),
            (rotoreflection_matrix, {Kind.ROTOREFLECTION, Kind.REFLECTION, Kind.POINT_INVERSION}),
        ):
            M = build(u, ang, FB)
            dec = classify(M, FB)
            assert dec.kind in kinds
            assert max_abs_diff(rebuild(dec, FB), M) <= 1e-9
        S = reflection_matrix(u, FB)
        dec = classify(S, FB)
        assert dec.kind is Kind.REFLECTION
        assert max_abs_diff(rebuild(dec, FB), S) <= 1e-9


def test_classify_round_trip_exact():
    rng = random.Random(46)
    for _ in range(10):
        u, ang = rational_unit_axis(rng), rational_angle(rng)
        M = rotation_matrix(u, ang, EB)
        dec = classify(M, EB)
        rebuilt = rebuild(dec, EB)
        field = None
        for e in rebuilt.entries:
            if hasattr(e, "field"):
                field = e.field if field is None or field.depth < e.field.depth else field
        for a, b in zip(rebuilt.entries, M.entries):
            assert EB.eq(a, b)


def test_classify_canonical_axis_orientation():
    # (u, a) and (-u, 2pi - a) name the same rotation; classify must pick
    # the representative whose first nonzero axis component is positive
    u_neg = UnitAxis(Vec3(0.0, 0.0, -1.0))
    M = rotation_matrix(u_neg, AngleRep.from_degrees(90), FB)
    dec = classify(M, FB)
    assert vec_max_diff(dec.axis.vec, Vec3(0.0, 0.0, 1.0)) <= 1e-12
    assert abs(dec.angle.degrees - 270.0) <= 1e-9
    assert max_abs_diff(rebuild(dec, FB), M) <= 1e-12


def test_classify_half_turn_axis_extraction():
    rng = random.Random(47)
    for _ in range(20):
        u = rand_unit_axis(rng)
        M = rotation_matrix(u, AngleRep.from_degrees(180), FB)
        dec = classify(M, FB)
        assert dec.kind is Kind.ROTATION
        assert abs(dec.angle.degrees - 180.0) <= 1e-9
        alignment = abs(dec.axis.vec.dot(u.vec))
        assert abs(alignment - 1.0) <= 1e-9
        assert max_abs_diff(rebuild(dec, FB), M) <= 1e-9


def test_classify_transpose_negates_sine():
    rng = random.Random(48)
    for _ in range(200):
        u = rand_unit_axis(rng)
        deg = rng.uniform(5.0, 355.0)
        if abs(deg - 180.0) < 1.0:
            continue
        build = rotation_matrix if rng.random() < 0.5 else rotoreflection_matrix
        M = build(u, AngleRep.from_degrees(deg), FB)
        d1 = classify(M, FB)
        d2 = classify(M.transpose(), FB)
        assert d1.kind is d2.kind
        assert vec_max_diff(d1.axis.vec, d2.axis.vec) <= 1e-9
        assert abs(d1.angle.sin_alpha + d2.angle.sin_alpha) <= 1e-9
        assert abs(d1.angle.cos_alpha - d2.angle.cos_alpha) <= 1e-9


def test_classify_near_half_turn_with_dirty_input():
    # axis recovery must not amplify input noise by 1/|sin| near alpha = pi
    rng = random.Random(53)
    tol = 1e-9
    for _ in range(50):
        u = rand_unit_axis(rng)
        deg = 180.0 + rng.uniform(-0.01, 0.01)
        M = rotation_matrix(u, AngleRep.from_degrees(deg), FB)
        noisy = Mat3(tuple(e + rng.uniform(-0.2, 0.2) * tol for e in M.entries))
        dec = classify(noisy, FloatBackend(10 * tol))
        assert dec.kind is Kind.ROTATION
        assert max_abs_diff(rebuild(dec, FB), noisy) <= 100 * tol


def test_classify_near_mirror_rotoreflection_with_dirty_input():
    rng = random.Random(54)
    tol = 1e-9
    for _ in range(50):
        u = rand_unit_axis(rng)
        deg = rng.uniform(-0.01, 0.01)
        M = rotoreflection_matrix(u, AngleRep.from_degrees(deg), FB)
        noisy = Mat3(tuple(e + rng.uniform(-0.2, 0.2) * tol for e in M.entries))
        dec = classify(noisy, FloatBackend(10 * tol))
        assert dec.kind is Kind.ROTOREFLECTION
        assert max_abs_diff(rebuild(dec, FB), noisy) <= 100 * tol


def test_classify_rejects_non_orthogonal():
    M = Mat3.from_rows([[1.0, 1e-3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(NotOrthogonal) as exc:
        classify(M, FloatBackend(1e-9))
    assert exc.value.residual > 1e-9


def test_classify_tolerance_knob():
    M = Mat3.from_rows([[1.0, 1e-3, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    dec = classify(M, FloatBackend(5e-3))
    assert dec.kind is Kind.IDENTITY
    assert classify(M, tol=5e-3).kind is Kind.IDENTITY  # keyword form


def test_classify_eigen_behavior():
    rng = random.Random(49)
    u, ang = rand_unit_axis(rng), rand_angle(rng)
    R = rotation_matrix(u, ang, FB)
    SR = rotoreflection_matrix(u, ang, FB)
    S = reflection_matrix(u, FB)
    assert vec_max_diff(R.matvec(u.vec), u.vec) <= 1e-12
    assert vec_max_diff(SR.matvec(u.vec), -u.vec) <= 1e-12
    v, w = complete_orthonormal_basis(u, FB)
    assert vec_max_diff(S.matvec(v), v) <= 1e-12
    assert vec_max_diff(S.matvec(w), w) <= 1e-12


# ---------------------------------------------------------------------------
# type-level contracts
# ---------------------------------------------------------------------------

def test_angle_from_degrees_normalizes():
    ang = AngleRep.from_degrees(-90.0)
    assert ang.degrees == 270.0
    assert abs(ang.sin_alpha + 1.0) <= 1e-15
    # -1e-20 % 360 rounds to 360.0, which must fold to 0
    assert AngleRep.from_degrees(-1e-20).degrees == 0.0


def test_angle_from_pair_validates_and_fills_degrees():
    ang = AngleRep.from_pair(Fraction(3, 5), Fraction(-4, 5))
    assert 0.0 <= ang.degrees < 360.0
    assert abs(math.cos(math.radians(ang.degrees)) - 0.6) <= 1e-12
    with pytest.raises(InvalidAngle):
        AngleRep.from_pair(Fraction(1, 2), Fraction(1, 2))


def test_unit_axis_from_vec_validates():
    UnitAxis.from_vec(Vec3(Fraction(3, 5), 0, Fraction(4, 5)))
    with pytest.raises(NonUnitAxis):
        UnitAxis.from_vec(Vec3(1, 1, 1))


def test_unit_axis_normalize_rejects_non_finite_norm():
    for v in (Vec3(math.nan, 0.0, 0.0), Vec3(0.0, math.inf, 0.0)):
        with pytest.raises(ZeroAxis):
            UnitAxis.normalize(v, FB)


def test_unit_axis_normalize_rescales_huge_and_tiny_vectors():
    # norm^2 overflows (1e200), is subnormal (1e-160) or underflows to 0 (1e-200)
    for x in (1e200, 1e-160, 1e-200):
        assert tuple(UnitAxis.normalize(Vec3(x, 0.0, 0.0), FB).vec) == (1.0, 0.0, 0.0), x
    for s in (1e-200, 1e300):
        u = UnitAxis.normalize(Vec3(3 * s, 0.0, -4 * s), FB).vec
        assert vec_max_diff(u, Vec3(0.6, 0.0, -0.8)) <= 1e-15, s


def test_classify_tiny_negative_angle_reads_0_degrees():
    # exact rotation about e3 by the tiny negative angle with t = -1e-20:
    # cos = (1 - t^2)/(1 + t^2), sin = 2t/(1 + t^2)
    t = Fraction(-1, 10**20)
    ang = AngleRep((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))
    dec = classify(rotation_matrix(UnitAxis(Vec3(0, 0, 1)), ang, EB), EB)
    assert dec.kind is Kind.ROTATION
    assert EB.sign(dec.angle.sin_alpha) < 0
    assert dec.angle.degrees == 0.0


def test_unit_axis_normalize_extends_tower():
    u = UnitAxis.normalize(Vec3(1, 1, 0), EB)
    assert u.a * u.a + u.b * u.b + u.c * u.c == 1
    assert u.a.field.depth == 1  # sqrt(2) adjoined


def test_decomposition_axis_angle_property():
    dec = classify(Mat3.diag(1, 1, -1))
    pair = dec.axis_angle
    assert pair is not None and tuple(pair.axis.vec) == (0, 0, 1)
    assert classify(Mat3.identity()).axis_angle is None


# ---------------------------------------------------------------------------
# invariants report
# ---------------------------------------------------------------------------

def test_invariants_of_rotation():
    rng = random.Random(50)
    u, ang = rand_unit_axis(rng), rand_angle(rng)
    rep = invariant_report(rotation_matrix(u, ang, FB), FB)
    assert abs(rep.det - 1) <= 1e-12
    assert abs(rep.trace - (1 + 2 * ang.cos_alpha)) <= 1e-12
    assert rep.orthogonality_residual <= 1e-14


def test_invariants_of_rotoreflection():
    rng = random.Random(51)
    u, ang = rand_unit_axis(rng), rand_angle(rng)
    rep = invariant_report(rotoreflection_matrix(u, ang, FB), FB)
    assert abs(rep.det + 1) <= 1e-12
    assert abs(rep.trace - (-1 + 2 * ang.cos_alpha)) <= 1e-12


def test_invariants_usable_on_non_orthogonal_input():
    rep = invariant_report(Mat3.diag(2, 2, 2), EB)
    assert rep.det == 8
    assert rep.trace == 6
    assert rep.orthogonality_residual == 3.0


# ---------------------------------------------------------------------------
# exact algebraic identity spot checks (full 50-axis suite in acceptance)
# ---------------------------------------------------------------------------

def test_algebraic_identities_exact_sample():
    rng = random.Random(52)
    eye = Mat3.identity()
    for _ in range(5):
        u, ang = rational_unit_axis(rng), rational_angle(rng)
        A = projection_matrix(u, EB)
        B = cross_matrix(u, EB)
        S = reflection_matrix(u, EB)
        R = rotation_matrix(u, ang, EB)
        SR = rotoreflection_matrix(u, ang, EB)
        assert mat_equal_exact(A @ A, A)
        assert mat_equal_exact(B.transpose(), -B)
        assert mat_equal_exact(-(B @ B), eye - A)
        assert mat_equal_exact(S @ S, eye)
        assert mat_equal_exact(R @ R.transpose(), eye)
        assert R.det() == 1 and S.det() == -1 and SR.det() == -1
        assert mat_equal_exact(S @ R, R @ S)
        assert mat_equal_exact(S @ B, B) and mat_equal_exact(B @ S, B)
