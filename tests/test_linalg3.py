import math
import random
from fractions import Fraction

from support import reference_rotation_matrix

from ortho3 import ExactBackend, FloatBackend, Mat3, Vec3, parse_scalar
from ortho3.linalg3 import outer

E1 = Vec3(1, 0, 0)
E2 = Vec3(0, 1, 0)
E3 = Vec3(0, 0, 1)


def test_dot_orthonormal_basis():
    assert E1.dot(E2) == 0
    assert E1.dot(E1) == 1


def test_dot_unit_vector():
    u = Vec3(Fraction(2, 3), Fraction(2, 3), Fraction(1, 3))
    assert u.dot(u) == 1


def test_dot_hand_value():
    assert Vec3(1, 2, 3).dot(Vec3(4, 5, 6)) == 32


def test_cross_right_handed():
    assert tuple(E1.cross(E2)) == (0, 0, 1)


def test_cross_antisymmetric():
    u = Vec3(3, -1, 7)
    assert tuple(u.cross(u)) == (0, 0, 0)
    v = Vec3(2, 5, -4)
    assert tuple(u.cross(v)) == tuple(-(v.cross(u)))


def test_cross_triple_identity_hand_case():
    # both sides evaluated independently for u=(1,2,3), v=(0,1,1), w=(2,0,1)
    u, v, w = Vec3(1, 2, 3), Vec3(0, 1, 1), Vec3(2, 0, 1)
    lhs = u.cross(v.cross(w))
    rhs = v.scale(u.dot(w)) - w.scale(u.dot(v))
    assert tuple(lhs) == tuple(rhs) == (-10, 5, 0)


def test_cross_triple_identity_exact_200():
    rng = random.Random(7)
    for _ in range(200):
        u, v, w = (
            Vec3(*(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)))
            for _ in range(3)
        )
        lhs = u.cross(v.cross(w))
        rhs = v.scale(u.dot(w)) - w.scale(u.dot(v))
        assert tuple(lhs) == tuple(rhs)


def test_cross_triple_identity_float():
    rng = random.Random(8)
    for _ in range(200):
        u, v, w = (
            Vec3(*(rng.uniform(-2, 2) for _ in range(3))) for _ in range(3)
        )
        lhs = u.cross(v.cross(w))
        rhs = v.scale(u.dot(w)) - w.scale(u.dot(v))
        assert all(abs(a - b) <= 1e-12 for a, b in zip(lhs, rhs))


def test_matmul_identity():
    A = Mat3.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert Mat3.identity().matmul(A).entries == A.entries
    assert (A @ Mat3.identity()).entries == A.entries


def test_matvec():
    A = Mat3.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert tuple(A.matvec(Vec3(1, 0, -1))) == (-2, -2, -2)


def test_det_diagonal():
    assert Mat3.diag(-1, 1, 1).det() == -1


def test_det_hand_matrix():
    A = Mat3.from_rows([[2, 0, 1], [1, 3, -1], [0, 5, 4]])
    # cofactor expansion by hand: 2*(12+5) - 0 + 1*(5-0)
    assert A.det() == 39


def test_transpose_involution():
    A = Mat3.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert A.transpose().transpose().entries == A.entries
    assert A.transpose().det() == A.det()


def test_gram_and_self_outer_match_the_full_products():
    # the symmetric forms compute 6 entries; floats must match bit for bit
    rng = random.Random(11)
    M_exact, _ = reference_rotation_matrix()
    for M in [M_exact] + [Mat3(tuple(rng.uniform(-2, 2) for _ in range(9))) for _ in range(50)]:
        assert M.gram().entries == (M.transpose() @ M).entries
        u = M.col(0)
        assert outer(u, u).entries == Mat3.from_rows([[a * b for b in u] for a in u]).entries


def test_trace_of_reference_matrix():
    M, field = reference_rotation_matrix()
    expected = parse_scalar("(-2+sqrt(2)-sqrt(3))/(sqrt(2)*sqrt(3))", field)
    assert M.trace() == expected


def test_det_multiplicative_float_100():
    rng = random.Random(9)
    for _ in range(100):
        A = Mat3(tuple(rng.uniform(-2, 2) for _ in range(9)))
        B = Mat3(tuple(rng.uniform(-2, 2) for _ in range(9)))
        lhs = (A @ B).det()
        rhs = A.det() * B.det()
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_det_multiplicative_exact():
    rng = random.Random(10)
    for _ in range(20):
        A = Mat3(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(9)))
        B = Mat3(tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(9)))
        assert (A @ B).det() == A.det() * B.det()


def test_trace_cyclic_100():
    rng = random.Random(11)
    for _ in range(100):
        A = Mat3(tuple(rng.uniform(-3, 3) for _ in range(9)))
        B = Mat3(tuple(rng.uniform(-3, 3) for _ in range(9)))
        assert abs((A @ B).trace() - (B @ A).trace()) <= 1e-10


def test_backend_equality_knob():
    fb = FloatBackend(tol=1e-6)
    assert fb.eq(1.0, 1.0 + 5e-7)
    assert not fb.eq(1.0, 1.0 + 5e-6)
    eb = ExactBackend()
    assert eb.eq(Fraction(1, 3), Fraction(2, 6))
    assert not eb.eq(Fraction(1, 3), Fraction(333333, 1000000))


def test_float_backend_sqrt_clamps_tiny_negative():
    fb = FloatBackend()
    assert fb.sqrt(-1e-18) == 0.0
    assert fb.sqrt(4.0) == 2.0


def test_exact_backend_sqrt_lifts_rationals():
    eb = ExactBackend()
    root = eb.sqrt(Fraction(9, 4))
    assert root == Fraction(3, 2)
    assert math.isclose(eb.to_float(eb.sqrt(2)), math.sqrt(2))
