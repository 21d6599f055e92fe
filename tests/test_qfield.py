import math
import random
from fractions import Fraction

import pytest
from support import random_elem, random_tower, reference_mul

from ortho3 import (
    DivisionByZero,
    Inconclusive,
    IncompatibleTowers,
    InvalidTower,
    NegativeRadicand,
    ParseError,
    parse_scalar,
    tower_sqrt,
)
from ortho3.qfield.tower import QQ, TowerElem, TowerField


def _pq_field() -> TowerField:
    return parse_scalar("sqrt(2)*sqrt(3)").field


def test_sqrt2_squared():
    p = parse_scalar("sqrt(2)")
    assert p * p == 2


def test_sum_of_roots_squared():
    field = _pq_field()
    p, q = field.generator(0), field.generator(1)
    assert (p + q) ** 2 == 5 + 2 * p * q


def test_cosine_element_numeric():
    cos = parse_scalar("-1/2-sqrt(2)/4+sqrt(3)/6-sqrt(2)*sqrt(3)/6")
    assert abs(cos.to_float() - (-0.973126)) <= 1e-6


def test_inverse_of_inverse_prefactor():
    field = _pq_field()
    pq = field.generator(0) * field.generator(1)
    prefactor = parse_scalar("1/(sqrt(2)*sqrt(3))", field)
    assert prefactor.inverse() == pq
    assert prefactor * pq == 1


def test_inverse_of_sqrt2():
    p = parse_scalar("sqrt(2)")
    inv = p.inverse()
    assert inv == p / 2
    assert inv * p == 1


def test_inverse_of_zero():
    with pytest.raises(DivisionByZero):
        QQ.zero.inverse()


def test_division_routes_through_inverse():
    field = _pq_field()
    a = random_elem(random.Random(0), field)
    b = field.generator(0) + 1
    assert (a / b) * b == a


def test_sqrt_rational_square_no_extension():
    root = tower_sqrt(QQ.rational(4))
    assert root == 2
    assert root.field.depth == 0
    root = tower_sqrt(QQ.rational(Fraction(9, 4)))
    assert root == Fraction(3, 2)


def test_sqrt_adjoins_level_and_squares_back():
    field = _pq_field()
    rad = parse_scalar("21-10*sqrt(2)-8*sqrt(3)+8*sqrt(2)*sqrt(3)", field)
    n = tower_sqrt(rad)
    assert n.field.depth == 3
    assert n * n == rad
    assert n.sign() == 1


def test_sqrt_negative_radicand():
    with pytest.raises(NegativeRadicand):
        tower_sqrt(QQ.rational(-1))


def test_sqrt_zero():
    z = tower_sqrt(QQ.zero)
    assert z.is_zero()


def test_sqrt_finds_existing_generator():
    field = _pq_field()
    again = tower_sqrt(field.rational(2))
    assert again.field.depth == 2
    assert again == field.generator(0)


def test_sqrt_resolves_product_of_generators():
    field = _pq_field()
    root6 = tower_sqrt(field.rational(6))
    assert root6.field.depth == 2
    assert root6 == field.generator(0) * field.generator(1)


def test_eval_sqrt6():
    pq = parse_scalar("sqrt(2)*sqrt(3)")
    iv = pq.eval(128)
    assert abs(iv.to_float() - math.sqrt(6)) <= 1e-12
    assert float(iv.width) <= 1e-30


def test_eval_sine_element():
    sin = parse_scalar("-sqrt(2)*sqrt(3)*sqrt(9-2*sqrt(2)-2*sqrt(2)*sqrt(3))/12")
    assert abs(sin.eval(128).to_float() - (-0.230270)) <= 1e-6


def test_eval_zero_is_exact():
    iv = QQ.zero.eval(64)
    assert iv.lo == 0 == iv.hi


def test_eval_rejects_low_precision():
    with pytest.raises(ValueError):
        QQ.one.eval(16)


def test_parse_rational_literal():
    half = parse_scalar("1/2")
    assert half == Fraction(1, 2)
    assert half.field.depth == 0


def test_parse_sqrt_product():
    elem = parse_scalar("sqrt(2)*sqrt(3)")
    assert abs(elem.to_float() - math.sqrt(6)) <= 1e-12


def test_parse_error_offset():
    with pytest.raises(ParseError) as exc:
        parse_scalar("sqrt(")
    assert exc.value.offset == 5


def test_parse_error_trailing():
    with pytest.raises(ParseError) as exc:
        parse_scalar("1 2")
    assert exc.value.offset == 2


def test_parse_error_bad_factor():
    with pytest.raises(ParseError) as exc:
        parse_scalar("2 + * 3")
    assert exc.value.offset == 4


def test_parse_division_by_zero_literal():
    with pytest.raises(DivisionByZero):
        parse_scalar("1/0")


def test_parse_division_by_zero_expression():
    with pytest.raises(DivisionByZero):
        parse_scalar("1/(2-2)")


def test_parse_negative_radicand_propagates():
    with pytest.raises(NegativeRadicand):
        parse_scalar("sqrt(1-2)")


def test_parse_whitespace_and_nesting():
    elem = parse_scalar(" ( 1 + sqrt( 2 ) ) * ( 1 - sqrt( 2 ) ) ")
    assert elem == -1


def test_field_axioms_random_200():
    rng = random.Random(21)
    field = random_tower(rng, 3)
    for _ in range(200):
        a = random_elem(rng, field, span=6)
        b = random_elem(rng, field, span=6)
        assert (a + b) - b == a
        if not b.is_zero():
            assert (a * b) * b.inverse() == a


def test_sqrt_of_a_square_never_extends_the_tower():
    # sqrt(x*x) must be found inside the field for any element x
    rng = random.Random(26)
    for _ in range(5):
        field = random_tower(rng, rng.randint(1, 3))
        for _ in range(20):
            x = random_elem(rng, field, span=5)
            if x.is_zero():
                continue
            root = tower_sqrt(x * x)
            assert root.field == field
            assert root == x or root == -x
            assert root.sign() > 0


def test_sqrt_of_square_times_generator_resolves_in_field():
    field = _pq_field()
    p, q = field.generator(0), field.generator(1)
    x = 3 - p / 2 + q
    root = tower_sqrt(x * x * 3)  # = |x| * sqrt(3)
    assert root.field == field
    assert root * root == x * x * 3


def test_sqrt_squares_back_random_50():
    rng = random.Random(22)
    field = random_tower(rng, 2)
    done = 0
    while done < 50:
        a = random_elem(rng, field, span=5)
        if a.is_zero():
            continue
        if a.sign() < 0:
            a = -a
        root = tower_sqrt(a)
        assert root * root == a
        assert root.sign() >= 0
        done += 1


def test_eval_monotone_refinement():
    rng = random.Random(23)
    field = random_tower(rng, 3)
    for _ in range(50):
        a = random_elem(rng, field, span=6)
        coarse = a.eval(64)
        fine = a.eval(128)
        assert coarse.contains(fine)
        assert fine.width <= coarse.width


def test_render_parse_identity_random_100():
    rng = random.Random(24)
    for _ in range(10):
        field = random_tower(rng, rng.randint(1, 3))
        for _ in range(10):
            a = random_elem(rng, field, span=7)
            again = parse_scalar(a.render(), field)
            assert again == a
            assert again.field == field


def test_render_parse_identity_nested_radicand():
    field = _pq_field()
    r = tower_sqrt(parse_scalar("9-2*sqrt(2)-2*sqrt(2)*sqrt(3)", field))
    a = (r + 1) / (r.field.generator(0) + 3)
    assert parse_scalar(a.render(), a.field) == a


def test_render_of_zero_and_rational():
    assert QQ.zero.render() == "0"
    assert QQ.rational(Fraction(-3, 4)).render() == "-3/4"


def test_canonical_render_format():
    cos = parse_scalar("-1/2-sqrt(2)/4+sqrt(3)/6-sqrt(2)*sqrt(3)/6")
    assert cos.render() == "(-1/2 - sqrt(2)/4 + sqrt(3)/6 - sqrt(2)*sqrt(3)/6)"


def test_auto_lift_prefix_towers():
    p = parse_scalar("sqrt(2)")
    field = parse_scalar("sqrt(3)", p.field).field
    lifted = p + field.zero
    assert lifted.field == field
    assert lifted == field.generator(0)


def test_incompatible_towers_raise():
    a = parse_scalar("sqrt(2)")
    b = parse_scalar("sqrt(3)")
    with pytest.raises(IncompatibleTowers):
        _ = a + b


def test_degenerate_tower_is_refused_loudly():
    # hand-built Q(sqrt(2))(sqrt(2)): the second radicand is a square below,
    # which certification-by-construction never produces
    base = tower_sqrt(QQ.rational(2)).field
    bogus = base.extend(base.rational(2).tree)
    ghost = bogus.generator(1) - bogus.generator(0)  # nonzero tree, zero value
    assert not ghost.is_zero()
    with pytest.raises(Inconclusive):
        ghost.sign()
    with pytest.raises(InvalidTower):
        (bogus.generator(0) + bogus.generator(1)).inverse()


def test_pow_and_rational_checks():
    p = parse_scalar("sqrt(2)")
    assert p ** 4 == 4
    assert (p ** 2).is_rational()
    assert (p ** 2).as_fraction() == 2
    assert not p.is_rational()
    with pytest.raises(ValueError):
        p.as_fraction()


def test_negative_power_uses_inverse():
    p = parse_scalar("sqrt(2)")
    assert p ** -2 == Fraction(1, 2)
    assert (1 + p) ** -1 == (1 + p).inverse()


def test_reflected_arithmetic_with_rationals():
    p = parse_scalar("sqrt(2)")
    assert 1 - p == -(p - 1)
    assert 2 / p == p
    assert Fraction(3, 2) + p == p + Fraction(3, 2)


def test_floats_do_not_coerce_into_towers():
    p = parse_scalar("sqrt(2)")
    with pytest.raises(TypeError):
        _ = p + 0.5


def test_lift_to_unrelated_tower_raises():
    a = parse_scalar("sqrt(2)")
    b = parse_scalar("sqrt(3)")
    with pytest.raises(IncompatibleTowers):
        a.lift(b.field)


def test_field_repr_and_generator_approx():
    field = _pq_field()
    text = repr(field)
    assert "2" in text and "3" in text
    assert repr(QQ) == "TowerField(Q)"


def test_sqrt_extracts_large_square_factor():
    # 10007 is prime and above the trial-division bound; the cofactor
    # perfect-square check must still pull it out of the radicand
    root = tower_sqrt(QQ.rational(10007 * 10007 * 6))
    assert root * root == 10007 * 10007 * 6
    assert root.field.depth == 1
    assert root.field.radicand(0) == 6


def test_interval_arithmetic_api():
    from fractions import Fraction as F

    from ortho3.qfield.interval import Interval, sqrt_interval

    a = Interval(F(1), F(2))
    b = Interval(F(-1), F(3))
    assert (a + b).lo == 0 and (a + b).hi == 5
    assert (a - b).lo == -2 and (a - b).hi == 3
    assert (-a).lo == -2 and (-a).hi == -1
    assert (a * b).lo == -2 and (a * b).hi == 6
    assert (a / a).contains(Interval.point(1))
    assert a.contains(Interval(F(5, 4), F(3, 2)))
    assert not a.contains(b)
    assert a.midpoint == F(3, 2) and a.width == 1
    assert Interval(F(1), F(4)).sign() == 1
    assert Interval(F(-4), F(-1)).sign() == -1
    assert Interval.point(0).sign() == 0
    assert b.sign() is None
    with pytest.raises(DivisionByZero):
        b.reciprocal()
    with pytest.raises(ValueError):
        Interval(F(2), F(1))
    with pytest.raises(ValueError):
        sqrt_interval(Interval(F(-2), F(-1)), 64)
    root = sqrt_interval(Interval(F(2), F(2)), 64)
    assert root.lo <= F(141421356237309504880, 10**20) <= root.hi


def test_coefficients_are_in_binary_counting_monomial_order():
    # bit i of a coordinate's index says whether sqrt(d_i) is a factor
    x = parse_scalar("1 + 2*sqrt(2) + 3*sqrt(3) + 4*sqrt(2)*sqrt(3)")
    assert x.coefficients() == [1, 2, 3, 4]


def _xor_convolution(x, y, rads):
    """Reference product over Q(sqrt(d_0), ..., sqrt(d_k-1)) with rational d_i:
    monomials i and j multiply to monomial i ^ j times every d_k in i & j."""
    c = [Fraction(0)] * len(x)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            term = xi * yj
            for k, d in enumerate(rads):
                if (i & j) >> k & 1:
                    term *= d
            c[i ^ j] += term
    return c


def test_products_match_xor_convolution_random():
    rng = random.Random(20261018)
    for depth in (1, 2, 3, 4):
        for _ in range(5):
            field = random_tower(rng, depth)
            rads = [field.radicand(i).as_fraction() for i in range(depth)]
            x, y = (
                TowerElem(field, tuple(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(1 << depth)
                ))
                for _ in range(2)
            )
            assert (x * y).coefficients() == _xor_convolution(x.tree, y.tree, rads)


def _nested_tower(depth: int, top: bool) -> TowerField:
    """Q(sqrt(2), sqrt(3), ...) with sqrt(1 + 2*sqrt(2) + 3*sqrt(3)) adjoined
    as the top level, or as level 2 with the remaining primes above it."""
    primes = (2, 3, 5, 7)[: depth - 1]
    field = QQ
    for d in primes if top else primes[:2]:
        field = tower_sqrt(field.rational(d)).field
    g = field.generators()
    field = tower_sqrt(1 + 2 * g[0] + 3 * g[1]).field
    for d in () if top else primes[2:]:
        field = tower_sqrt(field.rational(d)).field
    assert field.depth == depth
    return field


def _kernel_cases():
    yield QQ
    for depth in (3, 4, 5):
        yield _nested_tower(depth, top=True)
    for depth in (4, 5):
        yield _nested_tower(depth, top=False)
    half = QQ.extend((Fraction(1, 2),))
    yield half.extend((Fraction(1, 3), Fraction(2, 5)))
    yield half.extend((Fraction(1, 3), Fraction(2, 5))).extend(
        (Fraction(3, 4), Fraction(-1, 6), Fraction(5, 7), Fraction(1, 9))
    )


def test_products_match_five_product_reference_random():
    rng = random.Random(20261019)
    for field in _kernel_cases():
        k = field.depth
        rads = [field.radicand(i).coefficients()[: 1 << i] for i in range(k)]
        assert TowerField(tuple(map(tuple, rads))) == field
        for _ in range(4):
            x, y = (
                TowerElem(field, tuple(
                    Fraction(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(1 << k)
                ))
                for _ in range(2)
            )
            assert (x * y).coefficients() == list(reference_mul(x.tree, y.tree, rads))
            assert x * x.inverse() == 1
            assert (x + y).coefficients() == [a + b for a, b in zip(x.tree, y.tree)]
            assert (x - y).coefficients() == [a - b for a, b in zip(x.tree, y.tree)]
            q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 30))
            for c in (q, 0):
                lifted = (Fraction(c),) + (Fraction(0),) * ((1 << k) - 1)
                assert (x * c).coefficients() == list(reference_mul(x.tree, lifted, rads))
            # both hold only if every sum, product and quotient is reduced
            assert (x + y) - y == x
            assert x * q / q == x
            assert x - x == 0 and x + x == x * 2


def test_rational_element_signs_without_interval_evaluation(monkeypatch):
    field = random_tower(random.Random(3), 3)
    values = [Fraction(-7, 3), Fraction(0), Fraction(10**30 + 1, 7)]
    elems = [field.rational(v) for v in values]
    floats = [e.eval(128).to_float() for e in elems]

    def no_eval(self, bits=128):
        raise AssertionError("rational element evaluated by intervals")

    monkeypatch.setattr(TowerElem, "eval", no_eval)
    for v, e, f in zip(values, elems, floats):
        assert e.sign() == (v > 0) - (v < 0)
        assert e.to_float() == f == float(v)
