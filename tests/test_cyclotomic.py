import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from rackcover.cyclotomic import (
    MAX_ORDER,
    CycScalar,
    Field,
    cyclotomic_polynomial,
    euler_phi,
    parse_scalar,
    root_of_unity,
)
from rackcover.errors import ValidationError


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == [
        1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4,
    ]


def test_root_powers_to_one():
    for n in (1, 2, 3, 4, 5, 6, 8, 12):
        z = root_of_unity(n)
        assert z ** n == 1
        if n > 1:
            assert z ** (n - 1) != 1 or n == 2 and z == -1


def test_i_squared():
    i = root_of_unity(4)
    assert i * i == -1


def test_zeta3_sum_vanishes():
    z = root_of_unity(3)
    assert 1 + z + z * z == 0


def test_inverse_of_one_plus_zeta5():
    a = 1 + root_of_unity(5)
    inv = a.inverse()
    assert a * inv == 1
    assert inv * a == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycScalar.zero(3).inverse()


def test_truth_value_is_nonzero():
    rng = random.Random(11)
    values = [CycScalar.zero(n) for n in (1, 2, 3, 4, 5, 12)]
    values += [root_of_unity(n, k) for n in (2, 3, 4, 12) for k in range(n)]
    values.append(root_of_unity(3) + root_of_unity(3, 2) + 1)  # zero at order 3
    for n in (1, 3, 5, 12):
        values.append(CycScalar(n, [rng.randint(-1, 1) for _ in range(euler_phi(n))]))
    assert {bool(v) for v in values} == {False, True}
    for value in values:
        assert bool(value) == (not value.is_zero), repr(value)


def test_cross_order_arithmetic():
    # zeta_6^3 = -1 = zeta_2, computed across orders
    assert root_of_unity(6) ** 3 == root_of_unity(2)
    assert root_of_unity(6, 2) == root_of_unity(3)
    assert root_of_unity(4) * root_of_unity(3) == root_of_unity(12, 7)


def test_rational_embedding():
    a = CycScalar.rational(Fraction(3, 4), order=6)
    assert a.as_rational() == Fraction(3, 4)
    assert a + Fraction(1, 4) == 1


def test_field_axioms_randomized():
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 6, 12):
        deg = euler_phi(n)
        def rand_scalar():
            return CycScalar(
                n, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg)]
            )
        for _ in range(20):
            a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            if not a.is_zero:
                assert a * a.inverse() == 1
                assert (a ** 3) * (a ** -3) == 1


@pytest.mark.parametrize("n", (5, 8, 15, 16, 24, 27, 50, 101))
def test_inverse_over_each_shape_of_unit_group(n):
    # cyclic unit groups (5, 27, 50, 101: a long doubling chain), products
    # of two or three cyclic groups (8, 15, 24), and 16, where the cyclic
    # groups of 3 and 5 meet in {1, 9}
    rng = random.Random(n)
    deg = euler_phi(n)
    for density in (1.0, 0.3):
        coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  if rng.random() < density else 0 for _ in range(deg)]
        coords[0] = coords[0] or 1  # nonzero
        a = CycScalar(n, coords)
        inverse = a.inverse()
        _check(inverse, n, _lift_ref(inverse, n))
        assert _mul_ref(_lift_ref(a, n), list(inverse.coeffs), n) == _lift_ref(CycScalar.one(n), n)


def test_power_matches_repeated_product():
    z = root_of_unity(12, 5)
    acc = CycScalar.one()
    for k in range(13):
        assert z ** k == acc
        acc = acc * z


def test_parse_scalar():
    assert parse_scalar("4 1") == root_of_unity(4)
    assert parse_scalar("-1") == -CycScalar.one()
    assert parse_scalar("2/3") == Fraction(2, 3)
    with pytest.raises(ValueError):
        parse_scalar("a b c")


@pytest.mark.parametrize("text", ["0 1", "-3 1", f"{MAX_ORDER + 1} 1", "100000000000 1"])
def test_parse_scalar_bounds_the_order(text):
    with pytest.raises(ValidationError, match=re.escape(repr(text))):
        parse_scalar(text)


def test_parse_scalar_takes_the_largest_order():
    assert parse_scalar(f"{MAX_ORDER} {MAX_ORDER // 2}") == -1


def test_root_string_round_trip():
    for n in (2, 3, 4, 6):
        for k in range(n):
            s = root_of_unity(n, k).as_root_string()
            assert s == f"{n} {k}"
    assert (1 + root_of_unity(5)).as_root_string() is None


def test_str_forms():
    assert str(CycScalar.rational(-1)) == "-1"
    assert "z4" in str(root_of_unity(4))


# --- differential test against a Fraction reference -------------------------

ORDERS = (1, 2, 3, 4, 6, 12)
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _reduce_ref(poly, order):
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    poly = [Fraction(c) for c in poly] + [Fraction(0)] * deg
    for k in range(len(poly) - 1, deg - 1, -1):
        for i, c in enumerate(phi):
            poly[k - deg + i] -= poly[k] * c
    return poly[:deg]


def _lift_ref(x, order):
    step = order // x.order
    poly = [Fraction(0)] * (len(x.coeffs) * step)
    for i, c in enumerate(x.coeffs):
        poly[i * step] = Fraction(c)
    return _reduce_ref(poly, order)


def _mul_ref(a, b, order):
    poly = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            poly[i + j] += x * y
    return _reduce_ref(poly, order)


def _check(result, order, coords):
    """`result` is `coords` at `order`, with every coordinate an int or a
    non-integral Fraction, stored as int numerators over one positive
    denominator in lowest terms, which is 1 exactly when `coords` are
    integral."""
    assert result.order == order
    assert list(result.coeffs) == coords
    for c in result.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), result
    num, den = result.num, result.den
    assert all(type(c) is int for c in num) and type(den) is int
    assert den > 0 and gcd(den, *num) == 1
    assert (den == 1) == all(Fraction(c).denominator == 1 for c in coords)


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("m", ORDERS)
@given(data=st.data())
def test_arithmetic_matches_the_fraction_reference(n, m, data):
    a = CycScalar(n, data.draw(st.lists(small, min_size=euler_phi(n), max_size=euler_phi(n))))
    b = CycScalar(m, data.draw(st.lists(small, min_size=euler_phi(m), max_size=euler_phi(m))))
    r = data.draw(small)
    lcm = n * m // gcd(n, m)
    fa, fb, fr = _lift_ref(a, lcm), _lift_ref(b, lcm), [r] + [Fraction(0)] * (euler_phi(n) - 1)
    own = _lift_ref(a, n)
    _check(a, n, own)
    _check(a.lift(lcm), lcm, fa)
    _check(a + b, lcm, [x + y for x, y in zip(fa, fb)])
    _check(a - b, lcm, [x - y for x, y in zip(fa, fb)])
    _check(a * b, lcm, _mul_ref(fa, fb, lcm))
    _check(-a, n, [-x for x in own])
    _check(a + r, n, [x + y for x, y in zip(own, fr)])
    _check(r - a, n, [y - x for x, y in zip(own, fr)])
    _check(r * a, n, [r * x for x in own])
    assert (a == b) == (fa == fb)
    assert a == a.lift(lcm) and b == b.lift(lcm)
    assert (a == r) == (own == fr)
    if not a.is_zero:
        inverse = a.inverse()
        _check(inverse, n, _lift_ref(inverse, n))
        assert _mul_ref(own, list(inverse.coeffs), n) == _lift_ref(CycScalar.one(n), n)
    if not b.is_zero:
        quotient = a / b
        _check(quotient, lcm, _lift_ref(quotient, lcm))
        assert _mul_ref(_lift_ref(quotient, lcm), fb, lcm) == fa


# --- formatting, pinned as the Fraction-coordinate implementation printed it --

FORMATS = [
    # (value, str, repr, to_json, as_root_string, as_rational)
    (lambda: CycScalar.rational(Fraction(1, 2)),
     "1/2", "CycScalar(1, ['1/2'])", "1/2", None, Fraction(1, 2)),
    (lambda: CycScalar.rational(Fraction(-3, 4)) * root_of_unity(3),
     "-3/4*z3", "CycScalar(3, ['0', '-3/4'])",
     {"order": 3, "coeffs": ["0", "-3/4"]}, None, None),
    (lambda: root_of_unity(12, 5),
     "-z12 + z12^3", "CycScalar(12, ['0', '-1', '0', '1'])", "12 5", "12 5", None),
    (lambda: (root_of_unity(3) + Fraction(1, 3)).lift(12),
     "-2/3 + z12^2", "CycScalar(12, ['-2/3', '0', '1', '0'])",
     {"order": 12, "coeffs": ["-2/3", "0", "1", "0"]}, None, None),
    (lambda: CycScalar.rational(5, 4),
     "5", "CycScalar(4, ['5', '0'])", "5", None, Fraction(5)),
    (lambda: CycScalar.rational(-1, 2),
     "-1", "CycScalar(2, ['-1'])", "2 1", "2 1", Fraction(-1)),
    (lambda: CycScalar(6, [Fraction(2, 3), -2]),
     "2/3 - 2*z6", "CycScalar(6, ['2/3', '-2'])",
     {"order": 6, "coeffs": ["2/3", "-2"]}, None, None),
    (lambda: CycScalar.zero(3),
     "0", "CycScalar(3, ['0', '0'])", "0", None, Fraction(0)),
    (lambda: root_of_unity(4),
     "z4", "CycScalar(4, ['0', '1'])", "4 1", "4 1", None),
]


@pytest.mark.parametrize("make, text, rep, json_form, root, rational", FORMATS)
def test_formatting_is_pinned(make, text, rep, json_form, root, rational):
    value = make()
    assert str(value) == text
    assert repr(value) == rep
    assert value.to_json() == json_form
    assert value.as_root_string() == root
    assert value.as_rational() == rational
    if rational is not None:
        assert type(value.as_rational()) is Fraction


# --- the field of one computation --------------------------------------------


def test_field_one():
    # rational inputs give Q, whose unit is the int 1; any other input gives
    # Q(zeta_M), whose unit is a CycScalar of order M
    assert Field([CycScalar.one(4), CycScalar.rational(-1, 4)]).one == 1
    assert type(Field([CycScalar.one(4)]).one) is int
    assert Field([]).one == 1 and Field([]).rational
    one = Field([CycScalar.one(2), root_of_unity(3)]).one
    assert type(one) is CycScalar and one.order == 6 and one == 1


def test_field_order_is_the_lcm():
    assert Field([CycScalar.one(4), CycScalar.rational(3, 6)]).order == 12
    assert Field([root_of_unity(4), CycScalar.one(2)]).order == 4
    assert Field([root_of_unity(3), CycScalar.rational(Fraction(1, 2))]).order == 3
    assert Field([CycScalar.zero(5)]).order == 5
    assert Field([]).order == 1


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 12])
def test_field_internal_export_round_trip(order):
    # over Q a value is held as an int, or a Fraction when not integral, and
    # comes back stored at order M; over Q(zeta_M) both maps are the identity
    values = [CycScalar.rational(v, order) for v in (0, 1, -1, 7, Fraction(-2, 3))]
    field = Field(values)
    assert field.rational and field.order == order
    held = [field.internal(v) for v in values]
    assert held == [0, 1, -1, 7, Fraction(-2, 3)]
    assert [type(v) for v in held] == [int, int, int, int, Fraction]
    for value, back in zip(values, map(field.export, held)):
        assert type(back) is CycScalar
        assert (back.order, back.coeffs) == (value.order, value.coeffs)
    if order > 2:
        cyclic = Field(values + [root_of_unity(order)])
        assert not cyclic.rational and cyclic.order == order
        for value in values:
            assert cyclic.internal(value) is value
            assert cyclic.export(value) is value
