from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtshuffle.qtfield import (
    Q,
    QTR_ONE,
    QTR_ZERO,
    QtPolynomial,
    QtRational,
    T,
    ZLaurent,
    eval_numeric,
    frobenius_scale,
    normalize,
    parse_rational,
    qtr,
    swap_qt,
    z_extract,
)

M = (1 - T) * (1 - Q)


def poly(terms):
    return QtPolynomial(terms)


def test_normalize_common_factor():
    # (q^2 - qt) / q reduces to q - t
    r = normalize({(2, 0): 1, (1, 1): -1}, {(1, 0): 1})
    assert r == Q - T
    assert r.den.is_one()


def test_normalize_already_reduced():
    r = normalize({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1}, {(0, 0): 1})
    assert r == M


def test_normalize_zero_numerator():
    r = normalize({}, {(1, 0): 1, (0, 1): -1})
    assert r == QTR_ZERO
    assert r.den.is_one()


def test_normalize_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        normalize({(0, 0): 1}, {})


def test_normalize_idempotent():
    r = normalize({(2, 0): 3, (1, 1): -3}, {(1, 0): 6})
    again = normalize(r.num, r.den)
    assert again == r


def test_denominator_sign_canon():
    r = normalize({(0, 0): 1}, {(1, 0): -1, (0, 1): 1})  # 1/(t - q)
    lead = max(r.den.terms)
    assert r.den.terms[lead] > 0


def test_frobenius_examples():
    assert frobenius_scale(M, 2) == (1 - T**2) * (1 - Q**2)
    assert frobenius_scale(Q / (Q - T), 3) == Q**3 / (Q**3 - T**3)
    r = (1 + Q * T) / (2 - T)
    assert frobenius_scale(r, 1) == r


def test_frobenius_requires_positive_k():
    with pytest.raises(ValueError):
        frobenius_scale(Q, 0)


def test_z_extract_examples():
    L = ZLaurent({0: qtr(1), 1: 3 * Q, -2: T})
    assert z_extract(L, -2) == T
    assert z_extract(ZLaurent({0: qtr(1), 1: 3 * Q}), 5) == QTR_ZERO
    assert z_extract(ZLaurent({-2: T}), 0) == QTR_ZERO


def test_eval_numeric_examples():
    assert eval_numeric(M, 1, 1) == 0
    assert eval_numeric(1 + Q + T, 1, 1) == 3
    with pytest.raises(ZeroDivisionError, match="pole"):
        eval_numeric(Q / (Q - T), 1, 1)
    assert eval_numeric(Q / (Q - T), 2, Fraction(1, 2)) == Fraction(4, 3)


def test_canonical_round_trip():
    values = [
        QTR_ZERO,
        QTR_ONE,
        Q - T,
        (Q**2 - T**2) / (Q * T + 3),
        qtr(Fraction(-7, 3)),
        M / (1 - Q * T) ** 2,
    ]
    for v in values:
        assert parse_rational(v.canonical()) == v


def test_parse_rejects_non_canonical():
    with pytest.raises(ValueError):
        parse_rational("2*q^1*t^0|2*q^0*t^0")  # reducible pair


def test_display_matches_paper_style():
    v = T**4 * Q**2 + T**3 * Q**4 + 2 * T**3 * Q**3 + 2 * T**3 * Q**2
    assert v.display() == "t^4*q^2 + t^3*q^4 + 2*t^3*q^3 + 2*t^3*q^2"
    assert (1 + Q).display() == "q + 1"
    assert QTR_ZERO.display() == "0"


def test_power_and_inverse():
    r = (1 + Q) / (1 - T)
    assert r**0 == QTR_ONE
    assert r**2 == r * r
    assert r**-1 == r.inverse()
    assert r * r.inverse() == QTR_ONE
    with pytest.raises(ZeroDivisionError):
        QTR_ZERO.inverse()


def test_swap_qt():
    assert swap_qt(Q) == T
    assert swap_qt(Q**2 / (1 - T)) == T**2 / (1 - Q)
    sym = Q + T + Q * T
    assert swap_qt(sym) == sym


def test_qtpolynomial_rejects_negative_exponents():
    with pytest.raises(ValueError):
        QtPolynomial({(-1, 0): 1})


def test_zlaurent_arithmetic():
    a = ZLaurent({1: Q, -1: T})
    b = ZLaurent({0: qtr(2), 1: -Q})
    assert (a + b).extract(1) == QTR_ZERO
    prod = a * b
    assert prod.extract(2) == -(Q**2)
    assert prod.extract(0) == -Q * T
    assert prod.extract(-1) == 2 * T
    assert a.frobenius(2) == ZLaurent({2: Q**2, -2: T**2})


# -- randomized laws --------------------------------------------------------

_coef = st.integers(min_value=-4, max_value=4)
_exp = st.integers(min_value=0, max_value=2)


@st.composite
def rationals(draw, allow_zero=True):
    nterms = draw(st.integers(min_value=0 if allow_zero else 1, max_value=3))
    num = {}
    for _ in range(nterms):
        num[(draw(_exp), draw(_exp))] = draw(_coef)
    dterms = draw(st.integers(min_value=1, max_value=2))
    den = {}
    for _ in range(dterms):
        den[(draw(_exp), draw(_exp))] = draw(_coef)
    if not any(den.values()):
        den = {(0, 0): 1}
    r = QtRational(num, den)
    if not allow_zero and r.is_zero():
        return QTR_ONE
    return r


@settings(max_examples=40, deadline=None)
@given(rationals(), rationals(), rationals())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == QTR_ZERO
    assert a + QTR_ZERO == a
    assert a * QTR_ONE == a


@settings(max_examples=40, deadline=None)
@given(rationals(allow_zero=False))
def test_multiplicative_inverse(a):
    assert a * a.inverse() == QTR_ONE


@settings(max_examples=40, deadline=None)
@given(rationals(), rationals(allow_zero=False), rationals(allow_zero=False))
def test_normalize_cancels_common_factor(a, b, c):
    # normalize(a*c, b*c) == normalize(a, b) on polynomial parts
    an, bn, cn = a.num, b.num, c.num
    if bn.is_zero() or cn.is_zero():
        return
    assert normalize(an * cn, bn * cn) == normalize(an, bn)


@settings(max_examples=30, deadline=None)
@given(rationals(), rationals(), st.integers(min_value=1, max_value=3))
def test_frobenius_is_ring_hom(a, b, k):
    assert frobenius_scale(a * b, k) == frobenius_scale(a, k) * frobenius_scale(b, k)
    assert frobenius_scale(a + b, k) == frobenius_scale(a, k) + frobenius_scale(b, k)


@settings(max_examples=30, deadline=None)
@given(rationals(), rationals(), st.integers(min_value=-2, max_value=2))
def test_z_extract_linear(a, b, e):
    L1 = ZLaurent({0: a, e: b})
    L2 = ZLaurent({e: a, 1: b})
    assert z_extract(L1 + L2, e) == z_extract(L1, e) + z_extract(L2, e)


def test_hash_agrees_with_equality_for_constants():
    half = qtr(Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert QTR_ONE == 1 and hash(QTR_ONE) == hash(1)
    assert hash(QTR_ZERO) == hash(0)
    assert hash(qtr(-3)) == hash(-3)
    assert len({1, QTR_ONE}) == 1
    assert len({Fraction(1, 2), half, Fraction(2, 4)}) == 1
    assert QtRational({(1, 0): 1}, 1) == Q and hash(QtRational({(1, 0): 1}, 1)) == hash(Q)
