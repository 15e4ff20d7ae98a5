import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtshuffle import qtfield
from qtshuffle.qtfield import (
    Q,
    QTR_ONE,
    QTR_ZERO,
    QtRational,
    T,
    parse_rational,
    qtr,
    swap_qt,
)

M = (1 - T) * (1 - Q)
ONE = "1*q^0*t^0"  # canonical form of the polynomial 1


def num_den(r):
    """Numerator and denominator of r's canonical form, each as a polynomial QtRational."""
    num, den = r.canonical().split("|")
    return parse_rational(f"{num}|{ONE}"), parse_rational(f"{den}|{ONE}")


def test_normalize_common_factor():
    # (q^2 - qt) / q reduces to q - t
    r = QtRational({(2, 0): 1, (1, 1): -1}, {(1, 0): 1})
    assert r == Q - T
    assert r.canonical().split("|")[1] == ONE


def test_normalize_already_reduced():
    r = QtRational({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1}, {(0, 0): 1})
    assert r == M


def test_normalize_zero_numerator():
    r = QtRational({}, {(1, 0): 1, (0, 1): -1})
    assert r == QTR_ZERO
    assert r.canonical() == f"0|{ONE}"


def test_normalize_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        QtRational({(0, 0): 1}, {})


def test_normalize_idempotent():
    r = QtRational({(2, 0): 3, (1, 1): -3}, {(1, 0): 6})
    again = QtRational(*num_den(r))
    assert again == r
    assert again.canonical() == r.canonical() == "1*q^1*t^0 + -1*q^0*t^1|2*q^0*t^0"


def test_denominator_sign_canon():
    r = QtRational({(0, 0): 1}, {(1, 0): -1, (0, 1): 1})  # 1/(t - q)
    # canonical terms run lex-leading first, so the first denominator
    # coefficient is the one that must be positive
    assert r.canonical() == "-1*q^0*t^0|1*q^1*t^0 + -1*q^0*t^1"


def test_frobenius_examples():
    assert M.frobenius(2) == (1 - T**2) * (1 - Q**2)
    assert (Q / (Q - T)).frobenius(3) == Q**3 / (Q**3 - T**3)
    r = (1 + Q * T) / (2 - T)
    assert r.frobenius(1) == r


def test_frobenius_requires_positive_k():
    with pytest.raises(ValueError):
        Q.frobenius(0)


def test_eval_numeric_examples():
    assert M.evaluate(1, 1) == 0
    assert (1 + Q + T).evaluate(1, 1) == 3
    with pytest.raises(ZeroDivisionError, match="pole"):
        (Q / (Q - T)).evaluate(1, 1)
    assert (Q / (Q - T)).evaluate(2, Fraction(1, 2)) == Fraction(4, 3)


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
    for text in (
        "2*q^1*t^0|2*q^0*t^0",  # reducible pair
        "1*q^0*t^0 + 1*q^1*t^0|1*q^0*t^0",  # terms out of order
        "1*q^1*t^0 + 0*q^0*t^0|1*q^0*t^0",  # a zero term
        "1*q^1*t^0 + 1*q^1*t^0|1*q^0*t^0",  # a repeated term
    ):
        with pytest.raises(ValueError):
            parse_rational(text)


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


def test_qtrational_rejects_negative_exponents():
    for terms in ({(-1, 0): 1}, {(1, 1): 1, (0, -1): -2}):
        with pytest.raises(ValueError, match="nonnegative"):
            QtRational(terms)
        with pytest.raises(ValueError, match="nonnegative"):
            QtRational(1, terms)


# -- randomized laws --------------------------------------------------------

_coef = st.integers(min_value=-4, max_value=4)
_exp = st.integers(min_value=0, max_value=2)


# atoms (cyclotomic polynomials at monomials) that a denominator draws from
_DEN_ATOMS = [1 - Q, 1 - T, Q - T, 1 + Q, 1 + T, 1 - Q * T, Q**2 - T, 1 + Q + Q**2]


@st.composite
def rationals(draw, allow_zero=True):
    """A random numerator over an integer times a monomial times atoms.  Sums
    and products of these stay over atoms, and a * a.inverse() meets the
    non-atom part of a's numerator whole, so no law below reaches a pair that
    shares a non-atom factor only in part, which the kernel refuses."""
    nterms = draw(st.integers(min_value=0 if allow_zero else 1, max_value=3))
    num = {}
    for _ in range(nterms):
        num[(draw(_exp), draw(_exp))] = draw(_coef)
    den = draw(st.sampled_from([1, -1, 2, -3, 4])) * Q ** draw(_exp) * T ** draw(_exp)
    for atom in draw(st.lists(st.sampled_from(_DEN_ATOMS), max_size=2)):
        den = den * atom
    r = QtRational(num, den)
    if not allow_zero and r.is_zero():
        return QTR_ONE
    return r


def test_laurent_is_the_constructor_over_a_monomial():
    # any integer Laurent polynomial, as the constructor reduces it over q^4 t^2
    rng = random.Random(2601)
    for _ in range(300):
        p = {(rng.randint(-4, 3), rng.randint(-2, 3)): rng.randint(-3, 3) for _ in range(rng.randint(0, 5))}
        want = QtRational({(i + 4, j + 2): c for (i, j), c in p.items()}, {(4, 2): 1})
        got = qtfield.laurent(p)
        assert got == want and got.canonical() == want.canonical() and hash(got) == hash(want), p
    assert qtfield.laurent({(-2, 0): 3, (1, 0): -1}) == (3 - Q**3) / Q**2
    assert qtfield.laurent({(-1, -1): 1, (0, 0): 0}) == QTR_ONE / (Q * T)
    assert qtfield.laurent({(0, 0): 0}) == QTR_ZERO and qtfield.laurent({}).canonical() == QTR_ZERO.canonical()
    # a zero coefficient at a negative exponent does not shift the result
    got = qtfield.laurent({(-3, 0): 0, (1, 1): 2})
    assert got == 2 * Q * T and got.canonical() == (2 * Q * T).canonical()


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
@given(rationals(), rationals(allow_zero=False))
def test_normalize_cancels_common_factor(a, c):
    # QtRational(an*cn, ad*cn) == an/ad for any polynomial cn: its atoms cancel
    # on the atom path, and its non-atom part divides the numerator exactly
    (an, ad), (cn, _) = num_den(a), num_den(c)
    assert QtRational(an * cn, ad * cn) == a


@settings(max_examples=30, deadline=None)
@given(rationals(), rationals(), st.integers(min_value=1, max_value=3))
def test_frobenius_is_ring_hom(a, b, k):
    assert (a * b).frobenius(k) == a.frobenius(k) * b.frobenius(k)
    assert (a + b).frobenius(k) == a.frobenius(k) + b.frobenius(k)


def test_int_poly_is_the_integer_polynomial_or_none():
    assert qtfield.int_poly(Q * T - 3) == {(1, 1): 1, (0, 0): -3}
    half = qtr(Fraction(1, 2))
    assert qtfield.int_poly(half * Q) is None
    assert qtfield.int_poly(half * Q, 4) == {(1, 0): 2}
    assert qtfield.int_poly(qtr(6) * T, Fraction(1, 3)) == {(0, 1): 2}
    assert qtfield.int_poly(qtr(3) * T, Fraction(1, 2)) is None
    assert qtfield.int_poly(QTR_ONE / (1 - Q)) is None
    assert qtfield.int_poly(QTR_ONE / Q, 2) is None
    assert qtfield.int_poly(QTR_ZERO) == {}


@settings(max_examples=40, deadline=None)
@given(rationals(), rationals())
def test_kronecker_is_a_ring_hom_and_injective_within_its_slots(a, b):
    (an, _), (bn, _) = num_den(a), num_den(b)
    pa, pb = qtfield.int_poly(an), qtfield.int_poly(bn)
    size = max(map(abs, list(pa.values()) + list(pb.values()) + [0]))
    k = (size * size * (len(pa) + 1)).bit_length() + 1
    D = 2 * max([i for i, _ in list(pa) + list(pb)] + [0]) + 1

    def pack(x):
        return qtfield.kronecker(qtfield.int_poly(x), k, D)

    assert pack(an * bn) == pack(an) * pack(bn)
    assert pack(an + bn) == pack(an) + pack(bn)
    for x, y in ((an, bn), (an * bn, an + bn)):
        assert (pack(x) == pack(y)) == (x == y)


def test_kronecker_slots_collide_past_their_bounds():
    # q^D lands on t, and a coefficient of 2^k carries into the next slot
    assert qtfield.kronecker({(5, 0): 1}, 8, 5) == qtfield.kronecker({(0, 1): 1}, 8, 5)
    assert qtfield.kronecker({(0, 0): 2**8}, 8, 5) == qtfield.kronecker({(1, 0): 1}, 8, 5)
    assert qtfield.kronecker({(0, 0): -1, (1, 0): 1}, 8, 5) == 255


def test_unkronecker_inverts_kronecker_within_its_slots():
    rng = random.Random(20121)
    for _ in range(300):
        k, D = rng.randint(2, 12), rng.randint(1, 6)
        top = 2 ** (k - 1) - 1
        p = {}
        for _ in range(rng.randint(0, 8)):
            p[rng.randrange(D), rng.randint(0, 5)] = rng.choice((top, -top, rng.randint(-top, top)))
        p = {key: c for key, c in p.items() if c}
        assert qtfield.unkronecker(qtfield.kronecker(p, k, D), k, D) == p, (p, k, D)
    assert qtfield.unkronecker(0, 5, 3) == {}
    # extreme coefficients next to each other, and t-degree above 0
    for k in (2, 3, 8, 31):
        top = 2 ** (k - 1) - 1
        p = {(0, 0): top, (1, 0): -top, (0, 1): -top, (2, 3): top, (0, 4): 1}
        assert qtfield.unkronecker(qtfield.kronecker(p, k, 3), k, 3) == p
    # past the range the digits are the signed ones, not p
    assert qtfield.unkronecker(qtfield.kronecker({(0, 0): 2**7}, 8, 5), 8, 5) == {(0, 0): -(2**7), (1, 0): 1}
    assert qtfield.unkronecker(qtfield.kronecker({(5, 0): 1}, 8, 5), 8, 5) == {(0, 1): 1}


def test_unkronecker_skips_zero_slots_and_rows_only():
    # zero digits are jumped over, whole t-rows of them among them; every
    # nonzero slot is still read, wherever it sits in its row
    for k in (2, 5, 13):
        top = 2 ** (k - 1) - 1
        for D in (1, 2, 4, 7):
            # whole zero t-rows between nonzero ones, and between a row's two ends
            p = {(0, 0): top, (D - 1, 0): -1, (D - 1, 3): -top, (0, 7): 1}
            # a partial top row: only its lowest or only its highest slot is set
            for last in ((0, 9), (D - 1, 9)):
                q = {**p, last: -top - 1}  # the least digit, -2^(k-1)
                assert qtfield.unkronecker(qtfield.kronecker(q, k, D), k, D) == q, (k, D, last)
    # D = 1: one slot per row, each t-degree its own row
    p = {(0, 0): -3, (0, 1): 3, (0, 4): -1, (0, 5): 2}
    assert qtfield.unkronecker(qtfield.kronecker(p, 3, 1), 3, 1) == p
    # negative values, one digit or many, and x = 0 at every shape
    for k, D in ((2, 1), (3, 4), (9, 2)):
        assert qtfield.unkronecker(0, k, D) == {}
        assert qtfield.unkronecker(-1, k, D) == {(0, 0): -1}
        p = {(i % D, i // D): -(i % (2 ** (k - 1))) - 1 for i in range(0, 12, 3)}
        assert qtfield.unkronecker(qtfield.kronecker(p, k, D), k, D) == p, (k, D)


def test_hash_agrees_with_equality_for_constants():
    half = qtr(Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert QTR_ONE == 1 and hash(QTR_ONE) == hash(1)
    assert hash(QTR_ZERO) == hash(0)
    assert hash(qtr(-3)) == hash(-3)
    assert len({1, QTR_ONE}) == 1
    assert len({Fraction(1, 2), half, Fraction(2, 4)}) == 1
    assert QtRational({(1, 0): 1}, 1) == Q and hash(QtRational({(1, 0): 1}, 1)) == hash(Q)


# -- exact division against an independent oracle ---------------------------

_ipoly = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-5, 5), min_size=1, max_size=4
).map(lambda d: {k: v for k, v in d.items() if v}).filter(bool)


@settings(max_examples=100, deadline=None)
@given(_ipoly, _ipoly, _ipoly)
def test_exact_quotient_matches_sympy(a, b, g):
    """_i_quotient(x, y) is sympy's quotient when y divides x in Z[q,t], and
    None when it does not (most pairs of a, b and A = a*g)."""
    sympy = pytest.importorskip("sympy")
    q, t = sympy.symbols("q t")

    def exquo(x, y):
        """x / y when sympy's division over Q leaves no remainder and an integer quotient."""
        X, Y = (sympy.Poly.from_dict(dict(p), q, t, domain=sympy.QQ) for p in (x, y))  # from_dict converts in place
        quo, rem = X.div(Y)
        if rem.is_zero and all(c.is_integer for c in quo.coeffs()):
            return {m: int(c) for m, c in quo.terms() if c}
        return None

    A = qtfield._i_mul(a, g)
    assert qtfield._i_quotient(A, g) == exquo(A, g) == a
    for x, y in ((A, b), (b, A), (a, b), (b, a), (A, qtfield._i_mul(b, g))):
        assert qtfield._i_quotient(x, y) == exquo(x, y), (x, y)


def test_exact_quotient_refuses_a_non_multiple():
    assert qtfield._i_quotient({(2, 0): 1, (0, 0): 1}, {(1, 0): 1, (0, 0): 1}) is None  # q^2 + 1, q + 1
    assert qtfield._i_quotient({(1, 0): 2}, {(0, 0): 4}) is None  # 2q over 4: not in Z[q,t]
    assert qtfield._i_quotient({(0, 1): 1}, {(1, 0): 1}) is None  # t over q
    assert qtfield._i_quotient({(1, 1): 6, (0, 1): -3}, {(1, 0): 2, (0, 0): -1}) == {(0, 1): 3}


# -- a non-atom denominator factor: coprime, an exact divisor, or refused ---------


def test_a_non_atom_factor_is_settled_by_coprimality_or_exact_division():
    f = 1 + Q + T
    before = qtfield.GENERIC_REDUCTIONS
    assert num_den((Q**2 - T**2) / (Q * T + 3)) == (Q**2 - T**2, Q * T + 3)  # proven coprime
    assert (f * (Q + 2)) / f == Q + 2  # the factor divides the numerator
    assert (Q / f) * f == Q
    assert QtRational(f, f * (Q + 2)) == 1 / (Q + 2)  # the numerator divides the factor
    assert 1 / f + 1 / (f * (Q + 2)) == (Q + 3) / (f * (Q + 2))  # one factor divides the other
    assert qtfield.GENERIC_REDUCTIONS > before


def test_a_factor_shared_only_in_part_is_refused():
    f = 1 + Q + T
    for num, den in ((Q**2 + Q * T - T - 1, f * (1 + 2 * T)), (f * (Q + 2), f * f)):
        message = f"against the non-atom factor {den.canonical().split('|')[0]}:"
        with pytest.raises(ValueError, match=re.escape(message)):
            QtRational(num, den)
        with pytest.raises(ValueError, match=re.escape(message)):
            num / den
    # two factors that share only a part of themselves cannot be summed either
    g = f * (2 * Q + 1)
    with pytest.raises(ValueError, match=re.escape(f"against the non-atom factor {g.canonical().split('|')[0]}:")):
        1 / (f * (Q + 2)) + 1 / g


def test_the_degree6_coefficients_divide_each_other():
    # every pair of coefficients of the degree-6 table, the traffic of the
    # benchmark's kernel probe; 65 of the 103 divisors have a non-atom factor
    from qtshuffle.macdonald import build_htilde

    values = sorted(
        {QtRational(p) for row in build_htilde(6).kostka.values() for p in row.values()}, key=QtRational.canonical
    )
    assert len(values) == 103
    for y in values:
        for x in values:
            quot = x / y
            assert quot * y == x and (x * y) / y == x
            assert parse_rational(quot.canonical()) == quot


# -- the atom path against sympy ------------------------------------------------

# sympy's own field Q(q,t) (sparse polynomials over ZZ, reduced by its GCD) is
# the oracle; the repo's kernel builds no GCD on the atom path.


def _sympy_field():
    sympy = pytest.importorskip("sympy")
    return sympy.field("q,t", sympy.ZZ)[0]


def _sympy_canonical(v):
    """The repo's `num|den` string of a sympy field element."""
    import sympy

    num, den = v.numer, v.denom
    if not num:
        return "0|1*q^0*t^0"
    g = sympy.gcd(num.content(), den.content())
    num, den = num.quo_ground(g), den.quo_ground(g)
    if den.LC < 0:  # lex-leading, q before t
        num, den = -num, -den

    def text(p):
        terms = sorted(p.terms(), key=lambda mc: (-mc[0][0], -mc[0][1]))
        return " + ".join(f"{c}*q^{i}*t^{j}" for (i, j), c in terms)

    return f"{text(num)}|{text(den)}"


def _sympy_atom(K, d, a, b):
    """Phi_d(q^a t^b) times the power of t that clears a negative b."""
    import sympy

    coeffs = sympy.cyclotomic_poly(d, polys=True).all_coeffs()[::-1]
    shift = -b * (len(coeffs) - 1) if b < 0 else 0
    return K.ring.from_dict({(a * k, b * k + shift): int(c) for k, c in enumerate(coeffs) if c})


def _sympy_substitute(K, v, fn):
    """v with fn applied to every exponent pair of its numerator and denominator."""
    def image(p):
        return K(K.ring.from_dict({fn(i, j): c for (i, j), c in p.terms()}))

    return image(v.numer) / image(v.denom)


_atoms = st.tuples(
    st.integers(1, 6),
    st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (1, -1), (2, -1), (1, -2), (3, -2)]),
).map(lambda x: (x[0],) + x[1])
_small_poly = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3), min_size=1, max_size=3
).map(lambda d: {k: v for k, v in d.items() if v}).filter(bool)


@st.composite
def _atom_fractions(draw, K):
    """(num, den) sympy polynomials: den a product of atoms, a monomial and an
    integer; num shares some of den's atoms."""
    R = K.ring
    q, t = R.gens
    den = draw(st.integers(1, 4)) * q ** draw(st.integers(0, 2)) * t ** draw(st.integers(0, 1))
    atoms = draw(st.lists(_atoms, min_size=1, max_size=3))
    for key in atoms:
        den *= _sympy_atom(K, *key) ** draw(st.integers(1, 2))
    num = R.from_dict(draw(_small_poly)) * q ** draw(st.integers(0, 1))
    for key in draw(st.lists(st.sampled_from(atoms), max_size=2)):
        num *= _sympy_atom(K, *key)
    return num, den


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "sub", "mul", "div", "inverse", "frobenius", "swap"]),
        st.integers(0, 9),
        st.integers(0, 9),
        st.integers(2, 3),
    ),
    min_size=3,
    max_size=6,
)


def _check_against_sympy(pairs):
    for r, s in pairs:
        assert r.canonical() == _sympy_canonical(s)
        assert parse_rational(r.canonical()) == r


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_atom_path_matches_sympy(data):
    """Every result of + - * / inverse frobenius swap_qt on atom denominators
    has sympy's canonical bytes.  A division only by a value whose numerator
    is atoms too keeps every denominator atomic, so no reduction takes the
    non-atom route."""
    K = _sympy_field()
    before = qtfield.GENERIC_REDUCTIONS
    fracs = [data.draw(_atom_fractions(K)) for _ in range(3)]
    mine = [QtRational(dict(n.terms()), dict(d.terms())) for n, d in fracs]
    theirs = [K(n) / K(d) for n, d in fracs]
    for op, i, j, k in data.draw(_OPS):
        x, y = mine[i % len(mine)], mine[j % len(mine)]
        sx, sy = theirs[i % len(mine)], theirs[j % len(mine)]
        if op in ("div", "inverse"):
            divisor = y if op == "div" else x
            if divisor.is_zero() or divisor.inverse()._den[4] is not None:  # a non-atom numerator
                continue
        mine.append({
            "add": lambda: x + y, "sub": lambda: x - y, "mul": lambda: x * y,
            "div": lambda: x / y, "inverse": x.inverse,
            "frobenius": lambda: x.frobenius(k), "swap": lambda: swap_qt(x),
        }[op]())
        theirs.append({
            "add": lambda: sx + sy, "sub": lambda: sx - sy, "mul": lambda: sx * sy,
            "div": lambda: sx / sy, "inverse": lambda: 1 / sx,
            "frobenius": lambda: _sympy_substitute(K, sx, lambda a, b: (k * a, k * b)),
            "swap": lambda: _sympy_substitute(K, sx, lambda a, b: (b, a)),
        }[op]())
    _check_against_sympy(zip(mine, theirs))
    assert qtfield.GENERIC_REDUCTIONS == before


# irreducible polynomials that are no atom: each makes a denominator's rest
_NON_ATOMS = [  # 1 + q + t, 2q + 1, q^2 + 2t, qt + 3
    {(0, 0): 1, (1, 0): 1, (0, 1): 1}, {(1, 0): 2, (0, 0): 1}, {(2, 0): 1, (0, 1): 2}, {(1, 1): 1, (0, 0): 3},
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_NON_ATOMS), st.data())
def test_an_irreducible_non_atom_factor_matches_sympy(f, data):
    """Atom fractions x, y over an irreducible non-atom f: each sum, product,
    inverse and substitution below meets f only whole or not at all, so the
    non-atom route settles it, and the result has sympy's canonical bytes."""
    K = _sympy_field()
    (xn, xd), (yn, yd) = data.draw(_atom_fractions(K)), data.draw(_atom_fractions(K))
    x, y = (QtRational(dict(n.terms()), dict(d.terms())) for n, d in ((xn, xd), (yn, yd)))
    fq = QtRational(f)
    sx, sy, sf = K(xn) / K(xd), K(yn) / K(yd), K(K.ring.from_dict(f))
    before = qtfield.GENERIC_REDUCTIONS
    u, v, su, sv = x / fq, y / fq, sx / sf, sy / sf
    pairs = [
        (u, su), (u * fq, sx), ((x * fq) / fq, sx), (u + y, su + sy), (u * y, su * sy),
        (u + v, su + sv), (u - v, su - sv), (u * v, su * sv),
        (swap_qt(u), _sympy_substitute(K, su, lambda a, b: (b, a))),
        (u.frobenius(2), _sympy_substitute(K, su, lambda a, b: (2 * a, 2 * b))),
    ]
    if not x.is_zero():
        pairs.append((u.inverse(), 1 / su))
    _check_against_sympy(pairs)
    assert qtfield.GENERIC_REDUCTIONS > before


def test_a_vanishing_leading_coefficient_moves_the_coprimality_proof_to_a_second_point():
    # t = 1234577, the first point of the q direction, kills the leading
    # q-coefficient t - 1234577 of the denominator
    K = _sympy_field()
    q, t = K.gens
    before = qtfield.GENERIC_REDUCTIONS
    r = QtRational(Q + 2, Q * T - 1234577 * Q + 1)
    assert qtfield.GENERIC_REDUCTIONS > before
    _check_against_sympy([(r, (q + 2) / (q * t - 1234577 * q + 1))])


def test_registry_and_main_grid_take_no_generic_route():
    from qtshuffle.cli import build_cases

    before = qtfield.GENERIC_REDUCTIONS
    for suite, n_max in (("operators", 3), ("main-theorem", 4)):
        for case in build_cases(suite, n_max):
            assert case.run()[0], case.case_id
    assert qtfield.GENERIC_REDUCTIONS == before


def _row_quotient(n, key):
    """The atom quotient for d = 1 by the coefficient-list route: each row of
    the zero-curve split is divided by z - 1 through _u_div_monic."""
    d, a, b = key
    atom = qtfield._ATOMS[key]
    rows: dict = {}
    for (i, j), c in n.items():
        rows.setdefault(b * i - a * j, {})[atom.u * i + atom.v * j] = c
    out = {}
    for l, row in rows.items():
        k0 = min(row)
        coeffs = [0] * (max(row) - k0 + 1)
        for k, c in row.items():
            coeffs[k - k0] = c
        quo = qtfield._u_div_monic(coeffs, atom.cyc)
        if quo is None:
            return None
        for k, c in enumerate(quo, k0):
            if c:
                out[(atom.v * l + a * k, b * k - atom.u * l - atom.shift)] = c
    return out


def test_phi1_running_sum_matches_the_monic_division():
    """Dividing by a Phi_1 atom through running sums agrees with the
    coefficient-list division on products with the atom, sparse rows, and
    inputs the atom does not divide (directions with b < 0 included)."""
    rng = random.Random(16)
    directions = [(1, 0), (0, 1), (1, 1), (1, -1), (2, -1), (1, -2), (3, 2), (2, -3)]
    divided = refused = 0
    for trial in range(400):
        key = qtfield._atom(1, *rng.choice(directions))
        atom = qtfield._ATOMS[key]
        spread = 3 if trial % 2 else 12  # every other draw has sparse, far-apart terms
        g = {}
        for _ in range(rng.randint(1, 5)):
            g[rng.randint(0, spread), rng.randint(0, spread)] = rng.choice([-3, -2, -1, 1, 2, 3])
        n = qtfield._i_mul(g, atom.poly)
        if trial % 3 == 0:
            n = qtfield._i_mul(n, atom.poly)
        if trial % 4 == 1:  # perturbed: the atom no longer divides it
            n = qtfield._i_add(n, {(rng.randint(0, spread), rng.randint(0, spread)): 1})
        if not n:
            continue
        got = qtfield._atom_quotient(n, key)
        assert got == _row_quotient(n, key), (key, n)
        if got is None:
            refused += 1
        else:
            divided += 1
            assert qtfield._i_mul(got, atom.poly) == n
    assert divided > 100 and refused > 50
