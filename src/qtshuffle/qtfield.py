"""Exact arithmetic in Q(q,t), plus a Laurent layer in one auxiliary variable z.

Polynomials are sparse dicts mapping (q-exponent, t-exponent) to coefficients;
rationals are kept fully reduced with integer-coefficient numerator and
denominator so that equality is a structural comparison.  GCDs go through an
evaluation heuristic first (substitute integers, take an integer GCD, read the
candidate back off its digits, keep it only if it divides both inputs
exactly); recursive content/primitive-part reduction (polynomials in q over
Z[t]) is the fallback when the heuristic gives up.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd as _int_gcd

# ---------------------------------------------------------------------------
# integer polynomial kernels (raw dicts, no classes, hot path)
# ---------------------------------------------------------------------------

# A "tpoly" is a univariate integer polynomial in t: dict[exp] -> nonzero int.
# An "ipoly" is an integer polynomial in q,t: dict[(qe, te)] -> nonzero int.
# The heuristic GCD also uses univariate polynomials in q, keyed the same way.


def _i_add(a: dict, b: dict) -> dict:
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _i_neg(a: dict) -> dict:
    return {k: -v for k, v in a.items()}


def _i_mul(a: dict, b: dict) -> dict:
    if not a or not b:
        return {}
    if len(b) < len(a):
        a, b = b, a
    out: dict = {}
    for (qa, ta), ca in a.items():
        for (qb, tb), cb in b.items():
            k = (qa + qb, ta + tb)
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _T_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            k = ea + eb
            s = out.get(k, 0) + ca * cb
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _content(a: dict) -> int:
    """GCD of the coefficients of a nonempty term dict (any of the kinds above)."""
    g = 0
    for v in a.values():
        g = _int_gcd(g, v)
        if g == 1:
            return 1
    return g


def _sign_norm(a: dict) -> dict:
    """Flip sign so the coefficient at the largest key (lex, q then t) is positive."""
    if a and a[max(a)] < 0:
        return _i_neg(a)
    return a


def _T_prim(a: dict) -> dict:
    """Primitive part with positive leading coefficient."""
    if not a:
        return {}
    c = _content(a)
    if a[max(a)] < 0:
        c = -c
    if c == 1:
        return a
    return {e: v // c for e, v in a.items()}


def _T_divexact(a: dict, b: dict) -> dict:
    """Exact division in Z[t]; raises if not exact (internal invariant)."""
    if not a:
        return {}
    out: dict = {}
    rem = dict(a)
    db = max(b)
    lb = b[db]
    while rem:
        da = max(rem)
        if da < db:
            raise ArithmeticError("inexact t-poly division")
        ca, r = divmod(rem[da], lb)
        if r:
            raise ArithmeticError("inexact t-poly division")
        e = da - db
        out[e] = ca
        for eb, cb in b.items():
            k = eb + e
            s = rem.get(k, 0) - cb * ca
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return out


def _T_prem_reduce(a: dict, b: dict) -> dict:
    """Pseudo-remainder of a by b in Z[t], up to an integer factor."""
    db = max(b)
    lb = b[db]
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        # r <- lb*r - lr*t^(dr-db)*b
        nr: dict = {}
        for e, v in r.items():
            nr[e] = v * lb
        for e, v in b.items():
            k = e + dr - db
            s = nr.get(k, 0) - v * lr
            if s:
                nr[k] = s
            else:
                nr.pop(k, None)
        r = nr
    return r


def _T_gcd(a: dict, b: dict) -> dict:
    if not a:
        return _sign_norm(b)
    if not b:
        return _sign_norm(a)
    ca, cb = abs(_content(a)), abs(_content(b))
    g0 = _int_gcd(ca, cb)
    pa, pb = _T_prim(a), _T_prim(b)
    if max(pa) < max(pb):
        pa, pb = pb, pa
    while pb:
        r = _T_prem_reduce(pa, pb)
        pa, pb = pb, _T_prim(r)
    out = _T_prim(pa)
    if g0 != 1:
        out = {e: v * g0 for e, v in out.items()}
    return out


def _rec_q(a: dict) -> dict:
    """ipoly -> dict[q-exp] -> tpoly."""
    out: dict = {}
    for (qe, te), c in a.items():
        out.setdefault(qe, {})[te] = c
    return out


def _flat_q(f: dict) -> dict:
    out: dict = {}
    for qe, tp in f.items():
        for te, c in tp.items():
            out[(qe, te)] = c
    return out


def _Q_cont_prim(f: dict) -> tuple[dict, dict]:
    """Content (a tpoly) and primitive part of a poly in q over Z[t]."""
    cont: dict = {}
    for tp in f.values():
        cont = _T_gcd(cont, tp)
        if cont == {0: 1}:
            break
    if cont == {0: 1}:
        return cont, f
    return cont, {qe: _T_divexact(tp, cont) for qe, tp in f.items()}


def _Q_prem_reduce(a: dict, b: dict) -> dict:
    db = max(b)
    lb = b[db]
    r = {qe: dict(tp) for qe, tp in a.items()}
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        nr: dict = {}
        for qe, tp in r.items():
            nr[qe] = _T_mul(tp, lb)
        for qe, tp in b.items():
            k = qe + dr - db
            s = _i_t_sub(nr.get(k, {}), _T_mul(tp, lr))
            if s:
                nr[k] = s
            else:
                nr.pop(k, None)
        r = {qe: tp for qe, tp in nr.items() if tp}
    return r


def _i_t_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, v in b.items():
        s = out.get(e, 0) - v
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _balanced_digits(n: int, xi: int):
    """n in balanced base xi, least significant first."""
    digits = []
    while n:
        r = n % xi
        if 2 * r > xi:
            r -= xi
        digits.append(r)
        n = (n - r) // xi
    return digits


def _u_divides(c: dict, a: dict) -> bool:
    """Does c divide a in Z[q] (exact long division)?"""
    if not a:
        return True
    rem = dict(a)
    dc = max(c)
    lc = c[dc]
    while rem:
        da = max(rem)
        if da < dc:
            return False
        qc, r = divmod(rem[da], lc)
        if r:
            return False
        for e, v in c.items():
            k = e + da - dc
            s = rem.get(k, 0) - v * qc
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return True


def _heu_gcd_uni(a: dict, b: dict):
    """Heuristic GCD in Z[q] by integer evaluation; None on failure."""
    ca = abs(_content(a))
    cb = abs(_content(b))
    g0 = _int_gcd(ca, cb)
    a = {e: v // ca for e, v in a.items()}
    b = {e: v // cb for e, v in b.items()}
    na = max(abs(v) for v in a.values())
    nb = max(abs(v) for v in b.values())
    xi = 2 * min(na, nb) + 2
    for _ in range(6):
        ga = sum(v * xi**e for e, v in a.items())
        gb = sum(v * xi**e for e, v in b.items())
        g = _int_gcd(ga, gb)
        if g:
            cand = {e: d for e, d in enumerate(_balanced_digits(g, xi)) if d}
            if cand:
                cc = abs(_content(cand))
                cand = {e: v // cc for e, v in cand.items()}
                if _u_divides(cand, a) and _u_divides(cand, b):
                    return {e: v * g0 for e, v in cand.items()}
        xi = xi * 2731 // 1000 + 1
    return None


def _divides_bi(c: dict, a: dict) -> bool:
    try:
        _i_divexact(a, c)
        return True
    except ArithmeticError:
        return False


def _heu_gcd_bi(a: dict, b: dict):
    """Heuristic GCD in Z[q,t]: evaluate t, recurse in q, reconstruct digits."""
    ca, cb = abs(_content(a)), abs(_content(b))
    g0 = _int_gcd(ca, cb)
    a = {k: v // ca for k, v in a.items()}
    b = {k: v // cb for k, v in b.items()}
    na = max(abs(v) for v in a.values())
    nb = max(abs(v) for v in b.values())
    xi = 2 * min(na, nb) + 2
    for _ in range(6):
        a1: dict = {}
        for (qe, te), v in a.items():
            a1[qe] = a1.get(qe, 0) + v * xi**te
        b1: dict = {}
        for (qe, te), v in b.items():
            b1[qe] = b1.get(qe, 0) + v * xi**te
        a1 = {e: v for e, v in a1.items() if v}
        b1 = {e: v for e, v in b1.items() if v}
        if a1 and b1:
            g1 = _heu_gcd_uni(a1, b1)
            if g1 is not None:
                cand: dict = {}
                for qe, coef in g1.items():
                    for te, d in enumerate(_balanced_digits(coef, xi)):
                        if d:
                            cand[(qe, te)] = d
                if cand:
                    cc = abs(_content(cand))
                    if cc != 1:
                        cand = {k: v // cc for k, v in cand.items()}
                    if _divides_bi(cand, a) and _divides_bi(cand, b):
                        return _sign_norm({k: v * g0 for k, v in cand.items()})
        xi = xi * 2731 // 1000 + 1
    return None


def _monomial_gcd(mono: dict, other: dict) -> dict:
    ((qe, te),) = mono
    c = abs(mono[(qe, te)])
    mq, mt = qe, te
    g = 0
    for (oq, ot), v in other.items():
        mq, mt = min(mq, oq), min(mt, ot)
        g = _int_gcd(g, v)
        if g == 1 and mq == 0 and mt == 0:
            break
    return {(mq, mt): _int_gcd(c, g)}


def _i_gcd(a: dict, b: dict) -> dict:
    """GCD in Z[q,t], positive lex-leading coefficient, includes contents."""
    if not a:
        return _sign_norm(dict(b))
    if not b:
        return _sign_norm(dict(a))
    if a == b:
        return _sign_norm(dict(a))
    if len(a) == 1:
        return _monomial_gcd(a, b)
    if len(b) == 1:
        return _monomial_gcd(b, a)
    got = _heu_gcd_bi(a, b)
    if got is not None:
        return got
    fa, fb = _rec_q(a), _rec_q(b)
    ca, pa = _Q_cont_prim(fa)
    cb, pb = _Q_cont_prim(fb)
    gamma = _T_gcd(ca, cb)
    if max(pa) < max(pb):
        pa, pb = pb, pa
    while pb:
        r = _Q_prem_reduce(pa, pb)
        _, pb2 = _Q_cont_prim(r) if r else ({}, {})
        pa, pb = pb, pb2
    _, pa = _Q_cont_prim(pa)
    if gamma != {0: 1}:
        pa = {qe: _T_mul(tp, gamma) for qe, tp in pa.items()}
    return _sign_norm(_flat_q(pa))


def _i_divexact(a: dict, b: dict) -> dict:
    """Exact division in Z[q,t]; raises if not exact."""
    if not a:
        return {}
    if b == _IONE:
        return dict(a)
    fa, fb = _rec_q(a), _rec_q(b)
    db = max(fb)
    lb = fb[db]
    out: dict = {}
    while fa:
        da = max(fa)
        if da < db:
            raise ArithmeticError("inexact qt-poly division")
        cq = _T_divexact(fa[da], lb)
        e = da - db
        out[e] = cq
        for qe, tp in fb.items():
            k = qe + e
            s = _i_t_sub(fa.get(k, {}), _T_mul(tp, cq))
            if s:
                fa[k] = s
            else:
                fa.pop(k, None)
    return _flat_q(out)


_IONE = {(0, 0): 1}


def _i_scale_exponents(a: dict, k: int) -> dict:
    return {(qe * k, te * k): c for (qe, te), c in a.items()}


def _i_eval(a: dict, q0: Fraction, t0: Fraction) -> Fraction:
    total = Fraction(0)
    for (qe, te), c in a.items():
        total += c * q0**qe * t0**te
    return total


# ---------------------------------------------------------------------------
# QtRational
# ---------------------------------------------------------------------------


class QtRational:
    """Reduced fraction of integer-coefficient polynomials in q,t.

    Canonical form: numerator and denominator share no polynomial or integer
    factor and the denominator's lex-leading (q then t) coefficient is
    positive.  Equality and hashing are structural, except that a constant
    equals (and hashes like) the int or Fraction of the same value.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num=1, den=1):
        ni, di = _coerce_ipoly(num), _coerce_ipoly(den)
        if not di:
            raise ZeroDivisionError("QtRational with zero denominator")
        ni, di = _reduce(ni, di)
        object.__setattr__(self, "_num", ni)
        object.__setattr__(self, "_den", di)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("QtRational is immutable")

    @classmethod
    def _make(cls, num: dict, den: dict) -> "QtRational":
        """Trusted constructor: arguments must already be canonical."""
        self = object.__new__(cls)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        return self

    # -- predicates

    def is_zero(self) -> bool:
        return not self._num

    def is_polynomial(self) -> bool:
        return self._den == _IONE or (len(self._den) == 1 and (0, 0) in self._den)

    # -- arithmetic

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = qtr(other)
        if isinstance(other, QtRational):
            a, b, c, d = self._num, self._den, other._num, other._den
            if not a:
                return other
            if not c:
                return self
            if b == d:
                n = _i_add(a, c)
                if not n:
                    return QTR_ZERO
                g = _i_gcd(n, b)
                if g == _IONE:
                    return QtRational._make(n, dict(b))
                return QtRational._make(_i_divexact(n, g), _i_divexact(b, g))
            g1 = _i_gcd(b, d)
            if g1 == _IONE:
                n = _i_add(_i_mul(a, d), _i_mul(c, b))
                if not n:
                    return QTR_ZERO
                return QtRational._make(n, _i_mul(b, d))
            bp, dp = _i_divexact(b, g1), _i_divexact(d, g1)
            n = _i_add(_i_mul(a, dp), _i_mul(c, bp))
            if not n:
                return QTR_ZERO
            g2 = _i_gcd(n, g1)
            if g2 == _IONE:
                return QtRational._make(n, _i_mul(b, dp))
            return QtRational._make(_i_divexact(n, g2), _i_mul(_i_divexact(b, g2), dp))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QtRational._make(_i_neg(self._num), dict(self._den))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = qtr(other)
        if isinstance(other, QtRational):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return qtr(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = qtr(other)
        if isinstance(other, QtRational):
            a, b, c, d = self._num, self._den, other._num, other._den
            if not a or not c:
                return QTR_ZERO
            g1 = _i_gcd(a, d) if d != _IONE else _IONE
            g2 = _i_gcd(c, b) if b != _IONE else _IONE
            if g1 != _IONE:
                a, d = _i_divexact(a, g1), _i_divexact(d, g1)
            if g2 != _IONE:
                c, b = _i_divexact(c, g2), _i_divexact(b, g2)
            return QtRational._make(_i_mul(a, c), _i_mul(b, d))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = qtr(other)
        if isinstance(other, QtRational):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return qtr(other) * self.inverse()

    def inverse(self) -> "QtRational":
        if not self._num:
            raise ZeroDivisionError("inverse of zero")
        n, d = dict(self._den), dict(self._num)
        if d[max(d)] < 0:
            n, d = _i_neg(n), _i_neg(d)
        return QtRational._make(n, d)

    def __pow__(self, n: int) -> "QtRational":
        if n == 0:
            return QTR_ONE
        base = self if n > 0 else self.inverse()
        n = abs(n)
        result = QTR_ONE
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = qtr(other)
        if isinstance(other, QtRational):
            return self._num == other._num and self._den == other._den
        return NotImplemented

    def __hash__(self) -> int:
        num, den = self._num, self._den
        if num.keys() <= {(0, 0)} and den.keys() == {(0, 0)}:
            # a constant equals an int / Fraction, so it must hash like one
            return hash(Fraction(num.get((0, 0), 0), den[(0, 0)]))
        return hash((frozenset(num.items()), frozenset(den.items())))

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- substitutions

    def frobenius(self, k: int) -> "QtRational":
        """q -> q^k, t -> t^k in numerator and denominator."""
        if k == 1:
            return self
        if k < 1:
            raise ValueError("frobenius scale requires k >= 1")
        n = _i_scale_exponents(self._num, k)
        d = _i_scale_exponents(self._den, k)
        n, d = _reduce(n, d)
        return QtRational._make(n, d)

    def evaluate(self, q0, t0) -> Fraction:
        q0, t0 = Fraction(q0), Fraction(t0)
        dv = _i_eval(self._den, q0, t0)
        if dv == 0:
            raise ZeroDivisionError(f"pole: denominator vanishes at (q,t)=({q0},{t0})")
        return _i_eval(self._num, q0, t0) / dv

    # -- rendering

    def canonical(self) -> str:
        return _poly_canonical_str(self._num) + "|" + _poly_canonical_str(self._den)

    def display(self, style: str = "plain") -> str:
        return render_display(self, style)

    def __repr__(self) -> str:
        return f"QtRational({self.canonical()!r})"


def _coerce_ipoly(x) -> dict:
    """Coerce to an integer term dict (may carry a rational global factor)."""
    if isinstance(x, QtRational):
        if not x.is_polynomial():
            raise ValueError("cannot use a non-polynomial QtRational here")
        num = dict(x._num)
        d = x._den.get((0, 0), 1)
        return num if d == 1 else {k: Fraction(v, d) for k, v in num.items()}
    if isinstance(x, (int, Fraction)):
        return {(0, 0): x} if x else {}
    if isinstance(x, dict):
        for qe, te in x:
            if qe < 0 or te < 0:
                raise ValueError(f"q,t-exponents must be nonnegative, got {(qe, te)}")
        return {k: v for k, v in x.items() if v}
    raise TypeError(f"cannot coerce {type(x).__name__} to a q,t-polynomial")


def _reduce(ni: dict, di: dict) -> tuple[dict, dict]:
    """Full canonicalization of a numerator/denominator pair."""
    # clear rational coefficients to integers (same scalar on both sides)
    lcm = 1
    for v in list(ni.values()) + list(di.values()):
        if isinstance(v, Fraction):
            lcm = lcm * v.denominator // _int_gcd(lcm, v.denominator)
    if lcm != 1:
        ni = {k: int(v * lcm) for k, v in ni.items()}
        di = {k: int(v * lcm) for k, v in di.items()}
    else:
        ni = {k: int(v) for k, v in ni.items()}
        di = {k: int(v) for k, v in di.items()}
    if not ni:
        return {}, dict(_IONE)
    g = _i_gcd(ni, di)
    if g != _IONE:
        ni, di = _i_divexact(ni, g), _i_divexact(di, g)
    if di[max(di)] < 0:
        ni, di = _i_neg(ni), _i_neg(di)
    return ni, di


def qtr(x) -> QtRational:
    """Coerce an int or Fraction into a QtRational (a QtRational passes through)."""
    if isinstance(x, QtRational):
        return x
    if isinstance(x, int):
        return QtRational._make({(0, 0): x} if x else {}, dict(_IONE))
    if isinstance(x, Fraction):
        if not x:
            return QTR_ZERO
        return QtRational._make({(0, 0): x.numerator}, {(0, 0): x.denominator})
    raise TypeError(f"cannot coerce {type(x).__name__} to QtRational")


QTR_ZERO = QtRational._make({}, dict(_IONE))
QTR_ONE = QtRational._make(dict(_IONE), dict(_IONE))
Q = QtRational._make({(1, 0): 1}, dict(_IONE))
T = QtRational._make({(0, 1): 1}, dict(_IONE))


# ---------------------------------------------------------------------------
# q <-> t symmetry
# ---------------------------------------------------------------------------


def swap_qt(r: QtRational) -> QtRational:
    """Exchange the roles of q and t."""
    num = {(te, qe): c for (qe, te), c in r._num.items()}
    den = {(te, qe): c for (qe, te), c in r._den.items()}
    return QtRational(num, den)


# ---------------------------------------------------------------------------
# ZLaurent
# ---------------------------------------------------------------------------


class ZLaurent:
    """Finite Laurent polynomial in z with QtRational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean: dict[int, QtRational] = {}
        if terms:
            for e, c in terms.items():
                c = qtr(c) if not isinstance(c, QtRational) else c
                if not c.is_zero():
                    clean[int(e)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("ZLaurent is immutable")

    def __add__(self, other):
        other = _as_zlaurent(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, QTR_ZERO) + c
            if s.is_zero():
                out.pop(e, None)
            else:
                out[e] = s
        return ZLaurent(out)

    __radd__ = __add__

    def __neg__(self):
        return ZLaurent({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = _as_zlaurent(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_zlaurent(other) + (-self)

    def __mul__(self, other):
        other = _as_zlaurent(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = ea + eb
                s = out.get(e, QTR_ZERO) + ca * cb
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        return ZLaurent(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = _as_zlaurent(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def extract(self, a: int) -> QtRational:
        return self.terms.get(a, QTR_ZERO)

    def frobenius(self, k: int) -> "ZLaurent":
        """z -> z^k alongside q -> q^k, t -> t^k."""
        return ZLaurent({e * k: c.frobenius(k) for e, c in self.terms.items()})

    def constant_or_none(self) -> QtRational | None:
        """The value as a plain QtRational when no nonzero z-power is present."""
        if not self.terms:
            return QTR_ZERO
        if set(self.terms) == {0}:
            return self.terms[0]
        return None

    def __repr__(self) -> str:
        body = ", ".join(f"z^{e}: {c.canonical()}" for e, c in sorted(self.terms.items()))
        return f"ZLaurent({{{body}}})"


def _as_zlaurent(x) -> ZLaurent | None:
    if isinstance(x, ZLaurent):
        return x
    if isinstance(x, (int, Fraction, QtRational)):
        return ZLaurent({0: qtr(x) if not isinstance(x, QtRational) else x})
    return None


# ---------------------------------------------------------------------------
# canonical string format (cache files, reports) and display rendering
# ---------------------------------------------------------------------------


def _poly_canonical_str(ip: dict) -> str:
    if not ip:
        return "0"
    parts = []
    for (qe, te) in sorted(ip, key=lambda k: (-k[0], -k[1])):
        parts.append(f"{ip[(qe, te)]}*q^{qe}*t^{te}")
    return " + ".join(parts)


_TERM_RE = re.compile(r"^(-?\d+)\*q\^(\d+)\*t\^(\d+)$")


def _poly_parse(s: str) -> dict:
    s = s.strip()
    if s == "0":
        return {}
    out: dict = {}
    for piece in s.split(" + "):
        m = _TERM_RE.match(piece.strip())
        if not m:
            raise ValueError(f"bad polynomial term: {piece!r}")
        c, qe, te = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if c:
            out[(qe, te)] = c
    return out


def parse_rational(s: str) -> QtRational:
    """Inverse of QtRational.canonical(); round-trips bit-exactly."""
    if "|" not in s:
        raise ValueError("canonical rational must contain 'num|den'")
    ns, ds = s.split("|", 1)
    r = QtRational(_poly_parse(ns), _poly_parse(ds))
    if r.canonical() != s:
        raise ValueError("input was not in canonical form")
    return r


def _poly_display(ip: dict, style: str) -> str:
    """Human form, t-major ordering as in the paper's displays."""
    if not ip:
        return "0"
    keys = sorted(ip, key=lambda k: (-k[1], -k[0]))
    pieces = []
    for i, (qe, te) in enumerate(keys):
        c = ip[(qe, te)]
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        factors = []
        for name, e in (("t", te), ("q", qe)):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{{{e}}}" if style == "latex" else f"{name}^{e}")
        sep = "" if style == "latex" else "*"
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = sep.join(factors)
        else:
            body = str(mag) + sep + sep.join(factors)
        if i == 0:
            pieces.append(body if sign == "+" else "-" + body)
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


def render_display(r: QtRational, style: str = "plain") -> str:
    if r._den == _IONE:
        return _poly_display(r._num, style)
    if style == "latex":
        return r"\frac{%s}{%s}" % (_poly_display(r._num, style), _poly_display(r._den, style))
    return f"({_poly_display(r._num, style)})/({_poly_display(r._den, style)})"
