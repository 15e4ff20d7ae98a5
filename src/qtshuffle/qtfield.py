"""Exact arithmetic in Q(q,t) and the canonical string format of its elements.

Polynomials are sparse dicts mapping (q-exponent, t-exponent) to coefficients.
A rational is kept fully reduced, so equality is a structural comparison: the
numerator as an expanded integer polynomial, the denominator factored as
c q^i t^j times a product of atom powers.  An atom is a cyclotomic polynomial
Phi_d at a primitive monomial q^a t^b (q - 1, t + 1, q - t, q^2 - t, ...);
the denominators of plethystic calculus (M, w_mu, Pi_mu, the star weights)
are all such products.  Atoms are irreducible, so no GCD is needed: a product
adds exponents, a sum takes the larger exponent of each atom, and reduction
tries each atom that could divide the numerator.  That trial is an evaluation
on the atom's zero curve (see _atom_quotient); the division runs only when
it succeeds.  A polynomial that becomes a denominator (a constructor argument,
an inverted numerator) is factored once, from the edges of its Newton
polygon, and cached.  A factor that is no product of atoms stays expanded as
the denominator's rest, and there is no polynomial GCD for it either: a
reduction against a rest is settled by a proof modulo a prime that the two
sides are coprime (_coprime) or by an exact division of one side by the
other (_i_quotient).  Two sides that share a factor only in part are refused
with a ValueError naming the factor.  GENERIC_REDUCTIONS counts these
reductions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd

# ---------------------------------------------------------------------------
# integer polynomial kernels (raw dicts, no classes, hot path)
# ---------------------------------------------------------------------------

# An "ipoly" is an integer polynomial in q,t: dict[(qe, te)] -> nonzero int.


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


def _content(a: dict) -> int:
    """GCD of the coefficients of a nonempty term dict."""
    g = 0
    for v in a.values():
        g = _int_gcd(g, v)
        if g == 1:
            return 1
    return g


def _i_quotient(a: dict, b: dict) -> dict | None:
    """a / b in Z[q,t] when b divides a exactly, else None.

    Long division on lex-leading (q then t) terms: the leading term of a
    product is the product of the leading terms, so while the remainder is a
    multiple of b its leading term is one of b's.  The leading term falls at
    every step, and lex order allows no infinite descent.
    """
    lead = max(b)
    (bq, bt), lb = lead, b[lead]
    rem, out = dict(a), {}
    while rem:
        top = max(rem)
        c, r = divmod(rem[top], lb)
        dq, dt = top[0] - bq, top[1] - bt
        if r or dq < 0 or dt < 0:
            return None
        out[dq, dt] = c
        for (i, j), v in b.items():
            k = (i + dq, j + dt)
            s = rem.get(k, 0) - c * v
            if s:
                rem[k] = s
            else:
                del rem[k]
    return out


_P = 2**31 - 1  # a prime


def _fp_image(a: dict, keep: int, x0: int) -> list:
    """a mod _P with the other variable set to x0: dense coefficients in the kept one."""
    out = [0] * (max(k[keep] for k in a) + 1)
    for k, c in a.items():
        out[k[keep]] += c * pow(x0, k[1 - keep], _P)
    return [c % _P for c in out]


def _fp_gcd_degree(f: list, g: list) -> int:
    """Degree of gcd(f, g) over Z/_P, both with nonzero leading coefficients."""
    while g:
        f, inv = list(f), pow(g[-1], _P - 2, _P)
        while len(f) >= len(g):
            c, shift = f[-1] * inv % _P, len(f) - len(g)
            for k, gc in enumerate(g):
                f[shift + k] = (f[shift + k] - c * gc) % _P
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) - 1


def _coprime(a: dict, b: dict) -> bool:
    """True only if a and b have no common factor of positive degree (False: unknown).

    A common factor G keeps its degree in q at t = t0 modulo _P when the
    leading q-coefficients of a and b survive there (G's divides theirs), so
    a constant GCD of the images at any such t0 bounds deg_q G by 0; likewise
    for t.  Each direction tries a second point when the first one fails.
    """
    for keep, points in ((0, (1234577, 7654337)), (1, (7654337, 1234577))):
        images = ((_fp_image(a, keep, x0), _fp_image(b, keep, x0)) for x0 in points)
        if not any(fa[-1] and fb[-1] and not _fp_gcd_degree(fa, fb) for fa, fb in images):
            return False
    return True


_IONE = {(0, 0): 1}


def _i_eval(a: dict, q0: Fraction, t0: Fraction) -> Fraction:
    total = Fraction(0)
    for (qe, te), c in a.items():
        total += c * q0**qe * t0**te
    return total


# ---------------------------------------------------------------------------
# cyclotomic atoms: the irreducible factors of every denominator
# ---------------------------------------------------------------------------

# An atom is Phi_d(q^a t^b) for a primitive direction (a, b) with a > 0, or
# (a, b) = (0, 1), times the power of t that clears a negative b; so q - 1,
# t + 1, q - t, q^2 - t and q^2 + qt + t^2 are atoms.  Each is keyed by
# (d, a, b).  Every atom is irreducible with content 1 and a positive
# lex-leading coefficient, and no two are associates.


def _u_div_monic(f: list, g: tuple):
    """Quotient of f by the monic g (coefficient lists, constant first), or None if inexact."""
    m = len(g) - 1
    r = list(f)
    quo = [0] * max(len(r) - m, 0)
    for k in range(len(r) - 1 - m, -1, -1):
        c = r[k + m]
        if c:
            quo[k] = c
            for idx, gc in enumerate(g):
                r[k + idx] -= c * gc
    return None if any(r[:m]) else quo


@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> tuple:
    """Coefficients of Phi_d, constant term first."""
    coeffs = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            coeffs = _u_div_monic(coeffs, _cyclotomic(e))
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _totient(d: int) -> int:
    out, n, p = d, d, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            out -= out // p
        p += 1
    return out - out // n if n > 1 else out


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(u, v) with a*u + b*v = 1, for coprime a, b of any sign."""
    r0, r1, u0, u1, v0, v1 = a, b, 1, 0, 0, 1
    while r1:
        k = r0 // r1
        r0, r1, u0, u1, v0, v1 = r1, r0 - k * r1, u1, u0 - k * u1, v1, v0 - k * v1
    return (u0, v0) if r0 == 1 else (-u0, -v0)


class _Atom:
    __slots__ = ("key", "cyc", "shift", "poly", "u", "v")

    def __init__(self, d: int, a: int, b: int):
        self.key = (d, a, b)
        self.cyc = _cyclotomic(d)
        self.shift = -b * (len(self.cyc) - 1) if b < 0 else 0
        self.poly = {(a * k, b * k + self.shift): c for k, c in enumerate(self.cyc) if c}
        self.u, self.v = _bezout(a, b)


_ATOMS: dict[tuple, _Atom] = {}


def _atom(d: int, a: int, b: int) -> tuple:
    """The key of the atom Phi_d(q^a t^b), (a, b) primitive; registered on first use."""
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    atom = _ATOMS.get((d, a, b))
    if atom is None:
        atom = _ATOMS.setdefault((d, a, b), _Atom(d, a, b))
    return atom.key


def _atom_quotient(n: dict, key: tuple) -> dict | None:
    """n divided by the atom, or None if the atom does not divide n.

    On the atom's zero curve q^a t^b = z (z a primitive d-th root of unity)
    put q = z^u s^-b, t = z^v s^a with a*u + b*v = 1.  The term q^i t^j
    becomes z^k s^-l with k = u i + v j and l = b i - a j, so n splits into
    one polynomial in z per l, and the atom divides n iff each of those
    vanishes at z, that is modulo Phi_d.  That evaluation comes first and
    stops at the first row that does not vanish; only then is each row
    divided by Phi_d, and (l, k) mapped back to (i, j) = (v l + a k, b k - u l).
    For d = 1 the quotient of a row by z - 1 is its negated running sum.
    """
    d, a, b = key
    atom = _ATOMS[key]
    u, v, cyc = atom.u, atom.v, atom.cyc
    acc: dict = {}
    if d == 1:  # z = 1
        for (i, j), c in n.items():
            l = b * i - a * j
            acc[l] = acc.get(l, 0) + c
        if any(acc.values()):
            return None
    else:  # slot l*d + (k mod d) holds the coefficient of z^(k mod d) in row l
        for (i, j), c in n.items():
            slot = (b * i - a * j) * d + (u * i + v * j) % d
            acc[slot] = acc.get(slot, 0) + c
        folded: dict = {}
        for slot, c in acc.items():
            if c:
                folded.setdefault(slot // d, [0] * d)[slot % d] = c
        if any(_u_div_monic(row, cyc) is None for row in folded.values()):
            return None
    rows: dict = {}
    for (i, j), c in n.items():
        rows.setdefault(b * i - a * j, {})[u * i + v * j] = c
    shift = atom.shift
    out = {}
    for l, row in rows.items():
        k0 = min(row)
        if d == 1:
            quo, run = [], 0
            for k in range(k0, max(row)):
                run -= row.get(k, 0)
                quo.append(run)
        else:
            coeffs = [0] * (max(row) - k0 + 1)
            for k, c in row.items():
                coeffs[k - k0] = c
            quo = _u_div_monic(coeffs, cyc)
        for k, c in enumerate(quo, k0):
            if c:
                out[(v * l + a * k, b * k - u * l - shift)] = c
    return out


def _edges(p: dict) -> dict:
    """{primitive direction: coefficients along the edge} over the edges of p's Newton polygon."""
    pts = sorted(p)
    hull: list = []
    for chain in (pts, pts[::-1]):  # Andrew's monotone chain
        h: list = []
        for x, y in chain:
            while len(h) >= 2 and (
                (h[-1][0] - h[-2][0]) * (y - h[-2][1]) - (h[-1][1] - h[-2][1]) * (x - h[-2][0]) <= 0
            ):
                h.pop()
            h.append((x, y))
        hull += h[:-1]
    out: dict = {}
    for k, (x0, y0) in enumerate(hull):
        x1, y1 = hull[k - 1]
        g = _int_gcd(x1 - x0, y1 - y0)
        dx, dy = (x1 - x0) // g, (y1 - y0) // g
        key = (dx, dy) if dx > 0 or (dx == 0 and dy > 0) else (-dx, -dy)
        if key not in out:
            out[key] = [p.get((x0 + s * dx, y0 + s * dy), 0) for s in range(g + 1)]
    return out


def _cyclotomic_divisors(coeffs: list) -> list:
    """Every d with Phi_d dividing the polynomial, repeated by multiplicity."""
    out = []
    deg = len(coeffs) - 1
    d = 1
    while deg and d <= 2 * deg * deg:  # phi(d) >= sqrt(d/2)
        if _totient(d) <= deg:
            while (quo := _u_div_monic(coeffs, _cyclotomic(d))) is not None:
                coeffs, deg = quo, deg - _totient(d)
                out.append(d)
        d += 1
    return out


# A denominator is the tuple (c, i, j, atoms, rest) for c q^i t^j times the
# product of atom^e over atoms = ((key, e), ...) sorted by key, times rest.
# rest is None, or the sorted items of a polynomial with no atom, monomial
# or integer factor, which only _generic_gcd reduces against.
_DONE = (1, 0, 0, (), None)


def _rest_key(p: dict):
    return None if len(p) == 1 else tuple(sorted(p.items()))


def _factor(p: dict) -> tuple:
    """(sign, den) with p = sign * den expanded."""
    if len(p) == 1:
        (((i, j), c),) = p.items()
        return (1 if c > 0 else -1), (abs(c), i, j, (), None)
    return _factor_items(frozenset(p.items()))


@lru_cache(maxsize=4096)
def _factor_items(items: frozenset) -> tuple:
    # every atom dividing p is a cyclotomic factor of the edge of p's Newton
    # polygon in the atom's direction, so the edges name all candidates
    p = dict(items)
    i = min(qe for qe, _ in p)
    j = min(te for _, te in p)
    sign = 1 if p[max(p)] > 0 else -1
    c = _content(p)
    p = {(qe - i, te - j): v // (sign * c) for (qe, te), v in p.items()}
    atoms: dict = {}
    for (a, b), coeffs in _edges(p).items():
        for d in _cyclotomic_divisors(coeffs):
            key = _atom(d, a, b)
            quo = _atom_quotient(p, key)
            if quo is not None:
                p = quo
                atoms[key] = atoms.get(key, 0) + 1
    return sign, (c, i, j, tuple(sorted(atoms.items())), _rest_key(p))


@lru_cache(maxsize=2048)
def _atoms_poly(atoms: tuple) -> dict:
    """The expanded product of atom powers; callers must not mutate it."""
    out = _IONE
    for key, e in atoms:
        for _ in range(e):
            out = _i_mul(out, _ATOMS[key].poly)
    return out


def _den_poly(den: tuple) -> dict:
    """The expanded denominator; callers must not mutate it."""
    c, i, j, atoms, rest = den
    out = _atoms_poly(atoms)
    if rest is not None:
        out = _i_mul(out, dict(rest))
    if c != 1 or i or j:
        out = {(qe + i, te + j): v * c for (qe, te), v in out.items()}
    return out


def _times(p: dict, atoms: list, k: int, di: int, dj: int) -> dict:
    """p * k q^di t^dj * (product of atoms)."""
    if k != 1 or di or dj:
        p = {(qe + di, te + dj): v * k for (qe, te), v in p.items()}
    return _i_mul(p, _atoms_poly(tuple(sorted(atoms)))) if atoms else p


def _cancel(n: dict, den: tuple, test: tuple | None = None) -> tuple[dict, tuple]:
    """Divide out of n every factor of den that divides it; return (n, den).

    test = (c, i, j, atoms, rest) names the factors worth trying (all of
    den's by default); a sum passes only those its two terms share, since no
    other factor can divide it.  A rest is tried through _generic_gcd.
    """
    c, qe, te, atoms, rest = den
    tc, tq, tt, tatoms, trest = den if test is None else test
    if tc != 1:
        g = _int_gcd(tc, _content(n))
        if g != 1:
            n = {k: v // g for k, v in n.items()}
            c //= g
    if tq or tt:
        sq, st = tq, tt
        for x, y in n:
            if x < sq:
                sq = x
            if y < st:
                st = y
        if sq or st:
            n = {(x - sq, y - st): v for (x, y), v in n.items()}
            qe, te = qe - sq, te - st
    if tatoms and len(n) > 1:
        left = None
        for key, e in tatoms:
            k = 0
            while k < e:
                quo = _atom_quotient(n, key)
                if quo is None:
                    break
                n, k = quo, k + 1
            if k:
                if left is None:
                    left = dict(atoms)
                if left[key] == k:
                    del left[key]
                else:
                    left[key] -= k
        if left is not None:
            atoms = tuple(sorted(left.items()))
    if trest is not None:
        h = _generic_gcd(n, dict(trest))
        if h != _IONE:
            n, rest = _i_quotient(n, h), _rest_key(_i_quotient(dict(rest), h))
    return n, (c, qe, te, atoms, rest)


def _den_mul(b: tuple, d: tuple) -> tuple:
    if d == _DONE:
        return b
    if b == _DONE:
        return d
    atoms = dict(b[3])
    for key, e in d[3]:
        atoms[key] = atoms.get(key, 0) + e
    rest = b[4] or d[4]
    if b[4] and d[4]:
        rest = _rest_key(_i_mul(dict(b[4]), dict(d[4])))
    return (b[0] * d[0], b[1] + d[1], b[2] + d[2], tuple(sorted(atoms.items())), rest)


GENERIC_REDUCTIONS = 0  # reductions against a non-atom denominator factor (a rest)


def _generic_gcd(a: dict, b: dict) -> dict:
    """gcd(a, b) for a rest b, counted: the content GCD when _coprime proves
    a and b coprime, else whichever of the two divides the other, with a
    positive lex-leading coefficient.  No other pair is reduced: ValueError."""
    global GENERIC_REDUCTIONS
    GENERIC_REDUCTIONS += 1
    if _coprime(a, b):
        return {(0, 0): _int_gcd(_content(a), _content(b))}
    for x, y in ((b, a), (a, b)):
        if _i_quotient(y, x) is not None:
            return x if x[max(x)] > 0 else _i_neg(x)
    raise ValueError(
        f"cannot reduce {_poly_canonical_str(a)} against the non-atom factor {_poly_canonical_str(b)}:"
        " they are not proven coprime and neither divides the other"
    )


def _reduce(n: dict, d: dict) -> "QtRational":
    """n/d in lowest terms: d is factored, then reduced like any sum or product."""
    if not n:
        return QTR_ZERO
    sign, den = _factor(d)
    return QtRational._make(*_cancel(n if sign > 0 else _i_neg(n), den))


def _apply(p: dict, m: tuple) -> dict:
    """p under the exponent map (i, j) -> (m0 i + m1 j, m2 i + m3 j)."""
    m0, m1, m2, m3 = m
    return {(m0 * i + m1 * j, m2 * i + m3 * j): c for (i, j), c in p.items()}


def _substitute(r: "QtRational", m: tuple) -> "QtRational":
    """r under q -> q^k, t -> t^k or the q <-> t swap, given as an exponent map.

    Both keep a reduced fraction reduced (a common factor of the images
    would vanish on a curve, the image of a curve under a finite map), so
    only the denominator is factored again.
    """
    sign, den = _factor(_apply(_den_poly(r._den), m))
    n = _apply(r._num, m)
    return QtRational._make(n if sign > 0 else _i_neg(n), den)


# ---------------------------------------------------------------------------
# QtRational
# ---------------------------------------------------------------------------


class QtRational:
    """Reduced fraction of integer-coefficient polynomials in q,t.

    Canonical form: numerator and denominator share no polynomial or integer
    factor and the denominator's lex-leading (q then t) coefficient is
    positive.  The numerator is an expanded term dict; the denominator is
    kept factored (see _DONE).  Equality and hashing are structural, except
    that a constant equals (and hashes like) the int or Fraction of the same
    value.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num=1, den=1):
        ni, di = _coerce_ipoly(num), _coerce_ipoly(den)
        if not di:
            raise ZeroDivisionError("QtRational with zero denominator")
        r = _reduce(*_clear_fractions(ni, di))
        object.__setattr__(self, "_num", r._num)
        object.__setattr__(self, "_den", r._den)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("QtRational is immutable")

    @classmethod
    def _make(cls, num: dict, den: tuple) -> "QtRational":
        """Trusted constructor: arguments must already be canonical."""
        self = object.__new__(cls)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)
        return self

    # -- predicates

    def is_zero(self) -> bool:
        return not self._num

    def is_polynomial(self) -> bool:
        return self._den[1:] == _DONE[1:]

    # -- arithmetic

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = qtr(other)
        if not isinstance(other, QtRational):
            return NotImplemented
        a, B, c, D = self._num, self._den, other._num, other._den
        if not a:
            return other
        if not c:
            return self
        if B == D:
            n = _i_add(a, c)
            return QtRational._make(*_cancel(n, B)) if n else QTR_ZERO
        # over the lcm L of the two denominators: n = a L/B + c L/D
        cB, iB, jB, AB, rB = B
        cD, iD, jD, AD, rD = D
        only_b = dict(AB)
        lcm = dict(only_b)
        up_a, up_c, shared = [], [], []
        for key, e in AD:
            f = only_b.pop(key, 0)
            if e > f:
                lcm[key] = e
                up_a.append((key, e - f))
            elif e < f:
                up_c.append((key, f - e))
            else:
                shared.append((key, e))
        up_c.extend(only_b.items())
        rest = common = None
        if rB or rD:  # the rests' lcm; only their common part can divide n
            rb, rd = dict(rB or _IONE), dict(rD or _IONE)
            if rB and rD:
                common = _generic_gcd(rb, rd)
                rb, rd = _i_quotient(rb, common), _i_quotient(rd, common)
            a, c = _i_mul(a, rd), _i_mul(c, rb)
            rest = _rest_key(_i_mul(_i_mul(common or _IONE, rb), rd))
        g = _int_gcd(cB, cD)
        cL, iL, jL = cB // g * cD, max(iB, iD), max(jB, jD)
        n = _i_add(
            _times(a, up_a, cL // cB, iL - iB, jL - jB),
            _times(c, up_c, cL // cD, iL - iD, jL - jD),
        )
        if not n:
            return QTR_ZERO
        den = (cL, iL, jL, tuple(sorted(lcm.items())), rest)
        test = (g, iL if iB == iD else 0, jL if jB == jD else 0, shared, _rest_key(common or _IONE))
        return QtRational._make(*_cancel(n, den, test))

    __radd__ = __add__

    def __neg__(self):
        return QtRational._make(_i_neg(self._num), self._den)

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
        if not isinstance(other, QtRational):
            return NotImplemented
        a, B, c, D = self._num, self._den, other._num, other._den
        if not a or not c:
            return QTR_ZERO
        if D != _DONE:
            a, D = _cancel(a, D)
        if B != _DONE:
            c, B = _cancel(c, B)
        return QtRational._make(_i_mul(a, c), _den_mul(B, D))

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
        sign, den = _factor(self._num)
        n = _den_poly(self._den)
        return QtRational._make(dict(n) if sign > 0 else _i_neg(n), den)

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
        if num.keys() <= {(0, 0)} and den[1:] == _DONE[1:]:
            # a constant equals an int / Fraction, so it must hash like one
            return hash(Fraction(num.get((0, 0), 0), den[0]))
        return hash((frozenset(num.items()), den))

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- substitutions

    def frobenius(self, k: int) -> "QtRational":
        """q -> q^k, t -> t^k in numerator and denominator."""
        if k == 1:
            return self
        if k < 1:
            raise ValueError("frobenius scale requires k >= 1")
        return _substitute(self, (k, 0, 0, k))

    def evaluate(self, q0, t0) -> Fraction:
        q0, t0 = Fraction(q0), Fraction(t0)
        dv = _i_eval(_den_poly(self._den), q0, t0)
        if dv == 0:
            raise ZeroDivisionError(f"pole: denominator vanishes at (q,t)=({q0},{t0})")
        return _i_eval(self._num, q0, t0) / dv

    # -- rendering

    def canonical(self) -> str:
        return _poly_canonical_str(self._num) + "|" + _poly_canonical_str(_den_poly(self._den))

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
        d = x._den[0]
        return num if d == 1 else {k: Fraction(v, d) for k, v in num.items()}
    if isinstance(x, (int, Fraction)):
        return {(0, 0): x} if x else {}
    if isinstance(x, dict):
        for qe, te in x:
            if qe < 0 or te < 0:
                raise ValueError(f"q,t-exponents must be nonnegative, got {(qe, te)}")
        return {k: v for k, v in x.items() if v}
    raise TypeError(f"cannot coerce {type(x).__name__} to a q,t-polynomial")


def _clear_fractions(ni: dict, di: dict) -> tuple[dict, dict]:
    """Scale both sides by one integer so every coefficient is an int."""
    lcm = 1
    for v in list(ni.values()) + list(di.values()):
        if isinstance(v, Fraction):
            lcm = lcm * v.denominator // _int_gcd(lcm, v.denominator)
    return {k: int(v * lcm) for k, v in ni.items()}, {k: int(v * lcm) for k, v in di.items()}


def qtr(x) -> QtRational:
    """Coerce an int or Fraction into a QtRational (a QtRational passes through)."""
    if isinstance(x, QtRational):
        return x
    if isinstance(x, int):
        return QtRational._make({(0, 0): x} if x else {}, _DONE)
    if isinstance(x, Fraction):
        if not x:
            return QTR_ZERO
        return QtRational._make({(0, 0): x.numerator}, (x.denominator, 0, 0, (), None))
    raise TypeError(f"cannot coerce {type(x).__name__} to QtRational")


QTR_ZERO = QtRational._make({}, _DONE)
QTR_ONE = QtRational._make(dict(_IONE), _DONE)
Q = QtRational._make({(1, 0): 1}, _DONE)
T = QtRational._make({(0, 1): 1}, _DONE)


# ---------------------------------------------------------------------------
# q <-> t symmetry
# ---------------------------------------------------------------------------


def swap_qt(r: QtRational) -> QtRational:
    """Exchange the roles of q and t."""
    return _substitute(r, (0, 1, 1, 0))


# ---------------------------------------------------------------------------
# integer polynomials as plain ints (exact batched checks)
# ---------------------------------------------------------------------------


def int_poly(r: QtRational, scale=1) -> dict | None:
    """scale * r as an integer polynomial {(q-exp, t-exp): int}, or None when
    it is not one; scale is an int or a Fraction."""
    if r._den[1:] != _DONE[1:]:
        return None
    if r._den[0] == 1 and scale == 1:
        return dict(r._num)
    s = Fraction(scale, r._den[0])
    out = {}
    for key, v in r._num.items():
        c, rem = divmod(v * s.numerator, s.denominator)
        if rem:
            return None
        out[key] = c
    return out


def laurent(p: dict) -> QtRational:
    """The integer Laurent polynomial p {(q-exp, t-exp): int}, exponents of
    either sign, as a QtRational: p q^a t^b over q^a t^b, with a and b the
    least shifts that make every exponent nonnegative.

    The fraction is already reduced: a monomial denominator has no factor but
    q and t, and q (or t) divides no shifted numerator whose denominator
    carries it, as its lowest q- (or t-) exponent is then 0.
    """
    num = {}
    a = b = 0  # the least exponents of the nonzero terms, capped at 0
    for key, c in p.items():
        if c:
            num[key] = c
            if key[0] < a:
                a = key[0]
            if key[1] < b:
                b = key[1]
    if a or b:
        num = {(i - a, j - b): c for (i, j), c in num.items()}
    return QtRational._make(num, (1, -a, -b, (), None))


def kronecker(p: dict, k: int, D: int) -> int:
    """The integer polynomial p at q = 2^k, t = 2^(kD).

    A ring homomorphism Z[q,t] -> Z, injective on the polynomials of q-degree
    below D whose coefficients are below 2^(k-1) in absolute value: term
    q^i t^j lands in slot i + D j, and the difference of two such polynomials
    has coefficients below 2^k, so its lowest nonzero term c 2^(ke) fixes the
    value modulo 2^(k(e+1)) to a nonzero residue.
    """
    return sum(c << k * (i + D * j) for (i, j), c in p.items())


def unkronecker(x: int, k: int, D: int) -> dict:
    """The integer polynomial p with kronecker(p, k, D) == x whose coefficients
    lie in [-2^(k-1), 2^(k-1)) and whose q-degree is below D: x in signed
    k-bit digits, slot s read as q^(s mod D) t^(s div D).

    For k >= 2 every x has exactly one such p, so unkronecker inverts
    kronecker on the range where kronecker is injective (coefficients below
    2^(k-1) in absolute value, q-degree below D).
    """
    half = 1 << (k - 1)
    slots = abs(x).bit_length() // k + 2  # |x| < 2^(k (slots - 1))
    # adding half to every digit makes each one a plain k-bit field
    digits = format(x + half * (((1 << k * slots) - 1) // ((1 << k) - 1)), "b").zfill(k * slots)
    zero = format(half, "b")  # the field of a zero coefficient
    out = {}
    for s in range(slots):
        field = digits[len(digits) - k * (s + 1) : len(digits) - k * s]
        if field != zero:
            j, i = divmod(s, D)
            out[i, j] = int(field, 2) - half
    return out


# ---------------------------------------------------------------------------
# canonical string format (cache files, reports) and display rendering
# ---------------------------------------------------------------------------


def _poly_canonical_str(ip: dict) -> str:
    """Terms by q-exponent, then t-exponent, both descending."""
    if not ip:
        return "0"
    return " + ".join([f"{ip[qe, te]}*q^{qe}*t^{te}" for qe, te in sorted(ip, reverse=True)])


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
    if r._den == _DONE:
        return _poly_display(r._num, style)
    den = _poly_display(_den_poly(r._den), style)
    if style == "latex":
        return r"\frac{%s}{%s}" % (_poly_display(r._num, style), den)
    return f"({_poly_display(r._num, style)})/({den})"
