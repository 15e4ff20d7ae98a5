"""Symmetric functions over Q(q,t) with plethysm on formal alphabets.

The internal canonical basis is the power-sum basis, where plethysm is
diagonal and both scalar products are diagonal; conversions to the
elementary, homogeneous, monomial and Schur bases go through per-degree
transition matrices (Schur via Murnaghan-Nakayama characters).  h -> p and
p -> h are products of Newton's identities, which write h_k in the p_i and p_k
in the h_i; nothing is inverted.  The elementary matrices follow from
e = omega h and the monomial ones from the Hall duality <h_lam, m_mu> = delta.
Every change of basis, skew_by_e1, nabla and the fundamental expansion are one
sparse linear map (linear_map), each with its own rows; the rows of the
fundamental expansion are the descent sets of standard tableaux, counted by
shapes.count_fillings.  omega_series is sum h_m[K] and plethysm_eval the
constant term of a plethysm, both through plethysm.

Coefficients are QtRational.  extract_z, [z^a] P[X + S/z] Omega[zK] by
degree, writes the creation operators plethystically: it is the tests'
reference for macdonald's Pieri-strip rows.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache

from .qtfield import QTR_ONE, QTR_ZERO, QtRational, qtr
from .shapes import Partition, count_fillings, partitions_of, zmu

BASES = ("power", "elementary", "homogeneous", "monomial", "schur")
_BASIS_ALIAS = {"p": "power", "e": "elementary", "h": "homogeneous", "m": "monomial", "s": "schur"}

_DEGREE_CAP = 12  # safety cap on symmetric-function degrees
_cache_lock = threading.Lock()


def check_degree(n: int) -> None:
    if n > _DEGREE_CAP:
        raise ValueError(f"degree {n} exceeds the configured cap {_DEGREE_CAP}")


# ---------------------------------------------------------------------------
# characters and transition matrices
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def character(lam: Partition, mu: Partition) -> int:
    """Irreducible symmetric group character chi^lam(mu), by rim-hook recursion."""
    if not mu:
        return 1 if not lam else 0
    r = mu[0]
    rest = mu[1:]
    k = len(lam)
    beta = [lam[j] + (k - 1 - j) for j in range(k)]
    bset = set(beta)
    total = 0
    for j, b in enumerate(beta):
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        crossed = sum(1 for x in beta if nb < x < b)
        newbeta = sorted((x for idx, x in enumerate(beta) if idx != j), reverse=True)
        newbeta.append(nb)
        newbeta.sort(reverse=True)
        newlam = tuple(x - (k - 1 - i) for i, x in enumerate(newbeta))
        newlam = tuple(p for p in newlam if p > 0)
        term = character(newlam, rest)
        total += -term if crossed % 2 else term
    return total


def _merge_part(lam: Partition, k: int) -> Partition:
    return tuple(sorted(lam + (k,), reverse=True))


@lru_cache(maxsize=None)
def _h_in_p(k: int) -> dict:
    """h_k on the power sums, by Newton's identity k h_k = sum_{i<=k} p_i h_{k-i}."""
    if k == 0:
        return {(): Fraction(1)}
    out: dict = {}
    for i in range(1, k + 1):
        for lam, c in _h_in_p(k - i).items():
            key = _merge_part(lam, i)
            out[key] = out.get(key, Fraction(0)) + Fraction(1, k) * c
    return {kk: v for kk, v in out.items() if v}


@lru_cache(maxsize=None)
def _p_in_h(k: int) -> dict:
    """p_k on the h basis, by Newton's identity p_k = k h_k - sum_{i<k} h_{k-i} p_i."""
    out: dict = {(k,): Fraction(k)}
    for i in range(1, k):
        for lam, c in _p_in_h(i).items():
            key = _merge_part(lam, k - i)
            out[key] = out.get(key, Fraction(0)) - c
    return {kk: v for kk, v in out.items() if v}


def _product(factors) -> dict:
    """Product of factors on a multiplicative basis (p or h): partitions merge."""
    out = {(): Fraction(1)}
    for f in factors:
        nxt: dict = {}
        for lam, c in out.items():
            for rho, d in f.items():
                key = tuple(sorted(lam + rho, reverse=True))
                nxt[key] = nxt.get(key, Fraction(0)) + c * d
        out = {k: v for k, v in nxt.items() if v}
    return out


def _omega_sign(lam: Partition) -> int:
    """omega p_lam = (-1)^(|lam| - len(lam)) p_lam."""
    return -1 if (sum(lam) - len(lam)) % 2 else 1


class _BasisData:
    """Per-degree transition matrices between the classical bases and power.

    h -> p and p -> h are products of Newton's identities.  e = omega h signs
    each power sum p_rho by (-1)^(|rho|-len(rho)); <h_lam, m_mu> = delta makes
    m -> p the transpose of p -> h over z_rho, and p -> m the transpose of
    h -> p times z_rho.
    """

    def __init__(self, n: int):
        parts = partitions_of(n)
        h_to_p = {lam: _product([_h_in_p(k) for k in lam]) for lam in parts}
        p_to_h = {rho: _product([_p_in_h(k) for k in rho]) for rho in parts}
        self.to_p = {
            "homogeneous": h_to_p,
            "elementary": {
                lam: {rho: v * _omega_sign(rho) for rho, v in row.items()}
                for lam, row in h_to_p.items()
            },
            "monomial": {
                lam: {rho: p_to_h[rho][lam] / zmu(rho) for rho in parts if lam in p_to_h[rho]}
                for lam in parts
            },
            "schur": {
                lam: {mu: Fraction(character(lam, mu), zmu(mu)) for mu in parts if character(lam, mu)}
                for lam in parts
            },
        }
        self.from_p = {
            "homogeneous": p_to_h,
            "elementary": {
                rho: {lam: v * _omega_sign(rho) for lam, v in row.items()}
                for rho, row in p_to_h.items()
            },
            "monomial": {
                rho: {mu: zmu(rho) * h_to_p[mu][rho] for mu in parts if rho in h_to_p[mu]}
                for rho in parts
            },
            "schur": {mu: {lam: Fraction(character(lam, mu)) for lam in parts if character(lam, mu)} for mu in parts},
        }


_basis_cache: dict[int, _BasisData] = {}


def _basis_data(n: int) -> _BasisData:
    data = _basis_cache.get(n)
    if data is None:
        check_degree(n)
        with _cache_lock:
            data = _basis_cache.get(n)
            if data is None:
                data = _BasisData(n)
                _basis_cache[n] = data
    return data


def linear_map(coeffs: dict, row) -> dict:
    """sum over lam of coeffs[lam] times row(lam), a sparse dict {key: coefficient}."""
    out: dict = {}
    for lam, c in coeffs.items():
        for key, f in row(lam).items():
            term = c * f
            cur = out.get(key)
            out[key] = term if cur is None else cur + term
    return out


# ---------------------------------------------------------------------------
# SymFunc
# ---------------------------------------------------------------------------


class SymFunc:
    """Graded symmetric function with QtRational coefficients."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: str, coeffs: dict):
        basis = _BASIS_ALIAS.get(basis, basis)
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        clean: dict[Partition, object] = {}
        for lam, c in coeffs.items():
            lam = tuple(int(p) for p in lam)
            if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)) or any(p < 1 for p in lam):
                raise ValueError(f"invalid partition key {lam}")
            c = qtr(c)
            if not c.is_zero():
                clean[lam] = c
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def _make(cls, basis: str, coeffs: dict) -> "SymFunc":
        """Trusted constructor: basis a name from BASES, keys partitions and
        values QtRational; only the zero coefficients are dropped."""
        self = object.__new__(cls)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "coeffs", {lam: c for lam, c in coeffs.items() if not c.is_zero()})
        return self

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("SymFunc is immutable")

    # -- constructors

    @staticmethod
    def zero() -> "SymFunc":
        return SymFunc("power", {})

    @staticmethod
    def one() -> "SymFunc":
        return SymFunc("power", {(): QTR_ONE})

    # -- structure

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({sum(lam) for lam in self.coeffs}))

    def max_degree(self) -> int:
        return max((sum(lam) for lam in self.coeffs), default=0)

    def homogeneous_component(self, d: int) -> "SymFunc":
        return SymFunc._make(self.basis, {lam: c for lam, c in self.coeffs.items() if sum(lam) == d})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_homogeneous(self) -> bool:
        return len({sum(lam) for lam in self.coeffs}) <= 1

    def map_coeffs(self, fn) -> "SymFunc":
        return SymFunc(self.basis, {lam: fn(c) for lam, c in self.coeffs.items()})

    # -- basis conversion

    def to_power(self) -> "SymFunc":
        if self.basis == "power":
            return self
        return SymFunc._make(
            "power", linear_map(self.coeffs, lambda lam: _basis_data(sum(lam)).to_p[self.basis][lam])
        )

    def convert(self, target: str) -> "SymFunc":
        target = _BASIS_ALIAS.get(target, target)
        if target not in BASES:
            raise ValueError(f"unknown basis {target!r}")
        if target == self.basis:
            return self
        f = self.to_power()
        if target == "power":
            return f
        return SymFunc._make(
            target, linear_map(f.coeffs, lambda lam: _basis_data(sum(lam)).from_p[target][lam])
        )

    # -- arithmetic

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        a, b = self, other
        if a.basis != b.basis:
            a, b = a.to_power(), b.to_power()
        out = dict(a.coeffs)
        for lam, c in b.coeffs.items():
            cur = out.get(lam)
            out[lam] = c if cur is None else cur + c
        return SymFunc._make(a.basis, out)

    def __neg__(self) -> "SymFunc":
        return SymFunc._make(self.basis, {lam: -c for lam, c in self.coeffs.items()})

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + (-other)

    def __mul__(self, other) -> "SymFunc":
        if isinstance(other, SymFunc):
            a, b = self.to_power(), other.to_power()
            out: dict = {}
            for lam, c in a.coeffs.items():
                for rho, d in b.coeffs.items():
                    key = tuple(sorted(lam + rho, reverse=True))
                    term = c * d
                    cur = out.get(key)
                    out[key] = term if cur is None else cur + term
            return SymFunc._make("power", out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "SymFunc":
        c = qtr(c)
        return SymFunc._make(self.basis, {lam: v * c for lam, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymFunc):
            return NotImplemented
        a, b = self.to_power(), other.to_power()
        if set(a.coeffs) != set(b.coeffs):
            return False
        return all(a.coeffs[k] == b.coeffs[k] for k in a.coeffs)

    def __hash__(self) -> int:
        f = self.to_power()
        return hash(frozenset(f.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "SymFunc(0)"
        body = ", ".join(f"{lam}: {c.canonical()!r}" for lam, c in sorted(self.coeffs.items()))
        return f"SymFunc[{self.basis}]({{{body}}})"


def p_(mu) -> SymFunc:
    return SymFunc("power", {tuple(sorted(mu, reverse=True)): QTR_ONE})


def e_(k: int) -> SymFunc:
    if k < 0:
        return SymFunc.zero()
    return SymFunc("elementary", {((k,) if k else ()): QTR_ONE})


def h_(k: int) -> SymFunc:
    if k < 0:
        return SymFunc.zero()
    return SymFunc("homogeneous", {((k,) if k else ()): QTR_ONE})


def s_(mu) -> SymFunc:
    return SymFunc("schur", {tuple(sorted(mu, reverse=True)): QTR_ONE})


# ---------------------------------------------------------------------------
# scalar products and omega
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def star_z(lam: Partition) -> QtRational:
    """<p_lam, p_lam>_*: (-1)^(|lam|-len(lam)) z_lam prod over parts k of (1-q^k)(1-t^k)."""
    w = QTR_ONE
    for part in lam:
        w = w * QtRational({(0, 0): 1, (0, part): -1}, 1) * QtRational({(0, 0): 1, (part, 0): -1}, 1)
    return w * (_omega_sign(lam) * zmu(lam))


def _diagonal_pairing(f: SymFunc, g: SymFunc, norm) -> QtRational:
    """sum over lam of [p_lam]f [p_lam]g norm(lam), for a pairing diagonal on power sums."""
    a, b = f.to_power(), g.to_power()
    small, big = (a.coeffs, b.coeffs) if len(a.coeffs) <= len(b.coeffs) else (b.coeffs, a.coeffs)
    total = QTR_ZERO
    for lam, c in small.items():
        d = big.get(lam)
        if d is not None:
            total = total + c * d * norm(lam)
    return total


def hall_inner(f: SymFunc, g: SymFunc):
    """Hall scalar product; diagonal on the power basis with weights z_mu."""
    return _diagonal_pairing(f, g, zmu)


def star_inner(f: SymFunc, g: SymFunc):
    """Deformed (star) scalar product."""
    return _diagonal_pairing(f, g, star_z)


def omega_involution(f: SymFunc) -> SymFunc:
    fp = f.to_power()
    out = {}
    for lam, c in fp.coeffs.items():
        out[lam] = c if _omega_sign(lam) == 1 else -c
    return SymFunc("power", out)


def skew_by_e1(f: SymFunc) -> SymFunc:
    """Hall-adjoint of multiplication by e_1 (d/dp_1 on the power basis)."""
    fp = f.to_power()
    # partitions are sorted decreasing, so the 1s sit at the end
    out = linear_map(fp.coeffs, lambda lam: {lam[:-1]: lam.count(1)} if lam[-1:] == (1,) else {})
    return SymFunc("power", out)


# ---------------------------------------------------------------------------
# plethystic alphabets
# ---------------------------------------------------------------------------


class Alphabet:
    """Formal plethystic argument: sum of X-terms and scalar terms.

    Each term is (is_x, value, eps) with value in Q(q,t); p_k sends an X-term
    to value(q^k,t^k)*p_k and a scalar term to value(q^k,t^k), with an extra
    (-1)^k when the term is eps-marked.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        object.__setattr__(self, "terms", tuple(terms))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Alphabet is immutable")

    @staticmethod
    def X(mult=1, eps: bool = False) -> "Alphabet":
        return Alphabet(((True, qtr(mult), eps),))

    @staticmethod
    def scalar(value, eps: bool = False) -> "Alphabet":
        return Alphabet(((False, qtr(value), eps),))

    def __add__(self, other: "Alphabet") -> "Alphabet":
        return Alphabet(self.terms + other.terms)

    def __neg__(self) -> "Alphabet":
        return Alphabet(tuple((x, -v, e) for x, v, e in self.terms))

    def __sub__(self, other: "Alphabet") -> "Alphabet":
        return self + (-other)

    def pk(self, k: int) -> tuple[QtRational, QtRational]:
        """(multiplier of p_k, scalar part) of p_k applied to this alphabet."""
        xm = sc = QTR_ZERO
        for is_x, value, eps in self.terms:
            v = value.frobenius(k)
            if eps and k % 2:
                v = -v
            if is_x:
                xm = xm + v
            else:
                sc = sc + v
        return xm, sc


def plethysm(f: SymFunc, A: Alphabet) -> SymFunc:
    """f[A]: substitute the alphabet into every power sum of f."""
    return _plethysm(f, A, None)


def _plethysm(f: SymFunc, A: Alphabet, cap: int | None) -> SymFunc:
    """f[A] without its terms of degree above cap (None keeps every term).

    A term's degree never falls as the parts of p_lam are substituted one by
    one, so a term above the cap is dropped as soon as it appears.  An X
    multiplier of 1 (shift alphabets X + S) leaves the term's value as it is.
    """
    fp = f.to_power()
    if not fp.coeffs:
        return SymFunc.zero()
    if cap is not None and cap >= fp.max_degree():
        cap = None  # no term of f[A] lies above it
    pk_cache: dict[int, tuple[QtRational, QtRational, bool]] = {}

    def pk(k: int):
        got = pk_cache.get(k)
        if got is None:
            xm, sc = A.pk(k)
            got = pk_cache[k] = (xm, sc, xm == QTR_ONE)
        return got

    out: dict = {}
    for lam, c in fp.coeffs.items():
        expanded: dict[Partition, QtRational] = {(): c}
        for part in lam:
            xm, sc, unit = pk(part)
            nxt: dict = {}
            for key, val in expanded.items():
                if not xm.is_zero() and (cap is None or sum(key) + part <= cap):
                    nk = tuple(sorted(key + (part,), reverse=True))
                    term = val if unit else val * xm
                    cur = nxt.get(nk)
                    nxt[nk] = term if cur is None else cur + term
                if not sc.is_zero():
                    term = val * sc
                    cur = nxt.get(key)
                    nxt[key] = term if cur is None else cur + term
            expanded = nxt
            if not expanded:
                break
        for key, val in expanded.items():
            cur = out.get(key)
            out[key] = val if cur is None else cur + val
    return SymFunc._make("power", out)


def plethysm_eval(f: SymFunc, value: QtRational) -> QtRational:
    """f[value] for a pure q,t-scalar alphabet; returns the scalar result."""
    return plethysm(f, Alphabet.scalar(value)).coeffs.get((), QTR_ZERO)


def extract_z(P: SymFunc, shift: Alphabet, kernel: Alphabet, a: int) -> SymFunc:
    """[z^a] P[X + S/z] Omega[z K], where shift = X + S and kernel = K is X-only.

    z is never formed: the degree-k part of P_d[X + S] carries z^(k-d) and
    the degree-m part of Omega[z K] = sum h_m[K] carries z^m, so z^a pairs
    each degree k of P_d[shift] with degree m = a + d - k of the kernel.
    Only the degrees k <= a + d of P_d[shift] pair with a kernel degree, so
    the plethysm drops the rest as it expands, and skips d when a + d < 0.
    """
    omega = omega_series(kernel, max(a + P.max_degree(), 0))
    out = SymFunc.zero()
    for d in P.degrees():
        if a + d < 0:
            continue
        shifted = _plethysm(P.homogeneous_component(d), shift, a + d)
        for k in shifted.degrees():
            out = out + shifted.homogeneous_component(k) * omega.homogeneous_component(a + d - k)
    return out


def omega_series(A: Alphabet, maxdeg: int) -> SymFunc:
    """sum over m <= maxdeg of h_m[A], for an alphabet A of X-terms only."""
    if maxdeg < 0:
        raise ValueError("maxdeg must be nonnegative")
    if not all(is_x for is_x, _, _ in A.terms):
        raise ValueError("omega_series takes an alphabet of X-terms only")
    check_degree(maxdeg)
    return _omega_series(A.terms, maxdeg)


@lru_cache(maxsize=None)
def _omega_series(terms: tuple, maxdeg: int) -> SymFunc:
    """omega_series, cached per kernel."""
    A = Alphabet(terms)
    out = SymFunc.zero()
    for m in range(maxdeg + 1):
        out = out + plethysm(h_(m), A)
    return out


# ---------------------------------------------------------------------------
# quasisymmetric bridge
# ---------------------------------------------------------------------------


class QSymFunc:
    """Degree-n quasisymmetric function in Gessel's fundamental basis."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: dict):
        clean: dict[frozenset, QtRational] = {}
        for S, c in coeffs.items():
            S = frozenset(int(i) for i in S)
            if any(i < 1 or i >= degree for i in S):
                raise ValueError(f"descent set {set(S)} out of range for degree {degree}")
            c = qtr(c)
            if not c.is_zero():
                clean[S] = c
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("QSymFunc is immutable")

    def __add__(self, other: "QSymFunc") -> "QSymFunc":
        if self.degree != other.degree:
            raise ValueError("cannot add quasisymmetric functions of different degrees")
        out = dict(self.coeffs)
        for S, c in other.coeffs.items():
            cur = out.get(S)
            out[S] = c if cur is None else cur + c
        return QSymFunc(self.degree, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSymFunc):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.degree, frozenset(self.coeffs.items())))

    def monomials(self, nvars: int) -> dict:
        """Expansion into monomials of x_1..x_nvars: dict[exponents] -> QtRational."""
        out: dict = {}
        for S, c in self.coeffs.items():
            for exps, mult in gessel_Q(S, self.degree, nvars).items():
                cur = out.get(exps, QTR_ZERO)
                val = cur + c * mult
                if val.is_zero():
                    out.pop(exps, None)
                else:
                    out[exps] = val
        return out

    def __repr__(self) -> str:
        body = ", ".join(
            f"{sorted(S)}: {c.canonical()}" for S, c in sorted(self.coeffs.items(), key=lambda x: sorted(x[0]))
        )
        return f"QSymFunc(deg={self.degree}, {{{body}}})"


@lru_cache(maxsize=None)
def _syt_descent_counts(lam: Partition) -> dict[frozenset, int]:
    """Multiset of descent sets over standard tableaux of shape lam (cached: read only).

    Each cell's left and lower neighbours hold smaller values.  Read row by
    row from the top, i + 1 precedes i exactly when it sits in a higher row,
    so the descent set is the iDes of that reading word.
    """
    order = [(col, row) for row in reversed(range(len(lam))) for col in range(lam[row])]
    at = {cell: k for k, cell in enumerate(order)}
    needs = [
        sum(1 << at[nb] for nb in ((col - 1, row), (col, row - 1)) if nb in at)
        for col, row in order
    ]
    counts: dict[frozenset, int] = {}
    for (des, _, _), c in count_fillings(range(sum(lam)), needs=needs).items():
        counts[des] = counts.get(des, 0) + c
    return dict(sorted(counts.items(), key=lambda x: sorted(x[0])))


def fundamental_expand(f: SymFunc) -> QSymFunc:
    """Expand a homogeneous symmetric function in the fundamental basis."""
    if f.is_zero():
        return QSymFunc(0, {})
    if not f.is_homogeneous():
        raise ValueError("fundamental expansion needs a homogeneous input")
    schur = f.convert("schur").coeffs
    return QSymFunc(f.max_degree(), linear_map(schur, _syt_descent_counts))


@lru_cache(maxsize=None)
def _gessel_words(S: frozenset, n: int, nvars: int) -> tuple[tuple[int, ...], ...]:
    words = []

    def extend(word):
        if len(word) == n:
            words.append(tuple(word))
            return
        pos = len(word)
        lo = 1 if pos == 0 else (word[-1] + 1 if pos in S else word[-1])
        for v in range(lo, nvars + 1):
            extend(word + [v])

    extend([])
    return tuple(words)


def gessel_Q(S, n: int, nvars: int) -> dict:
    """Monomial expansion of the fundamental quasisymmetric function.

    Returns dict[exponent tuple (length nvars)] -> int multiplicity.
    """
    S = frozenset(int(i) for i in S)
    if any(i < 1 or i >= n for i in S):
        raise ValueError(f"descent set {set(S)} out of range for degree {n}")
    out: dict = {}
    for word in _gessel_words(S, n, nvars):
        exps = [0] * nvars
        for v in word:
            exps[v - 1] += 1
        key = tuple(exps)
        out[key] = out.get(key, 0) + 1
    return out


def monomial_restriction(f: SymFunc, nvars: int) -> dict:
    """f as a polynomial in x_1..x_nvars: dict[exponents] -> QtRational."""
    fm = f.convert("monomial")
    out: dict = {}
    for lam, c in fm.coeffs.items():
        if len(lam) > nvars:
            continue
        for exps in _distinct_perms(lam, nvars):
            out[exps] = c
    return out


@lru_cache(maxsize=None)
def _distinct_perms(lam: Partition, nvars: int) -> tuple[tuple[int, ...], ...]:
    padded = list(lam) + [0] * (nvars - len(lam))
    seen = set()

    def perms(rest):
        if not rest:
            yield ()
            return
        used = set()
        for i, v in enumerate(rest):
            if v in used:
                continue
            used.add(v)
            for tail in perms(rest[:i] + rest[i + 1 :]):
                yield (v,) + tail

    for pm in perms(padded):
        seen.add(pm)
    return tuple(sorted(seen))
