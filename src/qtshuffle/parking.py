"""Parking functions as validated two-line arrays, their q,t statistics,
enumeration by diagonal composition, the triple-shuffle filter and the
inverse-descent index that answers it for every (a, b, c), the
section-cycling bijection with its sieve bookkeeping, and the 5-step
lattice path conversion.

The index (_ides_index) counts (iDes, dinv, area) straight from the car
fillings of each diagonal vector, whose area, reading order and dinv pairs
it finds once; it builds no ParkingFunction.  enumerate_by_comp,
enumerate_family and _compute_stats stay the independent per-object route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .qtfield import QTR_ONE, QTR_ZERO, QtRational
from .shapes import Composition, recursion_rhs

__all__ = [
    "InvalidParkingFunction",
    "ParkingFunction",
    "PFStats",
    "FiveStepPath",
    "validate_pf",
    "stats",
    "enumerate_by_comp",
    "is_triple_shuffle",
    "pi_poly",
    "rhs_quasisym",
    "phi_map",
    "phi_inverse",
    "m1_split",
    "sieve_expand",
    "pf_to_path",
    "verify_recursion",
    "parse_pf",
]


class InvalidParkingFunction(ValueError):
    """Raised on a malformed two-line array; .code names the violation."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class PFStats:
    area: int
    dinv: int
    sigma: tuple[int, ...]
    ides: frozenset
    dcomp: Composition


class ParkingFunction:
    """Two-line array: cars (a permutation) over their diagonal numbers."""

    __slots__ = ("cars", "diags", "_stats")

    def __init__(self, cars, diags, _validated: bool = False):
        cars = tuple(int(v) for v in cars)
        diags = tuple(int(u) for u in diags)
        if not _validated:
            _check_two_line(cars, diags)
        object.__setattr__(self, "cars", cars)
        object.__setattr__(self, "diags", diags)
        object.__setattr__(self, "_stats", None)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("ParkingFunction is immutable")

    def __len__(self) -> int:
        return len(self.cars)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ParkingFunction)
            and self.cars == other.cars
            and self.diags == other.diags
        )

    def __hash__(self) -> int:
        return hash((self.cars, self.diags))

    def __repr__(self) -> str:
        return f"ParkingFunction({self.text()!r})"

    def text(self) -> str:
        return (
            "cars=" + ",".join(str(v) for v in self.cars)
            + "; diags=" + ",".join(str(u) for u in self.diags)
        )

    @property
    def stats(self) -> PFStats:
        st = self._stats
        if st is None:
            st = _compute_stats(self.cars, self.diags)
            object.__setattr__(self, "_stats", st)
        return st

    def weight(self) -> QtRational:
        st = self.stats
        return QtRational({(st.dinv, st.area): 1}, 1)


def _check_two_line(cars, diags) -> None:
    n = len(cars)
    if len(diags) != n:
        raise InvalidParkingFunction("length", "cars and diags must have equal length")
    if sorted(cars) != list(range(1, n + 1)):
        raise InvalidParkingFunction("cars", f"cars must be a permutation of 1..{n}: {cars}")
    if n == 0:
        return
    if diags[0] != 0:
        raise InvalidParkingFunction("diag-start", "the first diagonal number must be 0")
    for i in range(1, n):
        if diags[i] < 0 or diags[i] > diags[i - 1] + 1:
            raise InvalidParkingFunction(
                "diag-jump", f"diagonal {diags[i]} at position {i + 1} jumps from {diags[i - 1]}"
            )
        if diags[i] == diags[i - 1] + 1 and cars[i] <= cars[i - 1]:
            raise InvalidParkingFunction(
                "rise-order",
                f"car {cars[i]} stacked above {cars[i - 1]} must be larger",
            )


def validate_pf(cars, diags) -> ParkingFunction:
    """Validated two-line array; raises InvalidParkingFunction otherwise."""
    return ParkingFunction(cars, diags)


def parse_pf(text: str) -> ParkingFunction:
    """Parse 'cars=4,6,8; diags=0,1,1' text form."""
    try:
        cars_part, diags_part = (p.strip() for p in text.split(";"))
        cars = [int(x) for x in cars_part.split("=", 1)[1].split(",") if x.strip()]
        diags = [int(x) for x in diags_part.split("=", 1)[1].split(",") if x.strip()]
    except (ValueError, IndexError) as err:
        raise InvalidParkingFunction("format", f"cannot parse {text!r}") from err
    return validate_pf(cars, diags)


def _compute_stats(cars, diags) -> PFStats:
    n = len(cars)
    area = sum(diags)
    dinv = 0
    for i in range(n):
        for j in range(i + 1, n):
            if diags[i] == diags[j] and cars[i] < cars[j]:
                dinv += 1
            elif diags[i] == diags[j] + 1 and cars[i] > cars[j]:
                dinv += 1
    sigma = []
    for d in range(max(diags, default=0), -1, -1):
        for i in range(n - 1, -1, -1):
            if diags[i] == d:
                sigma.append(cars[i])
    pos = {v: i for i, v in enumerate(sigma)}
    ides = frozenset(i for i in range(1, n) if pos[i] > pos[i + 1])
    zeros = [i for i in range(n) if diags[i] == 0]
    dcomp = tuple(
        (zeros[k + 1] if k + 1 < len(zeros) else n) - zeros[k] for k in range(len(zeros))
    )
    return PFStats(area, dinv, tuple(sigma), ides, dcomp)


def stats(pf: ParkingFunction) -> PFStats:
    return pf.stats


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _section_diag_runs(length: int) -> tuple[tuple[int, ...], ...]:
    """Diagonal runs of one section: 0,1,... with steps <= +1, entries >= 1."""
    if length == 1:
        return ((0,),)
    runs = []

    def extend(run):
        if len(run) == length:
            runs.append(tuple(run))
            return
        last = run[-1]
        for nxt in range(1, last + 2):
            extend(run + [nxt])

    extend([0, 1])
    return tuple(runs)


def _diag_vectors(alpha: Composition):
    """All diagonal vectors with zeros exactly at the section starts, lex order."""

    def combine(i):
        if i == len(alpha):
            yield ()
            return
        for head in _section_diag_runs(alpha[i]):
            for tail in combine(i + 1):
                yield head + tail

    yield from sorted(combine(0))


def _fill_cars(diags):
    """All car assignments satisfying the rise condition, in lex order."""
    n = len(diags)
    used = [False] * (n + 1)
    cars = [0] * n

    def place(i):
        if i == n:
            yield tuple(cars)
            return
        lo = cars[i - 1] + 1 if i > 0 and diags[i] == diags[i - 1] + 1 else 1
        for v in range(lo, n + 1):
            if not used[v]:
                used[v] = True
                cars[i] = v
                yield from place(i + 1)
                used[v] = False

    yield from place(0)


def enumerate_by_comp(alpha: Composition):
    """All parking functions with the given diagonal composition, lex on (u, v)."""
    alpha = tuple(alpha)
    if any(p < 1 for p in alpha):
        raise ValueError(f"composition parts must be >= 1: {alpha}")
    for diags in _diag_vectors(alpha):
        for cars in _fill_cars(diags):
            yield ParkingFunction(cars, diags, _validated=True)


def is_triple_shuffle(sigma, a: int, b: int, c: int) -> bool:
    """Word filter: 1..a reversed, a+1..a+b increasing, a+b+1..n increasing."""
    n = len(sigma)
    if a + b + c != n:
        raise ValueError(f"(a,b,c)={(a, b, c)} must sum to the word length {n}")
    if min(a, b, c) < 0:
        return False
    last_small = n + 1
    last_mid = 0
    last_big = 0
    for v in sigma:
        if v <= a:
            if v >= last_small:
                return False
            last_small = v
        elif v <= a + b:
            if v <= last_mid:
                return False
            last_mid = v
        else:
            if v <= last_big:
                return False
            last_big = v
    return True


def enumerate_family(alpha: Composition, a: int, b: int, c: int):
    """The shuffle-filtered family with diagonal composition alpha."""
    if a + b + c != sum(alpha):
        raise ValueError(f"(a,b,c)={(a, b, c)} must sum to |alpha|={sum(alpha)}")
    if min(a, b, c) < 0:
        return
    for pf in enumerate_by_comp(alpha):
        if is_triple_shuffle(pf.stats.sigma, a, b, c):
            yield pf


def _filling_counts(diags: tuple[int, ...]) -> dict:
    """{(iDes bitmask, dinv): count} over the car fillings of one diagonal vector.

    The reading ranks and the position pairs that can add dinv depend on the
    diagonals alone, so they are found once; the fillings are then placed
    left to right as in _fill_cars, each placement adding its dinv pairs with
    the cars before it and its inverse descents with the car values next to
    it that are already placed (bit i: i + 1 is read before i).
    """
    n = len(diags)
    rank = [0] * n  # the reading order of _compute_stats: top diagonal first, each right to left
    for k, i in enumerate(sorted(range(n), key=lambda j: (-diags[j], -j))):
        rank[i] = k
    same = [[i for i in range(j) if diags[i] == diags[j]] for j in range(n)]
    above = [[i for i in range(j) if diags[i] == diags[j] + 1] for j in range(n)]
    cars = [0] * n
    read = [-1] * (n + 2)  # car value -> reading rank, -1 while unplaced
    counts: dict = {}

    def place(j: int, mask: int, dinv: int) -> None:
        if j == n:
            counts[mask, dinv] = counts.get((mask, dinv), 0) + 1
            return
        r = rank[j]
        lo = cars[j - 1] + 1 if j and diags[j] == diags[j - 1] + 1 else 1
        for v in range(lo, n + 1):
            if read[v] >= 0:
                continue
            d = dinv
            for i in same[j]:
                d += cars[i] < v
            for i in above[j]:
                d += cars[i] > v
            m = mask
            if read[v - 1] > r:
                m |= 1 << (v - 1)
            if 0 <= read[v + 1] < r:
                m |= 1 << v
            cars[j], read[v] = v, r
            place(j + 1, m, d)
            read[v] = -1

    place(0, 0, 0)
    return counts


@lru_cache(maxsize=None)
def _ides_index(alpha: Composition) -> dict:
    """{ides: {(dinv, area): count}} over the class, built in one pass; read-only.

    The triple-shuffle filter sees a reading word only through its inverse
    descent set, so this index answers every (a, b, c) and the fundamental
    expansion without enumerating the class again.  It is counted per
    diagonal vector (_filling_counts) and builds no ParkingFunction;
    enumerate_by_comp with _compute_stats stays the independent route.
    """
    if any(p < 1 for p in alpha):
        raise ValueError(f"composition parts must be >= 1: {alpha}")
    index: dict = {}
    for diags in _diag_vectors(alpha):
        area = sum(diags)
        for (mask, dinv), count in _filling_counts(diags).items():
            bucket = index.setdefault(frozenset(i for i in range(len(diags)) if mask >> i & 1), {})
            bucket[dinv, area] = bucket.get((dinv, area), 0) + count
    return index


def _ides_fits(ides: frozenset, a: int, b: int) -> bool:
    """is_triple_shuffle(sigma, a, b, c), read off ides = iDes(sigma).

    Small values 1..a appear in decreasing order, so each i < a is an
    inverse descent; middle and big values appear increasing, so none of
    a+1..a+b-1 or a+b+1..n-1 is one.  The boundaries a and a+b are free.
    """
    return all(i in ides for i in range(1, a)) and all(i <= a or i == a + b for i in ides)


def pi_poly(alpha: Composition, a: int, b: int, c: int) -> QtRational:
    """Sum of t^area q^dinv over the shuffle-filtered family."""
    alpha = tuple(alpha)
    if a + b + c != sum(alpha):
        raise ValueError(f"(a,b,c)={(a, b, c)} must sum to |alpha|={sum(alpha)}")
    if min(a, b, c) < 0:
        return QTR_ZERO
    if not alpha:
        return QTR_ONE
    terms: dict = {}
    for ides, bucket in _ides_index(alpha).items():
        if _ides_fits(ides, a, b):
            for key, count in bucket.items():
                terms[key] = terms.get(key, 0) + count
    return QtRational(terms, 1) if terms else QTR_ZERO


def rhs_quasisym(p: Composition):
    """Fundamental-basis weight sum over a diagonal-composition class."""
    from .symfunc import QSymFunc

    p = tuple(p)
    return QSymFunc(sum(p), {
        ides: QtRational(bucket, 1) for ides, bucket in _ides_index(p).items()
    })


# ---------------------------------------------------------------------------
# the section-cycling bijection (first part > 1)
# ---------------------------------------------------------------------------


def _relabel(values, removed) -> dict:
    """Order-preserving map of the remaining car values onto 1..n'."""
    alive = sorted(v for v in values if v not in removed)
    return {v: i + 1 for i, v in enumerate(alive)}


def phi_map(pf: ParkingFunction, a: int, b: int, c: int) -> ParkingFunction:
    """Cycle the first section to the end, per the m>1 recursion step.

    The first car must be the small 1 (case removing one car) or the top
    middle a+b carrying a big car above it (cases removing the column).
    """
    dcomp = pf.stats.dcomp
    if not dcomp or dcomp[0] <= 1:
        raise ValueError("phi_map needs a leading section of length m > 1")
    m = dcomp[0]
    n = len(pf)
    cars, diags = pf.cars, pf.diags
    first = cars[0]
    if first == 1 and a >= 1:
        removed = {1}
        tail = range(1, m)
    elif first == a + b and b >= 1:
        if m < 2 or cars[1] <= a + b:
            raise ValueError("a middle first car must carry a big car above it")
        removed = {a + b, cars[1]}
        tail = range(2, m)
    else:
        raise ValueError(f"first car {first} must be 1 or {a + b}")
    rel = _relabel(cars, removed)
    new_cars = [rel[cars[i]] for i in range(m, n)] + [rel[cars[i]] for i in tail]
    new_diags = [diags[i] for i in range(m, n)] + [diags[i] - 1 for i in tail]
    return ParkingFunction(new_cars, new_diags)


def phi_inverse(
    image: ParkingFunction, m: int, alpha: Composition, a: int, b: int, c: int
) -> ParkingFunction:
    """Reconstruct the pre-image of phi_map inside the (m, alpha) family."""
    alpha = tuple(alpha)
    n_img = len(image)
    n = m + sum(alpha)
    rest_len = sum(alpha)
    beta_len = n_img - rest_len
    cars, diags = image.cars, image.diags
    rest_c, rest_d = cars[:rest_len], diags[:rest_len]
    tail_c, tail_d = cars[rest_len:], [d + 1 for d in diags[rest_len:]]
    if beta_len == m - 1:
        # the removed car was the small 1: shift everything back up
        new_cars = (1,) + tuple(v + 1 for v in tail_c) + tuple(v + 1 for v in rest_c)
        new_diags = (0,) + tuple(tail_d) + tuple(rest_d)
        pre = ParkingFunction(new_cars, new_diags)
        if phi_map(pre, a, b, c) != image:
            raise ValueError("inverse reconstruction failed")
        return pre
    if beta_len != m - 2:
        raise ValueError("image size is incompatible with (m, alpha)")
    # the removed column was (a+b) with a big car u above; try each big value
    candidates = []
    for u in range(a + b + 1, n + 1):
        unrel = {}
        for v in set(cars):
            if v < a + b:
                unrel[v] = v
            else:
                unrel[v] = v + 1 if v + 1 < u else v + 2
        new_cars = (a + b, u) + tuple(unrel[v] for v in tail_c) + tuple(unrel[v] for v in rest_c)
        new_diags = (0, 1) + tuple(tail_d) + tuple(rest_d)
        try:
            pre = ParkingFunction(new_cars, new_diags)
        except InvalidParkingFunction:
            continue
        st = pre.stats
        if st.dcomp != (m,) + alpha:
            continue
        if not is_triple_shuffle(st.sigma, a, b, c):
            continue
        if phi_map(pre, a, b, c) == image:
            candidates.append(pre)
    if len(candidates) != 1:
        raise ValueError(f"inverse is not unique: {len(candidates)} candidates")
    return candidates[0]


# ---------------------------------------------------------------------------
# the m = 1 split and the sieve
# ---------------------------------------------------------------------------


def m1_split(pf: ParkingFunction, a: int, b: int, c: int):
    """Classify a leading singleton section by its car and reduce.

    Returns (tag, image) with tag in {'S','M','B'}; the image loses the
    first car, with labels compacted order-preservingly.
    """
    dcomp = pf.stats.dcomp
    if not dcomp or dcomp[0] != 1:
        raise ValueError("m1_split needs a leading section of length 1")
    n = len(pf)
    first = pf.cars[0]
    if first <= a:
        tag = "S"
        expected = 1
    elif first <= a + b:
        tag = "M"
        expected = a + b
    else:
        tag = "B"
        expected = n
    if first != expected:
        raise ValueError(f"a leading {tag} car must be {expected}, found {first}")
    rel = _relabel(pf.cars, {first})
    image = ParkingFunction([rel[v] for v in pf.cars[1:]], pf.diags[1:])
    return tag, image


def _sections(dcomp: Composition):
    start = 0
    for part in dcomp:
        yield start, part
        start += part


def sieve_expand(pf: ParkingFunction, a: int, b: int, c: int):
    """Remove, one at a time, each big car sitting alone on the diagonal.

    (a, b, c) are the shuffle sizes of pf itself.  Returns a list of
    (section index i, reduced parking function) pairs, 1-based in i.
    """
    out = []
    dcomp = pf.stats.dcomp
    for i, (start, part) in enumerate(_sections(dcomp), start=1):
        if part != 1:
            continue
        car = pf.cars[start]
        if car <= a + b:
            continue
        rel = _relabel(pf.cars, {car})
        cars = [rel[v] for k, v in enumerate(pf.cars) if k != start]
        diags = [d for k, d in enumerate(pf.diags) if k != start]
        out.append((i, ParkingFunction(cars, diags)))
    return out


# ---------------------------------------------------------------------------
# 5-step path conversion
# ---------------------------------------------------------------------------

STEP_EAST = "E"
STEP_NORTH = "N"
STEP_RED = "R"
STEP_BLUE = "B"
STEP_SLOPE2 = "S2"


@dataclass(frozen=True)
class FiveStepPath:
    n: int
    steps: tuple[str, ...]

    def __post_init__(self):
        x = y = 0
        for s in self.steps:
            if s == STEP_EAST:
                x += 1
            elif s in (STEP_NORTH, STEP_RED, STEP_BLUE):
                y += 1
            elif s == STEP_SLOPE2:
                y += 2
            else:
                raise ValueError(f"unknown step {s!r}")
            if y < x:
                raise ValueError("path dips below the main diagonal")
        if (x, y) != (self.n, self.n):
            raise ValueError(f"path ends at {(x, y)}, expected {(self.n, self.n)}")

    def render(self) -> str:
        return " ".join(self.steps)

    def counts(self) -> dict:
        out = {s: 0 for s in (STEP_EAST, STEP_NORTH, STEP_RED, STEP_BLUE, STEP_SLOPE2)}
        for s in self.steps:
            out[s] += 1
        return out


def pf_to_path(pf: ParkingFunction, a: int, b: int, c: int) -> FiveStepPath:
    """Deform the supporting Dyck path by car class.

    East steps survive; a north step next to a small car survives; a big
    car directly above a middle car fuses their two norths into the
    slope-2 step; remaining middle/big norths become the red/blue
    slope-1 steps.  Slope steps keep a vertical lattice footprint so the
    endpoint and diagonal dominance are those of the original path.
    """
    n = len(pf)
    if not is_triple_shuffle(pf.stats.sigma, a, b, c):
        raise ValueError("parking function fails the shuffle filter")
    cars, diags = pf.cars, pf.diags

    def kind(v: int) -> str:
        return "S" if v <= a else ("M" if v <= a + b else "B")

    cols = [i - diags[i] for i in range(n)]  # 0-based column of each row
    steps = []
    x = 0
    i = 0
    while i < n:
        steps.extend([STEP_EAST] * (cols[i] - x))
        x = cols[i]
        ki = kind(cars[i])
        if (
            ki == "M"
            and i + 1 < n
            and diags[i + 1] == diags[i] + 1
            and kind(cars[i + 1]) == "B"
        ):
            steps.append(STEP_SLOPE2)
            i += 2
            continue
        steps.append({"S": STEP_NORTH, "M": STEP_RED, "B": STEP_BLUE}[ki])
        i += 1
    steps.extend([STEP_EAST] * (n - x))
    return FiveStepPath(n, tuple(steps))


# ---------------------------------------------------------------------------
# the combinatorial recursion
# ---------------------------------------------------------------------------


@dataclass
class RecursionReport:
    m: int
    alpha: Composition
    a: int
    b: int
    c: int
    passed: bool
    lhs: str
    rhs: str


def verify_recursion(m: int, alpha: Composition, a: int, b: int, c: int) -> RecursionReport:
    """Compare direct enumeration with the first-section reduction law."""
    alpha = tuple(alpha)
    if m < 1:
        raise ValueError("the leading part m must be >= 1")
    if a + b + c != m + sum(alpha):
        raise ValueError("sizes must satisfy a+b+c = m + |alpha|")
    lhs = pi_poly((m,) + alpha, a, b, c)
    rhs = recursion_rhs(pi_poly, m, alpha, a, b, c)
    return RecursionReport(
        m, alpha, a, b, c, lhs == rhs, lhs.canonical(), rhs.canonical()
    )
