"""Wigner 3jm symbols and Gaunt coefficients.

Single symbols are exact: the Racah sum runs in Python integers over one
common denominator and gives the squared value as one Fraction, converted to
float once at the end, which makes them a machine-exact oracle.  Whole
strings over the first angular momentum use the Schulten-Gordon three-term
recurrence, launched from both ends of the range with Racah-seeded values,
matched at the largest-magnitude overlap entry and rescaled by the
orthogonality sum rule sum_l (2l+1) (3j)^2 = 1.  The recursion alone is
neither stable upwards nor downwards; the two-sided launch is (Schulten &
Gordon, J. Math. Phys. 16 (1975) 1961).  Gaunt strings take their zero-m
factor from single symbols, return the constant Y_0^0 when one factor has
l = 0, and are memoized in a 16384-entry LRU table.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

_SQRT_PI = math.sqrt(math.pi)
_Y00 = 0.5 / _SQRT_PI


@dataclass(frozen=True)
class GauntQuery:
    """Index block of <l3 m3 | l1 m1 | l2 m2>; zero unless the selection rules hold."""

    l1: int
    m1: int
    l2: int
    m2: int
    l3: int
    m3: int

    def __post_init__(self):
        for l, m in ((self.l1, self.m1), (self.l2, self.m2), (self.l3, self.m3)):
            if l < 0 or abs(m) > l:
                raise DomainError(f"invalid (l, m) = ({l}, {m})")

    def selection_rules_ok(self) -> bool:
        if self.m3 != self.m1 + self.m2:
            return False
        if not abs(self.l1 - self.l2) <= self.l3 <= self.l1 + self.l2:
            return False
        return (self.l1 + self.l2 + self.l3) % 2 == 0


@dataclass(frozen=True)
class CoupledRange:
    """Allowed l values coupling (l1, m1) x (l2, m2): l_min..l_max in steps of two."""

    l_min: int
    l_max: int
    step: int = 2

    def __iter__(self):
        return iter(range(self.l_min, self.l_max + 1, self.step))

    def __len__(self):
        if self.l_max < self.l_min:
            return 0
        return (self.l_max - self.l_min) // self.step + 1


@dataclass(frozen=True)
class DeltaQuantities:
    delta_l: int
    delta_l1: int
    delta_l2: int
    sigma_l: int


def coupled_range(l1: int, m1: int, l2: int, m2: int) -> CoupledRange:
    """Summation limits for the Gaunt-coupled product of (l1, m1) and (l2, m2)."""
    if abs(m1) > l1 or abs(m2) > l2:
        raise DomainError("|m| <= l required")
    l_max = l1 + l2
    lam_min = max(abs(l1 - l2), abs(m1 + m2))
    l_min = lam_min if (l_max + lam_min) % 2 == 0 else lam_min + 1
    return CoupledRange(l_min, l_max)


def delta_quantities(l1: int, l2: int, l: int) -> DeltaQuantities:
    """The four half-sum abbreviations; all non-negative integers on valid triples."""
    if (l1 + l2 + l) % 2 != 0:
        raise DomainError(f"parity violation: l1 + l2 + l = {l1 + l2 + l} is odd")
    if not abs(l1 - l2) <= l <= l1 + l2:
        raise DomainError(f"triangle violation: ({l1}, {l2}, {l})")
    return DeltaQuantities(
        delta_l=(l1 + l2 - l) // 2,
        delta_l1=(l - l1 + l2) // 2,
        delta_l2=(l + l1 - l2) // 2,
        sigma_l=(l1 + l2 + l) // 2,
    )


def _racah_exact(l1, l2, l3, m1, m2, m3):
    """3j symbol as (sign, squared value as Fraction); exact.

    The Racah sum runs in integers: every term is big // den over the common
    denominator big, and consecutive terms differ by a ratio of three linear
    factors.  Cyclic rotation (an even permutation, value-preserving) puts
    the largest angular momentum third, which minimizes the summation length
    l1 + l2 - l3.
    """
    if m1 + m2 + m3 != 0:
        return 0, Fraction(0)
    if not abs(l1 - l2) <= l3 <= l1 + l2:
        return 0, Fraction(0)
    if abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3:
        return 0, Fraction(0)
    f = math.factorial
    while l3 < l1 or l3 < l2:
        l1, l2, l3 = l2, l3, l1
        m1, m2, m3 = m2, m3, m1
    # den(t) = t! (a+t)! (b+t)! (c-t)! (d-t)! (e-t)!
    a, b, c, d, e = l3 - l2 + m1, l3 - l1 - m2, l1 + l2 - l3, l1 - m1, l2 + m2
    t_min = max(0, -a, -b)
    t_max = min(c, d, e)
    big = f(t_max) * f(a + t_max) * f(b + t_max) * f(c - t_min) * f(d - t_min) * f(e - t_min)
    term = big // (f(t_min) * f(a + t_min) * f(b + t_min) * f(c - t_min) * f(d - t_min) * f(e - t_min))
    s = 0
    for t in range(t_min, t_max + 1):
        s += -term if t % 2 else term
        term = term * (c - t) * (d - t) * (e - t) // ((t + 1) * (a + t + 1) * (b + t + 1))
    if s == 0:
        return 0, Fraction(0)
    sign = 1 if (s > 0) == ((l1 - l2 - m3) % 2 == 0) else -1
    r_num = f(c) * f(l1 - l2 + l3) * f(-l1 + l2 + l3) * f(l1 + m1) * f(l1 - m1) * f(l2 + m2) * f(l2 - m2)
    r_num *= f(l3 + m3) * f(l3 - m3)
    return sign, Fraction(s * s * r_num, big * big * f(l1 + l2 + l3 + 1))


def wigner3j(l1: int, l2: int, l3: int, m1: int, m2: int, m3: int) -> float:
    """Single exact 3jm symbol (integer Racah sum); 0 on selection-rule failure."""
    sign, sq = _racah_exact(l1, l2, l3, m1, m2, m3)
    if sign == 0:
        return 0.0
    return sign * math.sqrt(float(sq))


def _sg_string(l2: int, l3: int, m2: int, m3: int, l_min: int, l_max: int) -> list:
    """Schulten-Gordon recurrence over l1 in [l_min, l_max].

    Both directional branches launch from exact single-symbol anchors (cheap:
    the rotated Racah sums at the range ends are short), meet at the
    largest-magnitude forward entry, are matched there by a single ratio,
    and are normalized by the orthogonality sum rule.
    """
    m1 = -(m2 + m3)

    def a_coef(j):
        return math.sqrt((j * j - (l2 - l3) ** 2) * ((l2 + l3 + 1) ** 2 - j * j) * (j * j - m1 * m1))

    def b_coef(j):
        return (2 * j + 1) * ((m3 - m2) * j * (j + 1) - m1 * (l2 * (l2 + 1) - l3 * (l3 + 1)))

    n = l_max - l_min + 1
    decay_cut = 1e-5  # two consecutive entries this far under the running max = past the peak
    # Both branches launch from exact anchor values (true magnitudes make the
    # peak bookkeeping honest).  Each branch is reliable only on the near
    # side of the classical peak; once the true solution decays, the dominant
    # contaminant grows, so the forward run stops on deep decay (a single
    # oscillation node cannot produce two consecutive deeply small entries).
    fwd = [0.0] * n
    fwd[0] = wigner3j(l_min, l2, l3, m1, m2, m3)
    fwd[1] = wigner3j(l_min + 1, l2, l3, m1, m2, m3)
    best = max(abs(fwd[0]), abs(fwd[1]))
    peak = 1 if abs(fwd[1]) >= abs(fwd[0]) else 0
    stopped = False
    small_run = 0
    for i in range(1, n - 1):
        j = l_min + i
        fwd[i + 1] = -(b_coef(j) * fwd[i] + (j + 1) * a_coef(j) * fwd[i - 1]) / (j * a_coef(j + 1))
        mag = abs(fwd[i + 1])
        if mag > best:
            best = mag
            peak = i + 1
            small_run = 0
        elif mag < decay_cut * best:
            small_run += 1
            if small_run >= 2:
                stopped = True
                break
        else:
            small_run = 0
    if not stopped and peak >= n - 2:
        vals = fwd  # classical region reaches the top: forward covers everything
    else:
        bwd = [0.0] * n
        bwd[-1] = wigner3j(l_max, l2, l3, m1, m2, m3)
        bwd[-2] = wigner3j(l_max - 1, l2, l3, m1, m2, m3)
        for i in range(n - 2, peak, -1):
            j = l_min + i
            bwd[i - 1] = -(b_coef(j) * bwd[i] + j * a_coef(j + 1) * bwd[i + 1]) / ((j + 1) * a_coef(j))
        ratio = fwd[peak] / bwd[peak] if bwd[peak] != 0.0 else 1.0
        vals = fwd[: peak + 1] + [ratio * v for v in bwd[peak + 1 :]]
    # orthogonality sum rule
    norm = math.fsum((2 * (l_min + i) + 1) * v * v for i, v in enumerate(vals))
    if norm > 0:
        scale = 1.0 / math.sqrt(norm)
        vals = [v * scale for v in vals]
    # The recurrence is accurate to a few ulp of the string maximum (2.4e-15
    # at worst, measured), so an entry below 0.3 of the maximum may miss 1e-14
    # relative; refresh those from the exact single-symbol path.  The
    # per-entry relative guarantee targets strings up to the l ~ 25 coupling
    # range (length 51); very long strings skip the polish and stay
    # recurrence-fast.
    if n <= 56:
        vmax = max(abs(v) for v in vals)
        for i, v in enumerate(vals):
            if abs(v) < 0.3 * vmax:
                vals[i] = wigner3j(l_min + i, l2, l3, m1, m2, m3)
    return vals


def wigner3j_string(l2: int, l3: int, m2: int, m3: int) -> list:
    """All (l1, 3j(l1, l2, l3; -(m2+m3), m2, m3)) over the admissible l1 range."""
    if abs(m2) > l2 or abs(m3) > l3:
        raise DomainError("|m| <= l required")
    m1 = -(m2 + m3)
    l_min = max(abs(l2 - l3), abs(m1))
    l_max = l2 + l3
    if l_max - l_min + 1 <= 2:
        return [(l1, wigner3j(l1, l2, l3, m1, m2, m3)) for l1 in range(l_min, l_max + 1)]
    vals = _sg_string(l2, l3, m2, m3, l_min, l_max)
    return list(zip(range(l_min, l_max + 1), vals))


def gaunt(l1: int, m1: int, l2: int, m2: int, l3: int, m3: int) -> float:
    """Gaunt coefficient <l3 m3 | l1 m1 | l2 m2>: the Y_l3^m3-conjugated triple product integral.

    Selection-rule violations (including |m| > l) return 0.
    """
    if min(l1, l2, l3) < 0 or abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3:
        return 0.0
    if m3 != m1 + m2 or not abs(l1 - l2) <= l3 <= l1 + l2 or (l1 + l2 + l3) % 2:
        return 0.0
    s0, sq0 = _racah_exact(l1, l2, l3, 0, 0, 0)
    sm, sqm = _racah_exact(l1, l2, l3, m1, m2, -m3)
    if s0 == 0 or sm == 0:
        return 0.0
    sign = s0 * sm * (-1) ** m3
    mag = math.sqrt(float(sq0 * sqm * Fraction((2 * l1 + 1) * (2 * l2 + 1) * (2 * l3 + 1), 4)))
    return sign * mag / _SQRT_PI


class _LruTable:
    """Bounded memo table with least-recently-used eviction (single-threaded).

    Counts lookups that hit and miss, and entries evicted; clear() resets them.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def __len__(self):
        return len(self._data)

    def get(self, key):
        value = self._data.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
            self._data.move_to_end(key)
        return value

    def put(self, key, value):
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self):
        self._data.clear()
        self.hits = self.misses = self.evictions = 0


# One verify pass stores 7 680 distinct keys and walks them cyclically; a
# table smaller than that working set gets almost no hits.
_gaunt_cache = _LruTable(16384)


def gaunt_string(l1: int, m1: int, l2: int, m2: int) -> tuple:
    """All (l, <l m1+m2 | l1 m1 | l2 m2>) for l in the coupled range.

    The zero-m 3j factor comes from single symbols; the other factor varies
    in its third slot, and cyclic invariance moves that slot first, so one
    Schulten-Gordon string covers the whole range.  A factor with l = 0 makes
    the string the single constant Y_0^0 = 1/(2 sqrt(pi)), returned without a
    table lookup.  Other results are memoized in a bounded LRU table keyed by
    (l1, m1, l2, m2), as tuples, so a caller cannot change what later calls
    return.
    """
    if abs(m1) > l1 or abs(m2) > l2:
        raise DomainError("|m| <= l required")
    if l1 == 0 or l2 == 0:
        return ((l1 + l2, _Y00),)
    key = (l1, m1, l2, m2)
    cached = _gaunt_cache.get(key)
    if cached is not None:
        return cached
    m3 = m1 + m2
    strm = dict(wigner3j_string(l1, l2, m1, m2))  # gives 3j(l, l1, l2; -m3, m1, m2)
    pref = math.sqrt((2 * l1 + 1) * (2 * l2 + 1) / (4.0 * math.pi))
    out = tuple(
        (l, ((-1) ** m3) * pref * math.sqrt(2 * l + 1) * wigner3j(l, l1, l2, 0, 0, 0) * strm[l])
        for l in coupled_range(l1, m1, l2, m2)
    )
    _gaunt_cache.put(key, out)
    return out
