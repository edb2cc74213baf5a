"""Empirical verification of the counting lemmas behind the reduction.

phi(p, D) counts 1 <= a <= B = floor(2*sqrt(p)) with gcd(a, p+1) <= D. It
is computed two ways that must agree exactly, and bounded below by two
closed-form expressions. The three kernels take a block of primes and a
list of D and answer every (prime, D) at once, as numpy arrays; a scalar
p and D is a block of one. D = 0 stands for p + 1, read in one place
(`_d_grid`).

- phi_direct enumerates: one gcd matrix over (prime, a) per block,
  compared with every D.
- phi_mobius is the divisor sum
      phi(p, D) = sum over j | p+1, j <= B of c_D(j) * floor(B / j),
      c_D(j)    = sum over d | j, d <= D of mu(j/d),
  with the j found by divisibility, not by gcds. c_D depends only on j and
  D, and one table of mu serves a whole sweep.
- lower_bounds evaluates the two bounds as float64 arrays, in the order
  of the formulas, from one factorisation of each p+1.

A sweep cuts its primes into blocks of at most _BLOCK_CELLS (prime, a)
cells, or one prime where a single row is longer, and yields the CSV lines
of each block as it is computed, formatted straight from the kernels'
arrays (bound23 once per prime), so memory stays bounded by one block
however large p is or however many primes the sweep has.

The class census enumerates isomorphism classes of curves over F_p and
counts those whose trace has small gcd with p+1. Every curve with AB != 0
is isomorphic, or a quadratic twist, to E_t: y^2 = x^3 + t x + t with
t = A^3/B^2, and t -> j = 6912t/(4t + 27) maps F_p minus {0, -27/4} onto
F_p minus {0, 1728}; all p - 2 traces a(t) come from one correlation,
`counting.normal_form_traces`. The curves with j = 0 (A = 0) or j = 1728
(B = 0) can have automorphisms beyond +-1, and then their classes are
sextic or quartic twists of each other, not quadratic ones: gcd(6, p-1)
classes at j = 0 and gcd(4, p-1) at j = 1728, whose traces come from one
`counting.legendre_sums` over the column of their curves, one curve per
coset taken as a power of the primitive root of `counting.discrete_logs`.
A census line counts the classes with gcd(a, p+1) <= D by one comparison
of their gcds with every D.

The non-residue search measures how far one must go for a d that is a
non-residue mod p but a residue mod m.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from . import arith
from .arith import is_probable_prime, isqrt, jacobi, odd_part, primes_between
# count_points_prime is unused here but kept: bench/tracer.py wraps it by this name.
from .counting import count_points_prime, discrete_logs, legendre_sums, normal_form_traces


def _operands(p, D) -> tuple[np.ndarray, list[int], bool]:
    """The primes as an int64 array, the D as a list, and whether both were scalars."""
    ps = np.atleast_1d(np.asarray(p, dtype=np.int64))
    return ps, [D] if np.ndim(D) == 0 else list(D), np.ndim(p) == 0 and np.ndim(D) == 0


def _d_grid(ps: np.ndarray, ds: list[int]) -> np.ndarray:
    """The D of every (prime, D) cell as Python numbers, with D = 0 read as p + 1.

    This is the one place that reads D = 0; every kernel and every CSV line takes
    its D from here.
    """
    d = np.array(ds, dtype=object)
    return np.where(d == 0, (ps + 1).astype(object)[:, None], d)


def _count_grid(ps: np.ndarray, ds: list[int]) -> np.ndarray:
    """_d_grid as int64, with D above p + 1 cut to p + 1: gcd(a, p+1) <= p + 1."""
    return np.minimum(_d_grid(ps, ds), (ps + 1)[:, None]).astype(np.int64)


def _unwrap(grid: np.ndarray, scalar: bool):
    return grid.item() if scalar else grid


def _bounds(ps: np.ndarray) -> np.ndarray:
    """floor(2*sqrt(p)) for each p."""
    return np.array([isqrt(4 * p) for p in ps.tolist()], dtype=np.int64)


def phi_direct(p, D):
    """#{a : 1 <= a <= floor(2*sqrt(p)), gcd(a, p+1) <= D} by enumeration.

    p is a prime or an array of primes and D an int or a list of them; the
    result is an int, or an int64 array over (prime, D). One gcd matrix over
    (prime, a) answers every D; the cells with a > floor(2*sqrt(p)) are set
    above every D.
    """
    ps, ds, scalar = _operands(p, D)
    m, bound = ps + 1, _bounds(ps)
    a = np.arange(1, bound.max() + 1)
    g = np.gcd(a, m[:, None])
    np.copyto(g, m[:, None] + 1, where=a > bound[:, None])
    counts = [np.count_nonzero(g <= d[:, None], axis=1) for d in _count_grid(ps, ds).T]
    return _unwrap(np.stack(counts, axis=1), scalar)


@lru_cache(maxsize=1)  # a sweep asks for the same table block after block
def _mobius(n: int) -> np.ndarray:
    """mu(j) for 0 <= j <= n, mu(0) = 0, sieved by the primes up to isqrt(n).

    A squarefree j whose primes up to isqrt(n) multiply to less than j has
    one more prime factor, above isqrt(n).
    """
    mu = np.ones(n + 1, dtype=np.int8)
    small = np.ones(n + 1, dtype=np.int64)
    for q in primes_between(2, isqrt(n)):
        mu[q::q] *= -1
        mu[q * q::q * q] = 0
        small[q::q] *= q
    mu[small < np.arange(n + 1)] *= -1
    mu[0] = 0
    return mu


def _coefficients(j: np.ndarray, D: int, mu: np.ndarray) -> np.ndarray:
    """c_D(j) = sum of mu(j/d) over the d | j with d <= D, for each j in an
    array of j < len(mu).

    Either d runs over 1, ..., D, or, since sum_{d | j} mu(j/d) is 1 at
    j = 1 and 0 above, the k = j/d < j/D run over 1, ..., top/(D+1) and are
    subtracted; the shorter loop has at most sqrt(top) steps.
    """
    top = int(j.max())
    if D * D <= top:
        return sum((j % d == 0) * mu[j // d].astype(np.int64) for d in range(1, D + 1))
    c = (j == 1).astype(np.int64)
    for k in range(1, top // (D + 1) + 1):
        c -= ((j % k == 0) & (j > k * D)) * mu[k]
    return c


def phi_mobius(p, D):
    """Same count via the Moebius divisor sum, exact integer arithmetic.

    phi(p, D) = sum over the j | p+1 with j <= B = floor(2*sqrt(p)) of
    c_D(j) * floor(B / j), with c_D(j) = sum_{d | j, d <= D} mu(j/d). The j
    come from a divisibility matrix over (prime, j), not from gcds, and c_D
    from one table of mu, which serves every prime of a sweep. For
    j <= B <= D, c_D(j) is 1 at j = 1 and 0 above, so every D >= B is read
    as the largest B.
    """
    ps, ds, scalar = _operands(p, D)
    m, bound = ps + 1, _bounds(ps)
    top = int(bound.max())
    # a power of two, so that a sweep's blocks share one table; built before
    # the divisibility matrix, so that their arrays never coexist at large p
    mu = _mobius(1 << (top - 1).bit_length())
    a = np.arange(1, top + 1)
    rows, j = np.divmod(np.flatnonzero((m[:, None] % a == 0) & (a <= bound[:, None])), top)
    j += 1
    d = _count_grid(ps, ds)
    d[d >= bound[:, None]] = top
    d = d[rows]
    c = np.zeros(d.shape, dtype=np.int64)
    for D in set(d.ravel().tolist()):
        at = d == D
        c[at] = _coefficients(np.broadcast_to(j[:, None], d.shape)[at], D, mu)
    out = np.zeros((len(ps), len(ds)), dtype=np.int64)
    np.add.at(out, rows, c * (bound[rows] // j)[:, None])
    return _unwrap(out, scalar)


def _divisor_functions(m: int) -> tuple[int, int, int, int, int]:
    """tau(m), tau(m^2), the odd part P of m, phi(P) and omega(P), all from
    the one factorisation of m; tau(m^2) is the product of 2e+1."""
    tau1 = tau2 = 1
    P = phi_P = odd_part(m)
    omega_P = 0
    for q, e in arith.factor_small(m):
        tau1 *= e + 1
        tau2 *= 2 * e + 1
        if q > 2:
            phi_P = phi_P // q * (q - 1)
            omega_P += 1
    return tau1, tau2, P, phi_P, omega_P


def _float_or_inf(D: int) -> float:
    """float(D), or +inf for a D beyond the float range."""
    try:
        return float(D)
    except OverflowError:
        return math.inf


def lower_bounds(p, D):
    """The two closed-form lower bounds for phi(p, D).

    First: 2*sqrt(p) - (2*sqrt(p)/D)*tau(p+1) - tau((p+1)^2).
    Second: sqrt(p)*phi(P)/P - 2^omega(P), with P the odd part of p+1.
    Both are float64 arrays over (prime, D), or two floats for a scalar p
    and D, evaluated in the order written, so each value is the float the
    formula gives. A D beyond the float range is read as +inf, which gives
    the first bound's limit 2*sqrt(p) - tau((p+1)^2).
    """
    ps, ds, scalar = _operands(p, D)
    functions = np.array([_divisor_functions(m) for m in (ps + 1).tolist()], dtype=np.int64)
    tau1, tau2, P, phi_P, omega_P = functions.T[:, :, None]
    sp = np.sqrt(ps.astype(np.float64))[:, None]
    d = _d_grid(ps, [_float_or_inf(D) for D in ds]).astype(np.float64)
    b22 = 2 * sp - (2 * sp / d) * tau1 - tau2
    b23 = np.broadcast_to(sp * phi_P / P - 2.0 ** omega_P, b22.shape)
    return _unwrap(b22, scalar), _unwrap(b23, scalar)


_CLASS_ENUM_LIMIT = 1000
_SWEEP_WIDTH = 10 ** 6  # widest [max(pmin, 5), pmax] one sweep takes
# Largest pmax a sweep takes: a row then holds at most 2^21 cells, and the
# base sieve of primes_between stays below 2^20.
_PMAX_LIMIT = 1 << 40
# Most (prime, a) cells one block of a sweep holds, unless one row is longer.
_BLOCK_CELLS = 1 << 16
# Most (prime, a) cells, the sum of floor(2*sqrt(p)) over its primes, one
# sweep takes. A sweep costs about 140 ns a cell on a 2-core x86 host with
# Python 3.11, so no accepted sweep runs much past 20 s; [5, 10^6] holds
# 1.015e8 cells, and the width cap alone let a sweep near 2^40 hold 7.5e10.
_SWEEP_CELLS = 1 << 27


def isomorphism_class_traces(p: int) -> np.ndarray:
    """Traces of all F_p-isomorphism classes of smooth curves over F_p.

    Classes are orbits of (A, B) under (A, B) -> (l^4 A, l^6 B), l in F_p*,
    and are enumerated by j-invariant (Silverman, AEC III.1 and X.5):
    - j != 0, 1728: Aut = {+-1}, so j has two classes, E_t with
      j = 6912t/(4t + 27) and its quadratic twist, with traces a(t) and
      -a(t); every a(t) comes from one correlation (`normal_form_traces`);
    - j = 0: one class y^2 = x^3 + B per coset of B in F_p*/(F_p*)^6;
    - j = 1728: one class y^2 = x^3 + Ax per coset of A in F_p*/(F_p*)^4;
      their traces -sum_x chi(x^3 + Ax + B) come from one `legendre_sums`.
    With g the primitive root of `counting.discrete_logs`, g^0, ..., g^(k-1)
    meet each coset of (F_p*)^k once. That is 2(p-2) + gcd(6, p-1) +
    gcd(4, p-1) classes, returned as an int64 array of their traces.
    """
    if not 5 <= p <= _CLASS_ENUM_LIMIT:
        raise ValueError(f"class enumeration restricted to 5 <= p <= {_CLASS_ENUM_LIMIT}")
    a = normal_form_traces(p)
    g, _ = discrete_logs(p)
    special = [(0, pow(g, i, p)) for i in range(gcd(6, p - 1))]
    special += [(pow(g, i, p), 0) for i in range(gcd(4, p - 1))]
    A, B = np.array(special, dtype=np.int64).T[:, :, None]
    return np.concatenate((a, -a, -legendre_sums(p, A, B)))


CSV_HEADER = "p,D,phi_direct,phi_mobius,bound22,bound23,s_classes,total_classes"


def census_sweep(
    pmin: int, pmax: int, d_list: list[int], classes_max: int = 1000
) -> Iterator[str]:
    """The census CSV for every prime in [pmin, pmax] x every D, ordered by
    (p, D): the header line, then the lines of one block of primes at a time.

    D = 0 in d_list stands for 'p + 1' (the everything-admitted column).
    Every contract is checked, and the range sieved, when this is called,
    width and pmax before the sieve and the cell count after it; the
    kernels run once per block of primes, as the text is read.
    """
    if pmin > pmax:
        raise ValueError(f"census_sweep: pmin must be <= pmax, got [{pmin}, {pmax}]")
    if any(D < 0 for D in d_list):
        raise ValueError(f"census_sweep: D must be >= 0, got {min(d_list)}")
    if pmax - max(pmin, 5) > _SWEEP_WIDTH:
        raise ValueError(f"census_sweep: [{pmin}, {pmax}] is wider than {_SWEEP_WIDTH}")
    if pmax > _PMAX_LIMIT:
        raise ValueError(f"census_sweep: pmax must be <= {_PMAX_LIMIT}, got {pmax}")
    primes = primes_between(max(pmin, 5), pmax)
    cells = sum(isqrt(4 * p) for p in primes)
    if cells > _SWEEP_CELLS:
        raise ValueError(
            f"census_sweep: [{pmin}, {pmax}] holds {cells} (prime, a) cells, "
            f"more than {_SWEEP_CELLS}"
        )
    top = max((p for p in primes if p <= classes_max), default=0)
    if top > _CLASS_ENUM_LIMIT:
        raise ValueError(
            f"census_sweep: classes_max covers p = {top} > {_CLASS_ENUM_LIMIT}"
        )
    return _csv_blocks(primes, d_list, classes_max)


def _csv_blocks(primes: list[int], d_list: list[int], classes_max: int) -> Iterator[str]:
    """The header line, then the CSV lines of each block of primes x d_list,
    from one call of each kernel per block. At a prime up to classes_max the
    class columns are the number of classes with gcd(a, p+1) <= D (D cut to
    p + 1) and the number of classes; above it they are empty."""
    yield CSV_HEADER + "\n"
    if not primes or not d_list:
        return
    step = max(1, _BLOCK_CELLS // isqrt(4 * primes[-1]))
    for i in range(0, len(primes), step):
        ps = np.array(primes[i:i + step], dtype=np.int64)
        b22, b23 = lower_bounds(ps, d_list)
        columns = zip(
            ps.tolist(), _d_grid(ps, d_list).tolist(), _count_grid(ps, d_list),
            phi_direct(ps, d_list).tolist(), phi_mobius(ps, d_list).tolist(),
            b22.tolist(), b23[:, 0].tolist(),
        )
        lines = []
        for p, ds, caps, direct, mobius, bounds, bound23 in columns:
            counts = [","] * len(ds)
            if p <= classes_max:
                gcds = np.gcd(isomorphism_class_traces(p), p + 1)
                small = np.count_nonzero(gcds <= caps[:, None], axis=1).tolist()
                counts = [f"{s},{len(gcds)}" for s in small]
            tail = f",{bound23:.6g},"
            lines += [
                f"{p},{D},{x},{y},{b:.6g}{tail}{c}"
                for D, x, y, b, c in zip(ds, direct, mobius, bounds, counts)
            ]
        yield "\n".join(lines) + "\n"


class NonResidueNotFound(Exception):
    """No admissible d below the search cap; the cap was too small."""


@dataclass(frozen=True)
class NonResidueRecord:
    p: int
    m: int
    d_min: int
    ratio: float  # d_min / (ln(p*m))^2


def nonresidue_search(p: int, m: int, cap: int = 10 ** 4) -> NonResidueRecord:
    """Least d <= cap that is a non-residue mod p and a residue mod m.

    m = 1 is allowed (the mod-1 symbol is +1 by convention).
    """
    if p < 3 or not is_probable_prime(p) or m < 1 or m % 2 == 0 or gcd(p, m) != 1:
        raise ValueError("nonresidue_search: need odd prime p, odd m, gcd(p, m) = 1")
    if cap < 1:
        raise ValueError(f"nonresidue_search: cap must be >= 1, got {cap}")
    for d in range(1, cap + 1):
        if jacobi(d, p) == -1 and gcd(d, m) == 1 and jacobi(d, m) == 1:
            return NonResidueRecord(p, m, d, d / math.log(p * m) ** 2)
    raise NonResidueNotFound(f"no admissible d <= {cap} for (p, m) = ({p}, {m})")
