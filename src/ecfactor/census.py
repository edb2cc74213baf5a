"""Empirical verification of the counting lemmas behind the reduction.

phi(p, D) counts 1 <= a <= B = floor(2*sqrt(p)) with gcd(a, p+1) <= D. It
is computed two ways that must agree exactly, and bounded below by two
closed-form expressions. The three kernels take a block of primes and a
list of D and answer every (prime, D) at once, as numpy arrays; a scalar
p and D is a block of one. D >= 0 is checked in one place (`_d_list`),
for the kernels and the sweep. D = 0 is read as p + 1 in one (`_d_grid`),
where D is printed or evaluated; every count reads D through `_caps`.

- phi_direct enumerates: one gcd matrix over (prime, a) per block,
  compared once with each distinct cap of `_caps` cut to top = max B, the
  caps at which phi_mobius reads its sums. At most top comparisons a
  block, however many D. A block with top <= _GCD_TOP = 256
  (its primes are at most 16512) reads gcd(a, p+1) = gcd(a, (p+1) mod a)
  off one int16 table of gcd(a, r), 0 <= a, r <= 256, built once, and
  compares in int16; 256 keeps the table at 132 KB, as a table for top
  needs top^2 entries. A block past it takes np.gcd in int64.
- phi_mobius counts f(d) = #{a <= B : gcd(a, p+1) = d} for every d by
  Moebius inversion,
      f(d) = sum over k >= 1 of mu(k) * g(dk),  g(j) = floor(B / j) if j | p+1,
  else 0, with the j found by divisibility, not by gcds: one in-place
  difference pass per prime q dividing some p+1 of the block. f holds no D,
  and phi(p, D) = sum_{d <= D} f(d) is read at every D off one cumulative
  sum, as the class columns read theirs.
- lower_bounds evaluates the two bounds as float64 arrays, in the order
  of the formulas, from one factorisation of each p+1.

A sweep cuts its primes into blocks whose (prime, a) cells plus (prime, D)
lines are at most _BLOCK_CELLS, or one prime where a single prime's are
more, whose D list is then cut into runs of at most max(_BLOCK_CELLS, B)
D, with B the largest floor(2*sqrt(p)) of the sweep: a run holds no more
lines than the cap or than the cells one prime may hold. A sweep yields
the CSV text of each run as it is computed: the run's fields fill one
object array straight from the kernels' arrays, with bound23 and the class
columns formatted once per prime, and one `%` formats every line.
So memory stays bounded by one run however large p is, however many
primes the sweep has and however many D it takes, besides the gcd table
and `counting._table_and_weights`'s entries at the class primes.

The class census enumerates isomorphism classes of curves over F_p and
counts those whose trace has small gcd with p+1. Every curve with AB != 0
is isomorphic, or a quadratic twist, to E_t: y^2 = x^3 + t x + t with
t = A^3/B^2, and t -> j = 6912t/(4t + 27) maps F_p minus {0, -27/4} onto
F_p minus {0, 1728}; all p - 2 traces a(t) come from one correlation,
`counting.normal_form_traces`, exact for the reason `counting` gives. The
curves with j = 0 (A = 0) or j = 1728 (B = 0) can have automorphisms
beyond +-1, and then their classes are sextic or quartic twists of each
other, not quadratic ones: gcd(6, p-1) classes at j = 0 and gcd(4, p-1) at
j = 1728, whose traces come from one `counting.legendre_sums` over the
column of their curves, one curve per coset taken as a power of the least
primitive root, `arith.primitive_root`.
A census line counts the classes with gcd(a, p+1) <= D off one cumulative
count of their gcds, read at every cap of `_caps` cut to p + 1.

The non-residue search measures how far one must go for a d that is a
non-residue mod p but a residue mod m.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cache
from math import gcd, isqrt

import numpy as np

from . import arith
from .arith import is_probable_prime, jacobi, odd_part, primes_between
# count_points_prime is unused here but kept: bench/tracer.py wraps it by this name.
from .counting import count_points_prime, legendre_sums, normal_form_traces

_INT64_MAX = np.iinfo(np.int64).max


def _d_list(D) -> Sequence[int]:
    """D, an int or an iterable of them, as a sequence: the one check that
    every D >= 0. A range or a tuple is kept as given, so each run is sliced
    from it and its D are not copied; any other iterable is listed once. A
    range's least D is read off its ends, so an over-long range reaches the
    size caps at once; the other sequences are scanned."""
    if not isinstance(D, (range, tuple)):
        D = [D] if np.ndim(D) == 0 else list(D)
    least = min(D[0], D[-1]) if isinstance(D, range) and D else min(D, default=0)
    if least < 0:
        raise ValueError(f"census: D must be >= 0, got {least}")
    return D


def _operands(p, D) -> tuple[np.ndarray, Sequence[int], bool]:
    """The primes as an int64 array, the D by `_d_list`, and whether both were scalars."""
    ps = np.atleast_1d(np.asarray(p, dtype=np.int64))
    return ps, _d_list(D), np.ndim(p) == 0 and np.ndim(D) == 0


def _d_grid(ps: np.ndarray, ds: Sequence[int], dtype=object) -> np.ndarray:
    """The D of every (prime, D) cell, with D = 0 read as p + 1, in dtype:
    Python numbers by default, so that a D past int64 is kept whole.

    This is the one place that reads D = 0 as p + 1: the D column and the
    bounds take their D from here, each D already checked >= 0 by `_d_list`.
    The counts read D through `_caps`.
    """
    d = np.array(ds, dtype=dtype)
    return np.where(d == 0, (ps + 1).astype(dtype)[:, None], d)


def _caps(ds: Sequence[int]) -> np.ndarray:
    """The int64 cap at which the counts read each D: D, or _INT64_MAX (no
    cap) for D = 0, read as p + 1, and for a D past int64.

    A cap set by D alone is exact: an in-bound gcd(a, p+1) <= a <= B <= top,
    the block's largest bound, the cells past B hold top + 1, f(d) = 0 for
    d > min(B, p + 1), and a class gcd is at most p + 1, so every count at D
    is the count at min(cap, top), or at min(cap, p + 1) for the classes.
    """
    return np.array([D if 0 < D <= _INT64_MAX else _INT64_MAX for D in ds], dtype=np.int64)


def _unwrap(grid: np.ndarray, scalar: bool):
    return grid.item() if scalar else grid


def _bounds(ps: np.ndarray) -> np.ndarray:
    """floor(2*sqrt(p)) for each p."""
    return np.array([isqrt(4 * p) for p in ps.tolist()], dtype=np.int64)


# Largest block bound, max floor(2*sqrt(p)), whose gcds phi_direct reads off
# _gcd_table: every p <= 16512. A table for a larger bound needs top^2 entries.
# Traced over a `census-sweep` batch (seed 1), the direct count took 4.3-4.5 ms
# with the table against 8.6-9.8 ms with np.gcd (BENCH_39.json).
_GCD_TOP = 256


@cache
def _gcd_table() -> np.ndarray:
    """gcd(a, r) for 0 <= a, r <= _GCD_TOP, an int16 table of 132 KB, built
    once per process in about 0.15 ms.

    Each d is written over every cell whose a and r it divides, in ascending
    order, so the last written is the greatest common one; gcd(0, 0) = 0.
    """
    t = np.zeros((_GCD_TOP + 1, _GCD_TOP + 1), dtype=np.int16)
    for d in range(1, _GCD_TOP + 1):
        t[::d, ::d] = d
    t[0, 0] = 0
    return t


def phi_direct(p, D):
    """#{a : 1 <= a <= B = floor(2*sqrt(p)), gcd(a, p+1) <= D} by enumeration:
    sum_{d <= D} f(d), f(d) = #{a <= B : gcd(a, p+1) = d}, each gcd compared
    with D, where phi_mobius reads f(d) = sum_k mu(k) * g(dk) cumulatively.

    p is a prime or an array of primes and D an int or a list of them; the
    result is an int, or an int64 array over (prime, D). One gcd matrix over
    (prime, a) answers every D. With top the block's largest bound, a block
    with top <= _GCD_TOP reads gcd(a, m) = gcd(a, m mod a), m = p + 1, off
    _gcd_table in int16; a larger one takes np.gcd in int64. The cells with
    a > floor(2*sqrt(p)) are set to top + 1; the matrix is compared once with
    each distinct cap of `_caps` cut to top, as in phi_mobius, and each D
    reads the column of its cap.
    `census_sweep(101, 101, range(1, 2 * 10**5 + 1), 0)` takes 0.23-0.40 s
    (2-core x86, Python 3.11, numpy 2.4).
    """
    ps, ds, scalar = _operands(p, D)
    m, bound = ps + 1, _bounds(ps)
    top = int(bound.max())
    a = np.arange(1, top + 1)
    if top <= _GCD_TOP:
        g = _gcd_table().take(a * (_GCD_TOP + 1) + m[:, None] % a)
    else:
        g = np.gcd(a, m[:, None])
    np.copyto(g, top + 1, where=a > bound[:, None])
    dv, di = np.unique(np.minimum(_caps(ds), top), return_inverse=True)
    counts = np.empty((len(ps), len(dv)), dtype=np.int64)
    for k, D in enumerate(dv.tolist()):
        counts[:, k] = np.count_nonzero(g <= D, axis=1)
    return _unwrap(counts[:, di], scalar)


def phi_mobius(p, D):
    """Same count by Moebius inversion, exact integer arithmetic.

    With B = floor(2*sqrt(p)) and g(j) = floor(B / j) for the j | p+1 with
    j <= B, 0 for every other j, g(j) counts the a <= B that j divides, so
    g(d) = sum_{k >= 1} f(dk) with f(d) = #{a <= B : gcd(a, p+1) = d}, and
        f(d) = sum_{k >= 1} mu(k) * g(dk),  phi(p, D) = sum_{d <= D} f(d).
    The j come from a divisibility matrix over (j, prime), not from gcds.
    The sum over mu is the product over primes q of (1 - S_q), S_q f(d) =
    f(dq), applied one prime q | p+1 of the block at a time as one in-place
    subtraction; numpy reads an overlapping operand before it writes. f
    holds no D: one cumulative sum down d answers every D, read at its cap
    (`_caps`) cut to the block's largest B, past which f is 0. Over
    `census_sweep(5, 100000, range(1, 401), 0)` it takes 0.15-0.20 s (cProfile).
    """
    ps, ds, scalar = _operands(p, D)
    m, bound = ps + 1, _bounds(ps)
    top = int(bound.max())
    a = np.arange(1, top + 1)[:, None]
    divides = (m % a == 0) & (a <= bound)
    j, cols = np.nonzero(divides)
    j += 1
    primes = [q for q in (np.flatnonzero(divides.any(axis=1)) + 1).tolist()
              if is_probable_prime(q)]
    del a, divides  # so that they never coexist with f at large p
    # int64: int32 holds the partial differences only while B(1 + ln B) < 2^31
    f = np.zeros((top + 1, len(ps)), dtype=np.int64)
    f[j, cols] = bound[cols] // j
    for q in primes:
        f[1:top // q + 1] -= f[q::q]
    np.cumsum(f, axis=0, out=f)
    return _unwrap(f[np.minimum(_caps(ds), top)].T, scalar)


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
    d = _d_grid(ps, [_float_or_inf(D) for D in ds], np.float64)
    b22 = 2 * sp - (2 * sp / d) * tau1 - tau2
    b23 = np.broadcast_to(sp * phi_P / P - 2.0 ** omega_P, b22.shape)
    return _unwrap(b22, scalar), _unwrap(b23, scalar)


_CLASS_ENUM_LIMIT = 1000
_SWEEP_WIDTH = 10 ** 6  # widest [max(pmin, 5), pmax] one sweep takes
# Largest pmax a sweep takes: a row then holds at most 2^21 cells, and the
# base sieve of primes_between stays below 2^20.
_PMAX_LIMIT = 1 << 40
# Most (prime, a) cells plus (prime, D) lines one block of a sweep holds,
# unless one prime's are more.
_BLOCK_CELLS = 1 << 16
# Most (prime, a) cells, the sum of floor(2*sqrt(p)) over its primes, one
# sweep takes. [0, 10^6] holds 1.015e8 cells and took 9.8 s with the five
# default D, about 97 ns a cell, on a 2-core x86 host with Python 3.11; the
# width cap alone let a sweep ending at 2^40 hold 7.5e10, now refused after
# its 0.15 s sieve.
_SWEEP_CELLS = 1 << 27
# Most (prime, D) lines one sweep takes: 2^22 lines over [5, 30000] took
# 8.4 s, about 2 us a line, on the same host. [5, 10^5] with 400 D (3.8e6
# lines) takes 5.1 s; [5, 10^6] with 400 D holds 3.1e7 and is refused.
_SWEEP_LINES = 1 << 22
# Most (prime, a, D) comparisons, cells times len(d_list), one sweep takes: it
# bounds phi_direct's comparisons, at most top a block. On the same host [0, 10^6]
# with 21 D took 11.2 s, one prime near 2^40 with 1024 D 2.4 s, 2^22 lines at
# p = 101 6.4 s, and [5, 1000] with 24900 D and classes 5.5 s; the 29 primes
# in [2^40 - 2000, 2^40 - 1072] with 400 D hold only 11600 lines but 2.4e10
# comparisons, and are refused. With the two limits above, no accepted sweep
# runs much past 20 s.
_SWEEP_COMPARISONS = 1 << 31


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
    With g the least primitive root (`arith.primitive_root`), g^0, ...,
    g^(k-1) meet each coset of (F_p*)^k once. That is 2(p-2) + gcd(6, p-1)
    + gcd(4, p-1) classes, 2p + {6, 2, 4, 0} for p = 1, 5, 7, 11 mod 12,
    returned as an int64 array of their traces. With the prime's table built
    it takes 0.08 ms at p = 397 and 0.21 ms at 997, against 1.3 and 3.8 ms
    for the tests' count per j (best of 5; 2-core x86, Python 3.11, numpy 2.4).
    """
    if not 5 <= p <= _CLASS_ENUM_LIMIT:
        raise ValueError(f"class enumeration restricted to 5 <= p <= {_CLASS_ENUM_LIMIT}")
    a = normal_form_traces(p)
    g = arith.primitive_root(p)
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
    width and pmax before the sieve, and the cells, lines and comparisons
    after it; the kernels run once per block of primes, as the text is read.

    Memory stays bounded by one run (module docstring). Peaks in a fresh
    process, against the 28 MB the imports take: [0, 10^6] 34 MB; the 8
    primes in [2^40 - 300, 2^40] 66 MB; [5, 3000] with 2000 D 48 MB; p = 101
    with the D `range(1, 10**6 + 1)` 49 MB; p = 997 with `range(1, 65537)`
    and classes 56 MB (2-core x86, Python 3.11, numpy 2.4).
    """
    if pmin > pmax:
        raise ValueError(f"census_sweep: pmin must be <= pmax, got [{pmin}, {pmax}]")
    d_list = _d_list(d_list)
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
    lines = len(primes) * len(d_list)
    if lines > _SWEEP_LINES:
        raise ValueError(
            f"census_sweep: [{pmin}, {pmax}] x {len(d_list)} D holds {lines} "
            f"(prime, D) lines, more than {_SWEEP_LINES}"
        )
    comparisons = cells * len(d_list)
    if comparisons > _SWEEP_COMPARISONS:
        raise ValueError(
            f"census_sweep: [{pmin}, {pmax}] x {len(d_list)} D holds {comparisons} "
            f"(prime, a, D) comparisons, more than {_SWEEP_COMPARISONS}"
        )
    top = max((p for p in primes if p <= classes_max), default=0)
    if top > _CLASS_ENUM_LIMIT:
        raise ValueError(
            f"census_sweep: classes_max covers p = {top} > {_CLASS_ENUM_LIMIT}"
        )
    return _csv_blocks(primes, d_list, classes_max)


def _csv_blocks(primes: list[int], d_list: Sequence[int], classes_max: int) -> Iterator[str]:
    """The header line, then the CSV lines of each block of primes x d_list,
    from one call of each kernel per run of at most max(_BLOCK_CELLS, top) D,
    top the largest bound. A block of two or more primes holds fewer than
    _BLOCK_CELLS / 2 D, so it is one run, and the lines keep their (p, D)
    order. At a prime up to classes_max the class columns are the number of
    classes with gcd(a, p+1) <= D (read at the cap of `_caps` cut to p + 1)
    and the number of classes; above it they are empty.

    A run's seven fields per line fill one object array, whose cast turns
    int64 into int and float64 into float, so one `%` formats the run."""
    yield CSV_HEADER + "\n"
    if not primes or not d_list:
        return
    top = isqrt(4 * primes[-1])
    step, run = max(1, _BLOCK_CELLS // (top + len(d_list))), max(_BLOCK_CELLS, top)
    for i in range(0, len(primes), step):
        ps = np.array(primes[i:i + step], dtype=np.int64)
        for j in range(0, len(d_list), run):
            ds = d_list[j:j + run]
            b22, b23 = lower_bounds(ps, ds)
            fields = np.empty((len(ps), len(ds), 7), dtype=object)
            fields[..., 0] = ps[:, None]
            fields[..., 1] = _d_grid(ps, ds)
            fields[..., 2] = phi_direct(ps, ds)
            fields[..., 3] = phi_mobius(ps, ds)
            fields[..., 4] = b22
            tails = [f",{b:.6g}," for b in b23[:, 0].tolist()]
            fields[..., 5] = np.array(tails, dtype=object)[:, None]
            fields[..., 6] = ","
            caps = _caps(ds)
            for k, p in enumerate(ps.tolist()):
                if p > classes_max:  # the primes ascend
                    break
                gcds = np.gcd(isomorphism_class_traces(p), p + 1)
                small = np.bincount(gcds, minlength=p + 2).cumsum()[np.minimum(caps, p + 1)]
                fields[k, :, 6] = [f"{s},{len(gcds)}" for s in small.tolist()]
            lines = len(ps) * len(ds)
            yield ("%d,%d,%d,%d,%.6g%s%s\n" * lines) % tuple(fields.ravel().tolist())


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
