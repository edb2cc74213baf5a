"""Ground-truth point counting.

`count_points_prime(p, A, B)` is the one entry point for a count over F_p;
`oracle.Oracle.query` multiplies these over the primes of a squarefree m.
It admits p once (a prime with 5 <= p < 2^60, else a `ValueError` naming p),
refuses singular curves, and dispatches on `_CROSSOVER`:

- p <= `_CROSSOVER` and AB != 0 mod p: one lag of the normal-form
  correlation below. E is the twist by B/A of E_t with t = A^3/B^2, so
  N = p + 1 - (AB | p) a(t), and a(t) is one dot product of p entries of
  the doubled character table with the weights w of p. A count takes about
  4.1 us at p = 1499, against 30 us for a Legendre sum (best of 7 timeit
  runs of 1000 curves, 2-core x86 host).
- p <= `_CROSSOVER` and A = 0 or B = 0: the Legendre sum
  N = p + 1 + sum_x (x^3+Ax+B | p) over the character table.
- p > `_CROSSOVER`: Shanks' baby-step/giant-step with Mestre's alternation
  between E and its quadratic twist E' (H. Cohen, *A Course in Computational
  Algebraic Number Theory*, section 7.4.3). It walks x0 = 0, 1, 2, ...; for
  f = x0^3 + A x0 + B != 0 the point (x0 f, f^2) lies on
  Y^2 = X^3 + A f^2 X + B f^3, which is E when f is a square and E'
  otherwise, so no square root is taken. With L the lcm of the orders
  seen so far on the point's side, the side's group order is L k for some
  k in [kmin, kmax], the Hasse interval [p+1-r, p+1+r], r = floor(2
  sqrt(p)), divided by L. Baby-step/giant-step sweeps k upward from kmin,
  so its k is the least match ([k][L]P = O) there, and the order of [L]P
  divides k and exceeds k - kmin. `_fold_order` turns k into L times that
  order, or into the group order when k is the only match, by testing the
  few divisors of k that could be the order of a point with a second
  match; when 2k >= kmin + kmax there are none, and the count is L k on E,
  or 2p + 2 - L k on E', with no factoring of k. The result becomes the
  side's L_E or L_E', the lcm of the orders seen on each side. The count
  is N once exactly one N in the Hasse interval has L_E | N and
  L_E' | 2p+2-N. Mestre showed that for p > 229 the group exponents of E
  and E' always leave one such N; in practice one or two points do. A
  walk that ends without a unique N raises instead of guessing. One count
  costs O(p^(1/4)) group operations and no table. The baby and giant
  steps add affine points, one modular inverse each; a scalar
  multiplication runs in Jacobian coordinates and takes one inverse in
  all. A count takes 0.090 ms at 1e5, 0.26 ms at 1e7, 0.95 ms at 2^30,
  9.1 ms at 2^40 and about 0.29 s just below 2^60 (medians over 400, 400,
  100, 40 and 8 seeded curves, 2-core x86 host, Python 3.11). End to end,
  `ecfactor factor` on n = pq, p and q drawn from [x, 2x], takes a median
  of 0.49, 0.90, 1.80 and 19.1 ms at x = 1e5, 1e6, 1e7 and 1e9, at a
  median of 2 queries (20 seeded n per x, timed around `cli.main` in one
  process on the same host).

The character table and the weights are built together, on the first use
at a prime, and cached read-only, so later counts there are cheap. The
cache, a `functools.cache`, admits p itself (`_admit`) and refuses a p
above `_CROSSOVER`, so it holds only the 1898 primes up to the crossover
and nothing is ever rebuilt; filled, it holds 29.2 MB of int8 tables and
29.2 MB of int16 weights, 58.4 MB in all.
One build works over the powers y_i = g^i, 0 <= i < p - 1, of the least
primitive root g (`arith.primitive_root`), taken as an outer product of
about sqrt(p) by sqrt(p) powers and dropped once the build ends. Since
(g^i | p) = (-1)^i, two scatters of them give the table, and entry 0 is 0.
It is built doubled, an array of length 2p whose second half repeats the
first, and the cache hands out the view of its first p entries; the one-lag
count reads the doubled array through the view's `.base`, so the p cyclic
terms chi(t + s) of its lag are one contiguous slice.

`symbol(p)` is public, the callable x -> (x | p), so only this module
decides which primes have tables: `oracle.FactoredOracle` takes one per
prime and reads (d | p) with it when it answers a twist by d from its
record.

`legendre_sums(p, A, B)` is the one evaluation of sum_x (x^3+Ax+B | p), at
table primes only. It takes one curve or a column of curves, of any
integer coefficients, and serves the count above and the census's j = 0
and j = 1728 classes.

`normal_form_traces(p)` gives the traces a(t) of every normal form
E_t: y^2 = x^3 + t x + t, t != 0, -27/4, the normal forms whose twists the
census enumerates. For x != -1,
x^3 + t(x + 1) = (x + 1)(t + x^3/(x + 1)), so

    a(t) = -chi(-1) - sum_s w(s) chi(t + s),
    w(s) = sum of chi(x + 1) over the x != -1 with x^3/(x + 1) = s,

and all p - 2 traces come from one cyclic correlation of chi and w, arrays
of length p: O(p^2) multiply-adds and O(p) memory, in place of about p
point counts. It runs on float64 copies, so that `np.correlate` takes the
BLAS dot, and is exact: every partial sum is an integer of size at most
sum |w| <= p - 1 < 2^53. It takes 0.12 ms at p = 997 and 52 ms at 16381,
against 0.52 and 238 ms in int64 (best of 5, one process). Above p = 10000
OpenBLAS splits each dot over threads, and the first such call in a
process took about 1 s in 3 of 7 fresh processes on a 2-core host; the
census calls it only up to p = 1000. A count reads the one lag t of it,
exactly, as one int8 x int16 dot. The weights come from the same powers:
x + 1 runs over the y_i as x runs over x != -1, chi(x + 1) = (-1)^i, and
(x + 1)^(-1) = g^(-i) is the power array read backwards, so
s_i = (y_i - 1)^3 g^(-i), and w is the bincount of the s_i at even i less
that at odd i. x = 0 (i = 0) is the one x with s = 0. The build takes
47 us at p = 1499 and 261 us at 16381 (medians of 7 timeit runs, caches
emptied before each build; 2-core x86 host, Python 3.11, numpy 2.4), and a
`factor-twist` batch makes about 124 builds.

`count_affine_bruteforce` counts solutions by enumerating squares instead of
evaluating symbols, which keeps it an independent cross-check of the same
quantities.
"""

from __future__ import annotations

from functools import cache, partial
from math import gcd, isqrt

import numpy as np

from .arith import factor_small, is_probable_prime, jacobi, primitive_root


# Counts stop below here; the module docstring gives a count's time up to it.
_COUNT_LIMIT = 1 << 60

# Largest prime counted from the character table. The first count at 16381
# builds its table and weights in about 0.8-1.1 ms in a fresh process and a
# later one takes 0.02-0.03 ms, against about 0.15 ms for a baby-step/giant-step
# count at 16411 (2-core host, Python 3.11), so above here a prime must be
# counted about five to seven times before its table pays.
_CROSSOVER = 1 << 14


def _admit(p: int) -> None:
    if not 5 <= p < _COUNT_LIMIT or not is_probable_prime(p):
        raise ValueError(f"counting: p must be a prime in [5, 2^60), got {p}")


def count_points_prime(p: int, A: int, B: int) -> int:
    """Exact projective point count N of y^2 = x^3 + Ax + B over F_p; the
    trace is p + 1 - N."""
    _admit(p)
    A %= p
    B %= p
    if (4 * A * A * A + 27 * B * B) % p == 0:
        raise ValueError(f"count_points_prime: singular curve ({A},{B}) mod {p}")
    if p > _CROSSOVER:
        return _bsgs_count(p, A, B)
    if A == 0 or B == 0:
        return _legendre_count(p, A, B)
    return _normal_form_count(p, A, B)


@cache  # a refused p raises, so only the 1898 primes up to _CROSSOVER are kept
def _table_and_weights(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The character table and the weights w of a prime 5 <= p <= _CROSSOVER,
    from one array of powers (module docstring). The table is the read-only
    int8 (x | p) for 0 <= x < p: a view of the first half of a read-only
    array of length 2p whose halves are equal. The weights are the read-only
    int16 w(s) for 0 <= s < p, with sum |w| <= p - 1. Any other p raises a
    ValueError naming it: a larger prime has no table."""
    _admit(p)
    if p > _CROSSOVER:
        raise ValueError(f"counting: p must be <= {_CROSSOVER}, got {p}")
    g = primitive_root(p)
    m = isqrt(p - 2) + 1  # g^(mj + k) for 0 <= j, k < m covers every i < p - 1
    row = [1]
    for _ in range(m):
        row.append(row[-1] * g % p)
    col = [1]
    for _ in range(m - 1):
        col.append(col[-1] * row[m] % p)
    # int32 holds every product, as p^2 < 2^28, and its remainder is quicker
    y = np.array(col, dtype=np.int32)[:, None] * np.array(row[:m], dtype=np.int32)
    y %= p
    y = y.ravel()[: p - 1]  # y[i] = g^i
    chi = np.empty(2 * p, dtype=np.int8)
    chi[y[0::2]] = 1  # (g^i | p) = (-1)^i
    chi[y[1::2]] = -1
    chi[0] = 0
    chi[p:] = chi[:p]
    chi.flags.writeable = False  # shared by every later count at p
    # s = x^3/(x + 1) for x + 1 = y: (y - 1)^3 / y = y^2 - 3y + 3 - 1/y, with
    # y^2 = g^(2i) the even powers twice over, as p - 1 is even, and
    # 1/y = g^(-i) the powers read backwards
    half = y[0::2]
    s = np.concatenate((half, half))
    s -= 3 * y
    s[1:] -= y[:0:-1]
    s[0] -= 1
    s += 3
    s %= p
    w = np.bincount(s[0::2], minlength=p)  # chi(x + 1) = chi(g^i) = (-1)^i
    w -= np.bincount(s[1::2], minlength=p)
    w = w.astype(np.int16)
    w.flags.writeable = False  # shared by every later count at p
    return chi[:p], w


def legendre_sums(p: int, A, B):
    """sum_x (x^3+Ax+B | p) for a prime 5 <= p <= _CROSSOVER and any integer
    A, B, taken mod p: an int64 for one curve, or an array of k sums for A and
    B int64 arrays of shape (k, 1). A larger p has no character table and is refused."""
    chi = _table_and_weights(p)[0]
    x = np.arange(p, dtype=np.int64)
    f = x * x  # Horner: every intermediate stays below 2p^2 + p
    f %= p
    f = f + A % p  # a (k, p) array for a column of A; in place from here
    f *= x
    f += B % p
    f %= p
    return chi[f].sum(-1)  # int8 sums accumulate in int64


def _legendre_count(p: int, A: int, B: int) -> int:
    """p + 1 + sum_x (x^3+Ax+B | p)."""
    return p + 1 + int(legendre_sums(p, A, B))


def symbol(p: int):
    """x -> (x | p) for 0 <= x < p, at a prime p in [5, 2^60): the item
    lookup of a memoryview of p's character table up to _CROSSOVER, `jacobi`
    with p fixed above it, where no count builds a table. Any other p raises
    a ValueError naming it."""
    if p <= _CROSSOVER:
        return memoryview(_table_and_weights(p)[0]).__getitem__  # admits p
    _admit(p)
    return partial(jacobi, m=p)


def _normal_form_count(p: int, A: int, B: int) -> int:
    """p + 1 - (AB | p) a(t), t = A^3/B^2, for 0 < A, B < p and p <= _CROSSOVER."""
    chi, w = _table_and_weights(p)
    t = A * A * A * pow(B, -2, p) % p
    # corr = sum_s w(s) chi((t + s) mod p), one slice of the doubled table.
    # numpy's integer dot accumulates in a C long and casts the sum to int16,
    # which is exact: |corr| <= sum |w| <= p - 1 < 2^15
    corr = int(chi.base[t : t + p].dot(w))
    chi_minus_1 = 1 if p & 3 == 1 else -1  # (-1 | p)
    return p + 1 + int(chi[A * B % p]) * (chi_minus_1 + corr)


def normal_form_traces(p: int) -> np.ndarray:
    """a(t) for t != 0, -27/4 in F_p, increasing t, as int64: the traces of
    E_t: y^2 = x^3 + t x + t, by the correlation in the module docstring,
    taken through the float64 dot and exact. O(p^2) time, for a prime
    5 <= p <= _CROSSOVER, the primes with tables."""
    chi, w = _table_and_weights(p)
    chi = chi.base.astype(np.float64)  # the doubled table
    w = w.astype(np.float64)
    # corr[t] = sum_s w(s) chi((t + s) mod p) for 0 <= t < p, by the float64
    # dot; exact, as every partial sum is an integer of size at most
    # sum |w| <= p - 1 < 2^53
    corr = np.correlate(chi[:-1], w, "valid")
    keep = np.ones(p, dtype=bool)
    keep[[0, -27 * pow(4, -1, p) % p]] = False
    return (-chi[p - 1] - corr[keep]).astype(np.int64)


# Affine points are (x, y) tuples of ints in [0, p); None is the point at
# infinity. The curve is Y^2 = X^3 + aX + b; b never enters the formulas.


def _add(P, Q, a: int, p: int):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _mul(k: int, P, a: int, p: int):
    """[k]P for k >= 0, by left-to-right double-and-add in Jacobian
    coordinates: (X, Y, Z) is the point (X/Z^2, Y/Z^3), and Z = 0 is O.
    Input and output are affine, and the one modular inverse is taken at the
    end. An addition of R = +-P goes through `_add`."""
    if P is None or k == 0:
        return None
    x, y = P
    X, Y, Z = x, y, 1
    for bit in bin(k)[3:]:
        # R = 2R; Z becomes 0 at a point with Y = 0, of order 2
        YY = Y * Y % p
        S = 4 * X * YY % p
        ZZ = Z * Z % p
        M = (3 * X * X + a * ZZ * ZZ) % p
        X = (M * M - 2 * S) % p
        Z = 2 * Y * Z % p
        Y = (M * (S - X) - 8 * YY * YY) % p
        if bit == "0":
            continue
        if not Z:  # R = O
            X, Y, Z = x, y, 1
            continue
        # R = R + P, P affine
        ZZ = Z * Z % p
        H = (x * ZZ - X) % p
        r = (y * ZZ * Z - Y) % p
        if not H:  # R = P if r = 0, else R = -P
            R = _add((x, -y % p if r else y), P, a, p)
            X, Y, Z = (*R, 1) if R else (1, 1, 0)
            continue
        HH = H * H % p
        HHH = H * HH % p
        V = X * HH % p
        X = (r * r - HHH - 2 * V) % p
        Y = (r * (V - X) - Y * HHH) % p
        Z = Z * H % p
    if not Z:
        return None
    zi = pow(Z, -1, p)
    zz = zi * zi % p
    return X * zz % p, Y * zz * zi % p


def _bsgs(Q, kmin: int, kmax: int, a: int, p: int) -> int:
    """The order of Q, or the least k in [kmin >= 1, kmax] with [k]Q = O,
    where one such k lies in [kmin, kmax].

    Baby steps store x([j]Q) for j = 1..m; giant steps visit centres c =
    kmin + m, kmin + 3m + 1, ..., each covering [c - m, c + m]. A shared x
    means [c]Q = +-[j]Q, and the y-coordinates tell the sign. A baby step
    returns only the order itself: the first j with [j]Q = O or
    x([j]Q) = x([i]Q), i < j, has j or j + i equal to it. Past the baby
    steps the order is at least 2m, so a window holds one match, or two at
    its ends when [c]Q = [m]Q has y = 0 and c - m is returned. The windows
    go up from kmin, so the k returned is the least match >= kmin.
    """
    m = isqrt((kmax - kmin + 1) // 2) + 1
    baby: dict[int, tuple[int, int]] = {}
    R = None
    for j in range(1, m + 1):
        R = _add(R, Q, a, p)
        if R is None:
            return j
        hit = baby.get(R[0])
        if hit is not None:
            return j - hit[0] if hit[1] == R[1] else j + hit[0]
        baby[R[0]] = (j, R[1])
    G = _add(_add(R, R, a, p), Q, a, p)  # [2m + 1]Q
    c = kmin + m
    S = _mul(c, Q, a, p)
    while c - m <= kmax:
        if S is None:
            return c
        hit = baby.get(S[0])
        if hit is not None:
            return c - hit[0] if hit[1] == S[1] else c + hit[0]
        S = _add(S, G, a, p)
        c += 2 * m + 1
    raise ArithmeticError(f"count_points_prime: no group order in [{kmin}, {kmax}] at {p}")


def _fold_order(P, L: int, lo: int, hi: int, a: int, p: int) -> int:
    """lcm(L, order of P) = L * order of [L]P, or the group order itself,
    given that the group order is a multiple of L in [lo, hi].

    The group order is L k' for a match k' ([k'][L]P = O) in [kmin, kmax].
    `_bsgs` returns the order of [L]P or the least match k there; either
    way the order divides k and exceeds k - kmin, and the next match is k
    plus the order. So a second match lies in [kmin, kmax] only if the order
    is at most kmax - k, and the order is then the least divisor d of k in
    (k - kmin, kmax - k] with [d][L]P = O: the divisors there are tested in
    increasing order. If none is a match, L k is returned: a k below kmin
    came from the baby steps and is the order, and a k >= kmin is the only
    match, so L k is the group order; `_unique_count` then takes it at once,
    as its step, a multiple of L k >= lo, is wider than the Hasse interval.
    The range is empty when 2k >= kmin + kmax, and k is then not factored.
    When it holds more divisors than k has prime factors, counted with
    multiplicity, k is stripped prime by prime to the order instead, which
    takes no more scalar multiplications than that. Over 2000 seeded curves
    at primes in [1e5, 2e5], 0.51 matches per count fall in the lower half
    and the divisor test settles 0.48 of them; a count makes 0.60 scalar
    multiplications after its matches and takes 45 modular inverses.
    """
    Q = _mul(L, P, a, p)
    if Q is None:
        return L
    kmin, kmax = -(-lo // L), hi // L
    k = _bsgs(Q, kmin, kmax, a, p)
    if 2 * k >= kmin + kmax:
        return L * k
    factors = factor_small(k)
    divisors = [1]
    for q, e in factors:
        divisors = [d * q ** i for d in divisors for i in range(e + 1)]
    divisors = sorted(d for d in divisors if k - kmin < d <= kmax - k)
    if len(divisors) <= sum(e for _, e in factors):
        return L * next((d for d in divisors if _mul(d, Q, a, p) is None), k)
    for q, e in factors:  # strip k down to the order of Q
        for _ in range(e):
            if _mul(k // q, Q, a, p) is not None:
                break
            k //= q
    return L * k


def _unique_count(p: int, lo: int, hi: int, le: int, lt: int) -> int | None:
    """The one N in [lo, hi] with le | N and lt | 2p + 2 - N; None if there are several."""
    g = gcd(le, lt)
    s = 2 * p + 2
    step = le // g * lt
    if s % g == 0:
        t = s // g * pow(le // g, -1, lt // g) % (lt // g)  # le*t = 0 mod le, s mod lt
        N = lo + (le * t - lo) % step
        if N <= hi:
            return N if N + step > hi else None
    raise ArithmeticError(f"count_points_prime: orders {le}, {lt} fit no count at {p}")


def _bsgs_count(p: int, A: int, B: int) -> int:
    """#E(F_p) by Shanks-Mestre baby-step/giant-step, for 0 <= A, B < p, p > 229."""
    r = isqrt(4 * p)
    lo, hi = p + 1 - r, p + 1 + r
    L = [1, 1]  # lcm of the point orders seen on E and on its twist, or a group order
    for x0 in range(p):
        f = ((x0 * x0 + A) * x0 + B) % p
        if f == 0:
            continue
        side = (1 - jacobi(f, p)) // 2
        L[side] = _fold_order((x0 * f % p, f * f % p), L[side], lo, hi, A * f * f % p, p)
        N = _unique_count(p, lo, hi, L[0], L[1])
        if N is not None:
            return N
    raise ArithmeticError(f"count_points_prime: no unique count for ({A},{B}) mod {p}")


# Largest n the brute-force counter takes: `count` and `--oracle direct` refuse
# primes above it.
BRUTEFORCE_LIMIT = 10 ** 5


def count_affine_bruteforce(n: int, A: int, B: int) -> int:
    """#{(x,y) in (Z/n)^2 : y^2 = x^3 + Ax + B} by exhaustive enumeration."""
    if n < 2 or n > BRUTEFORCE_LIMIT:
        raise ValueError(f"count_affine_bruteforce: need 2 <= n <= {BRUTEFORCE_LIMIT}")
    y = np.arange(n, dtype=np.int64)
    nsqrt = np.bincount(y * y % n, minlength=n)
    f = (y * y % n * y + (A % n) * y + B % n) % n  # reuse y as the x range
    return int(nsqrt[f].sum())
