"""Weierstrass curves y^2 = x^3 + Ax + B over Z/nZ, as (A, B) pairs.

A curve is its pair of coefficients; every function takes the modulus n
beside it, as the oracle's `query(m, A, B)` does. Every operation that
takes a gcd against the modulus can stumble on a nontrivial factor of n.
`screen` and `isomorphic_gcd` return that gcd as it stands: 1, n, or a
proper factor. `sample_curve` surfaces a proper factor as `FactorFound`,
whose `source` is "screen_gcd" or "iso_gcd", so the factoring driver can
stop immediately. Those are two of the six sources of
`reduction.SplitOutcome`; the others are "ratio", "d_gcd",
"curves_exhausted" and "supply_exhausted".
"""

from __future__ import annotations

import random
from math import gcd


class FactorFound(Exception):
    """A gcd with the modulus came out nontrivial: the algorithm is done."""

    def __init__(self, factor: int, source: str):
        super().__init__(f"found factor {factor} by {source}")
        self.factor = factor
        self.source = source  # "screen_gcd" or "iso_gcd"


class CurveSupplyExhausted(Exception):
    """sample_curve hit its redraw cap without producing a fresh curve."""


def screen(n: int, A: int, B: int) -> int:
    """gcd(4A^3 + 27B^2, n): 1 when the curve is smooth mod every prime of n,
    n when it is singular mod all of them, and otherwise a proper factor."""
    if n < 2:
        raise ValueError("screen: modulus must be >= 2")
    return gcd((4 * A ** 3 + 27 * B ** 2) % n, n)


def twist(n: int, A: int, B: int, d: int) -> tuple[int, int]:
    """Quadratic twist by d: (A d^2, B d^3) mod n. Needs gcd(d, n) = 1."""
    g = gcd(d, n)
    if g != 1:
        raise ValueError(f"twist: gcd(d, n) = {g} != 1; treat it as a found factor")
    return A * d * d % n, B * d ** 3 % n


def isomorphic_gcd(n: int, c1: tuple[int, int], c2: tuple[int, int]) -> int:
    """Necessary-condition isomorphism test: gcd(B2^2 A1^3 - A2^3 B1^2, n).

    1 means the curves share no isomorphism mod any prime of n; n means
    they are related (isomorphic or twists) mod every prime; anything else
    is a proper factor of n.
    """
    (A1, B1), (A2, B2) = c1, c2
    return gcd((B2 ** 2 * A1 ** 3 - A2 ** 3 * B1 ** 2) % n, n)


def sample_curve(n: int, rng: random.Random, used: list[tuple[int, int]]) -> tuple[int, int]:
    """Draw a uniform smooth curve mod n, unrelated to every curve in `used`.

    Raises FactorFound the moment any screening gcd is a proper factor, and
    CurveSupplyExhausted after 64*len(used) + 64 draws.
    """
    if n < 5:
        raise ValueError("sample_curve: modulus must be >= 5")
    max_attempts = 64 * len(used) + 64
    for _ in range(max_attempts):
        A = rng.randrange(n)
        B = rng.randrange(n)
        g = screen(n, A, B)
        if g == n:
            continue
        if g > 1:
            raise FactorFound(g, "screen_gcd")
        fresh = True
        for prev in used:
            g = isomorphic_gcd(n, prev, (A, B))
            if g == n:
                fresh = False
                break
            if g > 1:
                raise FactorFound(g, "iso_gcd")
        if fresh:
            return A, B
    raise CurveSupplyExhausted(
        f"no fresh curve mod {n} in {max_attempts} draws ({len(used)} used)"
    )
