"""Weierstrass curves y^2 = x^3 + Ax + B over Z/nZ.

Every operation that takes a gcd against the modulus can stumble on a
nontrivial factor of n; that outcome is surfaced as `FactorFound` so the
factoring driver can stop immediately.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

SMOOTH = "smooth"
SINGULAR = "singular"
RELATED = "related"
UNRELATED = "unrelated"
FACTOR = "factor"


class FactorFound(Exception):
    """A gcd with the modulus came out nontrivial: the algorithm is done."""

    def __init__(self, factor: int, modulus: int):
        super().__init__(f"found factor {factor} of {modulus}")
        self.factor = factor
        self.modulus = modulus


class CurveSupplyExhausted(Exception):
    """sample_curve hit its redraw cap without producing a fresh curve."""


@dataclass(frozen=True)
class Curve:
    n: int
    A: int
    B: int


@dataclass(frozen=True)
class GcdClass:
    kind: str  # SMOOTH | SINGULAR, UNRELATED | RELATED, or FACTOR
    factor: int | None = None


def _classify_gcd(x: int, n: int, unit: str, full: str) -> GcdClass:
    """Sort gcd(x, n) into a unit, a proper factor of n, or n itself."""
    g = gcd(x % n, n)
    if g == 1:
        return GcdClass(unit)
    if g == n:
        return GcdClass(full)
    return GcdClass(FACTOR, g)


def screen(n: int, A: int, B: int) -> GcdClass:
    """Classify gcd(4A^3 + 27B^2, n): unit, proper factor, or fully singular."""
    if n < 2:
        raise ValueError("screen: modulus must be >= 2")
    return _classify_gcd(4 * A ** 3 + 27 * B ** 2, n, SMOOTH, SINGULAR)


def twist(c: Curve, d: int) -> Curve:
    """Quadratic twist by d: (A, B) -> (A d^2, B d^3) mod n. Needs gcd(d,n)=1."""
    g = gcd(d, c.n)
    if g != 1:
        raise ValueError(f"twist: gcd(d, n) = {g} != 1; treat it as a found factor")
    return Curve(c.n, c.A * d * d % c.n, c.B * d ** 3 % c.n)


def isomorphic_gcd(c1: Curve, c2: Curve) -> GcdClass:
    """Necessary-condition isomorphism test: gcd(B2^2 A1^3 - A2^3 B1^2, n).

    Unit gcd means the curves share no isomorphism mod any prime of n; full
    gcd means they are related (isomorphic or twists) mod every prime; a
    proper gcd is a factor of n.
    """
    if c1.n != c2.n:
        raise ValueError("isomorphic_gcd: mismatched moduli")
    return _classify_gcd(
        c2.B ** 2 * c1.A ** 3 - c2.A ** 3 * c1.B ** 2, c1.n, UNRELATED, RELATED
    )


def sample_curve(n: int, rng: random.Random, used: list[Curve]) -> Curve:
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
        s = screen(n, A, B)
        if s.kind == FACTOR:
            raise FactorFound(s.factor, n)
        if s.kind == SINGULAR:
            continue
        c = Curve(n, A, B)
        fresh = True
        for prev in used:
            r = isomorphic_gcd(prev, c)
            if r.kind == FACTOR:
                raise FactorFound(r.factor, n)
            if r.kind == RELATED:
                fresh = False
                break
        if fresh:
            return c
    raise CurveSupplyExhausted(
        f"no fresh curve mod {n} in {max_attempts} draws ({len(used)} used)"
    )
