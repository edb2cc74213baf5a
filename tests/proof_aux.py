"""Exact checks of the paper's proof auxiliaries, divisor functions and a
totient sieve.

They are used only by the tests: the two checks are acceptance criterion 10,
tau, omega and euler_phi are the references for the census's closed-form
bounds, the sieve is the reference for euler_phi, and divisors serves the
divisor-sum identity of euler_phi. special_curves gives the curves of the
classes at j = 0 and j = 1728, whose traces the counting and census tests
check one curve at a time. argparse_reference is the command-line grammar
the CLI's one-pass parser is checked against.
"""

import argparse
import contextlib
import io
import math

from ecfactor.arith import factor_small, primes_between
from ecfactor.counting import discrete_logs


def tau(x: int) -> int:
    """Number of divisors."""
    out = 1
    for _, e in factor_small(x):
        out *= e + 1
    return out


def divisors(x: int) -> list[int]:
    """All divisors of x, sorted increasing."""
    out = [1]
    for p, e in factor_small(x):
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def omega(x: int) -> int:
    """Number of distinct prime factors."""
    return len(factor_small(x))


def euler_phi(x: int) -> int:
    out = x
    for p, _ in factor_small(x):
        out = out // p * (p - 1)
    return out


def primorial_check(l: int) -> bool:
    """Exact check that the product of the first l primes is >= l^l."""
    if not 1 <= l <= 64:
        raise ValueError("primorial_check: need 1 <= l <= 64")
    primes = primes_between(2, 400)  # 64th prime is 311
    prod = 1
    for q in primes[:l]:
        prod *= q
    return prod >= l ** l


def phi_lower_check(x: int) -> bool:
    """Check phi(x) > x / (4 ln x)."""
    if x < 3:
        raise ValueError("phi_lower_check: need x >= 3")
    return euler_phi(x) > x / (4 * math.log(x))


def totient_sieve(limit: int) -> list[int]:
    """phi(0..limit) in one sweep."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def special_curves(p: int) -> list[tuple[int, int]]:
    """One curve of each F_p-isomorphism class with j = 0 or j = 1728, for a
    prime 5 <= p <= 2^14: y^2 = x^3 + g^i for i < gcd(6, p - 1) and
    y^2 = x^3 + g^i x for i < gcd(4, p - 1), with g a primitive root, whose
    powers g^0, ..., g^(k-1) meet each coset of (F_p*)^k once."""
    g, _ = discrete_logs(p)
    curves = [(0, pow(g, i, p)) for i in range(math.gcd(6, p - 1))]
    return curves + [(pow(g, i, p), 0) for i in range(math.gcd(4, p - 1))]


def argparse_reference(argv: list[str]):
    """(command, values) that argparse reads from argv, or None when it
    refuses argv: the slow reference for `ecfactor.cli.parse`, the grammar of
    `ecfactor.cli.COMMANDS` built with argparse's subparsers. Unlike `parse`,
    argparse takes unambiguous prefixes of an option and reads a value like
    `-1,2` after `--opt` as an option, not a value."""
    parser = argparse.ArgumentParser(prog="ecfactor")
    sub = parser.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor")
    p_factor.add_argument("n", type=int)
    p_factor.add_argument("--D", type=int, default=12)
    p_factor.add_argument("--max-d", type=int, default=None)
    p_factor.add_argument("--max-curves", type=int, default=None)
    p_factor.add_argument("--seed", type=int, default=0)
    p_factor.add_argument("--oracle", choices=("factored", "direct"), default="factored")

    p_census = sub.add_parser("census")
    p_census.add_argument("--pmin", type=int, default=5)
    p_census.add_argument("--pmax", type=int, required=True)
    p_census.add_argument("--D-list", dest="D_list", default="1,2,3,5,10")
    p_census.add_argument("--out", default="-")
    p_census.add_argument("--classes-max", type=int, default=1000)

    p_count = sub.add_parser("count")
    p_count.add_argument("n", type=int)
    p_count.add_argument("A", type=int)
    p_count.add_argument("B", type=int)

    p_nr = sub.add_parser("nonresidue")
    p_nr.add_argument("p", type=int)
    p_nr.add_argument("m", type=int)
    p_nr.add_argument("--cap", type=int, default=10 ** 4)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            values = vars(parser.parse_args(argv))
    except SystemExit:
        return None
    return values.pop("command"), values
