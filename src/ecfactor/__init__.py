"""Factoring squarefree integers by counting points on elliptic curves.

Library layout:
  arith     - exact integer kernel (gcd, Jacobi symbols, factoring, sieving)
  curves    - Weierstrass curves mod n, twisting, screening, sampling
  counting  - exact point counts over F_p
  oracle    - black-box count oracles with one query counter
  reduction - the factoring algorithm driven by an oracle
  census    - empirical verification of the trace-counting lemmas
  cli       - command-line front end
"""

from .arith import is_probable_prime, jacobi
from .counting import count_points_prime
from .curves import Curve, FactorFound, sample_curve, screen, twist
from .oracle import DirectOracle, FactoredOracle
from .reduction import (
    FactorizationResult,
    ReductionConfig,
    SplitOutcome,
    factor_completely,
    recover_from_ratio,
    split,
)

__all__ = [
    "Curve",
    "DirectOracle",
    "FactorFound",
    "FactoredOracle",
    "FactorizationResult",
    "ReductionConfig",
    "SplitOutcome",
    "count_points_prime",
    "factor_completely",
    "is_probable_prime",
    "jacobi",
    "recover_from_ratio",
    "sample_curve",
    "screen",
    "split",
    "twist",
]

__version__ = "0.1.0"
