"""Factoring squarefree integers by counting points on elliptic curves.

Library layout; each name is imported from the module that defines it,
for example `from ecfactor.reduction import factor_completely`:
  arith     - exact integer kernel (gcd, Jacobi symbols, factoring, sieving)
  curves    - Weierstrass (A, B) pairs mod n: twisting, screening, sampling
  counting  - exact point counts over F_p
  oracle    - black-box count oracles with one query counter
  reduction - the factoring algorithm driven by an oracle
  census    - empirical verification of the trace-counting lemmas
  cli       - command-line front end
"""

__version__ = "0.1.0"
