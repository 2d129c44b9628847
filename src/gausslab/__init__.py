"""Exact-arithmetic toolkit for Gaussian polynomials and unimodality checks.

Submodules:

- ``polycore``: integer polynomials and coefficient-shape tests
  (unimodality, log-concavity, palindromicity, darga, gamma vectors,
  Sturm real-rootedness, the nondecreasing-coefficient shift test).
- ``qgauss``: q-integers, q-factorials, Gaussian polynomials by four independent
  routes, and the multiplicity-vector (KOH) sum with its width formulas in ``KOH_RULES``.
- ``injectlab``: partitions in a box, candidate level-raising rules, and
  exhaustive failure audits.
- ``posetlab``: subset lattice with antichain search and exact LYM sums,
  weak order on permutations, set partitions, Eulerian polynomials.
- ``pathlab``: lattice paths, grid-invariant reflection, path counts.
- ``criteria``: the acceptance checks shared by the test suite and ``report``.
- ``cli``: the command-line surface.
"""

from .polycore import IntPoly, GammaVector
from .qgauss import KOH_RULES
from .injectlab import AuditReport, BoxedPartition, InjectionRule
from .posetlab import RankedPoset
from .pathlab import GridLine, LineOrientation

__all__ = [
    "IntPoly",
    "GammaVector",
    "KOH_RULES",
    "AuditReport",
    "BoxedPartition",
    "InjectionRule",
    "RankedPoset",
    "GridLine",
    "LineOrientation",
]

__version__ = "0.1.0"
