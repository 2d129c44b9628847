"""Exact-arithmetic toolkit for Gaussian polynomials and unimodality checks.

Import what you need from its submodules; the package itself exports only
``__version__``.

- ``polycore``: integer polynomials and coefficient-shape tests
  (unimodality, log-concavity, palindromicity, darga, gamma vectors as
  plain tuples, Sturm real-rootedness, the nondecreasing-coefficient shift test).
- ``qgauss``: q-integers, q-factorials, Gaussian polynomials by four independent
  routes, and the multiplicity-vector (KOH) sum with its width formulas in ``KOH_RULES``.
- ``injectlab``: partitions in a box, candidate level-raising rules, and
  exhaustive failure audits.
- ``posetlab``: subset lattice with antichain search and exact LYM sums,
  the weak order's inversion polynomial and cover count, set partitions,
  Eulerian polynomials.
- ``pathlab``: lattice paths, reflection across the line x - y = c, path counts.
- ``criteria``: the acceptance checks shared by the test suite and ``report``.
- ``cli``: the command-line surface.
- ``errors``: the exceptions that are not ``ValueError``.
"""

__version__ = "0.1.0"
