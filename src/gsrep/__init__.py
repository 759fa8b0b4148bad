"""Minimal-energy subspace analysis for unitary matrix-group representations.

Subpackages by function:

- ``matcore``: dense complex linear algebra (eigendecompositions,
  commutants, compression).
- ``liealg``: matrix Lie algebras, derivation spectra, root data.
- ``irreps``: highest-weight construction, weights, decomposition.
- ``cones``: invariant positivity cones and the extension tests.
- ``groundstate``: minimal-energy analysis, strictness, spectral shifts.
- ``heisenfock``: truncated bosonic Fock space, Weyl operators,
  factorization checks.
- ``dirlim``: level-wise weight-cone classification for towers of
  unitary groups.
- ``cli``: JSON-reporting command line front end.
"""

__version__ = "0.1.0"
