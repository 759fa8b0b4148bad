"""Independent oracle for the benchmark's correctness checks.

Nothing here imports gsrep or numpy: every expected value is computed in
exact integer (or plain float) arithmetic from closed forms.

- Weight multisets of the u(n) irreducible with dominant weight lam come
  from enumerating Gelfand-Tsetlin patterns with top row lam; the pattern
  count is the dimension, and the Weyl product formula cross-checks it.
- The Hamiltonian -i dpi(d) of d = i diag(e) acts on a weight vector mu by
  the scalar <mu, e>, so the minimal energy m and the ground multiplicity
  follow from the weights alone.
- The weight-cone rule lam_m >= lam_n whenever e_n > e_m decides `dirlim`
  membership, integer antidominance for `cone-check`, and the
  antidominant side of `classify`.
- The rank-two pseudo-unitary predicates and the truncated Fock kernel
  count C(N + k0, k0) are the paper's closed forms.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

ENERGY_TOL = 1e-9


def _interlacing_rows(row: tuple[int, ...]):
    """All rows r of length len(row) - 1 with row[i] >= r[i] >= row[i + 1]."""
    ranges = [range(row[i + 1], row[i] + 1) for i in range(len(row) - 1)]
    return itertools.product(*ranges)


@lru_cache(maxsize=None)
def gt_weights(lam: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Sorted weight multiset of the u(n) irreducible lam, one entry per GT pattern.

    The weight of a pattern is mu_k = |row_k| - |row_{k-1}|, where row_k is
    the row of length k and |row_0| = 0.
    """
    lam = tuple(int(x) for x in lam)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"{lam} is not dominant")
    out = []

    def descend(row: tuple[int, ...], tail: tuple[int, ...]):
        if len(row) == 1:
            out.append((row[0],) + tail)
            return
        total = sum(row)
        for sub in _interlacing_rows(row):
            descend(tuple(sub), (total - sum(sub),) + tail)

    descend(lam, ())
    return tuple(sorted(out))


def weyl_dimension(lam) -> int:
    """prod_{i<j} (lam_i - lam_j + j - i) / (j - i), in exact arithmetic."""
    lam = [int(x) for x in lam]
    dim = Fraction(1)
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            dim *= Fraction(lam[i] - lam[j] + j - i, j - i)
    if dim.denominator != 1:
        raise ValueError(f"{lam} is not dominant")
    return int(dim)


def energy(mu, e) -> float:
    return float(sum(m * x for m, x in zip(mu, e)))


def ground_data(lam, e) -> tuple[float, int, list[tuple[int, ...]]]:
    """(m, ground multiplicity, sorted ground weights) of -i dpi(i diag(e))."""
    weights = gt_weights(tuple(lam))
    energies = [energy(mu, e) for mu in weights]
    m = min(energies)
    ground = [mu for mu, en in zip(weights, energies) if en <= m + ENERGY_TOL]
    return m, len(ground), sorted(ground)


def lowest_weight(lam, e) -> tuple[int, ...]:
    """The weight of lam minimizing <mu, e>; unique for regular e."""
    _, _, ground = ground_data(lam, e)
    if len(set(ground)) != 1:
        raise ValueError("lowest weight needs a regular element")
    return ground[0]


def cone_member(lam, e) -> bool:
    """Weight-cone rule: lam_m >= lam_n whenever e_n > e_m."""
    n = len(e)
    return all(lam[m] >= lam[k] for k in range(n) for m in range(n) if e[k] > e[m])


def cone_generator_count(e) -> int:
    """Number of level-cone generators i(E_mm - E_nn), one per pair e_n > e_m."""
    return sum(1 for a in e for b in e if a > b)


def su12_cone(lam) -> bool:
    l1, l2, l3 = (int(x) for x in lam)
    return l2 > l3 and l3 >= l1


def su12_hw_unitarizable(lam) -> bool:
    l1, l2, l3 = (int(x) for x in lam)
    return l2 > l3 and l3 - l1 >= 1


def fock_kernel_count(cutoff: int, zero_modes: int) -> int:
    """Occupation states of the zero modes with total number <= cutoff."""
    return math.comb(cutoff + zero_modes, zero_modes)
