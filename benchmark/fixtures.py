"""The fixed inputs of every workload, as plain data.

The seed passed to the benchmark only permutes the order in which these
are run within a pass; every pass runs all of them, so the work of a pass
does not depend on the seed.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple

# analyze-irreducible: the compact fixtures of acceptance criteria 02-03,
# dominant weights in [-2, 2]^n (su(3): classes normalized to a last entry
# of 0) against six diagonal generators each, regular and singular.
D_LISTS = {
    ("u", 2): [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (3.0, -1.0)],
    ("u", 3): [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0),
               (2.0, 1.0, 0.0), (0.0, 1.0, 2.0), (1.0, -1.0, 0.0)],
    ("su", 3): [(0.0, 0.0, 0.0), (1.0, 0.0, -1.0), (1.0, 1.0, -2.0),
                (2.0, -1.0, -1.0), (1.0, -1.0, 0.0), (3.0, -1.0, -2.0)],
}


def dominant_box(n: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """All weakly decreasing integer n-tuples with entries in [lo, hi]."""
    return [lam for lam in itertools.product(range(hi, lo - 1, -1), repeat=n)
            if all(lam[i] >= lam[i + 1] for i in range(n - 1))]


def su_classes(n: int, lo: int, hi: int) -> list[tuple[int, ...]]:
    """Distinct su(n) classes of the box, normalized to last entry 0."""
    return sorted({tuple(x - lam[-1] for x in lam) for lam in dominant_box(n, lo, hi)},
                  reverse=True)


def irreducible_fixtures() -> list[tuple[str, int, tuple[int, ...], tuple[float, ...]]]:
    out = []
    for kind, n in (("u", 2), ("u", 3), ("su", 3)):
        box = dominant_box(n, -2, 2) if kind == "u" else su_classes(n, -2, 2)
        for lam in box:
            for e in D_LISTS[(kind, n)]:
                out.append((kind, n, lam, e))
    return out


# analyze-reducible: direct sums of u(2)/u(3) irreducibles, with and
# without repeated summands, each against three generators (d = 0 only for
# u(2); on u(3) it is the costly case analyze-irreducible already covers).
# The list is chosen so that the median operation falls inside the group of
# 12-16 ms sums rather than at its edge, where it would jump between groups.
REDUCIBLE_SUMS = [
    ((2, 0), (1, 0)),
    ((1, 0), (1, 0)),
    ((3, 0), (1, -1), (1, -1)),
    ((2, 1), (0, 0), (1, 0)),
    ((3, 1, 0), (2, 1, 0)),
    ((1, 0, 0), (1, 0, 0), (0, 0, -1)),
    ((2, 0, 0), (1, 1, 0)),
    ((2, 1, 0), (2, 1, 0)),
    ((1, 0, 0), (2, 1, 0)),
]
REDUCIBLE_D = {
    2: [(2.0, 1.0), (1.0, 0.0), (0.0, 0.0)],
    3: [(2.0, 1.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0)],
}

# irrep-build: weights of tensor degree k = sum(lam - lam_n) from 4 to 9,
# Weyl dimensions 42-64.  An odd count puts the median on one weight.
IRREP_WEIGHTS = [
    (5, 2, 0),
    (5, 3, 0),
    (6, 2, 0),
    (6, 3, 0),
    (3, 1, 0, 0),
    (3, 2, 1, 0),
    (2, 1, 1, 0, 0),
]

# cli-jobs: one fresh interpreter per job.  CACHE_DIR is relative to the
# checkout root, so the reports, which echo it, have the same bytes in
# every checkout.
CACHE_DIR = "benchmark/out/irrep-cache"
DIRLIM = {"lam": (0, 1, 2), "d": (3.0, 2.0, 1.0)}
CONE = {"n": 3, "d": (2.0, 1.0, 0.0), "weight": (1, 0, 2)}
SU12_WEIGHT = (0, 1, 0)
CLASSIFY = {"n": 2, "d": (2.0, 1.0), "box": 3}
ANALYZE = {"n": 3, "d": (1.0, 0.0, 0.0), "weight": (2, 1, 0)}
SWEEP_CASES = 1000
FOCK_JOBS = [
    {"modes": 1, "cutoffs": (10, 20, 40), "zero_modes": 1},
    {"modes": 2, "cutoffs": (8, 16, 24), "zero_modes": 1},
]
# A job that fails on this code: the su(3) generator 1,0,0 is not traceless,
# liealg.diagonal_element raises ValueError and cli.main lets it escape as a
# traceback with exit status 1.  It counts as failed until it exits 2 with a
# one-line error.
FAULTY_ANALYZE = {"group": "su", "n": 3, "d": (1.0, 0.0, 0.0), "weight": (1, 0, 0)}


def all_weights() -> set[tuple[int, ...]]:
    """Every u(n) dominant weight whose irreducible a workload builds or checks."""
    weights = {lam for _, _, lam, _ in irreducible_fixtures()}
    weights.update(lam for summands in REDUCIBLE_SUMS for lam in summands)
    weights.update(IRREP_WEIGHTS)
    weights.add(ANALYZE["weight"])
    weights.update(dominant_box(CLASSIFY["n"], -CLASSIFY["box"], CLASSIFY["box"]))
    return weights


class Mismatch(Exception):
    """An output that disagrees with the oracle or with a required property."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


class Op(NamedTuple):
    """One timed call into gsrep and the check of its result.

    ``check`` raises on a wrong result.  For a ``known_fault`` operation a
    raising check counts the operation as failed instead of incorrect.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    known_fault: bool = False
