"""The three workloads that call gsrep inside the benchmark process.

Each class computes its oracle expectations once, in ``__init__``, and
builds its inputs (algebras, irreducibles, direct sums) in ``setup``,
which the driver times and repeats.  Operations look gsrep functions up
as module attributes during set-up or later, never at import, so a
traced run, which installs its wrappers before set-up, sees every call.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

import numpy as np

from gsrep import cones, groundstate, irreps, liealg

import fixtures
import oracle
from fixtures import Op, expect

ENERGY_TOL = 1e-8
RESIDUAL_BOUND = 1e-8


# Bound at import, before a traced run wraps numpy.linalg, so that the
# warm-up is never counted as gsrep's LAPACK work.
_svd, _eigh = np.linalg.svd, np.linalg.eigh


def lapack_warmup() -> None:
    """One SVD and one eigh of a 200 x 200 complex matrix."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(200, 200)) + 1j * rng.normal(size=(200, 200))
    _svd(a)
    _eigh(a + a.conj().T)


def _near(a: float, b: float) -> bool:
    return abs(a - b) <= ENERGY_TOL * (1.0 + abs(b))


class AnalyzeIrreducible:
    """analyze + cone test on pi0 for the 390 compact fixtures."""

    def __init__(self):
        self.fixtures = fixtures.irreducible_fixtures()
        self.expected = {(lam, e): oracle.ground_data(lam, e)[:2]
                         for _, _, lam, e in self.fixtures}

    def setup(self) -> list[list[Op]]:
        algebras = {key: liealg.build_algebra(*key) for key in fixtures.D_LISTS}
        reps = {}
        units = []
        for kind, n, lam, e in self.fixtures:
            g = algebras[(kind, n)]
            if (kind, lam) not in reps:
                reps[(kind, lam)] = irreps.irrep(g, lam)
            d = liealg.diagonal_element(g, e)
            units.append([Op(f"{kind}({n}) {lam} d={e}",
                             partial(self._run, g, reps[(kind, lam)], d),
                             partial(self._check, *self.expected[(lam, e)]))])
        lapack_warmup()
        return units

    @staticmethod
    def _run(g, rep, d):
        out = groundstate.analyze(rep, d)
        dd = liealg.spectral_split(g, d)
        return out, cones.check_cone_positivity(g, dd, out.pi0)

    @staticmethod
    def _check(m, h0_dim, result) -> None:
        out, cone = result
        expect(_near(out.m, m), f"m {out.m} != oracle {m}")
        expect(out.h0_dim == h0_dim, f"h0_dim {out.h0_dim} != oracle {h0_dim}")
        expect(out.ground_state and out.strict, "not a strict ground state")
        expect(out.commutant_dims[0] == out.commutant_dims[1] == 1,
               f"commutant dims {out.commutant_dims} not scalar")
        expect(cone.verdict, "cone test on pi0 failed")


class AnalyzeReducible:
    """analyze on direct sums, plus the two-block Heisenberg fixture."""

    def __init__(self):
        self.cases = []
        for summands in fixtures.REDUCIBLE_SUMS:
            for e in fixtures.REDUCIBLE_D[len(summands[0])]:
                data = [oracle.ground_data(lam, e) for lam in summands]
                self.cases.append((summands, e, (
                    min(m for m, _, _ in data),
                    sum(mult for _, mult, _ in data),
                    sum(c * c for c in Counter(summands).values()),
                )))

    def setup(self) -> list[list[Op]]:
        algebras = {n: liealg.build_algebra("u", n) for n in fixtures.REDUCIBLE_D}
        sums = {}
        units = []
        for summands, e, expected in self.cases:
            g = algebras[len(e)]
            if summands not in sums:
                sums[summands] = irreps.direct_sum([irreps.irrep(g, lam) for lam in summands])
            d = liealg.diagonal_element(g, e)
            units.append([Op(f"{summands} d={e}", partial(groundstate.analyze, sums[summands], d),
                             partial(self._check, *expected))])
        h = liealg.build_algebra("heis", 2)
        dpi = np.zeros((3, 2, 2), dtype=complex)
        dpi[2] = 1j * np.diag([1.0, 2.0])
        heis = irreps.Representation(h, dpi)
        units.append([Op("heis(2) two-block", partial(groundstate.analyze, heis,
                                                       np.array([0.0, 1.0, 0.0])),
                         self._check_heisenberg)])
        lapack_warmup()
        return units

    @staticmethod
    def _check(m, h0_dim, comm_dim, out) -> None:
        expect(out.ground_state, "direct sum is not a ground state")
        expect(_near(out.m, m), f"m {out.m} != smallest summand minimum {m}")
        expect(out.h0_dim == h0_dim, f"h0_dim {out.h0_dim} != summed oracle {h0_dim}")
        expect(out.commutant_dims[0] == comm_dim,
               f"commutant dim {out.commutant_dims[0]} != sum of squared multiplicities {comm_dim}")

    @staticmethod
    def _check_heisenberg(out) -> None:
        expect(out.ground_state and not out.strict, "expected a non-strict ground state")


class IrrepBuild:
    """irreps.irrep from scratch for weights of tensor degree 4-9."""

    def __init__(self):
        self.expected = {lam: oracle.gt_weights(lam) for lam in fixtures.IRREP_WEIGHTS}

    def setup(self) -> list[list[Op]]:
        algebras = {n: liealg.build_algebra("u", n)
                    for n in sorted({len(lam) for lam in fixtures.IRREP_WEIGHTS})}
        units = [[Op(f"u({len(lam)}) {lam}", partial(irreps.irrep, algebras[len(lam)], lam),
                     partial(self._check, lam, self.expected[lam]))]
                 for lam in fixtures.IRREP_WEIGHTS]
        lapack_warmup()
        return units

    @staticmethod
    def _check(lam, weights, rep) -> None:
        expect(rep.dim == oracle.weyl_dimension(lam) == len(weights),
               f"dim {rep.dim} != Weyl dimension {oracle.weyl_dimension(lam)}")
        expect(tuple(irreps.weights_of(rep)) == weights, "weight multiset differs from GT")
        rd = liealg.root_datum(rep.algebra, np.zeros(rep.algebra.dim))
        top = irreps.extremal_weight(rep, rd, "highest")
        expect(top == lam, f"highest weight {top} != {lam}")
        expect(rep.homomorphism_residual() <= RESIDUAL_BOUND, "homomorphism residual too large")
        expect(rep.anti_hermitian_residual() <= RESIDUAL_BOUND, "generators not anti-Hermitian")
