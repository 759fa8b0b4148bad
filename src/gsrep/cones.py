"""Invariant positivity cones and the extension tests.

The action cone of a derivation D lives in the fixed-point algebra
``g^0 = ker D`` and, for diagonalizable D, is generated by the elements
``i [z^*, z]`` with z running over the positive eigenspaces of ``-i D``.
A representation of g^0 can arise on a minimal-energy subspace only if
every generator maps to a positive-semidefinite operator; on compact
fixtures this is equivalent to antidominance of the occurring weights
against the d-positive roots, tested here through the coroot operators.

When a positive eigenspace has dimension > 1 the honest generator set is
the full quadratic family {i[z^*, z]}; membership is then decided on the
basis generators plus seeded random samples and the verdict is flagged as
sampled rather than exhaustive.

PSD decisions are batched: one ``eigvalsh`` over one stack of operators
``-i dpi0(x)``, the stored generators and then the samples, decides each at
``-PSD_TOL * (1 + ||op||)``, and the stack is scanned in that order, so the
first failure is the one a loop finds; an exactly diagonal stack needs no
``eigvalsh``.  The stack depends on (g, d) and the seed alone, so it is
memoized on g, and its rows in
rep0's coordinates are memoized on rep0's algebra: for the pi0 of
:func:`groundstate.analyze` that is the g^0 the (g, d) memo keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotDiagonalizable, NotHermitian
from .irreps import Representation
from .liealg import DerivationData, MatrixLieAlgebra, RootDatum, _frozen, _memoized

PSD_TOL = 1e-8
REAL_TOL = 1e-9  # relative imaginary part up to which a generator i[z^*, z] is real
CONE_SAMPLES = 32  # seeded samples per positive eigenspace of dimension > 1


@dataclass
class ConeDescription:
    """Finitely generated convex cone in the fixed-point algebra.

    Generators are real coefficient vectors over the ambient algebra basis;
    ``provenance[k]`` records how generator k arose: ``("basis", eig, i)``
    for the i-th orthonormal vector of the eigenspace at ``eig``, and
    ``("mixed", eig, a, b, phase)`` for a two-vector sample.
    """

    algebra: MatrixLieAlgebra
    generators: np.ndarray  # (G, dim) float
    provenance: list[tuple]

    @property
    def size(self) -> int:
        return self.generators.shape[0]


@dataclass
class ConeTestResult:
    verdict: bool
    witness: Optional[np.ndarray] = None
    witness_provenance: Optional[tuple] = None
    sampled: bool = False
    checked: int = 0

    def __bool__(self) -> bool:  # allow `if result:`
        return self.verdict


def _bracket_generators(g: MatrixLieAlgebra, zs: list) -> np.ndarray:
    """i [z^*, z] for every z in ``zs``, as real rows (imaginary parts must cancel to ``REAL_TOL``)."""
    zs = np.array(zs, dtype=complex).reshape(len(zs), g.dim)
    gens = 1j * np.einsum("ai,aj,ijk->ak", -zs.conj(), zs, g.structure)
    if np.any(np.linalg.norm(gens.imag, axis=1) > REAL_TOL * np.maximum(1.0, np.linalg.norm(gens, axis=1))):
        raise ValueError("cone generator is not a real element; inconsistent eigendata")
    return gens.real


def _local_rows(rep0: Representation, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``xs`` in rep0's local coordinates, and which lie outside its algebra."""
    xs = np.asarray(xs, dtype=complex)
    if rep0.ambient_coeffs is None:
        return xs, np.zeros(len(xs), dtype=bool)
    return rep0.local_coeffs(xs)


def _frobenius(ops: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a C-contiguous complex stack, in one reduction."""
    parts = ops.view(float)
    return np.sqrt(np.einsum("gjk,gjk->g", parts, parts))


def _first_outside_psd(rep0: Representation, xs: np.ndarray, outside: np.ndarray,
                       tol: float) -> Optional[int]:
    """Index of the first row x of ``xs`` with ``-i dpi0(x)`` not PSD, or None.

    ``xs, outside`` are as :func:`_local_rows` gives them.  In row order, the
    first row outside the subalgebra raises ValueError and the first
    non-Hermitian operator NotHermitian, on either path for a NaN or
    infinite input.  An empty stack returns None.  The lowest eigenvalues
    of an exactly diagonal stack (every stack on a line) are read off its
    real diagonal, of any other from one ``eigvalsh``, which sees zero in
    place of a non-Hermitian operator.
    """
    if xs.shape[1:] != (rep0.algebra.dim,):
        raise DimensionMismatch(f"expected {rep0.algebra.dim} coefficients")
    if not len(xs):
        return None
    ops = -1j * np.einsum("gi,ijk->gjk", xs, rep0.dpi)
    adj = ops.conj().transpose(0, 2, 1)
    norms = _frobenius(ops)
    # -1j * inf has a NaN part, so a non-finite input leaves NaN in ops, and
    # these NaN-safe tests fail a NaN deviation or eigenvalue
    hermitian = _frobenius(ops - adj) <= 1e-7 * np.maximum(norms, 1.0)
    diag = np.diagonal(ops, axis1=1, axis2=2)
    try:
        if np.count_nonzero(ops) == np.count_nonzero(diag):
            lowest = diag.real.min(axis=1)
        else:
            herm = (ops + adj) / 2.0
            if not hermitian.all():
                herm[~hermitian] = 0.0
            lowest = np.linalg.eigvalsh(herm)[:, 0]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(str(exc)) from exc
    failing = np.flatnonzero(outside | ~(hermitian & (lowest >= -tol * (1.0 + norms))))
    if failing.size == 0:
        return None
    k = int(failing[0])
    if outside[k]:
        raise ValueError("element does not lie in the represented subalgebra")
    if not hermitian[k]:
        raise NotHermitian(f"deviation {np.linalg.norm(ops[k] - adj[k]):.3e} of an operator of norm "
                           f"{norms[k]:.3e} exceeds tolerance")
    return k


def action_cone_generators(g: MatrixLieAlgebra, dd: DerivationData) -> ConeDescription:
    """Generators i[z^*, z] over the positive eigenspaces of ``-i D``.

    For each eigenspace an orthonormal basis contributes one generator per
    vector; eigenspaces of dimension > 1 additionally contribute the mixed
    samples (x_a + eps x_b)/sqrt(2) for eps in {1, i}, since basis vectors
    alone do not generate the cone there.
    """
    if not dd.diagonalizable:
        raise NotDiagonalizable("the action cone requires a diagonalizable derivation")
    zs: list[np.ndarray] = []
    prov: list[tuple] = []
    for lam, space in dd.positive():
        r = space.shape[1]
        zs += list(space.T)
        prov += [("basis", float(lam.real), a) for a in range(r)]
        for a in range(r):
            for b in range(a + 1, r):
                for phase in (1.0, 1.0j):
                    zs.append((space[:, a] + phase * space[:, b]) / np.sqrt(2.0))
                    prov.append(("mixed", float(lam.real), a, b, "i" if phase == 1.0j else "1"))
    return ConeDescription(g, _bracket_generators(g, zs), prov)


def _cone_stack(g: MatrixLieAlgebra, dd: DerivationData, seed: int) -> tuple[np.ndarray, tuple, bool]:
    """The action cone's generators, then ``CONE_SAMPLES`` seeded samples per positive eigenspace of dim > 1.

    Returns the read-only rows, their provenance (k of ``("sample", eig, k)``
    counts within its eigenspace) and whether any eigenspace was sampled.
    An inner derivation's entry is memoized on ``g`` under its element and
    the seed: :func:`liealg.spectral_split` returns one split per (g, d).
    """

    def build():
        cone = action_cone_generators(g, dd)
        rows, prov, sampled = [cone.generators], cone.provenance, False
        rng = np.random.default_rng(seed)
        for lam, space in dd.positive():
            r = space.shape[1]
            if r <= 1:
                continue
            sampled = True
            # the stream of one real and one imaginary draw per sample
            raw = rng.normal(size=(CONE_SAMPLES, 2, r))
            raw = raw[:, 0] + 1j * raw[:, 1]
            rows.append(_bracket_generators(g, [space @ (u / np.linalg.norm(u)) for u in raw]))
            prov += [("sample", float(lam.real), k) for k in range(CONE_SAMPLES)]
        return _frozen(np.concatenate(rows)), tuple(prov), sampled

    if dd.element is None:
        return build()
    return _memoized(g, ("action cone", seed), dd.element, build)


def in_positive_cone(rep0: Representation, x: np.ndarray) -> bool:
    """True iff ``-i dpi0(x)`` is positive semidefinite within ``PSD_TOL``."""
    return _first_outside_psd(rep0, *_local_rows(rep0, np.asarray(x)[None]), PSD_TOL) is None


def check_cone_positivity(g: MatrixLieAlgebra, dd: DerivationData, rep0: Representation,
                          tol: float = PSD_TOL, seed: int = 0) -> ConeTestResult:
    """Decide whether the action cone maps into the positive cone of rep0.

    Checks every stored generator, then ``CONE_SAMPLES`` random unit vectors per
    positive eigenspace of dimension > 1 (quadratic-form robustness).  On
    failure the first violating generator is returned as a witness.  The
    stack's local rows are memoized on ``rep0.algebra``, keyed on the stack
    and the read-only embedding by identity; the entry holds both.
    """
    stack, prov, sampled = _cone_stack(g, dd, seed)
    emb = rep0.ambient_coeffs
    key = ("cone rows", id(stack), id(emb))
    entry = rep0.algebra._memo.get(key)
    if entry is None:
        xs, outside = _local_rows(rep0, stack)
        entry = rep0.algebra._memo[key] = (stack, emb, _frozen(xs), _frozen(outside))
    k = _first_outside_psd(rep0, *entry[2:], tol)
    if k is None:
        return ConeTestResult(True, sampled=sampled, checked=len(stack))
    return ConeTestResult(False, stack[k].copy(), prov[k], sampled=prov[k][0] == "sample", checked=k + 1)


def coroot_condition(rep0: Representation, rd: RootDatum, tol: float = PSD_TOL) -> bool:
    """True iff dpi0 of every d-positive coroot is negative semidefinite.

    The coroot element is stored as i(E_ii - E_jj), so the Hermitian coroot
    operator is ``-i dpi0`` of it; its maximal eigenvalue must not exceed
    the tolerance for any root with positive value on -i d.
    """
    return _first_outside_psd(rep0, *_local_rows(rep0, -rd.coroots[list(rd.delta_plus_plus)]), tol) is None


# ---------------------------------------------------------------------------
# the rank-two pseudo-unitary example: pure integer predicates


def su12_cone_condition(lam: Sequence[int]) -> bool:
    """Cone positivity for the 2+1 pseudo-unitary block fixture.

    For the fixed-point group of conjugation by i*diag(1,-1,-1), a weight
    (l1, l2, l3) with l2 > l3 satisfies the cone condition iff l3 >= l1.
    """
    l1, l2, l3 = (int(x) for x in lam)
    return l2 > l3 and l3 >= l1


def su12_hw_unitarizable(lam: Sequence[int]) -> bool:
    """Existence of the corresponding unitary highest-weight representation.

    Strictly stronger than :func:`su12_cone_condition`: requires
    l3 - l1 >= 1 (with l2 > l3), so cone positivity is necessary but not
    sufficient for extendability in this non-compact example.
    """
    l1, l2, l3 = (int(x) for x in lam)
    return l2 > l3 and l3 - l1 >= 1
