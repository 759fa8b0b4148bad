"""Test oracles kept out of the package: literal algebra closure and strictness, and the direct-sum law.

``algebra_closure`` (from ``matcore``), ``is_strict`` and
``direct_sum_law`` (from ``groundstate``) are kept here verbatim.
``analyze`` decides strictness as an equality of commutant dimensions;
``is_strict`` compares the compressed algebra with the one the
fixed-point action generates, and so checks that decision independently.
"""

from typing import Sequence

import numpy as np

from gsrep.errors import DimensionMismatch
from gsrep.groundstate import GroundStateReport, analyze
from gsrep.irreps import Representation, direct_sum
from gsrep.matcore import (DEFAULT_TOL, OperatorSubspace, _as_ops, _check_square_same_dim,
                           compress, numerical_rank, span_basis)


def algebra_closure(ops, include_identity: bool = True, tol: float = DEFAULT_TOL) -> OperatorSubspace:
    """Smallest subspace containing ``ops`` closed under the matrix product.

    Grows degree by degree: new words are products of the previous frontier
    with the generators on either side, orthonormalized against the span so
    far; terminates when the dimension stabilizes (bounded by d^2, which
    suffices at finite dimension by Cayley--Hamilton saturation).
    """
    mats = _as_ops(ops)
    if not mats:
        raise DimensionMismatch("algebra closure needs at least one generator or the identity")
    d = _check_square_same_dim(mats)
    gens = span_basis(mats, tol)
    seed = list(gens)
    if include_identity:
        seed.append(np.eye(d, dtype=complex))
    basis = span_basis(seed, tol)
    q = basis.reshape(basis.shape[0], -1)
    frontier = basis
    while frontier.shape[0] > 0 and q.shape[0] < d * d:
        left = np.einsum("fij,gjk->fgik", frontier, gens).reshape(-1, d, d)
        right = np.einsum("gij,fjk->gfik", gens, frontier).reshape(-1, d, d)
        cand = np.concatenate([left, right]).reshape(-1, d * d)
        cand = cand - (cand @ q.conj().T) @ q
        _, s, vh = np.linalg.svd(cand, full_matrices=False)
        new = vh[: numerical_rank(s, tol)]
        if new.shape[0] == 0:
            break
        q = np.vstack([q, new])
        frontier = new.reshape(-1, d, d)
    return OperatorSubspace(d, q.reshape(-1, d, d), is_algebra=True,
                            star_tol=max(tol, 1e-8))


def is_strict(pi: Representation, report: GroundStateReport,
              tol: float = DEFAULT_TOL) -> bool:
    """Literal strictness test by algebra comparison on the ground space.

    Builds the unital algebra generated by the dpi images, compresses it to
    the ground space, and compares its span with the unital algebra
    generated there by the compressed fixed-point action.  Quadratic in the
    full operator-space dimension; :func:`analyze` uses the equivalent
    commutant-dimension comparison instead, and this is its test oracle.
    """
    A = algebra_closure(list(pi.dpi), include_identity=True, tol=tol)
    B = compress(report.h0_basis, A, tol)
    ops0 = list(report.pi0.dpi) + [np.eye(report.h0_dim, dtype=complex)]
    C = algebra_closure(ops0, include_identity=True, tol=tol)
    return B.same_span(C, max(tol, 1e-8))


def direct_sum_law(reps: Sequence[Representation], d: np.ndarray,
                   tol: float = DEFAULT_TOL) -> bool:
    """Ground-state property of a direct sum vs. its summands.

    Must always return True; a False return signals an implementation bug
    and is surfaced by the property suite.
    """
    reps = list(reps)
    if not reps:
        return True
    whole = analyze(direct_sum(reps), d, tol).ground_state
    parts = all(analyze(r, d, tol).ground_state for r in reps)
    return whole == parts
