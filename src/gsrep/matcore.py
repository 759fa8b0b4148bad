"""Dense complex linear algebra kernel.

Everything downstream reduces to four primitives: Hermitian
eigendecomposition, commutants, generated (unital) matrix algebras, and
compression of operator subspaces to a subspace of the underlying vector
space.  Matrices are plain complex ``numpy`` arrays; operator subspaces
carry an orthonormal basis under the trace inner product
``<A, B> = tr(A^* B)`` (no ``1/d`` normalization, so Gram matrices stay
integer-valued on weight bases).

Rank decisions (null spaces, independence) go through
:func:`numerical_rank`: a relative singular-value threshold,
``DEFAULT_TOL = 1e-9`` unless overridden per call.  All downstream
verdicts reduce to these rank decisions and share this knob.

Commutants are seeded with the commutant of one generic element
``X = sum_i c_i A_i`` of the span of the inputs, with real coefficients
drawn from the fixed seed ``GENERIC_SEED`` (Murota, Kanno, Kojima and
Kojima, "A numerical algorithm for block-diagonal decomposition of matrix
*-algebras", Japan J. Indust. Appl. Math. 27, 2010).  Every input is then
imposed on the seed, so the result is exact, not probabilistic: genericity
only keeps the seed small.  Star-closure of a commutant or generated
algebra is verified lazily, on the first read of ``is_star_closed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian

DEFAULT_TOL = 1e-9
CLUSTER_TOL = 1e-8
GENERIC_SEED = 2010
# Relative eigenvalue window of the commutant seed.  Merging distinct
# eigenvalues only enlarges the seed; splitting a true cluster would lose
# commutant elements, so the window is wide next to eigenvector roundoff.
SEED_CLUSTER_TOL = 1e-6


def _as_ops(ops) -> list[np.ndarray]:
    if isinstance(ops, OperatorSubspace):
        return [np.asarray(b, dtype=complex) for b in ops.basis]
    return [np.asarray(op, dtype=complex) for op in ops]


def _check_square_same_dim(ops: Sequence[np.ndarray]) -> int:
    dims = set()
    for op in ops:
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {op.shape}")
        dims.add(op.shape[0])
    if len(dims) > 1:
        raise DimensionMismatch(f"operators act on different spaces: dims {sorted(dims)}")
    return dims.pop() if dims else 0


def vec(mat: np.ndarray) -> np.ndarray:
    """Row-major flattening; the trace inner product becomes the plain dot."""
    return np.asarray(mat, dtype=complex).reshape(-1)


def numerical_rank(s: np.ndarray, tol: float) -> int:
    """Number of singular values ``s`` (descending) above ``tol * max(s[0], 1)``."""
    if s.size == 0:
        return 0
    return int(np.sum(s > tol * max(s[0], 1.0)))


def span_basis(mats: Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (r, d, d) of the span of ``mats`` under the trace form."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if not mats:
        raise ValueError("empty matrix list has no ambient dimension")
    d = _check_square_same_dim(mats)
    stacked = np.stack([vec(m) for m in mats])
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    rank = numerical_rank(s, tol)
    return vh[:rank].reshape(rank, d, d)


@dataclass
class OperatorSubspace:
    """A subspace of d x d operators with a trace-orthonormal basis.

    ``is_algebra`` / ``is_star_closed`` are three-valued: ``True``/``False``
    when verified, ``None`` when not asserted.  ``is_star_closed`` is
    verified on first read, at tolerance ``star_tol``, when that is set.
    """

    dim: int
    basis: np.ndarray  # (r, dim, dim), rows orthonormal under tr(A^* B)
    is_algebra: Optional[bool] = None
    star_tol: Optional[float] = None

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    def _rows(self) -> np.ndarray:
        return self.basis.reshape(self.rank, -1)

    @cached_property
    def is_star_closed(self) -> Optional[bool]:
        """Does every basis adjoint lie in the span, within ``star_tol``?"""
        if self.star_tol is None:
            return None
        q = self._rows()
        adj = self.basis.conj().transpose(0, 2, 1).reshape(self.rank, -1)
        resid = adj - (adj @ q.conj().T) @ q
        return bool(np.all(np.linalg.norm(resid, axis=1) <= self.star_tol))

    def contains(self, mat: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
        v = vec(mat)
        scale = max(np.linalg.norm(v), 1.0)
        q = self._rows()
        resid = v - (q.conj() @ v) @ q
        return bool(np.linalg.norm(resid) <= tol * scale)

    def same_span(self, other: "OperatorSubspace", tol: float = DEFAULT_TOL) -> bool:
        if self.dim != other.dim or self.rank != other.rank:
            return False
        q, p = self._rows(), other._rows()
        resid = p - (p @ q.conj().T) @ q
        return bool(np.linalg.norm(resid) <= tol * max(1.0, self.rank))


def full_operator_space(dim: int) -> OperatorSubspace:
    basis = np.zeros((dim * dim, dim, dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            basis[a * dim + b, a, b] = 1.0
    return OperatorSubspace(dim, basis, is_algebra=True, star_tol=DEFAULT_TOL)


def eig_hermitian(H: np.ndarray, tol: float = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    H : (d, d) complex array, Hermitian within ``tol * ||H||``.
    tol : relative Hermiticity tolerance.

    Returns
    -------
    eigenvalues : (d,) real array, ascending.
    eigenvectors : (d, d) unitary array, columns matching the eigenvalues,
        so that ``H = V diag(w) V^*`` up to roundoff.

    Raises
    ------
    NotHermitian : if the input fails the Hermiticity precondition.
    ConvergenceFailure : if the underlying solver does not converge.
    """
    H = np.asarray(H, dtype=complex)
    _check_square_same_dim([H])
    scale = max(np.linalg.norm(H), 1.0)
    if np.linalg.norm(H - H.conj().T) > tol * scale:
        raise NotHermitian(f"deviation {np.linalg.norm(H - H.conj().T):.3e} exceeds tolerance")
    try:
        w, v = np.linalg.eigh((H + H.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(str(exc)) from exc
    return w, v


def cluster_values(values: np.ndarray, tol: float = CLUSTER_TOL) -> list[np.ndarray]:
    """Group sorted-by-real scalars into clusters of mutual distance <= tol.

    Returns a list of index arrays.  Structure constants downstream are
    integers, so exact spectra cluster cleanly at the default tolerance.
    """
    values = np.asarray(values)
    order = np.lexsort((values.imag, values.real))
    groups: list[list[int]] = []
    for idx in order:
        if groups and abs(values[idx] - values[groups[-1][-1]]) <= tol:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    return [np.array(g, dtype=int) for g in groups]


def _null_rows(mat: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal rows spanning the (right) null space of ``mat``.

    A thin SVD suffices when ``mat`` has at least as many rows as columns;
    only a wide matrix needs the full right factor.
    """
    m, n = mat.shape
    if m == 0:
        return np.eye(n, dtype=complex)
    _, s, vh = np.linalg.svd(mat, full_matrices=m < n)
    return vh[numerical_rank(s, tol):].conj()


def _commutant_seed(mats: list[np.ndarray], tol: float) -> np.ndarray:
    """Orthonormal rows spanning {X}' for a generic X in the span of ``mats``.

    X is a real combination with coefficients from ``GENERIC_SEED``, so the
    rows contain the commutant of every input.  Uses the eigen-shortcut for
    (anti-)Hermitian X: Y commutes with a normal X iff Y preserves its
    eigenspaces, so the null space is spanned by u_a u_b^* over eigenvector
    pairs in one eigenvalue cluster.  Otherwise it falls back to the dense
    null space of Y -> YX - XY.
    """
    coeffs = np.random.default_rng(GENERIC_SEED).normal(size=len(mats))
    X = np.einsum("k,kij->ij", coeffs.astype(complex), np.stack(mats))
    d = X.shape[0]
    scale = max(np.linalg.norm(X), 1.0)
    H = None
    if np.linalg.norm(X - X.conj().T) <= tol * scale:
        H = (X + X.conj().T) / 2.0
    elif np.linalg.norm(X + X.conj().T) <= tol * scale:
        H = (-1j * X + (-1j * X).conj().T) / 2.0
    if H is not None:
        w, u = np.linalg.eigh(H)
        window = SEED_CLUSTER_TOL * max(1.0, float(np.abs(w).max()))
        rows = []
        for grp in cluster_values(w, window):
            cols = u[:, grp]
            k = len(grp)
            rows.append(np.einsum("ia,jb->abij", cols, cols.conj()).reshape(k * k, d * d))
        return np.concatenate(rows)
    eye = np.eye(d, dtype=complex)
    L = np.kron(eye, X.T) - np.kron(X, eye)
    return _null_rows(L, tol)


def commutant_basis(ops, dim: Optional[int] = None, tol: float = DEFAULT_TOL) -> OperatorSubspace:
    """Orthonormal basis of {X : [X, A_i] = 0 for all i}.

    Parameters
    ----------
    ops : matrices (or an OperatorSubspace) acting on the same space.
    dim : ambient dimension, required when ``ops`` is empty.
    tol : relative singular-value threshold for the null-space rank decision.

    The seed is the commutant of a generic real combination of the inputs
    (see the module docstring); each input is then imposed in turn as a
    thin null space over the current basis, skipped when it already
    commutes with every basis element.  The result is always an algebra;
    star-closure is verified lazily, on first read of ``is_star_closed`` (it
    holds whenever the input set is star-closed up to sign).
    """
    mats = _as_ops(ops)
    if not mats:
        if dim is None:
            raise DimensionMismatch("empty operator list requires an explicit dimension")
        return full_operator_space(dim)
    d = _check_square_same_dim(mats)
    if dim is not None and dim != d:
        raise DimensionMismatch(f"operators have dim {d}, expected {dim}")
    q = _commutant_seed(mats, tol)
    for A in mats:
        if q.shape[0] == 0:
            break
        basis = q.reshape(-1, d, d)
        comms = (basis @ A - A @ basis).reshape(q.shape[0], -1)  # (r, d^2)
        if np.linalg.norm(comms) <= tol:
            continue  # every singular value is below the rank threshold
        # coefficient combinations of the current basis that commute with A
        q = _null_rows(comms.T, tol) @ q
    return OperatorSubspace(d, q.reshape(-1, d, d), is_algebra=True,
                            star_tol=max(tol, 1e-8))


def center_basis(alg: OperatorSubspace, tol: float = DEFAULT_TOL) -> OperatorSubspace:
    """Center of an algebra: the elements of ``alg`` commuting with all of it.

    One null space of the (r d^2, r) matrix of brackets [B_j, B_k] of the
    basis elements, so it costs no d^2 x d^2 decomposition.
    """
    B, r, d = alg.basis, alg.rank, alg.dim
    prod = np.einsum("jab,kbc->jkac", B, B)
    brackets = prod - prod.transpose(1, 0, 2, 3)  # [B_j, B_k]
    cols = brackets.transpose(1, 2, 3, 0).reshape(r * d * d, r)
    q = _null_rows(cols, tol) @ alg._rows()
    return OperatorSubspace(d, q.reshape(-1, d, d), is_algebra=True)


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


def compress(P: np.ndarray, S: OperatorSubspace, tol: float = DEFAULT_TOL) -> OperatorSubspace:
    """Span of {P^* A P : A in S} as operators on the column space of P.

    ``P`` must have orthonormal columns.  The result need not be an algebra
    unless S is one and the subspace is suitably invariant, so no closure
    flags are set.
    """
    P = np.asarray(P, dtype=complex)
    if P.ndim != 2:
        raise DimensionMismatch("subspace basis must be a (dim, r) matrix")
    d, r = P.shape
    if S.dim != d:
        raise DimensionMismatch(f"subspace lives in dim {d}, operators act on dim {S.dim}")
    if np.linalg.norm(P.conj().T @ P - np.eye(r)) > 1e-8 * max(1, r):
        raise ValueError("subspace basis columns are not orthonormal")
    if S.rank == 0:
        return OperatorSubspace(r, np.zeros((0, r, r), dtype=complex))
    comp = P.conj().T @ S.basis @ P
    basis = span_basis(list(comp), tol) if comp.shape[0] else np.zeros((0, r, r), complex)
    return OperatorSubspace(r, basis)
