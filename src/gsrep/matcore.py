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
*-algebras", Japan J. Indust. Appl. Math. 27, 2010).  A caller may restrict
X to the span of some inputs, such as the images of a torus: every input is
imposed on the seed in X's eigenframe, so the result is exact, not
probabilistic, for any seed; a good seed only keeps the seed commutant and
the constraints small.  Star-closure of a commutant or generated
algebra is verified lazily, on the first read of ``is_star_closed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian, NotIrreducible

DEFAULT_TOL = 1e-9
CLUSTER_TOL = 1e-8
GENERIC_SEED = 2010
# Relative eigenvalue window of the commutant seed.  Merging distinct
# eigenvalues only enlarges the seed; splitting a true cluster would lose
# commutant elements, so the window is wide next to eigenvector roundoff.
SEED_CLUSTER_TOL = 1e-6
# Entry threshold, relative to max(1, ||A||), below which a block of an
# input in the seed's eigenframe is left out of the commutant constraints.
LIVE_TOL = 1e-13
# Entries of the constraint matrix up to which consecutive inputs share one
# null space: small inputs pay one SVD in all, while a large input, whose
# null space shrinks the basis for the next, is imposed alone.
CONSTRAINT_BATCH = 2**12


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


def hermitian_split(basis: np.ndarray, accept, seed: int, tries: int = 8) -> list[np.ndarray]:
    """Eigenspaces of a random Hermitian element of the span of ``basis``, as orthonormal column blocks.

    The element is the Hermitian part of a real combination of the (r, d, d)
    ``basis``, with coefficients drawn from ``seed``; eigenvalues within a
    ``CLUSTER_TOL`` window, relative to the largest, share a block.  A draw
    is returned once ``accept(blocks)`` holds, so a generic element that
    merges blocks by chance is replaced by the next draw.

    Raises
    ------
    NotIrreducible : if none of ``tries`` draws is accepted.
    """
    rng = np.random.default_rng(seed)
    for _ in range(tries):
        coeff = rng.normal(size=basis.shape[0])
        X = np.einsum("k,kij->ij", coeff.astype(complex), basis)
        w, v = np.linalg.eigh((X + X.conj().T) / 2.0)
        blocks = [v[:, grp] for grp in cluster_values(w, CLUSTER_TOL * max(1.0, float(np.abs(w).max())))]
        if accept(blocks):
            return blocks
    raise NotIrreducible(f"no accepted split in {tries} random elements")  # pragma: no cover


def _null_rows(mat: np.ndarray, tol: float, nullity: Optional[int] = None) -> np.ndarray:
    """Orthonormal rows spanning the (right) null space of ``mat``.

    They are the right singular vectors past the numerical rank, or the
    ``nullity`` given with the smallest singular values.  A thin SVD
    suffices unless ``mat`` is wide, which needs the full right factor.
    """
    m, n = mat.shape
    if m == 0:
        return np.eye(n, dtype=complex)
    _, s, vh = np.linalg.svd(mat, full_matrices=m < n)
    return vh[numerical_rank(s, tol) if nullity is None else n - nullity:].conj()


def _seed_frame(mats: np.ndarray, seed_rows, tol: float):
    """Eigenframe and clusters of the seed element X, a generic element of the input span.

    X is ``c @ seed_rows`` applied to the inputs, with ``c`` drawn from
    ``GENERIC_SEED``; ``seed_rows=None`` stands for all inputs.  For a
    normal X, returns the eigenvectors ``u`` of one Hermitian H whose
    eigenspaces are X's, and the start and size of each eigenvalue cluster
    of H (contiguous, since eigenvalues come sorted): Y commutes with X iff
    ``u^* Y u`` is block diagonal over the clusters.  A non-normal X gives
    the identity frame as one cluster, so the inputs impose everything.
    """
    k, d = mats.shape[0], mats.shape[1]
    rng = np.random.default_rng(GENERIC_SEED)
    if seed_rows is None:
        coeffs = rng.normal(size=k)
    else:
        coeffs = rng.normal(size=seed_rows.shape[0]) @ seed_rows
    X = np.einsum("k,kij->ij", coeffs.astype(complex), mats)
    Xh = X.conj().T
    scale = max(np.linalg.norm(X), 1.0)
    if np.linalg.norm(X @ Xh - Xh @ X) > tol * scale * scale:
        return np.eye(d, dtype=complex), np.zeros(1, dtype=int), np.array([d])
    # the Hermitian parts of a normal X commute; a generic real mix of them
    # separates their joint eigenspaces, which are X's
    H = (X + Xh) / 2.0 - 1j * np.sqrt(0.5) * (X - Xh)
    w, u = np.linalg.eigh(H)
    window = SEED_CLUSTER_TOL * max(1.0, -w[0], w[-1])
    bounds = np.concatenate(([0], np.flatnonzero(w[1:] - w[:-1] > window) + 1, [d]))
    return u, bounds[:-1], bounds[1:] - bounds[:-1]


class _SeedFrame:
    """Block coordinates of the seed commutant in the seed's eigenframe.

    Cluster c spans eigenvector indices ``starts[c] .. starts[c] + sizes[c]``;
    the coordinates are the entries of the free blocks Y_c, cluster by
    cluster, each block row-major.  For index p in a cluster starting at s
    with size k, ``rows[p, w]`` is the coordinate of entry (p, s + w) and
    ``cols[p, w]`` that of entry (s + w, p), for w < k; slots w >= k point
    at one spare coordinate past the end, so every index has K = max size
    slots.
    """

    def __init__(self, starts: np.ndarray, sizes: np.ndarray):
        self.starts, self.sizes = starts, sizes
        self.labels = np.repeat(np.arange(sizes.size), sizes)
        self.ncoords = int(np.dot(sizes, sizes))

    @cached_property
    def _slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``rows``, ``cols`` and ``slot`` tables, (d, K) each."""
        k = self.sizes[self.labels][:, None]
        s = self.starts[self.labels][:, None]
        offset = (np.cumsum(self.sizes * self.sizes) - self.sizes * self.sizes)[self.labels][:, None]
        local = np.arange(self.labels.size)[:, None] - s
        w = np.arange(self.sizes.max())
        inside = w < k
        rows = np.where(inside, offset + local * k + w, self.ncoords)
        cols = np.where(inside, offset + local + w * k, self.ncoords)
        return rows, cols, np.minimum(s + w, self.labels.size - 1)

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Frame row and column of every coordinate, in coordinate order."""
        rows, _, slot = self._slots
        p, w = np.nonzero(rows < self.ncoords)
        return p, slot[p, w]

    def live_entries(self, frames: np.ndarray, norms: np.ndarray) -> np.ndarray:
        """(inputs, d, d) mask of the entries in each input's live blocks.

        An off-diagonal block is live when its largest entry exceeds
        ``LIVE_TOL * max(1, ||A||)``; a diagonal block is live when it is
        not scalar to that threshold, since a scalar block commutes with
        every Y.
        """
        d = frames.shape[1]
        mag = np.abs(frames)
        diag = np.diagonal(frames, axis1=1, axis2=2)
        means = np.add.reduceat(diag, self.starts, axis=1) / self.sizes
        idx = np.arange(d)
        mag[:, idx, idx] = np.abs(diag - means[:, self.labels])
        peak = np.maximum.reduceat(np.maximum.reduceat(mag, self.starts, axis=1),
                                   self.starts, axis=2)
        live = peak > LIVE_TOL * np.maximum(1.0, norms)[:, None, None]
        return live[:, self.labels[:, None], self.labels[None, :]]

    def constraints(self, frames: np.ndarray, entries: np.ndarray) -> np.ndarray:
        """(entries, coordinates) matrix of Y -> [Y, F_k] on flat entries (k, i, j) of ``frames``."""
        rows, cols, slot = self._slots
        k, i, j = np.unravel_index(entries, frames.shape)
        e = np.arange(entries.size)[:, None]
        k = k[:, None]
        C = np.zeros((entries.size, self.ncoords + 1), dtype=complex)
        C[e, rows[i]] = frames[k, slot[i], j[:, None]]  # sum_w Y[i, w] F[w, j]
        C[e, cols[j]] -= frames[k, i[:, None], slot[j]]  # sum_w F[i, w] Y[w, j]
        return C[:, :-1]


def commutant_basis(ops, dim: Optional[int] = None, tol: float = DEFAULT_TOL,
                    seed_rows=None) -> OperatorSubspace:
    """Orthonormal basis of {X : [X, A_i] = 0 for all i}.

    Parameters
    ----------
    ops : matrices (or an OperatorSubspace) acting on the same space.
    dim : ambient dimension, required when ``ops`` is empty.
    tol : relative singular-value threshold for the null-space rank decision.
    seed_rows : real (s, len(ops)) coefficient rows over the inputs; a
        generic combination of them is the seed element.  None means all
        inputs.  Any rows give the exact commutant, since the seed lies in
        the span of the inputs; rows whose elements are simultaneously
        diagonal (a torus) keep the imposed constraints sparse.

    The seed is the commutant of the seed element (see the module
    docstring).  The current basis is held as coefficients over the free
    blocks Y_c of the seed element's eigenframe ``u``; each input
    A is taken to that frame, F = u^* A u, and [Y, F] = 0 is imposed as a
    thin null space with one row per entry of F's live blocks (see
    :meth:`_SeedFrame.live_entries`).  The dropped blocks of F have entries
    of at most ``LIVE_TOL * max(1, ||A||)``, so by Weyl's inequality they
    move every singular value of the constraint by at most
    ``2 d LIVE_TOL * max(1, ||A||)``: below ``1e-9 * max(1, ||A||)`` for d
    up to 5000, against the rank threshold ``tol * max(s[0], 1)``.  An
    input with no live block, or whose constraint is below ``tol``, is
    skipped.  Consecutive inputs whose first constraint rows fall in one
    window of ``CONSTRAINT_BATCH // coordinates`` rows share one null space;
    an input with more rows than that is imposed alone.  A non-normal seed
    element leaves the identity frame as one cluster, where the inputs are
    imposed the same way.  The basis u Y u^* is built at the end, from outer
    products of eigenvectors when nothing was imposed.

    The result is always an algebra; star-closure is verified lazily, on
    first read of ``is_star_closed`` (it holds whenever the input set is
    star-closed up to sign).
    """
    mats = _as_ops(ops)
    if not mats:
        if dim is None:
            raise DimensionMismatch("empty operator list requires an explicit dimension")
        return full_operator_space(dim)
    d = _check_square_same_dim(mats)
    if dim is not None and dim != d:
        raise DimensionMismatch(f"operators have dim {d}, expected {dim}")
    if seed_rows is not None:
        seed_rows = np.asarray(seed_rows, dtype=float)
        if seed_rows.ndim != 2 or seed_rows.shape[1] != len(mats):
            raise DimensionMismatch(f"seed rows must have shape (s, {len(mats)}), got {seed_rows.shape}")
    if d == 1:
        return full_operator_space(1)  # every 1 x 1 input is scalar
    stack = np.stack(mats)
    u, starts, sizes = _seed_frame(stack, seed_rows, tol)
    frame = _SeedFrame(starts, sizes)
    frames = u.conj().T @ stack @ u
    entries = np.flatnonzero(frame.live_entries(frames, np.linalg.norm(stack, axis=(1, 2))))
    # consecutive inputs share one constraint while it has few entries
    first = np.searchsorted(entries, entries // (d * d) * (d * d))
    cuts = np.flatnonzero(np.diff(first // max(1, CONSTRAINT_BATCH // frame.ncoords))) + 1
    bounds = [0, *cuts.tolist(), entries.size] if entries.size else [0]
    q = None  # coefficient rows over the block coordinates; None is all of them
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if q is not None and q.shape[0] == 0:
            break
        comms = frame.constraints(frames, entries[lo:hi])  # (entries, coordinates)
        if q is not None:
            comms = comms @ q.T
        if np.linalg.norm(comms) <= tol:
            continue  # every singular value is below the rank threshold
        # coefficient combinations of the current basis that commute with the batch
        null = _null_rows(comms, tol)
        q = null if q is None else null @ q
    rows, cols = frame.coordinates()
    if q is None:
        basis = u.T[rows][:, :, None] * u.conj().T[cols][:, None, :]
    else:
        Y = np.zeros((q.shape[0], d, d), dtype=complex)
        Y[:, rows, cols] = q
        basis = u @ Y @ u.conj().T
    return OperatorSubspace(d, basis, is_algebra=True, star_tol=max(tol, 1e-8))


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
