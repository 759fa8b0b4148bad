"""Dense complex linear algebra kernel.

Everything downstream reduces to three primitives: Hermitian
eigendecomposition, commutants, and compression of operator subspaces to
a subspace of the underlying vector space.  Matrices are plain complex ``numpy`` arrays; operator subspaces
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
the constraints small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

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
# Seed and number of draws of the generic Hermitian element that
# isotypic_split takes the irreducible pieces from.
SPLIT_SEED = 7
SPLIT_DRAWS = 8


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
    """A subspace of d x d operators with a trace-orthonormal basis."""

    dim: int
    basis: np.ndarray  # (r, dim, dim), rows orthonormal under tr(A^* B)

    @property
    def rank(self) -> int:
        return self.basis.shape[0]


def eig_hermitian(H: np.ndarray, tol: float = DEFAULT_TOL):
    """The eigenvalues and eigenvectors that :func:`eig_frame` returns."""
    return eig_frame(H, tol)[:2]


def eig_frame(H: np.ndarray, tol: float = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix, with the index order of a diagonal one.

    Parameters
    ----------
    H : (d, d) complex array, Hermitian within ``tol * ||H||``.
    tol : relative Hermiticity tolerance.

    Returns
    -------
    eigenvalues : (d,) real array, ascending.
    eigenvectors : (d, d) unitary array, columns matching the eigenvalues,
        so that ``H = V diag(w) V^*`` up to roundoff.
    order : for an exactly diagonal H, the index of each column of V; else None.

    An exactly diagonal H, one whose nonzero count is its diagonal's, such as
    -i dpi(d) for a Cartan d on a weight basis, takes no solver: w is the
    real part of its diagonal, sorted stably, so equal values keep their
    index order, and V holds the matching identity columns, so
    ``H = V diag(w) V^*`` holds exactly.  Its Hermiticity deviation is read
    on the diagonal's imaginary part.

    Raises
    ------
    NotHermitian : if the input fails the Hermiticity precondition or is
        not finite, on either path.
    ConvergenceFailure : if the underlying solver does not converge.
    """
    H = np.asarray(H, dtype=complex)
    _check_square_same_dim([H])
    diag = H.diagonal()
    diagonal = np.count_nonzero(H) == np.count_nonzero(diag)
    dev = 2.0 * np.linalg.norm(diag.imag) if diagonal else np.linalg.norm(H - H.conj().T)
    # dev <= tol * max(||H||, 1), with the norm taken only past tol.  A NaN or
    # infinite H makes dev NaN or infinite, which fails, save a diagonal H
    # with a non-finite real part: that sorts to one end of w.
    if not (dev <= tol or (math.isfinite(dev) and dev <= tol * np.linalg.norm(diag if diagonal else H))):
        raise NotHermitian(f"deviation {dev:.3e} exceeds tolerance")
    if diagonal:
        order = np.argsort(diag.real, kind="stable")
        w = diag.real[order]
        if len(w) and not (math.isfinite(w[0]) and math.isfinite(w[-1])):
            raise NotHermitian("a diagonal entry is not finite")
        return w, np.eye(len(order), dtype=complex).take(order, axis=1), order
    try:
        w, v = np.linalg.eigh((H + H.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(str(exc)) from exc
    return w, v, None


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


@lru_cache(maxsize=64)
def _draws(n: int) -> np.ndarray:
    """The first ``n`` normal draws from ``GENERIC_SEED``, read-only."""
    coeffs = np.random.default_rng(GENERIC_SEED).normal(size=n)
    coeffs.setflags(write=False)
    return coeffs


def _seed_frame(mats: np.ndarray, seed_rows, tol: float):
    """Eigenframe, cluster sizes and index order of the seed element X, a generic element of the input span.

    X is ``c @ seed_rows`` applied to the inputs, with ``c`` drawn from
    ``GENERIC_SEED`` (:func:`_draws`); ``seed_rows=None`` stands for all
    inputs.  For a normal X, returns the eigenvectors ``u`` of one Hermitian
    H whose eigenspaces are X's, and the size of each eigenvalue cluster of
    H (contiguous, since eigenvalues come sorted): Y commutes with X iff
    ``u^* Y u`` is block diagonal over the clusters.  An exactly diagonal X,
    such as a torus element on a weight basis, is normal, and its H is read
    by :func:`eig_frame`: ``u`` is then identity columns, whose index order
    is returned, and None for a frame from ``eigh``.  A non-normal X gives
    the identity frame as one cluster, so the inputs impose everything.
    """
    k, d = mats.shape[0], mats.shape[1]
    coeffs = _draws(k) if seed_rows is None else _draws(seed_rows.shape[0]) @ seed_rows
    X = np.einsum("k,kij->ij", coeffs.astype(complex), mats)
    x = X.diagonal()
    if np.count_nonzero(X) == np.count_nonzero(x):  # H below, in the same floating-point operations
        w, u, order = eig_frame(np.diag(x.real + np.sqrt(2.0) * x.imag))
    else:
        Xh = X.conj().T
        scale = max(np.linalg.norm(X), 1.0)
        if np.linalg.norm(X @ Xh - Xh @ X) > tol * scale * scale:
            return np.eye(d, dtype=complex), (d,), np.arange(d)
        # the Hermitian parts of a normal X commute; a generic real mix of them
        # separates their joint eigenspaces, which are X's
        H = (X + Xh) / 2.0 - 1j * np.sqrt(0.5) * (X - Xh)
        (w, u), order = np.linalg.eigh(H), None
    window = SEED_CLUSTER_TOL * max(1.0, -w[0], w[-1])
    bounds = np.concatenate(([0], np.flatnonzero(w[1:] - w[:-1] > window) + 1, [d]))
    return u, tuple(np.diff(bounds).tolist()), order


class _FrameTables(NamedTuple):
    """Block coordinates of the seed commutant in the seed's eigenframe.

    Cluster c spans eigenvector indices ``starts[c] .. starts[c] + sizes[c]``
    and ``labels[p]`` is the cluster of index p.  The coordinates are the
    entries of the free blocks Y_c, cluster by cluster, each block
    row-major; coordinate n is entry (``coord_rows[n]``, ``coord_cols[n]``).
    For index p in a cluster starting at s with size k, ``rows[p, w]`` is
    the coordinate of entry (p, s + w) and ``cols[p, w]`` that of entry
    (s + w, p), for w < k, and ``slot[p, w]`` is s + w; slots w >= k point
    at one spare coordinate past the end, so every index has K = max size
    slots.
    """

    starts: np.ndarray
    sizes: np.ndarray
    labels: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    slot: np.ndarray
    coord_rows: np.ndarray
    coord_cols: np.ndarray

    @property
    def ncoords(self) -> int:
        return self.coord_rows.size


@lru_cache(maxsize=128)
def _frame_tables(sizes: tuple[int, ...]) -> _FrameTables:
    """The :class:`_FrameTables` of clusters of ``sizes``, in order; the arrays are read-only."""
    sizes = np.array(sizes)
    starts = np.cumsum(sizes) - sizes
    labels = np.repeat(np.arange(sizes.size), sizes)
    ncoords = int(np.dot(sizes, sizes))
    k = sizes[labels][:, None]
    s = starts[labels][:, None]
    offset = (np.cumsum(sizes * sizes) - sizes * sizes)[labels][:, None]
    local = np.arange(labels.size)[:, None] - s
    w = np.arange(sizes.max())
    inside = w < k
    rows = np.where(inside, offset + local * k + w, ncoords)
    cols = np.where(inside, offset + local + w * k, ncoords)
    slot = np.minimum(s + w, labels.size - 1)
    p, j = np.nonzero(inside)
    tables = _FrameTables(starts, sizes, labels, rows, cols, slot, p, slot[p, j])
    for arr in tables:
        arr.setflags(write=False)
    return tables


def _live_entries(frame: _FrameTables, frames: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """(inputs, d, d) mask of the entries in each input's live blocks.

    An off-diagonal block is live when its largest entry exceeds
    ``LIVE_TOL * max(1, ||A||)``; a diagonal block is live when it is
    not scalar to that threshold, since a scalar block commutes with
    every Y.
    """
    d = frames.shape[1]
    mag = np.abs(frames)
    diag = np.diagonal(frames, axis1=1, axis2=2)
    means = np.add.reduceat(diag, frame.starts, axis=1) / frame.sizes
    idx = np.arange(d)
    mag[:, idx, idx] = np.abs(diag - means[:, frame.labels])
    peak = np.maximum.reduceat(np.maximum.reduceat(mag, frame.starts, axis=1),
                               frame.starts, axis=2)
    live = peak > LIVE_TOL * np.maximum(1.0, norms)[:, None, None]
    return live[:, frame.labels[:, None], frame.labels[None, :]]


def _constraints(frame: _FrameTables, frames: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """(entries, coordinates) matrix of Y -> [Y, F_k] on flat entries (k, i, j) of ``frames``."""
    rows, cols, slot = frame.rows, frame.cols, frame.slot
    k, i, j = np.unravel_index(entries, frames.shape)
    e = np.arange(entries.size)[:, None]
    k = k[:, None]
    C = np.zeros((entries.size, frame.ncoords + 1), dtype=complex)
    C[e, rows[i]] = frames[k, slot[i], j[:, None]]  # sum_w Y[i, w] F[w, j]
    C[e, cols[j]] -= frames[k, i[:, None], slot[j]]  # sum_w F[i, w] Y[w, j]
    return C[:, :-1]


def _as_stack(ops, dim: Optional[int]) -> np.ndarray:
    """The inputs as one C-contiguous (k, d, d) complex stack.

    An array, or the basis of an OperatorSubspace, gives d by its shape,
    also when it holds no matrix; an empty list takes d from ``dim``.
    """
    if isinstance(ops, OperatorSubspace):
        ops = ops.basis
    if isinstance(ops, np.ndarray):
        stack = np.ascontiguousarray(ops, dtype=complex)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise DimensionMismatch(f"expected a stack of square matrices, got shape {stack.shape}")
    else:
        mats = [np.asarray(op, dtype=complex) for op in ops]
        if not mats:
            if dim is None:
                raise DimensionMismatch("empty operator list requires an explicit dimension")
            return np.zeros((0, dim, dim), dtype=complex)
        _check_square_same_dim(mats)
        stack = np.stack(mats)
    if dim is not None and dim != stack.shape[1]:
        raise DimensionMismatch(f"operators have dim {stack.shape[1]}, expected {dim}")
    return stack


class _CommutantCoefficients(NamedTuple):
    """The commutant as coefficient rows ``q`` over the block coordinates of the seed frame ``u``.

    Row n of ``q`` holds Y = sum_p q[n, p] E_p over the coordinates of
    ``frame`` (:class:`_FrameTables`), and u Y u^* is basis element n of
    :func:`commutant_basis`; ``q`` None stands for all coordinates.
    """

    u: np.ndarray
    frame: _FrameTables
    q: Optional[np.ndarray]

    @property
    def rank(self) -> int:
        return self.frame.ncoords if self.q is None else self.q.shape[0]


def _commutant_coefficients(ops, dim: Optional[int] = None, tol: float = DEFAULT_TOL,
                            seed_rows=None) -> _CommutantCoefficients:
    """The commutant of :func:`commutant_basis` (same arguments) before its basis is built.

    No input, or 1 x 1 inputs, which are all scalar, give the identity
    frame as one cluster with every coordinate free.
    """
    stack = _as_stack(ops, dim)
    k, d = stack.shape[0], stack.shape[1]
    if seed_rows is not None and k:
        seed_rows = np.asarray(seed_rows, dtype=float)
        if seed_rows.ndim != 2 or seed_rows.shape[1] != k:
            raise DimensionMismatch(f"seed rows must have shape (s, {k}), got {seed_rows.shape}")
    if k == 0 or d == 1:
        return _CommutantCoefficients(np.eye(d, dtype=complex), _frame_tables((d,)), None)
    u, sizes, order = _seed_frame(stack, seed_rows, tol)
    frame = _frame_tables(sizes)
    # u^* A u, read by index where u is identity columns
    frames = u.conj().T @ stack @ u if order is None else stack[:, order[:, None], order]
    entries = np.flatnonzero(_live_entries(frame, frames, np.linalg.norm(stack, axis=(1, 2))))
    # consecutive inputs share one constraint while it has few entries
    step = max(1, CONSTRAINT_BATCH // frame.ncoords)
    bounds = [0, entries.size] if entries.size else [0]
    if entries.size > step:
        first = np.searchsorted(entries, entries // (d * d) * (d * d))
        bounds[1:1] = (np.flatnonzero(np.diff(first // step)) + 1).tolist()
    q = None
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if q is not None and q.shape[0] == 0:
            break
        comms = _constraints(frame, frames, entries[lo:hi])  # (entries, coordinates)
        if q is not None:
            comms = comms @ q.T
        if np.linalg.norm(comms) <= tol:
            continue  # every singular value is below the rank threshold
        # coefficient combinations of the current basis that commute with the batch
        null = _null_rows(comms, tol)
        q = null if q is None else null @ q
    return _CommutantCoefficients(u, frame, q)


def commutant_basis(ops, dim: Optional[int] = None, tol: float = DEFAULT_TOL,
                    seed_rows=None) -> OperatorSubspace:
    """Orthonormal basis of {X : [X, A_i] = 0 for all i}.

    Parameters
    ----------
    ops : a (k, d, d) array, a list of d x d matrices, or an OperatorSubspace
        (its basis is the input stack).  An array or a subspace fixes d by
        its shape even when it is empty.
    dim : ambient dimension, required when ``ops`` is an empty list.
    tol : relative singular-value threshold for the null-space rank decision.
    seed_rows : real (s, len(ops)) coefficient rows over the inputs; a
        generic combination of them is the seed element.  None means all
        inputs.  Any rows give the exact commutant, since the seed lies in
        the span of the inputs; rows whose elements are simultaneously
        diagonal (a torus) keep the imposed constraints sparse.

    The seed is the commutant of the seed element (see the module
    docstring); its coefficients are drawn once per input count and
    cached.  The current basis is held as coefficients over the free
    blocks Y_c of the seed element's eigenframe ``u``, whose index tables
    depend on the cluster sizes alone and are cached per size tuple
    (:func:`_frame_tables`).  Each input A is taken to that frame,
    F = u^* A u, and [Y, F] = 0 is imposed as a thin null space with one
    row per entry of F's live blocks (see :func:`_live_entries`).  The
    dropped blocks of F have entries of at most ``LIVE_TOL * max(1, ||A||)``,
    so by Weyl's inequality they move every singular value of the
    constraint by at most ``2 d LIVE_TOL * max(1, ||A||)``: below
    ``1e-9 * max(1, ||A||)`` for d up to 5000, against the rank threshold
    ``tol * max(s[0], 1)``.  An input with no live block, or whose
    constraint is below ``tol``, is skipped.  Consecutive inputs whose first
    constraint rows fall in one window of ``CONSTRAINT_BATCH // coordinates``
    rows share one null space; an input with more rows than that is imposed
    alone.  A non-normal seed
    element leaves the identity frame as one cluster, where the inputs are
    imposed the same way.  :func:`_commutant_coefficients` stops there, so a
    caller that needs only the dimension reads its ``rank``; the basis
    u Y u^* is built here, from outer products of eigenvectors when nothing
    was imposed.

    The result is always an algebra, and it is star-closed whenever the
    input set is star-closed up to sign.
    """
    u, frame, q = _commutant_coefficients(ops, dim, tol, seed_rows)
    rows, cols = frame.coord_rows, frame.coord_cols
    if q is None:
        basis = u.T[rows][:, :, None] * u.conj().T[cols][:, None, :]
    else:
        Y = np.zeros((q.shape[0], *u.shape), dtype=complex)
        Y[:, rows, cols] = q
        basis = u @ Y @ u.conj().T
    return OperatorSubspace(u.shape[0], basis)


def compress(P: np.ndarray, S: OperatorSubspace, tol: float = DEFAULT_TOL) -> OperatorSubspace:
    """Span of {P^* A P : A in S} as operators on the column space of P.

    ``P`` must have orthonormal columns.  The result need not be an algebra
    unless S is one and the subspace is suitably invariant.
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


def _intertwined(comm: OperatorSubspace, P: np.ndarray, Q: np.ndarray, tol: float) -> bool:
    """Equivalence of the irreducible pieces on ran P and ran Q: the Q^* B_k P
    span Hom_G(ran P, ran Q), so the pieces are equivalent iff one is nonzero."""
    stack = (Q.conj().T @ comm.basis @ P).reshape(comm.rank, -1)
    return numerical_rank(np.linalg.svd(stack, compute_uv=False), tol) > 0


def isotypic_split(comm: OperatorSubspace, tol: float) -> list[list[np.ndarray]]:
    """Irreducible pieces of the operators whose commutant is ``comm``, grouped by equivalence class.

    The pieces are the eigenspaces of the Hermitian part of a real
    combination of the basis of ``comm``, with coefficients drawn from
    ``SPLIT_SEED``; eigenvalues within a ``CLUSTER_TOL`` window, relative to
    the largest, share a piece.  A draw is accepted once ``comm`` compresses
    to the scalars on every piece (Schur); one that merges pieces by chance
    is replaced by the next, for at most ``SPLIT_DRAWS`` draws.  A piece
    joins the class of the first piece it is intertwined with.  By
    Wedderburn, comm = (+)_b M_{m_b} (x) 1_{n_b}, so the classes span the
    central blocks and class b holds m_b pieces; a scalar ``comm`` is one
    class, the whole space.

    Raises
    ------
    NotIrreducible : if no draw is accepted.
    ConvergenceFailure : if the squared class sizes do not sum to dim comm.
    """
    rng = np.random.default_rng(SPLIT_SEED)
    for _ in range(SPLIT_DRAWS):
        coeff = rng.normal(size=comm.rank)
        X = np.einsum("k,kij->ij", coeff.astype(complex), comm.basis)
        w, v = np.linalg.eigh((X + X.conj().T) / 2.0)
        pieces = [v[:, grp] for grp in cluster_values(w, CLUSTER_TOL * max(1.0, float(np.abs(w).max())))]
        if all(compress(P, comm, tol).rank == 1 for P in pieces):
            break
    else:  # pragma: no cover
        raise NotIrreducible(f"no accepted split in {SPLIT_DRAWS} random elements")
    classes: list[list[np.ndarray]] = []
    for piece in pieces:
        for members in classes:
            if _intertwined(comm, members[0], piece, tol):
                members.append(piece)
                break
        else:
            classes.append([piece])
    sizes = [len(c) for c in classes]
    if sum(k * k for k in sizes) != comm.rank:
        raise ConvergenceFailure(f"class sizes {sizes} do not account for a commutant of rank {comm.rank}")
    return classes
