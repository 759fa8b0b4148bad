"""Matrix Lie algebras, derivation spectra, root data, spectral subspaces.

An algebra is stored as a real basis of complex matrices together with the
real structure tensor ``c[i,j,k]`` of ``[x_i, x_j] = sum_k c[i,j,k] x_k``.
Elements of the complexification are complex coefficient vectors over the
same basis; the involution ``(x + iy)^* = -x + iy`` becomes
``star(c) = -conj(c)`` in coefficients, and coincides with the matrix
adjoint whenever the basis matrices are anti-Hermitian.

Sign convention, fixed globally: the "positive" part of a triangular split
is the span of eigenspaces of ``-i ad(d)`` with eigenvalue > 0, and roots
of u(n)/su(n) are stored as the integer vectors ``e_i - e_j`` acting on
``-i diag(t_1, ..., t_n)`` coordinates, so all root/weight arithmetic is
integral.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, NotDiagonal, UnsupportedKind
from .matcore import CLUSTER_TOL, _null_rows, cluster_values, eig_frame

Interval = tuple[float, float]

# Relative residual of a bracket in the span, and distance of a constant read as an integer
STRUCTURE_TOL = 1e-10
BRACKET_BLOCK = 2**16  # entries of one block of brackets (_bracket_blocks)


# ---------------------------------------------------------------------------
# algebra container


@dataclass(eq=False)
class MatrixLieAlgebra:
    """A real matrix Lie algebra with its structure tensor.

    ``_memo`` holds data that depends on the algebra and one element d
    alone (see :func:`_memoized`), so sweeps over representations derive
    it once per (g, d).
    """

    name: str
    kind: str  # 'u', 'su', 'heis', or 'custom'
    n: int  # matrix size
    basis: np.ndarray  # (dim, n, n) complex, a real basis
    structure: np.ndarray  # (dim, dim, dim) real
    cartan_indices: Optional[tuple[int, ...]] = None
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def matrix(self, coeffs: np.ndarray) -> np.ndarray:
        """Matrix of an element of g (real coeffs) or g_C (complex coeffs)."""
        coeffs = np.asarray(coeffs)
        if coeffs.shape != (self.dim,):
            raise DimensionMismatch(f"coefficient vector must have length {self.dim}")
        return np.einsum("i,ijk->jk", coeffs.astype(complex), self.basis)

    def bracket(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """[u, v] in coefficients (complex-bilinear over the real structure)."""
        return np.einsum("i,j,ijk->k", np.asarray(u, complex), np.asarray(v, complex), self.structure)

    def star(self, z: np.ndarray) -> np.ndarray:
        return -np.conj(np.asarray(z, complex))

    def ad(self, d: np.ndarray) -> np.ndarray:
        """Matrix of ad(d) on coefficient vectors; real for real d."""
        d = np.asarray(d)
        out = np.einsum("i,ijk->kj", d.astype(complex), self.structure)
        return out.real if np.isrealobj(d) or np.allclose(out.imag, 0) else out


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _memoized(g: MatrixLieAlgebra, what, d: np.ndarray, build):
    """``build()``, stored on ``g`` under the hashable label ``what`` and d's dtype, shape and bytes.

    Stored arrays are read-only.  Concurrent callers may both build an
    entry; they store identical values, and the last one is kept.
    """
    key = (what, d.dtype.str, d.shape, d.tobytes())
    value = g._memo.get(key)
    if value is None:
        value = g._memo[key] = build()
    return value


def _bracket_blocks(basis: np.ndarray):
    """Yield (i-slice, [x_i, x_j] for i in it and every j as an (s, m, n * n) array).

    The products x_i x_j are formed once, and their differences about
    ``BRACKET_BLOCK`` entries at a time.
    """
    m = len(basis)
    prod = basis[:, None] @ basis
    step = max(1, BRACKET_BLOCK // (m * basis[0].size))
    for lo in range(0, m, step):
        at = slice(lo, lo + step)
        out = prod[at] - prod[:, at].swapaxes(0, 1)
        if lo + step >= m:
            del prod  # freed before the caller takes the last block
        yield at, out.reshape(len(out), m, -1)


def _span_coordinates(targets: np.ndarray, span: np.ndarray, tol: float) -> np.ndarray:
    """Coordinates c with c @ span = targets, for (..., N) targets and (k, N) rows ``span``.

    One pseudo-inverse solves every target: the (m, m, N) brackets of a
    basis, or rows of matrices to embed.  A target whose residual is not at
    most ``tol * max(1, |target|)``, NaN included, leaves the span and raises.
    """
    c = targets @ np.linalg.pinv(span)
    resid = np.linalg.norm(c @ span - targets, axis=-1)
    leaving = np.argwhere(~(resid <= tol * np.maximum(1.0, np.linalg.norm(targets, axis=-1))))
    if leaving.size:
        at = tuple(int(x) for x in leaving[0])
        raise ValueError(f"the target at index {at} leaves the span (residual {resid[at]:.2e})")
    return c


def structure_constants(basis: np.ndarray) -> np.ndarray:
    """Structure tensor from a matrix basis; raises if brackets leave the span.

    The brackets are formed and solved one block of i at a time
    (:func:`_bracket_blocks`, :func:`_span_coordinates`); a target index in
    the error counts within its block.  A constant within ``STRUCTURE_TOL``
    of an integer is that integer, so the solver's roundoff leaves no entry
    where the tensor has a zero: it would couple eigenspaces of ad d that
    the tensor keeps apart.
    """
    span = basis.reshape(len(basis), -1)
    out = np.empty((len(basis),) * 3)
    for at, brackets in _bracket_blocks(basis):
        c = _span_coordinates(brackets, span, STRUCTURE_TOL)
        if (np.linalg.norm(c.imag, axis=2) > 1e-8).any():
            raise ValueError("structure constants are not real; basis is not a real basis")
        c = c.real
        whole = np.round(c)
        out[at] = np.where(np.abs(c - whole) <= STRUCTURE_TOL, whole + 0.0, c)
    return out


def bracket_closure_residual(g: MatrixLieAlgebra) -> float:
    """Largest Frobenius norm of [x_i, x_j] - sum_k c[i,j,k] x_k over all pairs; NaN if any entry is NaN.

    Formed a block of i at a time (:func:`_bracket_blocks`).
    """
    flat = g.basis.reshape(g.dim, -1)
    return float(np.max([np.linalg.norm(gap - g.structure[at] @ flat, axis=2).max()
                         for at, gap in _bracket_blocks(g.basis)]))


def jacobi_residual(g: MatrixLieAlgebra) -> float:
    """Largest entry of the cyclic sum of c[i,j,m] c[m,k,l] over (i, j, k); NaN if any entry is NaN.

    Formed one i-slice at a time, so temporaries hold dim^3 entries; the
    running maximum is ``np.maximum``, which keeps a NaN.
    """
    c = g.structure
    m = c.shape[0]
    flat = c.reshape(m * m, m)  # rows (a, b) -> c[a, b, :]
    worst = 0.0
    for i in range(m):
        # t[j, k, l] = c[i,j,m] c[m,k,l] + c[j,k,m] c[m,i,l] + c[k,i,m] c[m,j,l]
        t = (c[i] @ c.reshape(m, m * m)).reshape(m, m, m)
        t += (flat @ c[:, i, :]).reshape(m, m, m)
        t += (c[:, i, :] @ c.reshape(m, m * m)).reshape(m, m, m).transpose(1, 0, 2)
        worst = np.maximum(worst, np.abs(t).max())
    return float(worst)


# ---------------------------------------------------------------------------
# standard algebras


def _eij(n: int, i: int, j: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def _u_basis(n: int) -> np.ndarray:
    mats = [1j * _eij(n, k, k) for k in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            mats.append(_eij(n, i, j) - _eij(n, j, i))
            mats.append(1j * (_eij(n, i, j) + _eij(n, j, i)))
    return np.stack(mats)


def _su_basis(n: int) -> np.ndarray:
    mats = [1j * (_eij(n, k, k) - _eij(n, k + 1, k + 1)) for k in range(n - 1)]
    for i in range(n):
        for j in range(i + 1, n):
            mats.append(_eij(n, i, j) - _eij(n, j, i))
            mats.append(1j * (_eij(n, i, j) + _eij(n, j, i)))
    return np.stack(mats)


def _heis_basis(two_k: int) -> np.ndarray:
    # (k+2)-dimensional strictly upper-triangular realization:
    # basis order [Z, X_1..X_k, Y_1..Y_k] with [X_i, Y_j] = delta_ij Z.
    k = two_k // 2
    n = k + 2
    mats = [_eij(n, 0, n - 1)]
    mats += [_eij(n, 0, 1 + i) for i in range(k)]
    mats += [_eij(n, 1 + i, n - 1) for i in range(k)]
    return np.stack(mats)


def build_algebra(kind: str, n: int) -> MatrixLieAlgebra:
    """Construct u(n), su(n) or heis(2k) with verified structure constants.

    For ``heis`` the argument is the symplectic dimension 2k (even, >= 2)
    and the resulting algebra has dimension 2k + 1 with a one-dimensional
    center spanned by the first basis element.
    """
    kind = kind.lower()
    if kind == "u":
        if n < 1:
            raise UnsupportedKind("u(n) requires n >= 1")
        basis, size, cartan = _u_basis(n), n, tuple(range(n))
    elif kind == "su":
        if n < 2:
            raise UnsupportedKind("su(n) requires n >= 2")
        basis, size, cartan = _su_basis(n), n, tuple(range(n - 1))
    elif kind == "heis":
        if n < 2 or n % 2:
            raise UnsupportedKind("heis takes the symplectic dimension 2k (even, >= 2)")
        basis, size, cartan = _heis_basis(n), n // 2 + 2, None
    else:
        raise UnsupportedKind(f"unknown algebra kind {kind!r}")
    g = MatrixLieAlgebra(f"{kind}({n})", kind, size, basis, structure_constants(basis), cartan)
    if not (bracket_closure_residual(g) <= STRUCTURE_TOL * 10 and jacobi_residual(g) <= STRUCTURE_TOL * 10):
        raise ValueError("structure constant verification failed")
    return g


def subalgebra(g: MatrixLieAlgebra, coeff_rows: np.ndarray, name: str = "sub") -> MatrixLieAlgebra:
    """Subalgebra spanned by real coefficient rows over g's basis, with g's tensor restricted."""
    rows = np.asarray(coeff_rows, dtype=float)
    mats = np.einsum("ri,ijk->rjk", rows.astype(complex), g.basis)
    brackets = np.einsum("ai,bik->abk", rows, np.einsum("bj,ijk->bik", rows, g.structure))
    return MatrixLieAlgebra(name, "custom", g.n, mats, _span_coordinates(brackets, rows, STRUCTURE_TOL), None)


def diagonal_element(g: MatrixLieAlgebra, entries: Sequence[float]) -> np.ndarray:
    """Coefficients of i*diag(entries) in u(n) or su(n) (traceless for su)."""
    entries = np.asarray(entries, dtype=float)
    if g.kind == "u":
        if entries.shape != (g.n,):
            raise DimensionMismatch(f"expected {g.n} diagonal entries")
        out = np.zeros(g.dim)
        out[: g.n] = entries
        return out
    if g.kind == "su":
        if entries.shape != (g.n,):
            raise DimensionMismatch(f"expected {g.n} diagonal entries")
        if abs(entries.sum()) > 1e-12:
            raise ValueError("su(n) diagonal entries must sum to zero")
        out = np.zeros(g.dim)
        out[: g.n - 1] = np.cumsum(entries)[:-1]
        return out
    raise UnsupportedKind("diagonal shorthand only applies to u(n)/su(n)")


# ---------------------------------------------------------------------------
# derivation spectra


@dataclass(frozen=True)
class DerivationData:
    """Eigendata of ``-i D`` for a derivation D of g, on the complexification.

    ``element`` is the coefficient vector when D = ad(d) is inner, None for
    an outer derivation passed as a matrix.  ``eigenvalues[i]``, the mean of
    a cluster of eigenvalues chained at distance ``window``, pairs with
    ``eigenspaces[i]`` (columns = coefficient vectors of g_C); for
    non-diagonalizable D the spaces are generalized eigenspaces and
    ``diagonalizable`` is False.  ``null`` indexes the clusters read as
    zero (see :func:`_null_clusters`), whose eigenvalues reach at most
    ``reach`` from 0.  g^0, root signs and regularity read these.
    """

    algebra: MatrixLieAlgebra
    element: Optional[np.ndarray]
    derivation: np.ndarray  # (dim, dim) real matrix of D on coefficients
    eigenvalues: np.ndarray  # complex, sorted by (real, imag)
    eigenspaces: tuple[np.ndarray, ...]
    diagonalizable: bool
    window: float
    null: tuple[int, ...]
    reach: float

    def spaces(self, predicate) -> list[tuple[complex, np.ndarray]]:
        return [(lam, sp) for lam, sp in zip(self.eigenvalues, self.eigenspaces) if predicate(lam)]

    @property
    def positive_clusters(self) -> list[int]:
        """The clusters past the window on the positive side that are not read as zero."""
        return [k for k, lam in enumerate(self.eigenvalues) if k not in self.null and lam.real > self.window]

    def positive(self) -> list[tuple[complex, np.ndarray]]:
        return [(self.eigenvalues[k], self.eigenspaces[k]) for k in self.positive_clusters]


def _as_derivation(d) -> np.ndarray:
    """A real element or derivation matrix as float; complex input is kept."""
    return np.asarray(d, dtype=float) if np.isrealobj(np.asarray(d)) else np.asarray(d)


def _derivation_matrix(g: MatrixLieAlgebra, d) -> tuple[np.ndarray, Optional[np.ndarray]]:
    d = _as_derivation(d)
    if d.ndim == 1:
        if d.shape != (g.dim,):
            raise DimensionMismatch(f"element coefficient vector must have length {g.dim}")
        return g.ad(d), d
    if d.shape != (g.dim, g.dim):
        raise DimensionMismatch("derivation matrix must be (dim, dim)")
    return np.asarray(d, dtype=float), None


def spectral_split(g: MatrixLieAlgebra, d) -> DerivationData:
    """Full eigendata of ``-i D`` on g_C, where D = ad(d) or an explicit matrix.

    Eigenvalues chained at distance ``window = CLUSTER_TOL * max(1, max|D|)``
    form a cluster; one of k eigenvalues with mean lam takes the k right
    singular vectors of A - lam with the smallest singular values, so no
    rank threshold decides a dimension.  D is diagonalizable when each such
    block has residual at most ``window * max(1, k)``; otherwise the spaces
    are generalized eigenspaces, null((A - lam)^dim) at the rank rule.  The
    result is memoized on ``g``, one per (g, d), with read-only arrays.
    """
    d = _as_derivation(d)
    return _memoized(g, "spectral split", d, lambda: _spectral_split(g, d.copy()))


def _spectral_split(g: MatrixLieAlgebra, d: np.ndarray) -> DerivationData:
    D, element = _derivation_matrix(g, d)
    m = g.dim
    A = -1j * D.astype(complex)
    w = np.linalg.eigvals(A)
    window = CLUSTER_TOL * max(1.0, float(np.abs(A).max()))
    clusters = cluster_values(w, window)
    means = [complex(np.mean(w[grp])) for grp in clusters]
    order = sorted(range(len(means)), key=lambda i: (means[i].real, means[i].imag))
    clusters, eigvals = [clusters[i] for i in order], [means[i] for i in order]
    spaces = [_null_rows(A - lam * np.eye(m), len(grp)).T for lam, grp in zip(eigvals, clusters)]
    diag = all(np.linalg.norm(A @ sp - lam * sp) <= window * max(1, sp.shape[1])
               for lam, sp in zip(eigvals, spaces))
    if not diag:
        spaces = [_null_rows(np.linalg.matrix_power(A - lam * np.eye(m), m)).T for lam in eigvals]
    null, reach = _null_clusters(w, clusters, window)
    return DerivationData(
        algebra=g,
        element=None if element is None else _frozen(element),
        derivation=_frozen(D),
        eigenvalues=_frozen(np.array(eigvals)),
        eigenspaces=tuple(_frozen(sp) for sp in spaces),
        diagonalizable=diag,
        window=window,
        null=null,
        reach=reach,
    )


def _null_clusters(w: np.ndarray, clusters: list, window: float) -> tuple[tuple[int, ...], float]:
    """The clusters read as zero, and the largest |eigenvalue| among them.

    They are those within the window of 0, closed under sums: a cluster
    joins when one of its eigenvalues lies within the window of the sum of
    two that have joined, so that their span is a subalgebra, or is no
    farther from 0 than one of them, so that the smallest singular values
    of a normal D are theirs.
    """
    near = [float(np.abs(w[grp]).min()) for grp in clusters]
    null, reach = {k for k, x in enumerate(near) if x <= window}, 0.0
    while null:
        vals = np.concatenate([w[clusters[k]] for k in sorted(null)])
        sums, reach = (vals[:, None] + vals).ravel(), float(np.abs(vals).max())
        grown = {k for k, grp in enumerate(clusters)
                 if near[k] <= reach or np.abs(w[grp][:, None] - sums).min() <= window}
        if grown == null:
            break
        null = grown
    return tuple(sorted(null)), reach


def centralizer_basis(g: MatrixLieAlgebra, d) -> np.ndarray:
    """Real orthonormal coefficient rows spanning ker(ad d) (or ker of a matrix D).

    Its dimension is that of the clusters :func:`spectral_split` reads as
    zero, or for a non-diagonalizable D the rank rule's.
    """
    D, _ = _derivation_matrix(g, d)
    dd = spectral_split(g, d)
    nullity = sum(dd.eigenspaces[k].shape[1] for k in dd.null) if dd.diagonalizable else None
    rows = _null_rows(D, nullity)
    if np.linalg.norm(rows.imag) > 1e-10:
        raise ValueError("kernel of a real derivation should have a real basis")
    return rows.real


@dataclass(frozen=True)
class FixedPointData:
    """The fixed-point algebra g^0 = ker(ad d) and its torus.

    ``rows`` are the real orthonormal coefficient rows of g^0 over g, and
    ``algebra`` is g^0 with the basis they span.  ``torus_rows`` are the
    Cartan rows of g projected onto g^0, in its coordinates (None when g
    has no default Cartan); a generic combination of them is the seed
    element of commutants of g^0's representations.  Where the split read
    as zero eigenvalues past its eigensolver's roundoff dim * eps * max|D|,
    ad d does not vanish on g^0, and ``central`` is the part of d in the
    center of g^0 along [g^0, g^0], for which they are zero; else None.
    ``crows`` are ``rows`` as complex numbers, and ``window`` is the
    split's.
    """

    rows: np.ndarray
    algebra: MatrixLieAlgebra
    torus_rows: Optional[np.ndarray]
    central: Optional[np.ndarray]
    crows: np.ndarray
    window: float


def fixed_point_data(g: MatrixLieAlgebra, d) -> FixedPointData:
    """Fixed-point data of an element d of g, memoized on ``g`` with read-only arrays."""
    d = _as_derivation(d)

    def build() -> FixedPointData:
        rows = _frozen(centralizer_basis(g, d))
        sub = subalgebra(g, rows, name=f"fix({g.name})")
        _frozen(sub.basis)
        _frozen(sub.structure)
        torus = None if g.cartan_indices is None else _frozen(rows[:, list(g.cartan_indices)].T.copy())
        dd = spectral_split(g, d)
        central = None
        if dd.reach > g.dim * np.finfo(float).eps * np.abs(dd.derivation).max():
            k = len(rows)
            z = _null_rows(sub.structure.transpose(1, 2, 0).reshape(k * k, k)).real @ rows
            zg = z @ np.einsum("iab,jab->ij", g.basis.conj(), g.basis).real
            central = _frozen(z.T @ np.linalg.solve(zg @ z.T, zg @ d))
        return FixedPointData(rows, sub, torus, central, _frozen(rows.astype(complex)), dd.window)

    return _memoized(g, "fixed point", d, build)


# ---------------------------------------------------------------------------
# root data for u(n) / su(n)


@dataclass
class RootDatum:
    """Roots e_i - e_j of u(n)/su(n) with the d-dependent positive split.

    ``pairs`` lists the roots as index pairs (i, j); ``root_vectors`` are
    complex coefficient vectors of E_ij over the algebra basis; ``coroots``
    are real coefficient vectors of the element i(E_ii - E_jj), so the
    Hermitian coroot operator of a representation is ``-i dpi(coroot)``.
    ``delta_zero`` and ``delta_plus_plus`` hold the roots whose vector lies
    in a cluster that the split of d reads as zero, or in a positive one.
    ``delta_plus`` is a positive system containing ``delta_plus_plus``,
    completed on the d-null roots by the lexicographic (i, j) tie-break.
    """

    algebra: MatrixLieAlgebra
    pairs: list[tuple[int, int]]
    root_vectors: np.ndarray  # (R, dim) complex
    coroots: np.ndarray  # (R, dim) float
    delta_plus_plus: tuple[int, ...]
    delta_zero: tuple[int, ...]
    delta_plus: tuple[int, ...]


def _root_vector_coeffs(g: MatrixLieAlgebra, i: int, j: int) -> np.ndarray:
    """E_ij (i != j) as a complex coefficient vector over the u/su basis."""
    n = g.n
    ncart = n if g.kind == "u" else n - 1
    a, b = min(i, j), max(i, j)
    # off-diagonal pairs are ordered lexicographically after the Cartan block
    pos = ncart + 2 * sum(n - 1 - r for r in range(a)) + 2 * (b - a - 1)
    out = np.zeros(g.dim, dtype=complex)
    if i < j:
        out[pos] = 0.5
        out[pos + 1] = -0.5j
    else:
        out[pos] = -0.5
        out[pos + 1] = -0.5j
    return out


def _coroot_coeffs(g: MatrixLieAlgebra, i: int, j: int) -> np.ndarray:
    """The element i(E_ii - E_jj) over the u/su basis (real coefficients)."""
    out = np.zeros(g.dim)
    if g.kind == "u":
        out[i] = 1.0
        out[j] = -1.0
        return out
    lo, hi = min(i, j), max(i, j)
    sign = 1.0 if i < j else -1.0
    out[lo:hi] = sign
    return out


def root_datum(g: MatrixLieAlgebra, d) -> RootDatum:
    if g.kind not in ("u", "su"):
        raise UnsupportedKind("root data implemented for u(n)/su(n) only")
    d = np.asarray(d, dtype=float)
    mat = g.matrix(d)
    off = mat - np.diag(np.diag(mat))
    if np.linalg.norm(off) > 1e-8 * max(1.0, np.linalg.norm(mat)):
        raise NotDiagonal("d must lie in the diagonal Cartan subalgebra")
    n = g.n
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rvecs = np.zeros((len(pairs), g.dim), dtype=complex)
    corts = np.zeros((len(pairs), g.dim))
    for idx, (i, j) in enumerate(pairs):
        rvecs[idx] = _root_vector_coeffs(g, i, j)
        corts[idx] = _coroot_coeffs(g, i, j)
    dd = spectral_split(g, d)
    held = np.argmax([np.linalg.norm(rvecs @ sp.conj(), axis=1) for sp in dd.eigenspaces], axis=0)
    positive = dd.positive_clusters
    dpp = tuple(idx for idx, k in enumerate(held) if k in positive)
    dzero = tuple(idx for idx, k in enumerate(held) if k in dd.null)
    dplus = dpp + tuple(idx for idx in dzero if pairs[idx][0] < pairs[idx][1])
    return RootDatum(g, pairs, rvecs, corts, dpp, dzero, dplus)


# ---------------------------------------------------------------------------
# spectral subspaces for interval unions


def normalize_intervals(E) -> list[Interval]:
    """Accepts a scalar, a (lo, hi) pair, or a list of pairs; +-inf allowed."""
    if np.isscalar(E):
        return [(float(E), float(E))]
    E = list(E)
    if len(E) == 2 and all(np.isscalar(x) for x in E):
        return [(float(E[0]), float(E[1]))]
    return [(float(lo), float(hi)) for lo, hi in E]


def intervals_contain(E: list[Interval], x: float) -> bool:
    """Is x within ``CLUSTER_TOL`` of one of the closed intervals E?"""
    return any(lo - CLUSTER_TOL <= x <= hi + CLUSTER_TOL for lo, hi in E)


def intervals_sum(E: list[Interval], F: list[Interval]) -> list[Interval]:
    return [(le + lf, he + hf) for (le, he) in E for (lf, hf) in F]


def spectral_subspace(A, E) -> np.ndarray:
    """Span of eigenvectors with eigenvalue in the closed set E, within ``CLUSTER_TOL``.

    ``A`` is a Hermitian matrix or a DerivationData; ``E`` is a finite union
    of closed intervals (scalars allowed).  The empty set yields the zero
    subspace.  Returns an orthonormal column basis.
    """
    intervals = normalize_intervals(E) if E is not None else []
    if isinstance(A, DerivationData):
        spaces = [sp for lam, sp in zip(A.eigenvalues, A.eigenspaces)
                  if intervals_contain(intervals, lam.real)]
        dim = A.algebra.dim
        return np.hstack(spaces) if spaces else np.zeros((dim, 0), dtype=complex)
    w, v, _ = eig_frame(A, 1e-8)
    return v[:, [k for k in range(len(w)) if intervals_contain(intervals, float(w[k]))]]
