"""Finite-dimensional unitary representations of u(n)/su(n).

Irreducibles are built from a dominant integral weight by realizing the
highest-weight vector inside a tensor power of the defining space and
generating the irreducible subspace with lowering operators; dimensions are
cross-checked against the Weyl dimension formula.  Negative weight entries
are handled exactly by a determinant-character shift.

The construction cost is exponential in the shifted weight sum, which is
fine at the scales this package targets (tensor spaces up to a few
thousand dimensions).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionOracleMismatch,
    NonCommutingCartan,
    NotDominant,
    NotIrreducible,
)
from .liealg import MatrixLieAlgebra, RootDatum, build_algebra, subalgebra
from .matcore import (
    CLUSTER_TOL,
    DEFAULT_TOL,
    cluster_values,
    commutant_basis,
    numerical_rank,
)

Weight = tuple[int, ...]


# ---------------------------------------------------------------------------
# representation container


@dataclass(eq=False)
class Representation:
    """A unitary representation given by its anti-Hermitian generator images.

    ``dpi[i]`` is the image of ``algebra.basis[i]``.  When the represented
    algebra is a subalgebra of a larger one (e.g. a fixed-point algebra or a
    torus), ``ambient_coeffs`` maps its basis to coefficient vectors over
    the ambient algebra, so elements given in ambient coordinates can be
    evaluated with :meth:`operator`.
    """

    algebra: MatrixLieAlgebra
    dpi: np.ndarray  # (dim_g, d, d) complex
    label: Optional[tuple] = None
    ambient_coeffs: Optional[np.ndarray] = None  # (dim_g, dim_ambient)
    _ambient_pinv: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.dpi.shape[1]

    def operator(self, coeffs: np.ndarray, ambient: Optional[bool] = None) -> np.ndarray:
        """dpi of an element; complex coefficients extend complex-linearly.

        If ``ambient`` is None, coordinates are taken over the ambient
        algebra exactly when ``ambient_coeffs`` is set.
        """
        coeffs = np.asarray(coeffs, dtype=complex)
        if ambient is None:
            ambient = self.ambient_coeffs is not None
        if ambient:
            if self.ambient_coeffs is None:
                raise ValueError("representation has no ambient embedding")
            if self._ambient_pinv is None:
                self._ambient_pinv = np.linalg.pinv(self.ambient_coeffs.T)
            local = self._ambient_pinv @ coeffs
            resid = np.linalg.norm(self.ambient_coeffs.T @ local - coeffs)
            if resid > 1e-8 * max(1.0, np.linalg.norm(coeffs)):
                raise ValueError("element does not lie in the represented subalgebra")
            coeffs = local
        if coeffs.shape != (self.algebra.dim,):
            raise DimensionMismatch(f"expected {self.algebra.dim} coefficients")
        return np.einsum("i,ijk->jk", coeffs, self.dpi)

    def homomorphism_residual(self) -> float:
        g = self.algebra
        worst = 0.0
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                lhs = np.einsum("k,kab->ab", g.structure[i, j].astype(complex), self.dpi)
                rhs = self.dpi[i] @ self.dpi[j] - self.dpi[j] @ self.dpi[i]
                worst = max(worst, float(np.linalg.norm(lhs - rhs)))
        return worst

    def anti_hermitian_residual(self) -> float:
        return float(max(np.linalg.norm(m + m.conj().T) for m in self.dpi)) if len(self.dpi) else 0.0


def direct_sum(reps: Sequence[Representation]) -> Representation:
    if not reps:
        raise ValueError("direct sum of an empty family")
    g = reps[0].algebra
    if any(r.algebra is not g and r.algebra.dim != g.dim for r in reps):
        raise DimensionMismatch("summands must represent the same algebra")
    total = sum(r.dim for r in reps)
    dpi = np.zeros((g.dim, total, total), dtype=complex)
    off = 0
    for r in reps:
        dpi[:, off : off + r.dim, off : off + r.dim] = r.dpi
        off += r.dim
    return Representation(g, dpi, label=None, ambient_coeffs=reps[0].ambient_coeffs)


def tensor_product(a: Representation, b: Representation) -> Representation:
    if a.algebra.dim != b.algebra.dim:
        raise DimensionMismatch("tensor factors must represent the same algebra")
    eye_a, eye_b = np.eye(a.dim), np.eye(b.dim)
    dpi = np.stack(
        [np.kron(a.dpi[i], eye_b) + np.kron(eye_a, b.dpi[i]) for i in range(a.algebra.dim)]
    )
    return Representation(a.algebra, dpi, ambient_coeffs=a.ambient_coeffs)


def restrict(rep: Representation, columns: np.ndarray) -> Representation:
    """Compress onto an invariant subspace with orthonormal column basis."""
    P = np.asarray(columns, dtype=complex)
    dpi = np.einsum("ds,kde,et->kst", P.conj(), rep.dpi, P)
    return Representation(rep.algebra, dpi, label=rep.label, ambient_coeffs=rep.ambient_coeffs)


# ---------------------------------------------------------------------------
# dimension oracle


def weyl_dim(lam: Sequence[int]) -> int:
    """Weyl dimension formula for a dominant gl(n) weight."""
    lam = list(lam)
    n = len(lam)
    num, den = 1, 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    dim, rem = divmod(num, den)
    if rem:
        raise ValueError("Weyl dimension product is not integral; weight not dominant?")
    return dim


# ---------------------------------------------------------------------------
# tensor-power machinery


def _one_body_action(X: np.ndarray, k: int):
    """Return w -> sum_t (1 x .. X .. x 1) w on the k-fold tensor power."""
    n = X.shape[0]

    def act(w: np.ndarray) -> np.ndarray:
        if k == 0:
            return np.zeros_like(w)
        w = w.reshape((n,) * k)
        out = np.zeros_like(w)
        for t in range(k):
            out += np.moveaxis(np.tensordot(X, w, axes=([1], [t])), 0, t)
        return out.reshape(-1)

    return act


def _tuple_contents(n: int, k: int) -> np.ndarray:
    """(n^k, n) occupation content of each basis tuple of the tensor power."""
    if k == 0:
        return np.zeros((1, n), dtype=int)
    tuples = np.array(list(itertools.product(range(n), repeat=k)), dtype=int)
    content = np.zeros((tuples.shape[0], n), dtype=int)
    for col in range(k):
        np.add.at(content, (np.arange(tuples.shape[0]), tuples[:, col]), 1)
    return content


def _highest_weight_vector(n: int, k: int, mu: np.ndarray, tol: float) -> np.ndarray:
    """A unit vector of content mu annihilated by all raising operators E_ij, i<j."""
    content = _tuple_contents(n, k)
    support = np.where((content == mu).all(axis=1))[0]
    if support.size == 0:
        raise DimensionOracleMismatch("weight space of the target content is empty")
    if k == 0:
        return np.ones(1, dtype=complex)
    blocks = []
    for i in range(n):
        for j in range(i + 1, n):
            E = np.zeros((n, n), dtype=complex)
            E[i, j] = 1.0
            act = _one_body_action(E, k)
            target_content = mu.copy()
            target_content[i] += 1
            target_content[j] -= 1
            if (target_content < 0).any():
                continue
            rows = np.where((content == target_content).all(axis=1))[0]
            block = np.zeros((rows.size, support.size), dtype=complex)
            for c, idx in enumerate(support):
                e = np.zeros(n ** k, dtype=complex)
                e[idx] = 1.0
                block[:, c] = act(e)[rows]
            blocks.append(block)
    if blocks:
        stacked = np.vstack(blocks)
        _, s, vh = np.linalg.svd(stacked, full_matrices=True)
        if numerical_rank(s, tol) >= support.size:
            raise DimensionOracleMismatch("no highest-weight vector found in the tensor power")
        coeffs = vh[-1].conj()
    else:
        coeffs = np.zeros(support.size)
        coeffs[0] = 1.0
    v = np.zeros(n ** k, dtype=complex)
    v[support] = coeffs
    return v / np.linalg.norm(v)


def _generate_invariant_subspace(n: int, k: int, seed: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the module generated from ``seed`` by lowering ops."""
    lower = []
    for i in range(n):
        for j in range(i + 1, n):
            E = np.zeros((n, n), dtype=complex)
            E[j, i] = 1.0
            lower.append(_one_body_action(E, k))
    P = seed.reshape(-1, 1)
    frontier = P
    while True:
        cands = []
        for act in lower:
            for col in range(frontier.shape[1]):
                cands.append(act(frontier[:, col]))
        if not cands:
            break
        C = np.stack(cands, axis=1)
        C = C - P @ (P.conj().T @ C)
        u, s, _ = np.linalg.svd(C, full_matrices=False)
        keep = numerical_rank(s, tol)
        if keep == 0:
            break
        new = u[:, :keep]
        P = np.hstack([P, new])
        frontier = new
    return P


def irrep(g: MatrixLieAlgebra, lam: Sequence[int], tol: float = DEFAULT_TOL) -> Representation:
    """Irreducible unitary representation of u(n) or su(n) with highest weight lam.

    ``lam`` is a length-n weakly decreasing integer vector.  For su(n) the
    weight only matters modulo multiples of (1, ..., 1).

    Raises
    ------
    NotDominant : if the weight entries are not weakly decreasing integers.
    DimensionOracleMismatch : if the constructed dimension disagrees with
        the Weyl dimension formula (a construction-bug guard).
    """
    if g.kind not in ("u", "su"):
        raise DimensionMismatch("irreducible construction implemented for u(n)/su(n)")
    lam = tuple(int(x) for x in lam)
    if len(lam) != g.n:
        raise DimensionMismatch(f"weight must have length {g.n}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise NotDominant(f"{lam} is not weakly decreasing")
    n = g.n
    shift = lam[-1]
    mu = np.array(lam, dtype=int) - shift
    k = int(mu.sum())
    target_dim = weyl_dim(lam)
    if k == 0:
        dpi = np.array([[[shift * np.trace(b)]] for b in g.basis], dtype=complex)
        return Representation(g, dpi, label=lam)
    hwv = _highest_weight_vector(n, k, mu, tol)
    P = _generate_invariant_subspace(n, k, hwv, tol)
    if P.shape[1] != target_dim:
        raise DimensionOracleMismatch(
            f"constructed dimension {P.shape[1]} != Weyl formula {target_dim} for {lam}"
        )
    dpi = np.zeros((g.dim, target_dim, target_dim), dtype=complex)
    for b_idx in range(g.dim):
        act = _one_body_action(g.basis[b_idx], k)
        image = np.stack([act(P[:, c]) for c in range(target_dim)], axis=1)
        dpi[b_idx] = P.conj().T @ image
        dpi[b_idx] += shift * np.trace(g.basis[b_idx]) * np.eye(target_dim)
    rep = Representation(g, dpi, label=lam)
    if rep.anti_hermitian_residual() > 1e-9 * max(1, abs(shift) + k):
        raise DimensionOracleMismatch("constructed generators are not anti-Hermitian")
    return rep


def irrep_un(n: int, lam: Sequence[int], tol: float = DEFAULT_TOL) -> Representation:
    """Convenience wrapper: irreducible representation of u(n)."""
    return irrep(build_algebra("u", n), lam, tol)


# ---------------------------------------------------------------------------
# weights


def weight_spaces(rep: Representation, cartan: Optional[np.ndarray] = None,
                  tol: float = CLUSTER_TOL) -> list[tuple[tuple[float, ...], np.ndarray]]:
    """Joint eigenspaces of -i dpi over a commuting Cartan family.

    ``cartan`` is a (r, dim_g) array of coefficient rows; defaults to the
    algebra's diagonal Cartan.  Returns (eigenvalue tuple, column basis)
    pairs with the sum of multiplicities equal to the dimension.
    """
    g = rep.algebra
    if cartan is None:
        if g.cartan_indices is None:
            raise NonCommutingCartan("algebra has no default Cartan; pass one explicitly")
        cartan = np.eye(g.dim)[list(g.cartan_indices)]
    cartan = np.asarray(cartan, dtype=float)
    ops = [-1j * rep.operator(row, ambient=False) for row in cartan]
    scale = max([1.0] + [float(np.linalg.norm(op)) for op in ops])
    for a in range(len(ops)):
        for b in range(a + 1, len(ops)):
            if np.linalg.norm(ops[a] @ ops[b] - ops[b] @ ops[a]) > 1e-8 * scale:
                raise NonCommutingCartan("provided Cartan operators do not commute")
    blocks: list[tuple[tuple[float, ...], np.ndarray]] = [((), np.eye(rep.dim, dtype=complex))]
    for op in ops:
        refined = []
        for vals, basis in blocks:
            comp = basis.conj().T @ op @ basis
            w, v = np.linalg.eigh((comp + comp.conj().T) / 2.0)
            for grp in cluster_values(w, tol * max(1.0, scale)):
                lam = float(np.mean(w[grp]))
                refined.append((vals + (lam,), basis @ v[:, grp]))
        blocks = refined
    return blocks


def weights_of(rep: Representation, cartan: Optional[np.ndarray] = None,
               tol: float = CLUSTER_TOL) -> list[Weight]:
    """Weight multiset (integer-rounded, expanded by multiplicity), sorted."""
    out: list[Weight] = []
    for vals, basis in weight_spaces(rep, cartan, tol):
        rounded = tuple(int(round(v)) for v in vals)
        if any(abs(v - r) > 1e-6 for v, r in zip(vals, rounded)):
            raise NonCommutingCartan(f"non-integral weight {vals}")
        out.extend([rounded] * basis.shape[1])
    return sorted(out)


def extremal_weight(rep: Representation, rd: RootDatum, direction: str = "lowest",
                    tol: float = DEFAULT_TOL) -> Weight:
    """The unique weight extremal against the positive system of ``rd``.

    Verified by the annihilation filter: the joint kernel of all lowering
    (resp. raising) root operators must be one-dimensional; otherwise the
    representation is not irreducible.
    """
    if direction not in ("lowest", "highest"):
        raise ValueError("direction must be 'lowest' or 'highest'")
    g = rep.algebra
    rows = []
    for idx in rd.delta_plus:
        i, j = rd.pairs[idx]
        pair = (j, i) if direction == "lowest" else (i, j)
        from .liealg import _root_vector_coeffs

        rows.append(rep.operator(_root_vector_coeffs(g, *pair), ambient=False))
    if rows:
        stacked = np.vstack(rows)
        _, s, vh = np.linalg.svd(stacked, full_matrices=True)
        kernel = vh[numerical_rank(s, tol):].conj().T
    else:
        kernel = np.eye(rep.dim, dtype=complex)
    if kernel.shape[1] != 1:
        raise NotIrreducible(
            f"extremal filter left a {kernel.shape[1]}-dimensional space; expected a line"
        )
    v = kernel[:, 0]
    if g.cartan_indices is None:
        raise NonCommutingCartan("algebra has no default Cartan")
    lam = []
    for idx in g.cartan_indices:
        op = -1j * rep.dpi[idx]
        lam.append(float(np.real(v.conj() @ op @ v)))
    rounded = tuple(int(round(x)) for x in lam)
    if any(abs(a - b) > 1e-6 for a, b in zip(lam, rounded)):
        raise NotIrreducible(f"extremal weight {lam} is not integral")
    return rounded


# ---------------------------------------------------------------------------
# decomposition into irreducibles


def _equivalent(a: Representation, b: Representation, tol: float) -> bool:
    """Existence of a nonzero intertwiner between two irreducibles."""
    if a.dim != b.dim:
        return False
    d = a.dim
    eye = np.eye(d, dtype=complex)
    rows = [np.kron(a.dpi[i], eye) - np.kron(eye, b.dpi[i].T) for i in range(a.algebra.dim)]
    _, s, _ = np.linalg.svd(np.vstack(rows))
    return numerical_rank(s, tol) < d * d


def decompose(rep: Representation, tol: float = DEFAULT_TOL, seed: int = 0,
              max_tries: int = 8) -> list[tuple[Representation, int]]:
    """Orthogonal decomposition into irreducible components with multiplicity.

    Minimal invariant subspaces are eigenspaces of a random Hermitian
    element of the commutant; components failing the Schur check trigger a
    retry with a fresh random element.
    """
    comm = commutant_basis(list(rep.dpi), dim=rep.dim, tol=tol)
    if comm.rank == 1:
        return [(rep, 1)]
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        coeff = rng.normal(size=comm.rank)
        X = np.einsum("k,kij->ij", coeff.astype(complex), comm.basis)
        X = (X + X.conj().T) / 2.0
        w, v = np.linalg.eigh(X)
        pieces = []
        ok = True
        for grp in cluster_values(w, CLUSTER_TOL * max(1.0, float(np.abs(w).max()))):
            basis = v[:, grp]
            piece = restrict(rep, basis)
            piece_comm = commutant_basis(list(piece.dpi), dim=piece.dim, tol=tol)
            if piece_comm.rank != 1:
                ok = False
                break
            pieces.append(piece)
        if not ok:
            continue
        classes: list[tuple[Representation, int]] = []
        for piece in pieces:
            for idx, (repr_rep, count) in enumerate(classes):
                if _equivalent(piece, repr_rep, tol):
                    classes[idx] = (repr_rep, count + 1)
                    break
            else:
                classes.append((piece, 1))
        total = sum(r.dim * m for r, m in classes)
        if total != rep.dim:
            raise NotIrreducible("decomposition does not exhaust the space")  # pragma: no cover
        return classes
    raise NotIrreducible("could not isolate irreducible components")  # pragma: no cover


# ---------------------------------------------------------------------------
# small builders used by the cone/classification layers


def torus_character(g: MatrixLieAlgebra, lam: Sequence[int]) -> Representation:
    """One-dimensional representation of the diagonal Cartan subalgebra.

    The character has weight ``lam`` in the diagonal coordinates of g; its
    ``ambient_coeffs`` embed the Cartan into g so cone elements given in
    ambient coordinates can be tested directly.
    """
    if g.cartan_indices is None:
        raise NonCommutingCartan("algebra has no default Cartan")
    idx = list(g.cartan_indices)
    lam = [int(x) for x in lam]
    if g.kind == "u" and len(lam) != len(idx):
        raise DimensionMismatch(f"character needs {len(idx)} integer entries")
    cartan_rows = np.eye(g.dim)[idx]
    t_alg = subalgebra(g, cartan_rows, name=f"t({g.name})")
    dpi = np.array([[[1j * l]] for l in lam], dtype=complex)
    return Representation(t_alg, dpi, label=tuple(lam), ambient_coeffs=cartan_rows)


def centralizer_blocks(dvec: Sequence[float], tol: float = CLUSTER_TOL) -> list[list[int]]:
    """Partition of diagonal indices by equal d-entries (order preserved)."""
    blocks: list[list[int]] = []
    seen: list[float] = []
    for i, val in enumerate(dvec):
        for b, ref in enumerate(seen):
            if abs(val - ref) <= tol:
                blocks[b].append(i)
                break
        else:
            seen.append(val)
            blocks.append([i])
    return blocks


def centralizer_irrep(g: MatrixLieAlgebra, dvec: Sequence[float],
                      block_weights: Sequence[Sequence[int]],
                      tol: float = DEFAULT_TOL) -> Representation:
    """Irreducible representation of the block centralizer of a diagonal element.

    The centralizer of ``i diag(dvec)`` in u(n) is the direct sum of u(n_b)
    over blocks of equal diagonal entries; its irreducibles are outer tensor
    products of block irreducibles, labelled by one dominant weight per
    block.  The returned representation is embedded, with ``ambient_coeffs``
    expressing the block basis inside g.
    """
    if g.kind != "u":
        raise DimensionMismatch("block centralizer construction targets u(n)")
    blocks = centralizer_blocks(dvec)
    if len(block_weights) != len(blocks):
        raise DimensionMismatch(f"expected {len(blocks)} block weights")
    block_reps = []
    embed_rows = []
    for block, bw in zip(blocks, block_weights):
        nb = len(block)
        gb = build_algebra("u", nb)
        block_reps.append(irrep(gb, bw, tol))
        # embed each u(nb) basis element into g's coefficient coordinates
        for local in np.eye(gb.dim):
            mat_local = gb.matrix(local)
            mat = np.zeros((g.n, g.n), dtype=complex)
            mat[np.ix_(block, block)] = mat_local
            embed_rows.append(np.real_if_close(g.coeffs_of(mat)))
    dims = [r.dim for r in block_reps]
    total = math.prod(dims)
    dpi_rows = []
    for b, rep_b in enumerate(block_reps):
        for i in range(rep_b.algebra.dim):
            op = np.eye(1, dtype=complex)
            for c, rep_c in enumerate(block_reps):
                factor = rep_c.dpi[i] if c == b else np.eye(rep_c.dim, dtype=complex)
                op = np.kron(op, factor)
            dpi_rows.append(op)
    embed = np.stack(embed_rows).astype(float)
    sub_alg = subalgebra(g, embed, name=f"z_{g.name}")
    dpi = np.stack(dpi_rows)
    label = tuple(tuple(int(x) for x in bw) for bw in block_weights)
    return Representation(sub_alg, dpi, label=label, ambient_coeffs=embed)
