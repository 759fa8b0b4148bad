"""Finite-dimensional unitary representations of u(n)/su(n).

Irreducibles are built from a dominant integral weight in the orthonormal
Gelfand-Tsetlin basis, one vector per GT pattern, where the generators
E_kk, E_{k,k+1} and E_{k+1,k} of gl(n) have closed-form matrices (Molev,
arXiv:math/0211289, Thm 2.3).  Negative weight entries enter the formulas
directly.  The pattern count is cross-checked against the Weyl dimension
formula.  Construction cost is polynomial in the irreducible's dimension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionOracleMismatch,
    NonCommutingCartan,
    NotDominant,
    NotIrreducible,
)
from .liealg import MatrixLieAlgebra, RootDatum, _root_vector_coeffs, build_algebra, subalgebra
from .matcore import (
    CLUSTER_TOL,
    DEFAULT_TOL,
    _null_rows,
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

    @property
    def dim(self) -> int:
        return self.dpi.shape[1]

    @cached_property
    def _ambient_pinv(self) -> np.ndarray:
        return np.linalg.pinv(self.ambient_coeffs.T)

    def local_coeffs(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Local coordinates of ambient coefficient rows, and which rows lie outside the subalgebra."""
        if self.ambient_coeffs is None:
            raise ValueError("representation has no ambient embedding")
        coeffs = np.asarray(coeffs, dtype=complex)
        local = coeffs @ self._ambient_pinv.T
        resid = np.linalg.norm(local @ self.ambient_coeffs - coeffs, axis=-1)
        return local, resid > 1e-8 * np.maximum(1.0, np.linalg.norm(coeffs, axis=-1))

    def operator(self, coeffs: np.ndarray, ambient: Optional[bool] = None) -> np.ndarray:
        """dpi of an element; complex coefficients extend complex-linearly.

        If ``ambient`` is None, coordinates are taken over the ambient
        algebra exactly when ``ambient_coeffs`` is set.
        """
        coeffs = np.asarray(coeffs, dtype=complex)
        if ambient is None:
            ambient = self.ambient_coeffs is not None
        if ambient:
            coeffs, outside = self.local_coeffs(coeffs)
            if outside:
                raise ValueError("element does not lie in the represented subalgebra")
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
# Gelfand-Tsetlin construction


def _gt_patterns(lam: Sequence[int]) -> list[tuple[Weight, ...]]:
    """Gelfand-Tsetlin patterns with top row ``lam``, in a fixed order.

    A pattern is the tuple of its rows, shortest first: ``rows[k - 1]`` has
    length k and interlaces the row above it,
    ``rows[k][i] >= rows[k - 1][i] >= rows[k][i + 1]``.  Patterns come in
    decreasing lexicographic order of their rows read from the top down, so
    the highest-weight pattern is first.
    """
    patterns: list[tuple[Weight, ...]] = [(tuple(lam),)]
    for _ in range(len(lam) - 1):
        patterns = [
            (sub,) + p
            for p in patterns
            for sub in itertools.product(
                *[range(p[0][i], p[0][i + 1] - 1, -1) for i in range(len(p[0]) - 1)]
            )
        ]
    return patterns


def _gt_ratio(x: int, lower: Sequence[int], same: Sequence[int]) -> tuple[int, int]:
    """(prod_j (x - lower_j), prod_j (x - same_j)) as exact integers."""
    return math.prod(x - y for y in lower), math.prod(x - y for y in same)


def _gt_generators(lam: Weight) -> np.ndarray:
    """rho(E_ij) for the gl(n) irreducible lam in the orthonormal GT basis.

    Returns a real (n, n, d, d) array.  With l_ki = rows[k-1][i] - i (0-based
    i), the raising coefficient A of E_{k,k+1} at a pattern and the lowering
    coefficient B of E_{k+1,k} at the raised pattern are Molev's closed forms
    (arXiv:math/0211289, Thm 2.3) for the unnormalized basis; their product
    is positive, and sqrt(A B) is the matrix entry in the orthonormal basis.
    Non-adjacent E_ij are brackets of adjacent ones.
    """
    n = len(lam)
    patterns = _gt_patterns(lam)
    index = {p: c for c, p in enumerate(patterns)}
    d = len(patterns)
    rho = np.zeros((n, n, d, d))
    for c, rows in enumerate(patterns):
        sums = [0] + [sum(r) for r in rows]
        for k in range(n):
            rho[k, k, c, c] = sums[k + 1] - sums[k]
        ls = [[x - i for i, x in enumerate(r)] for r in rows]
        for k in range(1, n):  # E_{k,k+1}: raise an entry of row k
            row, above = ls[k - 1], ls[k]
            below = ls[k - 2] if k > 1 else []
            for i in range(k):
                raised = list(rows[k - 1])
                raised[i] += 1
                target = index.get(rows[: k - 1] + (tuple(raised),) + rows[k:])
                if target is None:
                    continue
                others = row[:i] + row[i + 1:]
                a_num, a_den = _gt_ratio(row[i], above, others)
                b_num, b_den = _gt_ratio(row[i] + 1, below, others)
                rho[k - 1, k, target, c] = math.sqrt(-a_num * b_num / (a_den * b_den))
    for gap in range(1, n):
        for i in range(n - gap):
            j = i + gap
            if gap > 1:
                rho[i, j] = rho[i, i + 1] @ rho[i + 1, j] - rho[i + 1, j] @ rho[i, i + 1]
            rho[j, i] = rho[i, j].T
    return rho


def irrep(g: MatrixLieAlgebra, lam: Sequence[int]) -> Representation:
    """Irreducible unitary representation of u(n) or su(n) with highest weight lam.

    ``lam`` is a length-n weakly decreasing integer vector; negative entries
    are allowed.  For su(n) the weight only matters modulo multiples of
    (1, ..., 1).  The representation is realized in the orthonormal
    Gelfand-Tsetlin basis, highest-weight pattern first; Cartan elements
    act diagonally with exactly integral eigenvalues.

    Raises
    ------
    NotDominant : if the weight entries are not weakly decreasing integers.
    DimensionOracleMismatch : if the pattern count disagrees with the Weyl
        dimension formula, or the generators are not anti-Hermitian (guards
        against construction bugs).
    """
    if g.kind not in ("u", "su"):
        raise DimensionMismatch("irreducible construction implemented for u(n)/su(n)")
    lam = tuple(int(x) for x in lam)
    if len(lam) != g.n:
        raise DimensionMismatch(f"weight must have length {g.n}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise NotDominant(f"{lam} is not weakly decreasing")
    rho = _gt_generators(lam)
    target_dim = weyl_dim(lam)
    if rho.shape[-1] != target_dim:
        raise DimensionOracleMismatch(
            f"pattern count {rho.shape[-1]} != Weyl formula {target_dim} for {lam}"
        )
    dpi = np.einsum("bij,ijkl->bkl", g.basis, rho, optimize=True)
    rep = Representation(g, dpi, label=lam)
    if rep.anti_hermitian_residual() > 1e-9 * max(1, sum(abs(x) for x in lam)):
        raise DimensionOracleMismatch("constructed generators are not anti-Hermitian")
    return rep


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
    rows = [np.zeros((0, rep.dim), dtype=complex)]
    for idx in rd.delta_plus:
        i, j = rd.pairs[idx]
        pair = (j, i) if direction == "lowest" else (i, j)
        rows.append(rep.operator(_root_vector_coeffs(g, *pair), ambient=False))
    kernel = _null_rows(np.vstack(rows), tol).T
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
                      block_weights: Sequence[Sequence[int]]) -> Representation:
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
        block_reps.append(irrep(gb, bw))
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
