"""Finite-dimensional unitary representations of u(n)/su(n).

Irreducibles are built from a dominant integral weight in the orthonormal
Gelfand-Tsetlin basis, one vector per GT pattern, where the generators
E_kk, E_{k,k+1} and E_{k+1,k} of gl(n) have closed-form matrices (Molev,
arXiv:math/0211289, Thm 2.3).  Negative weight entries enter the formulas
directly.  The pattern count is cross-checked against the Weyl dimension
formula.  Construction cost is polynomial in the irreducible's dimension.
"""

from __future__ import annotations

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
from .liealg import (MatrixLieAlgebra, RootDatum, _root_vector_coeffs, _span_coordinates, build_algebra,
                     diagonal_element, root_datum, subalgebra)
from .matcore import (CLUSTER_TOL, DEFAULT_TOL, OperatorSubspace, _null_rows, cluster_values, commutant_basis,
                      isotypic_split)

Weight = tuple[int, ...]


# ---------------------------------------------------------------------------
# representation container


@dataclass(frozen=True, eq=False)
class Representation:
    """A unitary representation given by its anti-Hermitian generator images.

    ``dpi[i]`` is the image of ``algebra.basis[i]``.  The representation
    owns ``dpi``: construction makes it a C-contiguous complex array, which
    copies nothing when it already is one, and sets it read-only in place,
    so it can be neither written nor, the fields being frozen, reassigned.
    ``_memo`` holds what :func:`commutant` derives from ``dpi`` alone.  When
    the represented algebra is a subalgebra of a larger one (e.g. a
    fixed-point algebra or a torus), ``ambient_coeffs`` maps its basis to
    coefficient vectors over the ambient algebra, as orthonormal rows, so
    that :meth:`local_coeffs` takes elements given in ambient coordinates to
    local ones.  Construction sets those rows read-only in place too, so a
    memo may key on their identity (:func:`cones.check_cone_positivity`).
    """

    algebra: MatrixLieAlgebra
    dpi: np.ndarray  # (dim_g, d, d) complex, read-only
    label: Optional[tuple] = None
    ambient_coeffs: Optional[np.ndarray] = None  # (dim_g, dim_ambient), orthonormal rows
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        dpi = np.ascontiguousarray(self.dpi, dtype=complex)
        dpi.setflags(write=False)
        object.__setattr__(self, "dpi", dpi)
        if self.ambient_coeffs is not None:
            self.ambient_coeffs.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.dpi.shape[1]

    def local_coeffs(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Local coordinates of ambient coefficient rows, and which rows lie outside the subalgebra.

        With orthonormal rows R in ``ambient_coeffs``, the local coordinates
        of x are x R^T.  A row x is outside when x R^T R misses x; since R
        has full rank, that residual also vanishes only where x R^T is the
        right answer, so rows R that break the contract flag their elements
        as outside rather than give wrong coordinates.
        """
        if self.ambient_coeffs is None:
            raise ValueError("representation has no ambient embedding")
        coeffs = np.asarray(coeffs, dtype=complex)
        local = coeffs @ self.ambient_coeffs.T
        resid = np.linalg.norm(local @ self.ambient_coeffs - coeffs, axis=-1)
        return local, resid > 1e-8 * np.maximum(1.0, np.linalg.norm(coeffs, axis=-1))

    def operator(self, coeffs: np.ndarray) -> np.ndarray:
        """dpi of an element in local coordinates; complex coefficients extend complex-linearly."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (self.algebra.dim,):
            raise DimensionMismatch(f"expected {self.algebra.dim} coefficients")
        return np.einsum("i,ijk->jk", coeffs, self.dpi)

    def homomorphism_residual(self) -> float:
        """Largest Frobenius norm of dpi([x_i, x_j]) - [dpi(x_i), dpi(x_j)] over i < j; NaN if dpi holds one.

        One batched product per generator i covers every j > i, so
        temporaries hold dim_g * d^2 entries; the running maximum is
        ``np.maximum``, which keeps a NaN.
        """
        g = self.algebra
        flat = self.dpi.reshape(g.dim, -1)
        worst = 0.0
        for i in range(g.dim - 1):
            rest = self.dpi[i + 1:]
            gap = (g.structure[i, i + 1:] @ flat).reshape(rest.shape)
            gap -= self.dpi[i] @ rest
            gap += rest @ self.dpi[i]
            worst = np.maximum(worst, np.linalg.norm(gap, axis=(1, 2)).max())
        return float(worst)

    def anti_hermitian_residual(self) -> float:
        """Largest Frobenius norm of dpi[i] + dpi[i]^*; NaN if dpi holds one.

        One norm per generator, so temporaries hold d^2 entries.
        """
        return float(np.max([np.linalg.norm(m + m.conj().T) for m in self.dpi], initial=0.0))


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


def restrict(rep: Representation, columns: np.ndarray) -> Representation:
    """Compress onto an invariant subspace with orthonormal column basis."""
    P = np.asarray(columns, dtype=complex)
    dpi = P.conj().T @ rep.dpi @ P
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


def _gt_patterns(lam: Weight) -> np.ndarray:
    """Gelfand-Tsetlin patterns with top row ``lam``, as a (d, n, n) integer array.

    Row r of pattern c is ``patterns[c, r, :r + 1]`` (zero beyond) and
    interlaces the row above it, ``rows[r + 1][i] >= rows[r][i] >=
    rows[r + 1][i + 1]``.  Patterns come in decreasing lexicographic order
    of their rows read from the top down, so the highest-weight pattern is
    first.
    """
    n = len(lam)
    patterns = np.zeros((1, n, n), dtype=np.int64)
    patterns[0, n - 1] = lam
    for r in range(n - 2, -1, -1):
        for i in range(r + 1):  # entry i of row r takes rows[r+1][i], ..., rows[r+1][i+1]
            top = patterns[:, r + 1, i]
            count = top - patterns[:, r + 1, i + 1] + 1
            owner = np.arange(len(count)).repeat(count)
            rank = np.arange(len(owner)) - (np.add.accumulate(count) - count)[owner]
            patterns = patterns[owner]
            patterns[:, r, i] = top[owner] - rank
    return patterns


def _pattern_keys(lam: Weight, patterns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mixed-radix keys of the patterns and the (n, n) key step of each entry.

    Entry i of row r ranges over [lam[i + n - 1 - r], lam[i]]; the digits
    are read from the top row down and left to right, as the pattern order
    is, so keys strictly decrease along it.  The top row is fixed and takes
    no digit.
    """
    n = len(lam)
    lo = np.zeros((n, n), dtype=np.int64)
    step = np.zeros((n, n), dtype=np.int64)
    scale = 1
    for r in range(n - 1):
        for i in range(r, -1, -1):
            lo[r, i] = lam[i + n - 1 - r]
            step[r, i] = scale
            scale *= lam[i] - lam[i + n - 1 - r] + 1  # a Python int: it must not wrap
            if scale >= 2**63:
                raise DimensionOracleMismatch(f"pattern keys of {lam} do not fit in int64")
    return (patterns - lo).reshape(len(patterns), -1) @ step.ravel(), step


def _exact_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Row products num / den of integer factors, rounded once as Python divides integers.

    Products of integers are exact in float64 below 2^53 and no smaller
    beyond it, so rows that reach 2^53 (the defining representation of
    u(13) already does) are multiplied again as Python integers.
    """
    top = np.multiply.reduce(num, axis=1, dtype=float)
    bottom = np.multiply.reduce(den, axis=1, dtype=float)
    ratio = top / bottom
    big = np.abs(top) >= 2.0**53
    big |= np.abs(bottom) >= 2.0**53
    if big.any():
        ratio[big] = num[big].astype(object).prod(axis=1) / den[big].astype(object).prod(axis=1)
    return ratio


def _gt_raising(lam: Weight) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Diagonal of E_kk and the entries of the raising operators E_{k,k+1}.

    Returns the (n, d) integer eigenvalues of E_kk and, one element per
    pattern c whose entry i of row k can be raised, the arrays (k, i,
    target, c, value), ordered by k: E_{k,k+1} maps c to ``target`` with
    matrix entry ``value``.  With l_ki = rows[k][i] - i, the raising
    coefficient A of E_{k,k+1} at a pattern and the lowering coefficient B
    of E_{k+1,k} at the raised pattern are Molev's closed forms
    (arXiv:math/0211289, Thm 2.3) for the unnormalized basis; their product
    is positive, and sqrt(A B) is the entry in the orthonormal basis.
    """
    n = len(lam)
    patterns = _gt_patterns(lam)
    sums = np.add.reduce(patterns, axis=2).T
    diag = sums.copy()
    diag[1:] -= sums[:-1]
    keys, step = _pattern_keys(lam, patterns)
    # raising entry i of row k gives a pattern iff the entry stays below
    # entry i of row k+1 and, for i > 0, below entry i-1 of row k-1
    row, j = patterns[:, :-1], np.arange(n)
    ok = row < patterns[:, 1:]
    ok[:, 1:, 1:] &= row[:, 1:, 1:] < patterns[:, :-2, :-1]
    ok &= j <= j[:-1, None]
    k, i, src = ok.transpose(1, 2, 0).nonzero()
    # A B = -prod_j (x - l_{k+1,j}) prod_j (x + 1 - l_{k-1,j})
    #       / prod_{j != i} (x - l_kj) (x + 1 - l_kj)   at x = l_ki,
    # as four factor rows over rows k+1, k-1, k, k of l; entries past the
    # end of a row, and j = i in the last two, are factors of 1
    ls = patterns[src] - j
    at = np.arange(len(src))
    near = k[:, None] + np.array([1, -1, 0, 0])
    x = ls[at, k, i][:, None, None] + np.array([[0], [1], [0], [1]])
    factor = np.where(j <= near[:, :, None], x - ls[at[:, None], near], 1)
    factor[at[:, None], [2, 3], i[:, None]] = 1
    ratio = _exact_ratio(factor[:, :2].reshape(-1, 2 * n), factor[:, 2:].reshape(-1, 2 * n))
    target = (-keys).searchsorted(-(keys[src] + step[k, i]))
    return diag, (k, i, target, src, np.sqrt(-ratio))


Entries = tuple[np.ndarray, np.ndarray, np.ndarray]  # (target, source, value)


def _bracket(up: np.ndarray, down: np.ndarray, by_source: np.ndarray, by_target: np.ndarray,
             op: Entries) -> Entries:
    """[E_{k,k+1}, X] as (target, source, value) entries, X = E_{k+1,j} the same way.

    E_{k,k+1} is given as (n, d) maps, one row per entry of row k that is
    raised: ``up`` sends a pattern to the raised one (-1 for none), ``down``
    back, and its matrix entries are indexed by the source or by the target.
    Each E_ij (i < j) raises one entry in each of the rows i..j-1, so its
    entry at (t, s) fixes which entries moved, and each entry of either
    product in the bracket has at most one nonzero term: the values are the
    ones a dense matrix product rounds to.
    """
    tgt, src, val = op
    d = up.shape[1]
    value = np.zeros(d * d)
    after = up[:, tgt]  # E_{k,k+1} X: move along X, then raise
    keep = after >= 0
    value[(after * d + src)[keep]] = (by_source[:, tgt] * val)[keep]
    before = down[:, src]  # X E_{k,k+1}: raise, then move along X
    keep = before >= 0
    value[(tgt * d + before)[keep]] -= (val * by_target[:, src])[keep]
    cells = value.nonzero()[0]
    return cells // d, cells % d, value[cells]


def _gt_generators(lam: Weight) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """rho(E_ij) for the gl(n) irreducible lam in the orthonormal GT basis.

    Returns the (n, d) diagonal of the E_kk and the nonzero entries of the
    E_ij with i < j as arrays (i * n + j, target, source, value); E_ji is
    the transpose of E_ij.  Non-adjacent E_ij are brackets of adjacent ones.
    """
    n = len(lam)
    diag, (k, i, tgt, src, val) = _gt_raising(lam)
    entries = [(k * (n + 1) + 1, tgt, src, val)]  # E_{k,k+1} is entry k * n + k + 1
    if n > 2:  # brackets
        d = diag.shape[1]
        up, down = np.full((2, n - 1, n, d), -1)
        by_source, by_target = np.zeros((2, n - 1, n, d))
        up[k, i, src], down[k, i, tgt] = tgt, src
        by_source[k, i, src], by_target[k, i, tgt] = val, val
        bounds = k.searchsorted(np.arange(n))
        ops = {(r, r + 1): (tgt[a:b], src[a:b], val[a:b])
               for r, (a, b) in enumerate(zip(bounds, bounds[1:]))}
        for gap in range(2, n):
            for r in range(n - gap):
                op = ops[r, r + gap] = _bracket(up[r], down[r], by_source[r], by_target[r],
                                                ops[r + 1, r + gap])
                entries.append((np.full(len(op[0]), r * n + r + gap), *op))
    return diag, tuple(np.concatenate(x) for x in zip(*entries))


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
        against construction bugs).  The second guard reads dpi + dpi^* on
        the cells the construction wrote and their transposes, where all of
        it lies, rather than on all dim_g d^2 entries; a NaN there, as from
        a negative product under Molev's square root, fails it.
    """
    if g.kind not in ("u", "su"):
        raise DimensionMismatch("irreducible construction implemented for u(n)/su(n)")
    lam = tuple(int(x) for x in lam)
    if len(lam) != g.n:
        raise DimensionMismatch(f"weight must have length {g.n}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise NotDominant(f"{lam} is not weakly decreasing")
    diag, (pair, tgt, src, val) = _gt_generators(lam)
    d = diag.shape[1]
    target_dim = weyl_dim(lam)
    if d != target_dim:
        raise DimensionOracleMismatch(f"pattern count {d} != Weyl formula {target_dim} for {lam}")
    # dpi[b] = sum_ij basis[b, i, j] rho(E_ij), written into the real and
    # imaginary parts separately.  The E_ij with i != j have disjoint
    # supports off the diagonal, so each of those entries takes one term.
    n = len(lam)
    coef = g.basis.reshape(g.dim, n * n).view(float).reshape(g.dim, n * n, 2)
    dpi = np.zeros((g.dim, d * d, 2))
    dpi[:, ::d + 1] = (coef[:, ::n + 1].transpose(0, 2, 1) @ diag).transpose(0, 2, 1)
    both = np.concatenate([pair, pair % n * n + pair // n])
    cell = np.concatenate([tgt * d + src, src * d + tgt])
    value = np.concatenate([val, val])
    # expand each entry over the nonzero basis coefficients of its E_ij
    entry, b, part = coef.transpose(1, 0, 2).nonzero()
    count = np.bincount(entry, minlength=n * n)[both]
    owner = np.arange(len(both)).repeat(count)
    first = entry.searchsorted(both) - np.add.accumulate(count) + count
    at = np.arange(len(owner)) + first.repeat(count)
    dpi[b[at], cell[owner], part[at]] = coef[b[at], entry[at], part[at]] * value[owner]
    dpi = dpi.view(complex).reshape(g.dim, d, d)
    touched = (coef != 0).any(axis=2).reshape(g.dim, n, n)
    if not _written_gap(dpi, touched, pair, tgt, src) <= 1e-9 * max(1, sum(abs(x) for x in lam)):
        raise DimensionOracleMismatch("constructed generators are not anti-Hermitian")
    return Representation(g, dpi, label=lam)


def _written_gap(dpi: np.ndarray, touched: np.ndarray, pair: np.ndarray, tgt: np.ndarray,
                 src: np.ndarray) -> float:
    """Largest Frobenius norm of dpi[b] + dpi[b]^*, read on the cells the GT scatter wrote.

    ``dpi`` started as zeros.  Basis element b wrote the whole diagonal
    and the cells of each E_ij, i != j, with ``touched[b, i, j]``; the
    entries of the E_ij with i < j are (``pair``, ``tgt``, ``src``), and
    those of E_ji are their transposes.  Every other cell of dpi + dpi^* is
    zero, so the norm is read on the diagonal and, once per cell pair u,
    u^T, on the entries of each E_ij (i < j) that b touched or whose
    transpose it touched: the sum of
    :meth:`Representation.anti_hermitian_residual`, in another order.
    """
    dim_g, d, _ = dpi.shape
    flat = dpi.reshape(dim_g, d * d)
    sq = np.add.reduce((2 * flat[:, ::d + 1].real) ** 2, axis=1)
    touched = touched | touched.swapaxes(1, 2)
    b, e = touched.reshape(dim_g, -1)[:, pair].nonzero()
    gap = flat[b, tgt[e] * d + src[e]] + flat[b, src[e] * d + tgt[e]].conj()
    sq += 2 * np.bincount(b, gap.real**2 + gap.imag**2, minlength=dim_g)
    return math.sqrt(sq.max())


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
    ops = [-1j * rep.operator(row) for row in cartan]
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
        rows.append(rep.operator(_root_vector_coeffs(g, *pair)))
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
# the commutant pi(G)' and the decomposition into irreducibles


def commutant(rep: Representation, tol: float = DEFAULT_TOL
              ) -> tuple[OperatorSubspace, list[np.ndarray], tuple[int, ...]]:
    """pi(G)', seeded from the torus, its central blocks and their multiplicities, memoized on ``rep``.

    The blocks are the classes of :func:`matcore.isotypic_split`, each the
    columns of its m equivalent irreducible pieces side by side, so its
    first 1/m of the columns are one piece; m is its multiplicity.  A
    scalar pi(G)' is not split: it gives no block and the multiplicities
    (1,).  All three depend on dpi, the Cartan indices and ``tol`` alone,
    and dpi never changes (:class:`Representation`), so the entry is keyed
    on the last two: ``rep`` holds one entry per tolerance.  The stored
    arrays are read-only.
    """
    g = rep.algebra
    key = ("commutant", g.cartan_indices, tol)
    entry = rep._memo.get(key)
    if entry is None:
        torus = None if g.cartan_indices is None else np.eye(g.dim)[list(g.cartan_indices)]
        comm = commutant_basis(rep.dpi, dim=rep.dim, tol=tol, seed_rows=torus)
        blocks, mults = [], (1,)
        if comm.rank > 1:
            classes = isotypic_split(comm, tol)
            blocks = [np.hstack(c) for c in classes]
            mults = tuple(len(c) for c in classes)
        for arr in (comm.basis, *blocks):
            arr.setflags(write=False)
        entry = rep._memo[key] = comm, blocks, mults
    return entry


def decompose(rep: Representation, tol: float = DEFAULT_TOL) -> list[tuple[Representation, int]]:
    """Orthogonal decomposition into irreducible components with multiplicity.

    One component per central block of the memoized :func:`commutant`, its
    first piece, with the block's multiplicity; ``groundstate.analyze``
    reads the same blocks.
    """
    _, blocks, mults = commutant(rep, tol)
    if not blocks:
        return [(rep, 1)]
    return [(restrict(rep, Q[:, :Q.shape[1] // m]), m) for Q, m in zip(blocks, mults)]


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
    if len(lam) != len(idx):
        raise DimensionMismatch(f"character needs {len(idx)} integer entries")
    cartan_rows = np.eye(g.dim)[idx]
    t_alg = subalgebra(g, cartan_rows, name=f"t({g.name})")
    dpi = np.array([[[1j * l]] for l in lam], dtype=complex)
    return Representation(t_alg, dpi, label=tuple(lam), ambient_coeffs=cartan_rows)


def centralizer_blocks(rd: RootDatum) -> list[list[int]]:
    """Partition of diagonal indices joined by the d-null roots (order preserved)."""
    null = {rd.pairs[idx] for idx in rd.delta_zero}
    blocks: list[list[int]] = []
    for i in range(rd.algebra.n):
        if not any(i in b for b in blocks):
            blocks.append([i] + [j for j in range(i + 1, rd.algebra.n) if (i, j) in null])
    return blocks


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of matching matrices of two stacks of square matrices, a stack of one broadcast."""
    p, q = a.shape[-1], b.shape[-1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(-1, p * q, p * q)


def centralizer_irrep(g: MatrixLieAlgebra, dvec: Sequence[float],
                      block_weights: Sequence[Sequence[int]]) -> Representation:
    """Irreducible representation of the block centralizer of a diagonal element.

    The centralizer of ``i diag(dvec)`` in u(n) is the direct sum of u(n_b)
    over the blocks of indices that the d-null roots join (see
    :func:`centralizer_blocks`); its irreducibles are outer tensor
    products of block irreducibles, labelled by one dominant weight per
    block.  The returned representation is embedded, with ``ambient_coeffs``
    expressing the block basis inside g.
    """
    if g.kind != "u":
        raise DimensionMismatch("block centralizer construction targets u(n)")
    blocks = centralizer_blocks(root_datum(g, diagonal_element(g, dvec)))
    if len(block_weights) != len(blocks):
        raise DimensionMismatch(f"expected {len(blocks)} block weights")
    block_reps = [irrep(build_algebra("u", len(block)), bw) for block, bw in zip(blocks, block_weights)]
    # each u(n_b) basis element in g's coefficient coordinates, all from one solve
    mats = np.zeros((sum(rep.algebra.dim for rep in block_reps), g.n, g.n), dtype=complex)
    start = 0
    for block, rep in zip(blocks, block_reps):
        mats[start:start + rep.algebra.dim, np.asarray(block)[:, None], block] = rep.algebra.basis
        start += rep.algebra.dim
    embed = _span_coordinates(mats.reshape(len(mats), -1), g.basis.reshape(g.dim, -1), 1e-8).real
    # block b's generators act as I ⊗ dpi_b ⊗ I on the outer tensor product
    dims = [rep.dim for rep in block_reps]
    dpi = np.concatenate([_kron(_kron(np.eye(math.prod(dims[:b]), dtype=complex)[None], rep.dpi),
                                np.eye(math.prod(dims[b + 1:]), dtype=complex)[None])
                          for b, rep in enumerate(block_reps)])
    sub_alg = subalgebra(g, embed, name=f"z_{g.name}")
    label = tuple(tuple(int(x) for x in bw) for bw in block_weights)
    return Representation(sub_alg, dpi, label=label, ambient_coeffs=embed)
