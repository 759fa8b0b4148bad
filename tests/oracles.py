"""Test oracles and test-only helpers kept out of the package.

``algebra_closure``, ``center_basis``, ``contains``, ``same_span``,
``is_star_closed``, ``full_operator_space`` and ``rows`` (from ``matcore``,
taking and returning the (r, d, d) basis of an operator subspace),
``is_strict`` and ``direct_sum_law`` (from ``groundstate``),
``tensor_product`` (from ``irreps``), ``is_elliptic`` and
``splitting_condition`` (from ``liealg``), ``level_cone_generators`` (from
``dirlim``) and ``total_number`` and ``rotation_generator`` (from
``heisenfock``) are kept here verbatim, methods as functions of their
object; ``pattern_weights`` moved here verbatim from tests/test_irreps.py.
``occupation_table`` is the recursive enumeration of Fock occupations that
``heisenfock._occupation_table`` replaced, kept as the reference order, and
``centralizer_reference`` the per-row construction of ``centralizer_irrep``.
``analyze`` decides strictness as an equality of commutant dimensions;
``is_strict`` compares the compressed algebra with the one the
fixed-point action generates, and so checks that decision independently.
``gt_sum_analysis`` states every field of ``analyze`` on a sum of u(n)
Gelfand-Tsetlin irreducibles in closed form, from pattern weights alone,
and ``heis_sum_analysis`` on a sum of characters of a Heisenberg algebra.
The references decide ranks at their own ``tol``, through ``rank_rows``.
"""

import itertools
from collections import Counter
from typing import Sequence

import numpy as np

from gsrep.cones import ConeDescription
from gsrep.dirlim import DirectLimitSpec
from gsrep.errors import DimensionMismatch
from gsrep.groundstate import GroundStateReport, analyze
from gsrep.heisenfock import ROT, FockTruncation, SymplecticSetup
from gsrep.irreps import Representation, direct_sum
from gsrep.liealg import MatrixLieAlgebra, _derivation_matrix, build_algebra, spectral_split
from gsrep.matcore import CLUSTER_TOL, DEFAULT_TOL, numerical_rank


def rows(space: np.ndarray) -> np.ndarray:
    return space.reshape(len(space), -1)


def rank_rows(mat: np.ndarray, tol: float, null: bool = False) -> np.ndarray:
    """Orthonormal rows spanning the row space of ``mat``, or with ``null`` its right null space.

    One ``numpy.linalg.svd`` and ``numerical_rank(s, tol)``, so a reference
    decides its ranks at its own ``tol`` and not through the kernels it checks.
    """
    m, n = mat.shape
    _, s, vh = np.linalg.svd(mat, full_matrices=null and m < n)
    rank = numerical_rank(s, tol)
    return vh[rank:].conj() if null else vh[:rank]


def full_operator_space(dim: int) -> np.ndarray:
    basis = np.zeros((dim * dim, dim, dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            basis[a * dim + b, a, b] = 1.0
    return basis


def algebra_closure(ops, include_identity: bool = True, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Smallest subspace containing the (k, d, d) stack ``ops``, closed under the matrix product.

    Grows degree by degree: new words are products of the previous frontier
    with the generators on either side, orthonormalized against the span so
    far; terminates when the dimension stabilizes (bounded by d^2, which
    suffices at finite dimension by Cayley--Hamilton saturation).
    """
    ops = np.asarray(ops, dtype=complex)
    d = ops.shape[-1]
    gens = rank_rows(rows(ops), tol).reshape(-1, d, d)
    q = rank_rows(rows(np.concatenate([gens, np.eye(d)[None]]) if include_identity else gens), tol)
    frontier = q.reshape(-1, d, d)
    while frontier.shape[0] > 0 and q.shape[0] < d * d:
        left = np.einsum("fij,gjk->fgik", frontier, gens).reshape(-1, d, d)
        right = np.einsum("gij,fjk->gfik", gens, frontier).reshape(-1, d, d)
        cand = np.concatenate([left, right]).reshape(-1, d * d)
        cand = cand - (cand @ q.conj().T) @ q
        new = rank_rows(cand, tol)
        if new.shape[0] == 0:
            break
        q = np.vstack([q, new])
        frontier = new.reshape(-1, d, d)
    return q.reshape(-1, d, d)


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
    h0, r = report.h0_basis, report.h0_dim
    B = rank_rows(rows(h0.conj().T @ A @ h0), tol).reshape(-1, r, r)
    ops0 = list(report.pi0.dpi) + [np.eye(report.h0_dim, dtype=complex)]
    C = algebra_closure(ops0, include_identity=True, tol=tol)
    return same_span(B, C, max(tol, 1e-8))


def direct_sum_law(reps: Sequence[Representation], d: np.ndarray) -> bool:
    """Ground-state property of a direct sum vs. its summands.

    Must always return True; a False return signals an implementation bug
    and is surfaced by the property suite.
    """
    reps = list(reps)
    if not reps:
        return True
    whole = analyze(direct_sum(reps), d).ground_state
    parts = all(analyze(r, d).ground_state for r in reps)
    return whole == parts


def center_basis(alg: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Center of an algebra: the elements of ``alg`` commuting with all of it.

    One null space of the (r d^2, r) matrix of brackets [B_j, B_k] of the
    basis elements, so it costs no d^2 x d^2 decomposition.
    """
    B, r, d = alg, len(alg), alg.shape[-1]
    prod = np.einsum("jab,kbc->jkac", B, B)
    brackets = prod - prod.transpose(1, 0, 2, 3)  # [B_j, B_k]
    cols = brackets.transpose(1, 2, 3, 0).reshape(r * d * d, r)
    q = rank_rows(cols, tol, null=True) @ rows(alg)
    return q.reshape(-1, d, d)


def contains(space: np.ndarray, mat: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    v = np.asarray(mat, dtype=complex).reshape(-1)
    scale = max(np.linalg.norm(v), 1.0)
    q = rows(space)
    resid = v - (q.conj() @ v) @ q
    return bool(np.linalg.norm(resid) <= tol * scale)


def same_span(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    if a.shape[-1] != b.shape[-1] or len(a) != len(b):
        return False
    q, p = rows(a), rows(b)
    resid = p - (p @ q.conj().T) @ q
    return bool(np.linalg.norm(resid) <= tol * max(1.0, len(a)))


def is_star_closed(space: np.ndarray, tol: float = 1e-8) -> bool:
    """Does every basis adjoint lie in the span, within ``tol``?"""
    q = rows(space)
    adj = space.conj().transpose(0, 2, 1).reshape(len(space), -1)
    resid = adj - (adj @ q.conj().T) @ q
    return bool(np.all(np.linalg.norm(resid, axis=1) <= tol))


def tensor_product(a: Representation, b: Representation) -> Representation:
    if a.algebra.dim != b.algebra.dim:
        raise DimensionMismatch("tensor factors must represent the same algebra")
    eye_a, eye_b = np.eye(a.dim), np.eye(b.dim)
    dpi = np.stack(
        [np.kron(a.dpi[i], eye_b) + np.kron(eye_a, b.dpi[i]) for i in range(a.algebra.dim)]
    )
    return Representation(a.algebra, dpi, ambient_coeffs=a.ambient_coeffs)


def is_elliptic(g: MatrixLieAlgebra, d, tol: float = CLUSTER_TOL) -> bool:
    """True iff the derivation is diagonalizable with purely imaginary spectrum."""
    dd = spectral_split(g, d)
    if not dd.diagonalizable:
        return False
    return bool(np.max(np.abs(dd.eigenvalues.imag), initial=0.0) <= tol)


def splitting_condition(g: MatrixLieAlgebra, d, tol: float = DEFAULT_TOL) -> bool:
    """True iff ker(D^2) = ker(D): the generalized zero eigenspace collapses.

    This is the finite-dimensional form of the regularity condition needed
    for the fixed-point projection to exist; it holds automatically for
    elliptic derivations and fails for nilpotent ones.
    """
    D, _ = _derivation_matrix(g, d)
    return rank_rows(D, tol, null=True).shape[0] == rank_rows(D @ D, tol, null=True).shape[0]


def level_cone_generators(spec: DirectLimitSpec) -> ConeDescription:
    """Cone generators i(E_mm - E_nn) for every pair with d_n > d_m.

    Returned over the u(N) basis of the level, matching the cone the
    derivation machinery produces for i*diag(d) up to positive scaling.
    """
    g = build_algebra("u", spec.level) if spec.level else build_algebra("u", 1)
    if spec.level == 0:
        return ConeDescription(g, np.zeros((0, g.dim)), [])
    gens = []
    prov = []
    for n in range(spec.level):
        for m in range(spec.level):
            if spec.d_seq[n] > spec.d_seq[m]:
                row = np.zeros(g.dim)
                row[m] = 1.0
                row[n] = -1.0
                gens.append(row)
                prov.append(("pair", n, m))
    arr = np.stack(gens) if gens else np.zeros((0, g.dim))
    return ConeDescription(g, arr, prov)


def total_number(ft: FockTruncation) -> np.ndarray:
    return np.diag(ft.occupations.sum(axis=1).astype(float)).astype(complex)


def occupation_table(k: int, n: int) -> np.ndarray:
    """The recursive enumeration that ``heisenfock._occupation_table`` replaced, one call per mode."""
    if k == 0:
        return np.zeros((1, 0), dtype=int)
    rows: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int):
        if slots == 0:
            rows.append(prefix)
            return
        for c in range(remaining + 1):
            rec(prefix + (c,), remaining - c, slots - 1)

    rec((), n, k)
    rows.sort(key=lambda t: (sum(t), t))
    return np.array(rows, dtype=int)


def centralizer_reference(g: MatrixLieAlgebra, blocks, block_reps) -> tuple[np.ndarray, np.ndarray]:
    """The embedding rows and dpi ``irreps.centralizer_irrep`` built before its batched form.

    One ``lstsq`` solve per block basis element (the former
    ``MatrixLieAlgebra.coeffs_of``), and each generator by chained ``np.kron``.
    """
    flat = g.basis.reshape(g.dim, -1).T
    embed_rows = []
    for block, rep_b in zip(blocks, block_reps):
        for mat_local in rep_b.algebra.basis:
            mat = np.zeros((g.n, g.n), dtype=complex)
            mat[np.ix_(block, block)] = mat_local
            embed_rows.append(np.linalg.lstsq(flat, mat.reshape(-1), rcond=None)[0].real)
    dpi_rows = []
    for b, rep_b in enumerate(block_reps):
        for i in range(rep_b.algebra.dim):
            op = np.eye(1, dtype=complex)
            for c, rep_c in enumerate(block_reps):
                op = np.kron(op, rep_c.dpi[i] if c == b else np.eye(rep_c.dim, dtype=complex))
            dpi_rows.append(op)
    return np.stack(embed_rows), np.stack(dpi_rows)


def rotation_generator(setup: SymplecticSetup) -> np.ndarray:
    out = np.zeros((2 * setup.modes, 2 * setup.modes))
    for j, f in enumerate(setup.frequencies):
        out[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = f * ROT
    return out


def pattern_weights(lam):
    """Independent weight oracle: mu_k = |row k| - |row k-1| over all
    interlacing patterns with top row lam, enumerated by brute force."""
    if len(lam) == 1:
        return [tuple(lam)]
    out = []
    ranges = [range(lam[i + 1], lam[i] + 1) for i in range(len(lam) - 1)]
    for sub in itertools.product(*ranges):
        out.extend(mu + (sum(lam) - sum(sub),) for mu in pattern_weights(sub))
    return sorted(out)


def gt_sum_analysis(summands: Sequence[Sequence[int]], e: Sequence[float], tol: float = 1e-9) -> dict:
    """Every field of ``analyze`` on the sum of the u(n) irreducibles ``summands`` at d = i diag(e).

    H is diagonal on the patterns, with <mu, e> on one of weight mu, and the
    central blocks are the isotypic components.  The lowest ad-d graded
    piece of an irreducible lam is an irreducible G^0-module, whose extremal
    weight determines lam (by PBW, U(g) = U(n-) U(l) U(n+)), so distinct lam
    give inequivalent pieces.  With m_lam copies of lam and c_lam patterns
    at its least energy: ``central_shifts`` is the multiset of those least
    energies and ``m`` its minimum; H0 holds those patterns, each m_lam
    times; ``commutant_dims`` is (sum m^2, sum m^2, sum c^2); and both
    verdicts hold.  It assumes entries of e that are equal or well apart:
    near-coincident ones go through the split's window, which this does not
    model.
    """
    mult = Counter(tuple(int(x) for x in lam) for lam in summands)
    shifts, h0_weights, corner = [], [], 0
    for lam, k in mult.items():
        weights = pattern_weights(lam)
        energies = [float(np.dot(mu, e)) for mu in weights]
        low = min(energies)
        ground = [mu for mu, en in zip(weights, energies) if en <= low + tol * max(1.0, abs(low))]
        shifts.append(low)
        h0_weights += ground * k
        corner += len(ground) ** 2
    squares = sum(k * k for k in mult.values())
    return {"m": min(shifts), "h0_dim": len(h0_weights), "h0_weights": sorted(h0_weights),
            "central_shifts": sorted(shifts), "commutant_dims": (squares, squares, corner),
            "ground_state": True, "strict": True}


def heis_sum_analysis(chars: Sequence[Sequence[float]], mults: Sequence[int], d: Sequence[float]) -> dict:
    """Every verdict of ``analyze`` on a sum of characters of heis(2k), in closed form.

    Over the basis [Z, X_1..X_k, Y_1..Y_k], [X_i, Y_j] = delta_ij Z, the
    character lam = (a, b) has dpi(Z) = 0, dpi(X_i) = i a_i, dpi(Y_i) = i b_i,
    and ``chars`` are distinct, with multiplicities ``mults``.  At
    d = (z, d_V) the Hamiltonian is lam(d_V) on each character, and each
    character is a central block of pi(G)'', so H0 is the whole space, m the
    least lam(d_V), and the corner pi(G)'' itself.  The fixed-point algebra
    is Z and the kernel of sigma(d_V, .), whose coefficients are (-b, a) for
    d_V = (a, b); two characters restrict to the same one there exactly
    when they differ by a multiple of it, so pi0's classes are those of that
    relation (at d_V = 0, equality) and strictness holds iff no two
    characters share one.  Exact for dyadic entries, whose parallel test
    compares 2 x 2 minors without rounding.
    """
    chars = [np.asarray(lam, dtype=float) for lam in chars]
    k = (len(d) - 1) // 2
    dv = np.asarray(d[1:], dtype=float)
    sigma = np.concatenate([-dv[k:], dv[:k]])
    classes: list[list[int]] = []
    for i, lam in enumerate(chars):
        for c in classes:
            u = lam - chars[c[0]]
            if sigma.any() and np.array_equal(np.outer(u, sigma), np.outer(sigma, u)):
                c.append(i)
                break
        else:
            classes.append([i])
    squares = sum(m * m for m in mults)
    pi0 = sum(sum(mults[i] for i in c) ** 2 for c in classes)
    return {"m": min(float(lam @ dv) for lam in chars), "h0_dim": sum(mults),
            "commutant_dims": (squares, pi0, len(chars)), "ground_state": True,
            "strict": len(classes) == len(chars)}
