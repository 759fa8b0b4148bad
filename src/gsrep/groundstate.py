"""Minimal-energy analysis of a representation under an inner derivation.

Given a representation pi of g and an element d, the Hamiltonian is
``H = -i dpi(d)``.  The minimal implementing one-parameter group inside the
generated von Neumann algebra shifts H separately on each central block,
so the ground space collects the minimal eigenspace of every central
component; this is what makes the direct-sum law hold.  On that space the
fixed-point algebra ``g^0 = ker(ad d)`` acts by compression, and the
analysis decides cyclicity, the ground-state property, and strictness
(the compressed algebra of the whole group equals the algebra generated
by the fixed-point group).

All unbounded-operator subtleties collapse at finite dimension; reports
record the tolerances actually used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .irreps import Representation, direct_sum
from .liealg import (
    fixed_point_data,
    intervals_contain,
    intervals_sum,
    normalize_intervals,
    spectral_split,
)
from .matcore import (
    DEFAULT_TOL,
    OperatorSubspace,
    algebra_closure,
    center_basis,
    commutant_basis,
    compress,
    eig_hermitian,
    hermitian_split,
    numerical_rank,
)


@dataclass
class GroundStateReport:
    """Outcome of :func:`analyze`.

    ``m`` is the global minimal eigenvalue of ``-i dpi(d)``.  ``h0_basis``
    is read from ``-i dpi(d0)``, where d0 is ``FixedPointData.central`` if
    it is set and d otherwise; ``central_shifts`` lists its per-central-block
    minima, whose eigenspaces make up ``h0_basis``, so they equal ``m`` (one
    block) only when d0 is d.  ``window`` is how far above its block minimum
    an eigenvalue joins H0.
    ``commutant_dims`` is (dim pi(G)', dim pi0(G0)', dim P0 pi(G)'' P0).
    """

    m: float
    h0_basis: np.ndarray  # (dim, r) orthonormal columns
    pi0: Representation
    ground_state: bool
    strict: bool
    commutant_dims: tuple[int, int, int]
    window: float
    central_shifts: tuple[float, ...] = ()

    @property
    def h0_dim(self) -> int:
        return self.h0_basis.shape[1]


def _central_blocks(comm: OperatorSubspace, tol: float) -> list[np.ndarray]:
    """Ranges of the minimal central projections of the algebra generated by the operators.

    ``comm`` is the commutant of the operators.  The center of their
    generated algebra is the center of ``comm``, comm intersected with
    comm', so it is one null space over the commutant basis; a random
    Hermitian element of it has the minimal central projections as its
    spectral projections (generically, so a couple of retries suffice).
    Returns one orthonormal column block per projection.
    """
    if comm.rank > 1:
        center = center_basis(comm, tol)
        if center.rank > 1:
            return hermitian_split(center.basis, lambda blocks: len(blocks) == center.rank, seed=7)
    return [np.eye(comm.dim, dtype=complex)]


def _ground_space(H: np.ndarray, w: np.ndarray, v: np.ndarray, blocks: list[np.ndarray],
                  window: float) -> tuple[np.ndarray, list[float]]:
    """Blockwise minimal eigenspaces: the kernel of the minimally shifted H.

    ``w, v`` is the eigendecomposition of H on the whole space, which serves
    a single block; several blocks take one eigendecomposition each.  An
    eigenvalue within ``window`` of its block's minimum joins the space.
    Columns from distinct blocks are orthogonal, since the blocks are.
    """
    spectra = [(w, v)]
    if len(blocks) > 1:
        spectra = []
        for Q in blocks:
            Hb = Q.conj().T @ H @ Q
            wb, vb = np.linalg.eigh((Hb + Hb.conj().T) / 2.0)
            spectra.append((wb, Q @ vb))
    cols, shifts = [], []
    for wb, vb in spectra:
        shifts.append(float(wb[0]))
        cols.append(vb[:, wb <= wb[0] + window])
    return np.hstack(cols), shifts


def _separating(comm: OperatorSubspace, h0: np.ndarray, tol: float) -> bool:
    """Is the range of ``h0`` separating for ``comm``: are the B_k h0 independent?"""
    cols = (comm.basis @ h0).reshape(comm.rank, -1).T
    return numerical_rank(np.linalg.svd(cols, compute_uv=False), tol) == comm.rank


def analyze(pi: Representation, d: np.ndarray, tol: float = DEFAULT_TOL) -> GroundStateReport:
    """Full minimal-energy analysis of (pi, d).

    Parameters
    ----------
    pi : representation of a matrix Lie algebra.
    d : real coefficient vector of the generating element.
    tol : rank threshold shared by all subspace decisions.

    The commutant M' of the whole action, with orthonormal basis B_k, is
    built once and yields the central blocks and both verdicts.  The
    ground state property is cyclicity of the blockwise minimal-energy
    space H0 for M = pi(G)'', i.e. H0 separating for M' (Bratteli-Robinson,
    vol. 1, Prop. 2.5.3): the B_k h0 are independent.  The projection on
    H0 lies in M, so separation makes X -> X|H0 injective on M', and
    strictness is then dim pi0(G0)' = dim M', equivalent to :func:`is_strict`.
    The corner commutant takes the Hermitian parts of the raw compressions
    h0^* B_k h0, which span the compressed commutant.

    Both commutants of the strictness test are seeded from the torus: the
    Cartan images for pi, and the Cartan rows projected on g^0 for pi0.
    The fixed-point data of (g, d) is memoized on g.  So that H0 is
    invariant under g^0, it is taken for ``FixedPointData.central`` when
    that is set (the split read as zero eigenvalues of ad d past roundoff),
    at the split's window floored at the roundoff dim * eps * max|w|.
    """
    g = pi.algebra
    d = np.asarray(d, dtype=float)
    H = -1j * pi.operator(d)
    w, v = eig_hermitian(H, 1e-8)
    m = float(w[0])
    torus = None if g.cartan_indices is None else np.eye(g.dim)[list(g.cartan_indices)]
    comm_full = commutant_basis(list(pi.dpi), dim=pi.dim, tol=tol, seed_rows=torus)
    fix = fixed_point_data(g, d, tol)
    if fix.central is not None:
        H = -1j * pi.operator(fix.central)
        w, v = eig_hermitian(H, 1e-8)
    window = max(spectral_split(g, d, tol).window, len(w) * np.finfo(float).eps * float(np.abs(w).max()))
    h0, shifts = _ground_space(H, w, v, _central_blocks(comm_full, tol), window)
    ground_state = _separating(comm_full, h0, tol)

    dpi0 = np.einsum("ri,ids->rds", fix.rows.astype(complex), pi.dpi)
    pi0 = Representation(fix.algebra, h0.conj().T @ dpi0 @ h0, ambient_coeffs=fix.rows)
    comm_pi0 = commutant_basis(list(pi0.dpi), dim=pi0.dim, tol=tol, seed_rows=fix.torus_rows)
    # P0 pi(G)'' P0 is a von Neumann algebra on H0, so it is the commutant
    # of the compressed commutant; its Hermitian inputs give a normal seed
    B = h0.conj().T @ comm_full.basis @ h0
    Bh = B.conj().transpose(0, 2, 1)
    corner = commutant_basis([*(B + Bh), *(1j * (B - Bh))], dim=pi0.dim, tol=tol)
    return GroundStateReport(
        m=m,
        h0_basis=h0,
        pi0=pi0,
        ground_state=ground_state,
        strict=bool(ground_state and comm_pi0.rank == comm_full.rank),
        commutant_dims=(comm_full.rank, comm_pi0.rank, corner.rank),
        window=window,
        central_shifts=tuple(shifts),
    )


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


def spectral_translation_check(pi: Representation, d: np.ndarray, E, F,
                               tol: float = 1e-9) -> bool:
    """dpi of the ad-spectral subspace over E maps H(F) into H(closure(E+F)).

    E and F are finite unions of closed intervals (scalars allowed); the
    spectral subspaces of the Hamiltonian are eigenspace sums.  Verified
    vector by vector with an absolute containment residual.
    """
    g = pi.algebra
    E_iv, F_iv = normalize_intervals(E), normalize_intervals(F)
    EF = intervals_sum(E_iv, F_iv)
    dd = spectral_split(g, np.asarray(d, dtype=float))
    gE_cols = [sp[:, k] for lam, sp in zip(dd.eigenvalues, dd.eigenspaces)
               if intervals_contain(E_iv, float(lam.real)) for k in range(sp.shape[1])]
    H = -1j * pi.operator(d)
    w, v = eig_hermitian(H, 1e-8)
    HF = v[:, [k for k in range(len(w)) if intervals_contain(F_iv, float(w[k]))]]
    HEF = v[:, [k for k in range(len(w)) if intervals_contain(EF, float(w[k]))]]
    for z in gE_cols:
        op = pi.operator(z)
        for c in range(HF.shape[1]):
            u = op @ HF[:, c]
            resid = u - HEF @ (HEF.conj().T @ u)
            if np.linalg.norm(resid) > tol * max(1.0, np.linalg.norm(u)):
                return False
    return True
