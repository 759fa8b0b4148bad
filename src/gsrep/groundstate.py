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

import numpy as np

from .errors import ConvergenceFailure
from .irreps import Representation, commutant
from .liealg import (
    fixed_point_data,
    intervals_sum,
    normalize_intervals,
    spectral_split,
    spectral_subspace,
)
from .matcore import (
    DEFAULT_TOL,
    OperatorSubspace,
    _commutant_coefficients,
    eig_frame,
    numerical_rank,
)

_EPS = float(np.finfo(float).eps)


@dataclass
class GroundStateReport:
    """Outcome of :func:`analyze`.

    ``m`` is the global minimal eigenvalue of ``-i dpi(d)``.  ``h0_basis``
    is read from ``-i dpi(d0)``, where d0 is ``FixedPointData.central`` if
    it is set and d otherwise; ``central_shifts`` lists its per-central-block
    minima, whose eigenspaces make up ``h0_basis``, so they equal ``m`` (one
    block) only when d0 is d; they follow the block order of the isotypic
    split (:func:`matcore.isotypic_split`), which is not otherwise meaningful.
    ``window`` is how far above its block minimum an eigenvalue joins H0.
    ``commutant_dims`` is (dim pi(G)', dim pi0(G0)', dim P0 pi(G)'' P0).
    ``strict`` compares the first two; the corner P0 pi(G)'' P0 is only
    reported, and is counted from the central blocks (see :func:`analyze`).
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


def _ground_space(H: np.ndarray, w: np.ndarray, v: np.ndarray, blocks: list[np.ndarray],
                  window: float) -> tuple[np.ndarray, list[float], list[int]]:
    """Blockwise minimal eigenspaces: the kernel of the minimally shifted H.

    ``w, v`` is the eigendecomposition of H on the whole space, which serves
    a single block or none; several blocks take one :func:`matcore.eig_frame`
    each, which reads a diagonal block with no solver.  An eigenvalue within
    ``window`` of its block's minimum joins the space.  Columns from distinct
    blocks are orthogonal, since the blocks are.  Returns the columns, the
    block minima and the number of columns each block gives.
    """
    spectra = [(w, v)]
    if len(blocks) > 1:
        spectra = []
        for Q in blocks:
            wb, vb, _ = eig_frame(Q.conj().T @ H @ Q, 1e-8)
            spectra.append((wb, Q @ vb))
    cols, shifts = [], []
    for wb, vb in spectra:
        shifts.append(float(wb[0]))
        cols.append(vb[:, wb <= wb[0] + window])
    return cols[0] if len(cols) == 1 else np.hstack(cols), shifts, [c.shape[1] for c in cols]


def _separating(comm: OperatorSubspace, h0: np.ndarray, tol: float) -> bool:
    """Is the range of ``h0`` separating for ``comm``: are the B_k h0 independent?

    A scalar ``comm`` (rank 1) separates every nonzero subspace and takes
    no SVD: its one singular value would be sqrt(r / d) for r columns of
    h0, never below the threshold.
    """
    if comm.rank == 1:
        return True
    cols = (comm.basis @ h0).reshape(comm.rank, -1).T
    return numerical_rank(np.linalg.svd(cols, compute_uv=False), tol) == comm.rank


def analyze(pi: Representation, d: np.ndarray, tol: float = DEFAULT_TOL) -> GroundStateReport:
    """Full minimal-energy analysis of (pi, d).

    Parameters
    ----------
    pi : representation of a matrix Lie algebra.
    d : real coefficient vector of the generating element.
    tol : rank threshold shared by all subspace decisions.

    The commutant M' of the whole action, with orthonormal basis B_k, its
    central blocks and their multiplicities do not depend on d, so they are
    read from the memo on ``pi`` that :func:`irreps.commutant` fills and
    ``irreps.decompose`` reads too; they yield the ground space, both
    verdicts and the corner.  Blocks and multiplicities come from one
    generic Hermitian element of M' (:func:`matcore.isotypic_split`): its
    eigenspaces are the irreducible pieces, and the pieces that M'
    intertwines make up one block.  The ground state property is
    cyclicity of the blockwise minimal-energy space H0 for
    M = pi(G)'', i.e. H0 separating for M' (Bratteli-Robinson, vol. 1,
    Prop. 2.5.3): the B_k h0 are independent, which a scalar M' grants with
    no SVD.  The projection P0 on H0 lies in M, so separation makes
    X -> X|H0 injective on M', and strictness is then
    dim pi0(G0)' = dim M'.  That is equivalent to the literal comparison of
    P0 M P0 with the algebra pi0 generates, which the test suite keeps as
    its oracle ``is_strict``.

    No commutant is formed for the corner P0 M P0.  By Wedderburn,
    M = (+)_b M_{n_b} (x) 1_{m_b} over the central blocks b, so P0 takes
    c_b = r_b m_b columns of block b and P0 M P0 = (+)_b M_{r_b}: its
    dimension is the sum of (c_b / m_b)^2.  A c_b that is not a multiple of
    m_b means the window or the central blocks were decided wrongly, and
    raises ``ConvergenceFailure``.

    pi0 combines the compressed images h0* dpi_i h0 over the rows of g^0 in
    one matrix product.  Where H is exactly diagonal and H0 lies in one
    central block, as on a weight basis, h0 is identity columns
    (:func:`matcore.eig_frame`) and the images are read off dpi by index;
    if H0 is then all of H in index order and g^0 = g with identity rows,
    pi0 shares pi's read-only dpi.

    The commutant of pi is seeded from the torus, the Cartan images.  Where
    g^0 = g and H0 is the whole space, pi0 is pi written in the basis h0, so
    pi0(G0)' = h0* M' h0 and its dimension is read from the memoized M'.
    That is the case at every d central in g (d = 0, or a multiple of the
    identity on u(n)): dpi(d) then lies in the center of M by Schur, so each
    central block is one eigenspace of H.  A line H0 has pi0(G0)' = C.
    Otherwise pi0's commutant is built, seeded from the Cartan rows
    projected on g^0, up to its coefficient rows: only its dimension is
    read, so no basis is assembled.  The fixed-point data of (g, d) and the
    split's window are memoized on g.  So that H0 is
    invariant under g^0, it is taken for ``FixedPointData.central`` when
    that is set (the split read as zero eigenvalues of ad d past roundoff),
    at the split's window floored at the roundoff dim * eps * max|w|.
    """
    g = pi.algebra
    d = np.asarray(d, dtype=float)
    H = -1j * pi.operator(d)
    w, v, order = eig_frame(H, 1e-8)
    m = float(w[0])
    comm_full, blocks, mults = commutant(pi, tol)
    fix = fixed_point_data(g, d, tol)
    if fix.central is not None:
        H = -1j * pi.operator(fix.central)
        w, v, order = eig_frame(H, 1e-8)
    window = max(fix.window, len(w) * _EPS * max(float(w[-1]), -float(w[0])))
    h0, shifts, counts = _ground_space(H, w, v, blocks, window)
    if any(c % k for c, k in zip(counts, mults)):
        raise ConvergenceFailure(f"ground space columns {counts} of the central blocks are not "
                                 f"multiples of their multiplicities {list(mults)}")
    corner = sum((c // k) ** 2 for c, k in zip(counts, mults))
    ground_state = _separating(comm_full, h0, tol)

    r = h0.shape[1]
    idx = None if order is None or len(blocks) > 1 else order[:r]  # h0 is the identity columns idx
    if idx is not None and np.array_equal(idx, np.arange(pi.dim)) and np.array_equal(fix.rows, np.eye(g.dim)):
        dpi0 = pi.dpi
    else:
        c = h0.conj().T @ pi.dpi @ h0 if idx is None else pi.dpi[:, idx[:, None], idx]
        dpi0 = (fix.crows @ c.reshape(g.dim, -1)).reshape(-1, r, r)
    pi0 = Representation(fix.algebra, dpi0, ambient_coeffs=fix.rows)
    if r == 1:
        rank_pi0 = 1
    elif fix.rows.shape[0] == g.dim and r == pi.dim:
        # pi0 is pi in the basis h0; at central d, Schur puts dpi(d) in Z(pi(G)'') so H0 = H
        rank_pi0 = comm_full.rank
    else:
        rank_pi0 = _commutant_coefficients(pi0.dpi, tol=tol, seed_rows=fix.torus_rows).rank
    return GroundStateReport(
        m=m,
        h0_basis=h0,
        pi0=pi0,
        ground_state=ground_state,
        strict=bool(ground_state and rank_pi0 == comm_full.rank),
        commutant_dims=(comm_full.rank, rank_pi0, corner),
        window=window,
        central_shifts=tuple(shifts),
    )


def spectral_translation_check(pi: Representation, d: np.ndarray, E, F,
                               tol: float = 1e-9) -> bool:
    """dpi of the ad-spectral subspace over E maps H(F) into H(closure(E+F)).

    E and F are finite unions of closed intervals (scalars allowed); the
    spectral subspaces of the Hamiltonian are eigenspace sums.  Verified
    vector by vector with an absolute containment residual.
    """
    E_iv, F_iv = normalize_intervals(E), normalize_intervals(F)
    dd = spectral_split(pi.algebra, np.asarray(d, dtype=float))
    H = -1j * pi.operator(d)
    HF = spectral_subspace(H, F_iv)
    HEF = spectral_subspace(H, intervals_sum(E_iv, F_iv))
    for z in spectral_subspace(dd, E_iv).T:
        op = pi.operator(z)
        for c in range(HF.shape[1]):
            u = op @ HF[:, c]
            resid = u - HEF @ (HEF.conj().T @ u)
            if np.linalg.norm(resid) > tol * max(1.0, np.linalg.norm(u)):
                return False
    return True
