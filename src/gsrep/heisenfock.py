"""Truncated bosonic Fock space, Weyl operators, second quantization.

The truncation keeps all occupation states of k modes with total particle
number <= N, so one-particle rotations stay block diagonal across number
sectors.  Weyl operators are exponentials of the truncated generator
``a^+(x) - a(x)``, assembled by mode rotation: for a unitary U on C^k with
U e_1 = x/|x|,

    exp(a^+(x) - a(x)) = Gamma(U) (+)_rest D_1(|x|; N - |rest|) Gamma(U)^*,

where ``rest`` runs over the occupations of modes 2..k and D_1(r; M) is the
one-mode displacement exp(r (a^+ - a)) cut at M particles.  Gamma(U)
preserves particle number, so the identity holds exactly inside the
truncation.  Every factor comes from a Hermitian eigendecomposition of at
most one number sector (Gamma(U)) or one mode (D_1), never of the whole
space, and the result is unitary up to roundoff.  The operators satisfy
the Weyl relations only up to a truncation error, which is quantified on a
low sector (the states of total number <= M, default M = floor(N/2)).

Conventions: the symplectic form on R^(2k) ~ C^k is 2 Im <.,.>, mode j
occupying coordinates (2j, 2j+1); the one-mode rotation generator of
frequency w >= 0 is w * [[0, 1], [-1, 0]], which makes sigma(Dv, v) >= 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (ConvergenceFailure, DimensionMismatch, NotDiagonal, NotPSD,
                     SectorOutOfRange, SplitInvalid)
from .irreps import Representation
from .matcore import CLUSTER_TOL, eig_hermitian, numerical_rank


# ---------------------------------------------------------------------------
# truncated Fock space


class FockTruncation:
    """Occupation basis of k modes with total particle number <= N.

    States are ordered by total number, then lexicographically, so the
    sector of total number n is the index range ``offsets[n]:offsets[n+1]``.
    """

    def __init__(self, modes: int, cutoff: int):
        if modes < 0 or cutoff < 0:
            raise DimensionMismatch("modes and cutoff must be non-negative")
        self.modes = modes
        self.cutoff = cutoff
        self.occupations = _occupation_table(modes, cutoff)
        self.index = {tuple(row): i for i, row in enumerate(self.occupations)}
        self.dim = len(self.occupations)
        self.offsets = np.searchsorted(self.occupations.sum(axis=1), np.arange(cutoff + 2))

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[self.index[(0,) * self.modes]] = 1.0
        return v

    def annihilation(self, mode: int) -> np.ndarray:
        a = np.zeros((self.dim, self.dim), dtype=complex)
        src, dst = self._lowered(mode)
        a[dst, src] = np.sqrt(self.occupations[src, mode])
        return a

    def _lowered(self, mode: int) -> tuple[np.ndarray, np.ndarray]:
        """States with a particle in ``mode`` and the states with it removed."""
        src = np.flatnonzero(self.occupations[:, mode])
        lowered = self.occupations[src]
        lowered[:, mode] -= 1
        return src, np.array([self.index[row] for row in map(tuple, lowered.tolist())], dtype=int)

    @cached_property
    def sector_runs(self) -> list[tuple[int, np.ndarray]]:
        """Runs of consecutive number sectors of equal size, with creation blocks.

        Entry (n0, C): C[j, g] is the matrix of a_j^+ from sector n0+g-1 into
        sector n0+g, zero-padded to the widest source sector of the run.
        Sector sizes C(n+k-1, k-1) do not decrease, so for k >= 2 every run
        is one sector and for k = 1 one run holds them all.
        """
        sizes = np.diff(self.offsets)
        totals = self.occupations.sum(axis=1)
        hops = [self._lowered(j) for j in range(self.modes)]
        bounds = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), self.cutoff + 1]
        runs = []
        for n0, n1 in zip(bounds, bounds[1:]):  # sectors n0..n1-1
            widest = sizes[n1 - 2] if n1 > 1 else 0  # the source of sector n1-1
            blocks = np.zeros((self.modes, n1 - n0, sizes[n0], widest))
            for j, (src, dst) in enumerate(hops):
                n = totals[src]
                keep = (n >= n0) & (n < n1)
                src, dst, n = src[keep], dst[keep], n[keep]
                blocks[j, n - n0, src - self.offsets[n], dst - self.offsets[n - 1]] = (
                    np.sqrt(self.occupations[src, j]))
            runs.append((n0, blocks))
        return runs

    @cached_property
    def rest_groups(self) -> list[np.ndarray]:
        """Entry m: state indices, one row per occupation of modes 2..k with
        m particles, along n_1 = 0..N-m."""
        occ = self.occupations
        rest = occ[:, 1:].sum(axis=1)
        order = np.lexsort((occ[:, 0],) + tuple(occ[:, 1:].T))
        return [order[rest[order] == m].reshape(-1, self.cutoff - m + 1)
                for m in range(self.cutoff + 1)]

    @cached_property
    def one_mode_spectra(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Entry M: (w, S V) for a + a^+ = V diag(w) V^T on one mode cut at M.

        With S = diag(i^n), S^* (a^+ - a) S = -i (a + a^+), so
        exp(r (a^+ - a)) = (S V) diag(exp(-i r w)) (S V)^*.
        """
        out = []
        for M in range(self.cutoff + 1):
            off = np.sqrt(np.arange(1.0, M + 1))
            w, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
            out.append((w, (1j ** np.arange(M + 1))[:, None] * v))
        return out


def _occupation_table(k: int, n: int) -> np.ndarray:
    """Occupations of k modes with total at most n, by total and then lexicographically.

    Those of total s are the stars-and-bars compositions: k - 1 bars among
    s + k - 1 slots, whose combinations come in lexicographic order.
    """
    if k == 0:
        return np.zeros((1, 0), dtype=int)
    blocks = []
    for s in range(n + 1):
        bars = itertools.chain.from_iterable(itertools.combinations(range(s + k - 1), k - 1))
        bars = np.fromiter(bars, dtype=int).reshape(math.comb(s + k - 1, k - 1), k - 1)
        blocks.append(np.diff(bars, axis=1, prepend=-1, append=s + k - 1) - 1)
    return np.concatenate(blocks)


def _check_sector(ft: FockTruncation, sector: int) -> None:
    # a negative sector is empty and one past the cutoff is the whole space;
    # either would make a truncation check vacuous
    if not 0 <= sector <= ft.cutoff:
        raise SectorOutOfRange(f"sector {sector} outside [0, {ft.cutoff}]")


# ---------------------------------------------------------------------------
# displacement / Weyl operators


def _exp_anti_hermitian(A: np.ndarray) -> np.ndarray:
    """exp(A) for anti-Hermitian A from the eigendecomposition of iA.

    Raises NotHermitian when A is not anti-Hermitian.
    """
    w, v = eig_hermitian(1j * A)
    return (v * np.exp(-1j * w)) @ v.conj().T


def _amplitudes(ft: FockTruncation, x: Sequence[complex]) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape != (ft.modes,):
        raise DimensionMismatch(f"expected {ft.modes} mode amplitudes")
    if not np.isfinite(x).all():
        raise ConvergenceFailure("mode amplitudes must be finite")
    return x


def _sector_rotations(ft: FockTruncation, xhat: np.ndarray, top: int):
    """Gamma(U) on the sectors 0..top, for a unitary U with U e_1 = xhat.

    U = t (1 - 2 u u^*) with u along e_1 + c xhat and t = -conj(c), the
    phase c making c xhat_1 >= 0 so that |e_1 + c xhat| >= sqrt(2).  So
    U = exp(iK) with K = psi + pi u u^* and t = exp(i psi), and on sector n
    dGamma(K) = psi n + pi a^+(u) a(u), where a^+(u) a(u) has the integer
    eigenvalues j = 0..n: Gamma(U) = V diag(t^n (-1)^j) V^* on the sector.
    Yields (n0, G), G the stack of sector unitaries of one run of
    ``ft.sector_runs``, from one batched eigendecomposition.
    """
    c = np.conj(xhat[0]) / abs(xhat[0]) if abs(xhat[0]) > 0 else 1.0
    u = c * xhat
    u[0] += 1.0
    u /= np.linalg.norm(u)
    turn = -np.conj(c)
    for n0, blocks in ft.sector_runs:
        if n0 > top:
            break
        create = np.tensordot(u, blocks[:, : top - n0 + 1], 1)  # a^+(u), sector n-1 -> n
        lam, v = np.linalg.eigh(create @ create.conj().swapaxes(1, 2))
        n = np.arange(n0, n0 + len(create))[:, None]
        # integer powers, not exp(i psi n), keep the phase accurate at large n
        power = turn ** n
        phase = power / np.abs(power) * (1 - 2 * (np.rint(lam) % 2))
        yield n0, (v * phase[:, None, :]) @ v.conj().swapaxes(1, 2)


def _displacement_block(ft: FockTruncation, x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The rows of the sectors <= rows and the columns of the sectors <= cols
    of exp(a^+(x) - a(x)), for amplitudes checked by `_amplitudes`."""
    nr, nc = ft.offsets[rows + 1], ft.offsets[cols + 1]
    if not ft.modes:
        return np.ones((nr, nc), dtype=complex)
    r = float(np.linalg.norm(x))
    xhat = x / r if r > 0 else np.eye(ft.modes, dtype=complex)[0]
    out = np.zeros((nr, nc), dtype=complex)
    # (+)_rest D_1: one block per m = |rest|, shared by its rest occupations
    for m, group in enumerate(ft.rest_groups[: min(rows, cols) + 1]):
        if not len(group):
            continue
        w, sv = ft.one_mode_spectra[ft.cutoff - m]
        i, j = rows - m + 1, cols - m + 1
        block = (sv[:i] * np.exp(-1j * r * w)) @ sv[:j].conj().T
        out[group[:, :i, None], group[:, None, :j]] = block
    for n0, gamma in _sector_rotations(ft, xhat, max(rows, cols)):
        size = gamma.shape[1]
        count = min(len(gamma), cols - n0 + 1)
        if count > 0:
            lo, hi = ft.offsets[n0], ft.offsets[n0 + count]
            cols_in = out[:, lo:hi].reshape(nr, count, size).swapaxes(0, 1)
            cols_out = cols_in @ gamma[:count].conj().swapaxes(1, 2)
            out[:, lo:hi] = cols_out.swapaxes(0, 1).reshape(nr, -1)
        count = min(len(gamma), rows - n0 + 1)
        if count > 0:
            lo, hi = ft.offsets[n0], ft.offsets[n0 + count]
            out[lo:hi] = (gamma[:count] @ out[lo:hi].reshape(count, size, nc)).reshape(-1, nc)
    return out


def displacement_op(ft: FockTruncation, x: Sequence[complex]) -> np.ndarray:
    """exp(a^+(x) - a(x)) on the truncation; unitary up to roundoff."""
    return _displacement_block(ft, _amplitudes(ft, x), ft.cutoff, ft.cutoff)


def weyl_op(ft: FockTruncation, v: Sequence[complex]) -> np.ndarray:
    """W(v) = displacement at i v / sqrt(2)."""
    v = _amplitudes(ft, v)
    return displacement_op(ft, 1j * v / math.sqrt(2.0))


def weyl_vacuum_overlap(ft: FockTruncation, v: Sequence[complex]) -> complex:
    """<0|W(v)|0> on the truncation.

    The vacuum is sector 0, which Gamma(U) fixes, so only the vacuum entry
    of the one-mode block D_1(|v|/sqrt(2); N) is formed.
    """
    v = _amplitudes(ft, v)
    return complex(_displacement_block(ft, 1j * v / math.sqrt(2.0), 0, 0)[0, 0])


def weyl_relation_residual(ft: FockTruncation, v, w, sector: Optional[int] = None) -> float:
    """Operator norm of (W(v) W(w) - phase * W(v+w)) between low-sector states.

    The phase is exp(-i Im<v, w> / 2); the relation is exact only without
    truncation, so the defect is measured on the rows and columns of total
    particle number <= sector, in [0, N] (default floor(N/2)).  Only the
    sector rows of W(v), the sector columns of W(w) and the sector block of
    W(v+w) are formed.
    """
    v, w = _amplitudes(ft, v), _amplitudes(ft, w)
    if sector is None:
        sector = ft.cutoff // 2
    _check_sector(ft, sector)
    phase = np.exp(-0.5j * np.imag(np.vdot(v, w)))
    x, y, top = 1j * v / math.sqrt(2.0), 1j * w / math.sqrt(2.0), ft.cutoff
    product = _displacement_block(ft, x, sector, top) @ _displacement_block(ft, y, top, sector)
    resid = product - phase * _displacement_block(ft, x + y, sector, sector)
    return float(np.linalg.norm(resid, 2))


def second_quantize(ft: FockTruncation, one_body: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """dGamma of a positive-semidefinite Hermitian one-particle operator.

    Acts as sum_{jl} D_{jl} a^+_j a_l; block diagonal across number sectors,
    with spectrum in [0, inf) and kernel equal to the truncated Fock space
    over ker D.  Entries are D_{jl} sqrt(n_l (n_j + 1)) read off the
    occupation table (D_{jj} n_j on the diagonal), so they are exact for
    integer D.
    """
    D = np.asarray(one_body, dtype=complex)
    if D.shape != (ft.modes, ft.modes):
        raise DimensionMismatch(f"one-particle operator must be {ft.modes} x {ft.modes}")
    if np.linalg.norm(D - D.conj().T) > tol * max(1.0, np.linalg.norm(D)):
        raise NotPSD("one-particle operator is not Hermitian")
    if ft.modes and np.linalg.eigvalsh((D + D.conj().T) / 2).min() < -tol * max(1.0, np.linalg.norm(D)):
        raise NotPSD("one-particle operator has a negative eigenvalue")
    occ = ft.occupations
    out = np.zeros((ft.dim, ft.dim), dtype=complex)
    out[np.diag_indices(ft.dim)] = occ @ np.diag(D)
    for j, l in zip(*np.nonzero(D)):
        if j == l:
            continue
        src = np.flatnonzero(occ[:, l])
        hopped = occ[src]
        hopped[:, l] -= 1
        hopped[:, j] += 1
        dst = [ft.index[row] for row in map(tuple, hopped.tolist())]
        out[dst, src] = D[j, l] * np.sqrt(occ[src, l] * (occ[src, j] + 1))
    return out


def kernel_dimension(ft: FockTruncation, op: np.ndarray, tol: float = CLUSTER_TOL) -> int:
    """Dimension of the numerical kernel of a number-preserving operator on ``ft``.

    ``op`` must be block diagonal over the number sectors, as dGamma from
    ``second_quantize`` is: an entry off the blocks above tol * (1 + max |w|),
    or NaN, raises.  The Hermitian part is diagonalized one sector at a
    time, and the kernel is what :func:`matcore.numerical_rank` leaves of
    the |w| in descending order: the eigenvalues with |w| <= tol * max(1,
    max |w|).
    """
    if op.shape != (ft.dim, ft.dim):
        raise DimensionMismatch(f"operator must be {ft.dim} x {ft.dim}")
    w, leak = [], 0.0
    for a, b in zip(ft.offsets[:-1], ft.offsets[1:]):
        block = op[a:b, a:b]
        w.append(np.linalg.eigvalsh((block + block.conj().T) / 2))
        leak = np.max([leak, np.abs(op[a:b, b:]).max(initial=0.0), np.abs(op[b:, a:b]).max(initial=0.0)])
    w = np.sort(np.abs(np.concatenate(w)))[::-1]
    if not leak <= tol * (1.0 + w[0]):
        raise NotDiagonal("operator couples different number sectors")
    return len(w) - numerical_rank(w, tol)


def truncated_kernel_count(cutoff: int, zero_modes: int) -> int:
    """Dimension of the truncated Fock space over a zero-mode subspace."""
    return math.comb(cutoff + zero_modes, zero_modes)


# ---------------------------------------------------------------------------
# symplectic data


ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass
class SymplecticSetup:
    """R^(2k) with the standard form and a rotation generator in sp(V, sigma).

    ``frequencies[j]`` is the rotation frequency of mode j; zero frequencies
    span the fixed subspace V^beta and positive ones the effective part.
    The canonical layout keeps fixed modes first.  Frequencies must be
    finite and non-negative; sigma = (+) 2 ROT and D = (+) f ROT then put D
    in sp(V, sigma) with sigma non-degenerate, by construction.
    """

    frequencies: tuple[float, ...]

    def __post_init__(self):
        freqs = tuple(float(f) for f in self.frequencies)
        if not all(math.isfinite(f) for f in freqs):
            raise SplitInvalid("frequencies must be finite")
        if any(f < 0 for f in freqs):
            raise SplitInvalid("frequencies must be non-negative")
        if sorted(freqs, key=lambda f: f > 0) != list(freqs):
            raise SplitInvalid("canonical layout requires fixed modes first")
        object.__setattr__(self, "frequencies", freqs)

    @property
    def modes(self) -> int:
        return len(self.frequencies)

    @property
    def fixed_modes(self) -> int:
        return sum(1 for f in self.frequencies if f == 0)

    @property
    def effective_modes(self) -> int:
        return self.modes - self.fixed_modes

    @property
    def effective_frequencies(self) -> tuple[float, ...]:
        return tuple(f for f in self.frequencies if f > 0)

    def sigma_matrix(self) -> np.ndarray:
        out = np.zeros((2 * self.modes, 2 * self.modes))
        for j in range(self.modes):
            out[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = 2.0 * ROT
        return out

    def sigma(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.asarray(u) @ self.sigma_matrix() @ np.asarray(v))

    def complex_coords(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split a real vector into fixed-part (real 2k_0) and effective
        complex amplitudes (k_eff)."""
        v = np.asarray(v, dtype=float)
        if v.shape != (2 * self.modes,):
            raise DimensionMismatch(f"vector must have length {2 * self.modes}")
        k0 = self.fixed_modes
        fixed = v[: 2 * k0]
        eff = v[2 * k0 :]
        amps = eff[0::2] + 1j * eff[1::2]
        return fixed, amps


# ---------------------------------------------------------------------------
# factorization of ground state representations over a split


def _block_residual(W: np.ndarray, dk: int, sector: np.ndarray, fixed: bool) -> float:
    """Residual of W against A (x) 1 (``fixed``) or 1 (x) B on the given list of F-basis indices."""
    T = W.reshape(dk, -1, dk, W.shape[1] // dk)[:, sector][:, :, :, sector]
    if fixed:  # slice through the vacuum, which is index 0 of the sector
        A, B = T[:, 0, :, 0], np.eye(len(sector), dtype=complex)
    else:
        A, B = np.eye(dk, dtype=complex), T[0, :, 0, :]
    ideal = np.einsum("ac,bd->abcd", A, B)
    return float(np.linalg.norm((T - ideal).reshape(dk * len(sector), -1), 2))


def heisenberg_weyl(rep0: Representation, x: np.ndarray) -> np.ndarray:
    """Group element exp(drho(0, x)) for a Heisenberg-algebra representation.

    ``x`` is the translation part in interleaved per-mode coordinates
    (x_1, y_1, x_2, y_2, ...); the central coordinate is set to zero and the
    vector is reordered into the blocked basis [Z, X_1.., Y_1..].  Raises
    NotHermitian when drho(0, x) is not anti-Hermitian, that is when ``rep0``
    is not unitary.
    """
    x = np.asarray(x, dtype=float)
    k = x.size // 2
    coeffs = np.zeros(rep0.algebra.dim)
    coeffs[1 : 1 + k] = x[0::2]
    coeffs[1 + k :] = x[1::2]
    return _exp_anti_hermitian(rep0.operator(coeffs))


def factorization_check(setup: SymplecticSetup, rep0: Optional[Representation],
                        ft: FockTruncation, sector: int, tol: float,
                        entangler: Optional[np.ndarray] = None,
                        grid: int = 6, seed: int = 0) -> bool:
    """Verify the tensor factorization of a ground state representation.

    Builds the candidate representation on K (x) F for the split V =
    V^beta + V_eff (optionally conjugated by an entangling unitary, which
    models a representation violating the block structure) and checks:

    (a) Weyl operators of fixed-part arguments act as A (x) 1 and effective
        arguments as 1 (x) B, with residual <= tol on the given sector;
    (b) the minimal-energy space of the effective number generator is the
        vacuum line (requires strictly positive effective frequencies);
    (c) vacuum expectation values of effective Weyl operators match
        exp(-|x|^2 / 4) within tol.

    Raises SectorOutOfRange for a sector outside [0, cutoff].
    """
    _check_sector(ft, sector)
    if ft.modes != setup.effective_modes:
        raise SplitInvalid("Fock truncation does not match the effective mode count")
    if setup.fixed_modes:
        if rep0 is None:
            raise SplitInvalid("a fixed-part representation is required when V^beta != 0")
        dk = rep0.dim
    else:
        dk = 1
    dfock = ft.dim
    sector_idx = np.arange(ft.offsets[sector + 1])

    def total_weyl(v: np.ndarray) -> np.ndarray:
        fixed, amps = setup.complex_coords(v)
        wk = heisenberg_weyl(rep0, fixed) if setup.fixed_modes else np.eye(1, dtype=complex)
        wf = weyl_op(ft, amps) if ft.modes else np.eye(1, dtype=complex)
        W = np.kron(wk, wf)
        if entangler is not None:
            W = entangler @ W @ entangler.conj().T
        return W

    # (a) block structure on basis directions of each part, fixed part first
    for idx in range(2 * setup.modes):
        e = np.zeros(2 * setup.modes)
        e[idx] = 1.0
        if not _block_residual(total_weyl(e), dk, sector_idx, idx < 2 * setup.fixed_modes) <= tol:
            return False

    # (b) one-dimensional minimal-energy space of the effective factor
    if ft.modes:
        number_gen = second_quantize(ft, np.diag(setup.effective_frequencies).astype(complex))
        if kernel_dimension(ft, number_gen) != 1:
            return False

    # (c) vacuum expectations of effective Weyl operators
    if ft.modes:
        rng = np.random.default_rng(seed)
        for _ in range(grid):
            amps = rng.normal(size=ft.modes) + 1j * rng.normal(size=ft.modes)
            amps *= rng.uniform(0.1, 1.0) / np.linalg.norm(amps)
            got = weyl_vacuum_overlap(ft, amps)
            want = math.exp(-float(np.linalg.norm(amps)) ** 2 / 4.0)
            if abs(got - want) > tol:
                return False
    return True
