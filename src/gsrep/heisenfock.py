"""Truncated bosonic Fock space, Weyl operators, second quantization.

The truncation keeps all occupation states of k modes with total particle
number <= N, so one-particle rotations stay block diagonal across number
sectors.  Weyl operators are exponentials of the truncated generator
``a^+(x) - a(x)``.  It is anti-Hermitian, so the exponential comes from one
Hermitian eigendecomposition of i times it and is unitary up to roundoff.
The operators satisfy the Weyl relations only up to a truncation error,
which is quantified on a low sector (the states of total number <= M,
default M = floor(N/2)).

Conventions: the symplectic form on R^(2k) ~ C^k is 2 Im <.,.>, mode j
occupying coordinates (2j, 2j+1); the one-mode rotation generator of
frequency w >= 0 is w * [[0, 1], [-1, 0]], which makes sigma(Dv, v) >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, NotPSD, SectorOutOfRange, SplitInvalid
from .irreps import Representation
from .matcore import CLUSTER_TOL, eig_hermitian


# ---------------------------------------------------------------------------
# truncated Fock space


class FockTruncation:
    """Occupation basis of k modes with total particle number <= N."""

    def __init__(self, modes: int, cutoff: int):
        if modes < 0 or cutoff < 0:
            raise DimensionMismatch("modes and cutoff must be non-negative")
        self.modes = modes
        self.cutoff = cutoff
        self.occupations = _occupation_table(modes, cutoff)
        self.index = {tuple(row): i for i, row in enumerate(self.occupations)}
        self.dim = len(self.occupations)

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[self.index[(0,) * self.modes]] = 1.0
        return v

    def total_number(self) -> np.ndarray:
        return np.diag(self.occupations.sum(axis=1).astype(float)).astype(complex)

    def annihilation(self, mode: int) -> np.ndarray:
        a = np.zeros((self.dim, self.dim), dtype=complex)
        src = np.flatnonzero(self.occupations[:, mode])
        lowered = self.occupations[src]
        lowered[:, mode] -= 1
        dst = [self.index[row] for row in map(tuple, lowered.tolist())]
        a[dst, src] = np.sqrt(self.occupations[src, mode])
        return a


def _occupation_table(k: int, n: int) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# displacement / Weyl operators


def _exp_anti_hermitian(A: np.ndarray) -> np.ndarray:
    """exp(A) for anti-Hermitian A from the eigendecomposition of iA.

    Raises NotHermitian when A is not anti-Hermitian.
    """
    w, v = eig_hermitian(1j * A)
    return (v * np.exp(-1j * w)) @ v.conj().T


def displacement_op(ft: FockTruncation, x: Sequence[complex]) -> np.ndarray:
    """exp(a^+(x) - a(x)) on the truncation; unitary up to roundoff."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (ft.modes,):
        raise DimensionMismatch(f"expected {ft.modes} mode amplitudes")
    lower = np.zeros((ft.dim, ft.dim), dtype=complex)
    for j in range(ft.modes):
        lower += np.conj(x[j]) * ft.annihilation(j)
    return _exp_anti_hermitian(lower.conj().T - lower)


def weyl_op(ft: FockTruncation, v: Sequence[complex]) -> np.ndarray:
    """W(v) = displacement at i v / sqrt(2)."""
    v = np.asarray(v, dtype=complex)
    return displacement_op(ft, 1j * v / math.sqrt(2.0))


def weyl_relation_residual(ft: FockTruncation, v, w, sector: Optional[int] = None) -> float:
    """Operator norm of (W(v) W(w) - phase * W(v+w)) between low-sector states.

    The phase is exp(-i Im<v, w> / 2); the relation is exact only without
    truncation, so the defect is measured on the rows and columns of total
    particle number <= sector, in [0, N] (default floor(N/2)).
    """
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if sector is None:
        sector = ft.cutoff // 2
    if not 0 <= sector <= ft.cutoff:
        raise SectorOutOfRange(f"sector {sector} outside [0, {ft.cutoff}]")
    phase = np.exp(-0.5j * np.imag(np.vdot(v, w)))
    idx = np.flatnonzero(ft.occupations.sum(axis=1) <= sector)
    product = weyl_op(ft, v)[idx] @ weyl_op(ft, w)[:, idx]
    resid = product - phase * weyl_op(ft, v + w)[np.ix_(idx, idx)]
    return float(np.linalg.norm(resid, 2))


def second_quantize(ft: FockTruncation, one_body: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """dGamma of a positive-semidefinite Hermitian one-particle operator.

    Acts as sum_{jl} D_{jl} a^+_j a_l; block diagonal across number sectors,
    with spectrum in [0, inf) and kernel equal to the truncated Fock space
    over ker D.
    """
    D = np.asarray(one_body, dtype=complex)
    if D.shape != (ft.modes, ft.modes):
        raise DimensionMismatch(f"one-particle operator must be {ft.modes} x {ft.modes}")
    if np.linalg.norm(D - D.conj().T) > tol * max(1.0, np.linalg.norm(D)):
        raise NotPSD("one-particle operator is not Hermitian")
    if ft.modes and np.linalg.eigvalsh((D + D.conj().T) / 2).min() < -tol * max(1.0, np.linalg.norm(D)):
        raise NotPSD("one-particle operator has a negative eigenvalue")
    out = np.zeros((ft.dim, ft.dim), dtype=complex)
    ann = [ft.annihilation(j) for j in range(ft.modes)]
    for j in range(ft.modes):
        for l in range(ft.modes):
            if D[j, l] != 0:
                out += D[j, l] * (ann[j].conj().T @ ann[l])
    return out


def kernel_dimension(op: np.ndarray, tol: float = CLUSTER_TOL) -> int:
    w = np.linalg.eigvalsh((op + op.conj().T) / 2)
    scale = 1.0 + float(np.abs(w).max()) if w.size else 1.0
    return int(np.sum(np.abs(w) <= tol * scale))


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
    The canonical layout keeps fixed modes first.
    """

    frequencies: tuple[float, ...]

    def __post_init__(self):
        freqs = tuple(float(f) for f in self.frequencies)
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
        blocks = [2.0 * np.array([[0.0, 1.0], [-1.0, 0.0]]) for _ in range(self.modes)]
        out = np.zeros((2 * self.modes, 2 * self.modes))
        for j, b in enumerate(blocks):
            out[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = b
        return out

    def rotation_generator(self) -> np.ndarray:
        out = np.zeros((2 * self.modes, 2 * self.modes))
        for j, f in enumerate(self.frequencies):
            out[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = f * ROT
        return out

    def sigma(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.asarray(u) @ self.sigma_matrix() @ np.asarray(v))

    def validate(self, tol: float = 1e-12) -> None:
        """Check D_V is in sp(V, sigma) and the split is non-degenerate."""
        D = self.rotation_generator()
        S = self.sigma_matrix()
        if np.linalg.norm(D.T @ S + S @ D) > tol * max(1.0, np.linalg.norm(S)):
            raise SplitInvalid("rotation generator is not in the symplectic Lie algebra")
        # sigma restricted to the effective part must be non-degenerate
        eff = slice(2 * self.fixed_modes, 2 * self.modes)
        sub = S[eff, eff]
        if sub.size and np.linalg.matrix_rank(sub) != sub.shape[0]:
            raise SplitInvalid("degenerate form on the effective subspace")

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


def _block_residual_left(W: np.ndarray, dk: int, sector: np.ndarray) -> float:
    """Residual of W against A (x) 1 on the given list of F-basis indices."""
    T = W.reshape(dk, -1, dk, W.shape[1] // dk)[:, sector][:, :, :, sector]
    A = T[:, 0, :, 0]  # slice through the vacuum, which is index 0 of the sector
    ideal = np.einsum("ac,bd->abcd", A, np.eye(len(sector), dtype=complex))
    return float(np.linalg.norm((T - ideal).reshape(dk * len(sector), -1), 2))


def _block_residual_right(W: np.ndarray, dk: int, sector: np.ndarray) -> float:
    """Residual of W against 1 (x) B on the given list of F-basis indices."""
    T = W.reshape(dk, -1, dk, W.shape[1] // dk)[:, sector][:, :, :, sector]
    B = T[0, :, 0, :]
    ideal = np.einsum("ac,bd->abcd", np.eye(dk, dtype=complex), B)
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
    return _exp_anti_hermitian(rep0.operator(coeffs, ambient=False))


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
    """
    setup.validate()
    if ft.modes != setup.effective_modes:
        raise SplitInvalid("Fock truncation does not match the effective mode count")
    if setup.fixed_modes:
        if rep0 is None:
            raise SplitInvalid("a fixed-part representation is required when V^beta != 0")
        dk = rep0.dim
    else:
        dk = 1
    dfock = ft.dim
    sector_idx = np.where(ft.occupations.sum(axis=1) <= sector)[0]

    def total_weyl(v: np.ndarray) -> np.ndarray:
        fixed, amps = setup.complex_coords(v)
        wk = heisenberg_weyl(rep0, fixed) if setup.fixed_modes else np.eye(1, dtype=complex)
        wf = weyl_op(ft, amps) if ft.modes else np.eye(1, dtype=complex)
        W = np.kron(wk, wf)
        if entangler is not None:
            W = entangler @ W @ entangler.conj().T
        return W

    # (a) block structure on basis directions of each part
    for idx in range(2 * setup.fixed_modes):
        e = np.zeros(2 * setup.modes)
        e[idx] = 1.0
        if _block_residual_left(total_weyl(e), dk, sector_idx) > tol:
            return False
    for idx in range(2 * setup.fixed_modes, 2 * setup.modes):
        e = np.zeros(2 * setup.modes)
        e[idx] = 1.0
        if _block_residual_right(total_weyl(e), dk, sector_idx) > tol:
            return False

    # (b) one-dimensional minimal-energy space of the effective factor
    if ft.modes:
        if min(setup.effective_frequencies) <= 0:
            return False
        number_gen = second_quantize(ft, np.diag(setup.effective_frequencies).astype(complex))
        if kernel_dimension(number_gen) != 1:
            return False

    # (c) vacuum expectations of effective Weyl operators
    if ft.modes:
        rng = np.random.default_rng(seed)
        vac = ft.vacuum()
        for _ in range(grid):
            amps = rng.normal(size=ft.modes) + 1j * rng.normal(size=ft.modes)
            amps *= rng.uniform(0.1, 1.0) / np.linalg.norm(amps)
            got = vac.conj() @ weyl_op(ft, amps) @ vac
            want = math.exp(-float(np.linalg.norm(amps)) ** 2 / 4.0)
            if abs(got - want) > tol:
                return False
    return True
