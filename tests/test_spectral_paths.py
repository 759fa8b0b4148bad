"""One path per spectral decision in ``analyze``.

The central projections, the blockwise ground space, the Krylov cyclicity
test and the liealg null space that ``analyze`` used before the central
blocks, the separation decision and the single rank rule are kept here
verbatim as references (``_central_projections``, ``_ground_space``,
``_krylov_cyclic``, ``_null_space_cols``).  ``reference_analyze`` is the
earlier ``analyze`` body on top of them.
"""

import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsrep import cones, groundstate, irreps, liealg, matcore
from gsrep.errors import ConvergenceFailure, NotIrreducible
from gsrep.irreps import Representation, direct_sum
from gsrep.matcore import (CLUSTER_TOL, DEFAULT_TOL, cluster_values, commutant_basis, compress, eig_frame,
                           numerical_rank)

from conftest import D_LISTS, algebra, cached_irrep, fresh, random_unitary, rng
from oracles import center_basis, same_span, splitting_condition
from test_commutant_frame import reducible_cases, reference_commutant, sweep_cases, verdicts


def _central_projections(comm: np.ndarray, tol: float,
                         seed: int = 7) -> list[np.ndarray]:
    """Minimal central projections of the algebra generated by the operators.

    ``comm`` is the commutant of the operators.  The center of their
    generated algebra is the center of ``comm``, comm intersected with
    comm', so it is one null space over the commutant basis; a
    random Hermitian element of it has the minimal central projections as
    its spectral projections (generically, so a couple of retries suffice).
    """
    dim = comm.shape[-1]
    if len(comm) == 1:
        return [np.eye(dim, dtype=complex)]
    center = center_basis(comm, tol)
    if len(center) == 1:
        return [np.eye(dim, dtype=complex)]
    rng = np.random.default_rng(seed)
    for _ in range(8):
        coeff = rng.normal(size=len(center))
        X = np.einsum("k,kij->ij", coeff.astype(complex), center)
        X = (X + X.conj().T) / 2.0
        w, v = np.linalg.eigh(X)
        groups = cluster_values(w, CLUSTER_TOL * max(1.0, float(np.abs(w).max())))
        if len(groups) == len(center):
            return [v[:, grp] @ v[:, grp].conj().T for grp in groups]
    raise NotIrreducible("failed to separate central projections")  # pragma: no cover


def _ground_space(H: np.ndarray, projections: list[np.ndarray], tol: float) -> tuple[float, np.ndarray, list[float]]:
    """Blockwise minimal eigenspaces: the kernel of the minimally shifted H."""
    dim = H.shape[0]
    scale = 1.0 + float(np.linalg.norm(H))
    cols = []
    shifts = []
    for P in projections:
        wp, vp = np.linalg.eigh((P + P.conj().T) / 2.0)
        Q = vp[:, wp > 0.5]  # orthonormal basis of the block range
        Hb = Q.conj().T @ H @ Q
        w, v = np.linalg.eigh((Hb + Hb.conj().T) / 2.0)
        mb = float(w[0])
        shifts.append(mb)
        sel = w <= mb + CLUSTER_TOL * scale
        cols.append(Q @ v[:, sel])
    basis = np.hstack(cols) if cols else np.zeros((dim, 0), dtype=complex)
    # columns from distinct blocks are orthogonal; re-orthonormalize defensively
    q, r = np.linalg.qr(basis)
    keep = np.abs(np.diag(r)) > 1e-10
    return (min(shifts) if shifts else 0.0), q[:, keep], shifts


def _krylov_cyclic(dpi_ops: list[np.ndarray], start: np.ndarray, dim: int,
                   tol: float) -> bool:
    """Does the iterated operator span of the start subspace fill the space?"""
    S = start
    while S.shape[1] < dim:
        cands = np.hstack([op @ S for op in dpi_ops]) if dpi_ops else S[:, :0]
        if cands.shape[1] == 0:
            break
        cands = cands - S @ (S.conj().T @ cands)
        u, s, _ = np.linalg.svd(cands, full_matrices=False)
        keep = numerical_rank(s, tol)
        if keep == 0:
            break
        S = np.hstack([S, u[:, :keep]])
    return S.shape[1] == dim


def _null_space_cols(mat: np.ndarray, thr: float) -> np.ndarray:
    _, s, vh = np.linalg.svd(mat)
    rank = int(np.sum(s > max(thr, s[0] * 1e-12 if s.size else 0.0)))
    return vh[rank:].conj().T


def reference_analyze(pi, d, tol=DEFAULT_TOL):
    """The earlier ``analyze``: projectors, their ranges, a QR, and the raw corner inputs."""
    g = pi.algebra
    d = np.asarray(d, dtype=float)
    H = -1j * pi.operator(d)
    w = eig_frame(H, 1e-8)[0]
    dpi_ops = list(pi.dpi)
    torus = None if g.cartan_indices is None else np.eye(g.dim)[list(g.cartan_indices)]
    comm_full = commutant_basis(dpi_ops, seed_rows=torus)
    projections = _central_projections(comm_full, tol)
    _, h0, shifts = _ground_space(H, projections, tol)
    fix = liealg.fixed_point_data(g, d)
    dpi0 = np.einsum("ri,ids->rds", fix.rows.astype(complex), pi.dpi)
    pi0 = Representation(fix.algebra, h0.conj().T @ dpi0 @ h0, ambient_coeffs=fix.rows)
    ground_state = _krylov_cyclic(dpi_ops, h0, pi.dim, tol)
    comm_pi0 = commutant_basis(pi0.dpi, seed_rows=fix.torus_rows)
    compressed_comm = compress(h0, comm_full)
    corner = commutant_basis(compressed_comm)
    return {
        "m": float(w[0]),
        "h0_basis": h0,
        "shifts": shifts,
        "commutant_dims": (len(comm_full), len(comm_pi0), len(corner)),
        "ground_state": ground_state,
        "strict": bool(ground_state and len(comm_pi0) == len(compressed_comm)),
        "projections": projections,
        "comm_full": comm_full,
    }


def assert_matches_reference(cases, exact_shifts):
    for rep, d in cases:
        got = groundstate.analyze(rep, d)
        want = reference_analyze(rep, d)
        assert got.m == want["m"]
        assert got.h0_dim == want["h0_basis"].shape[1]
        assert got.commutant_dims == want["commutant_dims"]
        assert (got.ground_state, got.strict) == (want["ground_state"], want["strict"])
        P, Q = got.h0_basis, want["h0_basis"]
        assert np.abs(P @ P.conj().T - Q @ Q.conj().T).max() <= 1e-12
        assert np.allclose(P.conj().T @ P, np.eye(P.shape[1]), rtol=0, atol=1e-12)
        assert len(got.central_shifts) == len(want["shifts"])
        if exact_shifts:
            assert list(got.central_shifts) == want["shifts"]
        else:
            blocks = irreps.commutant(rep)[1] or [np.eye(rep.dim)]
            order = _pair_by_projector(blocks, want["projections"])
            shifts = [want["shifts"][j] for j in order]
            assert np.abs(np.subtract(got.central_shifts, shifts)).max() <= 1e-12


def test_irreducible_fixtures_match_the_projector_route():
    cases = list(sweep_cases())
    assert len(cases) == 390
    assert_matches_reference(cases, exact_shifts=True)


def test_reducible_cases_match_the_projector_route():
    cases = list(reducible_cases())
    assert len(cases) == 28
    assert_matches_reference(cases, exact_shifts=False)


def _pair_by_projector(blocks, projections, atol=1e-12):
    """For each column block, the index of the one projection onto its span, within ``atol``."""
    order = []
    for Q in blocks:
        near = [j for j, P in enumerate(projections) if np.abs(Q @ Q.conj().T - P).max() <= atol]
        assert len(near) == 1
        order.append(near[0])
    assert sorted(order) == list(range(len(projections)))
    return order


def test_central_blocks_span_the_reference_projections():
    blocks_seen = set()
    for rep, d in reducible_cases():
        comm = reference_analyze(rep, d)["comm_full"]
        blocks = [np.hstack(c) for c in matcore.isotypic_split(comm)]
        want = _central_projections(comm, DEFAULT_TOL)
        assert len(blocks) == len(want)
        for Q in blocks:
            assert np.allclose(Q.conj().T @ Q, np.eye(Q.shape[1]), rtol=0, atol=1e-12)
        _pair_by_projector(blocks, want)
        blocks_seen.add(len(blocks))
    assert blocks_seen == {1, 2, 3}


def _seed_element(mats, seed_rows):
    """The seed element ``matcore._seed_frame`` draws, recomputed from its seed."""
    gen = np.random.default_rng(matcore.GENERIC_SEED)
    if seed_rows is None:
        coeffs = gen.normal(size=len(mats))
    else:
        rows = np.asarray(seed_rows, dtype=float)
        coeffs = gen.normal(size=rows.shape[0]) @ rows
    return np.einsum("k,kij->ij", coeffs.astype(complex), mats)


@pytest.fixture
def non_normal_seeds(monkeypatch):
    """Counts the calls of ``_seed_frame`` whose seed element is not normal."""
    count = {"calls": 0, "non_normal": 0}
    real = matcore._seed_frame

    def counting(mats, seed_rows):
        X = _seed_element(mats, seed_rows)
        scale = max(np.linalg.norm(X), 1.0)
        count["calls"] += 1
        count["non_normal"] += bool(np.linalg.norm(X @ X.conj().T - X.conj().T @ X) > DEFAULT_TOL * scale ** 2)
        return real(mats, seed_rows)

    monkeypatch.setattr(matcore, "_seed_frame", counting)
    return count


def test_no_reducible_case_takes_the_identity_frame(non_normal_seeds):
    for rep, d in reducible_cases():
        groundstate.analyze(fresh(rep), d)
    # the commutants of pi and pi0, less pi0's for the 4 sums at the central d = (0, 0)
    assert non_normal_seeds["calls"] == 52
    assert non_normal_seeds["non_normal"] == 0


def _non_star_closed_sets():
    N = np.diag(np.ones(3), 1).astype(complex)
    gen = rng(41)
    sets = [[N, 2.0 * N @ N], [N]]
    for dim in (2, 3, 4):
        sets.append([gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
                     for _ in range(2)])
    sets.append([np.triu(gen.normal(size=(4, 4))).astype(complex), np.eye(4, dtype=complex)])
    return sets


@pytest.mark.parametrize("k", range(6))
def test_identity_frame_matches_reference_commutant(k, non_normal_seeds):
    ops = _non_star_closed_sets()[k]
    got = matcore.commutant_basis(ops)
    assert non_normal_seeds["non_normal"] == 1  # the path under test was taken
    want = reference_commutant(ops)
    assert len(got) == len(want)
    assert same_span(got, want, 1e-8)
    flat = got.reshape(len(got), -1)
    assert np.allclose(flat.conj() @ flat.T, np.eye(len(got)), atol=1e-10)
    for B in got:
        for A in ops:
            assert np.linalg.norm(B @ A - A @ B) <= 1e-9 * max(1.0, np.linalg.norm(A))


def test_hermitian_parts_span_the_compressed_commutant():
    # the corner commutant of the reference route took B + B^* and i(B - B^*);
    # their span is the compressed commutant's own, so the corner is unchanged
    for rep, d in reducible_cases():
        out = reference_analyze(rep, d)
        B = compress(out["h0_basis"], out["comm_full"])
        Bh = B.conj().transpose(0, 2, 1)
        parts = matcore.span_basis(np.concatenate([B + Bh, 1j * (B - Bh)]))
        assert same_span(parts, B)


# ---------------------------------------------------------------------------
# the corner P0 pi(G)'' P0, counted from the central blocks


SUMMANDS = {2: [(1, 0), (0, 0), (2, 0), (1, 1), (0, -1), (2, 1)],
            3: [(1, 0, 0), (0, 0, 0), (1, 1, 0), (0, 0, -1), (2, 1, 0)]}
# the last d of each list is read for its central part: FixedPointData.central is set
CORNER_D = {2: [(0.0, 0.0), (1.0, 0.0), (2.0, 1.0), (1.0, 1.0 + 1e-9)],
            3: [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (2.0, 1.0, 0.0),
                (1.0, 1.0 + 2e-9, 0.0)]}
HEISENBERG = ("heis", (), (0.0, 1.0, 0.0), 0)


@st.composite
def corner_cases(draw):
    """(kind, summands, d, seed): a u(2)/u(3) direct sum of dim <= 16 whose first summand repeats 1-3 times."""
    n = draw(st.sampled_from([2, 3]))
    first, second = draw(st.lists(st.sampled_from(SUMMANDS[n]), min_size=2, max_size=2))
    summands = (first,) * draw(st.integers(1, 3)) + (second,) * draw(st.integers(0, 2))
    dim = sum(cached_irrep("u", n, lam).dim for lam in summands)
    if dim > 16:
        summands = (first,)
    return "u", summands, draw(st.sampled_from(CORNER_D[n])), draw(st.integers(0, 2**16))


def _corner_case(kind, summands, entries, seed):
    """The representation, moved by a random unitary drawn from ``seed``, and d."""
    if kind == "heis":
        g = algebra("heis", 2)
        dpi = np.zeros((3, 2, 2), dtype=complex)
        dpi[2] = 1j * np.diag([1.0, 2.0])
    else:
        g = algebra("u", len(entries))
        dpi = direct_sum([cached_irrep("u", len(entries), lam) for lam in summands]).dpi
    U = random_unitary(dpi.shape[1], rng(seed))
    d = np.array(entries) if kind == "heis" else liealg.diagonal_element(g, entries)
    return Representation(g, U @ dpi @ U.conj().T), d


def test_the_last_corner_d_is_read_for_its_central_part():
    for n, entries in CORNER_D.items():
        g = algebra("u", n)
        assert liealg.fixed_point_data(g, liealg.diagonal_element(g, entries[-1])).central is not None


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(corner_cases())
@example(HEISENBERG)
@example(("u", ((1, 0, 0), (1, 0, 0), (1, 1, 0)), CORNER_D[3][-1], 1))
@example(("u", ((1, 0), (1, 0), (2, 0)), CORNER_D[2][-1], 2))
def test_corner_count_is_the_rank_of_the_reference_corner_commutant(case):
    rep, d = _corner_case(*case)
    out = groundstate.analyze(rep, d)
    comm = reference_commutant(rep.dpi)
    compressed = compress(out.h0_basis, comm)
    corner = reference_commutant(compressed)
    assert out.commutant_dims[2] == len(corner)


@pytest.mark.parametrize("summands,mults", [(((1, 0, 0), (1, 0, 0)), (3,)),
                                            (((1, 0, 0), (1, 1, 0)), (1, 2)),
                                            (((2, 1, 0),), (2,))])
def test_a_column_count_off_the_multiplicities_raises(monkeypatch, summands, mults):
    g = algebra("u", 3)
    rep = fresh(direct_sum([cached_irrep("u", 3, lam) for lam in summands]))
    d = liealg.diagonal_element(g, [2.0, 1.0, 0.0])
    groundstate.analyze(rep, d)
    (key, (comm, blocks, _)), = rep._memo.items()
    monkeypatch.setitem(rep._memo, key, (comm, blocks, mults))
    with pytest.raises(ConvergenceFailure, match="not multiples"):
        groundstate.analyze(rep, d)


def test_the_corner_at_d_zero_is_the_whole_matrix_algebra():
    # a dimension where the corner as a commutant needed a (125^2, 125, 125) basis
    g = algebra("u", 3)
    out = groundstate.analyze(fresh(cached_irrep("u", 3, (8, 4, 0))), np.zeros(g.dim))
    assert out.h0_dim == 125
    assert out.commutant_dims == (1, 1, 125 ** 2)


def test_twenty_trivial_copies_split_without_forming_the_center():
    # the center of this 400-dimensional commutant, as one null space of all
    # brackets, grew like d^6: 1.0 s and 268 MB already at 12 copies
    g = algebra("u", 2)
    rep = fresh(direct_sum([cached_irrep("u", 2, (0, 0))] * 20))
    out = groundstate.analyze(rep, liealg.diagonal_element(g, [1.0, 0.0]))
    assert out.commutant_dims == (400, 400, 1)
    assert out.h0_dim == 20


# ---------------------------------------------------------------------------
# the isotypic split: central blocks and multiplicities from one generic element


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(corner_cases())
@example(("u", ((1, 0), (1, 0), (1, 0), (2, 0), (2, 0)), CORNER_D[2][0], 3))
def test_isotypic_classes_are_the_summand_multiplicities_and_the_central_blocks(case):
    rep, _ = _corner_case(*case)
    comm = matcore.commutant_basis(rep.dpi)
    classes = matcore.isotypic_split(comm)
    sizes = [len(c) for c in classes]
    assert Counter(sizes) == Counter(Counter(case[1]).values())
    assert sum(k * k for k in sizes) == len(comm)
    _pair_by_projector([np.hstack(c) for c in classes], _central_projections(comm, DEFAULT_TOL), 1e-10)


# ---------------------------------------------------------------------------
# cyclicity as separation for the commutant


def _random_subspaces(rep, gen):
    """Orthonormal random subspaces of dims 1-3, one inside the first summand,
    and, when the second summand repeats the first, the diagonal line
    (x, x, 0), which meets no summand and is still not cyclic."""
    for k in range(1, min(3, rep.dim) + 1):
        z = gen.normal(size=(rep.dim, k)) + 1j * gen.normal(size=(rep.dim, k))
        yield np.linalg.qr(z)[0]
    # the first diagonal block of a direct sum is invariant
    b = next((b for b in range(1, rep.dim)
              if not np.any(rep.dpi[:, :b, b:]) and not np.any(rep.dpi[:, b:, :b])), rep.dim)
    k = min(2, b)
    z = np.zeros((rep.dim, k), dtype=complex)
    z[:b] = gen.normal(size=(b, k)) + 1j * gen.normal(size=(b, k))
    yield np.linalg.qr(z)[0]
    if 2 * b <= rep.dim and np.array_equal(rep.dpi[:, :b, :b], rep.dpi[:, b:2 * b, b:2 * b]):
        z = np.zeros((rep.dim, 1), dtype=complex)
        z[:b, 0] = z[b:2 * b, 0] = gen.normal(size=b) + 1j * gen.normal(size=b)
        yield z / np.linalg.norm(z)


def test_separation_matches_krylov_on_random_subspaces():
    gen = rng(11)
    tally = Counter()
    for rep, d in reducible_cases():
        out = reference_analyze(rep, d)
        comm = out["comm_full"]
        for K in [out["h0_basis"], *_random_subspaces(rep, gen)]:
            want = _krylov_cyclic(list(rep.dpi), K, rep.dim, DEFAULT_TOL)
            assert groundstate._separating(comm, K) == want
            tally[want] += 1
    assert tally[False] >= 28 + 9 and tally[True] >= 100


def _groundstate_svd_widths(monkeypatch) -> list[int]:
    """Widths of the SVDs called from ``groundstate``; ``compress`` raises."""
    widths = []
    real_svd = np.linalg.svd

    def svd(a, *args, **kwargs):
        if sys._getframe(1).f_code.co_filename == groundstate.__file__:
            widths.append(np.shape(a)[-1])
        return real_svd(a, *args, **kwargs)

    def no_compress(*args, **kwargs):
        raise AssertionError("analyze compressed an operator space")

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(matcore, "compress", no_compress)
    monkeypatch.setattr(groundstate, "compress", no_compress, raising=False)
    return widths


def test_ground_state_decision_takes_no_krylov_svd_and_no_compression(monkeypatch):
    # a scalar pi(G)' separates every nonzero subspace: no SVD at all
    g = algebra("u", 3)
    rep = fresh(cached_irrep("u", 3, (6, 3, 0)))
    d = liealg.diagonal_element(g, [1.0, 0.0, 0.0])
    widths = _groundstate_svd_widths(monkeypatch)
    out = groundstate.analyze(rep, d)
    assert rep.dim == 64 and out.ground_state and out.strict
    assert out.commutant_dims[0] == 1
    assert widths == []


def test_reducible_ground_state_decision_takes_one_thin_svd(monkeypatch):
    g = algebra("u", 3)
    rep = direct_sum([cached_irrep("u", 3, (2, 1, 0)), cached_irrep("u", 3, (1, 0, 0))])
    d = liealg.diagonal_element(g, [1.0, 0.0, 0.0])
    irreps.commutant(rep)  # its isotypic split compresses
    widths = _groundstate_svd_widths(monkeypatch)
    out = groundstate.analyze(rep, d)
    assert rep.dim == 11 and out.ground_state and out.commutant_dims[0] == 2
    assert widths and max(widths) <= out.commutant_dims[0]


# ---------------------------------------------------------------------------
# the liealg null spaces on the single rank rule


def reference_centralizer_rows(g, d, tol=DEFAULT_TOL):
    D, _ = liealg._derivation_matrix(g, d)
    return _null_space_cols(D, tol * max(1.0, float(np.abs(D).max()))).T


def reference_eigenspaces(g, d, tol=DEFAULT_TOL, cluster_tol=CLUSTER_TOL):
    """The eigenspaces of the earlier spectral_split, in its order."""
    D, _ = liealg._derivation_matrix(g, d)
    m = g.dim
    A = -1j * D.astype(complex)
    w = np.linalg.eigvals(A)
    scale = max(1.0, float(np.abs(A).max()))
    eigvals, spaces = [], []
    for grp in cluster_values(w, cluster_tol * scale):
        lam = complex(np.mean(w[grp]))
        eigvals.append(lam)
        spaces.append(_null_space_cols(A - lam * np.eye(m), tol * scale))
    if sum(sp.shape[1] for sp in spaces) != m:
        spaces = []
        for lam in eigvals:
            powered = np.linalg.matrix_power(A - lam * np.eye(m), m)
            spaces.append(_null_space_cols(powered, tol * max(1.0, float(np.abs(powered).max()))))
    order = sorted(range(len(eigvals)), key=lambda i: (eigvals[i].real, eigvals[i].imag))
    return [eigvals[i] for i in order], [spaces[i] for i in order]


def reference_splitting(g, d, tol=DEFAULT_TOL):
    D, _ = liealg._derivation_matrix(g, d)
    scale = max(1.0, float(np.abs(D).max()))
    return (_null_space_cols(D, tol * scale).shape[1]
            == _null_space_cols(D @ D, tol * scale * scale).shape[1])


def _derivations():
    for (kind, n), lists in D_LISTS.items():
        g = algebra(kind, n)
        for entries in lists:
            yield g, liealg.diagonal_element(g, entries)
    h = algebra("heis", 2)
    yield h, np.array([0.0, 1.0, 0.0])  # nilpotent: ad(X) maps Y to Z
    yield h, np.array([0.0, 1.0, 1.0])


def test_liealg_null_spaces_equal_the_reference_bit_for_bit():
    nilpotent = 0
    for g, d in _derivations():
        assert np.array_equal(liealg.centralizer_basis(g, d), reference_centralizer_rows(g, d))
        # a fresh algebra, so the memo does not answer
        fresh = liealg.MatrixLieAlgebra(g.name, g.kind, g.n, g.basis, g.structure, g.cartan_indices)
        dd = liealg.spectral_split(fresh, d)
        eigvals, spaces = reference_eigenspaces(g, d)
        assert np.array_equal(dd.eigenvalues, np.array(eigvals))
        assert len(dd.eigenspaces) == len(spaces)
        assert all(np.array_equal(a, b) for a, b in zip(dd.eigenspaces, spaces))
        assert splitting_condition(g, d) == reference_splitting(g, d)
        nilpotent += not dd.diagonalizable
    assert nilpotent == 2


# ---------------------------------------------------------------------------
# pi0's commutant at central d: read from the memoized commutant of pi


def _central_cases():
    u2, u3, su3 = algebra("u", 2), algebra("u", 3), algebra("su", 3)
    for g, kind, lams, centrals, other in (
            (u2, "u", [(1, 0), (2, -1), (3, 3)], [(0.0, 0.0), (1.0, 1.0)], (1.0, 0.0)),
            (u3, "u", [(1, 0, 0), (2, 1, 0), (2, 0, -2)], [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)],
             (1.0, 1.0, 0.0)),
            (su3, "su", [(1, 0, 0), (2, 1, 0), (2, 0, -2)], [(0.0, 0.0, 0.0)], (1.0, 1.0, -2.0))):
        for lam in lams:
            for entries in centrals:
                yield (cached_irrep(kind, g.n, lam), liealg.diagonal_element(g, entries),
                       liealg.diagonal_element(g, other))
    repeated = direct_sum([cached_irrep("u", 2, lam) for lam in ((1, 0), (1, 0), (2, 0))])
    yield repeated, liealg.diagonal_element(u2, (0.0, 0.0)), liealg.diagonal_element(u2, (1.0, 0.0))


@pytest.fixture
def commutant_calls(commutant_swap):
    """Records the dimension of each call of ``commutant_basis`` that gsrep makes, for pi and for pi0."""
    calls = []

    def counting(ops, *args, _real=matcore.commutant_basis, **kwargs):
        calls.append(ops.shape[-1])
        return _real(ops, *args, **kwargs)

    with commutant_swap(counting):
        yield calls


def test_pi0_commutant_at_central_d_is_read_from_the_commutant_of_pi(commutant_calls):
    cases = list(_central_cases())
    assert len(cases) == 16
    for rep, d, other in cases:
        rep = fresh(rep)
        commutant_calls.clear()
        out = groundstate.analyze(rep, d)
        assert commutant_calls == [rep.dim]  # cold: the commutant of pi alone
        assert out.h0_dim == rep.dim and out.pi0.dim == rep.dim
        assert out.commutant_dims[1] == len(reference_commutant(list(out.pi0.dpi)))
        want = reference_analyze(rep, d)
        assert out.commutant_dims == want["commutant_dims"]
        assert (out.ground_state, out.strict) == (want["ground_state"], want["strict"])
        commutant_calls.clear()
        groundstate.analyze(rep, d)
        assert commutant_calls == []  # memo-warm: nothing is built
        h0_dim = groundstate.analyze(rep, other).h0_dim
        # non-central d: pi0's commutant is built, unless H0 is a line, where it is C
        assert len(commutant_calls) == (h0_dim >= 2)


def test_decompose_after_analyze_reads_the_memoized_commutant(commutant_calls):
    g = algebra("u", 3)
    rep = fresh(direct_sum([cached_irrep("u", 3, lam) for lam in ((2, 1, 0), (1, 0, 0), (2, 1, 0))]))
    groundstate.analyze(rep, liealg.diagonal_element(g, [2.0, 1.0, 0.0]))
    commutant_calls.clear()
    parts = irreps.decompose(rep)
    assert commutant_calls == []
    assert sorted((c.dim, m) for c, m in parts) == [(3, 1), (8, 2)]


def test_analyze_after_a_cold_decompose_builds_only_the_commutant_of_pi0(commutant_calls):
    g = algebra("u", 3)
    rep = fresh(direct_sum([cached_irrep("u", 3, lam) for lam in ((2, 1, 0), (1, 0, 0), (2, 1, 0))]))
    d = liealg.diagonal_element(g, [2.0, 1.0, 0.0])
    irreps.decompose(rep)
    assert commutant_calls == [rep.dim]
    commutant_calls.clear()
    out = groundstate.analyze(rep, d)
    assert out.h0_dim < rep.dim
    assert commutant_calls == [out.h0_dim]
    assert verdicts(out) == verdicts(groundstate.analyze(fresh(rep), d))


def _edited_irrep(index, value, lam=(1, 0)):
    """The u(2) irreducible ``lam`` with one generator replaced: no longer a homomorphism."""
    rep = cached_irrep("u", 2, lam)
    dpi = rep.dpi.copy()
    dpi[index] = value
    return Representation(rep.algebra, dpi, rep.label)


@pytest.mark.parametrize("case", ["h0-smaller", "g0-smaller"])
def test_pi0_commutant_is_built_unless_g0_is_g_and_h0_is_the_whole_space(case, commutant_calls):
    g = algebra("u", 2)
    c0, c1 = g.cartan_indices
    if case == "h0-smaller":
        # d central, so g0 = g, but dpi(d) = i diag(1, 1, 4) is not scalar: H0 is a plane
        rep = _edited_irrep(c0, 1j * np.diag([1.0, 0.0, 2.0]), lam=(2, 0))
        d, want = (1.0, 1.0), ((1, 1, 4), 2, True, True)
    else:
        # dpi vanishes on the torus, so H = 0 is H0, but d = (1, 0) is regular: g0 is the torus,
        # on which pi0 is zero with the whole 2 x 2 matrices as its commutant
        rep = _edited_irrep([c0, c1], 0.0)
        d, want = (1.0, 0.0), ((1, 4, 4), 2, True, False)
    d = liealg.diagonal_element(g, d)
    fix = liealg.fixed_point_data(g, d)
    assert (fix.rows.shape[0] == g.dim) == (case == "h0-smaller")
    groundstate.analyze(rep, d)
    commutant_calls.clear()
    out = groundstate.analyze(rep, d)
    assert commutant_calls == [out.h0_dim]  # the commutant path was taken
    assert (out.commutant_dims, out.h0_dim, out.ground_state, out.strict) == want


def test_a_warm_analyze_assembles_no_commutant_basis(monkeypatch):
    # at this d, H0 is smaller than H, so pi0's commutant is formed; only its rank is read
    g = algebra("u", 3)
    rep = fresh(cached_irrep("u", 3, (2, 1, 0)))
    d = liealg.diagonal_element(g, [1.0, 1.0, 0.0])
    want = groundstate.analyze(rep, d)
    assert want.h0_dim < rep.dim

    def no_basis(*args, **kwargs):
        raise AssertionError("a commutant basis was assembled")

    monkeypatch.setattr(matcore, "commutant_basis", no_basis)
    monkeypatch.setattr(irreps, "commutant_basis", no_basis)
    monkeypatch.setattr(groundstate, "commutant_basis", no_basis, raising=False)
    assert groundstate.analyze(rep, d).commutant_dims == want.commutant_dims


def test_analyze_and_cone_on_the_irreducible_sweep_run_no_eigh(lapack_calls):
    # on the Gelfand-Tsetlin weight basis H, the torus seeds and H0 are diagonal or identity
    # columns, so neither a cold nor a warm call reaches eigh
    reps = {}
    for rep, d in sweep_cases():
        rep = reps.setdefault(id(rep), fresh(rep))
        g = rep.algebra
        for _ in ("cold", "warm"):
            out = groundstate.analyze(rep, d)
            assert cones.check_cone_positivity(g, liealg.spectral_split(g, d), out.pi0).verdict
    assert len(reps) == 65 and lapack_calls["eigh"] == 0
