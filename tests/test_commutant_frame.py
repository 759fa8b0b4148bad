"""Torus-seeded commutants in the seed's eigenframe, and the per-algebra and per-representation memos.

``reference_commutant`` is the generic-seed commutant with dense imposition
that ``matcore.commutant_basis`` computed before the eigenframe, kept here
as the reference, on the kernel's (k, d, d) input.  ``analyze`` run with it
in place of ``commutant_basis`` must give the same verdicts as ``analyze``
itself.
"""

import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsrep import cones, groundstate, irreps, liealg, matcore
from gsrep.matcore import DEFAULT_TOL, GENERIC_SEED, SEED_CLUSTER_TOL, _null_rows, cluster_values

from conftest import (D_LISTS, algebra, cached_irrep, dominant_box, fresh, random_unitary, rng,
                      su_dominant_box)
from oracles import algebra_closure, full_operator_space, is_star_closed, same_span


def _reference_seed(mats, tol):
    coeffs = np.random.default_rng(GENERIC_SEED).normal(size=len(mats))
    X = np.einsum("k,kij->ij", coeffs.astype(complex), np.stack(mats))
    d = X.shape[0]
    scale = max(np.linalg.norm(X), 1.0)
    H = None
    if np.linalg.norm(X - X.conj().T) <= tol * scale:
        H = (X + X.conj().T) / 2.0
    elif np.linalg.norm(X + X.conj().T) <= tol * scale:
        H = (-1j * X + (-1j * X).conj().T) / 2.0
    if H is not None:
        w, u = np.linalg.eigh(H)
        window = SEED_CLUSTER_TOL * max(1.0, float(np.abs(w).max()))
        rows = []
        for grp in cluster_values(w, window):
            cols = u[:, grp]
            k = len(grp)
            rows.append(np.einsum("ia,jb->abij", cols, cols.conj()).reshape(k * k, d * d))
        return np.concatenate(rows)
    eye = np.eye(d, dtype=complex)
    L = np.kron(eye, X.T) - np.kron(X, eye)
    return _null_rows(L, tol)


def reference_commutant(ops, tol=DEFAULT_TOL, seed_rows=None):
    """The generic seed and one dense imposition per input of a (k, d, d) stack; ``seed_rows`` is ignored."""
    mats = np.asarray(ops, dtype=complex)
    d = mats.shape[-1]
    if not len(mats):
        return full_operator_space(d)
    q = _reference_seed(mats, tol)
    for A in mats:
        if q.shape[0] == 0:
            break
        basis = q.reshape(-1, d, d)
        comms = (basis @ A - A @ basis).reshape(q.shape[0], -1)
        if np.linalg.norm(comms) <= tol:
            continue
        q = _null_rows(comms.T, tol) @ q
    return matcore.OperatorSubspace(d, q.reshape(-1, d, d))


def verdicts(out):
    return out.commutant_dims, out.h0_dim, out.strict, out.ground_state


def assert_same_verdicts(commutant_swap, cases):
    """``cases`` are (rep, d) pairs; analyze agrees with its reference-commutant run.

    The reference run takes fresh representations, so that no memoized
    commutant of pi stands in for the reference one.
    """
    got = [verdicts(groundstate.analyze(rep, d)) for rep, d in cases]
    with commutant_swap(reference_commutant):
        want = [verdicts(groundstate.analyze(fresh(rep), d)) for rep, d in cases]
    mismatches = [(k, a, b) for k, (a, b) in enumerate(zip(got, want)) if a != b]
    assert not mismatches, mismatches[:5]
    return got


def sweep_cases():
    for kind, n in (("u", 2), ("u", 3), ("su", 3)):
        box = dominant_box(n, -2, 2) if kind == "u" else su_dominant_box(n, -2, 2)
        g = algebra(kind, n)
        for lam in box:
            for entries in D_LISTS[(kind, n)]:
                yield cached_irrep(kind, n, lam), liealg.diagonal_element(g, entries)


REDUCIBLE_SUMS = [
    ((2, 0), (1, 0)),
    ((1, 0), (1, 0)),
    ((3, 0), (1, -1), (1, -1)),
    ((2, 1), (0, 0), (1, 0)),
    ((3, 1, 0), (2, 1, 0)),
    ((1, 0, 0), (1, 0, 0), (0, 0, -1)),
    ((2, 0, 0), (1, 1, 0)),
    ((2, 1, 0), (2, 1, 0)),
    ((1, 0, 0), (2, 1, 0)),
]
REDUCIBLE_D = {
    2: [(2.0, 1.0), (1.0, 0.0), (0.0, 0.0)],
    3: [(2.0, 1.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0)],
}


def reducible_cases():
    for summands in REDUCIBLE_SUMS:
        n = len(summands[0])
        g = algebra("u", n)
        rep = irreps.direct_sum([cached_irrep("u", n, lam) for lam in summands])
        for entries in REDUCIBLE_D[n]:
            yield rep, liealg.diagonal_element(g, entries)
    h = liealg.build_algebra("heis", 2)
    dpi = np.zeros((3, 2, 2), dtype=complex)
    dpi[2] = 1j * np.diag([1.0, 2.0])
    yield irreps.Representation(h, dpi), np.array([0.0, 1.0, 0.0])


def test_sweep_fixtures_match_reference(commutant_swap):
    cases = list(sweep_cases())
    assert len(cases) == 390
    got = assert_same_verdicts(commutant_swap, cases)
    assert all(dims[:2] == (1, 1) and strict and ground for dims, _, strict, ground in got)


def test_reducible_cases_match_reference(commutant_swap):
    cases = list(reducible_cases())
    assert len(cases) == 28
    got = assert_same_verdicts(commutant_swap, cases)
    # dim pi(G)' is the sum of squared multiplicities; the Heisenberg pair is two blocks
    want = [sum(c * c for c in Counter(summands).values())
            for summands in REDUCIBLE_SUMS for _ in range(3)] + [2]
    assert [dims[0] for dims, *_ in got] == want


def test_non_diagonal_generator_matches_reference(commutant_swap):
    g = algebra("u", 3)
    gen = rng(5)
    reps = [cached_irrep("u", 3, (2, 1, 0)), cached_irrep("u", 3, (2, 0, -2)),
            irreps.direct_sum([cached_irrep("u", 3, (1, 0, 0)), cached_irrep("u", 3, (2, 1, 0))])]
    cases = [(rep, gen.normal(size=g.dim)) for rep in reps for _ in range(2)]
    assert_same_verdicts(commutant_swap, cases)


def test_random_basis_change_of_dpi(commutant_swap):
    g = algebra("u", 3)
    cases = []
    for rep in (cached_irrep("u", 3, (2, 1, 0)),
                irreps.direct_sum([cached_irrep("u", 3, (1, 0, 0))] * 2
                                  + [cached_irrep("u", 3, (1, 1, 0))])):
        U = random_unitary(rep.dim, rng(rep.dim))
        moved = irreps.Representation(g, U @ rep.dpi @ U.conj().T)
        for entries in D_LISTS[("u", 3)][:4]:
            d = liealg.diagonal_element(g, entries)
            assert verdicts(groundstate.analyze(moved, d)) == verdicts(groundstate.analyze(rep, d))
            cases.append((moved, d))
    assert_same_verdicts(commutant_swap, cases)


def _permuted(g, perm):
    """g with its basis reordered by ``perm``; the Cartan indices follow."""
    inv = np.argsort(perm)
    c = g.structure[perm][:, perm][:, :, perm]
    return liealg.MatrixLieAlgebra(g.name, g.kind, g.n, g.basis[perm], c,
                                   tuple(int(inv[k]) for k in g.cartan_indices))


def test_generator_permutation(commutant_swap):
    g = algebra("u", 3)
    perm = np.array([4, 8, 0, 6, 2, 7, 1, 3, 5])
    gp = _permuted(g, perm)
    cases = []
    for lam in ((2, 1, 0), (1, 1, 0), (2, 0, -2)):
        rep = cached_irrep("u", 3, lam)
        moved = irreps.Representation(gp, rep.dpi[perm])
        for entries in D_LISTS[("u", 3)]:
            d = liealg.diagonal_element(g, entries)
            assert (verdicts(groundstate.analyze(moved, d[perm]))
                    == verdicts(groundstate.analyze(rep, d)))
            cases.append((moved, d[perm]))
    assert_same_verdicts(commutant_swap, cases)


@st.composite
def moved_sums(draw):
    """A u(2)/u(3) direct sum of dimension <= 16, a D_LISTS generator, a unitary and a permutation."""
    n = draw(st.sampled_from([2, 3]))
    small = [lam for lam in dominant_box(n, -2, 2) if irreps.weyl_dim(lam) <= 16]
    summands = draw(st.lists(st.sampled_from(small), min_size=1, max_size=3))
    while sum(map(irreps.weyl_dim, summands)) > 16:
        summands.pop()
    entries = draw(st.sampled_from(D_LISTS[("u", n)]))
    gen = rng(draw(st.integers(0, 2**16)))
    rep = irreps.direct_sum([cached_irrep("u", n, lam) for lam in summands])
    return rep, entries, random_unitary(rep.dim, gen), gen.permutation(n * n)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(moved_sums())
def test_verdicts_are_invariant_under_basis_change_and_generator_permutation(case):
    rep, entries, U, perm = case
    g = rep.algebra
    d = liealg.diagonal_element(g, entries)
    want = groundstate.analyze(fresh(rep), d)
    for moved, dm in ((irreps.Representation(g, U @ rep.dpi @ U.conj().T), d),
                      (irreps.Representation(_permuted(g, perm), rep.dpi[perm]), d[perm])):
        got = groundstate.analyze(moved, dm)
        assert (got.h0_dim, got.ground_state, got.strict, got.commutant_dims) == (
            want.h0_dim, want.ground_state, want.strict, want.commutant_dims)
        assert abs(got.m - want.m) <= 1e-9


def _op_sets():
    g = algebra("u", 3)
    rep = cached_irrep("u", 3, (2, 1, 0))
    reducible = irreps.direct_sum([cached_irrep("u", 3, (1, 0, 0))] * 2
                                  + [cached_irrep("u", 3, (1, 1, 0))])
    U = random_unitary(reducible.dim, rng(3))
    N = np.diag(np.ones(3), 1).astype(complex)
    return [list(rep.dpi), list(reducible.dpi), list(U @ reducible.dpi @ U.conj().T),
            list(algebra("su", 2).basis), [N, 2.0 * N @ N], [np.eye(4, dtype=complex)],
            list(g.basis)]


@pytest.mark.parametrize("k", range(7))
def test_arbitrary_seed_rows_give_reference_commutant(k):
    ops = _op_sets()[k]
    want = reference_commutant(ops)
    gen = rng(k)
    m = len(ops)
    for rows in (None, np.eye(m)[:1], gen.normal(size=(1, m)), gen.normal(size=(3, m)),
                 np.zeros((2, m)), np.eye(m)):
        got = matcore.commutant_basis(ops, seed_rows=rows)
        assert got.rank == want.rank
        assert same_span(got, want, 1e-8)
        gram = got.basis.reshape(got.rank, -1).conj() @ got.basis.reshape(got.rank, -1).T
        assert np.allclose(gram, np.eye(got.rank), atol=1e-10)


def test_seed_rows_of_the_wrong_width_are_rejected():
    from gsrep.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        matcore.commutant_basis(list(algebra("su", 2).basis), seed_rows=np.eye(2))


@pytest.mark.parametrize("rows", [np.eye(2), np.ones(3), np.zeros((1, 2, 3))])
def test_seed_rows_of_the_wrong_shape_are_rejected_at_dimension_one(rows):
    from gsrep.errors import DimensionMismatch

    ops = [1j * np.ones((1, 1)), 2j * np.ones((1, 1)), np.zeros((1, 1))]
    with pytest.raises(DimensionMismatch):
        matcore.commutant_basis(ops, seed_rows=rows)


def test_dimension_one_commutant_is_the_scalars_without_a_seed(monkeypatch):
    def no_seed(*args):
        raise AssertionError("a 1 x 1 commutant built a seed frame")

    monkeypatch.setattr(matcore, "_seed_frame", no_seed)
    for ops, rows in (([1j * np.ones((1, 1))], None), ([np.zeros((1, 1))] * 3, np.eye(3)[:2])):
        comm = matcore.commutant_basis(ops, seed_rows=rows)
        assert np.array_equal(comm.basis, np.ones((1, 1, 1), dtype=complex))
        assert algebra_closure(comm).rank == comm.rank and is_star_closed(comm)


def test_scalar_input_leaves_the_whole_matrix_algebra():
    # a scalar with a complex phase is normal: one cluster, nothing imposed
    comm = matcore.commutant_basis([np.exp(0.3j) * np.eye(5)])
    assert comm.rank == 25
    assert same_span(comm, full_operator_space(5), 1e-10)


def test_normal_mixed_seed_separates_joint_eigenspaces():
    # neither Hermitian nor anti-Hermitian, but normal: eigenvalues 1, i, i
    U = random_unitary(3, rng(1))
    X = U @ np.diag([1.0, 1j, 1j]) @ U.conj().T
    comm = matcore.commutant_basis([X])
    assert comm.rank == 1 + 4
    for B in comm.basis:
        assert np.linalg.norm(B @ X - X @ B) < 1e-10


def _frozen_arrays(g, d):
    dd = liealg.spectral_split(g, d)
    fix = liealg.fixed_point_data(g, d)
    stack, _, _ = cones._cone_stack(g, dd, 32, 0)
    return ([dd.element, dd.derivation, dd.eigenvalues, *dd.eigenspaces, fix.rows,
             fix.algebra.basis, fix.algebra.structure, fix.torus_rows, stack])


@pytest.mark.parametrize("kind,entries", [("u", (2.0, 1.0, 0.0)), ("u", (1.0, 0.0, 0.0)),
                                          ("su", (1.0, 0.0, -1.0))])
def test_memoized_alpha_data_is_read_only_and_fresh(kind, entries):
    g = liealg.build_algebra(kind, 3)
    d = liealg.diagonal_element(g, entries)
    first = _frozen_arrays(g, d)
    again = _frozen_arrays(g, d)
    assert all(a is b for a, b in zip(first, again))
    for arr in first:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0
    fresh = _frozen_arrays(liealg.build_algebra(kind, 3), d.copy())
    assert all(np.array_equal(a, b) for a, b in zip(first, fresh))


def test_memo_keys_on_value_dtype_and_tolerances():
    g = liealg.build_algebra("u", 2)
    d = liealg.diagonal_element(g, [2.0, 1.0])
    dd = liealg.spectral_split(g, d)
    d[0] = 5.0  # the memo holds its own copy of d
    assert dd.element[0] == 2.0
    assert liealg.spectral_split(g, d) is not dd
    assert liealg.spectral_split(g, [2.0, 1.0, 0.0, 0.0]) is dd  # list input, same bytes as float
    assert liealg.spectral_split(g, [2.0, 1.0, 0.0, 0.0], cluster_tol=1e-6) is not dd
    assert (liealg.fixed_point_data(g, [2.0, 1.0, 0.0, 0.0])
            is not liealg.fixed_point_data(g, [2.0, 1.0, 0.0, 0.0], tol=1e-7))


def test_cone_memo_follows_the_split_it_was_built_from():
    g = liealg.build_algebra("u", 3)
    d = liealg.diagonal_element(g, [2.0, 1.0, 0.0])
    dd = liealg.spectral_split(g, d)
    coarse = liealg.spectral_split(g, d, cluster_tol=1e-6)
    stack, prov, _ = cones._cone_stack(g, dd, 32, 0)
    assert cones._cone_stack(g, dd, 32, 0)[0] is stack
    assert cones._cone_stack(g, coarse, 32, 0)[0] is not stack
    cone = cones.action_cone_generators(g, dd)
    assert np.array_equal(stack[:cone.size], cone.generators)
    assert prov[:cone.size] == tuple(cone.provenance)


def report_fields(out):
    return (out.m, out.h0_basis.tobytes(), out.central_shifts, out.commutant_dims, out.window,
            out.ground_state, out.strict, out.pi0.dpi.tobytes())


def test_memo_warm_analyze_is_bit_equal_to_a_cold_one():
    cases = list(sweep_cases()) + list(reducible_cases())
    warm = [report_fields(groundstate.analyze(rep, d)) for rep, d in cases]
    cold = [report_fields(groundstate.analyze(fresh(rep), d)) for rep, d in cases]
    assert warm == cold


@pytest.fixture
def commutant_builds(commutant_swap):
    """Counts the commutants of pi that are built: the ``commutant_basis`` calls of ``irreps.commutant``."""
    calls = []

    def counting(*args, _real=matcore.commutant_basis, **kwargs):
        if sys._getframe(1).f_code is irreps.commutant.__code__:
            calls.append(kwargs["tol"])
        return _real(*args, **kwargs)

    with commutant_swap(counting):
        yield calls


def test_the_commutant_of_pi_is_built_once_across_d(commutant_builds):
    g = algebra("u", 3)
    rep = fresh(cached_irrep("u", 3, (2, 1, 0)))
    for entries in D_LISTS[("u", 3)]:
        groundstate.analyze(rep, liealg.diagonal_element(g, entries))
    assert commutant_builds == [DEFAULT_TOL]


def test_dpi_is_frozen_and_the_commutant_memo_keeps_one_entry_per_tol(commutant_builds):
    g = algebra("u", 3)
    d = liealg.diagonal_element(g, [2.0, 1.0, 0.0])
    twice = irreps.direct_sum([cached_irrep("u", 3, (1, 0, 0))] * 2)
    dual = irreps.direct_sum([cached_irrep("u", 3, (1, 0, 0)), cached_irrep("u", 3, (0, 0, -1))])
    rep = fresh(twice)
    assert groundstate.analyze(rep, d).commutant_dims[0] == 4
    with pytest.raises(ValueError):
        rep.dpi[...] = dual.dpi  # edited in place
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.dpi = dual.dpi.copy()  # reassigned
    assert np.array_equal(rep.dpi, twice.dpi)
    assert groundstate.analyze(rep, d).commutant_dims[0] == 4
    assert len(rep._memo) == 1
    groundstate.analyze(rep, d, tol=1e-10)
    groundstate.analyze(rep, d)
    assert commutant_builds == [DEFAULT_TOL, 1e-10]
    assert len(rep._memo) == 2  # one entry per tol


def test_memoized_commutant_is_read_only():
    g = algebra("u", 3)
    rep = fresh(irreps.direct_sum([cached_irrep("u", 3, (1, 0, 0)), cached_irrep("u", 3, (1, 1, 0))]))
    groundstate.analyze(rep, liealg.diagonal_element(g, [2.0, 1.0, 0.0]))
    comm, blocks, mults = irreps.commutant(rep, DEFAULT_TOL)
    assert comm.rank == 2 and len(blocks) == 2 and mults == (1, 1)
    assert irreps.commutant(rep, DEFAULT_TOL)[0] is comm
    for arr in (comm.basis, *blocks):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0


def test_a_cold_irreducible_commutant_takes_no_split(monkeypatch):
    def no_split(*args, **kwargs):
        raise AssertionError("a scalar commutant consulted the isotypic split")

    monkeypatch.setattr(irreps, "isotypic_split", no_split)
    for kind, n, lam in (("u", 2, (1, 0)), ("u", 3, (2, 1, 0)), ("su", 3, (2, 1, 0))):
        comm, blocks, mults = irreps.commutant(fresh(cached_irrep(kind, n, lam)), DEFAULT_TOL)
        assert comm.rank == 1 and blocks == [] and mults == (1,)


# ---------------------------------------------------------------------------
# the diagonal seed: an index frame in place of eigh


def torus_seeded_inputs():
    """(stack, seed rows, on a weight basis) of every torus-seeded commutant analyze forms on
    small GT inputs: pi's, and pi0's where H0 is not a line.  The H0 of a sum with several
    central blocks is spanned by eigenvectors of each block, not by weight vectors."""
    irreducible = [(cached_irrep(kind, n, lam), liealg.diagonal_element(algebra(kind, n), e))
                   for kind, n, box in (("u", 2, dominant_box(2, -2, 2)), ("u", 3, dominant_box(3, -1, 1)),
                                        ("su", 3, su_dominant_box(3, 0, 2)))
                   for lam in box if irreps.weyl_dim(lam) <= 15 for e in D_LISTS[(kind, n)][:4]]
    for rep, d in irreducible + list(reducible_cases()):
        g = rep.algebra
        yield rep.dpi, None if g.cartan_indices is None else np.eye(g.dim)[list(g.cartan_indices)], True
        out = groundstate.analyze(rep, d)
        if out.h0_dim >= 2:
            yield out.pi0.dpi, liealg.fixed_point_data(g, d).torus_rows, len(irreps.commutant(rep)[1]) <= 1


def eigh_seed_frame(mats, seed_rows):
    """``matcore._seed_frame``'s eigh path, for a normal seed element: the frame and cluster sizes."""
    coeffs = matcore._draws(len(mats)) if seed_rows is None else matcore._draws(len(seed_rows)) @ seed_rows
    X = np.einsum("k,kij->ij", coeffs.astype(complex), mats)
    w, u = np.linalg.eigh((X + X.conj().T) / 2.0 - 1j * np.sqrt(0.5) * (X - X.conj().T))
    window = SEED_CLUSTER_TOL * max(1.0, -w[0], w[-1])
    return u, np.diff(np.concatenate(([0], np.flatnonzero(np.diff(w) > window) + 1, [len(w)])))


def test_diagonal_seed_frame_is_the_eigh_frame_up_to_tie_order(lapack_calls):
    read = 0
    for stack, rows, weight_basis in torus_seeded_inputs():
        before = lapack_calls["eigh"]
        u, sizes, order = matcore._seed_frame(stack, rows, DEFAULT_TOL)
        assert (lapack_calls["eigh"] == before) == (order is not None)
        if order is None:
            assert not weight_basis  # a torus seed on a weight basis is diagonal
            continue
        read += 1
        assert np.array_equal(u, np.eye(len(order)).take(order, axis=1))
        u_eigh, sizes_eigh = eigh_seed_frame(stack, rows)
        assert sizes == tuple(sizes_eigh)
        assert np.array_equal(np.abs(u_eigh) > 0, np.abs(u_eigh) == 1)  # identity columns up to phase
        bounds = np.cumsum((0,) + sizes)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            assert set(np.abs(u_eigh[:, lo:hi]).argmax(axis=0)) == set(order[lo:hi])
    assert read >= 200


def test_diagonal_seed_commutant_rank_is_the_reference_rank():
    for stack, rows, _ in torus_seeded_inputs():
        assert matcore._commutant_coefficients(stack, seed_rows=rows).rank == reference_commutant(list(stack)).rank
