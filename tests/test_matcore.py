import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsrep import matcore
from gsrep.errors import DimensionMismatch, NotHermitian
from gsrep.matcore import DEFAULT_TOL

from conftest import algebra, random_hermitian, random_unitary, rng
from oracles import algebra_closure, center_basis, contains, is_star_closed, same_span
from test_commutant_frame import reference_commutant


def test_eig_diagonal_input():
    w, v = matcore.eig_frame(np.diag([1.0, 0.0, 0.0]).astype(complex))[:2]
    assert np.allclose(w, [0.0, 0.0, 1.0])
    assert np.allclose(v @ np.diag(w) @ v.conj().T, np.diag([1, 0, 0]))


def test_eig_zero_matrix():
    w, v = matcore.eig_frame(np.zeros((2, 2), dtype=complex))[:2]
    assert np.allclose(w, [0.0, 0.0])
    assert np.allclose(v.conj().T @ v, np.eye(2))


def test_eig_offdiagonal_closed_form():
    # characteristic polynomial of [[0,1],[1,0]] is x^2 - 1
    H = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    w, v = matcore.eig_frame(H)[:2]
    assert np.allclose(w, [-1.0, 1.0])
    s = 1 / np.sqrt(2)
    for col, expected in zip(v.T, [np.array([s, -s]), np.array([s, s])]):
        phase = col[np.argmax(np.abs(col))] / expected[np.argmax(np.abs(col))]
        assert np.allclose(col, phase * expected, atol=1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        matcore.eig_frame(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("n", [2, 8, 33, 64])
def test_eig_reconstruction_error(n):
    H = random_hermitian(n, rng(n))
    w, v = matcore.eig_frame(H)[:2]
    assert np.linalg.norm(H - v @ np.diag(w) @ v.conj().T) <= 1e-10 * np.linalg.norm(H)
    assert np.all(np.diff(w) >= -1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_eig_of_an_exact_diagonal_is_lapacks_spectrum_and_a_permutation(monkeypatch, seed):
    gen = rng(seed)
    n = int(gen.integers(1, 12))
    values = gen.integers(-3, 4, size=n).astype(float)  # ties at most sizes
    values[gen.random(n) < 0.3] *= 0.5 + gen.random()
    H = np.diag(values + 0j)
    if seed % 2:
        H[np.diag_indices(n)] += 1e-12j  # within the Hermiticity tolerance
    want = np.linalg.eigh(np.diag(values))[0]

    def no_solver(*args, **kwargs):
        raise AssertionError("an exactly diagonal input reached LAPACK")

    monkeypatch.setattr(np.linalg, "eigh", no_solver)
    w, v = matcore.eig_frame(H)[:2]
    assert w.dtype == float and w.tobytes() == want.tobytes()
    assert set(np.unique(v)) <= {0.0, 1.0} and np.array_equal(v.sum(axis=0), np.ones(n))
    assert np.array_equal(v.sum(axis=1), np.ones(n))
    assert np.array_equal(v @ np.diag(w) @ v.conj().T, np.diag(values))
    index = v.argmax(axis=0)  # the basis vector in each column
    for value in set(values):
        ties = index[w == value]
        assert np.array_equal(ties, np.sort(ties))


@pytest.mark.parametrize("factor,raises", [(1.001, True), (0.999, False)])
def test_eig_of_a_diagonal_decides_hermiticity_at_the_dense_threshold(factor, raises):
    # deviation ||H - H^*|| = 2 |t| against tol * max(||H||, 1), ||H|| = 5 + O(t^2)
    tol = 1e-8
    t = factor * tol * 5.0 / 2.0
    for H in (np.diag([3.0 + 1j * t, 4.0]), np.array([[3.0 + 1j * t, 1e-300], [1e-300, 4.0]])):
        if raises:
            with pytest.raises(NotHermitian):
                matcore.eig_frame(H, tol)
        else:
            assert np.array_equal(matcore.eig_frame(H, tol)[0], [3.0, 4.0])


def test_eig_of_the_zero_matrix_and_of_1x1_inputs_is_exact():
    for n in (0, 1, 3):
        w, v = matcore.eig_frame(np.zeros((n, n)))[:2]
        assert np.array_equal(w, np.zeros(n)) and np.array_equal(v, np.eye(n))
    for x in (-2.5, 0.0, 7.0):
        w, v = matcore.eig_frame(np.array([[x]]))[:2]
        assert np.array_equal(w, [x]) and np.array_equal(v, [[1.0]])
    with pytest.raises(NotHermitian):
        matcore.eig_frame(np.array([[1.0 + 1e-3j]]))


def test_commutant_of_irreducible_is_scalar():
    su2 = algebra("su", 2)
    sub = matcore.commutant_basis(list(su2.basis))
    assert sub.rank == 1
    assert algebra_closure(sub).rank == sub.rank and is_star_closed(sub)


def test_commutant_of_diagonal_matrix():
    # [X, diag(1,2)] = 0 forces X diagonal: dimension 2
    sub = matcore.commutant_basis([np.diag([1.0, 2.0]).astype(complex)])
    assert sub.rank == 2
    for b in sub.basis:
        assert np.linalg.norm(b - np.diag(np.diag(b))) < 1e-10


def test_commutant_of_empty_set_is_everything():
    sub = matcore.commutant_basis(np.zeros((0, 2, 2)))
    assert sub.rank == 4


def test_empty_array_takes_its_dimension_from_its_shape():
    assert matcore.commutant_basis(np.zeros((0, 2, 2))).rank == 4
    assert matcore._commutant_coefficients(np.zeros((0, 2, 2))).rank == 4
    assert matcore._commutant_coefficients(np.ones((3, 1, 1))).rank == 1
    assert matcore.span_basis(np.zeros((0, 2, 2))).shape == (0, 2, 2)
    empty = matcore.compress(np.eye(3, dtype=complex)[:, :2], matcore.OperatorSubspace(3, np.zeros((0, 3, 3))))
    assert empty.dim == 2 and empty.basis.shape == (0, 2, 2)


@pytest.mark.parametrize("shape", [(2, 2), (3, 2, 3), (1, 2, 2, 2)])
def test_commutant_rejects_a_stack_of_non_square_matrices(shape):
    with pytest.raises(DimensionMismatch):
        matcore.commutant_basis(np.zeros(shape))


@st.composite
def kernel_inputs(draw):
    """Inputs of dimension 2-6 that share the blocks of one cluster pattern, and seed rows.

    The first input is Hermitian with clusters of the drawn sizes, so the
    seed rows that pick it give the kernel that cluster-size tuple; the
    others are Hermitian, anti-Hermitian or non-normal, block diagonal
    over the clusters or not.
    """
    d = draw(st.integers(2, 6))
    k = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["hermitian", "anti-hermitian", "non-normal"]))
    cuts = sorted(draw(st.sets(st.integers(1, d - 1))))
    sizes = np.diff([0, *cuts, d])
    blocked = draw(st.booleans())
    seeding = draw(st.sampled_from(["all", "first", "random", "zero"]))
    gen = rng(draw(st.integers(0, 2**16)))
    U = random_unitary(d, gen)
    labels = np.repeat(np.arange(sizes.size), sizes)
    ops = [U @ np.diag(labels.astype(complex)) @ U.conj().T]
    for _ in range(k - 1):
        M = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
        if blocked:
            M = M * (labels[:, None] == labels[None, :])
        M = {"hermitian": M + M.conj().T, "anti-hermitian": M - M.conj().T, "non-normal": M}[kind]
        ops.append(U @ M @ U.conj().T)
    rows = {"all": None, "first": np.eye(k)[:1], "random": gen.normal(size=(2, k)),
            "zero": np.zeros((1, k))}[seeding]
    return np.stack(ops), rows


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(kernel_inputs())
def test_kernel_takes_stacks_and_lists_alike_and_keeps_its_caches_read_only(case):
    stack, rows = case
    got = matcore.commutant_basis(stack, seed_rows=rows)
    listed = matcore.commutant_basis(list(stack), seed_rows=rows)
    assert got.basis.tobytes() == listed.basis.tobytes() and got.rank == listed.rank
    assert matcore._commutant_coefficients(stack, seed_rows=rows).rank == got.rank
    want = reference_commutant(list(stack))
    assert got.rank == want.rank
    assert same_span(got, want, 1e-8)
    _, sizes, _ = matcore._seed_frame(stack, rows, DEFAULT_TOL)
    cached = [*matcore._frame_tables(sizes), matcore._draws(stack.shape[0])]
    if rows is not None:
        cached.append(matcore._draws(rows.shape[0]))
    for arr in cached:
        with pytest.raises(ValueError):
            arr[...] = 0


def test_closure_of_identity():
    sub = algebra_closure([np.eye(2, dtype=complex)])
    assert sub.rank == 1


def test_closure_of_irreducible_action_is_full():
    su2 = algebra("su", 2)
    sub = algebra_closure(list(su2.basis), include_identity=True)
    assert sub.rank == 4


def test_closure_of_diagonal_involution():
    sub = algebra_closure([np.diag([1.0, -1.0]).astype(complex)], include_identity=True)
    assert sub.rank == 2


def test_closure_without_identity():
    nil = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sub = algebra_closure([nil], include_identity=False)
    assert sub.rank == 1  # N^2 = 0, so the non-unital algebra is the line


def test_compress_full_space_is_identity():
    su2 = algebra("su", 2)
    sub = algebra_closure(list(su2.basis), include_identity=True)
    comp = matcore.compress(np.eye(2, dtype=complex), sub)
    assert same_span(comp, sub)


def test_compress_scalars_stay_scalars():
    scalars = matcore.OperatorSubspace(3, np.eye(3, dtype=complex)[None, :, :] / np.sqrt(3))
    P = np.eye(3, dtype=complex)[:, :2]
    comp = matcore.compress(P, scalars)
    assert comp.rank == 1
    assert np.allclose(comp.basis[0], comp.basis[0][0, 0] * np.eye(2))


def test_compress_diagonals_onto_coordinate_plane():
    diags = matcore.span_basis([np.diag(e).astype(complex) for e in np.eye(3)])
    sub = matcore.OperatorSubspace(3, diags)
    P = np.eye(3, dtype=complex)[:, :2]
    comp = matcore.compress(P, sub)
    assert comp.rank == 2


def _random_ops(generator, dim, count):
    return [generator.normal(size=(dim, dim)) + 1j * generator.normal(size=(dim, dim))
            for _ in range(count)]


@pytest.mark.parametrize("seed,dim", [(1, 2), (2, 3), (3, 4)])
def test_commutant_equals_commutant_of_closure(seed, dim):
    ops = _random_ops(rng(seed), dim, 2)
    direct = matcore.commutant_basis(ops)
    closed = algebra_closure(ops, include_identity=True)
    via_closure = matcore.commutant_basis(closed.basis)
    assert same_span(direct, via_closure)


@pytest.mark.parametrize("seed,dim", [(5, 2), (6, 3), (7, 4)])
def test_double_commutant(seed, dim):
    ops = _random_ops(rng(seed), dim, 2)
    closed = algebra_closure(ops, include_identity=True)
    double = matcore.commutant_basis(matcore.commutant_basis(ops).basis)
    # closure is always contained in the double commutant
    for b in closed.basis:
        assert contains(double, b)
    # equality holds for star-closed generating sets
    star_ops = ops + [op.conj().T for op in ops]
    closed_star = algebra_closure(star_ops, include_identity=True)
    double_star = matcore.commutant_basis(matcore.commutant_basis(star_ops).basis)
    assert same_span(closed_star, double_star)


def test_commutant_of_non_normal_first_operator():
    nil = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sub = matcore.commutant_basis([nil])
    # {aI + bN}: dimension 2, not star-closed
    assert sub.rank == 2
    assert not is_star_closed(sub)


def test_compress_rejects_bad_subspace_basis():
    su2 = algebra("su", 2)
    sub = algebra_closure(list(su2.basis), include_identity=True)
    with pytest.raises(ValueError):
        matcore.compress(2.0 * np.eye(2, dtype=complex), sub)
    with pytest.raises(DimensionMismatch):
        matcore.compress(np.eye(3, dtype=complex), sub)


def _reducible_u3_ops():
    # (1,0,0) twice plus (1,1,0): commutant M_2 + C, dimension 4 + 1
    from conftest import cached_irrep
    from gsrep import irreps

    rep = irreps.direct_sum([cached_irrep("u", 3, (1, 0, 0))] * 2
                            + [cached_irrep("u", 3, (1, 1, 0))])
    return list(rep.dpi)


def test_commutant_rank_invariant_under_generator_permutation():
    ops = _reducible_u3_ops()
    ranks = {matcore.commutant_basis([ops[k] for k in perm]).rank
             for perm in (range(len(ops)), [8, 3, 0, 5, 1, 7, 2, 6, 4],
                          list(reversed(range(len(ops)))))}
    assert ranks == {5}


def test_commutant_rank_invariant_under_unitary_basis_change():
    ops = _reducible_u3_ops()
    U = random_unitary(ops[0].shape[0], rng(11))
    moved = [U @ op @ U.conj().T for op in ops]
    direct = matcore.commutant_basis(ops)
    conjugated = matcore.commutant_basis(moved)
    assert conjugated.rank == direct.rank == 5
    back = matcore.OperatorSubspace(direct.dim, U.conj().T @ conjugated.basis @ U)
    assert same_span(back, direct, 1e-8)


def test_center_of_commutant_counts_isotypic_blocks():
    comm = matcore.commutant_basis(_reducible_u3_ops())
    center = center_basis(comm)
    assert center.rank == 2
    for Z in center.basis:
        for B in comm.basis:
            assert np.linalg.norm(Z @ B - B @ Z) < 1e-10


def test_commutant_of_jordan_block_is_not_star_closed():
    # [X, N] = 0 for the 4 x 4 shift forces X = p(N): upper triangular Toeplitz
    N = np.diag(np.ones(3), 1).astype(complex)
    sub = matcore.commutant_basis([N, 2.0 * N @ N])
    assert sub.rank == 4
    assert algebra_closure(sub).rank == sub.rank
    assert not is_star_closed(sub)


def test_numerical_rank_threshold_is_relative_above_one():
    assert matcore.numerical_rank(np.array([]), 1e-9) == 0
    assert matcore.numerical_rank(np.array([1e3, 2e-6, 5e-7]), 1e-9) == 2
    assert matcore.numerical_rank(np.array([0.5, 2e-9, 5e-10]), 1e-9) == 2


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf on the eigh path
@pytest.mark.parametrize("cell,value", [((0, 0), np.nan), ((0, 0), 1j * np.nan), ((1, 1), np.inf),
                                        ((2, 2), -np.inf), ((1, 1), complex(2.0, np.inf)),
                                        ((0, 1), np.nan), ((0, 2), np.inf)])
def test_eig_frame_of_a_non_finite_matrix_raises_not_hermitian_on_both_paths(lapack_calls, cell, value):
    # a NaN fails no `>` test: it must not pass the Hermiticity test, sort into w, or reach LAPACK
    for off_diagonal in (0.0, 0.5):  # the diagonal read, then the eigh path
        H = np.diag([1.0, 2.0, 3.0]).astype(complex)
        H[1, 2] = H[2, 1] = off_diagonal
        H[cell] = value
        with pytest.raises(NotHermitian):
            matcore.eig_frame(H, 1e-8)
    assert lapack_calls["eigh"] == 0
