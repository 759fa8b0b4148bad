import itertools

import numpy as np
import pytest

from gsrep import liealg
from gsrep.errors import NotDiagonal, UnsupportedKind

from conftest import D_LISTS, algebra, rng
from oracles import is_elliptic, splitting_condition


NILPOTENT_2D = np.array([[0.0, 0.0], [1.0, 0.0]])


def abelian_plane():
    """Two commuting diagonal anti-Hermitian generators (a 2-dim abelian algebra)."""
    basis = np.stack([1j * np.diag([1.0, 0.0]), 1j * np.diag([0.0, 1.0])])
    return liealg.MatrixLieAlgebra("ab2", "custom", 2, basis, liealg.structure_constants(basis))


@pytest.mark.parametrize("kind,n,dim", [("u", 2, 4), ("u", 3, 9), ("su", 2, 3),
                                        ("su", 3, 8), ("heis", 2, 3), ("heis", 4, 5)])
def test_dimensions(kind, n, dim):
    g = algebra(kind, n)
    assert g.dim == dim


@pytest.mark.parametrize("kind,n", [("u", 2), ("u", 3), ("su", 2), ("su", 3),
                                    ("heis", 2), ("heis", 4)])
def test_structure_residuals(kind, n):
    g = algebra(kind, n)
    assert liealg.bracket_closure_residual(g) <= 1e-10
    assert liealg.jacobi_residual(g) <= 1e-10


def _full_tensor_jacobi(c):
    t = np.einsum("ijm,mkl->ijkl", c, c)
    cyc = t + np.einsum("jkm,mil->ijkl", c, c) + np.einsum("kim,mjl->ijkl", c, c)
    return float(np.abs(cyc).max())


@pytest.mark.parametrize("kind,n", [("u", 2), ("u", 3), ("su", 3), ("u", 4), ("heis", 4)])
def test_sliced_jacobi_residual_matches_full_tensor(kind, n):
    g = liealg.build_algebra(kind, n)
    assert liealg.jacobi_residual(g) == pytest.approx(_full_tensor_jacobi(g.structure),
                                                      rel=1e-12, abs=1e-15)
    # a structure tensor off by noise has a residual of its size
    g.structure = g.structure + 1e-3 * rng(n).normal(size=g.structure.shape)
    assert liealg.jacobi_residual(g) == pytest.approx(_full_tensor_jacobi(g.structure), rel=1e-12)


@pytest.mark.parametrize("residual", [liealg.bracket_closure_residual, liealg.jacobi_residual])
def test_structure_residuals_are_nan_on_one_nan_constant(residual):
    g = algebra("u", 3)
    c = g.structure.copy()
    c[3, 4, 0] = np.nan
    assert np.isnan(residual(liealg.MatrixLieAlgebra(g.name, g.kind, g.n, g.basis, c, g.cartan_indices)))


def test_build_algebra_refuses_a_nan_structure_constant(monkeypatch):
    structure_constants = liealg.structure_constants

    def one_nan(basis, tol):
        c = structure_constants(basis, tol)
        c[1, 2, 0] = np.nan
        return c

    monkeypatch.setattr(liealg, "structure_constants", one_nan)
    with pytest.raises(ValueError, match="verification failed"):
        liealg.build_algebra("u", 2)


def test_compact_bases_are_anti_hermitian():
    for kind, n in (("u", 3), ("su", 3)):
        for b in algebra(kind, n).basis:
            assert np.linalg.norm(b + b.conj().T) <= 1e-10 * max(1, np.linalg.norm(b))


def test_heis_center():
    h = algebra("heis", 2)
    # [X, Y] = Z and Z is central
    z, x, y = np.eye(3)
    assert np.allclose(h.bracket(x, y), z)
    assert np.allclose(h.ad(z), 0)


def test_unsupported_kind():
    with pytest.raises(UnsupportedKind):
        liealg.build_algebra("sp", 4)
    with pytest.raises(UnsupportedKind):
        liealg.build_algebra("heis", 3)


def test_spectral_split_u3():
    g = algebra("u", 3)
    d = liealg.diagonal_element(g, [1, 0, 0])
    dd = liealg.spectral_split(g, d)
    assert dd.diagonalizable
    assert np.allclose(dd.eigenvalues, [-1, 0, 1])
    dims = {round(l.real): sp.shape[1] for l, sp in zip(dd.eigenvalues, dd.eigenspaces)}
    assert dims == {-1: 2, 0: 5, 1: 2}


def test_spectral_split_positive_side_convention():
    # global sign convention: for d = i diag(1,0,0) the +1 eigenspace is the
    # span of the first-row matrix units E_12, E_13
    g = algebra("u", 3)
    dd = liealg.spectral_split(g, liealg.diagonal_element(g, [1, 0, 0]))
    (lam, space), = dd.positive()
    assert round(lam.real) == 1
    for k in range(space.shape[1]):
        mat = g.matrix(space[:, k])
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 1] = mask[0, 2] = True
        assert np.linalg.norm(mat[~mask]) < 1e-10


def test_spectral_split_zero_element():
    g = algebra("u", 3)
    dd = liealg.spectral_split(g, np.zeros(g.dim))
    assert len(dd.eigenvalues) == 1 and dd.eigenvalues[0] == 0
    assert dd.eigenspaces[0].shape[1] == g.dim


def test_spectral_split_heis_rotation():
    # derivation induced by the rotation of the symplectic plane: outer
    h = algebra("heis", 2)
    D = np.zeros((3, 3))
    D[2, 1], D[1, 2] = 1.0, -1.0  # X -> Y, Y -> -X, Z -> 0
    dd = liealg.spectral_split(h, D)
    assert dd.diagonalizable
    assert np.allclose(dd.eigenvalues, [-1, 0, 1])
    [(_, zero)] = dd.spaces(lambda lam: abs(lam) <= 1e-9)
    assert zero.shape[1] == 1
    assert np.allclose(np.abs(zero[:, 0]), [1, 0, 0])  # the center


def test_spectral_split_eigenvalues_are_pair_differences():
    # the adjoint eigenvalue multiset is {d_a - d_b} plus one zero per Cartan axis
    g = algebra("u", 3)
    entries = [2.0, 0.5, -1.0]
    dd = liealg.spectral_split(g, liealg.diagonal_element(g, entries))
    got = sorted(
        float(l.real)
        for l, sp in zip(dd.eigenvalues, dd.eigenspaces)
        for _ in range(sp.shape[1])
    )
    expected = sorted(
        [a - b for a, b in itertools.product(entries, repeat=2) if a != b] + [0.0] * 3
    )
    assert np.allclose(got, expected)


def test_positive_part_is_subalgebra():
    g = algebra("u", 3)
    for entries in ([1, 0, 0], [2, 1, 0], [3, 1, 1]):
        dd = liealg.spectral_split(g, liealg.diagonal_element(g, entries))
        cols = [sp[:, k] for l, sp in dd.positive() for k in range(sp.shape[1])]
        if not cols:
            continue
        span = np.stack(cols)
        for a in cols:
            for b in cols:
                br = g.bracket(a, b)
                coeff, *_ = np.linalg.lstsq(span.T, br, rcond=None)
                assert np.linalg.norm(span.T @ coeff - br) < 1e-9


def test_elliptic_on_compact_elements():
    g = algebra("u", 3)
    generator = rng(11)
    for _ in range(5):
        d = generator.normal(size=g.dim)
        assert is_elliptic(g, d)
        assert splitting_condition(g, d)


def test_elliptic_zero():
    g = algebra("u", 2)
    assert is_elliptic(g, np.zeros(g.dim))
    assert splitting_condition(g, np.zeros(g.dim))


def test_nilpotent_derivation_is_not_elliptic():
    ab = abelian_plane()
    assert is_elliptic(ab, NILPOTENT_2D) is False
    assert splitting_condition(ab, NILPOTENT_2D) is False


def test_heis_inner_derivation_fails_splitting():
    # ad(X) sends Y to Z and kills Z, so ker(D^2) is strictly larger than ker(D)
    h = algebra("heis", 2)
    x = np.array([0.0, 1.0, 0.0])
    assert splitting_condition(h, x) is False
    assert is_elliptic(h, x) is False


def test_central_element_satisfies_splitting():
    h = algebra("heis", 2)
    z = np.array([1.0, 0.0, 0.0])
    assert splitting_condition(h, z)
    assert is_elliptic(h, z)


def test_root_datum_u3_singular_top():
    g = algebra("u", 3)
    rd = liealg.root_datum(g, liealg.diagonal_element(g, [1, 0, 0]))
    pos_pairs = {rd.pairs[i] for i in rd.delta_plus_plus}
    zero_pairs = {rd.pairs[i] for i in rd.delta_zero}
    assert pos_pairs == {(0, 1), (0, 2)}
    assert zero_pairs == {(1, 2), (2, 1)}
    # chosen positive system adds the lex-smaller null root
    assert {rd.pairs[i] for i in rd.delta_plus} == {(0, 1), (0, 2), (1, 2)}


def test_root_datum_u3_singular_bottom():
    g = algebra("u", 3)
    rd = liealg.root_datum(g, liealg.diagonal_element(g, [1, 1, 0]))
    assert {rd.pairs[i] for i in rd.delta_plus_plus} == {(0, 2), (1, 2)}
    assert {rd.pairs[i] for i in rd.delta_zero} == {(0, 1), (1, 0)}


def test_root_datum_su2_regular():
    g = algebra("su", 2)
    rd = liealg.root_datum(g, liealg.diagonal_element(g, [0.5, -0.5]))
    assert {rd.pairs[i] for i in rd.delta_plus_plus} == {(0, 1)}


def test_root_pairing_normalization():
    # alpha(alpha_vee) = 2 in the integer coordinates
    g = algebra("u", 3)
    rd = liealg.root_datum(g, liealg.diagonal_element(g, [2, 1, 0]))
    for idx, (i, j) in enumerate(rd.pairs):
        root = np.eye(3, dtype=int)[i] - np.eye(3, dtype=int)[j]
        assert int(root @ root) == 2
        # the coroot element is i(E_ii - E_jj)
        mat = g.matrix(rd.coroots[idx])
        expected = np.zeros((3, 3), dtype=complex)
        expected[i, i], expected[j, j] = 1j, -1j
        assert np.allclose(mat, expected)


def test_root_vectors_match_eigenvalue():
    g = algebra("u", 3)
    d = liealg.diagonal_element(g, [2, 1, 0])
    rd = liealg.root_datum(g, d)
    dvec = np.diag(-1j * g.matrix(d)).real
    for idx, (i, j) in enumerate(rd.pairs):
        z = rd.root_vectors[idx]
        br = g.bracket(d, z)
        lam = dvec[i] - dvec[j]
        assert np.allclose(br, 1j * lam * z)


def test_root_datum_rejects_offdiagonal():
    g = algebra("u", 2)
    x = np.zeros(g.dim)
    x[2] = 1.0  # E_12 - E_21 direction
    with pytest.raises(NotDiagonal):
        liealg.root_datum(g, x)


def test_spectral_subspace_examples():
    A = np.diag([1.0, 0.0, 0.0]).astype(complex)
    sub = liealg.spectral_subspace(A, 0.0)
    assert sub.shape == (3, 2)
    proj = sub @ sub.conj().T
    assert np.allclose(proj, np.diag([0, 1, 1]))
    full = liealg.spectral_subspace(A, [(-np.inf, np.inf)])
    assert full.shape == (3, 3)
    empty = liealg.spectral_subspace(A, [])
    assert empty.shape == (3, 0)


def test_spectral_subspace_halfline():
    g = algebra("u", 3)
    d = liealg.diagonal_element(g, [1, 0, 0])
    H = -1j * np.einsum("i,ijk->jk", d.astype(complex), g.basis)  # defining rep
    sub = liealg.spectral_subspace(H, (0.5, np.inf))
    assert sub.shape == (3, 1)
    assert np.allclose(np.abs(sub[:, 0]), [1, 0, 0])


def test_spectral_subspace_of_derivation_data():
    g = algebra("u", 3)
    dd = liealg.spectral_split(g, liealg.diagonal_element(g, [1, 0, 0]))
    plus = liealg.spectral_subspace(dd, (0.5, np.inf))
    assert plus.shape == (g.dim, 2)
    nothing = liealg.spectral_subspace(dd, [])
    assert nothing.shape == (g.dim, 0)


def test_centralizer_basis_u3():
    g = algebra("u", 3)
    rows = liealg.centralizer_basis(g, liealg.diagonal_element(g, [1, 0, 0]))
    assert rows.shape[0] == 5  # u(1) + u(2)
    sub = liealg.subalgebra(g, rows)
    assert liealg.bracket_closure_residual(sub) <= 1e-9


@pytest.mark.parametrize("kind,n", sorted(D_LISTS))
def test_subalgebra_structure_matches_matrix_brackets(kind, n):
    # the tensor taken from the parent's equals the one computed from the
    # bracket matrices, on every centralizer of the sweep generators
    g = algebra(kind, n)
    for entries in D_LISTS[(kind, n)]:
        rows = liealg.centralizer_basis(g, liealg.diagonal_element(g, entries))
        sub = liealg.subalgebra(g, rows)
        want = liealg.structure_constants(sub.basis)
        assert np.abs(sub.structure - want).max() <= 1e-12


def test_subalgebra_rejects_rows_not_closed_under_bracket():
    # two off-diagonal basis rows of u(3): their bracket is diagonal
    g = algebra("u", 3)
    rows = np.eye(g.dim)[[3, 4]]
    with pytest.raises(ValueError, match="leaves the span"):
        liealg.subalgebra(g, rows)
