import math

import numpy as np
import pytest
from scipy.linalg import expm

from gsrep import heisenfock as hf
from gsrep import irreps
from gsrep.errors import (ConvergenceFailure, DimensionMismatch, NotDiagonal, NotHermitian, NotPSD,
                          SectorOutOfRange, SplitInvalid)

from conftest import algebra, rng
from oracles import occupation_table, rotation_generator, total_number


def character_pair_rep(a=(0.3, -0.5), b=(1.0, 0.25)):
    """Two characters of the commuting translation pair (the center acts by 0)."""
    h = algebra("heis", 2)
    dpi = np.zeros((3, 2, 2), dtype=complex)
    dpi[1] = 1j * np.diag(a)
    dpi[2] = 1j * np.diag(b)
    return irreps.Representation(h, dpi)


def test_truncation_dimension_and_index():
    ft = hf.FockTruncation(2, 4)
    assert ft.dim == math.comb(4 + 2, 2)
    for i, occ in enumerate(ft.occupations):
        assert ft.index[tuple(occ)] == i
    assert ft.occupations.sum(axis=1).max() == 4


def test_occupation_table_keeps_the_order_of_the_recursive_enumeration():
    for k in range(7):
        for n in range(9):
            got = hf._occupation_table(k, n)
            assert got.dtype == occupation_table(k, n).dtype
            assert np.array_equal(got, occupation_table(k, n)), (k, n)


def test_occupation_table_of_many_modes_needs_no_recursion():
    # the recursive enumeration passed Python's recursion limit near 1,000 modes
    got = hf._occupation_table(1100, 1)
    assert np.array_equal(got, np.vstack([np.zeros((1, 1100), dtype=int), np.eye(1100, dtype=int)[::-1]]))


def test_zero_mode_truncation():
    ft = hf.FockTruncation(0, 0)
    assert ft.dim == 1
    assert np.allclose(ft.vacuum(), [1.0])


def annihilation_reference(ft, mode):
    """a_mode filled entry by entry from the occupation table."""
    a = np.zeros((ft.dim, ft.dim), dtype=complex)
    for i, occ in enumerate(ft.occupations):
        if occ[mode]:
            lowered = list(occ)
            lowered[mode] -= 1
            a[ft.index[tuple(lowered)], i] = math.sqrt(occ[mode])
    return a


def displacement_reference(ft, x):
    """scipy's Pade exponential of a^+(x) - a(x)."""
    gen = sum(xj * annihilation_reference(ft, j).T - np.conj(xj) * annihilation_reference(ft, j)
              for j, xj in enumerate(x))
    return expm(gen)


TRUNCATIONS = [(1, 40), (2, 8), (3, 5), (2, 24), (3, 10)]


@pytest.mark.parametrize("modes,cutoff", TRUNCATIONS)
def test_annihilation_matches_reference(modes, cutoff):
    ft = hf.FockTruncation(modes, cutoff)
    for j in range(modes):
        assert np.array_equal(ft.annihilation(j), annihilation_reference(ft, j))


@pytest.mark.parametrize("modes,cutoff", TRUNCATIONS)
def test_exponentials_match_pade(modes, cutoff):
    ft = hf.FockTruncation(modes, cutoff)
    generator = rng(modes)
    x = generator.normal(size=modes) + 1j * generator.normal(size=modes)
    x /= np.linalg.norm(x)
    assert np.abs(hf.displacement_op(ft, x) - displacement_reference(ft, x)).max() <= 1e-12
    v = 2.0 * x
    want = displacement_reference(ft, 1j * v / math.sqrt(2.0))
    assert np.abs(hf.weyl_op(ft, v) - want).max() <= 1e-12


@pytest.mark.parametrize("modes,cutoff,x", [
    (2, 8, [0.0, 0.0]),
    (2, 8, [0.0, 0.7 - 0.2j]),
    (3, 5, [0.3j, -0.5j, 0.2j]),
    (2, 8, [6e-13 + 2e-13j, -7e-13j]),
    (1, 12, [-0.9 + 0.4j]),
])
def test_displacement_edge_amplitudes_match_pade(modes, cutoff, x):
    ft = hf.FockTruncation(modes, cutoff)
    assert np.abs(hf.displacement_op(ft, x) - displacement_reference(ft, x)).max() <= 1e-12


def test_weyl_on_zero_modes_is_scalar_one():
    ft = hf.FockTruncation(0, 3)
    assert np.array_equal(hf.weyl_op(ft, []), np.ones((1, 1)))
    assert hf.weyl_vacuum_overlap(ft, []) == pytest.approx(1.0, abs=1e-15)
    assert hf.weyl_relation_residual(ft, [], [], 0) <= 1e-15


@pytest.mark.parametrize("modes,cutoff", [(2, 24), (3, 16)])
def test_weyl_operators_are_unitary_across_modes(modes, cutoff):
    ft = hf.FockTruncation(modes, cutoff)
    x = rng(cutoff).normal(size=modes) + 1j * rng(cutoff + 1).normal(size=modes)
    W = hf.weyl_op(ft, 1.5 * x / np.linalg.norm(x))
    assert np.abs(W @ W.conj().T - np.eye(ft.dim)).max() <= 1e-12


def test_weyl_op_runs_no_dimension_sized_eigh(monkeypatch):
    # the dense path diagonalised the whole d x d generator; the rotation
    # path diagonalises at most one number sector or one mode at a time
    ft = hf.FockTruncation(2, 24)
    sizes = []

    def recording(a, *args, _real=np.linalg.eigh, **kwargs):
        sizes.append(np.shape(a)[-1])
        return _real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    hf.weyl_op(ft, [0.4 - 0.3j, 0.2 + 0.6j])
    assert sizes and max(sizes) <= ft.cutoff + 1 < ft.dim


@pytest.mark.parametrize("modes,cutoff", [(2, 8), (3, 5)])
def test_vacuum_overlap_matches_weyl_operator(modes, cutoff):
    ft = hf.FockTruncation(modes, cutoff)
    vac = ft.vacuum()
    generator = rng(modes + cutoff)
    for scale in (0.0, 0.4, 1.3):
        v = generator.normal(size=modes) + 1j * generator.normal(size=modes)
        v *= scale / np.linalg.norm(v)
        want = vac.conj() @ hf.weyl_op(ft, v) @ vac
        assert abs(hf.weyl_vacuum_overlap(ft, v) - want) <= 1e-14


@pytest.mark.parametrize("amps", [[np.nan, 0.0], [np.inf, 0.0], [0.0, complex(0.0, -np.inf)]])
def test_non_finite_amplitudes_raise_convergence_failure(amps):
    ft = hf.FockTruncation(2, 3)
    for call in (hf.weyl_op, hf.displacement_op, hf.weyl_vacuum_overlap):
        with pytest.raises(ConvergenceFailure):
            call(ft, amps)
    with pytest.raises(ConvergenceFailure):
        hf.weyl_relation_residual(ft, amps, [0.1, 0.2j], 1)


def test_weyl_at_zero_is_identity():
    ft = hf.FockTruncation(1, 12)
    assert np.allclose(hf.weyl_op(ft, [0.0]), np.eye(ft.dim))


def test_weyl_vacuum_overlap():
    ft = hf.FockTruncation(1, 40)
    vac = ft.vacuum()
    for r in (0.25, 0.5, 1.0):
        v = np.array([r * np.exp(0.3j)])
        got = vac.conj() @ hf.weyl_op(ft, v) @ vac
        assert abs(got - math.exp(-r * r / 4.0)) <= 1e-6


def test_displacement_vacuum_overlap():
    ft = hf.FockTruncation(1, 40)
    vac = ft.vacuum()
    x = np.array([0.8 + 0.1j])
    got = vac.conj() @ hf.displacement_op(ft, x) @ vac
    assert abs(got - math.exp(-float(np.abs(x[0])) ** 2 / 2.0)) <= 1e-10


def test_weyl_operators_are_unitary():
    ft = hf.FockTruncation(1, 25)
    W = hf.weyl_op(ft, [0.7 - 0.2j])
    assert np.allclose(W @ W.conj().T, np.eye(ft.dim), atol=1e-10)


def test_weyl_relation_residual_zero_case():
    ft = hf.FockTruncation(1, 10)
    assert hf.weyl_relation_residual(ft, [0.0], [0.0]) <= 1e-12


def test_weyl_relation_residual_reference_point():
    ft = hf.FockTruncation(1, 40)
    assert hf.weyl_relation_residual(ft, [1.0], [1j], 20) <= 1e-6


def test_weyl_relation_residual_collinear():
    ft = hf.FockTruncation(1, 40)
    assert hf.weyl_relation_residual(ft, [1.0], [0.5], 20) <= 1e-6


def test_weyl_relation_residual_matches_projected_form():
    ft = hf.FockTruncation(2, 10)
    v = np.array([0.6 - 0.3j, 0.2 + 0.5j])
    w = np.array([-0.4 + 0.1j, 0.7j])
    sector = 4
    proj = np.diag((ft.occupations.sum(axis=1) <= sector).astype(complex))
    phase = np.exp(-0.5j * np.imag(np.vdot(v, w)))
    dense = proj @ (hf.weyl_op(ft, v) @ hf.weyl_op(ft, w) - phase * hf.weyl_op(ft, v + w)) @ proj
    got = hf.weyl_relation_residual(ft, v, w, sector)
    assert got > 1e-6
    assert got == pytest.approx(np.linalg.norm(dense, 2), rel=1e-12)


@pytest.mark.parametrize("modes,cutoff,sector", [(1, 12, 5), (3, 6, 2)])
def test_weyl_relation_residual_matches_projected_form_per_mode_count(modes, cutoff, sector):
    # the residual forms only sector rows and columns; compare with the
    # projection of the full operators
    ft = hf.FockTruncation(modes, cutoff)
    generator = rng(modes * cutoff)
    v = generator.normal(size=modes) + 1j * generator.normal(size=modes)
    w = generator.normal(size=modes) + 1j * generator.normal(size=modes)
    idx = np.flatnonzero(ft.occupations.sum(axis=1) <= sector)
    phase = np.exp(-0.5j * np.imag(np.vdot(v, w)))
    dense = (hf.weyl_op(ft, v) @ hf.weyl_op(ft, w) - phase * hf.weyl_op(ft, v + w))[np.ix_(idx, idx)]
    got = hf.weyl_relation_residual(ft, v, w, sector)
    assert got > 1e-6
    assert got == pytest.approx(np.linalg.norm(dense, 2), rel=1e-12)


def test_weyl_relation_monotone_in_cutoff():
    generator = rng(17)
    for _ in range(3):
        v = generator.normal(size=1) + 1j * generator.normal(size=1)
        w = generator.normal(size=1) + 1j * generator.normal(size=1)
        v /= max(1.0, np.linalg.norm(v))
        w /= max(1.0, np.linalg.norm(w))
        residuals = [
            hf.weyl_relation_residual(hf.FockTruncation(1, n), v, w, 5)
            for n in (10, 20, 40)
        ]
        assert residuals[1] <= residuals[0] + 1e-12
        assert residuals[2] <= residuals[1] + 1e-12


@pytest.mark.parametrize("sector", [-1, 7])
def test_weyl_relation_residual_rejects_sector_outside_cutoff(sector):
    # an empty sector would make the residual vacuously zero
    with pytest.raises(SectorOutOfRange):
        hf.weyl_relation_residual(hf.FockTruncation(1, 6), [0.3], [0.2j], sector)


def test_second_quantize_number_operator():
    ft = hf.FockTruncation(1, 3)
    op = hf.second_quantize(ft, np.array([[1.0]], dtype=complex))
    assert np.allclose(op, np.diag([0.0, 1.0, 2.0, 3.0]))


def test_second_quantize_is_exact_for_integer_operators():
    ft = hf.FockTruncation(3, 5)
    got = hf.second_quantize(ft, np.diag([2.0, 0.0, 3.0]))
    assert np.array_equal(got, np.diag(ft.occupations @ [2.0, 0.0, 3.0]))


def test_second_quantize_matches_operator_products():
    ft = hf.FockTruncation(3, 4)
    generator = rng(31)
    z = generator.normal(size=(3, 3)) + 1j * generator.normal(size=(3, 3))
    D = z @ z.conj().T
    ann = [annihilation_reference(ft, j) for j in range(3)]
    want = sum(D[j, l] * ann[j].T @ ann[l] for j in range(3) for l in range(3))
    assert np.abs(hf.second_quantize(ft, D) - want).max() <= 1e-12


def test_second_quantize_zero_operator():
    ft = hf.FockTruncation(2, 3)
    assert np.allclose(hf.second_quantize(ft, np.zeros((2, 2))), 0.0)


def test_second_quantize_kernel_is_zero_mode_fock_space():
    ft = hf.FockTruncation(2, 6)
    op = hf.second_quantize(ft, np.diag([0.0, 1.0]).astype(complex))
    assert hf.kernel_dimension(ft, op) == hf.truncated_kernel_count(6, 1)
    # kernel states occupy only the zero mode
    w, v = np.linalg.eigh(op)
    kernel = v[:, np.abs(w) <= 1e-10]
    for col in kernel.T:
        support = np.abs(col) > 1e-10
        assert np.all(ft.occupations[support, 1] == 0)


def test_second_quantize_positive_spectrum():
    ft = hf.FockTruncation(2, 4)
    generator = rng(23)
    z = generator.normal(size=(2, 2)) + 1j * generator.normal(size=(2, 2))
    D = z @ z.conj().T  # random PSD
    op = hf.second_quantize(ft, D)
    assert np.linalg.eigvalsh(op).min() >= -1e-10


def test_second_quantize_rejects_negative():
    ft = hf.FockTruncation(1, 3)
    with pytest.raises(NotPSD):
        hf.second_quantize(ft, np.array([[-1.0]]))


def test_second_quantize_kernel_count_is_basis_independent():
    # rotate a rank-one one-particle operator: the kernel count only sees
    # the number of zero modes
    ft = hf.FockTruncation(2, 5)
    theta = 0.7
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex)
    D = u @ np.diag([0.0, 1.0]) @ u.conj().T
    op = hf.second_quantize(ft, D)
    assert hf.kernel_dimension(ft, op) == hf.truncated_kernel_count(5, 1)


def dense_kernel_dimension(op, tol=1e-9):
    """The kernel count from one eigvalsh of the whole Hermitian part."""
    w = np.linalg.eigvalsh((op + op.conj().T) / 2)
    return int(np.sum(np.abs(w) <= tol * (1.0 + np.abs(w).max())))


@pytest.mark.parametrize("modes,cutoff,zero_modes", [(2, 8, 1), (3, 5, 1), (3, 10, 2)])
def test_kernel_dimension_per_sector_matches_dense_count(modes, cutoff, zero_modes):
    # a random PSD one-particle operator with zero_modes zero modes, in a random basis
    gen = rng(modes * 100 + cutoff)
    z = gen.normal(size=(modes, modes)) + 1j * gen.normal(size=(modes, modes))
    u, _ = np.linalg.qr(z)
    freqs = np.concatenate([np.zeros(zero_modes), gen.uniform(0.5, 2.0, modes - zero_modes)])
    D = u @ np.diag(freqs) @ u.conj().T
    ft = hf.FockTruncation(modes, cutoff)
    op = hf.second_quantize(ft, (D + D.conj().T) / 2)
    count = hf.kernel_dimension(ft, op)
    assert count == dense_kernel_dimension(op, hf.CLUSTER_TOL)
    assert count == hf.truncated_kernel_count(cutoff, zero_modes)


def test_kernel_dimension_rejects_sector_coupling_and_wrong_shape():
    ft = hf.FockTruncation(2, 3)
    op = hf.second_quantize(ft, np.diag([0.0, 1.0]).astype(complex))
    op[0, 1] = op[1, 0] = 0.5  # vacuum to a one-particle state
    with pytest.raises(NotDiagonal):
        hf.kernel_dimension(ft, op)
    op[0, 1] = op[1, 0] = np.nan
    with pytest.raises(NotDiagonal):
        hf.kernel_dimension(ft, op)
    with pytest.raises(DimensionMismatch):
        hf.kernel_dimension(ft, op[1:, 1:])


def test_symplectic_setup_positivity():
    setup = hf.SymplecticSetup((0.0, 1.0, 2.5))
    D = rotation_generator(setup)
    S = setup.sigma_matrix()
    assert np.array_equal(D.T @ S + S @ D, np.zeros_like(D))  # D lies in sp(V, sigma)
    generator = rng(2)
    for _ in range(8):
        v = generator.normal(size=6)
        assert setup.sigma(D @ v, v) >= -1e-12


def test_symplectic_setup_rejects_negative_frequency():
    with pytest.raises(SplitInvalid):
        hf.SymplecticSetup((-1.0, 0.0))


@pytest.mark.parametrize("frequencies", [(float("nan"),), (0.0, float("inf")), (float("-inf"), 1.0)])
def test_symplectic_setup_rejects_non_finite_frequency(frequencies):
    with pytest.raises(SplitInvalid):
        hf.SymplecticSetup(frequencies)


def test_symplectic_split_dimensions():
    setup = hf.SymplecticSetup((0.0, 0.0, 1.0))
    assert setup.fixed_modes == 2 and setup.effective_modes == 1
    D = rotation_generator(setup)
    assert np.linalg.matrix_rank(D) == 2  # V_eff has real dimension 2


def test_factorization_clean_fixture():
    setup = hf.SymplecticSetup((0.0, 1.0))
    ft = hf.FockTruncation(1, 30)
    assert hf.factorization_check(setup, character_pair_rep(), ft, sector=10, tol=1e-5)


@pytest.mark.parametrize("sector", [-1, 9, 50])
def test_factorization_rejects_sector_outside_cutoff(sector):
    # an empty sector cannot be indexed and one past the cutoff is vacuous
    setup = hf.SymplecticSetup((0.0, 1.0))
    with pytest.raises(SectorOutOfRange):
        hf.factorization_check(setup, character_pair_rep(), hf.FockTruncation(1, 8),
                               sector=sector, tol=1e-5)


def test_factorization_rejects_entangled():
    setup = hf.SymplecticSetup((0.0, 1.0))
    ft = hf.FockTruncation(1, 30)
    coupler = expm(1j * 0.6 * np.kron(np.diag([1.0, -1.0]), total_number(ft)))
    assert not hf.factorization_check(
        setup, character_pair_rep(), ft, sector=10, tol=1e-5, entangler=coupler
    )


def test_factorization_two_fixed_modes():
    # [Z, X1, X2, Y1, Y2] with commuting characters: interleaved coordinates
    # must be reordered into the blocked basis correctly
    h4 = algebra("heis", 4)
    dpi = np.zeros((5, 2, 2), dtype=complex)
    dpi[1] = 1j * np.diag([0.4, -0.2])
    dpi[2] = 1j * np.diag([0.1, 0.6])
    dpi[3] = 1j * np.diag([-0.3, 0.2])
    dpi[4] = 1j * np.diag([0.5, -0.1])
    rep0 = irreps.Representation(h4, dpi)
    setup = hf.SymplecticSetup((0.0, 0.0, 1.0))
    ft = hf.FockTruncation(1, 20)
    assert hf.factorization_check(setup, rep0, ft, sector=6, tol=1e-5)


def test_heisenberg_weyl_reorders_interleaved_coordinates():
    h4 = algebra("heis", 4)
    dpi = np.zeros((5, 1, 1), dtype=complex)
    dpi[1] = 1j * 1.0  # X1
    dpi[4] = 1j * 2.0  # Y2
    rep0 = irreps.Representation(h4, dpi)
    # interleaved (x1, y1, x2, y2) = (1, 0, 0, 1): picks X1 and Y2
    got = hf.heisenberg_weyl(rep0, np.array([1.0, 0.0, 0.0, 1.0]))
    assert np.allclose(got, np.exp(1j * 3.0))


def test_heisenberg_weyl_rejects_non_unitary_rep():
    h = algebra("heis", 2)
    dpi = np.zeros((3, 2, 2), dtype=complex)
    dpi[1] = np.diag([0.3, -0.5])  # Hermitian, so exp is not unitary
    rep0 = irreps.Representation(h, dpi)
    with pytest.raises(NotHermitian):
        hf.heisenberg_weyl(rep0, np.array([1.0, 0.0]))


def test_factorization_degenerate_no_effective_part():
    setup = hf.SymplecticSetup((0.0,))
    ft = hf.FockTruncation(0, 0)
    assert hf.factorization_check(setup, character_pair_rep(), ft, sector=0, tol=1e-8)


def test_factorization_effective_ground_line():
    # with a strictly positive frequency the effective factor has a unique
    # minimal-energy ray, the vacuum
    ft = hf.FockTruncation(1, 20)
    op = hf.second_quantize(ft, np.array([[1.0]], dtype=complex))
    assert hf.kernel_dimension(ft, op) == 1
