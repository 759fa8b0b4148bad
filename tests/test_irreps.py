import itertools

import numpy as np
import pytest

from gsrep import irreps, liealg
from gsrep.errors import NotDominant, NotIrreducible

from conftest import algebra, cached_irrep, dominant_box, su_dominant_box


def ssyt_count(shape, n):
    """Independent dimension oracle: semistandard tableaux of the given
    shape with entries in 1..n, counted by brute-force column recursion."""
    shape = [s for s in shape if s > 0]
    if not shape:
        return 1
    rows = len(shape)

    def columns(prev_col_len):
        # strictly increasing column entries from 1..n
        return list(itertools.combinations(range(1, n + 1), prev_col_len))

    # fill column by column (conjugate shape), tracking each row's last entry
    conj = [sum(1 for s in shape if s > c) for c in range(shape[0])]

    def rec(col_idx, last):
        if col_idx == len(conj):
            return 1
        height = conj[col_idx]
        total = 0
        for col in itertools.combinations(range(1, n + 1), height):
            if all(col[r] >= last[r] for r in range(height)):
                total += rec(col_idx + 1, list(col) + last[height:])
            # rows are weakly increasing left to right, columns strictly down
        return total

    return rec(0, [1] * rows)


@pytest.mark.parametrize("lam,dim", [((1, 0), 2), ((2, 0), 3), ((1, 1), 1),
                                     ((3, 1), 3), ((2, 1, 0), 8), ((1, 1, 0), 3),
                                     ((2, 0, 0), 6), ((2, 2, 0), 6)])
def test_weyl_dim_matches_tableaux_oracle(lam, dim):
    n = len(lam)
    assert irreps.weyl_dim(lam) == dim
    assert ssyt_count(lam, n) == dim


def test_defining_rep_u2():
    rep = cached_irrep("u", 2, (1, 0))
    assert rep.dim == 2
    assert rep.homomorphism_residual() <= 1e-9
    # the construction reproduces the identity action up to unitary change of basis
    assert sorted(irreps.weights_of(rep)) == [(0, 1), (1, 0)]


def test_sym2_u2():
    rep = cached_irrep("u", 2, (2, 0))
    assert rep.dim == 3
    assert irreps.weights_of(rep) == [(0, 2), (1, 1), (2, 0)]


def test_wedge2_u3():
    rep = cached_irrep("u", 3, (1, 1, 0))
    assert rep.dim == 3
    assert irreps.weights_of(rep) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_negative_weights_via_central_shift():
    rep = cached_irrep("u", 2, (0, -1))
    assert rep.dim == 2
    assert irreps.weights_of(rep) == [(-1, 0), (0, -1)]


def test_rejects_non_dominant():
    with pytest.raises(NotDominant):
        irreps.irrep(algebra("u", 2), (0, 1))


@pytest.mark.parametrize("n", [2, 3])
def test_dimension_oracle_box(n):
    for lam in dominant_box(n, 0, 3):
        rep = cached_irrep("u", n, lam)
        assert rep.dim == irreps.weyl_dim(lam)
        assert rep.dim == ssyt_count(lam, n)
        assert rep.homomorphism_residual() <= 1e-9
        assert rep.anti_hermitian_residual() <= 1e-9


def test_irreducibility_certificate():
    from gsrep import matcore

    for lam in [(1, 0, 0), (1, 1, 0), (2, 1, 0)]:
        rep = cached_irrep("u", 3, lam)
        assert matcore.commutant_basis(list(rep.dpi), dim=rep.dim).rank == 1


def test_weights_weyl_group_invariant():
    for lam in [(2, 0), (3, 1), (2, 1, 0)]:
        rep = cached_irrep("u", len(lam), lam)
        weights = irreps.weights_of(rep)
        for perm in itertools.permutations(range(len(lam))):
            permuted = sorted(tuple(w[p] for p in perm) for w in weights)
            assert permuted == weights


def test_su2_adjoint_weights():
    su2 = algebra("su", 2)
    rep = irreps.irrep(su2, (2, 0))  # three-dimensional: the adjoint
    assert rep.dim == 3
    assert irreps.weights_of(rep) == [(-2,), (0,), (2,)]


def test_extremal_weights():
    g = algebra("u", 2)
    rd = liealg.root_datum(g, liealg.diagonal_element(g, [1, 0]))
    assert irreps.extremal_weight(cached_irrep("u", 2, (1, 0)), rd, "lowest") == (0, 1)
    assert irreps.extremal_weight(cached_irrep("u", 2, (1, 0)), rd, "highest") == (1, 0)
    assert irreps.extremal_weight(cached_irrep("u", 2, (0, 0)), rd, "lowest") == (0, 0)
    g3 = algebra("u", 3)
    rd3 = liealg.root_datum(g3, liealg.diagonal_element(g3, [2, 1, 0]))
    assert irreps.extremal_weight(cached_irrep("u", 3, (1, 1, 0)), rd3, "lowest") == (0, 1, 1)


def test_extremal_weight_rejects_reducible():
    g = algebra("u", 2)
    rd = liealg.root_datum(g, liealg.diagonal_element(g, [1, 0]))
    double = irreps.direct_sum([cached_irrep("u", 2, (1, 0))] * 2)
    with pytest.raises(NotIrreducible):
        irreps.extremal_weight(double, rd, "lowest")


def test_decompose_multiplicity_two():
    rep = irreps.direct_sum([cached_irrep("u", 2, (1, 0))] * 2)
    parts = irreps.decompose(rep)
    assert len(parts) == 1
    component, mult = parts[0]
    assert mult == 2 and component.dim == 2


def test_decompose_tensor_square_u2():
    # V (x) V = Sym^2 + Alt^2: highest weights (2,0) and (1,1)
    rep = irreps.tensor_product(cached_irrep("u", 2, (1, 0)), cached_irrep("u", 2, (1, 0)))
    parts = irreps.decompose(rep)
    labels = {}
    g = algebra("u", 2)
    rd = liealg.root_datum(g, liealg.diagonal_element(g, [1, 0]))
    for component, mult in parts:
        labels[irreps.extremal_weight(component, rd, "highest")] = (component.dim, mult)
    assert labels == {(2, 0): (3, 1), (1, 1): (1, 1)}
    assert sum(c.dim * m for c, m in parts) == 4


def test_decompose_trivial():
    rep = cached_irrep("u", 2, (0, 0))
    parts = irreps.decompose(rep)
    assert len(parts) == 1 and parts[0][1] == 1 and parts[0][0].dim == 1


def test_decompose_irreducible_is_single_component():
    rep = cached_irrep("u", 3, (2, 1, 0))
    parts = irreps.decompose(rep)
    assert len(parts) == 1
    assert parts[0][1] == 1 and parts[0][0].dim == rep.dim


def test_decompose_clebsch_gordan_u2():
    # (1,0) (x) (2,0) = (3,0) + (2,1): dims 4 + 2
    rep = irreps.tensor_product(cached_irrep("u", 2, (1, 0)), cached_irrep("u", 2, (2, 0)))
    parts = irreps.decompose(rep)
    dims = sorted(c.dim for c, _ in parts)
    assert dims == [2, 4]
    assert all(m == 1 for _, m in parts)


def test_decompose_triple_tensor_power_u2():
    # V (x) V (x) V = (3,0) + 2 x (2,1): dims 4 + 2 + 2
    v = cached_irrep("u", 2, (1, 0))
    rep = irreps.tensor_product(irreps.tensor_product(v, v), v)
    parts = irreps.decompose(rep)
    by_dim = sorted((c.dim, m) for c, m in parts)
    assert by_dim == [(2, 2), (4, 1)]


def test_weights_reject_non_commuting_family():
    from gsrep.errors import NonCommutingCartan

    rep = cached_irrep("u", 2, (1, 0))
    bad = np.zeros((2, rep.algebra.dim))
    bad[0, 0] = 1.0  # i E_11
    bad[1, 2] = 1.0  # E_12 - E_21: does not commute with the first
    with pytest.raises(NonCommutingCartan):
        irreps.weights_of(rep, bad)


def test_torus_character_operator():
    g = algebra("u", 3)
    chi = irreps.torus_character(g, (2, -1, 0))
    x = liealg.diagonal_element(g, [1.0, 1.0, 3.0])
    op = chi.operator(x)
    assert np.allclose(op, 1j * (2 * 1.0 + (-1) * 1.0 + 0 * 3.0))


def test_centralizer_irrep_matches_compression():
    # the (0) x (1,0) block representation is the compressed defining action
    g = algebra("u", 3)
    pi0 = irreps.centralizer_irrep(g, [1, 0, 0], [(0,), (1, 0)])
    assert pi0.dim == 2
    assert pi0.homomorphism_residual() <= 1e-9
    # evaluate on i(E_22 - E_33), an ambient element of the block
    x = liealg.diagonal_element(g, [0.0, 1.0, -1.0])
    op = pi0.operator(x)
    assert np.allclose(sorted(np.linalg.eigvalsh(-1j * op)), [-1, 1])


def test_commutant_rank_is_sum_of_squared_multiplicities():
    # (2,1,0) twice, (1,0,0) three times, (1,1,0) once: 4 + 9 + 1
    from gsrep import matcore

    rep = irreps.direct_sum([cached_irrep("u", 3, (2, 1, 0))] * 2
                            + [cached_irrep("u", 3, (1, 0, 0))] * 3
                            + [cached_irrep("u", 3, (1, 1, 0))])
    parts = irreps.decompose(rep)
    assert sorted(m for _, m in parts) == [1, 2, 3]
    comm = matcore.commutant_basis(list(rep.dpi))
    assert comm.rank == sum(m * m for _, m in parts) == 14
    assert comm.is_star_closed is True


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


@pytest.mark.parametrize("kind,n,weights", [
    ("u", 4, dominant_box(4, 0, 2)),
    ("su", 3, su_dominant_box(3, 0, 3)),
    ("su", 4, su_dominant_box(4, 0, 2)),
])
def test_gelfand_tsetlin_dimension_and_residuals(kind, n, weights):
    for lam in weights:
        rep = irreps.irrep(algebra(kind, n), lam)
        assert rep.dim == irreps.weyl_dim(lam) == ssyt_count(lam, n)
        assert rep.homomorphism_residual() <= 1e-9
        assert rep.anti_hermitian_residual() <= 1e-9


def test_gelfand_tsetlin_reaches_dimension_125():
    from gsrep import matcore

    g = algebra("u", 3)
    rep = irreps.irrep(g, (8, 4, 0))
    assert rep.dim == 125
    rd = liealg.root_datum(g, liealg.diagonal_element(g, [2, 1, 0]))
    assert irreps.extremal_weight(rep, rd, "highest") == (8, 4, 0)
    assert matcore.commutant_basis(list(rep.dpi), dim=rep.dim).rank == 1


@pytest.mark.parametrize("kind,lam", [("u", (2, 0, -2)), ("u", (3, 1, 0, 0)), ("su", (2, 1, 0))])
def test_cartan_acts_by_exact_integers(kind, lam):
    g = algebra(kind, len(lam))
    rep = irreps.irrep(g, lam)
    for idx in g.cartan_indices:
        op = -1j * rep.dpi[idx]
        diag = np.diag(op)
        assert np.count_nonzero(op - np.diag(diag)) == 0
        assert np.array_equal(diag, np.round(diag.real))


def test_weights_of_negative_weight_match_patterns():
    rep = irreps.irrep(algebra("u", 3), (2, 0, -2))
    assert rep.dim == 27
    assert irreps.weights_of(rep) == pattern_weights((2, 0, -2))
