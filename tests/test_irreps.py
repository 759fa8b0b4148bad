import itertools
import math
from collections import Counter

import numpy as np
import pytest

from gsrep import cli, groundstate, irreps, liealg, matcore
from gsrep.errors import DimensionOracleMismatch, NotDominant, NotHermitian, NotIrreducible
from gsrep.irreps import Representation
from gsrep.matcore import numerical_rank

from conftest import algebra, cached_irrep, dominant_box, rng, su_dominant_box
from oracles import centralizer_reference, is_star_closed, pattern_weights, tensor_product
from test_groundstate import heis_commuting_family


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
        assert len(matcore.commutant_basis(rep.dpi)) == 1


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


# the weights that the benchmark's irrep-build workload constructs
IRREP_BUILD_WEIGHTS = [(5, 2, 0), (5, 3, 0), (6, 2, 0), (6, 3, 0), (3, 1, 0, 0), (3, 2, 1, 0), (2, 1, 1, 0, 0)]


def test_extremal_weights():
    g = algebra("u", 2)
    rd = liealg.root_datum(g, liealg.diagonal_element(g, [1, 0]))
    assert irreps.extremal_weight(cached_irrep("u", 2, (1, 0)), rd, "lowest") == (0, 1)
    assert irreps.extremal_weight(cached_irrep("u", 2, (1, 0)), rd, "highest") == (1, 0)
    assert irreps.extremal_weight(cached_irrep("u", 2, (0, 0)), rd, "lowest") == (0, 0)
    g3 = algebra("u", 3)
    rd3 = liealg.root_datum(g3, liealg.diagonal_element(g3, [2, 1, 0]))
    assert irreps.extremal_weight(cached_irrep("u", 3, (1, 1, 0)), rd3, "lowest") == (0, 1, 1)
    for lam in IRREP_BUILD_WEIGHTS:
        g = algebra("u", len(lam))
        rd = liealg.root_datum(g, np.zeros(g.dim))
        assert irreps.extremal_weight(cached_irrep("u", len(lam), lam), rd, "highest") == lam


def test_weights_of_a_gelfand_tsetlin_basis_take_no_eigh(lapack_calls):
    # every Cartan image is diagonal on the Gelfand-Tsetlin basis, so eig_frame reads each refinement
    reps = [(cached_irrep("u", len(lam), lam), [lam]) for lam in IRREP_BUILD_WEIGHTS]
    summands = [(2, 1, 0), (1, 0, 0), (2, 1, 0)]
    reps.append((irreps.direct_sum([cached_irrep("u", 3, lam) for lam in summands]), summands))
    lapack_calls["eigh"] = 0
    for rep, parts in reps:
        want = sorted(mu for lam in parts for mu in pattern_weights(lam))
        assert irreps.weights_of(rep) == want
    assert lapack_calls["eigh"] == 0


@pytest.mark.parametrize("cell", [(0, 0), (0, 1), (2, 2)])
@pytest.mark.parametrize("value", [np.nan, 1j * np.nan, np.inf])
def test_a_non_finite_cartan_image_makes_weights_of_raise_not_hermitian(cell, value):
    rep = cached_irrep("u", 3, (2, 1, 0))
    dpi = rep.dpi.copy()
    dpi[(rep.algebra.cartan_indices[1], *cell)] = value
    with pytest.raises(NotHermitian):
        irreps.weights_of(Representation(rep.algebra, dpi))


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
    rep = tensor_product(cached_irrep("u", 2, (1, 0)), cached_irrep("u", 2, (1, 0)))
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
    rep = tensor_product(cached_irrep("u", 2, (1, 0)), cached_irrep("u", 2, (2, 0)))
    parts = irreps.decompose(rep)
    dims = sorted(c.dim for c, _ in parts)
    assert dims == [2, 4]
    assert all(m == 1 for _, m in parts)


def test_decompose_triple_tensor_power_u2():
    # V (x) V (x) V = (3,0) + 2 x (2,1): dims 4 + 2 + 2
    v = cached_irrep("u", 2, (1, 0))
    rep = tensor_product(tensor_product(v, v), v)
    parts = irreps.decompose(rep)
    by_dim = sorted((c.dim, m) for c, m in parts)
    assert by_dim == [(2, 2), (4, 1)]


def test_decompose_without_a_cartan():
    # the heis(2) pair of characters, and block-centralizer irreducibles: no default Cartan
    pair = heis_commuting_family()
    assert pair.algebra.cartan_indices is None
    parts = irreps.decompose(pair)
    assert [m for _, m in parts] == [1, 1]
    assert sorted(float((-1j * c.dpi[2, 0, 0]).real) for c, _ in parts) == pytest.approx([1.0, 2.0])
    g = algebra("u", 3)
    line = irreps.centralizer_irrep(g, [1, 0, 0], [(0,), (1, 0)])
    point = irreps.centralizer_irrep(g, [1, 0, 0], [(1,), (0, 0)])
    assert line.algebra.cartan_indices is None
    assert irreps.decompose(line) == [(line, 1)]
    parts = irreps.decompose(irreps.direct_sum([line, point, line]))
    assert sorted((c.dim, m) for c, m in parts) == [(1, 1), (2, 2)]
    for c, _ in parts:
        assert len(matcore.commutant_basis(c.dpi)) == 1


def test_weights_reject_non_commuting_family():
    from gsrep.errors import NonCommutingCartan

    rep = cached_irrep("u", 2, (1, 0))
    dpi = rep.dpi.copy()
    dpi[1] = rep.dpi[2]  # the image of E_12 - E_21 for that of i E_22: it does not commute with i E_11's
    with pytest.raises(NonCommutingCartan):
        irreps.weights_of(Representation(rep.algebra, dpi))


def test_torus_character_operator():
    g = algebra("u", 3)
    chi = irreps.torus_character(g, (2, -1, 0))
    x = liealg.diagonal_element(g, [1.0, 1.0, 3.0])
    local, outside = chi.local_coeffs(x)
    assert not outside
    op = chi.operator(local)
    assert np.allclose(op, 1j * (2 * 1.0 + (-1) * 1.0 + 0 * 3.0))


def test_local_coeffs_flag_a_non_orthonormal_embedding():
    # ambient_coeffs must have orthonormal rows; rows that span the same
    # Cartan but break the contract flag its elements as outside, so no
    # element is given wrong local coordinates
    from gsrep import cones

    g = algebra("u", 3)
    chi = irreps.torus_character(g, (2, -1, 0))
    x = liealg.diagonal_element(g, [1.0, 1.0, 3.0])
    local, outside = chi.local_coeffs(x)
    assert not outside and np.array_equal(local, [1.0, 1.0, 3.0])
    skew = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.5, 2.0]])
    for rows in (2.0 * chi.ambient_coeffs, skew @ chi.ambient_coeffs):
        bad = irreps.Representation(chi.algebra, chi.dpi, ambient_coeffs=rows)
        _, outside = bad.local_coeffs(x)
        assert outside
        with pytest.raises(ValueError, match="represented subalgebra"):
            cones.in_positive_cone(bad, x)
    # orthonormal rows in another order and sign are within the contract
    turned = irreps.Representation(chi.algebra, chi.dpi,
                                   ambient_coeffs=-chi.ambient_coeffs[[2, 0, 1]])
    local, outside = turned.local_coeffs(x)
    assert not outside and np.array_equal(local, [-3.0, -1.0, -1.0])


def test_torus_character_checks_the_cartan_length():
    from gsrep.errors import DimensionMismatch

    g = algebra("su", 3)
    assert irreps.torus_character(g, (1, 0)).dim == 1
    for lam in ((1, 0, 0), (1,)):
        with pytest.raises(DimensionMismatch):
            irreps.torus_character(g, lam)


def _pairwise_homomorphism_residual(rep):
    g = rep.algebra
    worst = 0.0
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = np.einsum("k,kab->ab", g.structure[i, j].astype(complex), rep.dpi)
            rhs = rep.dpi[i] @ rep.dpi[j] - rep.dpi[j] @ rep.dpi[i]
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


@pytest.mark.parametrize("lam", [(5, 2, 0), (5, 3, 0), (6, 2, 0), (6, 3, 0),
                                 (3, 1, 0, 0), (3, 2, 1, 0), (2, 1, 1, 0, 0)])
def test_batched_homomorphism_residual_matches_pairwise_loop(lam):
    rep = cached_irrep("u", len(lam), lam)
    # both are roundoff on a representation: equal up to the summation order
    assert rep.homomorphism_residual() == pytest.approx(_pairwise_homomorphism_residual(rep),
                                                        rel=0.05, abs=1e-14)
    broken = irreps.Representation(rep.algebra, rep.dpi + 1e-3 * rng(len(lam)).normal(size=rep.dpi.shape))
    assert broken.homomorphism_residual() == pytest.approx(
        _pairwise_homomorphism_residual(broken), rel=1e-12)


def test_centralizer_irrep_matches_compression():
    # the (0) x (1,0) block representation is the compressed defining action
    g = algebra("u", 3)
    pi0 = irreps.centralizer_irrep(g, [1, 0, 0], [(0,), (1, 0)])
    assert pi0.dim == 2
    assert pi0.homomorphism_residual() <= 1e-9
    # evaluate on i(E_22 - E_33), an ambient element of the block
    x = liealg.diagonal_element(g, [0.0, 1.0, -1.0])
    local, outside = pi0.local_coeffs(x)
    assert not outside
    op = pi0.operator(local)
    assert np.allclose(sorted(np.linalg.eigvalsh(-1j * op)), [-1, 1])


@pytest.mark.parametrize("n,dvec,block_weights", [
    (3, [1, 0, 0], [(0,), (1, 0)]), (3, [1, 0, 0], [(1,), (0, 0)]), (3, [1, 1, 0], [(1, 0), (2,)]),
    (3, [2, 1, 0], [(1,), (0,), (-1,)]), (4, [2, 1, 1, 0], [(1,), (1, 0), (0,)]),
    (4, [1, 1, 0, -1], [(2, 0), (1,), (0,)]), (4, [3, 2, 1, 0], [(1,), (0,), (-2,), (0,)]),
])
def test_centralizer_irrep_matches_the_per_row_construction(n, dvec, block_weights):
    # dpi bit for bit, signed zeros included; the embedding to the solvers' roundoff
    g = algebra("u", n)
    rep = irreps.centralizer_irrep(g, dvec, block_weights)
    blocks = irreps.centralizer_blocks(liealg.root_datum(g, liealg.diagonal_element(g, dvec)))
    block_reps = [irreps.irrep(algebra("u", len(b)), bw) for b, bw in zip(blocks, block_weights)]
    embed, dpi = centralizer_reference(g, blocks, block_reps)
    assert rep.dpi.shape == dpi.shape and rep.dpi.tobytes() == dpi.tobytes()
    assert np.abs(rep.ambient_coeffs - embed).max() <= 1e-14


def _equivalent(a: Representation, b: Representation, tol: float) -> bool:
    """Existence of a nonzero intertwiner between two irreducibles."""
    if a.dim != b.dim:
        return False
    d = a.dim
    eye = np.eye(d, dtype=complex)
    rows = [np.kron(a.dpi[i], eye) - np.kron(eye, b.dpi[i].T) for i in range(a.algebra.dim)]
    _, s, _ = np.linalg.svd(np.vstack(rows))
    return numerical_rank(s, tol) < d * d


@pytest.mark.parametrize("summands", [
    [(3, 1, 0), (3, 1, 0)],
    [(3, 1, 0), (2, 1, 0), (3, 1, 0)],
    [(2, 1, 0), (1, 1, 0), (2, 1, 0), (1, 0, 0)],
])
def test_decompose_reads_schur_and_equivalence_from_the_commutant(summands):
    # the Kronecker intertwiner test and a commutant per block, which
    # decompose used before, are the references
    tol = matcore.DEFAULT_TOL
    rep = irreps.direct_sum([cached_irrep("u", 3, lam) for lam in summands])
    g = algebra("u", 3)
    rd = liealg.root_datum(g, liealg.diagonal_element(g, [2, 1, 0]))
    parts = irreps.decompose(rep)
    got = Counter()
    for component, mult in parts:
        got[irreps.extremal_weight(component, rd, "highest")] += mult
    assert len(parts) == len(set(summands))
    assert got == Counter(summands)

    assert all(len(matcore.commutant_basis(c.dpi)) == 1 for c, _ in parts)
    comm = matcore.commutant_basis(rep.dpi)
    pieces = [P for members in matcore.isotypic_split(comm) for P in members]
    assert sum(P.shape[1] for P in pieces) == rep.dim
    assert all(len(matcore.commutant_basis(irreps.restrict(rep, P).dpi)) == 1
               for P in pieces)
    assert all(len(matcore.compress(P, comm)) == 1 for P in pieces)
    verdicts = Counter()
    for P, Q in itertools.combinations(pieces, 2):
        want = _equivalent(irreps.restrict(rep, Q), irreps.restrict(rep, P), tol)
        assert matcore._intertwined(comm, P, Q) == want
        verdicts[want] += 1
    assert verdicts[True] == sum(m * (m - 1) // 2 for m in Counter(summands).values())


def test_commutant_rank_is_sum_of_squared_multiplicities():
    # (2,1,0) twice, (1,0,0) three times, (1,1,0) once: 4 + 9 + 1
    from gsrep import matcore

    rep = irreps.direct_sum([cached_irrep("u", 3, (2, 1, 0))] * 2
                            + [cached_irrep("u", 3, (1, 0, 0))] * 3
                            + [cached_irrep("u", 3, (1, 1, 0))])
    parts = irreps.decompose(rep)
    assert sorted(m for _, m in parts) == [1, 2, 3]
    comm = matcore.commutant_basis(list(rep.dpi))
    assert len(comm) == sum(m * m for _, m in parts) == 14
    assert is_star_closed(comm)


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
    assert len(matcore.commutant_basis(rep.dpi)) == 1


@pytest.mark.parametrize("kind,lam", [("u", (2, 0, -2)), ("u", (3, 1, 0, 0)), ("su", (2, 1, 0)),
                                      ("u", (5, 3, 1, 0))])  # the last at dimension 360
def test_cartan_acts_by_exact_integers(kind, lam):
    g = algebra(kind, len(lam))
    rep = irreps.irrep(g, lam)
    assert rep.dim == irreps.weyl_dim(lam)
    for idx in g.cartan_indices:
        op = -1j * rep.dpi[idx]
        diag = np.diag(op)
        assert np.count_nonzero(op - np.diag(diag)) == 0
        assert np.array_equal(diag, np.round(diag.real))


def test_weights_of_negative_weight_match_patterns():
    rep = irreps.irrep(algebra("u", 3), (2, 0, -2))
    assert rep.dim == 27
    assert irreps.weights_of(rep) == pattern_weights((2, 0, -2))


# ---------------------------------------------------------------------------
# the array construction against the per-pattern loop it replaced


def reference_patterns(lam):
    patterns = [(tuple(lam),)]
    for _ in range(len(lam) - 1):
        patterns = [
            (sub,) + p
            for p in patterns
            for sub in itertools.product(
                *[range(p[0][i], p[0][i + 1] - 1, -1) for i in range(len(p[0]) - 1)]
            )
        ]
    return patterns


def reference_ratio(x, lower, same):
    return math.prod(x - y for y in lower), math.prod(x - y for y in same)


def reference_generators(lam):
    """rho(E_ij) as a dense (n, n, d, d) array, built one pattern at a time."""
    n = len(lam)
    patterns = reference_patterns(lam)
    index = {p: c for c, p in enumerate(patterns)}
    d = len(patterns)
    rho = np.zeros((n, n, d, d))
    for c, rows in enumerate(patterns):
        sums = [0] + [sum(r) for r in rows]
        for k in range(n):
            rho[k, k, c, c] = sums[k + 1] - sums[k]
        ls = [[x - i for i, x in enumerate(r)] for r in rows]
        for k in range(1, n):  # E_{k,k+1}: raise an entry of row k
            row, above = ls[k - 1], ls[k]
            below = ls[k - 2] if k > 1 else []
            for i in range(k):
                raised = list(rows[k - 1])
                raised[i] += 1
                target = index.get(rows[: k - 1] + (tuple(raised),) + rows[k:])
                if target is None:
                    continue
                others = row[:i] + row[i + 1:]
                a_num, a_den = reference_ratio(row[i], above, others)
                b_num, b_den = reference_ratio(row[i] + 1, below, others)
                rho[k - 1, k, target, c] = math.sqrt(-a_num * b_num / (a_den * b_den))
    for gap in range(1, n):
        for i in range(n - gap):
            j = i + gap
            if gap > 1:
                rho[i, j] = rho[i, i + 1] @ rho[i + 1, j] - rho[i + 1, j] @ rho[i, i + 1]
            rho[j, i] = rho[i, j].T
    return rho


def reference_dpi(g, lam):
    return np.einsum("bij,ijkl->bkl", g.basis, reference_generators(lam), optimize=True)


def dense_generators(lam):
    diag, (pair, tgt, src, val) = irreps._gt_generators(lam)
    n, d = diag.shape
    rho = np.zeros((n, n, d, d))
    rho[np.arange(n), np.arange(n)] = np.einsum("kc,cl->kcl", diag, np.eye(d))
    i, j = pair // n, pair % n
    rho[i, j, tgt, src] = val
    rho[j, i, src, tgt] = val
    return rho


IRREP_BUILD_WEIGHTS = [(5, 2, 0), (5, 3, 0), (6, 2, 0), (6, 3, 0), (3, 1, 0, 0), (3, 2, 1, 0),
                       (2, 1, 1, 0, 0)]
REFERENCE_CASES = (
    [("u", lam) for lam in dominant_box(2, -2, 2) + dominant_box(3, -2, 2) + dominant_box(4, 0, 2)]
    + [("su", lam) for lam in su_dominant_box(3, 0, 3) + su_dominant_box(4, 0, 2)]
    + [("u", lam) for lam in IRREP_BUILD_WEIGHTS]
    + [("u", (1, 1, 1)), ("su", (0, 0)), ("u", (3,)), ("u", (-2,))]
)


def test_gelfand_tsetlin_dpi_equals_per_pattern_reference():
    for kind, lam in REFERENCE_CASES:
        g = algebra(kind, len(lam))
        assert np.array_equal(irreps.irrep(g, lam).dpi, reference_dpi(g, lam)), (kind, lam)


def test_gelfand_tsetlin_patterns_keep_their_order():
    for lam in [(2, 0, -2), (3, 2, 1, 0), (2, 1, 1, 0, 0), (4,)]:
        n = len(lam)
        flat = [sum(p, ()) for p in reference_patterns(lam)]
        assert irreps._gt_patterns(lam)[:, *np.tril_indices(n)].tolist() == [list(p) for p in flat]


def test_gelfand_tsetlin_raises_land_on_the_raised_pattern():
    for lam in [(2, 1, 0), (2, 0, -2), (3, 1, 0, 0), (3, 2, 1, 0), (2, 1, 1, 0, 0)]:
        patterns = irreps._gt_patterns(lam)
        _, (k, i, tgt, src, val) = irreps._gt_raising(lam)
        unit = np.zeros_like(patterns[src])
        unit[np.arange(len(src)), k, i] = 1
        assert np.array_equal(patterns[tgt] - patterns[src], unit)
        assert (val > 0).all()
        # every raise that stays a pattern is there, as in the old loop
        ref = reference_generators(lam)
        assert len(src) == sum(np.count_nonzero(ref[r, r + 1]) for r in range(len(lam) - 1))


def test_gelfand_tsetlin_generators_past_exact_float_products():
    # on u(13) and u(14) the Molev numerators reach 1.9e16 and 3.0e18, past 2^53
    for lam in [(1,) + (0,) * 12, (1,) + (0,) * 13]:
        assert np.array_equal(dense_generators(lam), reference_generators(lam))


def test_exact_ratio_rounds_like_python_integer_division():
    gen = rng(5)
    num = gen.integers(2**20, 2**22, size=(200, 4)) * gen.choice([-1, 1], size=(200, 4))
    den = gen.integers(2**20, 2**22, size=(200, 3))
    want = [math.prod(a.tolist()) / math.prod(b.tolist()) for a, b in zip(num, den)]
    assert irreps._exact_ratio(num, den).tolist() == want
    # the float64 products alone round differently on some of these rows
    assert (num.prod(axis=1, dtype=float) / den.prod(axis=1, dtype=float)).tolist() != want
    small = gen.integers(-50, 50, size=(50, 6))
    assert irreps._exact_ratio(small, np.ones((50, 1), int)).tolist() == [
        float(math.prod(r.tolist())) for r in small]


@pytest.mark.parametrize("lam", [(10**7, 0, -10**7), (10**7, 0, 0, -10**7)])
def test_pattern_keys_refuse_int64_overflow(lam):
    n = len(lam)
    with pytest.raises(DimensionOracleMismatch, match="int64"):
        irreps._pattern_keys(lam, np.zeros((0, n, n), dtype=np.int64))


def reference_anti_hermitian_residual(dpi):
    return float(max(np.linalg.norm(m + m.conj().T) for m in dpi)) if len(dpi) else 0.0


@pytest.mark.parametrize("count,dim", [(9, 5), (40, 20), (3, 130), (2, 300)])
def test_anti_hermitian_residual_equals_per_matrix_maximum(count, dim):
    gen = rng(count + dim)
    a = gen.normal(size=(count, dim, dim)) + 1j * gen.normal(size=(count, dim, dim))
    for dpi in (a, a - a.conj().swapaxes(1, 2) + 1e-6 * a):
        rep = irreps.Representation(algebra("u", 1), dpi)
        want = reference_anti_hermitian_residual(dpi)
        assert rep.anti_hermitian_residual() == pytest.approx(want, rel=1e-13)


def test_anti_hermitian_residual_is_zero_on_gelfand_tsetlin_irreps():
    for lam in [(10, 5, 0), (2, 1, 0, -1)]:
        assert irreps.irrep(algebra("u", len(lam)), lam).anti_hermitian_residual() == 0.0


def test_irrep_guards_raise_on_corrupted_construction(monkeypatch):
    g = algebra("u", 3)
    with monkeypatch.context() as m:
        m.setattr(irreps, "weyl_dim", lambda lam: 9)
        with pytest.raises(DimensionOracleMismatch, match="pattern count"):
            irreps.irrep(g, (2, 1, 0))
    # an image that is not anti-Hermitian: E_12 + E_21 in place of i(E_12 + E_21)
    basis = g.basis.copy()
    basis[4] = -1j * basis[4]
    bad = liealg.MatrixLieAlgebra(g.name, g.kind, g.n, basis, g.structure, g.cartan_indices)
    with pytest.raises(DimensionOracleMismatch, match="anti-Hermitian"):
        irreps.irrep(bad, (2, 1, 0))


def test_irrep_guard_raises_on_a_sign_dropped_molev_product(monkeypatch):
    # -|A B| under the square root: every off-diagonal entry is NaN
    exact_ratio = irreps._exact_ratio
    monkeypatch.setattr(irreps, "_exact_ratio", lambda num, den: np.abs(exact_ratio(num, den)))
    with np.errstate(invalid="ignore"), pytest.raises(DimensionOracleMismatch, match="anti-Hermitian"):
        irreps.irrep(algebra("u", 3), (2, 1, 0))


@pytest.mark.parametrize("residual", ["anti_hermitian_residual", "homomorphism_residual"])
def test_representation_residuals_are_nan_on_one_nan_entry(residual):
    dpi = cached_irrep("u", 3, (2, 1, 0)).dpi.copy()
    dpi[4, 2, 5] = np.nan
    assert math.isnan(getattr(Representation(algebra("u", 3), dpi), residual)())


@pytest.mark.parametrize("kind,lam", [
    ("u", (3, -1)), ("u", (0, 0)), ("u", (2, 0, -2)), ("u", (4, 1, 0)), ("u", (2, 1, -1, -3)),
    ("u", (1, 0, 0, 0)), ("u", (2, 1, 1, 0, -1)), ("su", (2, 1, 0)), ("su", (4, 1, 0)),
])
def test_irrep_guards_without_the_dense_residual(monkeypatch, kind, lam):
    def dense(self):
        raise AssertionError("irrep ran the dense anti-Hermitian pass")

    with monkeypatch.context() as m:
        m.setattr(Representation, "anti_hermitian_residual", dense)
        rep = irreps.irrep(algebra(kind, len(lam)), lam)
    assert rep.anti_hermitian_residual() == 0.0


def _with_e12_alone(scale):
    """u(3) with its basis element E_12 - E_21 replaced by scale * E_12."""
    g = algebra("u", 3)
    basis = g.basis.copy()
    basis[3] = 0.0
    basis[3, 0, 1] = scale
    return liealg.MatrixLieAlgebra(g.name, g.kind, g.n, basis, g.structure, g.cartan_indices)


def test_irrep_guard_reads_the_transposes_of_the_cells_it_wrote():
    # E_12 alone writes rho(E_12) and nothing on the transposed cells, where
    # dpi + dpi^* holds rho(E_21): half of its squared norm lies off the
    # written cells, so a guard on those alone would read 1/sqrt(2) of it
    lam = (2, 1, 0)
    with pytest.raises(DimensionOracleMismatch, match="anti-Hermitian"):
        irreps.irrep(_with_e12_alone(1.0), lam)
    _, (pair, _, _, val) = irreps._gt_generators(lam)
    per_unit = math.sqrt(2) * np.linalg.norm(val[pair == 1])  # dense residual of E_12
    threshold = 1e-9 * sum(lam)
    with pytest.raises(DimensionOracleMismatch, match="anti-Hermitian"):
        irreps.irrep(_with_e12_alone(1.2 * threshold / per_unit), lam)
    rep = irreps.irrep(_with_e12_alone(0.8 * threshold / per_unit), lam)
    assert rep.anti_hermitian_residual() == pytest.approx(0.8 * threshold, rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_irrep_guard_equals_the_dense_residual_on_any_basis(monkeypatch, seed):
    gen = rng(seed)
    n = 2 + seed % 3
    g = algebra("u", n)
    basis = g.basis.copy()
    for k in gen.choice(g.dim, size=2, replace=False):
        basis[k] = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
        basis[k][gen.random((n, n)) < 0.4] = 0.0
    bad = liealg.MatrixLieAlgebra(g.name, g.kind, g.n, basis, g.structure, g.cartan_indices)
    seen, written_gap = [], irreps._written_gap

    def recording(*args):
        seen.append(written_gap(*args))
        return 0.0

    monkeypatch.setattr(irreps, "_written_gap", recording)
    rep = irreps.irrep(bad, dominant_box(n, -1, 2)[seed])
    assert seen[0] > 0.0
    assert seen[0] == pytest.approx(rep.anti_hermitian_residual(), rel=1e-12)


def _cache_round_trip(g, tmp_path):
    cache = cli.IrrepCache(str(tmp_path))
    cache.store(cached_irrep("u", 3, (2, 1, 0)))
    return cache.load(g, (2, 1, 0))


CONSTRUCTORS = {
    "irrep": lambda g, _: irreps.irrep(g, (2, 1, 0)),
    "direct_sum": lambda g, _: irreps.direct_sum([cached_irrep("u", 3, (1, 0, 0)),
                                                  cached_irrep("u", 3, (1, 1, 0))]),
    "restrict": lambda g, _: irreps.restrict(cached_irrep("u", 3, (1, 0, 0)), np.eye(3)[:, ::-1]),
    "torus_character": lambda g, _: irreps.torus_character(g, (1, 0, -1)),
    "centralizer_irrep": lambda g, _: irreps.centralizer_irrep(g, [1, 1, 0], [(1, 0), (2,)]),
    "analyze pi0": lambda g, _: groundstate.analyze(
        cached_irrep("u", 3, (2, 1, 0)), liealg.diagonal_element(g, [1.0, 1.0, 0.0])).pi0,
    "decompose piece": lambda g, _: irreps.decompose(irreps.direct_sum(
        [cached_irrep("u", 3, (1, 0, 0))] * 2 + [cached_irrep("u", 3, (1, 1, 0))]))[0][0],
    "IrrepCache.load": _cache_round_trip,
}


@pytest.mark.parametrize("path", sorted(CONSTRUCTORS))
def test_every_constructor_gives_a_read_only_c_contiguous_dpi(path, tmp_path):
    rep = CONSTRUCTORS[path](algebra("u", 3), tmp_path)
    assert rep.dpi.dtype == complex and rep.dpi.flags.c_contiguous
    assert not rep.dpi.flags.writeable
    with pytest.raises(ValueError):
        rep.dpi[0, 0, 0] = 1.0


EMBEDDED = {
    "analyze pi0": CONSTRUCTORS["analyze pi0"],
    "torus_character": CONSTRUCTORS["torus_character"],
    "centralizer_irrep": CONSTRUCTORS["centralizer_irrep"],
    "restrict": lambda g, _: irreps.restrict(CONSTRUCTORS["centralizer_irrep"](g, _), np.eye(2)[:, ::-1]),
    "direct_sum": lambda g, _: irreps.direct_sum([irreps.torus_character(g, (1, 0, -1)),
                                                  irreps.torus_character(g, (0, 0, 2))]),
}


@pytest.mark.parametrize("path", sorted(EMBEDDED))
def test_every_embedding_is_read_only(path):
    rep = EMBEDDED[path](algebra("u", 3), None)
    assert rep.ambient_coeffs is not None and not rep.ambient_coeffs.flags.writeable
    with pytest.raises(ValueError):
        rep.ambient_coeffs[0, 0] = 1.0


def test_a_representation_freezes_its_embedding_in_place():
    chi = irreps.torus_character(algebra("u", 2), (1, 0))
    rows = chi.ambient_coeffs.copy()
    assert rows.flags.writeable
    assert Representation(chi.algebra, chi.dpi, ambient_coeffs=rows).ambient_coeffs is rows
    assert not rows.flags.writeable


def test_irrep_freezes_its_dpi_in_place(monkeypatch):
    given = []

    def recording(g, dpi, *args, **kwargs):
        given.append(dpi)
        return Representation(g, dpi, *args, **kwargs)

    monkeypatch.setattr(irreps, "Representation", recording)
    rep = irreps.irrep(algebra("u", 3), (3, 1, 0))
    assert rep.dpi is given[0]  # not a copy
    assert not given[0].flags.writeable


def test_a_representation_takes_its_dpi_as_given_or_converts_it():
    g = algebra("u", 2)
    dpi = np.zeros((g.dim, 2, 2), dtype=complex)
    assert Representation(g, dpi).dpi is dpi and not dpi.flags.writeable
    real = np.zeros((g.dim, 2, 2))
    rep = Representation(g, real)
    assert rep.dpi.dtype == complex and real.flags.writeable  # converted, so the input is left alone
