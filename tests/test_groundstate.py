import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsrep import cones, groundstate, irreps, liealg, matcore
from gsrep.matcore import DEFAULT_TOL

from conftest import D_LISTS, algebra, cached_irrep, dominant_box, fresh, su_dominant_box
from oracles import direct_sum_law, gt_sum_analysis, is_strict, splitting_condition
from test_commutant_frame import REDUCIBLE_D, reducible_cases


def heis_commuting_family():
    """Finite-dimensional skeleton of the non-strict example: the central
    generator and one translation act by zero, the other translation by a
    reducible pair of characters."""
    h = algebra("heis", 2)
    dpi = np.zeros((3, 2, 2), dtype=complex)
    dpi[2] = 1j * np.diag([1.0, 2.0])  # Y acts by two distinct characters
    return irreps.Representation(h, dpi)


def test_analyze_u3_defining_top_block():
    g = algebra("u", 3)
    rep = cached_irrep("u", 3, (1, 0, 0))
    out = groundstate.analyze(rep, liealg.diagonal_element(g, [1, 0, 0]))
    assert abs(out.m) <= 1e-10
    assert out.h0_dim == 2
    proj = out.h0_basis @ out.h0_basis.conj().T
    assert np.allclose(proj, np.diag([0, 1, 1]), atol=1e-10)
    assert out.ground_state and out.strict
    assert out.commutant_dims == (1, 1, 4)
    # the fixed-point action on the ground space is irreducible
    assert out.commutant_dims[1] == 1


def test_analyze_zero_derivation():
    g = algebra("u", 2)
    rep = cached_irrep("u", 2, (2, 0))
    out = groundstate.analyze(rep, np.zeros(g.dim))
    assert out.h0_dim == rep.dim
    assert out.ground_state and out.strict


def test_analyze_block_sum_with_trivial():
    g = algebra("u", 2)
    rep = irreps.direct_sum([cached_irrep("u", 2, (1, 0)), cached_irrep("u", 2, (0, 0))])
    out = groundstate.analyze(rep, liealg.diagonal_element(g, [1, 0]))
    assert abs(out.m) <= 1e-10
    assert out.h0_dim == 2
    assert out.ground_state
    assert sorted(out.central_shifts) == [0.0, 0.0]


def test_analyze_blockwise_shift():
    # defining + determinant character: the two central blocks have minimal
    # energies 0 and 1; the ground space collects both kernels
    g = algebra("u", 2)
    rep = irreps.direct_sum([cached_irrep("u", 2, (1, 0)), cached_irrep("u", 2, (1, 1))])
    out = groundstate.analyze(rep, liealg.diagonal_element(g, [1, 0]))
    assert out.h0_dim == 2
    assert sorted(out.central_shifts) == [0.0, 1.0]
    assert out.ground_state


def test_strict_method_agreement_small_fixtures():
    cases = [
        ("u", 2, (1, 0), [1.0, 0.0]),
        ("u", 2, (2, 0), [2.0, 1.0]),
        ("u", 3, (1, 0, 0), [1.0, 0.0, 0.0]),
        ("u", 3, (1, 1, 0), [1.0, 1.0, 0.0]),
        ("su", 3, (2, 1, 0), [1.0, 0.0, -1.0]),
    ]
    for kind, n, lam, entries in cases:
        g = algebra(kind, n)
        rep = cached_irrep(kind, n, lam)
        d = liealg.diagonal_element(g, entries)
        fast = groundstate.analyze(rep, d)
        slow = fast.ground_state and is_strict(rep, fast)
        assert fast.strict == slow


def test_non_strict_commuting_family():
    # ground state (the Hamiltonian vanishes) but the compressed algebra of
    # the whole group strictly contains the fixed-point algebra
    rep = heis_commuting_family()
    d = np.array([0.0, 1.0, 0.0])  # the translation acting by zero
    out = groundstate.analyze(rep, d)
    assert out.ground_state
    assert out.h0_dim == 2
    assert not out.strict
    assert out.commutant_dims[1] == 4  # everything commutes with pi0
    assert out.commutant_dims[2] == 2  # the corner algebra is the diagonal
    # the literal algebra-comparison route agrees
    assert is_strict(rep, out) is False
    # and the representation fails the splitting condition, as expected
    assert splitting_condition(rep.algebra, d) is False


def test_direct_sum_law():
    g = algebra("u", 2)
    d = liealg.diagonal_element(g, [1, 0])
    defining = cached_irrep("u", 2, (1, 0))
    det = cached_irrep("u", 2, (1, 1))
    assert direct_sum_law([defining, defining], d)
    assert direct_sum_law([defining, det], d)
    assert direct_sum_law([], d)


def test_direct_sum_law_irrep_mix():
    g = algebra("u", 2)
    d = liealg.diagonal_element(g, [2, 1])
    reps = [cached_irrep("u", 2, lam) for lam in [(1, 0), (2, 0), (1, 1), (0, -1)]]
    assert direct_sum_law(reps, d)


def test_spectral_translation_single_steps():
    g = algebra("u", 3)
    rep = cached_irrep("u", 3, (1, 0, 0))
    d = liealg.diagonal_element(g, [1, 0, 0])
    # raising by one energy quantum stays inside the spectral ladder
    assert groundstate.spectral_translation_check(rep, d, 1.0, 0.0)
    # lowering out of the minimal space gives zero, trivially contained
    assert groundstate.spectral_translation_check(rep, d, -1.0, 0.0)
    # the zero class preserves every spectral subspace
    assert groundstate.spectral_translation_check(rep, d, 0.0, 1.0)


def test_spectral_translation_lowering_annihilates_ground_space():
    g = algebra("u", 3)
    rep = cached_irrep("u", 3, (1, 0, 0))
    d = liealg.diagonal_element(g, [1, 0, 0])
    dd = liealg.spectral_split(g, d)
    H = -1j * rep.operator(d)
    ground = liealg.spectral_subspace(H, 0.0)
    for lam, space in dd.spaces(lambda l: l.real < -1e-8):
        for k in range(space.shape[1]):
            op = rep.operator(space[:, k])
            assert np.linalg.norm(op @ ground) <= 1e-9


def test_spectral_translation_full_grid():
    g = algebra("u", 3)
    rep = cached_irrep("u", 3, (2, 1, 0))
    d = liealg.diagonal_element(g, [1, 0, 0])
    dd = liealg.spectral_split(g, d)
    H = -1j * rep.operator(d)
    energies = sorted(set(np.round(np.linalg.eigvalsh(H), 8)))
    for lam in dd.eigenvalues:
        for f in energies:
            assert groundstate.spectral_translation_check(rep, d, float(lam.real), float(f))


# ---------------------------------------------------------------------------
# structural sweeps (subsets; the full versions run in the acceptance suite)


def fixtures(kind, n, lo=-1, hi=1):
    g = algebra(kind, n)
    box = dominant_box(n, lo, hi) if kind == "u" else su_dominant_box(n, lo, hi)
    for lam in box:
        yield g, cached_irrep(kind, n, lam)


def test_every_compact_fixture_is_strict_ground_state():
    for kind, n in (("u", 2), ("su", 3)):
        for g, rep in fixtures(kind, n):
            for entries in D_LISTS[(kind, n)][:3]:
                out = groundstate.analyze(rep, liealg.diagonal_element(g, entries))
                assert out.ground_state and out.strict


def test_ground_state_fixtures_pass_cone_positivity():
    for kind, n in (("u", 2), ("u", 3)):
        for g, rep in fixtures(kind, n):
            for entries in D_LISTS[(kind, n)][:3]:
                d = liealg.diagonal_element(g, entries)
                out = groundstate.analyze(rep, d)
                assert out.ground_state
                dd = liealg.spectral_split(g, d)
                assert cones.check_cone_positivity(g, dd, out.pi0).verdict


def test_commutant_restriction_is_bijective():
    # compressing the commutant of pi(G) to the ground space preserves its
    # dimension for every ground-state fixture (the restriction map is a
    # bijection onto the commutant of the corner algebra)
    from gsrep import matcore

    for g, rep in fixtures("u", 2, -1, 2):
        for entries in D_LISTS[("u", 2)]:
            out = groundstate.analyze(rep, liealg.diagonal_element(g, entries))
            assert out.ground_state
            comm = matcore.commutant_basis(rep.dpi)
            compressed = matcore.compress(out.h0_basis, comm)
            assert compressed.rank == comm.rank
            # and (corner)'' = corner: its dimension is reported in the slot
            corner_comm = matcore.commutant_basis(
                compressed.basis
            )
            assert corner_comm.rank == out.commutant_dims[2]


def test_pi0_irreducible_for_irreducible_pi():
    for kind, n in (("u", 3), ("su", 3)):
        for g, rep in fixtures(kind, n):
            for entries in D_LISTS[(kind, n)][1:3]:
                out = groundstate.analyze(rep, liealg.diagonal_element(g, entries))
                assert out.commutant_dims[1] == 1


def test_distinct_irreps_have_distinct_ground_characters():
    g = algebra("u", 2)
    d = liealg.diagonal_element(g, [2, 1])
    seen = {}
    for lam in dominant_box(2, -2, 2):
        rep = cached_irrep("u", 2, lam)
        out = groundstate.analyze(rep, d)
        key = tuple(sorted(irreps.weights_of(irreps.restrict(rep, out.h0_basis))))
        assert key not in seen, f"{lam} and {seen.get(key)} share a ground character"
        seen[key] = lam


def test_distinct_irreps_distinct_ground_characters_singular_u3():
    # the passage to the ground-space action is injective also for a
    # singular generator: weight multisets of H0 separate the fixtures
    g = algebra("u", 3)
    d = liealg.diagonal_element(g, [1, 0, 0])
    seen = {}
    for lam in dominant_box(3, -1, 1):
        rep = cached_irrep("u", 3, lam)
        out = groundstate.analyze(rep, d)
        key = tuple(sorted(irreps.weights_of(irreps.restrict(rep, out.h0_basis))))
        assert key not in seen, f"{lam} and {seen.get(key)} share a ground character"
        seen[key] = lam


def test_spectral_translation_interval_unions():
    g = algebra("u", 3)
    rep = cached_irrep("u", 3, (1, 0, 0))
    d = liealg.diagonal_element(g, [1, 0, 0])
    assert groundstate.spectral_translation_check(rep, d, [(0.5, 1.5)], [(-0.5, 0.5)])
    assert groundstate.spectral_translation_check(rep, d, [(-2.0, -0.5), (0.5, 2.0)], 0.0)


def test_cartan_weyl_recovery_u2():
    g = algebra("u", 2)
    d = liealg.diagonal_element(g, [2, 1])
    rd = liealg.root_datum(g, d)
    antidominant = {
        lam
        for lam in itertools.product(range(-3, 4), repeat=2)
        if cones.coroot_condition(irreps.torus_character(g, lam), rd)
    }
    lowest = set()
    for lam in dominant_box(2, -3, 3):
        lowest.add(irreps.extremal_weight(cached_irrep("u", 2, lam), rd, "lowest"))
    assert antidominant == lowest


@pytest.mark.parametrize("kind,lam,entries,m", [
    ("su", (2, 1, 0), (1, 0, -1), -2.0),
    ("u", (3, 1, 0, 0), (1, 0, 0, 0), 0.0),
    ("u", (2, 0, -2), (2, 1, 0), -4.0),
])
def test_ground_energy_is_exact_in_gelfand_tsetlin_basis(kind, lam, entries, m):
    g = algebra(kind, len(lam))
    out = groundstate.analyze(irreps.irrep(g, lam), liealg.diagonal_element(g, entries))
    assert out.m == m


@pytest.mark.parametrize("kind,lam,entries", [
    ("u", (3, 1, 0), (2, 1, 0)),  # H0 is a line
    ("u", (3, 1, 0), (1, 0, 0)),  # H0 of dimension 3
    ("u", (3, 1, 0), (0, 0, 0)),  # H0 is all of H
    ("su", (2, 1, 0), (1, 0, -1)),
    ("u", (3, 1, 0, 0), (1, 1, 0, 0)),
])
def test_analyze_at_a_cartan_d_runs_no_eigh_on_h(monkeypatch, kind, lam, entries):
    # the Gelfand-Tsetlin basis is a weight basis, so H = -i dpi(d) is diagonal
    g = algebra(kind, len(lam))
    rep = cached_irrep(kind, len(lam), lam)
    d = liealg.diagonal_element(g, entries)
    want = groundstate.analyze(rep, d)  # fills the memos of (g, d) and of rep
    shapes, real = [], np.linalg.eigh

    def spying(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spying)
    out = groundstate.analyze(rep, d)
    assert (rep.dim, rep.dim) not in shapes
    assert out.m == want.m and out.window == want.window
    assert out.h0_basis.tobytes() == want.h0_basis.tobytes()
    assert set(np.unique(out.h0_basis)) <= {0.0, 1.0}  # identity columns


def _dense_eigh(H, tol=None):
    """One LAPACK solve of the Hermitian part, as the per-block spectra and the split took it before eig_frame."""
    w, v = np.linalg.eigh((H + H.conj().T) / 2.0)
    return w, v, None


def _projector(Q):
    return Q @ Q.conj().T


def test_per_block_spectra_and_the_split_decide_as_a_dense_eigh(monkeypatch):
    for rep, d in reducible_cases():
        out = groundstate.analyze(rep, d)
        comm, blocks, mults = irreps.commutant(rep)
        fix = liealg.fixed_point_data(rep.algebra, d, DEFAULT_TOL)
        H = -1j * rep.operator(d if fix.central is None else fix.central)
        w, v, _ = matcore.eig_frame(H, 1e-8)
        h0, shifts, counts = groundstate._ground_space(H, w, v, blocks, out.window)
        with monkeypatch.context() as patch:
            patch.setattr(matcore, "eig_frame", _dense_eigh)
            patch.setattr(groundstate, "eig_frame", _dense_eigh)
            classes = matcore.isotypic_split(comm, DEFAULT_TOL) if comm.rank > 1 else []
            want_blocks = [np.hstack(c) for c in classes]
            want_h0, want_shifts, want_counts = groundstate._ground_space(H, w, v, want_blocks, out.window)
        assert mults == (tuple(len(c) for c in classes) or (1,))
        assert len(blocks) == len(want_blocks)
        for Q, P in zip(blocks, want_blocks):
            assert np.allclose(_projector(Q), _projector(P), atol=1e-10)
        assert counts == want_counts and sum(counts) == out.h0_dim
        assert tuple(shifts) == out.central_shifts
        assert np.allclose(shifts, want_shifts, rtol=0, atol=1e-12 * max(1.0, float(np.abs(w).max())))
        assert np.allclose(_projector(h0), _projector(want_h0), atol=1e-10)


@pytest.mark.parametrize("summands", [((2, 0), (1, 0)), ((2, 1), (0, 0), (1, 0))])
def test_analyze_on_a_sum_with_a_diagonal_commutant_takes_no_eigh(lapack_calls, summands):
    # inequivalent summands whose blocks the torus separates: every element of pi(G)' is diagonal,
    # so the split's element and each block's H are read by eig_frame with no solver
    g = algebra("u", 2)
    rep = irreps.direct_sum([cached_irrep("u", 2, lam) for lam in summands])
    lapack_calls["eigh"] = 0
    for entries in REDUCIBLE_D[2]:
        out = groundstate.analyze(fresh(rep), liealg.diagonal_element(g, entries))
        assert out.commutant_dims[0] == len(summands)
    assert lapack_calls["eigh"] == 0


# ---------------------------------------------------------------------------
# every field of analyze on Gelfand-Tsetlin sums, against the closed form


def assert_closed_form(summands, entries, rep=None):
    n = len(entries)
    rep = rep or irreps.direct_sum([cached_irrep("u", n, lam) for lam in summands])
    out = groundstate.analyze(rep, liealg.diagonal_element(algebra("u", n), entries))
    want = gt_sum_analysis(summands, entries)
    assert abs(out.m - want["m"]) <= 1e-9
    assert (out.h0_dim, out.commutant_dims, out.ground_state, out.strict) == (
        want["h0_dim"], want["commutant_dims"], want["ground_state"], want["strict"])
    assert irreps.weights_of(irreps.restrict(rep, out.h0_basis)) == want["h0_weights"]
    assert np.allclose(sorted(out.central_shifts), want["central_shifts"], rtol=0, atol=1e-9)


@st.composite
def gt_sums(draw):
    """A u(2)-u(4) sum of 1-3 distinct irreducibles, each once or twice, of dimension <= 60,
    and diagonal entries from {-2, ..., 2}, so equal or at least 1 apart."""
    n = draw(st.sampled_from([2, 3, 4]))
    small = [lam for lam in dominant_box(n, -2, 2) if irreps.weyl_dim(lam) <= 30]
    distinct = draw(st.lists(st.sampled_from(small), min_size=1, max_size=3, unique=True))
    summands = [lam for lam in distinct for _ in range(draw(st.integers(1, 2)))]
    while sum(map(irreps.weyl_dim, summands)) > 60:
        summands.pop()
    return summands, tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(gt_sums())
def test_analyze_on_gelfand_tsetlin_sums_is_the_closed_form(case):
    assert_closed_form(*case)


@pytest.mark.parametrize("lam", [(6, 3, 0), (10, 5, 0)])
def test_analyze_on_large_irreducibles_is_the_closed_form(lam):
    rep = fresh(cached_irrep("u", 3, lam))
    for entries in ((0, 0, 0), (1, 0, 0)):
        assert_closed_form([lam], entries, rep)
