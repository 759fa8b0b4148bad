import itertools

import numpy as np
import pytest

from gsrep import cones, groundstate, irreps, liealg, matcore
from gsrep.errors import NotDiagonalizable, NotHermitian

from conftest import algebra, cached_irrep, dominant_box, rng


def split(kind, n, entries):
    g = algebra(kind, n)
    d = liealg.diagonal_element(g, entries)
    return g, d, liealg.spectral_split(g, d)


def test_generators_u3_distinct_differences():
    # one generator per ordered pair with d_n > d_m, namely i(E_mm - E_nn)
    g, d, dd = split("u", 3, [4, 2, 1])
    cone = cones.action_cone_generators(g, dd)
    assert cone.size == 3
    got = set()
    for gen in cone.generators:
        mat = g.matrix(gen)
        diag = np.diag(-1j * mat).real
        scale = np.abs(diag).max()
        got.add(tuple(np.round(diag / scale).astype(int)))
    assert got == {(-1, 1, 0), (-1, 0, 1), (0, -1, 1)}


def test_generators_u3_coincident_differences_stay_in_pair_cone():
    # d = (2,1,0) has a two-dimensional eigenspace at eigenvalue 1; every
    # generator must still be a non-negative combination of the pair rays
    from scipy.optimize import nnls

    g, d, dd = split("u", 3, [2, 1, 0])
    cone = cones.action_cone_generators(g, dd)
    rays = np.array([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]], dtype=float).T
    assert cone.size >= 3
    for gen in cone.generators:
        mat = -1j * g.matrix(gen)
        diag = np.diag(mat).real
        assert np.linalg.norm(mat - np.diag(np.diag(mat))) < 1e-9
        assert np.allclose(diag.sum(), 0, atol=1e-9)
        _, resid = nnls(rays, diag)
        assert resid < 1e-8


def test_generators_empty_for_zero_element():
    g, d, dd = split("u", 2, [0, 0])
    cone = cones.action_cone_generators(g, dd)
    assert cone.size == 0


def test_generator_su2_is_negative_coroot_direction():
    # [e^*, e] = [f, e] = -h for the standard raising/lowering pair
    g, d, dd = split("su", 2, [0.5, -0.5])
    cone = cones.action_cone_generators(g, dd)
    assert cone.size == 1
    gen = cone.generators[0]
    assert gen[0] < 0 and np.allclose(gen[1:], 0)


def test_generators_require_diagonalizable():
    h = algebra("heis", 2)
    D = np.zeros((3, 3))
    D[0, 2] = 1.0  # ad of the X direction: Y -> Z, nilpotent
    dd = liealg.spectral_split(h, D)
    assert not dd.diagonalizable
    with pytest.raises(NotDiagonalizable):
        cones.action_cone_generators(h, dd)


def test_generators_pair_negatively_with_d():
    # the cone points away from the generating direction: the trace pairing
    # tr((-i d)(-i gen)) equals d_m - d_n < 0 for every generator
    g, d, dd = split("u", 3, [2, 1, 0])
    cone = cones.action_cone_generators(g, dd)
    dmat = -1j * g.matrix(d)
    for gen in cone.generators:
        pairing = np.trace(dmat @ (-1j * g.matrix(gen))).real
        assert pairing < -1e-9


def test_positive_cone_membership_defining_u2():
    g = algebra("u", 2)
    rep = cached_irrep("u", 2, (1, 0))
    x = liealg.diagonal_element(g, [1, 0])
    assert cones.in_positive_cone(rep, x)
    assert not cones.in_positive_cone(rep, -x)


def test_positive_cone_trivial_rep():
    rep = cached_irrep("u", 2, (0, 0))
    g = algebra("u", 2)
    generator = rng(3)
    for _ in range(4):
        assert cones.in_positive_cone(rep, generator.normal(size=g.dim))


def test_cone_positivity_defining_u3_compression():
    # compression of the defining action to its low block is extendable
    g, d, dd = split("u", 3, [1, 0, 0])
    pi0 = irreps.centralizer_irrep(g, [1, 0, 0], [(0,), (1, 0)])
    res = cones.check_cone_positivity(g, dd, pi0)
    assert res.verdict
    assert res.sampled  # the positive eigenspace is 2-dimensional


def test_cone_positivity_failure_with_witness():
    g, d, dd = split("u", 3, [1, 0, 0])
    chi = irreps.centralizer_irrep(g, [1, 0, 0], [(1,), (0, 0)])
    res = cones.check_cone_positivity(g, dd, chi)
    assert not res.verdict
    assert res.witness is not None
    # the witness pairs negatively: -i dpi0 of it has a negative eigenvalue
    local, outside = chi.local_coeffs(res.witness)
    assert not outside
    op = -1j * chi.operator(local)
    assert np.linalg.eigvalsh(op).min() < -1e-9


def test_cone_positivity_zero_derivation():
    g, d, dd = split("u", 2, [0, 0])
    chi = irreps.torus_character(g, (-3, 5))
    assert cones.check_cone_positivity(g, dd, chi).verdict


def test_coroot_condition_examples():
    g = algebra("u", 2)
    rd = liealg.root_datum(g, liealg.diagonal_element(g, [1, 0]))
    assert cones.coroot_condition(irreps.torus_character(g, (0, 1)), rd)
    assert not cones.coroot_condition(irreps.torus_character(g, (1, 0)), rd)
    rd0 = liealg.root_datum(g, liealg.diagonal_element(g, [0, 0]))
    assert cones.coroot_condition(irreps.torus_character(g, (1, 0)), rd0)


@pytest.mark.parametrize("entries", [(2.0, 1.0), (1.0, 3.0)])
def test_equivalence_cone_vs_coroot_regular_u2(entries):
    g, d, dd = split("u", 2, entries)
    rd = liealg.root_datum(g, d)
    for lam in itertools.product(range(-3, 4), repeat=2):
        chi = irreps.torus_character(g, lam)
        assert cones.check_cone_positivity(g, dd, chi).verdict == cones.coroot_condition(chi, rd)


def test_equivalence_cone_vs_coroot_regular_u3():
    g, d, dd = split("u", 3, (2.0, 1.0, 0.0))
    rd = liealg.root_datum(g, d)
    for lam in itertools.product(range(-2, 3), repeat=3):
        chi = irreps.torus_character(g, lam)
        assert cones.check_cone_positivity(g, dd, chi).verdict == cones.coroot_condition(chi, rd)


def test_equivalence_cone_vs_coroot_singular_u3():
    # fixed-point algebra u(1) + u(2): irreducibles are block pairs
    g, d, dd = split("u", 3, (1.0, 0.0, 0.0))
    rd = liealg.root_datum(g, d)
    for a in range(-2, 3):
        for bw in dominant_box(2, -2, 2):
            pi0 = irreps.centralizer_irrep(g, [1, 0, 0], [(a,), bw])
            assert (cones.check_cone_positivity(g, dd, pi0).verdict
                    == cones.coroot_condition(pi0, rd))


def test_equivalence_cone_vs_coroot_regular_su3():
    g = algebra("su", 3)
    d = liealg.diagonal_element(g, [1.3, 0.2, -1.5])
    dd = liealg.spectral_split(g, d)
    rd = liealg.root_datum(g, d)
    for lam in itertools.product(range(-2, 3), repeat=2):
        chi = irreps.torus_character(g, lam)
        assert cones.check_cone_positivity(g, dd, chi).verdict == cones.coroot_condition(chi, rd)


def test_scale_invariance_of_verdicts():
    g = algebra("u", 2)
    for lam in [(0, 1), (1, 0), (2, -1), (-1, -1)]:
        chi = irreps.torus_character(g, lam)
        verdicts = []
        for c in (1.0, 2.0, 7.5):
            d = liealg.diagonal_element(g, [3 * c, 1 * c])
            dd = liealg.spectral_split(g, d)
            verdicts.append(cones.check_cone_positivity(g, dd, chi).verdict)
        assert len(set(verdicts)) == 1


# ---------------------------------------------------------------------------
# the batched PSD decision against the per-generator loop it replaced


def loop_bracket(g, z, tol=1e-9):
    gen = 1j * g.bracket(g.star(z), z)
    if np.linalg.norm(gen.imag) > tol * max(1.0, np.linalg.norm(gen)):
        raise ValueError("cone generator is not a real element")
    return gen.real


def ambient_operator(rep0, x):
    """dpi0 of an element in ambient coordinates; ValueError outside the subalgebra."""
    local, outside = rep0.local_coeffs(np.asarray(x, dtype=complex))
    if outside:
        raise ValueError("element does not lie in the represented subalgebra")
    return rep0.operator(local)


def loop_in_positive_cone(rep0, x, tol=cones.PSD_TOL):
    op = -1j * ambient_operator(rep0, x)
    w, _ = matcore.eig_hermitian(op, 1e-7)
    return bool(w[0] >= -tol * (1.0 + float(np.linalg.norm(op))))


def loop_coroot_condition(rep0, rd, tol=cones.PSD_TOL):
    for idx in rd.delta_plus_plus:
        op = -1j * ambient_operator(rep0, rd.coroots[idx])
        w, _ = matcore.eig_hermitian(op, 1e-7)
        if w[-1] > tol * (1.0 + float(np.linalg.norm(op))):
            return False
    return True


def loop_cone_positivity(g, dd, rep0, tol=cones.PSD_TOL, samples=32, seed=0):
    """One generator and one eigendecomposition at a time, in generator order."""
    gens, prov = [], []
    for lam, space in dd.positive():
        r = space.shape[1]
        for a in range(r):
            gens.append(loop_bracket(g, space[:, a]))
            prov.append(("basis", float(lam.real), a))
        for a in range(r):
            for b in range(a + 1, r):
                for phase in (1.0, 1.0j):
                    z = (space[:, a] + phase * space[:, b]) / np.sqrt(2.0)
                    gens.append(loop_bracket(g, z))
                    prov.append(("mixed", float(lam.real), a, b, "i" if phase == 1.0j else "1"))
    checked = 0
    for gen, tag in zip(gens, prov):
        checked += 1
        if not loop_in_positive_cone(rep0, gen, tol):
            return cones.ConeTestResult(False, gen, tag, sampled=False, checked=checked)
    sampled = False
    generator = np.random.default_rng(seed)
    for lam, space in dd.positive():
        r = space.shape[1]
        if r <= 1:
            continue
        sampled = True
        for s in range(samples):
            raw = generator.normal(size=r) + 1j * generator.normal(size=r)
            gen = loop_bracket(g, space @ (raw / np.linalg.norm(raw)))
            checked += 1
            if not loop_in_positive_cone(rep0, gen, tol):
                return cones.ConeTestResult(False, gen, ("sample", float(lam.real), s),
                                            sampled=True, checked=checked)
    return cones.ConeTestResult(True, sampled=sampled, checked=checked)


def assert_same_result(got, want):
    assert got.verdict == want.verdict
    assert got.checked == want.checked
    assert got.sampled == want.sampled
    assert got.witness_provenance == want.witness_provenance
    if want.witness is None:
        assert got.witness is None
    else:
        assert got.witness.dtype == want.witness.dtype
        assert got.witness.tobytes() == want.witness.tobytes()


@pytest.mark.parametrize("entries", [(2, 1), (3, 1), (2, 1, 0), (3, 1, 0)])
def test_batched_cone_matches_loop_on_torus_characters(entries):
    n = len(entries)
    g, d, dd = split("u", n, entries)
    rd = liealg.root_datum(g, d)
    verdicts = set()
    for lam in itertools.product(range(-2, 3), repeat=n):
        chi = irreps.torus_character(g, lam)
        want = loop_cone_positivity(g, dd, chi)
        assert_same_result(cones.check_cone_positivity(g, dd, chi), want)
        assert cones.coroot_condition(chi, rd) == loop_coroot_condition(chi, rd)
        verdicts.add(want.verdict)
    assert verdicts == {True, False}  # witnesses were compared too


def test_batched_cone_matches_loop_on_failing_centralizer_irrep():
    g, d, dd = split("u", 3, [1, 0, 0])
    chi = irreps.centralizer_irrep(g, [1, 0, 0], [(1,), (0, 0)])
    want = loop_cone_positivity(g, dd, chi)
    assert not want.verdict
    assert_same_result(cones.check_cone_positivity(g, dd, chi), want)


def sample_first_fixture():
    """A one-dimensional rep0 of u(1) + u(2) in u(3), at d = (1, 0, 0), whose
    Hermitian form on the two-dimensional eigenspace takes the values 1, 1
    on the basis generators and 1.9, 1.9 on the mixed ones.  Its
    off-diagonal entry then has modulus 0.9 * sqrt(2) > 1, so the form is
    indefinite and only a sample can fail."""
    g, d, dd = split("u", 3, [1, 0, 0])
    rows = liealg.centralizer_basis(g, d)
    gens = cones.action_cone_generators(g, dd).generators
    assert gens.shape[0] == 4  # two basis and two mixed generators
    phi, *_ = np.linalg.lstsq(gens @ rows.T, [1.0, 1.0, 1.9, 1.9], rcond=None)
    sub = liealg.subalgebra(g, rows)
    rep0 = irreps.Representation(sub, (1j * phi).reshape(-1, 1, 1), ambient_coeffs=rows)
    return g, dd, rep0


def test_batched_cone_matches_loop_when_a_sample_fails_first():
    g, dd, rep0 = sample_first_fixture()
    want = loop_cone_positivity(g, dd, rep0)
    assert not want.verdict
    assert want.witness_provenance[0] == "sample"
    assert_same_result(cones.check_cone_positivity(g, dd, rep0), want)


@pytest.mark.parametrize("samples,seed", [(32, 0), (32, 3), (7, 0), (1, 5), (0, 0), (32, 0)])
def test_memoized_samples_follow_samples_and_seed(samples, seed):
    # every run shares the memo of one (g, d); a different sample count or
    # seed must not read another's samples, and a repeat reads its own
    g, dd, failing = sample_first_fixture()
    passing = groundstate.analyze(cached_irrep("u", 3, (2, 1, 0)), dd.element).pi0
    for rep0 in (failing, passing):
        want = loop_cone_positivity(g, dd, rep0, samples=samples, seed=seed)
        assert_same_result(cones.check_cone_positivity(g, dd, rep0, samples=samples, seed=seed), want)
        assert want.sampled


def test_batched_cone_rejects_non_anti_hermitian_rep0():
    g, d, dd = split("u", 3, [2, 1, 0])
    chi = irreps.torus_character(g, (0, 1, 2))
    bad = irreps.Representation(chi.algebra, chi.dpi.imag.astype(complex),
                                ambient_coeffs=chi.ambient_coeffs)
    for check in (loop_cone_positivity, cones.check_cone_positivity):
        with pytest.raises(NotHermitian):
            check(g, dd, bad)
    with pytest.raises(NotHermitian):
        cones.coroot_condition(bad, liealg.root_datum(g, d))
    with pytest.raises(NotHermitian):
        cones.in_positive_cone(bad, liealg.diagonal_element(g, [0, 0, 1]))


def test_batched_cone_rejects_elements_outside_the_subalgebra():
    g = algebra("u", 3)
    chi = irreps.torus_character(g, (0, 0, 0))
    off_diagonal = np.eye(g.dim)[3]
    with pytest.raises(ValueError, match="represented subalgebra"):
        cones.in_positive_cone(chi, off_diagonal)
    # at d = (1, 0, 0) the mixed generators leave the torus
    _, _, dd = split("u", 3, [1, 0, 0])
    for check in (loop_cone_positivity, cones.check_cone_positivity):
        with pytest.raises(ValueError, match="represented subalgebra"):
            check(g, dd, chi)


def test_cone_positivity_runs_one_eigvalsh_per_stack(lapack_calls):
    # a per-generator eigensolver must not come back: one eigvalsh for the
    # one stack of the stored generators and every sample, and no eigh; a
    # diagonal stack, such as any stack on a line H0, takes none
    for entries, h0_dim, eigvalsh_calls in (([2, 1, 0], 1, 0), ([1, 0, 0], 2, 1)):
        g, d, dd = split("u", 3, entries)
        pi0 = groundstate.analyze(cached_irrep("u", 3, (2, 1, 0)), d).pi0
        assert pi0.dim == h0_dim
        lapack_calls.update(eigh=0, eigvalsh=0)
        res = cones.check_cone_positivity(g, dd, pi0)
        assert res.verdict and res.sampled
        sampled_spaces = sum(space.shape[1] > 1 for _, space in dd.positive())
        assert sampled_spaces == 1
        assert (lapack_calls["eigh"], lapack_calls["eigvalsh"]) == (0, eigvalsh_calls)


def eigvalsh_first_outside_psd(rep0, xs, outside, tol):
    """``cones._first_outside_psd`` with every stack through one ``eigvalsh``."""
    ops = -1j * np.einsum("gi,ijk->gjk", xs, rep0.dpi)
    adj = ops.conj().transpose(0, 2, 1)
    norms = cones._frobenius(ops)
    lowest = np.linalg.eigvalsh((ops + adj) / 2.0)[:, 0]
    nonherm = cones._frobenius(ops - adj) > 1e-7 * np.maximum(norms, 1.0)
    failing = np.flatnonzero(outside | nonherm | (lowest < -tol * (1.0 + norms)))
    if failing.size == 0:
        return None
    k = int(failing[0])
    if outside[k]:
        raise ValueError("element does not lie in the represented subalgebra")
    if nonherm[k]:
        raise NotHermitian("deviation exceeds tolerance")
    return k


def outcome(check, *args):
    try:
        return check(*args)
    except (ValueError, NotHermitian) as exc:
        return type(exc)


def diagonal_stack(gen, count, r):
    """Diagonals of ``count`` operators -i dpi0(x): small integers, so with ties, and on
    about a third of them one entry just either side of the PSD or the Hermiticity bound."""
    vals = gen.integers(0, 4, size=(count, r)).astype(complex)
    outside = gen.random(count) < 0.05
    for k in np.flatnonzero(gen.random(count) < 0.35):
        j, side = gen.integers(r), 1.0 + gen.choice([-1e-6, 1e-6])
        vals[k, j] = 0.0
        norm = np.linalg.norm(vals[k])
        if gen.random() < 0.5:
            vals[k, j] = -side * cones.PSD_TOL * (1.0 + norm)
        else:  # ||op - op^*|| = 2 |Im| against 1e-7 max(||op||, 1)
            vals[k, j] += 1j * side * 0.5e-7 * max(norm, 1.0)
    return vals, outside


@pytest.mark.parametrize("seed", range(16))
def test_diagonal_stack_read_decides_as_eigvalsh(seed, lapack_calls):
    gen = rng(seed)
    g = algebra("u", 4)
    r = int(gen.integers(1, 6))
    vals, outside = diagonal_stack(gen, g.dim, r)
    rep0 = irreps.Representation(g, 1j * np.einsum("kj,jl->kjl", vals, np.eye(r)))
    xs = np.eye(g.dim, dtype=complex)[gen.permutation(g.dim)]
    outside = outside[gen.permutation(g.dim)]
    ops = -1j * np.einsum("gi,ijk->gjk", xs, rep0.dpi)
    assert np.count_nonzero(ops) == np.count_nonzero(np.diagonal(ops, axis1=1, axis2=2))
    got = outcome(cones._first_outside_psd, rep0, xs, outside, cones.PSD_TOL)
    assert lapack_calls["eigvalsh"] == 0  # read off the diagonal
    assert got == outcome(eigvalsh_first_outside_psd, rep0, xs, outside, cones.PSD_TOL)


# ---------------------------------------------------------------------------
# the stack's local rows, memoized on rep0's algebra


def on_fresh_algebra(g, rep0):
    """rep0 over a new subalgebra with the same rows, so with an empty memo."""
    return irreps.Representation(liealg.subalgebra(g, rep0.ambient_coeffs), rep0.dpi,
                                 ambient_coeffs=rep0.ambient_coeffs)


def passing_pi0():
    g, d, dd = split("u", 3, [2, 1, 0])
    return g, dd, groundstate.analyze(cached_irrep("u", 3, (2, 1, 0)), d).pi0


@pytest.mark.parametrize("fixture", [passing_pi0, sample_first_fixture])
def test_cone_result_is_the_same_cold_warm_and_on_a_fresh_algebra(fixture):
    g, dd, rep0 = fixture()
    want = loop_cone_positivity(g, dd, rep0)
    assert want.verdict == (fixture is passing_pi0)
    fresh = on_fresh_algebra(g, rep0)
    for r in (fresh, fresh, rep0, rep0):  # cold, then warm, on each algebra
        assert_same_result(cones.check_cone_positivity(g, dd, r), want)


def counting_local_coeffs(monkeypatch):
    calls = []
    real = irreps.Representation.local_coeffs

    def counting(self, coeffs):
        calls.append(len(coeffs))
        return real(self, coeffs)

    monkeypatch.setattr(irreps.Representation, "local_coeffs", counting)
    return calls


def test_a_warm_cone_test_maps_no_rows(monkeypatch):
    # every analyze builds a new pi0 over the g0 and rows the (g, d) memo keeps
    g, dd, rep0 = passing_pi0()
    want = cones.check_cone_positivity(g, dd, rep0)

    def raising(self, coeffs):
        raise AssertionError("a warm cone test mapped its stack again")

    monkeypatch.setattr(irreps.Representation, "local_coeffs", raising)
    again = groundstate.analyze(cached_irrep("u", 3, (2, 1, 0)), dd.element).pi0
    assert again is not rep0 and again.ambient_coeffs is rep0.ambient_coeffs
    for r in (rep0, again):
        assert_same_result(cones.check_cone_positivity(g, dd, r), want)


def test_equal_rows_in_a_distinct_array_do_not_share_an_entry(monkeypatch):
    g, dd, rep0 = passing_pi0()
    want = cones.check_cone_positivity(g, dd, rep0)
    calls = counting_local_coeffs(monkeypatch)
    # an equal embedding in another array
    copy = irreps.Representation(rep0.algebra, rep0.dpi, ambient_coeffs=rep0.ambient_coeffs.copy())
    assert_same_result(cones.check_cone_positivity(g, dd, copy), want)
    assert len(calls) == 1
    # an equal stack in another array: a second split of d at another tol
    other = liealg.spectral_split(g, dd.element, 1e-10)
    assert other is not dd
    assert_same_result(cones.check_cone_positivity(g, other, rep0), want)
    assert len(calls) == 2
    for r, split_ in ((copy, dd), (rep0, other), (rep0, dd)):
        assert_same_result(cones.check_cone_positivity(g, split_, r), want)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the rank-two pseudo-unitary predicates (exact integer arithmetic)


def test_su12_cone_true_but_not_unitarizable():
    assert cones.su12_cone_condition((0, 1, 0)) is True
    assert cones.su12_hw_unitarizable((0, 1, 0)) is False


def test_su12_boundary_weight():
    assert cones.su12_hw_unitarizable((-1, 1, 0)) is True
    assert cones.su12_cone_condition((-1, 1, 0)) is True


def test_su12_interior_weight():
    assert cones.su12_hw_unitarizable((0, 2, 1)) is True


def test_su12_unitarizable_implies_cone():
    for lam in itertools.product(range(-3, 4), repeat=3):
        if cones.su12_hw_unitarizable(lam):
            assert cones.su12_cone_condition(lam)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # arithmetic on an infinity
@pytest.mark.parametrize("cells", [[(0, 0)], [(0, 1), (1, 0)], [(1, 1)]])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_pi0_raises_not_hermitian_on_both_paths(lapack_calls, cells, value):
    # pi0 of u(3) (2,1,0) at d = (1, 1, 0): a NaN in each image used to read as PSD
    g, d, dd = split("u", 3, [1, 1, 0])
    pi0 = groundstate.analyze(cached_irrep("u", 3, (2, 1, 0)), d).pi0
    assert cones.check_cone_positivity(g, dd, pi0).verdict
    dpi = pi0.dpi.copy()
    for cell in cells:
        dpi[(slice(None), *cell)] = value
    bad = irreps.Representation(pi0.algebra, dpi, ambient_coeffs=pi0.ambient_coeffs)
    lapack_calls.update(eigvalsh=0)
    with pytest.raises(NotHermitian):
        cones.check_cone_positivity(g, dd, bad)
    assert lapack_calls["eigvalsh"] == 1  # the stack is not diagonal
    if all(i == j for i, j in cells):
        # the diagonal read: a torus image of pi0 alone
        rows = liealg.diagonal_element(g, [0, 0, 1])[None]
        lapack_calls.update(eigvalsh=0)
        with pytest.raises(NotHermitian):
            cones._first_outside_psd(bad, *cones._local_rows(bad, rows), cones.PSD_TOL)
        assert lapack_calls["eigvalsh"] == 0


def test_a_non_finite_operator_never_reaches_eigvalsh(monkeypatch):
    # rows are still decided in order, and LAPACK sees zero in place of a NaN operator
    real = np.linalg.eigvalsh

    def finite_only(a):
        assert np.isfinite(a).all(), "eigvalsh was given a non-finite operator"
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", finite_only)
    rep = cached_irrep("u", 2, (1, 0))
    # -i dpi of the basis rows 0, 1, 2 and 3 is E_00, E_11 and two indefinite operators
    xs = np.eye(4, dtype=complex)
    nan_row = np.full(4, np.nan, dtype=complex)
    inside = np.zeros(3, dtype=bool)
    with pytest.raises(NotHermitian):
        cones._first_outside_psd(rep, np.stack([xs[0], nan_row, xs[2]]), inside, cones.PSD_TOL)
    assert cones._first_outside_psd(rep, np.stack([xs[0], xs[2], nan_row]), inside, cones.PSD_TOL) == 1
