"""One decision of which eigenvalues of ad d are equal.

The clusters of ``liealg.spectral_split`` decide g^0, the root signs, the
regularity of d and, through them, the ground space.  The properties below
draw diagonal d with near-coincident gaps, chains included, where separate
thresholds used to disagree: the split is diagonalizable, g^0 is a
subalgebra of the dimension of the clusters read as zero, d is regular
exactly when no root is d-null, and analyze with the cone test gives a
strict ground state with a positive cone whose ground space is invariant
under g^0, one-dimensional at a regular d.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsrep import cli, cones, groundstate, irreps, liealg

from conftest import algebra, cached_irrep

WEIGHTS = {3: [(1, 0, 0), (2, 1, 0), (2, 0, -1)],
           4: [(1, 0, 0, 0), (2, 1, 0, 0), (2, 0, 0, -1)],
           5: [(1, 0, 0, 0, 0), (2, 1, 0, 0, 0), (2, 0, 0, 0, -1)]}


@st.composite
def near_coincident(draw):
    """(kind, n, entries): scale 1e-2 to 1e9, one to max(2, n - 2) gaps of relative size 1e-11 to 1e-6."""
    kind, n = draw(st.sampled_from([("u", 3), ("u", 4), ("su", 3), ("u", 5), ("su", 5)]))
    scale = 10.0 ** draw(st.floats(-2, 9))
    gaps = [scale * draw(st.floats(0.5, 2.0)) for _ in range(n - 1)]
    for i in draw(st.lists(st.integers(0, n - 2), min_size=1, max_size=max(2, n - 2), unique=True)):
        gaps[i] = scale * 10.0 ** draw(st.floats(-11, -6))
    entries = np.concatenate([[0.0], np.cumsum(gaps)]) + scale * draw(st.floats(-1, 1))
    entries = entries[draw(st.permutations(range(n)))]
    if kind == "su":
        entries -= entries.mean()
        entries[-1] = -entries[:-1].sum()
    return kind, n, tuple(float(x) for x in entries)


CHAIN = ("u", 4, (0.0, 1e5, 1e5 + 0.9e-3, 1e5 + 1.8e-3))  # one cluster of 0, 0.9e-3, 1.8e-3
# roots of 2.5e-5 and 1.6e-4 at a window of 1.2e-4: structure constants with
# roundoff mixed the zero cluster with its neighbour, and g^0 was no subalgebra
CLOSE_CLUSTERS = ("u", 4, (-14297.502822623328, -14297.502984444154, -2728.4543943713634,
                           -14297.502797722153))
# roots of 6.4e-9, 1.9e-8 and 2.5e-8 at a window of 1e-8: the zero cluster
# holds the first only, so the ground space must be read for the central part of d
SMALL_D = ("su", 3, (-1.4825887184599651e-08, 1.0630145652612555e-08, 4.195741531987096e-09))
# roots of 0.9e-3 and 1.8e-3 chain into the zero cluster at a window of 1e-3;
# the root 3.6e-3 of (0, 2), their sum, must join it for g^0 to be a subalgebra
SUM_CHAIN = ("u", 5, (0.0, 0.0018, 0.0036, 1e5, 1e5 + 0.0009))
SUM_CHAIN_PERMUTED = ("u", 5, (0.0, 0.0036, 0.0018, 1e5, 1e5 + 0.0009))


def decisions(g, d) -> bool:
    """Assert the decisions agree, and return whether d is regular."""
    dd = liealg.spectral_split(g, d)
    fix = liealg.fixed_point_data(g, d)  # raises if g^0 is not a subalgebra
    rd = liealg.root_datum(g, d)
    assert dd.diagonalizable
    assert len(fix.rows) == sum(dd.eigenspaces[k].shape[1] for k in dd.null)
    regular = len(fix.rows) == len(g.cartan_indices)
    assert regular == (not rd.delta_zero)
    return regular


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(near_coincident())
@example(CHAIN)
@example(CLOSE_CLUSTERS)
@example(SMALL_D)
@example(SUM_CHAIN)
@example(SUM_CHAIN_PERMUTED)
def test_split_decides_g0_roots_regularity_and_the_ground_space(case):
    kind, n, entries = case
    g = algebra(kind, n)
    d = liealg.diagonal_element(g, entries)
    regular = decisions(g, d)
    dd = liealg.spectral_split(g, d)
    rows = liealg.fixed_point_data(g, d).rows
    for lam in WEIGHTS[n]:
        rep = cached_irrep(kind, n, lam)
        out = groundstate.analyze(rep, d)
        assert out.ground_state and out.strict, lam
        assert cones.check_cone_positivity(g, dd, out.pi0).verdict, lam
        h0 = out.h0_basis
        for op in np.einsum("ri,ijk->rjk", rows.astype(complex), rep.dpi):
            leak = op @ h0 - h0 @ (h0.conj().T @ op @ h0)
            assert np.linalg.norm(leak) <= 1e-6 * max(1.0, np.linalg.norm(op)), lam
        if regular:
            assert out.h0_dim == 1, lam


@pytest.mark.parametrize("argv", [
    ["cone-check", "--n", "2", "--d", "1,1.000000001", "--weight", "5,-5"],
    ["cone-check", "--n", "3", "--d", "100000,100000.0001,0", "--weight", "0,1,2"],
    ["cone-check", "--n", "3", "--d", "1000000000,1000000001,0", "--weight", "2,1,0"],
    ["classify", "--n", "3", "--d", "1000000000,1000000001,0", "--box", "1"],
])
def test_d_the_split_cannot_resolve_is_a_schema_error(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    [line] = captured.err.splitlines()
    assert json.loads(line)["error"]["code"] == "SchemaError"


def test_ground_space_at_a_regular_d_near_coincidence(capsys):
    code = cli.main(["analyze", "--n", "3", "--d", "100000,100000.002,0", "--weight", "2,1,0"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verdicts"]["h0_dim"] == 1 and report["verdicts"]["strict"] is True
    assert report["tables"]["h0_weights"] == [[1, 0, 2]]


@pytest.mark.parametrize("argv,ids,window", [
    (["analyze", "--n", "3", "--d", "2,1,0", "--weight", "2,1,0"], {"minimal-energy", "strictness"}, 2e-8),
    (["cone-check", "--n", "3", "--d", "2,1,0", "--weight", "0,1,2"],
     {"cone-positivity", "coroot-criterion"}, 2e-8),
    (["classify", "--n", "2", "--d", "2,1", "--box", "1"], {"classification-bijection"}, 1e-8),
])
def test_checks_decided_by_the_split_record_its_window(capsys, argv, ids, window):
    # the window is 1e-8 * max(1, largest |d_i - d_j|)
    assert cli.main(argv) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {c["id"] for c in checks} == ids
    assert all(c["window"] == window for c in checks)


def test_root_signs_and_blocks_read_the_clusters():
    g = algebra("u", 4)
    d = liealg.diagonal_element(g, CHAIN[2])
    rd = liealg.root_datum(g, d)
    null = {rd.pairs[k] for k in rd.delta_zero}
    assert null == {(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j}
    assert {rd.pairs[k] for k in rd.delta_plus_plus} == {(1, 0), (2, 0), (3, 0)}
    assert irreps.centralizer_blocks(rd) == [[0], [1, 2, 3]]


@pytest.mark.parametrize("case", [SUM_CHAIN, SUM_CHAIN_PERMUTED])
def test_null_roots_are_closed_under_sums(capsys, case):
    kind, n, entries = case
    g = algebra(kind, n)
    rd = liealg.root_datum(g, liealg.diagonal_element(g, entries))
    assert irreps.centralizer_blocks(rd) == [[0, 1, 2], [3, 4]]
    argv = ["analyze", "--n", "5", "--d", ",".join(repr(x) for x in entries), "--weight", "1,0,0,0,0"]
    assert cli.main(argv) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert verdicts["h0_dim"] == 3 and verdicts["strict"] is True


def test_custom_algebra_constants_keep_close_clusters_apart():
    # u(4)'s basis as a custom algebra: its constants come from the solver
    # too, and their roundoff used to leak g^0 into the neighbouring cluster
    u = algebra("u", 4)
    g = liealg.MatrixLieAlgebra("custom", "custom", 4, u.basis, liealg.structure_constants(u.basis))
    d = liealg.diagonal_element(u, CLOSE_CLUSTERS[2])
    assert len(liealg.fixed_point_data(g, d).rows) == 10
