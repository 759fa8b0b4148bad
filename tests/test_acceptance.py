"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is fixed here, nothing is calibrated at runtime.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from gsrep import cli, cones, dirlim, groundstate, heisenfock, irreps, liealg

from conftest import D_LISTS, algebra, cached_irrep, dominant_box, su_dominant_box
from oracles import is_strict, level_cone_generators, total_number


def _emit(num: int, desc: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def _sweep_fixtures():
    for kind, n in (("u", 2), ("u", 3), ("su", 3)):
        box = dominant_box(n, -2, 2) if kind == "u" else su_dominant_box(n, -2, 2)
        for lam in box:
            for entries in D_LISTS[(kind, n)]:
                yield kind, n, lam, entries


@pytest.fixture(scope="module")
def sweep_reports():
    reports = {}
    for kind, n, lam, entries in _sweep_fixtures():
        g = algebra(kind, n)
        rep = cached_irrep(kind, n, lam)
        d = liealg.diagonal_element(g, entries)
        reports[(kind, n, lam, entries)] = groundstate.analyze(rep, d)
    return reports


def test_criterion_01_minimal_energy_fixture():
    g = algebra("u", 3)
    rep = cached_irrep("u", 3, (1, 0, 0))
    out = groundstate.analyze(rep, liealg.diagonal_element(g, [1, 0, 0]))
    ok = (
        abs(out.m) <= 1e-10
        and out.h0_dim == 2
        and out.commutant_dims[1] == 1
        and out.ground_state
        and out.strict
    )
    assert _emit(1, "defining u(3) block fixture: m=0, dim H0=2, irreducible, strict", ok)


def test_criterion_02_strict_ground_state_sweep(sweep_reports):
    failures = [
        key
        for key, out in sweep_reports.items()
        if not (out.ground_state and out.strict)
    ]
    ok = not failures
    assert _emit(
        2, f"{len(sweep_reports)} compact fixtures all strict ground states", ok
    ), failures[:5]


def test_criterion_03_cone_necessity_sweep(sweep_reports):
    failures = []
    # (a) every ground-state fixture satisfies the cone positivity condition
    for (kind, n, lam, entries), out in sweep_reports.items():
        g = algebra(kind, n)
        dd = liealg.spectral_split(g, liealg.diagonal_element(g, entries))
        if not cones.check_cone_positivity(g, dd, out.pi0).verdict:
            failures.append(("fixture", kind, n, lam, entries))
    # (b) torus characters failing antidominance fail the cone test with a
    # witness, and the verdict always agrees with the coroot criterion
    for n, entries in ((2, (2.0, 1.0)), (2, (1.0, 3.0)), (3, (2.0, 1.0, 0.0))):
        g = algebra("u", n)
        d = liealg.diagonal_element(g, entries)
        dd = liealg.spectral_split(g, d)
        rd = liealg.root_datum(g, d)
        spec = dirlim.DirectLimitSpec(entries)
        for lam in itertools.product(range(-2, 3), repeat=n):
            chi = irreps.torus_character(g, lam)
            res = cones.check_cone_positivity(g, dd, chi)
            member = dirlim.weight_cone_member(lam, spec)
            coroot = cones.coroot_condition(chi, rd)
            if res.verdict != member or res.verdict != coroot:
                failures.append(("character", n, entries, lam))
            if not member and res.witness is None:
                failures.append(("missing-witness", n, entries, lam))
    ok = not failures
    assert _emit(3, "cone positivity necessary; antidominance and coroot agree", ok), failures[:5]


def test_criterion_04_classification_recovery():
    g = algebra("u", 2)
    d = liealg.diagonal_element(g, [2, 1])
    rd = liealg.root_datum(g, d)
    antidominant = {
        lam
        for lam in itertools.product(range(-3, 4), repeat=2)
        if cones.coroot_condition(irreps.torus_character(g, lam), rd)
    }
    lowest = {
        irreps.extremal_weight(cached_irrep("u", 2, lam), rd, "lowest")
        for lam in dominant_box(2, -3, 3)
    }
    ok = antidominant == lowest
    assert _emit(4, "antidominant characters = lowest weights on the box (u(2))", ok)


def test_criterion_05_rank_two_insufficiency():
    ok = (
        cones.su12_cone_condition((0, 1, 0)) is True
        and cones.su12_hw_unitarizable((0, 1, 0)) is False
        and cones.su12_hw_unitarizable((-1, 1, 0)) is True
    )
    report = cli.run({"command": "cone-check", "su12": True, "weight": [0, 1, 0]})
    ok = ok and report["verdicts"] == {"cone": True, "hw_unitarizable": False}
    assert _emit(5, "cone positivity holds where unitarizability fails (rank two)", ok)


def test_criterion_06_fock_weyl_suite():
    ft = hf = heisenfock.FockTruncation(1, 40)
    vac = ft.vacuum()
    overlap_ok = True
    for r, phase in itertools.product((0.2, 0.5, 0.8, 1.0), (0.0, 0.9, 2.2)):
        v = np.array([r * np.exp(1j * phase)])
        got = vac.conj() @ heisenfock.weyl_op(ft, v) @ vac
        overlap_ok &= abs(got - math.exp(-r * r / 4.0)) <= 1e-6
    resid_40 = heisenfock.weyl_relation_residual(ft, [1.0], [1j], 20)
    residuals = [
        heisenfock.weyl_relation_residual(heisenfock.FockTruncation(1, n), [1.0], [1j])
        for n in (10, 20, 40)
    ]
    monotone = residuals[0] >= residuals[1] >= residuals[2]
    ft2 = heisenfock.FockTruncation(2, 6)
    op = heisenfock.second_quantize(ft2, np.diag([0.0, 1.0]).astype(complex))
    kernel_ok = heisenfock.kernel_dimension(ft2, op) == heisenfock.truncated_kernel_count(6, 1)
    ok = overlap_ok and resid_40 <= 1e-6 and monotone and kernel_ok
    assert _emit(6, "vacuum overlaps, Weyl residual <= 1e-6 and monotone, kernel count", ok), (
        resid_40,
        residuals,
    )


def test_criterion_07_factorization():
    setup = heisenfock.SymplecticSetup((0.0, 1.0))
    h2 = algebra("heis", 2)
    dpi = np.zeros((3, 2, 2), dtype=complex)
    dpi[1] = 1j * np.diag([0.3, -0.5])
    dpi[2] = 1j * np.diag([1.0, 0.25])
    rep0 = irreps.Representation(h2, dpi)
    ft = heisenfock.FockTruncation(1, 30)
    clean = heisenfock.factorization_check(setup, rep0, ft, sector=10, tol=1e-5)
    coupler = expm(1j * 0.6 * np.kron(np.diag([1.0, -1.0]), total_number(ft)))
    rejected = not heisenfock.factorization_check(
        setup, rep0, ft, sector=10, tol=1e-5, entangler=coupler
    )
    op = heisenfock.second_quantize(ft, np.array([[1.0]], dtype=complex))
    ground_line = heisenfock.kernel_dimension(ft, op) == 1
    ok = clean and rejected and ground_line
    assert _emit(7, "tensor factorization verified; coupled fixture rejected", ok)


def test_criterion_08_spectral_translation():
    g = algebra("u", 3)
    rep = cached_irrep("u", 3, (1, 0, 0))
    d = liealg.diagonal_element(g, [1, 0, 0])
    dd = liealg.spectral_split(g, d)
    H = -1j * rep.operator(d)
    energies = sorted(set(round(float(x), 8) for x in np.linalg.eigvalsh(H)))
    ok = True
    for lam in dd.eigenvalues:
        for f in energies:
            ok &= groundstate.spectral_translation_check(rep, d, float(lam.real), f, tol=1e-9)
    # the negative class annihilates the minimal-energy space
    ground = liealg.spectral_subspace(H, 0.0)
    for lam, space in dd.spaces(lambda l: l.real < -1e-8):
        for k in range(space.shape[1]):
            ok &= bool(np.linalg.norm(rep.operator(space[:, k]) @ ground) <= 1e-9)
    assert _emit(8, "spectral translation containment at 1e-9 on all class pairs", ok)


def test_criterion_09_direct_limit_consistency():
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(1000):
        level = int(rng.integers(2, 6))
        d = tuple(float(x) for x in rng.permutation(level) + rng.uniform(0, 0.45))
        lam = [int(x) for x in rng.integers(-3, 4, size=level)]
        n = int(rng.integers(1, level))
        if not dirlim.level_consistency(lam, dirlim.DirectLimitSpec(d), n):
            failures += 1
    rays_ok = True
    for n, entries in ((2, (1.3, 0.4)), (3, (2.3, 0.7, -0.9)), (4, (3.1, 1.2, 0.4, -1.7))):
        spec = dirlim.DirectLimitSpec(entries)
        level = level_cone_generators(spec)
        g = algebra("u", n)
        dd = liealg.spectral_split(g, liealg.diagonal_element(g, entries))
        derived = cones.action_cone_generators(g, dd)

        def rays(cone_desc):
            return {
                tuple(np.round(gen / np.abs(gen).max(), 9)) for gen in cone_desc.generators
            }

        rays_ok &= rays(level) == rays(derived)
    ok = failures == 0 and rays_ok
    assert _emit(9, "1000-case prefix consistency, level cones match derivation cones", ok)


def test_criterion_10_non_strict_control():
    h = algebra("heis", 2)
    dpi = np.zeros((3, 2, 2), dtype=complex)
    dpi[2] = 1j * np.diag([1.0, 2.0])
    rep = irreps.Representation(h, dpi)
    out = groundstate.analyze(rep, np.array([0.0, 1.0, 0.0]))
    ok = out.ground_state and not out.strict and not is_strict(rep, out)
    assert _emit(10, "two-block commuting fixture: ground state but not strict", ok)
