import numpy as np
import pytest

from gsrep import cones, dirlim, liealg
from gsrep.errors import LengthMismatch, SplitInvalid

from conftest import algebra, rng
from oracles import level_cone_generators


def test_membership_aligned_with_descending_levels():
    spec = dirlim.DirectLimitSpec((3.0, 2.0, 1.0))
    # along descending d the weight entries must ascend
    assert dirlim.weight_cone_member((0, 1, 2), spec)
    assert dirlim.weight_cone_member((0, 0, 5), spec)
    assert not dirlim.weight_cone_member((2, 1, 0), spec)


def test_membership_two_level():
    spec = dirlim.DirectLimitSpec((2.0, 1.0))
    assert dirlim.weight_cone_member((0, 1), spec)
    assert not dirlim.weight_cone_member((1, 0), spec)


def test_membership_constant_weight():
    generator = rng(4)
    for _ in range(10):
        d = tuple(generator.permutation(5).astype(float))
        assert dirlim.weight_cone_member((3,) * 5, dirlim.DirectLimitSpec(d))


def test_membership_length_mismatch():
    with pytest.raises(LengthMismatch):
        dirlim.weight_cone_member((1, 2), dirlim.DirectLimitSpec((1.0, 2.0, 3.0)))


def test_spec_rejects_ties():
    with pytest.raises(SplitInvalid):
        dirlim.DirectLimitSpec((1.0, 1.0))


def test_level_generators_two():
    spec = dirlim.DirectLimitSpec((1.0, 0.0))
    cone = level_cone_generators(spec)
    assert cone.size == 1
    # d_1 > d_2 gives the single generator i(E_22 - E_11)
    assert np.allclose(cone.generators[0][:2], [-1.0, 1.0])


def test_level_generators_counts():
    assert level_cone_generators(dirlim.DirectLimitSpec((1.0,))).size == 0
    assert level_cone_generators(dirlim.DirectLimitSpec((1.0, 2.0, 3.0))).size == 3
    assert level_cone_generators(dirlim.DirectLimitSpec((4.0, 2.0, 1.0, 3.0))).size == 6


DISTINCT_DIFFERENCE_LEVELS = {
    2: (1.3, 0.4),
    3: (2.3, 0.7, -0.9),
    4: (3.1, 1.2, 0.4, -1.7),
}


def _same_rays(a, b):
    def rays(cone_desc):
        out = set()
        for gen in cone_desc.generators:
            vec = np.round(gen / np.abs(gen).max(), 9)
            out.add(tuple(vec))
        return out

    return rays(a) == rays(b)


def _conic_hulls_equal(a, b, tol=1e-8):
    from scipy.optimize import nnls

    def contained(inner, outer):
        if inner.generators.shape[0] == 0:
            return True
        basis = outer.generators.T
        for gen in inner.generators:
            _, resid = nnls(basis, gen)
            if resid > tol * max(1.0, np.linalg.norm(gen)):
                return False
        return True

    return contained(a, b) and contained(b, a)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_level_generators_agree_with_derivation_cone(n):
    # distinct positive differences: the rays agree one for one
    entries = DISTINCT_DIFFERENCE_LEVELS[n]
    spec = dirlim.DirectLimitSpec(entries)
    level = level_cone_generators(spec)
    g = algebra("u", n)
    dd = liealg.spectral_split(g, liealg.diagonal_element(g, entries))
    derived = cones.action_cone_generators(g, dd)
    assert _same_rays(level, derived)


def test_level_generators_coincident_differences_same_hull():
    # equally spaced entries merge eigenspaces; the conic hulls still agree
    entries = (3.0, 2.0, 1.0)
    spec = dirlim.DirectLimitSpec(entries)
    level = level_cone_generators(spec)
    g = algebra("u", 3)
    dd = liealg.spectral_split(g, liealg.diagonal_element(g, entries))
    derived = cones.action_cone_generators(g, dd)
    assert _conic_hulls_equal(level, derived)


def test_membership_matches_cone_test():
    # a torus character extends iff it pairs PSD with every level generator
    from gsrep import irreps

    g = algebra("u", 3)
    spec = dirlim.DirectLimitSpec((2.0, 0.5, 1.0))
    d = liealg.diagonal_element(g, spec.d_seq)
    dd = liealg.spectral_split(g, d)
    generator = rng(9)
    for _ in range(30):
        lam = tuple(int(x) for x in generator.integers(-2, 3, size=3))
        chi = irreps.torus_character(g, lam)
        assert (dirlim.weight_cone_member(lam, spec)
                == cones.check_cone_positivity(g, dd, chi).verdict)


def test_prefix_consistency_examples():
    spec = dirlim.DirectLimitSpec((2.0, 1.0, 0.0))
    assert dirlim.level_consistency((0, 1, 5), spec, 2)
    # failure at the full level does not constrain the prefix
    assert dirlim.level_consistency((0, 1, 0), spec, 2)


def test_prefix_consistency_random_sweep():
    generator = rng(123)
    for _ in range(1000):
        level = int(generator.integers(2, 6))
        d = tuple(float(x) for x in generator.permutation(level) + generator.uniform(0, 0.4))
        lam = [int(x) for x in generator.integers(-3, 4, size=level)]
        n = int(generator.integers(1, level))
        assert dirlim.level_consistency(lam, dirlim.DirectLimitSpec(d), n)
