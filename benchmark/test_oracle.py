"""Self-test of the benchmark's oracle; it needs neither gsrep nor numpy.

Run with ``python3 benchmark/test_oracle.py`` or ``pytest benchmark``.
"""

import itertools
import sys

import fixtures
import oracle


def test_pattern_count_is_weyl_dimension_for_every_workload_weight():
    for lam in sorted(fixtures.all_weights()):
        assert len(oracle.gt_weights(lam)) == oracle.weyl_dimension(lam), lam


def test_weights_are_symmetric_and_topped_by_lam():
    # the multiset is Weyl-group invariant and lam is its unique maximum
    for lam in fixtures.IRREP_WEIGHTS + [(2, 1, 0), (1, 0, -1)]:
        weights = oracle.gt_weights(lam)
        assert sorted(tuple(reversed(mu)) for mu in weights) == list(weights)
        assert max(weights) == lam and weights.count(lam) == 1


def test_ground_data_of_the_defining_fixture():
    # criterion 01: u(3) (1,0,0) under d = (1,0,0) has m = 0 and dim H0 = 2
    m, mult, ground = oracle.ground_data((1, 0, 0), (1.0, 0.0, 0.0))
    assert (m, mult, ground) == (0.0, 2, [(0, 0, 1), (0, 1, 0)])


def test_cone_rule_and_rank_two_predicates():
    assert oracle.cone_member((0, 1, 2), (3.0, 2.0, 1.0))
    assert not oracle.cone_member((1, 0, 2), (2.0, 1.0, 0.0))
    assert oracle.cone_generator_count((3.0, 2.0, 1.0)) == 3
    assert oracle.su12_cone((0, 1, 0)) and not oracle.su12_hw_unitarizable((0, 1, 0))
    assert oracle.su12_hw_unitarizable((-1, 1, 0))


def test_fock_kernel_count_matches_enumeration():
    for cutoff, zero_modes in ((10, 1), (24, 1), (6, 2), (5, 3)):
        count = sum(1 for occ in itertools.product(range(cutoff + 1), repeat=zero_modes)
                    if sum(occ) <= cutoff)
        assert oracle.fock_kernel_count(cutoff, zero_modes) == count


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} oracle tests passed")
    sys.exit(0)
