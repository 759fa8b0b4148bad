import itertools
import sys
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest

import gsrep.cli  # noqa: F401  (imports every gsrep module)
from gsrep import liealg, irreps, matcore


@lru_cache(maxsize=None)
def algebra(kind: str, n: int):
    return liealg.build_algebra(kind, n)


@lru_cache(maxsize=None)
def cached_irrep(kind: str, n: int, lam: tuple):
    return irreps.irrep(algebra(kind, n), lam)


def fresh(rep):
    """A new Representation over the same read-only ``rep.dpi``, with its own memo.

    No memo held by ``rep`` answers for it.  Tests that patch or count the
    commutant, center or cone path of ``analyze`` run on fresh
    representations, so the path runs.
    """
    return irreps.Representation(rep.algebra, rep.dpi, rep.label, rep.ambient_coeffs)


@pytest.fixture
def commutant_swap(monkeypatch):
    """``with commutant_swap(fn):`` puts ``fn`` in place of the commutant kernel in every gsrep module.

    ``fn`` takes the arguments of ``matcore.commutant_basis`` and returns an
    OperatorSubspace.  It replaces ``commutant_basis`` wherever that is
    bound, so it builds the commutant of pi (``irreps.commutant``), and
    ``_commutant_coefficients`` wherever it is bound outside ``matcore``,
    whose ``commutant_basis`` calls it: ``groundstate.analyze`` reads only
    the ``rank`` of pi0's commutant, which an OperatorSubspace has too.
    """
    kernels = {"commutant_basis": matcore.commutant_basis,
               "_commutant_coefficients": matcore._commutant_coefficients}
    bound = [(m, attr) for name, m in sorted(sys.modules.items())
             if name == "gsrep" or name.startswith("gsrep.")
             for attr, kernel in kernels.items()
             if getattr(m, attr, None) is kernel and not (m is matcore and attr == "_commutant_coefficients")]
    groundstate = sys.modules["gsrep.groundstate"]
    assert {(irreps, "commutant_basis"), (groundstate, "_commutant_coefficients")} <= set(bound)

    @contextmanager
    def swap(fn):
        with monkeypatch.context() as patch:
            for module, attr in bound:
                patch.setattr(module, attr, fn)
            yield

    return swap


@pytest.fixture
def lapack_calls(monkeypatch):
    """Counts the calls of ``np.linalg.eigh``, ``eigvalsh`` and ``svd``, by name, from the test on."""
    calls = dict.fromkeys(("eigh", "eigvalsh", "svd"), 0)
    for name in calls:
        def counting(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def dominant_box(n: int, lo: int, hi: int):
    """All weakly decreasing integer n-tuples with entries in [lo, hi]."""
    out = []
    for lam in itertools.product(range(hi, lo - 1, -1), repeat=n):
        if all(lam[i] >= lam[i + 1] for i in range(n - 1)):
            out.append(lam)
    return out


def su_dominant_box(n: int, lo: int, hi: int):
    """Distinct su(n) classes from the box, normalized to last entry 0."""
    classes = set()
    for lam in dominant_box(n, lo, hi):
        shift = lam[-1]
        classes.add(tuple(x - shift for x in lam))
    return sorted(classes, reverse=True)


# fixed derivation lists for the sweep fixtures: regular and singular, with zero
D_LISTS = {
    ("u", 2): [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (3.0, -1.0)],
    ("u", 3): [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0),
               (2.0, 1.0, 0.0), (0.0, 1.0, 2.0), (1.0, -1.0, 0.0)],
    ("su", 3): [(0.0, 0.0, 0.0), (1.0, 0.0, -1.0), (1.0, 1.0, -2.0),
                (2.0, -1.0, -1.0), (1.0, -1.0, 0.0), (3.0, -1.0, -2.0)],
}


def rng(seed: int = 0):
    return np.random.default_rng(seed)


def random_unitary(n: int, generator) -> np.ndarray:
    z = generator.normal(size=(n, n)) + 1j * generator.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(n: int, generator) -> np.ndarray:
    z = generator.normal(size=(n, n)) + 1j * generator.normal(size=(n, n))
    return (z + z.conj().T) / 2.0
