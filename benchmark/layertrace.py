"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each traced function by a wrapper at every
place its name is bound: the defining module, every gsrep module that
imported it with ``from .module import name``, and the class for methods.
It also wraps ``numpy.linalg.svd``/``eigh`` and ``scipy.linalg.expm`` so
that LAPACK work can be counted from argument shapes.  Spans stay in
memory (label, start, end, parent span) and are written once, by
`dump`, when the run ends.  A span's self time is its duration minus the
durations of its direct wrapped children.

The computed GFLOP counts are real floating-point operations from the
Golub-Van Loan operation counts (Matrix Computations, 3rd ed., Fig. 5.4.1
and Sec. 8.3), times 4 for complex input:

- svd of an M x N matrix (M >= N): values only 4MN^2 - 4N^3/3; thin
  U and V 14MN^2 + 8N^3; full U and V 4M^2N + 8MN^2 + 9N^3.
- eigh of an n x n matrix, eigenvectors included: 9n^3.
- expm of an n x n matrix: the degree-13 Pade scaling-and-squaring model
  of Higham (2005), (6 + s) products of 2n^3 plus one LU solve of 8n^3/3,
  with s = max(0, ceil(log2(||A||_1 / 5.37))).
Calls that numpy makes internally (pinv, norm(., 2), eigvals) are not
counted; only the calls gsrep makes through these three names are.
"""

from __future__ import annotations

import json
import math
import sys
import time
from functools import wraps

import numpy as np
import scipy.linalg

# (module, attribute path, label).  A dotted attribute path is a method.
TRACED = [
    ("gsrep.matcore", "commutant_basis", "matcore.commutant_basis"),
    ("gsrep.matcore", "compress", "matcore.compress"),
    ("gsrep.groundstate", "analyze", "groundstate.analyze"),
    ("gsrep.liealg", "build_algebra", "liealg.build_algebra"),
    ("gsrep.liealg", "centralizer_basis", "liealg.centralizer_basis"),
    ("gsrep.liealg", "spectral_split", "liealg.spectral_split"),
    ("gsrep.irreps", "irrep", "irreps.irrep"),
    ("gsrep.irreps", "weights_of", "irreps.weights_of"),
    ("gsrep.irreps", "extremal_weight", "irreps.extremal_weight"),
    ("gsrep.cones", "check_cone_positivity", "cones.check_cone_positivity"),
    ("gsrep.cones", "in_positive_cone", "cones.in_positive_cone"),
    ("gsrep.heisenfock", "weyl_op", "heisenfock.weyl_op"),
    ("gsrep.heisenfock", "FockTruncation.annihilation", "heisenfock.annihilation"),
    ("gsrep.dirlim", "level_consistency", "dirlim.level_consistency"),
    ("gsrep.cli", "IrrepCache.load", "cli.IrrepCache.load"),
    ("gsrep.cli", "IrrepCache.store", "cli.IrrepCache.store"),
    ("gsrep.cli", "render_report", "cli.render_report"),
]

THETA_13 = 5.371920351148152  # Higham (2005), degree-13 Pade norm bound


def _batch_and_complex(a) -> tuple[int, int, int, float]:
    """(batch count, rows, columns, 4 for complex or 1 for real)."""
    a = np.asarray(a)
    batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
    return batch, a.shape[-2], a.shape[-1], 4.0 if np.iscomplexobj(a) else 1.0


def svd_flops(a, full_matrices=True, compute_uv=True, **_) -> int:
    batch, m, n, c = _batch_and_complex(a)
    M, N = max(m, n), min(m, n)
    if not compute_uv:
        flops = 4 * M * N**2 - 4 * N**3 / 3
    elif full_matrices:
        flops = 4 * M**2 * N + 8 * M * N**2 + 9 * N**3
    else:
        flops = 14 * M * N**2 + 8 * N**3
    return round(batch * c * flops)


def eigh_flops(a, *_, **__) -> int:
    batch, n, _, c = _batch_and_complex(a)
    return round(batch * c * 9 * n**3)


def expm_flops(A, *_, **__) -> int:
    A = np.asarray(A)
    n = A.shape[-1]
    c = 4.0 if np.iscomplexobj(A) else 1.0
    norm1 = float(np.abs(A).sum(axis=-2).max()) if A.size else 0.0
    s = max(0, math.ceil(math.log2(norm1 / THETA_13))) if norm1 > 0 else 0
    return round(c * ((6 + s) * 2 * n**3 + 8 * n**3 / 3))


LAPACK = [
    (np.linalg, "svd", "lapack.svd", svd_flops),
    (np.linalg, "eigh", "lapack.eigh", eigh_flops),
    (scipy.linalg, "expm", "lapack.expm", expm_flops),
]


class Tracer:
    """Span recorder; `active` pauses recording without unwrapping."""

    def __init__(self):
        self.spans: list[list] = []  # [label, start, end, parent, flops]
        self.active = True
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn, flop=None):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            flops = flop(*args, **kwargs) if flop else 0
            idx = len(tracer.spans)
            span = [label, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, flops]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced name; imports all of gsrep first."""
        import gsrep.cli  # noqa: F401  (imports every gsrep module)

        gsrep_modules = [m for name, m in sorted(sys.modules.items())
                         if name == "gsrep" or name.startswith("gsrep.")]
        rebind = []
        for modname, path, label in TRACED:
            owner = sys.modules[modname]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = getattr(owner, attr)
            rebind.append((original, self._wrap(label, original)))
        for owner, attr, label, flop in LAPACK:
            original = getattr(owner, attr)
            wrapper = self._wrap(label, original, flop)
            self._patch(owner, attr, wrapper)
            rebind.append((original, wrapper))
        for original, wrapper in rebind:
            for mod in gsrep_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
                    elif isinstance(value, type) and value.__module__ == mod.__name__:
                        for meth, fn in list(vars(value).items()):
                            if fn is original:
                                self._patch(value, meth, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per label: calls, total seconds, self seconds and flops.

    Flop counts are integers, so their sums do not depend on call order.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for idx, (label, start, end, _, flops) in enumerate(spans):
        agg = out.setdefault(label, {"calls": 0, "s": 0.0, "self_s": 0.0, "flops": 0})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - child_time[idx]
        agg["flops"] += flops
    return out
