"""Command line front end with JSON reports.

Subcommands: analyze, classify, cone-check, fock, dirlim, sweep.  Every
report echoes the job, carries one entry per check with the tolerance it
was decided under, and is byte-stable for a fixed (job, seed) pair: keys
are sorted, sampling is seeded, and no timestamps are embedded.

Matrix encoding: row-major lists of [re, im] pairs with explicit shape.
Constructed irreducibles can be cached on disk, one JSON record per weight,
under --cache-dir or $GSREP_CACHE_DIR.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import numbers
import os
import re
import sys
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .errors import GsrepError, SchemaError
from . import cones, dirlim, groundstate, heisenfock, irreps, liealg, matcore

CACHE_ENV = "GSREP_CACHE_DIR"
CACHE_BASIS = "gelfand-tsetlin"
MONOTONE_SLACK = 1e-12  # a Weyl residual may exceed the one at the cutoff below by this much


# ---------------------------------------------------------------------------
# JSON encodings


def encode_matrix(mat: np.ndarray) -> dict:
    mat = np.asarray(mat, dtype=complex)
    return {
        "rows": int(mat.shape[0]),
        "cols": int(mat.shape[1]),
        "data": [[float(x.real), float(x.imag)] for x in mat.reshape(-1)],
    }


def decode_matrix(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    flat = np.array([complex(re, im) for re, im in obj["data"]])
    if flat.size != rows * cols:
        raise SchemaError("matrix data length does not match the declared shape")
    return flat.reshape(rows, cols)


# ---------------------------------------------------------------------------
# irrep cache


class IrrepCache:
    """Content-addressed on-disk store of constructed irreducibles.

    One JSON record per (kind, n, weight); writes go through a temp file
    and an atomic rename, so concurrent builders follow last-writer-wins.
    """

    def __init__(self, directory: Optional[str]):
        self.directory = Path(directory) if directory else None
        if self.directory:
            self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, g: liealg.MatrixLieAlgebra, lam) -> Optional[Path]:
        if not self.directory:
            return None
        tag = "_".join(str(int(x)).replace("-", "m") for x in lam)
        return self.directory / f"{g.kind}{g.n}_lam_{tag}.json"

    def load(self, g: liealg.MatrixLieAlgebra, lam) -> Optional[irreps.Representation]:
        """The cached irreducible, or None for a missing or unusable record.

        A record is used only if it is tagged with the basis ``irrep`` builds
        in, has the Weyl dimension of ``lam``, and holds finite,
        anti-Hermitian generator images of the right shape: a NaN makes the
        residual NaN, which fails the test as a large one does.  Anything
        else is a miss, which the rebuild replaces.
        """
        path = self._path(g, lam)
        if not path or not path.exists():
            return None
        try:
            record = json.loads(path.read_text())
            if record.get("basis") != CACHE_BASIS:
                return None
            dim = irreps.weyl_dim(lam)
            dpi = np.stack([decode_matrix(m) for m in record["dpi"]])
        except (ValueError, KeyError, TypeError, AttributeError, GsrepError):
            return None
        if record.get("dim") != dim or dpi.shape != (g.dim, dim, dim):
            return None
        rep = irreps.Representation(g, dpi, label=tuple(int(x) for x in lam))
        if not rep.anti_hermitian_residual() <= 1e-9:
            return None
        return rep

    def store(self, rep: irreps.Representation) -> None:
        g = rep.algebra
        path = self._path(g, rep.label)
        if not path:
            return
        record = {
            "basis": CACHE_BASIS,
            "kind": g.kind,
            "n": g.n,
            "lam": [int(x) for x in rep.label],
            "dim": rep.dim,
            "dpi": [encode_matrix(m) for m in rep.dpi],
        }
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            json.dump(record, handle, sort_keys=True)
        os.replace(tmp, path)

    def get_or_build(self, g: liealg.MatrixLieAlgebra, lam) -> irreps.Representation:
        cached = self.load(g, lam)
        if cached is not None:
            return cached
        rep = irreps.irrep(g, lam)
        self.store(rep)
        return rep


# ---------------------------------------------------------------------------
# job execution


# job keys that hold an integer, and those that hold a list of integers
_INTEGER_KEYS = ("n", "box", "modes", "cutoff", "sector", "zero_modes", "cases", "seed")
_INTEGER_LIST_KEYS = ("weight", "lam", "cutoffs")


def _is_number(x, want_int: bool = False) -> bool:
    """Is ``x`` a number (an integer if ``want_int``) and not a bool?"""
    return isinstance(x, numbers.Integral if want_int else numbers.Real) and not isinstance(x, bool)


def _parse_numbers(text: str, want_int: bool = False):
    """Accept both comma-separated values and JSON arrays of JSON numbers, integers if ``want_int``."""
    try:
        if text.strip().startswith("["):
            values = json.loads(text)
            if not (isinstance(values, list) and all(_is_number(x, want_int) for x in values)):
                raise ValueError
        else:
            values = [p for p in text.replace(" ", "").split(",") if p]
        return [int(p) if want_int else float(p) for p in values]
    except ValueError as exc:
        raise SchemaError(f"could not parse number list {text!r}") from exc


def _check_integer_keys(job: dict) -> None:
    """Hold every integer job key to integers, never bools, so that argv and job dicts agree."""
    for key in _INTEGER_KEYS + _INTEGER_LIST_KEYS:
        value = job.get(key)
        if key in _INTEGER_KEYS:
            ok = _is_number(value, want_int=True)
        else:
            ok = isinstance(value, (list, tuple)) and all(_is_number(x, want_int=True) for x in value)
        if value is not None and not ok:
            raise SchemaError(f"{key} must be {'an integer' if key in _INTEGER_KEYS else 'a list of integers'}")


def _require(job: dict, key: str):
    if job.get(key) is None:
        raise SchemaError(f"job is missing required field {key!r}")
    return job[key]


def _check(report: dict, check_id: str, verdict, tol: float, **extra) -> None:
    entry = {"id": check_id, "verdict": verdict, "tol": tol}
    entry.update(extra)
    report["checks"].append(entry)


def run(job: dict) -> dict:
    """Dispatch a validated job dict; returns the report dict."""
    command = _require(job, "command")
    tol = job.get("tol", 1e-8)
    if not _is_number(tol):
        raise SchemaError("tol must be a number")
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0):
        raise SchemaError("tolerance must be positive and finite")
    _check_integer_keys(job)
    seed = job.get("seed", 0)
    if seed < 0:
        raise SchemaError(f"seed must be a non-negative integer, got {seed}")
    report = {
        "job": job,
        "verdicts": {},
        "tables": {},
        "checks": [],
        "provenance": {"package": "gsrep", "version": __version__, "seed": seed},
    }
    if not isinstance(command, str) or command not in _HANDLERS:
        raise SchemaError(f"unknown command {command!r}")
    _HANDLERS[command](job, report, tol, seed)
    return report


def _finite(values, key: str) -> np.ndarray:
    if not (isinstance(values, (list, tuple)) and all(_is_number(x) for x in values)):
        raise SchemaError(f"{key} must be a list of numbers")
    out = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(out)):
        raise SchemaError(f"{key} must be finite")
    return out


def _algebra_and_d(job: dict):
    kind = job.get("group", "u")
    if kind not in ("u", "su"):
        raise SchemaError("group must be 'u' or 'su'")
    n = _require(job, "n")
    least = 1 if kind == "u" else 2
    if n < least:
        raise SchemaError(f"{kind}(n) requires n >= {least}")
    g = liealg.build_algebra(kind, n)
    entries = _finite(_require(job, "d"), "d")
    if entries.shape != (g.n,):
        raise SchemaError(f"d must have {g.n} entries")
    try:
        d = liealg.diagonal_element(g, entries)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    _bounded_norm(d, "d")
    return g, d


def _bounded_norm(x: np.ndarray, what: str) -> None:
    """Tolerance scales are norms of d or of its images, so they must be finite."""
    with np.errstate(over="ignore"):
        if not math.isfinite(np.linalg.norm(x)):
            raise SchemaError(f"{what} is too large: its norm overflows a double")


def _addressable(entries: int, itemsize: int, what: str) -> None:
    """Refuse, before allocating it, an array larger than numpy can address."""
    if entries * itemsize > np.iinfo(np.intp).max:
        raise SchemaError(f"{what} would take {entries} entries of {itemsize} bytes, "
                          "more than one array can address")


def _run_analyze(job: dict, report: dict, tol: float, seed: int) -> None:
    g, d = _algebra_and_d(job)
    lam = tuple(_require(job, "weight"))
    if len(lam) != g.n:
        raise SchemaError(f"weight must have {g.n} entries")
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise SchemaError(f"weight {list(lam)} is not weakly decreasing")
    if any(not -2**63 <= x < 2**63 for x in lam):
        raise SchemaError("weight entries must fit in 64-bit integers")
    dim = irreps.weyl_dim(lam)
    _addressable(g.dim * dim * dim, 16, f"the generators of the {dim}-dimensional irreducible")
    # build lam - lam_n (1, ..., 1); u(n) adds the character lam_n back, exactly
    cache = IrrepCache(job.get("cache_dir"))
    rep = cache.get_or_build(g, [x - lam[-1] for x in lam])
    _bounded_norm(rep.operator(d), "dpi(d)")
    out = groundstate.analyze(rep, d)
    shift = lam[-1] if g.kind == "u" else 0
    energy = shift * float(d[:g.n].sum()) if shift else -0.0  # x + -0.0 is x, -0.0 included
    h0_weights = sorted(irreps.weights_of(irreps.restrict(rep, out.h0_basis)))
    report["verdicts"] = {
        "m": out.m + energy,
        "h0_dim": out.h0_dim,
        "cyclic": out.ground_state,
        "ground_state": out.ground_state,
        "strict": out.strict,
    }
    report["tables"] = {
        "commutant_dims": list(out.commutant_dims),
        "central_shifts": [x + energy for x in out.central_shifts],
        "h0_weights": [[x + shift for x in w] for w in h0_weights],
        "rep_dim": rep.dim,
    }
    _check(report, "minimal-energy", out.ground_state, matcore.DEFAULT_TOL, window=out.window)
    _check(report, "strictness", out.strict, matcore.DEFAULT_TOL, window=out.window)


def _run_classify(job: dict, report: dict, tol: float, seed: int) -> None:
    g, d = _algebra_and_d(job)
    if g.kind != "u":
        raise SchemaError("classification sweep targets u(n)")
    box = job.get("box", 3)
    if box < 0:
        raise SchemaError("box must be non-negative")
    rd = liealg.root_datum(g, d)
    if rd.delta_zero:
        raise SchemaError("classification requires a regular diagonal element")
    antidominant = []
    for lam in _integer_box(g.n, box):
        chi = irreps.torus_character(g, lam)
        if cones.coroot_condition(chi, rd, tol):
            antidominant.append(tuple(lam))
    lowest = set()
    for lam in _integer_box(g.n, box):
        if all(lam[i] >= lam[i + 1] for i in range(g.n - 1)):
            rep = irreps.irrep(g, lam)
            lowest.add(irreps.extremal_weight(rep, rd, "lowest"))
    match = set(antidominant) == lowest
    report["verdicts"] = {"match": bool(match)}
    report["tables"] = {
        "antidominant": sorted([list(x) for x in antidominant]),
        "lowest_weights": sorted([list(x) for x in lowest]),
    }
    _check(report, "classification-bijection", bool(match), tol, window=liealg.spectral_split(g, d).window)


def _run_cone_check(job: dict, report: dict, tol: float, seed: int) -> None:
    if job.get("su12"):
        lam = tuple(_require(job, "weight"))
        if len(lam) != 3:
            raise SchemaError("the rank-two predicate takes an integer triple")
        if lam[1] < lam[2]:
            raise SchemaError(f"K-type {list(lam)} is not dominant: l2 < l3")
        cone = cones.su12_cone_condition(lam)
        hw = cones.su12_hw_unitarizable(lam)
        report["verdicts"] = {"cone": cone, "hw_unitarizable": hw}
        _check(report, "cone-positivity", cone, 0.0, arithmetic="integer")
        _check(report, "hw-unitarizable", hw, 0.0, arithmetic="integer")
        return
    g, d = _algebra_and_d(job)
    lam = tuple(_require(job, "weight"))
    if len(lam) != len(g.cartan_indices):
        raise SchemaError(f"a torus character of {g.name} takes {len(g.cartan_indices)} weight entries")
    rd = liealg.root_datum(g, d)
    if rd.delta_zero:
        raise SchemaError("torus character cone test requires a regular diagonal element")
    chi = irreps.torus_character(g, lam)
    dd = liealg.spectral_split(g, d)
    res = cones.check_cone_positivity(g, dd, chi, tol=tol, seed=seed)
    coroot = cones.coroot_condition(chi, rd, tol)
    report["verdicts"] = {"cone": res.verdict, "coroot": coroot, "agrees": res.verdict == coroot}
    if res.witness is not None:
        report["tables"]["witness"] = [float(x) for x in res.witness]
        report["tables"]["witness_provenance"] = list(res.witness_provenance)
    _check(report, "cone-positivity", res.verdict, tol, sampled=res.sampled, window=dd.window)
    _check(report, "coroot-criterion", coroot, tol, window=dd.window)


def _run_fock(job: dict, report: dict, tol: float, seed: int) -> None:
    modes = job.get("modes", 1)
    cutoffs = job.get("cutoffs") or [job.get("cutoff", 40)]
    zero_modes = job.get("zero_modes", 0)
    if modes < 1:
        raise SchemaError("modes must be at least 1")
    if min(cutoffs) < 0:
        raise SchemaError("cutoffs must be non-negative")
    if not 0 <= zero_modes <= modes:
        raise SchemaError(f"zero modes must lie in [0, {modes}]")
    # the truncation at the top cutoff has C(top + modes, modes) states; that
    # count is at least 2^min(top, modes), so past 64 it is not formed in full
    top = max(cutoffs)
    states = math.comb(top + modes, min(top, modes, 64))
    _addressable(states * states, 16, f"a dense operator of {modes} modes at cutoff {top}")
    rng = np.random.default_rng(seed)
    pairs = [
        (rng.normal(size=modes) + 1j * rng.normal(size=modes),
         rng.normal(size=modes) + 1j * rng.normal(size=modes))
        for _ in range(4)
    ]
    pairs = [(v / max(1.0, np.linalg.norm(v)), w / max(1.0, np.linalg.norm(w))) for v, w in pairs]
    residuals = {}
    vacuum_err = {}
    for cutoff in sorted(cutoffs):
        ft = heisenfock.FockTruncation(modes, cutoff)
        sector = job.get("sector", cutoff // 2)
        if not 0 <= sector <= cutoff:
            raise SchemaError(f"sector {sector} is outside [0, {cutoff}]")
        worst = 0.0
        for v, w in pairs:
            worst = max(worst, heisenfock.weyl_relation_residual(ft, v, w, sector))
        residuals[str(cutoff)] = {"sector": sector, "residual": worst}
        verr = 0.0
        for v, _ in pairs:
            got = heisenfock.weyl_vacuum_overlap(ft, v)
            verr = max(verr, abs(got - math.exp(-float(np.linalg.norm(v)) ** 2 / 4)))
        vacuum_err[str(cutoff)] = verr
    kernel_ok = True
    if zero_modes:
        # the loop ends on the truncation at the largest cutoff
        diag = [0.0] * zero_modes + [1.0] * (modes - zero_modes)
        op = heisenfock.second_quantize(ft, np.diag(diag).astype(complex))
        kernel_ok = (heisenfock.kernel_dimension(ft, op)
                     == heisenfock.truncated_kernel_count(ft.cutoff, zero_modes))
    vals = [residuals[k]["residual"] for k in sorted(residuals, key=int)]
    monotone = None  # one distinct cutoff compares nothing, so it gives no verdict
    if len(vals) > 1:
        monotone = all(vals[i + 1] <= vals[i] + MONOTONE_SLACK for i in range(len(vals) - 1))
    report["verdicts"] = {
        "max_vacuum_error": max(vacuum_err.values()),
        "monotone": monotone,
        "kernel_count_exact": kernel_ok,
    }
    report["tables"] = {"weyl_residuals": residuals, "vacuum_errors": vacuum_err}
    _check(report, "weyl-vacuum", max(vacuum_err.values()) <= tol, tol)
    if monotone is not None:
        _check(report, "weyl-relations-monotone", monotone, MONOTONE_SLACK)
    if zero_modes:
        _check(report, "kernel-count", kernel_ok, 0.0, arithmetic="integer")


def _run_dirlim(job: dict, report: dict, tol: float, seed: int) -> None:
    lam = list(_require(job, "lam"))
    d = [float(x) for x in _finite(_require(job, "d"), "d")]
    if not lam or len(lam) != len(d):
        raise SchemaError(f"lam and d must have the same positive length, got {len(lam)} and {len(d)}")
    if len(set(d)) != len(d):
        raise SchemaError("d entries must be pairwise distinct")
    spec = dirlim.DirectLimitSpec(tuple(d))
    member = dirlim.weight_cone_member(lam, spec)
    report["verdicts"] = {"member": member}
    # one cone generator per pair with d_n > d_m: every pair of distinct entries
    report["tables"] = {"generator_count": spec.level * (spec.level - 1) // 2}
    _check(report, "weight-cone-membership", member, 0.0, arithmetic="integer")


def _integer_box(n: int, box: int):
    _addressable(n * (2 * box + 1) ** n, 8, f"the integer box of radius {box}")
    return list(itertools.product(range(-box, box + 1), repeat=n))


def _run_sweep(job: dict, report: dict, tol: float, seed: int) -> None:
    suite = _require(job, "suite")
    failures = []
    total = 0
    decided, extra = tol, {}  # the tolerance the suite's verdicts are decided under
    if suite == "classification":
        sub = run({"command": "classify", "group": "u", "n": 2, "d": [2.0, 1.0],
                   "box": job.get("box", 2), "tol": tol})
        total = 1
        if not sub["verdicts"]["match"]:
            failures.append({"case": "u2-classification"})
    elif suite == "cone-coroot":
        box = job.get("box", 2)
        if box < 0:
            raise SchemaError("box must be non-negative")
        g = liealg.build_algebra("u", 2)
        for entries in ([2.0, 1.0], [1.0, 3.0]):
            d = liealg.diagonal_element(g, entries)
            dd = liealg.spectral_split(g, d)
            rd = liealg.root_datum(g, d)
            for lam in _integer_box(2, box):
                chi = irreps.torus_character(g, lam)
                total += 1
                a = cones.check_cone_positivity(g, dd, chi, tol=tol, seed=seed).verdict
                b = cones.coroot_condition(chi, rd, tol)
                if a != b:
                    failures.append({"d": entries, "lam": list(lam)})
    elif suite == "fock-convergence":
        sub = run({"command": "fock", "modes": 1, "cutoffs": [10, 20, 40],
                   "zero_modes": 0, "tol": 1e-6, "seed": seed})
        total, decided = 1, MONOTONE_SLACK
        if not sub["verdicts"]["monotone"]:
            failures.append({"case": "fock-monotonicity", "tables": sub["tables"]})
    elif suite == "level-consistency":
        cases = job.get("cases", 1000)
        if cases < 1:
            raise SchemaError("cases must be at least 1")
        rng = np.random.default_rng(seed)
        decided, extra = 0.0, {"arithmetic": "integer"}
        for _ in range(cases):
            level = int(rng.integers(2, 6))
            d = tuple(float(x) for x in rng.permutation(level) + rng.uniform(0, 0.5))
            lam = [int(x) for x in rng.integers(-3, 4, size=level)]
            n = int(rng.integers(1, level))
            total += 1
            if not dirlim.level_consistency(lam, dirlim.DirectLimitSpec(d), n):
                failures.append({"lam": lam, "d": list(d), "prefix": n})
    elif suite == "strict-direct-sums":
        # experiment hook: are direct sums of strict ground state
        # representations strict?  Reports outcomes, open in general.
        g = liealg.build_algebra("u", 2)
        weights = [(1, 0), (2, 0), (1, 1), (0, -1), (2, 1)]
        d = liealg.diagonal_element(g, [2.0, 1.0])
        decided = matcore.DEFAULT_TOL
        for i, a in enumerate(weights):
            for b in weights[i:]:
                total += 1
                summands = [irreps.irrep(g, a), irreps.irrep(g, b)]
                out = groundstate.analyze(irreps.direct_sum(summands), d)
                if not (out.ground_state and out.strict):
                    failures.append({"weights": [list(a), list(b)], "strict": out.strict})
    else:
        raise SchemaError(f"unknown sweep suite {suite!r}")
    report["verdicts"] = {"cases": total, "failures": len(failures)}
    report["tables"] = {"failures": failures}
    _check(report, f"sweep-{suite}", len(failures) == 0, decided, cases=total, **extra)


_HANDLERS = {"analyze": _run_analyze, "classify": _run_classify, "cone-check": _run_cone_check,
             "fock": _run_fock, "dirlim": _run_dirlim, "sweep": _run_sweep}


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are schema errors, not a usage text and exit 2."""

    def error(self, message):
        raise SchemaError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    """Each option's dest is its job key, and its type parses the value the job holds."""
    ints = functools.partial(_parse_numbers, want_int=True)
    parser = _Parser(prog="gsrep", description=__doc__.splitlines()[0])
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache-dir", default=os.environ.get(CACHE_ENV))
    parser.add_argument("--output", default=None, help="report path (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="minimal-energy analysis of an irreducible")
    p.add_argument("--group", choices=["u", "su"], default="u")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=_parse_numbers, required=True,
                   help="diagonal entries of the generator, comma separated")
    p.add_argument("--weight", type=ints, required=True, help="highest weight, comma separated integers")

    p = sub.add_parser("classify", help="antidominant characters vs. lowest weights")
    p.add_argument("--group", choices=["u"], default="u")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=_parse_numbers, required=True)
    p.add_argument("--box", type=int, default=3)

    p = sub.add_parser("cone-check", help="cone positivity of a torus character")
    p.add_argument("--su12", action="store_true", default=None, help="use the rank-two integer predicates")
    p.add_argument("--group", choices=["u", "su"], default="u")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=_parse_numbers)
    p.add_argument("--weight", type=ints, required=True)

    p = sub.add_parser("fock", help="truncated Weyl/second-quantization residual tables")
    p.add_argument("--modes", type=int, default=1)
    p.add_argument("--cutoff", type=int, default=40)
    p.add_argument("--cutoffs", type=ints, default=None, help="comma separated list of cutoffs")
    p.add_argument("--sector", type=int, default=None)
    p.add_argument("--zero-modes", type=int, default=0)

    p = sub.add_parser("dirlim", help="weight-cone membership at a finite level")
    p.add_argument("--lam", type=ints, required=True)
    p.add_argument("--d", type=_parse_numbers, required=True)

    p = sub.add_parser("sweep", help="run a property suite")
    p.add_argument("--suite", required=True,
                   choices=["classification", "cone-coroot", "fock-convergence",
                            "level-consistency", "strict-direct-sums"])
    p.add_argument("--box", type=int, default=2)
    p.add_argument("--cases", type=int, default=1000)
    return parser


def _job_from_args(args: argparse.Namespace) -> dict:
    """The parsed options less unset ones, --output, and an empty --cache-dir or --cutoffs."""
    job = {key: value for key, value in vars(args).items() if value is not None and key != "output"
           and (value or key not in ("cache_dir", "cutoffs"))}
    if job.get("su12"):
        return {key: value for key, value in job.items() if key not in ("group", "n", "d")}
    if job["command"] == "cone-check" and ("n" not in job or "d" not in job):
        raise SchemaError("cone-check needs --n and --d unless --su12 is set")
    return job


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=_json_default) + "\n"


def main(argv=None) -> int:
    try:
        # argparse reads a value such as -1,0 as an option: join it to its list option as --d=-1,0
        joined: list[str] = []
        for arg in sys.argv[1:] if argv is None else argv:
            if joined and joined[-1] in ("--d", "--weight", "--lam") and re.match(r"-[0-9.]", arg):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        args = _build_parser().parse_args(joined)
        text = render_report(run(_job_from_args(args)))
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
    except Exception as exc:  # MemoryError included: the error is one JSON line
        sys.stderr.write(json.dumps({"error": {"code": type(exc).__name__, "message": str(exc)}}) + "\n")
        return 2 if isinstance(exc, SchemaError) else 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
