"""The cli-jobs workload: one fresh interpreter running gsrep.cli per job.

This module does not import gsrep; the benchmark process only spawns jobs
and checks their output.  A job is timed from spawn to exit.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import fixtures
import oracle
from fixtures import Op, expect

IMPORT_PROBE = """
import time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import scipy.linalg
t2 = time.perf_counter()
import gsrep.cli
t3 = time.perf_counter()
print(t3 - t0, t2 - t1)
"""


def job_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GSREP_CACHE_DIR", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_probe(root: Path) -> tuple[float, float]:
    """(import gsrep.cli, of which scipy.linalg) in seconds, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=job_env(root),
                          capture_output=True, text=True, check=True)
    total, scipy_s = (float(x) for x in proc.stdout.split())
    return total, scipy_s


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _strict_json(stdout: bytes) -> dict:
    def reject(token):
        raise fixtures.Mismatch(f"non-strict JSON constant {token}")

    return json.loads(stdout, parse_constant=reject)


def _report(proc: subprocess.CompletedProcess) -> dict:
    expect(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
    expect(b"Traceback" not in proc.stderr, "traceback on stderr")
    return _strict_json(proc.stdout)


def _all_checks_pass(report: dict) -> None:
    failing = [c["id"] for c in report["checks"] if c["verdict"] is not True]
    expect(not failing, f"checks failed: {failing}")


class CliJobs:
    def __init__(self, root: Path, bench: Path):
        self.root = root
        self.bench = bench
        self.env = job_env(root)
        self.cache_dir = root / fixtures.CACHE_DIR
        self.span_dir = None  # set by the traced run: jobs then write spans here
        self.jobs_started = 0
        self.cache_bytes = 0  # cache records written in the last pass
        self.report_bytes = 0  # report bytes printed in the current pass

    # -- running ---------------------------------------------------------

    def _spawn(self, args: list[str]) -> subprocess.CompletedProcess:
        self.jobs_started += 1
        if self.span_dir is None:
            argv = [sys.executable, "-m", "gsrep.cli", *args]
        else:
            spans = self.span_dir / f"job-{self.jobs_started:05d}.json"
            argv = [sys.executable, str(self.bench / "cli_job.py"), str(spans), *args]
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True)
        self.report_bytes += len(proc.stdout)
        return proc

    def setup(self) -> list[list[Op]]:
        """A fresh-interpreter import of gsrep.cli, then the job list."""
        import_probe(self.root)
        return self._units()

    def before_pass(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.report_bytes = 0

    def after_pass(self) -> None:
        self.cache_bytes = sum(p.stat().st_size for p in self.cache_dir.glob("*.json"))
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def _op(self, label: str, args: list[str], check, known_fault: bool = False) -> Op:
        return Op(label, lambda: self._spawn(args), check, known_fault)

    def _units(self) -> list[list[Op]]:
        dl, cone, cl, an = fixtures.DIRLIM, fixtures.CONE, fixtures.CLASSIFY, fixtures.ANALYZE
        analyze_args = ["--cache-dir", fixtures.CACHE_DIR, "analyze", "--group", "u",
                        "--n", str(an["n"]), "--d", _csv(an["d"]), "--weight", _csv(an["weight"])]
        cold = {}

        def check_cold(proc):
            cold["stdout"] = proc.stdout
            self._check_analyze(proc)

        def check_warm(proc):
            self._check_analyze(proc)
            expect(proc.stdout == cold.get("stdout"), "warm-cache report differs from cold")

        units = [
            [self._op("dirlim", ["dirlim", "--lam", _csv(dl["lam"]), "--d", _csv(dl["d"])],
                      self._check_dirlim)],
            [self._op("cone-check", ["cone-check", "--group", "u", "--n", str(cone["n"]),
                                     "--d", _csv(cone["d"]), "--weight", _csv(cone["weight"])],
                      self._check_cone)],
            [self._op("cone-check --su12", ["cone-check", "--su12", "--weight",
                                            _csv(fixtures.SU12_WEIGHT)], self._check_su12)],
            [self._op("classify", ["classify", "--group", "u", "--n", str(cl["n"]),
                                   "--d", _csv(cl["d"]), "--box", str(cl["box"])],
                      self._check_classify)],
            [self._op("analyze cold cache", analyze_args, check_cold),
             self._op("analyze warm cache", analyze_args, check_warm)],
            [self._op("sweep level-consistency",
                      ["sweep", "--suite", "level-consistency", "--cases",
                       str(fixtures.SWEEP_CASES)], self._check_sweep)],
        ]
        for job in fixtures.FOCK_JOBS:
            args = ["fock", "--modes", str(job["modes"]), "--cutoffs", _csv(job["cutoffs"]),
                    "--zero-modes", str(job["zero_modes"])]
            units.append([self._op(f"fock modes={job['modes']}", args, fock_check(job))])
        bad = fixtures.FAULTY_ANALYZE
        units.append([self._op("analyze su(3) non-traceless d",
                               ["analyze", "--group", bad["group"], "--n", str(bad["n"]),
                                "--d", _csv(bad["d"]), "--weight", _csv(bad["weight"])],
                               check_error_contract, known_fault=True)])
        return units

    # -- checks ----------------------------------------------------------

    @staticmethod
    def _check_dirlim(proc) -> None:
        report = _report(proc)
        lam, d = fixtures.DIRLIM["lam"], fixtures.DIRLIM["d"]
        expect(report["verdicts"]["member"] == oracle.cone_member(lam, d), "membership verdict")
        expect(report["tables"]["generator_count"] == oracle.cone_generator_count(d),
               "generator count")
        _all_checks_pass(report)

    @staticmethod
    def _check_cone(proc) -> None:
        report = _report(proc)
        want = oracle.cone_member(fixtures.CONE["weight"], fixtures.CONE["d"])
        v = report["verdicts"]
        expect(v["cone"] is want and v["coroot"] is want and v["agrees"] is True,
               f"cone verdicts {v} != antidominance {want}")
        expect(want or "witness" in report["tables"], "negative verdict without a witness")

    @staticmethod
    def _check_su12(proc) -> None:
        report = _report(proc)
        lam = fixtures.SU12_WEIGHT
        expect(report["verdicts"] == {"cone": oracle.su12_cone(lam),
                                      "hw_unitarizable": oracle.su12_hw_unitarizable(lam)},
               f"su12 verdicts {report['verdicts']}")

    @staticmethod
    def _check_classify(proc) -> None:
        report = _report(proc)
        n, e, box = fixtures.CLASSIFY["n"], fixtures.CLASSIFY["d"], fixtures.CLASSIFY["box"]
        cube = itertools.product(range(-box, box + 1), repeat=n)
        antidominant = sorted(list(lam) for lam in cube if oracle.cone_member(lam, e))
        lowest = sorted({oracle.lowest_weight(lam, e) for lam in fixtures.dominant_box(n, -box, box)})
        expect(report["tables"]["antidominant"] == antidominant, "antidominant set")
        expect(report["tables"]["lowest_weights"] == [list(x) for x in lowest], "lowest weights")
        expect(report["verdicts"]["match"] is True, "classification mismatch")

    @staticmethod
    def _check_analyze(proc) -> None:
        report = _report(proc)
        an = fixtures.ANALYZE
        m, mult, ground = oracle.ground_data(an["weight"], an["d"])
        v, t = report["verdicts"], report["tables"]
        expect(abs(v["m"] - m) <= 1e-8, f"m {v['m']} != oracle {m}")
        expect(v["h0_dim"] == mult, f"h0_dim {v['h0_dim']} != oracle {mult}")
        expect(v["ground_state"] and v["strict"] and v["cyclic"], "not a strict ground state")
        expect(t["h0_weights"] == [list(mu) for mu in ground], "ground weights differ from GT")
        expect(t["rep_dim"] == oracle.weyl_dimension(an["weight"]), "dimension")
        _all_checks_pass(report)

    @staticmethod
    def _check_sweep(proc) -> None:
        report = _report(proc)
        expect(report["verdicts"] == {"cases": fixtures.SWEEP_CASES, "failures": 0},
               f"sweep verdicts {report['verdicts']}")


def fock_check(job: dict):
    def check(proc) -> None:
        report = _report(proc)
        table = report["tables"]["weyl_residuals"]
        cutoffs = sorted(job["cutoffs"])
        expect(sorted(int(c) for c in table) == cutoffs, "cutoff table")
        residuals = [table[str(c)]["residual"] for c in cutoffs]
        expect(all(b < a for a, b in zip(residuals, residuals[1:])),
               f"Weyl residuals do not fall with the cutoff: {residuals}")
        expect(all(table[str(c)]["sector"] == c // 2 for c in cutoffs), "default sector")
        expect(report["verdicts"]["kernel_count_exact"] is True, "kernel count")
        _all_checks_pass(report)

    return check


def check_error_contract(proc) -> None:
    """An input error exits 2 with a one-line message and no traceback."""
    lines = proc.stderr.decode().strip().splitlines()
    expect(proc.returncode == 2, f"exit {proc.returncode}, want 2")
    expect(len(lines) == 1 and "Traceback" not in lines[0], "error is not one line")
    expect(not proc.stdout.strip(), "report printed on error")
