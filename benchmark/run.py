"""Whole-pass benchmark of gsrep.

Run from the root of a checkout:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: analyze-irreducible, analyze-reducible, irrep-build, cli-jobs
(see benchmark/README.md).  One caller runs one operation at a time
(closed loop), in whole passes over the workload's fixed operation list;
the seed only shuffles the order within each pass.  Another pass starts
only while the run is expected to end within S seconds, and every run
makes at least one.  Only the calls into gsrep are timed; every result is
checked against the oracle outside the timed region.

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1 it has the per-layer
metrics, from one untraced and one traced pass (setup included), whose
difference is reported as the tracing overhead.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Set before numpy is imported; jobs inherit it.  One thread is both faster
# and steadier on a two-core machine than OpenBLAS's default of one thread
# per core, whose first large call also pays a thread warm-up.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("analyze-irreducible", "analyze-reducible", "irrep-build", "cli-jobs")
SETUP_REPEATS = 5
IMPORT_PROBES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_workload(name: str):
    """Import the workload's module (timed as set-up) and construct it."""
    if not (ROOT / "src" / "gsrep" / "__init__.py").is_file():
        sys.exit(f"benchmark: no gsrep sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    if name == "cli-jobs":
        import clijobs

        import_s = time.perf_counter() - T0
        return clijobs.CliJobs(ROOT, BENCH), import_s
    import inproc

    import_s = time.perf_counter() - T0
    cls = {"analyze-irreducible": inproc.AnalyzeIrreducible,
           "analyze-reducible": inproc.AnalyzeReducible,
           "irrep-build": inproc.IrrepBuild}[name]
    return cls(), import_s


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0  # timed wall time, all attempted operations
        self.times: list[float] = []  # one per completed operation
        self.problems: list[str] = []


def run_pass(workload, units, rng: random.Random, tally: Tally, tracer=None) -> None:
    """One pass over every operation, in seed-shuffled unit order."""
    order = list(units)
    rng.shuffle(order)
    if hasattr(workload, "before_pass"):
        workload.before_pass()
    for unit in order:
        for op in unit:
            tally.attempted += 1
            if tracer:
                tracer.active = True
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # an operation that raises is a failed operation
                tally.busy_s += time.perf_counter() - start
                tally.failed += 1
                if not op.known_fault:
                    tally.problems.append(f"{op.label}: raised {exc!r}")
                continue
            finally:
                if tracer:
                    tracer.active = False
            elapsed = time.perf_counter() - start
            tally.busy_s += elapsed
            try:
                op.check(result)
            except Exception as exc:  # any check error makes the result wrong
                if op.known_fault:
                    tally.failed += 1
                    continue
                tally.problems.append(f"{op.label}: {exc}")
            tally.times.append(elapsed)
    if hasattr(workload, "after_pass"):
        workload.after_pass()


def timed_setup(workload):
    start = time.perf_counter()
    units = workload.setup()
    return units, time.perf_counter() - start


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, workload, import_s: float, spec: dict) -> tuple[Tally, dict, str]:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        units, seconds = timed_setup(workload)
        setup_times.append(seconds)
    rng = random.Random(args.seed)
    tally = Tally()
    passes = 0
    start = time.perf_counter()
    while True:
        run_pass(workload, units, rng, tally)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > args.seconds:
            break
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-jobs" else resource.RUSAGE_SELF
    values = {
        "ops_per_s": (tally.attempted - tally.failed) / tally.busy_s,
        "op_p50_ms": 1e3 * statistics.median(tally.times),
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    note = (f"passes={passes} ops_per_pass={sum(len(u) for u in units)} "
            f"samples={len(tally.times)} setup_repeats={SETUP_REPEATS}")
    return tally, {m["name"]: metric(values[m["name"]], m["unit"]) for m in spec["end_to_end"]}, note


def traced(args, workload, spec: dict) -> tuple[Tally, dict, str]:
    import clijobs
    import layertrace

    OUT.mkdir(exist_ok=True)
    rng = random.Random(args.seed)
    tally = Tally()
    units, setup_plain = timed_setup(workload)
    start = time.perf_counter()
    run_pass(workload, units, rng, tally)
    plain = setup_plain + time.perf_counter() - start

    tracer = None
    if args.workload == "cli-jobs":
        workload.span_dir = OUT / "spans-cli-jobs"
        workload.span_dir.mkdir(exist_ok=True)
        for old in workload.span_dir.glob("job-*.json"):
            old.unlink()
    else:
        tracer = layertrace.Tracer()
        tracer.install()
    units, setup_traced = timed_setup(workload)
    start = time.perf_counter()
    run_pass(workload, units, rng, tally, tracer)
    with_trace = setup_traced + time.perf_counter() - start

    if tracer:
        tracer.uninstall()
        tracer.dump(OUT / f"trace-{args.workload}.json")
        layers = layertrace.summarize(tracer.spans)
    else:
        layers = {}
        for path in sorted(workload.span_dir.glob("job-*.json")):
            for label, agg in layertrace.summarize(json.loads(path.read_text())).items():
                total = layers.setdefault(label, dict.fromkeys(agg, 0))
                for key, value in agg.items():
                    total[key] += value
    probes = [clijobs.import_probe(ROOT) for _ in range(IMPORT_PROBES)]
    special = {
        "cli.import_s": statistics.median(p[0] for p in probes),
        "cli.import_scipy_linalg_s": statistics.median(p[1] for p in probes),
        "cli.cache_bytes": getattr(workload, "cache_bytes", 0),
        "cli.report_bytes": getattr(workload, "report_bytes", 0),
        "trace.overhead_pct": 100.0 * (with_trace / plain - 1.0),
    }
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in special:
            value = special[name]
        else:
            label, field = name.rsplit(".", 1)
            layer = layers.get(label, {})
            value = layer.get("flops", 0) / 1e9 if field == "gflop" else layer.get(field, 0)
        metrics[name] = metric(value, m["unit"])
    note = f"untraced_s={plain:.3f} traced_s={with_trace:.3f} spans written under {OUT}"
    return tally, metrics, note


def main(argv=None) -> int:
    args = parse_args(argv)
    workload, import_s = load_workload(args.workload)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        tally, metrics, note = traced(args, workload, spec)
    else:
        tally, metrics, note = end_to_end(args, workload, import_s, spec)
    for problem in tally.problems[:20]:
        print(f"benchmark: wrong result: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} blas_threads={BLAS_THREADS} "
          f"{note} attempted={tally.attempted} failed={tally.failed}")
    print(json.dumps({"correct": not tally.problems, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
