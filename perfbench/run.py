"""syncstab benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload station_screen --seed 1 --seconds 18 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1``
they are the per-layer ones.  The line before it summarises the run in
words.  A run record (environment, every operation with its raw time and
reference timings, every error) goes to ``perfbench/results/``.
``--workload all`` runs the four workloads one after the other.

Operation times are corrected for machine drift.  A fixed reference loop
that does not call syncstab runs before every operation and after the last
one; each operation's wall time is scaled by ``REF_NOMINAL_MS`` over the
median of the reference timings around it.  The raw times stay in the
record.  ``setup_s`` is a plain wall time.

The program is imported from ``src/`` of the checkout this file sits in.
BLAS threads are pinned to one in this process's environment, before NumPy
is imported, and the set-up probes inherit that setting.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 3
# a set-up probe that takes longer than this is treated as hung; three of
# them and the timed loop stay inside a run's 180 s
SETUP_TIMEOUT_S = 30
# median of reference_ms() on the 2-vCPU machine where the bounds were set;
# corrected times are wall times at that machine speed
REF_NOMINAL_MS = 8.0

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "points_per_s": "1/s",
                    "peak_alloc_mb": "MB"}


def _import_program() -> None:
    if not (ROOT / "src" / "syncstab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no syncstab sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))


_REF_MATRIX = (np.random.default_rng(0).normal(size=(5, 5))
               + 1j * np.random.default_rng(1).normal(size=(5, 5)))


def reference_ms(reps: int = 1) -> float:
    """Fixed work shaped like the scan: small complex eigs and a keyed sort.

    Returns the median over ``reps`` repetitions of one loop, in ms.
    """
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(150):
            vals, _vecs = np.linalg.eig(_REF_MATRIX)
            sorted(range(25), key=lambda i: (-abs(vals[i % 5]), i))
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def reference_reps(op_s: float) -> int:
    """Repetitions that keep the reference near 3 % of the operation beside it,
    so that a long operation is judged by more than one short sample."""
    return max(1, min(9, int(op_s / 0.25)))


def correct_times(ops: list[dict], refs: list[float]) -> None:
    """Set each op's drift-corrected ``s`` from its raw time.

    ``refs[i]`` ran just before op i and ``refs[i + 1]`` just after it.  The
    machine speed for op i is the median of the four samples around it; a
    single sample is too noisy for operations of several seconds.
    """
    for i, op in enumerate(ops):
        op["s"] = op["raw_s"] * REF_NOMINAL_MS / statistics.median(refs[max(0, i - 1):i + 3])


def tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten ops beyond it."""
    if len(times) < 40:
        return None
    ordered = sorted(times)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError) as exc:    # the layout differs across NumPy builds
        blas = repr(exc)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "ref_nominal_ms": REF_NOMINAL_MS,
    }


def attempt(op) -> tuple[float, str | None]:
    """Run one operation (timed) and its check (untimed); (seconds, error)."""
    from checks import CheckFailed
    try:
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:      # the run goes on; the operation counts as failed
            return time.perf_counter() - start, f"{op.label}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        try:
            op.check(out)
        except CheckFailed as exc:
            return elapsed, f"{op.label}: check: {exc}"
        except Exception as exc:      # a malformed output breaks the check itself
            return elapsed, f"{op.label}: check raised {type(exc).__name__}: {exc}"
        return elapsed, None
    finally:
        op.cleanup()


def setup_probe(workload: str, seed: int, t0: float) -> None:
    """Child side of setup_s: imports, inputs, the first operation and its check."""
    from workloads import WORKLOADS
    workdir = tempfile.mkdtemp(prefix="setup-", dir=RESULTS)
    try:
        _elapsed, error = attempt(WORKLOADS[workload](seed, workdir).round(0)[0])
        done = time.time() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": done, "error": error}))


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[str]]:
    """Wall seconds of fresh set-up probes.  They are not drift-corrected:
    interpreter start, imports and file reads do not track the reference
    loop, and correcting them widened their spread."""
    values, errors = [], []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--setup-probe", repr(time.time())]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:     # run() has killed and reaped the probe
            errors.append(f"set-up probe ran past {SETUP_TIMEOUT_S} s")
            continue
        if proc.returncode != 0:
            errors.append(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        values.append(record["setup_s"])
        if record["error"]:
            errors.append(f"set-up probe: {record['error']}")
    return values, errors


def peak_alloc_mb(workload) -> tuple[float, str | None]:
    """Peak traced allocation of the first operation of round 0."""
    op = workload.round(0)[0]
    tracemalloc.start()
    try:
        _elapsed, error = attempt(op)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6, error


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS
    import tracing

    probes, outside = measure_setup(name, seed) if not trace else ([], [])
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=RESULTS)
    try:
        workload = WORKLOADS[name](seed, workdir)
        tracer = tracing.Tracer() if trace else None
        ops, layer_rows = [], []
        refs = [reference_ms()]
        start = time.perf_counter()
        k = 0
        # a traced run needs a traced and an untraced round at the least
        while k < 1 + trace or time.perf_counter() - start < seconds:
            # alternate rounds are traced, so the traced and untraced figures
            # come from the same stretch of the run
            traced = trace and k % 2 == 0
            for op in workload.round(k):
                first = len(tracer.spans) if traced else 0
                if traced:
                    tracer.install()
                try:
                    elapsed, error = attempt(op)
                finally:
                    if traced:
                        tracer.uninstall()
                refs.append(reference_ms(reference_reps(elapsed)))
                ops.append({"round": k, "label": op.label, "points": op.points,
                            "raw_s": elapsed, "traced": traced, "error": error})
                if traced:
                    layer_rows.append(tracing.op_metrics(tracer.spans, first,
                                                         elapsed, op.points))
            k += 1
        loop_s = time.perf_counter() - start
        if not trace:
            peak_mb, alloc_error = peak_alloc_mb(workload)
            outside += [alloc_error] if alloc_error else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct_times(ops, refs)
    # the set-up probes and the allocation pass are checked as well; a failure
    # there is not an operation of the timed loop, so it marks the run incorrect
    failed = [o for o in ops if o["error"]]
    good = [o for o in ops if not o["error"]]
    plain = [o for o in good if not o["traced"]]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": k, "loop_s": loop_s, "attempted": len(ops), "failed": len(failed),
        "correct": not outside and bool(good),
        "errors": (outside + [o["error"] for o in failed])[:50],
        "reference_p50_ms": statistics.median(refs), "reference_ms": refs,
        "raw_op_p50_ms": median_or_nan(o["raw_s"] * 1e3 for o in plain),
        "environment": environment(), "setup": probes, "ops": ops,
    }
    if trace:
        traced_ms = median_or_nan(o["s"] * 1e3 for o in good if o["traced"])
        plain_ms = median_or_nan(o["s"] * 1e3 for o in plain)
        metrics = {key: statistics.median(row[key] for row in layer_rows)
                   for key in layer_rows[0]}
        metrics["trace.overhead_ms"] = traced_ms - plain_ms
        metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_ms"] / plain_ms
        record["traced_rows"] = layer_rows
        record["spans_file"] = f"{name}_seed{seed}_spans.jsonl"
        tracing.write_spans(tracer.spans, RESULTS / record["spans_file"])
    else:
        times_ms = [o["s"] * 1e3 for o in plain]
        metrics = {
            "setup_s": median_or_nan(probes),
            "op_p50_ms": median_or_nan(times_ms),
            "points_per_s": sum(o["points"] for o in good) / sum(o["s"] for o in ops),
            "peak_alloc_mb": peak_mb,
        }
        record["op_tail"] = tail(times_ms)
    record["metrics"] = metrics
    return record


def median_or_nan(values) -> float:
    """Median, or NaN when every operation of its kind failed."""
    values = list(values)
    return statistics.median(values) if values else float("nan")


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    for suffix, unit in (("_ms", "ms"), ("_mb", "MB"), ("_pct", "%"), ("_bytes", "bytes"),
                         ("_per_point", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def summary_line(record: dict) -> str:
    m = record["metrics"]
    parts = [f"{record['workload']}: {record['attempted']} ops in {record['rounds']} rounds, "
             f"{record['failed']} failed; reference loop p50 {record['reference_p50_ms']:.2f} ms "
             f"(nominal {REF_NOMINAL_MS}); raw op p50 {record['raw_op_p50_ms']:.1f} ms"]
    if not record["trace"]:
        parts.append(f"corrected: setup {m['setup_s']:.3f} s, op p50 {m['op_p50_ms']:.1f} ms")
        if record["op_tail"]:
            pct, value = record["op_tail"]
            parts.append(f"op p{pct:.1f} {value:.1f} ms (tail of {len(record['ops'])} ops)")
        else:
            parts.append("no op tail (fewer than 40 ops)")
    parts += [f"error: {err}" for err in record["errors"][:5]]
    return "; ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    RESULTS.mkdir(exist_ok=True)
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; have {', '.join(WORKLOADS)}, all")
    if args.setup_probe is not None:
        setup_probe(names[0], args.seed, args.setup_probe)
        return 0

    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        records.append(record)
        path = RESULTS / f"{name}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1), encoding="utf-8")
        print(summary_line(record), flush=True)

    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}/{k}" if prefix else k): {"value": v, "unit": unit_of(k)}
                    for r in records for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
