"""Benchmark of one rankbias audit workload.

Run from the repository root:

    python3 bench/run.py --workload scale_topk --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it runs whole audits back to back (a closed loop, one
audit at a time) for about ``--seconds`` seconds and at least two audits,
checks every audit's output, and prints the end-to-end metrics.
With ``--trace 1`` it runs a traced audit between two plain ones and prints
the per-layer metrics; the spans go to ``.bench_out/trace-<workload>-<seed>.json``.
The last line of standard output is the JSON result.

The package is imported from ``src/`` next to this directory, never from
an installed copy; without it the run exits with an error and no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh processes timed for ``setup_s``, half before and half after the
#: audits so that they meet the machine in more than one state; the median
#: is reported.
SETUP_PROBES = 8
#: Repeats needed to compare report bytes within one seed.
MIN_AUDITS = 2
#: No further audit starts once one more would pass this many seconds of run time.
RUN_LIMIT_S = 150.0
#: Samples a percentile needs beyond it before it is reported.
TAIL_SAMPLES = 10
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile above the median with at least
    ``TAIL_SAMPLES`` samples beyond it, and its nearest-rank value."""
    n = len(samples)
    if n == 0:
        return None
    p = math.floor(100 * (1 - TAIL_SAMPLES / n))
    if p <= 50:
        return None
    return p, sorted(samples)[math.ceil(p * n / 100) - 1]


def cap_threads() -> int:
    """Limit numpy's BLAS pool so the process runs at most ``nproc``
    threads, the main thread included; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def use_source_tree() -> None:
    if not (SRC / "rankbias" / "__init__.py").is_file():
        raise SystemExit(f"error: no rankbias source tree at {SRC}")
    sys.path.insert(0, str(SRC))


def threads_running() -> int | None:
    """Threads of this process, where Linux reports them."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            status = handle.read()
    except OSError:
        return None
    return int(status.split("Threads:")[1].split()[0])


def source_identity() -> dict[str, str | None]:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rankbias").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        sha = done.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def run_child(role: str, workload: str, seed: int, work: Path) -> str:
    """Run this script in a fresh process for one child role; its stdout."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", role,
         "--workload", workload, "--seed", str(seed), "--work", str(work)],
        capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{role} child failed:\n{done.stderr}")
    return done.stdout


def child_main(args: argparse.Namespace) -> None:
    start = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.child == "setup":
        workload.manifest(args.seed, args.work / "fixture", args.work / "out")
        print(repr(time.perf_counter() - start))
    else:
        workload.write_fixture(args.seed, args.work / "fixture")


def audit_once(run_audit, manifest, workload, oracle, report_path: Path) -> tuple[float, bytes | None, list[str]]:
    """One timed audit: its seconds, the report.json bytes, and problems."""
    from checks import check_report

    start = time.perf_counter()
    try:
        run_audit(manifest)
    except Exception:  # a failing audit is counted, and the run goes on
        return time.perf_counter() - start, None, ["audit raised:\n" + traceback.format_exc()]
    elapsed = time.perf_counter() - start
    try:
        data = report_path.read_bytes()
        return elapsed, data, check_report(json.loads(data), workload, oracle)
    except Exception:  # a report the checks cannot read fails the audit too
        return elapsed, None, ["checking the report raised:\n" + traceback.format_exc()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "fixture"), help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    nproc = cap_threads()
    use_source_tree()
    if args.child:
        child_main(args)
        return 0
    load_1m = os.getloadavg()[0]

    import numpy

    from checks import PairOracle
    from rankbias.audit import run_audit
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if workload.from_files:
            run_child("fixture", workload.name, args.seed, work)
        manifest = workload.manifest(args.seed, work / "fixture", work / "out")
        oracle = PairOracle(workload, args.seed, work / "fixture")

        def audit(fn=run_audit):
            return audit_once(fn, manifest, workload, oracle, work / "out" / "report.json")

        def probe_setup() -> list[float]:
            return [float(run_child("setup", workload.name, args.seed, work)) for _ in range(SETUP_PROBES // 2)]

        if args.trace:
            result = traced_run(audit, run_audit)
        else:
            result = timed_run(audit, probe_setup, workload, args, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    threads = threads_running()
    if threads is not None and threads > nproc:
        result["problems"].append(f"{threads} threads running, more than nproc={nproc}")
        result["correct"] = False
    meta = {
        **source_identity(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
        "threads_running": threads,
        "loadavg_1m_at_start": load_1m,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes(),
    }
    for problem in result.pop("problems"):
        print(f"FAILED CHECK: {problem}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{workload.name}-{args.seed}.json"
        trace_path.write_text(json.dumps({"meta": meta, **result.pop("trace")}, indent=1) + "\n")
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


def timed_run(audit, probe_setup, workload, args, started) -> dict:
    setup = probe_setup()
    samples: list[float] = []
    problems: list[str] = []
    failed = 0
    first: bytes | None = None
    loop_start = time.perf_counter()
    while True:
        if len(samples) >= MIN_AUDITS:
            now = time.perf_counter()
            # stop once one more audit would end further past --seconds than the time left now
            if now - loop_start + statistics.median(samples) / 2 > args.seconds:
                break
            if now - started + max(samples) > RUN_LIMIT_S:
                break
        elapsed, data, found = audit()
        samples.append(elapsed)
        if first is None:
            first = data
        elif data is not None and data != first:
            found.append("report.json bytes differ from the first audit of this seed")
        if found:
            failed += 1
            problems.extend(found)
    setup += probe_setup()
    audit_s = statistics.median(samples)
    tail = tail_percentile(samples)
    print(f"{workload.name} seed {args.seed}: {len(samples)} audits in {sum(samples):.3f} s, {failed} failed")
    print(
        f"audit_s median {audit_s:.4f} s over {len(samples)} samples; "
        + (f"p{tail[0]} {tail[1]:.4f} s" if tail else f"no percentile has {TAIL_SAMPLES} samples beyond it")
    )
    print("audit_s samples " + " ".join(f"{s:.4f}" for s in samples))
    print(f"error_rate {failed / len(samples)} ({failed} of {len(samples)})")
    print("setup_s probes " + " ".join(f"{s:.4f}" for s in setup))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            "audit_s": {"value": audit_s, "unit": "s"},
            "lists_per_s": {"value": workload.lists / audit_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        },
        "problems": problems,
    }


def traced_run(audit, run_audit) -> dict:
    """Untraced, traced, untraced: the overhead is the traced audit's time
    minus the mean of the two audits around it."""
    from tracing import Tracer, installed, layer_metrics, unit_of

    tracer = Tracer()
    audits = [audit()]
    with installed(tracer):
        audits.append(audit(tracer.span("audit.run_audit", run_audit)))
    audits.append(audit())
    for name in tracer.missing:
        print(f"not traced: {name} is missing from the package")
    first = audits[0][1]
    for _, data, problems in audits[1:]:
        if first is not None and data is not None and data != first:
            problems.append("report.json bytes differ from the first audit of this seed")
    (before_s, _, _), (traced_s, data, _), (after_s, _, _) = audits
    untraced_s = (before_s + after_s) / 2
    metrics = {}
    if data is not None:
        values = layer_metrics(tracer, json.loads(data), len(data), traced_s, untraced_s)
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
        print(
            f"untraced audits {before_s:.4f} s and {after_s:.4f} s, traced {traced_s:.4f} s; "
            f"layer self times sum to {values['trace.layer_sum_s']:.4f} s"
        )
        for name, value in values.items():
            print(f"  {name:40} {value:.6g} {unit_of(name)}")
    return {
        "correct": all(not problems for _, _, problems in audits),
        "attempted": len(audits),
        "failed": sum(bool(problems) for _, _, problems in audits),
        "metrics": metrics,
        "problems": [p for _, _, problems in audits for p in problems],
        "trace": tracer.to_dict(),
    }


if __name__ == "__main__":
    sys.exit(main())
