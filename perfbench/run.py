"""vswu benchmark: throughput of ``vswu train`` and ``vswu eval`` on
synthetic data generated from a seed, with a separate traced run for
per-layer numbers.

    python3 perfbench/run.py --workload segment_t5 --seed 3 --seconds 45 --trace 0
    python3 perfbench/run.py --list      # every metric with its unit and meaning

Run from the repository root (the package is imported from ``src/``).
Workloads, metric names and units are defined in ``BENCHMARK.json``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A copy of the
result with provenance and notes goes to ``.perfbench/results/``; each
run leaves its synthetic data (a few tens of MB) in ``.perfbench/work/``,
which may be deleted between benchmark sessions.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench"
# one BLAS thread: the workloads' GEMMs are small, and a second thread on a
# shared two-core box adds more variance than speed
BLAS_THREADS = 1


def configure() -> None:
    """Pin thread counts and put the package on the path; call before
    numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["VSWU_NUM_WORKERS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--list", action="store_true",
                   help="print every metric with its unit and what it measures")
    return p.parse_args(argv)


def _print_metrics(spec: dict) -> None:
    from layers import DESCRIPTIONS
    for w in spec["workloads"]:
        print(f"workload {w['name']}: {w['why']}")
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            bound = f", bound {m['bound']}" if "bound" in m else ""
            print(f"{kind} {m['name']} [{m['unit']}, {m['better']} is better{bound}]: "
                  f"{DESCRIPTIONS.get(m['name'], '')}")


def _blas_threads_in_use():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                return int(getattr(handle, fn)())
    return None


def provenance() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads_requested": BLAS_THREADS,
            "blas_threads_in_use": _blas_threads_in_use(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "processor": platform.processor()}


def gemm_peak_gflops(n: int = 512, trials: int = 5, reps: int = 8) -> float:
    """Best-of-trials float32 GEMM rate: the ceiling the kernels could reach."""
    import numpy as np
    gen = np.random.default_rng(0)
    a = gen.standard_normal((n, n), dtype=np.float32)
    b = gen.standard_normal((n, n), dtype=np.float32)
    a @ b
    best = 0.0
    for _ in range(trials):
        t0 = time.perf_counter()
        for _ in range(reps):
            a @ b
        best = max(best, 2.0 * n ** 3 * reps / (time.perf_counter() - t0) / 1e9)
    return best


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads(SPEC.read_text())
    if args.list:
        _print_metrics(spec)
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: --workload must be one of {names}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "vswu" / "__init__.py").is_file():
        print(f"error: package source {ROOT / 'src' / 'vswu'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    configure()
    from layers import per_layer
    from spans import Recorder
    from vswu import costs
    from workloads import WORKLOADS, measure

    w = WORKLOADS[args.workload]
    work = OUT / "work" / f"{w.name}-seed{args.seed}-{os.getpid()}"
    recorder = Recorder() if args.trace else None
    try:
        gemm_peak = gemm_peak_gflops() if args.trace else None
        res = measure(w, args.seed, work, args.seconds, recorder)
        analytic = costs.component_costs(w.model_config(args.seed, work))
    finally:
        # the many small files a run writes stay: deleting thousands of them
        # slowed file creation, and so the next run's set-up, by up to 4x for
        # tens of seconds (ext4 mounted with discard); deleting the few large
        # checkpoints, which hold most of the bytes, did not
        for ckpt in work.rglob("*.ckpt"):
            ckpt.unlink()

    values = {"snippets_per_s": statistics.median(res.rates) if res.rates else 0.0,
              "setup_s": statistics.median(res.setup_seconds),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    report = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "commands": len(res.rates) + len(res.traced_rates),
              "rates": res.rates, "notes": res.notes}
    if recorder is not None:
        totals, flops = recorder.summary()
        values.update(per_layer(totals, flops, analytic, max(res.traced_ops, 1)))
        traced = statistics.median(res.traced_rates) if res.traced_rates else 0.0
        values.update({"tensor.gemm_peak_gflops": gemm_peak,
                       "trace.traced_snippets_per_s": traced,
                       "trace.untraced_snippets_per_s": values["snippets_per_s"],
                       "trace.rate_ratio": traced / values["snippets_per_s"]
                       if values["snippets_per_s"] else 0.0})
        silent = recorder.silent(w.spans)
        if silent:
            res.errors.append(f"expected trace spans never fired: {silent}")
        report.update({"traced_rates": res.traced_rates, "hook_sites": recorder.sites,
                       "hooks_missing": recorder.missing,
                       "spans": {k: vars(v) for k, v in sorted(totals.items())}})
        if recorder.missing:
            print(f"warning: trace targets missing: {recorder.missing}", file=sys.stderr)

    correct = not res.errors and res.failed == 0
    for e in res.errors:
        print(f"check failed: {e}", file=sys.stderr)
    kind = "per_layer" if args.trace else "end_to_end"
    result = {"correct": correct, "attempted": res.attempted,
              "failed": res.failed if correct else res.attempted,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in spec[kind]}}
    report.update({"errors": res.errors, "provenance": provenance(), "result": result})
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({"provenance": report["provenance"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
