"""defmap benchmark: one command, real CLI calls, one JSON result line.

    python3 perfbench/run.py --workload fit-ortho --seed 1 --seconds 40 \
        --trace 0

Run from the repository root. The package is imported from ``src/`` of
the checkout that holds this file, never from an installed copy. BLAS and
OpenMP are pinned to one thread before numpy loads, and all load comes
from this one process (closed loop: each CLI call starts when the previous
one returned). Scratch files go under ``.bench_work/`` and are removed at
the end; traced runs keep their spans in ``.bench_traces/``.

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` the workload runs twice with the same seed, untraced and then
traced, each pass measuring for half of ``--seconds`` so that the run takes
about as long as an untraced one, and the result holds the per-layer
metrics of the traced pass plus
the tracing overhead (traced minus untraced end-to-end figures). The
environment and the output checks of each pass are printed as a JSON line
before the result.
"""

import os

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {"frames_per_s": "frames/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
# per-layer metrics a traced run adds to those derived from its spans
RUN_LEVEL_UNITS = {
    "quality.d_pcl": "unitless",
    "quality.d_depth": "unitless",
    "run.failed_frac": "ratio",
    **{f"overhead.{k}": u for k, u in END_TO_END_UNITS.items()},
}


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in _THREAD_VARS},
        "seed": seed,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "defmap" / "__init__.py").is_file():
        print(f"error: no defmap package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads
    from tracing import Tracer

    table = workloads.WORKLOADS
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(table)}", file=sys.stderr)
        return 2
    w = table[args.workload]
    # a terminated run still removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    env = environment(args.seed)
    work_root = ROOT / ".bench_work"
    work = work_root / f"{w.name}-seed{args.seed}-{os.getpid()}"
    window = args.seconds / 2 if args.trace else args.seconds
    try:
        base = workloads.run_workload(w, args.seed, window,
                                      work / "untraced")
        runs = [base]
        if args.trace:
            tracer = Tracer(run_id=f"{w.name}-seed{args.seed}")
            layers.install(tracer)
            try:
                traced = workloads.run_workload(w, args.seed, window,
                                                work / "traced")
            finally:
                tracer.uninstall()
            runs.append(traced)
            trace_dir = ROOT / ".bench_traces"
            trace_dir.mkdir(exist_ok=True)
            tracer.dump(trace_dir / f"{w.name}-seed{args.seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    for r in runs:
        for e in r.errors:
            print(f"[{w.name}] {e}", file=sys.stderr)
        failed_checks = [k for k, ok in r.checks.items() if not ok]
        if failed_checks:
            print(f"[{w.name}] failed checks: {failed_checks}",
                  file=sys.stderr)

    if args.trace:
        per_layer = layers.derive(tracer, traced.nonfinite)
        metrics = {k: _metric(v, layers.PER_LAYER[k])
                   for k, v in per_layer.items()}
        run_level = {
            **traced.quality,
            "run.failed_frac": traced.failed / traced.attempted,
            **{f"overhead.{k}": traced.end_to_end[k] - base.end_to_end[k]
               for k in END_TO_END_UNITS},
        }
        for k, unit in RUN_LEVEL_UNITS.items():
            metrics[k] = _metric(run_level[k], unit)
    else:
        metrics = {k: _metric(base.end_to_end[k], unit)
                   for k, unit in END_TO_END_UNITS.items()}

    print(json.dumps({"environment": env, "workload": w.name,
                      "checks": [r.checks for r in runs]}))
    print(json.dumps({
        "correct": all(r.correct for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
