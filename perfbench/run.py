"""primeplm benchmark entry point.

    python3 perfbench/run.py --workload study --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; primeplm is imported from its src/.
With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced pass.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the full record
(environment, tail percentiles, checks, spans) goes to perfbench/out/.
The exit code is 1 when a correctness check or an operation failed and 2
when the checkout has no primeplm sources.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict[str, str]:
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        size = _read(os.path.join(base, entry, "size"))
        if level and size and kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    head = _read(os.path.join(git, "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(os.path.join(git, ref))
    if direct:
        return direct
    for line in (_read(os.path.join(git, "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    paths = set()
    for line in (_read("/proc/self/maps") or "").splitlines():
        field = line.split()[-1]
        if "openblas" in field.lower() and ".so" in field:
            paths.add(field)
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_pinned": threads,
        "blas_threads_reported": _blas_threads(),
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "primeplm", "__init__.py")):
        print(f"error: no primeplm sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads it, so pin before importing.
    # One thread: the matrices are small enough that a second thread mostly
    # spin-waits, and on a shared host it makes timings follow the neighbours' load.
    threads = 1
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    sys.path.insert(0, SRC)
    import bench
    import primeplm

    if not os.path.abspath(primeplm.__file__).startswith(SRC + os.sep):
        print(f"error: primeplm imported from {primeplm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    os.makedirs(OUT, exist_ok=True)
    record = bench.run(
        bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), OUT, import_s
    )
    record["environment"] = environment(threads)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{record['rounds']} rounds in {record['measured_s']:.1f} s; record in "
          f"{os.path.relpath(os.path.join(OUT, name), ROOT)}")
    for metric, entry in record["metrics"].items():
        extra = record.get("timings", {}).get(metric, {})
        extra_text = "  ".join(f"{k} {v:.6g}" for k, v in extra.items() if k != "median")
        print(f"  {metric:<32} {entry['value']!s:<24} {entry['unit']:<14} {extra_text}")
    for kind, row in record.get("breakdown_s_per_op", {}).items():
        top = sorted(((v, k) for k, v in row.items() if k != "assemble_calls"), reverse=True)
        layers = ", ".join(f"{k} {v * 1e3:.2f} ms" for v, k in top)
        print(f"  self time per {kind} op: {layers}; "
              f"assemble_design calls {row.get('assemble_calls', 0):g}")
    if record.get("absent_hooks"):
        print(f"  absent hooks (their metrics read 0): {', '.join(record['absent_hooks'])}")
    failed_checks = [c for c in record["checks"] if not c["ok"]]
    print(f"  checks: {len(record['checks']) - len(failed_checks)} passed, "
          f"{len(failed_checks)} failed; operations+checks attempted {record['attempted']}, "
          f"failed {record['failed']}")
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
