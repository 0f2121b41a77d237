"""Run a promptseg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-fixed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports promptseg from ``src/``.  Each
workload runs in a process of its own with one BLAS thread.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Outputs (run directories, spans, the
trace summary) go to ``perfbench/out/<workload>/``.  See README.md there.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-fixed", "train-augment", "sweep")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes
    import re

    maps = Path("/proc/self/maps").read_text() if Path("/proc/self/maps").exists() else ""
    for lib in sorted(set(re.findall(r"\S*openblas\S*\.so\S*", maps))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_all(args) -> int:
    """Each workload in a fresh process; the last line maps workload -> result."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(f"[{name}] {ln}" for ln in lines[:-1]))
        results[name] = (json.loads(lines[-1]) if proc.returncode in (0, 1) and lines
                         else None)
        code = max(code, proc.returncode)
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "promptseg" / "__init__.py").is_file():
        print(f"error: no promptseg sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    for var in THREAD_VARS:     # before numpy loads
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    record = machine()
    print("machine " + json.dumps(record, sort_keys=True))
    result = workloads.run_workload(workloads.WORKLOADS[args.workload], args.seed,
                                    args.seconds, bool(args.trace),
                                    ROOT / "perfbench" / "out" / args.workload)
    for line in result.pop("lines"):
        print(line)
    for err in result.pop("errors"):
        print(f"failed operation: {err}", file=sys.stderr)
    failures = result.pop("failures")
    for msg in failures:
        print(f"CHECK FAILED {msg}")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"operations attempted {result['attempted']} failed {result['failed']}; "
          f"checks {'passed' if result['correct'] else f'FAILED ({len(failures)})'}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
