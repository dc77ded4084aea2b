"""One phase of a benchmark run, in its own process.

    python3 perfbench/worker.py --phase setup|measure --workload W --seed N
        --work DIR --out RESULT.json [--repeats MIN MAX] [--seconds S] [--reps R]
        [--trace SPANS.jsonl]

`run.py` starts this with the BLAS thread count pinned and `src` on the
path; it is not meant to be started by hand.  `setup` builds the inputs
into DIR, at least MIN and at most MAX times and until S seconds have
passed, and times each build.  `measure` runs repetitions of the workload
until S seconds have passed, or exactly R of them.  With --trace
every repetition is traced and its per-layer metrics are returned.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Rep, fresh_dir, tree_digest  # noqa: E402


def blas_info() -> dict:
    """BLAS name and version from numpy's build record, and the thread
    count the loaded OpenBLAS reports (None where it cannot be asked)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {"blas": name, "blas_threads_loaded": threads, "numpy": np.__version__}


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w") as f:
        for span in tracer.spans:
            f.write(json.dumps(span) + "\n")


def run_setup(args, workload) -> dict:
    work = Path(args.work)
    times, digests, problems = [], [], []
    tracer = Tracer() if args.trace else None
    fewest, most = args.repeats
    start = time.perf_counter()
    i = 0
    while i < fewest or (i < most and time.perf_counter() - start < args.seconds):
        i += 1
        fresh_dir(work)
        tic = time.perf_counter()
        try:
            if tracer:
                tracer.run_id = "setup"
                with tracer:
                    workload.setup(work, args.seed)
            else:
                workload.setup(work, args.seed)
        except Exception as exc:  # reported as a failed set-up, not a crash
            problems.append(f"set-up {i} raised {exc!r}")
            continue
        times.append(time.perf_counter() - tic)
        digests.append(tree_digest(work))
    if len(set(digests)) > 1:
        problems.append(f"set-up is not byte-identical across {len(digests)} builds")
    result = {"setup_s": times, "digest": digests[0] if digests else "", "attempted": i,
              "problems": problems}
    if tracer:
        write_spans(tracer, args.trace)
        result["layers"], _ = layer_metrics(tracer.spans, "setup", 1e3 * sum(times))
    return result


def run_measure(args, workload) -> dict:
    work = Path(args.work)
    tracer = Tracer() if args.trace else None
    reps = []
    start = time.perf_counter()
    while True:
        i = len(reps)
        rep = Rep()
        tic = time.perf_counter()
        if tracer:
            tracer.run_id = f"rep{i}"
            with tracer:
                workload.rep(work, args.seed, rep)
        else:
            workload.rep(work, args.seed, rep)
        wall_ms = (time.perf_counter() - tic) * 1e3
        result = dataclasses.asdict(rep) | {"wall_ms": wall_ms}
        if tracer:
            result["layers"], problems = layer_metrics(tracer.spans, f"rep{i}", wall_ms)
            result["problems"] += problems
            result["failed"] += len(problems)
        reps.append(result)
        if args.reps:
            if len(reps) == args.reps:
                break
        elif time.perf_counter() - start >= args.seconds:
            break
    if tracer:
        write_spans(tracer, args.trace)
    return {"reps": reps, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **blas_info()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--phase", choices=("setup", "measure"), required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--repeats", type=int, nargs=2, default=(1, 1), metavar=("MIN", "MAX"))
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--reps", type=int, default=0)
    p.add_argument("--trace", default=None, help="span file; traces the phase when given")
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    result = run_setup(args, workload) if args.phase == "setup" else run_measure(args, workload)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
