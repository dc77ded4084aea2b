"""Acceptance criterion 5 across seeds and OpenBLAS kernels.

    python tools/sweep_criterion5.py --out SWEEP.json [--arm NAME] [--src DIR]
        [--seeds 0 1 ...] [--kernels default Haswell Sandybridge] [--jobs N]
        [--n-iter N]

Trains `OVERFIT_CFG` of tests/test_acceptance.py at each seed under each
kernel and judges the run with that test's `overfit_check`: its sample, its
thresholds.  Each (seed, kernel) pair runs in its own process with one BLAS
thread, N processes at a time.  A kernel is a value of `OPENBLAS_CORETYPE`;
`default` leaves it unset, so OpenBLAS picks the host's own.  Each row
records the kernel name its process's OpenBLAS reports.

`--src DIR` runs the `singvc` package under DIR (another checkout's `src`)
with this tree's test module, so two trees can be compared on one host: run
once per arm, each with its own `--arm` name and the same `--out`.  Rows of
other arms already in that file are kept.  `--n-iter` shortens every run
(the verdict is then meaningless; it is for trying the tool out).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("default", "Haswell", "Sandybridge")


def openblas_core() -> str | None:
    """The kernel name the loaded OpenBLAS reports (`SkylakeX`, `Haswell`,
    ...), asked of the library that perfbench's `worker.blas_info` finds."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return fn().decode()
    return None


def tree_digest(src: str) -> str:
    """Which code a row ran: the digest perfbench prints as `source_sha256`
    (`run.source_identity`) of the singvc sources under src."""
    h = hashlib.sha256()
    package = Path(src, "singvc")
    for path in sorted(package.rglob("*.py")):
        h.update(path.relative_to(package).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_one(seed: int, src: str, n_iter: int | None) -> dict:
    """Train and judge one seed in this process; the sweep's child."""
    sys.path[:0] = [src, str(ROOT / "tests")]
    from singvc.training import train
    from test_acceptance import OVERFIT_CFG, _overfit_sample, overfit_check

    cfg = dataclasses.replace(OVERFIT_CFG, seed=seed, n_iter=n_iter or OVERFIT_CFG.n_iter)
    data = _overfit_sample()
    start = time.perf_counter()
    ckpt, losses = train([data], cfg)
    seconds = time.perf_counter() - start
    return {"seed": seed, "n_iter": cfg.n_iter, "kernel": openblas_core(),
            **overfit_check(ckpt, data, losses, seconds)}


def spawn(seed: int, coretype: str, src: str, n_iter: int | None) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype != "default":
        env["OPENBLAS_CORETYPE"] = coretype
    cmd = [sys.executable, __file__, "--one", str(seed), "--src", src]
    if n_iter:
        cmd += ["--n-iter", str(n_iter)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()
        return {"seed": seed, "coretype": coretype, "pass": False,
                "error": tail[-1] if tail else f"exit {proc.returncode}"}
    return {"coretype": coretype, **json.loads(proc.stdout)}


def summary(rows: list[dict]) -> dict:
    out: dict = {}
    for r in rows:
        cell = out.setdefault(r["arm"], {}).setdefault(r["coretype"], [0, 0])
        cell[0] += r["pass"]
        cell[1] += 1
    return {arm: {k: f"{p} of {n} pass" for k, (p, n) in cells.items()} for arm, cells in out.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="the sweep JSON (rows of other arms in it are kept)")
    ap.add_argument("--arm", default="change", help="this run's name in the rows")
    ap.add_argument("--src", default=str(ROOT / "src"), help="the directory holding the singvc package")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    ap.add_argument("--kernels", nargs="+", default=list(KERNELS))
    ap.add_argument("--jobs", type=int, default=2, help="processes at a time")
    ap.add_argument("--n-iter", type=int, help="iterations per run (default: OVERFIT_CFG's)")
    ap.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    src = str(Path(args.src).resolve())

    if args.one is not None:
        print(json.dumps(run_one(args.one, src, args.n_iter)))
        return 0
    if not args.out:
        ap.error("--out is required")

    out = Path(args.out)
    kept = [r for r in json.loads(out.read_text())["rows"] if r["arm"] != args.arm] if out.exists() else []
    pairs = [(seed, k) for k in args.kernels for seed in args.seeds]
    digest = tree_digest(src)

    def job(pair):
        row = {"arm": args.arm, "src_sha256": digest, **spawn(*pair, src, args.n_iter)}
        detail = row.get("error") or f"loss {row['loss']:.4f}, pearson mean {row['pearson_mean']:.3f}"
        print(f"{args.arm} seed {pair[0]} {pair[1]} ({row.get('kernel')}): "
              f"{'pass' if row['pass'] else 'FAIL'}, {detail}", file=sys.stderr, flush=True)
        return row

    with ThreadPoolExecutor(max(1, args.jobs)) as pool:
        rows = kept + list(pool.map(job, pairs))
    rows.sort(key=lambda r: (r["arm"], r["coretype"], r["seed"]))
    doc = {
        "what": "acceptance criterion 5 (tests/test_acceptance.py::overfit_check) per arm, "
                "OPENBLAS_CORETYPE and OVERFIT_CFG seed; pass needs running-mean loss < 0.05, "
                "mean per-bin Pearson >= 0.8, under 900 s, and a 500-iteration moving average that "
                "never rises by 5e-3 or more",
        "host": {"cores": os.cpu_count(), "blas_threads": 1, "jobs": args.jobs,
                 "numpy": np.__version__, "python": sys.version.split()[0]},
        "summary": summary(rows),
        "rows": rows,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
