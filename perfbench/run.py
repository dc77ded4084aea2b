"""singvc benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client, closed loop: each operation
starts after the previous one returns, because every singvc command is an
offline batch job that one user waits on.  Set-up and measurement each run
in a fresh subprocess with the BLAS thread count pinned, so `peak_rss_mb`
belongs to the measured run alone.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
one untraced and two traced repetitions of fixed work and prints the
per-layer metrics, the tracing overhead, and checks that the exact counts
repeat.  Human-readable lines come first; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import EXACT_COUNTS, LAYER_METRICS, PARTS

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1  # on a small shared machine, multi-threaded GEMM times swing with the neighbours' load
SETUP_REPEATS = (7, 31)  # fewest and most set-ups in an untraced run ...
SETUP_SECONDS = 4.0  # ... which repeats set-up until this much time is spent
TRACED_REPS = 2
BUDGET_S = 170.0  # every run must end within 180 s
PERCENTILES = (99.9, 99.0, 90.0)


def tail_percentile(samples: list[float]) -> tuple[float, float, int] | None:
    """The highest of PERCENTILES with at least ten samples beyond it, as
    (percentile, nearest-rank value, samples beyond); None if none has."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in PERCENTILES:
        rank = -(-round(p * 10) * n // 1000)  # ceil(p/100 * n), exact in integers
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return None


def source_identity(root: Path) -> dict:
    """The commit when the checkout is a git work tree, and always a digest
    of the package sources, so results from different code never mix."""
    h = hashlib.sha256()
    package = root / "src" / "singvc"
    for path in sorted(package.rglob("*.py")):
        h.update(path.relative_to(package).as_posix().encode())
        h.update(path.read_bytes())
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {"commit": commit, "source_sha256": h.hexdigest()}


def pinned_env(root: Path) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Starts worker phases in fresh subprocesses against one deadline."""

    def __init__(self, root: Path, args):
        self.root, self.args = root, args
        self.env = pinned_env(root)
        self.source = source_identity(root)
        self.deadline = time.monotonic() + BUDGET_S
        self.work = root / ".perfbench_work" / f"{args.workload}-s{args.seed}"
        self.results = root / ".perfbench_work" / "results"
        self.results.mkdir(parents=True, exist_ok=True)

    def phase(self, phase: str, tag: str, *extra: str) -> dict:
        out = self.results / f"{self.args.workload}-s{self.args.seed}-{tag}.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--phase", phase,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--work", str(self.work), "--out", str(out), *extra]
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=sys.stderr)
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise SystemExit(f"perfbench: {tag} did not finish within the {BUDGET_S:.0f} s budget")
        finally:
            if proc.poll() is None:  # timed out or interrupted: stop the worker too
                proc.kill()
                proc.wait()
        if code != 0:
            raise SystemExit(f"perfbench: {tag} exited with code {code}")
        return json.loads(out.read_text())


class Outcome:
    """Operations attempted and failed over a run, with what went wrong."""

    def __init__(self, setup: dict, reps: list[dict]):
        self.attempted = setup["attempted"] + sum(r["attempted"] for r in reps)
        self.failed = len(setup["problems"]) + sum(r["failed"] for r in reps)
        self.problems = setup["problems"] + [p for r in reps for p in r["problems"]]

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def check_seeded(self, root: Path, workload: str, seed: int, digest: str, source: str) -> None:
        """A seed's first repetition must produce the same outputs on every
        run of the same source code in this checkout; the store remembers
        the first digest seen per workload, seed and source digest, so code
        that legitimately changes output bits starts a fresh entry."""
        if not digest:
            return
        path = root / ".perfbench_work" / "digests.json"
        store = json.loads(path.read_text()) if path.exists() else {}
        key = f"{workload}/{seed}/{source}"
        if store.setdefault(key, digest) != digest:
            self.fail(f"seeded outputs differ from an earlier run with seed {seed}")
        path.write_text(json.dumps(store, indent=1, sort_keys=True))

    def report(self) -> None:
        line("fail_ratio", self.failed / max(self.attempted, 1), "-",
             f"{self.failed}/{self.attempted} operations failed")


def fmt(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.6g}"


def line(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"metric {name} {fmt(value)} {unit}" + (f"  ({note})" if note else ""))


def command_rates(workload: str, reps: list[dict]) -> None:
    """The per-command rates, printed by name for citing with a workload."""
    samples = [s for r in reps for s in r["samples_ms"]]
    ok = [r["extra"] for r in reps if r["extra"]]  # repetitions that completed
    if workload.startswith("train"):
        line("train_iter_ms_p50", statistics.median(samples), "ms", f"n={len(samples)}")
        log_ms = [s for e in ok for s in e["log_ms"]]
        print(f"cross-check: the loss log's own wall_ms gives a median of {fmt(statistics.median(log_ms))} ms")
        tail = tail_percentile(samples)
        if tail:
            p, value, beyond = tail
            line(f"train_iter_ms_p{p:g}", value, "ms", f"n={len(samples)}, {beyond} beyond")
        else:
            print(f"metric train_iter_ms_tail n/a  (n={len(samples)}: no percentile has 10 samples beyond it)")
        line("train_loss_mean", ok[0]["loss_mean"], "-", "first repetition")
    elif workload == "convert_full":
        line("convert_s_per_audio_s", statistics.median(samples) / 1e3 / ok[0]["audio_s"], "s/s",
             f"n={len(samples)}")
    else:
        line("extract_s_per_audio_s", statistics.median(e["extract_ms"] / 1e3 / e["audio_s"] for e in ok),
             "s/s", f"n={len(ok)} rounds")
        line("eval_s_per_pair", statistics.median(e["eval_ms"] / 1e3 / e["pairs"] for e in ok),
             "s", f"n={len(ok)} rounds, {ok[0]['pairs']} pairs each")


def untraced(runner: Runner, args) -> tuple[Outcome, dict]:
    setup = runner.phase("setup", "setup", "--repeats", *map(str, SETUP_REPEATS), "--seconds", str(SETUP_SECONDS))
    meas = runner.phase("measure", "measure", "--seconds", str(args.seconds))
    reps = meas["reps"]
    out = Outcome(setup, reps)
    if len({r["digest"] for r in reps}) > 1:
        out.fail("repetitions of one seed gave different outputs")
    out.check_seeded(runner.root, args.workload, args.seed, reps[0]["digest"], runner.source["source_sha256"])
    samples = [s for r in reps for s in r["samples_ms"]]
    if not samples or not setup["setup_s"]:
        raise SystemExit("perfbench: no operation completed; nothing to report")
    metrics = {
        "setup_s": (statistics.median(setup["setup_s"]), "s"),
        "op_ms_p50": (statistics.median(samples), "ms"),
        "peak_rss_mb": (meas["peak_rss_mb"], "MB"),
    }
    print(f"env {json.dumps(env_record(runner, meas))}")
    line("setup_s", *metrics["setup_s"], f"median of {len(setup['setup_s'])} set-ups")
    line("op_ms_p50", *metrics["op_ms_p50"], f"n={len(samples)} over {len(reps)} repetitions")
    line("peak_rss_mb", *metrics["peak_rss_mb"])
    command_rates(args.workload, reps)
    out.report()
    return out, metrics


def traced(runner: Runner, args) -> tuple[Outcome, dict]:
    stem = runner.results / f"{args.workload}-s{args.seed}"
    setup = runner.phase("setup", "setup", "--trace", f"{stem}-setup.spans.jsonl")
    (base,) = runner.phase("measure", "untraced", "--reps", "1")["reps"]
    spans = Path(f"{stem}.spans.jsonl")
    meas = runner.phase("measure", "traced", "--reps", str(TRACED_REPS), "--trace", str(spans))
    reps = meas["reps"]
    out = Outcome(setup, [base] + reps)
    if {r["digest"] for r in reps} != {base["digest"]}:
        out.fail("traced outputs differ from the untraced run")
    out.check_seeded(runner.root, args.workload, args.seed, base["digest"], runner.source["source_sha256"])
    inexact = [name for name in EXACT_COUNTS if len({r["layers"][name] for r in reps}) != 1]
    for name in inexact:
        out.fail(f"{name} does not repeat exactly: {[r['layers'][name] for r in reps]}")
    metrics = {name: (statistics.fmean(r["layers"][name] for r in reps), unit)
               for name, unit, _ in LAYER_METRICS if name not in ("trace.overhead_ms", "trace.overhead_pct")}
    extra_ms = metrics["trace.rep_ms"][0] - base["wall_ms"]
    metrics["trace.overhead_ms"] = (extra_ms, "ms")
    metrics["trace.overhead_pct"] = (100.0 * extra_ms / base["wall_ms"], "%")
    print(f"env {json.dumps(env_record(runner, meas))}")
    print(f"spans in {spans.relative_to(runner.root)}; values are per repetition, mean of {len(reps)}; "
          f"exact counts {'DIFFER' if inexact else 'repeat'}")
    busy = {k: v for k, v in setup.get("layers", {}).items() if k.endswith(".ms") and v > 0}
    print("set-up, traced apart: " + (", ".join(f"{k} {fmt(v)} ms" for k, v in busy.items()) or "no singvc calls"))
    for name, (value, unit) in metrics.items():
        line(name, value, unit, "exact count" if name in EXACT_COUNTS else "")
    fwd = sum(metrics[f"denoiser.{p}.ms"][0] for p in PARTS)
    if fwd:
        split = ", ".join(f"{p} {100 * metrics[f'denoiser.{p}.ms'][0] / fwd:.1f}%" for p in PARTS)
        print(f"predict_eps part split: {split}")
    out.report()
    return out, metrics


def env_record(runner: Runner, meas: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas": meas["blas"],
        "blas_threads": BLAS_THREADS,
        "blas_threads_loaded": meas["blas_threads_loaded"],
        "python": platform.python_version(),
        "numpy": meas["numpy"],
        **runner.source,
    }


def nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def main(argv=None) -> int:
    root = Path.cwd()
    if not (root / "src" / "singvc" / "__init__.py").is_file():
        print("perfbench: src/singvc not found; run from the root of a singvc checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description="singvc benchmark: one workload, one seed.")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=nonnegative, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))  # run the cleanups
    runner = Runner(root, args)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    try:
        out, metrics = (traced if args.trace else untraced)(runner, args)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    for problem in out.problems:
        print(f"FAILED: {problem}")
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
