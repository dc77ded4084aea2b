"""Span tracer that wraps singvc's public functions from outside the package.

A traced run installs wrappers on every binding through which a traced
function is reached (a module attribute, a by-value import in another module,
or a class attribute), records one span per call and restores the original
objects on exit.  Nothing inside ``src/singvc`` changes.

A span is ``(sid, name, start_ns, end_ns, parent_sid, run_id, info)``.  Spans
are kept in memory and written out by the caller when the run ends.  Self
time is a span's duration minus the durations of its direct children.

Inside ``Denoiser.predict_eps`` every tensor op is attributed to a part of
the network.  Ops that take a weight (conv1d, matmul) get the part of that
weight, looked up by tensor id in ``model.params``; the ops between two weight
ops belong to the part of the preceding weight op, except that the ops after
a layer's conditioner conv (the pre-activation sum, the tanh/sigmoid halves
and their product) form the ``gate`` part.  The backward closure each op
leaves on its output is wrapped too, so backward time splits the same way.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import time
from collections import defaultdict

PARTS = ("input_conv", "step_mlp", "dilated", "cond", "gate", "residual", "skip", "output")

POINTWISE = ("add", "sub", "mul", "scale", "relu", "tanh", "sigmoid", "swish")
STRUCTURE = ("embedding_lookup", "slice_rows", "transpose", "tsum", "tmean", "mse", "zeros", "identity")
WEIGHTED = {"conv1d": 1, "matmul": 1}  # op name -> positional index of the weight
TENSOR_OPS = tuple(WEIGHTED) + POINTWISE + STRUCTURE

# (module, qualified name, span name); a dotted qualified name is a method
TARGETS = (
    [("singvc.tensor", op, f"tensor.{op}") for op in TENSOR_OPS]
    + [
        ("singvc.tensor", "backward", "tensor.backward"),
        ("singvc.denoiser", "Denoiser.predict_eps", "denoiser.predict_eps"),
        ("singvc.denoiser", "Denoiser.encode_step", "denoiser.encode_step"),
        ("singvc.denoiser", "Denoiser.build_conditioner", "denoiser.build_conditioner"),
        ("singvc.diffusion", "sample", "diffusion.sample"),
        ("singvc.diffusion", "reverse_step", "diffusion.reverse_step"),
        ("singvc.diffusion", "diffusion_loss", "diffusion.diffusion_loss"),
        ("singvc.rng", "RandomStream.normal", "rng.normal"),
        ("singvc.rng", "RandomStream.uniform", "rng.uniform"),
        ("singvc.rng", "RandomStream.integers", "rng.integers"),
        ("singvc.training", "train", "training.train"),
        ("singvc.training", "Adam.step", "training.adam_step"),
        ("singvc.training", "save_checkpoint", "training.save_checkpoint"),
        ("singvc.training", "load_checkpoint", "training.load_checkpoint"),
        ("singvc.training", "conditioner_bins", "training.conditioner_bins"),
        ("singvc.training", "compute_feature_stats", "training.compute_feature_stats"),
        ("singvc.featio", "read_feat", "featio.read_feat"),
        ("singvc.featio", "write_feat", "featio.write_feat"),
        ("singvc.metrics", "dtw", "metrics.dtw"),
        ("singvc.metrics", "mel_to_cepstrum", "metrics.mel_to_cepstrum"),
        ("singvc.metrics", "mcd", "metrics.mcd"),
        ("singvc.metrics", "fpc", "metrics.fpc"),
        ("singvc.cli", "cmd_extract", "cli.extract"),
        ("singvc.cli", "cmd_convert", "cli.convert"),
        ("singvc.cli", "cmd_eval", "cli.eval"),
    ]
    + [
        ("singvc.features", fn, f"features.{fn}")
        for fn in ("estimate_f0", "compute_log_mel", "compute_loudness", "synth_ppg",
                   "invert_log_mel", "read_wav", "write_wav")
    ]
)


def _part_of(param_name: str) -> str:
    head = param_name.split(".")[0]
    if head.startswith("step_"):
        return "step_mlp"
    if head.startswith("out_conv"):
        return "output"
    if head.startswith("layer"):
        return param_name.split(".")[1]
    return head


def _after(part: str) -> str:
    return "gate" if part == "cond" else part


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class _Forward:
    """Attribution state of one open predict_eps call."""

    __slots__ = ("names", "part", "ops")

    def __init__(self, names: dict[int, str]):
        self.names = names
        self.part = "input_conv"
        self.ops = 0


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._next = 0
        self._patches: list[tuple[object, str, object]] = []
        self._forward: _Forward | None = None
        self._model = None
        self._names: dict[int, str] = {}

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int, int]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent, time.perf_counter_ns()

    def _close(self, sid, parent, start, name, info=None) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent, self.run_id, info))

    def _wrap(self, name: str, fn):
        if name.startswith("tensor.") and name != "tensor.backward":
            return self._wrap_op(name, fn)
        if name == "denoiser.predict_eps":
            return self._wrap_forward(name, fn)
        probe = _PROBES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            sid, parent, start = tracer._open()
            before = probe[0](args) if probe else None
            try:
                result = fn(*args, **kwargs)
            finally:
                info = probe[1](args, before) if probe else None
                tracer._close(sid, parent, start, name, info)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_forward(self, name: str, fn):
        tracer = self

        def traced(model, y_t, *args, **kwargs):
            if model is not tracer._model:
                tracer._model = model
                tracer._names = {id(t): n for n, t in model.params.items()}
            outer = tracer._forward
            fwd = tracer._forward = _Forward(tracer._names)
            sid, parent, start = tracer._open()
            try:
                return fn(model, y_t, *args, **kwargs)
            finally:
                tracer._close(sid, parent, start, name, (fwd.ops, y_t.shape[0]))
                tracer._forward = outer

        traced.__wrapped__ = fn
        return traced

    def _wrap_op(self, name: str, fn):
        tracer = self
        op = name.split(".", 1)[1]
        weight_at = WEIGHTED.get(op)

        def traced(*args, **kwargs):
            fwd = tracer._forward
            part = None
            if fwd is not None:
                fwd.ops += 1
                part = fwd.part
                if weight_at is not None:
                    pname = fwd.names.get(id(args[weight_at]))
                    if pname is not None:
                        part = _part_of(pname)
                        fwd.part = _after(part)
            info = [part, 0.0]
            sid, parent, start = tracer._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, start, name, info)
            if weight_at is not None:
                info[1] = _flop(op, args)
            closure = getattr(out, "_backward", None)
            if closure is not None:
                out._backward = tracer._wrap_closure(closure, op, part)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_closure(self, closure, op: str, part):
        tracer = self

        def traced(g):
            sid, parent, start = tracer._open()
            try:
                closure(g)
            finally:
                tracer._close(sid, parent, start, "tensor.bwd", (op, part))

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every binding of every target in the loaded singvc modules."""
        for mod_name in sorted({t[0] for t in TARGETS}):
            importlib.import_module(mod_name)
        modules = [m for n, m in sorted(sys.modules.items()) if n == "singvc" or n.startswith("singvc.")]
        for mod_name, qual, name in TARGETS:
            owner = sys.modules[mod_name]
            if "." in qual:  # a method: patch the class, aliases such as Denoiser.__call__ too
                cls_name, attr = qual.split(".")
                owners = [getattr(owner, cls_name)]
                original = owners[0].__dict__[attr]
            else:
                owners = modules
                original = getattr(owner, qual)
            wrapped = self._wrap(name, original)
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, key, original))
                        setattr(target, key, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._model = None
        self._names = {}

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _flop(op: str, args) -> float:
    if op == "conv1d":
        c_out, c_in, k = args[1].shape
        return 2.0 * c_out * c_in * k * args[0].shape[1]
    if op == "matmul":
        (m, k), n = args[0].shape, args[1].shape[1]
        return 2.0 * m * k * n
    return 0.0


def _counter(args) -> int:
    return args[0].state[1]


def _nothing(args) -> None:
    return None


_PROBES = {
    # span name -> (before(args), after(args, before) -> span info)
    **{f"rng.{fn}": (_counter, lambda a, c0: _counter(a) - c0) for fn in ("normal", "uniform", "integers")},
    "metrics.dtw": (_nothing, lambda a, _: len(a[0]) * len(a[1])),
    **{name: (_nothing, lambda a, _: _size(a[0]))
       for name in ("featio.read_feat", "featio.write_feat", "training.save_checkpoint", "training.load_checkpoint")},
}


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans) -> dict[int, int]:
    """sid -> duration minus the durations of its direct children (ns)."""
    child = defaultdict(int)
    for sid, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return {s[0]: (s[3] - s[2]) - child[s[0]] for s in spans}


# (metric name, unit, better) in report order; every metric is reported for
# every workload, 0 where the workload never reaches that layer
LAYER_METRICS = (
    [
        ("tensor.conv1d.ms", "ms", "lower"),
        ("tensor.conv1d.calls", "count", "lower"),
        ("tensor.conv1d.gflop", "GFLOP", "lower"),
        ("tensor.conv1d.gflops", "GFLOP/s", "higher"),
        ("tensor.matmul.ms", "ms", "lower"),
        ("tensor.pointwise.ms", "ms", "lower"),
        ("tensor.pointwise.calls", "count", "lower"),
        ("tensor.structure.ms", "ms", "lower"),
        ("tensor.backward.ms", "ms", "lower"),
        ("tensor.backward.calls", "count", "lower"),
        ("tensor.ops_per_forward", "count", "lower"),
        ("denoiser.predict_eps.ms", "ms", "lower"),
        ("denoiser.predict_eps.calls", "count", "lower"),
        ("denoiser.frames_per_call", "frames", "higher"),
    ]
    + [(f"denoiser.{p}.ms", "ms", "lower") for p in PARTS]
    + [(f"denoiser.{p}.bwd_ms", "ms", "lower") for p in PARTS]
    + [
        ("denoiser.build_conditioner.ms", "ms", "lower"),
        ("diffusion.sample.ms", "ms", "lower"),
        ("diffusion.reverse_step.ms", "ms", "lower"),
        ("diffusion.reverse_step.calls", "count", "lower"),
        ("diffusion.diffusion_loss.ms", "ms", "lower"),
        ("diffusion.diffusion_loss.calls", "count", "lower"),
        ("rng.normal.ms", "ms", "lower"),
        ("rng.draws", "count", "lower"),
        ("training.adam_step.ms", "ms", "lower"),
        ("training.adam_step.calls", "count", "lower"),
        ("training.adam_share", "%", "lower"),
        ("training.save_checkpoint.ms", "ms", "lower"),
        ("training.load_checkpoint.ms", "ms", "lower"),
        ("training.checkpoint_mb", "MB", "lower"),
        ("training.conditioner_bins.calls", "count", "lower"),
        ("training.compute_feature_stats.ms", "ms", "lower"),
    ]
    + [
        (f"features.{fn}.ms", "ms", "lower")
        for fn in ("estimate_f0", "compute_log_mel", "compute_loudness", "synth_ppg",
                   "invert_log_mel", "read_wav", "write_wav")
    ]
    + [
        ("featio.read_feat.ms", "ms", "lower"),
        ("featio.write_feat.ms", "ms", "lower"),
        ("featio.mb", "MB", "lower"),
        ("metrics.dtw.ms", "ms", "lower"),
        ("metrics.dtw.calls", "count", "lower"),
        ("metrics.dtw.cells", "count", "lower"),
        ("metrics.dtw.ns_per_cell", "ns/cell", "lower"),
        ("metrics.mel_to_cepstrum.ms", "ms", "lower"),
        ("metrics.mcd.ms", "ms", "lower"),
        ("metrics.fpc.ms", "ms", "lower"),
    ]
    + [(f"cli.{c}.{k}", "ms", "lower") for c in ("extract", "convert", "eval") for k in ("ms", "self_ms")]
    + [
        ("trace.rep_ms", "ms", "lower"),
        ("trace.overhead_ms", "ms", "lower"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.spans", "count", "lower"),
    ]
)

# counts that must repeat exactly between two traced repetitions
EXACT_COUNTS = (
    "tensor.ops_per_forward",
    "training.conditioner_bins.calls",
    "diffusion.reverse_step.calls",
    "metrics.dtw.cells",
    "rng.draws",
    "tensor.conv1d.calls",
    "tensor.pointwise.calls",
    "denoiser.predict_eps.calls",
)


def layer_metrics(spans, run_id: str, rep_ms: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the spans recorded under one run id, plus any
    problems found in them.

    ``<layer>.<fn>.ms`` is the inclusive time of that function's spans;
    the pointwise and structure sums and ``cli.*.self_ms`` are self time.
    """
    problems: list[str] = []
    spans = [s for s in spans if s[5] == run_id]
    own = self_times(spans)
    names = {s[0]: s[1] for s in spans}
    total = defaultdict(int)
    selft = defaultdict(int)
    calls = defaultdict(int)
    for s in spans:
        total[s[1]] += s[3] - s[2]
        selft[s[1]] += own[s[0]]
        calls[s[1]] += 1
    ms = lambda ns: ns / 1e6  # noqa: E731
    m: dict[str, float] = {}

    conv_ns = total["tensor.conv1d"]
    gflop = sum(s[6][1] for s in spans if s[1] == "tensor.conv1d") / 1e9
    m["tensor.conv1d.ms"] = ms(conv_ns)
    m["tensor.conv1d.calls"] = calls["tensor.conv1d"]
    m["tensor.conv1d.gflop"] = gflop
    m["tensor.conv1d.gflops"] = gflop / (conv_ns / 1e9) if conv_ns else 0.0
    m["tensor.matmul.ms"] = ms(total["tensor.matmul"])
    m["tensor.pointwise.ms"] = ms(sum(selft[f"tensor.{op}"] for op in POINTWISE))
    m["tensor.pointwise.calls"] = sum(calls[f"tensor.{op}"] for op in POINTWISE)
    m["tensor.structure.ms"] = ms(sum(selft[f"tensor.{op}"] for op in STRUCTURE))
    m["tensor.backward.ms"] = ms(total["tensor.backward"])
    m["tensor.backward.calls"] = calls["tensor.backward"]
    forwards = [s[6] for s in spans if s[1] == "denoiser.predict_eps"]
    ops = {f[0] for f in forwards}
    if len(ops) > 1:
        problems.append(f"tensor ops per forward differ between forwards: {sorted(ops)}")
    m["tensor.ops_per_forward"] = max(ops, default=0)
    m["denoiser.predict_eps.ms"] = ms(total["denoiser.predict_eps"])
    m["denoiser.predict_eps.calls"] = len(forwards)
    m["denoiser.frames_per_call"] = sum(f[1] for f in forwards) / len(forwards) if forwards else 0.0

    fwd = defaultdict(int)
    bwd = defaultdict(int)
    for s in spans:
        if s[1] == "tensor.bwd":
            bwd[s[6][1]] += s[3] - s[2]
        elif s[1].startswith("tensor.") and s[6] is not None and s[6][0] is not None:
            if not names.get(s[4], "").startswith("tensor."):  # outermost op only
                fwd[s[6][0]] += s[3] - s[2]
    fwd["step_mlp"] += selft["denoiser.encode_step"]
    for p in PARTS:
        m[f"denoiser.{p}.ms"] = ms(fwd[p])
        m[f"denoiser.{p}.bwd_ms"] = ms(bwd[p])
    m["denoiser.build_conditioner.ms"] = ms(total["denoiser.build_conditioner"])

    m["diffusion.sample.ms"] = ms(total["diffusion.sample"])
    m["diffusion.reverse_step.ms"] = ms(total["diffusion.reverse_step"])
    m["diffusion.reverse_step.calls"] = calls["diffusion.reverse_step"]
    m["diffusion.diffusion_loss.ms"] = ms(total["diffusion.diffusion_loss"])
    m["diffusion.diffusion_loss.calls"] = calls["diffusion.diffusion_loss"]

    m["rng.normal.ms"] = ms(total["rng.normal"])
    m["rng.draws"] = sum(
        s[6] for s in spans if s[1].startswith("rng.") and not names.get(s[4], "").startswith("rng.")
    )

    m["training.adam_step.ms"] = ms(total["training.adam_step"])
    m["training.adam_step.calls"] = calls["training.adam_step"]
    m["training.adam_share"] = 100.0 * m["training.adam_step.ms"] / rep_ms if rep_ms else 0.0
    m["training.save_checkpoint.ms"] = ms(total["training.save_checkpoint"])
    m["training.load_checkpoint.ms"] = ms(total["training.load_checkpoint"])
    ckpt = [s[6] for s in spans if s[1] in ("training.save_checkpoint", "training.load_checkpoint")]
    m["training.checkpoint_mb"] = max(ckpt, default=0) / 1e6
    m["training.conditioner_bins.calls"] = calls["training.conditioner_bins"]
    m["training.compute_feature_stats.ms"] = ms(total["training.compute_feature_stats"])

    for fn in ("estimate_f0", "compute_log_mel", "compute_loudness", "synth_ppg",
               "invert_log_mel", "read_wav", "write_wav"):
        m[f"features.{fn}.ms"] = ms(total[f"features.{fn}"])

    m["featio.read_feat.ms"] = ms(total["featio.read_feat"])
    m["featio.write_feat.ms"] = ms(total["featio.write_feat"])
    m["featio.mb"] = sum(s[6] for s in spans if s[1].startswith("featio.")) / 1e6

    cells = sum(s[6] for s in spans if s[1] == "metrics.dtw")
    m["metrics.dtw.ms"] = ms(total["metrics.dtw"])
    m["metrics.dtw.calls"] = calls["metrics.dtw"]
    m["metrics.dtw.cells"] = cells
    m["metrics.dtw.ns_per_cell"] = total["metrics.dtw"] / cells if cells else 0.0
    for fn in ("mel_to_cepstrum", "mcd", "fpc"):
        m[f"metrics.{fn}.ms"] = ms(total[f"metrics.{fn}"])

    for c in ("extract", "convert", "eval"):
        m[f"cli.{c}.ms"] = ms(total[f"cli.{c}"])
        m[f"cli.{c}.self_ms"] = ms(selft[f"cli.{c}"])

    m["trace.rep_ms"] = rep_ms
    m["trace.spans"] = len(spans)
    bad = [k for k, v in m.items() if not math.isfinite(v)]
    if bad:
        problems.append(f"non-finite layer metrics: {bad}")
    return m, problems
