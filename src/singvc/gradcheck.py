"""Central finite-difference verification of every differentiable op.

Each check builds a small random graph, reduces it to a scalar, and compares
the tape gradients against central differences (h = 1e-5) on a sample of
coordinates per input.  The relative error uses the floor
|ad - fd| / max(|ad|, |fd|, 1e-3) so true-zero gradients do not divide by
noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .denoiser import Denoiser, ModelConfig
from .diffusion import diffusion_loss
from .rng import RandomStream
from .schedule import linear_schedule
from .tensor import Tensor

FD_STEP = 1e-5
TOLERANCE = 1e-4
MAX_COORDS = 48  # finite-difference coordinates checked per input
SEED = 0  # every check's inputs and coordinates are drawn from streams of it


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_err: float

    @property
    def ok(self) -> bool:
        return self.max_rel_err < TOLERANCE


def finite_difference(func, array: np.ndarray, coords) -> np.ndarray:
    """Central differences of scalar func w.r.t. selected flat coordinates."""
    flat = array.reshape(-1)
    out = np.empty(len(coords))
    for n, idx in enumerate(coords):
        keep = flat[idx]
        flat[idx] = keep + FD_STEP
        hi = func()
        flat[idx] = keep - FD_STEP
        lo = func()
        flat[idx] = keep
        out[n] = (hi - lo) / (2.0 * FD_STEP)
    return out


def compare_gradients(build, inputs: dict[str, Tensor], rng: RandomStream) -> float:
    """Max relative error between tape gradients and finite differences.

    `build` recomputes the scalar loss from the current input buffers.
    """
    for t in inputs.values():
        t.grad = None
    loss = build()
    T.backward(loss)

    worst = 0.0
    for t in inputs.values():
        size = t.data.size
        if size <= MAX_COORDS:
            coords = np.arange(size)
        else:
            coords = np.unique(rng.integers(0, size, MAX_COORDS))
        fd = finite_difference(lambda: float(build().data), t.data, coords)
        ad = t.grad.reshape(-1)[coords] if t.grad is not None else np.zeros(len(coords))
        rel = np.abs(ad - fd) / np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1e-3)
        worst = max(worst, float(rel.max()))
    return worst


def _param(rng: RandomStream, shape) -> Tensor:
    return Tensor(rng.normal(shape), requires_grad=True)


def run_checks() -> list[CheckResult]:
    results: list[CheckResult] = []

    def check(name: str, inputs: dict[str, Tensor], build) -> None:
        rng = RandomStream(SEED).split(f"coords-{name}")
        err = compare_gradients(build, inputs, rng)
        results.append(CheckResult(name=name, max_rel_err=err))

    rng = RandomStream(SEED).split("gradcheck")

    a, b = _param(rng, (3, 4)), _param(rng, (4, 2))
    check("matmul", {"a": a, "b": b}, lambda: T.tsum(T.matmul(a, b)))

    x = _param(rng, (2, 7))
    w = _param(rng, (3, 3, 2))
    bias = _param(rng, (3,))
    check("conv1d_k3", {"x": x, "w": w, "b": bias},
          lambda: T.tsum(T.conv1d(x, w, bias)))

    w1 = _param(rng, (1, 4, 2))
    b1 = _param(rng, (4,))
    check("conv1d_k1", {"x": x, "w": w1, "b": b1},
          lambda: T.tsum(T.conv1d(x, w1, b1)))

    lengths = (3, 4)  # x as a slab of two segments
    check("conv1d_k3_segments", {"x": x, "w": w, "b": bias},
          lambda: T.tsum(T.mul(T.conv1d(x, w, bias, lengths), T.conv1d(x, w, bias, lengths))))

    # its own stream, so the draws of the checks after it do not move
    addend = _param(RandomStream(SEED).split("gradcheck-addend"), (3, 7))
    check("conv1d_k3_addend", {"x": x, "w": w, "b": bias, "addend": addend},
          lambda: T.tsum(T.mul(T.conv1d(x, w, bias, lengths, addend), addend)))

    # a conv of a product on the tape, whose backward rebuilds the product
    # from the factors; its own stream, like the addend's
    f0, f1 = (_param(RandomStream(SEED).split(f"gradcheck-factor{i}"), (2, 7)) for i in range(2))
    check("conv1d_of_product", {"f0": f0, "f1": f1, "w": w, "b": bias},
          lambda: T.tsum(T.mul(T.conv1d(T.mul(f0, f1), w, bias, lengths), addend)))

    p, q = _param(rng, (3, 5)), _param(rng, (3, 5))
    check("add", {"p": p, "q": q}, lambda: T.tsum(T.mul(T.add(p, q), q)))
    check("sub", {"p": p, "q": q}, lambda: T.tsum(T.mul(T.sub(p, q), p)))
    check("mul", {"p": p, "q": q}, lambda: T.tsum(T.mul(p, q)))

    row = _param(rng, (1, 5))
    check("add_broadcast_row", {"p": p, "row": row}, lambda: T.tsum(T.mul(T.add(p, row), p)))

    rows = [_param(rng, (1, 3)), _param(rng, (1, 3))]
    check("add_per_segment", {"p": p, "row0": rows[0], "row1": rows[1]},
          lambda: T.tsum(T.mul(T.add_per_segment(p, rows, (2, 3)), p)))
    pt, qt = _param(rng, (5, 3)), _param(rng, (5, 3))
    check("segment_mse", {"p": pt, "q": qt}, lambda: T.segment_mse(pt, qt, (2, 3)))

    for name, op in (("relu", T.relu), ("tanh", T.tanh), ("sigmoid", T.sigmoid), ("swish", T.swish)):
        z = _param(rng, (4, 6))
        check(name, {"z": z}, lambda op=op, z=z: T.tsum(T.mul(op(z), z)))

    table = _param(rng, (5, 4))
    idx = [0, 2, 2, 4, 1]
    check("embedding_lookup", {"table": table},
          lambda: T.tsum(T.mul(T.embedding_lookup(table, idx), T.embedding_lookup(table, idx))))

    u = _param(rng, (6, 3))
    check("slice_rows", {"u": u},
          lambda: T.tsum(T.mul(T.slice_rows(u, 1, 4), T.slice_rows(u, 3, 6))))
    check("transpose", {"u": u}, lambda: T.tsum(T.mul(T.transpose(u), T.transpose(u))))
    check("concat_rows", {"u": u, "p": pt},
          lambda: T.tsum(T.mul(T.concat_rows([u, pt]), T.concat_rows([pt, u]))))
    check("scale", {"u": u}, lambda: T.tsum(T.scale(u, -2.5)))
    check("mean", {"u": u}, lambda: T.tmean(T.mul(u, u)))

    fw = _param(rng, (5, 3))
    fb = _param(rng, (1, 3))
    fx = _param(rng, (2, 5))
    check("fc_swish", {"w": fw, "b": fb, "x": fx},
          lambda: T.tsum(T.swish(T.add(T.matmul(fx, fw), fb))))

    # full composite: predict_eps -> diffusion loss on a toy config
    cfg = ModelConfig(n_mels=8, channels=8, layers=2, ppg_dim=12, cond_dim=16, n_bins=16)
    model = Denoiser.init(cfg, RandomStream(SEED).split("toy-model"))
    # zero-initialized output layer hides downstream gradients; nudge it
    model.params["out_conv2.w"].data[:] = rng.normal(model.params["out_conv2.w"].shape) * 0.3
    sched = linear_schedule(20)
    # a batch of two segments, 4 and 3 frames, at steps 7 and 15
    steps = [7, 15]
    data_rng = RandomStream(SEED).split("toy-data")
    segs = [
        (data_rng.normal((frames, cfg.n_mels)), data_rng.normal((frames, cfg.n_mels)),
         data_rng.normal((frames, cfg.ppg_dim)), data_rng.integers(0, cfg.n_bins, frames),
         data_rng.integers(0, cfg.n_bins, frames))
        for frames in (4, 3)
    ]

    def step_energy():
        # at init the step path's weight gradients are ~1e-5, under the 1e-3
        # floor of the relative error; the scale lifts them above it
        s = model.step_vector(7)
        return T.scale(T.tsum(T.mul(s, s)), 1e3)

    check("step_path", {n: p for n, p in model.params.items() if n.startswith("step_")}, step_energy)

    def composite():
        conds = [model.build_conditioner(ppg, f0_bins, loud_bins) for _, _, ppg, f0_bins, loud_bins in segs]
        return diffusion_loss(sched, model, [s[0] for s in segs], conds, steps, [s[1] for s in segs])

    check("predict_eps_loss", model.params, composite)
    return results


def report(results: list[CheckResult]) -> str:
    lines = [
        f"{'PASS' if r.ok else 'FAIL'} {r.name}: max rel err {r.max_rel_err:.3e} (tol {TOLERANCE:.0e})"
        for r in results
    ]
    failed = sum(not r.ok for r in results)
    lines.append(f"{len(results) - failed}/{len(results)} gradient checks passed")
    return "\n".join(lines)
