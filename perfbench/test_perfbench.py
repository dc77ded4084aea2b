"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from singvc import cli, tensor as T, training  # noqa: E402
from singvc.denoiser import Denoiser, ModelConfig  # noqa: E402
from singvc.rng import RandomStream  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(20, None), (99, None), (100, (90.0, 90, 10)), (999, (90.0, 900, 99)),
     (1000, (99.0, 990, 10)), (10000, (99.9, 9990, 10))],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    samples = list(range(n, 0, -1))  # order must not matter; values 1..n
    assert run.tail_percentile([float(s) for s in samples]) == expected


def test_self_time_subtracts_direct_children_only():
    # (sid, name, start, end, parent, run, info): a 0-100 root holding a
    # 10-60 child, which holds a 20-30 grandchild
    recorded = [(2, "c", 20, 30, 1, "r", None), (1, "b", 10, 60, 0, "r", None), (0, "a", 0, 100, -1, "r", None)]
    assert spans.self_times(recorded) == {0: 50, 1: 40, 2: 10}


def test_nested_tensor_spans_give_mse_its_self_time():
    a = T.Tensor(np.ones((3, 4)), requires_grad=True)
    b = T.Tensor(np.zeros((3, 4)))
    with spans.Tracer() as tracer:
        tracer.run_id = "r"
        T.mse(a, b)
    by_name = {s[1]: s for s in tracer.spans}
    mse = by_name["tensor.mse"]
    children = [s for s in tracer.spans if s[4] == mse[0]]
    assert sorted(s[1] for s in children) == ["tensor.mul", "tensor.sub", "tensor.tmean"]
    own = spans.self_times(tracer.spans)
    assert own[mse[0]] == (mse[3] - mse[2]) - sum(s[3] - s[2] for s in children)
    assert all(own[s[0]] == s[3] - s[2] for s in children)


def _bindings():
    """Every (owner, attribute, object) a tracer would patch."""
    tracer = spans.Tracer().install()
    found = tracer.patched
    tracer.uninstall()
    return found


def test_wrappers_are_removed_after_a_traced_run():
    before = _bindings()
    assert any(owner is cli and attr == "load_checkpoint" for owner, attr, _ in before)
    assert any(owner is Denoiser and attr == "__call__" for owner, attr, _ in before)

    cfg = ModelConfig(n_mels=4, channels=4, layers=2, ppg_dim=3, cond_dim=4, n_bins=4)
    model = Denoiser.init(cfg, RandomStream(0))
    cond = model.build_conditioner(np.ones((5, 3)), np.zeros(5, int), np.zeros(5, int))
    with spans.Tracer() as tracer:
        tracer.run_id = "r"
        loss = T.mse(T.zeros((5, 4)), model(T.Tensor(np.ones((5, 4))), 3, cond))
        T.backward(loss)
        training.Adam().step(model.params, 1e-3)
    assert tracer.patched == []
    for owner, attr, original in before:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner.__name__}.{attr} still wrapped"
    count = len(tracer.spans)
    model(T.Tensor(np.ones((5, 4))), 3, cond)
    assert len(tracer.spans) == count


def test_forward_ops_are_split_into_denoiser_parts():
    cfg = ModelConfig(n_mels=4, channels=4, layers=2, ppg_dim=3, cond_dim=4, n_bins=4)
    model = Denoiser.init(cfg, RandomStream(0))
    cond = model.build_conditioner(np.ones((5, 3)), np.zeros(5, int), np.zeros(5, int))
    tracer = spans.Tracer()
    for rep in ("rep0", "rep1"):
        tracer.run_id = rep
        with tracer:
            loss = T.mse(T.zeros((5, 4)), model(T.Tensor(np.ones((5, 4))), 3, cond))
            T.backward(loss)
    m0, problems = spans.layer_metrics(tracer.spans, "rep0", 1.0)
    m1, _ = spans.layer_metrics(tracer.spans, "rep1", 1.0)
    assert problems == []
    assert all(m0[f"denoiser.{p}.ms"] > 0 for p in spans.PARTS)
    assert m0["denoiser.predict_eps.calls"] == 1 and m0["denoiser.frames_per_call"] == 5
    in_forward = [s for s in tracer.spans if s[5] == "rep0" and s[1].startswith("tensor.")
                  and s[1] != "tensor.bwd" and s[6] is not None and s[6][0] is not None]
    assert m0["tensor.ops_per_forward"] == len(in_forward)
    # conv flop: input conv 2*4*4*1*5, per layer 2*8*4*3*5 + 2*8*4*1*5 + 2 * 2*4*4*1*5, output 2 * 2*4*4*1*5
    assert m0["tensor.conv1d.gflop"] * 1e9 == pytest.approx(160 + 2 * (960 + 320 + 320) + 320)
    assert all(m0[name] == m1[name] for name in spans.EXACT_COUNTS)


@pytest.mark.parametrize("name", ["corpus", "train_toy"])
def test_generation_is_byte_identical_per_seed(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    digests = []
    for i, seed in enumerate((7, 7, 8)):
        work = workloads.fresh_dir(tmp_path / str(i))
        workload.setup(work, seed)
        digests.append(workloads.tree_digest(work))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_training_iterations_are_timed_by_the_harness(tmp_path):
    step = training.Adam.__dict__["step"]
    workload = workloads.TrainWorkload("toy", workloads.TOY_CFG, iters=3)
    work = workloads.fresh_dir(tmp_path / "w")
    workload.setup(work, 7)
    rep = workloads.Rep()
    workload.rep(work, 7, rep)
    assert rep.failed == 0 and rep.attempted == 1
    assert len(rep.samples_ms) == 2 and all(s > 0 for s in rep.samples_ms)  # iteration 1 is warm-up
    assert len(rep.extra["log_ms"]) == 2
    assert training.Adam.__dict__["step"] is step


def test_seeded_digests_are_compared_only_within_one_source(tmp_path):
    (tmp_path / ".perfbench_work").mkdir()
    out = run.Outcome({"attempted": 1, "problems": []}, [])
    out.check_seeded(tmp_path, "corpus", 3, "d1", "src-a")
    out.check_seeded(tmp_path, "corpus", 3, "d1", "src-a")
    out.check_seeded(tmp_path, "corpus", 3, "d2", "src-b")  # other code, other outputs: not a failure
    assert out.failed == 0
    out.check_seeded(tmp_path, "corpus", 3, "d3", "src-a")
    assert out.failed == 1


def test_layer_metrics_cover_the_declared_names():
    m, _ = spans.layer_metrics([], "r", 0.0)
    declared = {name for name, _, _ in spans.LAYER_METRICS}
    assert declared - set(m) == {"trace.overhead_ms", "trace.overhead_pct"}
