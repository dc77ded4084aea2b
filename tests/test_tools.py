import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP = ROOT / "tools" / "sweep_criterion5.py"


def sweep(out, *args):
    subprocess.run([sys.executable, str(SWEEP), "--out", str(out), "--seeds", "0", "--n-iter", "2",
                    "--jobs", "1", *args], check=True, capture_output=True)
    return json.loads(out.read_text())


class TestSweepCriterion5:
    def test_writes_one_row_per_arm_seed_and_kernel(self, tmp_path):
        out = tmp_path / "sweep.json"
        sweep(out, "--arm", "a", "--kernels", "default", "Haswell")
        doc = sweep(out, "--arm", "b", "--src", str(ROOT / "src"), "--kernels", "default")
        assert set(doc) == {"what", "host", "summary", "rows"}
        assert doc["host"]["blas_threads"] == 1
        assert [(r["arm"], r["coretype"]) for r in doc["rows"]] == [
            ("a", "Haswell"), ("a", "default"), ("b", "default")]
        for row in doc["rows"]:
            assert set(row) == {"arm", "src_sha256", "coretype", "seed", "n_iter", "kernel", "loss",
                                "pearson_mean", "pearson_min", "seconds", "max_ma_rise", "pass"}
            assert row["seed"] == 0 and row["n_iter"] == 2
            assert isinstance(row["kernel"], str) and not row["pass"]  # two iterations learn nothing
        assert doc["rows"][0]["src_sha256"] == doc["rows"][2]["src_sha256"]
        assert doc["summary"] == {"a": {"Haswell": "0 of 1 pass", "default": "0 of 1 pass"},
                                  "b": {"default": "0 of 1 pass"}}
