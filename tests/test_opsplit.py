"""tools/opsplit.py times every autodiff op of a benchmark unit from outside and reports each one,
the kernel time and minor faults per unit, and the traced memory peak of one more unit."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "opsplit.py"


def test_opsplit_reports_the_edge_ops_of_a_train_dense_unit():
    done = subprocess.run([sys.executable, str(TOOL), "--workload", "train_dense", "--units", "1"],
                          capture_output=True, text=True, timeout=600, check=True)
    report = json.loads(done.stdout.strip().splitlines()[-1])
    ops = report["ops"]
    assert (report["workload"], report["units"]) == ("train_dense", 1)
    for op in ("edge_sum", "edge_dot"):
        assert ops[op]["fwd_ms"] > 0 and ops[op]["bwd_ms"] > 0, op
    edge = sum(ops[op]["fwd_ms"] + ops[op]["bwd_ms"] for op in ("edge_sum", "edge_dot"))
    assert report["edge_ops_ms"] == edge
    assert 0 < sum(t["fwd_ms"] + t["bwd_ms"] for t in ops.values()) < report["unit_ms"]
    # kernel time and minor faults per unit, from getrusage: one thread, so at most the wall time
    assert 0 <= report["sys_ms"] < report["unit_ms"]
    assert report["minflt"] >= 0
    assert "conv2d" not in ops          # counted once, under conv2d_relu
    # a step holds at least the decoder's [256, 32, 18, 18] float64 feature map, 21 MB
    assert 21 < report["peak_traced_mb"] < 1000
