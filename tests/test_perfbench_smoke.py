"""Each benchmark workload sets up, runs a few units and passes its own output checks."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# train_dense's final check compares the first loss with the last, so it needs a few steps
UNITS = {"train_dense": 3, "eval_filtered": 1}


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))          # workloads.py imports its sibling gen.py
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(UNITS))
def test_workload_passes_its_output_checks(name, tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    w = workloads.WORKLOADS[name]
    raw = workloads.make_inputs(w, 1)
    run = workloads.Run(w, raw, str(tmp_path))
    for _ in range(UNITS[name]):
        run.release()
        run.unit()
        check, ok, detail = run.unit_check()
        assert ok, f"{check}: {detail}"
    failed = [f"{check}: {detail}" for check, ok, detail in run.final_checks(raw) if not ok]
    assert not failed
