"""Each benchmark workload sets up, runs a few units and passes its own output checks;
under the tracer it computes the same numbers."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# train_dense's final check compares the first loss with the last, so it needs a few steps
UNITS = {"train_dense": 3, "eval_filtered": 1}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def run_units(workloads, name, scratch, span=None):
    """Set up one workload on seed 1 and run its units.

    Returns the run, its raw graph, and its losses and ``evaluate`` dicts with floats as hex.
    """
    w = workloads.WORKLOADS[name]
    raw = workloads.make_inputs(w, 1)
    scratch.mkdir()
    run = workloads.Run(w, raw, str(scratch), span)
    evaluated = []
    for _ in range(UNITS[name]):
        run.release()
        run.unit()
        if run.last is not None:
            evaluated.append({k: v.hex() if isinstance(v, float) else v
                              for k, v in run.last.items()})
    return run, raw, [loss.hex() for loss in run.losses], evaluated


@pytest.mark.parametrize("name", sorted(UNITS))
def test_traced_run_computes_what_an_untraced_run_does(name, tmp_path, monkeypatch):
    """The tracer replaces proxkg names with plain functions; the run must neither crash nor
    change a number under them."""
    workloads, tracer = load_workloads(monkeypatch), load_spans().Tracer()
    _, _, losses, evaluated = run_units(workloads, name, tmp_path / "untraced")
    with tracer.installed():
        run, raw, traced_losses, traced_evaluated = run_units(workloads, name, tmp_path / "traced",
                                                              tracer.span)
    assert losses or evaluated
    assert traced_losses == losses and traced_evaluated == evaluated
    assert "encoder.adjacency" in {span[2] for span in tracer.spans}
    failed = [f"{check}: {detail}" for check, ok, detail in run.final_checks(raw) if not ok]
    assert not failed
