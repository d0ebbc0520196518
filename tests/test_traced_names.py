"""The benchmark's tracer looks proxkg names up by string; each one must exist."""

import importlib.util
from pathlib import Path

import proxkg.autodiff as ad

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    missing_ops = [op for op in spans.OPS + spans.REPORTED_OPS if not hasattr(ad, op)]
    assert not missing_ops
    missing = [f"{getattr(obj, '__name__', obj)}.{attr}" for obj, attr, _ in spans.PATCHES
               if not hasattr(obj, attr)]
    assert not missing
