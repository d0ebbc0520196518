#!/usr/bin/env python3
"""Forward and backward milliseconds of each ``proxkg.autodiff`` op per unit of a benchmark workload.

    python3 tools/opsplit.py --workload train_dense --seed 1 --units 5
    python3 tools/opsplit.py --root ../other-checkout --workload train_dense

It sets a workload up through ``perfbench/workloads.py``, imported by path and
only read, with BLAS on the benchmark's one thread. Then it wraps, from
outside, every op of ``proxkg.autodiff`` (the module attribute and each alias
another proxkg module holds, such as ``decoder.bce_loss``) and the
``_backward`` closure of every op's output, and runs units of work. Nothing
in ``src/`` or ``perfbench/`` changes. An op called inside another op
(``conv2d`` in ``conv2d_relu``, ``affine`` in ``matmul``, ``edge_sum`` in
``segment_weighted_sum``) counts once, under the outer op.

The one line of output is JSON: ``unit_ms`` (the mean wall time of a unit),
``ops`` (each op's ``fwd_ms`` and ``bwd_ms`` per unit, largest first),
``edge_ops_ms`` (the four edge-op numbers summed) and ``peak_traced_mb``, the
``tracemalloc`` peak of one more unit run after the timed ones. That unit is
not timed, so tracing does not touch the op times. ``--root`` measures
another checkout's ``src/`` and ``perfbench/``, for before/after splits.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import inspect
import json
import sys
import tempfile
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

EDGE_OPS = ("edge_sum", "edge_dot")


def load_by_path(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module          # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


class OpSplit:
    """Summed forward and backward seconds of each wrapped op."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.depth = 0                  # > 0 inside an op, whose inner ops are not counted

    def op(self, name: str, fn):
        def wrapped(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            self.depth += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.depth -= 1
            self.seconds[name, "fwd"] += time.perf_counter() - t0
            if out._backward is not None and not any(out is a for a in args):
                out._backward = self.backward(name, out._backward)    # not an identity op's input
            return out

        return wrapped

    def backward(self, name: str, fn):
        def wrapped(g):
            t0 = time.perf_counter()
            grads = fn(g)
            self.seconds[name, "bwd"] += time.perf_counter() - t0
            return grads

        return wrapped

    def install(self, autodiff) -> None:
        """Replace each op, in autodiff and wherever a proxkg module holds it, by its wrapper."""
        ops = {fn: name for name, fn in vars(autodiff).items()
               if inspect.isfunction(fn) and fn.__module__ == autodiff.__name__
               and not name.startswith("_")}
        wrappers = {fn: self.op(name, fn) for fn, name in ops.items()}
        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "proxkg"]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def report(self, units: int) -> dict:
        ops = defaultdict(lambda: {"fwd_ms": 0.0, "bwd_ms": 0.0})
        for (name, way), s in self.seconds.items():
            ops[name][f"{way}_ms"] = s * 1e3 / units
        ranked = dict(sorted(ops.items(), key=lambda kv: -(kv[1]["fwd_ms"] + kv[1]["bwd_ms"])))
        edge = sum(ranked[n]["fwd_ms"] + ranked[n]["bwd_ms"] for n in EDGE_OPS if n in ranked)
        return {"ops": ranked, "edge_ops_ms": edge}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="train_dense")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--units", type=int, default=5, help="timed units of work after the set-up")
    ap.add_argument("--root", default=str(Path(__file__).resolve().parents[1]),
                    help="checkout whose src/ and perfbench/ are measured")
    args = ap.parse_args(argv)
    if args.units < 1:
        ap.error("--units must be at least 1")
    root = Path(args.root).resolve()

    bench = load_by_path(root / "perfbench" / "run.py", "perfbench_run")
    bench.cap_blas_threads()            # before NumPy loads
    bench.import_program()              # proxkg from root/src, never an installed copy
    sys.path.insert(0, str(root / "perfbench"))     # workloads.py imports its sibling gen.py
    workloads = load_by_path(root / "perfbench" / "workloads.py", "perfbench_workloads")
    from proxkg import autodiff

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    raw = workloads.make_inputs(w, args.seed)
    split = OpSplit()
    with tempfile.TemporaryDirectory() as scratch:
        run = workloads.Run(w, raw, scratch)          # set-up, warm-up included, unwrapped
        split.install(autodiff)
        times = []
        for _ in range(args.units):
            run.release()
            gc.collect()
            t0 = time.perf_counter()
            run.unit()
            times.append(time.perf_counter() - t0)
        report = split.report(args.units)
        run.release()
        gc.collect()
        tracemalloc.start()
        try:
            run.unit()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    print(json.dumps({"workload": w.name, "seed": args.seed, "units": args.units,
                      "unit_ms": sum(times) * 1e3 / len(times), **report,
                      "peak_traced_mb": peak / 2**20}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
