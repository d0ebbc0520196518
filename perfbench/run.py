#!/usr/bin/env python3
"""proxkg benchmark: one closed-loop workload per process, untraced or traced.

    python3 perfbench/run.py --workload train_dense --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Untraced (``--trace 0``) it splits the timed window into ROUNDS rounds, each
a fresh set-up followed by units of work, and prints the end-to-end metrics;
traced (``--trace 1``) it first does the untraced run, then one set-up and a
shorter window with every layer patched, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
non-zero when any output check or unit of work fails. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
ROUNDS = 5            # set-ups per untraced run, spread over the window; setup_s is their median
MIN_UNITS = 3         # timed units of work per run, even past the deadline
LOSS_STEP = 3         # train_loss is the loss of this timed step (1-based) of each round
TRACE_SHARE = 0.5     # the traced window's length as a share of --seconds
BLAS_THREADS = 1      # a second BLAS thread made unit times spread more on a shared 2-CPU host
END_TO_END = (("setup_s", "s"), ("work_ms", "ms"), ("items_per_s", "items/s"),
              ("peak_rss_mb", "MB"))


def cap_blas_threads() -> None:
    """Run BLAS on BLAS_THREADS threads; must run before NumPy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import proxkg from this checkout's ``src``, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "proxkg" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no proxkg sources under {src}")
    sys.path.insert(0, str(src))
    import proxkg
    if Path(proxkg.__file__).resolve().parent != src / "proxkg":
        raise SystemExit(f"benchmark: proxkg imported from {proxkg.__file__}, not {src}")


class Tally:
    """Units of work and output checks attempted and failed; failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED  {name}: {detail}", file=sys.stderr)

    def error(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"FAILED  {what}:", file=sys.stderr)
        traceback.print_exc()


def measure(run, deadline: float, min_units: int, tally: Tally, tracer=None):
    """Closed loop of units until the deadline (and at least min_units); returns unit times."""
    times, unit_ids, counts = [], [], []
    while True:
        if tracer:
            before = dict(tracer.counts)
            unit_ids.append(len(tracer.spans))
        run.release()
        gc.collect()
        t0 = time.perf_counter()
        try:
            if tracer:
                with tracer.span("bench.unit"):
                    run.unit()
            else:
                run.unit()
        except Exception:
            tally.error(f"unit {len(times) + 1} raised")
            break
        t1 = time.perf_counter()
        tally.attempted += 1
        times.append(t1 - t0)
        if tracer:
            counts.append({k: v - before[k] for k, v in tracer.counts.items()})
        check = run.unit_check()
        if check:
            tally.check(*check)
        if t1 >= deadline and len(times) >= min_units:
            break
    return times, unit_ids, counts


@dataclass
class Context:
    """What both phases of one workload run share."""
    w: object
    raw: object           # the generated, unaugmented knowledge graph
    scratch: str          # temporary directory inside the checkout
    seed: int
    seconds: float
    tally: Tally
    exact: dict | None = None   # the untraced run's proximity counts


def untraced(ctx: Context):
    """The timed window in ROUNDS rounds of set-up plus units of work; then the output checks.

    Round r (1-based) ends at r / ROUNDS of the window, so the set-ups sample
    the whole window rather than one stretch of it. Returns the end-to-end
    values, ``train_loss`` (None off training) and the number of units timed.
    """
    from spans import median
    from workloads import Run

    w, tally = ctx.w, ctx.tally
    min_units = LOSS_STEP if w.kind == "train" else 1
    setup_times, times, round_losses, run = [], [], [], None
    start = time.perf_counter()
    for r in range(ROUNDS):
        run = None
        gc.collect()
        try:
            t0 = time.perf_counter()
            run = Run(w, ctx.raw, ctx.scratch)
            setup_times.append(time.perf_counter() - t0)
            tally.attempted += 1
        except Exception:
            tally.error(f"set-up {r + 1} raised")
            break
        got, _, _ = measure(run, start + ctx.seconds * (r + 1) / ROUNDS, min_units, tally)
        times += got
        if len(got) < min_units:                                     # a unit raised
            break
        if w.kind == "train":
            round_losses.append(run.losses[LOSS_STEP])
    if run is not None and len(setup_times) == ROUNDS and tally.failed == 0:
        for check in run.final_checks(ctx.raw):
            tally.check(*check)
        if w.kind == "train":
            tally.check("train_loss repeats in every round", len(set(round_losses)) == 1,
                        f"{round_losses!r}")
        ctx.exact = run.proximity_counts()
    e2e = {"setup_s": median(setup_times), "work_ms": median(times) * 1e3,
           "items_per_s": w.items_per_unit / median(times) if times else 0.0,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    loss = round_losses[0] if round_losses else None

    print(f"  end-to-end ({len(times)} timed units of work; set-up s "
          f"min/median/max {min(setup_times, default=0):.4f}/{median(setup_times):.4f}/"
          f"{max(setup_times, default=0):.4f} over {len(setup_times)} set-ups; unit s "
          f"min/median/max {min(times, default=0):.4f}/{median(times):.4f}/{max(times, default=0):.4f}):")
    rows = [("setup_s", e2e["setup_s"], "s")]
    if w.kind == "train":
        rows += [("train_qps", e2e["items_per_s"], "queries/s"),
                 ("train_step_ms", e2e["work_ms"], "ms"),
                 ("train_loss", loss, f"after timed step {LOSS_STEP}")]
    else:
        rows += [("eval_qps", e2e["items_per_s"], "ranked cases/s"),
                 ("eval_ms", e2e["work_ms"], "ms per evaluate call")]
    rows += [("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
             ("fail_rate", tally.failed / max(tally.attempted, 1),
              f"{tally.failed} failed of {tally.attempted} attempted")]
    for metric, value, unit in rows:
        print(f"    {metric:<20} {value!r:<24} {unit}")
    return e2e, loss, len(times)


def traced(ctx: Context, loss, untraced_work_ms: float) -> dict:
    """One set-up and a TRACE_SHARE window with every layer patched; returns per-layer metrics."""
    import spans
    from workloads import Run

    w, tally = ctx.w, ctx.tally
    tracer = spans.Tracer()
    with tracer.installed():
        setup_id = len(tracer.spans)
        with tracer.span("bench.setup"):
            run = Run(w, ctx.raw, ctx.scratch, tracer.span)
        deadline = time.perf_counter() + ctx.seconds * TRACE_SHARE
        times, unit_ids, counts = measure(run, deadline, MIN_UNITS, tally, tracer)
    name = f"{w.name}-seed{ctx.seed}"
    tracer.dump(OUT_DIR / f"trace-{name}.jsonl")
    if not times:
        return {}
    if w.kind == "train":
        traced_loss = run.losses[LOSS_STEP]
        tally.check("traced train_loss bit-identical", traced_loss == loss,
                    f"{traced_loss!r} vs {loss!r}")
    exact = run.proximity_counts()
    tally.check("traced proximity counts = untraced", exact == ctx.exact,
                f"{exact} vs {ctx.exact}")
    units = [spans.SpanTree(tracer.spans, i) for i in unit_ids]
    setup = spans.SpanTree(tracer.spans, setup_id)
    cases = w.items_per_unit if w.kind == "eval" else 0
    m = spans.layer_metrics(units, setup, counts[0], cases)
    m["trace.overhead_pct"] = (spans.median(times) * 1e3 / untraced_work_ms - 1) * 100

    print(f"  per-layer ({len(times)} traced units; spans in .perfbench/trace-{name}.jsonl):")
    for metric, unit, _ in spans.LAYER_METRICS:
        if m[metric]:
            print(f"    {metric:<36} {m[metric]!r:<24} {unit}")
    print("  proximity counts (fixed by the input, M and I; a correct change leaves them as they are):")
    for metric, value in exact.items():
        print(f"    {metric:<36} {value!r}")
    share = spans.shares(units)
    print("  layer shares of the traced units' time:")
    for k, v in sorted(share.items(), key=lambda kv: -kv[1]):
        if v >= 0.005:
            print(f"    {k:<36} {v * 100:6.2f} %")
    role = role_verdict(w.kind, share, setup)
    print("  role: " + role)
    counts = {k: m[k] for k in ("autodiff.ops_per_step", "autodiff.graph_mb_per_step",
                                "evaluation.score_matrix_mb")}
    summary = {"metrics": m, "exact_counts": {**counts, **exact}, "shares": share, "role": role}
    (OUT_DIR / f"summary-{name}.json").write_text(json.dumps(summary, indent=1))
    return {metric: {"value": m[metric], "unit": unit} for metric, unit, _ in spans.LAYER_METRICS}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import numpy as np

    import gen
    from workloads import WORKLOADS, make_inputs

    w = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    print(f"workload {name} (seed {seed}, {seconds:g} s, trace {int(trace)}, "
          f"{len(os.sched_getaffinity(0))} CPUs, BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}, "
          f"numpy {np.__version__})")
    print(f"  why: {w.why}")
    raw = make_inputs(w, seed)
    stats = gen.input_stats(raw.train, raw.test, w.n_entities, w.M)
    print("  inputs: " + " ".join(f"{k}={v:g}" for k, v in stats.items()))

    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        ctx = Context(w, raw, scratch, seed, seconds, tally)
        e2e, loss, n_units = untraced(ctx)
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
        if trace and n_units and tally.failed == 0:
            gc.collect()
            try:
                metrics = traced(ctx, loss, e2e["work_ms"])
            except Exception:
                tally.error("traced run raised")
    ok = tally.failed == 0 and n_units >= MIN_UNITS
    print(json.dumps({"correct": ok, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def role_verdict(kind: str, share: dict, setup) -> str:
    """Whether the trace shows the layer mix the workload was chosen for."""
    if kind == "train":
        top = max((k for k in share if k != "other"), key=share.get)
        decoder_side = share["decoder.conve_score"] + share["decoder.bce_loss"] + share["training.optimizer"]
        encoder_side = sum(share[k] for k in ("encoder.gr_layer", "encoder.gp_layer",
                                              "encoder.relation_mlp", "encoder.adjacency"))
        return (f"largest part {top} ({share[top] * 100:.1f}%); decoder+loss+optimizer "
                f"{decoder_side * 100:.1f}% vs encoder {encoder_side * 100:.1f}%")
    prox = sum(setup.time(k) for k in ("proximity.extract_qa", "proximity.accumulate_spm",
                                       "proximity.build_graph", "proximity.save",
                                       "proximity.load", "encoder.proximity_adjacency"))
    return (f"evaluation.score_batch {share['evaluation.score_batch'] * 100:.1f}% of evaluate; "
            f"proximity stages {prox / setup.total * 100:.1f}% of set-up")


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    from workloads import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            correct = False
            continue
        correct &= result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    cap_blas_threads()
    import_program()
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
