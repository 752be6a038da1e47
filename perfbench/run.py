"""Benchmark of the bit-exact request path: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload snn-http-single --seed 1 --seconds 15 --trace 0

Workloads: ``snn-http-single``, ``snn-batch``, ``serve-open-low``,
``serve-open-high`` (see ``perfbench/workloads.py`` and
``perfbench/README.md``).  The first run in a checkout builds the native
kernels and the model artifacts under ``.bench_build/perfbench`` in a
child process.  Each run prints a human-readable report, then as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a run with spans recorded.  A failed correctness
check prints ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import faulthandler
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

#: A run that has not finished by then dumps its stacks and exits.
WATCHDOG_S = 170
PREPARE_TIMEOUT_S = 850

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_per_s": "1/s",
}

KERNELS = ("fused_counts", "recurrence_words", "fused_chain")
PER_LAYER = {
    "http.requests": "count",
    "http.overhead_ms": "ms",
    "http.non_200": "count",
    "service.queue_ms": "ms",
    "service.service_ms": "ms",
    "service.batch_size_mean": "images",
    "service.shed": "count",
    "service.failed": "count",
    "cache.hit_ratio": "ratio",
    "cache.repeat_share": "ratio",
    "progressive.exit_checkpoint_mean": "cycles",
    "progressive.cycles_spent_ratio": "ratio",
    "high.latency_p50_ms": "ms",
    "high.latency_tail_ms": "ms",
    "stream.input_s": "s",
    "stream.weight_s": "s",
    "stream.pack_s": "s",
    "stream.calls": "count",
    "stream.bytes": "bytes",
    "native.fused_counts_s": "s",
    "native.recurrence_words_s": "s",
    "native.fused_chain_s": "s",
    "native.calls": "count",
    "native.bytes": "bytes",
    "native.tier_share": "ratio",
    "backend.forward_s": "s",
    "backend.forward_calls": "count",
    "backend.images_per_call": "images",
    "backend.glue_s": "s",
    "backend.stream_share": "ratio",
    "backend.native_share": "ratio",
    "backend.glue_share": "ratio",
    "workspace.bytes": "bytes",
    "kernels.counter_agreement": "ratio",
    "trace.overhead_share": "ratio",
    "traced.latency_p50_ms": "ms",
    "traced.throughput_per_s": "1/s",
}
#: Per serve-open phase: the open-loop generator's own accounting.
for _phase in ("low", "high"):
    PER_LAYER.update({
        f"{_phase}.goodput_per_s": "1/s",
        f"{_phase}.sent": "count",
        f"{_phase}.succeeded": "count",
        f"{_phase}.failed": "count",
        f"{_phase}.shed": "count",
        f"{_phase}.late_max_ms": "ms",
        f"{_phase}.late_p90_ms": "ms",
    })
#: Per network layer (keyed in forward order; 0 where a model has no
#: such layer, e.g. FC64 on the SNN).
LAYERED = {
    "stream.weight_s": ("conv1", "conv2", "FC500", "FC800", "FC64", "out"),
    "native.fused_counts_s": ("conv1", "conv2", "FC500", "FC800", "FC64"),
    "native.recurrence_words_s": ("conv1", "conv2", "FC500", "FC800", "FC64"),
    "native.fused_chain_s": ("out",),
}
for _name, _layers in LAYERED.items():
    for _layer in _layers:
        PER_LAYER[f"{_name}.{_layer}"] = "s"

#: Traced kernel time must agree with the program's own counters within
#: these ratios (spans sit just inside the counters' timestamps).
AGREEMENT_RANGE = (0.8, 1.02)


def prepare() -> dict:
    """Build native kernels + artifacts in a child process when stale."""
    digest = hashlib.sha256((HERE / "prepare.py").read_bytes()).hexdigest()[:16]
    stamp_path = BUILD / "stamp.json"
    if stamp_path.is_file():
        stamp = json.loads(stamp_path.read_text())
        if stamp.get("prepare") == digest:
            return stamp
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), str(BUILD)],
        env=env,
        stdout=sys.stderr,
        check=True,
        timeout=PREPARE_TIMEOUT_S,
    )
    return json.loads(stamp_path.read_text())


def layer_metrics(measured, recorder, trace_cost_ms: float) -> tuple[dict, list]:
    """Per-layer metrics of a traced run, plus correctness errors.

    ``trace_cost_ms`` is the measured cost of recording one span.
    """
    errors = []
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(measured.layer)
    table = recorder.aggregate()

    def total(name, column=1, layer=None):
        """Sum of one aggregate column (0 calls, 1 busy s, 2 self s, 3 size)."""
        return sum(
            cell[column]
            for (n, l), cell in table.items()
            if n == name and layer in (None, l)
        )

    for stream in ("stream.input", "stream.weight", "stream.pack"):
        metrics[f"{stream}_s"] = total(stream)
    for stream in ("stream.input", "stream.weight"):
        metrics["stream.calls"] += total(stream, 0)
        metrics["stream.bytes"] += total(stream, 3)
    for kernel in KERNELS:
        metrics[f"native.{kernel}_s"] = total(f"native.{kernel}")
        metrics["native.calls"] += total(f"native.{kernel}", 0)
        metrics["native.bytes"] += total(f"native.{kernel}", 3)
    for name, layers in LAYERED.items():
        for layer in layers:
            metrics[f"{name}.{layer}"] = total(name[: -len("_s")], layer=layer)
    forward_s = total("backend.forward")
    calls = total("backend.forward", 0)
    streams = metrics["stream.input_s"] + metrics["stream.weight_s"]
    kernels = sum(metrics[f"native.{k}_s"] for k in KERNELS)
    metrics["backend.forward_s"] = forward_s
    metrics["backend.forward_calls"] = calls
    metrics["backend.glue_s"] = total("backend.forward", 2)
    if calls:
        metrics["backend.images_per_call"] = total("backend.forward", 3) / calls
        metrics["backend.stream_share"] = streams / forward_s
        metrics["backend.native_share"] = kernels / forward_s
        metrics["backend.glue_share"] = metrics["backend.glue_s"] / forward_s
        # Estimated cost of the wrappers themselves (the untraced/traced
        # comparison is printed too, but run-to-run noise exceeds it).
        spans = sum(cell[0] for cell in table.values())
        metrics["trace.overhead_share"] = spans * trace_cost_ms / 1e3 / forward_s

    # The program's own kernel counters, over the same measured window.
    counted = sum(
        seconds for (_, tier), (_, seconds) in measured.kernels.items()
        if tier == "native"
    )
    traced = streams + kernels
    agreement = traced / counted if counted else 0.0
    metrics["kernels.counter_agreement"] = agreement
    low, high = AGREEMENT_RANGE
    if not low <= agreement <= high:
        errors.append(
            f"traced kernel seconds {traced:.4f} disagree with the program's "
            f"counters {counted:.4f} (ratio {agreement:.3f})"
        )
    return metrics, errors


def cpu_times() -> list[int]:
    """Aggregate CPU jiffies from /proc/stat (empty where unavailable)."""
    try:
        with open("/proc/stat") as handle:
            return [int(v) for v in handle.readline().split()[1:]]
    except OSError:
        return []


def span_cost_ms(recorder, samples: int = 2000) -> float:
    """Cost of one recorded span around a no-op call (wrapper overhead)."""
    recorder.enabled = True
    kept = len(recorder.spans)
    started = time.perf_counter()
    for _ in range(samples):
        recorder.span("calibrate", int)
    elapsed = time.perf_counter() - started
    recorder.enabled = False
    del recorder.spans[kept:]
    return elapsed / samples * 1e3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD / "native")
    from workloads import WORKLOADS, tail_ms  # noqa: E402 - after the path is set

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    stamp = prepare()
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)

    import numpy as np

    from repro.obs import GLOBAL_COUNTERS
    from repro.sc import native
    from tracing import SpanRecorder, instrument, restore

    if not native.available():
        print(f"perfbench: {native.describe()}", file=sys.stderr)
        return 2
    recorder = SpanRecorder()
    ctx = SimpleNamespace(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        snn=BUILD / "snn",
        tiny=BUILD / "tiny",
        stamp=stamp,
        golden=json.loads((HERE / "golden.json").read_text()),
        recorder=recorder,
    )
    patches = instrument(recorder) if ctx.trace else []
    cpu_before = cpu_times()
    try:
        measured = WORKLOADS[args.workload](ctx)
    finally:
        restore(patches)
    errors = list(measured.errors)
    cpu_delta = [b - a for a, b in zip(cpu_before, cpu_times())]
    # Column 8 of /proc/stat is time stolen by the hypervisor.
    steal = cpu_delta[7] / sum(cpu_delta) if len(cpu_delta) > 7 and sum(cpu_delta) else 0.0

    # A kernel on the NumPy tier under bit-exact-native is another program.
    calls = {"native": 0, "numpy": 0}
    for tiers in GLOBAL_COUNTERS.snapshot().values():
        for tier, cell in tiers.items():
            calls[tier] = calls.get(tier, 0) + cell["calls"]
    tier_share = calls["native"] / max(1, sum(calls.values()))
    if tier_share < 1.0:
        errors.append(f"native tier share {tier_share:.4f} < 1: NumPy fallback ran")

    latencies_ms = [1e3 * s for s in measured.latencies_s]
    tail, tail_label = tail_ms(latencies_ms) if latencies_ms else (0.0, "none")
    end_to_end = {
        "setup_s": statistics.median(measured.setup_s),
        "peak_rss_mb": measured.peak_rss_mb,
        "latency_p50_ms": statistics.median(latencies_ms) if latencies_ms else 0.0,
        "latency_tail_ms": tail,
        "throughput_per_s": measured.answered / measured.wall_s if measured.wall_s else 0.0,
    }
    cpus = len(os.sched_getaffinity(0))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"host: nproc={cpus} numpy={np.__version__} {native.describe()} "
          f"workers={measured.workers} cpu_steal={100 * steal:.1f}%"
          + ("" if measured.workers <= cpus else " -- not measurable on this host"))
    print(f"setup runs (s): {', '.join(f'{s:.3f}' for s in measured.setup_s)}")
    print(f"samples: {len(latencies_ms)}; latency_tail_ms is {tail_label}")
    for key, value in sorted(measured.facts.items()):
        print(f"{key}: {value}")
    for name, unit in END_TO_END.items():
        print(f"{name:>26} {end_to_end[name]:14.4f} {unit}")

    if ctx.trace:
        span_ms = span_cost_ms(recorder)
        print(f"recorded spans: {len(recorder.spans)}, {1e3 * span_ms:.2f} us each")
        metrics, trace_errors = layer_metrics(measured, recorder, span_ms)
        errors.extend(trace_errors)
        metrics["native.tier_share"] = tier_share
        metrics["traced.latency_p50_ms"] = end_to_end["latency_p50_ms"]
        metrics["traced.throughput_per_s"] = end_to_end["throughput_per_s"]
        recorder.write(BUILD / "traces" / f"{args.workload}-{args.seed}.jsonl")
        untraced = BUILD / "untraced" / f"{args.workload}.json"
        if untraced.is_file():
            before = json.loads(untraced.read_text())
            for name in ("latency_p50_ms", "throughput_per_s"):
                print(f"tracing overhead {name}: untraced {before[name]:.4f}, "
                      f"traced {end_to_end[name]:.4f} "
                      f"({100 * (end_to_end[name] / before[name] - 1):+.2f}%)")
        for name, unit in PER_LAYER.items():
            print(f"{name:>34} {metrics[name]:14.6g} {unit}")
        report = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in PER_LAYER.items()}
    else:
        untraced = BUILD / "untraced" / f"{args.workload}.json"
        untraced.parent.mkdir(parents=True, exist_ok=True)
        untraced.write_text(json.dumps(end_to_end))
        report = {name: {"value": end_to_end[name], "unit": unit}
                  for name, unit in END_TO_END.items()}

    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": report if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
