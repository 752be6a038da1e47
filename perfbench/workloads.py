"""The benchmark's workloads, driven through the program's public API.

Each workload sets the program up ``SETUP_REPEATS`` times (timing artifact
load to first answered request, keeping the last set-up), measures for the
requested seconds, then checks every answer it got.  It returns a
:class:`Measured` record; ``run.py`` turns that into metrics.

* ``snn-http-single`` -- closed loop, one keep-alive HTTP connection, one
  request in flight: distinct single digits POSTed to the Table 8 SNN
  (N=256) behind ``ModelRegistry`` + ``ScHttpServer``.
* ``snn-batch`` -- offline evaluation: ``Session.predict`` on batches of
  32 distinct digits on the same SNN.
* ``serve-open`` -- open loop: one generator thread submits single digits
  to ``Session.serve()`` at precomputed due times (one random moment in
  each request's slot), against the tiny serving CNN (N=1024, early exit
  and result cache on), in two phases of half the run each, on fresh
  services and disjoint digits.  A fixed share of the requests repeats an
  earlier digit.  ``low`` offers about a third of the batch-1 capacity of
  the two-worker service; ``high`` offers more than its batch-1 capacity
  but less than its batched capacity.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import http.client
import json
import resource
import threading
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

#: Seed offset of the measured digits (keeps them off the training seeds).
IMAGE_SEED_OFFSET = 1_000_000
#: Seed of the probe digit every set-up answers first (and digests check).
PROBE_SEED = 424_242
SETUP_REPEATS = 3
SNN_BATCH = 32
#: serve-open: latency limit of goodput (answers within the limit per
#: second of schedule), one repeated digit per block of
#: requests (a 25% repeat share), offered rates in requests per second.
LATENCY_LIMIT_S = 1.0
REPEAT_BLOCK = 4
OPEN_RATES = {"low": 3.0, "high": 16.0}
OPEN_WORKERS = 2
#: serve-open: accuracy floor on the distinct digits served in one run
#: (chance is 0.1; the model's held-out floor is checked on the stamp).
SERVED_ACCURACY_FLOOR = 0.3
HELD_OUT_ACCURACY_FLOOR = 0.5
#: Upper bound on waiting for the answers of one run.
ANSWER_TIMEOUT_S = 120.0


@dataclass
class Measured:
    """What one workload run measured and checked."""

    latencies_s: list = field(default_factory=list)
    answered: int = 0  # images answered
    wall_s: float = 0.0  # seconds the answers took (throughput denominator)
    attempted: int = 0
    failed: int = 0
    setup_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    workers: int = 1
    facts: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    kernels: dict = field(default_factory=dict)  # counter delta, measured window
    errors: list = field(default_factory=list)


class Digits:
    """Deterministic stream of distinct synthetic digits for one seed."""

    CHUNK = 128

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._chunks = 0
        self._images = np.empty((0, 1, 28, 28), np.float32)
        self._labels = np.empty((0,), np.int64)
        self._taken = 0

    def take(self, count: int):
        from repro.datasets import generate_digit_dataset

        while self._images.shape[0] - self._taken < count:
            data = generate_digit_dataset(
                10,
                self.CHUNK,
                seed=IMAGE_SEED_OFFSET + 1000 * self.seed + self._chunks,
            )
            self._chunks += 1
            self._images = np.concatenate(
                [self._images[self._taken :], data.test_images[:, None]]
            )
            self._labels = np.concatenate(
                [self._labels[self._taken :], data.test_labels]
            )
            self._taken = 0
        start, self._taken = self._taken, self._taken + count
        return self._images[start : self._taken], self._labels[start : self._taken]


def probe_digit() -> np.ndarray:
    from repro.datasets import generate_digit_dataset

    return generate_digit_dataset(10, 10, seed=PROBE_SEED).test_images[:1, None]


def score_digest(scores) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(scores, dtype=np.float64).tobytes()
    ).hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def release_freed_memory() -> None:
    """Return memory freed by a torn-down set-up to the OS.

    Without it, heap pages that the allocator keeps after an earlier
    set-up stay resident and the peak RSS depends on which arena each
    thread happened to get, not on what the kept set-up uses.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: nothing to trim
        pass


def kernel_delta(before: dict, after: dict) -> dict:
    """``{(kernel, tier): [calls, seconds]}`` spent between two snapshots."""
    delta = {}
    for kernel, tiers in after.items():
        for tier, cell in tiers.items():
            old = before.get(kernel, {}).get(tier, {"calls": 0, "seconds": 0.0})
            calls = cell["calls"] - old["calls"]
            if calls:
                delta[(kernel, tier)] = [calls, cell["seconds"] - old["seconds"]]
    return delta


NO_REQUESTS = {"requests": 0}


def settled_snapshot(snapshot, before: dict, finished: int) -> dict:
    """``snapshot()`` once the service has booked ``finished`` more requests.

    A future resolves just before the service records the request in its
    metrics, so a snapshot taken right after the last answer can miss it.
    """
    give_up = time.perf_counter() + 5.0
    while True:
        after = snapshot()
        if after["requests"] - before["requests"] >= finished:
            return after
        if time.perf_counter() > give_up:
            return after
        time.sleep(0.005)


def workspace_bytes(snapshot: dict) -> int:
    return sum(w.get("peak_nbytes", 0) for w in snapshot.get("workspaces", []))


def check_probe(measured: Measured, scores, golden: dict, key: str) -> None:
    digest = score_digest(scores)
    expected = golden.get(key)
    measured.facts["probe_digest"] = digest
    if digest != expected:
        measured.errors.append(
            f"probe scores digest {digest} != stored {expected} ({key})"
        )


# -- snn-http-single -----------------------------------------------------------


def _post(conn, images) -> tuple[int, dict]:
    body = json.dumps({"images": np.asarray(images).tolist()})
    conn.request(
        "POST",
        "/v1/models/snn/predict",
        body=body,
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def snn_http_single(ctx) -> Measured:
    from repro.api import Session
    from repro.config import ServiceConfig
    from repro.serve import ModelRegistry
    from repro.serve.http import ScHttpServer

    measured = Measured()
    config = ServiceConfig(
        backend="bit-exact-native", num_workers=1, early_exit=False
    )
    probe = probe_digit()
    images, _ = Digits(ctx.seed).take(1024)
    stack = None
    for _ in range(SETUP_REPEATS):
        if stack is not None:
            for closer in reversed(stack):
                closer()
            release_freed_memory()
        started = time.perf_counter()
        registry = ModelRegistry(models={"snn": str(ctx.snn)}, service=config)
        server = ScHttpServer(registry).start_background()
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=300)
        status, body = _post(conn, probe)
        measured.setup_s.append(time.perf_counter() - started)
        stack = [registry.close, server.close, conn.close]
        if status != 200:
            measured.errors.append(f"probe request answered HTTP {status}")
            break
        check_probe(measured, body["scores"], ctx.golden, "snn")

    def server_snapshot():
        return registry.snapshot()["snn"]["snapshot"]

    before = settled_snapshot(server_snapshot, NO_REQUESTS, 1)  # the probe
    recorder = ctx.recorder
    recorder.enabled = ctx.trace
    served = []  # (index, scores)
    overheads = []
    non_200 = 0
    deadline = time.perf_counter() + ctx.seconds
    index = 0
    while time.perf_counter() < deadline and index < len(images):
        trace_id = recorder.new_id()
        recorder.pin_request(trace_id)
        started = time.perf_counter()
        try:
            status, body = _post(conn, images[index : index + 1])
        except (OSError, http.client.HTTPException) as exc:
            measured.errors.append(f"request {index} failed: {exc!r}")
            status, body = 0, {}
        ended = time.perf_counter()
        if recorder.enabled:
            recorder.record(
                trace_id, recorder.new_id(), 0, "http.request", "", started, ended, 1
            )
        measured.attempted += 1
        if status == 200:
            measured.latencies_s.append(ended - started)
            overheads.append((ended - started) * 1e3 - body["latency_ms"])
            served.append((index, np.asarray(body["scores"], np.float64)))
        else:
            non_200 += 1
            measured.failed += 1
        index += 1
    recorder.enabled = False
    recorder.pin_request(None)
    measured.peak_rss_mb = peak_rss_mb()
    after = settled_snapshot(server_snapshot, before, len(served))
    for closer in reversed(stack):
        closer()
    measured.answered = len(served)
    measured.wall_s = sum(measured.latencies_s)
    measured.kernels = kernel_delta(before["kernels"], after["kernels"])
    measured.layer.update(
        {
            "http.requests": measured.attempted,
            "http.overhead_ms": float(np.median(overheads)) if overheads else 0.0,
            "http.non_200": non_200,
            "workspace.bytes": workspace_bytes(after),
        }
    )
    measured.layer.update(service_layer(before, after))

    # Gate: every served score equals Session.predict on the same digit.
    with Session.from_artifact(ctx.snn, backend="bit-exact-native") as session:
        rows = [i for i, _ in served]
        expected = predict_chunks(session, images[rows])
    for (i, scores), (want, _) in zip(served, expected):
        if not np.array_equal(scores[0], want):
            measured.errors.append(
                f"digit {i}: HTTP scores differ from Session.predict"
            )
    return measured


def predict_chunks(session, images, options=None):
    """``(scores, exit checkpoint)`` per digit from ``Session.predict``,
    in batches of ``SNN_BATCH``."""
    out = []
    for start in range(0, len(images), SNN_BATCH):
        result = session.predict(images[start : start + SNN_BATCH], options)
        out.extend(zip(result.scores, result.exit_checkpoints))
    return out


def service_layer(before: dict, after: dict) -> dict:
    """Queue / service split and batching of the measured window."""
    batches = after["batches"] - before["batches"]
    computed = (after["images"] - after["cache_hits"]) - (
        before["images"] - before["cache_hits"]
    )
    queue = after.get("queue_time_ms") or {}
    service = after.get("service_time_ms") or {}
    faults = after["faults"]
    return {
        "service.queue_ms": float(queue.get("p50") or 0.0),
        "service.service_ms": float(service.get("p50") or 0.0),
        "service.batch_size_mean": computed / batches if batches else 0.0,
        "service.shed": faults["shed"]["total"] - before["faults"]["shed"]["total"],
        "service.failed": faults["failed_requests"]
        - before["faults"]["failed_requests"],
    }


# -- snn-batch -----------------------------------------------------------------


def snn_batch(ctx) -> Measured:
    from repro.api import Session

    measured = Measured()
    probe = probe_digit()
    digits = Digits(ctx.seed)
    session = None
    for _ in range(SETUP_REPEATS):
        if session is not None:
            session.close()
            release_freed_memory()
        started = time.perf_counter()
        session = Session.from_artifact(ctx.snn, backend="bit-exact-native")
        scores = session.predict(probe).scores
        measured.setup_s.append(time.perf_counter() - started)
        check_probe(measured, scores, ctx.golden, "snn")

    before = session.obs_snapshot()["kernels"]
    recorder = ctx.recorder
    calls = []  # (images, scores)
    measured_s = 0.0
    while measured_s < ctx.seconds:
        images, _ = digits.take(SNN_BATCH)
        recorder.enabled = ctx.trace
        started = time.perf_counter()
        result = session.predict(images)
        elapsed = time.perf_counter() - started
        recorder.enabled = False
        measured_s += elapsed
        measured.latencies_s.append(elapsed)
        measured.attempted += 1
        calls.append((images, result.scores))
    measured.peak_rss_mb = peak_rss_mb()
    snapshot = session.obs_snapshot()
    measured.kernels = kernel_delta(before, snapshot["kernels"])
    measured.answered = SNN_BATCH * len(calls)
    measured.wall_s = measured_s
    measured.layer["workspace.bytes"] = workspace_bytes(snapshot)

    # Gate: batching is transparent -- a random digit of the first call,
    # predicted alone, reproduces its row of the batch bit for bit.
    images, scores = calls[0]
    row = int(np.random.default_rng(ctx.seed).integers(len(images)))
    if not np.array_equal(session.predict(images[row : row + 1]).scores[0], scores[row]):
        measured.errors.append(f"batch row {row} differs from a batch-1 predict")
    if not all(np.all(np.abs(batch) <= 1.0) for _, batch in calls):
        measured.errors.append("scores outside [-1, 1]")
    session.close()
    return measured


# -- serve-open ----------------------------------------------------------------


def open_schedule(seed: int, rate: float, seconds: float):
    """Due offsets, and for each request the index of its digit.

    The schedule is stratified so that the load, not the seed, sets the
    backlog: request ``k`` is due at a uniformly random moment of its own
    slot ``[k, k+1) / rate``, and in every block of ``REPEAT_BLOCK``
    consecutive requests exactly one, at a random position, repeats the
    digit of a random earlier request.
    """
    rng = np.random.default_rng([seed, int(rate * 1000)])
    count = max(REPEAT_BLOCK, round(rate * seconds))
    offsets = (np.arange(count) + rng.uniform(0.0, 1.0, count)) / rate
    source = []
    fresh = 0
    for block in range(0, count, REPEAT_BLOCK):
        repeat = block + int(rng.integers(1 if block == 0 else 0, REPEAT_BLOCK))
        for k in range(block, min(count, block + REPEAT_BLOCK)):
            if k == repeat:
                source.append(source[int(rng.integers(k))])
            else:
                source.append(fresh)
                fresh += 1
    return offsets, source, fresh


def open_phase(ctx, measured: Measured, phase: str, digits: Digits, setups: int):
    """One open-loop phase on a fresh service; returns what to verify."""
    from repro.api import Session
    from repro.config import ServiceConfig
    from repro.errors import ServiceOverloadError

    rate = OPEN_RATES[phase]
    seconds = ctx.seconds / len(OPEN_RATES)
    config = ServiceConfig(
        backend="bit-exact-native",
        num_workers=OPEN_WORKERS,
        max_batch_size=32,
        max_wait_ms=2.0,
        cache_capacity=1024,
        early_exit=True,
    )
    offsets, source, fresh = open_schedule(ctx.seed, rate, seconds)
    images, labels = digits.take(fresh)
    probe = probe_digit()
    session = service = None
    for _ in range(setups):
        if service is not None:
            service.close()
            session.close()
            release_freed_memory()
        started = time.perf_counter()
        session = Session.from_artifact(ctx.tiny, backend="bit-exact-native")
        service = session.serve(config)
        service.submit(probe).result(timeout=ANSWER_TIMEOUT_S)
        measured.setup_s.append(time.perf_counter() - started)

    count = len(offsets)
    futures = [None] * count
    sent = np.zeros(count)
    done_at = np.full(count, np.nan)
    shed = []
    refused = []

    def generate(origin: float) -> None:
        for k in range(count):
            delay = origin + offsets[k] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent[k] = time.perf_counter()
            try:
                future = service.submit(images[source[k]])
            except ServiceOverloadError:
                shed.append(k)
                continue
            except Exception as exc:  # noqa: BLE001 - counted and reported
                refused.append((k, repr(exc)))
                continue
            future.add_done_callback(
                lambda _f, k=k: done_at.__setitem__(k, time.perf_counter())
            )
            futures[k] = future

    before = settled_snapshot(service.snapshot, NO_REQUESTS, 1)  # the probe
    ctx.recorder.enabled = ctx.trace
    origin = time.perf_counter() + 0.05
    generator = threading.Thread(target=generate, args=(origin,), daemon=True)
    generator.start()
    generator.join(timeout=seconds + ANSWER_TIMEOUT_S)
    responses = [None] * count
    failures = []
    give_up = time.perf_counter() + ANSWER_TIMEOUT_S
    for k, future in enumerate(futures):
        if future is None:
            continue
        try:
            responses[k] = future.result(
                timeout=max(0.0, give_up - time.perf_counter())
            )
        except Exception as exc:  # noqa: BLE001 - counted and reported
            failures.append((k, repr(exc)))
    ctx.recorder.enabled = False
    ok = [k for k in range(count) if responses[k] is not None]
    after = settled_snapshot(service.snapshot, before, len(ok))
    service.close()

    due = origin + offsets
    latencies = done_at[ok] - due[ok]
    measured.attempted += count
    measured.failed += count - len(ok)
    for key, cell in kernel_delta(before["kernels"], after["kernels"]).items():
        total = measured.kernels.setdefault(key, [0, 0.0])
        total[0] += cell[0]
        total[1] += cell[1]
    late_ms = (sent - due) * 1e3
    layer = {
        "sent": count - len(shed) - len(refused),
        "succeeded": len(ok),
        "failed": len(failures) + len(refused),
        "shed": len(shed),
        "late_max_ms": float(late_ms.max()),
        "late_p90_ms": float(np.percentile(late_ms, 90)),
        "goodput_per_s": float(np.sum(latencies <= LATENCY_LIMIT_S) / seconds),
    }
    measured.layer.update({f"{phase}.{k}": v for k, v in layer.items()})
    for k, reason in (failures + refused)[:5]:
        measured.errors.append(f"{phase} request {k} failed: {reason}")
    return SimpleNamespace(
        session=session,
        before=before,
        after=after,
        responses=responses,
        ok=ok,
        source=source,
        fresh=fresh,
        images=images,
        labels=labels,
        latencies=latencies,
        answered_s=float(np.nanmax(done_at) - origin) if ok else seconds,
    )


def serve_open(ctx) -> Measured:
    from repro.api import PredictOptions

    measured = Measured(workers=OPEN_WORKERS)
    stamp_accuracy = ctx.stamp.get("tiny_accuracy", 0.0)
    measured.facts["held_out_accuracy"] = stamp_accuracy
    if stamp_accuracy < HELD_OUT_ACCURACY_FLOOR:
        measured.errors.append(
            f"tiny model held-out accuracy {stamp_accuracy:.3f} below "
            f"{HELD_OUT_ACCURACY_FLOOR}"
        )
    digits = Digits(ctx.seed)
    low = open_phase(ctx, measured, "low", digits, SETUP_REPEATS)
    high = open_phase(ctx, measured, "high", digits, 1)
    measured.peak_rss_mb = peak_rss_mb()

    # End to end: low-load latency from each due time; compute throughput
    # of the backlogged high phase (digits computed, not answered from the
    # cache, per second from the schedule start to the last answer).
    measured.latencies_s = low.latencies.tolist()
    measured.answered = sum(1 for k in high.ok if not high.responses[k].cached[0])
    measured.wall_s = high.answered_s
    if len(high.latencies):
        measured.layer["high.latency_p50_ms"] = float(
            np.median(high.latencies) * 1e3
        )
        measured.layer["high.latency_tail_ms"] = tail_ms(high.latencies * 1e3)[0]
    # Queueing, batching and caching of the backlogged phase; the
    # progressive exit of the unloaded one.
    measured.layer.update(service_layer(high.before, high.after))
    hits = [bool(high.responses[k].cached[0]) for k in high.ok]
    measured.layer["cache.hit_ratio"] = float(np.mean(hits)) if hits else 0.0
    measured.layer["cache.repeat_share"] = 1.0 - high.fresh / len(high.source)
    measured.layer["workspace.bytes"] = workspace_bytes(high.after)
    computed = [k for k in low.ok if not low.responses[k].cached[0]]
    exits = np.array([low.responses[k].exit_checkpoints[0] for k in computed])
    if exits.size:
        n = low.session.stream_length
        measured.layer["progressive.exit_checkpoint_mean"] = float(exits.mean())
        measured.layer["progressive.cycles_spent_ratio"] = float(
            exits.sum() / (n * exits.size)
        )

    # Gate: every served answer (cached or computed) equals Session.predict
    # with early exit on, for its digit; accuracy stays above the floor.
    correct = total = 0
    for name, phase in (("low", low), ("high", high)):
        expected = predict_chunks(
            phase.session, phase.images, PredictOptions(early_exit=True)
        )
        phase.session.close()
        for k in phase.ok:
            want_scores, want_exit = expected[phase.source[k]]
            got = phase.responses[k]
            if not (
                np.array_equal(got.scores[0], want_scores)
                and int(got.exit_checkpoints[0]) == int(want_exit)
            ):
                measured.errors.append(
                    f"{name} request {k}: served answer differs from "
                    "Session.predict"
                )
        predictions = np.array([np.argmax(scores) for scores, _ in expected])
        correct += int(np.sum(predictions == phase.labels))
        total += len(phase.labels)
    accuracy = correct / total if total else 0.0
    measured.facts["served_accuracy"] = accuracy
    if accuracy < SERVED_ACCURACY_FLOOR:
        measured.errors.append(
            f"served accuracy {accuracy:.3f} below {SERVED_ACCURACY_FLOOR}"
        )
    return measured


def tail_ms(values) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it (or, with
    fewer than 20 samples, the maximum), and its label."""
    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    if n >= 20:
        return float(ordered[n - 11]), f"p{100.0 * (n - 10) / n:.1f}"
    return float(ordered[-1]), "max (fewer than 20 samples)"


WORKLOADS = {
    "snn-http-single": snn_http_single,
    "snn-batch": snn_batch,
    "serve-open": serve_open,
}
