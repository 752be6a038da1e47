"""Span recorder and per-layer instrumentation for the benchmark.

Spans are recorded from this file, around calls into the public functions
of each program layer; the program itself is not modified.  ``instrument``
replaces those functions with timing wrappers for the duration of a traced
run and ``restore`` puts the originals back.

A span is ``(trace_id, span_id, parent_id, name, layer, start, end,
size)``, where size is the bytes a stream or kernel call produced, or the
images of a forward pass.  Spans recorded on one thread nest through a
per-thread stack, so a kernel span's parent is the stream or forward span
that made the call.
Every span under one backend forward pass shares that pass's trace id; a
closed-loop client can pin the id of the request it is waiting on with
:meth:`SpanRecorder.pin_request`, so client and server spans share it.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


def weighted_layer_names(network) -> list[str]:
    """``conv1``, ``conv2``, ... / ``FC<units>`` / ``out`` per weighted layer."""
    from repro.nn.layers import Conv2D, Dense

    names = []
    convs = 0
    dense = [layer for layer in network.layers if isinstance(layer, Dense)]
    for layer in network.layers:
        if isinstance(layer, Conv2D):
            convs += 1
            names.append(f"conv{convs}")
        elif isinstance(layer, Dense):
            last = layer is dense[-1]
            names.append("out" if last else f"FC{layer.out_features}")
    return names


class SpanRecorder:
    """In-memory span store; written out once, at the end of a run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pinned: int | None = None

    # -- ids -------------------------------------------------------------------

    def new_id(self) -> int:
        return next(self._ids)

    def pin_request(self, trace_id: int | None) -> None:
        """Trace id that server-side forward passes adopt (closed loop)."""
        self._pinned = trace_id

    # -- per-thread state ------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.trace_id = None
            local.layers = []
            local.weight_calls = 0
        return local

    def current_layer(self) -> str:
        state = self._state()
        index = (state.weight_calls - 1) // 2
        if 0 <= index < len(state.layers):
            return state.layers[index]
        return "input"

    # -- recording -------------------------------------------------------------

    def record(self, trace_id, span_id, parent, name, layer, start, end, size):
        self.spans.append((trace_id, span_id, parent, name, layer, start, end, size))

    def span(self, name: str, call, layer: str = "", root_layers=None, size=None):
        """Run ``call()`` inside a span; returns its result.

        ``root_layers`` marks a backend forward pass: it opens a new trace
        (or adopts the pinned request id) and resets the per-thread layer
        cursor that keys the stream and kernel spans below it.  The span's
        size is ``size`` when given (images, for a forward pass), else the
        ``nbytes`` of the result.
        """
        if not self.enabled:
            return call()
        state = self._state()
        if root_layers is not None:
            state.trace_id = (
                self._pinned if self._pinned is not None else self.new_id()
            )
            state.layers = root_layers
            state.weight_calls = 0
        parent = state.stack[-1] if state.stack else 0
        span_id = self.new_id()
        state.stack.append(span_id)
        start = time.perf_counter()
        try:
            result = call()
        finally:
            end = time.perf_counter()
            state.stack.pop()
        if size is None:
            size = getattr(result, "nbytes", 0)
        self.record(
            state.trace_id or 0, span_id, parent, name, layer, start, end, size
        )
        return result

    def weight_layer(self) -> str:
        """Advance the per-thread weight-stream cursor; return its layer."""
        state = self._state()
        state.weight_calls += 1
        return self.current_layer()

    # -- output ----------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("trace", "span", "parent", "name", "layer", "start", "end", "size")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")

    def aggregate(self) -> dict:
        """Per ``(name, layer)``: calls, busy seconds, self seconds, size.

        Self time is a span's duration minus the durations of its direct
        children (children nest within their parent on one thread).
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, _, start, end, _ in self.spans:
            if parent:
                child_time[parent] += end - start
        table: dict[tuple, list] = {}
        for _, span_id, _, name, layer, start, end, size in self.spans:
            cell = table.setdefault((name, layer), [0, 0.0, 0.0, 0])
            cell[0] += 1
            cell[1] += end - start
            cell[2] += end - start - child_time.get(span_id, 0.0)
            cell[3] += size
        return table


def instrument(recorder: SpanRecorder):
    """Wrap the layer entry points; returns the list of patches to undo."""
    from repro.backends.native import BitExactNativeBackend
    from repro.nn.sc_layers import ScNetworkMapper
    from repro.sc import native

    patches = []

    def patch(owner, attr, make):
        # ``None`` marks an inherited method: restoring deletes the wrapper.
        patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, make(getattr(owner, attr)))

    def traced(name, layer_of=None):
        """Wrapper factory; ``layer_of=None`` marks a forward-pass root."""

        def make(original):
            def wrapper(*args, **kwargs):
                if not recorder.enabled:
                    return original(*args, **kwargs)

                def call():
                    return original(*args, **kwargs)

                if layer_of is None:
                    backend, images = args[0], args[1]
                    return recorder.span(
                        name,
                        call,
                        root_layers=weighted_layer_names(backend.mapper.network),
                        size=len(images),
                    )
                return recorder.span(name, call, layer_of())

            return wrapper

        return make

    patch(BitExactNativeBackend, "forward", traced("backend.forward"))
    patch(BitExactNativeBackend, "forward_partial", traced("backend.forward"))
    patch(ScNetworkMapper, "input_stream_words", traced("stream.input", lambda: "input"))
    patch(
        ScNetworkMapper,
        "weight_stream_words",
        traced("stream.weight", recorder.weight_layer),
    )
    for attr, name in (
        ("pack_comparator_floats", "stream.pack"),
        ("fused_xnor_column_counts", "native.fused_counts"),
        ("fused_xnor_majority_chain", "native.fused_chain"),
        ("feature_extraction_recurrence_words", "native.recurrence_words"),
    ):
        patch(native, attr, traced(name, recorder.current_layer))
    return patches


def restore(patches) -> None:
    """Undo :func:`instrument` (in reverse order)."""
    for owner, attr, own_value in reversed(patches):
        if own_value is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, own_value)
