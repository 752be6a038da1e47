"""Multi-core sharded execution: one batch, many processes, shared memory.

The SC pipeline is embarrassingly parallel across images: every bit-exact
backend draws its stream randomness from tensors *shared across the
batch*, so image ``i``'s scores never depend on which other images it was
batched with (the ``batch_invariant`` capability flag).
:class:`ParallelBackend` exploits exactly that invariance: it splits an
image batch into contiguous shards, runs each shard through a replica of
an inner backend in a worker *process* (side-stepping the GIL, which
thread pools cannot for NumPy-dispatch-bound kernels), and assembles the
scores -- bit-identical to running the inner backend on the whole batch
in one process, asserted by the unit tests and by ``bench_perf.py``.

When the inner replica runs the compiled kernel tier (its
``native_active`` flag), the same sharding runs on a
:class:`~concurrent.futures.ThreadPoolExecutor` over a pool of
in-process inner replicas instead: no pickling, no shared-memory
copies, no process start-up.  The compiled kernels release the GIL, so
threads overlap at parity with processes there, while on the NumPy tier
only processes scale.  The executor therefore follows the kernel tier
and is not a user setting (:func:`_shard_executor`).
:class:`NativeParallelBackend` (``bit-exact-native-mp``) is the same
wrapper with ``bit-exact-native`` as its default inner backend.

Images and scores travel through :mod:`multiprocessing.shared_memory`
buffers rather than pickled task payloads, so the per-call IPC cost is
two small control messages per shard regardless of batch or stream
length; worker processes build their backend replica once (from the
pickled mapper) and reuse it -- including its workspace arena -- across
calls.

The backend registers as ``bit-exact-packed-mp`` and implements both
``forward`` and ``forward_partial``, so the serving layer
(:mod:`repro.serve`) and the progressive early-exit engine can use it
unchanged wherever ``bit-exact-packed`` fits (a typical serving
configuration runs **one** service worker thread whose replica is a
parallel backend, instead of many single-core replicas).

**Fault tolerance.**  A worker process dying mid-call (OOM kill, signal,
crash in a native library) breaks the whole pool -- every in-flight and
future submit raises ``BrokenProcessPool``.  Instead of surfacing that to
the caller, the backend runs a **circuit breaker**: the broken pool is
torn down, the call is answered by the in-process inner replica
(bit-identical by construction -- the shards were only a placement
decision), and the breaker stays *open* for an exponentially growing
cooldown during which every call short-circuits to the inner replica.
Once the cooldown expires, the next sharded call rebuilds the pool from
the pickled payload -- or, when ``artifact_path`` is set, by rehydrating
worker replicas from the shared on-disk artifact.  Chaos tests inject the
failure with :meth:`ParallelBackend.break_pool`.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import queue
import threading
import time
import weakref
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory

import numpy as np

from repro.backends.base import Backend
from repro.backends.registry import backend_class, create_backend, register_backend
from repro.errors import ConfigurationError
from repro.nn.layers import Dense
from repro.nn.sc_layers import ScNetworkMapper
from repro.obs.counters import merge_kernel_snapshots
from repro.sc import native

__all__ = [
    "ParallelBackend",
    "NativeParallelBackend",
    "resolve_parallel_backend",
]

_LOG = logging.getLogger("repro.backends.parallel")


def resolve_parallel_backend(
    backend: str, workers: int | None
) -> tuple[str, dict]:
    """Map CLI ``(--backend, --workers)`` onto a registry selection.

    The shared policy behind the examples' ``--workers`` flags: with one
    (or no) worker the chosen backend is used as-is; otherwise a sharded
    wrapper is selected with the chosen backend riding along as its
    inner backend -- unless that choice cannot shard (not
    ``batch_invariant``) or *is* a wrapper, in which case the matching
    single-process inner is used.  The wrapper itself picks threads or
    processes from its inner replica's kernel tier.

    Args:
        backend: registry name the user chose.
        workers: requested worker count (``None``/``<= 1`` means no
            sharding).

    Returns:
        ``(backend_name, backend_options)`` ready for
        :func:`~repro.backends.registry.create_backend` (or any
        ``backend=``/``**options`` forwarding call site).
    """
    if not workers or workers <= 1:
        return backend, {}
    inner = backend
    if inner == NativeParallelBackend.name:
        inner = "bit-exact-native"
    elif inner == ParallelBackend.name or not getattr(
        backend_class(inner), "batch_invariant", False
    ):
        inner = "bit-exact-packed"
    if inner == "bit-exact-native":
        name = NativeParallelBackend.name
    else:
        name = ParallelBackend.name
    return name, {
        "workers": int(workers),
        "inner_backend": inner,
    }


#: Per-process backend replica, built once by the pool initializer.
_WORKER_BACKEND: Backend | None = None


def _init_worker(payload: bytes) -> None:
    """Pool initializer: build this worker's backend replica once.

    With an artifact path in the payload, the replica's mapper is
    rehydrated from the shared on-disk artifact (one file read per
    worker) instead of from a pickled mapper embedded in the payload --
    the train-once / deploy-forever path of :mod:`repro.api`.
    """
    global _WORKER_BACKEND
    artifact_path, mapper, backend_name, options = pickle.loads(payload)
    if artifact_path is not None:
        # Imported lazily: repro.api sits above the backend layer.
        from repro.api.artifact import ScModel

        mapper = ScModel.load(artifact_path).mapper()
    _WORKER_BACKEND = create_backend(backend_name, mapper, **options)


def _run_shard(
    images_name: str,
    images_shape: tuple[int, ...],
    out_name: str,
    out_shape: tuple[int, ...],
    start: int,
    stop: int,
    checkpoints: tuple[int, ...] | None,
) -> int:
    """Run one contiguous image shard inside a worker process.

    Reads ``images[start:stop]`` from the shared input buffer, executes
    the replica, and writes the scores into the shared output buffer
    (rows ``start:stop``; for partial evaluation the checkpoint axis
    leads, so the shard fills ``out[:, start:stop]``).
    """
    shm_in = shared_memory.SharedMemory(name=images_name)
    shm_out = shared_memory.SharedMemory(name=out_name)
    try:
        images = np.ndarray(images_shape, dtype=np.float64, buffer=shm_in.buf)
        out = np.ndarray(out_shape, dtype=np.float64, buffer=shm_out.buf)
        shard = images[start:stop]
        if checkpoints is None:
            out[start:stop] = _WORKER_BACKEND.forward(shard)
        else:
            out[:, start:stop] = _WORKER_BACKEND.forward_partial(
                shard, checkpoints
            )
        return stop - start
    finally:
        shm_in.close()
        shm_out.close()


def _shutdown_executor(executor: ProcessPoolExecutor) -> None:
    """Finalizer target: tear the pool down without waiting on GC order."""
    executor.shutdown(wait=False, cancel_futures=True)


def _reap_executor(executor: ProcessPoolExecutor, patience: float = 5.0) -> None:
    """Shut a discarded pool down and see its manager thread all the way out.

    The executor manager thread is non-daemon; if it is still alive when
    the interpreter exits, ``threading._shutdown`` joins it forever.  For a
    healthy pool ``shutdown`` winds it down promptly, but a *broken* pool
    (workers killed mid-call) can wedge it inside its internal cleanup:
    joining a worker process that ignored ``SIGTERM``, or joining the
    call-queue feeder thread stuck writing to a pipe no process reads any
    more.  After ``patience`` seconds both obstructions are removed by
    force -- leftover workers are killed and the feeder's pipe writer is
    closed -- and the join is retried, so a stuck manager thread always
    finishes instead of hanging process exit.
    """
    manager = getattr(executor, "_executor_manager_thread", None)
    executor.shutdown(wait=False, cancel_futures=True)
    if manager is None:
        return
    manager.join(patience)
    if not manager.is_alive():
        return
    for process in list(getattr(manager, "processes", {}).values()):
        try:
            process.kill()
        except Exception:  # pragma: no cover - process already gone
            pass
    call_queue = getattr(manager, "call_queue", None)
    writer = getattr(call_queue, "_writer", None)
    if writer is not None:
        try:
            writer.close()
        except Exception:  # pragma: no cover - already closed
            pass
    manager.join(patience)


def _worker_pid() -> int:
    """Trivial pool task: ensure at least one worker process is spawned."""
    return os.getpid()


def _shard_executor(inner: Backend) -> str:
    """The shard executor for ``inner``'s kernel tier.

    ``"thread"`` exactly when ``inner`` runs the compiled kernels, whose
    hot loops release the GIL; ``"process"`` otherwise, because threads
    over the NumPy tier stay serialised on the GIL.  This is the one
    place the choice is made.
    """
    return "thread" if getattr(inner, "native_active", False) else "process"


@register_backend
class ParallelBackend(Backend):
    """Sharded wrapper around a batch-invariant inner backend.

    Args:
        mapper: the SC network mapper every worker replica executes.
        workers: worker process count; ``None`` uses ``os.cpu_count()``.
        inner_backend: registry name of the inner backend each worker
            runs (default ``"bit-exact-packed"``).  Named to avoid
            colliding with the ``backend=`` keyword of registry-forwarding
            call sites (e.g. ``ScInferenceEngine.evaluate``).  It must
            advertise
            ``batch_invariant`` -- sharding a batch across replicas is
            only score-preserving when per-image scores do not depend on
            batch composition.
        min_shard_images: smallest shard worth dispatching to a process
            (batches smaller than ``2 * min_shard_images`` run on the
            in-process replica, skipping IPC entirely).
        start_method: optional :mod:`multiprocessing` start method
            (default: ``"fork"`` where available, the platform default
            otherwise).
        artifact_path: optional :class:`~repro.api.artifact.ScModel`
            artifact directory the worker replicas rehydrate their
            mappers from (instead of each unpickling a mapper shipped in
            the pool-initializer payload).  The artifact's stream
            configuration must match ``mapper``; sessions opened with
            :meth:`repro.api.Session.from_artifact` wire this up
            automatically.
        breaker_cooldown_s: base circuit-breaker cooldown after a
            ``BrokenProcessPool``; while the breaker is open every call
            is served by the in-process inner replica (bit-identical),
            and the cooldown doubles with each consecutive break.
        **backend_options: forwarded to every inner-replica constructor
            (e.g. ``position_chunk``).

    Shards run on a process pool with shared-memory buffers, or -- when
    the inner replica runs the compiled kernel tier -- on a thread pool
    over a lazily grown pool of in-process inner replicas (no pickling,
    no IPC).  :attr:`executor_mode` reports which.  Thread mode has no
    circuit breaker: there is no pool to break, and worker exceptions
    propagate directly.

    The worker pool is created lazily on the first sharded call and
    reused across calls; :meth:`close` (also invoked by the serving
    layer on shutdown, and as a GC finalizer) tears it down.  ``close``
    is idempotent, and any ``forward`` / ``forward_partial`` after it
    raises :class:`~repro.errors.ConfigurationError` (the
    :meth:`Backend.close` contract).
    """

    name = "bit-exact-packed-mp"
    description = (
        "bit-exact packed data plane sharded across a process pool "
        "(shared-memory image/score buffers)"
    )
    bit_exact = True
    stochastic = True
    packed_data_plane = True
    progressive = True
    batch_invariant = True

    def __init__(
        self,
        mapper: ScNetworkMapper,
        workers: int | None = None,
        inner_backend: str = "bit-exact-packed",
        min_shard_images: int = 1,
        start_method: str | None = None,
        artifact_path: str | None = None,
        breaker_cooldown_s: float = 5.0,
        **backend_options: object,
    ) -> None:
        super().__init__(mapper)
        if breaker_cooldown_s < 0:
            raise ConfigurationError(
                f"breaker_cooldown_s must be >= 0, got {breaker_cooldown_s}"
            )
        inner_cls = backend_class(inner_backend)
        if not getattr(inner_cls, "batch_invariant", False):
            raise ConfigurationError(
                f"backend {inner_backend!r} is not batch-invariant: sharding "
                "its batches across processes would change per-image scores"
            )
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if min_shard_images < 1:
            raise ConfigurationError(
                f"min_shard_images must be >= 1, got {min_shard_images}"
            )
        # Capabilities follow the inner backend: the wrapper only changes
        # *where* the batch runs, not what the scores mean -- advertising
        # e.g. `progressive` for a non-progressive inner would send the
        # serving layer's early-exit gate into forward_partial calls the
        # replica cannot answer.  (Instance attributes shadow the class
        # flags, which describe the default inner.)
        self.bit_exact = bool(inner_cls.bit_exact)
        self.stochastic = bool(inner_cls.stochastic)
        self.packed_data_plane = bool(inner_cls.packed_data_plane)
        self.progressive = bool(inner_cls.progressive)
        self.workers = int(workers)
        self.inner_backend = inner_backend
        self.min_shard_images = int(min_shard_images)
        self.start_method = start_method
        self.artifact_path = str(artifact_path) if artifact_path else None
        if self.artifact_path is not None:
            self._validate_artifact(self.artifact_path)
        self.backend_options = dict(backend_options)
        #: In-process replica: serves small batches and the 1-worker case.
        self.inner = create_backend(inner_backend, mapper, **backend_options)
        self._executor_mode = _shard_executor(self.inner)
        self._executor: ProcessPoolExecutor | None = None
        self._finalizer = None
        self._closed = False
        # Thread-executor state: a lazily grown pool of in-process inner
        # replicas leased through a queue (each replica owns its own
        # workspace arena, which is not thread-safe, so a replica is
        # never shared by two concurrent shards).
        self._thread_pool: ThreadPoolExecutor | None = None
        self._thread_replicas: list[Backend] = []
        self._replica_queue: queue.SimpleQueue = queue.SimpleQueue()
        self._replica_lock = threading.Lock()
        # Circuit-breaker state: consecutive pool breaks and the
        # monotonic instant until which the breaker stays open (calls
        # short-circuit to the in-process inner replica).
        self.breaker_cooldown_s = float(breaker_cooldown_s)
        self._breaker_lock = threading.Lock()
        self._pool_breaks = 0
        self._breaker_open_until = 0.0
        # Reaper threads escorting discarded (broken) pools out; joined
        # in close() so no executor manager thread outlives the backend.
        self._reapers: list[threading.Thread] = []
        n_classes = None
        for layer in mapper.network.layers:
            if isinstance(layer, Dense):
                n_classes = layer.out_features
        if n_classes is None:
            raise ConfigurationError(
                "the mapped network has no Dense output layer"
            )
        self._n_classes = int(n_classes)

    @property
    def executor_mode(self) -> str:
        """``"thread"`` or ``"process"``: the executor the kernel tier chose."""
        return self._executor_mode

    # -- pool / shard plumbing -------------------------------------------------

    def _validate_artifact(self, artifact_path: str) -> None:
        """Cross-check the artifact's stream configuration at construction.

        Worker replicas built from an artifact whose quantisation / stream
        configuration differs from this backend's mapper would silently
        produce different scores than the in-process replica; the cheap
        manifest read catches the mismatch before any pool exists.
        """
        from repro.api.artifact import ScModel

        manifest = ScModel.read_manifest(artifact_path)
        for field, mine in (
            ("stream_length", self.mapper.stream_length),
            ("weight_bits", self.mapper.weight_bits),
            ("seed", self.mapper.seed),
        ):
            theirs = manifest.get(field)
            if theirs != mine:
                raise ConfigurationError(
                    f"artifact at {artifact_path} has {field}={theirs}, but "
                    f"the backend's mapper uses {field}={mine}; worker "
                    "replicas rehydrated from it would not be bit-identical"
                )

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            method = self.start_method
            if method is None:
                available = multiprocessing.get_all_start_methods()
                # fork is the cheapest start-up, but forking a process
                # whose *other* threads may hold locks mid-acquire (the
                # serving layer's scheduler/worker threads) can deadlock
                # the child; prefer forkserver there, fork only from a
                # single-threaded coordinator.
                if "fork" in available and threading.active_count() == 1:
                    method = "fork"
                elif "forkserver" in available:
                    method = "forkserver"
            context = (
                multiprocessing.get_context(method)
                if method
                else multiprocessing.get_context()
            )
            payload = pickle.dumps(
                (
                    self.artifact_path,
                    None if self.artifact_path else self.mapper,
                    self.inner_backend,
                    self.backend_options,
                )
            )
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=_init_worker,
                initargs=(payload,),
            )
            self._finalizer = weakref.finalize(
                self, _shutdown_executor, self._executor
            )
        return self._executor

    def _plan_shards(self, batch: int) -> list[tuple[int, int]]:
        """Contiguous, near-equal shards: ``[(start, stop), ...]``."""
        n_shards = min(self.workers, max(1, batch // self.min_shard_images))
        if batch < 2 * self.min_shard_images:
            n_shards = 1
        bounds = np.linspace(0, batch, n_shards + 1).astype(int)
        return [
            (int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a
        ]

    def _run_sharded(
        self,
        images: np.ndarray,
        shards: list[tuple[int, int]],
        out_shape: tuple[int, ...],
        checkpoints: tuple[int, ...] | None,
    ) -> np.ndarray:
        executor = self._ensure_executor()
        out_bytes = int(np.prod(out_shape)) * np.dtype(np.float64).itemsize
        shm_in = shared_memory.SharedMemory(create=True, size=images.nbytes)
        shm_out = shared_memory.SharedMemory(create=True, size=out_bytes)
        try:
            np.ndarray(images.shape, dtype=np.float64, buffer=shm_in.buf)[
                ...
            ] = images
            futures = [
                executor.submit(
                    _run_shard,
                    shm_in.name,
                    images.shape,
                    shm_out.name,
                    out_shape,
                    start,
                    stop,
                    checkpoints,
                )
                for start, stop in shards
            ]
            for future in futures:
                future.result()
            return np.array(
                np.ndarray(out_shape, dtype=np.float64, buffer=shm_out.buf),
                copy=True,
            )
        finally:
            shm_in.close()
            shm_in.unlink()
            shm_out.close()
            shm_out.unlink()

    # -- thread executor -------------------------------------------------------

    def _ensure_thread_pool(self) -> ThreadPoolExecutor:
        with self._replica_lock:
            if self._thread_pool is None:
                self._thread_pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-shard",
                )
            return self._thread_pool

    def _lease_replica(self) -> Backend:
        """Borrow an inner replica for one shard, growing the pool lazily.

        Replicas are built on demand up to ``workers`` and then reused;
        once the pool is full, leases block until a running shard returns
        one.  Concurrent ``forward`` calls therefore share a bounded
        replica pool instead of each allocating ``workers`` arenas.
        """
        try:
            return self._replica_queue.get_nowait()
        except queue.Empty:
            pass
        with self._replica_lock:
            if len(self._thread_replicas) < self.workers:
                replica = create_backend(
                    self.inner_backend, self.mapper, **self.backend_options
                )
                self._thread_replicas.append(replica)
                return replica
        return self._replica_queue.get()

    def _run_threaded(
        self,
        images: np.ndarray,
        shards: list[tuple[int, int]],
        out_shape: tuple[int, ...],
        checkpoints: tuple[int, ...] | None,
    ) -> np.ndarray:
        """Run the shards on the thread pool, each on a leased replica.

        Every shard writes a disjoint slice of one preallocated output
        array, so no assembly pass (or copy out of shared memory) is
        needed; worker exceptions propagate through ``future.result()``.
        """
        pool = self._ensure_thread_pool()
        out = np.empty(out_shape, dtype=np.float64)

        def run(start: int, stop: int) -> None:
            replica = self._lease_replica()
            try:
                shard = images[start:stop]
                if checkpoints is None:
                    out[start:stop] = replica.forward(shard)
                else:
                    out[:, start:stop] = replica.forward_partial(
                        shard, checkpoints
                    )
            finally:
                self._replica_queue.put(replica)

        futures = [pool.submit(run, start, stop) for start, stop in shards]
        for future in futures:
            future.result()
        return out

    # -- circuit breaker -------------------------------------------------------

    @property
    def pool_breaks(self) -> int:
        """Number of ``BrokenProcessPool`` failures absorbed so far."""
        return self._pool_breaks

    @property
    def breaker_open(self) -> bool:
        """True while calls short-circuit to the in-process replica."""
        with self._breaker_lock:
            return time.monotonic() < self._breaker_open_until

    def _trip_breaker(self) -> None:
        """Absorb one pool break: discard the pool, open the breaker.

        The cooldown doubles with every consecutive break (capped at
        ``64 x`` the base) so a persistently failing environment settles
        into the in-process fallback instead of thrashing pool rebuilds.
        """
        with self._breaker_lock:
            self._pool_breaks += 1
            cooldown = self.breaker_cooldown_s * min(
                64, 2 ** (self._pool_breaks - 1)
            )
            self._breaker_open_until = time.monotonic() + cooldown
            self._teardown_executor(wait=False)
        _LOG.warning(
            "worker pool broken (break #%d); circuit breaker open for "
            "%.1fs, serving from the in-process replica",
            self._pool_breaks,
            cooldown,
            extra={
                "obs_event": {
                    "kind": "breaker_trip",
                    "backend": self.name,
                    "pool_breaks": self._pool_breaks,
                    "cooldown_s": cooldown,
                }
            },
        )

    def _teardown_executor(self, wait: bool) -> None:
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        executor, self._executor = self._executor, None
        if executor is None:
            return
        if wait:
            _reap_executor(executor)
            return
        # Called from a serving thread mid-request (breaker trip): don't
        # block on the broken pool's wind-down, but don't abandon it
        # either -- an executor manager thread left stuck (killed workers
        # that never reap, a queue feeder wedged on a dead pipe) is
        # non-daemon and would hang interpreter shutdown at the
        # concurrent.futures atexit join.  A daemon reaper escorts it out
        # and close() joins the reaper.
        reaper = threading.Thread(
            target=_reap_executor,
            args=(executor,),
            name="repro-pool-reaper",
            daemon=True,
        )
        reaper.start()
        self._reapers.append(reaper)

    def break_pool(self) -> bool:
        """Kill the live worker processes (fault injection / chaos tests).

        Sabotages the pool for real -- the next sharded call observes a
        genuine ``BrokenProcessPool`` and the circuit breaker engages.
        Spawns a worker first if the lazy pool has none yet; returns
        False when the backend is closed (nothing to break) or running
        in thread mode (threads of this process cannot be killed without
        taking the caller down with them).
        """
        if self._closed or self.executor_mode == "thread":
            return False
        executor = self._ensure_executor()
        try:
            # Touch the pool so at least one worker process exists to kill.
            executor.submit(_worker_pid).result()
        except BrokenProcessPool:
            # Already broken (e.g. workers failed to spawn): the sabotage
            # this method exists to inflict has happened on its own.
            return True
        processes = list(getattr(executor, "_processes", {}).values())
        for process in processes:
            process.kill()
        return bool(processes)

    def _ensure_usable(self) -> None:
        if self._closed:
            raise ConfigurationError(
                f"backend {self.name!r} is closed; build a new instance "
                "instead of reusing a closed one"
            )

    # -- Backend interface -----------------------------------------------------

    def forward(self, images: np.ndarray) -> np.ndarray:
        """Class scores, bit-identical to the inner backend's.

        Args:
            images: ``(batch, channels, height, width)`` images in
                ``[0, 1]``.

        Returns:
            ``(batch, n_classes)`` class scores.
        """
        self._ensure_usable()
        images = self._check_images(images)
        shards = self._plan_shards(images.shape[0])
        if len(shards) <= 1:
            return self.inner.forward(images)
        out_shape = (images.shape[0], self._n_classes)
        if self.executor_mode == "thread":
            return self._run_threaded(images, shards, out_shape, None)
        if self.breaker_open:
            return self.inner.forward(images)
        try:
            return self._run_sharded(images, shards, out_shape, None)
        except BrokenProcessPool:
            self._trip_breaker()
            return self.inner.forward(images)

    def forward_partial(self, images: np.ndarray, checkpoints) -> np.ndarray:
        """Checkpoint scores, bit-identical to the inner backend's.

        Each worker computes its shard's full packed output streams once
        and reads every checkpoint as a prefix popcount, exactly like the
        inner backend; the checkpoint axis leads in the shared output
        buffer so shard writes stay disjoint.
        """
        self._ensure_usable()
        points = self._check_checkpoints(checkpoints)
        images = self._check_images(images)
        shards = self._plan_shards(images.shape[0])
        if len(shards) <= 1:
            return self.inner.forward_partial(images, points)
        out_shape = (len(points), images.shape[0], self._n_classes)
        if self.executor_mode == "thread":
            return self._run_threaded(images, shards, out_shape, points)
        if self.breaker_open:
            return self.inner.forward_partial(images, points)
        try:
            return self._run_sharded(images, shards, out_shape, points)
        except BrokenProcessPool:
            self._trip_breaker()
            return self.inner.forward_partial(images, points)

    def kernel_snapshot(self) -> dict:
        """Kernel counters aggregated across the in-process replicas.

        Covers the inner replica (small batches, breaker fallbacks) and
        every thread-mode shard replica.  Process-pool workers keep their
        counters in their own address space and are not reachable from
        here; their work is attributed by each worker's own process-wide
        counters instead.
        """
        with self._replica_lock:
            replicas = list(self._thread_replicas)
        return merge_kernel_snapshots(
            [self.inner.kernel_snapshot()]
            + [replica.kernel_snapshot() for replica in replicas]
        )

    def workspace_stats(self) -> dict | None:
        """Arena stats of the in-process inner replica (if it has one)."""
        return self.inner.workspace_stats()

    def close(self) -> None:
        """Shut the worker pool down (idempotent; use-after-close raises)."""
        self._closed = True
        self._teardown_executor(wait=True)
        reapers, self._reapers = self._reapers, []
        for reaper in reapers:
            reaper.join(timeout=15.0)
        pool, self._thread_pool = self._thread_pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        replicas, self._thread_replicas = self._thread_replicas, []
        for replica in replicas:
            replica.close()
        self.inner.close()

    def __enter__(self) -> "ParallelBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(inner={self.inner_backend!r}, "
            f"workers={self.workers}, executor={self.executor_mode!r}, "
            f"stream_length={self.stream_length})"
        )


@register_backend
class NativeParallelBackend(ParallelBackend):
    """Sharded wrapper over compiled-kernel inner replicas.

    ``bit-exact-native-mp`` is :class:`ParallelBackend` with a different
    default, not different machinery: the inner backend is
    ``bit-exact-native``.  While the compiled tier is active the shards
    run on a thread pool over per-replica workspace arenas -- the
    kernels release the GIL for the hot loops, so the threads genuinely
    overlap, with none of the pickling, shared-memory copies, or process
    start-up of the process pool.  When the compiled tier is unavailable
    the inner replicas run their NumPy kernels (still bit-identical) and
    the shards move to the process pool, where they still scale, so the
    backend constructs and answers correctly on every host.
    """

    name = "bit-exact-native-mp"
    description = (
        "compiled GIL-free kernels sharded across a thread pool "
        "(process pool when the compiled tier is unavailable)"
    )

    def __init__(
        self,
        mapper: ScNetworkMapper,
        workers: int | None = None,
        inner_backend: str = "bit-exact-native",
        **options: object,
    ) -> None:
        super().__init__(
            mapper, workers=workers, inner_backend=inner_backend, **options
        )

    @classmethod
    def availability_note(cls) -> str:
        """Registry availability note (shown by ``describe_backends()``)."""
        return native.describe()
