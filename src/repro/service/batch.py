"""Batched multi-image decoding: :class:`BatchDecoder`.

The paper keeps one image's Huffman decode sequential and fills the
hardware with the *pixel* stages; a decode service amortizes the other
way too — across images.  :class:`BatchDecoder` fans a batch of JPEG
requests out over a :class:`~repro.service.workers.WorkerPool`.  Every
image gets one :class:`~repro.jpeg.speculative.ChunkPlan`
(:func:`~repro.jpeg.speculative.plan_scan`):

- a one-chunk plan — the common case — runs the whole decode (the
  destuffing prescan + fused fast-path entropy decode and the numpy
  pixel stages) in one worker task;
- when the batch alone cannot fill the pool (or the request forces
  it), the scan is cut into at most one chunk per worker: at RSTn
  markers (*known* boundaries) when the image carries restart markers,
  at speculated byte offsets with a convergence window when it does
  not.  The chunks decode in parallel and
  :func:`~repro.jpeg.speculative.stitch_chunks` joins them; whenever a
  chunk errors or the stitch cannot establish coverage, the image's
  outcome is the sequential oracle decode — bit-identical pixels, or
  the oracle's own error.

Per image, requests choose the entropy engine (``fast``/``reference``),
the decode mode (``reference`` = the real sequential pixel path, or any
:class:`~repro.core.modes.DecodeMode` value to run a simulated
heterogeneous executor), and the platform.  Failures are isolated: a
corrupt JPEG fails its own :class:`ImageResult` and never the batch.
The pull-driven and futures-based front ends live in
:mod:`repro.service.session`.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field, replace
from time import perf_counter, sleep
from typing import Any, Sequence

import numpy as np

from ..errors import ServiceError
from ..jpeg.decoder import DecodeOptions, decode_jpeg, pixels_from_coefficients
from ..jpeg.markers import parse_jpeg
from ..jpeg.speculative import (
    DEFAULT_OVERLAP_BYTES,
    WHOLE_IMAGE,
    ChunkPlan,
    ChunkTrace,
    decode_chunk,
    make_repairer,
    plan_scan,
    stitch_chunks,
)
from .faults import FaultDirective, FaultPlan, apply_dispatch_fault
from .obs import (
    SpanRecord,
    TraceContext,
    child_span,
    drain_worker_spans,
    make_span,
    record_worker_span,
)
from .scheduler import BatchSchedule, ModelScheduler
from .stats import BatchStats, WorkSpan
from .transport import (
    SHM_MIN_BYTES,
    PlaneArena,
    PlaneRef,
    PlaneSlot,
    packed_nbytes,
    peek_dimensions,
    publish_planes,
    resolve_transport,
)
from .workers import WorkerPool, worker_name

#: The three load-shedding priority classes (higher = more important).
PRIORITY_LOW, PRIORITY_NORMAL, PRIORITY_HIGH = 0, 1, 2

#: Named spellings accepted by :func:`parse_priority` (and the HTTP
#: ``X-Priority`` header).
PRIORITIES = {"low": PRIORITY_LOW, "normal": PRIORITY_NORMAL,
              "high": PRIORITY_HIGH}


def parse_priority(value: "str | int") -> int:
    """Normalize a priority spelling — ``"low"``/``"normal"``/``"high"``
    or a non-negative integer (as int or digit string) — to its class
    number; raises :class:`~repro.errors.ServiceError` otherwise."""
    if isinstance(value, bool):
        raise ServiceError(f"invalid priority {value!r} "
                           f"(want low/normal/high or an integer >= 0)")
    if isinstance(value, int):
        priority = value
    else:
        text = str(value).strip().lower()
        if text in PRIORITIES:
            return PRIORITIES[text]
        try:
            priority = int(text)
        except ValueError:
            raise ServiceError(
                f"invalid priority {value!r} "
                f"(want low/normal/high or an integer >= 0)")
    if priority < 0:
        raise ServiceError(f"priority must be >= 0, got {priority}")
    return priority


@dataclass
class ImageRequest:
    """One image to decode, with its per-image knobs."""

    #: Raw JFIF bytes.
    data: bytes
    #: Caller-chosen identity, echoed on the result (assigned by the
    #: service when submitted as raw bytes).
    request_id: Any = None
    #: Huffman decode path: ``"fast"`` (fused tables) or ``"reference"``.
    entropy_engine: str = "fast"
    #: ``"reference"`` runs the real sequential pixel path;
    #: any :class:`~repro.core.modes.DecodeMode` value (``"simd"``,
    #: ``"gpu"``, ``"pipeline"``, ``"sps"``, ``"pps"``, ``"auto"``)
    #: runs the corresponding simulated heterogeneous executor.
    mode: str = "reference"
    #: Platform name for executor modes (ignored by ``"reference"``).
    platform: str = "GTX 560"
    #: IDCT method for the reference pixel path.
    idct_method: str = "aan"
    #: Fancy (triangular) chroma upsampling for the reference path.
    fancy_upsampling: bool = True
    #: Fan-out at restart markers (known chunk boundaries): ``True``
    #: forces it (where DRI permits), ``False`` forbids it, ``None``
    #: lets the batch decoder decide (fan out only when the batch alone
    #: cannot fill the worker pool).
    split_segments: bool | None = None
    #: Fan-out at speculated boundaries for marker-free scans: ``True``
    #: forces it (where eligibility permits — DRI=0, fast engine,
    #: reference mode), ``False`` forbids it, ``None`` defers to the
    #: batch decoder's ``speculative`` policy knob.
    speculative: bool | None = None
    #: Relative deadline in milliseconds from submission; ``None``
    #: means no deadline.  A request whose deadline passes before its
    #: decode starts is shed with
    #: :class:`~repro.errors.DeadlineExceededError` (HTTP 504) instead
    #: of being decoded (enforced by the session's batch forming).
    deadline_ms: float | None = None
    #: Best-effort decode of hostile bytes: instead of ``ok=False`` on a
    #: corrupt scan, return the pixels decoded before the failure with
    #: :attr:`ImageResult.error_regions` marking the damage.  Salvage
    #: requests decode whole-image on the reference path (no fan-out —
    #: the error map needs one decoder's view).
    salvage: bool = False
    #: Load-shedding priority class: 0 = low, 1 = normal (default),
    #: 2 = high.  Under overload the session sheds low classes first
    #: (each class only admits into a fraction of the queue; see
    #: :data:`repro.service.session.DEFAULT_SHED_FRACTIONS`) and batch
    #: forming orders higher classes first at equal deadlines.
    priority: int = PRIORITY_NORMAL
    #: Tracing context (PR 10): set by ``DecodeSession.submit`` when
    #: the request is sampled for tracing.  ``None`` (the default)
    #: keeps every observability hook dormant — the entire tracing
    #: layer hangs off this single attribute check.
    trace: TraceContext | None = None


@dataclass
class ImageResult:
    """Outcome of one image's decode inside a batch."""

    request_id: Any
    ok: bool
    rgb: np.ndarray | None = None
    width: int = 0
    height: int = 0
    #: Exception class name when ``ok`` is False (e.g. "JpegFormatError").
    error_type: str | None = None
    #: Human-readable failure message when ``ok`` is False.
    error: str | None = None
    #: Number of independently decoded chunks (1 = whole scan).
    segments: int = 1
    #: True when the image's coefficients came from *stitched*
    #: speculated chunks (False for known restart boundaries and for
    #: the sequential fallback — the result is bit-identical either
    #: way, this records which path produced it).
    speculative: bool = False
    #: Chunk boundaries that failed to converge (or chunks lost) and
    #: were healed by sequential gap repair or the fallback (0 on a
    #: clean stitch).
    misspeculated: int = 0
    #: Simulated executor time in microseconds (executor modes only).
    simulated_us: float | None = None
    #: Submit-to-completion latency, seconds (filled by the batch loop).
    latency_s: float = 0.0
    #: Worker busy spans that produced this image (utilization input).
    spans: list[WorkSpan] = field(default_factory=list)
    #: Shared-memory descriptor of the decoded pixels while they are in
    #: transit (worker → parent); the gather loop materializes
    #: :attr:`rgb` from it and clears it before the result escapes.
    plane: PlaneRef | None = None
    #: In transit only, for one chunk of a fanned-out image: the chunk's
    #: trace, its planes as arrays or shared-memory descriptors.
    chunk: ChunkTrace | None = None
    #: Real worker busy time in microseconds (sum of spans) — the
    #: wall-clock observation lane-bound scheduling feeds back into the
    #: scheduler, as opposed to the model-world :attr:`simulated_us`.
    wall_us: float | None = None
    #: Decode attempts this image consumed (> 1 after a worker-crash
    #: retry; decode is pure, so a retried success is bit-identical).
    attempts: int = 1
    #: True when ``ok=False`` came from infrastructure (a dead worker
    #: after the retry budget) rather than the image's own bytes — the
    #: failure class lane circuit breakers count, since a corrupt JPEG
    #: fails on *any* lane but a crashing lane fails every image.
    infra_failure: bool = False
    #: True when the image was redispatched onto a *different* pool
    #: than its scheduled lane (a remote host failed and a sibling
    #: absorbed the work).  Such results are excluded from the original
    #: lane's feedback and breaker credit — the lane that was priced is
    #: not the lane that decoded.
    failed_over: bool = False
    #: True when salvage mode recovered this image from corrupt bytes
    #: (``ok`` stays True; the pixels are best-effort).
    salvaged: bool = False
    #: Salvage damage map: boolean ``(mcu_rows, mcus_per_row)`` grid,
    #: True where decoding failed.  None for clean decodes and
    #: non-salvage requests.
    error_regions: np.ndarray | None = None
    #: Canonical decode errors salvage mode recovered from (one per
    #: failed scan), empty otherwise.
    salvage_errors: list[str] = field(default_factory=list)
    #: Trace spans for this image (PR 10): worker-side stage spans
    #: shipped back piggybacked on the result, plus parent-side
    #: schedule/attempt spans.  Empty when the request was not traced.
    trace_spans: list[SpanRecord] = field(default_factory=list)


@dataclass
class BatchResult:
    """All results of one batch (request order) plus reduced stats."""

    results: list[ImageResult]
    stats: BatchStats
    #: The cross-image schedule this batch ran under (None when the
    #: decoder has no scheduler attached).
    schedule: BatchSchedule | None = None
    #: Lane→pool binding map when the batch ran on lane-bound executor
    #: pools (:meth:`~repro.service.executors.ExecutorRegistry.describe`).
    lane_pools: dict | None = None
    #: Result transport the batch used (``"shm"`` or ``"pickle"``).
    transport: str = "pickle"
    #: Tasks re-dispatched after an infrastructure failure (dead
    #: worker) inside this batch.
    retries: int = 0
    #: Per-lane count of *remote dispatch* infrastructure failures this
    #: batch (connection refused/lost/timeout on a remote lane pool),
    #: counted even when a failover redispatch saved every image — the
    #: scheduler charges these to the lane breakers so a dying host
    #: trips its breaker while siblings absorb its work.
    lane_failures: dict = field(default_factory=dict)

    def __iter__(self):
        """Iterate results in request order."""
        return iter(self.results)

    def __len__(self) -> int:
        """Number of images in the batch."""
        return len(self.results)

    @property
    def ok(self) -> bool:
        """True when every image in the batch decoded successfully."""
        return all(r.ok for r in self.results)


# ---------------------------------------------------------------------------
# The worker-side task function (module-level: the process backend
# pickles it by reference).
# ---------------------------------------------------------------------------

#: Decoder stage name → Timeline glyph kind for worker stage spans.
_STAGE_KINDS = {"parse": "dispatch", "entropy": "huffman",
                "idct": "kernel", "upsample": "cpu-parallel",
                "color": "cpu-parallel", "shm_publish": "write"}


def _stage_recorder(ctx: TraceContext, resource: str):
    """A :attr:`DecodeOptions.stage_hook` that records each decode
    stage into this worker process's lock-free span ring (drained and
    shipped back on the result by the task function)."""
    def hook(stage: str, t0: float, t1: float) -> None:
        """Record one completed decoder stage as a child span."""
        record_worker_span(child_span(
            ctx, stage, resource, _STAGE_KINDS.get(stage, "dispatch"),
            t0, t1))
    return hook


def _decode_whole(request: ImageRequest, result: ImageResult,
                  ctx: TraceContext | None, resource: str) -> np.ndarray:
    """Decode *request* whole on its pixel path; return the pixels and
    fill the executor/salvage fields of *result*."""
    if request.mode == "reference":
        options = DecodeOptions(
            idct_method=request.idct_method,
            fancy_upsampling=request.fancy_upsampling,
            entropy_engine=request.entropy_engine,
            salvage=request.salvage,
        )
        if ctx is not None:
            options.stage_hook = _stage_recorder(ctx, resource)
        decoded = decode_jpeg(request.data, options)
        if request.salvage:
            result.salvaged = decoded.salvaged
            result.error_regions = decoded.error_map
            result.salvage_errors = list(decoded.errors)
        return decoded.rgb
    from ..core import HeterogeneousDecoder
    from ..evaluation import platforms

    plat = {p.name: p for p in platforms.ALL_PLATFORMS}.get(request.platform)
    if plat is None:
        raise ServiceError(f"unknown platform {request.platform!r}")
    decoder = HeterogeneousDecoder.for_platform(
        plat, entropy_engine=request.entropy_engine,
        fancy_upsampling=request.fancy_upsampling)
    t_dec = perf_counter()
    decoded = decoder.decode(request.data, request.mode)
    result.simulated_us = decoded.total_us
    if ctx is not None:
        # Simulated-executor decodes have no per-stage hooks; one span
        # covers the whole decode, tagged with the lane's mode so the
        # Gantt still names the work.
        record_worker_span(child_span(
            ctx, "decode", resource, "kernel", t_dec, perf_counter(),
            mode=str(request.mode), platform=str(request.platform)))
    return decoded.rgb


def decode_image_task(request: ImageRequest,
                      slot: PlaneSlot | None = None,
                      fault: FaultDirective | None = None,
                      chunk: tuple | None = None) -> ImageResult:
    """Decode one unit of an image inside a worker — the whole image,
    or with *chunk* (the :meth:`~repro.jpeg.speculative.ChunkPlan.task`
    arguments) one chunk of its scan; never raises (except by injected
    crash faults, which model a worker that never returns).

    *Any* failure — malformed bytes, truncated scan, unsupported
    feature, unknown mode, but also the unexpected (``MemoryError``,
    numpy shape errors) — is captured on the returned
    :class:`ImageResult` so one bad image cannot poison its batch.

    A whole image comes back as ``rgb``; a chunk as a transit-only
    :attr:`ImageResult.chunk` trace holding its coefficient planes.
    With a transport *slot*, the planes are written into the leased
    shared-memory segment and only
    :class:`~repro.service.transport.PlaneRef` descriptors ride the
    pickle pipe.  If publishing fails for any reason the planes fall
    back to the pickle path rather than failing the decode.

    *fault* is an injected :class:`~repro.service.faults.FaultDirective`
    (chaos testing only): ``kill``/``delay`` apply at entry,
    ``exception`` raises inside the decode, ``shm_fail`` fails the
    publish (exercising the pickle fallback).
    """
    apply_dispatch_fault(fault)
    t0 = perf_counter()
    ctx = request.trace
    resource = worker_name()
    result = ImageResult(request_id=request.request_id, ok=True)
    planes = None
    try:
        if fault is not None and fault.kind == "exception":
            raise RuntimeError(fault.message)
        if chunk is not None:
            result.chunk = decode_chunk(*chunk)
            planes = result.chunk.planes
        else:
            result.rgb = _decode_whole(request, result, ctx, resource)
            result.height, result.width = result.rgb.shape[:2]
            planes = [result.rgb]
    except Exception as exc:  # ANY failure stays on this result
        result.ok = False
        result.error_type, result.error = type(exc).__name__, str(exc)
    if planes is not None and slot is not None:
        try:
            if fault is not None and fault.kind == "shm_fail":
                raise ServiceError(fault.message)
            t_pub = perf_counter()
            refs = publish_planes(slot, planes)
            if ctx is not None:
                record_worker_span(child_span(
                    ctx, "shm_publish", resource, "write", t_pub,
                    perf_counter(), nbytes=sum(r.nbytes for r in refs)))
            if result.chunk is not None:
                result.chunk.planes = refs
            else:
                result.rgb, result.plane = None, refs[0]
        except Exception:
            pass  # slot too small / segment gone: pickle instead
    result.spans = [WorkSpan(resource, t0, perf_counter())]
    if ctx is not None:
        result.trace_spans = drain_worker_spans(ctx.trace_id)
    return result


# ---------------------------------------------------------------------------
# Batch orchestration.
# ---------------------------------------------------------------------------

@dataclass
class _FanoutJob:
    """Book-keeping for one image: its plan and what its units left."""

    #: Batch index of the image.
    index: int
    request: ImageRequest
    plan: ChunkPlan
    #: Per unit: the whole-image result, or a chunk's trace; None for a
    #: unit that failed or died on infrastructure.
    outputs: list
    pending: int
    spans: list[WorkSpan] = field(default_factory=list)
    trace_spans: list[SpanRecord] = field(default_factory=list)
    #: Transport slots whose planes are still referenced (released only
    #: after the stitch copies them out).
    slots: list[PlaneSlot] = field(default_factory=list)
    #: Crash message when a unit died on infrastructure past the retry
    #: budget (the image fails on it only if every unit died).
    crash: str | None = None
    #: Max dispatch attempts any of this image's units consumed.
    attempts: int = 1
    failed_over: bool = False


@dataclass
class _InFlight:
    """Book-keeping for one dispatched unit: everything the gather loop
    needs to requeue it after its worker dies (a fresh slot is leased on
    redispatch — the old one is quarantined, the dead worker may still
    hold a view into it)."""

    job: _FanoutJob
    #: Unit (chunk) index inside the image's plan.
    unit: int
    #: Pool the task ran on (redispatch targets the same, healed, pool).
    pool: WorkerPool
    #: Dispatch attempts so far (1 = first try).
    attempts: int
    #: Shared-memory slot leased to this dispatch, if any.
    slot: PlaneSlot | None
    #: Scheduler lane the task was placed on (fault-plan targeting).
    lane: str | None
    #: True when this dispatch already runs on a failover pool instead
    #: of its scheduled lane's pool (propagated onto the result).
    failed_over: bool = False
    #: Attempt trace context (``request.trace.child()``) when the image
    #: is traced — each dispatch attempt records under its own span so
    #: redispatches appear as sibling attempt spans.
    ctx: TraceContext | None = None
    #: ``perf_counter`` at dispatch: the attempt span's start.
    dispatched_at: float = 0.0


class BatchDecoder:
    """Decode batches of JPEG requests across a worker pool."""

    def __init__(self, workers: int | None = None,
                 backend: str | None = None,
                 defaults: ImageRequest | None = None,
                 scheduler: ModelScheduler | str | None = None,
                 transport: str = "auto",
                 lane_pools: "object | str | bool | None" = None,
                 shm_min_bytes: int = SHM_MIN_BYTES,
                 retry_budget: int = 2,
                 retry_backoff_s: float = 0.01,
                 faults: FaultPlan | None = None,
                 speculative: str = "auto",
                 speculative_chunks: int | None = None,
                 speculative_overlap: int = DEFAULT_OVERLAP_BYTES) -> None:
        """Create the pool (see :class:`~repro.service.workers.WorkerPool`
        for backend semantics).  *defaults* seeds the per-image knobs
        applied when a request is submitted as raw bytes.

        *scheduler* enables cross-image batch scheduling: a
        :class:`~repro.service.scheduler.ModelScheduler`, or a policy
        name (``"model"``/``"roundrobin"``) to build one with the
        default lane set.  A scheduled batch overrides each request's
        ``mode``/``platform``/``split_segments`` with its lane placement.

        *transport* picks how process-pool workers return decoded
        planes: ``"shm"`` (shared-memory segments + descriptors),
        ``"pickle"`` (the classic result pipe), or ``"auto"`` (shm
        wherever a process pool and working POSIX shared memory exist,
        pickle everywhere else — serial/thread backends always resolve
        to pickle since nothing crosses a process boundary).
        *shm_min_bytes* keeps payloads below that size on the pickle
        path (segment churn costs more than pickling a few KB; tests
        pass 0 to force shm for every task).

        *lane_pools* binds scheduler lanes to dedicated pools: pass an
        :class:`~repro.service.executors.ExecutorRegistry`, a layout
        spec string (``"gpu=1,simd=3"`` / ``"auto"``), or ``True`` for
        the default layout.  Requires a scheduler; placed images then
        dispatch to their lane's own pool and the scheduler's feedback
        sees real per-lane wall-clock times.

        *retry_budget* bounds how many times one task is re-dispatched
        after an *infrastructure* failure (its worker died and the pool
        was rebuilt) — decode is pure, so a retried decode is
        bit-identical.  Decode errors (``ok=False`` results) are never
        retried: they are deterministic properties of the bytes.
        *retry_backoff_s* is the base of the exponential back-off slept
        before each re-dispatch.  *faults* attaches a
        :class:`~repro.service.faults.FaultPlan` for chaos testing.

        *speculative* governs fan-out at speculated boundaries for
        marker-free scans (:mod:`repro.jpeg.speculative`): ``"auto"``
        (default) cuts a DRI=0 scan under the same underfilled-pool
        condition as restart-marker fan-out, ``"on"`` makes every
        eligible image a candidate regardless of batch size, and
        ``"off"`` disables it (a per-request
        :attr:`ImageRequest.speculative` overrides the policy either
        way).  *speculative_chunks* fixes the chunk count of every
        fan-out plan (default: the dispatching pool's worker count);
        *speculative_overlap* is the convergence-window size in payload
        bytes.
        """
        from .executors import ExecutorRegistry
        from .transport import TRANSPORTS

        if speculative not in ("auto", "on", "off"):
            raise ServiceError(
                f"speculative must be 'auto', 'on' or 'off', "
                f"got {speculative!r}")
        if speculative_chunks is not None and speculative_chunks < 1:
            raise ServiceError(
                f"speculative_chunks must be >= 1, got {speculative_chunks}")
        self.speculative = speculative
        self.speculative_chunks = speculative_chunks
        self.speculative_overlap = speculative_overlap

        # Validate everything cheap *before* any pool exists, so a
        # bad configuration never leaks live worker processes.
        if transport not in TRANSPORTS:
            raise ServiceError(
                f"unknown transport {transport!r} "
                f"(choose from {list(TRANSPORTS)})")
        if retry_budget < 0:
            raise ServiceError(
                f"retry_budget must be >= 0, got {retry_budget}")
        if retry_backoff_s < 0:
            raise ServiceError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
        self.retry_budget = retry_budget
        self.retry_backoff_s = retry_backoff_s
        self.faults = faults
        #: Cumulative infrastructure-failure re-dispatches, all batches.
        self.retries_total = 0
        if isinstance(scheduler, str):
            scheduler = ModelScheduler(policy=scheduler)
        self.scheduler = scheduler
        if lane_pools not in (None, False, "none") and scheduler is None:
            raise ServiceError(
                "lane_pools requires a scheduler (lane placements "
                "come from ModelScheduler.plan)")
        self.defaults = defaults or ImageRequest(data=b"")
        self.pool = WorkerPool(workers=workers, backend=backend)
        if lane_pools in (None, False, "none"):
            self.registry = None
            self._owns_registry = False
        elif isinstance(lane_pools, ExecutorRegistry):
            # Caller-built registry: adopted for dispatch, but its
            # lifecycle stays with the caller (close() leaves it open,
            # mirroring DecodeHTTPServer's session ownership rule).
            self.registry = lane_pools
            self._owns_registry = False
        else:
            layout = None if lane_pools is True else lane_pools
            try:
                self.registry = ExecutorRegistry(
                    self.scheduler.executors, layout=layout, backend=backend)
            except BaseException:
                self.pool.close()
                raise
            self._owns_registry = True
        backends = {self.pool.backend}
        if self.registry is not None:
            backends |= self.registry.backends
        self.transport = resolve_transport(transport, backends)
        self.arena = PlaneArena() if self.transport == "shm" else None
        self.shm_min_bytes = shm_min_bytes

    # -- request normalization and planning ----------------------------

    def _normalize(self, items: Sequence[bytes | ImageRequest]
                   ) -> list[ImageRequest]:
        """Coerce raw bytes to requests and fill in missing ids."""
        requests = []
        for i, item in enumerate(items):
            if isinstance(item, ImageRequest):
                req = item
            else:
                req = replace(self.defaults, data=bytes(item))
            if req.request_id is None:
                req = replace(req, request_id=i)
            requests.append(req)
        return requests

    def _plan(self, req: ImageRequest, pool: WorkerPool,
              n_requests: int) -> ChunkPlan:
        """The image's chunk plan.

        Parse-free preconditions come first, so the common throughput
        case (a batch large enough to fill the pool) pays zero
        serialized parent-side work per image — the worker owns the
        parse.  Only the reference pixel path fans out (executor modes
        consume the scan in order, salvage needs one decoder's view),
        never onto a remote lane (its host decides any fan-out), and
        speculated boundaries need the fast engine's exact bit
        positions.  The per-request knobs override; otherwise restart
        markers are used, and speculation follows the ``speculative``
        policy, only when whole-image tasks cannot fill the pool.
        """
        if req.mode != "reference" or req.salvage or pool.backend == "remote":
            return WHOLE_IMAGE
        underfilled = pool.backend != "serial" and n_requests < pool.workers
        known = underfilled if req.split_segments is None \
            else req.split_segments
        if req.speculative is not None:
            speculate = req.speculative
        elif self.speculative == "on":
            speculate = pool.backend != "serial"
        else:
            speculate = self.speculative == "auto" and underfilled
        speculate = speculate and req.entropy_engine == "fast"
        if not (known or speculate):
            return WHOLE_IMAGE
        try:
            return plan_scan(parse_jpeg(req.data),
                             self.speculative_chunks or pool.workers,
                             self.speculative_overlap, known=known,
                             speculate=speculate)
        except Exception:
            return WHOLE_IMAGE  # the worker reports the precise error

    # -- transport helpers ---------------------------------------------

    def _lease_slot(self, nbytes: int,
                    pool: WorkerPool) -> PlaneSlot | None:
        """Lease a shm slot of *nbytes*, if the transport applies to
        *pool* (process backend + shm resolved) and the payload clears
        ``shm_min_bytes``."""
        if self.arena is None or pool.backend != "process" \
                or nbytes <= 0 or nbytes < self.shm_min_bytes:
            return None
        try:
            return self.arena.lease(nbytes)
        except ServiceError:
            return None

    def _release_slot(self, slot: PlaneSlot | None,
                      outstanding: dict[str, PlaneSlot]) -> None:
        """Return one slot to the arena ring and the tracking map."""
        if slot is None or self.arena is None:
            return
        outstanding.pop(slot.name, None)
        self.arena.release(slot)

    def _quarantine_slot(self, slot: PlaneSlot | None,
                         outstanding: dict[str, PlaneSlot]) -> None:
        """Unlink a failed dispatch's slot without recycling it: the
        dead (or killed) worker may have been mid-memcpy into the
        segment, so the name must never be reused."""
        if slot is None or self.arena is None:
            return
        outstanding.pop(slot.name, None)
        self.arena.discard(slot)

    def _next_fault(self, lane: str | None) -> FaultDirective | None:
        """Consult the attached fault plan for this dispatch (None when
        no plan is attached or the plan stays quiet)."""
        if self.faults is None:
            return None
        return self.faults.next_directive(lane)

    @property
    def rebuilds(self) -> int:
        """Worker-pool rebuilds across the default pool and every
        lane-bound pool — the self-healing activity counter."""
        total = self.pool.rebuilds
        if self.registry is not None:
            total += sum(p.rebuilds for p in self.registry.pools.values())
        return total

    def _receive(self, result: ImageResult, task: _InFlight,
                 outstanding: dict[str, PlaneSlot]) -> tuple[int, int]:
        """Bring one unit's planes home; returns ``(shm, pickle)`` bytes.

        Whole-image pixels are copied out of shared memory and their
        slot released at once.  A chunk's planes stay zero-copy views;
        their slot is held on the job until the stitch scatters them.
        Either way the result leaves here descriptor-free, so nothing
        downstream can observe a recycled segment.
        """
        if not result.ok:
            return 0, 0
        trace = result.chunk
        refs = trace.planes if trace is not None else (result.plane,)
        if not isinstance(refs, tuple) or refs[0] is None:
            if task.pool.backend != "process":
                return 0, 0  # nothing crossed a process boundary
            arrays = refs if trace is not None else [result.rgb]
            return 0, sum(a.nbytes for a in arrays)
        if trace is None:
            result.rgb = self.arena.resolve(refs[0], copy=True)
            result.plane = None
            self._release_slot(outstanding.get(refs[0].segment),
                               outstanding)
        else:
            trace.planes = [self.arena.resolve(r, copy=False) for r in refs]
            slot = outstanding.get(refs[0].segment)
            if slot is not None:
                task.job.slots.append(slot)
        return sum(r.nbytes for r in refs), 0

    # -- the batch loop -------------------------------------------------

    def decode_batch(self, items: Sequence[bytes | ImageRequest]
                     ) -> BatchResult:
        """Decode *items* concurrently; results come back in order.

        Raises only on infrastructure failure (closed pool); per-image
        decode errors are reported on the individual results.

        With a scheduler attached, the batch is first priced and placed
        (:meth:`~repro.service.scheduler.ModelScheduler.plan`) and each
        request rewritten to run on its assigned lane; the resulting
        :class:`~repro.service.scheduler.BatchSchedule` rides back on
        ``BatchResult.schedule``.  With lane-bound pools
        (``lane_pools=``), each placed image dispatches to its lane's
        own pool, the schedule is flagged ``wall_time`` and per-image
        ``wall_us`` carries the real heterogeneous execution time the
        scheduler's feedback consumes.  With ``transport="shm"``,
        process-pool workers return shared-memory descriptors and the
        pixels are materialized here; every leased segment is released
        (or unlinked at :meth:`close`) even when a worker dies
        mid-batch.

        Every image is one :class:`_FanoutJob` over its chunk plan, and
        every unit — a whole image or one chunk — travels the same
        dispatch, retry, heal, slot and span bookkeeping.
        """
        requests = self._normalize(items)
        schedule = None
        lane_by_index: dict[int, str] = {}
        #: Parent-side spans per batch index for traced requests
        #: (schedule placement, breaker exclusions).
        trace_parent: dict[int, list[SpanRecord]] = {}
        traced = [i for i, r in enumerate(requests) if r.trace is not None]
        if self.scheduler is not None and requests:
            t_plan0 = perf_counter()
            schedule = self.scheduler.plan(requests)
            t_plan1 = perf_counter()
            requests = self.scheduler.apply(requests, schedule)
            if traced:
                lane_of = {a.index: a.executor.name
                           for a in schedule.assignments
                           if a.executor is not None}
                for i in traced:
                    root = requests[i].trace
                    spans = trace_parent.setdefault(i, [])
                    spans.append(child_span(
                        root, "schedule", "scheduler", "dispatch",
                        t_plan0, t_plan1, lane=lane_of.get(i, "")))
                    for lane in getattr(schedule, "excluded", ()):
                        spans.append(child_span(
                            root, "lane_excluded", lane, "dispatch",
                            t_plan1, t_plan1, lane=lane,
                            reason="breaker_open"))
            if self.registry is not None:
                schedule.wall_time = True
                lane_by_index = {
                    a.index: a.executor.name
                    for a in schedule.assignments if a.executor is not None}
        t0 = perf_counter()
        results: list[ImageResult | None] = [None] * len(requests)
        pending: dict[Any, _InFlight] = {}
        #: Pools that actually received work this batch — the honest
        #: utilization denominator (with lane-bound pools the default
        #: pool often sits idle by construction).
        pools_used: set[int] = set()
        #: Slots leased to in-flight tasks, by segment name — the
        #: cleanup authority when futures fail or the dispatch aborts.
        outstanding: dict[str, PlaneSlot] = {}
        bytes_shm = 0
        bytes_pickle = 0
        retries = 0
        lane_failures: dict[str, int] = {}

        def dispatch(job, k, pool, lane, attempts=1, failed_over=False):
            """(Re)dispatch unit *k* of *job*; registers in-flight."""
            req = job.request
            ctx = req.trace.child() if req.trace is not None else None
            t_disp = perf_counter()
            if job.plan.chunks:
                # The chunk carries its own slice of the scan.
                unit = replace(req, data=b"", trace=ctx)
                chunk = job.plan.task(k, req.entropy_engine)
                slot = self._lease_slot(
                    packed_nbytes(job.plan.plane_nbytes(k)), pool)
                args = (unit, slot, self._next_fault(lane), chunk)
            else:
                unit = req if ctx is None else replace(req, trace=ctx)
                dims = (peek_dimensions(req.data)
                        if self.arena is not None else None)
                slot = self._lease_slot(3 * dims[0] * dims[1] if dims
                                        else 0, pool)
                args = (unit, slot, self._next_fault(lane))
            if slot is not None:
                outstanding[slot.name] = slot
            try:
                fut = pool.submit(decode_image_task, *args)
            except BaseException:
                self._release_slot(slot, outstanding)
                raise
            pools_used.add(id(pool))
            pending[fut] = _InFlight(job, k, pool, attempts, slot, lane,
                                     failed_over, ctx, t_disp)

        gather_complete = False
        try:
            for i, req in enumerate(requests):
                lane = lane_by_index.get(i)
                pool = self.pool
                if lane is not None and self.registry is not None:
                    pool = self.registry.pool_for(lane) or self.pool
                plan = self._plan(req, pool, len(requests))
                job = _FanoutJob(i, req, plan, [None] * plan.units,
                                 plan.units)
                for k in range(plan.units):
                    dispatch(job, k, pool, lane)

            while pending:
                done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
                for fut in done:
                    task = pending.pop(fut)
                    job = task.job
                    try:
                        result = fut.result()
                        failure = None
                    except BaseException as exc:
                        # The task function catches everything, so a
                        # raising future means infrastructure died under
                        # it: BrokenProcessPool (worker SIGKILLed/OOMed)
                        # or an injected WorkerCrashError.
                        result, failure = None, exc
                    if task.ctx is not None:
                        # The attempt span uses the child context's OWN
                        # identity so worker stage spans (parented on
                        # that same context) nest under it; retries of
                        # one request become sibling attempt spans under
                        # the shared request span.
                        job.trace_spans.append(make_span(
                            task.ctx, "attempt",
                            task.lane or task.pool.backend, "cpu-parallel",
                            task.dispatched_at, perf_counter(),
                            attempt=task.attempts,
                            task="chunk" if job.plan.chunks else "whole",
                            outcome=("crashed" if failure is not None
                                     else "ok")))
                    job.attempts = max(job.attempts, task.attempts)
                    job.failed_over |= task.failed_over
                    if failure is not None:
                        # The dead worker may still hold a view into
                        # its slot — quarantine, never recycle.
                        self._quarantine_slot(task.slot, outstanding)
                        task.pool.heal()
                        if task.pool.backend == "remote":
                            # Charged to the lane whose pool actually
                            # failed (the failover target when the
                            # rescue dispatch failed too), and before
                            # the budget check: the lane must answer
                            # for every failed dispatch, even the one
                            # that exhausts the budget.
                            failed_lane = getattr(
                                task.pool, "name", None) or task.lane
                            if failed_lane is not None:
                                lane_failures[failed_lane] = \
                                    lane_failures.get(failed_lane, 0) + 1
                        if task.attempts <= self.retry_budget:
                            retries += 1
                            sleep(self.retry_backoff_s
                                  * (2 ** (task.attempts - 1)))
                            pool, failed_over = task.pool, task.failed_over
                            if (pool.backend == "remote"
                                    and self.registry is not None):
                                # Prefer a surviving sibling host over
                                # hammering the one that just failed.
                                alt = self.registry.failover_pool(task.lane)
                                if alt is not None:
                                    pool, failed_over = alt, True
                            dispatch(job, task.unit, pool, task.lane,
                                     task.attempts + 1, failed_over)
                            continue
                        job.crash = (
                            f"worker crashed after {task.attempts} "
                            f"attempt(s): {type(failure).__name__}: "
                            f"{failure}")
                    else:
                        moved_shm, moved_pickle = self._receive(
                            result, task, outstanding)
                        bytes_shm += moved_shm
                        bytes_pickle += moved_pickle
                        job.spans.extend(result.spans)
                        job.trace_spans.extend(result.trace_spans)
                        if not job.plan.chunks:
                            job.outputs[task.unit] = result
                        elif result.ok:
                            # A failed chunk stays None: misspeculation
                            # the stitch repairs, or the oracle decides.
                            job.outputs[task.unit] = result.chunk
                    job.pending -= 1
                    if job.pending == 0:
                        result = results[job.index] = self._finish(job)
                        for slot in job.slots:
                            self._release_slot(slot, outstanding)
                        result.latency_s = perf_counter() - t0
            gather_complete = True
        finally:
            # Crash-safety for slots whose tasks never handed them
            # back.  After a *complete* gather every remaining slot
            # belongs to a future that resolved with an error (its
            # worker is dead or done), so recycling is safe.  On an
            # aborted gather (submit raised, exception mid-loop) a
            # sibling worker may still be writing into its lease —
            # those names are quarantined (unlinked, never reused),
            # not returned to the ring.
            for slot in list(outstanding.values()):
                if gather_complete:
                    self._release_slot(slot, outstanding)
                else:
                    self._quarantine_slot(slot, outstanding)

        for i, extra in trace_parent.items():
            # Parent-side spans (schedule, lane_excluded) ride in front
            # of the attempt and worker-side spans already on the result.
            results[i].trace_spans = extra + results[i].trace_spans

        wall_s = perf_counter() - t0
        spans = [s for r in results for s in r.spans]
        all_pools = [self.pool]
        if self.registry is not None:
            all_pools.extend(self.registry.pools.values())
        workers = sum(p.workers for p in all_pools
                      if id(p) in pools_used) or self.pool.workers
        stats = BatchStats.from_spans(
            batch_size=len(results),
            ok=sum(r.ok for r in results),
            failed=sum(not r.ok for r in results),
            wall_s=wall_s, workers=workers,
            latencies_s=[r.latency_s for r in results],
            spans=spans, bytes_shm=bytes_shm, bytes_pickle=bytes_pickle)
        self.retries_total += retries
        return BatchResult(
            results=results, stats=stats, schedule=schedule,
            lane_pools=(self.registry.describe()
                        if self.registry is not None else None),
            transport=self.transport, retries=retries,
            lane_failures=lane_failures)

    def _finish(self, job: _FanoutJob) -> ImageResult:
        """Turn a job's unit outputs into the image's result.

        A whole image's result is its one unit's.  A multi-chunk plan is
        joined by :func:`~repro.jpeg.speculative.stitch_chunks` and run
        through the pixel stages; when a chunk errored or the stitch
        cannot establish coverage, the sequential oracle decode (with
        the request's own options) decides — its pixels or its exact
        error.  Only when every unit died on infrastructure does the
        image fail as ``WorkerCrashError``: the pool is gone, and
        quietly decoding in the parent would mask it.
        """
        req, plan = job.request, job.plan
        if job.crash is not None and all(o is None for o in job.outputs):
            result = ImageResult(
                request_id=req.request_id, ok=False,
                error_type="WorkerCrashError", error=job.crash,
                segments=plan.units, misspeculated=len(plan.chunks),
                infra_failure=True)
        elif not plan.chunks:
            result = job.outputs[0]
        else:
            t0 = perf_counter()
            info, geo = plan.info, plan.info.geometry
            coeffs, report = stitch_chunks(
                job.outputs, plan.chunks, geo,
                repair=None if plan.known else make_repairer(
                    plan.prescan, geo, plan.tables))
            result = ImageResult(
                request_id=req.request_id, ok=True, width=info.width,
                height=info.height, segments=plan.units,
                speculative=report.ok and not plan.known,
                misspeculated=len(report.misspeculated))
            options = DecodeOptions(
                idct_method=req.idct_method,
                fancy_upsampling=req.fancy_upsampling,
                entropy_engine=req.entropy_engine)
            try:
                result.rgb = (
                    pixels_from_coefficients(info, coeffs, options)
                    if coeffs is not None
                    else decode_jpeg(req.data, options).rgb)
            except Exception as exc:
                result.ok = False
                result.error_type, result.error = type(exc).__name__, str(exc)
            t1 = perf_counter()
            job.spans.append(WorkSpan(worker_name(), t0, t1))
            if req.trace is not None:
                job.trace_spans.append(child_span(
                    req.trace, "stitch", worker_name(), "cpu-parallel",
                    t0, t1, chunks=plan.units,
                    misspeculated=result.misspeculated))
        result.spans = job.spans
        result.trace_spans = job.trace_spans
        result.attempts = job.attempts
        result.failed_over = job.failed_over
        result.wall_us = sum(s.duration_s for s in job.spans) * 1e6 or None
        return result

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Shut pools down (waits for in-flight tasks), then unlink
        every shared-memory segment the arena still holds — including
        slots a crashed worker never returned.  A caller-supplied
        ``ExecutorRegistry`` is left open (the caller owns it); only a
        registry this decoder built from a layout spec is closed."""
        self.pool.close()
        if self.registry is not None and self._owns_registry:
            self.registry.close()
        if self.arena is not None:
            self.arena.close()

    def __enter__(self) -> "BatchDecoder":
        """Context-manager entry: the decoder itself."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: close the pool."""
        self.close()
