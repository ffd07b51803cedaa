"""Speculative self-synchronizing parallel Huffman decode (extension).

Restart-marker fan-out (:mod:`repro.jpeg.parallel_huffman`) only helps
images whose encoder emitted DRI segments; a marker-free scan — the
common case in the wild — decodes sequentially and defines its batch's
finish line.  Weißenberger & Schmidt (*Accelerating JPEG Decompression
on GPUs*, arXiv 2111.09219) show the escape hatch: Huffman streams
self-synchronize, so a decoder started at a *guessed* bit offset almost
always converges onto the true codeword boundaries within a short
overlap.  The PIM-JPEG port applies the same idea across DPU tasklets
(``synchronise_tasklets`` with per-MCU ``INDEX_OFFSET`` /
``DC_COEFF_OFFSET`` bookkeeping — SNIPPETS.md).

The pipeline here:

1. :func:`plan_chunks` cuts the *destuffed* payload
   (:class:`~repro.jpeg.fast_entropy.ScanPrescan`) into byte-aligned
   chunks, each extended by an overlap window into its successor.
2. :func:`decode_speculative_chunk` runs an optimistic
   :class:`~repro.jpeg.fast_entropy.FastEntropyDecoder` from each chunk
   start (chunk 0 starts at the true origin, so its prefix is exact),
   decoding MCU by MCU through a one-MCU-per-row *virtual* geometry and
   recording the exact payload **bit position** and per-component DC
   predictors after every MCU — the trace convergence is detected on.
3. :func:`stitch_chunks` finds, per adjacent pair, the first common bit
   position inside the overlap window.  Equal bit positions mean equal
   decoder state from there on (Huffman decode is deterministic), so
   everything a chunk decodes past its synchronization point is the
   true stream modulo a constant per-component DC offset — the
   predecessor chain supplies the true predictors and the delta is
   patched onto the chunk's DC coefficients during scatter.
4. Convergence can legitimately fail (overlap too small, decode error
   in the overlap, hostile bytes).  The stitcher then reports
   ``fallback`` and :func:`decode_coefficients_speculative` re-decodes
   the scan sequentially — the retained sequential path stays the
   bit-identity (and error-identity) oracle.

Restart markers are the other boundary kind.  :func:`plan_scan` is the
one planner the batched service (:class:`~repro.service.batch.BatchDecoder`)
uses: in a DRI scan whose RSTn count matches its interval each cut
snaps to the nearest marker, so the boundary is *known* — byte-aligned,
DC predictors reset, first MCU exact — and the chunk decodes strictly
(:func:`decode_chunk`); in a marker-free scan the cut is *speculated* as
above.  Both kinds join through the same :func:`stitch_chunks`, and a
scan that fits neither is a one-chunk (whole-image) plan.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import EntropyError
from .blocks import ImageGeometry
from .entropy import CoefficientBuffers, ComponentTables
from .fast_entropy import (FastEntropyDecoder, ScanPrescan,
                           create_entropy_decoder, destuff_scan)

#: Chunks shorter than this are not worth a task dispatch; the planner
#: lowers the chunk count until every chunk clears it.
MIN_CHUNK_BYTES = 64

#: Default overlap window (payload bytes).  Weißenberger & Schmidt
#: observe synchronization within a few dozen codewords; 512 bytes is
#: hundreds of codewords of slack.
DEFAULT_OVERLAP_BYTES = 512

#: Extra payload shipped past the window so the last MCU *started*
#: inside the window can finish: a worst-case baseline MCU (six fully
#: populated blocks) stays under ~8 KB of code+magnitude bits.
TAIL_SLACK_BYTES = 8192

#: Lower bound on one block's bit cost (1-bit DC code + 1-bit EOB with
#: degenerate optimized tables) — bounds how many MCUs a window can
#: possibly contain, which caps the virtual decode geometry.
_MIN_BITS_PER_BLOCK = 2


@dataclass(frozen=True)
class SpeculativeChunk:
    """One chunk of a scan's fan-out plan.

    A *speculated* chunk indexes the destuffed payload and starts at a
    guessed byte offset.  A *known* chunk starts just past an RSTn
    marker (or at the scan origin) and indexes the original, still
    byte-stuffed scan bytes, which the entropy engines destuff
    themselves.
    """

    index: int
    #: Total chunks in the plan (workers size budgets from it).
    count: int
    #: Byte offset the decoder starts at (byte-aligned guess; exact for
    #: chunk 0 and every known chunk).
    start: int
    #: Nominal chunk end — the next chunk's ``start`` (a known chunk
    #: stops at the RSTn marker that closes its last segment).
    stop: int
    #: End of the convergence window: ``stop`` + overlap (the region
    #: where the *successor* must meet this chunk's trace).
    window_stop: int
    #: End of the slice shipped to the worker (window + slack; a known
    #: chunk ships its closing marker so the engines zero-feed there
    #: exactly as the sequential decode does).
    slice_stop: int
    #: True for the final chunk (decodes through the scan terminator).
    last: bool
    #: First MCU of a known chunk; None for a speculated one.
    mcu_start: int | None = None
    #: MCUs a known chunk owns (0 for a speculated one).
    mcu_count: int = 0

    @property
    def known(self) -> bool:
        """True when the chunk starts at an exact restart boundary."""
        return self.mcu_start is not None

    @property
    def nbytes(self) -> int:
        """Bytes shipped for this chunk."""
        return self.slice_stop - self.start


@dataclass
class ChunkTrace:
    """What one speculative chunk decode observed.

    ``positions[j]`` is the absolute payload *bit* offset after decoding
    local MCU *j*; ``dc_trace[j]`` the per-component DC predictors at
    that point.  ``planes[ci]`` holds the chunk's decoded blocks in
    virtual one-MCU-per-row order: local MCU *j* owns the contiguous
    block range ``[j * bpm, (j + 1) * bpm)`` of component *ci* where
    ``bpm`` is the component's blocks per MCU.  A decode error inside
    the chunk is *recorded*, never raised — whether it matters depends
    on whether the error fell inside the MCU range the stitcher needs.
    ``tolerated`` lists (ascending) the local MCUs in which the tolerant
    decoder clamped a fault a strict decoder raises on; past the sync
    point such an MCU is real damage, never usable output.  Only
    ``positions[:exact]`` (all of them when ``exact`` is None) are exact
    parse states: later ones were recorded with the slice exhausted
    (:attr:`~repro.jpeg.fast_entropy.FastEntropyDecoder.payload_exhausted`)
    and serve as neither sync points nor repair frontiers.  A known
    chunk's trace carries no positions: its MCUs are placed by the
    chunk's own ``mcu_start``.
    """

    index: int
    start_bit: int
    mcus: int
    positions: np.ndarray
    dc_trace: np.ndarray
    planes: list[np.ndarray] | None
    error_type: str | None = None
    error: str | None = None
    tolerated: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))
    exact: int | None = None

    @property
    def exact_mcus(self) -> int:
        """Leading MCUs whose end positions are exact parse states."""
        return self.mcus if self.exact is None else self.exact


@dataclass
class SpeculativeReport:
    """Outcome of one speculative decode attempt."""

    #: Chunks the plan fanned out (1 = effectively sequential).
    chunks: int
    #: Chunk boundaries that converged onto their predecessor's trace.
    converged: int = 0
    #: Chunk indices that failed to converge or cover their MCU range.
    misspeculated: list[int] = field(default_factory=list)
    #: Misspeculated gaps healed by a sequential repair decode (the
    #: rest of the stitch still lands in parallel).
    repaired: int = 0
    #: True when the whole scan fell back to the sequential path.
    fallback: bool = False
    #: Human-readable fallback cause (None when the stitch succeeded).
    reason: str | None = None

    @property
    def ok(self) -> bool:
        """True when the stitched result was used (no fallback)."""
        return not self.fallback


def plan_chunks(payload_len: int, chunk_count: int,
                overlap: int = DEFAULT_OVERLAP_BYTES
                ) -> list[SpeculativeChunk]:
    """Cut a destuffed payload into speculative chunks.

    The count is lowered until every chunk clears ``MIN_CHUNK_BYTES``;
    the overlap is clamped below the chunk stride so chunk *k*'s
    convergence window always ends before chunk *k+1*'s does (the
    stitcher's ordering invariant).  Always returns at least one chunk
    (which degenerates to an exact sequential decode).
    """
    if chunk_count < 1:
        raise EntropyError(f"chunk count must be >= 1, got {chunk_count}")
    n = payload_len
    count = max(1, min(int(chunk_count), n // MIN_CHUNK_BYTES or 1))
    stride = n // count if count else n
    overlap = max(8, min(int(overlap), max(1, stride - 1)))
    bounds = [n * i // count for i in range(count + 1)]
    chunks = []
    for i in range(count):
        last = i == count - 1
        start, stop = bounds[i], bounds[i + 1]
        window_stop = n if last else min(stop + overlap, n)
        slice_stop = n if last else min(window_stop + TAIL_SLACK_BYTES, n)
        chunks.append(SpeculativeChunk(
            index=i, count=count, start=start, stop=stop,
            window_stop=window_stop, slice_stop=slice_stop, last=last))
    return chunks


def chunk_mcu_budget(chunk: SpeculativeChunk,
                     geometry: ImageGeometry) -> int:
    """Upper bound on MCUs one chunk decode can usefully produce.

    A true decode never exceeds the image's MCU total, and a window of
    *b* bits cannot contain more than ``b / (2 * blocks_per_mcu)`` MCUs
    even with degenerate 1-bit Huffman codes; the smaller bound sizes
    the chunk's virtual geometry (and so its plane allocation).
    """
    if chunk.known:
        return chunk.mcu_count
    total = geometry.total_mcus
    bpm = sum(c.h_factor * c.v_factor for c in geometry.components)
    cap = total + 2
    if not chunk.last:
        window_bits = (chunk.window_stop - chunk.start) * 8
        cap = min(cap, window_bits // (_MIN_BITS_PER_BLOCK * bpm) + 2)
    return max(1, cap)


#: Retry budget for chunks whose speculative parse hits an
#: unrecoverable symbol (undecodable Huffman code): each retry restarts
#: just before the misparse point, so the scan makes forward progress.
MAX_RESTARTS = 64

#: Bits to back off from a misparse point when restarting — the wrong
#: codeword began at most one max-length code plus magnitude earlier.
_RESTART_BACKOFF_BITS = 24


def _virtual(geometry: ImageGeometry, mcus: int) -> ImageGeometry:
    """One-MCU-per-row geometry holding *mcus* MCUs of *geometry*: local
    MCU *j* owns blocks ``[j * bpm, (j + 1) * bpm)`` of each component,
    the layout :func:`scatter_chunk` places."""
    return ImageGeometry(geometry.mcu_width, max(1, mcus) * geometry.mcu_height,
                         geometry.mode, geometry.ncomponents)


def decode_speculative_chunk(
    chunk: SpeculativeChunk,
    slice_bytes: bytes,
    geometry_args: tuple[int, int, str],
    tables: list[ComponentTables],
    engine: str = "fast",
    terminator: int | None = None,
) -> ChunkTrace:
    """Optimistically decode one chunk; never raises on decode errors.

    *slice_bytes* is ``payload[chunk.start:chunk.slice_stop]`` — already
    destuffed, so it attaches via
    :meth:`~repro.jpeg.fast_entropy.FastEntropyDecoder.start_prescanned`
    (re-destuffing would corrupt 0xFF data bytes).  *terminator* is the
    original scan's terminator when the slice reaches the payload end
    (the decoder then zero-feeds exactly like the sequential path) and
    None otherwise (running off the slack raises, which is recorded as
    a chunk error).  Decoding advances one MCU at a time through a
    one-MCU-per-row virtual geometry, recording the exact bit position
    and DC predictors after each MCU; it stops at the window end, the
    MCU budget, or a decode error.

    Chunk 0 starts at the true stream origin and decodes *strictly*
    (its prefix is the oracle's own parse; errors there are real).
    Later chunks decode tolerantly — garbage before the sync point
    routinely overruns blocks — and an unrecoverable symbol restarts
    the attempt just before the misparse point.  Discarding the failed
    attempt's trace loses nothing: a recorded position that matched the
    predecessor would have pinned the suffix to the true parse, which
    cannot hit a structural error — so no discarded position could
    ever have been a sync point.
    """
    if engine != "fast":
        raise EntropyError(
            f"speculative decode requires the 'fast' engine, got {engine!r}"
            " (it alone exposes exact bit positions)")
    geometry = ImageGeometry(*geometry_args)
    budget = chunk_mcu_budget(chunk, geometry)
    virtual = _virtual(geometry, budget)
    local = ScanPrescan(payload=bytes(slice_bytes), terminator=terminator)
    limit_bits = (chunk.window_stop - chunk.start) * 8
    base_bit = chunk.start * 8
    exact = chunk.index == 0
    ncomp = len(geometry.components)

    attempt_bit = 0
    restarts = MAX_RESTARTS if not exact else 0
    payload_bits = len(local.payload) * 8
    decoder = None
    positions: list[int] = []
    dcs: list[tuple[int, ...]] = []
    faults: list[int] = []
    err_type = err_msg = exact_mcus = None
    while True:
        decoder = FastEntropyDecoder(virtual, tables, 0, tolerant=not exact)
        decoder.start_prescanned(local, attempt_bit)
        positions, dcs, faults = [], [], []
        err_type = err_msg = exact_mcus = None
        # Past the payload end the final chunk may legitimately
        # zero-feed a few more MCUs (partial-bit tails); grace bounds
        # that overshoot so a bitless tail cannot spin the budget down
        # decoding phantoms.
        grace = geometry.mcus_per_row + 2
        while len(positions) < budget:
            if decoder.bit_position >= limit_bits:
                if not chunk.last or grace == 0:
                    break
                grace -= 1
            tolerated = decoder.tolerated_faults
            try:
                decoder.decode_mcu_rows(1)
            except Exception as exc:  # misspeculation evidence
                if not exact and payload_bits - decoder.bit_position < 64:
                    # Over-decode off the end of the real payload —
                    # expected when the MCU budget exceeds what the
                    # chunk truly holds, not misspeculation.  (An
                    # end-of-data error can report up to an accumulator
                    # of real bits short of the payload end.)
                    break
                err_type, err_msg = type(exc).__name__, str(exc)
                break
            if decoder.tolerated_faults != tolerated:
                faults.append(len(positions))
            if exact_mcus is None and decoder.payload_exhausted:
                exact_mcus = len(positions)
            positions.append(base_bit + decoder.bit_position)
            dcs.append(decoder.dc_predictors)
        if err_type is None or restarts == 0:
            break
        # A position that matched the predecessor would pin this
        # attempt's suffix to the true parse, which cannot misparse —
        # so a failed attempt's positions are never sync points and
        # the restart may jump all the way to the misparse.
        restarts -= 1
        nxt = max(attempt_bit + 1,
                  decoder.bit_position - _RESTART_BACKOFF_BITS)
        if nxt >= limit_bits:
            break
        attempt_bit = nxt

    mcus = len(positions)
    planes = []
    for ci, comp in enumerate(virtual.components):
        bpm = comp.h_factor * comp.v_factor
        planes.append(np.array(decoder.coefficients.planes[ci][:mcus * bpm]))
    return ChunkTrace(
        index=chunk.index, start_bit=base_bit + attempt_bit, mcus=mcus,
        positions=np.asarray(positions, dtype=np.int64),
        dc_trace=(np.asarray(dcs, dtype=np.int64)
                  if dcs else np.zeros((0, ncomp), dtype=np.int64)),
        planes=planes, error_type=err_type, error=err_msg,
        tolerated=np.asarray(faults, dtype=np.int64), exact=exact_mcus)


def decode_chunk(
    chunk: SpeculativeChunk,
    data: bytes,
    geometry_args: tuple,
    tables: list[ComponentTables],
    engine: str = "fast",
    terminator: int | None = None,
    restart_interval: int = 0,
) -> ChunkTrace:
    """Decode one planned chunk — the unit of work the batched service
    ships to its workers.

    A speculated chunk runs :func:`decode_speculative_chunk` (fast
    engine only).  A known chunk decodes *strictly* with *engine* from
    its restart boundary: *data* is the original scan bytes from just
    past the opening RSTn through the closing one, the restart sequence
    resumes at the chunk's own segment number, and any decode error
    raises — the caller then falls back to the sequential oracle.
    """
    if not chunk.known:
        return decode_speculative_chunk(chunk, data, geometry_args, tables,
                                        engine, terminator)
    geometry = ImageGeometry(*geometry_args)
    decoder = create_entropy_decoder(
        engine, _virtual(geometry, chunk.mcu_count), tables, restart_interval)
    decoder.start(data, next_restart=chunk.mcu_start // restart_interval)
    decoder.decode_mcu_rows(chunk.mcu_count)
    return ChunkTrace(
        index=chunk.index, start_bit=0, mcus=chunk.mcu_count,
        positions=np.zeros(0, dtype=np.int64),
        dc_trace=np.zeros((0, len(tables)), dtype=np.int64),
        planes=decoder.coefficients.planes)


def scatter_chunk(trace: ChunkTrace, first_local: int, first_global: int,
                  count: int, delta: np.ndarray, geometry: ImageGeometry,
                  out: CoefficientBuffers) -> None:
    """Place *count* MCUs of a chunk into the whole-image grid.

    Local MCUs ``first_local..first_local+count`` map onto global MCUs
    ``first_global..first_global+count``; *delta* (per component) is the
    DC predictor correction added to every placed block's DC term —
    after it, the values equal the sequential decoder's exactly.
    """
    if count <= 0:
        return
    mpr = geometry.mcus_per_row
    g = np.arange(first_global, first_global + count)
    mrow, mcol = g // mpr, g % mpr
    for ci, comp in enumerate(geometry.components):
        vf, hf = comp.v_factor, comp.h_factor
        bw = comp.blocks_wide
        bpm = vf * hf
        dest = ((mrow[:, None] * vf + np.arange(vf)[None, :]) * bw)
        dest = dest[:, :, None] + (mcol[:, None, None] * hf
                                   + np.arange(hf)[None, None, :])
        dest = dest.reshape(-1)
        blocks = trace.planes[ci][first_local * bpm:
                                  (first_local + count) * bpm]
        out.planes[ci][dest] = blocks
        # Tolerant decode stores DC mod 2**16, so the patch is modular
        # too: wrap the delta into int16 range and let the in-place add
        # wrap again — the true value fits int16, so the residue IS the
        # exact sequential value.
        d = ((int(delta[ci]) + 0x8000) & 0xFFFF) - 0x8000
        if d:
            out.planes[ci][dest, 0, 0] += np.int16(d)


def _strictly_increasing(a: np.ndarray) -> bool:
    """True when *a* has no repeated or decreasing entries."""
    return bool(np.all(np.diff(a) > 0)) if len(a) > 1 else True


def _find_sync(prev: ChunkTrace, prev_sync: int, cur: ChunkTrace,
               lo: int, hi: int) -> tuple[int, int] | None:
    """Earliest common bit position of two traces inside ``[lo, hi]``.

    Returns ``(j_prev, i_cur)`` — the predecessor trace index whose MCU
    ends at the sync position, and the successor's *extended*-trace
    index (0 = the successor's own attempt start, i = after its local
    MCU ``i - 1``).  Only predecessor positions at or past its own
    trusted region (*prev_sync*) qualify; ambiguous (non-increasing)
    windows return None.
    """
    p = prev.positions
    # The chunk's own (possibly restarted) attempt start is a candidate
    # sync point too (index 0 in the extended trace = "no MCUs decoded
    # yet, predictors 0"); only exact positions qualify.
    q = np.concatenate(([np.int64(cur.start_bit)],
                        cur.positions[:cur.exact_mcus]))
    pw = p[np.searchsorted(p, lo, "left"):np.searchsorted(p, hi, "right")]
    qw = q[np.searchsorted(q, lo, "left"):np.searchsorted(q, hi, "right")]
    if not (_strictly_increasing(pw) and _strictly_increasing(qw)):
        # Repeated positions (zero-feed inside a window) make the trace
        # index ambiguous — treat as non-convergence.
        return None
    for cand in np.intersect1d(pw, qw):
        j_prev = int(np.searchsorted(p, cand, "left"))
        if j_prev >= prev_sync:
            return j_prev, int(np.searchsorted(q, cand, "left"))
    return None


def _trusted_mcus(trace: ChunkTrace, first: int,
                  delta: np.ndarray) -> int:
    """MCUs of *trace* from local MCU *first* on that a strict decode
    would produce too.

    The count stops before the first MCU in which the tolerant decoder
    clamped a fault, and before the first MCU whose true DC predictor
    (the trace's modular one plus *delta*) leaves the int16 range the
    strict decoder stores — both are errors of the true parse, so that
    output must never be emitted.
    """
    n = trace.mcus - first
    faults = trace.tolerated
    i = int(np.searchsorted(faults, first))
    if i < len(faults):
        n = min(n, int(faults[i]) - first)
    if len(trace.dc_trace) > first:
        true_dc = trace.dc_trace[first:trace.mcus] + delta
        bad = np.flatnonzero(np.any((true_dc < -0x8000) | (true_dc > 0x7FFF),
                                    axis=1))
        if len(bad):
            n = min(n, int(bad[0]))
    return max(0, n)


def stitch_chunks(
    traces: list[ChunkTrace | None],
    chunks: list[SpeculativeChunk],
    geometry: ImageGeometry,
    repair=None,
) -> tuple[CoefficientBuffers | None, SpeculativeReport]:
    """Verify convergence and merge chunk traces into the global grid.

    Walks the chunks front to back maintaining a *trusted* trace:
    chunk 0 is exact by construction.  A known chunk is trusted as is:
    it starts at its own ``mcu_start`` with DC delta 0, and its
    predecessor must cover every MCU before it.  Each speculated chunk
    must share a bit position with the trusted trace inside the overlap
    window.  A match fixes the chunk's global MCU base and its
    per-component DC delta (trusted predictors minus speculative
    predictors at the sync point), and the chunk becomes the new
    trusted trace.  Trusted output ends before any MCU in which the
    tolerant decoder clamped a fault (see :func:`_trusted_mcus`).

    A speculated chunk that never converges (or is missing, e.g. a
    crashed worker) is *repaired* when a ``repair(start_bit, max_mcus,
    limit_bit)`` callback is given: the callback decodes sequentially
    from the trusted frontier — a true MCU boundary — through the
    failed chunk's span, and the walk resumes syncing the next chunk
    against that repair trace.  Misspeculation then costs one chunk's
    sequential decode, not the scan's.  A missing known chunk, no
    callback, or coverage that still cannot be established fails the
    stitch — ``(None, report)`` with ``fallback`` set — and the caller
    re-decodes the whole scan sequentially.  On success the returned
    buffers are bit-identical to the sequential decode.
    """
    total = geometry.total_mcus
    n_chunks = len(chunks)
    ncomp = len(geometry.components)
    report = SpeculativeReport(chunks=n_chunks)

    def fail(reason: str, *bad: int):
        report.misspeculated.extend(
            b for b in bad if b not in report.misspeculated)
        report.fallback = True
        report.reason = reason
        return None, report

    if traces[0] is None:
        return fail("chunk 0 produced no trace", 0)

    # (trace, first_local, first_global, count, delta) to scatter.
    emissions: list[tuple[ChunkTrace, int, int, int, np.ndarray]] = []
    # Trusted state: trace T, its first trusted local MCU, the global
    # index of that MCU, and its DC correction.
    T = traces[0]
    T_sync = 0
    T_base = 0
    T_delta = np.zeros(ncomp, dtype=np.int64)

    def frontier_after(count: int) -> tuple[int, np.ndarray]:
        """Bit position and true predictors after *count* trusted MCUs."""
        j = T_sync + count - 1
        if j >= 0:
            return int(T.positions[j]), T_delta + T.dc_trace[j]
        return T.start_bit, T_delta

    complete = False
    k = 1
    while k < n_chunks:
        cur, chunk = traces[k], chunks[k]
        usable = _trusted_mcus(T, T_sync, T_delta)
        if chunk.known:
            count = chunk.mcu_start - T_base
            if cur is None or usable < count:
                return fail(f"known chunk {k} is missing or its "
                            f"predecessor stops short of it", k)
            emissions.append((T, T_sync, T_base, count, T_delta))
            T, T_sync, T_base = cur, 0, chunk.mcu_start
            T_delta = np.zeros(ncomp, dtype=np.int64)
            k += 1
            continue
        sync = None
        reach = min(usable, T.exact_mcus - T_sync)
        if cur is not None and reach > 0:
            lo = chunk.start * 8
            hi = int(T.positions[T_sync + reach - 1])
            sync = _find_sync(T, T_sync, cur, lo, hi)
        if sync is not None:
            j_prev, i_cur = sync
            count = j_prev - T_sync + 1
            emissions.append((T, T_sync, T_base, count, T_delta))
            cur_dc = (cur.dc_trace[i_cur - 1] if i_cur > 0
                      else np.zeros(ncomp, dtype=np.int64))
            # The trusted predictors at the sync point are the
            # predecessor's speculative ones plus its own correction —
            # the corrections chain.
            T, T_sync, T_delta = cur, i_cur, T_delta + T.dc_trace[j_prev] - cur_dc
            T_base = T_base + count
            report.converged += 1
            k += 1
            continue
        # --- misspeculation: repair the gap sequentially -------------
        report.misspeculated.append(k)
        if repair is None:
            return fail(f"chunk {k} never converged in its overlap")
        count = min(usable, total - T_base)
        if T_base + count < total:
            # The repair must start from an exact parse state.
            count = min(count, T.exact_mcus - T_sync)
        emissions.append((T, T_sync, T_base, count, T_delta))
        frontier_mcu = T_base + count
        if frontier_mcu >= total:
            complete = True
            break
        frontier_bit, frontier_preds = frontier_after(count)
        limit_bit = chunk.window_stop * 8
        R = repair(frontier_bit, total - frontier_mcu, limit_bit)
        if R.mcus == 0:
            return fail(
                f"repair of chunk {k} made no progress"
                + (f" ({R.error_type}: {R.error})" if R.error_type else ""))
        report.repaired += 1
        T, T_sync, T_base, T_delta = R, 0, frontier_mcu, frontier_preds
        k += 1

    # --- final coverage through the last MCU -------------------------
    count = total - T_base
    have = _trusted_mcus(T, T_sync, T_delta)
    if complete:
        pass
    elif count > have:
        if repair is None or chunks[-1].known:
            return fail(
                f"final chunk covers {have} MCUs of the {count} it owns"
                + (f" ({T.error_type}: {T.error})" if T.error_type else ""),
                n_chunks - 1)
        have = min(have, T.exact_mcus - T_sync)
        emissions.append((T, T_sync, T_base, have, T_delta))
        frontier_bit, frontier_preds = frontier_after(have)
        R = repair(frontier_bit, total - T_base - have, None)
        if R.mcus < total - T_base - have:
            return fail(
                f"tail repair covers {R.mcus} MCUs of the "
                f"{total - T_base - have} missing"
                + (f" ({R.error_type}: {R.error})" if R.error_type else ""),
                n_chunks - 1)
        report.repaired += 1
        if n_chunks - 1 not in report.misspeculated:
            report.misspeculated.append(n_chunks - 1)
        emissions.append((R, 0, T_base + have, total - T_base - have,
                          frontier_preds))
    else:
        emissions.append((T, T_sync, T_base, count, T_delta))

    out = CoefficientBuffers.empty(geometry)
    for trace, first_local, first_global, count, delta in emissions:
        scatter_chunk(trace, first_local, first_global, count, delta,
                      geometry, out)
    return out, report


def speculative_eligible(restart_interval: int,
                         prescan: ScanPrescan) -> bool:
    """True when a scan can take the speculative path.

    Restart-marker scans already have exact parallel decomposition
    (:mod:`~repro.jpeg.parallel_huffman`), and stray RSTn markers in a
    DRI=0 scan would shift every speculative bit offset — both route
    to their existing paths instead.
    """
    return restart_interval == 0 and prescan.restart_count == 0


@dataclass(frozen=True)
class ChunkPlan:
    """How one scan fans out: its chunks, all known or all speculated.

    A plan without chunks is a one-chunk plan — the image decodes whole.
    """

    chunks: tuple[SpeculativeChunk, ...] = ()
    #: The parsed image (:class:`~repro.jpeg.markers.JpegImageInfo`).
    info: Any = None
    #: The destuffed scan the chunks were cut from.
    prescan: ScanPrescan | None = None
    tables: tuple[ComponentTables, ...] = ()

    @property
    def units(self) -> int:
        """Decode units the plan dispatches (1 for a whole image)."""
        return len(self.chunks) or 1

    @property
    def known(self) -> bool:
        """True when every boundary is an exact restart boundary."""
        return bool(self.chunks) and self.chunks[0].known

    def task(self, k: int, engine: str) -> tuple:
        """:func:`decode_chunk` arguments for chunk *k* under *engine*."""
        chunk, info, scan = self.chunks[k], self.info, self.prescan
        geo = info.geometry
        data = info.entropy_data if chunk.known else scan.payload
        terminator = (scan.terminator if not chunk.known
                      and chunk.slice_stop == len(scan.payload) else None)
        return (chunk, data[chunk.start:chunk.slice_stop],
                (geo.width, geo.height, geo.mode, geo.ncomponents),
                self.tables, engine, terminator, info.restart_interval)

    def plane_nbytes(self, k: int) -> list[int]:
        """Upper bounds on the int16 coefficient planes chunk *k*
        returns, per component (transport buffer sizing)."""
        geo = self.info.geometry
        mcus = chunk_mcu_budget(self.chunks[k], geo)
        return [mcus * c.blocks_per_mcu * 64 * 2 for c in geo.components]


#: The one-chunk plan: decode the image whole.
WHOLE_IMAGE = ChunkPlan()


def plan_scan(info, chunk_count: int,
              overlap: int = DEFAULT_OVERLAP_BYTES, *,
              known: bool = True, speculate: bool = True) -> ChunkPlan:
    """Cut a baseline scan into at most *chunk_count* chunks.

    In a DRI scan whose RSTn markers match the interval in count and
    sequence, each even cut of the destuffed payload snaps to the
    nearest marker: every boundary is known.  A marker-free scan is cut
    by :func:`plan_chunks` into speculated chunks.  Everything else —
    *known*/*speculate* disallowing the scan's kind, a progressive
    frame, a restart structure the sequential decoder would reject, a
    stray RSTn in a marker-free scan, or a plan that degenerates to one
    chunk — is :data:`WHOLE_IMAGE`.
    """
    from .decoder import component_tables_from_info

    interval = info.restart_interval
    if chunk_count < 2 or info.progressive \
            or not (known if interval else speculate):
        return WHOLE_IMAGE
    scan = destuff_scan(info.entropy_data)
    if interval:
        chunks = _known_chunks(info, scan, chunk_count)
    elif speculative_eligible(interval, scan):
        chunks = plan_chunks(len(scan.payload), chunk_count, overlap)
    else:
        chunks = []
    if len(chunks) < 2:
        return WHOLE_IMAGE
    return ChunkPlan(tuple(chunks), info, scan,
                     tuple(component_tables_from_info(info)))


def _known_chunks(info, scan: ScanPrescan,
                  chunk_count: int) -> list[SpeculativeChunk]:
    """Restart-boundary chunks of a DRI scan (empty when its markers
    do not match the interval)."""
    interval = info.restart_interval
    total = info.geometry.total_mcus
    segments = -(-total // interval)
    markers = scan.marker_payload_offsets
    if not markers or len(markers) != segments - 1 or any(
            v != 0xD0 + (m & 7) for m, v in enumerate(scan.marker_values)):
        return []
    n = len(scan.payload)
    cuts = set()
    for i in range(1, chunk_count):
        target = n * i // chunk_count
        j = bisect_left(markers, target)
        if j and (j == len(markers)
                  or target - markers[j - 1] <= markers[j] - target):
            j -= 1
        cuts.add(j + 1)   # the segment after marker j starts the chunk
    bounds = [0, *sorted(cuts), segments]
    offsets = scan.marker_orig_offsets
    size = len(info.entropy_data)
    chunks = []
    for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
        last = b == segments
        stop = size if last else offsets[b - 1]
        chunks.append(SpeculativeChunk(
            index=k, count=len(bounds) - 1,
            start=offsets[a - 1] + 2 if a else 0, stop=stop,
            window_stop=stop, slice_stop=size if last else stop + 2,
            last=last, mcu_start=a * interval,
            mcu_count=min(b * interval, total) - a * interval))
    return chunks


def decode_coefficients_speculative(
    info,
    chunk_count: int,
    overlap: int = DEFAULT_OVERLAP_BYTES,
    engine: str = "fast",
    map_fn=map,
    prescan: ScanPrescan | None = None,
) -> tuple[CoefficientBuffers, SpeculativeReport]:
    """Speculatively decode a whole scan's coefficients.

    *info* is a parsed :class:`~repro.jpeg.markers.JpegImageInfo`;
    *map_fn* orders the chunk decodes (pass a pool's ``map`` for real
    parallelism — :func:`decode_speculative_chunk` is picklable).
    Misspeculated boundaries are healed by sequential gap repair; only
    when the stitch cannot establish coverage at all is the whole scan
    re-decoded sequentially.  Either way the result is bit-identical to
    the sequential oracle and hostile streams raise the oracle's exact
    errors; the report says which path ran.
    """
    from .decoder import component_tables_from_info

    geometry = info.geometry
    tables = component_tables_from_info(info)
    scan = prescan if prescan is not None else destuff_scan(info.entropy_data)
    if not speculative_eligible(info.restart_interval, scan) \
            or engine != "fast":
        report = SpeculativeReport(chunks=1, fallback=True,
                                   reason="scan not speculative-eligible")
        return _sequential(scan, geometry, tables,
                           info.restart_interval), report
    plan = ChunkPlan(tuple(plan_chunks(len(scan.payload), chunk_count,
                                       overlap)), info, scan, tuple(tables))
    traces = list(map_fn(_decode_chunk_star,
                         [plan.task(k, engine) for k in range(plan.units)]))
    out, report = stitch_chunks(traces, plan.chunks, geometry,
                                repair=make_repairer(scan, geometry, tables))
    if out is None:
        return _sequential(scan, geometry, tables,
                           info.restart_interval), report
    return out, report


def _decode_chunk_star(args) -> ChunkTrace:
    """Tuple-splat adapter for ``map``-style executors."""
    return decode_chunk(*args)


def make_repairer(scan: ScanPrescan, geometry: ImageGeometry,
                  tables: list[ComponentTables]):
    """Build the sequential gap-repair callback for :func:`stitch_chunks`.

    The returned ``repair(start_bit, max_mcus, limit_bit)`` decodes the
    full prescan *strictly* from *start_bit* — always a true MCU
    boundary handed over by the stitcher — for at most *max_mcus* MCUs
    or until *limit_bit* (None = decode all *max_mcus*).  DC predictors
    start at zero like any chunk; the stitcher patches the frontier
    predictors back in as the repair trace's delta.  Decode errors end
    the trace (a short repair fails coverage and falls back to the
    sequential oracle, which reproduces the error for hostile streams).
    """

    def repair(start_bit: int, max_mcus: int,
               limit_bit: int | None) -> ChunkTrace:
        virtual = _virtual(geometry, max_mcus)
        decoder = FastEntropyDecoder(virtual, tables, 0)
        decoder.start_prescanned(scan, start_bit)
        positions: list[int] = []
        dcs: list[tuple[int, ...]] = []
        err_type = err_msg = exact = None
        while len(positions) < max_mcus:
            if limit_bit is not None and decoder.bit_position >= limit_bit:
                break
            try:
                decoder.decode_mcu_rows(1)
            except Exception as exc:
                err_type, err_msg = type(exc).__name__, str(exc)
                break
            if exact is None and decoder.payload_exhausted:
                exact = len(positions)
            positions.append(decoder.bit_position)
            dcs.append(decoder.dc_predictors)
        mcus = len(positions)
        ncomp = len(geometry.components)
        planes = []
        for ci, comp in enumerate(virtual.components):
            bpm = comp.h_factor * comp.v_factor
            planes.append(np.array(
                decoder.coefficients.planes[ci][:mcus * bpm]))
        return ChunkTrace(
            index=-1, start_bit=start_bit, mcus=mcus,
            positions=np.asarray(positions, dtype=np.int64),
            dc_trace=(np.asarray(dcs, dtype=np.int64)
                      if dcs else np.zeros((0, ncomp), dtype=np.int64)),
            planes=planes, error_type=err_type, error=err_msg, exact=exact)

    return repair


def _sequential(scan: ScanPrescan, geometry: ImageGeometry,
                tables: list[ComponentTables],
                restart_interval: int) -> CoefficientBuffers:
    """The sequential oracle path over an existing prescan.

    Raises the sequential decoder's natural errors — the error-identity
    contract for hostile streams routed through the speculative API.
    """
    decoder = FastEntropyDecoder(geometry, tables, restart_interval)
    decoder.start_prescanned(scan, 0)
    decoder.decode_mcu_rows(geometry.mcu_rows)
    return decoder.coefficients
