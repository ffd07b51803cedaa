"""Restart-marker-based parallel Huffman decoding (extension).

The paper keeps Huffman decoding strictly sequential because standard
JPEG code words are not self-synchronizing (Section 1, citing Klein &
Wiseman).  There is one standards-compliant escape hatch it leaves on
the table: **restart markers**.  When the encoder emits a DRI interval,
the scan splits into byte-aligned, independently decodable segments
(DC predictions reset at each RSTn) — so a multi-core CPU can entropy-
decode segments in parallel.

This module implements that extension:

- :func:`split_restart_segments` scans the entropy data for RSTn
  boundaries and returns the byte spans;
- :class:`ParallelEntropyDecoder` decodes every segment independently
  as a known-boundary chunk (:func:`repro.jpeg.speculative.decode_chunk`,
  placed by :func:`~repro.jpeg.speculative.scatter_chunk`; results are
  bit-identical to the sequential decoder — tested) and models the
  multi-core schedule: segments are greedily assigned to ``cores``
  workers (LPT order), giving the simulated speedup.

The executors do not use it by default — the paper's pipeline relies on
*in-order* row availability, which parallel segment decoding breaks —
but the A7 ablation benchmark quantifies the opportunity, and the
batched decode service (:mod:`repro.service`) exploits restart markers
for real wall-clock parallelism across processes through the same
known-boundary chunks (:func:`repro.jpeg.speculative.plan_scan`).

Marker-free scans get a third fan-out mode: speculative
self-synchronizing decode (:mod:`repro.jpeg.speculative`), wrapped here
by :class:`SpeculativeEntropyDecoder` with the same modeled-schedule
reporting as :class:`ParallelEntropyDecoder`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EntropyError
from .blocks import ImageGeometry
from .entropy import CoefficientBuffers, ComponentTables
from .fast_entropy import destuff_scan


@dataclass(frozen=True)
class RestartSegment:
    """One independently decodable span of the entropy-coded data."""

    index: int
    byte_start: int       # offset of the segment's first payload byte
    byte_stop: int        # offset just past the segment (before its RSTn)
    mcu_start: int        # first MCU index covered
    mcu_count: int        # MCUs in this segment

    @property
    def nbytes(self) -> int:
        """Compressed size of the segment in bytes (markers excluded)."""
        return self.byte_stop - self.byte_start


def split_restart_segments(entropy_data: bytes, total_mcus: int,
                           restart_interval: int) -> list[RestartSegment]:
    """Locate RSTn boundaries and derive the per-segment MCU spans.

    Reuses the fast engine's destuffing prescan
    (:func:`repro.jpeg.fast_entropy.destuff_scan`) instead of a
    duplicate byte-at-a-time 0xFF scan: the prescan's marker index
    already holds the original-stream offset of every RSTn pair.
    """
    if restart_interval <= 0:
        raise EntropyError("parallel Huffman decoding needs a DRI interval")
    boundaries = destuff_scan(entropy_data).marker_orig_offsets

    segments: list[RestartSegment] = []
    start = 0
    mcu_start = 0
    for i, b in enumerate(boundaries):
        segments.append(RestartSegment(
            index=i, byte_start=start, byte_stop=b,
            mcu_start=mcu_start, mcu_count=restart_interval))
        start = b + 2
        mcu_start += restart_interval
    last_count = total_mcus - mcu_start
    if last_count <= 0:
        raise EntropyError("restart markers exceed the MCU count")
    segments.append(RestartSegment(
        index=len(boundaries), byte_start=start, byte_stop=len(entropy_data),
        mcu_start=mcu_start, mcu_count=last_count))
    return segments


def _lpt_makespan(work: list[float], cores: int) -> float:
    """Longest-processing-time-first schedule length on *cores* workers."""
    loads = [0.0] * max(1, cores)
    for w in sorted(work, reverse=True):
        i = loads.index(min(loads))
        loads[i] += w
    return max(loads)


@dataclass
class ParallelDecodeResult:
    """Output of a parallel entropy decode."""

    coefficients: CoefficientBuffers
    segments: list[RestartSegment]
    sequential_us: float      # simulated single-core time
    parallel_us: float        # simulated LPT makespan on `cores`
    cores: int

    @property
    def speedup(self) -> float:
        """Modeled multi-core speedup (sequential time / LPT makespan)."""
        return self.sequential_us / self.parallel_us


class ParallelEntropyDecoder:
    """Decode restart segments independently; merge into one buffer."""

    def __init__(self, geometry: ImageGeometry,
                 tables: list[ComponentTables],
                 restart_interval: int,
                 entropy_engine: str = "fast") -> None:
        """Validate the DRI interval and bind per-segment decode inputs."""
        if restart_interval <= 0:
            raise EntropyError("parallel Huffman decoding needs a DRI interval")
        self.geometry = geometry
        self.tables = tables
        self.restart_interval = restart_interval
        self.entropy_engine = entropy_engine

    def _decode_segment(self, seg: RestartSegment, data: bytes,
                        out: CoefficientBuffers) -> None:
        """Decode one segment in isolation and scatter its MCUs into
        the right slots of *out* (segments start and end on MCU-row
        boundaries only if the interval divides the row width)."""
        geo = self.geometry
        chunk = SpeculativeChunk(
            index=seg.index, count=1, start=seg.byte_start,
            stop=seg.byte_stop, window_stop=seg.byte_stop,
            slice_stop=seg.byte_stop, last=True, mcu_start=seg.mcu_start,
            mcu_count=seg.mcu_count)
        trace = decode_chunk(
            chunk, data[seg.byte_start:seg.byte_stop],
            (geo.width, geo.height, geo.mode, geo.ncomponents),
            self.tables, self.entropy_engine, None, self.restart_interval)
        scatter_chunk(trace, 0, seg.mcu_start, seg.mcu_count,
                      np.zeros(len(self.tables), dtype=np.int64), geo, out)

    def decode(self, entropy_data: bytes, cores: int = 4,
               ns_per_byte: float = 13.0,
               ns_per_mcu: float = 70.0) -> ParallelDecodeResult:
        """Decode all segments; model the multi-core schedule.

        ``ns_per_byte``/``ns_per_mcu`` mirror the sequential Huffman cost
        model (Figure 7's slope and per-pixel base re-expressed per MCU).
        """
        geo = self.geometry
        segments = split_restart_segments(
            entropy_data, geo.total_mcus, self.restart_interval)
        out = CoefficientBuffers.empty(geo)
        for seg in segments:
            self._decode_segment(seg, entropy_data, out)
        work = [
            (seg.nbytes * ns_per_byte + seg.mcu_count * ns_per_mcu) / 1e3
            for seg in segments
        ]
        return ParallelDecodeResult(
            coefficients=out, segments=segments,
            sequential_us=float(sum(work)),
            parallel_us=_lpt_makespan(work, cores),
            cores=cores,
        )


@dataclass
class SpeculativeDecodeResult:
    """Output of a speculative (marker-free) parallel entropy decode."""

    coefficients: CoefficientBuffers
    report: "SpeculativeReport"
    chunks: list["SpeculativeChunk"]
    sequential_us: float      # simulated single-core time
    parallel_us: float        # simulated LPT makespan + serial repairs
    cores: int

    @property
    def speedup(self) -> float:
        """Modeled multi-core speedup (sequential time / LPT makespan)."""
        return self.sequential_us / self.parallel_us


class SpeculativeEntropyDecoder:
    """Marker-free fan-out: chunk, decode optimistically, stitch.

    The restart-segment decoder above needs a DRI interval; this one
    does not — it guesses chunk boundaries and relies on Huffman
    self-synchronization (:mod:`repro.jpeg.speculative`).  The modeled
    schedule mirrors :class:`ParallelEntropyDecoder`: chunk costs are
    LPT-packed onto ``cores`` workers, and every misspeculated chunk
    adds its span again as a serial repair on the critical path.
    """

    def __init__(self, geometry: ImageGeometry,
                 tables: list[ComponentTables],
                 chunk_count: int | None = None,
                 overlap: int | None = None) -> None:
        """Bind decode inputs; *chunk_count* None = one chunk per core."""
        self.geometry = geometry
        self.tables = tables
        self.chunk_count = chunk_count
        self.overlap = overlap if overlap is not None else DEFAULT_OVERLAP_BYTES

    def decode(self, entropy_data: bytes, cores: int = 4,
               ns_per_byte: float = 13.0,
               ns_per_mcu: float = 70.0,
               map_fn=map) -> SpeculativeDecodeResult:
        """Decode the whole scan speculatively; model the schedule.

        ``ns_per_byte``/``ns_per_mcu`` mirror the sequential Huffman
        cost model (Figure 7's slope and per-pixel base re-expressed
        per MCU), applied to each chunk's shipped window.
        """
        geo = self.geometry
        scan = destuff_scan(entropy_data)
        n_chunks = self.chunk_count if self.chunk_count else max(1, cores)
        chunks = plan_chunks(len(scan.payload), n_chunks, self.overlap)
        geo_args = (geo.width, geo.height, geo.mode, geo.ncomponents)
        payload = scan.payload
        tasks = [
            (c, payload[c.start:c.slice_stop], geo_args, self.tables,
             "fast", scan.terminator if c.slice_stop == len(payload)
             else None)
            for c in chunks
        ]
        traces = list(map_fn(_decode_chunk_star, tasks))
        out, report = stitch_chunks(
            traces, chunks, geo,
            repair=make_repairer(scan, geo, self.tables))
        mcus_per_chunk = geo.total_mcus / len(chunks)
        work = [
            ((c.window_stop - c.start) * ns_per_byte
             + mcus_per_chunk * ns_per_mcu) / 1e3
            for c in chunks
        ]
        sequential_us = (len(payload) * ns_per_byte
                         + geo.total_mcus * ns_per_mcu) / 1e3
        parallel_us = _lpt_makespan(work, cores)
        if out is None:
            # Whole-scan fallback: the sequential decode IS the path.
            parallel_us = parallel_us + sequential_us
            out = _sequential_oracle(scan, geo, self.tables, 0)
        else:
            parallel_us += sum(work[k] for k in report.misspeculated)
        return SpeculativeDecodeResult(
            coefficients=out, report=report, chunks=chunks,
            sequential_us=sequential_us, parallel_us=parallel_us,
            cores=cores)


# Late imports keep module load order simple: speculative.py imports
# nothing from this module.
from .speculative import (  # noqa: E402
    DEFAULT_OVERLAP_BYTES,
    SpeculativeChunk,
    SpeculativeReport,
    _decode_chunk_star,
    _sequential as _sequential_oracle,
    decode_chunk,
    make_repairer,
    plan_chunks,
    scatter_chunk,
    stitch_chunks,
)
