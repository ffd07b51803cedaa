"""The three workloads: one measured phase each, traced or not.

A phase returns every request's :class:`Outcome` plus the counters the
program exposes; :func:`end_to_end`, :func:`per_layer` and
:func:`span_layers` turn a phase into named numbers.
Only public entry points are driven: :func:`repro.jpeg.decode_jpeg`
(with :attr:`DecodeOptions.stage_hook` as the traced tap) and
:class:`repro.service.DecodeSession` built with ``repro serve``'s
defaults (with ``tracing="on"`` as the traced tap).
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from time import perf_counter, sleep
from types import SimpleNamespace

import numpy as np

from corpus import Member, digest
from measure import mean, pct, peak_rss_mb, self_times, uncovered
from repro.errors import DeadlineExceededError, QueueFullError
from repro.jpeg import DecodeOptions, decode_jpeg
from repro.service import DecodeSession

#: ``serve_small`` offered load: arrivals at about a quarter of
#: the default session's closed-loop capacity on a 2-core host (39
#: images/s on this corpus, 24 sequentially).  At half capacity (20/s)
#: the session flipped between steady operation and a growing backlog
#: on identical inputs (p50 98 ms in one run, 330 ms in the next).
SMALL_RATE_PER_S = 10.0

#: Latency limit per workload for ``slo_share``.  ``serve_small`` uses
#: the serving limit; the closed loops use a ceiling a healthy tree
#: meets, so the share drops only on a gross latency regression.
SLO_MS = {"decode_photo": 1000.0, "serve_small": 500.0,
          "serve_large": 10000.0}

#: Seconds to wait for any one handle before declaring the run hung.
RESULT_TIMEOUT_S = 120.0

#: Codec stages reported by ``DecodeOptions.stage_hook`` and the
#: worker's stage spans, keyed to the module that implements them.
STAGE_LAYERS = {"parse": "markers", "idct": "idct", "upsample": "sampling",
                "color": "color"}

#: Span names whose self time is reported as ``<name>.ms_p50``: the
#: median over single spans (a fanned-out request has many sibling
#: ``attempt`` spans; each counts once).
SPAN_NAMES = ("queue", "attempt", "parse", "entropy", "idct", "upsample",
              "color", "shm_publish", "merge", "stitch", "residual")


class CorrectnessError(RuntimeError):
    """The run cannot go on: a warm-up decoded wrongly, a request hung,
    or a traced run failed to reconcile."""


@dataclass
class Outcome:
    """One request (or one in-process decode) and how it ended."""

    member: Member
    #: perf_counter when the request was due (closed loop: issue time).
    due: float
    submitted: float | None = None
    resolved: float | None = None
    submit_s: float = 0.0
    #: "ok", "mismatch", "shed", "expired" or "infra".
    status: str = "ok"
    #: The outcome that disagreed with the oracle (status "mismatch").
    got: tuple | None = None
    result: object | None = None
    #: Closed loops: which pass over the corpus this request was in.
    pass_no: int = 0
    #: Traced decode_photo only: (stage, t0, t1) records.
    stages: list = field(default_factory=list)

    @property
    def latency_s(self) -> float:
        """Due time to resolution."""
        return self.resolved - self.due

    @property
    def round_trip_s(self) -> float:
        """Submission to resolution."""
        return self.resolved - self.submitted


@dataclass
class Phase:
    """Everything one measured phase observed."""

    workload: str
    outcomes: list[Outcome]
    wall_s: float
    peak_rss_mb: float
    workers: int = 1
    #: Session counters accumulated during the phase (serve only).
    stats: dict = field(default_factory=dict)
    lag_s: list = field(default_factory=list)
    backlog_end: int = 0
    #: ``traces_started`` of the session's trace hub (traced serve).
    traces_started: int = 0


def _check(o: Outcome, got: tuple[str, str]) -> None:
    """Compare an outcome with the oracle.  A mismatch is recorded and
    makes the run incorrect."""
    if got != o.member.oracle:
        o.status, o.got = "mismatch", got


# -- decode_photo ----------------------------------------------------------

def photo_cold_start_s(data: bytes, src: str) -> float:
    """First decode in a fresh interpreter (import included), seconds."""
    code = ("import sys, time\n"
            "data = sys.stdin.buffer.read()\n"
            "t0 = time.perf_counter()\n"
            "from repro.jpeg import decode_jpeg\n"
            "decode_jpeg(data)\n"
            "print(time.perf_counter() - t0)\n")
    out = subprocess.run([sys.executable, "-c", code], input=data,
                         capture_output=True, check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    return float(out.stdout.decode().strip().splitlines()[-1])


def run_photo(members: list[Member], seconds: float,
              traced: bool) -> Phase:
    """Closed loop, one thread: whole passes over the corpus."""
    outcomes = []
    t_start = perf_counter()
    for pass_no in count():
        for m in members:
            o = Outcome(member=m, due=0.0, pass_no=pass_no)
            hook = None
            if traced:
                hook = lambda st, a, b, rec=o.stages: rec.append((st, a, b))
            t0 = perf_counter()
            try:
                img = decode_jpeg(m.data, DecodeOptions(stage_hook=hook))
            except Exception as exc:
                got = ("err", type(exc).__name__)
            else:
                got = ("ok", None)
            t1 = perf_counter()
            if got[0] == "ok":
                got = ("ok", digest(img.rgb))
                img = None
            o.due = o.submitted = t0
            o.resolved = t1
            _check(o, got)
            outcomes.append(o)
        if perf_counter() - t_start >= seconds:
            break
    if traced:
        _reconcile_stages(outcomes)
    return Phase("decode_photo", outcomes, perf_counter() - t_start,
                 peak_rss_mb())


def _reconcile_stages(outcomes: list[Outcome]) -> None:
    """Stages plus the uncovered residual must equal the decode wall
    time within 1% per image, with every stage inside the call."""
    for o in outcomes:
        wall = o.resolved - o.submitted
        spans = [(a, b) for _, a, b in o.stages]
        inside = all(o.submitted <= a <= b <= o.resolved for a, b in spans)
        total = sum(b - a for a, b in spans) + uncovered(
            o.submitted, o.resolved, spans)
        if not inside or abs(total - wall) > 0.01 * wall:
            raise CorrectnessError(
                f"{o.member.spec.name}: stages + residual = "
                f"{total * 1e3:.3f} ms but the decode took "
                f"{wall * 1e3:.3f} ms")


# -- serve_small / serve_large ----------------------------------------------

def make_session(tracing: str = "off") -> DecodeSession:
    """A session with ``repro serve``'s defaults: process backend on a
    multi-core host, workers = all cores, max_batch 8, max_delay_ms 2,
    queue 32, transport auto, speculative auto, no scheduler."""
    return DecodeSession(max_batch=8, max_delay_ms=2.0, queue_capacity=32,
                         workers=None, backend=None, scheduler=None,
                         transport="auto", lane_pools=None,
                         speculative="auto", tracing=tracing)


def start_session(warmup: Member, tracing: str = "off"
                  ) -> tuple[DecodeSession, float]:
    """Construct a session and resolve one warm-up request; returns the
    session and the seconds that took (the serve set-up time)."""
    t0 = perf_counter()
    session = make_session(tracing)
    try:
        result = session.submit(warmup.data, timeout=None).result(
            RESULT_TIMEOUT_S)
        elapsed = perf_counter() - t0
        got = ("ok", digest(result.rgb)) if result.ok \
            else ("err", result.error_type)
        if got != warmup.oracle:
            raise CorrectnessError(f"warm-up decoded to {got}")
    except BaseException:
        session.close(drain=False)
        raise
    return session, elapsed


def _counters(session: DecodeSession) -> dict:
    snap = session.stats_snapshot()
    return {"batches": snap["batches"],
            "images": snap["images_ok"] + snap["images_failed"],
            "bytes": (snap["transport"]["shm_bytes"]
                      + snap["transport"]["pickle_bytes"]),
            "deadline_expired": snap["faults"]["deadline_expired"],
            "infra_failures": snap["faults"]["infra_failures"],
            "traces_started": snap["tracing"].get("traces_started", 0)}


def _on_resolved(o: Outcome, _handle) -> None:
    o.resolved = perf_counter()


def _submit(session: DecodeSession, o: Outcome, block: bool):
    """Submit one outcome's member; returns its handle or None (shed)."""
    t0 = perf_counter()
    try:
        handle = session.submit(o.member.data,
                                timeout=None if block else 0)
    except QueueFullError:
        o.status = "shed"
        return None
    o.submitted = t0
    o.submit_s = perf_counter() - t0
    handle.add_done_callback(partial(_on_resolved, o))
    return handle


def _settle(o: Outcome, handle) -> None:
    """Wait for a handle and classify its outcome against the oracle."""
    try:
        result = handle.result(RESULT_TIMEOUT_S)
    except DeadlineExceededError:
        o.status = "expired"
        return
    except TimeoutError:
        raise CorrectnessError(
            f"{o.member.spec.name}: no resolution within "
            f"{RESULT_TIMEOUT_S:g} s") from None
    except Exception:
        o.status = "infra"
        return
    while o.resolved is None:   # the done-callback runs on the pump
        sleep(0.0001)
    o.result = result
    if not result.ok and result.infra_failure:
        o.status = "infra"
        return
    got = (("ok", digest(result.rgb)) if result.ok
           else ("err", result.error_type))
    result.rgb = None
    _check(o, got)


def _finish(workload: str, session: DecodeSession, outcomes, t_start,
            before: dict, **extra) -> Phase:
    after = _counters(session)
    resolved = [o.resolved for o in outcomes if o.resolved is not None]
    wall = (max(resolved) if resolved else perf_counter()) - t_start
    return Phase(workload, outcomes, wall, peak_rss_mb(),
                 workers=session.decoder.pool.workers,
                 stats={k: after[k] - before[k] for k in after},
                 traces_started=after["traces_started"]
                 - before["traces_started"], **extra)


def run_small(session: DecodeSession, members: list[Member], seconds: float,
              seed: int, stream: int) -> Phase:
    """Open loop: seeded arrivals with exponential gaps at
    :data:`SMALL_RATE_PER_S` from one generator thread,
    ``submit(timeout=0)`` so a full queue sheds.  Sends every member
    equally often, in as many whole passes over *members* as it takes
    to last at least *seconds*.  *stream* separates the arrival
    schedules of a run's warm-up and measured phases."""
    # Exponential gaps, stratified: the n gaps are the midpoint
    # quantiles of the exponential distribution in a seeded random
    # order, scaled to the mean gap.  Every run then offers the same
    # load with the same set of close and far arrivals, and the seed
    # decides their order and which members they carry.  With plain
    # Poisson draws p95 latency would hinge on how bursty the seed's
    # schedule happens to be, and with a partial last pass on which
    # members the seed lets it send.
    rng = np.random.default_rng([seed, 4, stream])
    passes = -(-round(SMALL_RATE_PER_S * seconds) // len(members))
    n = passes * len(members)
    gaps = rng.permutation(-np.log1p(-(np.arange(n) + 0.5) / n))
    offsets = np.cumsum(gaps) * (n / SMALL_RATE_PER_S / gaps.sum())
    picks = np.concatenate([rng.permutation(len(members))
                            for _ in range(passes)])
    before = _counters(session)
    outcomes, lag = [], []
    in_flight: deque = deque()
    t_start = perf_counter() + 0.01
    for offset, pick in zip(offsets, picks):
        due = t_start + float(offset)
        # Check finished requests while waiting, so their pixels are
        # released as they arrive rather than held to the end.
        while in_flight and in_flight[0][1].done() and perf_counter() < due:
            _settle(*in_flight.popleft())
        now = perf_counter()
        if due > now:
            sleep(due - now)
        o = Outcome(member=members[pick], due=due)
        outcomes.append(o)
        handle = _submit(session, o, block=False)
        lag.append((o.submitted or perf_counter()) - due)
        if handle is not None:
            in_flight.append((o, handle))
    backlog_end = sum(1 for o, h in in_flight if not h.done())
    while in_flight:
        _settle(*in_flight.popleft())
    return _finish("serve_small", session, outcomes, t_start, before,
                   lag_s=lag, backlog_end=backlog_end)


def run_large(session: DecodeSession, members: list[Member], seconds: float,
              kinds: int) -> Phase:
    """Closed loop, one request in flight.  Requests go in passes of
    *kinds* consecutive members (one of each kind), cycling through the
    corpus; the run stops at the first end of the corpus past
    *seconds*, so every member is sent equally often."""
    before = _counters(session)
    outcomes = []
    t_start = perf_counter()
    for pass_no in count():
        first = pass_no * kinds % len(members)
        for m in members[first:first + kinds]:
            o = Outcome(member=m, due=perf_counter(), pass_no=pass_no)
            outcomes.append(o)
            _settle(o, _submit(session, o, block=True))
        if (first + kinds >= len(members)
                and perf_counter() - t_start >= seconds):
            break
    return _finish("serve_large", session, outcomes, t_start, before)


def reconcile_traces(phase: Phase) -> None:
    """One request trace per ok, failed or shed request: every submit
    started a trace, and every resolved result carries exactly one
    ``request`` span of its own trace."""
    roots = set()
    for o in phase.outcomes:
        if o.result is None:
            continue
        mine = [s for s in o.result.trace_spans if s.name == "request"]
        if len(mine) != 1:
            raise CorrectnessError(
                f"{o.member.spec.name}: {len(mine)} request spans")
        roots.add(mine[0].trace_id)
    with_result = sum(1 for o in phase.outcomes if o.result is not None)
    if len(roots) != with_result or \
            phase.traces_started != len(phase.outcomes):
        raise CorrectnessError(
            f"{phase.traces_started} traces started and {len(roots)} "
            f"request traces for {len(phase.outcomes)} requests "
            f"({with_result} resolved with a result)")


# -- metrics -----------------------------------------------------------------

def end_to_end(phase: Phase, setup_s: float) -> dict[str, float]:
    """The user-visible numbers of one untraced phase."""
    done = [o for o in phase.outcomes if o.resolved is not None]
    good = [o for o in done if o.status == "ok"]
    if phase.workload == "serve_small":
        mpix_s = sum(o.member.mpix for o in good) / phase.wall_s
        lat_ms = [o.latency_s * 1e3 for o in done]
        image_p50 = pct([o.round_trip_s * 1e3 for o in done], 50)
        lat_p50, lat_p95 = pct(lat_ms, 50), pct(lat_ms, 95)
    else:
        # Closed loops have tens of samples, one kind of image in four
        # much slower than the rest: take each pass's rate and latency
        # percentiles (one image of each kind), then the median over
        # passes.  Due time is issue time, so latency is round trip.
        passes = defaultdict(list)
        for o in done:
            passes[o.pass_no].append(o)
        rates, p50s, p95s = [], [], []
        for group in passes.values():
            ms = [o.round_trip_s * 1e3 for o in group]
            rates.append(sum(o.member.mpix for o in group
                             if o.status == "ok") / sum(ms) * 1e3)
            p50s.append(pct(ms, 50))
            p95s.append(pct(ms, 95))
        mpix_s, image_p50 = pct(rates, 50), pct(p50s, 50)
        lat_p50, lat_p95 = image_p50, pct(p95s, 50)
    limit = SLO_MS[phase.workload]
    return {
        "setup_s": setup_s,
        "mpix_s": mpix_s,
        "image_ms_p50": image_p50,
        "latency_ms_p50": lat_p50,
        "latency_ms_p95": lat_p95,
        "slo_share": sum(1 for o in good if o.latency_s * 1e3 <= limit)
        / len(phase.outcomes),
        "peak_rss_mb": phase.peak_rss_mb,
    }


def per_layer(phase: Phase) -> dict[str, float]:
    """Layer numbers one phase yields from results and counters."""
    outs = phase.outcomes
    results = [o.result for o in outs if o.result is not None]
    failed = sum(1 for o in outs if o.status != "ok")
    m: dict[str, float] = {
        "failed_share": failed / len(outs),
        "loadgen.lag_ms_p99": pct([x * 1e3 for x in phase.lag_s], 99),
        "loadgen.backlog_end": float(phase.backlog_end),
        "session.shed": float(sum(1 for o in outs if o.status == "shed")),
        "session.deadline_expired": float(
            phase.stats.get("deadline_expired", 0)),
        "batch.infra_failures": float(phase.stats.get("infra_failures", 0)),
    }
    if results:
        sent = [o for o in outs if o.submitted is not None]
        whole = [o for o in outs if o.result is not None
                 and o.result.segments == 1 and o.result.wall_us]
        busy = [r.wall_us for r in results if r.wall_us]
        fanned = [o for o in outs if o.result is not None
                  and o.result.segments > 1]
        spec = [o.result for o in fanned
                if o.member.spec.restart_interval == 0]
        chunks = sum(r.segments for r in spec)
        speedup = [o.member.oracle_s / o.round_trip_s for o in outs
                   if o.status == "ok" and o.resolved is not None]
        m.update({
            "session.submit_us_p50": pct([o.submit_s * 1e6 for o in sent],
                                         50),
            "session.overhead_ms_p50": pct(
                [o.round_trip_s * 1e3 - o.result.wall_us / 1e3
                 for o in whole], 50),
            "session.batch_size_mean": (phase.stats["images"]
                                        / max(1, phase.stats["batches"])),
            "workers.busy_ms_p50": pct([b / 1e3 for b in busy], 50),
            "workers.utilization": (sum(busy) / 1e6
                                    / (phase.workers * phase.wall_s)),
            "batch.split_share": len(fanned) / len(results),
            "batch.segments_mean": mean([r.segments for r in results]),
            "speculative.useful_share": (
                1.0 - sum(r.misspeculated for r in spec) / chunks
                if chunks else 0.0),
            "fanout.speedup": pct(speedup, 50),
            "transport.mb_per_image": (phase.stats["bytes"] / 1e6
                                       / max(1, phase.stats["images"])),
            "batch.attempts_per_image": mean([r.attempts for r in results]),
        })
    return m


def _trace_of(o: Outcome):
    """Span list of one traced outcome (decode_photo: built from the
    stage hook, with the decode call as the root)."""
    if o.result is not None:
        return o.result.trace_spans
    if not o.stages:
        return []
    spans = [SimpleNamespace(name="request", span_id="root", parent_id=None,
                             start=o.submitted, end=o.resolved)]
    spans += [SimpleNamespace(name=st, span_id=f"stage{i}",
                              parent_id="root", start=a, end=b)
              for i, (st, a, b) in enumerate(o.stages)]
    return spans


def span_layers(phase: Phase) -> dict[str, float]:
    """Per-layer self times from the traced phase's spans."""
    per_name: dict[str, list[float]] = {n: [] for n in SPAN_NAMES}
    stage_ms = {n: 0.0 for n in ("parse", "idct", "upsample", "color")}
    entropy_ms = {"baseline": 0.0, "progressive": 0.0}
    mpix = {"baseline": 0.0, "progressive": 0.0}
    unattributed_ms = 0.0
    for o in phase.outcomes:
        spans = _trace_of(o)
        if not spans:
            continue
        selfs: dict[str, float] = defaultdict(float)
        for name, seconds in self_times(spans):
            selfs[name] += seconds
            if name in per_name:
                per_name[name].append(seconds * 1e3)
        if "entropy" not in selfs or o.status != "ok":
            continue    # only whole decodes carry every codec stage
        coding = "progressive" if o.member.spec.progressive else "baseline"
        mpix[coding] += o.member.mpix
        entropy_ms[coding] += selfs["entropy"] * 1e3
        for st in stage_ms:
            stage_ms[st] += selfs.get(st, 0.0) * 1e3
        if o.result is None:
            unattributed_ms += selfs["residual"] * 1e3
        else:
            # Worker busy time the stage and publish spans leave over.
            covered = sum(selfs.get(st, 0.0) for st in
                          ("parse", "entropy", "idct", "upsample", "color",
                           "shm_publish"))
            unattributed_ms += o.result.wall_us / 1e3 - covered * 1e3
    total_mpix = mpix["baseline"] + mpix["progressive"]

    def per_mpix(ms: float, px: float) -> float:
        return ms / px if px else 0.0

    m = {f"{name}.ms_p50": pct(v, 50) for name, v in per_name.items()}
    m.update({
        "fast_entropy.ms_per_mpix": per_mpix(entropy_ms["baseline"],
                                             mpix["baseline"]),
        "progressive.ms_per_mpix": per_mpix(entropy_ms["progressive"],
                                            mpix["progressive"]),
        "decoder.unattributed_ms_per_mpix": per_mpix(unattributed_ms,
                                                     total_mpix),
    })
    for st, layer in STAGE_LAYERS.items():
        m[f"{layer}.ms_per_mpix"] = per_mpix(stage_ms[st], total_mpix)
    return m
