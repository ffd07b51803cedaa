"""Seeded corpora and their sequential-decode oracles.

Every workload's inputs are a pure function of the workload seed.  The
seed picks the send order and, for ``serve_small``, the arrival
schedule.  Image content is the same for every seed: how long a member
takes to decode depends strongly on its content, so seeded content
would make the seed, not the program, decide the metrics.  Every member is a
valid image, so no operation of a run is meant to fail.

Members are encoded and their oracles computed in a small spawned
process pool during set-up.  The oracle is an in-process, sequential
:func:`repro.jpeg.decode_jpeg` call: a digest of its pixels, or the
class name of the error it raised, plus its decode time.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from time import perf_counter

import numpy as np

from repro.data.synth import synthetic_photo
from repro.jpeg import DecodeOptions, EncoderSettings, decode_jpeg, encode_jpeg

SUBSAMPLINGS = ("4:2:0", "4:2:2", "4:4:4")

#: ``serve_small``: every size x sampling x restart layout (a third
#: with DRI set) twice over: 72 members.  How long a lone small
#: image takes through the default session varies up to 4x with its
#: content, so many distinct members keep a run's mix representative.
SMALL_SIZES = ((240, 180), (320, 240), (400, 300), (480, 320))
SMALL_DRI = (0, 0, 1)
SMALL_COPIES = 2


@dataclass(frozen=True)
class Spec:
    """Recipe for one corpus member."""

    name: str
    width: int
    height: int
    subsampling: str
    quality: int
    content_seed: int
    detail: float = 0.5
    restart_interval: int = 0
    progressive: bool = False
    #: Oracle engine: ``"reference"`` is the per-symbol oracle engine,
    #: bit-identical to the default fast engine by contract.
    oracle_engine: str = "fast"
    #: Also encode the baseline twin of a progressive member and
    #: require both to decode to the same pixels.
    check_twin: bool = False


@dataclass(frozen=True)
class Member:
    """An encoded corpus member and its oracle outcome."""

    spec: Spec
    data: bytes
    #: ``("ok", digest)`` or ``("err", error class name)``.
    oracle: tuple[str, str]
    #: Sequential decode time of the oracle call, seconds.
    oracle_s: float

    @property
    def mpix(self) -> float:
        """Decoded megapixels."""
        return self.spec.width * self.spec.height / 1e6


def mcus_per_row(width: int, subsampling: str) -> int:
    """MCUs in one row: the restart interval of one restart per row."""
    mcu = 8 if subsampling == "4:4:4" else 16
    return -(-width // mcu)


def digest(rgb: np.ndarray) -> str:
    """Pixel digest that also binds the image shape."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(rgb.shape).encode())
    h.update(np.ascontiguousarray(rgb).tobytes())
    return h.hexdigest()


def oracle_outcome(data: bytes, engine: str = "fast"
                   ) -> tuple[tuple[str, str], float]:
    """Sequential in-process decode: outcome and decode seconds."""
    t0 = perf_counter()
    try:
        rgb = decode_jpeg(data, DecodeOptions(entropy_engine=engine)).rgb
    except Exception as exc:  # the error class *is* the oracle outcome
        return ("err", type(exc).__name__), perf_counter() - t0
    return ("ok", digest(rgb)), perf_counter() - t0


def _encode(spec: Spec, progressive: bool) -> bytes:
    rgb = synthetic_photo(spec.height, spec.width, seed=spec.content_seed,
                          detail=spec.detail)
    return encode_jpeg(rgb, EncoderSettings(
        quality=spec.quality, subsampling=spec.subsampling,
        restart_interval=spec.restart_interval, progressive=progressive))


def build_member(spec: Spec) -> Member:
    """Encode one member and compute its oracle (runs in a pool child)."""
    data = _encode(spec, spec.progressive)
    oracle, seconds = oracle_outcome(data, spec.oracle_engine)
    if spec.check_twin:
        twin, _ = oracle_outcome(_encode(spec, False))
        if twin != oracle:
            raise RuntimeError(
                f"{spec.name}: progressive stream and its baseline twin "
                "decode to different pixels")
    return Member(spec=spec, data=data, oracle=oracle, oracle_s=seconds)


def build(specs: list[Spec]) -> list[Member]:
    """Build every member in a spawned pool sized to the host."""
    workers = max(1, min(2, os.cpu_count() or 1, len(specs)))
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=get_context("spawn")) as pool:
        return list(pool.map(build_member, specs))


# -- per-workload recipes ------------------------------------------------

def photo_specs(seed: int) -> list[Spec]:
    """``decode_photo``: three 1024x768 baseline members, one per
    sampling, plus a 640x480 progressive member (a quarter of the
    corpus) whose baseline twin must decode to the same pixels.  Their
    contents are the same for every seed, as a member's decode time
    depends on its content; the seed picks the order of each pass."""
    contents = np.random.default_rng(1).integers(1 << 30, size=4)
    specs = [Spec(name=f"photo-1024x768-{sub}", width=1024, height=768,
                  subsampling=sub, quality=85,
                  content_seed=int(contents[i]),
                  oracle_engine="reference")
             for i, sub in enumerate(SUBSAMPLINGS)]
    specs.append(Spec(name="photo-640x480-4:2:2-progressive", width=640,
                      height=480, subsampling="4:2:2", quality=85,
                      content_seed=int(contents[3]),
                      progressive=True, check_twin=True))
    order = np.random.default_rng([seed, 1]).permutation(len(specs))
    return [specs[i] for i in order]


def small_specs() -> list[Spec]:
    """``serve_small``: 240x180 to 480x320 q80 baseline members with
    mixed sampling, a third with DRI set.  Their contents are the same
    for every seed; the seed picks only the arrivals."""
    layouts = [(w, h, sub, dri and mcus_per_row(w, sub))
               for w, h in SMALL_SIZES for sub in SUBSAMPLINGS
               for dri in SMALL_DRI] * SMALL_COPIES
    contents = np.random.default_rng(2).integers(1 << 30, size=len(layouts))
    return [Spec(name=f"small-{i}-{w}x{h}-{sub}-dri{dri}", width=w,
                 height=h, subsampling=sub, quality=80,
                 content_seed=int(contents[i]), restart_interval=dri)
            for i, (w, h, sub, dri) in enumerate(layouts)]


#: ``serve_large`` kinds (sampling, restart interval), ``LARGE_SETS``
#: contents of each.  The contents are the same for every seed: a lone
#: marker-free 1536x1024 image took 0.55 s for some contents and 1.8 s
#: for others, so seeded contents made the run's latency hinge on the
#: seed.  The seed picks the order in which the sets are sent.
LARGE_KINDS = (("4:4:4", 0), ("4:2:0", 0), ("4:2:0", 48), ("4:2:2", 48))
LARGE_SETS = 2


def large_specs(seed: int) -> list[Spec]:
    """``serve_large``: 1536x1024 q90 high-detail members, two kinds
    marker-free (4:4:4, 4:2:0) and two with DRI set (4:2:0, 4:2:2);
    ordered set by set, one member of each kind per set."""
    contents = np.random.default_rng(3).integers(
        1 << 30, size=(LARGE_SETS, len(LARGE_KINDS)))
    order = np.random.default_rng([seed, 3]).permutation(LARGE_SETS)
    return [Spec(name=f"large-{k}-1536x1024-{sub}-dri{dri}", width=1536,
                 height=1024, subsampling=sub, quality=90,
                 content_seed=int(contents[k, i]), detail=1.0,
                 restart_interval=dri)
            for k in order for i, (sub, dri) in enumerate(LARGE_KINDS)]


def cold_start_spec() -> Spec:
    """The image ``decode_photo``'s set-up decodes cold.  It is the same
    for every seed, so that set-up time does not depend on the seed's
    content."""
    return Spec(name="cold-1024x768-4:2:0", width=1024, height=768,
                subsampling="4:2:0", quality=85, content_seed=0)


def warmup_spec() -> Spec:
    """The small image every serve set-up resolves once.  It is the
    same for every seed: how long a lone small image takes through the
    default session depends strongly on its content, and set-up time
    should not."""
    return Spec(name="warmup-320x240", width=320, height=240,
                subsampling="4:2:0", quality=80, content_seed=0)
