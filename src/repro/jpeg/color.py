"""Color-space conversion (paper Section 4.3, Algorithm 2).

YCbCr -> RGB per the JFIF equations::

    R = Y + 1.402   (Cr - 128)
    G = Y - 0.34414 (Cb - 128) - 0.71414 (Cr - 128)
    B = Y + 1.772   (Cb - 128)

plus the forward (RGB -> YCbCr) transform used by the encoder, both as
float paths and as the libjpeg-style 16-bit fixed-point paths ("SIMD"
analog).  All functions are fully vectorized over arbitrary leading axes.
"""

from __future__ import annotations

import numpy as np

from .constants import MAX_SAMPLE

#: Fixed-point scale used by the integer conversion path (libjpeg uses 16).
FIX_BITS = 16
_HALF = 1 << (FIX_BITS - 1)


def _fix(x: float) -> int:
    return int(x * (1 << FIX_BITS) + 0.5)


def ycbcr_to_rgb_float(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """Algorithm 2, float arithmetic.

    Inputs are broadcast-compatible sample arrays (typically uint8);
    returns an (..., 3) uint8 RGB array.
    """
    yf = y.astype(np.float64)
    cbf = cb.astype(np.float64) - 128.0
    crf = cr.astype(np.float64) - 128.0
    r = yf + 1.402 * crf
    g = yf - 0.34414 * cbf - 0.71414 * crf
    b = yf + 1.772 * cbf
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(np.rint(rgb), 0, MAX_SAMPLE).astype(np.uint8)


_FR_CR = _fix(1.402)
_FG_CB = _fix(0.34414)
_FG_CR = _fix(0.71414)
_FB_CB = _fix(1.772)


def ycbcr_to_rgb_int(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """Algorithm 2 in 16-bit fixed point (libjpeg jdcolor.c convention)."""
    yi = y.astype(np.int64) << FIX_BITS
    cbi = cb.astype(np.int64) - 128
    cri = cr.astype(np.int64) - 128
    r = (yi + _FR_CR * cri + _HALF) >> FIX_BITS
    g = (yi - _FG_CB * cbi - _FG_CR * cri + _HALF) >> FIX_BITS
    b = (yi + _FB_CB * cbi + _HALF) >> FIX_BITS
    rgb = np.stack([r, g, b], axis=-1)
    return np.clip(rgb, 0, MAX_SAMPLE).astype(np.uint8)


def rgb_to_ycbcr_float(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward JFIF transform for the encoder; returns (Y, Cb, Cr) uint8."""
    f = rgb.astype(np.float64)
    r, g, b = f[..., 0], f[..., 1], f[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168735892 * r - 0.331264108 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418687589 * g - 0.081312411 * b
    out = np.stack([y, cb, cr], axis=-1)
    out = np.clip(np.rint(out), 0, MAX_SAMPLE).astype(np.uint8)
    return out[..., 0], out[..., 1], out[..., 2]


def gray_to_rgb(y: np.ndarray) -> np.ndarray:
    """Grayscale scan to RGB: replicate luma into all three channels."""
    y = np.asarray(y)
    return np.repeat(
        np.clip(y, 0, MAX_SAMPLE).astype(np.uint8)[..., None], 3, axis=-1)


def cmyk_inverted_to_rgb(c: np.ndarray, m: np.ndarray, y: np.ndarray,
                         k: np.ndarray) -> np.ndarray:
    """Adobe *inverted* CMYK (APP14 transform 0) to RGB.

    Adobe stores CMYK complemented, so the stored samples are already
    ``255 - ink``: ``R = C' * K' / 255`` with C' = stored cyan channel
    and K' = stored black channel (both inverted).
    """
    kf = k.astype(np.uint32)
    rgb = np.stack([
        (c.astype(np.uint32) * kf + 127) // 255,
        (m.astype(np.uint32) * kf + 127) // 255,
        (y.astype(np.uint32) * kf + 127) // 255,
    ], axis=-1)
    return np.clip(rgb, 0, MAX_SAMPLE).astype(np.uint8)


def ycck_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray,
                k: np.ndarray) -> np.ndarray:
    """Adobe YCCK (APP14 transform 2) to RGB.

    The first three channels are the YCbCr transform of the inverted
    CMY inks; converting them back yields (C', M', Y') which combine
    with the inverted K plane exactly like transform-0 CMYK.
    """
    cmy_inv = ycbcr_to_rgb_float(y, cb, cr)
    return cmyk_inverted_to_rgb(
        cmy_inv[..., 0], cmy_inv[..., 1], cmy_inv[..., 2], k)


def rgb_to_ycck(rgb: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                          np.ndarray, np.ndarray]:
    """Forward YCCK transform for the encoder's 4-component path.

    GCR with maximal ink preservation: ``K' = max(R, G, B)`` (inverted
    black), inks normalized by K' then YCbCr-transformed.  Chosen for
    determinism — the decoder inverts it exactly on smooth data, and
    the scenario oracles only require decode determinism, not fidelity
    to any particular printing profile.
    """
    f = rgb.astype(np.float64)
    k_inv = np.max(f, axis=-1)
    scale = 255.0 / np.maximum(k_inv, 1.0)
    cmy_inv = np.clip(np.rint(f * scale[..., None]), 0, MAX_SAMPLE)
    y, cb, cr = rgb_to_ycbcr_float(cmy_inv.astype(np.uint8))
    k = np.clip(np.rint(k_inv), 0, MAX_SAMPLE).astype(np.uint8)
    return y, cb, cr, k
