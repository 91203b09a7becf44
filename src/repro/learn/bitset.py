"""Bit-packed boolean masks: pack, unpack, popcount.

One row of a packed matrix is one boolean mask over ``n`` rows, packed
along the last axis with zero padding bits. A conjunction of masks is a
bitwise AND of packed rows and a match count is a popcount, so scoring
many masks against one another touches ``n / 8`` bytes per mask instead
of ``n``. The CN2-SD beam search packs its conditions into 64-bit words;
the ranker's :mod:`~repro.core.maskset` packs clause masks into bytes.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pack_mask", "popcount", "unpack_masks"]

#: Per-byte popcount lookup: ``_POPCOUNT[packed].sum()`` counts set bits.
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def pack_mask(mask: np.ndarray, dtype=np.uint8) -> np.ndarray:
    """Boolean mask(s) as packed bits along the last axis.

    ``dtype`` is the word type (``np.uint8`` or a wider unsigned int);
    each packed row is zero-padded to a whole word.
    """
    packed = np.packbits(np.asarray(mask, dtype=bool), axis=-1)
    itemsize = np.dtype(dtype).itemsize
    pad = -packed.shape[-1] % itemsize
    if pad:
        packed = np.pad(packed, [(0, 0)] * (packed.ndim - 1) + [(0, pad)])
    return np.ascontiguousarray(packed).view(dtype)


def unpack_masks(packed: np.ndarray, n_rows: int) -> np.ndarray:
    """Packed rows back to a ``(rows, n_rows)`` boolean matrix."""
    if packed.ndim == 1:
        packed = packed[None, :]
    packed = np.ascontiguousarray(packed).view(np.uint8)
    return np.unpackbits(packed, axis=1, count=n_rows).view(bool)


def popcount(packed: np.ndarray) -> np.ndarray:
    """Set-bit count per row of a packed matrix (padding bits are zero)."""
    if packed.ndim == 1:
        packed = packed[None, :]
    if packed.shape[1] == 0:
        return np.zeros(packed.shape[0], dtype=np.int64)
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0: one C-level pass
        return np.bitwise_count(packed).sum(axis=1, dtype=np.int64)
    return _POPCOUNT[np.ascontiguousarray(packed).view(np.uint8)].sum(axis=1)
