"""Text representation helpers.

Texts and patterns are sequences of integer symbols >= 1. Internally we keep
numpy int64 arrays for indexing math.
"""

from __future__ import annotations

from operator import index

import numpy as np


def as_ints(symbols) -> list[int]:
    """The symbols as Python ints; one that is not an integer, such as a
    float, raises ValueError rather than being truncated."""
    try:
        return list(map(index, symbols))
    except TypeError:
        raise ValueError("symbols must be integers") from None


def to_symbols(text) -> np.ndarray:
    """Coerce bytes, or a sequence or array of integers, to an int64 numpy
    array; a symbol that is not an integer, or is outside the int64 range,
    raises ValueError."""
    if isinstance(text, (bytes, bytearray)):
        return np.frombuffer(bytes(text), dtype=np.uint8).astype(np.int64)
    if isinstance(text, np.ndarray) and text.dtype.kind in "biu":
        if text.dtype == np.uint64 and text.size and int(text.max()) >= 1 << 63:
            raise ValueError("symbol outside the int64 range")
        return text.astype(np.int64, copy=False)
    try:
        return np.asarray(as_ints(text), dtype=np.int64)
    except OverflowError:
        raise ValueError("symbol outside the int64 range") from None
