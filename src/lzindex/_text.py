"""Text representation helpers.

Texts and patterns are sequences of integer symbols >= 1. Internally we keep
numpy int64 arrays for indexing math.
"""

from __future__ import annotations

import numpy as np


def to_symbols(text) -> np.ndarray:
    """Coerce bytes / sequence of ints to an int64 numpy array; a symbol
    outside the int64 range raises ValueError."""
    if isinstance(text, np.ndarray):
        return text.astype(np.int64, copy=False)
    if isinstance(text, (bytes, bytearray)):
        return np.frombuffer(bytes(text), dtype=np.uint8).astype(np.int64)
    try:
        return np.asarray(list(text), dtype=np.int64)
    except OverflowError:
        raise ValueError("symbol outside the int64 range") from None

