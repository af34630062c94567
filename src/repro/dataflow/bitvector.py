"""Integer bit vectors.

All block-level dataflow in this repo (liveness here, the binpacking
``USED_CONSISTENCY`` analysis in the allocator) manipulates ``int`` masks
in which a temporary's bit is its id: ``1 << temp.id``.
"""

from __future__ import annotations

from typing import Iterator


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def translate_mask(mask: int, table: list[int]) -> int:
    """Re-index ``mask`` through a per-bit translation ``table``.

    Entry ``i`` of ``table`` is the target-space mask contributed by
    source bit ``i`` (``0`` drops the bit).  Cost is proportional to the
    number of *set* bits, so translating a sparse liveness mask into a
    graph's node space never touches the temporaries that are dead.
    """
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out
