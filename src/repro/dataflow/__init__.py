"""Bit-vector dataflow: the shared liveness analysis and a generic solver.

Python's arbitrary-precision integers *are* bit vectors (word-parallel
``&``/``|``/``~`` like the paper's implementation), so sets of temporaries
are represented as plain ``int`` masks in which a temporary's bit is its
per-function id.  Following Section 3, only temporaries live across
basic-block boundaries take part in the dataflow; block-local temporaries
are masked out, so their bits are never set and a mask is only as wide
as the highest global id.
"""

from repro.dataflow.bitvector import bits_of, translate_mask
from repro.dataflow.framework import DataflowProblem, solve
from repro.dataflow.liveness import LivenessInfo, compute_liveness

__all__ = [
    "DataflowProblem",
    "LivenessInfo",
    "bits_of",
    "compute_liveness",
    "solve",
    "translate_mask",
]
