"""Lifetime intervals and lifetime holes (Section 2.1 of the paper)."""

from repro.lifetimes.intervals import (
    Lifetime,
    LifetimeTable,
    Range,
    RangeSet,
    compute_lifetimes,
)

__all__ = [
    "Lifetime",
    "LifetimeTable",
    "Range",
    "RangeSet",
    "compute_lifetimes",
]
