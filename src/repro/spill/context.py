"""Run-wide allocation configuration: remat and seeded stress modes.

An :class:`AllocationContext` travels from the CLI (``--context``) through
``pm.session``/``pm.batch`` into every allocator.  The default context
is inert: every allocator produces byte-identical output with and
without it.  Non-default contexts switch on

* **rematerialization** — single-definition constants are re-issued
  (``li``/``fli``) instead of reloaded from their stack slot;
* **stress modes** — seeded perturbations of the allocation decisions
  (fewer usable registers, forced evictions, shuffled selection order)
  that drive the allocators far from the happy path while the
  differential oracle and the dataflow verifier watch.

Everything seeded goes through :meth:`AllocationContext.rng`, which
seeds :class:`random.Random` with a *string* — string seeding hashes
with SHA-512, so results are independent of ``PYTHONHASHSEED`` and
reproducible across processes (the batch driver pickles contexts into
pool workers).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

#: The recognised stress modes, in CLI order.
STRESS_MODES = ("none", "reduced-regs", "forced-evict", "shuffle")

#: Probability that the binpacking scan forces an eviction at a
#: placement decision under ``forced-evict`` stress.
FORCED_EVICT_RATE = 0.25

#: Fraction of candidate temporaries pre-forced to memory homes under
#: ``forced-evict`` stress in the whole-lifetime allocators.
FORCED_MEMORY_FRACTION = 0.25

#: Every register class keeps at least this many usable registers under
#: ``reduced-regs`` stress, so instructions' own operands still fit.
MIN_USABLE_REGS = 4


@dataclass(frozen=True)
class AllocationContext:
    """Immutable, picklable allocation configuration.

    Attributes:
        remat: Re-issue single-definition constants instead of
            reloading them from memory.
        stress: One of :data:`STRESS_MODES`.
        seed: Root seed for every stress decision.  Ignored (and kept
            at 0 by convention) when ``stress`` is ``"none"``.
    """

    remat: bool = False
    stress: str = "none"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.stress not in STRESS_MODES:
            raise ValueError(f"unknown stress mode {self.stress!r}; "
                             f"choose from {', '.join(STRESS_MODES)}")

    @property
    def stressed(self) -> bool:
        return self.stress != "none"

    def with_seed(self, seed: int) -> "AllocationContext":
        """The same context rooted at a different stress seed."""
        return replace(self, seed=seed)

    def rng(self, *salt: object) -> random.Random:
        """A deterministic RNG for one named decision site.

        The salt keeps independent sites (per function, per register
        class) from consuming the same stream.
        """
        tag = ":".join(str(part) for part in salt)
        return random.Random(f"{self.seed}:{tag}")

    # ------------------------------------------------------------------
    # Serialization: the one spelling of a context, in the CLI's
    # ``--context``, reports, witnesses, store cells and serve requests.
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Canonical compact form; empty for the default context."""
        parts = []
        if self.remat:
            parts.append("remat")
        if self.stress != "none":
            parts.append(f"stress={self.stress}")
            parts.append(f"seed={self.seed}")
        return ",".join(parts)

    @classmethod
    def parse(cls, text: str) -> "AllocationContext":
        """Inverse of :meth:`describe` (accepts the empty string).

        Fragments may come in any order, but each at most once, and a
        ``seed=`` only beside a stress mode: a description that names a
        field twice, or seeds the unstressed context, means something
        :meth:`describe` would not say, so it is refused, not guessed.
        """
        fields: dict[str, str] = {}
        for part in filter(None, text.split(",")):
            name, _, value = part.partition("=")
            if part != "remat" and not (name in ("stress", "seed") and value):
                raise ValueError(f"bad context fragment {part!r} in {text!r} "
                                 "(remat, stress=<mode>, seed=<N>)")
            if name in fields:
                raise ValueError(f"context {text!r} names {name} twice")
            fields[name] = value
        stress = fields.get("stress", "none")
        if "seed" in fields and stress == "none":
            raise ValueError(f"context {text!r} seeds no stress mode")
        return cls(remat="remat" in fields, stress=stress,
                   seed=int(fields.get("seed", 0)))


#: The inert context every entry point uses unless told otherwise.
DEFAULT_CONTEXT = AllocationContext()
