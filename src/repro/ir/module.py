"""Modules: a set of functions plus global data.

Global arrays are the only global storage in the IR (the minic frontend
lowers every global declaration to one).  Each array is assigned a base
address in the simulator's flat heap at load time; pre-allocation code
refers to them through ``li``-loaded base addresses, so the allocators
never see symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.function import Function
from repro.ir.types import RegClass

#: Heap addresses are assigned upward from this base; address 0 is kept
#: invalid so stray zero-initialized pointers fault in the simulator.
HEAP_BASE = 16


@dataclass(frozen=True)
class GlobalArray:
    """A statically-allocated global array.

    Attributes:
        name: Source-level name.
        regclass: Element class (``GPR`` = int64 cells, ``FPR`` = floats).
        size: Number of elements.
        base: Heap base address, assigned by :meth:`Module.layout`.
        init: Optional initial element values (zero-filled otherwise).
    """

    name: str
    regclass: RegClass
    size: int
    base: int
    init: tuple[int | float, ...] = ()


@dataclass
class Module:
    """A compiled program: functions (``main`` is the entry) and globals."""

    functions: dict[str, Function] = field(default_factory=dict)
    globals: dict[str, GlobalArray] = field(default_factory=dict)
    _next_addr: int = HEAP_BASE

    def add_function(self, fn: Function) -> Function:
        """Register ``fn``, enforcing name uniqueness."""
        if fn.name in self.functions:
            raise ValueError(f"duplicate function {fn.name!r}")
        self.functions[fn.name] = fn
        return fn

    def function(self, name: str) -> Function:
        """Look up a function by name."""
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"no function {name!r} in module") from None

    def add_global(self, name: str, regclass: RegClass, size: int,
                   init: tuple[int | float, ...] = ()) -> GlobalArray:
        """Allocate a global array at the next free heap address."""
        if name in self.globals:
            raise ValueError(f"duplicate global {name!r}")
        if size <= 0:
            raise ValueError(f"global {name!r} must have positive size")
        if len(init) > size:
            raise ValueError(f"global {name!r}: initializer longer than array")
        arr = GlobalArray(name, regclass, size, self._next_addr, tuple(init))
        self._next_addr += size
        self.globals[name] = arr
        return arr

    def clone(self) -> "Module":
        """A structural copy of the whole program (no ``copy.deepcopy``).

        Functions are cloned block-by-block (:meth:`Function.clone`);
        global arrays are frozen and shared.
        """
        return Module(
            functions={name: fn.clone()
                       for name, fn in self.functions.items()},
            globals=dict(self.globals),
            _next_addr=self._next_addr)

    @property
    def heap_size(self) -> int:
        """Total heap cells needed for the globals (plus the guard zone)."""
        return self._next_addr

    def __str__(self) -> str:
        from repro.ir.printer import print_module

        return print_module(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Module({len(self.functions)} functions, {len(self.globals)} globals)"
