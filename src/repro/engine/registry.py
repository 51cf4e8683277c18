"""Model registry: stores lowered models for online serving.

Serving frameworks "maintain a model registry to store the lowered model
and directly load them when the request comes to avoid redundant
lowering" (Sec. II-A).  On registration the registry round-trips the
program once through the ``.mgx`` format (:func:`serialize_program` then
:func:`deserialize_program`) and stores that parsed, immutable
:class:`Program`, so it serves exactly what survives the file format.
Loading returns the stored object: the per-instruction parse cost is
billed online, in simulated time, by the executors, not paid again on
the host.  Programs parsed by one registry share equal problem and
engine-kernel objects.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.engine.lowering import LoweringOptions, lower
from repro.engine.program import Program
from repro.engine.serialize import deserialize_program, serialize_program
from repro.graph import Graph
from repro.primitive.library import MIOpenLibrary

__all__ = ["ModelRegistry"]


class ModelRegistry:
    """In-memory store of round-tripped lowered models, keyed by name."""

    def __init__(self, library: MIOpenLibrary) -> None:
        self.library = library
        self._store: Dict[str, Program] = {}
        # Equal problems and engine kernels across the stored programs
        # share one object (see ``deserialize_program``).
        self._shared: Dict[Any, Any] = {}

    def compile_and_register(self, graph: Graph, key: Optional[str] = None,
                             options: Optional[LoweringOptions] = None) -> str:
        """Offline preparation: lower ``graph`` and store the result."""
        return self.register(lower(graph, self.library, options), key)

    def register(self, program: Program, key: Optional[str] = None) -> str:
        """Store an already-lowered program (its round-tripped form)."""
        key = key or program.name
        self._store[key] = deserialize_program(serialize_program(program),
                                               self._shared)
        return key

    def load(self, key: str) -> Program:
        """Fetch a registered model (the stored object itself)."""
        try:
            return self._store[key]
        except KeyError:
            known = ", ".join(sorted(self._store)) or "<empty>"
            raise KeyError(f"model {key!r} not registered; known: {known}") \
                from None

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def keys(self) -> List[str]:
        """Registered model names."""
        return sorted(self._store)
