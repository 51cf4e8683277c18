"""Lowered instructions: what the serving schemes execute.

Each instruction is one unit of online work.  Three executable kinds
exist, mirroring which library serves the layer:

- ``MIOPEN_PRIMITIVE``: conv/pool/activation problems with a solution
  determined at lowering time -- the layers PASK can proactively load and
  selectively reuse.
- ``BLAS_GEMM``: GEMM/MatMul served inside the BLAS library (reactive
  loading, outside PASK's control).
- ``ENGINE_KERNEL``: per-shape JIT-compiled fused elementwise / data
  movement kernels owned by the engine itself (proactively loadable, but
  never reusable: they are exact).

``NOOP`` instructions (reshape & friends) cost only parse time.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.gpu.codeobject import CodeObjectFile
from repro.primitive.problem import Problem

__all__ = ["InstrKind", "EngineKernel", "Instruction"]


class InstrKind(enum.Enum):
    """Which execution path an instruction takes."""

    MIOPEN_PRIMITIVE = "miopen"
    BLAS_GEMM = "blas"
    ENGINE_KERNEL = "engine"
    NOOP = "noop"


@dataclass(frozen=True, slots=True)
class EngineKernel:
    """A per-shape JIT-compiled engine kernel (fused elementwise etc.)."""

    op: str
    shape_sig: str
    flops: float
    bytes_moved: int
    # Unique kernel symbol name (op @ shape signature), derived once.
    name: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes_moved < 0:
            raise ValueError(f"negative work in {self}")
        object.__setattr__(self, "name",
                           f"mgx_{self.op.lower()}@{self.shape_sig}")

    @property
    def code_object(self) -> CodeObjectFile:
        """The kernel's compiled binary (deterministic size)."""
        digest = hashlib.blake2b(self.name.encode(), digest_size=8).digest()
        fraction = int.from_bytes(digest, "big") / 2**64
        size = int(90_000 + 140_000 * fraction)
        return CodeObjectFile.single_kernel(self.name, size)

    def scaled(self, batch: int) -> "EngineKernel":
        """The same kernel at a different batch size."""
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        return EngineKernel(self.op, f"{self.shape_sig}_b{batch}",
                            self.flops * batch, self.bytes_moved * batch)


# Parse (de-serialization) cost per instruction, by kind (seconds).
# Primitive instructions carry tensor descriptors, solution records and
# weight references, so they dominate; calibrated so that model parsing
# is several times faster than code loading per layer (Sec. III-A) while
# still a visible share of the cold start (Fig. 1(b)).
_PARSE_COST = {
    InstrKind.MIOPEN_PRIMITIVE: 100e-6,
    InstrKind.BLAS_GEMM: 60e-6,
    InstrKind.ENGINE_KERNEL: 40e-6,
    InstrKind.NOOP: 15e-6,
}


@dataclass(frozen=True, slots=True)
class Instruction:
    """One lowered instruction of a program."""

    index: int
    name: str
    kind: InstrKind
    problem: Optional[Problem] = None          # MIOPEN / BLAS
    solution_name: Optional[str] = None        # MIOPEN: determined offline
    engine_kernel: Optional[EngineKernel] = None

    def __post_init__(self) -> None:
        if self.kind is InstrKind.MIOPEN_PRIMITIVE:
            if self.problem is None or self.solution_name is None:
                raise ValueError(
                    f"{self.name}: MIOpen instruction needs problem+solution")
        elif self.kind is InstrKind.BLAS_GEMM:
            if self.problem is None:
                raise ValueError(f"{self.name}: BLAS instruction needs problem")
        elif self.kind is InstrKind.ENGINE_KERNEL:
            if self.engine_kernel is None:
                raise ValueError(f"{self.name}: engine instruction needs kernel")

    @property
    def parse_cost_s(self) -> float:
        """Simulated cost of de-serializing this instruction at runtime."""
        return _PARSE_COST[self.kind]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"#{self.index} {self.name} [{self.kind.value}]"
