"""OpenCL-on-FPGA machine model.

Models the pieces of the OpenCL execution stack the paper's framework
relies on: the board/platform description, OpenCL 2.0 pipes, and
burst global-memory transfer accounting.
"""

from repro.opencl.platform import ADM_PCIE_7V3, BoardSpec
from repro.opencl.pipes import Pipe, PipeClosed, PipeEmpty, PipeFull
from repro.opencl.memory import transfer_cycles

__all__ = [
    "ADM_PCIE_7V3",
    "BoardSpec",
    "Pipe",
    "PipeClosed",
    "PipeEmpty",
    "PipeFull",
    "transfer_cycles",
]
