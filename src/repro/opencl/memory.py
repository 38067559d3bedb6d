"""Global-memory burst-transfer accounting.

The paper's model (Eqs. 4–6) assumes reads and writes are done in burst
mode coupled with work-group barriers: data for one work-group is
bundled, the transfer coalesces, and when ``K`` kernels run
simultaneously the bandwidth is shared evenly among them.
:func:`transfer_cycles` is that arithmetic; the simulator's memory
system (:mod:`repro.sim.memsys`) builds on it.
"""

from __future__ import annotations

from repro.errors import SpecificationError
from repro.opencl.platform import BoardSpec


def transfer_cycles(
    size_bytes: float,
    board: BoardSpec,
    sharing_kernels: int = 1,
    burst: bool = True,
) -> float:
    """Cycles to move ``size_bytes`` to/from global memory.

    Args:
        size_bytes: payload size.
        board: platform description (bandwidth, clock, burst factor).
        sharing_kernels: ``K`` kernels splitting the bandwidth evenly.
        burst: whether the access is coalesced (burst mode).  Non-burst
            accesses see a heavily derated bandwidth.

    Returns:
        Transfer latency in kernel-clock cycles (float; callers round).
    """
    if size_bytes < 0:
        raise SpecificationError(f"size_bytes must be >= 0: {size_bytes}")
    if sharing_kernels < 1:
        raise SpecificationError(
            f"sharing_kernels must be >= 1: {sharing_kernels}"
        )
    if size_bytes == 0:
        return 0.0
    per_cycle = (
        board.effective_bytes_per_cycle
        if burst
        else board.bytes_per_cycle * 0.1
    )
    return size_bytes * sharing_kernels / per_cycle

