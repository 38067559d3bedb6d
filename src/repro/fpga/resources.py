"""FPGA resource accounting.

:class:`ResourceVector` is the four-component quantity the paper's
Table 3 reports per design — flip-flops (FF), look-up tables (LUT), DSP
slices, and 18 Kb block RAMs — with the algebra the design-space
explorer needs (addition, scaling, component-wise max, and budget
comparison).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from repro.errors import ResourceError, SpecificationError

_COMPONENTS = ("ff", "lut", "dsp", "bram18")


@dataclass(frozen=True)
class ResourceVector:
    """FF/LUT/DSP/BRAM usage (or capacity) of a design or device.

    All components are non-negative integers; BRAM is counted in 18 Kb
    blocks (a 36 Kb block is two).
    """

    ff: int = 0
    lut: int = 0
    dsp: int = 0
    bram18: int = 0

    def __post_init__(self) -> None:
        ff, lut, dsp, bram18 = self.ff, self.lut, self.dsp, self.bram18
        if (
            type(ff) is int
            and type(lut) is int
            and type(dsp) is int
            and type(bram18) is int
            and min(ff, lut, dsp, bram18) >= 0
        ):
            return  # already exact, non-negative ints
        for name in _COMPONENTS:
            value = getattr(self, name)
            if value < 0:
                raise SpecificationError(
                    f"Resource component {name} must be >= 0, got {value}"
                )
            if type(value) is not int:
                object.__setattr__(self, name, int(round(value)))

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            *(getattr(self, c) + getattr(other, c) for c in _COMPONENTS)
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            *(
                max(0, getattr(self, c) - getattr(other, c))
                for c in _COMPONENTS
            )
        )

    def scaled(self, factor: float) -> "ResourceVector":
        """Component-wise scaling (rounding up to whole units)."""
        if factor < 0:
            raise SpecificationError(f"Scale factor must be >= 0: {factor}")
        return ResourceVector(
            *(
                int(-(-getattr(self, c) * factor // 1))
                for c in _COMPONENTS
            )
        )

    def max_with(self, other: "ResourceVector") -> "ResourceVector":
        """Component-wise maximum."""
        return ResourceVector(
            *(max(getattr(self, c), getattr(other, c)) for c in _COMPONENTS)
        )

    def fits_within(self, budget: "ResourceVector") -> bool:
        """True when every component is within ``budget``."""
        return (
            self.ff <= budget.ff
            and self.lut <= budget.lut
            and self.dsp <= budget.dsp
            and self.bram18 <= budget.bram18
        )

    def utilization(self, capacity: "ResourceVector") -> Dict[str, float]:
        """Fractional utilization of each component of ``capacity``."""
        result: Dict[str, float] = {}
        for c in _COMPONENTS:
            cap = getattr(capacity, c)
            result[c] = getattr(self, c) / cap if cap else 0.0
        return result

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (for reports and serialization)."""
        return {c: getattr(self, c) for c in _COMPONENTS}

    def components(self) -> Iterator[Tuple[str, int]]:
        """Iterate ``(name, value)`` pairs in canonical order."""
        for c in _COMPONENTS:
            yield c, getattr(self, c)

    def __str__(self) -> str:
        return (
            f"FF={self.ff} LUT={self.lut} DSP={self.dsp} "
            f"BRAM18={self.bram18}"
        )


@dataclass(frozen=True)
class FpgaDevice:
    """An FPGA part: capacities plus basic timing characteristics."""

    name: str
    capacity: ResourceVector
    #: Default kernel clock in Hz (the paper fixes 200 MHz).
    default_clock_hz: float = 200e6

    def check_fits(self, usage: ResourceVector) -> None:
        """Raise :class:`ResourceError` when ``usage`` overflows."""
        if not usage.fits_within(self.capacity):
            util = usage.utilization(self.capacity)
            over = {k: f"{v:.0%}" for k, v in util.items() if v > 1.0}
            raise ResourceError(
                f"Design does not fit on {self.name}: over budget in {over} "
                f"(usage {usage}, capacity {self.capacity})"
            )

    def headroom(self, usage: ResourceVector) -> ResourceVector:
        """Remaining capacity after placing ``usage``."""
        return self.capacity - usage


#: The Virtex-7 XC7VX690T on the Alpha Data ADM-PCIE-7V3 board the
#: paper evaluates on (Xilinx DS180 figures; BRAM in 18 Kb blocks).
VIRTEX7_690T = FpgaDevice(
    name="xc7vx690t",
    capacity=ResourceVector(ff=866_400, lut=433_200, dsp=3_600, bram18=2_940),
)
