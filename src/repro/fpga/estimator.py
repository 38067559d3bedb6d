"""Design resource estimation (FF / LUT / DSP / BRAM).

Plays the role of the HLS resource report in the paper's Table 3.  The
estimate is built from first principles:

- **DSP**: each processing element instantiates the stencil's
  floating-point multipliers and adders (7-series: 3 DSP48 per
  multiplier, 2 per full-DSP adder).  Designs with equal parallelism
  and unroll therefore report equal DSP — exactly the paper's
  observation.
- **BRAM**: each kernel buffers its read footprint in ``local`` arrays
  (one per field, partitioned for port bandwidth); pipe FIFOs add their
  own blocks.  Pipe sharing shrinks footprints, which is where the
  paper's 8-25 % BRAM saving comes from.
- **FF/LUT**: per-PE datapath registers/logic, per-kernel control and
  burst-interface overhead, plus the BRAM-coupled multiplexing the
  paper calls out ("large OpenCL data arrays ... need multiplexers and
  registers to bundle BRAMs"), which is why FF/LUT savings track BRAM
  savings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro import obs
from repro.fpga.bram import fifo_resources, local_array_blocks
from repro.fpga.flexcl import FlexCLEstimator, PipelineReport
from repro.fpga.resources import FpgaDevice, ResourceVector
from repro.tiling.design import StencilDesign

#: 7-series operator costs.
DSP_PER_MUL = 3
DSP_PER_ADD = 2
FF_PER_MUL = 300
FF_PER_ADD = 400
LUT_PER_MUL = 200
LUT_PER_ADD = 300

#: Per-kernel fixed overhead: control FSM, AXI burst infrastructure.
KERNEL_BASE = ResourceVector(ff=2_800, lut=4_200, dsp=0, bram18=0)

#: BRAM-coupled banking/muxing overhead per 18 Kb block.
FF_PER_BRAM = 12
LUT_PER_BRAM = 40


@dataclass(frozen=True)
class DesignResources:
    """Estimated utilization of one design, with its composition."""

    total: ResourceVector
    kernels: ResourceVector
    pipes: ResourceVector

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """Nested plain-dict view."""
        return {
            "total": self.total.as_dict(),
            "kernels": self.kernels.as_dict(),
            "pipes": self.pipes.as_dict(),
        }


class ResourceEstimator:
    """Estimates FF/LUT/DSP/BRAM for stencil designs."""

    def __init__(self, flexcl: Optional[FlexCLEstimator] = None):
        self.flexcl = flexcl or FlexCLEstimator()

    def estimate(
        self,
        design: StencilDesign,
        report: Optional[PipelineReport] = None,
    ) -> DesignResources:
        """Estimate a design's total resource utilization.

        ``report`` is the design's FlexCL pipeline report; it is looked
        up (FlexCL caches it per pattern) when omitted.
        """
        with obs.span("fpga.estimate"):
            if report is None:
                report = self.flexcl.estimate(
                    design.spec.pattern, design.unroll
                )
            kernels = ResourceVector()
            for tile in design.tiles:
                kernels = kernels + self._kernel_resources(
                    design, tile, report
                )
            pipes = self._pipe_resources(design)
        return DesignResources(
            total=kernels + pipes, kernels=kernels, pipes=pipes
        )

    def check_fits(
        self, design: StencilDesign, device: FpgaDevice
    ) -> DesignResources:
        """Estimate and assert the design fits the device."""
        resources = self.estimate(design)
        device.check_fits(resources.total)
        return resources

    # -- components ------------------------------------------------------------

    def _kernel_resources(
        self,
        design: StencilDesign,
        tile,
        report: PipelineReport,
    ) -> ResourceVector:
        pattern = design.spec.pattern
        muls = pattern.multiplies_per_cell()
        adds = pattern.adds_per_cell()
        pe = ResourceVector(
            ff=muls * FF_PER_MUL + adds * FF_PER_ADD,
            lut=muls * LUT_PER_MUL + adds * LUT_PER_ADD,
            dsp=muls * DSP_PER_MUL + adds * DSP_PER_ADD,
            bram18=0,
        )
        datapath = pe.scaled(design.unroll)

        cells = design.tile_local_cells(tile)
        bytes_per_element = design.spec.element_bytes
        blocks = 0
        for _field in pattern.fields:
            blocks += local_array_blocks(
                cells,
                bytes_per_element,
                partitions=report.partitions,
                double_buffered=False,
            )
        for _aux in pattern.aux:
            blocks += local_array_blocks(
                cells,
                bytes_per_element,
                partitions=report.partitions,
                double_buffered=False,
            )
        memory = ResourceVector(
            ff=blocks * FF_PER_BRAM,
            lut=blocks * LUT_PER_BRAM,
            dsp=0,
            bram18=blocks,
        )
        return KERNEL_BASE + datapath + memory

    def _pipe_resources(self, design: StencilDesign) -> ResourceVector:
        total = ResourceVector()
        word_bits = design.spec.element_bytes * 8
        for _face in design.pipe_faces:
            one = fifo_resources(design.pipe_depth, word_bits)
            # Two one-directional pipes per face, carrying every field.
            total = total + one.scaled(2 * design.spec.pattern.num_fields)
        return total


def estimate_resources(
    design: StencilDesign, report: Optional[PipelineReport] = None
) -> DesignResources:
    """Convenience wrapper around :class:`ResourceEstimator`."""
    return ResourceEstimator().estimate(design, report)
