"""Tests for burst-transfer accounting."""

import pytest

from repro.errors import SpecificationError
from repro.opencl.memory import transfer_cycles
from repro.opencl.platform import ADM_PCIE_7V3


class TestTransferCycles:
    def test_zero_bytes_is_free(self):
        assert transfer_cycles(0, ADM_PCIE_7V3) == 0.0

    def test_scales_linearly_with_size(self):
        one = transfer_cycles(1024, ADM_PCIE_7V3)
        two = transfer_cycles(2048, ADM_PCIE_7V3)
        assert two == pytest.approx(2 * one)

    def test_bandwidth_shared_across_kernels(self):
        alone = transfer_cycles(4096, ADM_PCIE_7V3, sharing_kernels=1)
        shared = transfer_cycles(4096, ADM_PCIE_7V3, sharing_kernels=16)
        assert shared == pytest.approx(16 * alone)

    def test_non_burst_heavily_derated(self):
        burst = transfer_cycles(4096, ADM_PCIE_7V3, burst=True)
        scattered = transfer_cycles(4096, ADM_PCIE_7V3, burst=False)
        assert scattered > 5 * burst

    def test_negative_size_rejected(self):
        with pytest.raises(SpecificationError):
            transfer_cycles(-1, ADM_PCIE_7V3)

    def test_invalid_sharing_rejected(self):
        with pytest.raises(SpecificationError):
            transfer_cycles(1, ADM_PCIE_7V3, sharing_kernels=0)

    def test_absolute_value(self):
        # 54.4 effective bytes/cycle at default board: 5440 bytes = 100.
        cycles = transfer_cycles(5440, ADM_PCIE_7V3)
        assert cycles == pytest.approx(100.0)

