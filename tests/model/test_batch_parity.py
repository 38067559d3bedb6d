"""Property-based parity: vectorized batch engines vs scalar models.

The batch engines promise *bitwise* agreement with the scalar
implementations — not approximate closeness.  Every assertion here is
exact ``==`` on floats and ints; any drift in summation order or
dtype promotion inside :mod:`repro.model.batch` /
:mod:`repro.fpga.batch` fails this suite.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga.batch import estimate_batch
from repro.fpga.estimator import ResourceEstimator
from repro.fpga.flexcl import FlexCLEstimator
from repro.fpga.resources import VIRTEX7_690T
from repro.dse.constraints import ResourceBudget
from repro.model.batch import BatchPrediction, predict_batch
from repro.model.predictor import PerformanceModel
from repro.opencl.platform import ADM_PCIE_7V3
from repro.stencil import fdtd_2d, hotspot_2d, jacobi_1d, jacobi_2d, jacobi_3d
from repro.tiling import (
    make_baseline_design,
    make_heterogeneous_design,
    make_pipe_shared_design,
)

_SPECS = {
    "jacobi_1d": lambda: jacobi_1d(grid=(96,), iterations=8),
    "jacobi_2d": lambda: jacobi_2d(grid=(64, 64), iterations=8),
    "jacobi_3d": lambda: jacobi_3d(grid=(24, 24, 24), iterations=8),
    "hotspot_2d": lambda: hotspot_2d(grid=(64, 64), iterations=8),
    "fdtd_2d": lambda: fdtd_2d(grid=(64, 64), iterations=8),
}

_COMPONENTS = (
    "launch",
    "read",
    "write",
    "compute_useful",
    "compute_redundant",
    "share_exposed",
)


@st.composite
def design_strategy(draw):
    """One random design: spec, kind, tile geometry, depth, unroll."""
    spec = _SPECS[draw(st.sampled_from(sorted(_SPECS)))]()
    ndim = spec.ndim
    tile = tuple(
        draw(st.integers(min_value=2, max_value=12)) for _ in range(ndim)
    )
    counts = tuple(
        draw(st.integers(min_value=1, max_value=2)) for _ in range(ndim)
    )
    h = draw(st.integers(min_value=1, max_value=6))
    unroll = draw(st.integers(min_value=1, max_value=2))
    kind = draw(st.sampled_from(["baseline", "pipe_shared", "heterogeneous"]))
    if kind == "baseline":
        return make_baseline_design(spec, tile, counts, h, unroll=unroll)
    if kind == "pipe_shared":
        return make_pipe_shared_design(spec, tile, counts, h, unroll=unroll)
    region = tuple(t * c for t, c in zip(tile, counts))
    return make_heterogeneous_design(spec, region, counts, h, unroll=unroll)


def assert_model_parity(designs, board=ADM_PCIE_7V3):
    """Batch prediction must equal per-design scalar prediction, bitwise."""
    flexcl = FlexCLEstimator()
    model = PerformanceModel(board=board, estimator=flexcl)
    batch = predict_batch(designs, board=board, flexcl=flexcl)
    assert isinstance(batch, BatchPrediction)
    assert len(batch) == len(designs)
    for i, design in enumerate(designs):
        scalar = model.predict(design)
        for component in _COMPONENTS:
            assert float(getattr(batch, component)[i]) == getattr(
                scalar, component
            ), (component, i, design.describe())
        assert float(batch.total[i]) == scalar.total
        assert batch.breakdown(i) == scalar


def assert_resource_parity(designs):
    """Batch estimate must equal the scalar estimator, field for field."""
    flexcl = FlexCLEstimator()
    estimator = ResourceEstimator(flexcl=flexcl)
    batch = estimate_batch(designs, flexcl=flexcl)
    assert len(batch) == len(designs)
    limit = ResourceBudget.from_device(VIRTEX7_690T).limit
    mask = batch.feasible(limit)
    for i, design in enumerate(designs):
        scalar = estimator.estimate(design)
        assert batch.design_resources(i) == scalar, (i, design.describe())
        assert bool(mask[i]) == scalar.total.fits_within(limit)


class TestRandomBatchParity:
    @settings(max_examples=20, deadline=None)
    @given(designs=st.lists(design_strategy(), min_size=1, max_size=6))
    def test_prediction_bitwise_equal(self, designs):
        assert_model_parity(designs)

    @settings(max_examples=20, deadline=None)
    @given(designs=st.lists(design_strategy(), min_size=1, max_size=6))
    def test_resources_and_feasibility_equal(self, designs):
        assert_resource_parity(designs)

    @settings(max_examples=10, deadline=None)
    @given(
        design=design_strategy(),
        scale=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_per_candidate_boards(self, design, scale):
        base = ADM_PCIE_7V3
        boards = [
            base,
            base.with_bandwidth(base.bandwidth_bytes_per_s * scale),
            dataclasses.replace(base, pipe_cycles_per_word=3),
        ]
        for board in boards:
            batch = predict_batch([design], board=board)
            scalar = PerformanceModel(board=board).predict(design)
            assert batch.breakdown(0) == scalar


class TestBatchShapes:
    def test_empty_batch(self):
        batch = predict_batch([])
        assert len(batch) == 0
        assert batch.total.shape == (0,)
        resources = estimate_batch([])
        assert len(resources) == 0
        assert resources.feasible(
            ResourceBudget.from_device(VIRTEX7_690T).limit
        ).shape == (0,)

    def test_single_candidate(self):
        design = make_baseline_design(
            jacobi_2d(grid=(64, 64), iterations=8), (8, 8), (2, 2), 3
        )
        assert_model_parity([design])
        assert_resource_parity([design])


class TestDegenerateCones:
    """Tiny tiles + deep fusion: cone faces collapse to zero extent."""

    def _designs(self):
        specs = [
            jacobi_2d(grid=(64, 64), iterations=8),
            jacobi_3d(grid=(24, 24, 24), iterations=8),
        ]
        designs = []
        for spec in specs:
            ndim = spec.ndim
            tiny = (2,) * ndim
            counts = (2,) * ndim
            for h in (4, 6, 8):
                designs.append(
                    make_pipe_shared_design(spec, tiny, counts, h)
                )
                designs.append(
                    make_baseline_design(spec, tiny, counts, h)
                )
        return designs

    def test_degenerate_parity_both_fidelities(self):
        assert_model_parity(self._designs())

    def test_degenerate_resources(self):
        assert_resource_parity(self._designs())
