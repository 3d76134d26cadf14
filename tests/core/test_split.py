"""Unit tests for pipeline splitting."""

import numpy as np
import pytest

from repro.core import split_contour_filter
from repro.errors import PipelineError
from repro.filters import ContourFilter
from repro.pipeline import TrivialProducer

from tests.conftest import make_sphere_grid, make_wave_grid


class TestSplitContourFilter:
    def test_config_inherited(self):
        contour = ContourFilter("v02", [0.1, 0.5])
        pre, post = split_contour_filter(contour)
        assert pre.array_name == "v02"
        assert pre.values == (0.1, 0.5)
        assert post.values == (0.1, 0.5)

    def test_mode_forwarded(self):
        pre, _ = split_contour_filter(ContourFilter("a", [1.0]), mode="edge")
        assert pre.mode == "edge"

    def test_unconfigured_rejected(self):
        with pytest.raises(PipelineError, match="array name"):
            split_contour_filter(ContourFilter())
        with pytest.raises(PipelineError, match="values"):
            split_contour_filter(ContourFilter("a"))

    def test_composition_equals_original(self):
        grid = make_wave_grid(16)
        contour = ContourFilter("f", [-0.2, 0.4])
        contour.set_input_data(grid)
        expected = contour.output()

        pre, post = split_contour_filter(contour)
        pre.set_input_data(grid)
        post.set_input_data(pre.output())
        result = post.output()
        assert np.array_equal(expected.points, result.points)
        assert np.array_equal(expected.polys.connectivity, result.polys.connectivity)


class TestSplitContourPipeline:
    def test_two_phase_execution(self):
        grid = make_sphere_grid(12)
        pre, post = split_contour_filter(ContourFilter("r", [3.0]))
        pre.set_input_data(grid)
        selection = pre.output()
        assert 0 < selection.count < grid.num_points
        post.set_input_data(selection)
        result = post.output()
        assert result.triangles().shape[0] > 0

    def test_source_update_propagates(self):
        source = TrivialProducer(make_sphere_grid(10))
        pre, _ = split_contour_filter(ContourFilter("r", [3.0]))
        pre.set_input_connection(0, source)
        sel1 = pre.output()
        source.set_data(make_sphere_grid(12))
        sel2 = pre.output()
        assert sel1.dims == (10, 10, 10)
        assert sel2.dims == (12, 12, 12)
