"""Kernel construction, evaluation, validation, and mean degree."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from ringnet import kernels
from ringnet import (
    CircleModel,
    CosineSeries,
    DimensionError,
    KernelValidationError,
    ProductKernel,
    TorusModel,
    UniformWindow,
    ZeroMeanDegreeWarning,
    integrate_periodic,
    kernel_from_config,
    kernel_to_config,
    mean_degree,
    model_from_config,
    model_to_config,
    validate,
    wrap_angle,
)


def test_uniform_window_inside():
    kernel = UniformWindow(p=0.3, half_width=1.0)
    assert kernel.evaluate(0.5) == 0.3


def test_uniform_window_outside():
    kernel = UniformWindow(p=0.3, half_width=1.0)
    assert kernel.evaluate(2.0) == 0.0


def test_uniform_window_boundary_included():
    kernel = UniformWindow(p=0.3, half_width=1.0)
    assert kernel.evaluate(1.0) == 0.3


@pytest.mark.parametrize("kernel", [
    UniformWindow(0.4, 0.87),
    CosineSeries((0.3, 0.1, 0.05)),
])
def test_evenness_and_periodicity(kernel):
    # grid points stay away from the window jump, where a wrapped angle
    # can land on either side of the discontinuity by a rounding step
    grid = np.linspace(-3.0, 3.0, 41)
    forward = kernel.evaluate(grid)
    backward = kernel.evaluate(-grid)
    shifted = kernel.evaluate(grid + 2.0 * math.pi)
    np.testing.assert_allclose(forward, backward, rtol=0, atol=1e-14)
    np.testing.assert_allclose(forward, shifted, rtol=0, atol=1e-12)
    assert np.all(forward >= -1e-12)
    assert np.all(forward <= 1.0 + 1e-12)


def test_wrap_angle_range():
    grid = np.linspace(-20.0, 20.0, 401)
    wrapped = wrap_angle(grid)
    assert np.all(wrapped >= -math.pi)
    assert np.all(wrapped <= math.pi)
    np.testing.assert_allclose(np.cos(wrapped), np.cos(grid), atol=1e-12)


def test_product_kernel_multiplies():
    product = ProductKernel((UniformWindow(0.5, 1.0), UniformWindow(0.4, 0.5)))
    assert product.evaluate((0.2, 0.1)) == pytest.approx(0.2)
    assert product.evaluate((0.2, 2.0)) == 0.0


def test_product_kernel_dimension_mismatch():
    product = ProductKernel((UniformWindow(0.5, 1.0), UniformWindow(0.4, 0.5)))
    with pytest.raises(DimensionError):
        product.evaluate((0.2, 0.1, 0.3))


def test_mean_degree_uniform_closed_form():
    model = CircleModel(10.0, UniformWindow(0.1, 0.5))
    assert mean_degree(model) == pytest.approx(1.0, abs=1e-14)


def test_mean_degree_matches_quadrature():
    kernel = UniformWindow(0.37, 0.81)
    model = CircleModel(7.5, kernel)
    direct = integrate_periodic(kernel.evaluate, kernel.breakpoints(), tol=1e-12)
    assert mean_degree(model) == pytest.approx(7.5 * direct.value, rel=1e-10)


def test_mean_degree_constant_cosine():
    model = CircleModel(3.0, CosineSeries((0.25,)))
    assert mean_degree(model) == pytest.approx(2.0 * math.pi * 3.0 * 0.25, rel=1e-14)


def test_mean_degree_torus_product():
    kernel = ProductKernel((UniformWindow(0.3, 0.8), UniformWindow(0.5, 1.1)))
    model = TorusModel((4.0, 6.0), kernel)
    expected = (2 * 4.0 * 0.3 * 0.8) * (2 * 6.0 * 0.5 * 1.1)
    assert mean_degree(model) == pytest.approx(expected, rel=1e-12)
    # independent route: unfactorised 2D integral of the product kernel
    value, _ = integrate.nquad(
        lambda x, y: kernel.evaluate((x, y)),
        [(-math.pi, math.pi), (-math.pi, math.pi)],
        opts=[{"points": [-0.8, 0.8]}, {"points": [-1.1, 1.1]}])
    assert mean_degree(model) == pytest.approx(4.0 * 6.0 * value, rel=1e-6)


class _ConstantKernel:
    # a valid kernel of none of the built-in variants
    def evaluate(self, angle):
        return np.full(np.shape(angle), 0.5)

    def breakpoints(self):
        return ()

    def violations(self):
        return []


def test_mean_degree_refuses_other_kernels():
    model = CircleModel(3.0, _ConstantKernel())
    with pytest.raises(TypeError, match="not a one-dimensional kernel"):
        mean_degree(model)
    with pytest.raises(TypeError):
        kernels.axis_mean_degree(3.0, ProductKernel((UniformWindow(0.1, 0.5),)))


def test_mean_degree_zero_is_flagged():
    model = CircleModel(5.0, UniformWindow(0.0, 0.5))
    with pytest.warns(ZeroMeanDegreeWarning):
        assert mean_degree(model) == 0.0


def test_validate_range_violation():
    problems = validate(UniformWindow(1.2, 1.0))
    assert any("p out of" in msg for msg in problems)


def test_validate_full_circle_ok():
    assert validate(UniformWindow(0.5, math.pi)) == []


def test_validate_zero_width_rejected():
    problems = validate(UniformWindow(0.5, 0.0))
    assert any("half_width" in msg for msg in problems)


def test_validate_negative_cosine_reconstruction():
    # constant 0.005 with a large first harmonic dips below zero
    problems = validate(CosineSeries((0.005, 0.05)))
    assert any("negative probability" in msg for msg in problems)


def test_range_check_in_row_blocks_finds_the_same_extremes(monkeypatch):
    # 0.1 + 0.6 cos(x) + 0.1 cos(2x) dips to -0.4 at x = pi, in the last block
    kernel = CosineSeries((0.1, 0.3, 0.05))
    whole = kernel.violations()
    assert whole == ["negative probability (minimum -4.000e-01)"]
    monkeypatch.setattr(kernels, "RANGE_CHECK_CELLS", 7)
    assert kernel.violations() == whole


def test_range_check_memory_is_capped():
    # 2048 harmonics: one dense table over the whole check grid took 258 MiB
    kernel = CosineSeries([0.25] + [0.1 * 0.5 ** n for n in range(1, 2048)])
    tracemalloc.start()
    try:
        assert kernel.violations() == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the angle-by-harmonic product and its cosine take 16 MiB per block
    assert peak <= 32 * 2 ** 20


def test_validate_non_finite():
    assert validate(UniformWindow(math.nan, 1.0)) != []
    with pytest.raises(KernelValidationError):
        CosineSeries((0.1, math.inf))


def test_model_construction_rejects_invalid_kernel():
    with pytest.raises(KernelValidationError):
        CircleModel(10.0, UniformWindow(1.5, 1.0))
    with pytest.raises(KernelValidationError):
        TorusModel((5.0,), ProductKernel((UniformWindow(0.5, 0.0),)))


def test_torus_model_dimension_check():
    kernel = ProductKernel((UniformWindow(0.5, 1.0),))
    with pytest.raises(KernelValidationError):
        TorusModel((5.0, 6.0), kernel)


def test_config_round_trip():
    kernel = ProductKernel((UniformWindow(0.3, 0.8), CosineSeries((0.2, 0.05))))
    model = TorusModel((4.0, 9.0), kernel)
    doc = model_to_config(model)
    json.dumps(doc)  # must be plain JSON data
    rebuilt = model_from_config(doc)
    assert rebuilt == model
    assert kernel_from_config(kernel_to_config(kernel)) == kernel


def test_config_rejects_unknown_type():
    with pytest.raises(KernelValidationError):
        kernel_from_config({"type": "gaussian", "width": 1.0})


def test_config_rejects_extra_keys():
    with pytest.raises(KernelValidationError):
        kernel_from_config({"type": "uniform", "p": 0.1, "half_width": 1.0,
                            "extra": 2})
