"""Kernel construction, evaluation, validation, and mean degree."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
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
    kernel_from_config,
    kernel_to_config,
    mean_degree,
    model_from_config,
    model_to_config,
    validate,
    wrap_angle,
)

from memory import traced_peak


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
    direct, _ = integrate.quad(lambda x: float(kernel.evaluate(x)), -math.pi, math.pi,
                               points=kernel.breakpoints(), epsabs=1e-12)
    assert mean_degree(model) == pytest.approx(7.5 * direct, rel=1e-10)


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


def table_evaluate(kernel, angle):
    """The cosine series summed from a (points x harmonics) table of np.cos,
    the reference for the elementwise recurrence.  To first order its error
    is below (n pi + n + 2) eps/2 sum|a_k| on [-pi, pi], under the bound of
    CosineSeries.evaluate: cos(k phi) rounds k phi, then itself, and the
    product adds n + 1 terms."""
    coeffs = np.asarray(kernel.coeffs)
    weights = np.full(coeffs.size, 2.0)
    weights[0] = 1.0
    phi = np.atleast_1d(np.asarray(angle, dtype=float)).ravel()
    values = np.cos(phi[:, None] * np.arange(coeffs.size)[None, :]) @ (weights * coeffs)
    return values.reshape(np.shape(angle))


def evaluation_bound(kernel):
    """The first-order error bound stated by CosineSeries.evaluate."""
    coeffs = np.abs(np.asarray(kernel.coeffs))
    return 8 * (kernel.order + 1) * np.finfo(float).eps * (2 * coeffs.sum() - coeffs[0])


def random_series(order, seed, positive=False):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(0.0 if positive else -1.0, 1.0, order + 1) / (order + 1)
    return CosineSeries(coeffs)


# at, and within 1e-8 of, the angles where the recurrence switches or
# degenerates: 0, +-pi/2 and +-pi
SPECIAL_ANGLES = [0.0, -0.0, math.pi, -math.pi, 0.5 * math.pi, -0.5 * math.pi,
                  math.nextafter(0.5 * math.pi, 4.0), math.nextafter(math.pi, 0.0),
                  5e-324, -5e-324, 2.0 * math.pi, 7.0 * math.pi]
angle_lists = st.lists(
    st.one_of(st.sampled_from(SPECIAL_ANGLES),
              st.builds(lambda base, shift: base + shift,
                        st.sampled_from([0.0, math.pi, -math.pi, 0.5 * math.pi]),
                        st.floats(-1e-8, 1e-8)),
              st.floats(-10.0, 10.0)),
    min_size=1, max_size=48)


def same_bits(a, b):
    return np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@settings(max_examples=40, deadline=None)
@given(order=st.integers(0, 2048), seed=st.integers(0, 2 ** 32 - 1), angles=angle_lists,
       cut=st.integers(0, 47), stride=st.integers(1, 5))
@example(order=2047, seed=0, angles=SPECIAL_ANGLES, cut=5, stride=3)
def test_cosine_evaluation_is_elementwise_property(order, seed, angles, cut, stride):
    # a value's bits do not depend on the other angles of the call, on
    # strides or on the array's shape
    kernel = random_series(order, seed)
    angles = np.array(angles)
    whole = kernel.evaluate(angles)
    assert whole.shape == angles.shape
    cut = min(cut, angles.size - 1)
    assert same_bits(kernel.evaluate(angles[cut:]), whole[cut:])
    assert same_bits(kernel.evaluate(angles[cut::stride]), whole[cut::stride])
    assert same_bits(kernel.evaluate(angles[::-1]), whole[::-1])
    value = kernel.evaluate(float(angles[cut]))
    assert isinstance(value, float) and same_bits(np.array(value), whole[cut])
    if angles.size % 2 == 0:
        square = angles.reshape(2, -1)
        assert same_bits(kernel.evaluate(square), whole.reshape(2, -1))
        assert same_bits(kernel.evaluate(square.T), whole.reshape(2, -1).T)


@pytest.mark.parametrize("order", [0, 1, 2, 5, 40, 333, 2048])
@pytest.mark.parametrize("positive", [False, True], ids=["mixed", "positive"])
def test_cosine_evaluation_agrees_with_the_table_within_the_bound(order, positive):
    kernel = random_series(order, order, positive)
    near = np.array([0.0, 0.5 * math.pi, math.pi])[:, None] + np.array([-1e-8, 1e-8])
    angles = np.concatenate([np.linspace(-math.pi, math.pi, 1001),
                             [a for a in SPECIAL_ANGLES if abs(a) <= math.pi],
                             np.clip(near.ravel(), -math.pi, math.pi)])
    difference = np.abs(kernel.evaluate(angles) - table_evaluate(kernel, angles))
    # each evaluation is within the stated bound of the exact sum
    assert np.max(difference) <= 2 * evaluation_bound(kernel)


@pytest.mark.parametrize("kernel", [
    CosineSeries((0.005, 0.05)),
    CosineSeries((0.1, 0.3, 0.05)),
    CosineSeries((0.1, 0.3)),
    CosineSeries(tuple(0.1 * 0.8 ** n for n in range(41))),
    CosineSeries([0.25] + [0.1 * 0.5 ** n for n in range(1, 2048)]),
], ids=["dips", "dips-at-pi", "dips-half", "smooth", "2048-harmonics"])
def test_range_check_reports_what_the_table_reports(monkeypatch, kernel):
    found = kernel.violations()
    monkeypatch.setattr(CosineSeries, "evaluate", table_evaluate)
    assert found == kernel.violations()


def test_range_check_evaluates_the_whole_grid_in_one_call(monkeypatch):
    # 0.1 + 0.6 cos(x) + 0.1 cos(2x) dips to -0.4 at x = -pi, the first point
    kernel = CosineSeries((0.1, 0.3, 0.05))
    calls = []
    evaluate = CosineSeries.evaluate

    def counted(self, angle):
        calls.append(np.shape(angle))
        return evaluate(self, angle)

    monkeypatch.setattr(CosineSeries, "evaluate", counted)
    assert kernel.violations() == ["negative probability (minimum -4.000e-01)"]
    assert calls == [(4 * 2 + kernels.DENSE_CHECK_EXTRA,)]


def test_range_check_memory_is_capped():
    # 2048 harmonics: one dense table over the whole check grid took 258 MiB
    kernel = CosineSeries([0.25] + [0.1 * 0.5 ** n for n in range(1, 2048)])

    def check():
        assert kernel.violations() == []

    peak = traced_peak(check)
    # the recurrence holds a few arrays of the 8,252 angles of the grid
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


@pytest.mark.parametrize("doc", [
    {"type": "uniform", "p": "0.1", "half_width": 0.5},
    {"type": "uniform", "p": 0.1, "half_width": True},
    {"type": "cosine", "coeffs": ["0.1", 0.2]},
    {"type": "cosine", "coeffs": [0.1, True]},
    {"type": "cosine", "coeffs": "0.1"},
    {"type": "product", "factors": [{"type": "cosine", "coeffs": [0.5]},
                                    {"type": "uniform", "p": False, "half_width": 1.0}]},
], ids=["p-string", "width-bool", "coeff-string", "coeff-bool", "coeffs-string",
        "factor-bool"])
def test_config_numbers_must_be_json_numbers(doc):
    # float() would read "0.1" as 0.1 and true as 1.0
    with pytest.raises(KernelValidationError, match="must be a"):
        kernel_from_config(doc)


@pytest.mark.parametrize("space", [{"type": "circle", "radius": "20"},
                                   {"type": "circle", "radius": True},
                                   {"type": "torus", "radii": [5.0, "6"]},
                                   {"type": "torus", "radii": [True, 6.0]}],
                         ids=["radius-string", "radius-bool", "radii-string", "radii-bool"])
def test_model_radii_must_be_json_numbers(space):
    window = {"type": "uniform", "p": 0.1, "half_width": 0.5}
    kernel = window if space["type"] == "circle" else {"type": "product",
                                                       "factors": [window, window]}
    with pytest.raises(KernelValidationError, match="radius must be a number"):
        model_from_config({"space": space, "kernel": kernel})


def test_config_integers_beyond_float_range_read_as_infinite():
    # as the JSON number 1e400 reads inf, so does the integer 10**400
    window = kernel_from_config({"type": "uniform", "p": 10 ** 400, "half_width": 0.5})
    assert window.p == math.inf and validate(window) == ["non-finite parameter"]
    with pytest.raises(KernelValidationError, match="non-finite coefficient"):
        kernel_from_config({"type": "cosine", "coeffs": [0.1, -10 ** 400]})
    with pytest.raises(KernelValidationError, match="radius must be positive and finite"):
        model_from_config({"space": {"type": "circle", "radius": 10 ** 400},
                           "kernel": {"type": "uniform", "p": 0.1, "half_width": 0.5}})
