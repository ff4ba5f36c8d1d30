"""Connection kernels and network models for distance-driven random graphs.

Nodes live on a circle (or on a flat torus, one angle per dimension) and any
two of them are linked independently with a probability that depends only on
their angular distance.  The kernel types below describe that probability as
an even, 2*pi-periodic function with values in [0, 1]; the model types pair a
kernel with the geometry and expose the mean degree it induces.

Radii are measured in units of the node spacing, so a circle of radius R
carries about round(2*pi*R) equally spaced nodes in the discrete picture.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Range validation of a cosine-series kernel samples this many points beyond
# four per stored harmonic; violations larger than RANGE_TOLERANCE are caught.
DENSE_CHECK_EXTRA = 64
RANGE_TOLERANCE = 1e-9


class KernelValidationError(ValueError):
    """A kernel or model failed validation."""


class DimensionError(ValueError):
    """Angle dimensionality does not match the kernel."""


class CostBudgetError(Exception):
    """A sampling, counting or summing request would exceed its cost budget."""

    def __init__(self, message: str, cost: int, budget: int):
        super().__init__(f"{message}: cost {cost} exceeds budget {budget}")
        self.cost = cost
        self.budget = budget


class ZeroMeanDegreeWarning(UserWarning):
    """The model's mean degree is zero; quantities normalised by it diverge."""


def wrap_angle(angle):
    """Wrap an angle or array of angles into [-pi, pi]."""
    arr = np.asarray(angle, dtype=float)
    wrapped = arr - TWO_PI * np.round(arr / TWO_PI)
    if wrapped.ndim == 0:
        return float(wrapped)
    return wrapped


def _scalar_or_array(values, scalar_input):
    if scalar_input:
        return float(values)
    return values


# ---------------------------------------------------------------------------
# kernel variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformWindow:
    """Constant link probability inside an angular window, zero outside.

    ``p`` applies whenever the wrapped angular distance is at most
    ``half_width``; the window boundary itself is included.
    """

    p: float
    half_width: float

    @property
    def dimension(self) -> int:
        return 1

    def evaluate(self, angle):
        """Link probability at the given angular separation(s)."""
        scalar = np.ndim(angle) == 0
        wrapped = np.abs(np.atleast_1d(wrap_angle(angle)))
        values = np.where(wrapped <= self.half_width, self.p, 0.0)
        return _scalar_or_array(values[0] if scalar else values, scalar)

    __call__ = evaluate

    def breakpoints(self) -> tuple[float, ...]:
        """Angles in (-pi, pi) where the kernel is discontinuous."""
        if self.half_width >= math.pi:
            return ()
        return (-self.half_width, self.half_width)

    def violations(self) -> list[str]:
        problems = []
        if not (math.isfinite(self.p) and math.isfinite(self.half_width)):
            problems.append("non-finite parameter")
            return problems
        if not 0.0 <= self.p <= 1.0:
            problems.append(f"p out of [0, 1]: {self.p!r}")
        if not 0.0 < self.half_width <= math.pi:
            problems.append(f"half_width out of (0, pi]: {self.half_width!r}")
        return problems


@dataclass(frozen=True)
class CosineSeries:
    """Kernel given by the nonnegative half of a symmetric cosine expansion.

    ``coeffs[k]`` multiplies cos(k*phi) with weight 2 for k >= 1, so the
    value at angle phi is ``coeffs[0] + 2*sum_k coeffs[k]*cos(k*phi)``.  The
    stored half determines the full symmetric expansion because the kernel
    is even.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def dimension(self) -> int:
        return 1

    @property
    def order(self) -> int:
        """Index of the highest stored harmonic."""
        return len(self.coeffs) - 1

    def evaluate(self, angle):
        """Link probability at the given angular separation(s)."""
        scalar = np.ndim(angle) == 0
        phi = np.atleast_1d(np.asarray(angle, dtype=float)).ravel()
        weights = np.full(len(self.coeffs), 2.0)
        weights[0] = 1.0
        harmonics = np.arange(len(self.coeffs))
        values = np.cos(phi[:, None] * harmonics[None, :]) @ (weights * np.asarray(self.coeffs))
        values = values.reshape(np.shape(angle)) if not scalar else values
        return _scalar_or_array(values[0] if scalar else values, scalar)

    __call__ = evaluate

    def breakpoints(self) -> tuple[float, ...]:
        return ()

    def violations(self) -> list[str]:
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.size == 0:
            return ["empty coefficient list"]
        if not np.all(np.isfinite(coeffs)):
            return ["non-finite coefficient"]
        problems = []
        count = 4 * max(self.order, 1) + DENSE_CHECK_EXTRA
        grid = np.linspace(-math.pi, math.pi, count, endpoint=False)
        values = self.evaluate(grid)
        low, high = float(np.min(values)), float(np.max(values))
        if low < -RANGE_TOLERANCE:
            problems.append(f"negative probability (minimum {low:.3e})")
        if high > 1.0 + RANGE_TOLERANCE:
            problems.append(f"probability above 1 (maximum {high:.3e})")
        return problems


@dataclass(frozen=True)
class ProductKernel:
    """Product of independent one-dimensional kernels, one per torus axis."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def dimension(self) -> int:
        return len(self.factors)

    def evaluate(self, angles):
        """Link probability for per-axis angular separations.

        ``angles`` is a vector of length K, or an (N, K) array of such
        vectors.
        """
        arr = np.asarray(angles, dtype=float)
        if arr.ndim == 1:
            if arr.shape[0] != self.dimension:
                raise DimensionError(
                    f"expected {self.dimension} angles, got {arr.shape[0]}")
            return float(np.prod([f.evaluate(a) for f, a in zip(self.factors, arr)]))
        if arr.ndim != 2 or arr.shape[1] != self.dimension:
            raise DimensionError(
                f"expected an (N, {self.dimension}) array, got shape {arr.shape}")
        values = np.ones(arr.shape[0])
        for axis, factor in enumerate(self.factors):
            values = values * factor.evaluate(arr[:, axis])
        return values

    __call__ = evaluate

    def violations(self) -> list[str]:
        if not self.factors:
            return ["no factors"]
        problems = []
        for index, factor in enumerate(self.factors):
            if isinstance(factor, ProductKernel):
                problems.append(f"factor {index}: nested product kernel")
                continue
            if not isinstance(factor, (UniformWindow, CosineSeries)):
                problems.append(f"factor {index}: not a one-dimensional kernel")
                continue
            problems.extend(f"factor {index}: {msg}" for msg in factor.violations())
        return problems


def validate(kernel) -> list[str]:
    """Collect validation problems for a kernel; an empty list means valid."""
    if not hasattr(kernel, "violations"):
        return ["not a kernel object"]
    return kernel.violations()


# ---------------------------------------------------------------------------
# network models
# ---------------------------------------------------------------------------

def _check_or_raise(messages):
    if messages:
        raise KernelValidationError("; ".join(messages))


@dataclass(frozen=True)
class CircleModel:
    """Circle of given radius carrying a one-dimensional kernel."""

    radius: float
    kernel: object

    def __post_init__(self):
        problems = []
        if not (isinstance(self.radius, (int, float)) and math.isfinite(self.radius)
                and self.radius > 0):
            problems.append(f"radius must be positive and finite: {self.radius!r}")
        if isinstance(self.kernel, ProductKernel):
            problems.append("product kernel requires a torus model")
        else:
            problems.extend(validate(self.kernel))
        _check_or_raise(problems)

    @property
    def dimension(self) -> int:
        return 1


@dataclass(frozen=True)
class TorusModel:
    """Flat torus with per-axis radii and a product kernel of matching size."""

    radii: tuple[float, ...]
    kernel: ProductKernel

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        problems = []
        if not self.radii:
            problems.append("no radii")
        if any(not (math.isfinite(r) and r > 0) for r in self.radii):
            problems.append(f"radii must be positive and finite: {self.radii!r}")
        if not isinstance(self.kernel, ProductKernel):
            problems.append("torus model requires a product kernel")
        else:
            problems.extend(validate(self.kernel))
            if self.radii and self.kernel.dimension != len(self.radii):
                problems.append(
                    f"kernel dimension {self.kernel.dimension} does not match "
                    f"{len(self.radii)} radii")
        _check_or_raise(problems)

    @property
    def dimension(self) -> int:
        return len(self.radii)


def model_axes(model) -> list:
    """Per-axis (radius, kernel) pairs of a circle or torus model."""
    if isinstance(model, CircleModel):
        return [(model.radius, model.kernel)]
    if isinstance(model, TorusModel):
        return list(zip(model.radii, model.kernel.factors))
    raise TypeError(f"not a network model: {model!r}")


def mean_degree(model) -> float:
    """Expected number of neighbours of a node under the model.

    Uses closed forms for the built-in kernel variants (window: 2*R*p*w with
    window half-width w; cosine series: 2*pi*R times the constant term) and
    falls back to numerical integration of the kernel otherwise.  A result of
    exactly zero triggers :class:`ZeroMeanDegreeWarning`, because clustering
    and separation normalisations divide by powers of the mean degree.
    """
    if isinstance(model, TorusModel):
        total = 1.0
        for radius, factor in zip(model.radii, model.kernel.factors):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ZeroMeanDegreeWarning)
                total *= mean_degree(CircleModel(radius, factor))
        value = total
    elif isinstance(model, CircleModel):
        kernel = model.kernel
        if isinstance(kernel, UniformWindow):
            value = 2.0 * model.radius * kernel.p * kernel.half_width
        elif isinstance(kernel, CosineSeries):
            value = TWO_PI * model.radius * kernel.coeffs[0]
        else:
            from .quadrature import integrate_periodic
            result = integrate_periodic(kernel.evaluate, kernel.breakpoints(), tol=1e-10)
            value = model.radius * result.value
    else:
        raise TypeError(f"not a network model: {model!r}")
    if value == 0.0:
        warnings.warn("mean degree is zero for this model", ZeroMeanDegreeWarning,
                      stacklevel=2)
    return value


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------
# Schema (see docs/config_schema.md):
#   kernel:  {"type": "uniform", "p": <float>, "half_width": <float>}
#            {"type": "cosine", "coeffs": [<float>, ...]}
#            {"type": "product", "factors": [<kernel>, ...]}
#   model:   {"space": {"type": "circle", "radius": <float>}, "kernel": <kernel>}
#            {"space": {"type": "torus", "radii": [<float>, ...]}, "kernel": <kernel>}

def kernel_from_config(doc: dict):
    """Build a kernel from its JSON-style configuration mapping."""
    if not isinstance(doc, dict):
        raise KernelValidationError(f"kernel config must be a mapping, got {doc!r}")
    kind = doc.get("type")
    if kind == "uniform":
        _require_keys(doc, {"type", "p", "half_width"}, "uniform kernel")
        return UniformWindow(p=float(doc["p"]), half_width=float(doc["half_width"]))
    if kind == "cosine":
        _require_keys(doc, {"type", "coeffs"}, "cosine kernel")
        return CosineSeries(coeffs=tuple(float(c) for c in doc["coeffs"]))
    if kind == "product":
        _require_keys(doc, {"type", "factors"}, "product kernel")
        return ProductKernel(factors=tuple(kernel_from_config(f) for f in doc["factors"]))
    raise KernelValidationError(f"unknown kernel type: {kind!r}")


def _require_keys(doc, allowed, label):
    missing = allowed - set(doc) - {"type"}
    extra = set(doc) - allowed
    if missing:
        raise KernelValidationError(f"{label}: missing keys {sorted(missing)}")
    if extra:
        raise KernelValidationError(f"{label}: unknown keys {sorted(extra)}")


def model_from_config(doc: dict):
    """Build a circle or torus model from its configuration mapping."""
    if not isinstance(doc, dict) or "space" not in doc or "kernel" not in doc:
        raise KernelValidationError("model config needs 'space' and 'kernel' entries")
    kernel = kernel_from_config(doc["kernel"])
    space = doc["space"]
    kind = space.get("type") if isinstance(space, dict) else None
    if kind == "circle":
        if "radius" not in space:
            raise KernelValidationError("circle space needs a 'radius'")
        return CircleModel(radius=float(space["radius"]), kernel=kernel)
    if kind == "torus":
        if "radii" not in space:
            raise KernelValidationError("torus space needs 'radii'")
        return TorusModel(radii=tuple(float(r) for r in space["radii"]), kernel=kernel)
    raise KernelValidationError(f"unknown space type: {kind!r}")


def kernel_to_config(kernel) -> dict:
    """Inverse of :func:`kernel_from_config`."""
    if isinstance(kernel, UniformWindow):
        return {"type": "uniform", "p": kernel.p, "half_width": kernel.half_width}
    if isinstance(kernel, CosineSeries):
        return {"type": "cosine", "coeffs": list(kernel.coeffs)}
    if isinstance(kernel, ProductKernel):
        return {"type": "product",
                "factors": [kernel_to_config(f) for f in kernel.factors]}
    raise TypeError(f"not a kernel: {kernel!r}")


def model_to_config(model) -> dict:
    """Inverse of :func:`model_from_config`."""
    if isinstance(model, CircleModel):
        space = {"type": "circle", "radius": model.radius}
    elif isinstance(model, TorusModel):
        space = {"type": "torus", "radii": list(model.radii)}
    else:
        raise TypeError(f"not a network model: {model!r}")
    return {"space": space, "kernel": kernel_to_config(model.kernel)}
