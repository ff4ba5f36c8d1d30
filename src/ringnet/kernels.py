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
    """A kernel or model failed validation.

    ``kernel_problems`` lists the kernel's own violations when a model
    checked its kernel before refusing, and is ``None`` otherwise.
    """

    def __init__(self, message, kernel_problems=None):
        super().__init__(message)
        self.kernel_problems = kernel_problems


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
        return float(values[0]) if scalar else values

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


@dataclass(frozen=True, init=False, repr=False, eq=False)
class CosineSeries:
    """Kernel given by the nonnegative half of a symmetric cosine expansion.

    ``coeffs[k]`` multiplies cos(k*phi) with weight 2 for k >= 1, so the
    value at angle phi is ``coeffs[0] + 2*sum_k coeffs[k]*cos(k*phi)``.  The
    stored half determines the full symmetric expansion because the kernel
    is even.  The same object is the truncated expansion whose coefficient
    power sums the series routes in :mod:`ringnet.fourier` evaluate (there
    also named ``FourierSeries``); coefficients past the stored order count
    as zero.  An empty, nested or non-finite coefficient list is refused.
    A series holds one read-only float array and is immutable; the tuple
    ``coeffs`` is built from that array only when read.
    """

    _array: np.ndarray

    def __init__(self, coeffs):
        self._adopt(np.array(coeffs, dtype=float))

    @classmethod
    def _owning(cls, array: np.ndarray) -> "CosineSeries":
        # the series of a float array that no one else holds, taken as the
        # series' own instead of copied as the constructor copies
        series = cls.__new__(cls)
        series._adopt(array)
        return series

    def _adopt(self, array: np.ndarray):
        if array.ndim != 1:
            raise KernelValidationError("cosine coefficients must be a flat sequence")
        if not array.size:
            raise KernelValidationError("empty coefficient list")
        if not np.all(np.isfinite(array)):
            raise KernelValidationError("non-finite coefficient")
        array.setflags(write=False)
        object.__setattr__(self, "_array", array)

    @property
    def coeffs(self) -> tuple[float, ...]:
        """The coefficients as a tuple of floats, built anew on each read."""
        return tuple(self._array.tolist())

    def __repr__(self):
        return f"CosineSeries(coeffs={self.coeffs!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self._array, other._array)

    def __hash__(self):  # equal series hash alike, as hash(0.0) == hash(-0.0)
        return hash((self.coeffs,))

    @property
    def dimension(self) -> int:
        return 1

    @property
    def order(self) -> int:
        """Index of the highest stored harmonic."""
        return self._array.size - 1

    def evaluate(self, angle):
        """Link probability at the given angular separation(s): a float for a
        scalar, else an array of the input's shape.

        Clenshaw's recurrence b_k = a_k + 2 cos(phi) b_{k+1} - b_{k+2} over
        a_0 = coeffs[0], a_k = 2 coeffs[k], in Reinsch's form: on b_k and
        d_k = b_k - b_{k+1} with the step mu = -4 sin^2(phi/2) for |phi| <=
        pi/2, and beyond that at pi - phi (mu = -4 cos^2(phi/2), odd a_k
        negated), bit for bit Reinsch's 4 cos^2(phi/2) form.  All steps are
        elementwise, so no value depends on the call's other angles or shape.
        As |d_k| <= sqrt(2) sum|a_k| and |mu b_k| <= 2 sum|a_k|, to first
        order in eps = 2**-52 the error is at most
        ``8 * (order + 1) * eps * sum|a_k|``.
        """
        scalar = np.ndim(angle) == 0
        phi = np.array(angle, dtype=float).ravel()  # a contiguous copy
        sin2 = np.square(np.sin(0.5 * phi))
        cos2 = np.square(np.cos(0.5 * phi))
        near = sin2 <= cos2  # |phi| <= pi/2, up to whole turns
        step = -4.0 * np.where(near, sin2, cos2)
        flip = np.where(near, 1.0, -1.0)
        coeffs = 2.0 * self._array
        b, d, term = np.zeros(phi.size), np.zeros(phi.size), np.empty(phi.size)
        for k in range(self.order, 0, -1):
            np.multiply(step, b, out=term)
            term += coeffs[k] * flip if k % 2 else coeffs[k]
            d += term
            b += d
        values = b * step * 0.5 + d + self._array[0]
        return float(values[0]) if scalar else values.reshape(np.shape(angle))

    __call__ = evaluate

    def breakpoints(self) -> tuple[float, ...]:
        return ()

    def violations(self) -> list[str]:
        problems = []
        count = 4 * max(self.order, 1) + DENSE_CHECK_EXTRA
        values = self.evaluate(np.linspace(-math.pi, math.pi, count, endpoint=False))
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

def _check_or_raise(messages, kernel_problems):
    if messages:
        raise KernelValidationError("; ".join(messages), kernel_problems)


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
        kernel_problems = None
        if isinstance(self.kernel, ProductKernel):
            problems.append("product kernel requires a torus model")
        else:
            kernel_problems = validate(self.kernel)
            problems.extend(kernel_problems)
        _check_or_raise(problems, kernel_problems)

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
        kernel_problems = None
        if not isinstance(self.kernel, ProductKernel):
            problems.append("torus model requires a product kernel")
        else:
            kernel_problems = validate(self.kernel)
            problems.extend(kernel_problems)
            if self.radii and self.kernel.dimension != len(self.radii):
                problems.append(
                    f"kernel dimension {self.kernel.dimension} does not match "
                    f"{len(self.radii)} radii")
        _check_or_raise(problems, kernel_problems)

    @property
    def dimension(self) -> int:
        return len(self.radii)


def model_axes(model) -> list:
    """Per-axis (radius, kernel) pairs of a circle or torus model, a circle
    being the one-axis case: every route reads a model through these."""
    if isinstance(model, CircleModel):
        return [(model.radius, model.kernel)]
    if isinstance(model, TorusModel):
        return list(zip(model.radii, model.kernel.factors))
    raise TypeError(f"not a network model: {model!r}")


def axis_mean_degree(radius: float, kernel) -> float:
    """Mean degree of a circle of ``radius`` carrying the one-dimensional
    ``kernel``, from the two alone: no model is built, so the kernel is not
    validated again, and a zero draws no warning.  A kernel that is neither
    a window nor a cosine series raises ``TypeError``."""
    if isinstance(kernel, UniformWindow):
        return 2.0 * radius * kernel.p * kernel.half_width
    if isinstance(kernel, CosineSeries):
        return TWO_PI * radius * float(kernel._array[0])
    raise TypeError(f"not a one-dimensional kernel: {kernel!r}")


def mean_degree(model) -> float:
    """Expected number of neighbours of a node under the model.

    Uses closed forms for the built-in kernel variants (window: 2*R*p*w with
    window half-width w; cosine series: 2*pi*R times the constant term) and
    raises ``TypeError`` for any other kernel; on a torus it is the product
    over the axes.  A result of exactly zero triggers
    :class:`ZeroMeanDegreeWarning`, because clustering and separation
    normalisations divide by powers of the mean degree.
    """
    value = 1.0
    for radius, kernel in model_axes(model):
        value *= axis_mean_degree(radius, kernel)
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
        return UniformWindow(p=_number(doc["p"], "uniform kernel p"),
                             half_width=_number(doc["half_width"], "uniform kernel half_width"))
    if kind == "cosine":
        _require_keys(doc, {"type", "coeffs"}, "cosine kernel")
        coeffs = doc["coeffs"]
        if not isinstance(coeffs, (list, tuple)):
            raise KernelValidationError(f"cosine kernel coeffs must be a list, got {coeffs!r}")
        return CosineSeries(coeffs=[_number(c, "cosine coefficient") for c in coeffs])
    if kind == "product":
        _require_keys(doc, {"type", "factors"}, "product kernel")
        return ProductKernel(factors=tuple(kernel_from_config(f) for f in doc["factors"]))
    raise KernelValidationError(f"unknown kernel type: {kind!r}")


def _number(value, label):
    # a JSON number only: float() would also read the string "0.1" and true
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise KernelValidationError(f"{label} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond float range reads as 1e400 does
        return math.inf if value > 0 else -math.inf


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
        return CircleModel(radius=_number(space["radius"], "radius"), kernel=kernel)
    if kind == "torus":
        if "radii" not in space:
            raise KernelValidationError("torus space needs 'radii'")
        return TorusModel(radii=tuple(_number(r, "radius") for r in space["radii"]),
                          kernel=kernel)
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
