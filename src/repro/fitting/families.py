"""Built-in model families.

The paper's motivating model is the radio-astronomy power law
``I = p * nu**alpha``; the other families cover the regularities the
TPC-DS-lite generator plants (linear relationships, polynomial trends,
seasonal/sinusoidal curves, exponential decay) and the piecewise functions
the FunctionDB baseline needs.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.errors import FittingError, InsufficientDataError
from repro.fitting.metrics import median
from repro.fitting.model import ModelFamily

__all__ = [
    "PowerLaw",
    "Exponential",
    "LinearModel",
    "Polynomial",
    "Constant",
    "Logistic",
    "Sinusoid",
    "family_by_name",
    "FAMILY_REGISTRY",
]


def _single_input(inputs: Mapping[str, np.ndarray] | np.ndarray, name: str = "x") -> np.ndarray:
    """Extract a single input array regardless of how the inputs were passed."""
    if isinstance(inputs, np.ndarray):
        array = np.asarray(inputs, dtype=np.float64)
        return array[:, 0] if array.ndim > 1 else array
    if name in inputs:
        return np.asarray(inputs[name], dtype=np.float64)
    if len(inputs) == 1:
        return np.asarray(next(iter(inputs.values())), dtype=np.float64)
    raise FittingError(f"expected a single input column named {name!r}, got {sorted(inputs)}")


class PowerLaw(ModelFamily):
    """``y = p * x**alpha`` — the paper's spectral-index model (§2).

    The family is non-linear in (p, alpha) but linearises under log-log
    transformation, which is how :meth:`initial_guess` seeds the optimiser
    (and how the closed-form fallback fit works for strictly positive data).
    """

    name = "powerlaw"
    param_names = ("p", "alpha")

    def predict(self, inputs, params):
        x = _single_input(inputs)
        p, alpha = params
        with np.errstate(all="ignore"):
            return p * np.power(x, alpha)

    def predict_many(self, inputs, params):
        x = _single_input(inputs)
        params = np.asarray(params, dtype=np.float64)
        with np.errstate(all="ignore"):
            return params[:, :1] * np.power(x, params[:, 1:])

    def initial_guess(self, inputs, y):
        x = _single_input(inputs)
        y = np.asarray(y, dtype=np.float64)
        mask = (x > 0) & (y > 0)
        if mask.sum() < 2:
            return np.array([1.0, 1.0])
        log_x = np.log(x[mask])
        log_y = np.log(y[mask])
        slope, intercept = np.polyfit(log_x, log_y, 1)
        return np.array([float(np.exp(intercept)), float(slope)])

    def jacobian(self, inputs, params):
        x = _single_input(inputs)
        p, alpha = params
        with np.errstate(all="ignore"):
            x_alpha = np.power(x, alpha)
            d_p = x_alpha
            d_alpha = np.where(x > 0, p * x_alpha * np.log(np.where(x > 0, x, 1.0)), 0.0)
        return np.column_stack([d_p, d_alpha])

    def describe(self) -> str:
        return "p * x**alpha"


class Exponential(ModelFamily):
    """``y = a * exp(b * x)`` — exponential growth/decay."""

    name = "exponential"
    param_names = ("a", "b")

    def predict(self, inputs, params):
        x = _single_input(inputs)
        a, b = params
        with np.errstate(all="ignore"):
            return a * np.exp(b * x)

    def predict_many(self, inputs, params):
        x = _single_input(inputs)
        params = np.asarray(params, dtype=np.float64)
        with np.errstate(all="ignore"):
            return params[:, :1] * np.exp(params[:, 1:] * x)

    def initial_guess(self, inputs, y):
        x = _single_input(inputs)
        y = np.asarray(y, dtype=np.float64)
        mask = y > 0
        if mask.sum() < 2:
            return np.array([1.0, 0.0])
        slope, intercept = np.polyfit(x[mask], np.log(y[mask]), 1)
        return np.array([float(np.exp(intercept)), float(slope)])

    def jacobian(self, inputs, params):
        x = _single_input(inputs)
        a, b = params
        with np.errstate(all="ignore"):
            exp_bx = np.exp(b * x)
        return np.column_stack([exp_bx, a * x * exp_bx])

    def describe(self) -> str:
        return "a * exp(b * x)"


class LinearModel(ModelFamily):
    """Multiple linear regression ``y = b0 + b1*x1 + ... + bk*xk``."""

    name = "linear"
    is_linear = True

    def __init__(self, input_names: tuple[str, ...] = ("x",), intercept: bool = True) -> None:
        self._input_names = tuple(input_names)
        self.intercept = intercept
        names = []
        if intercept:
            names.append("intercept")
        names.extend(f"beta_{name}" for name in self._input_names)
        self.param_names = tuple(names)

    @property
    def input_names(self) -> tuple[str, ...]:
        return self._input_names

    def design_columns(self, inputs):
        if isinstance(inputs, np.ndarray):
            array = np.asarray(inputs, dtype=np.float64)
            columns = [array] if array.ndim == 1 else list(array.T)
        else:
            columns = [np.asarray(inputs[name], dtype=np.float64) for name in self._input_names]
        return [np.broadcast_to(1.0, len(columns[0])), *columns] if self.intercept else columns

    def design_matrix(self, inputs):
        return np.column_stack(self.design_columns(inputs))

    def predict(self, inputs, params):
        return self.design_matrix(inputs) @ np.asarray(params, dtype=np.float64)

    def initial_guess(self, inputs, y):
        return np.zeros(self.num_params)

    def describe(self) -> str:
        terms = []
        if self.intercept:
            terms.append("b0")
        terms.extend(f"b{i+1}*{name}" for i, name in enumerate(self._input_names))
        return " + ".join(terms)


class Polynomial(ModelFamily):
    """Polynomial of a fixed degree in one variable (linear in parameters)."""

    name = "polynomial"
    is_linear = True

    def __init__(self, degree: int = 2) -> None:
        if degree < 0:
            raise FittingError("polynomial degree must be non-negative")
        self.degree = degree
        self.param_names = tuple(f"c{i}" for i in range(degree + 1))

    def design_columns(self, inputs):
        x = _single_input(inputs)
        return [np.broadcast_to(1.0, len(x)), *(x**i for i in range(1, self.degree + 1))]

    def design_matrix(self, inputs):
        return np.column_stack(self.design_columns(inputs))

    def predict(self, inputs, params):
        return self.design_matrix(inputs) @ np.asarray(params, dtype=np.float64)

    def initial_guess(self, inputs, y):
        return np.zeros(self.num_params)

    def describe(self) -> str:
        return " + ".join(f"c{i}*x^{i}" if i else "c0" for i in range(self.degree + 1))


class Constant(ModelFamily):
    """``y = c`` — the trivial one-parameter model, used by the F-test baseline."""

    name = "constant"
    is_linear = True
    param_names = ("c",)

    def design_columns(self, inputs):
        return [np.broadcast_to(1.0, len(_single_input(inputs)))]

    def design_matrix(self, inputs):
        return np.column_stack(self.design_columns(inputs))

    def predict(self, inputs, params):
        x = _single_input(inputs)
        return np.full(len(x), float(params[0]))

    def initial_guess(self, inputs, y):
        y = np.asarray(y, dtype=np.float64)
        if len(y) == 0:
            raise InsufficientDataError("cannot fit a constant to zero observations")
        return np.array([float(np.mean(y))])

    def describe(self) -> str:
        return "c"


class Logistic(ModelFamily):
    """``y = L / (1 + exp(-k * (x - x0)))`` — saturating growth."""

    name = "logistic"
    param_names = ("L", "k", "x0")

    def predict(self, inputs, params):
        x = _single_input(inputs)
        L, k, x0 = params
        with np.errstate(all="ignore"):
            return L / (1.0 + np.exp(-k * (x - x0)))

    def initial_guess(self, inputs, y):
        x = _single_input(inputs)
        y = np.asarray(y, dtype=np.float64)
        L = float(np.max(y)) * 1.05 if len(y) else 1.0
        if L <= 0:
            L = 1.0
        x0 = median(x) if len(x) else 0.0
        return np.array([L, 1.0, x0])

    def jacobian(self, inputs, params):
        x = _single_input(inputs)
        L, k, x0 = params
        with np.errstate(all="ignore"):
            z = np.exp(-k * (x - x0))
            denom = (1.0 + z) ** 2
            d_L = 1.0 / (1.0 + z)
            d_k = L * (x - x0) * z / denom
            d_x0 = -L * k * z / denom
        return np.column_stack([d_L, d_k, d_x0])

    def describe(self) -> str:
        return "L / (1 + exp(-k*(x - x0)))"


class Sinusoid(ModelFamily):
    """``y = a * sin(omega * x + phi) + c`` — seasonal / periodic signals."""

    name = "sinusoid"
    param_names = ("a", "omega", "phi", "c")

    def predict(self, inputs, params):
        x = _single_input(inputs)
        a, omega, phi, c = params
        return a * np.sin(omega * x + phi) + c

    def initial_guess(self, inputs, y):
        x = _single_input(inputs)
        y = np.asarray(y, dtype=np.float64)
        if len(y) < 4:
            return np.array([1.0, 1.0, 0.0, 0.0])
        amplitude = float((np.max(y) - np.min(y)) / 2.0) or 1.0
        offset = float(np.mean(y))
        omega = self._dominant_omega(x, y, offset)
        return np.array([amplitude, omega, 0.0, offset])

    @staticmethod
    def _dominant_omega(x: np.ndarray, y: np.ndarray, offset: float) -> float:
        """Estimate the angular frequency from the periodogram.

        Sinusoid fitting is multi-modal in omega, so a good starting
        frequency matters far more than the other parameters.  Observations
        are sorted and treated as (approximately) uniformly sampled; the FFT
        bin with the largest magnitude gives the dominant frequency.
        """
        order = np.argsort(x)
        xs, ys = x[order], y[order] - offset
        span = float(xs[-1] - xs[0])
        if span <= 0 or len(xs) < 8:
            return 1.0
        spectrum = np.abs(np.fft.rfft(ys))
        if len(spectrum) < 2:
            return 2.0 * np.pi / span
        dominant_bin = int(np.argmax(spectrum[1:]) + 1)
        frequency = dominant_bin / span
        return float(2.0 * np.pi * frequency)

    def jacobian(self, inputs, params):
        x = _single_input(inputs)
        a, omega, phi, c = params
        inner = omega * x + phi
        return np.column_stack([np.sin(inner), a * x * np.cos(inner), a * np.cos(inner), np.ones(len(x))])

    def describe(self) -> str:
        return "a * sin(omega*x + phi) + c"


#: Registry used by the formula parser: family name -> constructor (read-only).
FAMILY_REGISTRY = MappingProxyType({
    "powerlaw": PowerLaw,
    "exponential": Exponential,
    "linear": LinearModel,
    "polynomial": Polynomial,
    "poly": Polynomial,
    "constant": Constant,
    "logistic": Logistic,
    "sinusoid": Sinusoid,
})


def family_by_name(name: str, **kwargs) -> ModelFamily:
    """Instantiate a registered model family by name."""
    key = name.lower()
    if key not in FAMILY_REGISTRY:
        raise FittingError(f"unknown model family {name!r}; known: {sorted(FAMILY_REGISTRY)}")
    return FAMILY_REGISTRY[key](**kwargs)
