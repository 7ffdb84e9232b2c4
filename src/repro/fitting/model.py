"""Core fitting abstractions: model families and fit results.

A *model family* is the "arbitrary function of the input variables"
(§3 of the paper) together with its "constant but unknown parameters".  A
*fit result* pairs a family with estimated parameter values and the
goodness-of-fit measures the paper requires (residual standard error, R²),
and knows how to predict new outputs — which is everything the approximate
query engine needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.errors import FittingError, InsufficientDataError

__all__ = ["ModelFamily", "FitResult", "design_matrix"]


class ModelFamily:
    """Base class for model families (power law, linear, polynomial, ...).

    Subclasses must define :attr:`param_names` and implement
    :meth:`predict`.  Families that admit an analytic least-squares solution
    set :attr:`is_linear` to True and implement :meth:`design_matrix`;
    non-linear families provide :meth:`initial_guess` (and, optionally,
    :meth:`jacobian`) for the iterative optimisers.
    """

    #: Short machine name, e.g. ``"powerlaw"``.
    name: str = "abstract"
    #: Ordered parameter names, e.g. ``("p", "alpha")``.
    param_names: tuple[str, ...] = ()
    #: True when the family is linear in its parameters.
    is_linear: bool = False

    @property
    def num_params(self) -> int:
        return len(self.param_names)

    # -- prediction -----------------------------------------------------------

    def predict(self, inputs: Mapping[str, np.ndarray] | np.ndarray, params: np.ndarray) -> np.ndarray:
        """Evaluate the model function for the given inputs and parameters."""
        raise NotImplementedError

    def predict_many(self, inputs: Mapping[str, np.ndarray] | np.ndarray, params: np.ndarray) -> np.ndarray:
        """Evaluate the model under every row of a ``(G, P)`` parameter matrix.

        Returns a ``(G, n)`` array whose row ``g`` equals
        ``predict(inputs, params[g])`` — a grouped model answering for all
        its groups over one shared set of input points.  Families linear in
        their parameters take one matrix product over one design matrix;
        the fallback evaluates row by row, and families whose formula
        broadcasts override it.
        """
        params = np.asarray(params, dtype=np.float64)
        if self.is_linear:
            return params @ self.design_matrix(inputs).T
        return np.stack([np.asarray(self.predict(inputs, row), dtype=np.float64) for row in params])

    def predict_rowwise(self, inputs: Mapping[str, np.ndarray] | np.ndarray, params: np.ndarray) -> np.ndarray:
        """Evaluate input point ``i`` under row ``i`` of an ``(n, P)`` parameter matrix.

        The twin of :meth:`predict_many` for a grouped model predicting each
        stored row under its own group's parameters.  Families linear in
        their parameters take a row-wise product with the design matrix; the
        others evaluate their formula with each parameter as a vector.
        """
        params = np.asarray(params, dtype=np.float64)
        if self.is_linear:
            return np.einsum("ij,ij->i", self.design_matrix(inputs), params)
        return np.asarray(self.predict(inputs, params.T), dtype=np.float64)

    # -- linear families --------------------------------------------------------

    def design_matrix(self, inputs: Mapping[str, np.ndarray] | np.ndarray) -> np.ndarray:
        """Return the design matrix X such that ``predict = X @ params``."""
        raise FittingError(f"model family {self.name!r} is not linear in its parameters")

    def design_columns(self, inputs: Mapping[str, np.ndarray] | np.ndarray) -> list[np.ndarray]:
        """The columns of :meth:`design_matrix` as separate, read-only arrays
        (a constant column may be a broadcast), for a reader that works
        column by column (the grouped fit's moments)."""
        return list(self.design_matrix(inputs).T)

    # -- non-linear families ------------------------------------------------------

    def initial_guess(self, inputs: Mapping[str, np.ndarray] | np.ndarray, y: np.ndarray) -> np.ndarray:
        """A starting parameter vector for iterative optimisation."""
        return np.ones(self.num_params, dtype=np.float64)

    def jacobian(self, inputs: Mapping[str, np.ndarray] | np.ndarray, params: np.ndarray) -> np.ndarray | None:
        """Analytic Jacobian of the prediction w.r.t. the parameters, or None."""
        return None

    # -- bookkeeping -----------------------------------------------------------------

    @property
    def input_names(self) -> tuple[str, ...]:
        """Names of the model's input variables, when the family fixes them."""
        return ("x",)

    def param_dict(self, params: np.ndarray) -> dict[str, float]:
        return {name: float(value) for name, value in zip(self.param_names, params)}

    def describe(self) -> str:
        """Human-readable description of the model equation."""
        return f"{self.name}({', '.join(self.param_names)})"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<ModelFamily {self.name} params={self.param_names}>"


def design_matrix(inputs: Mapping[str, np.ndarray] | np.ndarray, columns: Sequence[str] | None = None) -> np.ndarray:
    """Stack named input arrays into a 2-D matrix (column per input)."""
    if isinstance(inputs, np.ndarray):
        array = np.asarray(inputs, dtype=np.float64)
        return array.reshape(-1, 1) if array.ndim == 1 else array
    names = list(columns) if columns is not None else list(inputs)
    if not names:
        raise InsufficientDataError("no input columns supplied")
    return np.column_stack([np.asarray(inputs[name], dtype=np.float64) for name in names])


@dataclass
class FitResult:
    """A fitted model: family, parameter estimates and quality metrics."""

    family: ModelFamily
    params: np.ndarray
    #: Names of the input columns, in the order the family expects them.
    input_names: tuple[str, ...]
    output_name: str
    n_observations: int
    residual_standard_error: float
    r_squared: float
    adjusted_r_squared: float
    sum_squared_residuals: float
    #: Covariance matrix of the parameter estimates, when available.
    covariance: np.ndarray | None = None
    #: Number of optimiser iterations (0 for analytic solutions).
    iterations: int = 0
    converged: bool = True
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def param_dict(self) -> dict[str, float]:
        return self.family.param_dict(self.params)

    @property
    def degrees_of_freedom(self) -> int:
        return max(self.n_observations - self.family.num_params, 0)

    def predict(self, inputs: Mapping[str, np.ndarray] | np.ndarray) -> np.ndarray:
        """Predict outputs for new inputs using the fitted parameters."""
        named = self._as_named(inputs)
        return self.family.predict(named, self.params)

    def design_matrix(self, inputs: Mapping[str, np.ndarray] | np.ndarray) -> np.ndarray:
        """Design matrix X of a linear family for new inputs (``predict = X @ params``)."""
        return self.family.design_matrix(self._as_named(inputs))

    def param_standard_errors(self) -> dict[str, float] | None:
        """Standard errors of the parameter estimates, when covariance is known."""
        if self.covariance is None:
            return None
        variances = np.clip(np.diag(self.covariance), 0.0, None)
        return {
            name: float(np.sqrt(var)) for name, var in zip(self.family.param_names, variances)
        }

    def _as_named(self, inputs: Mapping[str, np.ndarray] | np.ndarray) -> dict[str, np.ndarray]:
        if isinstance(inputs, np.ndarray):
            array = np.asarray(inputs, dtype=np.float64)
            if array.ndim == 1:
                if len(self.input_names) != 1:
                    raise FittingError(
                        f"model expects {len(self.input_names)} inputs {self.input_names}, got a 1-D array"
                    )
                return {self.input_names[0]: array}
            if array.shape[1] != len(self.input_names):
                raise FittingError(
                    f"model expects {len(self.input_names)} input columns, got {array.shape[1]}"
                )
            return {name: array[:, i] for i, name in enumerate(self.input_names)}
        missing = [name for name in self.input_names if name not in inputs]
        if missing:
            raise FittingError(f"missing input columns {missing}; expected {list(self.input_names)}")
        return {name: np.asarray(inputs[name], dtype=np.float64) for name in self.input_names}

    def summary(self) -> str:
        """A short, human-readable fit summary."""
        params = ", ".join(f"{k}={v:.6g}" for k, v in self.param_dict.items())
        return (
            f"{self.output_name} ~ {self.family.describe()} on {list(self.input_names)}: "
            f"{params}; n={self.n_observations}, R2={self.r_squared:.4f}, "
            f"RSE={self.residual_standard_error:.6g}"
        )
