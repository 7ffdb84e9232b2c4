"""Model exploration: finding interesting regions of the model's domain.

§4.2, "Model exploration": "we can find interesting subsets of the data by
analyzing the first derivative of the model function for regions in the
parameter space with high gradients."  This module evaluates the captured
model over a grid of its input domain, computes numerical gradients, and
returns the regions (grid cells) ranked by gradient magnitude — plus a
parameter-space ranking for grouped models (which groups have extreme
fitted parameters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from repro.core.captured_model import CapturedModel
from repro.errors import ApproximationError
from repro.fitting.grouped import GroupedFitResult

__all__ = ["InterestingRegion", "explore_gradients", "extreme_parameter_groups"]


@dataclass(frozen=True)
class InterestingRegion:
    """A sub-interval of one input with the model's gradient over it."""

    input_column: str
    lower: float
    upper: float
    mean_gradient: float
    max_gradient: float

    def __str__(self) -> str:
        return (
            f"{self.input_column} in [{self.lower:.4g}, {self.upper:.4g}]: "
            f"|dy/dx| mean={self.mean_gradient:.4g}, max={self.max_gradient:.4g}"
        )


def explore_gradients(
    model: CapturedModel,
    input_ranges: Mapping[str, tuple[float, float]],
    group_key: tuple[Any, ...] | Any | None = None,
    num_points: int = 256,
    num_regions: int = 8,
) -> dict[str, list[InterestingRegion]]:
    """Rank sub-intervals of each input by the model's gradient magnitude.

    Each input column is scanned independently (other inputs held at their
    range midpoint); the scan is split into ``num_regions`` equal-width
    regions which are returned sorted by mean |gradient|, steepest first.
    """
    missing = [name for name in model.input_columns if name not in input_ranges]
    if missing:
        raise ApproximationError(f"exploration needs ranges for inputs {missing}")

    fit = model.result_for_group(group_key) if model.is_grouped else model.fit

    results: dict[str, list[InterestingRegion]] = {}
    for column in model.input_columns:
        low, high = input_ranges[column]
        if high <= low:
            high = low + 1.0
        xs = np.linspace(low, high, num_points)
        inputs = {
            other: np.full(num_points, (input_ranges[other][0] + input_ranges[other][1]) / 2.0)
            for other in model.input_columns
            if other != column
        }
        inputs[column] = xs
        values = fit.predict(inputs)
        gradient = np.gradient(values, xs)

        boundaries = np.linspace(low, high, num_regions + 1)
        regions: list[InterestingRegion] = []
        for i in range(num_regions):
            mask = (xs >= boundaries[i]) & (xs <= boundaries[i + 1])
            if not mask.any():
                continue
            magnitude = np.abs(gradient[mask])
            regions.append(
                InterestingRegion(
                    input_column=column,
                    lower=float(boundaries[i]),
                    upper=float(boundaries[i + 1]),
                    mean_gradient=float(np.mean(magnitude)),
                    max_gradient=float(np.max(magnitude)),
                )
            )
        results[column] = sorted(regions, key=lambda region: region.mean_gradient, reverse=True)
    return results


def extreme_parameter_groups(
    model: CapturedModel,
    parameter: str,
    k: int = 10,
    largest: bool = True,
) -> list[tuple[tuple[Any, ...], float]]:
    """Groups with the most extreme fitted value of one model parameter.

    For the LOFAR model this answers questions such as "which sources have
    the steepest spectral index" directly from the parameter table.
    """
    if not model.is_grouped:
        raise ApproximationError("parameter ranking requires a grouped model")
    if parameter not in model.fit.family.param_names:  # type: ignore[union-attr]
        raise ApproximationError(
            f"model family {model.family_name!r} has no parameter {parameter!r}; "
            f"parameters: {list(model.fit.family.param_names)}"  # type: ignore[union-attr]
        )
    fit: GroupedFitResult = model.fit  # type: ignore[assignment]
    column = fit.params[:, fit.family.param_names.index(parameter)]
    values = [(fit.keys[row], float(column[row])) for row in np.flatnonzero(fit.succeeded)]
    values.sort(key=lambda pair: pair[1], reverse=largest)
    return values[:k]
