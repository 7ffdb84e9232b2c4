"""The versioned model warehouse: captured models as durable artefacts.

The paper's economics only work if the captured models — not the raw pages
— are the durable asset: a reopened database must cold-start straight into
model serving.  This module serializes every :class:`CapturedModel` (all
registered families, grouped and piecewise included) together with its
lifecycle state, the observed-error evidence the planner's feedback loop
accumulated, and the planner's cost calibration, into a plain-JSON payload
the :class:`~repro.persist.store.DurableStore` writes at every checkpoint.

JSON (not pickle) on purpose: the warehouse is a *format*, inspectable and
versioned, not a dump of Python internals — deserialization reconstructs
families through their public constructors, so a warehouse written by one
process version loads in another as long as the format version matches.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.core.captured_model import CapturedModel, ModelCoverage
from repro.core.model_store import ModelStore
from repro.core.quality import ModelQuality
from repro.errors import FormatVersionError, PersistenceError, WarehouseError
from repro.fitting.families import LinearModel, Polynomial, family_by_name
from repro.fitting.grouped import GroupFitRecord, GroupedFitResult
from repro.fitting.metrics import FTestResult
from repro.fitting.model import FitResult, ModelFamily
from repro.fitting.piecewise import PiecewisePolynomial, Segment
from repro.persist.wal import coerce_json_scalar

__all__ = [
    "WAREHOUSE_FORMAT_VERSION",
    "serialize_model",
    "deserialize_model",
    "serialize_store",
    "restore_store",
]

WAREHOUSE_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# JSON sanitation
# ---------------------------------------------------------------------------


def _jsonable(value: Any) -> Any:
    """Coerce a value into something JSON round-trips losslessly.

    NumPy scalars/arrays become Python scalars/lists; mappings and sequences
    recurse; anything exotic falls back to ``repr`` (metadata is free-form —
    losing an unserializable note beats refusing to checkpoint)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return coerce_json_scalar(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_jsonable(v) for v in value]
    return repr(value)


# ---------------------------------------------------------------------------
# Model families
# ---------------------------------------------------------------------------


def _family_payload(family: ModelFamily) -> dict[str, Any]:
    """A family as ``{"name", "kwargs"}`` reconstructable via its constructor."""
    if isinstance(family, PiecewisePolynomial):
        return {
            "name": "piecewise",
            "kwargs": {
                "degree": family.degree,
                "segments": [
                    [segment.lower, segment.upper, list(segment.coefficients)]
                    for segment in family.segments
                ],
            },
        }
    if isinstance(family, LinearModel):
        return {
            "name": "linear",
            "kwargs": {
                "input_names": list(family.input_names),
                "intercept": bool(family.intercept),
            },
        }
    if isinstance(family, Polynomial):
        return {"name": "polynomial", "kwargs": {"degree": family.degree}}
    return {"name": family.name, "kwargs": {}}


def _family_from_payload(payload: dict[str, Any]) -> ModelFamily:
    name = payload["name"]
    kwargs = dict(payload.get("kwargs", {}))
    if name == "piecewise":
        segments = [
            Segment(lower=float(lo), upper=float(hi), coefficients=tuple(float(c) for c in coeffs))
            for lo, hi, coeffs in kwargs["segments"]
        ]
        return PiecewisePolynomial(segments, int(kwargs["degree"]))
    if name == "linear":
        kwargs["input_names"] = tuple(kwargs.get("input_names", ("x",)))
    return family_by_name(name, **kwargs)


# ---------------------------------------------------------------------------
# Fit results
# ---------------------------------------------------------------------------


def _fit_result_payload(fit: FitResult) -> dict[str, Any]:
    return {
        "family": _family_payload(fit.family),
        "params": [float(p) for p in np.asarray(fit.params, dtype=np.float64)],
        "input_names": list(fit.input_names),
        "output_name": fit.output_name,
        "n_observations": int(fit.n_observations),
        "residual_standard_error": float(fit.residual_standard_error),
        "r_squared": float(fit.r_squared),
        "adjusted_r_squared": float(fit.adjusted_r_squared),
        "sum_squared_residuals": float(fit.sum_squared_residuals),
        "covariance": None if fit.covariance is None else _jsonable(fit.covariance),
        "iterations": int(fit.iterations),
        "converged": bool(fit.converged),
        "extra": _jsonable(fit.extra),
    }


def _fit_result_from_payload(payload: dict[str, Any]) -> FitResult:
    covariance = payload.get("covariance")
    family = _family_from_payload(payload["family"])
    params = np.asarray(payload["params"], dtype=np.float64)
    input_names = tuple(payload["input_names"])
    # Backward-tolerant decoding (missing fields default) means a silently
    # corrupted key can decode into an *internally inconsistent* fit — e.g.
    # a linear family defaulting to input "x" while the fit was over "t" —
    # which would only explode (untyped) at serve time.  Cross-check here so
    # corruption surfaces as a typed error and quarantines the entry.  Only
    # LinearModel carries its own input names (and looks inputs up by them);
    # every other family uses a fixed "x" placeholder, so the fit's recorded
    # column names legitimately differ there.
    if isinstance(family, LinearModel) and tuple(family.input_names) != input_names:
        raise PersistenceError(
            f"warehouse fit payload is inconsistent: family expects inputs "
            f"{tuple(family.input_names)!r} but the fit recorded {input_names!r}"
        )
    param_names = getattr(family, "param_names", None)
    if param_names is not None and len(params) != len(param_names):
        raise PersistenceError(
            f"warehouse fit payload is inconsistent: family {family.name!r} "
            f"takes {len(param_names)} parameter(s) but {len(params)} stored"
        )
    return FitResult(
        family=family,
        params=params,
        input_names=input_names,
        output_name=payload["output_name"],
        n_observations=int(payload["n_observations"]),
        residual_standard_error=float(payload["residual_standard_error"]),
        r_squared=float(payload["r_squared"]),
        adjusted_r_squared=float(payload["adjusted_r_squared"]),
        sum_squared_residuals=float(payload["sum_squared_residuals"]),
        covariance=None if covariance is None else np.asarray(covariance, dtype=np.float64),
        iterations=int(payload.get("iterations", 0)),
        converged=bool(payload.get("converged", True)),
        extra=dict(payload.get("extra", {})),
    )


def _grouped_payload(fit: GroupedFitResult) -> dict[str, Any]:
    records = []
    for record in fit.records:
        records.append(
            {
                "key": [_jsonable(part) for part in record.key],
                "n_observations": int(record.n_observations),
                "error": record.error,
                "result": None if record.result is None else _fit_result_payload(record.result),
            }
        )
    return {
        "family": _family_payload(fit.family),
        "group_columns": list(fit.group_columns),
        "input_columns": list(fit.input_columns),
        "output_column": fit.output_column,
        "records": records,
    }


def _grouped_from_payload(payload: dict[str, Any]) -> GroupedFitResult:
    result = GroupedFitResult(
        family=_family_from_payload(payload["family"]),
        group_columns=tuple(payload["group_columns"]),
        input_columns=tuple(payload["input_columns"]),
        output_column=payload["output_column"],
    )
    for record in payload["records"]:
        result.records.append(
            GroupFitRecord(
                key=tuple(record["key"]),
                result=None if record["result"] is None else _fit_result_from_payload(record["result"]),
                error=record.get("error"),
                n_observations=int(record.get("n_observations", 0)),
            )
        )
    return result


# ---------------------------------------------------------------------------
# Quality
# ---------------------------------------------------------------------------


def _quality_payload(quality: ModelQuality) -> dict[str, Any]:
    f_test = None
    if quality.f_test is not None:
        f_test = {
            "f_statistic": float(quality.f_test.f_statistic),
            "p_value": float(quality.f_test.p_value),
            "df_numerator": int(quality.f_test.df_numerator),
            "df_denominator": int(quality.f_test.df_denominator),
        }
    return {
        "r_squared": float(quality.r_squared),
        "adjusted_r_squared": float(quality.adjusted_r_squared),
        "residual_standard_error": float(quality.residual_standard_error),
        "n_observations": int(quality.n_observations),
        "f_test": f_test,
        "relative_rse": None if quality.relative_rse is None else float(quality.relative_rse),
    }


def _quality_from_payload(payload: dict[str, Any]) -> ModelQuality:
    f_test = payload.get("f_test")
    return ModelQuality(
        r_squared=float(payload["r_squared"]),
        adjusted_r_squared=float(payload["adjusted_r_squared"]),
        residual_standard_error=float(payload["residual_standard_error"]),
        n_observations=int(payload["n_observations"]),
        f_test=None if f_test is None else FTestResult(**f_test),
        relative_rse=(
            None if payload.get("relative_rse") is None else float(payload["relative_rse"])
        ),
    )


# ---------------------------------------------------------------------------
# Captured models
# ---------------------------------------------------------------------------


def serialize_model(model: CapturedModel) -> dict[str, Any]:
    """One captured model as a JSON-friendly payload (lossless round trip)."""
    if isinstance(model.fit, GroupedFitResult):
        fit_payload: dict[str, Any] = {"kind": "grouped", **_grouped_payload(model.fit)}
    else:
        fit_payload = {"kind": "single", **_fit_result_payload(model.fit)}
    return {
        "model_id": int(model.model_id),
        "coverage": {
            "table_name": model.coverage.table_name,
            "input_columns": list(model.coverage.input_columns),
            "output_column": model.coverage.output_column,
            "group_columns": list(model.coverage.group_columns),
            "predicate_sql": model.coverage.predicate_sql,
            "row_range": (
                None if model.coverage.row_range is None else list(model.coverage.row_range)
            ),
        },
        "formula": model.formula,
        "fit": fit_payload,
        "quality": _quality_payload(model.quality),
        "accepted": bool(model.accepted),
        "group_fit_fraction": float(model.group_fit_fraction),
        "fitted_row_count": int(model.fitted_row_count),
        "metadata": _jsonable(model.metadata),
        "status": model.status,
        "observed_errors": [float(e) for e in model.observed_errors],
    }


def deserialize_model(payload: dict[str, Any]) -> CapturedModel:
    """Decode one warehouse entry; corruption surfaces as typed errors.

    A structurally-broken entry (missing keys, wrong types, garbage where a
    number should be) raises :class:`~repro.errors.WarehouseError` naming
    the model, never a bare ``KeyError``/``ValueError`` — recovery relies on
    this to isolate and quarantine exactly the bad entries.
    """
    try:
        return _deserialize_model(payload)
    except PersistenceError:
        raise
    except (KeyError, ValueError, TypeError, IndexError, AttributeError) as exc:
        model_id = payload.get("model_id", "?") if isinstance(payload, dict) else "?"
        raise WarehouseError(
            f"warehouse entry for model {model_id!r} cannot be decoded: {exc!r}"
        ) from exc


def _deserialize_model(payload: dict[str, Any]) -> CapturedModel:
    fit_payload = payload["fit"]
    if fit_payload["kind"] == "grouped":
        fit: FitResult | GroupedFitResult = _grouped_from_payload(fit_payload)
    elif fit_payload["kind"] == "single":
        fit = _fit_result_from_payload(fit_payload)
    else:
        raise PersistenceError(f"unknown fit kind {fit_payload['kind']!r} in warehouse")
    coverage = payload["coverage"]
    return CapturedModel(
        coverage=ModelCoverage(
            table_name=coverage["table_name"],
            input_columns=tuple(coverage["input_columns"]),
            output_column=coverage["output_column"],
            group_columns=tuple(coverage["group_columns"]),
            predicate_sql=coverage.get("predicate_sql"),
            row_range=(
                None
                if coverage.get("row_range") is None
                else (int(coverage["row_range"][0]), int(coverage["row_range"][1]))
            ),
        ),
        formula=payload["formula"],
        fit=fit,
        quality=_quality_from_payload(payload["quality"]),
        accepted=bool(payload["accepted"]),
        group_fit_fraction=float(payload.get("group_fit_fraction", 1.0)),
        model_id=int(payload["model_id"]),
        fitted_row_count=int(payload.get("fitted_row_count", 0)),
        metadata=dict(payload.get("metadata", {})),
        status=payload.get("status", "active"),
        observed_errors=[float(e) for e in payload.get("observed_errors", [])],
    )


# ---------------------------------------------------------------------------
# Whole-store payloads
# ---------------------------------------------------------------------------


def serialize_store(store: ModelStore) -> dict[str, Any]:
    """Every captured model (all lifecycle states — provenance included)."""
    models = sorted(store.all_models(), key=lambda m: m.model_id)
    return {
        "format_version": WAREHOUSE_FORMAT_VERSION,
        "models": [serialize_model(model) for model in models],
    }


def restore_store(payload: dict[str, Any], store: ModelStore) -> list[CapturedModel]:
    """Load a warehouse payload into ``store``; returns the restored models.

    Every entry is decoded before any is added, so a payload with an
    undecodable entry raises with ``store`` untouched — recovery quarantines
    the offenders and calls again with the rest.
    """
    version = int(payload.get("format_version", 0))
    if version > WAREHOUSE_FORMAT_VERSION:
        raise FormatVersionError(
            f"warehouse format v{version} is newer than this build supports "
            f"(v{WAREHOUSE_FORMAT_VERSION}); upgrade before opening it"
        )
    models = [deserialize_model(entry) for entry in payload.get("models", [])]
    return [store.add(model) for model in models]
