"""Model-warehouse serialization round trips across every model family."""

from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import LawsDatabase

from repro.core.captured_model import CapturedModel, ModelCoverage
from repro.core.model_store import ModelStore
from repro.core.quality import judge_fit
from repro.errors import FormatVersionError
from repro.fitting.fit import fit_model
from repro.fitting.families import family_by_name
from repro.fitting.grouped import GroupedFitResult, fit_grouped
from repro.fitting.model import FitResult
from repro.fitting.piecewise import fit_piecewise
from repro.db.table import Table
from repro.persist.warehouse import (
    WAREHOUSE_FORMAT_VERSION,
    deserialize_model,
    restore_store,
    serialize_model,
    serialize_store,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"

RNG = np.random.default_rng(42)
X = np.linspace(0.5, 8.0, 200)

#: (family name, kwargs, ground-truth generator) for every registered family.
FAMILY_CASES = [
    ("powerlaw", {}, lambda x: 2.5 * x**-0.8),
    ("exponential", {}, lambda x: 1.5 * np.exp(0.3 * x)),
    ("linear", {"input_names": ("x",)}, lambda x: 2.0 + 3.0 * x),
    ("polynomial", {"degree": 3}, lambda x: 1.0 - 0.5 * x + 0.25 * x**3),
    ("constant", {}, lambda x: np.full_like(x, 4.2)),
    ("logistic", {}, lambda x: 10.0 / (1.0 + np.exp(-1.2 * (x - 4.0)))),
    ("sinusoid", {}, lambda x: 2.0 * np.sin(1.5 * x + 0.3) + 5.0),
]


def capture_from_fit(fit, quality=None, **overrides) -> CapturedModel:
    input_names = getattr(fit, "input_names", None) or fit.input_columns
    output_name = getattr(fit, "output_name", None) or fit.output_column
    coverage = ModelCoverage(
        table_name="t",
        input_columns=tuple(input_names),
        output_column=output_name,
        group_columns=overrides.pop("group_columns", ()),
        predicate_sql=overrides.pop("predicate_sql", None),
    )
    formula_default = f"{output_name} ~ test"
    return CapturedModel(
        coverage=coverage,
        formula=overrides.pop("formula", formula_default),
        fit=fit,
        quality=quality if quality is not None else judge_fit(fit),
        accepted=True,
        **overrides,
    )


def json_round_trip(model: CapturedModel) -> CapturedModel:
    # Through real JSON text, not just dict identity: the warehouse file is
    # a format, and the round trip must survive the serializer.
    payload = json.loads(json.dumps(serialize_model(model)))
    return deserialize_model(payload)


#: The parameter table's columns besides its keys and error text.
TABLE_COLUMNS = (
    "params", "rse", "r_squared", "adjusted_r_squared", "sse", "n_obs", "covariance", "iterations", "converged",
)


def assert_same_views(restored: GroupedFitResult, original: GroupedFitResult) -> None:
    """The same table — keys and their types, every column bit for bit (NaN
    rows of failed groups included), error text — and every fitted group's
    ``result_for`` view equal field for field."""
    assert restored.keys == original.keys
    assert [c.dtype for c in restored.key_columns] == [c.dtype for c in original.key_columns]
    assert restored.errors == original.errors
    for name in TABLE_COLUMNS:
        got, want = getattr(restored, name), getattr(original, name)
        assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=want.dtype.kind == "f"), name
    for key in original.keys:
        assert_same_fit(restored.result_for(key), original.result_for(key))


def assert_same_fit(got: FitResult | None, want: FitResult | None) -> None:
    if want is None:
        assert got is None
        return
    for field in dataclasses.fields(FitResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "family":
            assert type(a) is type(b) and a.param_names == b.param_names
        elif isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and np.array_equal(a, b, equal_nan=True), field.name
        else:
            assert type(a) is type(b) and (a == b or a != a and b != b), (field.name, a, b)


@pytest.mark.parametrize("name,kwargs,truth", FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES])
def test_every_family_round_trips(name, kwargs, truth):
    family = family_by_name(name, **kwargs)
    y = truth(X) * (1.0 + 0.01 * RNG.standard_normal(len(X)))
    fit = fit_model(family, {"x": X}, y, output_name="y")
    quality = judge_fit(fit, y=y, inputs={"x": X})  # includes the F-test
    model = capture_from_fit(fit, quality=quality)

    restored = json_round_trip(model)

    assert restored.model_id == model.model_id
    assert restored.family_name == model.family_name
    np.testing.assert_array_equal(restored.fit.params, model.fit.params)
    assert restored.quality == model.quality  # dataclass equality incl. F-test
    probe = {"x": np.linspace(0.7, 7.3, 37)}
    np.testing.assert_array_equal(restored.predict(probe), model.predict(probe))


def test_multi_input_linear_round_trips():
    family = family_by_name("linear", input_names=("a", "b"))
    inputs = {"a": X, "b": np.sqrt(X)}
    y = 1.0 + 2.0 * inputs["a"] - 3.0 * inputs["b"]
    fit = fit_model(family, inputs, y, output_name="y")
    restored = json_round_trip(capture_from_fit(fit))
    probe = {"a": X[:11], "b": np.sqrt(X[:11])}
    np.testing.assert_array_equal(restored.predict(probe), fit.predict(probe))


def test_piecewise_round_trips():
    x = np.linspace(0.0, 10.0, 400)
    y = np.where(x < 5.0, 1.0 + 0.5 * x, 8.0 - 0.9 * x)
    fit = fit_piecewise(x, y, num_segments=4, degree=1, output_name="y", input_name="x")
    restored = json_round_trip(capture_from_fit(fit))
    assert restored.family_name == "piecewise"
    assert restored.fit.family.degree == 1
    assert len(restored.fit.family.segments) == 4
    np.testing.assert_array_equal(restored.predict({"x": x}), fit.predict({"x": x}))


def test_grouped_model_round_trips_including_failed_groups():
    rows = []
    for group in ("alpha", "beta", "gamma"):
        scale = {"alpha": 1.0, "beta": 2.0, "gamma": 3.0}[group]
        for x in np.linspace(1.0, 4.0, 30):
            rows.append((group, float(x), float(scale * x**-0.5)))
    rows.append(("lonely", 1.0, 1.0))  # too few observations: a failed group
    table = Table.from_dict(
        "t",
        {
            "g": [r[0] for r in rows],
            "x": [r[1] for r in rows],
            "y": [r[2] for r in rows],
        },
    )
    grouped = fit_grouped(table, family_by_name("powerlaw"), ["x"], "y", ["g"])
    assert not grouped.succeeded.all()  # the lonely group must be preserved through the trip
    model = capture_from_fit(
        grouped,
        quality=judge_fit(grouped.result_for("alpha")),
        group_columns=("g",),
        group_fit_fraction=0.75,
    )
    restored = json_round_trip(model)

    assert restored.is_grouped
    assert restored.fit.group_columns == ("g",)
    assert restored.fit.num_groups == grouped.num_groups
    assert restored.fit.keys == grouped.keys
    failed = [key for key, ok in zip(restored.fit.keys, restored.fit.succeeded) if not ok]
    assert failed == [("lonely",)]
    assert_same_views(restored.fit, grouped)
    np.testing.assert_array_equal(
        restored.predict({"x": np.array([2.0])}, group_key=("beta",)),
        model.predict({"x": np.array([2.0])}, group_key=("beta",)),
    )
    # The parameter table (Table 1 of the paper) regenerates identically.
    assert restored.parameter_table().to_pydict() == model.parameter_table().to_pydict()


def test_lifecycle_and_evidence_round_trip():
    family = family_by_name("linear", input_names=("x",))
    fit = fit_model(family, {"x": X}, 2.0 * X, output_name="y")
    model = capture_from_fit(
        fit,
        predicate_sql="x >= 1.5",
        formula="y ~ linear(x)",
        fitted_row_count=123,
        metadata={"robust": True, "method": "gn", "planner_demoted": "observed errors"},
        status="stale",
        observed_errors=[0.01, 0.5, float("inf")],
    )
    restored = json_round_trip(model)
    assert restored.status == "stale"
    assert restored.coverage.predicate_sql == "x >= 1.5"
    assert restored.fitted_row_count == 123
    assert restored.metadata["planner_demoted"] == "observed errors"
    assert restored.metadata["robust"] is True
    assert restored.observed_errors[:2] == [0.01, 0.5]
    assert restored.observed_errors[2] == float("inf")
    assert restored.formula == "y ~ linear(x)"
    assert not restored.is_usable and restored.is_servable


def test_store_payload_round_trips_and_gates_future_versions():
    store = ModelStore()
    family = family_by_name("constant")
    fit = fit_model(family, {"x": X}, np.full_like(X, 3.0), output_name="y")
    store.add(capture_from_fit(fit))
    payload = json.loads(json.dumps(serialize_store(store)))
    assert payload["format_version"] == WAREHOUSE_FORMAT_VERSION

    target = ModelStore()
    restored = restore_store(payload, target)
    assert len(restored) == 1 and len(target) == 1

    payload["format_version"] = WAREHOUSE_FORMAT_VERSION + 1
    with pytest.raises(FormatVersionError):
        restore_store(payload, ModelStore())


def bands_table() -> Table:
    """A STRING key; a failed group (``east``); a group whose output holds an
    ``inf`` (``south``: 5 usable rows, fitted on 4); a rank-deficient group
    (``west``: ``inf`` covariance)."""
    return Table.from_dict(
        "bands",
        {
            "band": ["north"] * 8 + ["south"] * 5 + ["east"] * 2 + ["west"] * 4,
            "x": [float(i) for i in range(8)] + [0.0, 1.0, 2.0, 3.0, 4.0] + [1.0, 2.0] + [2.0] * 4,
            "y": [1.0 + 0.5 * i + 0.01 * (-1) ** i for i in range(8)]
            + [2.0, 2.9, float("inf"), 5.1, 6.0] + [1.0, 2.0] + [3.0, 3.1, 2.9, 3.05],
        },
    )


def test_every_grouped_view_round_trips_field_for_field():
    grouped = fit_grouped(bands_table(), family_by_name("linear", input_names=("x",)), ["x"], "y", ["band"])
    assert grouped.keys == [("north",), ("south",), ("east",), ("west",)]
    assert grouped.errors == (None, None, "only 2 usable observations (< 3)", None)
    assert grouped.n_obs.tolist() == [8, 4, 2, 4]  # the fit's count; the failed group's usable rows
    assert np.isposinf(grouped.covariance[3]).all()
    grouped.covariance[0] = [[-np.inf, 1.0], [1.0, np.inf]]
    grouped.covariance[1] = np.nan  # a fit that estimated no covariance
    model = capture_from_fit(grouped, quality=judge_fit(grouped.result_for("north")), group_columns=("band",))

    restored = json_round_trip(model)

    assert_same_views(restored.fit, grouped)
    assert restored.fit.result_for("north").covariance[0, 0] == -np.inf
    assert restored.fit.result_for("south").covariance is None
    assert restored.parameter_table().to_pydict() == model.parameter_table().to_pydict()


def test_a_zero_group_fit_round_trips_and_checkpoints(tmp_path):
    """A grouped fit with no groups (an empty table, an all-NULL group
    column) is an empty table: it serialises, and a store holding one — the
    harvester keeps a rejected capture — checkpoints and reopens."""
    empty = fit_grouped(
        bands_table().take(np.zeros(0, dtype=np.int64)), family_by_name("powerlaw"), ["x"], "y", ["band"]
    )
    assert empty.num_groups == 0 and empty.covariance.shape == (0, 2, 2)
    quality = judge_fit(fit_model(family_by_name("powerlaw"), X, 2.0 * X))
    assert_same_views(json_round_trip(capture_from_fit(empty, quality=quality, group_columns=("band",))).fit, empty)
    # The format-1 writer stored such a fit as no records; it reads and writes again.
    v1 = json.loads((FIXTURES / "v1_grouped_store" / "warehouse" / "models-00001.json").read_text())["models"][0]
    v1["fit"]["records"] = []
    assert json_round_trip(deserialize_model(v1)).fit.num_groups == 0

    root = tmp_path / "store"
    with LawsDatabase.open(root) as db:
        db.load_dict("t", {"g": [None, None, None], "x": [1.0, 2.0, 3.0], "y": [1.0, 2.0, 3.0]})
        db.fit("t", "y ~ linear(x)", group_by="g")
        (model,) = db.models
        assert model.fit.num_groups == 0
        db.checkpoint()
    with LawsDatabase.open(root) as reopened:
        assert reopened.quarantine_report()["count"] == 0
        assert_same_views(reopened.models.get(model.model_id).fit, model.fit)


def test_iterative_views_keep_iterations_convergence_and_method():
    x = np.tile(np.linspace(0.12, 0.18, 6), 2)
    source = np.repeat([7, 8], 6)
    y = np.where(source == 7, 2.0 * x**-0.7, 3.0 * x**-1.1) * (1.0 + 0.001 * np.arange(12))
    table = Table.from_dict("spectra", {"source": source.tolist(), "x": x.tolist(), "y": y.tolist()})
    grouped = fit_grouped(table, family_by_name("powerlaw"), ["x"], "y", ["source"], method="gn")
    assert (grouped.iterations > 0).all() and grouped.converged.all()
    restored = json_round_trip(capture_from_fit(grouped, quality=judge_fit(grouped.result_for(7)), group_columns=("source",)))
    assert_same_views(restored.fit, grouped)
    assert restored.fit.result_for(8).extra == {"method": "gn"}


def test_a_2000_source_power_law_entry_is_its_columns():
    """Family, inputs, output, input names and optimiser once per model, one
    list per column."""
    from repro.datasets import lofar

    table = lofar.generate(num_sources=2000, observations_per_source=6, seed=3, anomaly_fraction=0.0).to_table()
    grouped = fit_grouped(table, family_by_name("powerlaw"), ["frequency"], "intensity", ["source"])
    model = capture_from_fit(grouped, quality=judge_fit(grouped.result_for(grouped.keys[0])), group_columns=("source",))
    text = json.dumps(serialize_model(model), separators=(",", ":"))
    assert len(text) <= 500_000
    assert text.count('"powerlaw"') == 1 and text.count('"frequency"') == 3  # coverage, fit inputs, input names
    assert_same_views(deserialize_model(json.loads(text)).fit, grouped)


def test_a_v1_warehouse_restores_field_for_field_and_one_checkpoint_rewrites_it(tmp_path):
    """``fixtures/v1_grouped_store`` is a store whose warehouse was written by
    the last ``WAREHOUSE_FORMAT_VERSION`` 1 build of this package (the source
    tree at commit ce3ddf6), one nested fit per group, by this script with
    the store's path as its argument::

        import sys
        from pathlib import Path
        from repro import LawsDatabase

        root = Path(sys.argv[1])
        db = LawsDatabase.open(root, observability=False)
        db.load_dict("bands", {
            "band": ["north"] * 8 + ["south"] * 5 + ["east"] * 2 + ["west"] * 4,
            "x": [float(i) for i in range(8)] + [0.0, 1.0, 2.0, 3.0, 4.0] + [1.0, 2.0] + [2.0] * 4,
            "y": [1.0 + 0.5 * i + 0.01 * (-1) ** i for i in range(8)]
            + [2.0, 2.9, float("inf"), 5.1, 6.0] + [1.0, 2.0] + [3.0, 3.1, 2.9, 3.05],
        })
        db.fit("bands", "y ~ linear(x)", group_by="band")
        db.load_dict("spectra", {
            "source": [s for s in (7, 8) for _ in range(6)],
            "frequency": [0.12, 0.13, 0.14, 0.15, 0.16, 0.17] * 2,
            "intensity": [2.0 * f ** -0.7 * (1 + 0.001 * k) for k, f in enumerate([0.12, 0.13, 0.14, 0.15, 0.16, 0.17])]
            + [3.0 * f ** -1.1 * (1 - 0.002 * k) for k, f in enumerate([0.12, 0.13, 0.14, 0.15, 0.16, 0.17])],
        })
        db.fit("spectra", "intensity ~ powerlaw(frequency)", group_by="source")
        db.checkpoint()
        db.close()

    ``bands`` is :func:`bands_table`: a STRING key, a failed group, an
    output ``inf`` and an ``inf`` covariance; ``spectra`` is fitted
    iteratively.
    """
    root = tmp_path / "store"
    shutil.copytree(FIXTURES / "v1_grouped_store", root)
    written = json.loads((root / "warehouse" / "models-00001.json").read_text())
    assert written["format_version"] == 1

    db = LawsDatabase.open(root)
    assert db.quarantine_report()["count"] == 0
    south = written["models"][0]["fit"]["records"][1]
    assert south["key"] == ["south"] and (south["n_observations"], south["result"]["n_observations"]) == (5, 4)
    for entry in written["models"]:
        fit = db.models.get(entry["model_id"]).fit
        assert fit.keys == [tuple(record["key"]) for record in entry["fit"]["records"]]
        for row, record in enumerate(entry["fit"]["records"]):
            view, expected = fit.result_for(tuple(record["key"])), record["result"]
            if expected is None:
                assert view is None and np.isnan(fit.params[row]).all() and np.isnan(fit.rse[row])
                assert (fit.errors[row], fit.n_obs[row]) == (record["error"], record["n_observations"])
                continue
            assert fit.errors[row] is None
            assert view.params.tolist() == expected["params"]
            assert view.covariance.tolist() == expected["covariance"]
            assert (view.input_names, view.output_name) == (tuple(expected["input_names"]), expected["output_name"])
            for name in ("n_observations", "residual_standard_error", "r_squared", "adjusted_r_squared",
                         "sum_squared_residuals", "iterations", "converged", "extra"):  # fmt: skip
                assert getattr(view, name) == expected[name], name
    restored = {model.model_id: model.fit for model in db.models}
    assert restored[1].key_columns[0].dtype.value == "string"
    assert np.isposinf(restored[1].result_for("west").covariance).all()

    db.checkpoint()
    manifest = json.loads((root / "MANIFEST.json").read_text())
    rewritten = json.loads((root / manifest["warehouse_file"]).read_text())
    assert rewritten["format_version"] == WAREHOUSE_FORMAT_VERSION == 2
    assert all("records" not in entry["fit"] for entry in rewritten["models"])
    db.close()
    with LawsDatabase.open(root) as reopened:
        assert reopened.quarantine_report()["count"] == 0
        for model in reopened.models:
            assert_same_views(model.fit, restored[model.model_id])


def test_a_newer_warehouse_is_refused_and_a_corrupt_grouped_entry_quarantines_alone(tmp_path):
    root = tmp_path / "store"
    shutil.copytree(FIXTURES / "v1_grouped_store", root)
    with LawsDatabase.open(root) as db:
        db.checkpoint()
    manifest = json.loads((root / "MANIFEST.json").read_text())
    path = root / manifest["warehouse_file"]
    payload = json.loads(path.read_text())

    path.write_text(json.dumps({**payload, "format_version": 3}))
    with pytest.raises(FormatVersionError, match="v3"):
        LawsDatabase.open(root)

    victim = payload["models"][0]["fit"]
    victim["params"][0] = victim["params"][0][:-1]  # one flipped byte ends a list early
    path.write_text(json.dumps(payload))
    with LawsDatabase.open(root) as db:
        (entry,) = db.durable.quarantine.records(artefact="warehouse-entry")
        assert entry.source == "warehouse-entry-1.json"
        assert [model.model_id for model in db.models] == [2]
        assert db.models.get(2).fit.result_for(8) is not None
