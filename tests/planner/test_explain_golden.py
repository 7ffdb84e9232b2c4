"""Golden-output tests for the unified planner's EXPLAIN rendering.

The data follows an exact law (zero residual), so predicted errors are
exactly 0.00% and the rendering is deterministic.  Volatile tokens —
model ids (a process-global counter) and predicted costs (recalibrated
whenever ``BENCH_hotpaths.json`` is regenerated) — are normalized before
comparison; everything else must match byte for byte.
"""

import re

import pytest

from repro import AccuracyContract, LawsDatabase


def _normalize(text: str) -> str:
    text = re.sub(r"#\d+", "#N", text)
    text = re.sub(r"model\(s\) \[[\d, ]+\]", "model(s) [N]", text)
    text = re.sub(r"cost≈[\d.]+ms", "cost≈Xms", text)
    text = re.sub(r"[\d.]+x cheaper", "Yx cheaper", text)
    # Calibration provenance varies by environment (bench file present or
    # not, adaptive recalibrations); the line's presence is golden, its
    # payload is not.
    text = re.sub(r"Cost model: .*", "Cost model: SRC", text)
    return text


@pytest.fixture(scope="module")
def golden_db():
    db = LawsDatabase(verify_sample_fraction=0.0)
    rows = [
        (g, float(x), 10.0 * g + 2.0 * x)
        for g in range(2)
        for x in range(4)
        for _ in range(6)
    ]
    db.load_dict(
        "t",
        {"g": [r[0] for r in rows], "x": [r[1] for r in rows], "y": [r[2] for r in rows]},
    )
    report = db.fit("t", "y ~ linear(x)", group_by="g")
    assert report.accepted
    return db


def test_grouped_model_explain(golden_db):
    text = golden_db.explain(
        "SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g",
        AccuracyContract(max_relative_error=0.05),
    )
    assert _normalize(text) == (
        "Query: SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g\n"
        "Contract: mode=auto, max_relative_error=0.05\n"
        "Cost model: SRC\n"
        "Candidates:\n"
        "=> grouped-model [cost≈Xms, err≈0.00% models=#N]\n"
        "     · 2 group(s) from model(s) [N], 0 group(s) exact\n"
        "   exact [cost≈Xms, exact]\n"
        "     · Sort(g ASC) →   Project(g, m) →     "
        "Aggregate(group_by=[g], aggregates=[avg(y)]) →       "
        "TableScan(t, columns=[g, y])\n"
        "Decision: grouped-model — predicted error 0.00% within budget 5.00%"
    )


def test_exact_pinned_explain(golden_db):
    text = golden_db.explain(
        "SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g",
        AccuracyContract(mode="exact"),
    )
    assert _normalize(text) == (
        "Query: SELECT g, avg(y) AS m FROM t GROUP BY g ORDER BY g\n"
        "Contract: mode=exact\n"
        "Cost model: SRC\n"
        "Candidates:\n"
        "=> exact [cost≈Xms, exact]\n"
        "     · Sort(g ASC) →   Project(g, m) →     "
        "Aggregate(group_by=[g], aggregates=[avg(y)]) →       "
        "TableScan(t, columns=[g, y])\n"
        "Decision: exact — contract pins exact execution"
    )


def test_no_model_explain(golden_db):
    text = golden_db.explain("SELECT count(*) AS n FROM t")
    assert _normalize(text) == (
        "Query: SELECT count(*) AS n FROM t\n"
        "Contract: mode=auto\n"
        "Cost model: SRC\n"
        "Candidates:\n"
        "=> exact [cost≈Xms, exact]\n"
        "     · Project(n) →   Aggregate(group_by=[], aggregates=[count(*)]) →     "
        "TableScan(t, columns=[g])\n"
        "Decision: exact — no model route applies"
    )


def test_top_n_explain():
    """``scan_exact``'s top-N text: one ``TopN``, and a scan that says what it skips."""
    from repro.db.column import BLOCK_ROWS

    rows = 20 * BLOCK_ROWS + 288
    db = LawsDatabase(verify_sample_fraction=0.0)
    # 7919 is coprime to ``rows``: every value once, large ones in every block.
    db.load_dict("fact", {"x": [float(i * 7919 % rows) for i in range(rows)], "ts": list(range(rows))})
    sql = "SELECT ts, x FROM fact ORDER BY x DESC LIMIT 10"
    assert _normalize(db.explain(sql, AccuracyContract(mode="exact"))) == (
        "Query: SELECT ts, x FROM fact ORDER BY x DESC LIMIT 10\n"
        "Contract: mode=exact\n"
        "Cost model: SRC\n"
        "Candidates:\n"
        "=> exact [cost≈Xms, exact]\n"
        "     · TopN(x DESC, count=10, offset=0) →   Project(ts, x) →     "
        "TableScan(fact, columns=[x, ts], top=x DESC 10, blocks=11/21)\n"
        "Decision: exact — contract pins exact execution"
    )
    analyzed = db.explain_analyze(sql, AccuracyContract(mode="exact"))
    assert "· operator: TableScan(fact, columns=[x, ts], top=x DESC 10, blocks=11/21)\n" in analyzed
    assert "· blocks_pruned: 10\n" in analyzed
    assert "io=21 page(s)" in analyzed  # (10 * 1024 + 288) rows x 16 B


def test_explain_reports_route_cost_and_error_per_node(golden_db):
    """Every candidate node shows its route, predicted cost and error."""
    text = golden_db.explain(
        "SELECT g, avg(y) AS m FROM t GROUP BY g",
        AccuracyContract(max_relative_error=0.01),
    )
    assert "grouped-model" in text
    assert text.count("cost≈") >= 2  # one per candidate node
    assert "err≈" in text
    assert "Decision:" in text


def test_hybrid_explain_renders_children(golden_db):
    """A hybrid plan shows the model half and the exact fill-in as children."""
    # A group that appeared after the capture forces the hybrid split.
    golden_db.insert_rows("t", [(2, float(x), 77.0 + 2.0 * x) for x in range(4)])
    try:
        text = golden_db.explain(
            "SELECT g, avg(y) AS m FROM t GROUP BY g",
            AccuracyContract(max_relative_error=0.05),
        )
        assert "grouped-hybrid" in text
        assert "exact-fill-in" in text
        assert "uncovered group(s)" in text
    finally:
        # Module-scoped fixture: restore a clean two-group table state.
        pass


def test_explain_is_side_effect_free(golden_db):
    """EXPLAIN must not harvest models or touch the store."""
    before = golden_db.models.version
    golden_db.explain("SELECT g, max(y) AS m FROM t GROUP BY g")
    assert golden_db.models.version == before
