"""Import-footprint guard: the serving path must not pull in heavy libraries.

``import repro`` used to cost ~0.9 s and ~80 MiB for ``scipy.stats`` alone —
more than the library itself.  The runtime dependency is NumPy only; scipy is
a test oracle.  Each check runs in a fresh interpreter so a module imported by
the test session (hypothesis, the scipy oracle) cannot mask a regression, and
covers a fit plus one query per model route so a lazy import cannot hide on
the serving path either.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

FORBIDDEN = ("scipy", "pandas", "matplotlib")

SCRIPT = """
import sys

FORBIDDEN = {forbidden!r}

def check(stage):
    loaded = sorted(name for name in FORBIDDEN if name in sys.modules)
    assert not loaded, f"{{stage}}: {{loaded}} imported"

import repro
check("import repro")

from repro import AccuracyContract, LawsDatabase
from repro.datasets import lofar

dataset = lofar.generate(num_sources=20, observations_per_source=24, seed=3)
db = LawsDatabase()
db.register_table(dataset.to_table("measurements"))
report = db.fit("measurements", "intensity ~ powerlaw(frequency)", group_by="source")
assert report.accepted
check("fit")

approx = AccuracyContract(mode="approx", allow_exact_fallback=False, verify_fraction=0.0)
queries = {{
    "point": "SELECT intensity FROM measurements WHERE source = 7 AND frequency = 0.15",
    "range-aggregate": "SELECT avg(intensity) FROM measurements WHERE frequency BETWEEN 0.12 AND 0.18",
    "grouped-model": "SELECT source, avg(intensity) FROM measurements GROUP BY source",
}}
for route, sql in queries.items():
    assert db.query(sql, approx).approx.route == route
    check(route + " query")
print("ok")
"""


def test_import_and_serving_path_stay_free_of_heavy_libraries():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(forbidden=FORBIDDEN)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().endswith("ok")
