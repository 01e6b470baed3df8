"""Declarative Monte Carlo experiments with bitwise-reproducible reports.

A scenario is plain JSON: distribution, shape, center pattern, sizes,
replication counts, seed.  The harness derives one substream per replication
(and further streams for data and bootstrap), so the numbers below come
out identical on every rerun and any worker count.  This is a miniature of
the coverage benchmark; scale `replications`/`B` up to 2500/400 to reproduce
reference-quality tables.
"""

import json

from geomedian import emit_report, run_scenario, scenario_from_json

scenario = {
    "experiment": "coverage",
    "model": "student_t",
    "df": 3.0,
    "rho": 0.0,
    "n": 100,
    "p": 50,
    "theta": {"kind": "sparse3"},
    "replications": 100,
    "B": 200,
    "levels": [0.9, 0.95],
    "seed": 2024,
}

spec = scenario_from_json(scenario)
table = run_scenario(spec)

print("scenario:")
print(json.dumps(scenario, indent=2))
print()
print(emit_report(table, "markdown"))
print("rerun check: tables identical =", run_scenario(spec).rows == table.rows)
