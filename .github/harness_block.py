#!/usr/bin/env python3
"""Prints the deterministic block of one benchmark harness run as one line.

Reads the run's standard output (its `detail` line, then its result line)
and prints the fields that repeat exactly for one workload, seed and
`--seconds`: simulated counts, dollars, staleness and the MV digest. Host
timings are left out. Usage:

    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \\
        --workload agg_retract --seed 7 --seconds 2 --trace 0 | python3 .github/harness_block.py
"""
import json
import sys

DETAIL = ["entries", "tuples_moved", "pushes", "sla_missed", "dollars",
          "staleness_peak_ratio", "mvs_checked", "mv_digest"]
RESULT = ["dollars_per_sharing_hour", "staleness_mean_ratio"]

objects = [json.loads(line) for line in sys.stdin if line.startswith("{")]
detail = next(o["detail"] for o in objects if "detail" in o)
metrics = next(o["metrics"] for o in objects if "metrics" in o)
fields = [f"{k}={detail[k]}" for k in DETAIL]
fields += [f"{k}={metrics[k]['value']}" for k in RESULT]
print(detail["workload"], f"seed={detail['seed']}", *fields)
