#!/usr/bin/env python3
"""Engine-baseline regression guard over a BENCH_engine.json.

Fails (exit 1) when the adaptive placement subsystem's throughput
regresses against its reactive sibling: ``<name>_adaptive`` must reach
at least 0.95x the reactive ``txns_per_sec`` — throughput is wall
clock, so the check carries the acceptance threshold rather than strict
ordering to absorb runner noise (the bench already reports the fastest
of its rep-major timing passes). Applied only to files whose top-level
``scale`` is ``full``: quick-scale runs finish in ~15 ms, where the
adaptive subsystem's fixed per-tick overhead is not yet amortized and
the ratio is dominated by noise, so the floor is meaningless there.

The deterministic side — adaptive wire bytes per transaction no higher
than reactive, nonzero 2PC wire bytes — is asserted where those numbers
are produced, in ``dvp_bench::exp_e1_engine::run`` (table E1).

Usage: engine_guard.py BENCH_engine.json [more.json ...]
"""

import json
import sys

TPS_FLOOR = 0.95


def check(path: str) -> bool:
    with open(path) as f:
        doc = json.load(f)
    rows = {r["name"]: r for r in doc["scenarios"]}
    check_tps = doc.get("scale") == "full"
    ok = True
    for name, row in sorted(rows.items()):
        if name.endswith("_adaptive"):
            base = name[: -len("_adaptive")]
            sib = rows.get(base)
            if sib is None:
                print(f"{path}: {name} has no reactive sibling row {base!r}")
                ok = False
                continue
            if check_tps and row["txns_per_sec"] < TPS_FLOOR * sib["txns_per_sec"]:
                print(
                    f"{path}: {name} txns_per_sec {row['txns_per_sec']:.0f} "
                    f"below {TPS_FLOOR}x reactive {sib['txns_per_sec']:.0f}"
                )
                ok = False
    if ok:
        note = "" if check_tps else ", tps floor skipped at non-full scale"
        print(f"{path}: engine guard ok ({len(rows)} rows{note})")
    return ok


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    return 0 if all([check(p) for p in sys.argv[1:]]) else 1


if __name__ == "__main__":
    sys.exit(main())
