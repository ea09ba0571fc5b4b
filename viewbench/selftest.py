"""Self-test of the benchmark at tiny sizes.

    python3 viewbench/selftest.py

Runs every workload for a few cycles, untraced and traced, and checks
that the correctness gate passes, that every metric named in
``BENCHMARK.json`` is emitted with its unit, and that the traced run
recorded spans for each layer that does work in that workload.  Exits
non-zero on the first failed check.
"""

from __future__ import annotations

import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402

TINY = {"ingest": {"persons": 60}, "regroup": {"persons": 40},
        "serve": {"persons": 40, "subscriptions": 4}}

_COMMON = {"op.update", "api.resolve", "xmlmodel.document_parse",
           "xmlmodel.serialize", "translate.compile",
           "multiview.apply_updates", "multiview.route", "engine.propagate",
           "apply.fuse", "storage.index", "durability.checkpoint",
           "durability.recover", "durability.restore_read"}
#: span names each workload must record (the layers doing its work)
EXPECTED_SPANS = {
    "ingest": _COMMON | {"xmlmodel.fragment_parse", "storage.insert",
                         "storage.delete"},
    "regroup": _COMMON | {"storage.modify"},
    "serve": (_COMMON - {"op.update"}) | {
        "xquery.parse_update", "xquery.evaluate_update",
        "xmlmodel.fragment_parse", "storage.insert", "storage.delete",
        "durability.wal_append", "durability.fsync", "server.encode",
        "server.decode"},
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(result: dict, expected, label: str) -> None:
    metrics = result["metrics"]
    check(list(metrics) == [m["name"] for m in expected],
          f"{label}: metric names {sorted(metrics)}")
    for m in expected:
        entry = metrics[m["name"]]
        check(entry["unit"] == m["unit"], f"{label}: unit of {m['name']}")
        check(isinstance(entry["value"], (int, float))
              and math.isfinite(entry["value"]),
              f"{label}: value of {m['name']} is {entry['value']!r}")


def main() -> int:
    check([w["name"] for w in spec.BENCHMARK["workloads"]]
          == list(spec.WORKLOADS), "BENCHMARK.json workloads differ from "
          "the input sizes in spec.py")
    check(set(spec.MOVES) == {m["name"] for m in spec.PER_LAYER},
          "every per-layer metric needs a prediction in spec.MOVES")
    for name, size in TINY.items():
        for trace in (False, True):
            label = f"{name} trace={int(trace)}"
            correct, result, details = run.run_workload(
                name, seed=7, seconds=0.5, trace=trace, pool=16, **size)
            check(correct and result["correct"],
                  f"{label}: gate failed: {details.get('gate')}")
            check(result["failed"] == 0, f"{label}: failed operations")
            if not trace:
                check_metrics(result, spec.END_TO_END, label)
                for m in spec.END_TO_END:
                    check(result["metrics"][m["name"]]["value"] > 0,
                          f"{label}: {m['name']} is not positive")
                print(f"{label}: ok")
                continue
            check_metrics(result, spec.PER_LAYER, label)
            check(result["metrics"]["plan.instructions_per_batch"]["value"]
                  > 0, f"{label}: no plan instructions counted")
            spans = layers.load_spans(
                os.path.join(ROOT, ".viewbench", f"trace-{name}.jsonl"))
            seen = {span[layers.NAME] for span in spans}
            missing = EXPECTED_SPANS[name] - seen
            check(not missing, f"{label}: no spans for {sorted(missing)}")
            print(f"{label}: ok ({len(spans)} spans, "
                  f"{len(seen)} span names)")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
