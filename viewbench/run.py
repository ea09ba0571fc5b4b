"""Run one workload of the repository benchmark and print its metrics.

    python3 viewbench/run.py --workload ingest --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the engine is imported from ``src/``.
The metrics, their units and bounds are named in ``BENCHMARK.json``;
input sizes and each per-layer metric's prediction are in
``viewbench/spec.py``.  End-to-end times are scaled to a reference host
speed measured next to every cycle (see ``viewbench/hostspeed.py``);
the details line keeps the raw wall times.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same workload with span recording around every layer boundary (see
``viewbench/layers.py``) and reports the per-layer metrics instead,
writing the spans to ``.viewbench/trace-<workload>.jsonl``.

Standard output ends with two JSON lines: the run's details (input
sizes, the tail percentile chosen and its sample count, recompute
counts, failure fraction) and then the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero when the correctness gate finds a mismatch or the run fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viewbench/run.py",
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one cold set-up, print JSON
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--persons", type=int, default=None,
                        help=argparse.SUPPRESS)
    # internal: time one reopening of a durable directory, print JSON
    parser.add_argument("--restore-only", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    return parser


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 persons=None, subscriptions=None, pool=None) -> tuple:
    """Run one workload; returns ``(correct, result, details)``.

    ``persons``, ``subscriptions`` and ``pool`` shrink the workload (the
    self-test uses them); the benchmark itself runs the sizes in spec.
    """
    import layers
    import spec
    import summary
    import workloads

    wl = spec.WORKLOADS[name]
    if subscriptions is not None:
        wl = dataclasses.replace(wl, subscriptions=subscriptions)
    inputs = workloads.make_inputs(wl, seed, persons or wl.persons,
                                   pool or spec.INPUT_POOL)
    recorder = None
    if trace:
        recorder = layers.Recorder()
        layers.install_layer_wrappers(recorder)
    scratch = os.path.join(ROOT, ".viewbench")
    workdir = os.path.join(scratch, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    correct = True
    failure = None
    try:
        if wl.name == "serve":
            run = workloads.run_serve(wl, inputs, seconds, ROOT, workdir,
                                      recorder)
        else:
            run = workloads.run_in_process(wl, inputs, seconds, workdir,
                                           seed, persons or wl.persons,
                                           recorder)
    except workloads.GateError as exc:
        correct, failure, run = False, str(exc), None
    finally:
        if recorder is not None:
            recorder.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    details = {"workload": name, "seed": seed, "trace": int(trace),
               "persons": persons or wl.persons,
               "statements_per_batch": wl.statements,
               "subscriptions": wl.subscriptions}
    if run is None:
        details["gate"] = failure
        return correct, {"correct": False, "attempted": 1, "failed": 0,
                         "metrics": {}}, details

    if recorder is not None:
        offset = len(recorder.spans)
        for span in run.server_spans:
            if span[layers.PARENT] >= 0:
                span[layers.PARENT] += offset
        run.spans = recorder.spans + run.server_spans
        recorder.spans = run.spans
        recorder.dump(os.path.join(scratch, f"trace-{name}.jsonl"))
        values = summary.per_layer(run)
        names = spec.PER_LAYER
    else:
        values = summary.end_to_end(run)
        names = spec.END_TO_END
        details.update(summary.tails(run))
    recompute = summary.recompute_counts(run)
    details.update({
        "document_bytes": run.document_bytes,
        "cycles": run.cycles,
        "batches": run.batches_in_window,
        "reads": sum(1 for s in run.samples if s.kind == "read"),
        "window_s": run.window_seconds,
        "setup_s": run.setup_seconds,
        "restore_s": run.restore_seconds,
        "wall": summary.wall_medians(run),
        "durable_bytes": run.durable_bytes,
        "recomputes": recompute["per_view"],
        "multiview.recompute_ratio": recompute["ratio"],
        "failed_frac": run.failed / max(run.attempted, 1),
    })
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in names}
    result = {"correct": correct, "attempted": max(run.attempted, 1),
              "failed": run.failed, "metrics": metrics}
    return correct, result, details


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"viewbench: no repro package under {SRC}; run from the root "
              f"of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import spec
    if args.workload not in spec.WORKLOADS:
        print(f"viewbench: unknown workload {args.workload!r} (expected one "
              f"of {', '.join(spec.WORKLOADS)})", file=sys.stderr)
        return 2
    if args.setup_only:
        import workloads
        from repro.workloads import xmark
        wl = spec.WORKLOADS[args.workload]
        document = xmark.generate_site(args.persons or wl.persons,
                                       seed=args.seed)
        print(json.dumps(workloads.setup_only(wl, document)))
        return 0
    if args.restore_only:
        import workloads
        names = [name for name, _query, _policy
                 in spec.WORKLOADS[args.workload].views]
        print(json.dumps(workloads.reopen(args.restore_only, names)))
        return 0
    correct, result, details = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
