"""Turn one run's samples and spans into the reported metrics."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from layers import ATTRS, END, NAME, OP, PARENT, START, self_times

#: the reported tail percentile, then lower ones for short runs.  p90,
#: not higher: p98 follows the host's stall rate, which drifts between
#: runs (it moved by a quarter of itself over ten ingest runs).
LADDER = (90.0, 75.0, 50.0)
#: samples a tail percentile must leave beyond it
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail(values) -> dict:
    """The highest ladder percentile with at least ``TAIL_MIN_BEYOND``
    samples beyond it."""
    n = len(values)
    chosen = LADDER[-1]
    for p in LADDER:
        if n * (1 - p / 100.0) >= TAIL_MIN_BEYOND:
            chosen = p
            break
    return {"value": percentile(values, chosen), "percentile": chosen,
            "samples": n, "beyond": int(n * (1 - chosen / 100.0))}


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_total(snapshot: dict, family: str) -> float:
    """Sum of a metrics-snapshot family over all its label sets."""
    entry = snapshot.get(family)
    if not entry:
        return 0.0
    return float(sum(v for v in entry["values"].values()
                     if isinstance(v, (int, float))))


def snapshot_delta(before: dict, after: dict, family: str) -> float:
    return counter_total(after, family) - counter_total(before, family)


def _latencies(run, kind: str, field: str, traced: bool,
               scaled: bool = True) -> list:
    """Sample times, scaled to the reference host speed unless not
    ``scaled``."""
    return [getattr(s, field) * (s.scale if scaled else 1.0)
            for s in run.samples
            if s.kind == kind and s.traced == traced and not s.failed
            and getattr(s, field) is not None]


def wall_medians(run) -> dict:
    """Unscaled medians, for the details line."""
    medians = {"setup_s": statistics.median(run.setup_wall_seconds),
               "window_s": run.window_seconds}
    for key, kind, field in (("update_p50_ms", "op", "latency"),
                             ("read_p50_ms", "read", "latency"),
                             ("push_lag_p50_ms", "op", "push_lag")):
        values = _latencies(run, kind, field, False, scaled=False)
        if values:
            medians[key] = _ms(statistics.median(values))
    return medians


def tails(run) -> dict:
    """``update_tail_ms`` and ``push_lag_tail_ms`` of the untraced
    samples, each with its percentile and sample counts (ungated
    per-layer metrics; ``spec.MOVES`` says why).
    """
    chosen = {}
    for key, field in (("update_tail_ms", "latency"),
                       ("push_lag_tail_ms", "push_lag")):
        entry = tail(_latencies(run, "op", field, False))
        entry["value"] = _ms(entry["value"])
        chosen[key] = entry
    return chosen


def end_to_end(run) -> dict:
    """The end-to-end metrics, from untraced samples."""
    updates = _latencies(run, "op", "latency", False)
    lags = _latencies(run, "op", "push_lag", False)
    reads = _latencies(run, "read", "latency", False)
    return {
        "setup_s": statistics.median(run.setup_seconds),
        "update_p50_ms": _ms(statistics.median(updates)),
        "stmts_per_s": run.statements_applied / run.scaled_busy_seconds,
        "read_p50_ms": _ms(statistics.median(reads)),
        "push_lag_p50_ms": _ms(statistics.median(lags)),
        "durable_bytes_per_input_byte":
            run.durable_bytes / run.durable_input_bytes,
        "peak_rss_mb": run.peak_rss_bytes / (1024.0 * 1024.0),
    }


def recompute_counts(run) -> dict:
    before, after = run.snapshot_before, run.snapshot_after
    flushes = snapshot_delta(before, after, "view_flushes")
    recomputes = snapshot_delta(before, after, "view_recomputes")
    per_view = {}
    for name, value in after.get("view_recomputes", {}).get(
            "values", {}).items():
        old = before.get("view_recomputes", {}).get("values", {}).get(name, 0)
        per_view[name] = value - old
    return {"flushes": flushes, "recomputes": recomputes,
            "ratio": _ratio(recomputes, flushes), "per_view": per_view}


def per_layer(run) -> dict:
    """The per-layer metrics of a traced run (see spec.PER_LAYER)."""
    spans = run.spans
    selfs = self_times(spans)
    # spans of an op are scaled by the host-speed factor of its cycle
    scale = {s.op: s.scale for s in run.samples}
    batches = {s.op for s in run.samples
               if s.kind in ("op", "follow") and s.traced and not s.failed}
    reads = {s.op for s in run.samples
             if s.kind == "read" and s.traced and not s.failed}
    n = max(len(batches), 1)

    self_sum = defaultdict(float)      # per name, over traced batches
    incl_sum = defaultdict(float)
    calls = defaultdict(int)
    attr_sum = defaultdict(float)      # (name, attr) over traced batches
    read_self = defaultdict(float)
    phase_incl = defaultdict(float)    # (op label, name) outside batches
    checkpoints = []
    covered = 0.0
    for i, span in enumerate(spans):
        name, op = span[NAME], span[OP]
        duration = span[END] - span[START]
        if name == "durability.checkpoint":
            checkpoints.append(duration)
        if op in batches:
            self_sum[name] += selfs[i] * scale[op]
            incl_sum[name] += duration * scale[op]
            calls[name] += 1
            if not name.startswith("op."):
                covered += selfs[i] * scale[op]
            attrs = span[ATTRS]
            if attrs:
                nested_insert = (name == "storage.insert" and span[PARENT] >= 0
                                 and spans[span[PARENT]][NAME]
                                 == "storage.modify")
                for key, value in attrs.items():
                    if key == "nodes" and nested_insert:
                        continue
                    if isinstance(value, (int, float)):
                        attr_sum[(name, key)] += value
        elif op in reads:
            read_self[name] += selfs[i] * scale[op]
        elif isinstance(op, str):
            phase_incl[(op, name)] += duration

    batch_samples = [s for s in run.samples
                     if s.op in batches and s.kind in ("op", "follow")]
    batch_wall = sum(s.completion * s.scale for s in batch_samples)
    round_trip = sum(s.latency * s.scale for s in batch_samples)

    def per_batch_ms(name):
        return _ms(self_sum[name] / n)

    if calls["op.update"]:
        resolve = (incl_sum["op.update"]
                   - incl_sum["multiview.apply_updates"]) / n
    else:
        resolve = incl_sum["api.resolve"] / n
    before, after = run.snapshot_before, run.snapshot_after
    window_batches = max(run.batches_in_window, 1)
    hits = snapshot_delta(before, after, "view_state_hits")
    misses = snapshot_delta(before, after, "view_state_misses")
    instructions = snapshot_delta(before, after, "vm_instructions_executed")
    recover = phase_incl[("restore", "durability.recover")]
    restore_read = phase_incl[("restore", "durability.restore_read")]
    restore_state = phase_incl[("restore", "durability.restore_state")]
    server_apply = (incl_sum["multiview.apply_updates"] / n
                    if run.served else 0.0)
    traced_p50 = _latencies(run, "op", "latency", True)
    untraced_p50 = _latencies(run, "op", "latency", False)

    # untraced cycles of this run (the odd ones)
    values = {key: entry["value"] for key, entry in tails(run).items()}
    values.update({
        "api.resolve_ms": _ms(resolve),
        "xquery.parse_update_ms": per_batch_ms("xquery.parse_update"),
        "xquery.evaluate_update_ms": per_batch_ms("xquery.evaluate_update"),
        "xmlmodel.fragment_parse_ms": per_batch_ms("xmlmodel.fragment_parse"),
        "xmlmodel.fragment_bytes":
            attr_sum[("xmlmodel.fragment_parse", "bytes")] / n,
        "xmlmodel.document_parse_s":
            phase_incl[("setup", "xmlmodel.document_parse")],
        "xmlmodel.serialize_ms":
            _ms(read_self["xmlmodel.serialize"] / max(len(reads), 1)),
        "translate.view_compile_s":
            phase_incl[("setup", "translate.compile")],
        "storage.insert_ms": per_batch_ms("storage.insert"),
        "storage.delete_ms": per_batch_ms("storage.delete"),
        "storage.modify_ms": per_batch_ms("storage.modify"),
        "storage.index_ms": per_batch_ms("storage.index"),
        "storage.nodes_per_batch": sum(
            attr_sum[(name, "nodes")] for name in
            ("storage.insert", "storage.delete", "storage.modify")) / n,
        "multiview.route_ms": per_batch_ms("multiview.route"),
        "multiview.validate_ms":
            _ms(attr_sum[("multiview.apply_updates", "validate_s")] / n),
        "multiview.routed_ratio": _ratio(
            attr_sum[("multiview.apply_updates", "routed")],
            attr_sum[("multiview.apply_updates", "classifications")]),
        "multiview.recompute_ratio": recompute_counts(run)["ratio"],
        "engine.propagate_ms": per_batch_ms("engine.propagate"),
        "engine.recompute_ms": per_batch_ms("engine.recompute"),
        "engine.state_hit_ratio": _ratio(hits, hits + misses),
        "engine.state_patches_per_batch":
            snapshot_delta(before, after, "view_state_patches")
            / window_batches,
        "plan.instructions_per_batch": instructions / window_batches,
        "plan.fallback_ratio": _ratio(
            snapshot_delta(before, after, "vm_fallback_runs"), instructions),
        "apply.fuse_ms": per_batch_ms("apply.fuse"),
        "apply.mutations_per_batch":
            snapshot_delta(before, after, "view_delta_tuples")
            / window_batches,
        "durability.wal_append_ms": per_batch_ms("durability.wal_append"),
        "durability.wal_bytes_per_batch":
            attr_sum[("durability.wal_append", "bytes")] / n,
        "durability.fsync_ms": per_batch_ms("durability.fsync"),
        "durability.fsyncs_per_batch": calls["durability.fsync"] / n,
        "durability.checkpoint_ms":
            _ms(statistics.mean(checkpoints)) if checkpoints else 0.0,
        "restore_s": run.restore_seconds,
        "durability.restore_read_s": restore_read,
        "durability.replay_s":
            max(recover - restore_read - restore_state, 0.0),
        "server.encode_ms": per_batch_ms("server.encode"),
        "server.frames_out_per_update": calls["server.encode"] / n,
        "server.bytes_out_per_update":
            attr_sum[("server.encode", "bytes")] / n,
        "server.decode_ms": per_batch_ms("server.decode"),
        "server.apply_ms": _ms(server_apply),
        "server.overhead_ms":
            _ms(round_trip / n - server_apply) if run.served else 0.0,
        "obs.trace_overhead": (
            statistics.median(traced_p50) / statistics.median(untraced_p50)
            - 1.0) if traced_p50 and untraced_p50 else 0.0,
        "layers.coverage": _ratio(covered, batch_wall),
        "failed_frac": _ratio(run.failed, run.attempted),
    })
    return values
