#!/usr/bin/env python3
"""Turn a traced run's spans and counters into the per-layer metrics.

    python3 perfbench/summarize.py TRACE.json [E2E.json]

TRACE.json is written by `rxvbench trace`, E2E.json by `rxvbench e2e` (the
server counters and the trace-gap metrics need it). Prints a table of
self time per span name, then every per-layer metric. Timings are means
per operation of the kind they describe; a metric whose operation kind
does not occur in the workload reads 0.
"""

import json
import statistics
import sys
from collections import defaultdict

WRITE_KINDS = ("insert", "delete")


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def _dur(sp):
    return sp["end_ms"] - sp["start_ms"]


class Trace:
    def __init__(self, doc):
        spans = doc["spans"]
        # op -1: set-up; op -2: untimed warm-up; op >= 1: timed operations
        self.setup = {sp["name"]: sp for sp in spans if sp["op"] == -1}
        self.spans = [sp for sp in spans if sp["op"] >= 1]
        self.by_id = {sp["id"]: sp for sp in self.spans}
        self.children = defaultdict(list)
        for sp in self.spans:
            if sp["parent"] >= 0:
                self.children[sp["parent"]].append(sp)

    def kind_of(self, sp):
        root = sp
        while root["parent"] >= 0:
            root = self.by_id[root["parent"]]
        return root.get("kind")

    def named(self, name, kinds=None):
        return [
            sp
            for sp in self.spans
            if sp["name"] == name and (kinds is None or self.kind_of(sp) in kinds)
        ]

    def self_ms(self, sp):
        covered = sum(_dur(c) for c in self.children[sp["id"]])
        if sp["name"] == "engine.apply_group":
            covered += sum(sp.get(k, 0.0) for k in ("eval_ms", "translate_ms", "maintain_ms"))
        return _dur(sp) - covered

    def self_time_table(self):
        rows = defaultdict(list)
        for sp in self.spans:
            rows[sp["name"]].append((_dur(sp), self.self_ms(sp)))
        out = []
        for name in sorted(rows):
            vals = rows[name]
            out.append((name, len(vals), _mean([v[0] for v in vals]), _mean([v[1] for v in vals])))
        return out


def per_layer(trace_doc, e2e_doc):
    """The per-layer metrics, as {name: (value, unit)}."""
    t = Trace(trace_doc)
    c = trace_doc["counters"]
    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    def span_mean(name, kinds=None, scale=1.0):
        return _mean([_dur(sp) for sp in t.named(name, kinds)]) * scale

    def attr_mean(name, attr, kinds=None):
        return _mean([float(sp[attr]) for sp in t.named(name, kinds) if attr in sp])

    for key, span in (
        ("synth.generate_s", "setup.synth.generate"),
        ("publish.publish_s", "setup.publish"),
        ("topo.build_s", "setup.topo"),
        ("reach.build_s", "setup.reach"),
    ):
        put(key, _dur(t.setup[span]) / 1000.0, "s")

    put("xpath.parse_us", span_mean("xpath.parse", scale=1000.0), "us")

    applies = t.named("engine.apply_group")
    parts = {k: _mean([sp.get(k, 0.0) for sp in applies]) for k in ("eval_ms", "translate_ms", "maintain_ms")}
    put("engine.apply_ms", span_mean("engine.apply_group"), "ms")
    put("engine.eval_ms", parts["eval_ms"], "ms")
    put("engine.translate_ms", parts["translate_ms"], "ms")
    put("engine.maintain_ms", parts["maintain_ms"], "ms")
    put("engine.other_ms", _mean([t.self_ms(sp) for sp in applies]), "ms")

    hits, partials, misses = c["eval_cache.hits"], c["eval_cache.partials"], c["eval_cache.misses"]
    put("eval_cache.hits", hits, "count")
    put("eval_cache.partials", partials, "count")
    put("eval_cache.misses", misses, "count")
    put("eval_cache.evictions", c["eval_cache.evictions"], "count")
    lookups = hits + partials + misses
    put("eval_cache.hit_ratio", hits / lookups if lookups else 0.0, "1")

    put("dag_eval.bottom_up_ms", span_mean("probe.dag_eval.bottom_up"), "ms")
    put("dag_eval.top_down_ms", span_mean("probe.dag_eval.top_down"), "ms")
    put("dag_eval.selected", attr_mean("probe.dag_eval.top_down", "selected"), "count")
    put("validate.us", span_mean("probe.validate", scale=1000.0), "us")
    put("xupdate.delta_v_ms", span_mean("probe.xupdate.xdelete"), "ms")
    put("vdelete.translate_ms", span_mean("probe.vdelete.translate"), "ms")

    ins = ("insert",)
    put("vinsert.encode_ms", attr_mean("engine.apply_group", "sat_encode_ms", ins), "ms")
    put("vinsert.solve_ms", attr_mean("engine.apply_group", "sat_solve_ms", ins), "ms")
    put("vinsert.skeleton_hit_ratio", attr_mean("engine.apply_group", "sat_skeleton_hit", ins), "1")
    put("sat.vars", attr_mean("engine.apply_group", "sat_vars", ins), "count")
    put("sat.clauses", attr_mean("engine.apply_group", "sat_clauses", ins), "count")
    put("sat.warm_starts", c["sat.warm_starts"], "count")
    put("sat.learned_kept", c["sat.learned_kept"], "count")

    put("relational.delta_r_rows", attr_mean("engine.apply_group", "delta_r_rows"), "count")
    put("dag.nodes", c["dag.nodes"], "count")
    put("dag.edges", c["dag.edges"], "count")
    put("reach.m_size", c["reach.m_size"], "count")

    put("persist.sync_ms", span_mean("persist.sync"), "ms")
    commits = c["commits"]
    put("persist.wal_bytes", c["persist.wal_bytes_total"] / commits if commits else 0.0, "B")

    put("snapshot.capture_ms", span_mean("snapshot.capture"), "ms")
    put("snapshot.fresh_query_ms", span_mean("snapshot.query", ("fresh",)), "ms")
    put("snapshot.repeat_query_ms", span_mean("snapshot.query", ("repeat",)), "ms")
    put("snapshot.hit_query_us", span_mean("snapshot.query", ("hit",), scale=1000.0), "us")

    srv = e2e_doc["server"]
    batches = srv.get("batches", 0)
    put("batcher.batches", batches, "count")
    put("batcher.updates_per_batch", srv.get("batched_updates", 0) / batches if batches else 0.0, "count")
    put("server.wal_syncs", srv.get("wal_syncs", 0), "count")
    put("server.snapshots_published", srv.get("snapshots_published", 0), "count")
    put("server.snapshot_queries", srv.get("snapshot_queries", 0), "count")
    put("server.overloaded", srv.get("overloaded", 0), "count")
    put("server.rejected", srv.get("rejected", 0), "count")

    ops = c["ops"]
    put("gc.minor_mwords_per_op", c["gc.minor_words"] / ops / 1e6 if ops else 0.0, "Mwords")
    put("gc.major_collections", c["gc.major_collections"], "count")
    put("gc.heap_mb", c["gc.heap_mb"], "MB")

    e2e_ms = defaultdict(list)
    for kind, _shape, ms, *_ in e2e_doc["samples"]:
        e2e_ms[kind].append(ms)
    e2e_write = _mean(e2e_ms["insert"] + e2e_ms["delete"])
    traced_write = _mean([_dur(sp) for k in WRITE_KINDS for sp in t.named("op." + k)])
    put("trace.write_gap_ms", e2e_write - traced_write, "ms")
    put("trace.query_gap_ms", _mean(e2e_ms["fresh"]) - span_mean("op.fresh"), "ms")
    return m


def print_report(trace_doc, metrics):
    t = Trace(trace_doc)
    print(f"traced run: {trace_doc['workload']} seed {trace_doc['seed']}, "
          f"{trace_doc['attempted']} ops in {trace_doc['window_s']:.2f} s, "
          f"{trace_doc['failed']} failed")
    print(f"  {'span':28} {'n':>6} {'mean ms':>10} {'self ms':>10}")
    for name, n, mean, self_ms in t.self_time_table():
        print(f"  {name:28} {n:6d} {mean:10.3f} {self_ms:10.3f}")
    print("per-layer metrics:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30} {value:14.4f} {unit}")


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as fh:
        trace_doc = json.load(fh)
    e2e_doc = {"server": {}, "samples": []}
    if len(argv) == 3:
        with open(argv[2]) as fh:
            e2e_doc = json.load(fh)
    print_report(trace_doc, per_layer(trace_doc, e2e_doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
