#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `rxv serve` (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload reads_10k --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --repeat 5 --seed 1 --seconds 55   # steadiness report

--trace 0 measures the real server end to end; --trace 1 adds the traced
in-process replay and reports per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit status is 0 only when every reply matched the shadow model and
every end-of-run check (commit counter, restored view, `recover --check`)
passed. Builds the server and the measurement program with dune first.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import summarize  # noqa: E402

WORK = ".perfbench_work"
CLI = os.path.join("_build", "default", "bin", "rxv_cli.exe")
RXVBENCH = os.path.join("_build", "default", "perfbench", "rxvbench.exe")
REPO_FILES = ("dune-project", "bin/rxv_cli.ml", "lib/server/server.ml", "perfbench/dune")

# server set-ups timed per run; setup_s is their median
SETUPS = {"writes_10k": 7, "reads_10k": 7, "writes_100k": 3, "mixed_10k": 7}
WORKLOADS = tuple(SETUPS)
# the workloads in BENCHMARK.json, and the ones `--workload all` runs; the
# others run and report by name but are not gated (see README.md)
GATED_WORKLOADS = ("writes_10k", "reads_10k")

# the end-to-end metrics every workload reports, and so the ones gated by
# BENCHMARK.json; the report also prints the workload-specific ones
GATED = (
    "setup_s",
    "commits_per_s",
    "delete_p50_ms",
    "insert_p50_ms",
    "server_rss_mb",
    "wal_bytes_per_commit",
)
P90_MIN_SAMPLES = 100
# a run must end within 180 s; its measurement subprocesses share this budget
RUN_BUDGET_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    missing = [f for f in REPO_FILES if not os.path.exists(f)]
    if missing:
        fail("run from the root of an rxv checkout; missing: " + ", ".join(missing), 2)
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "./" + CLI, "./" + RXVBENCH]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 3)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-4000:])
        fail("build failed", 3)


def drive(mode, workload, seed, seconds, deadline, setups=1):
    os.makedirs(WORK, exist_ok=True)
    out = os.path.join(WORK, f"{workload}-seed{seed}.{mode}.json")
    cmd = [RXVBENCH, mode, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--work", WORK, "--out", out]
    if mode == "e2e":
        cmd += ["--cli", CLI, "--setups", str(setups)]
    # its own process group, so a timeout also stops the server it spawned
    p = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = p.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop_group(p)
        fail(f"{mode} run of {workload} timed out", 4)
    if code != 0:
        fail(f"{mode} run of {workload} failed (exit {code})", 4)
    with open(out) as fh:
        doc = json.load(fh)
    doc["_path"] = out
    return doc


def stop_group(p):
    """SIGKILL the measurement process group and wait until it is empty."""
    try:
        os.killpg(p.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    p.wait()
    for _ in range(500):
        try:
            os.killpg(p.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def percentile(xs, q):
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def e2e_metrics(doc):
    """Every end-to-end metric of the run: {name: (value, unit, samples)}.
    p90s appear only with at least P90_MIN_SAMPLES samples of their kind."""
    by_kind = {}
    for kind, _shape, ms, _at in doc["samples"]:
        by_kind.setdefault(kind, []).append(ms)
    window = doc["window_s"]
    m = {
        "setup_s": (statistics.median(doc["setups_s"]), "s", len(doc["setups_s"])),
        "commits_per_s": (doc["commits"] / window, "1/s", doc["commits"]),
        "queries_per_s": (doc["queries"] / window, "1/s", doc["queries"]),
    }
    for kind, name in (("delete", "delete"), ("insert", "insert"), ("fresh", "fresh_query"),
                       ("repeat", "repeat_query")):
        xs = by_kind.get(kind, [])
        if xs:
            m[f"{name}_p50_ms"] = (statistics.median(xs), "ms", len(xs))
        if len(xs) >= P90_MIN_SAMPLES:
            m[f"{name}_p90_ms"] = (percentile(xs, 90), "ms", len(xs))
    m["server_rss_mb"] = (doc["rss_mb"], "MB", 1)
    m["wal_bytes_per_commit"] = (doc["wal_bytes"] / doc["wal_commits"], "B", doc["wal_commits"])
    m["failed_frac"] = (doc["failed"] / doc["attempted"], "1", doc["attempted"])
    return m


def correct(doc):
    return (doc["failed"] == 0 and doc["warmup_failed"] == 0 and all(doc.get("checks", {}).values())
            and doc["attempted"] > 0)


def print_e2e(doc, metrics):
    print(f"end-to-end: {doc['workload']} seed {doc['seed']}, window {doc['window_s']:.2f} s, "
          f"ops digest {doc['digest']}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:24} {value:14.4f} {unit:5} n={n}")
    print("  checks: " + ", ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in doc["checks"].items()))
    if doc.get("fresh_wrapped"):
        print("  note: the fresh-read pool wrapped; late fresh paths repeat earlier ones")
    for f in doc["failures"]:
        print(f"  failure: {f}")


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns (correct, attempted, failed, metrics), the
    metrics as {name: (value, unit)}: every end-to-end metric, or with
    `trace` every per-layer one. A traced run splits `seconds` between its
    end-to-end window and its traced replay, so it takes about as long as
    an untraced run."""
    deadline = time.monotonic() + RUN_BUDGET_S
    if not trace:
        doc = drive("e2e", workload, seed, seconds, deadline, SETUPS[workload])
        metrics = e2e_metrics(doc)
        print_e2e(doc, metrics)
        return (correct(doc), doc["attempted"], doc["failed"],
                {k: (v, u) for k, (v, u, _n) in metrics.items()})
    e2e_seconds = max(1, seconds // 2)
    doc = drive("e2e", workload, seed, e2e_seconds, deadline)
    print_e2e(doc, e2e_metrics(doc))
    tdoc = drive("trace", workload, seed, max(1, seconds - e2e_seconds), deadline)
    layers = summarize.per_layer(tdoc, doc)
    summarize.print_report(tdoc, layers)
    print(f"  spans: {tdoc['_path']}")
    for f in tdoc["failures"]:
        print(f"  traced failure: {f}")
    ok = correct(doc) and tdoc["failed"] == 0 and tdoc["warmup_failed"] == 0 and tdoc["digest"] == doc["digest"]
    return (ok, doc["attempted"] + tdoc["attempted"], doc["failed"] + tdoc["failed"], layers)


def steadiness(workloads, seed, repeat, seconds, trace):
    """Run each workload `repeat` times on consecutive seeds and print each
    metric's median, quartiles, relative spread and range."""
    bounds = {}
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as fh:
            bounds = {m["name"]: m.get("bound") for m in json.load(fh).get("end_to_end", [])}
    all_ok = True
    for w in workloads:
        runs = []
        for k in range(repeat):
            t0 = time.time()
            ok, _att, _failed, metrics = run_once(w, seed + k, seconds, trace)
            all_ok = all_ok and ok
            runs.append(metrics)
            print(f"[{w} seed {seed + k}: {'ok' if ok else 'INCORRECT'}, {time.time() - t0:.1f} s]",
                  file=sys.stderr)
        print(f"steadiness: {w}, {repeat} runs, seeds {seed}..{seed + repeat - 1}")
        print(f"  {'metric':26} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'min':>12} {'max':>12}"
              f" {'bound':>6}")
        for name in [k for k in runs[0] if all(k in r for r in runs)]:
            vals = [r[name][0] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"  {name:26} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {min(vals):12.4f}"
                  f" {max(vals):12.4f} {bound if bound is not None else '':>6}")
    return all_ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or `all` for the gated ones (steadiness report only)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="steadiness report: run each workload this many times on seeds seed, seed+1, ...")
    args = ap.parse_args()
    build()
    workloads = GATED_WORKLOADS if args.workload == "all" else (args.workload,)
    if args.repeat > 0:
        sys.exit(0 if steadiness(workloads, args.seed, args.repeat, args.seconds, args.trace) else 1)
    if len(workloads) != 1:
        fail("--workload all needs --repeat", 2)
    ok, attempted, failed, metrics = run_once(workloads[0], args.seed, args.seconds, args.trace)
    if not args.trace:
        metrics = {k: metrics[k] for k in GATED}
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
