"""Benchmark of the brandt library: one workload, one seed, one JSON result.

    python3 bench/run.py --workload hom-search --seed 1 --seconds 40 --trace 0

Run from the repository root.  Each pass runs in a fresh interpreter
(``bench/worker.py``), one at a time, so the loop is closed with a single
client and no library state is shared between passes.  Passes repeat until
the next one would end after ``--seconds``; at least one always runs.  A
few set-up-only interpreters run first, so ``setup_s`` is a median of
several set-ups.

Every time in the end-to-end metrics is scaled to a fixed host speed.  The
host's speed for pure-Python work drifts by tens of percent from one minute
to the next, so each pass times ``worker.speed_probe`` (fixed work of the
benchmark's own, never the library) after every op and after set-up; an
op's time is multiplied by ``PROBE_REF_S`` over the median probe of its
pass.  A change to the library moves the scaled times as it moves the raw
ones; a change in the host's speed moves only the raw ones, which the
summary line before the result prints too.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` each pass runs twice on the same inputs, untraced and traced;
the result holds the per-layer metrics of the traced passes (per pass) and
their tracing overhead, and the spans are written to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.

The last line of standard output is the JSON result.  The exit code is 0
when every pass ran (failed ops are counted, not fatal) and 1 when a pass
could not run at all, e.g. because the library is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("hom-search", "build-validate", "triple-sweep")
DEFAULT_SEED = 1
SETUP_PROBES = 3
# Seconds speed_probe() takes at the reference speed the times are scaled to
# (about its median on a 2-vCPU x86-64 host with Python 3.11).
PROBE_REF_S = 6e-4
TIME_LIMIT_S = 170  # a run must end within 180 s

# Library functions the workloads call, as <module>.<function>.
LAYERS = (
    "core.build_semigroup",
    "construct.brandt_extension",
    "construct.double_extension_witness",
    "sgpfile.write_extension",
    "sgpfile.read_extension",
    "homs.enumerate_homs",
    "search.iso_search",
    "search.congruence_lattice",
    "classify.classify",
    "category.enumerate_triples",
    "category.induced_hom",
    "category.recover_triple",
    "category.image_decomposition",
    "category.check_block_separation",
)
# Work counters the workloads record, reported per traced pass, with units.
COUNTERS = (
    ("core.build_semigroup.cells", "count"),
    ("core.build_semigroup.assoc_triples", "count"),
    ("construct.brandt_extension.elements", "count"),
    ("sgpfile.write_extension.bytes", "bytes"),
    ("homs.enumerate_homs.maps", "count"),
    ("search.iso_search.found", "count"),
    ("search.congruence_lattice.congruences", "count"),
    ("category.enumerate_triples.triples", "count"),
    ("category.check_block_separation.hypothesis_unmet", "count"),
)


class PassFailed(Exception):
    pass


def run_worker(args, pass_index, trace, deadline, setup_only=False):
    cmd = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--pass", str(pass_index), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassFailed("out of time before the pass started")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass {pass_index} did not finish in time") from exc
    if proc.returncode != 0:
        raise PassFailed(f"pass {pass_index} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def scaled_op_times(p):
    """The pass's op times, scaled to the speed at which a probe takes PROBE_REF_S.

    One factor per pass: probes near each op track the host no better than
    the pass's median probe, and are noisier.
    """
    scale = PROBE_REF_S / statistics.median(p["probes"])
    return [seconds * scale for seconds, _ in p["ops"]]


def scaled_setup(q):
    return q["setup_s"] * PROBE_REF_S / statistics.median(q["setup_probes"])


def latency_metrics(lat, setups):
    return {
        "ops_per_s": metric(len(lat) / sum(lat), "1/s"),
        "op_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": metric(statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
    }


def end_to_end(passes, interpreters):
    lat = [s for p in passes for s in scaled_op_times(p)]
    out = latency_metrics(lat, [scaled_setup(q) for q in interpreters])
    out["peak_rss_mb"] = metric(statistics.median(p["rss_kb"] for p in passes) / 1024, "MB")
    return out


def raw_summary(passes, interpreters):
    """The end-to-end times unscaled, and the host's speed, for the summary line."""
    lat = [s for p in passes for s, _ in p["ops"]]
    raw = latency_metrics(lat, [q["setup_s"] for q in interpreters])
    probe = statistics.median(x for p in passes for x in p["probes"])
    parts = [f"{k} {v['value']:.4g}" for k, v in raw.items()]
    return f"unscaled: {', '.join(parts)}; median probe {probe / PROBE_REF_S:.3f} x reference"


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(untraced, traced):
    k = len(traced)
    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    failed = dict.fromkeys(LAYERS, 0)
    counts = {}
    for p in traced:
        for name, start, end, _parent, _op, _error, bad in p["spans"]:
            if name == "op":
                continue
            calls[name] += 1
            busy[name] += end - start
            failed[name] += bad
        for name, n in p["counts"].items():
            counts[name] = counts.get(name, 0) + n
    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = metric(calls[name] / k, "count")
        out[f"{name}.busy_s"] = metric(busy[name] / k, "s")
        out[f"{name}.failed"] = metric(failed[name] / k, "count")
    for name, unit in COUNTERS:
        out[name] = metric(counts.get(name, 0) / k, unit)
    out["category.induced_hom.distinct_ratio"] = metric(
        _ratio(counts.get("category.induced_hom.distinct", 0), calls["category.induced_hom"]),
        "ratio",
    )
    out["category.recover_triple.recovered_ratio"] = metric(
        _ratio(counts.get("category.recover_triple.recovered", 0), calls["category.recover_triple"]),
        "ratio",
    )
    plain = sum(s for p in untraced for s in scaled_op_times(p))
    with_spans = sum(s for p in traced for s in scaled_op_times(p))
    out["tracing_overhead_frac"] = metric(with_spans / plain - 1, "frac")
    ops = [ok for p in traced for _, ok in p["ops"]]
    out["failed_frac"] = metric(ops.count(False) / len(ops), "frac")
    return out


def write_spans(args, traced):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    keys = ("name", "start", "end", "parent", "op", "error", "failed")
    with open(path, "w") as fh:
        for pass_index, p in enumerate(traced):
            for span in p["spans"]:
                rec = dict(zip(keys, span), **{"pass": pass_index})
                fh.write(json.dumps(rec) + "\n")
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs, for the self-test")
    args = p.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = [
            run_worker(args, i, 0, deadline, setup_only=True) for i in range(SETUP_PROBES)
        ]
        untraced, traced = [], []
        end = time.monotonic() + args.seconds
        pass_index = 0
        while True:
            started = time.monotonic()
            untraced.append(run_worker(args, pass_index, 0, deadline))
            if args.trace:
                traced.append(run_worker(args, pass_index, 1, deadline))
            pass_index += 1
            now = time.monotonic()
            if now + (now - started) > end:
                break
    except PassFailed as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    setups += passes
    attempted = sum(len(q["ops"]) for q in passes)
    failed = sum(not ok for q in passes for _, ok in q["ops"])
    for q in passes:
        for message in q["errors"][:10]:
            print(f"failed op: {message}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(untraced, traced)
        note = f"spans in {write_spans(args, traced)}"
    else:
        metrics = end_to_end(untraced, setups)
        timed = sum(len(q["ops"]) for q in untraced)
        note = (
            f"{timed} ops timed, {timed - timed * 9 // 10} at or beyond p90; "
            + raw_summary(untraced, setups)
        )
    print(f"{args.workload} seed {args.seed}: {len(untraced)} passes, {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
