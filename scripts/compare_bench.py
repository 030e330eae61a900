#!/usr/bin/env python3
"""compare_bench — perf-regression gate over committed BENCH_*.json baselines.

Usage:
  compare_bench.py BASELINE.json FRESH.json [--tolerance PCT]
                   [--skip-on-host-mismatch] [--require-host]
  compare_bench.py --self-test

Walks both documents and compares every numeric leaf that lives at the same
path. Keys are classified by name:

  lower-is-better   wall/latency/cpu times (*_ms, *_us, *_s, *_ns, latency_*,
                    cpu_*, *slop*), per-op costs (*_per_op, *_us_per_*);
  higher-is-better  rates and ratios (*per_sec*, *throughput*, speedup*,
                    *ops*, verified_*, delivered, *_mb_s and other
                    bytes-per-second rates);
  identity          workload echo ("config"/"workload" subtrees, seeds,
                    counts) — must match exactly, otherwise the two runs
                    measured different things and the comparison is refused;
  everything else   reported when it moves, never fatal (counters like
                    `chunks` vary with thread count legitimately).

A perf leaf regresses when it moves in the bad direction by more than
--tolerance percent (default 25 — wall-clock noise on shared runners is
real; tighten on quiet hardware). Improvements are reported, never fatal.

Host guard: numbers from different machines are not comparable. Each
document's host fingerprint (scripts/stamp_host.py: cpu_model,
hardware_threads, compiler; also the ad-hoc host{cores,compiler} and
host_hardware_threads forms) is compared first; on mismatch the tool
*refuses* (exit 3) rather than passing or failing on garbage. CI passes
--skip-on-host-mismatch: a runner that does not match the committed
baseline's host skips cleanly (exit 0, loudly) instead of gating on an
apples-to-oranges diff. --require-host refuses unstamped documents.

Exit: 0 ok/skip, 1 regression, 2 usage/parse error, 3 host mismatch.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

# `_s$` is seconds unless a byte unit precedes it: sha256_mb_s is MB/s.
LOWER_BETTER_RE = re.compile(
    r"(?:^|_)(?:wall|latency|cpu|slop|dispatch|poll|tick_interval)"
    r"(?:_|$)|_(?:ms|us|ns)$|(?<![kmg]b)_s$|_us_(?:mean|p50|p90|p99)$"
    r"|_per_op$|(?:^|_)(?:ms|us|ns)_per_")
HIGHER_BETTER_RE = re.compile(
    r"per_sec|throughput|speedup|_ops$|^ops_|verified|delivered|_[kmg]b_s$")
IDENTITY_KEYS = {"config", "workload", "seed", "seeds", "n", "nodes", "runs",
                 "runs_per_point", "points", "threads", "workers", "trials"}
HOST_KEYS = ("cpu_model", "hardware_threads", "cores", "compiler")


def classify(key: str):
    if LOWER_BETTER_RE.search(key):
        return "lower"
    if HIGHER_BETTER_RE.search(key):
        return "higher"
    return "info"


def host_fingerprint(doc) -> dict:
    fp = {}
    host = doc.get("host") if isinstance(doc, dict) else None
    if isinstance(host, dict):
        for k in HOST_KEYS:
            if k in host:
                fp[k] = host[k]
    if isinstance(doc, dict) and "host_hardware_threads" in doc:
        fp.setdefault("hardware_threads", doc["host_hardware_threads"])
    return fp


def walk(base, fresh, path, out):
    """Collects (path, key, base_value, fresh_value) numeric pairs and
    identity mismatches into `out` (dict of lists)."""
    if isinstance(base, dict) and isinstance(fresh, dict):
        for k in base:
            if k == "host" or k not in fresh:
                continue
            here = f"{path}.{k}" if path else k
            if k in IDENTITY_KEYS:
                if base[k] != fresh[k]:
                    out["identity"].append((here, base[k], fresh[k]))
                continue
            walk(base[k], fresh[k], here, out)
    elif isinstance(base, list) and isinstance(fresh, list):
        if len(base) != len(fresh):
            out["identity"].append((f"{path}.length", len(base), len(fresh)))
            return
        for i, (b, f) in enumerate(zip(base, fresh)):
            walk(b, f, f"{path}[{i}]", out)
    elif isinstance(base, bool) or isinstance(fresh, bool):
        if base != fresh:
            out["identity"].append((path, base, fresh))
    elif isinstance(base, (int, float)) and isinstance(fresh, (int, float)):
        key = path.rsplit(".", 1)[-1].split("[")[0]
        out["numeric"].append((path, key, float(base), float(fresh)))


def compare(base_doc, fresh_doc, tolerance_pct: float):
    """Returns (regressions, improvements, notes, identity_mismatches)."""
    out = {"numeric": [], "identity": []}
    walk(base_doc, fresh_doc, "", out)
    regressions, improvements, notes = [], [], []
    tol = tolerance_pct / 100.0
    for path, key, b, f in out["numeric"]:
        direction = classify(key)
        if b == 0.0:
            if f != 0.0 and direction != "info":
                notes.append(f"{path}: baseline 0 -> {f:g} (not gated)")
            continue
        delta = (f - b) / abs(b)
        desc = f"{path}: {b:g} -> {f:g} ({delta:+.1%})"
        if direction == "lower":
            if delta > tol:
                regressions.append(desc)
            elif delta < -tol:
                improvements.append(desc)
        elif direction == "higher":
            if delta < -tol:
                regressions.append(desc)
            elif delta > tol:
                improvements.append(desc)
        elif abs(delta) > tol:
            notes.append(desc + " [unclassified]")
    return regressions, improvements, notes, out["identity"]


def run(base_doc, fresh_doc, tolerance: float, skip_on_host_mismatch: bool,
        require_host: bool, out=print) -> int:
    base_fp = host_fingerprint(base_doc)
    fresh_fp = host_fingerprint(fresh_doc)
    if require_host and (not base_fp or not fresh_fp):
        out("compare_bench: REFUSED — document(s) missing a host stamp "
            "(run scripts/stamp_host.py)")
        return 3
    shared = set(base_fp) & set(fresh_fp)
    mismatched = {k for k in shared if base_fp[k] != fresh_fp[k]}
    if mismatched:
        msg = ", ".join(
            f"{k}: {base_fp[k]!r} vs {fresh_fp[k]!r}" for k in
            sorted(mismatched))
        if skip_on_host_mismatch:
            out(f"compare_bench: SKIPPED — host mismatch ({msg}); numbers "
                "from different machines are not comparable")
            return 0
        out(f"compare_bench: REFUSED — host mismatch ({msg}); re-baseline "
            "on this host or pass --skip-on-host-mismatch")
        return 3

    regressions, improvements, notes, identity = compare(
        base_doc, fresh_doc, tolerance)
    if identity:
        for path, b, f in identity:
            out(f"compare_bench: workload mismatch at {path}: "
                f"{b!r} vs {f!r}")
        out("compare_bench: REFUSED — the two documents measured different "
            "workloads")
        return 3
    for d in notes:
        out(f"  note       {d}")
    for d in improvements:
        out(f"  improved   {d}")
    for d in regressions:
        out(f"  REGRESSED  {d}")
    out(f"compare_bench: {len(regressions)} regression(s), "
        f"{len(improvements)} improvement(s) at ±{tolerance:g}%")
    return 1 if regressions else 0


# ---------------------------------------------------------------------------

def self_test() -> int:
    base = {
        "host": {"cpu_model": "X", "hardware_threads": 4, "compiler": "g12"},
        "workload": {"n": 120, "seed": 1},
        "sweep": [{"threads": 1, "wall_ms": 100.0, "msgs_per_sec": 5000.0,
                   "chunks": 120, "sha256_mb_s": 1000.0,
                   "batch64_us_per_sig": 50.0}],
    }

    def clone(**leaf):
        doc = json.loads(json.dumps(base))
        doc["sweep"][0].update(leaf)
        return doc

    sink = []
    cases = []  # (name, expected_exit, fresh_doc, kwargs)
    cases.append(("identical is clean", 0, clone(), {}))
    cases.append(("slower wall regresses", 1, clone(wall_ms=140.0), {}))
    cases.append(("faster wall improves (exit 0)", 0, clone(wall_ms=60.0),
                  {}))
    cases.append(("lower throughput regresses", 1,
                  clone(msgs_per_sec=3000.0), {}))
    cases.append(("within tolerance passes", 0, clone(wall_ms=110.0), {}))
    cases.append(("unclassified drift never gates", 0, clone(chunks=240),
                  {}))
    cases.append(("faster MB/s improves (exit 0)", 0,
                  clone(sha256_mb_s=2000.0), {}))
    cases.append(("slower MB/s regresses", 1, clone(sha256_mb_s=500.0), {}))
    cases.append(("slower us_per_sig regresses", 1,
                  clone(batch64_us_per_sig=80.0), {}))
    cases.append(("faster us_per_sig improves (exit 0)", 0,
                  clone(batch64_us_per_sig=30.0), {}))

    other_host = clone()
    other_host["host"]["cpu_model"] = "Y"
    cases.append(("host mismatch refuses", 3, other_host, {}))
    cases.append(("host mismatch skips with flag", 0, other_host,
                  {"skip_on_host_mismatch": True}))

    other_load = clone()
    other_load["workload"]["n"] = 240
    cases.append(("workload mismatch refuses", 3, other_load, {}))

    unstamped = clone()
    del unstamped["host"]
    cases.append(("unstamped passes by default", 0, unstamped, {}))
    cases.append(("unstamped refused with --require-host", 3, unstamped,
                  {"require_host": True}))

    failures = 0
    for name, expected, fresh, kw in cases:
        sink.clear()
        rc = run(base, fresh, tolerance=25.0,
                 skip_on_host_mismatch=kw.get("skip_on_host_mismatch", False),
                 require_host=kw.get("require_host", False),
                 out=sink.append)
        if rc != expected:
            failures += 1
            print(f"SELF-TEST FAIL [{name}]: expected exit {expected}, "
                  f"got {rc}")
            for line in sink:
                print(f"    {line}")
    status = "FAILED" if failures else "passed"
    print(f"compare_bench --self-test: {len(cases) - failures}/{len(cases)} "
          f"cases {status}")
    return 1 if failures else 0


def main() -> int:
    if "--self-test" in sys.argv[1:]:
        return self_test()
    ap = argparse.ArgumentParser(
        description="diff fresh benchmark JSON against a committed baseline")
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--tolerance", type=float, default=25.0,
                    metavar="PCT", help="regression threshold in percent "
                    "(default: 25)")
    ap.add_argument("--skip-on-host-mismatch", action="store_true",
                    help="exit 0 (loudly) instead of 3 when the hosts differ")
    ap.add_argument("--require-host", action="store_true",
                    help="refuse documents without a host stamp")
    args = ap.parse_args()
    try:
        with open(args.baseline, encoding="utf-8") as f:
            base_doc = json.load(f)
        with open(args.fresh, encoding="utf-8") as f:
            fresh_doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"compare_bench: {e}", file=sys.stderr)
        return 2
    return run(base_doc, fresh_doc, args.tolerance,
               args.skip_on_host_mismatch, args.require_host)


if __name__ == "__main__":
    sys.exit(main())
