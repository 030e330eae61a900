#!/usr/bin/env bash
# Regenerates the committed benchmark results from an optimized build.
#
#   scripts/bench.sh                 # full regeneration (Release, minutes)
#   RUNS=1000 scripts/bench.sh       # the paper's full Monte-Carlo depth
#   SWEEP=1,2,8 scripts/bench.sh     # thread counts for results/BENCH_sim.json
#   SHARDS=1,2,4 scripts/bench.sh    # reactor shard counts for the swarm sweep
#
# Always configures a dedicated Release tree in build-bench/ — bench/ refuses
# to configure in a Debug tree (see bench/CMakeLists.txt), and numbers from
# anything but an optimized build are not comparable to the committed ones.
#
# Outputs (committed):
#   results/microbench.txt        google-benchmark hot-path numbers
#   results/bench_all.txt         every figure binary + asymptotics + ablations
#   results/BENCH_sim.json        parallel sim engine thread sweep (Fig. 3)
#   results/BENCH_adversary.json  adversary zoo: attack x protocol curves
#   results/BENCH_crypto.json     per-backend crypto throughput (microbench)
#   results/BENCH_reactor.json    swarm sweep: 32/128/512-node reactor shard
#                                 sweep, plus the 10k-node flood sweep across
#                                 shard counts (§13)
#   results/BENCH_ingress.json    128 UDP nodes under a x=2048 flood
#
# Every results/BENCH_*.json is stamped with host metadata (cpu, threads,
# governor, compiler, kernel) by scripts/stamp_host.py.
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${RUNS:-}"
NP="$(nproc)"
# Sim thread sweep {1,2,8} + nproc; reactor shard sweep {1,2,4} + nproc.
# Appending nproc (when not already listed) keeps the committed curves
# meaningful on any host without hand-editing.
SWEEP="${SWEEP:-$(python3 -c "
import sys; base=[1,2,8]; np=int(sys.argv[1])
print(','.join(str(t) for t in base + [np] * (np not in base)))" "$NP")}"
SHARDS="${SHARDS:-$(python3 -c "
import sys; base=[1,2,4]; np=int(sys.argv[1])
print(','.join(str(s) for s in base + [np] * (np not in base)))" "$NP")}"
BUILD=build-bench

EXTRA=()
if [[ -n "$RUNS" ]]; then EXTRA+=(--runs "$RUNS"); fi

cmake -B "$BUILD" -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD"

mkdir -p results

{
  for b in "$BUILD"/bench/fig* "$BUILD"/bench/asymptotics \
           "$BUILD"/bench/ablations; do
    echo "### $(basename "$b")"
    case "$b" in
      # asymptotics takes no --runs flag
      *asymptotics*) "$b" ;;
      *) "$b" "${EXTRA[@]}" ;;
    esac
    echo
  done
} 2>&1 | tee results/bench_all.txt

"$BUILD"/bench/microbench --benchmark_min_time=0.2 \
  2>&1 | tee results/microbench.txt

"$BUILD"/bench/bench_sim --sweep "$SWEEP" --json results/BENCH_sim.json \
  "${EXTRA[@]}"

# microbench writes its crypto artifact into the CWD; it belongs with the
# other committed artifacts.
if [[ -f BENCH_crypto.json ]]; then mv BENCH_crypto.json results/; fi

# ---- reactor swarm sweep (results/BENCH_reactor.json) ----------------------
# The reactor across shard counts at 32/128/512 nodes, then the 10k-node
# flood sweep — lazy pair keys (prewarm is O(n^2) X25519 at this scale), a
# slower round and a longer window so dissemination shows up at all when the
# group is 20x larger than the core count can comfortably serve.
cmake --build "$BUILD" --target swarm
for n in 32 128 512; do
  ./"$BUILD"/examples/swarm --nodes "$n" --seconds 15 \
    --round 400 --rate 4 --alpha 0.25 --x 16 \
    --shards "$SHARDS" --json "results/.reactor_$n.json"
done
./"$BUILD"/examples/swarm --nodes 10000 --seconds 10 \
  --round 500 --rate 4 --alpha 0.25 --x 16 --no-prewarm \
  --shards "$SHARDS" --json results/.reactor_10000.json
python3 - <<'EOF'
import datetime
import json
import pathlib

results = pathlib.Path("results")
runs = []
for n in (32, 128, 512, 10000):
    part = results / f".reactor_{n}.json"
    run = json.loads(part.read_text())
    # Strip the loop-telemetry subtree from committed baselines: its sparse
    # histogram bucket arrays change shape run to run, which
    # compare_bench.py (correctly) refuses as a workload mismatch.
    for phase in run.get("phases", []):
        phase.pop("loop", None)
    runs.append(run)
    part.unlink()
doc = {
    "bench": "reactor_swarm_sweep",
    "generated": datetime.date.today().isoformat(),
    "note": "examples/swarm --round 400 --rate 4 --x 16 --seconds 15, one "
            "phase per --shards count, at 32/128/512 nodes; the 10k-node "
            "flood sweep uses --no-prewarm --round 500 --seconds 10. One "
            "process, in-process mem network, flooding adversary at "
            "alpha=0.25 x=16 throughout; each phase runs one event loop per "
            "shard, every socket waiting on its home shard's loop (DESIGN.md "
            "§13). The 10k group is overloaded: its nodes miss most of their "
            "configured rounds, so its delivery counts are not a defense "
            "figure.",
    "runs": runs,
}
(results / "BENCH_reactor.json").write_text(json.dumps(doc, indent=2) + "\n")
print("merged results/BENCH_reactor.json")
EOF

# 128 UDP nodes under a x=2048 flood — the DESIGN.md §12 ingress pipeline
# benchmark, same command CI runs.
./"$BUILD"/examples/swarm --nodes 128 --seconds 15 \
  --round 400 --rate 4 --x 2048 --udp \
  --json results/BENCH_ingress.json
# Same loop-subtree strip as the reactor sweep (see above): sparse histogram
# shapes are not stable across runs and would trip the comparator's identity
# check in CI.
python3 - <<'EOF'
import json
import pathlib

path = pathlib.Path("results/BENCH_ingress.json")
doc = json.loads(path.read_text())
for phase in doc.get("phases", []):
    phase.pop("loop", None)
path.write_text(json.dumps(doc, indent=2) + "\n")
print("stripped loop telemetry from results/BENCH_ingress.json")
EOF

# Stamp every JSON artifact with host metadata (cpu model, thread count,
# governor, compiler, kernel) — numbers are only comparable with known
# provenance. The compiler string comes from the bench tree's cache so it
# matches what actually built the binaries.
COMPILER=$(grep -m1 '^CMAKE_CXX_COMPILER:' "$BUILD"/CMakeCache.txt \
             | cut -d= -f2- || true)
if [[ -n "$COMPILER" && -x "$COMPILER" ]]; then
  COMPILER="$("$COMPILER" --version | head -n1)"
fi
python3 scripts/stamp_host.py --compiler "$COMPILER" results/BENCH_*.json

echo
echo "bench.sh: wrote results/bench_all.txt, results/microbench.txt," \
     "results/BENCH_sim.json, results/BENCH_adversary.json (fig15)," \
     "results/BENCH_crypto.json, results/BENCH_reactor.json," \
     "results/BENCH_ingress.json"
