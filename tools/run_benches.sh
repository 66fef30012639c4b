#!/usr/bin/env bash
# Builds the benchmark suite in Release and records benchmark results as
# BENCH_<n>.json files of {"BenchmarkName": ns_per_op} plus any per-bench
# counters as {"BenchmarkName/counter": value}.  Medians of several
# repetitions are recorded: the harness machines are noisy and single runs
# swing by 2x.
#
#   BENCH_2.json  resource-query fast path   (bench_eval_resource_db)
#   BENCH_4.json  retained frame pipeline    (bench_frame_pipeline)
#   BENCH_6.json  wire codec + trace replay  (bench_wire)
#   BENCH_7.json  hot-path + parallel paint  (bench_frame_pipeline +
#                                             bench_parallel_paint, merged)
#   BENCH_8.json  duplex transport           (bench_wire + bench_transport,
#                                             merged)
#   BENCH_9.json  layout-policy engine       (bench_policy)
#
# Usage: tools/run_benches.sh
#          records every file above.
#        tools/run_benches.sh BENCH OUT.json [BASELINE_CHECKOUT]
#          records one bench binary into OUT.json.  Given another checkout
#          of this repository (say, the parent commit), also builds and
#          records the same bench there first and adds its figures to
#          OUT.json as "parent/<key>", for a before/after in one file.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=build

if [[ $# -gt 0 ]]; then
  TARGETS=(--target "$1")
else
  TARGETS=(--target bench_eval_resource_db --target bench_frame_pipeline
           --target bench_wire --target bench_parallel_paint
           --target bench_transport --target bench_policy)
fi
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" "${TARGETS[@]}" >/dev/null

# Let the machine settle after the build before timing anything.
sleep 5

record() {
  local bench="$1" out="$2"
  # A missing binary means the build list above is out of sync with the
  # record calls below — fail loudly instead of skipping the bench.
  if [[ ! -x "$BUILD_DIR/bench/$bench" ]]; then
    echo "error: expected bench binary $BUILD_DIR/bench/$bench is missing" >&2
    exit 1
  fi
  "$BUILD_DIR"/bench/"$bench" \
      --benchmark_min_time=0.3 \
      --benchmark_repetitions=3 \
      --benchmark_report_aggregates_only=true \
      --benchmark_format=json >"$out.raw"

  python3 - "$out.raw" "$out" <<'EOF'
import json, sys
raw = json.load(open(sys.argv[1]))
out = {}
skip = {"name", "real_time", "cpu_time", "time_unit", "iterations", "run_name",
        "run_type", "repetitions", "repetition_index", "threads",
        "aggregate_name", "aggregate_unit", "family_index",
        "per_family_instance_index", "items_per_second"}
for bench in raw["benchmarks"]:
    name = bench["name"]
    if not name.endswith("_median"):
        continue
    base = name.removesuffix("_median")
    out[base] = round(bench["real_time"], 2)
    for key, value in bench.items():
        if key in skip or not isinstance(value, (int, float)):
            continue
        out[base + "/" + key] = round(value, 2)
json.dump(out, open(sys.argv[2], "w"), indent=2, sort_keys=True)
open(sys.argv[2], "a").write("\n")
EOF
  rm -f "$out.raw"
  echo "wrote $out"
}

if [[ $# -gt 0 ]]; then
  bench="$1" out="$2" baseline="${3:-}"
  if [[ -n "$baseline" ]]; then
    cmake -B "$baseline/$BUILD_DIR" -S "$baseline" -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build "$baseline/$BUILD_DIR" -j"$(nproc)" --target "$bench" >/dev/null
    sleep 5
    BUILD_DIR="$baseline/$BUILD_DIR" record "$bench" "$out.parent"
  fi
  record "$bench" "$out"
  if [[ -n "$baseline" ]]; then
    python3 - "$out.parent" "$out" <<'EOF'
import json, sys
merged = json.load(open(sys.argv[2]))
merged.update({"parent/" + k: v for k, v in json.load(open(sys.argv[1])).items()})
json.dump(merged, open(sys.argv[2], "w"), indent=2, sort_keys=True)
open(sys.argv[2], "a").write("\n")
EOF
    rm -f "$out.parent"
  fi
  exit 0
fi

record bench_eval_resource_db BENCH_2.json
record bench_frame_pipeline BENCH_4.json
record bench_wire BENCH_6.json
record bench_parallel_paint BENCH_7_parallel.json

# BENCH_7 = the PR-7 perf story in one file: the event-storm pair (fresh
# run, same binary as BENCH_4) plus the parallel painter results.  Also
# prints the retained-vs-immediate wall-clock delta, the number this repo's
# retained pipeline is supposed to win.
python3 - BENCH_4.json BENCH_7_parallel.json BENCH_7.json <<'EOF'
import json, sys
merged = {}
for path in sys.argv[1:3]:
    merged.update(json.load(open(path)))
json.dump(merged, open(sys.argv[3], "w"), indent=2, sort_keys=True)
open(sys.argv[3], "a").write("\n")

retained = merged.get("BM_FramePipeline_EventStorm_Retained")
immediate = merged.get("BM_FramePipeline_EventStorm_Immediate")
if retained and immediate:
    delta = (immediate - retained) / immediate * 100.0
    faster = "faster" if retained < immediate else "SLOWER"
    print(f"retained {retained:.0f} ns vs immediate {immediate:.0f} ns "
          f"per drain: retained is {abs(delta):.1f}% {faster}")
EOF
rm -f BENCH_7_parallel.json
echo "wrote BENCH_7.json"

record bench_transport BENCH_8_transport.json

# BENCH_8 = the PR-8 duplex transport story: the wire codec results (fresh
# run, same binary as BENCH_6) plus the socketpair transport results.  Also
# prints the socketpair round-trip cost against the in-process dispatch
# baseline — the price of a real kernel boundary under the same codec.
python3 - BENCH_6.json BENCH_8_transport.json BENCH_8.json <<'EOF'
import json, sys
merged = {}
for path in sys.argv[1:3]:
    merged.update(json.load(open(path)))
json.dump(merged, open(sys.argv[3], "w"), indent=2, sort_keys=True)
open(sys.argv[3], "a").write("\n")

direct = merged.get("BM_DispatchQueryDirect")
socket = merged.get("BM_SocketpairRoundTrip")
if direct and socket:
    print(f"query round trip: direct {direct:.0f} ns vs socketpair "
          f"{socket:.0f} ns ({socket / direct:.1f}x for the kernel boundary)")
EOF
rm -f BENCH_8_transport.json
echo "wrote BENCH_8.json"

# BENCH_9 = the PR-9 layout-policy story: manage-storm cost per policy
# (floating is the pre-refactor baseline), the price of a full runtime
# policy switch, and the isolated slot-geometry cost.  Also prints the
# per-client overhead the slot policies add over floating at 32 clients.
record bench_policy BENCH_9.json
python3 - BENCH_9.json <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
floating = data.get("BM_ManageStorm_Floating/32/manual_time")
tiling = data.get("BM_ManageStorm_Tiling/32/manual_time")
if floating and tiling:
    print(f"manage storm (32 clients): floating {floating / 1e6:.2f} ms vs "
          f"tiling {tiling / 1e6:.2f} ms ({tiling / floating:.2f}x for reflow)")
EOF
