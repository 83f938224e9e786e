#!/bin/sh
# bench_proof.sh — run the proof-pipeline benchmarks of the root package
# (BenchmarkConstruct, BenchmarkEncodeDecode, BenchmarkFullPipeline) and
# emit BENCH_proof.json, the machine-readable record for the proof layer.
#
# Usage: scripts/bench_proof.sh [output.json]
#
# Same JSON row shape as bench_sim.sh: one object per benchmark,
#   {"name":..., "pkg":..., "iterations":N, "ns_per_op":X,
#    "bytes_per_op":B, "allocs_per_op":A}
# plus any custom metrics the benchmark reports (bits, SC-cost), wrapped in
# {"go":version, "nproc":N, "gomaxprocs":N, "baseline":[...],
# "benchmarks":[...]}. ns/op depends on the box, so nproc and GOMAXPROCS
# are recorded beside it; allocs/op and bytes/op do not. The "baseline"
# block holds the rows measured before the incremental Construct replay:
# when the output file already has one, it is carried over verbatim, so
# regenerating refreshes only the current rows. No timestamps are
# embedded, so reruns on the same box and code are stable modulo noise.
set -eu
cd "$(dirname "$0")/.."

out="${1:-BENCH_proof.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

baseline=""
if [ -f "$out" ]; then
  baseline="$(awk '/^"baseline":\[/{f=1;next} /^\],/{f=0} f' "$out")"
fi

go test -run '^$' -bench 'BenchmarkConstruct$|BenchmarkEncodeDecode$|BenchmarkFullPipeline$' -benchmem . >"$tmp"

go_version="$(go env GOVERSION)"
nproc="$(nproc)"
gomaxprocs="${GOMAXPROCS:-$nproc}"
awk -v go_version="$go_version" -v nproc="$nproc" -v gomaxprocs="$gomaxprocs" -v baseline="$baseline" '
  /^pkg:/ { pkg = $2 }
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the -GOMAXPROCS suffix
    ns = ""; bytes = ""; allocs = ""; extra = ""
    for (i = 4; i <= NF; i += 2) {
      unit = $i; val = $(i-1)
      if (unit == "ns/op")          ns = val
      else if (unit == "B/op")      bytes = val
      else if (unit == "allocs/op") allocs = val
      else extra = extra sprintf(",\"%s\":%s", unit, val)
    }
    row = sprintf("  {\"name\":\"%s\",\"pkg\":\"%s\",\"iterations\":%s,\"ns_per_op\":%s,\"bytes_per_op\":%s,\"allocs_per_op\":%s%s}",
                  name, pkg, $2, ns, bytes, allocs, extra)
    rows = rows (rows == "" ? "" : ",\n") row
  }
  END {
    printf "{\"go\":\"%s\",\"nproc\":%s,\"gomaxprocs\":%s,\n", go_version, nproc, gomaxprocs
    if (baseline != "")
      printf "\"baseline\":[\n%s\n],\n", baseline
    printf "\"benchmarks\":[\n%s\n]}\n", rows
  }
' "$tmp" >"$out"
echo "wrote $out:" >&2
cat "$out" >&2
