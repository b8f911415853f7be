#!/usr/bin/env bash
# bench_pipeline.sh — measure the receiver pipeline across worker-pool widths
# plus the dechirp/sigcalc kernel micro-benchmarks, the network-server ingest
# and the trace store, and either record them or compare two commits.
#
# Usage: scripts/bench_pipeline.sh [benchtime] [output]
#   Records one run of every row into a JSON file (default
#   BENCH_pipeline.json in the repo root): ns/op, allocs/op, bytes/op,
#   samples/sec and samples/sec-per-core per variant, with the host's CPU
#   count and CPU model. benchtime is the go test -benchtime of the receiver
#   rows (default 5x); the other rows always use time-based 200ms runs.
#   Absolute numbers only describe the host they were taken on.
#
#        scripts/bench_pipeline.sh compare REF [benchtime]
#   Exports REF (any commit-ish) into a temporary directory, builds the
#   benchmark binaries of REF and of the working tree, and runs PAIRS (5)
#   rounds of both. Within a round every benchmark repeat alternates
#   between the two sides, and each side's value of a row is its minimum
#   over the round. For every row it prints both sides' minimum over all
#   rounds, their ratio (working tree / REF, ns/op), the median of the
#   per-pair ratios and the number of pairs the working tree won. A row
#   regresses when its min ratio exceeds 1.10, the estimator every run
#   uses; the median ratio and the pairs won are printed to show how
#   steady the difference is. The script exits non-zero when the receiver
#   `bare` variant, any production kernel row (ScanPreambles, dechirp,
#   FFT, the §7 search) or any fleet ingest row (netserver workers=1/2/4)
#   regresses. The test-oracle kernel rows (Dechirp/legacy*,
#   DechirpKernel/legacy_3pass, ForwardMagBatch/per-row) measure reference
#   paths no production code runs; they are printed but not gated.
#
#        scripts/bench_pipeline.sh check [benchtime]
#   compare against the merge base of HEAD and origin/main (main when there
#   is no origin).
set -euo pipefail

cd "$(dirname "$0")/.."

# Packages with benchmark rows.
pkgs=(. internal/lora internal/detect internal/dsp internal/netserver internal/tracestore)

# build SRC BIN compiles the test binary of every package in pkgs from the
# tree at SRC into the directory BIN. -trimpath keeps the directory a tree
# sits in out of its binaries, so identical sources give identical binaries.
build() {
    local src=$1 bin=$2 pkg
    mkdir -p "$bin"
    for pkg in "${pkgs[@]}"; do
        (cd "$src" && go test -c -trimpath -o "$bin/${pkg//\//_}.test" "./$pkg")
    done
}

# run BIN SRC PKG FLAGS... runs one package's benchmarks from its directory,
# as go test would.
run() {
    local bin=$1 src=$2 pkg=$3
    shift 3
    (cd "$src/$pkg" && "$bin/${pkg//\//_}.test" -test.run '^$' -test.timeout 30m "$@")
}

# counts[S] is how often a run repeats step S; every row keeps the minimum
# over its repeats.
counts=(3 5 15 5 12 1)

# PAIRS is the number of alternating rounds compare runs.
PAIRS=5

# step BIN SRC BENCHTIME S COUNT runs benchmark step S (0 to 5) of the tree
# at SRC COUNT times and prints go test's output. Steps 1 to 3 are the
# kernel rows, 4 the fleet rows and 5 the trace store.
step() {
    local bin=$1 src=$2 benchtime=$3 count=$5
    case $4 in
    0) run "$bin" "$src" . -test.bench 'BenchmarkReceiver/' -test.benchtime "$benchtime" -test.count "$count" ;;
    # Kernel micro-benchmarks: the fused dechirp (vs the legacy 3-pass
    # path), one Q evaluation, one full fractional sync search, the whole
    # refine (±2T validation and search) of a collision trace's candidates,
    # the preamble scan across pool widths and the FFT entry points.
    # Time-based benchtime keeps these stable regardless of the iteration
    # count passed for the (much slower) receiver bench; -count with
    # per-row minimum (taken in the awk below) is the honest estimator on a
    # steal-prone shared host, where single runs swing far more than the
    # differences being tracked. The detect rows get the deepest repeat
    # count: ScanPreambles iterations are ms-scale (few per 200ms window),
    # so its single-run variance is the largest of the gated rows.
    1) run "$bin" "$src" internal/lora -test.bench 'BenchmarkDechirp$' -test.benchtime 200ms -test.count "$count" ;;
    2) run "$bin" "$src" internal/detect -test.bench 'BenchmarkEvalQ$|BenchmarkFractionalSearch$|BenchmarkRefine$|BenchmarkScanPreambles$' -test.benchtime 200ms -test.count "$count" ;;
    3) run "$bin" "$src" internal/dsp -test.bench 'BenchmarkDechirpKernel$|BenchmarkForwardMag256$|BenchmarkForwardMagBatch$' -test.benchtime 200ms -test.count "$count" ;;
    # Network-server ingest across verification widths: the mixed join/
    # dedup/data batch, reporting packets/sec and the dedup-table
    # high-water bytes. Min across -count repeats, as for the kernel rows:
    # these are gated and µs-scale. 12 repeats because the three worker
    # widths run the same inline path at this batch size and their mins
    # must converge close enough to compare.
    4) run "$bin" "$src" internal/netserver -test.bench 'BenchmarkNetserverIngest/' -test.benchtime 200ms -test.count "$count" ;;
    # Trace store: the durable append path (enqueue + batched write/fsync,
    # records/s) and an indexed query against a sealed 100k-record store.
    5) run "$bin" "$src" internal/tracestore -test.bench 'BenchmarkStoreAppend$|BenchmarkStoreQuery$' -test.benchtime 200ms -test.count "$count" ;;
    esac
}

# summarize DIR BENCHTIME OUT writes the JSON record of the step outputs
# DIR/0 to DIR/5 to OUT.
summarize() {
    local dir=$1 benchtime=$2 out=$3 model
    model=$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
    { cat "$dir/0"; echo "===KERNELS==="; cat "$dir/1" "$dir/2" "$dir/3"
      echo "===FLEET==="; cat "$dir/4"; echo "===TRACESTORE==="; cat "$dir/5"; } |
    awk -v ncpu="$(nproc)" -v model="${model:-unknown}" -v benchtime="$benchtime" '
/^===KERNELS===$/ { kernels = 1; next }
/^===FLEET===$/ { kernels = 0; fleet = 1; next }
/^===TRACESTORE===$/ { fleet = 0; tstore = 1; next }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)          # strip the -GOMAXPROCS suffix
    sub(/#[0-9]+$/, "", name)          # collapse go test dup suffixes (workers=1#01)
    ns = ""; allocs = ""; bytes = ""; sps = ""; pps = ""; dbytes = ""; rps = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op") ns = $(i-1)
        if ($(i) == "allocs/op") allocs = $(i-1)
        if ($(i) == "B/op") bytes = $(i-1)
        if ($(i) == "samples/sec") sps = $(i-1)
        if ($(i) == "packets/s") pps = $(i-1)
        if ($(i) == "dedup-bytes") dbytes = $(i-1)
        if ($(i) == "records/s") rps = $(i-1)
    }
    if (ns == "") next
    if (tstore) {
        sub(/^Benchmark/, "", name)
        if (tseen[name]++) next
        torder[tn++] = name
        TNS[name] = ns; TRS[name] = rps
    } else if (!kernels && !fleet && name ~ /^BenchmarkReceiver\//) {
        sub(/^BenchmarkReceiver\//, "", name)
        # Keep the lowest-ns run of a repeated name (-count repeats and the
        # occasional #NN duplicate alike): the least steal-time-contaminated
        # observation, with its own allocs/bytes/samples so the row stays
        # internally consistent.
        if (!(name in NS)) order[n++] = name
        else if (ns + 0 >= NS[name] + 0) next
        NS[name] = ns; AL[name] = allocs; BY[name] = bytes; SPS[name] = sps
    } else if (kernels) {
        sub(/^Benchmark/, "", name)
        # Minimum across the -count repeats: the lowest observation is the
        # least steal-time-contaminated one.
        if (!(name in KNS)) { korder[kn++] = name; KNS[name] = ns }
        else if (ns + 0 < KNS[name] + 0) KNS[name] = ns
    } else if (fleet && name ~ /^BenchmarkNetserverIngest\//) {
        sub(/^BenchmarkNetserverIngest\//, "", name)
        # Lowest-ns repeat, carrying its own packets/s and dedup bytes so
        # the row stays internally consistent.
        if (!(name in FNS)) forder[fn++] = name
        else if (ns + 0 >= FNS[name] + 0) next
        FNS[name] = ns; FPPS[name] = pps; FDB[name] = dbytes
    }
}
END {
    gsub(/["\\]/, "", model)
    printf "{\n"
    printf "  \"bench\": \"BenchmarkReceiver\",\n"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"host_cpus\": %d,\n", ncpu
    printf "  \"host_cpu_model\": \"%s\",\n", model
    printf "  \"variants\": {\n"
    for (i = 0; i < n; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_per_op\": %s, \"allocs_per_op\": %s, \"bytes_per_op\": %s, \"samples_per_sec\": %s, \"host_cpus\": %d, \"samples_per_sec_per_core\": %.0f}%s\n", \
            name, NS[name], AL[name], BY[name], SPS[name], ncpu, SPS[name] / ncpu, (i < n-1 ? "," : "")
    }
    printf "  },\n"
    printf "  \"kernels\": {\n"
    for (i = 0; i < kn; i++) {
        name = korder[i]
        printf "    \"%s\": {\"ns_per_op\": %s}%s\n", name, KNS[name], (i < kn-1 ? "," : "")
    }
    printf "  },\n"
    # Netserver ingest (BenchmarkNetserverIngest): the network-server layer
    # over the mixed join/dedup/data batch, per verification width.
    printf "  \"fleet\": {\n"
    for (i = 0; i < fn; i++) {
        name = forder[i]
        printf "    \"%s\": {\"ns_per_op\": %s, \"packets_per_sec\": %s, \"packets_per_sec_per_core\": %.0f, \"dedup_table_bytes\": %s}%s\n", \
            name, FNS[name], FPPS[name], FPPS[name] / ncpu, FDB[name], (i < fn-1 ? "," : "")
    }
    printf "  },\n"
    # Trace store (BenchmarkStoreAppend / BenchmarkStoreQuery): durable
    # append throughput and a filtered indexed query over 100k records.
    printf "  \"tracestore\": {\n"
    for (i = 0; i < tn; i++) {
        name = torder[i]
        printf "    \"%s\": {\"ns_per_op\": %s", name, TNS[name]
        if (TRS[name] != "") printf ", \"records_per_sec\": %s", TRS[name]
        printf "}%s\n", (i < tn-1 ? "," : "")
    }
    printf "  }\n"
    printf "}\n"
}' > "$out"
}

# compare REF BENCHTIME: see the usage above. Within a pair, the
# repeats of each step alternate between the sides one at a time, so both
# sides' minimum of a row come from the same minutes of host load.
compare() {
    local ref benchtime=$2 work i s r side
    ref=$(git rev-parse --verify "$1^{commit}")
    work=$(mktemp -d /tmp/bench_pipeline.XXXXXX)
    trap "rm -rf '$work'" EXIT
    mkdir "$work/ref"
    git archive "$ref" | tar -x -C "$work/ref"
    build "$work/ref" "$work/bin-ref"
    build "$PWD" "$work/bin-head"
    local -A src=([ref]="$work/ref" [head]="$PWD")
    local -a order=(ref head)
    for ((i = 1; i <= PAIRS; i++)); do
        mkdir "$work/ref-$i" "$work/head-$i"
        for s in 0 1 2 3 4 5; do
            echo "[pair $i/$PAIRS] step $s" >&2
            for ((r = 0; r < counts[s]; r++)); do
                for side in ${order[(i + r) % 2]} ${order[(i + r + 1) % 2]}; do
                    step "$work/bin-$side" "${src[$side]}" "$benchtime" $s 1 >> "$work/$side-$i/$s"
                done
            done
        done
        summarize "$work/ref-$i" "$benchtime" "$work/ref-$i.json"
        summarize "$work/head-$i" "$benchtime" "$work/head-$i.json"
    done
    echo "" >&2
    python3 - "$work" "$PAIRS" "$ref" <<'EOF'
import json, statistics, sys

work, pairs, ref = sys.argv[1], int(sys.argv[2]), sys.argv[3]
GATE = 1.10
ORACLE = {"kernels/DechirpKernel/legacy_3pass", "kernels/ForwardMagBatch/per-row"}

def rows(path):
    doc = json.load(open(path))
    return {f"{sec}/{name}": row["ns_per_op"]
            for sec in ("variants", "kernels", "fleet", "tracestore")
            for name, row in doc.get(sec, {}).items()}

refs = [rows(f"{work}/ref-{i}.json") for i in range(1, pairs + 1)]
heads = [rows(f"{work}/head-{i}.json") for i in range(1, pairs + 1)]
print(f"ref {ref[:12]} vs working tree, {pairs} alternating pairs; ratios are tree / ref ns/op")
print(f"{'row':40} {'ref min':>12} {'tree min':>12} {'min ratio':>9} {'median ratio':>12} {'won':>6}")
fail = False
for key in heads[0]:
    if key not in refs[0]:
        print(f"{key:40} {'-':>12} {min(h[key] for h in heads):12.6g} {'new':>9}")
        continue
    ratios = [h[key] / r[key] for h, r in zip(heads, refs)]
    med = statistics.median(ratios)
    rmin, hmin = min(r[key] for r in refs), min(h[key] for h in heads)
    won = sum(x < 1 for x in ratios)
    oracle = key in ORACLE or key.startswith("kernels/Dechirp/legacy")
    gated = not oracle and (key == "variants/bare" or key.startswith(("kernels/", "fleet/")))
    mark = ""
    if gated and hmin / rmin > GATE:
        mark, fail = "  REGRESSION", True
    print(f"{key:40} {rmin:12.6g} {hmin:12.6g} {hmin / rmin:9.3f} {med:12.3f} {won:>3}/{pairs}{mark}")
for key in refs[0]:
    if key not in heads[0]:
        print(f"{key:40} {min(r[key] for r in refs):12.6g} {'-':>12} {'gone':>9}")
sys.exit(1 if fail else 0)
EOF
}

case "${1:-}" in
compare)
    [[ $# -ge 2 ]] || { echo "usage: $0 compare REF [benchtime]" >&2; exit 2; }
    compare "$2" "${3:-5x}"
    ;;
check)
    base=$(git merge-base HEAD origin/main 2>/dev/null || git merge-base HEAD main)
    compare "$base" "${2:-5x}"
    ;;
*)
    benchtime="${1:-5x}"
    out="${2:-BENCH_pipeline.json}"
    work=$(mktemp -d /tmp/bench_pipeline.XXXXXX)
    trap 'rm -rf "$work"' EXIT
    build "$PWD" "$work/bin"
    mkdir "$work/raw"
    for s in 0 1 2 3 4 5; do
        step "$work/bin" "$PWD" "$benchtime" $s "${counts[s]}" | tee "$work/raw/$s" >&2
    done
    summarize "$work/raw" "$benchtime" "$out"
    echo "wrote $out" >&2
    ;;
esac
