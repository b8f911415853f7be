#!/usr/bin/env bash
# bench_pipeline.sh — measure the receiver pipeline across worker-pool widths
# plus the dechirp/sigcalc kernel micro-benchmarks, and write
# BENCH_pipeline.json (ns/op, allocs/op, bytes/op, samples/sec and
# samples/sec-per-core per variant, with the host's CPU count recorded per
# variant so numbers from different hosts stay comparable) for tracking the
# parallel-decode, allocation and kernel-fusion work.
#
# Usage: scripts/bench_pipeline.sh [benchtime] [output]
#   benchtime  go test -benchtime value for the receiver bench (default 5x;
#              kernel micro-benches always use time-based 200ms runs)
#   output     JSON path (default BENCH_pipeline.json in the repo root)
#
#        scripts/bench_pipeline.sh check [benchtime] [baseline]
#   Runs the same benchmarks into a temporary file, prints a benchstat-style
#   delta table against the committed baseline (default BENCH_pipeline.json),
#   and exits non-zero when the receiver `bare` variant, any production
#   kernel row (ScanPreambles, dechirp, FFT) or any fleet ingest row
#   (netserver workers=1/2/4) regresses by more than 10% in ns/op. The
#   test-oracle kernel rows (Dechirp/legacy*, DechirpKernel/legacy_3pass,
#   ForwardMagBatch/per-row) measure reference paths no production code
#   runs; they stay in the table as informational rows and are not gated.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${1:-}" == "check" ]]; then
    benchtime="${2:-5x}"
    base="${3:-BENCH_pipeline.json}"
    [[ -f "$base" ]] || { echo "baseline $base not found" >&2; exit 2; }
    tmp=$(mktemp /tmp/bench_pipeline.XXXXXX.json)
    trap 'rm -f "$tmp"' EXIT
    bash scripts/bench_pipeline.sh "$benchtime" "$tmp"
    echo "" >&2
    # Benchstat-style comparison: section-qualified rows, ns/op old vs new.
    # Gated rows (the receiver bare variant, every production kernel row
    # and every fleet ingest row) fail the check beyond +10%; the rest,
    # test-oracle kernel rows included, are informational.
    awk -v gate=10 '
    FNR == 1 { fileno++ }
    /^  "variants": \{/   { section = "variants"; next }
    /^  "kernels": \{/    { section = "kernels"; next }
    /^  "fleet": \{/      { section = "fleet"; next }
    /^  "tracestore": \{/ { section = "tracestore"; next }
    /^  \},?$/            { section = "" }
    section != "" && /^    "/ {
        name = $0; sub(/^ *"/, "", name); sub(/".*/, "", name)
        ns = $0; sub(/.*"ns_per_op": /, "", ns); sub(/[,}].*/, "", ns)
        key = section "/" name
        if (fileno == 1) { old[key] = ns }
        else if (!(key in new)) { new[key] = ns; order[n++] = key }
    }
    END {
        printf "%-40s %15s %15s %9s\n", "name", "old ns/op", "new ns/op", "delta"
        fail = 0
        for (i = 0; i < n; i++) {
            key = order[i]
            if (!(key in old)) {
                printf "%-40s %15s %15s %9s\n", key, "-", new[key], "new"
                continue
            }
            delta = (new[key] - old[key]) / old[key] * 100
            oracle = (key ~ /^kernels\/Dechirp\/legacy/ || key == "kernels/DechirpKernel/legacy_3pass" || key == "kernels/ForwardMagBatch/per-row")
            gated = !oracle && (key == "variants/bare" || key ~ /^kernels\// || key ~ /^fleet\//)
            mark = ""
            if (gated && delta > gate) { mark = "  REGRESSION"; fail = 1 }
            printf "%-40s %15s %15s %+8.2f%%%s\n", key, old[key], new[key], delta, mark
        }
        exit fail
    }' "$base" "$tmp"
    exit $?
fi

benchtime="${1:-5x}"
out="${2:-BENCH_pipeline.json}"

raw=$(go test -bench 'BenchmarkReceiver/' -benchtime "$benchtime" -count 3 -run '^$' . )
echo "$raw" >&2

# Kernel micro-benchmarks: the fused dechirp (vs the legacy 3-pass path), one
# Q evaluation, one full fractional sync search, the whole refine (±2T
# validation and search) of a collision trace's candidates, and the preamble
# scan across pool widths. Time-based benchtime keeps these stable regardless of the
# iteration count passed for the (much slower) receiver bench; -count with
# per-row minimum (taken in the awk below) is the honest estimator on a
# steal-prone shared host, where single runs swing far more than the
# differences being tracked. ScanPreambles gets the deepest repeat count:
# its iterations are ms-scale (few per 200ms window), so its single-run
# variance is the largest of the gated rows.
kraw=$(go test -bench 'BenchmarkDechirp$' -benchtime 200ms -count 5 -run '^$' ./internal/lora
       go test -bench 'BenchmarkEvalQ$|BenchmarkFractionalSearch$|BenchmarkRefine$|BenchmarkScanPreambles$' -benchtime 200ms -count 15 -run '^$' ./internal/detect
       go test -bench 'BenchmarkDechirpKernel$|BenchmarkForwardMag256$|BenchmarkForwardMagBatch$' -benchtime 200ms -count 5 -run '^$' ./internal/dsp)
echo "$kraw" >&2

# Network-server ingest across verification widths: the mixed join/dedup/
# data batch, reporting packets/sec and the dedup-table high-water bytes.
# Min across -count repeats (in the awk below), same estimator as the
# kernel rows: these are gated and µs-scale, so single-run steal-time
# swings would dwarf the regressions being tracked. 12 repeats because
# the three worker widths run the same inline path at this batch size
# and their mins must converge close enough to compare.
fraw=$(go test -bench 'BenchmarkNetserverIngest/' -benchtime 200ms -count 12 -run '^$' ./internal/netserver)
echo "$fraw" >&2

# Trace store: the durable append path (enqueue + batched write/fsync,
# records/s) and an indexed query against a sealed 100k-record store.
traw=$(go test -bench 'BenchmarkStoreAppend$|BenchmarkStoreQuery$' -benchtime 200ms -run '^$' ./internal/tracestore)
echo "$traw" >&2

{ echo "$raw"; echo "===KERNELS==="; echo "$kraw"; echo "===FLEET==="; echo "$fraw"; echo "===TRACESTORE==="; echo "$traw"; } | awk -v ncpu="$(nproc)" -v benchtime="$benchtime" '
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
    printf "{\n"
    printf "  \"bench\": \"BenchmarkReceiver\",\n"
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"host_cpus\": %d,\n", ncpu
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

echo "wrote $out" >&2
