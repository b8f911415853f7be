#!/usr/bin/env bash
# run.sh — run the benchmark the way its acceptance check does, and
# summarize.
#
# Usage (from any directory):
#   bench/run.sh [set] [-seed default|heldout|N] [-o FILE]
#       One set: every workload in BENCHMARK.json run RUNS times, with
#       seeds N, N+1, ..., N+RUNS-1, plus one traced run per workload at
#       seed N. Writes the median, quartiles and spread of every metric per
#       workload, with host_cpus, the Go version and the commit, to FILE
#       (default .bench_build/run-set.json) and prints a table.
#   bench/run.sh repeat [-seed default|heldout|N] [-o FILE]
#       Two full sets with the same seeds. Fails (exit 1) when an
#       end-to-end metric's spread exceeds its bound in either set (setup_s
#       excepted), or its two medians differ, either way, by more than its
#       bound.
#
# The spread is (Q3 - Q1) / median over the set's runs, with quartiles as
# Python's statistics.quantiles(values, n=4) gives them. The default seed
# is for everyday runs; a performance claim must also hold on the
# held-out seed, which is not used while writing a change.
set -euo pipefail

DEFAULT_SEED=1
HELDOUT_SEED=1001
RUNS=10

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
mode=set
if [[ "${1:-}" == "set" || "${1:-}" == "repeat" ]]; then
    mode=$1
    shift
fi
seed=$DEFAULT_SEED
out=.bench_build/run-$mode.json
while [[ $# -gt 0 ]]; do
    case "$1" in
        -seed)
            case "$2" in
                default) seed=$DEFAULT_SEED ;;
                heldout) seed=$HELDOUT_SEED ;;
                *) seed=$2 ;;
            esac
            shift 2 ;;
        -o) out=$2; shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

logs=.bench_build/runs
mkdir -p "$logs"
read -r -a cmd < <(python3 -c 'import json; print(" ".join(json.load(open("BENCHMARK.json"))["command"]))')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

# run_set NAME: every workload once per seed, then once traced each. The
# workloads take turns, so a spell of host slowdown lands on a run or two of
# every workload rather than on most runs of one.
run_set() {
    local name=$1 w i s
    for ((i = 0; i < RUNS; i++)); do
        s=$((seed + i))
        for w in $workloads; do
            echo "[$name] $w seed $s" >&2
            "${cmd[@]}" --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 \
                > "$logs/$name-$w-$s.out"
        done
    done
    for w in $workloads; do
        echo "[$name] $w seed $seed traced" >&2
        "${cmd[@]}" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
            > "$logs/$name-$w-traced.out"
    done
}

sets=(a)
[[ $mode == repeat ]] && sets=(a b)
for name in "${sets[@]}"; do
    run_set "$name"
done

commit=$(git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)
python3 - "$out" "$logs" "$seed" "$RUNS" "$commit" "${sets[@]}" <<'EOF'
import json, os, statistics, sys

out, logs, seed, runs, commit, sets = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), sys.argv[5], sys.argv[6:]
bench = json.load(open("BENCHMARK.json"))
e2e = {m["name"]: m for m in bench["end_to_end"]}

def lines(path):
    detail, result = [json.loads(l) for l in open(path).read().splitlines()[-2:]]
    return detail["detail"], result

def summarize(name):
    res = {}
    for w in (w["name"] for w in bench["workloads"]):
        vals, fails, details = {}, [], []
        for i in range(runs):
            d, r = lines(f"{logs}/{name}-{w}-{seed + i}.out")
            if not r["correct"]:
                sys.exit(f"{w} seed {seed + i}: correct is false")
            fails.append(r["failed"])
            details.append(d)
            for k, v in r["metrics"].items():
                vals.setdefault(k, []).append(v["value"])
        stats = {}
        for k, v in vals.items():
            q1, q2, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            stats[k] = {"unit": e2e[k]["unit"], "median": med, "q1": q1, "q3": q3,
                        "spread": (q3 - q1) / med, "values": v}
        td, tr = lines(f"{logs}/{name}-{w}-traced.out")
        res[w] = {"end_to_end": stats, "failed": fails,
                  "attempted": [d["ops_total"] for d in details],
                  "traced": {k: v["value"] for k, v in tr["metrics"].items()},
                  "traced_detail": td}
    return res

summaries = [summarize(s) for s in sets]
d0 = lines(f"{logs}/{sets[0]}-{bench['workloads'][0]['name']}-{seed}.out")[0]
doc = {"commit": commit, "go": d0["go"], "host_cpus": d0["host_cpus"], "gomaxprocs": d0["gomaxprocs"],
       "run_seconds": bench["run_seconds"], "seeds": [seed, seed + runs - 1], "sets": dict(zip(sets, summaries))}
os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
with open(out, "w") as f:
    json.dump(doc, f, indent=1, sort_keys=True)
    f.write("\n")

ok = True
print(f"commit {commit}  {d0['go']}  host_cpus {d0['host_cpus']}  seeds {seed}..{seed + runs - 1}  -> {out}")
print(f"{'workload':12} {'metric':20} {'bound':>6} " + " ".join(f"{'median ' + s:>14} {'spread ' + s:>9}" for s in sets)
      + ("  worse" if len(sets) == 2 else ""))
for w in summaries[0]:
    for k, m in e2e.items():
        row = [summaries[i][w]["end_to_end"][k] for i in range(len(sets))]
        cells = " ".join(f"{r['median']:14.6g} {r['spread']:9.4f}" for r in row)
        verdict = ""
        for r in row:
            if k != "setup_s" and r["spread"] > m["bound"]:
                ok, verdict = False, "  SPREAD>BOUND"
        if len(row) == 2:
            # The check is two-sided: set b must agree with set a within the
            # bound whichever way it moved. The column keeps the sign, as how
            # much worse b reads than a.
            a, b = row[0]["median"], row[1]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            cells += f" {worse:+6.3f}"
            if abs(worse) > m["bound"]:
                ok, verdict = False, verdict + "  DIFF>BOUND"
        print(f"{w:12} {k:20} {m['bound']:6.3f} {cells}{verdict}")
if len(sets) == 2:
    print("repeat check:", "PASS" if ok else "FAIL")
sys.exit(0 if ok else 1)
EOF
