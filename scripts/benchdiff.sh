#!/usr/bin/env bash
# benchdiff.sh — guard the hot-path benchmarks against regressions.
#
# Compare mode (default):
#   scripts/benchdiff.sh [baseline-ref]
# runs the hot benchmarks on HEAD's worktree and on baseline-ref
# (default: the merge base with origin/main, falling back to HEAD~1),
# then compares. The build FAILS when any benchmark's time regresses by
# more than 5% or its allocs/op regresses at all. When benchstat is on
# PATH its comparison table is printed as well; the pass/fail decision
# always comes from the embedded comparator so the script works in
# containers where benchstat cannot be installed.
#
# Snapshot mode:
#   scripts/benchdiff.sh snapshot [out.json]
# runs the hot benchmarks on the current tree only and writes a
# machine-readable JSON snapshot (ns/op and allocs/op per benchmark,
# plus sweep_improvement_pct: the production sweep's improvement over
# the reference sweep at one worker; both run the same Tasks 2-3 runner
# and batched kernel, so it measures the binned walk plus the candidate
# table against a full x sort plus per-track window queries).
# BENCH_7.json and BENCH_10.json in the repo root are such snapshots.
#
# Tunables: BENCH_PATTERN (regexp of benchmarks to run), BENCH_TIME
# (per-benchmark time, default 1s), BENCH_COUNT (repetitions averaged
# by the comparator, default 3), BENCH_CPU (go test -cpu list, e.g.
# "1,8" to gate both the serial and the fanned-out worker pool; empty
# runs at the machine's GOMAXPROCS only). With several -cpu values the
# comparator averages across them — base and head are measured the
# same way, so the regression gate still compares like with like.
set -euo pipefail

cd "$(dirname "$0")/.."

PATTERN=${BENCH_PATTERN:-'^(BenchmarkCoherent_|BenchmarkParShard_|BenchmarkReference_Task23$|BenchmarkBroadphase_Sweep_10000$|BenchmarkScenario_Generate_)'}
TIME=${BENCH_TIME:-1s}
COUNT=${BENCH_COUNT:-3}
CPU=${BENCH_CPU:-}
MAX_TIME_REGRESS=${MAX_TIME_REGRESS:-5} # percent

run_bench() { # run_bench <outfile>
    go test -run '^$' -bench "$PATTERN" -benchtime "$TIME" -count "$COUNT" ${CPU:+-cpu "$CPU"} . | tee "$1"
}

# summarize <benchfile> <out.json> — average repetitions per benchmark
# and emit {"benchmarks":[{"name":...,"ns_per_op":...,"allocs_per_op":...}]}.
summarize() {
    awk -v OFS='' '
        /^Benchmark/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            for (i = 2; i <= NF; i++) {
                if ($i == "ns/op")     { ns[name] += $(i-1); seen[name]++ }
                if ($i == "allocs/op") { al[name] += $(i-1) }
            }
        }
        END {
            n = 0
            for (b in seen) names[n++] = b
            # stable order: simple insertion sort by name
            for (i = 1; i < n; i++) {
                key = names[i]
                for (j = i - 1; j >= 0 && names[j] > key; j--) names[j+1] = names[j]
                names[j+1] = key
            }
            printf "{\n  \"benchmarks\": [\n"
            for (i = 0; i < n; i++) {
                b = names[i]
                printf "    {\"name\": \"%s\", \"ns_per_op\": %.1f, \"allocs_per_op\": %.2f}%s\n", \
                    b, ns[b]/seen[b], al[b]/seen[b], (i < n-1 ? "," : "")
            }
            printf "  ]"
            # Binned walk plus table against full x sort plus per-track
            # window queries (same runner and kernel in both lanes).
            reb = "BenchmarkCoherent_Task23_4000_Rebuild"
            ps = "BenchmarkParShard_Task23_4000_W1"
            if ((reb in seen) && (ps in seen)) {
                r = ns[reb]/seen[reb]; p = ns[ps]/seen[ps]
                printf ",\n  \"sweep_improvement_pct\": %.1f", (r - p) / r * 100
            }
            printf "\n}\n"
        }' "$1" > "$2"
}

# compare <base.bench> <head.bench> — embedded benchstat fallback: per
# benchmark, average the repetitions and apply the regression gates.
compare() {
    awk -v max_regress="$MAX_TIME_REGRESS" '
        FNR == 1 { file++ }
        /^Benchmark/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            for (i = 2; i <= NF; i++) {
                if ($i == "ns/op") {
                    if (file == 1) { base_ns[name] += $(i-1); base_n[name]++ }
                    else           { head_ns[name] += $(i-1); head_n[name]++ }
                }
                if ($i == "allocs/op") {
                    if (file == 1) base_al[name] += $(i-1)
                    else           head_al[name] += $(i-1)
                }
            }
        }
        END {
            fail = 0
            printf "%-50s %14s %14s %8s\n", "benchmark", "base ns/op", "head ns/op", "delta"
            for (b in head_n) {
                if (!(b in base_n)) { printf "%-50s %14s %14.1f %8s\n", b, "(new)", head_ns[b]/head_n[b], "-"; continue }
                bns = base_ns[b] / base_n[b]; hns = head_ns[b] / head_n[b]
                bal = base_al[b] / base_n[b]; hal = head_al[b] / head_n[b]
                delta = (hns - bns) / bns * 100
                flag = ""
                if (delta > max_regress) { flag = "  TIME REGRESSION"; fail = 1 }
                if (hal > bal)           { flag = flag "  ALLOC REGRESSION (" bal " -> " hal " allocs/op)"; fail = 1 }
                printf "%-50s %14.1f %14.1f %+7.1f%%%s\n", b, bns, hns, delta, flag
            }
            if (fail) { print "\nbenchdiff: FAIL (time >" max_regress "% or allocs/op regressed)"; exit 1 }
            print "\nbenchdiff: ok"
        }' "$1" "$2"
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if [[ "${1:-}" == "snapshot" ]]; then
    out=${2:-BENCH_10.json}
    run_bench "$tmp/head.bench"
    summarize "$tmp/head.bench" "$out"
    echo "benchdiff: wrote $out"
    exit 0
fi

base_ref=${1:-}
if [[ -z "$base_ref" ]]; then
    base_ref=$(git merge-base HEAD origin/main 2>/dev/null || true)
    [[ -n "$base_ref" && "$base_ref" != "$(git rev-parse HEAD)" ]] || base_ref=HEAD~1
fi
echo "benchdiff: baseline $base_ref, pattern $PATTERN"

run_bench "$tmp/head.bench"

git worktree add --detach "$tmp/base" "$base_ref" >/dev/null
trap 'git worktree remove --force "$tmp/base" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT
# go test exits 0 when no benchmark matches (compare then lists every
# head row as new), so a failure here means the baseline did not build
# or a baseline benchmark failed: nothing was compared, and the gate
# must not pass.
if ! (cd "$tmp/base" && go test -run '^$' -bench "$PATTERN" -benchtime "$TIME" -count "$COUNT" ${CPU:+-cpu "$CPU"} . > "$tmp/base.bench" 2>&1); then
    echo "benchdiff: FAIL: the baseline $base_ref did not build or a baseline benchmark failed; nothing was compared" >&2
    tail -n 20 "$tmp/base.bench" >&2
    exit 1
fi

if command -v benchstat >/dev/null 2>&1; then
    benchstat "$tmp/base.bench" "$tmp/head.bench" || true
    echo
fi
compare "$tmp/base.bench" "$tmp/head.bench"
