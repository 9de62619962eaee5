#!/usr/bin/env bash
# recorddiff.sh — check that a change leaves the simulation's output
# byte-identical.
#
#   scripts/recorddiff.sh [base-ref]
#
# Builds atmsim at base-ref (default: the merge base with origin/main,
# falling back to HEAD~1) and from the working tree, runs both over the
# matrix below at -workers 1, and compares each run's -record file and
# its -detail block -events file byte for byte. The record holds the
# whole world every period plus the modeled task times; the events hold
# every span, mark and counter. Every configuration whose outputs
# differ is named, and the exit status is 1 if any differ.
#
# Matrix (35 configurations, about six to seven minutes for both sides
# on a 2-vCPU VM):
#   - titanx, staran, xeon16 and xeonphi (one platform per executor
#     family), plus clearspeed, the one profile whose wide ops are
#     tiled (Tiles() > 1), x {all pairs, brute, sweep} x {uniform,
#     dense} at N=2500, 2 major cycles;
#   - the one-cluster world dense:clusters=1,alt=25000,altspread=14000
#     at N=2200 with the sweep, past the candidate table's size limit,
#     on the same five platforms.
#
# The base tree is unpacked with git archive, so an interrupted run
# leaves no registered worktree behind.
#
# This is a check to run by hand, not a CI gate: a change that declares
# an output change, such as a renamed span, fails it by design. Run it
# before claiming that a change is output-identical, and name every
# difference you accept in the change description.
set -euo pipefail

cd "$(dirname "$0")/.."

base_ref=${1:-}
if [[ -z "$base_ref" ]]; then
    base_ref=$(git merge-base HEAD origin/main 2>/dev/null || true)
    [[ -n "$base_ref" && "$base_ref" != "$(git rev-parse HEAD)" ]] || base_ref=HEAD~1
fi
echo "recorddiff: baseline $base_ref against the working tree"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
git archive "$base_ref" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/atmsim.base" ./cmd/atmsim)
go build -o "$tmp/atmsim.head" ./cmd/atmsim

# Each configuration is "platform scenario n source"; "-" is all pairs.
configs=()
for p in titanx staran clearspeed xeon16 xeonphi; do
    for fam in uniform dense; do
        for src in - brute sweep; do
            configs+=("$p $fam 2500 $src")
        done
    done
    configs+=("$p dense:clusters=1,alt=25000,altspread=14000 2200 sweep")
done

differ=0
for cfg in "${configs[@]}"; do
    read -r p fam n src <<< "$cfg"
    [[ "$src" == - ]] && src=""
    for side in base head; do
        mkdir -p "$tmp/$side"
        "$tmp/atmsim.$side" -platform "$p" -scenario "$fam" -n "$n" -pairsource "$src" \
            -cycles 2 -workers 1 -record "$tmp/$side/record.jsonl" \
            -detail block -events "$tmp/$side/events.jsonl" > /dev/null
    done
    bad=""
    cmp -s "$tmp/base/record.jsonl" "$tmp/head/record.jsonl" || bad="record"
    cmp -s "$tmp/base/events.jsonl" "$tmp/head/events.jsonl" || bad="${bad:+$bad, }events"
    if [[ -n "$bad" ]]; then
        echo "DIFFERS ($bad): $cfg"
        differ=$((differ + 1))
    else
        echo "same: $cfg"
    fi
done

if (( differ > 0 )); then
    echo "recorddiff: FAIL ($differ of ${#configs[@]} configurations differ)"
    exit 1
fi
echo "recorddiff: ok (${#configs[@]} configurations byte-identical)"
