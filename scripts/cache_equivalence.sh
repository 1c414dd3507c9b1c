#!/usr/bin/env bash
# Cache equivalence gate: running mcheck twice over the same sources with a
# shared --cache-dir must produce byte-identical output — the second run is
# served from the cache, and a cache hit is only correct if it is
# indistinguishable from a cold check. Runs the whole synthetic corpus,
# once per protocol, at two worker counts sharing one cache directory
# (worker count is deliberately not part of the cache key).
#
# It also checks that the cache itself is deterministic: cold runs at
# --jobs 1 and --jobs 4 into two fresh cache directories must write the
# same record files byte for byte (diff -r), on every seed protocol and
# on one fleet family (sci_f1 of a scale-2 fleet).
#
# Usage: scripts/cache_equivalence.sh [path-to-mcheck]
# (defaults to target/release/mcheck; builds it if missing)
set -euo pipefail
cd "$(dirname "$0")/.."

MCHECK=${1:-target/release/mcheck}
if [ ! -x "$MCHECK" ]; then
    cargo build --release -p mc-cli --bin mcheck
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

"$MCHECK" --emit-corpus "$work/corpus" >/dev/null

# mcheck exits 1 when it emits reports (the corpus has planted bugs, so it
# always does); only >= 2 is a real failure. See "Exit codes" in README.md.
run_mcheck() {
    local out=$1 jobs=$2 pdir=$3 cache=$4 rc=0
    "$MCHECK" --builtin --spec "$pdir/spec.json" --format json \
        --jobs "$jobs" --cache-dir "$cache" "$pdir"/*.c >"$out" || rc=$?
    if [ "$rc" -ge 2 ]; then
        echo "FAIL: mcheck exited $rc on $pdir" >&2
        exit "$rc"
    fi
}

status=0

# Cold runs at --jobs 1 and --jobs 4, each into a fresh cache directory:
# same output, same record files.
cold_records_match() {
    local pdir=$1 name=$2
    run_mcheck "$work/$name-j1.json" 1 "$pdir" "$work/records-$name-j1"
    run_mcheck "$work/$name-j4.json" 4 "$pdir" "$work/records-$name-j4"
    if diff -u "$work/$name-j1.json" "$work/$name-j4.json" &&
        diff -r "$work/records-$name-j1" "$work/records-$name-j4"; then
        echo "cache-determinism ok: $name"
    else
        echo "FAIL: $name cold cache differs between --jobs 1 and --jobs 4" >&2
        status=1
    fi
}

for pdir in "$work"/corpus/*/; do
    name=$(basename "$pdir")
    cache="$work/cache-$name"
    run_mcheck "$work/$name-cold.json" 1 "$pdir" "$cache"
    run_mcheck "$work/$name-warm.json" 4 "$pdir" "$cache"
    if diff -u "$work/$name-cold.json" "$work/$name-warm.json"; then
        echo "cache-equivalence ok: $name"
    else
        echo "FAIL: $name warm output differs from cold" >&2
        status=1
    fi
    cold_records_match "$pdir" "$name"
done

"$MCHECK" --emit-corpus "$work/fleet" --scale 2 >/dev/null
cold_records_match "$work/fleet/sci_f1" fleet-sci_f1
exit "$status"
