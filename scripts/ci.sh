#!/usr/bin/env bash
# Tier-1 verification for the hermetic (zero external dependency) build.
#
# Runs entirely offline: the workspace must build, test, and compile its
# bench targets with `--offline`, and the dependency graph must contain
# nothing but the workspace's own path crates. The guard fails loudly if
# a registry or git dependency ever reappears in a manifest.
#
# Usage: scripts/ci.sh   (from anywhere; cd's to the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."
repo=$(pwd)

# The committed results/ are regenerated only by their documented
# commands, never by a CI smoke: checksum the tree now and require the
# same checksum at the end.
results_digest() {
    find results -type f -print0 | sort -z | xargs -0 sha256sum | sha256sum
}
results_before=$(results_digest)

echo "== dependency hermeticity =="
# Every dependency edge must resolve to a workspace path crate. `cargo
# metadata` lists one `source` per package: null for path deps, a
# registry/git URL otherwise. No jq in the image, so grep the raw JSON
# for non-null sources.
meta=$(cargo metadata --format-version 1 --offline --no-deps)
if printf '%s' "$meta" | grep -o '"source":"[^"]*"' | grep -q .; then
    echo "FAIL: non-path dependency in the workspace:" >&2
    printf '%s' "$meta" | grep -o '"source":"[^"]*"' | sort -u >&2
    exit 1
fi
# Belt and braces: inside any [*dependencies*] table, only
# `{ path = ... }` / `.workspace = true` forms are allowed — no bare
# version strings, no `version =`/`git =` keys.
bad=$(awk '
    /^\[/ { indeps = ($0 ~ /dependencies/) }
    indeps && (/^[a-zA-Z0-9_-]+(\.[a-zA-Z0-9_-]+)? *= *"/ \
        || /version *=/ || /git *=/) \
        { print FILENAME ":" FNR ": " $0 }
' Cargo.toml crates/*/Cargo.toml)
if [ -n "$bad" ]; then
    echo "FAIL: a Cargo.toml declares a registry/git dependency:" >&2
    echo "$bad" >&2
    exit 1
fi
echo "ok: all dependencies are workspace path crates"

echo "== build (release, offline) =="
cargo build --release --workspace --offline

echo "== bench targets compile =="
cargo build --workspace --benches --offline

echo "== tests =="
cargo test -q --workspace --offline

echo "== fault-injection pass (pinned seed) =="
# Re-run the fault suite with failpoints armed from the environment: the
# driver must keep recovering (or surfacing structured errors) when the
# tile kernel fails with 5% probability under the pinned seed.
MSPGEMM_FAILPOINTS='tile-kernel=panic@p:0.05,seed:42' \
    cargo test -q -p mspgemm-core --offline fault_
# The lattice oracle with tile 3 of every product panicking: each 7-tile
# run takes the degraded retry, which is then checked against the
# independent reference in every cell. A pinned key, not the seeded 5 %
# above: at seed 42 none of the keys 0-6 fires. The suite itself fails
# if the armed run retried no tile.
MSPGEMM_FAILPOINTS='tile-kernel=panic@key:3' \
    cargo test -q --offline --test lattice

echo "== concurrency smoke (adversarial stress, failpoints armed) =="
# The unarmed concurrency suite runs in the workspace test pass above;
# here the same suite runs with tile panics injected — a failing tile in
# one tenant's run must be recovered (or surfaced) without corrupting or
# poisoning any sibling's reply.
MSPGEMM_FAILPOINTS='tile-kernel=panic@p:0.05,seed:42' \
    cargo test -q --offline --test concurrency
# And the CLI stress harness end-to-end: 64 tenants x 50 seeded
# submit/cancel/drop/deadline runs over three mask shapes, every reply
# checked bit-identical to its serial reference, non-zero exit on any
# mismatch or leaked queue slot. --deadline 200 makes a fifth of the
# submissions carry tight enforced deadlines, so queued sheds and
# in-flight abandonment run concurrently with the injected panics.
MSPGEMM_FAILPOINTS='tile-kernel=panic@p:0.02,seed:42' \
    target/release/mspgemm stress --graph GAP-road --scale 0.05 \
    --tenants 64 --runs 50 --deadline 200 > /dev/null
echo "ok: concurrent replies stay bit-identical under injected tile panics"

echo "== metrics pass (armed run + self-validation) =="
# The CLI must produce a schema-valid mspgemm.run/1 report and a chrome
# trace with --metrics/--trace armed, and must validate its own output
# with the in-tree JSON parser (check-metrics exits non-zero otherwise).
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir"' EXIT
target/release/mspgemm tc --graph GAP-road --scale 0.1 \
    --tiles 32 --threads 4 \
    --metrics "$obs_dir/run.json" --trace "$obs_dir/run.trace.json"
target/release/mspgemm check-metrics --file "$obs_dir/run.json"
# the trace is bare chrome://tracing JSON: non-empty, starts as an array
head -c1 "$obs_dir/run.trace.json" | grep -q '\[' || {
    echo "FAIL: trace file is not a JSON array" >&2; exit 1; }
echo "ok: armed run emits schema-valid metrics and a trace"

echo "== zero-cost metrics grep gate =="
# The observability design keeps atomics out of the hot loops: counters
# are bumped in plain instance-local scratch and flushed once per tile.
# Accumulator and kernel sources must therefore never touch an atomic or
# the global registry's fetch path directly.
hits=$(grep -n 'AtomicU64\|AtomicUsize\|fetch_add' \
    crates/accum/src/*.rs crates/core/src/kernels.rs || true)
if [ -n "$hits" ]; then
    echo "FAIL: atomic counter traffic in a hot-loop file:" >&2
    echo "$hits" >&2
    exit 1
fi
echo "ok: accumulators and kernels are atomics-free"

echo "== kernel allocation grep gate =="
# The per-row kernels write through RowSink into preallocated slots; the
# steady state must not allocate. Non-test kernel code therefore must not
# construct growable Vecs (test modules, from #[cfg(test)] onward, are
# exempt — they build Vec-backed sinks on purpose).
hits=$(awk '/^#\[cfg\(test\)\]/ { exit } /Vec::new\(|Vec::with_capacity\(|vec!\[/ { print FILENAME ":" FNR ": " $0 }' \
    crates/core/src/kernels.rs)
if [ -n "$hits" ]; then
    echo "FAIL: heap allocation in a per-row kernel loop:" >&2
    echo "$hits" >&2
    exit 1
fi
# The submission queue's pop path fills caller-owned buffers, and
# DisjointSlots borrows the plan-owned range layout — per-job dispatch
# must not regrow either (the ranges clone showed up as allocator
# traffic in the per-job cost of small batched products).
hits=$(for f in crates/sched/src/submit.rs crates/sched/src/slots.rs; do
    awk '/^#\[cfg\(test\)\]/ { exit } /Vec::new\(|Vec::with_capacity\(|vec!\[/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)
if [ -n "$hits" ]; then
    echo "FAIL: heap allocation on the per-job submit/slot path:" >&2
    echo "$hits" >&2
    exit 1
fi
echo "ok: kernel and submit/slot non-test code performs no heap allocation"

echo "== panic-hygiene grep gate =="
# Non-test code of the pool, the persistent worker layer, the driver,
# the plan/executor layer, the generators' loader helper (gen/lib.rs,
# which symmetrises user .mtx input), the graph algorithms and the
# sparse vector product their BFS runs on (sparse/vector.rs) must stay
# free of .unwrap()/.expect(/panic!, of release-mode asserts (assert!,
# assert_eq!, assert_ne!; the debug_ forms are exempt) and of
# unreachable!/todo!/unimplemented! — panic isolation is only as good as
# the code that implements it, and a bad argument must come back as a
# SparseError. Test modules (from `#[cfg(test)]` onward) and comment
# lines (doc examples unwrap on purpose) are exempt.
gate_fail=0
for f in crates/sched/src/lib.rs crates/sched/src/pool.rs \
         crates/sched/src/persistent.rs \
         crates/sched/src/submit.rs crates/sched/src/cancel.rs \
         crates/core/src/driver.rs crates/core/src/plan.rs \
         crates/core/src/executor.rs crates/core/src/service.rs \
         crates/core/src/stress.rs crates/core/src/graph.rs \
         crates/core/src/config.rs crates/core/src/presets.rs \
         crates/core/src/model.rs crates/core/src/lib.rs \
         crates/gen/src/lib.rs crates/graph/src/*.rs \
         crates/sparse/src/vector.rs; do
    hits=$(awk '/^#\[cfg\(test\)\]/ { exit }
                /^[[:space:]]*\/\// { next }
                /\.unwrap\(\)|\.expect\(|panic!|(^|[^A-Za-z0-9_])assert(_eq|_ne)?!|unreachable!|todo!|unimplemented!/ \
                    { print FILENAME ":" FNR ": " $0 }' "$f")
    if [ -n "$hits" ]; then
        echo "FAIL: panic-prone call in non-test code of $f:" >&2
        echo "$hits" >&2
        gate_fail=1
    fi
done
[ "$gate_fail" -eq 0 ] || exit 1
echo "ok: sched, core engine/plan/config, gen/lib.rs, graph and sparse/vector.rs non-test code is panic free"

echo "== unsafe allowlist gate =="
# `unsafe` is confined to two audited sites: the disjoint slot windows
# (slots.rs) and the persistent pool's scoped-lifetime erasure
# (persistent.rs). Non-test, non-comment code anywhere else in
# crates/*/src or src/ must not use it, so a new site has to be added to
# this list on purpose.
unsafe_allowed="crates/sched/src/slots.rs crates/sched/src/persistent.rs"
hits=$(find crates/*/src src -name '*.rs' | sort | while read -r f; do
    case " $unsafe_allowed " in *" $f "*) continue ;; esac
    awk '/^#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*\/\// { next }
         /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)
if [ -n "$hits" ]; then
    echo "FAIL: unsafe outside the allowlisted files:" >&2
    echo "$hits" >&2
    exit 1
fi
echo "ok: unsafe appears only in $unsafe_allowed"

echo "== thread-spawn allowlist gate =="
# Every thread the library starts is a pool worker (persistent.rs: pool
# growth), the service dispatcher (service.rs) or a stress-harness client
# (stress.rs); parallel loops run on the pool, at the config's thread
# count, where thread reports, the sched.* counters and the per-tile
# trace spans see them. Non-test, non-comment library code (every
# crates/*/src but the bench crate's, plus src/lib.rs) must not spawn
# anywhere else, so a new site has to be added to this list on purpose.
spawn_allowed="crates/sched/src/persistent.rs crates/core/src/service.rs crates/core/src/stress.rs"
spawn_scanned=$( (find crates/*/src -name '*.rs' -not -path 'crates/bench/*'
    echo src/lib.rs) | sort)
hits=$(for f in $spawn_scanned; do
    case " $spawn_allowed " in *" $f "*) continue ;; esac
    awk '/^#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*\/\// { next }
         /thread::(spawn|scope|Builder)/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)
if [ -n "$hits" ]; then
    echo "FAIL: thread spawn outside the allowlisted files:" >&2
    echo "$hits" >&2
    exit 1
fi
echo "ok: threads are spawned only in $spawn_allowed"

echo "== environment-read allowlist gate =="
# Every behaviour a caller can set is a `Config` field or a function
# argument, where the policy lattice, the presets and the tuner see it.
# Only the observability switches (obs.rs), the fault-injection spec
# (failpoint.rs) and the property-test harness (testkit.rs) read the
# environment. The same files as the thread-spawn gate must not call
# env::var/env::var_os anywhere else, so a new env knob has to be added
# to this list on purpose.
env_allowed="crates/rt/src/obs.rs crates/rt/src/failpoint.rs crates/rt/src/testkit.rs"
hits=$(for f in $spawn_scanned; do
    case " $env_allowed " in *" $f "*) continue ;; esac
    awk '/^#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*\/\// { next }
         /env::var/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)
if [ -n "$hits" ]; then
    echo "FAIL: environment read outside the allowlisted files:" >&2
    echo "$hits" >&2
    exit 1
fi
echo "ok: the environment is read only in $env_allowed"

echo "== fusion smoke (fused vs unfused k-truss + counters) =="
# The ktruss subcommand runs the fused PlanGraph pipeline and the unfused
# Session loop back to back and exits non-zero if the trusses diverge.
# With --metrics armed it writes a standalone mspgemm.metrics/1 document;
# the fusion.* counters in it must be non-zero — a silently unfused
# "fused" path (ops_fused = 0) is a regression even when the results
# agree. (tiles_chained stays 0 here on purpose: each k-truss round is a
# single-node graph; node-to-node chaining is exercised by the BC sweep
# in the bench smoke below.)
target/release/mspgemm ktruss --graph GAP-road --scale 0.05 --k 3 \
    --metrics "$obs_dir/ktruss.json" > /dev/null
target/release/mspgemm check-metrics --file "$obs_dir/ktruss.json"
fused_ops=$(grep -o '"fusion.ops_fused":[0-9]*' "$obs_dir/ktruss.json" | cut -d: -f2)
sink_elems=$(grep -o '"fusion.sink_fused_elements":[0-9]*' "$obs_dir/ktruss.json" | cut -d: -f2)
if [ "${fused_ops:-0}" -lt 1 ] || [ "${sink_elems:-0}" -lt 1 ]; then
    echo "FAIL: fusion smoke saw ops_fused=${fused_ops:-0} sink_fused_elements=${sink_elems:-0} (need >=1 each)" >&2
    exit 1
fi
echo "ok: fused k-truss matches unfused (ops_fused=$fused_ops, sink_fused_elements=$sink_elems)"
# The road graph above peels to 12 entries. A truss that survives several
# rounds checks the mirrored upper-triangle survivors too: com-LiveJournal
# at scale 0.05 keeps 11,080 entries of its 4-truss after 3 rounds.
lj_truss=$(target/release/mspgemm ktruss --graph com-LiveJournal --scale 0.05 --k 4)
case "$lj_truss" in
    "4-truss: 0 edges"*)
        echo "FAIL: the com-LiveJournal 4-truss smoke kept no edges: $lj_truss" >&2
        exit 1 ;;
esac
echo "ok: ${lj_truss%% |*}, fused matches unfused"

# The bench smokes below run from a scratch working directory: the bins
# write results/ relative to the current directory, and a smoke-scale run
# must never overwrite the committed BENCH files.
bench_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir" "$bench_dir"' EXIT

echo "== fusion bench smoke (fused vs unfused ablation) =="
# The fusion ablation must run end-to-end at smoke scale and emit a
# schema-valid mspgemm.bench/1 document with all three workload rows.
(cd "$bench_dir" && MSPGEMM_SCALE=0.02 MSPGEMM_BUDGET_MS=20 MSPGEMM_THREADS=2 \
    cargo run --release --offline -q --manifest-path "$repo/Cargo.toml" \
    -p mspgemm-bench --bin fusion > /dev/null)
target/release/mspgemm check-metrics --file "$bench_dir/results/BENCH_fusion.json"
for w in ktruss bc-fwd single-op; do
    grep -q "^$w," "$bench_dir/results/fusion.csv" || {
        echo "FAIL: fusion.csv is missing the $w rows" >&2; exit 1; }
done
echo "ok: fusion ablation emits schema-valid BENCH_fusion.json"

echo "== executor reuse smoke (flat thread count) =="
# 50 plan.execute iterations through one Session must spawn the worker
# pool exactly once: the CLI session subcommand reads the
# sched.workers_spawned counter before and after the loop and exits
# non-zero if it moved (or if the session rebuilt its plan).
MSPGEMM_METRICS=1 target/release/mspgemm session \
    --graph GAP-road --scale 0.1 --iters 50 > /dev/null
echo "ok: 50 reused executions, zero extra worker spawns"

echo "== doc build (warnings are errors) =="
# The Session/Plan/Executor surface is documented API: intra-doc links
# and doc examples must stay valid.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

echo "== committed results untouched =="
if [ "$(results_digest)" != "$results_before" ]; then
    echo "FAIL: a CI step changed files under results/:" >&2
    git status --short -- results >&2
    exit 1
fi
echo "ok: results/ is byte-identical to its state before the run"

echo "CI OK"
