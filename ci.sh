#!/usr/bin/env bash
# Continuous-integration gate: formatting, lints, build, tier-1 tests.
# Run from the repository root. Fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> engine code lines (non-test, non-comment) per file; no file in crates/core/src over 1200 lines"
total=0
for f in $(find crates/core/src -name '*.rs' | sort) crates/net/src/remote.rs; do
    code=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -Pvc '^\s*(//|$)' || true)
    lines=$(wc -l < "$f")
    printf '%6d code %6d lines  %s\n' "$code" "$lines" "$f"
    total=$((total + code))
    case "$f" in crates/core/src/*)
        if [ "$lines" -gt 1200 ]; then
            echo "$f has $lines lines (limit 1200): split it by responsibility"
            exit 1
        fi ;;
    esac
done
printf '%6d code total\n' "$total"

echo "==> retired names stay retired (sched.threads is the one thread knob; prefetch_depth is static config, no control plane; the plan comes from the config, the store directory is a value log)"
retired='aug_threads|decode_threads|with_threads|thread_split|ExecutionConfig|split_bucket'
retired="$retired|sand_autotune|autotune_tick|set_prefetch_depth|set_demand_slack|demand_slack|slack_buckets|AutotuneClamp|criterion::"
# `graph_chunk_\{` is the name being built; the restart test's fixture spells one such file out.
retired="$retired|checkpoint::|graph_chunk_\{|migrate_legacy|decode_key|encode_key|vlog_quarantined|SyncPolicy::Group|window_us|unsynced_bytes"
# The lint checks the task configs and the plan; engine wiring that cannot run is a constructor's typed error.
# The quoted codes match only code literals (`code: "SL0xx"`), not prose.
retired="$retired|lint_concurrency|FleetLint|RemoteLint|fn with_store|\"SL00[56]\"|\"SL024\"|\"SL03[2-9]\"|\"SL040\""
# Config fields that had one value in use are constants; capabilities nobody called are gone.
# Only the Rust forms: a parse test writes `sticky_affinity: false` inside YAML on purpose, and
# `Placement::new` keeps its `vnodes` parameter (`0..vnodes` is not a field access).
retired="$retired|memory_high_watermark|\.sticky_affinity|sticky_affinity: (true|false),|evict_watermark|[[:alnum:]_]\.vnodes"
retired="$retired|config\.backoff|backoff: Duration|max_frame_bytes|ABSOLUTE_MAX_FRAME|poll_interval|latency_buckets_us"
retired="$retired|io_timeout|connect_timeout:|config\.connect_timeout|JsonlFlusher|FlushConfig|ClusterSpec|NodeSpec"
retired="$retired|fn (as_mut_slice|into_vec|cache_bytes|collect_available|is_owner|node_by_key|path_fragment|reset_stats|stalled_time)\b"
# Every decode is one walk from the keyframe (`Decoder::decode_indices`): no resumable per-video
# session, no second decode-cost model beside the planner's; planning is always coordinated.
retired="$retired|WarmDecoder|WarmPool|warm_decoders|WARM_SESSION_CAP|fn frame_cost|config\.coordinate"
# The object verbs carry lists (`Fetch { keys }`, `Put { objects }`, answered by `Found`): a one-entry
# request is the single-key one, so neither a single-key answer nor a `_many` twin comes back.
retired="$retired|Response::Hit|Response::Miss|fn fetch_many|fn put_many|fn offer_many"
# Every engine is tenanted (a bare engine is a fleet of one): the roster is a constructor argument,
# not an `EngineConfig` field, and the tenant table always sits under the queue lock.
retired="$retired|Option<TenantTable>|Option<TenancyRuntime>|\"sched\.tenants\"|pub tenancy|tenancy: (None|Some)|config\.tenancy"
# Metrics are always on (only per-batch traces are optional): a metric bundle is a plain field, never
# an `Option` (`sand-codec` and `sand-vfs` spell the type path-qualified), the store counts into its
# handles from open, and each event has one counter (no private mirror beside the metric).
retired="$retired|Option<([a-z_]+::)*(Codec|Store|Sched|Vfs|Materialize|Engine|Net|Prefetch|Loader|Fleet)Metrics>"
retired="$retired|OnceLock<StoreMetrics>|fn set_metrics|fsync_metric|fn is_enabled"
if grep -rnE "$retired" crates examples tests src ||
    grep -nE 'sand-autotune|criterion' Cargo.toml crates/*/Cargo.toml; then
    echo "a retired name is back: sched.threads is the one answer to how many threads build views, knobs are set in EngineConfig, timings come from sandbench, a restart plans from its config and replays the value log, the lint checks only configs and plans, a setting nobody varies is a constant, a bare engine is a fleet of one, every engine counts into its registry"
    exit 1
fi

echo "==> the only files the store and the engine create under a store directory are segments and MANIFEST (vlog.rs, manifest.rs)"
for f in $(find crates/storage/src crates/core/src -name '*.rs' | sort); do
    case "$f" in */vlog.rs | */manifest.rs) continue ;; esac
    if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$f" |
        grep -E 'create_dir_all|fs::write|File::create|OpenOptions'; then
        echo "$f creates files: everything under store_dir goes through crates/storage/src/vlog.rs or manifest.rs"
        exit 1
    fi
done

echo "==> one victim selection (the full-store scan lives on only as the tests' reference)"
if grep -rn 'fn scan_victim' crates/*/src; then
    echo "scan_victim is back in shipped code: victims come from the shards' ordered index (crates/storage/src/shard.rs)"
    exit 1
fi

echo "==> one planner (the string-keyed one lives on only as the tests' reference)"
# A plan merges through planning-local indexes, a node standing for its (parent, op): an
# augmented object's identity is its chain's depth and digest, not the chain's strings.
if grep -rnE 'fn plan_reference|key_index|acc_chain|chain: Vec<\(String, String\)>' crates/*/src; then
    echo "the string-keyed planner is back in shipped code: Planner::plan merges through its planning-local MergeIndex (crates/graph/src/concrete.rs) and an augmented object is its (depth, digest); the string-keyed planner is crates/graph/tests/plan_reference"
    exit 1
fi

echo "==> one residual decoder (the per-step reader lives on only in the encoder's tests and the decoder's test reference)"
if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' crates/codec/src/decode.rs | grep get_steps; then
    echo "get_steps is back in the decoder: residual frames decode from their run-length blocks (apply_residual in crates/codec/src/decode.rs)"
    exit 1
fi

echo "==> one bilinear kernel (the per-pixel body lives on only as the test reference; rounding is exact without libm)"
if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' crates/frame/src/ops/resize.rs | grep -F '.round()'; then
    echo ".round() is back in the resize kernel: bilinear output rows come from column taps and two row passes (bilinear in crates/frame/src/ops/resize.rs), rounded by round_u8"
    exit 1
fi

echo "==> one batch serializer (a served batch is written once, by stack_to_bytes)"
if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' crates/core/src/serve.rs | grep -E 'stack\(|\.to_bytes\(\)'; then
    echo "serve.rs stacks or serializes a batch again: finish_serve writes the sample tensors straight into the served buffer with stack_to_bytes (crates/frame/src/tensor.rs)"
    exit 1
fi

echo "==> a serve helps only its late prefetched batch (serve_batch_inline leaves its demand samples to the workers)"
if awk '/fn serve_batch_inline\(/{body=1} body{print FILENAME ":" FNR ": " $0} body && /^    }$/{exit}' crates/core/src/serve.rs | grep build_unstarted; then
    echo "serve_batch_inline builds samples on the serve thread: a prototype that did so cut remote_ddp from about 3 200 to about 1 300 batches/s (gpu_busy_frac 0.87 -> 0.34, 3 of 3 pairs); only consume_prefetched may call build_unstarted (DESIGN §17)"
    exit 1
fi

echo "==> one CRC-32 (sand_storage::vlog::crc32, sliced by sixteen; the nibble-table body lives on only as its test reference)"
shipped=$(for f in $(find crates -path '*/src/*' -name '*.rs' | sort); do
    awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$f"
done)
crc_defs=$(grep -E '\bfn crc32\b' <<< "$shipped" || true)
if [ "$(grep -c . <<< "$crc_defs")" -gt 1 ] || grep -E '0x1db7_?1064' <<< "$shipped"; then
    echo "$crc_defs"
    echo "a second CRC-32 is back in shipped code: the value log, the MANIFEST and the wire frames all checksum with crc32 in crates/storage/src/vlog.rs"
    exit 1
fi

echo "==> every metric the benchmark reads is registered by shipped code (a renamed metric would read 0)"
# Read today but registered nowhere, so their sandbench metrics are 0 by construction
# (ROADMAP item 1(g) and 1(j)): aug.scratch_wait_us went with the scratch pool,
# net.fetch_coalesced with fetch coalescing.
known_unregistered=' aug.scratch_wait_us net.fetch_coalesced '
read_names=$(grep -oE '(registry\.counter|hist_ms)\("[^"]+"\)' sandbench/src/run.rs | sed -E 's/.*\("([^"]+)"\)/\1/' | sort -u)
if [ -z "$read_names" ]; then
    echo "found no metric names in sandbench/src/run.rs: the extraction pattern is stale"
    exit 1
fi
for name in $read_names; do
    case "$known_unregistered" in *" $name "*) continue ;; esac
    if ! grep -qF -e ".counter(\"$name\"" -e ".histogram(\"$name\"" -e ".gauge(\"$name\"" <<< "$shipped"; then
        echo "sandbench/src/run.rs reads \`$name\` but no non-test code under crates/*/src registers it: keep the name, or change the benchmark in its own change"
        exit 1
    fi
done

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (tier-1)"
cargo test -q

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> cargo test --features sanitize (tier-1 under the sanitizer)"
cargo test -q --features sanitize

echo "==> sand-sanitizer unit tests (feature on)"
cargo test -q -p sand-sanitizer --features sanitize

echo "==> store_contention bench smoke (quick mode); an evicting put at 16 384 resident objects costs <= 3x one at 1 024"
SAND_BENCH_QUICK=1 cargo bench -q -p sand-bench --bench store_contention | tee /dev/stderr |
    awk '/evict_put_ratio/ { seen = 1; if ($3 + 0 > 3.0) { print "evicting put grows faster than O(log n): " $3; exit 1 } }
         END { if (!seen) { print "no evict_put_ratio line"; exit 1 } }'

echo "==> sanitizer_overhead bench smoke (quick mode)"
SAND_BENCH_QUICK=1 cargo bench -q -p sand-bench --bench sanitizer_overhead

echo "==> fleet_qos bench smoke (quick mode)"
SAND_BENCH_QUICK=1 cargo bench -q -p sand-bench --bench fleet_qos

echo "==> sandbench unit tests (the end-to-end benchmark's own package)"
cargo test -q --offline --manifest-path sandbench/Cargo.toml

echo "==> sandbench smoke (fig11_single_fit for 2 s; exits 0 only when correct: true)"
cargo run --release --quiet --offline --manifest-path sandbench/Cargo.toml -- \
    --workload fig11_single_fit --seed 1 --seconds 2 --trace 0 > /dev/null

echo "==> sandbench smoke (fig13_multi_constrained for 2 s, the hard-pruned plan; exits 0 only when correct: true)"
cargo run --release --quiet --offline --manifest-path sandbench/Cargo.toml -- \
    --workload fig13_multi_constrained --seed 1 --seconds 2 --trace 0 > /dev/null

echo "==> sandbench smoke (disk_spill for 2 s, spill and read-back through the value log; exits 0 only when correct: true)"
cargo run --release --quiet --offline --manifest-path sandbench/Cargo.toml -- \
    --workload disk_spill --seed 1 --seconds 2 --trace 0 > /dev/null

echo "==> sandbench smoke (remote_ddp for 2 s, two nodes over loopback frames; exits 0 only when correct: true)"
cargo run --release --quiet --offline --manifest-path sandbench/Cargo.toml -- \
    --workload remote_ddp --seed 1 --seconds 2 --trace 0 > /dev/null

echo "==> telemetry example smoke (quick workload, validates JSONL export)"
cargo run -q --release --example telemetry -- --quick --json --check > /dev/null

echo "==> sanitize example smoke (64 schedules, must exit 0)"
cargo run -q --example sanitize --features sanitize -- --schedules 64 > /dev/null

echo "==> persist example smoke (kill-and-restart durability contract)"
cargo run -q --release --example persist -- --rounds 3 > /dev/null

echo "==> cluster example smoke (3-node loopback parity + kill-one-node degradation)"
cargo run -q --release --example cluster > /dev/null

echo "==> fleet example smoke (3-tenant parity + admission rejection + dedup)"
cargo run -q --release --example fleet > /dev/null

echo "==> lint CLI smoke (a valid config exits 0; an unreachable cache budget is an SL020 deny, exit 1)"
cfg=$(mktemp)
cat > "$cfg" <<'YAML'
dataset:
  tag: smoke
  input_source: file
  video_dataset_path: /d
  sampling:
    videos_per_batch: 2
    frames_per_video: 4
    frame_stride: 2
  augmentation:
    - name: r
      branch_type: single
      inputs: ["frame"]
      outputs: ["a0"]
      config:
        - resize:
            shape: [16, 16]
YAML
cargo run -q --release --example lint -- "$cfg" > /dev/null
status=0
out=$(cargo run -q --release --example lint -- --cache-budget 1000 "$cfg" 2>&1) || status=$?
rm -f "$cfg"
if [ "$status" -ne 1 ] || ! grep -q SL020 <<< "$out"; then
    echo "lint CLI: expected exit 1 with SL020 for --cache-budget 1000, got exit $status:"
    echo "$out"
    exit 1
fi

echo "CI green."
