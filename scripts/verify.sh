#!/usr/bin/env bash
# Tier-1 verification: everything a PR must keep green.
#
#   scripts/verify.sh          # build + tests + clippy + fmt
#   scripts/verify.sh --quick  # skip clippy/fmt (fast local loop)
#
# The workspace vendors its external dependencies under vendor/, so all
# steps run with --offline and need no network access.

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "==> unsafe-scope audit"
scripts/unsafe_audit.sh

echo "==> cargo build --release"
cargo build --release --offline --workspace

echo "==> cargo test"
cargo test -q --offline --workspace

echo "==> cargo test --features failpoints (chaos suite)"
cargo test -q --offline -p lahar-core --features failpoints
cargo test -q --offline -p lahar --features failpoints

echo "==> shard-shrink restore regression (release profile)"
# Restoring a checkpoint taken with more shards than the new session's
# worker count must keep every chain; run in release too, where the
# old truncate-based resize used to pass debug asserts but drop state.
cargo test -q --release --offline -p lahar-core --lib \
    shard_shrink_on_restore_keeps_every_chain

echo "==> observability smoke (live /metrics scrape + chrome trace)"
trace_out="$(mktemp -t lahar-smoke-XXXXXX.trace.json)"
dash_out="$(cargo run -q --release --offline --example streaming_dashboard -- \
    --trace-out "$trace_out")"
rm -f "$trace_out"
for needle in \
    'healthz: ok' \
    'lahar_query_ticks_total{query="coffee"' \
    'lahar_kernel_steps_total{path="fast"}' \
    'lahar_kernel_automata_shared' \
    'chrome trace: '; do
    if ! grep -qF "$needle" <<<"$dash_out"; then
        echo "observability smoke failed: missing $needle" >&2
        echo "$dash_out" >&2
        exit 1
    fi
done

echo "==> serve smoke (TCP ingest + restart restore vs offline query)"
dep="$(mktemp -d -t lahar-serve-XXXXXX)"
serve_query="At(p, l1)[Room(l1)] ; At(p, l2)[CoffeeRoom(l2)]"
./target/release/lahar simulate --out "$dep" --ticks 10 --people 3 --seed 11 >/dev/null
./target/release/lahar query --manifest "$dep" "$serve_query" >"$dep/offline.csv" 2>/dev/null

start_serve() {
    # Starts a server on free ports; sets serve_pid/serve_addr/serve_maddr.
    # Extra arguments are passed through to `lahar serve`.
    local log="$1"
    shift
    ./target/release/lahar serve --manifest "$dep" --addr 127.0.0.1:0 \
        --metrics-addr 127.0.0.1:0 --checkpoint-dir "$dep/ckpt" \
        --durability batch "$@" 2>"$log" &
    serve_pid=$!
    serve_addr=""
    serve_maddr=""
    for _ in $(seq 1 100); do
        serve_addr="$(sed -n 's/^serving on //p' "$log")"
        serve_maddr="$(sed -n 's|^metrics: http://\(.*\)/metrics$|\1|p' "$log")"
        [[ -n "$serve_addr" && -n "$serve_maddr" ]] && break
        sleep 0.1
    done
    if [[ -z "$serve_addr" || -z "$serve_maddr" ]]; then
        echo "serve did not start" >&2
        cat "$log" >&2
        exit 1
    fi
}

# First half of the stream, then a graceful shutdown (checkpoints).
start_serve "$dep/serve1.log"
./target/release/lahar ingest --manifest "$dep" --addr "$serve_addr" \
    --session smoke --ticks 5 --shutdown "$serve_query" >/dev/null 2>&1
wait "$serve_pid"
test -n "$(ls "$dep/ckpt/"*.ckpt.json)" || { echo "no shutdown checkpoint written" >&2; exit 1; }

# Restarted server restores the session; the continued series must be
# byte-identical to the offline batch engine over the full stream.
start_serve "$dep/serve2.log"
./target/release/lahar ingest --manifest "$dep" --addr "$serve_addr" \
    --session smoke --scrape "http://$serve_maddr/metrics" --shutdown "$serve_query" \
    >"$dep/served.csv" 2>"$dep/ingest2.log"
wait "$serve_pid"
if ! cmp -s "$dep/offline.csv" "$dep/served.csv"; then
    echo "serve smoke failed: served series != offline series" >&2
    diff "$dep/offline.csv" "$dep/served.csv" >&2 || true
    exit 1
fi
grep -q "restored" "$dep/ingest2.log" || { echo "restart did not restore the session" >&2; exit 1; }
grep -q 'session="smoke"' "$dep/ingest2.log" || { echo "scrape missing session label" >&2; exit 1; }

# The same stream against servers keeping only 2 ticks of history: the
# shutdown checkpoint is retired (no history, series carried), and the
# restart restores from it, still matching the offline query.
start_serve "$dep/serve1r.log" --history-ticks 2
./target/release/lahar ingest --manifest "$dep" --addr "$serve_addr" \
    --session smoke-retired --ticks 5 --shutdown "$serve_query" >/dev/null 2>&1
wait "$serve_pid"
grep -q '"retired":true' "$dep/ckpt/smoke-retired-"*.ckpt.json \
    || { echo "retired-history smoke: shutdown checkpoint still carries history" >&2; exit 1; }
start_serve "$dep/serve2r.log" --history-ticks 2
./target/release/lahar ingest --manifest "$dep" --addr "$serve_addr" \
    --session smoke-retired --shutdown "$serve_query" \
    >"$dep/served-retired.csv" 2>"$dep/ingest2r.log"
wait "$serve_pid"
if ! cmp -s "$dep/offline.csv" "$dep/served-retired.csv"; then
    echo "retired-history smoke failed: served series != offline series" >&2
    diff "$dep/offline.csv" "$dep/served-retired.csv" >&2 || true
    exit 1
fi
grep -q "restored" "$dep/ingest2r.log" \
    || { echo "retired-history restart did not restore the session" >&2; exit 1; }

echo "==> request observability smoke (probe, phase metrics, slow log, trace)"
# The trace lands where LAHAR_SMOKE_TRACE_OUT points (CI uploads it as an
# artifact); default keeps it inside the scratch dir.
smoke_trace="${LAHAR_SMOKE_TRACE_OUT:-$dep/serve.trace.json}"
start_serve "$dep/serve3.log" --slow-request-ms 0 --slow-log "$dep/slow.jsonl" \
    --trace-out "$smoke_trace"
# One of every wire command, with client-stamped request ids.
./target/release/lahar probe --manifest "$dep" --addr "$serve_addr" \
    --session probe-smoke "$serve_query" >"$dep/probe.log" 2>&1
grep -q 'probe last request id: ' "$dep/probe.log" \
    || { echo "probe did not run" >&2; cat "$dep/probe.log" >&2; exit 1; }
# Scrape /metrics with bash's /dev/tcp (no curl dependency): every wire
# command must have left all four phase histograms and an outcome row.
exec 3<>"/dev/tcp/${serve_maddr%%:*}/${serve_maddr##*:}"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
metrics="$(cat <&3)"
exec 3>&- || true
for needle in \
    'lahar_server_request_duration_seconds_bucket{command="tick",phase="queue_wait"' \
    'lahar_server_request_duration_seconds_bucket{command="tick",phase="execute"' \
    'lahar_server_request_duration_seconds_bucket{command="tick",phase="wal_append"' \
    'lahar_server_request_duration_seconds_bucket{command="tick",phase="respond"' \
    'lahar_server_requests_total{command="open",code="ok"}' \
    'lahar_server_requests_total{command="stage_ticks",code="ok"}' \
    'lahar_trace_dropped_spans_total'; do
    if ! grep -qF "$needle" <<<"$metrics"; then
        echo "observability smoke failed: /metrics missing $needle" >&2
        exit 1
    fi
done
# Second probe shuts the server down gracefully (flushes the trace).
./target/release/lahar probe --manifest "$dep" --addr "$serve_addr" \
    --session probe-smoke --shutdown "$serve_query" >/dev/null 2>&1
wait "$serve_pid"
# The slow log (threshold 0 ⇒ everything logs) must hold a structurally
# complete JSONL entry: id, session, command, all four phase durations.
if ! grep -Eq '"id":[0-9]+,"session":"probe-smoke","command":"tick","queue_wait_ns":[0-9]+,"execute_ns":[0-9]+,"wal_append_ns":[0-9]+,"respond_ns":[0-9]+,"outcome":"ok"' \
    "$dep/slow.jsonl"; then
    echo "observability smoke failed: no complete slow-log tick entry" >&2
    cat "$dep/slow.jsonl" >&2
    exit 1
fi
# The Chrome trace must carry request-id-tagged spans from both the
# connection reader and a shard worker.
for needle in '"name":"serve_request"' '"name":"shard_dequeue"' '"req":' \
    'lahar-conn' 'lahar-shard-'; do
    if ! grep -qF "$needle" "$smoke_trace"; then
        echo "observability smoke failed: trace missing $needle" >&2
        exit 1
    fi
done

echo "==> serve-scale smoke (bench-ingest: 256 connections, tiering drain)"
# Self-hosts a server, drives 256 connections through the one reactor
# thread, and hard-fails on any silent drop or on resident sessions not
# draining to 0 after the eviction idle window.
./target/release/lahar bench-ingest --manifest "$dep" --quick \
    --evict-after-ms 300 --out "$dep/BENCH_serve.json" 2>"$dep/bench-ingest.log" \
    || { cat "$dep/bench-ingest.log" >&2; exit 1; }
for needle in '"zero_silent_drop": true' '"resident_after_idle": 0'; do
    if ! grep -qF "$needle" "$dep/BENCH_serve.json"; then
        echo "serve-scale smoke failed: missing $needle" >&2
        cat "$dep/BENCH_serve.json" >&2
        exit 1
    fi
done
rm -rf "$dep"

echo "==> crash harness (kill -9 recovery, release, bounded)"
# The full randomized sweep runs in the workspace test step above; this
# re-runs it in release where fsync/rename timing differs most.
LAHAR_CRASH_ITERS=6 cargo test -q --release --offline --test crash_recovery

if [[ "$quick" -eq 0 ]]; then
    echo "==> bench smoke (quick mode, writes BENCH_streaming.json)"
    LAHAR_BENCH_QUICK=1 cargo bench --offline -p lahar-bench \
        --bench streaming_throughput >/dev/null
    for key in '"kernel_hit_rate"' '"seq_ticks_per_sec"' \
        '"streaming_worker_matrix"' '"par_ticks_per_sec_w4"' \
        '"durability_overhead"' '"ticks_per_sec_always"' \
        '"serve_observability"' '"rt_per_sec_off"' \
        '"ns_per_chain_step"' '"sampler_throughput"' '"h1_speedup"'; do
        if ! grep -qF "$key" BENCH_streaming.json; then
            echo "bench smoke failed: $key missing from BENCH_streaming.json" >&2
            exit 1
        fi
    done

    echo "==> kernel step regression gate (vs committed baseline)"
    baseline="$(mktemp -t lahar-bench-baseline-XXXXXX.json)"
    if git show HEAD:BENCH_streaming.json >"$baseline" 2>/dev/null; then
        scripts/bench_gate.sh "$baseline"
    else
        echo "no committed BENCH_streaming.json baseline; skipping"
    fi
    rm -f "$baseline"

    echo "==> miri (simd module, UB check) — needs nightly miri"
    if cargo +nightly miri --version >/dev/null 2>&1; then
        cargo +nightly miri test -q --offline -p lahar-core --lib simd::
    else
        echo "miri unavailable locally; CI runs it (rustup +nightly component add miri to enable)"
    fi

    echo "==> cargo clippy -- -D warnings"
    cargo clippy --offline --workspace --all-targets -- -D warnings

    echo "==> cargo fmt --check"
    cargo fmt --all --check
fi

echo "==> OK"
