#!/usr/bin/env bash
# Daemon smoke test, three legs:
#
#   1. Throughput: fuzzyphased on an ephemeral port, 4 concurrent
#      loadgen sessions, graceful Shutdown drain.
#   2. Durability: a spooled daemon is SIGKILLed mid-stream between two
#      loadgen phases; the restarted daemon must recover the spools and
#      every session must resume by token and report successfully.
#   3. Diff (DESIGN.md D14): two archived sessions are diffed offline by
#      the fuzzydiff CLI and again through the recovered daemon's Diff
#      request; the two reports must be byte-identical, and the diffed
#      sessions must still resume afterwards (Diff is read-only).
#
# CI runs this after tier-1; it is also the quickest local end-to-end
# check of the serve stack. Cleanup is trap-based: a failing run leaves
# the spool directory (serve-smoke-spool/) in place as evidence for the
# CI artifact upload, a passing run never leaks it.
set -euo pipefail
cd "$(dirname "$0")/.."

SESSIONS="${SESSIONS:-4}"
SAMPLES="${SAMPLES:-50000}"
OUT="${OUT:-BENCH_serve.json}"
RESUME_OUT="${RESUME_OUT:-BENCH_serve_resume.json}"
DIFF_OUT="${DIFF_OUT:-BENCH_serve_diff.json}"
SPOOL="serve-smoke-spool"
LOG="$(mktemp)"
TOKENS="$(mktemp)"
SMOKE_OK=0
cleanup() {
    rm -f "$LOG" "$TOKENS"
    if [ -n "${DAEMON:-}" ] && kill -0 "$DAEMON" 2>/dev/null; then
        kill "$DAEMON" 2>/dev/null || true
    fi
    # The spool survives a failed run (it is the debugging evidence) and
    # never survives a passing one.
    if [ "$SMOKE_OK" = 1 ]; then
        rm -rf "$SPOOL"
    fi
}
trap cleanup EXIT

cargo build --release -p fuzzyphase-serve --bin fuzzyphased \
            --bin fuzzydiff -p fuzzyphase-bench --bin loadgen

DAEMON=""
ADDR=""

# start_daemon [extra flags...] — binds an ephemeral port (--port 0)
# and waits for the resolved address on stdout.
start_daemon() {
    : >"$LOG"
    ./target/release/fuzzyphased --port 0 "$@" </dev/null >"$LOG" 2>&1 &
    DAEMON=$!
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR="$(sed -n 's/^fuzzyphased listening on //p' "$LOG" | head -n1)"
        [ -n "$ADDR" ] && break
        if ! kill -0 "$DAEMON" 2>/dev/null; then
            echo "serve_smoke: daemon died before binding:" >&2
            cat "$LOG" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [ -z "$ADDR" ]; then
        echo "serve_smoke: daemon never printed its address" >&2
        cat "$LOG" >&2
        kill "$DAEMON" 2>/dev/null || true
        exit 1
    fi
    echo "serve_smoke: daemon up on $ADDR (pid $DAEMON)"
}

# wait_daemon_exit — the Shutdown request must drain to a clean exit.
wait_daemon_exit() {
    for _ in $(seq 1 100); do
        if ! kill -0 "$DAEMON" 2>/dev/null; then
            break
        fi
        sleep 0.1
    done
    if kill -0 "$DAEMON" 2>/dev/null; then
        echo "serve_smoke: daemon ignored Shutdown; killing" >&2
        cat "$LOG" >&2
        kill "$DAEMON"
        exit 1
    fi
    wait "$DAEMON" || {
        echo "serve_smoke: daemon exited non-zero:" >&2
        cat "$LOG" >&2
        exit 1
    }
}

# ---- leg 1: concurrent sessions + graceful Shutdown drain -----------

start_daemon

# Concurrent sessions + final admin Shutdown; fails if any session's
# final report is missing.
./target/release/loadgen --addr "$ADDR" --sessions "$SESSIONS" \
    --samples "$SAMPLES" --refit-every 50 --out "$OUT" --shutdown

wait_daemon_exit
grep -q '"all_reports_ok": true' "$OUT"
echo "serve_smoke: OK ($SESSIONS sessions, reports in $OUT)"

# ---- leg 2: SIGKILL the daemon mid-stream, restart, resume ----------

rm -rf "$SPOOL"
start_daemon --spool-dir "$SPOOL" --fsync-every 1

# Phase one streams 10 durable frames per session and walks away
# without finishing, leaving resume tokens behind.
./target/release/loadgen --addr "$ADDR" --sessions 2 --samples 20000 \
    --batch 500 --spv 50 --restart-after 10 --phase first --tokens "$TOKENS"

# The crash: no drain, no goodbye.
kill -9 "$DAEMON"
wait "$DAEMON" 2>/dev/null || true
if [ -z "$(ls -A "$SPOOL" 2>/dev/null)" ]; then
    echo "serve_smoke: SIGKILL left no spools behind" >&2
    exit 1
fi

start_daemon --spool-dir "$SPOOL" --fsync-every 1

# Phase two resumes every session by token, streams the remainder and
# expects full reports (bit-identity is pinned by the serve crate's
# recovery tests; the smoke checks the operational loop end to end).
./target/release/loadgen --addr "$ADDR" --sessions 2 --samples 20000 \
    --batch 500 --spv 50 --phase resume --tokens "$TOKENS" \
    --out "$RESUME_OUT" --shutdown

wait_daemon_exit
grep -q '"all_reports_ok": true' "$RESUME_OUT"
grep -q '"sessions_resumed": 2' "$RESUME_OUT"
echo "serve_smoke: OK (kill-and-resume leg, reports in $RESUME_OUT)"

# ---- leg 3: daemon Diff reply == offline fuzzydiff, byte for byte ----

rm -rf "$SPOOL"
start_daemon --spool-dir "$SPOOL" --fsync-every 1

# Two sessions stream ten durable frames each and walk away without
# finishing — their spools are the two sides of the diff.
./target/release/loadgen --addr "$ADDR" --sessions 2 --samples 20000 \
    --batch 500 --spv 50 --restart-after 10 --phase first --tokens "$TOKENS"

kill -9 "$DAEMON"
wait "$DAEMON" 2>/dev/null || true

TOK_A="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))[0]["token"])' "$TOKENS")"
TOK_B="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))[1]["token"])' "$TOKENS")"

# Ground truth: the offline CLI replays the spools directly.
OFFLINE_DIFF="$(./target/release/fuzzydiff "$SPOOL/$TOK_A" "$SPOOL/$TOK_B")"

# The restarted daemon recovers the same spools and serves the same
# diff over the wire; the reply must match the offline bytes exactly.
start_daemon --spool-dir "$SPOOL" --fsync-every 1
DAEMON_DIFF="$(./target/release/fuzzydiff --connect "$ADDR" "$TOK_A" "$TOK_B")"

if [ "$OFFLINE_DIFF" != "$DAEMON_DIFF" ]; then
    echo "serve_smoke: daemon Diff reply differs from offline fuzzydiff" >&2
    diff <(printf '%s\n' "$OFFLINE_DIFF") <(printf '%s\n' "$DAEMON_DIFF") >&2 || true
    exit 1
fi

# Diff is read-only: the very sessions just diffed must still resume by
# token and finish their reports.
./target/release/loadgen --addr "$ADDR" --sessions 2 --samples 20000 \
    --batch 500 --spv 50 --phase resume --tokens "$TOKENS" \
    --out "$DIFF_OUT" --shutdown

wait_daemon_exit
grep -q '"all_reports_ok": true' "$DIFF_OUT"
grep -q '"sessions_resumed": 2' "$DIFF_OUT"
echo "serve_smoke: OK (diff leg, daemon reply == offline CLI, reports in $DIFF_OUT)"

SMOKE_OK=1
