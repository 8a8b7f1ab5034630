#!/usr/bin/env bash
#===- scripts/tier1.sh - Tier-1 verification ------------------------------===#
#
# The repo's tier-1 gate, in three passes:
#
#   1. Normal build + full ctest suite (ROADMAP.md's tier-1 command).
#   2. ThreadSanitizer build (-DAC_SANITIZE=thread) of the concurrency
#      surface: test_core (full pipeline through the parallel driver),
#      test_threadpool, test_hol_hashcons (threads interning into one
#      request generation), test_parallel_determinism, and test_service
#      in full (acd's admission queue, session workers, and the
#      connection threads that answer deadlines). The determinism test runs on the
#      smallest corpus (AC_DET_CORPUS=echronos) to keep the TSan pass
#      within budget; AC_JOBS=4 forces the parallel scheduler even on
#      single-CPU machines.
#   3. Abstraction-cache round trip: the golden suite (ctest -L golden)
#      runs twice against one fresh cache directory. The second run must
#      report cache hits and still match every checked-in fixture —
#      i.e. warm replay is byte-identical to a cold run.
#   4. AddressSanitizer build (-DAC_SANITIZE=address) of the service
#      surface — the daemon juggles detached connection threads, shared
#      cache tiers and a shared pool, exactly where lifetime bugs hide —
#      and of test_hol_hashcons, which catches a node used after its
#      request generation closed, and test_peephole and test_hol_unify,
#      whose normal-form memo and type-instance memo key on node ids and
#      hand stored nodes back.
#   5. Daemon golden round trip: start a real acd, require acc to refuse
#      a negative, non-numeric or empty --jobs (exit 2) and answer a
#      --jobs with no value with the usage alone (exit 2), acd to refuse
#      a --workers above 256 or non-numeric (exit 2, no socket file left),
#      and acpc a negative -j or --node-budget and acrouter the unknown
#      --virtual-nodes (exit 2, the router before it listens); serve
#      every golden corpus through acc --golden, byte-compare against
#      the checked-in fixtures (cold, then warm with asserted cache
#      hits); then an edit round trip — a small unit re-checked
#      after a one-literal edit must match an uncached in-process run and
#      miss only the edited function and its callers; then SIGTERM-drain
#      and require a clean exit.
#   6. Chaos: the fault-injection suite under ASan (every registered
#      site driven through failure and recovery), the AC_FAULTS env
#      path (a cache write torn mid-save must recover byte-identically
#      on the next run, with a warning), and whole-process failure —
#      kill -9 a live acd mid-request, require acc to degrade to an
#      in-process run with the exact golden bytes, then a fresh acd
#      must bind the same socket path and serve again.
#   7. Observability: a traced acc run must emit byte-identical golden
#      output to an untraced one, and its trace must lint as Chrome
#      trace-event JSON carrying the pipeline's span names plus the full
#      rule profile (>= 40 word-abs, >= 35 heap-abs rules), and aclint
#      must refuse a non-numeric threshold (exit 2). The daemon's
#      per-request trace (--trace-dir + --trace-id) and Prometheus
#      metrics endpoint lint too, and a trace-file write failure
#      (AC_FAULTS=trace.write.fail) must warn without failing the check
#      or perturbing its output.
#   8. Perf floor: the hash-consed kernel's cold-run speedup over the
#      recorded seed baseline (bench/baselines/seed-perf.txt) must hold
#      (phase_times on the echronos corpus, >= AC_PERF_MIN_SPEEDUP x,
#      default 1.4 — the reference runner measures ~2x, and the slack
#      absorbs its +/-15% wall-clock noise), a cold/warm
#      abstraction-cache pair must stay
#      byte-identical, and a traced run must keep the word-/heap-
#      abstraction span shares at or below the seed's recorded shares
#      (aclint --max-span-share). Baseline walls are machine-dependent:
#      on a runner much slower than the reference, lower
#      AC_PERF_MIN_SPEEDUP or pass --skip-perf (the share and warm-cache
#      checks are ratio-free and still meaningful anywhere).
#   9. Proof certificates: an acc --cert run on the scaling corpus must
#      keep byte-identical output, and its certificate must re-derive
#      under the independent checker (tools/acpc) with at least 10
#      claims and its generator/functions meta records. The daemon's
#      per-request export (--cert-dir) round-trips through a real acd,
#      including a hostile ../ trace id that must be replaced with a
#      minted path-safe one instead of steering the write. The
#      adversarial certificate suites (mutation + fuzz, ctest label
#      `cert`) replay under ASan, and with recording disabled
#      phase_times must still hold the pass-8 speedup floor —
#      the always-on conclusion threading is required to stay in the
#      noise the floor already absorbs — while enabled per-function
#      export stays within AC_CERT_MAX_ENABLED_RATIO (default 2.0) of
#      the disabled wall.
#  10. Fleet: accached + two authenticated TCP acd shards + acrouter on
#      loopback. acrouter must link none of the pipeline (no ac::core,
#      ac::heapabs or ac::wordabs symbol in nm -C). The golden corpora
#      served through the router must match
#      the checked-in fixtures byte for byte; a SIGKILL of one shard
#      mid-replay must not move a byte (ring reroute); restarting both
#      shards with wiped cache directories must refill them from the
#      remote tier (every shard that serves work reports remote_hits in
#      its stats) with byte-identical output; drain must stop the fleet
#      cleanly. Unless --skip-perf, the fleet benchmark then runs and
#      its BENCH_fleet.json must lint (aclint fleet) with >= 5x speedup
#      at 4 shards and a >= 0.9 multi-shard remote hit rate.
#  11. Fleet soak: accached + three authenticated TCP shards + acrouter,
#      all real processes (ASan builds unless --skip-asan), under a
#      SIGKILL/restart schedule — shard victims, gaps and the request
#      mix all derived from one pinned seed (AC_SOAK_SEED, default
#      20260808, so a failing soak replays exactly). The load is
#      bulk/interactive multi-tenant traffic via acc --priority/--tenant;
#      every request must exit 0 with bytes identical to the checked-in
#      goldens (mid-churn the router reroutes or acc degrades
#      in-process; the in-process fallback is acc's, never the router's —
#      either way the bytes hold). Afterwards every shard's
#      Prometheus exposition must lint with the shed counter present
#      (aclint metrics --require), at least one shard must have
#      per-tenant samples, and the fleet must drain cleanly.
#  12. Fleet observability: accached + three shards + acrouter all with
#      --trace (live span buffers), router scraping the store (--cache).
#      One traced request must come back byte-identical; actrace must
#      then pull every member's fragment and merge them into one trace
#      that lints (aclint trace) and holds the fleet invariants (aclint
#      fleettrace: one trace id, >= 3 processes — the router, the
#      serving shard and accached — every parent span ref resolving).
#      The router's federated `metrics` must be one lint-clean
#      exposition carrying the latency histograms, winner attribution
#      (summing to exactly the one completed request), shard_id labels,
#      exemplars, and the per-block scrape-age gauge; actop must render
#      the fleet and emit the raw payload with --once --json. Unless
#      --skip-perf, the tracing machinery's cost is then bounded on
#      table5_scaling's seL4-scale row: the summed AutoCorres CPU with
#      live tracing *enabled* must stay within 2% of the disabled run —
#      and the disabled hot path (one relaxed atomic per span) is a
#      strict subset of that cost, so the disabled-tracing regression is
#      bounded by the same 2%.
#
# The checks share one set of helpers, defined before pass 1: `fail`,
# the byte-compare `same`, and the daemon and fleet starters and
# stoppers.
#
# Every pass runs under a watchdog: if a single pass exceeds
# AC_PASS_TIMEOUT seconds (default 900) the gate fails instead of
# hanging — a stuck daemon wait or a deadlocked test is a finding.
#
# Usage: scripts/tier1.sh [--skip-tsan] [--skip-asan] [--skip-perf]
#
#===-----------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_TSAN=0
SKIP_ASAN=0
SKIP_PERF=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-asan) SKIP_ASAN=1 ;;
    --skip-perf) SKIP_PERF=1 ;;
    *) echo "tier-1: unknown option $arg" >&2; exit 2 ;;
  esac
done

# Per-pass watchdog: each `pass` banner re-arms a timer that fails the
# whole gate if the pass runs past AC_PASS_TIMEOUT seconds. The TERM it
# sends reaches the EXIT trap, so daemons still get cleaned up.
PASS_TIMEOUT="${AC_PASS_TIMEOUT:-900}"
WATCHDOG_PID=""
disarm_watchdog() {
  [[ -n "$WATCHDOG_PID" ]] || return 0
  pkill -P "$WATCHDOG_PID" 2>/dev/null || true
  kill "$WATCHDOG_PID" 2>/dev/null || true
  WATCHDOG_PID=""
}
pass() {
  disarm_watchdog
  echo "=== $1 ==="
  (
    sleep "$PASS_TIMEOUT"
    echo "tier-1: FAILED — '$1' exceeded its ${PASS_TIMEOUT}s watchdog" >&2
    kill -TERM $$
  ) &
  WATCHDOG_PID=$!
}

ACC="build/tools/acc"
ACD="build/tools/acd"
ACD_DIR="$(mktemp -d)" # every pass's scratch files, removed on exit

# `fail MESSAGE [DETAIL]`: the gate's one way out — MESSAGE after
# "tier-1: FAILED — " on stderr, then DETAIL (a log or a diff), exit 1.
fail() {
  echo "tier-1: FAILED — $1" >&2
  [[ -z "${2:-}" ]] || printf '%s\n' "$2" >&2
  exit 1
}
# `same GOT WANT MESSAGE`: GOT must match WANT byte for byte, or the gate
# fails with MESSAGE and the head of the diff.
same() {
  cmp -s "$1" "$2" || fail "$3" "$(diff "$2" "$1" | head)"
}
# `await COMMAND...`: runs COMMAND every 0.1 s until it succeeds, for at
# most 10 s; false if it never does. Call it as a condition.
await() {
  for _ in $(seq 100); do
    "$@" && return 0
    sleep 0.1
  done
  return 1
}

# Daemons (passes 5-12). `spawn NAME DIR COMMAND...` starts a daemon
# with its output in DIR/NAME.log and its pid in PID[NAME]; the EXIT trap
# kills every daemon still in PID. `boot` spawns and then waits for the
# "listening on tcp port N" line to set PORT[NAME]; `start_acd NAME DIR
# SOCKET ARGS...` spawns an acd on SOCKET and waits until it answers a
# ping. A daemon that never comes up fails the gate with its log.
declare -A PID PORT LOG
cleanup() {
  disarm_watchdog
  local pid
  for pid in "${PID[@]}"; do
    kill -KILL "$pid" 2>/dev/null || true
  done
  rm -rf "$ACD_DIR"
}
trap cleanup EXIT
spawn() {
  local name="$1" log="$2/$1.log"
  shift 2
  "$@" >"$log" 2>&1 &
  PID[$name]=$!
  LOG[$name]=$log
}
boot() {
  spawn "$@"
  await grep -q "listening on tcp port" "${LOG[$1]}" ||
    fail "$1 did not announce its port:" "$(cat "${LOG[$1]}")"
  PORT[$1]="$(sed -n 's/.*listening on tcp port \([0-9]*\).*/\1/p' \
    "${LOG[$1]}" | head -1)"
}
start_acd() {
  local name="$1" dir="$2" sock="$3"
  shift 3
  spawn "$name" "$dir" "$ACD" --socket "$sock" "$@"
  await "$ACC" --socket "$sock" --ping >/dev/null 2>&1 ||
    fail "$name did not come up:" "$(cat "${LOG[$name]}")"
}
# `reap NAME`: daemon NAME, already asked to drain, must exit 0. `stop
# NAME...` sends each named daemon SIGTERM and reaps it.
reap() {
  local rc=0
  wait "${PID[$1]}" || rc=$?
  unset "PID[$1]"
  [[ "$rc" == 0 ]] ||
    fail "$1 exited $rc on ${2:-drain}:" "$(tail -20 "${LOG[$1]}")"
}
stop() {
  local name
  for name in "$@"; do
    kill -TERM "${PID[$name]}" 2>/dev/null || true
    reap "$name" SIGTERM
  done
}
# Fleets (passes 10-12). `boot_fleet DIR BUILD "SHARD..." [ARGS...]`
# boots, from BUILD/tools and on loopback, an accached, one TCP-only acd
# shard per name writing through to it, and an acrouter (named router)
# in front of the shards that also scrapes the store. Every member
# takes the token in DIR/token and ARGS; ROUTER is set to acc's
# arguments for the router. `shard boot|spawn NAME PORT` starts one
# more shard of that fleet on PORT (0 for any) with its cache in
# DIR/cache-NAME: `spawn` restarts without waiting for it to listen.
shard() {
  "$1" "$2" "$FDIR" "$FBIN/acd" --socket none --listen "127.0.0.1:$3" \
    --auth-token-file "$FDIR/token" --shard-id "$2" \
    --cache-dir "$FDIR/cache-$2" \
    --remote-cache "127.0.0.1:${PORT[accached]}" \
    --remote-token-file "$FDIR/token" "${FARGS[@]}"
}
boot_fleet() {
  FDIR="$1" FBIN="$2/tools"
  local names=($3) routes=() s
  shift 3
  FARGS=("$@")
  echo "tier1-fleet-secret" >"$FDIR/token"
  boot accached "$FDIR" "$FBIN/accached" --listen 127.0.0.1:0 \
    --auth-token-file "$FDIR/token" "$@"
  for s in "${names[@]}"; do
    shard boot "$s" 0
    routes+=(--shard "127.0.0.1:${PORT[$s]}")
  done
  boot router "$FDIR" "$FBIN/acrouter" --listen 127.0.0.1:0 \
    --auth-token-file "$FDIR/token" "${routes[@]}" \
    --shard-token-file "$FDIR/token" \
    --cache "127.0.0.1:${PORT[accached]}" "$@"
  ROUTER=(--router "127.0.0.1:${PORT[router]}" --auth-token-file
    "$FDIR/token")
}

pass "tier-1 pass 1: normal build + ctest"
cmake -B build -S . >/dev/null || fail "cmake configure failed." \
  "tier-1: fix the configure error above (or delete build/ if its
tier-1: CMakeCache.txt is stale) and re-run scripts/tier1.sh."
cmake --build build -j >/dev/null
(cd build && ctest --output-on-failure -j)

if [[ "$SKIP_TSAN" == 1 ]]; then
  echo "=== tier-1 pass 2: skipped (--skip-tsan) ==="
else
  pass "tier-1 pass 2: ThreadSanitizer (parallel pipeline + daemon)"
  cmake -B build-tsan -S . -DAC_SANITIZE=thread >/dev/null ||
    fail "TSan cmake configure failed (see above)."
  cmake --build build-tsan -j --target test_core test_threadpool \
    test_parallel_determinism test_service test_hol_hashcons >/dev/null
  (
    cd build-tsan
    export TSAN_OPTIONS="suppressions=$(cd .. && pwd)/scripts/tsan.supp"
    export AC_JOBS=4
    export AC_DET_CORPUS=echronos
    ./tests/test_threadpool
    ./tests/test_hol_hashcons
    ./tests/test_core
    ./tests/test_parallel_determinism
    ./tests/test_service
  )
fi

pass "tier-1 pass 3: abstraction-cache round trip"
CACHE_DIR="$ACD_DIR/golden-cache"
# Cold run populates the cache; the fixtures must already match.
(cd build && AC_CACHE_DIR="$CACHE_DIR" ctest -L golden --output-on-failure)
# Warm run: same fixtures byte-for-byte, and the [cache] stdout lines
# must report at least one hit (proving the entries were actually used).
WARM_LOG="$(cd build && AC_CACHE_DIR="$CACHE_DIR" ctest -L golden \
  --output-on-failure --verbose)"
grep -q '\[cache\] hits=[1-9]' <<<"$WARM_LOG" ||
  fail "warm golden run reported no cache hits:" \
    "$(grep '\[cache\]' <<<"$WARM_LOG")"
echo "warm cache hits confirmed:"
grep '\[cache\]' <<<"$WARM_LOG" | sort | uniq -c

if [[ "$SKIP_ASAN" == 1 ]]; then
  echo "=== tier-1 pass 4: skipped (--skip-asan) ==="
else
  pass "tier-1 pass 4: AddressSanitizer (service surface)"
  cmake -B build-asan -S . -DAC_SANITIZE=address >/dev/null ||
    fail "ASan cmake configure failed (see above)."
  cmake --build build-asan -j \
    --target test_service test_json test_threadpool test_hol_hashcons \
    test_peephole test_hol_unify >/dev/null
  (
    cd build-asan
    ./tests/test_json
    ./tests/test_threadpool
    ./tests/test_hol_hashcons
    ./tests/test_peephole
    ./tests/test_hol_unify
    ./tests/test_service
  )
fi

pass "tier-1 pass 5: daemon golden round trip (acd/acc)"
SOCK="$ACD_DIR/acd.sock"
start_acd acd "$ACD_DIR" "$SOCK" --cache-dir "$ACD_DIR/cache"
# acc reads its numbers whole and in range: a negative, non-numeric or
# empty --jobs is a bad argument (exit 2), never a wrapped or zero count.
for bad in -1 x ''; do
  RC=0
  "$ACC" --socket "$SOCK" --jobs "$bad" --corpus max >/dev/null 2>&1 || RC=$?
  [[ "$RC" == 2 ]] || fail "acc --jobs $bad exited $RC, want 2."
done
# A flag with nothing after it prints the usage alone, as every flag does.
RC=0
"$ACC" --socket "$SOCK" --jobs >/dev/null 2>"$ACD_DIR/novalue.err" || RC=$?
[[ "$RC" == 2 ]] && ! grep -q 'bad argument' "$ACD_DIR/novalue.err" ||
  fail "acc --jobs with no value exited $RC (want 2, usage only):" \
    "$(cat "$ACD_DIR/novalue.err")"
# acd bounds its session workers the same way (at most 256): a larger or
# non-numeric count exits 2 before a thread starts or a socket is bound.
# The timeout turns a daemon that starts anyway into a failure, not a hang.
for bad in 257 x; do
  RC=0
  timeout 10 "$ACD" --socket "$ACD_DIR/bad.sock" --workers "$bad" \
    >/dev/null 2>&1 || RC=$?
  [[ "$RC" == 2 && ! -e "$ACD_DIR/bad.sock" ]] ||
    fail "acd --workers $bad exited $RC (want 2) or left a socket file."
done
# Every tool reads its numbers the same way: acpc refuses a negative
# count, and acrouter refuses the ring-size flag it no longer has, each
# with exit 2 before any work (the router before it listens).
for cmd in "build/tools/acpc -j -1 tests/golden/gcd.acpc" \
    "build/tools/acpc --node-budget -1 tests/golden/gcd.acpc" \
    "build/tools/acrouter --listen 127.0.0.1:0 --shard 127.0.0.1:1 --virtual-nodes 8"; do
  RC=0
  timeout 10 $cmd >/dev/null 2>&1 || RC=$?
  [[ "$RC" == 2 ]] || fail "$cmd exited $RC, want 2."
done
# Cold, then warm: daemon-served golden snapshots must match the
# checked-in fixtures byte for byte both times.
for round in cold warm; do
  for c in max gcd swap midpoint reverse; do
    "$ACC" --socket "$SOCK" --corpus "$c" --golden >"$ACD_DIR/$c.$round"
    same "$ACD_DIR/$c.$round" "tests/golden/$c.expected" \
      "daemon-served $c ($round) diverged from tests/golden/$c.expected:"
  done
done
# The warm round must have come out of the in-memory tier.
STATS="$("$ACC" --socket "$SOCK" --stats)"
grep -qE '"hits":[1-9]' <<<"$STATS" ||
  fail "warm daemon round reported no cache hits:" "$STATS"
echo "daemon cache hits confirmed: $(grep -oE '"hits":[0-9]+' <<<"$STATS")"
# Edit round trip: a small unit with a struct, a global and a call chain
# (settle -> charge -> clamp, plus an unrelated spare), checked, then
# re-checked after a one-literal edit to clamp. The warm answer must match
# an uncached in-process run byte for byte (per-phase specs included),
# and only clamp and its callers may miss.
cat >"$ACD_DIR/edit.c" <<'EOF_UNIT'
struct acct { unsigned int bal; unsigned int lim; };
unsigned int fee;
unsigned int clamp(unsigned int x) { if (x > 1000u) { return 1000u; } return x; }
unsigned int charge(struct acct *a, unsigned int amt) {
  unsigned int c;
  c = clamp(amt + fee);
  a->bal = a->bal + c;
  return c;
}
unsigned int settle(struct acct *a) { unsigned int r; r = charge(a, 5u); return r + a->lim; }
unsigned int spare(unsigned int y) { return y * 3u; }
EOF_UNIT
"$ACC" --socket "$SOCK" --specs "$ACD_DIR/edit.c" >"$ACD_DIR/edit.before"
sed 's/x > 1000u/x > 2000u/' "$ACD_DIR/edit.c" >"$ACD_DIR/edit2.c"
"$ACC" --socket "$SOCK" --specs "$ACD_DIR/edit2.c" >"$ACD_DIR/edit.after"
AC_CACHE=0 "$ACC" --socket "$ACD_DIR/no-daemon.sock" --specs \
  "$ACD_DIR/edit2.c" >"$ACD_DIR/edit.ref" 2>/dev/null
# The last line is the per-run stats line ([acd] vs [local], timings).
head -n -1 "$ACD_DIR/edit.after" >"$ACD_DIR/edit.after.specs"
head -n -1 "$ACD_DIR/edit.ref" >"$ACD_DIR/edit.ref.specs"
same "$ACD_DIR/edit.after.specs" "$ACD_DIR/edit.ref.specs" \
  "warm re-check after an edit diverged from an uncached in-process run:"
EDIT_STATS="$(tail -n 1 "$ACD_DIR/edit.after")"
grep -q '^\[acd\] .*cache(hits=1 misses=3 ' <<<"$EDIT_STATS" ||
  fail "the edit to clamp should miss clamp, charge and settle only:" \
    "$EDIT_STATS"
echo "edit round trip: $EDIT_STATS"
# Graceful drain: SIGTERM must finish in-flight work, flush the cache,
# remove the socket and exit 0.
stop acd
[[ ! -e "$SOCK" ]] || fail "acd left its socket file behind."
ls "$ACD_DIR"/cache/accache-v*.txt >/dev/null 2>&1 ||
  fail "acd drain did not flush the cache to disk."
echo "acd drained cleanly (socket removed, cache flushed)"

pass "tier-1 pass 6: chaos (fault injection + daemon kill)"
# 6a. Every registered fault site, driven through failure and recovery.
#     Under ASan when available: injected faults must not leak either.
if [[ "$SKIP_ASAN" == 1 ]]; then
  cmake --build build -j --target test_chaos >/dev/null
  ./build/tests/test_chaos
else
  cmake --build build-asan -j --target test_chaos >/dev/null
  ./build-asan/tests/test_chaos
fi

# 6b. The AC_FAULTS environment path: tear the cache file mid-save (the
#     state a power cut leaves), then prove the next run over the same
#     cache directory warns, re-verifies the damaged tail, and still
#     emits the exact golden bytes.
CHAOS_DIR="$ACD_DIR/chaos"
mkdir -p "$CHAOS_DIR"
NOSOCK="$CHAOS_DIR/nobody-home.sock" # nothing listens: acc runs locally
AC_FAULTS=cache.save.crash:1 "$ACC" --socket "$NOSOCK" \
  --cache-dir "$CHAOS_DIR/cache" --corpus gcd --golden \
  >"$CHAOS_DIR/gcd.torn" 2>"$CHAOS_DIR/gcd.torn.err"
same "$CHAOS_DIR/gcd.torn" "tests/golden/gcd.expected" \
  "output of the run whose cache save was torn diverged from tests/golden/gcd.expected."
"$ACC" --socket "$NOSOCK" --cache-dir "$CHAOS_DIR/cache" --corpus gcd \
  --golden >"$CHAOS_DIR/gcd.recovered" 2>"$CHAOS_DIR/gcd.recovered.err"
same "$CHAOS_DIR/gcd.recovered" "tests/golden/gcd.expected" \
  "recovery run over the torn cache diverged from tests/golden/gcd.expected."
grep -q "dropped" "$CHAOS_DIR/gcd.recovered.err" ||
  fail "recovery over a torn cache did not warn about dropped entries:" \
    "$(cat "$CHAOS_DIR/gcd.recovered.err")"
echo "torn cache write recovered byte-identically (with warning)"

# 6c. Whole-process failure: SIGKILL a live acd mid-request. The client
#     must degrade to an in-process run with the exact golden bytes, and
#     a fresh acd must bind the same (now stale) socket path and serve.
SOCK2="$ACD_DIR/acd-chaos.sock"
start_acd acd-chaos "$ACD_DIR" "$SOCK2" --cache-dir "$ACD_DIR/chaos-cache"
"$ACC" --socket "$SOCK2" --corpus max --debug-delay-ms 3000 --golden \
  >"$ACD_DIR/max.killed" 2>"$ACD_DIR/max.killed.err" &
ACC_PID=$!
sleep 0.5 # let the request reach the daemon's session worker
kill -KILL "${PID[acd-chaos]}"
unset "PID[acd-chaos]"
ACC_RC=0
wait "$ACC_PID" || ACC_RC=$?
[[ "$ACC_RC" == 0 ]] ||
  fail "acc exited $ACC_RC after its daemon was SIGKILLed mid-request:" \
    "$(cat "$ACD_DIR/max.killed.err")"
same "$ACD_DIR/max.killed" "tests/golden/max.expected" \
  "fallback output after SIGKILL diverged from tests/golden/max.expected:"
grep -q "falling back" "$ACD_DIR/max.killed.err" ||
  fail "acc did not report its fallback:" "$(cat "$ACD_DIR/max.killed.err")"
echo "SIGKILLed daemon degraded to an exact in-process run"
# Restart on the same socket path (the dead daemon left a stale file).
start_acd acd-restarted "$ACD_DIR" "$SOCK2" \
  --cache-dir "$ACD_DIR/chaos-cache"
"$ACC" --socket "$SOCK2" --no-fallback --corpus max --golden \
  >"$ACD_DIR/max.restarted"
same "$ACD_DIR/max.restarted" "tests/golden/max.expected" \
  "restarted daemon on the stale socket path diverged from tests/golden/max.expected."
stop acd-restarted
echo "fresh acd reclaimed the stale socket and drained cleanly"

pass "tier-1 pass 7: observability (tracing, rule profile, metrics)"
ACLINT="build/tools/aclint"
cmake --build build -j --target aclint >/dev/null
OBS_DIR="$ACD_DIR/obs"
mkdir -p "$OBS_DIR"
NOSOCK7="$OBS_DIR/nobody-home.sock" # nothing listens: acc runs locally

# 7a. Tracing must be invisible to the result: the traced run's golden
#     bytes match the untraced fixture exactly.
"$ACC" --socket "$NOSOCK7" --trace "$OBS_DIR/max.trace.json" \
  --cache-dir "$OBS_DIR/cache" --corpus max --golden \
  >"$OBS_DIR/max.traced" 2>/dev/null
same "$OBS_DIR/max.traced" "tests/golden/max.expected" \
  "traced run diverged from tests/golden/max.expected:"
# ...and the trace itself is well-formed Chrome JSON carrying the
# pipeline's spans and the paper-scale rule inventory as a profile.
"$ACLINT" trace "$OBS_DIR/max.trace.json" \
  --require-span parse --require-span core.fn \
  --require-span wordabs.fn --require-span heapabs.fn \
  --require-span monad.peephole --require-span cache.save \
  --min-wa 40 --min-hl 35 ||
  fail "acc trace did not lint (see findings above)."
# A threshold that is not a number is a bad argument, never a 0 that
# skips the check.
RC=0
"$ACLINT" trace "$OBS_DIR/max.trace.json" --min-wa x >/dev/null 2>&1 || RC=$?
[[ "$RC" == 2 ]] || fail "aclint trace --min-wa x exited $RC, want 2."
echo "traced run byte-identical; trace linted (spans + rule profile)"

# 7b. The daemon's per-request traces and metrics endpoint.
SOCK7="$OBS_DIR/acd.sock"
start_acd acd-traced "$OBS_DIR" "$SOCK7" --trace-dir "$OBS_DIR/traces" \
  --log-file "$OBS_DIR/acd.jsonl"
"$ACC" --socket "$SOCK7" --no-fallback --trace-id tier1-pass7 \
  --corpus gcd --golden >"$OBS_DIR/gcd.served"
same "$OBS_DIR/gcd.served" "tests/golden/gcd.expected" \
  "daemon-served gcd under tracing diverged."
await test -f "$OBS_DIR/traces/tier1-pass7.json" &&
  "$ACLINT" trace "$OBS_DIR/traces/tier1-pass7.json" \
    --require-span core.fn || fail "per-request daemon trace did not lint."
"$ACC" --socket "$SOCK7" --metrics >"$OBS_DIR/metrics.txt"
"$ACLINT" metrics "$OBS_DIR/metrics.txt" \
  --require acd_requests_completed_total \
  --require acd_requests_shed_total ||
  fail "daemon metrics exposition did not lint."
grep -q '^acd_requests_completed_total 1$' "$OBS_DIR/metrics.txt" ||
  fail "metrics did not count the served request:" \
    "$(grep '^acd_requests' "$OBS_DIR/metrics.txt")"
# The structured log is JSONL with the request's lifecycle under its id.
if ! grep -q '"event":"request.completed".*"trace_id":"tier1-pass7"' \
    "$OBS_DIR/acd.jsonl" && \
   ! grep -q '"trace_id":"tier1-pass7".*"event":"request.completed"' \
    "$OBS_DIR/acd.jsonl"; then
  fail "no request.completed log line for tier1-pass7:" \
    "$(cat "$OBS_DIR/acd.jsonl")"
fi
stop acd-traced
echo "daemon per-request trace, metrics and structured log linted"

# 7c. Observability must never fail the work it observes: inject a trace
#     write failure; the check still exits 0 with the exact golden bytes
#     and only a warning marks the lost trace.
OBS_RC=0
AC_FAULTS=trace.write.fail:1 "$ACC" --socket "$NOSOCK7" \
  --trace "$OBS_DIR/torn.trace.json" --corpus max --golden \
  >"$OBS_DIR/max.torntrace" 2>"$OBS_DIR/max.torntrace.err" || OBS_RC=$?
[[ "$OBS_RC" == 0 ]] ||
  fail "a torn trace write failed the check (exit $OBS_RC):" \
    "$(cat "$OBS_DIR/max.torntrace.err")"
same "$OBS_DIR/max.torntrace" "tests/golden/max.expected" \
  "output diverged when the trace write was torn."
grep -q "trace.write_failed" "$OBS_DIR/max.torntrace.err" ||
  fail "torn trace write did not warn:" \
    "$(cat "$OBS_DIR/max.torntrace.err")"
echo "torn trace write warned without failing the check"

if [[ "$SKIP_PERF" == 1 ]]; then
  echo "=== tier-1 pass 8: skipped (--skip-perf) ==="
else
  pass "tier-1 pass 8: perf floor (hash-consed kernel)"
  PERF_BASE="bench/baselines/seed-perf.txt"
  [[ -f "$PERF_BASE" ]] || fail "$PERF_BASE missing (seed perf baseline)."
  base() { awk -v k="$1" '$1==k{print $2}' "$PERF_BASE"; }
  wall() { sed -n 's/.*wall=\([0-9.]*\)s.*/\1/p' "$1" | head -1; }
  PERF_DIR="$OBS_DIR/perf"
  mkdir -p "$PERF_DIR"
  cmake --build build -j --target phase_times >/dev/null

  # 8a. Cold-run floor: the same phase_times invocation the seed baseline
  #     recorded, compared as a ratio. The floor is deliberately below
  #     the speedup measured on the reference runner so noise does not
  #     flake the gate, but high enough that losing the hash-consed
  #     fast paths (or the WA/HL memo tables) fails it.
  ./build/bench/phase_times echronos 3 >"$PERF_DIR/phase.log"
  WALL="$(wall "$PERF_DIR/phase.log")"
  SEED_WALL="$(base phase_echronos3_wall_s)"
  MIN_SPEEDUP="${AC_PERF_MIN_SPEEDUP:-1.4}"
  [[ -n "$WALL" && -n "$SEED_WALL" ]] ||
    fail "could not read cold wall (got '$WALL' vs seed '$SEED_WALL')."
  awk -v w="$WALL" -v s="$SEED_WALL" -v m="$MIN_SPEEDUP" \
      'BEGIN { exit !(w > 0 && s / w >= m) }' ||
    fail "cold echronos wall ${WALL}s misses the ${MIN_SPEEDUP}x floor vs seed ${SEED_WALL}s." \
      "tier-1: (baselines are machine-dependent; see $PERF_BASE for the reference runner,
tier-1:  and AC_PERF_MIN_SPEEDUP / --skip-perf for slower machines.)"
  echo "cold echronos wall ${WALL}s vs seed ${SEED_WALL}s: floor ${MIN_SPEEDUP}x holds"

  # 8b. Warm-cache behaviour unchanged: a cold and a warm run against one
  #     fresh cache directory must produce byte-identical output.
  "$ACC" --socket "$NOSOCK7" --cache-dir "$PERF_DIR/cache" \
    --corpus echronos --golden >"$PERF_DIR/echronos.cold"
  "$ACC" --socket "$NOSOCK7" --cache-dir "$PERF_DIR/cache" \
    --corpus echronos --golden >"$PERF_DIR/echronos.warm"
  same "$PERF_DIR/echronos.warm" "$PERF_DIR/echronos.cold" \
    "warm-cache echronos output diverged from the cold run:"
  echo "cold/warm cache pair byte-identical"

  # 8c. The WA/HL share of a traced run must stay at or below the seed's
  #     recorded shares — the span-level proof that the hot abstraction
  #     paths stopped re-walking structure. Ratio-free: valid on any
  #     machine.
  "$ACC" --socket "$NOSOCK7" --trace "$PERF_DIR/echronos.trace.json" \
    --corpus echronos --golden >"$PERF_DIR/echronos.traced"
  same "$PERF_DIR/echronos.traced" "$PERF_DIR/echronos.cold" \
    "traced echronos run diverged from the untraced one."
  "$ACLINT" trace "$PERF_DIR/echronos.trace.json" \
      --require-span wordabs.fn --require-span heapabs.fn \
      --max-span-share "wordabs.fn:$(base trace_echronos_wa_share_pct)" \
      --max-span-share "heapabs.fn:$(base trace_echronos_hl_share_pct)" ||
    fail "WA/HL span share regressed past the seed baseline."
  echo "WA/HL span shares at or below the seed's recorded shares"
fi

pass "tier-1 pass 9: proof certificates (acpc round trips)"
ACPC="build/tools/acpc"
cmake --build build -j --target acpc >/dev/null
CERT_T1="$ACD_DIR/certs"
mkdir -p "$CERT_T1"
NOSOCK9="$CERT_T1/nobody-home.sock" # nothing listens: acc runs locally

# 9a. Local round trip on the scaling corpus: exporting a certificate
#     must not move a byte of the run's output; the certificate must
#     re-derive under the independent checker.
"$ACC" --socket "$NOSOCK9" --corpus echronos --golden \
  >"$CERT_T1/echronos.plain"
"$ACC" --socket "$NOSOCK9" --cert "$CERT_T1/echronos.acpc" \
  --corpus echronos --golden >"$CERT_T1/echronos.certed"
same "$CERT_T1/echronos.certed" "$CERT_T1/echronos.plain" \
  "exporting a certificate perturbed echronos output:"
"$ACPC" "$CERT_T1/echronos.acpc" | tee "$CERT_T1/echronos.check" ||
  fail "acpc rejected the echronos certificate."
# The certificate covers the run: at least 10 claims, and meta records
# naming its generator and its functions.
CLAIMS="$(sed -n 's/.*: ok: \([0-9]*\) claims.*/\1/p' "$CERT_T1/echronos.check")"
if [[ "${CLAIMS:-0}" -lt 10 ]] ||
   ! grep -q '^m :generator :' "$CERT_T1/echronos.acpc" ||
   ! grep -q '^m :functions :' "$CERT_T1/echronos.acpc"; then
  fail "echronos certificate did not lint."
fi
echo "local acc --cert round trip checked (${CLAIMS} claims, meta present)"

# 9b. Daemon per-request export: a real acd writes
#     <cert-dir>/<trace_id>.acpc, checkable independently; a hostile
#     path-steering trace id must be replaced with a minted safe one at
#     admission, never composed into the path.
SOCK9="$CERT_T1/acd.sock"
start_acd acd-certs "$CERT_T1" "$SOCK9" --cert-dir "$CERT_T1/dcerts"
"$ACC" --socket "$SOCK9" --no-fallback --trace-id tier1-pass9 \
  --corpus gcd --golden >"$CERT_T1/gcd.served"
same "$CERT_T1/gcd.served" "tests/golden/gcd.expected" \
  "daemon-served gcd under cert export diverged."
await test -f "$CERT_T1/dcerts/tier1-pass9.acpc" &&
  "$ACPC" "$CERT_T1/dcerts/tier1-pass9.acpc" ||
  fail "per-request daemon certificate did not check."
"$ACC" --socket "$SOCK9" --no-fallback --trace-id '../../escape' \
  --corpus max --golden >"$CERT_T1/max.served"
same "$CERT_T1/max.served" "tests/golden/max.expected" \
  "daemon-served max (hostile trace id) diverged."
[[ ! -e "$ACD_DIR/escape.acpc" && ! -e "$CERT_T1/escape.acpc" ]] ||
  fail "a hostile trace id steered a certificate write outside --cert-dir."
MINTED=""
await compgen -G "$CERT_T1/dcerts/req-*.acpc" >/dev/null &&
  MINTED="$(ls "$CERT_T1"/dcerts/req-*.acpc | head -1)" &&
  "$ACPC" "$MINTED" ||
  fail "no checkable minted-id certificate for the hostile trace id (got '$MINTED')."
stop acd-certs
echo "daemon per-request certs checked; hostile trace id contained"

# 9c. Adversarial certificate suites under ASan: every registered
#     record-kind mutation rejected, and the checker total under fuzzing
#     (an over-read that returns the right bytes in a plain build still
#     fails here).
if [[ "$SKIP_ASAN" == 1 ]]; then
  echo "(cert mutation/fuzz ASan replay skipped via --skip-asan)"
else
  cmake --build build-asan -j \
    --target test_cert_mutation test_cert_fuzz >/dev/null
  ./build-asan/tests/test_cert_mutation
  ./build-asan/tests/test_cert_fuzz
fi

# 9d. Recording cost: with recording disabled (the default) the
#     phase_times wall must still clear the pass-8 speedup floor against
#     the seed baseline — the baseline predates certificate support, so
#     the always-on conclusion threading has to live inside the noise
#     the floor absorbs. With recording enabled plus per-function export
#     (AC_CERT_DIR), the wall may grow by at most
#     AC_CERT_MAX_ENABLED_RATIO (default 2.0). Pass 8 defined the seed
#     wall, the floor and the readers.
if [[ "$SKIP_PERF" == 1 ]]; then
  echo "(cert recording-cost gate skipped via --skip-perf)"
else
  ./build/bench/phase_times echronos 3 >"$CERT_T1/phase.off.log"
  WOFF="$(wall "$CERT_T1/phase.off.log")"
  [[ -n "$WOFF" && -n "$SEED_WALL" ]] ||
    fail "could not read cert-gate walls (got '$WOFF' vs seed '$SEED_WALL')."
  awk -v w="$WOFF" -v s="$SEED_WALL" -v m="$MIN_SPEEDUP" \
      'BEGIN { exit !(w > 0 && s / w >= m) }' ||
    fail "recording-disabled wall ${WOFF}s misses the ${MIN_SPEEDUP}x floor vs seed ${SEED_WALL}s."
  AC_CERT_DIR="$CERT_T1/bench-certs" \
    ./build/bench/phase_times echronos 3 >"$CERT_T1/phase.on.log"
  WON="$(wall "$CERT_T1/phase.on.log")"
  MAX_RATIO="${AC_CERT_MAX_ENABLED_RATIO:-2.0}"
  [[ -n "$WON" ]] || fail "could not read recording-enabled wall."
  awk -v on="$WON" -v off="$WOFF" -v m="$MAX_RATIO" \
      'BEGIN { exit !(off > 0 && on / off <= m) }' ||
    fail "recording-enabled wall ${WON}s exceeds ${MAX_RATIO}x the disabled wall ${WOFF}s."
  ls "$CERT_T1"/bench-certs/*.acpc >/dev/null 2>&1 ||
    fail "AC_CERT_DIR run left no per-function certs."
  ONE_CERT="$(ls "$CERT_T1"/bench-certs/*.acpc | head -1)"
  "$ACPC" "$ONE_CERT" >/dev/null ||
    fail "per-function cert $ONE_CERT did not check."
  echo "recording disabled ${WOFF}s holds the ${MIN_SPEEDUP}x floor;" \
       "enabled ${WON}s within ${MAX_RATIO}x"
fi

pass "tier-1 pass 10: fleet (TCP auth, acrouter, remote cache tier)"
cmake --build build -j --target acd acc acrouter accached aclint \
  fleet_throughput >/dev/null
# The router only routes: falling back to an in-process run is acc's, so
# acrouter must not link the verification pipeline.
ROUTER_PIPELINE="$(nm -C build/tools/acrouter |
  grep -E 'ac::(core|heapabs|wordabs)::' || true)"
[[ -z "$ROUTER_PIPELINE" ]] ||
  fail "acrouter links the verification pipeline:" \
    "$(head <<<"$ROUTER_PIPELINE")"
FLEET="$ACD_DIR/fleet"
mkdir -p "$FLEET"

# 10a. Boot the fleet: one accached, two authenticated TCP-only shards
#      writing through to it, one acrouter in front of both.
boot_fleet "$FLEET" build "s1 s2"
TOK="$FLEET/token"
CPORT=${PORT[accached]} P1=${PORT[s1]} P2=${PORT[s2]} RPORT=${PORT[router]}
# A wrong token must be refused with the typed error before any op, on
# every daemon: the router, a shard and the cache.
echo "not-the-fleet-secret" >"$FLEET/wrong-token"
for port in "$RPORT" "$P1" "$CPORT"; do
  if "$ACC" --router "127.0.0.1:$port" --auth-token-file \
      "$FLEET/wrong-token" --ping >/dev/null 2>"$FLEET/badauth.err"; then
    fail "the daemon on port $port accepted a wrong token."
  fi
  grep -q auth_failed "$FLEET/badauth.err" ||
    fail "the daemon on port $port refused a wrong token without a typed auth_failed:" \
      "$(cat "$FLEET/badauth.err")"
done

# 10b. Golden corpora through the router: the fixtures are the
#      single-daemon reference, so byte-equality is the fleet's
#      correctness gate.
for c in max gcd swap midpoint reverse; do
  "$ACC" "${ROUTER[@]}" --no-fallback --corpus "$c" --golden \
    >"$FLEET/$c.fleet"
  same "$FLEET/$c.fleet" "tests/golden/$c.expected" \
    "router-served $c diverged from tests/golden/$c.expected:"
done
# Write-through must have populated the shared store.
CSTATS="$("$ACC" --router "127.0.0.1:$CPORT" --auth-token-file "$TOK" \
  --stats)"
grep -qE '"puts":[1-9]' <<<"$CSTATS" ||
  fail "accached saw no write-through puts: $CSTATS"
echo "golden corpora byte-identical through the router; store populated"

# 10c. SIGKILL shard s1 mid-replay: the router must reroute in ring
#      order and the replay must still not move a byte.
(
  for c in max gcd swap midpoint reverse; do
    "$ACC" "${ROUTER[@]}" --no-fallback --debug-delay-ms 200 \
      --corpus "$c" --golden >"$FLEET/$c.killed"
  done
) &
REPLAY_PID=$!
sleep 0.4 # land the kill mid-replay
kill -KILL "${PID[s1]}"
unset "PID[s1]"
REPLAY_RC=0
wait "$REPLAY_PID" || REPLAY_RC=$?
[[ "$REPLAY_RC" == 0 ]] ||
  fail "replay exited $REPLAY_RC after shard s1 was SIGKILLed (router log follows):" \
    "$(tail -20 "$FLEET/router.log")"
for c in max gcd swap midpoint reverse; do
  same "$FLEET/$c.killed" "tests/golden/$c.expected" \
    "$c diverged after shard s1 was SIGKILLed mid-replay."
done
echo "shard SIGKILL mid-replay: all corpora byte-identical"

# 10d. Cold restart: both shards come back on their old ports with
#      wiped cache directories, and the replay must be served out of the
#      remote tier — every shard that serves work reports remote hits.
stop s2
shard boot s1-cold "$P1"
shard boot s2-cold "$P2"
# Wait for the router's probes to revive both.
await "$ACC" "${ROUTER[@]}" --no-fallback --corpus gcd --golden \
    >"$FLEET/gcd.revive" 2>/dev/null ||
  fail "fleet did not serve again after the cold restart (router log follows):" \
    "$(tail -20 "$FLEET/router.log")"
for c in max gcd swap midpoint reverse; do
  "$ACC" "${ROUTER[@]}" --no-fallback --corpus "$c" --golden \
    >"$FLEET/$c.cold"
  same "$FLEET/$c.cold" "tests/golden/$c.expected" \
    "cold-restarted fleet diverged on $c."
done
TOTAL_REMOTE=0
for port in "$P1" "$P2"; do
  SSTATS="$("$ACC" --router "127.0.0.1:$port" --auth-token-file "$TOK" \
    --stats)"
  DONE="$(grep -o '"completed":[0-9]*' <<<"$SSTATS" | head -1 | cut -d: -f2)"
  RHITS="$(grep -o '"remote_hits":[0-9]*' <<<"$SSTATS" | head -1 | cut -d: -f2)"
  [[ "${DONE:-0}" -eq 0 || "${RHITS:-0}" -gt 0 ]] ||
    fail "cold shard on port $port served $DONE requests without a single remote-tier hit: $SSTATS"
  TOTAL_REMOTE=$((TOTAL_REMOTE + ${RHITS:-0}))
done
[[ "$TOTAL_REMOTE" -gt 0 ]] ||
  fail "no shard reported remote-tier hits after the cold restart."
echo "cold restart refilled from the remote tier ($TOTAL_REMOTE hits)"

# 10e. Drain the fleet: router first, then shards and the store, all
#      exiting 0.
"$ACC" "${ROUTER[@]}" --drain >/dev/null
reap router
stop s1-cold s2-cold accached
echo "fleet drained cleanly (router, both shards, accached)"

# 10f. The fleet benchmark and its artifact lint. Machine-dependent like
#      pass 8, so --skip-perf skips it.
if [[ "$SKIP_PERF" == 1 ]]; then
  echo "(fleet benchmark skipped via --skip-perf)"
else
  FLEET_BENCH="$(pwd)/build/bench/fleet_throughput"
  (cd "$FLEET" && "$FLEET_BENCH" >"$FLEET/bench.log" 2>&1) ||
    fail "fleet_throughput missed its floor:" "$(tail -12 "$FLEET/bench.log")"
  tail -7 "$FLEET/bench.log" | head -6
  "$ACLINT" fleet "$FLEET/BENCH_fleet.json" --min-speedup 5 \
    --min-hit-rate 0.9 || fail "BENCH_fleet.json did not lint."
  echo "fleet benchmark held its floor and its artifact linted"
fi

pass "tier-1 pass 11: fleet soak (seeded SIGKILL churn, priorities + tenants)"
SOAK_SEED="${AC_SOAK_SEED:-20260808}"
if [[ "$SKIP_ASAN" == 1 ]]; then
  SOAK_BUILD=build
  cmake --build build -j --target acd acc acrouter accached aclint >/dev/null
else
  SOAK_BUILD=build-asan
  cmake --build build-asan -j --target acd acc acrouter accached >/dev/null
  cmake --build build -j --target aclint >/dev/null
fi
SACC="$SOAK_BUILD/tools/acc"
SOAK="$ACD_DIR/soak"
mkdir -p "$SOAK"
# The soak asserts memory safety during the run; leak accounting at
# SIGKILL/exit is noise here, not signal.
export ASAN_OPTIONS="detect_leaks=0"

# The whole schedule — request mix, churn victims, gap lengths — derives
# from one pinned seed through a plain LCG, so a failing soak replays
# exactly with AC_SOAK_SEED.
mapfile -t RAND < <(awk -v s="$SOAK_SEED" 'BEGIN {
  for (i = 0; i < 64; i++) {
    s = (s * 1103515245 + 12345) % 2147483648
    print int(s / 65536) % 32768
  }
}')
echo "soak seed $SOAK_SEED"

# 11a. Boot: accached, three shards, the router.
boot_fleet "$SOAK" "$SOAK_BUILD" "soak0 soak1 soak2"

# 11b. The load: 40 requests, 3:1 bulk:interactive, three tenants, the
#      corpus/tenant picks seeded. Runs concurrently with the churn.
#      The contract is strict: every request exits 0 carrying the exact
#      golden bytes — a SIGKILLed shard costs a reroute, or acc's own
#      in-process fallback (the router runs no pipeline), never an error
#      and never a byte.
SOAK_CORPORA=(max gcd swap midpoint reverse)
SOAK_TENANTS=(t0 t1 t2)
(
  rc=0
  for i in $(seq 0 39); do
    r="${RAND[$(( i % 64 ))]}"
    c="${SOAK_CORPORA[$(( (r + i) % 5 ))]}"
    t="${SOAK_TENANTS[$(( (r / 5 + i) % 3 ))]}"
    prio=bulk
    [[ $(( i % 4 )) -eq 0 ]] && prio=interactive
    out="$SOAK/req-$i.out"
    if ! "$SACC" "${ROUTER[@]}" --priority "$prio" --tenant "$t" \
        --trace-id "soak-$i" --corpus "$c" --golden \
        >"$out" 2>>"$SOAK/load.err"; then
      echo "soak request $i ($c, $prio, tenant $t) failed" >>"$SOAK/load.err"
      rc=1
    elif ! (same "$out" "tests/golden/$c.expected" \
        "soak request $i ($c, $prio, tenant $t) diverged from golden") \
        2>>"$SOAK/load.err"; then
      rc=1
    fi
  done
  echo "$rc" >"$SOAK/load.rc"
) &
LOAD_PID=$!

# 11c. The churn: three seeded rounds of SIGKILL + same-port restart,
#      with one accached outage in the middle. Restarts do not wait for
#      the daemon to listen: the seeded gaps alone pace the churn.
for round in 0 1 2; do
  v=$(( ${RAND[$(( 40 + round * 3 ))]} % 3 ))
  g1=$(( 150 + ${RAND[$(( 41 + round * 3 ))]} % 300 ))
  g2=$(( 100 + ${RAND[$(( 42 + round * 3 ))]} % 200 ))
  kill -KILL "${PID[soak$v]}" 2>/dev/null || true
  sleep "$(awk -v m="$g1" 'BEGIN { printf "%.3f", m / 1000 }')"
  shard spawn "soak$v" "${PORT[soak$v]}"
  if [[ "$round" -eq 1 ]]; then
    kill -KILL "${PID[accached]}" 2>/dev/null || true
    sleep 0.1
    spawn accached "$SOAK" "$SOAK_BUILD/tools/accached" \
      --listen "127.0.0.1:${PORT[accached]}" --auth-token-file "$SOAK/token"
  fi
  sleep "$(awk -v m="$g2" 'BEGIN { printf "%.3f", m / 1000 }')"
done
LOAD_JOIN_RC=0
wait "$LOAD_PID" || LOAD_JOIN_RC=$?
LOAD_RC="$(cat "$SOAK/load.rc" 2>/dev/null || echo 1)"
[[ "$LOAD_JOIN_RC" == 0 && "$LOAD_RC" == 0 ]] ||
  fail "soak load lost requests or bytes under churn (AC_SOAK_SEED=$SOAK_SEED replays this schedule):" \
    "$(cat "$SOAK/load.err"; tail -20 "$SOAK/router.log")"
echo "40 soak requests all exit 0 and byte-identical under seeded churn"

# 11d. The shed counter survived into every shard's exposition, and
#      at least one shard carries per-tenant samples (a freshly
#      restarted shard may legitimately have an empty tenant ledger).
TENANT_SEEN=0
for i in 0 1 2; do
  "$SACC" --router "127.0.0.1:${PORT[soak$i]}" --auth-token-file \
    "$SOAK/token" --metrics >"$SOAK/metrics-$i.txt"
  "$ACLINT" metrics "$SOAK/metrics-$i.txt" \
      --require acd_requests_shed_total ||
    fail "soak shard $i metrics lost the shed counter (see findings above)."
  if grep -q '^acd_tenant_admitted_total{.*tenant=' "$SOAK/metrics-$i.txt"; then
    TENANT_SEEN=1
  fi
done
[[ "$TENANT_SEEN" == 1 ]] ||
  fail "no soak shard exposed per-tenant samples."
echo "shed counter present on every shard; tenant ledger populated"

# 11e. Drain: router first, then the shards and the store, all exit 0.
"$SACC" "${ROUTER[@]}" --drain >/dev/null
reap router
stop soak0 soak1 soak2 accached
unset ASAN_OPTIONS
echo "soak fleet drained cleanly (router, three shards, accached)"

pass "tier-1 pass 12: fleet observability (trace merge, federation, actop)"
cmake --build build -j --target acd acc acrouter accached actrace actop \
  aclint table5_scaling >/dev/null
ACTRACE="build/tools/actrace"
ACTOP="build/tools/actop"
OBSF="$ACD_DIR/obsfleet"
mkdir -p "$OBSF"

# 12a. Boot a traced fleet: accached + three shards + the router, every
#      member with --trace so spans accumulate in-process for
#      trace_pull. The router also scrapes the store.
boot_fleet "$OBSF" build "obs0 obs1 obs2" --trace
OTOK="$OBSF/token"
ORPORT=${PORT[router]} OCPORT=${PORT[accached]}

# 12b. One traced request: the router, the serving shard and accached
#      (the shard's remote-tier lookup) all record spans for it, and
#      observability must not move a byte.
"$ACC" "${ROUTER[@]}" --no-fallback --trace-id fleet-trace-1 --corpus gcd \
  --golden >"$OBSF/gcd.traced"
same "$OBSF/gcd.traced" "tests/golden/gcd.expected" \
  "traced gcd diverged from the golden:"

# 12c. actrace: pull every member's fragment (trace_pull drains
#      exactly-once) and merge. The merged trace must lint structurally
#      and hold the fleet invariants: one trace id, spans from >= 3
#      processes, every parent span reference resolving.
"$ACTRACE" --out "$OBSF/merged.json" --auth-token-file "$OTOK" \
    "127.0.0.1:$ORPORT" "127.0.0.1:${PORT[obs0]}" \
    "127.0.0.1:${PORT[obs1]}" "127.0.0.1:${PORT[obs2]}" \
    "127.0.0.1:$OCPORT" 2>"$OBSF/actrace.err" ||
  fail "actrace could not pull + merge the fleet:" \
    "$(cat "$OBSF/actrace.err")"
"$ACLINT" trace "$OBSF/merged.json" --require-span router.request \
    --require-span router.forward --require-span acd.request ||
  fail "merged fleet trace did not lint."
"$ACLINT" fleettrace "$OBSF/merged.json" --min-pids 3 \
    --expect-trace-id fleet-trace-1 ||
  fail "merged trace broke a fleet invariant (one trace id / >=3 pids / parent refs)."
echo "merged fleet trace linted: one trace id across >=3 processes"

# 12d. Federated metrics: one lint-clean exposition from the router,
#      carrying the histograms, winner attribution, shard_id labels,
#      exemplars, and the per-block scrape-age gauge.
"$ACC" "${ROUTER[@]}" --metrics >"$OBSF/federated.txt"
"$ACLINT" metrics "$OBSF/federated.txt" \
    --require acd_request_duration_seconds \
    --require acd_queue_wait_seconds \
    --require acrouter_forward_routed_total \
    --require acrouter_forward_winner_total \
    --require acrouter_requests_completed_total \
    --require acd_scrape_age_seconds ||
  fail "federated metrics exposition did not lint."
for want in 'shard_id="obs0"' 'shard_id="obs1"' 'shard_id="obs2"' \
    ' # {trace_id="'; do
  grep -qF "$want" "$OBSF/federated.txt" ||
    fail "federated metrics are missing $want"
done
# Winner attribution is exactly-once: one completed request, so the
# per-shard winner counters must sum to exactly 1.
WSUM="$(awk '/^acrouter_forward_winner_total\{/ { s += $2 } END { print s + 0 }' \
  "$OBSF/federated.txt")"
[[ "$WSUM" == 1 ]] ||
  fail "winner counters sum to $WSUM for 1 completed request:" \
    "$(grep '^acrouter_forward' "$OBSF/federated.txt")"
echo "federated exposition linted; winner attribution exactly-once"

# 12e. actop: the live inspector renders the fleet payload and dumps it
#      raw with --once --json.
"$ACTOP" --router "127.0.0.1:$ORPORT" --auth-token-file "$OTOK" --once \
  >"$OBSF/actop.txt"
for want in HEALTH "127.0.0.1:${PORT[obs0]}" fleet-trace-1; do
  grep -q "$want" "$OBSF/actop.txt" ||
    fail "actop render is missing '$want':" "$(cat "$OBSF/actop.txt")"
done
"$ACTOP" --router "127.0.0.1:$ORPORT" --auth-token-file "$OTOK" --once \
  --json >"$OBSF/fleet.json"
grep -q '"shard_stats"' "$OBSF/fleet.json" ||
  fail "actop --once --json did not emit the fleet payload."
echo "actop rendered the fleet (slow-request ring keyed by trace id)"

# 12f. Drain the traced fleet cleanly.
"$ACC" "${ROUTER[@]}" --drain >/dev/null
reap router
stop obs0 obs1 obs2 accached
echo "traced fleet drained cleanly"

# 12g. Tracing cost bound on table5_scaling's seL4-scale row (summed
#      AutoCorres CPU, the least noisy column). Live tracing *enabled*
#      must stay within 2% of the disabled run; the disabled hot path
#      (one relaxed atomic per span) is a strict subset of that cost,
#      so the disabled-tracing regression is bounded by the same 2%.
#      Interleaved best-of-two on each side to absorb scheduler noise.
if [[ "$SKIP_PERF" == 1 ]]; then
  echo "(tracing-overhead gate skipped via --skip-perf)"
else
  t5cpu() { # AC_TRACE value ("" = disabled) -> seL4-scale AC-cpu seconds
    local out
    if [[ -n "$1" ]]; then
      out="$(AC_TRACE="$1" ./build/bench/table5_scaling 2>/dev/null)"
    else
      out="$(./build/bench/table5_scaling 2>/dev/null)"
    fi
    awk '/^seL4-scale/ { print $6; exit }' <<<"$out"
  }
  OFF1="$(t5cpu "")"
  ON1="$(t5cpu "$OBSF/t5.trace.json")"
  OFF2="$(t5cpu "")"
  ON2="$(t5cpu "$OBSF/t5.trace.json")"
  [[ -n "$OFF1" && -n "$ON1" && -n "$OFF2" && -n "$ON2" ]] ||
    fail "could not read table5_scaling seL4 CPU (got off='$OFF1'/'$OFF2' on='$ON1'/'$ON2')."
  awk -v a1="$OFF1" -v a2="$OFF2" -v b1="$ON1" -v b2="$ON2" 'BEGIN {
      off = (a1 < a2) ? a1 : a2
      on = (b1 < b2) ? b1 : b2
      exit !(off > 0 && on <= off * 1.02 + 0.05)
    }' ||
    fail "live tracing cost exceeded the 2% bound: disabled ${OFF1}/${OFF2}s vs enabled ${ON1}/${ON2}s."
  echo "tracing cost bounded: disabled ${OFF1}/${OFF2}s, enabled" \
       "${ON1}/${ON2}s (<=2% + 0.05s slack)"
fi

disarm_watchdog
echo "=== tier-1: all passes green ==="
