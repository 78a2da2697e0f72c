#!/bin/sh
# Full verification sweep: a Debug + address/UB-sanitizer build of the whole
# tree, the entire ctest suite under the sanitizers, a schema check of the
# telemetry JSONL the CLI emits, and a ThreadSanitizer pass over the obs
# suites (the observability HTTP server scrapes the lock-free registries
# from a real background thread, and the sampling profiler fires SIGPROF
# into running threads), plus an end-to-end profiled train whose collapsed
# stacks and /profile JSON are schema-checked. Wired to
# `cmake --build build -t check`; also runnable standalone from the repo root:
#
#   sh tools/run_checks.sh [build-dir] [tsan-build-dir]
#
# The sanitized builds live in their own directories (default build-asan/
# and build-tsan/) so they never disturb the primary build.
set -eu

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-asan}"
TSAN_BUILD="${2:-$ROOT/build-tsan}"
PRIMARY_BUILD="${3:-$ROOT/build}"
# One compiler per core: a bare `-j` puts no limit on concurrent compilers,
# and the sanitized tree alone starts enough of them to exhaust a 16 GB host.
JOBS="$(nproc)"

echo "== configure (Debug, -fsanitize=address,undefined) =="
cmake -S "$ROOT" -B "$BUILD" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" \
  > "$BUILD.configure.log" 2>&1 || { cat "$BUILD.configure.log"; exit 1; }

echo "== build =="
cmake --build "$BUILD" -j "$JOBS"

echo "== ctest (sanitized) =="
ctest --test-dir "$BUILD" --output-on-failure -j 4

echo "== telemetry schema check =="
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

# check_json [--lines] FILE: FILE is one JSON document, or with --lines
# every non-empty line is. Stricter than the key-name greps: a bad escape,
# a NaN or a misplaced comma fails here.
check_json() {
  command -v python3 > /dev/null 2>&1 \
      || { echo "note: python3 missing, skipping JSON check of $*"; return 0; }
  python3 -c 'import json, sys
def reject(word): raise ValueError(word + " is not JSON")
text = open(sys.argv[-1]).read()
for doc in text.splitlines() if len(sys.argv) > 2 else [text]:
    if doc.strip(): json.loads(doc, parse_constant=reject)' "$@" \
      || { echo "invalid JSON in $*"; exit 1; }
}

CLI="$BUILD/tools/boltondp"
"$CLI" datagen --dataset protein --scale 0.02 --seed 3 \
    --out "$WORKDIR/train.libsvm" > /dev/null
"$CLI" train --data "$WORKDIR/train.libsvm" --algo scs13 \
    --epsilon 2 --lambda 0.01 --passes 3 --batch 10 \
    --model "$WORKDIR/model.txt" \
    --trace-out "$WORKDIR/trace.jsonl" \
    --ledger-out "$WORKDIR/ledger.jsonl" > /dev/null

# Every ledger line must be one JSON object carrying the full event schema.
awk '
  !/^\{"seq":[0-9]+,/ || !/\}$/ { bad = 1 }
  !/"kind":"(noise_draw|accountant_charge|calibration|fault|checkpoint|resume|budget_reserve|budget_commit|budget_refund|budget_refusal|budget_recover)"/ { bad = 1 }
  !/"epsilon":/ || !/"sensitivity":/ || !/"noise_norm":/ { bad = 1 }
  !/"rng_fingerprint":/ || !/"accepted":(true|false)/ { bad = 1 }
  bad { print "malformed ledger line " NR ": " $0; exit 1 }
  END { if (NR == 0) { print "empty ledger"; exit 1 } }
' "$WORKDIR/ledger.jsonl"

# Every trace line must be one JSON span carrying the full schema: name,
# id, parent link, start time, and duration (the parent/start fields are
# what the span-tree consumers key on).
awk '
  !/^\{"name":"/ || !/\}$/ { bad = 1 }
  !/"id":[0-9]+/ || !/"parent":[0-9]+/ { bad = 1 }
  !/"start_ns":[0-9]+/ || !/"dur_ns":[0-9]+/ { bad = 1 }
  !/"count":[0-9]+/ || !/"thread":[0-9]+/ { bad = 1 }
  bad { print "malformed trace line " NR ": " $0; exit 1 }
  END { if (NR == 0) { print "empty trace"; exit 1 } }
' "$WORKDIR/trace.jsonl"
check_json --lines "$WORKDIR/ledger.jsonl"
check_json --lines "$WORKDIR/trace.jsonl"

# The live scrape surface must serve valid exposition during a train run.
"$CLI" train --data "$WORKDIR/train.libsvm" --algo scs13 \
    --epsilon 2 --lambda 0.01 --passes 3 --batch 10 \
    --model "$WORKDIR/model2.txt" \
    --serve-obs 0 --serve-obs-linger 30000 > "$WORKDIR/obs.log" 2>&1 &
obs_pid=$!
i=0
while [ $i -lt 300 ]; do
  grep -q "obs server lingering" "$WORKDIR/obs.log" && break
  i=$((i + 1)); sleep 0.1
done
port=$(sed -n 's/^obs server listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
    "$WORKDIR/obs.log" | head -1)
"$CLI" scrape --port "$port" --path /metrics \
    | grep -q 'psgd_pass_seconds_bucket{le="+Inf"}'
# The flight-recorder surfaces must serve during the same linger: /logz
# replays the recent-log ring as JSONL (the request-path rate-limited log
# guarantees at least one event by now), /buildz identifies the binary.
"$CLI" scrape --port "$port" --path "/logz?tail=50" > "$WORKDIR/logz.jsonl"
grep -q '"msg":' "$WORKDIR/logz.jsonl"
check_json --lines "$WORKDIR/logz.jsonl"
"$CLI" scrape --port "$port" --path /flightrecorder \
    > "$WORKDIR/flightrecorder.json"
grep -q '"schema":"bolton-flightrecorder-v1"' "$WORKDIR/flightrecorder.json"
check_json "$WORKDIR/flightrecorder.json"
"$CLI" scrape --port "$port" --path /buildz > "$WORKDIR/buildz.json"
grep -q '"git_sha":' "$WORKDIR/buildz.json"
check_json "$WORKDIR/buildz.json"
"$CLI" scrape --port "$port" --path /healthz > "$WORKDIR/healthz.json"
check_json "$WORKDIR/healthz.json"
# The /profile endpoint must serve a valid timed profile of the live
# process (the lingering server thread is what gets sampled here; the
# point is the end-to-end path and the JSON schema, not hot frames).
"$CLI" profile --port "$port" --seconds 1 --hz 251 --format json \
    --out "$WORKDIR/live_profile.json" > /dev/null
grep -q '"schema":"boltondp-profile-v1"' "$WORKDIR/live_profile.json"
grep -q '"frames":\[' "$WORKDIR/live_profile.json"
"$CLI" scrape --port "$port" --path /quitquitquit > /dev/null
wait "$obs_pid"

echo "== profiler pass (collapsed stacks from a profiled train) =="
# A bigger dataset than the schema-check one: the profiled window must be
# long enough to collect samples even on a fast machine (≈0.5s unsanitized
# at 499 Hz ⇒ dozens of samples; the sanitized build only runs longer).
"$CLI" datagen --dataset protein --scale 0.3 --seed 3 \
    --out "$WORKDIR/prof_train.libsvm" > /dev/null
"$CLI" train --data "$WORKDIR/prof_train.libsvm" --algo ours \
    --epsilon 2 --lambda 0.01 --passes 30 --batch 10 \
    --model "$WORKDIR/prof_model.txt" \
    --profile-out "$WORKDIR/prof.collapsed" --profile-hz 499 \
    > "$WORKDIR/prof.log"
grep -q "wrote profile" "$WORKDIR/prof.log"
# Collapsed-stack format: every line is "frame;frame;...;leaf COUNT" —
# the last space-separated token must be the sample count.
awk '
  $NF !~ /^[0-9]+$/ { print "malformed collapsed line " NR ": " $0; exit 1 }
  END { if (NR == 0) { print "empty profile"; exit 1 } }
' "$WORKDIR/prof.collapsed"

echo "== perf-counter pass (hardware counters + Chrome trace export) =="
# A counter-enabled sharded train must produce (a) a Chrome/Perfetto trace
# that is valid JSON with named per-worker tracks and (b) perf_* gauges in
# the metrics dump. Counter availability depends on the environment
# (perf_event_paranoid, container PMU); the degradation contract is that
# everything below works either way, with hardware-specific assertions
# gated LOUDLY on the perf.available gauge.
"$CLI" train --data "$WORKDIR/train.libsvm" --algo ours \
    --epsilon 2 --lambda 0.01 --passes 3 --batch 10 --shards 2 \
    --model "$WORKDIR/perf_model.txt" \
    --metrics --trace-chrome-out "$WORKDIR/trace_chrome.json" \
    > "$WORKDIR/perf.log" 2>&1
grep -q "wrote .* spans as Chrome trace" "$WORKDIR/perf.log"
check_json "$WORKDIR/trace_chrome.json"
grep -q '"name":"thread_name"' "$WORKDIR/trace_chrome.json"
grep -q 'psgd-shard-' "$WORKDIR/trace_chrome.json"
grep -q '"ph":"X"' "$WORKDIR/trace_chrome.json"
# The metrics dump must carry the perf gauge family whatever the tier.
grep -q 'perf\.available' "$WORKDIR/perf.log"
grep -q 'perf\.task_clock_seconds_total' "$WORKDIR/perf.log"
grep -q 'process\.peak_rss_bytes' "$WORKDIR/perf.log"
if grep -Eq '^perf\.available[[:space:]]+1' "$WORKDIR/perf.log"; then
  # Real PMU: the span counters must carry hardware counts.
  grep -q '"counters":{"available":true' "$WORKDIR/trace_chrome.json"
else
  echo "NOTE: hardware counters unavailable here (perf.available=0 —" \
       "perf_event_paranoid or missing PMU); task-clock-only checks ran," \
       "hardware-count assertions skipped"
fi
# Perf without tracing (the --metrics-only path): no span is recorded, but
# every span still reads its thread's counters, so the process on-CPU
# total behind the gauge must be nonzero, not merely present.
"$CLI" train --data "$WORKDIR/train.libsvm" --algo ours \
    --epsilon 2 --lambda 0.01 --passes 3 --batch 10 \
    --model "$WORKDIR/metrics_only_model.txt" --metrics \
    > "$WORKDIR/metrics_only.log" 2>&1
awk '
  $1 == "perf.task_clock_seconds_total" && $2 + 0 > 0 { ok = 1 }
  END { if (!ok) { print "perf.task_clock_seconds_total is zero or missing" \
                         " in a --metrics-only train"; exit 1 } }
' "$WORKDIR/metrics_only.log"

echo "== kernel-dispatch pass (BOLTON_SIMD tiers release identical models) =="
# The SIMD bit-identity contract, end to end: the same sharded train forced
# onto scalar, SSE2, and AVX2 gradient kernels must release byte-identical
# model files. An unsupported tier clamps to the best available with a
# warning (never fails), so this passes on any host — on a machine without
# AVX2 the avx2 leg simply re-runs the best supported tier.
"$CLI" version | grep -Eq 'scalar|sse2|avx2|avx512' \
    || { echo "version line does not name the SIMD tier"; exit 1; }
for tier in scalar sse2 avx2; do
  BOLTON_SIMD="$tier" "$CLI" train --data "$WORKDIR/train.libsvm" \
      --algo ours --epsilon 2 --lambda 0.01 --passes 3 --batch 10 \
      --shards 2 --model "$WORKDIR/model_simd_$tier.txt" > /dev/null
done
cmp "$WORKDIR/model_simd_scalar.txt" "$WORKDIR/model_simd_sse2.txt" \
    || { echo "sse2 kernels released a different model"; exit 1; }
cmp "$WORKDIR/model_simd_scalar.txt" "$WORKDIR/model_simd_avx2.txt" \
    || { echo "avx2 kernels released a different model"; exit 1; }

echo "== fault-injection pass (failpoints + checkpoint/resume, sanitized) =="
# An armed failpoint must abort the run with a clean injected error while
# leaving a resumable checkpoint behind. --ledger-out enables the ledger so
# the interrupted run's calibration survives into the checkpoint snapshot
# (the file itself is never written on the failing run).
CKPT="$WORKDIR/ckpt"
mkdir -p "$CKPT"
if BOLTON_FAILPOINTS="psgd.pass:error@3" "$CLI" train \
    --data "$WORKDIR/train.libsvm" --algo ours \
    --epsilon 2 --lambda 0.01 --passes 5 --batch 10 \
    --model "$WORKDIR/fault_model.txt" \
    --checkpoint-dir "$CKPT" --checkpoint-every 1 \
    --ledger-out "$WORKDIR/fault_ledger.jsonl" \
    > "$WORKDIR/fault.log" 2>&1; then
  echo "train with armed failpoint unexpectedly succeeded"; exit 1
fi
grep -q "failpoint 'psgd.pass'" "$WORKDIR/fault.log"
[ -f "$CKPT/bolton.ckpt" ] || { echo "no checkpoint left behind"; exit 1; }
# Resume must finish the run and carry the whole fault-tolerance trail:
# the restored calibration, checkpoint + resume markers, and exactly one
# noise draw for the entire (interrupted + resumed) release.
"$CLI" train --data "$WORKDIR/train.libsvm" --algo ours \
    --epsilon 2 --lambda 0.01 --passes 5 --batch 10 \
    --model "$WORKDIR/fault_model.txt" \
    --checkpoint-dir "$CKPT" --resume \
    --ledger-out "$WORKDIR/fault_ledger.jsonl" > /dev/null
grep -q '"kind":"resume"' "$WORKDIR/fault_ledger.jsonl"
grep -q '"kind":"checkpoint"' "$WORKDIR/fault_ledger.jsonl"
[ "$(grep -c '"kind":"calibration"' "$WORKDIR/fault_ledger.jsonl")" -eq 1 ]
[ "$(grep -c '"kind":"noise_draw"' "$WORKDIR/fault_ledger.jsonl")" -eq 1 ]
[ ! -f "$CKPT/bolton.ckpt" ] || { echo "checkpoint not cleaned up"; exit 1; }

echo "== serve chaos pass (crash between charge and persist, sanitized) =="
# The exactly-once-spend crash test the budget protocol exists for: a panic
# failpoint kills the daemon at the commit persist — after the in-memory
# charge, before the disk write, the worst possible instant. The state file
# still shows the write-ahead hold, so the restarted daemon must promote it
# to spend (once), leave the tenant charged, and say so on its ledger.
SERVEDIR="$WORKDIR/serve_state"
mkdir -p "$SERVEDIR"
BOLTON_FAILPOINTS="serve.budget_commit:panic@1" "$CLI" serve --port 0 \
    --state-dir "$SERVEDIR" --budget-epsilon 1.0 --budget-delta 1e-5 \
    > "$WORKDIR/serve_crash.log" 2>&1 &
serve_pid=$!
i=0
serve_port=""
while [ $i -lt 300 ]; do
  serve_port=$(sed -n 's/^serve listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$WORKDIR/serve_crash.log" | head -1)
  [ -n "$serve_port" ] && break
  i=$((i + 1)); sleep 0.1
done
[ -n "$serve_port" ] || { cat "$WORKDIR/serve_crash.log"; exit 1; }
# The train itself dies with the daemon; only the crash matters here.
"$CLI" call --port "$serve_port" --path /v1/train \
    --body '{"tenant":"acme","algorithm":"bolton","epsilon":0.3,"delta":1e-6,"passes":1,"scale":0.02}' \
    > /dev/null 2>&1 || true
if wait "$serve_pid" 2> /dev/null; then
  echo "serve survived an armed commit panic"; exit 1
fi
# Restart on the same state: the pending hold must promote to spend.
"$CLI" serve --port 0 --state-dir "$SERVEDIR" \
    --budget-epsilon 1.0 --budget-delta 1e-5 \
    --ledger-out "$WORKDIR/serve_recover.ledger.jsonl" \
    > "$WORKDIR/serve_recover.log" 2>&1 &
serve_pid=$!
i=0
serve_port=""
while [ $i -lt 300 ]; do
  serve_port=$(sed -n 's/^serve listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$WORKDIR/serve_recover.log" | head -1)
  [ -n "$serve_port" ] && break
  i=$((i + 1)); sleep 0.1
done
[ -n "$serve_port" ] || { cat "$WORKDIR/serve_recover.log"; exit 1; }
"$CLI" call --port "$serve_port" --method GET \
    --path "/v1/budget?tenant=acme" > "$WORKDIR/serve_recover.budget.json"
grep -q '"spent_epsilon":0.3' "$WORKDIR/serve_recover.budget.json" \
    || { echo "crash forgot the charged spend"; \
         cat "$WORKDIR/serve_recover.budget.json"; exit 1; }
grep -q '"recovered":1' "$WORKDIR/serve_recover.budget.json" \
    || { echo "hold was not promoted exactly once"; \
         cat "$WORKDIR/serve_recover.budget.json"; exit 1; }
grep -q "promoted 1 pending budget hold" "$WORKDIR/serve_recover.log"
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "recovered serve did not drain"; exit 1; }
grep '"kind":"budget_recover"' "$WORKDIR/serve_recover.ledger.jsonl" \
    | grep -q '"tenant":"acme"' \
    || { echo "no tenant-keyed budget_recover ledger event"; exit 1; }

echo "== postmortem pass (failpoint-panic'd train leaves a crash report) =="
# A train killed mid-run by an armed panic failpoint must leave a raw crash
# dump that `boltondp postmortem finalize` turns into a schema-valid
# bolton-postmortem-v1 report: symbolized backtrace, a non-empty recent-log
# ring, build identity, and the armed failpoint spec.
PM="$WORKDIR/pm"
PMCKPT="$WORKDIR/pm_ckpt"
mkdir -p "$PMCKPT"
if BOLTON_FAILPOINTS="psgd.pass:panic@2" "$CLI" train \
    --data "$WORKDIR/train.libsvm" --algo ours \
    --epsilon 2 --lambda 0.01 --passes 5 --batch 10 \
    --model "$WORKDIR/pm_model.txt" \
    --checkpoint-dir "$PMCKPT" --checkpoint-every 1 \
    --postmortem-dir "$PM" \
    > "$WORKDIR/pm.log" 2>&1; then
  echo "train with armed panic failpoint unexpectedly survived"; exit 1
fi
"$CLI" postmortem finalize --dir "$PM" > /dev/null
[ -f "$PM/postmortem.json" ] || { echo "no postmortem.json"; exit 1; }
check_json "$PM/postmortem.json"
grep -q '"schema":"bolton-postmortem-v1"' "$PM/postmortem.json"
grep -q '"backtrace":\[' "$PM/postmortem.json"
grep -q '"resolved":true' "$PM/postmortem.json"
grep -q '"recent_logs":\[{' "$PM/postmortem.json"
grep -q '"git_sha":"' "$PM/postmortem.json"
grep -q '"failpoints":"psgd.pass:panic@2"' "$PM/postmortem.json"
# Finalizing twice is safe; a crash-free armed run leaves nothing behind.
"$CLI" postmortem finalize --dir "$PM" > /dev/null

echo "== ThreadSanitizer pass (obs server, registries, pool, executor) =="
cmake -S "$ROOT" -B "$TSAN_BUILD" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
  > "$TSAN_BUILD.configure.log" 2>&1 || { cat "$TSAN_BUILD.configure.log"; exit 1; }
cmake --build "$TSAN_BUILD" -j "$JOBS" \
  -t obs_metrics_test -t obs_ledger_test -t obs_export_test -t obs_http_test \
  -t profiler_test -t perf_counters_test -t thread_pool_test \
  -t parallel_executor_test -t solver_test -t failpoint_test \
  -t checkpoint_test -t logging_test -t postmortem_test \
  -t serve_budget_test -t serve_chaos_test -t serve_daemon_test
ctest --test-dir "$TSAN_BUILD" --output-on-failure \
  -R '^(obs_(metrics|ledger|export|http)|profiler|perf_counters|thread_pool|parallel_executor|solver|failpoint|checkpoint|logging|postmortem|serve_(budget|chaos|daemon))_test$'

# The checks below run the primary, unsanitized build: the bench baselines
# were captured without sanitizers, and the prefetch check reads the
# optimized object code.
cmake -S "$ROOT" -B "$PRIMARY_BUILD" > "$WORKDIR/primary.configure.log" 2>&1 \
    || { cat "$WORKDIR/primary.configure.log"; exit 1; }

echo "== prefetch check (PSGD's dense batch loop keeps its row prefetch) =="
# RunLoop<DenseRows> (optim/psgd.cc) prefetches the rows its permutation
# reads next. Released models are the same with or without it, so no test
# can see a compiler drop it; only speed is lost. The source issues three
# prefetches: both lines an Example may span, and one per feature line in
# a loop of its own. GCC 12 at -O2 deletes a __builtin_prefetch whose loop
# does nothing else, which leaves two.
cmake --build "$PRIMARY_BUILD" -j "$JOBS" -t bolton_optim
if [ "$(uname -m)" != "x86_64" ]; then
  echo "skipped (prefetcht0 is x86-64; this host is $(uname -m))"
elif ! command -v objdump > /dev/null 2>&1; then
  echo "skipped (objdump missing)"
else
  prefetches=$(objdump -d -C \
      "$PRIMARY_BUILD/src/optim/CMakeFiles/bolton_optim.dir/psgd.cc.o" \
      | awk '/^[0-9a-f]+ </ { inside = /RunLoop<[^>]*DenseRows>/ }
             inside && /prefetcht0/ { n++ }
             END { print n + 0 }')
  echo "RunLoop<DenseRows> issues $prefetches prefetcht0"
  [ "$prefetches" -ge 3 ] \
      || { echo "RunLoop<DenseRows> lost its row prefetch (want >= 3)"; exit 1; }
fi

echo "== bench regression gate (parallel scaling vs BENCH_PR18.json) =="
# Gate only when python3 and the baseline are available (the baseline rows
# were captured on the reference machine; the generous threshold absorbs
# machine-to-machine noise while still catching order-of-magnitude
# regressions in the sharded executor). BENCH_PR18 carries an explicit
# serial row per m, at m = 1e6 and 2e6, where every row runs >= 50 ms.
if command -v python3 > /dev/null 2>&1 && [ -f "$ROOT/BENCH_PR18.json" ]; then
  cmake --build "$PRIMARY_BUILD" -j "$JOBS" -t bench_parallel_scaling
  "$PRIMARY_BUILD/bench/bench_parallel_scaling" \
      --json-out "$WORKDIR/parallel_scaling.json" > /dev/null
  # Every row must carry an explicit counters object — hardware counts or
  # a declared {"available":false,...}; silence is the one invalid state.
  python3 - "$WORKDIR/parallel_scaling.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rows = doc["results"]
assert rows, "no bench rows"
for row in rows:
    counters = row.get("counters")
    assert isinstance(counters, dict), f"row missing counters: {row['name']}"
    assert "available" in counters, f"counters missing 'available': {row['name']}"
    assert "task_clock_ns" in counters, f"counters missing task_clock_ns: {row['name']}"
    if counters["available"]:
        for field in ("cycles", "instructions", "ipc", "cache_miss_rate"):
            assert field in counters, f"counters missing {field}: {row['name']}"
print(f"checked counters on {len(rows)} bench rows")
EOF
  python3 "$ROOT/tools/benchdiff.py" diff \
      "$ROOT/BENCH_PR18.json" "$WORKDIR/parallel_scaling.json" \
      --threshold 0.75
else
  echo "skipped (python3 or BENCH_PR18.json missing)"
fi

echo "== bench regression gate (serve throughput vs BENCH_PR10.json) =="
# Same contract as above for the serve daemon: catch order-of-magnitude
# request-rate collapses, absorb host-to-host (and run-to-run; the daemon
# numbers are the noisiest in the suite) variance.
if command -v python3 > /dev/null 2>&1 && [ -f "$ROOT/BENCH_PR10.json" ]; then
  cmake --build "$PRIMARY_BUILD" -j "$JOBS" -t bench_serve_throughput
  "$PRIMARY_BUILD/bench/bench_serve_throughput" \
      --json-out "$WORKDIR/serve_throughput.json" > /dev/null 2>&1
  python3 "$ROOT/tools/benchdiff.py" diff \
      "$ROOT/BENCH_PR10.json" "$WORKDIR/serve_throughput.json" \
      --threshold 0.75
else
  echo "skipped (python3 or BENCH_PR10.json missing)"
fi

echo "== sparse PSGD gate (sparse rows >= 4x dense rows at d=10000) =="
# Sparse rows exist in RunPsgd's loop for one property: on ~1%-density data
# the O(nnz) gradient and update beat the O(d) ones. Both rows come from the
# same run of the unsanitized build, so the gate needs no baseline file.
if command -v python3 > /dev/null 2>&1; then
  cmake --build "$PRIMARY_BUILD" -j "$JOBS" -t bench_ablation_sparse
  "$PRIMARY_BUILD/bench/bench_ablation_sparse" --benchmark_format=json \
      --benchmark_filter='BM_(Sparse|Dense)Psgd/10000' \
      > "$WORKDIR/ablation_sparse.json"
  python3 - "$WORKDIR/ablation_sparse.json" <<'EOF'
import json, sys
rows = {b["name"].split("/min_time")[0]: b
        for b in json.load(open(sys.argv[1]))["benchmarks"]}
dense, sparse = rows["BM_DensePsgd/10000"], rows["BM_SparsePsgd/10000"]
assert dense["time_unit"] == sparse["time_unit"], "mixed time units"
ratio = dense["real_time"] / sparse["real_time"]
print(f"dense {dense['real_time']:.3g} {dense['time_unit']}, sparse "
      f"{sparse['real_time']:.3g} {sparse['time_unit']}: {ratio:.1f}x")
assert ratio >= 4.0, f"sparse PSGD only {ratio:.2f}x faster than dense (gate: 4x)"
EOF
else
  echo "skipped (python3 missing)"
fi

echo "all checks passed"
