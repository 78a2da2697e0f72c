#!/bin/sh
# End-to-end smoke test of the boltondp CLI: datagen -> train -> evaluate,
# exercising the LIBSVM round trip, model persistence, and every
# algorithm's CLI path. Invoked by ctest with the CLI binary path as $1.
set -eu

CLI="$1"
WORKDIR="$(mktemp -d)"
# Every process the script starts in the background (daemons, lingering and
# killed trains) is listed here, so a failed assertion inside a section
# does not leave it running.
BG_PIDS=""
trap 'for pid in $BG_PIDS; do kill -KILL "$pid" 2> /dev/null || true; done
      rm -rf "$WORKDIR"' EXIT

# Generate a small dataset pair.
"$CLI" datagen --dataset protein --scale 0.01 --seed 3 \
    --out "$WORKDIR/train.libsvm" > "$WORKDIR/datagen.log"
test -s "$WORKDIR/train.libsvm"
test -s "$WORKDIR/train.libsvm.test"

# Train with each algorithm and evaluate on the held-out file.
for algo in noiseless ours scs13; do
  "$CLI" train --data "$WORKDIR/train.libsvm" --algo "$algo" \
      --epsilon 4 --lambda 0.01 --passes 5 --batch 10 \
      --model "$WORKDIR/$algo.model" > "$WORKDIR/$algo.train.log"
  test -s "$WORKDIR/$algo.model"
  "$CLI" evaluate --data "$WORKDIR/train.libsvm.test" \
      --model "$WORKDIR/$algo.model" > "$WORKDIR/$algo.eval.log"
  grep -q "acc=" "$WORKDIR/$algo.eval.log"
done

# BST14 needs delta > 0.
"$CLI" train --data "$WORKDIR/train.libsvm" --algo bst14 \
    --epsilon 0.5 --delta 1e-6 --lambda 0.01 --passes 2 --batch 10 \
    --model "$WORKDIR/bst14.model" > "$WORKDIR/bst14.train.log"
test -s "$WORKDIR/bst14.model"

# The noiseless model must classify the held-out set well.
acc=$(grep -o 'acc=[0-9.]*' "$WORKDIR/noiseless.eval.log" | head -1 | cut -d= -f2)
ok=$(awk -v a="$acc" 'BEGIN { print (a > 0.8) ? 1 : 0 }')
if [ "$ok" != "1" ]; then
  echo "noiseless CLI accuracy too low: $acc" >&2
  exit 1
fi

# An edited model is refused, not scored: evaluate names the checksum on
# stderr and exits 1 (an ordinary failure, not an abort).
sed '4s/$/1/' "$WORKDIR/noiseless.model" > "$WORKDIR/edited.model"
status=0
"$CLI" evaluate --data "$WORKDIR/train.libsvm.test" \
    --model "$WORKDIR/edited.model" > /dev/null 2> "$WORKDIR/edited.err" ||
  status=$?
if [ "$status" != "1" ]; then
  echo "evaluate on an edited model exited $status, expected 1" >&2
  exit 1
fi
grep -q "checksum mismatch" "$WORKDIR/edited.err"

# Telemetry: --metrics dumps counters, --trace-out/--ledger-out write JSONL.
"$CLI" train --data "$WORKDIR/train.libsvm" --algo ours \
    --epsilon 4 --lambda 0.01 --passes 5 --batch 10 \
    --model "$WORKDIR/telemetry.model" --metrics \
    --trace-out "$WORKDIR/trace.jsonl" --ledger-out "$WORKDIR/ledger.jsonl" \
    > "$WORKDIR/telemetry.train.log"

# The metrics dump must report the work that actually happened.
gradients=$(awk '$1 == "gradient_evaluations" { print $2 }' \
    "$WORKDIR/telemetry.train.log")
if [ -z "$gradients" ] || [ "$gradients" -eq 0 ]; then
  echo "expected nonzero gradient_evaluations, got '$gradients'" >&2
  exit 1
fi

# The trace must contain timed per-pass spans.
test -s "$WORKDIR/trace.jsonl"
grep -q '"name":"psgd.pass"' "$WORKDIR/trace.jsonl"
grep -q '"dur_ns":' "$WORKDIR/trace.jsonl"

# The ledger must record the output-perturbation draw with its mechanism.
test -s "$WORKDIR/ledger.jsonl"
grep -q '"kind":"noise_draw"' "$WORKDIR/ledger.jsonl"
grep -q '"mechanism":"laplace"' "$WORKDIR/ledger.jsonl"
grep -q '"rng_fingerprint":' "$WORKDIR/ledger.jsonl"

# A train that fails after its telemetry session started still writes its
# exports: the trace holds the spans of the pass that ran, and the dump the
# work done before the failure.
status=0
BOLTON_FAILPOINTS="psgd.pass:error@2" "$CLI" train --dataset protein \
    --scale 0.2 --algo ours --lambda 0.01 --model "$WORKDIR/failed.model" \
    --trace-out "$WORKDIR/failed.trace.jsonl" --metrics \
    > "$WORKDIR/failed.train.log" 2> "$WORKDIR/failed.train.err" || status=$?
if [ "$status" != "1" ]; then
  echo "a train failed by psgd.pass:error@2 exited $status, expected 1" >&2
  exit 1
fi
grep -qx "train: io-error: failpoint 'psgd.pass': injected error (hit 2)" \
    "$WORKDIR/failed.train.err"
grep -q '"name":"psgd.pass"' "$WORKDIR/failed.trace.jsonl"
grep -q '^gradient_evaluations ' "$WORKDIR/failed.train.log"
test ! -e "$WORKDIR/failed.model"

# Live observability: train with --serve-obs on an ephemeral port, scrape
# /metrics and /healthz while the server lingers, then tell it to quit.
"$CLI" train --data "$WORKDIR/train.libsvm" --algo ours \
    --epsilon 4 --lambda 0.01 --passes 5 --batch 10 \
    --model "$WORKDIR/obs.model" \
    --serve-obs 0 --serve-obs-linger 30000 \
    > "$WORKDIR/obs.train.log" 2>&1 &
obs_pid=$!
BG_PIDS="$BG_PIDS $!"

# The CLI prints the bound port as its first line; poll for it.
port=""
i=0
while [ $i -lt 100 ]; do
  port=$(sed -n 's/^obs server listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      "$WORKDIR/obs.train.log" | head -1)
  [ -n "$port" ] && break
  i=$((i + 1))
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "obs server port line never appeared" >&2
  cat "$WORKDIR/obs.train.log" >&2
  exit 1
fi

# The /metrics assertions below want the end-of-run counter flush, so wait
# for the linger line that follows training before scraping.
i=0
while [ $i -lt 300 ]; do
  grep -q "obs server lingering" "$WORKDIR/obs.train.log" && break
  i=$((i + 1))
  sleep 0.1
done
if ! grep -q "obs server lingering" "$WORKDIR/obs.train.log"; then
  echo "train run never reached the obs linger phase" >&2
  cat "$WORKDIR/obs.train.log" >&2
  exit 1
fi

# Scrape with the CLI's raw-socket client (no curl dependency). The linger
# keeps the server up even after the short training run finishes.
"$CLI" scrape --port "$port" --path /metrics > "$WORKDIR/metrics.prom"
grep -q '^# TYPE gradient_evaluations counter$' "$WORKDIR/metrics.prom"
grep -q '^gradient_evaluations [1-9]' "$WORKDIR/metrics.prom"
grep -q 'psgd_pass_seconds_bucket{le="+Inf"}' "$WORKDIR/metrics.prom"
grep -q '^psgd_pass_seconds_count ' "$WORKDIR/metrics.prom"

"$CLI" scrape --port "$port" --path /healthz > "$WORKDIR/healthz.json"
grep -q '"status":"ok"' "$WORKDIR/healthz.json"
grep -q '"noise_draws":' "$WORKDIR/healthz.json"

"$CLI" scrape --port "$port" --path /quitquitquit > /dev/null
if ! wait "$obs_pid"; then
  echo "train --serve-obs run failed" >&2
  cat "$WORKDIR/obs.train.log" >&2
  exit 1
fi

# Crash-safety: SIGKILL a checkpointed train mid-run, resume it, and demand
# the final model match the uninterrupted run ($WORKDIR/ours.model above
# used the same data, flags, and default seed) byte for byte. Both halves
# append to one --ledger-out, which must hold exactly one calibration (the
# killed half's) and one noise draw (the resumed half's).
ckptdir="$WORKDIR/ckpt"
mkdir -p "$ckptdir"
# The delay failpoint stretches every pass so the kill lands mid-train; it
# never changes what the run computes.
BOLTON_FAILPOINTS="psgd.pass:delay@750" "$CLI" train \
    --data "$WORKDIR/train.libsvm" --algo ours \
    --epsilon 4 --lambda 0.01 --passes 5 --batch 10 \
    --model "$WORKDIR/resumed.model" \
    --checkpoint-dir "$ckptdir" --checkpoint-every 1 \
    --ledger-out "$WORKDIR/resume.ledger.jsonl" \
    > "$WORKDIR/killed.train.log" 2>&1 &
train_pid=$!
BG_PIDS="$BG_PIDS $!"
i=0
while [ $i -lt 300 ]; do
  [ -f "$ckptdir/bolton.ckpt" ] && break
  i=$((i + 1))
  sleep 0.05
done
if [ ! -f "$ckptdir/bolton.ckpt" ]; then
  echo "no checkpoint appeared before the kill window closed" >&2
  cat "$WORKDIR/killed.train.log" >&2
  exit 1
fi
kill -9 "$train_pid" 2> /dev/null || true
wait "$train_pid" 2> /dev/null || true
if [ ! -f "$ckptdir/bolton.ckpt" ]; then
  echo "checkpoint vanished after SIGKILL" >&2
  exit 1
fi

"$CLI" train --data "$WORKDIR/train.libsvm" --algo ours \
    --epsilon 4 --lambda 0.01 --passes 5 --batch 10 \
    --model "$WORKDIR/resumed.model" \
    --checkpoint-dir "$ckptdir" --resume \
    --ledger-out "$WORKDIR/resume.ledger.jsonl" \
    > "$WORKDIR/resume.train.log"
if ! cmp -s "$WORKDIR/ours.model" "$WORKDIR/resumed.model"; then
  echo "resumed model differs from the uninterrupted run" >&2
  exit 1
fi
for kind in calibration noise_draw; do
  count=$(grep -c "\"kind\":\"$kind\"" "$WORKDIR/resume.ledger.jsonl" || true)
  if [ "$count" != "1" ]; then
    echo "expected exactly 1 $kind across kill+resume, got $count" >&2
    cat "$WORKDIR/resume.ledger.jsonl" >&2
    exit 1
  fi
done
grep -q '"kind":"checkpoint"' "$WORKDIR/resume.ledger.jsonl"
grep -q '"kind":"resume"' "$WORKDIR/resume.ledger.jsonl"
if [ -f "$ckptdir/bolton.ckpt" ]; then
  echo "checkpoint left behind after a successful resume" >&2
  exit 1
fi

# Version prints the stamped build identity on one line.
"$CLI" version > "$WORKDIR/version.log"
grep -q "^boltondp " "$WORKDIR/version.log"

# A train with --log-jsonl mirrors log events as one-object-per-line JSON
# (the checkpoint-save info logs guarantee at least one event).
mkdir -p "$WORKDIR/jsonl_ckpt"
"$CLI" train --data "$WORKDIR/train.libsvm" --algo noiseless \
    --epsilon 4 --lambda 0.01 --passes 2 --batch 10 \
    --model "$WORKDIR/jsonl.model" \
    --checkpoint-dir "$WORKDIR/jsonl_ckpt" \
    --log-jsonl "$WORKDIR/train.log.jsonl" > /dev/null
test -s "$WORKDIR/train.log.jsonl"
grep -q '"mono_ns":' "$WORKDIR/train.log.jsonl"
grep -q '"msg":"' "$WORKDIR/train.log.jsonl"

# Unknown subcommands and flags fail loudly.
if "$CLI" frobnicate > /dev/null 2>&1; then
  echo "unknown subcommand should fail" >&2
  exit 1
fi

# A refused input, flag or state dir is an ordinary failure: the verb prints
# "<verb>: <status>" to stderr and exits 1 (an abort would exit 134). The
# serve cases run under a timeout, so a daemon that wrongly starts fails
# the test instead of hanging it.
expect_refusal() {
  needle="$1"
  shift
  status=0
  "$@" > "$WORKDIR/refusal.out" 2> "$WORKDIR/refusal.err" || status=$?
  if [ "$status" != "1" ] || ! grep -q "$needle" "$WORKDIR/refusal.err"; then
    echo "'$*' exited $status, expected 1 and '$needle' on stderr:" >&2
    cat "$WORKDIR/refusal.err" >&2
    exit 1
  fi
}
expect_refusal "^train: io-error: cannot open $WORKDIR/missing.libsvm" \
    "$CLI" train --data "$WORKDIR/missing.libsvm"
expect_refusal "^train: invalid-argument: unknown flag --no-such-flag" \
    "$CLI" train --no-such-flag
# --loss takes logistic or huber only; the daemon's spelling "huber_svm"
# is refused, not trained as logistic.
expect_refusal "^train: invalid-argument: unknown loss 'huber_svm'" \
    "$CLI" train --data "$WORKDIR/train.libsvm" --loss huber_svm \
    --model "$WORKDIR/huber_svm.model"
test ! -e "$WORKDIR/huber_svm.model"
# A binary model is calibrated for labels of magnitude 1: a file that mixes
# -1/+1 with other labels is refused, not trained with too little noise.
printf -- '-1 1:0.5\n1 2:0.5\n2 1:0.25\n' > "$WORKDIR/labels.libsvm"
expect_refusal "^train: invalid-argument: line 3: label 2 fits neither" \
    "$CLI" train --data "$WORKDIR/labels.libsvm" --algo ours --lambda 0.01 \
    --batch 1 --model "$WORKDIR/labels.model"
test ! -e "$WORKDIR/labels.model"
# One index of 10^12 would size every dense row at 8 TB.
printf '1 1:0.5\n-1 1000000000000:1\n' > "$WORKDIR/wide.libsvm"
expect_refusal "^train: out-of-range: line 2: index 1000000000000" \
    "$CLI" train --data "$WORKDIR/wide.libsvm" --model "$WORKDIR/wide.model"
test ! -e "$WORKDIR/wide.model"
expect_refusal "^call: invalid-argument: unknown flag --bogus" \
    "$CLI" call --bogus
expect_refusal "^scrape: invalid-argument: unknown flag --bogus" \
    "$CLI" scrape --bogus
mkdir -p "$WORKDIR/v1_state"
printf 'bolton-budget v1\nnext_hold 1\naccounts 0\nholds 0\nchecksum 0000000000000000\n' \
    > "$WORKDIR/v1_state/bolton.budget"
expect_refusal "^serve: invalid-argument: .*found 'bolton-budget v1'" \
    timeout 20 "$CLI" serve --port 0 --state-dir "$WORKDIR/v1_state"
expect_refusal "^serve: io-error: .*$WORKDIR/no_such_dir/bolton.budget" \
    timeout 20 "$CLI" serve --port 0 --state-dir "$WORKDIR/no_such_dir"
# A non-finite ε or a NaN δ is refused before anything is calibrated.
for flags in "--epsilon nan" "--epsilon inf" \
    "--lambda 0.01 --epsilon 0.5 --delta nan"; do
  # $flags is left unquoted: it holds several flags.
  expect_refusal "^train: invalid-argument: " \
      "$CLI" train --dataset protein --scale 0.01 $flags \
      --model "$WORKDIR/nonfinite.model"
done
expect_refusal "^serve: invalid-argument: tenant default budget: epsilon" \
    timeout 20 "$CLI" serve --port 0 --budget-epsilon nan
# An unwritable --ledger-out is refused before any work: train writes no
# model, and serve never listens.
expect_refusal "^train: io-error: cannot open ledger file $WORKDIR/no_such_dir/" \
    "$CLI" train --data "$WORKDIR/train.libsvm" --algo ours \
    --model "$WORKDIR/unledgered.model" \
    --ledger-out "$WORKDIR/no_such_dir/ledger.jsonl"
test ! -e "$WORKDIR/unledgered.model"
expect_refusal "^serve: io-error: cannot open ledger file $WORKDIR/no_such_dir/" \
    timeout 20 "$CLI" serve --port 0 \
    --ledger-out "$WORKDIR/no_such_dir/ledger.jsonl"
if grep -q "listening" "$WORKDIR/refusal.out"; then
  echo "serve listened before refusing its --ledger-out" >&2
  exit 1
fi

# A LIBSVM line that repeats an index is refused, naming the line.
printf '1 1:0.5 2:0.25\n-1 3:0.5 3:0.7\n' > "$WORKDIR/dup.libsvm"
if "$CLI" train --data "$WORKDIR/dup.libsvm" --algo noiseless \
    --model "$WORKDIR/dup.model" > /dev/null 2> "$WORKDIR/dup.err"; then
  echo "train accepted a duplicate LIBSVM index" >&2
  exit 1
fi
grep -q "line 2: duplicate index 3" "$WORKDIR/dup.err" \
    || { echo "duplicate-index error does not name the line" >&2; \
         cat "$WORKDIR/dup.err" >&2; exit 1; }

# listening_port LOG: waits up to 10 s for serve's listening line in LOG and
# prints its port (nothing if it never appears).
listening_port() {
  port=""
  i=0
  while [ $i -lt 100 ]; do
    port=$(sed -n 's/^serve listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
        "$1" | head -1)
    [ -n "$port" ] && break
    i=$((i + 1))
    sleep 0.1
  done
  echo "$port"
}

# --- serve: the multi-tenant daemon end to end ------------------------------
# Start on an ephemeral port with a persistent budget store, train within
# budget, get refused beyond it, drain on SIGTERM, then restart and check
# the spend survived the process. Every training pass sleeps 200ms, so a
# call can time out before its train ends on any machine.
servedir="$WORKDIR/serve_state"
mkdir -p "$servedir"
BOLTON_FAILPOINTS="psgd.pass:delay@200" "$CLI" serve --port 0 \
    --state-dir "$servedir" --budget-epsilon 1.0 --budget-delta 1e-5 \
    --ledger-out "$WORKDIR/serve.ledger.jsonl" \
    > "$WORKDIR/serve.log" 2>&1 &
serve_pid=$!
BG_PIDS="$BG_PIDS $!"
serve_port=$(listening_port "$WORKDIR/serve.log")
if [ -z "$serve_port" ]; then
  echo "serve port line never appeared" >&2
  cat "$WORKDIR/serve.log" >&2
  exit 1
fi

# A private train inside the budget succeeds and names its model.
"$CLI" call --port "$serve_port" --path /v1/train \
    --body '{"tenant":"acme","algorithm":"bolton","epsilon":0.6,"delta":1e-6,"passes":2,"scale":0.02}' \
    > "$WORKDIR/serve.train.json"
grep -q '"model_id":"acme-1"' "$WORKDIR/serve.train.json"

# The same charge again overdraws the ε=1 budget: 429 + structured body,
# and the call subcommand's exit code reflects the refusal.
if "$CLI" call --port "$serve_port" --path /v1/train \
    --body '{"tenant":"acme","algorithm":"bolton","epsilon":0.6,"delta":1e-6,"passes":2,"scale":0.02}' \
    > "$WORKDIR/serve.refused.json" 2> /dev/null; then
  echo "over-budget train should have been refused" >&2
  exit 1
fi
grep -q '"error":"budget_exhausted"' "$WORKDIR/serve.refused.json"
grep -q '"tenant":"acme"' "$WORKDIR/serve.refused.json"

# The budget endpoint shows the commit and the refusal.
"$CLI" call --port "$serve_port" --method GET \
    --path "/v1/budget?tenant=acme" > "$WORKDIR/serve.budget.json"
grep -q '"spent_epsilon":0.6' "$WORKDIR/serve.budget.json"
grep -q '"commits":1' "$WORKDIR/serve.budget.json"
grep -q '"refusals":1' "$WORKDIR/serve.budget.json"

# A call whose --timeout-ms is shorter than its train fails, and is not sent
# again (which would train and charge twice).
if "$CLI" call --port "$serve_port" --timeout-ms 100 \
    --body '{"tenant":"slow","epsilon":0.5,"passes":1,"scale":0.02}' \
    > /dev/null 2>&1; then
  echo "a train longer than --timeout-ms should have failed the call" >&2
  exit 1
fi

# SIGTERM drains gracefully: clean exit, drain lines, ledger file closed.
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
  echo "serve did not exit cleanly on SIGTERM" >&2
  cat "$WORKDIR/serve.log" >&2
  exit 1
fi
grep -q "serve draining" "$WORKDIR/serve.log"
grep -q "serve drained, exiting" "$WORKDIR/serve.log"

# Every budget transition in the ledger is keyed by the tenant that caused
# it — the per-tenant audit trail the multi-tenant daemon exists for.
test -s "$WORKDIR/serve.ledger.jsonl"
grep '"kind":"budget_reserve"' "$WORKDIR/serve.ledger.jsonl" \
    | grep -q '"tenant":"acme"'
grep '"kind":"budget_commit"' "$WORKDIR/serve.ledger.jsonl" \
    | grep -q '"tenant":"acme"'
grep '"kind":"budget_refusal"' "$WORKDIR/serve.ledger.jsonl" \
    | grep -q '"tenant":"acme"'

# Restart on the same state dir: the spend must have survived the process,
# so the tenant is still refused.
"$CLI" serve --port 0 --state-dir "$servedir" \
    --budget-epsilon 1.0 --budget-delta 1e-5 \
    > "$WORKDIR/serve2.log" 2>&1 &
serve2_pid=$!
BG_PIDS="$BG_PIDS $!"
serve_port=$(listening_port "$WORKDIR/serve2.log")
test -n "$serve_port"
"$CLI" call --port "$serve_port" --method GET \
    --path "/v1/budget?tenant=acme" > "$WORKDIR/serve.budget2.json"
grep -q '"spent_epsilon":0.6' "$WORKDIR/serve.budget2.json"
# The timed-out call trained and charged once, not once per attempt.
"$CLI" call --port "$serve_port" --method GET \
    --path "/v1/budget?tenant=slow" | grep -q '"commits":1,'
if "$CLI" call --port "$serve_port" --path /v1/train \
    --body '{"tenant":"acme","algorithm":"bolton","epsilon":0.6,"passes":1,"scale":0.02}' \
    > /dev/null 2>&1; then
  echo "restarted serve forgot the committed spend" >&2
  exit 1
fi
kill -TERM "$serve2_pid"
wait "$serve2_pid" || { echo "second serve did not drain" >&2; exit 1; }

# --- serve: a SIGKILLed daemon's ledger file ---------------------------------
# --ledger-out is appended to as events happen, so a daemon killed without a
# drain leaves the whole trail of every train it answered: the tenant's
# reserve and commit, and the run's calibration and noise draw.
killdir="$WORKDIR/serve_kill"
mkdir -p "$killdir"
"$CLI" serve --port 0 --state-dir "$killdir" \
    --ledger-out "$WORKDIR/kill.ledger.jsonl" > "$WORKDIR/kill.log" 2>&1 &
kill_pid=$!
BG_PIDS="$BG_PIDS $!"
serve_port=$(listening_port "$WORKDIR/kill.log")
[ -n "$serve_port" ] || { cat "$WORKDIR/kill.log" >&2; exit 1; }
"$CLI" call --port "$serve_port" --path /v1/train \
    --body '{"tenant":"k","epsilon":0.5,"passes":1,"scale":0.02}' \
    > /dev/null
kill -KILL "$kill_pid"
wait "$kill_pid" 2> /dev/null || true
for kind in budget_reserve budget_commit; do
  if ! grep "\"kind\":\"$kind\"" "$WORKDIR/kill.ledger.jsonl" |
      grep -q '"tenant":"k"'; then
    echo "the killed daemon's ledger lacks tenant k's $kind:" >&2
    cat "$WORKDIR/kill.ledger.jsonl" >&2
    exit 1
  fi
done
for kind in calibration noise_draw; do
  count=$(grep -c "\"kind\":\"$kind\"" "$WORKDIR/kill.ledger.jsonl" || true)
  if [ "$count" != "1" ]; then
    echo "the killed daemon's ledger holds $count $kind lines, expected 1:" >&2
    cat "$WORKDIR/kill.ledger.jsonl" >&2
    exit 1
  fi
done

# --- serve: requests at the edge of the budget ------------------------------
# One state dir and the default budget (ε = 1, δ = 1e-6). Reserve is the
# only budget check, with a tolerance of one part in 10⁹ of the budget, so a
# request it admits always commits and the state reloads. The second PSGD
# pass of the daemon's life fails, which only the scs13 train below reaches.
edgedir="$WORKDIR/serve_edge"
mkdir -p "$edgedir"
BOLTON_FAILPOINTS="psgd.pass:error@2" "$CLI" serve --port 0 \
    --state-dir "$edgedir" > "$WORKDIR/edge.log" 2>&1 &
edge_pid=$!
BG_PIDS="$BG_PIDS $!"
serve_port=$(listening_port "$WORKDIR/edge.log")
[ -n "$serve_port" ] || { cat "$WORKDIR/edge.log" >&2; exit 1; }
# An aggregate within the tolerance is answered and spent.
"$CLI" call --port "$serve_port" --path /v1/aggregate \
    --body '{"tenant":"a","op":"count","epsilon":1.0000000005}' \
    > "$WORKDIR/edge.aggregate.json"
grep -q '"spent_epsilon":1.0000000005,' "$WORKDIR/edge.aggregate.json"
# A white-box train the solver refuses from its parameters alone answers
# 400 before the budget hold and is not charged.
status=0
"$CLI" call --port "$serve_port" --path /v1/train \
    --body '{"tenant":"e","algorithm":"objective","model":"huber_svm","epsilon":1.0000000005,"delta":0,"scale":0.02}' \
    > "$WORKDIR/edge.refused.json" 2> /dev/null || status=$?
if [ "$status" != "1" ] ||
    ! grep -q '"error":"bad_request"' "$WORKDIR/edge.refused.json"; then
  echo "objective/huber_svm train exited $status, expected bad_request:" >&2
  cat "$WORKDIR/edge.refused.json" "$WORKDIR/edge.log" >&2
  exit 1
fi
"$CLI" call --port "$serve_port" --method GET --path "/v1/budget?tenant=e" \
    | grep -q '"spent_epsilon":0,'
# A white-box train that fails after it started (its noise may be drawn)
# answers its error and is charged, and the daemon keeps serving.
status=0
"$CLI" call --port "$serve_port" --path /v1/train \
    --body '{"tenant":"e","algorithm":"scs13","epsilon":1.0000000005,"delta":0,"passes":2,"scale":0.02}' \
    > "$WORKDIR/edge.train.json" 2> /dev/null || status=$?
if [ "$status" != "1" ] ||
    ! grep -q '"error":"train_failed"' "$WORKDIR/edge.train.json"; then
  echo "failing scs13 train exited $status, expected train_failed:" >&2
  cat "$WORKDIR/edge.train.json" "$WORKDIR/edge.log" >&2
  exit 1
fi
"$CLI" call --port "$serve_port" --method GET --path "/v1/budget?tenant=e" \
    > "$WORKDIR/edge.budget.json"
grep -q '"spent_epsilon":1.0000000005,' "$WORKDIR/edge.budget.json"
grep -q '"reserved_epsilon":0,' "$WORKDIR/edge.budget.json"
kill -TERM "$edge_pid"
wait "$edge_pid" || { echo "edge serve did not drain" >&2; exit 1; }
# The restart on the same dir comes up. Loading the state charges nothing:
# /healthz counts no charge and the ledger stays empty until a request.
"$CLI" serve --port 0 --state-dir "$edgedir" \
    --ledger-out "$WORKDIR/edge2.ledger.jsonl" > "$WORKDIR/edge2.log" 2>&1 &
edge_pid=$!
BG_PIDS="$BG_PIDS $!"
serve_port=$(listening_port "$WORKDIR/edge2.log")
if [ -z "$serve_port" ]; then
  echo "serve refused its own state dir on restart:" >&2
  cat "$WORKDIR/edge2.log" >&2
  exit 1
fi
"$CLI" scrape --port "$serve_port" --path /healthz > "$WORKDIR/edge2.healthz.json"
grep -q '"charges":0,' "$WORKDIR/edge2.healthz.json" \
    || { echo "restart reported charges:" >&2; \
         cat "$WORKDIR/edge2.healthz.json" >&2; exit 1; }
"$CLI" call --port "$serve_port" --method GET --path "/v1/budget?tenant=a" \
    | grep -q '"spent_epsilon":1.0000000005,'
kill -TERM "$edge_pid"
wait "$edge_pid" || { echo "restarted edge serve did not drain" >&2; exit 1; }
test -f "$WORKDIR/edge2.ledger.jsonl"
if [ -s "$WORKDIR/edge2.ledger.jsonl" ]; then
  echo "loading the state dir recorded ledger events:" >&2
  cat "$WORKDIR/edge2.ledger.jsonl" >&2
  exit 1
fi

echo "cli smoke test passed (noiseless acc=$acc)"
