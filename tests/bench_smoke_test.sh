#!/bin/sh
# End-to-end smoke test of the benches' telemetry flags: a CommonFlags bench
# and a google-benchmark bench each write the exports their flags ask for,
# telemetry leaves the figure rows on stdout untouched, the engine benches
# (Figures 2 and 5) run, and a refused flag, a refused data input or a
# failed export exits 1 with "<bench>: <status>" instead of aborting.
# Invoked by ctest with the bench binaries' directory as $1.
set -eu

BENCH="$1"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

FIG3="$BENCH/bench_fig3_accuracy_public"
FIG3_ARGS="--scale 0.02 --repeats 1 --datasets protein"

# A CommonFlags bench: the metrics dump goes to stderr, the trace, ledger and
# JSON rows to their files, and stdout is the same figure as without them.
# $FIG3_ARGS is left unquoted: it holds several flags.
"$FIG3" $FIG3_ARGS > "$WORKDIR/plain.out"
if ! "$FIG3" $FIG3_ARGS --metrics --trace-out "$WORKDIR/fig3.trace.jsonl" \
    --ledger-out "$WORKDIR/fig3.ledger.jsonl" \
    --json-out "$WORKDIR/fig3.json" \
    > "$WORKDIR/telemetry.out" 2> "$WORKDIR/telemetry.err"; then
  cat "$WORKDIR/telemetry.err" >&2
  exit 1
fi
if ! cmp -s "$WORKDIR/plain.out" "$WORKDIR/telemetry.out"; then
  echo "telemetry flags changed the figure rows on stdout" >&2
  diff "$WORKDIR/plain.out" "$WORKDIR/telemetry.out" >&2 || true
  exit 1
fi
gradients=$(awk '$1 == "gradient_evaluations" { print $2 }' \
    "$WORKDIR/telemetry.err")
if [ -z "$gradients" ] || [ "$gradients" -eq 0 ]; then
  echo "expected nonzero gradient_evaluations on stderr, got '$gradients'" >&2
  cat "$WORKDIR/telemetry.err" >&2
  exit 1
fi
grep -q '"name":"psgd.pass"' "$WORKDIR/fig3.trace.jsonl"
grep -q '"kind":"noise_draw"' "$WORKDIR/fig3.ledger.jsonl"
# Every JSON row carries a counters object (hardware counts or an explicit
# {"available":false,...}).
rows=$(grep -o '"figure":' "$WORKDIR/fig3.json" | wc -l)
counters=$(grep -o '"counters":{' "$WORKDIR/fig3.json" | wc -l)
if [ "$rows" -eq 0 ] || [ "$rows" -ne "$counters" ]; then
  echo "$counters of $rows JSON rows carry a counters object" >&2
  exit 1
fi

# A google-benchmark bench takes the same telemetry flags after its own.
if ! "$BENCH/bench_ablation_sparse" --benchmark_filter='BM_DensePsgd/100/' \
    --metrics --trace-out "$WORKDIR/sparse.trace.jsonl" \
    > /dev/null 2> "$WORKDIR/sparse.err"; then
  cat "$WORKDIR/sparse.err" >&2
  exit 1
fi
gradients=$(awk '$1 == "gradient_evaluations" { print $2 }' \
    "$WORKDIR/sparse.err")
if [ -z "$gradients" ] || [ "$gradients" -eq 0 ]; then
  echo "bench_ablation_sparse --metrics dumped no gradient_evaluations" >&2
  cat "$WORKDIR/sparse.err" >&2
  exit 1
fi
grep -q '"name":"psgd.pass"' "$WORKDIR/sparse.trace.jsonl"

# The engine path with disk tables and white-box noise: Figure 2's two
# panels at a small scale (4 sizes x 4 algorithms x 2 storage modes) and
# one Figure 5 cell.
if ! "$BENCH/bench_fig2_scalability" --scale 0.01 --repeats 1 \
    --json-out "$WORKDIR/fig2.json" > "$WORKDIR/fig2.out" \
    2> "$WORKDIR/fig2.err"; then
  cat "$WORKDIR/fig2.err" >&2
  exit 1
fi
rows=$(grep -o '"figure":"fig2_scalability"' "$WORKDIR/fig2.json" | wc -l)
if [ "$rows" -ne 32 ]; then
  echo "bench_fig2_scalability wrote $rows rows, expected 32" >&2
  exit 1
fi
if ! "$BENCH/bench_fig5_runtime" \
    --benchmark_filter='Fig5_BatchSweep/protein/bst14/10/' \
    > "$WORKDIR/fig5.out" 2> "$WORKDIR/fig5.err"; then
  cat "$WORKDIR/fig5.err" >&2
  exit 1
fi
grep -q "^Fig5_BatchSweep/protein/bst14/10/" "$WORKDIR/fig5.out"

# expect_refusal BENCH ARGS...: the bench exits 1 and prints
# "<bench>: <status>" on stderr, an ordinary failure rather than an abort.
expect_refusal() {
  name="$(basename "$1")"
  status=0
  "$@" > /dev/null 2> "$WORKDIR/refusal.err" || status=$?
  if [ "$status" != "1" ] || ! grep -q "^$name: " "$WORKDIR/refusal.err" ||
      grep -q "fatal status\|Aborted" "$WORKDIR/refusal.err"; then
    echo "'$*' exited $status, expected 1 and '$name: ' on stderr:" >&2
    cat "$WORKDIR/refusal.err" >&2
    exit 1
  fi
}
expect_refusal "$BENCH/bench_fig10_batchsize" --bogus
expect_refusal "$BENCH/bench_fig10_batchsize" \
    --ledger-out "$WORKDIR/missing/l.jsonl"
# A failed export does not stop the others: the ledger still closes, and
# both failures are named.
expect_refusal "$FIG3" $FIG3_ARGS \
    --trace-out "$WORKDIR/missing/t.jsonl" \
    --ledger-out "$WORKDIR/refused.ledger.jsonl" \
    --json-out "$WORKDIR/missing/j.json"
failures=$(grep -c "^bench_fig3_accuracy_public: " "$WORKDIR/refusal.err")
if ! grep -q "^appended [1-9][0-9]* ledger events" "$WORKDIR/refusal.err" ||
    [ "$failures" != 2 ]; then
  echo "a failed trace export stopped the bench's other exports:" >&2
  cat "$WORKDIR/refusal.err" >&2
  exit 1
fi
expect_refusal "$BENCH/bench_ablation_sparse" --bogus
# A refused data input is the bench's status too, not an abort.
expect_refusal "$FIG3" --scale 0.02 --repeats 1 --datasets nope
grep -q "^bench_fig3_accuracy_public: not-found: " "$WORKDIR/refusal.err"

echo "bench smoke test passed"
