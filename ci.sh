#!/usr/bin/env bash
# Tier-1 gate plus the format/structure/lint wall, the benchmark-package
# smoke, and the bench artifacts with their regression gate. Run from the repo root; fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> tier-1: release build"
cargo build --release

echo "==> tier-1: test suite"
cargo test -q

echo "==> format: first-party crates must be rustfmt-clean (vendor/ excluded)"
cargo fmt --check \
  -p shift-peel -p sp-ir -p sp-dep -p shift-peel-core -p sp-cache \
  -p sp-exec -p sp-trace -p sp-kernels -p sp-baselines -p sp-machine \
  -p sp-bench -p sp-cli -p sp-serve -p sp-net

echo "==> structure: no deprecated shims, one hash, one array hasher, one renderer, one program object, one PRNG, one JSON reader, one place for ISA, one wait policy, bounded results"
# Cheap greps over first-party code. Each of these helpers once existed
# two or three times; a second definition is a regression, not a lint.
if grep -rn --include='*.rs' '#\[deprecated' crates/; then
  echo "FAIL: #[deprecated] item under crates/ (delete the shim instead)"
  exit 1
fi
# The simd backend is one row runner. The lane-blocked pair it replaced
# (an 8-wide block and a scalar head/tail beside it) and the detour of
# peel regions through the interpreter must not grow back.
if grep -rnE --include='*.rs' 'vector_block|scalar_span|fn boundary' crates/exec/src/; then
  echo "FAIL: a second simd inner loop or a peel detour is back in sp-exec"
  exit 1
fi
# A statement has one lowered form, the row program. The postfix stack
# machine it was once built from, and the lane-safety pass that re-derived
# a verdict lowering already holds, must not grow back.
if grep -rnE 'MicroOp|max_stack|analyze_lane_safety|LaneSafetyPass' crates/ src/ tests/ examples/; then
  echo "FAIL: a second lowered form or a second row-width verdict is back"
  exit 1
fi
# The row loops are plain Rust compiled twice inside tape.rs (baseline,
# and AVX2 behind runtime detection). Intrinsics, a second place that
# enables target features, or a build-wide target-cpu/target-feature
# (.cargo/config.toml is inherited by benchmark/ and would move its
# hand-written yardstick) are regressions, and so is the temporary-then-
# copy tail a statement's last op replaced.
if grep -rn --include='*.rs' 'target_feature' crates/ src/ tests/ examples/ \
  | grep -v '^crates/exec/src/tape\.rs:'; then
  echo "FAIL: target_feature outside crates/exec/src/tape.rs"
  exit 1
fi
if grep -rn --include='*.rs' 'std::arch::' crates/; then
  echo "FAIL: std::arch intrinsics under crates/ (the row loops are plain Rust)"
  exit 1
fi
if grep -nE 'target-cpu|target-feature' .cargo/config.toml; then
  echo "FAIL: .cargo/config.toml sets target-cpu/target-feature for every build"
  exit 1
fi
if grep -n 'copy_nonoverlapping' crates/exec/src/tape.rs; then
  echo "FAIL: a temporary-then-copy store tail is back in the row runner"
  exit 1
fi
# A parallel run wakes the threads it needs and nobody else, and everything
# that waits does so by the one clock-driven policy: a broadcast wake or an
# iteration-count spin budget with its adaptive mode must not grow back.
if grep -nE 'notify_all|adaptive|MIN_SPIN|MAX_SPIN' crates/exec/src/pool.rs; then
  echo "FAIL: a broadcast wake or a spin budget is back in crates/exec/src/pool.rs"
  exit 1
fi
# The service's result table is bounded: the one insertion sits in
# State::deliver, next to the RESULT_RETENTION loop that evicts.
n="$(grep -c 'done\.insert(' crates/serve/src/service.rs)"
if [ "$n" -ne 1 ] \
  || ! grep -A4 'done\.insert(' crates/serve/src/service.rs | grep -q 'RESULT_RETENTION'; then
  echo "FAIL: State::done is inserted into away from its retention bound"
  exit 1
fi
for def in 'fn fnv1a64' 'fn splitmix64' 'fn string(&mut self)'; do
  n="$(grep -rn --include='*.rs' -F "$def" crates/ src/ tests/ examples/ | wc -l)"
  if [ "$n" -gt 1 ]; then
    echo "FAIL: $n definitions of \`$def\` (expected at most one):"
    grep -rn --include='*.rs' -F "$def" crates/ src/ tests/ examples/
    exit 1
  fi
done

# A job's arrays are hashed a word at a time by the one array hasher, in
# sp-exec; FNV is the hash of text and keys. A byte-serial digest of
# values in the service, a second hasher, or the renderer that built a
# String per subscript, reference and expression node must not grow back.
if grep -nE 'Fnv1a64|to_le_bytes' crates/serve/src/service.rs; then
  echo "FAIL: crates/serve/src/service.rs hashes bytes again (the array digest is sp_exec::WordDigest)"
  exit 1
fi
n="$(grep -rn --include='*.rs' 'struct WordDigest' crates/ | wc -l)"
if [ "$n" -ne 1 ]; then
  echo "FAIL: $n definitions of the array hasher under crates/ (expected exactly one)"
  exit 1
fi
if grep -nE 'format!\(|\.join\(' crates/ir/src/display.rs; then
  echo "FAIL: crates/ir/src/display.rs allocates per node again (render into the one buffer)"
  exit 1
fi
# A program is rendered and hashed once, when its SharedProgram is made.
# The client sends what the spec holds; the server parses a text only when
# the registry does not hold those bytes (one call site); a request's
# fingerprint is streamed, not a second encoding of the frame; the CRC goes
# by table. None of the per-job work these replaced may grow back.
if grep -nE 'render_sequence\(|program_digest\(' crates/net/src/client.rs; then
  echo "FAIL: crates/net/src/client.rs renders or hashes a program per request (send spec.seq.text()/digest())"
  exit 1
fi
n="$(sed '/#\[cfg(test)\]/,$d' crates/net/src/server.rs | grep -c 'parse_sequence(' || true)"
if [ "$n" -ne 1 ]; then
  echo "FAIL: $n parse_sequence( calls in crates/net/src/server.rs outside its tests (expected exactly one, behind the registry's text lookup)"
  exit 1
fi
if grep -rn 'encode_payload_for_fingerprint' crates/ src/ tests/ examples/; then
  echo "FAIL: the request fingerprint encodes the frame a second time again"
  exit 1
fi
if sed '/#\[cfg(test)\]/,$d' crates/net/src/wire.rs | grep -n 'for _ in 0\.\.8'; then
  echo "FAIL: a bit-at-a-time CRC loop is back in crates/net/src/wire.rs (the bitwise reference lives in its test module)"
  exit 1
fi

echo "==> lint wall: runtime + observability + serving crates must be clippy-clean"
cargo clippy --all-targets -p sp-exec -p sp-trace -p sp-cli -p sp-serve -p sp-net -- -D warnings

echo "==> benchmark package: builds and smoke-tests against the library API, unedited"
# benchmark/ is its own workspace (own Cargo.lock and target dir) and
# compiles against Executor, PooledExecutor, ScopedExecutor, RunConfig,
# Schedule, RunReport and validate_chrome_trace; nothing else here
# builds it, so an API break would otherwise surface only in the
# benchmark driver.
cargo test --release --manifest-path benchmark/Cargo.toml

echo "==> differential fuzzing: backends (interp/compiled/simd) x schedules x runtimes"
# The vendored proptest derives its seed from the test name, so this
# sweep is deterministic run to run — a fixed-seed regression gate. The
# suite includes the simd parity gate: the row runner must match the
# interpreter bit for bit, including ragged trips and peel widths.
cargo test --release -q --test differential

echo "==> backend smoke: compiled, interp, and simd on jacobi"
# Each run verifies against serial execution internally; running all
# backends pins the CLI path end to end. The simd run must report a
# nonzero vectorized-iteration count.
cargo run --release -p sp-cli -- run examples/programs/jacobi.loop \
  --procs 4 --steps 3 --backend interp
cargo run --release -p sp-cli -- run examples/programs/jacobi.loop \
  --procs 4 --steps 3 --backend compiled
simd_out="$(mktemp /tmp/spfc-simd-smoke.XXXXXX)"
cargo run --release -p sp-cli -- run examples/programs/jacobi.loop \
  --procs 4 --steps 3 --backend simd | tee "$simd_out"
grep -Eq 'vectorized [1-9][0-9]* of' "$simd_out"
rm -f "$simd_out"

echo "==> observability: traced run, trace schema check, explain golden"
# A traced jacobi run must export a Chrome trace that passes the schema
# check and Prometheus metrics with the run's counters; the explain
# trace for LL18 is pinned as a golden file (UPDATE_GOLDEN=1 to refresh).
trace_tmp="$(mktemp /tmp/spfc-trace.XXXXXX.json)"
metrics_tmp="$(mktemp /tmp/spfc-metrics.XXXXXX.prom)"
cargo run --release -p sp-cli -- run examples/programs/jacobi.loop \
  --procs 4 --steps 3 --backend compiled --executor pooled \
  --trace-out "$trace_tmp" --metrics-out "$metrics_tmp"
cargo run --release -p sp-cli -- trace-check "$trace_tmp"
grep -q '^spfc_iters_total' "$metrics_tmp"
grep -q '^spfc_barrier_wait_nanos_bucket' "$metrics_tmp"
rm -f "$trace_tmp" "$metrics_tmp"
cargo test --release -q -p sp-cli --test explain_golden
# The same golden end to end through the binary: `spfc explain` now
# plans through the pass pipeline (Planner), and the rendered trace
# must stay byte-identical to the pinned file.
explain_tmp="$(mktemp /tmp/spfc-explain.XXXXXX)"
cargo run --release -p sp-cli -- explain ll18 > "$explain_tmp"
diff -u crates/cli/tests/golden/explain_ll18.txt "$explain_tmp"
rm -f "$explain_tmp"

echo "==> bench baselines: snapshot committed artifacts before regeneration"
# The regression gate at the bottom compares freshly regenerated
# artifacts against the versions committed in the tree, so copy them
# aside before the bench binaries overwrite them.
bench_baseline="$(mktemp -d /tmp/spfc-bench-baseline.XXXXXX)"
cp results/BENCH_runtime.json results/BENCH_serve.json \
  results/BENCH_net.json "$bench_baseline"/

echo "==> runtime comparison -> results/BENCH_runtime.json"
mkdir -p results
runtime_out="$(mktemp /tmp/spfc-runtime-out.XXXXXX)"
cargo run --release -p sp-bench --bin runtime -- --quick | tee "$runtime_out"
# The simd column must be present in the artifact and non-regressing:
# the row runner at >= 6x interpreter throughput on every kernel's
# acceptance line (the binary itself asserts miss parity). Each column
# is the best of three runs, and the floor is half of what this host
# reads (13x jacobi, 17x tomcatv): a single sample swings severalfold
# with whether the pool's barriers spin or park.
grep -q '"simd"' results/BENCH_runtime.json
awk '/simd\/interp throughput/ {
  n += 1
  for (i = 1; i < NF; i++) if ($i == "=") { ratio = $(i + 1); sub(/x$/, "", ratio) }
  if (ratio + 0 < 6.0) { print "FAIL: simd below 6x interp: " $0; bad = 1 }
}
END { if (n == 0) { print "FAIL: no simd/interp acceptance lines"; exit 1 } exit bad }' "$runtime_out"
# What a small parallel run costs when the pool was idle before it (the
# condition a service creates and the sweeps above never do): a 2-step
# 34x34 jacobi run at p = 2 must stay under 300 us. It read ~1000 us while
# the first arriver spun out its budget at every barrier before letting a
# just-woken peer run.
dispatch_p2="$(grep -o '"dispatch_us":{"p1":[0-9.]*,"p2":[0-9.]*' results/BENCH_runtime.json | sed 's/.*"p2"://')"
awk -v d="$dispatch_p2" 'BEGIN {
  if (d == "" || d + 0 <= 0 || d + 0 >= 300) { print "FAIL: dispatch_us.p2 \"" d "\" not in (0, 300) us"; exit 1 }
  print "dispatch_us.p2 = " d " us (< 300)"
}'
# Adaptive scheduling gate: the skewed-load sweep (same seed, all three
# schedules, bit-for-bit verified inside the binary) must show stealing
# strictly flattening the busy-time imbalance relative to static
# blocking, with at least one steal actually happening. The schedule
# differential gate itself runs in the fuzzing step above
# (adaptive_schedules_agree in tests/differential.rs).
grep -q '"skewed"' results/BENCH_runtime.json
awk '/^skewed: time imbalance/ {
  n += 1
  for (i = 1; i <= NF; i++) {
    if ($i ~ /^static=/)   { st = $i;    sub(/^static=/, "", st) }
    if ($i ~ /^stealing=/) { steal = $i; sub(/^stealing=/, "", steal) }
    if ($i ~ /^steals=/)   { cnt = $i;   sub(/^steals=/, "", cnt) }
  }
  if (steal + 0 >= st + 0) { print "FAIL: stealing imbalance " steal " not below static " st; bad = 1 }
  if (cnt + 0 < 1) { print "FAIL: no steals recorded on the skewed load"; bad = 1 }
}
END { if (n == 0) { print "FAIL: no skewed acceptance line"; exit 1 } exit bad }' "$runtime_out"
rm -f "$runtime_out"

echo "==> serving: manifest smoke x2, persistent cache must hit on the rerun"
# The same manifest served twice against one on-disk cache: the second
# process must start warm (disk hits), and the lifetime stats file must
# aggregate across both processes.
serve_cache="$(mktemp -d /tmp/spfc-serve-cache.XXXXXX)"
serve_out="$(mktemp /tmp/spfc-serve-out.XXXXXX)"
cargo run --release -p sp-cli -- serve --jobs examples/jobs.manifest \
  --cache-dir "$serve_cache" | tee "$serve_out"
grep -q '0 failed' "$serve_out"
# The manifest includes full-key misses over a shared sequence (backend
# and block-size variants of jacobi): the analysis tier must serve the
# dependence analysis across them.
grep -Eq 'analysis: [1-9][0-9]* hits' "$serve_out"
cargo run --release -p sp-cli -- serve --jobs examples/jobs.manifest \
  --cache-dir "$serve_cache" | tee "$serve_out"
grep -q '0 failed' "$serve_out"
grep -Eq 'analysis: [1-9][0-9]* hits' "$serve_out"
cargo run --release -p sp-cli -- cache stats --cache-dir "$serve_cache" \
  | tee "$serve_out"
grep -Eq 'lifetime: [1-9][0-9]* hits' "$serve_out"
grep -Eq 'analysis: [1-9][0-9]* hits' "$serve_out"
cargo run --release -p sp-cli -- cache clear --cache-dir "$serve_cache" \
  | tee "$serve_out"
grep -q 'cleared' "$serve_out"
rm -rf "$serve_cache" "$serve_out"

echo "==> serve observability: traced session export + overhead gate (<=5%)"
# A session of 975 jobs (>= 1 s of wall time, so that one descheduling
# does not decide a ratio): the whole traced session must export ONE valid
# Chrome trace, the metrics snapshot must carry the per-stage labeled
# histograms and outcome counters, and tracing the session must not cost
# more than 5% wall time — by the medians of nine traced and nine untraced
# sessions run in alternation, so that host drift lands on both alike.
load_manifest="$(mktemp /tmp/spfc-load.XXXXXX.manifest)"
cat > "$load_manifest" <<'MANIFEST'
job load-jacobi kernel=jacobi grid=2x2 steps=6 strip=8 repeat=600
job load-ll18   kernel=ll18   procs=4  steps=6 repeat=375
MANIFEST
session_trace="$(mktemp /tmp/spfc-session.XXXXXX.json)"
session_prom="$(mktemp /tmp/spfc-session.XXXXXX.prom)"
plain_walls="$(mktemp /tmp/spfc-plain-walls.XXXXXX)"
traced_walls="$(mktemp /tmp/spfc-traced-walls.XXXXXX)"
cargo build --release -q -p sp-cli
for _ in 1 2 3 4 5 6 7 8 9; do
  ./target/release/spfc serve --jobs "$load_manifest" \
    | grep -Eo 'in [0-9.]+ s' | awk '{print $2}' >> "$plain_walls"
  ./target/release/spfc serve --jobs "$load_manifest" \
    --trace-out "$session_trace" --metrics-out "$session_prom" \
    | grep -Eo 'in [0-9.]+ s' | awk '{print $2}' >> "$traced_walls"
done
median() { sort -n "$1" | awk '{ v[NR] = $1 } END { print v[int((NR + 1) / 2)] }'; }
awk -v p="$(median "$plain_walls")" -v t="$(median "$traced_walls")" 'BEGIN {
  if (p + 0 < 1.0) { printf "FAIL: an untraced session took %.3fs, under the 1 s the gate needs\n", p; exit 1 }
  ratio = t / p
  printf "traced/untraced serve wall, medians of 9: %.3f (traced %.3fs, untraced %.3fs)\n", ratio, t, p
  if (ratio > 1.05) { print "FAIL: traced serve overhead above 5%"; exit 1 }
}'
rm -f "$plain_walls" "$traced_walls"
cargo run --release -p sp-cli -- trace-check "$session_trace"
grep -q '^spfc_serve_jobs_total{component="sp-serve",outcome="ok"} 975$' "$session_prom"
grep -q '^spfc_serve_stage_nanos_bucket{component="sp-serve",stage="execute",le="+Inf"} 975$' "$session_prom"
grep -q '^spfc_serve_results_retained{component="sp-serve"} 975$' "$session_prom"
grep -q '^spfc_serve_pool_busy_ratio{component="sp-serve"} 0\.[0-9]' "$session_prom"
grep -q '^spfc_serve_stage_nanos_bucket{component="sp-serve",stage="queue_wait"' "$session_prom"
rm -f "$load_manifest" "$session_trace" "$session_prom"

echo "==> wire tier: socket server smoke, pipelined + serial submits, drain over TCP"
# A real SPFC server on an ephemeral port, two tenants submitting
# concurrently over separate connections — one pipelining its jobs
# through a single keep-alive connection (--window), one submitting
# serially. The first submission of each program compiles (miss);
# repeats must come back from the artifact cache (hit). The drain frame
# must quiesce the server, whose summary accounts for both tenants and
# the program registry.
net_addr="$(mktemp /tmp/spfc-net-addr.XXXXXX)"
net_log="$(mktemp /tmp/spfc-net-serve.XXXXXX)"
sub_a="$(mktemp /tmp/spfc-net-suba.XXXXXX)"
sub_b="$(mktemp /tmp/spfc-net-subb.XXXXXX)"
: > "$net_addr"
cargo run --release -q -p sp-cli -- serve --listen 127.0.0.1:0 \
  --addr-file "$net_addr" --workers 2 > "$net_log" 2>&1 &
net_pid=$!
for _ in $(seq 100); do
  [ -s "$net_addr" ] && break
  sleep 0.1
done
[ -s "$net_addr" ] || { echo "FAIL: wire server never published its address"; exit 1; }
addr="$(cat "$net_addr")"
cargo run --release -q -p sp-cli -- submit --connect "$addr" jacobi \
  --tenant ci-a --procs 2 --steps 3 --window 4 --repeat 3 > "$sub_a" 2>&1 &
pid_a=$!
( for _ in 1 2 3; do
    cargo run --release -q -p sp-cli -- submit --connect "$addr" \
      examples/programs/jacobi.loop --tenant ci-b --procs 2 --steps 3
  done ) > "$sub_b" 2>&1 &
pid_b=$!
wait "$pid_a"
wait "$pid_b"
# Every submit line carries a digest; someone compiled (miss) and the
# repeats must come back from the artifact cache (hit) on both tenants.
grep -q 'tenant=ci-a' "$sub_a"
grep -q 'tenant=ci-b' "$sub_b"
grep -qh ' miss ' "$sub_a" "$sub_b"
grep -q ' hit ' "$sub_a"
grep -q ' hit ' "$sub_b"
# The pipelined tenant reports its window and throughput.
grep -q 'pipelined 3 jobs, window 4' "$sub_a"
if grep -qi 'error' "$sub_a" "$sub_b"; then
  echo "FAIL: wire submissions reported protocol errors"
  exit 1
fi
cargo run --release -q -p sp-cli -- submit --connect "$addr" drain
wait "$net_pid"
grep -q 'drained:' "$net_log"
grep -q 'tenant ci-a' "$net_log"
grep -q 'tenant ci-b' "$net_log"
# The drained summary surfaces the bounded program registry's counters.
grep -q 'programs: .* registered' "$net_log"
rm -f "$net_addr" "$net_log" "$sub_a" "$sub_b"

echo "==> serving benchmark -> results/BENCH_serve.json (warm must beat cold)"
cargo run --release -p sp-bench --bin serve -- --quick
test -s results/BENCH_serve.json
grep -q '"digest_match":true' results/BENCH_serve.json

echo "==> wire-tier benchmark -> results/BENCH_net.json (digests must match)"
cargo run --release -p sp-bench --bin net -- --quick
test -s results/BENCH_net.json
grep -q '"digest_match":true' results/BENCH_net.json
grep -q '"clients":1' results/BENCH_net.json
# The pipelined column must be present (bench check fails on a missing
# metric) and must have beaten the single-in-flight column.
grep -q '"pipelined":{"window":4' results/BENCH_net.json
speedup="$(grep -o '"speedup_over_serial":[0-9.eE+-]*' results/BENCH_net.json | head -n 1 | cut -d: -f2)"
awk -v s="$speedup" 'BEGIN {
  if (s == "" || s + 0 < 1.2) { print "FAIL: pipelined speedup over serial \"" s "\" below 1.2"; exit 1 }
}'

echo "==> bench regression gate: fresh results vs committed baselines"
verdict="$(mktemp /tmp/spfc-verdict.XXXXXX.json)"
cargo run --release -p sp-cli -- bench check \
  --baseline-dir "$bench_baseline" --current-dir results --json-out "$verdict"
grep -q '"passed":true' "$verdict"
# The gate must actually gate: inject a warm-over-cold collapse into a
# scratch copy of the fresh results and require a nonzero exit.
corrupt="$(mktemp -d /tmp/spfc-bench-corrupt.XXXXXX)"
cp results/BENCH_runtime.json results/BENCH_net.json "$corrupt"/
sed 's/"warm_over_cold":[0-9.eE+-]*/"warm_over_cold":0.01/' \
  results/BENCH_serve.json > "$corrupt/BENCH_serve.json"
if cargo run --release -q -p sp-cli -- bench check \
  --baseline-dir "$bench_baseline" --current-dir "$corrupt" >/dev/null 2>&1; then
  echo "FAIL: bench check passed an injected regression"
  exit 1
fi
rm -rf "$corrupt" "$verdict" "$bench_baseline"

echo "==> ci.sh: all green"
