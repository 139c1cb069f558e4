#!/usr/bin/env bash
# Tier-1 gate (which holds the structure guards, tests/structure.rs) plus
# the format/lint wall, the benchmark-package smoke, and the runtime bench
# artifact with its regression gate. Run from the repo root; fails fast on
# the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> tier-1: release build"
cargo build --release

echo "==> tier-1: test suite"
cargo test -q

echo "==> workspace tests: every crate's own unit and integration tests"
# `cargo test -q` above runs the root package's tests only. The crates'
# own suites — among them the row-loop bit-exactness gates in
# crates/exec/src/lower.rs and every sp-serve and sp-net test — run here.
cargo test --release -q --workspace

echo "==> format: first-party crates must be rustfmt-clean (vendor/ excluded)"
cargo fmt --check \
  -p shift-peel -p sp-ir -p sp-dep -p shift-peel-core -p sp-cache \
  -p sp-exec -p sp-trace -p sp-kernels -p sp-baselines -p sp-machine \
  -p sp-bench -p sp-cli -p sp-serve -p sp-net

echo "==> lint wall: the whole workspace must be clippy-clean"
cargo clippy --workspace --all-targets -- -D warnings

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
# The same golden end to end through the binary: `spfc explain` plans
# through `Planner` (four stage calls in a row), and the rendered trace
# must stay byte-identical to the pinned file.
explain_tmp="$(mktemp /tmp/spfc-explain.XXXXXX)"
cargo run --release -p sp-cli -- explain ll18 > "$explain_tmp"
diff -u crates/cli/tests/golden/explain_ll18.txt "$explain_tmp"
rm -f "$explain_tmp"

echo "==> paper results: every table and figure binary reproduces results/ byte for byte"
# The simulated machines are deterministic: a change to the analysis,
# the planner, the cost model or the cache simulator that moves a number
# of the paper's reproduction shows up here as a diff.
cargo build --release -q -p sp-bench
results_tmp="$(mktemp -d /tmp/spfc-results.XXXXXX)"
for bin in table1 table2 fig18 fig20 fig21 fig22 fig23 fig24 fig25 fig26 modern missclasses; do
  ./target/release/"$bin" > "$results_tmp/$bin.txt"
  diff -u "results/$bin.txt" "$results_tmp/$bin.txt"
done
rm -rf "$results_tmp"

echo "==> bench baseline: snapshot the committed artifact before regeneration"
# The regression gate at the bottom compares the freshly regenerated
# artifact against the version committed in the tree, so copy it aside
# before the bench binary overwrites it.
bench_baseline="$(mktemp -d /tmp/spfc-bench-baseline.XXXXXX)"
cp results/BENCH_runtime.json "$bench_baseline"/

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

echo "==> serving: manifest smoke x2, lifetime stats add up across processes"
# The same manifest served twice against one cache dir. Each process
# derives its own plans (no plan outlives a process), and `cache stats`
# must report exactly the sum of both runs' `cache:` lines.
serve_cache="$(mktemp -d /tmp/spfc-serve-cache.XXXXXX)"
serve_out="$(mktemp /tmp/spfc-serve-out.XXXXXX)"
serve_hits=0
serve_misses=0
for run in 1 2; do
  cargo run --release -p sp-cli -- serve --jobs examples/jobs.manifest \
    --cache-dir "$serve_cache" | tee "$serve_out"
  grep -q '0 failed' "$serve_out"
  # The manifest includes full-key misses over a shared sequence (backend
  # and block-size variants of jacobi): the analysis tier must serve the
  # dependence analysis across them.
  grep -Eq 'analysis: [1-9][0-9]* hits' "$serve_out"
  line="$(grep -E '^cache: [0-9]+ hits, [0-9]+ misses' "$serve_out")"
  serve_hits=$((serve_hits + $(echo "$line" | awk '{print $2}')))
  serve_misses=$((serve_misses + $(echo "$line" | awk '{print $4}')))
done
cargo run --release -p sp-cli -- cache stats --cache-dir "$serve_cache" \
  | tee "$serve_out"
grep -q "^lifetime: $serve_hits hits, $serve_misses misses," "$serve_out"
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
session_check="$(mktemp /tmp/spfc-session-check.XXXXXX)"
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
# Worker spans keep their step args in a session export too.
cargo run --release -p sp-cli -- trace-check "$session_trace" | tee "$session_check"
grep -Eq ', [1-9][0-9]* step\(s\)' "$session_check"
grep -q '^spfc_serve_jobs_total{component="sp-serve",outcome="ok"} 975$' "$session_prom"
grep -q '^spfc_serve_stage_nanos_bucket{component="sp-serve",stage="execute",le="+Inf"} 975$' "$session_prom"
grep -q '^spfc_serve_results_retained{component="sp-serve"} 975$' "$session_prom"
grep -q '^spfc_serve_pool_busy_ratio{component="sp-serve"} 0\.[0-9]' "$session_prom"
grep -q '^spfc_serve_stage_nanos_bucket{component="sp-serve",stage="queue_wait"' "$session_prom"
rm -f "$load_manifest" "$session_trace" "$session_prom" "$session_check"

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
# The drained summary surfaces the bounded program registry's counters,
# and ends with the same cache and analysis lines as manifest mode.
grep -q 'programs: .* registered' "$net_log"
grep -Eq '^cache: [0-9]+ hits, [0-9]+ misses' "$net_log"
grep -q '^analysis: ' "$net_log"
rm -f "$net_addr" "$net_log" "$sub_a" "$sub_b"

echo "==> bench regression gate: fresh BENCH_runtime.json vs the committed baseline"
verdict="$(mktemp /tmp/spfc-verdict.XXXXXX.json)"
cargo run --release -p sp-cli -- bench check \
  --baseline-dir "$bench_baseline" --current-dir results --json-out "$verdict"
grep -q '"passed":true' "$verdict"
# The gate must actually gate: collapse the simd columns in a scratch copy
# of the fresh artifact and require a nonzero exit that names the metric.
corrupt="$(mktemp -d /tmp/spfc-bench-corrupt.XXXXXX)"
sed -E 's/("backend":"simd"[^}]*"iters_per_sec":)[0-9.eE+-]+/\11.0/g' \
  results/BENCH_runtime.json > "$corrupt/BENCH_runtime.json"
if cargo run --release -q -p sp-cli -- bench check \
  --baseline-dir "$bench_baseline" --current-dir "$corrupt" > "$verdict" 2>&1; then
  echo "FAIL: bench check passed an injected regression"
  exit 1
fi
grep -q 'FAIL runtime.jacobi.simd.iters_per_sec' "$verdict"
rm -rf "$corrupt" "$verdict" "$bench_baseline"

echo "==> ci.sh: all green"
