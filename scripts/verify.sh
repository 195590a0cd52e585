#!/usr/bin/env bash
# Tier-1 verification gate: build, test, format, lint, plus the
# behavioral stages (determinism, tracing, serve, substrate, bench).
# Usage: scripts/verify.sh [--no-clippy] [STAGE...]
#
# With no STAGE arguments every stage runs.  Naming stages runs just
# those (e.g. `scripts/verify.sh build serve bench`); stage names:
#   build test fmt clippy check fuzz pool tracing serve substrate grid
#   kernel bench
#
# Hermetic by design — no network, no external dependencies.  The
# proptest/criterion targets are feature-gated (`ext-tests`) and excluded
# here; see the workspace Cargo.toml for how to restore them.
set -euo pipefail
cd "$(dirname "$0")/.."

all_stages="build test fmt clippy check fuzz pool tracing serve substrate grid kernel bench"
no_clippy=""
stages=()
for arg in "$@"; do
  case "$arg" in
    --no-clippy) no_clippy=1 ;;
    -*) echo "usage: scripts/verify.sh [--no-clippy] [STAGE...]" >&2; exit 1 ;;
    *)
      case " $all_stages " in
        *" $arg "*) stages+=("$arg") ;;
        *) echo "unknown stage \`$arg\` (want: $all_stages)" >&2; exit 1 ;;
      esac ;;
  esac
done

# want STAGE — does this run include STAGE?
want() {
  [[ ${#stages[@]} -eq 0 ]] && return 0
  local s
  for s in "${stages[@]}"; do [[ "$s" == "$1" ]] && return 0; done
  return 1
}

det_dir=$(mktemp -d)
trap 'rm -rf "$det_dir"' EXIT

if want build; then
  echo "== cargo build --release =="
  cargo build --release --workspace
fi

if want test; then
  echo "== cargo test =="
  cargo test --workspace -q
fi

if want fmt; then
  echo "== cargo fmt --check =="
  cargo fmt --all -- --check
fi

if want clippy && [[ -z "$no_clippy" ]]; then
  # Probe first: clippy is a rustup component, not part of a bare cargo
  # install, and the gate must stay runnable on toolchains without it.
  if cargo clippy --version > /dev/null 2>&1; then
    echo "== cargo clippy =="
    cargo clippy --workspace --all-targets -- -D warnings
  else
    echo "== cargo clippy == (skipped: clippy not installed)"
  fi
fi

if want check; then
  echo "== check: corpus replay + differential oracle (mcds-check) =="
  # Replays tests/corpus/*.case first, then >= 500 fresh random instances
  # against the exact solver; also diffs corpus replay at 1 vs 4 threads.
  cargo test --quiet --release -p mcds --test differential
fi

if want fuzz; then
  echo "== check: bounded fuzz smoke (${MCDS_CHECK_FUZZ_SECS:-30}s, fixed seed) =="
  cargo test --quiet --release -p mcds --test differential -- \
    --ignored fuzz_smoke_bounded
fi

if want pool; then
  echo "== pool determinism: sweep + exp_compare CSVs at --threads 1 vs 4 =="
  cargo run --quiet --release -p mcds-cli -- sweep --n 60 --side 4.5 --trials 5 \
    --seed 11 --threads 1 --out "$det_dir/sweep_t1.csv" > /dev/null
  cargo run --quiet --release -p mcds-cli -- sweep --n 60 --side 4.5 --trials 5 \
    --seed 11 --threads 4 --out "$det_dir/sweep_t4.csv" > /dev/null
  diff "$det_dir/sweep_t1.csv" "$det_dir/sweep_t4.csv"
  cargo run --quiet --release -p mcds-bench --bin exp_compare -- --quick \
    --threads 1 --out "$det_dir/t1" > /dev/null
  cargo run --quiet --release -p mcds-bench --bin exp_compare -- --quick \
    --threads 4 --out "$det_dir/t4" > /dev/null
  diff "$det_dir/t1/exp_compare.csv" "$det_dir/t4/exp_compare.csv"
  echo "CSVs byte-identical at both widths"
fi

if want tracing; then
  echo "== tracing: schema-valid JSONL, identical solve output on vs off =="
  cargo run --quiet --release -p mcds-cli -- gen --n 200 --side 7.9 --seed 7 \
    --connected -o "$det_dir/trace.udg" > /dev/null
  cargo run --quiet --release -p mcds-cli -- solve "$det_dir/trace.udg" \
    --alg all --prune > "$det_dir/solve_plain.txt"
  cargo run --quiet --release -p mcds-cli -- solve "$det_dir/trace.udg" \
    --alg all --prune --trace "$det_dir/trace.jsonl" --quiet > "$det_dir/solve_traced.txt"
  diff "$det_dir/solve_plain.txt" "$det_dir/solve_traced.txt"
  cargo run --quiet --release -p mcds-cli -- trace check "$det_dir/trace.jsonl"
  cargo run --quiet --release -p mcds-cli -- trace summarize "$det_dir/trace.jsonl" \
    > "$det_dir/summary.txt"
  # The phase spans must account for >= 95% of root-span wall time.
  coverage=$(awk 'END { gsub(/%/, "", $NF); print $NF }' "$det_dir/summary.txt")
  awk -v c="$coverage" 'BEGIN { exit !(c >= 95.0) }' || {
    echo "span coverage $coverage% < 95%" >&2; exit 1; }
  echo "solve output identical with tracing on; trace valid, coverage $coverage%"
  # Flame attribution: per-label self times must reconstruct >= 99% of
  # root-span wall time (the folding identity), and both the collapsed
  # stacks and the SVG must materialize.
  cargo run --quiet --release -p mcds-cli -- trace flame "$det_dir/trace.jsonl" \
    --folded "$det_dir/trace.folded" --svg "$det_dir/trace.svg" \
    > "$det_dir/flame.txt"
  [[ -s "$det_dir/trace.folded" && -s "$det_dir/trace.svg" ]] || {
    echo "trace flame did not write folded/SVG outputs" >&2; exit 1; }
  attributed=$(awk '/^attributed /{ gsub(/[()%]/, "", $NF); print $NF }' \
    "$det_dir/flame.txt")
  awk -v a="$attributed" 'BEGIN { exit !(a >= 99.0) }' || {
    echo "flame attribution $attributed% < 99%" >&2; exit 1; }
  echo "flame attribution $attributed% of root wall; folded + SVG written"
fi

if want serve; then
  echo "== serve: JSONL solve byte-identical to batch, HTTP /metrics shim =="
  cargo run --quiet --release -p mcds-cli -- gen --n 80 --side 5.0 --seed 21 \
    --connected -o "$det_dir/serve.udg" > /dev/null
  cargo run --quiet --release -p mcds-cli -- solve "$det_dir/serve.udg" \
    --alg greedy --json > "$det_dir/solve_batch.json"
  cargo run --quiet --release -p mcds-cli -- serve "$det_dir/serve.udg" \
    --addr 127.0.0.1:0 > "$det_dir/serve_out.txt" &
  serve_pid=$!
  # The daemon prints exactly one `listening on HOST:PORT` line once bound;
  # poll for it rather than racing the ephemeral-port assignment.
  addr=""
  for _ in $(seq 1 100); do
    addr=$(awk '/^listening on /{print $3; exit}' "$det_dir/serve_out.txt")
    [[ -n "$addr" ]] && break
    sleep 0.1
  done
  [[ -n "$addr" ]] || { echo "daemon never reported its address" >&2; exit 1; }
  # Session 1: JSONL solve before any HTTP traffic.
  printf '%s\n' '{"op":"solve","alg":"greedy"}' \
    | cargo run --quiet --release -p mcds-cli -- serve --connect "$addr" \
    | head -n 1 > "$det_dir/solve_daemon_pre.json"
  diff "$det_dir/solve_batch.json" "$det_dir/solve_daemon_pre.json"
  # Curl-style raw HTTP against the same port (no curl in the image:
  # bash /dev/tcp gives us a plain TCP file descriptor).
  host=${addr%:*}; port=${addr##*:}
  exec 3<>"/dev/tcp/$host/$port"
  printf 'GET /metrics HTTP/1.1\r\nHost: %s\r\nAccept: */*\r\n\r\n' "$addr" >&3
  metrics_response=$(cat <&3)
  exec 3<&- 3>&-
  grep -q $'^HTTP/1.1 200 OK\r$' <<< "$metrics_response" || {
    echo "GET /metrics did not return 200" >&2; exit 1; }
  grep -q '^# TYPE mcds_serve_connections_total counter$' <<< "${metrics_response//$'\r'/}" || {
    echo "/metrics body lacks Prometheus exposition" >&2; exit 1; }
  exec 3<>"/dev/tcp/$host/$port"
  printf 'GET /nope HTTP/1.1\r\nHost: %s\r\n\r\n' "$addr" >&3
  notfound_response=$(cat <&3)
  exec 3<&- 3>&-
  grep -q $'^HTTP/1.1 404 Not Found\r$' <<< "$notfound_response" || {
    echo "GET /nope did not return 404" >&2; exit 1; }
  # Session 2: JSONL solve after the HTTP scrapes must stay
  # byte-identical, then a clean shutdown.
  printf '%s\n%s\n' \
    '{"op":"solve","alg":"greedy"}' \
    '{"op":"shutdown"}' \
    | cargo run --quiet --release -p mcds-cli -- serve --connect "$addr" \
    > "$det_dir/serve_session.txt"
  head -n 1 "$det_dir/serve_session.txt" > "$det_dir/solve_daemon_post.json"
  diff "$det_dir/solve_batch.json" "$det_dir/solve_daemon_post.json"
  wait "$serve_pid"
  echo "JSONL solve byte-identical before and after /metrics scrapes; clean shutdown"
fi

if want substrate; then
  echo "== substrate: compact backend byte-identical to CSR, E23 smoke =="
  cargo run --quiet --release -p mcds-cli -- gen --n 150 --side 6.5 --seed 23 \
    --connected -o "$det_dir/substrate.udg" > /dev/null
  cargo run --quiet --release -p mcds-cli -- solve "$det_dir/substrate.udg" \
    --alg all --prune --json > "$det_dir/solve_csr.json"
  cargo run --quiet --release -p mcds-cli -- solve "$det_dir/substrate.udg" \
    --alg all --prune --json --backend compact > "$det_dir/solve_compact.json"
  diff "$det_dir/solve_csr.json" "$det_dir/solve_compact.json"
  echo "solve --json byte-identical on both backends"
  # Bounded E23 smoke: streaming build + cross-backend solve + the >= 3x
  # adjacency compression gate, at quick-ladder sizes.
  cargo run --quiet --release -p mcds-bench --bin exp_substrate -- --quick \
    > /dev/null
fi

if want grid; then
  echo "== grid vs naive speedup smoke (n=20k, release) =="
  cargo test --quiet --release -p mcds-udg --test grid_equivalence -- \
    --ignored grid_beats_naive_5x_at_20k
fi

if want kernel; then
  echo "== kernel: production kernels vs scalar references, solve --json digests =="
  # The phase-2 and prune kernels must match the scalar references in
  # mcds_check::oracle (DESIGN.md section 14) ...
  cargo test --quiet --release -p mcds-cds --test kernel_equiv
  # ... and solve --json (every algorithm, prune on) must keep the bytes
  # recorded in results/kernel_solve.sha256 at three sizes: n = 200,
  # 1500 and 9000.
  for spec in "200 7.9 31" "1500 21.7 32" "9000 38 33"; do
    read -r kn kside kseed <<< "$spec"
    cargo run --quiet --release -p mcds-cli -- gen --n "$kn" --side "$kside" \
      --seed "$kseed" --connected -o "$det_dir/kernel_$kn.udg" > /dev/null
    cargo run --quiet --release -p mcds-cli -- solve "$det_dir/kernel_$kn.udg" \
      --alg all --prune --json > "$det_dir/kernel_$kn.json"
  done
  (cd "$det_dir" && sha256sum --check --strict "$OLDPWD/results/kernel_solve.sha256")
  echo "kernel_equiv passes; solve --json matches the recorded digests at n=200, 1500, 9000"
fi

if want bench; then
  echo "== bench: perf-trajectory record/compare regression gate =="
  # A quick profile ladder produces a real BENCH_profile.json; recording
  # it twice yields ~1.0x ratios (pass), and a --scale-wall 2.0 fixture
  # entry must trip the gate.
  cargo run --quiet --release -p mcds-bench --bin exp_profile -- --quick \
    --out "$det_dir/bench" > /dev/null
  cargo run --quiet --release -p mcds-bench --bin exp_hotpath -- --quick \
    --out "$det_dir/bench" > /dev/null
  traj="$det_dir/bench/BENCH_trajectory.jsonl"
  cargo run --quiet --release -p mcds-bench --bin trajectory -- record \
    --dir "$det_dir/bench" --out "$traj" > /dev/null
  grep -q '"hotpath"' "$traj" || {
    echo "recorded trajectory line lacks the hotpath bench" >&2; exit 1; }
  cargo run --quiet --release -p mcds-bench --bin trajectory -- record \
    --dir "$det_dir/bench" --out "$traj" > /dev/null
  cargo run --quiet --release -p mcds-bench --bin trajectory -- check \
    --file "$traj"
  cargo run --quiet --release -p mcds-bench --bin trajectory -- compare \
    --file "$traj"
  cargo run --quiet --release -p mcds-bench --bin trajectory -- record \
    --dir "$det_dir/bench" --out "$traj" --scale-wall 2.0 > /dev/null
  if cargo run --quiet --release -p mcds-bench --bin trajectory -- compare \
    --file "$traj" > /dev/null 2>&1; then
    echo "trajectory compare failed to flag a synthetic 2x slowdown" >&2
    exit 1
  fi
  echo "trajectory gate passes on a steady run and flags the 2x fixture"
  # The committed ledger (appended after full experiment runs; see
  # EXPERIMENTS.md E24) must stay schema-valid.
  if [[ -f results/BENCH_trajectory.jsonl ]]; then
    cargo run --quiet --release -p mcds-bench --bin trajectory -- check \
      --file results/BENCH_trajectory.jsonl
  fi
fi

echo "verify: all requested stages passed"
