#!/usr/bin/env bash
# Tier-1 gate: configure, build, run the full test suite, then run the
# seed-sweep bench in --quick mode (which doubles as the determinism gate:
# pooled and sequential runs of the same seeds must produce identical
# event-trace hashes), then the trace self-check (record the same seed twice,
# trace_diff must report identical; record a mutated seed, trace_diff must
# localize a first divergence), the metrics self-check (byte-identical
# reports for identical configs; metrics_report flags a seed mutation), the
# metrics-overhead gate (probes with no registry attached must stay within
# 5% of a GAM_METRICS=OFF build on e3_mu_k16), and finally the buffer/trace/
# metrics/monitor regression tests under AddressSanitizer, the net gates and
# the benchmark's own tests (perfbench/run.py --test).
#
# Usage:
#   scripts/tier1.sh                 # plain RelWithDebInfo gate
#   GAM_SANITIZE=thread scripts/tier1.sh   # sanitized gate (own build dir);
#                                    # the thread build gates the sweep pool.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build
CMAKE_ARGS=()
if [[ -n "${GAM_SANITIZE:-}" ]]; then
  BUILD_DIR="build-${GAM_SANITIZE}"
  CMAKE_ARGS+=("-DGAM_SANITIZE=${GAM_SANITIZE}")
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure
"$BUILD_DIR"/bench/bench_sweep --quick --out="$BUILD_DIR"/BENCH_sim_quick.json

# Trace self-check: the recorded event stream must be byte-reproducible for a
# fixed seed, and trace_diff must localize an injected divergence (different
# seed base) rather than merely flag it.
TRACE_DIR="$BUILD_DIR/trace-selfcheck"
rm -rf "$TRACE_DIR" && mkdir -p "$TRACE_DIR"
"$BUILD_DIR"/bench/bench_sweep --quick --seeds=1 \
  --out="$TRACE_DIR"/a.json --trace="$TRACE_DIR"/a >/dev/null
"$BUILD_DIR"/bench/bench_sweep --quick --seeds=1 \
  --out="$TRACE_DIR"/b.json --trace="$TRACE_DIR"/b >/dev/null
"$BUILD_DIR"/bench/bench_sweep --quick --seeds=1 --seed-base=2 \
  --out="$TRACE_DIR"/c.json --trace="$TRACE_DIR"/c >/dev/null
for cfg in e3_mu_k16 e3_mu_k64 e3_mu_hirate_base e3_mu_hirate_batched \
           world_paxos_k8 figure1_crashes e3_mu_wide128; do
  "$BUILD_DIR"/tools/trace_diff \
    "$TRACE_DIR/a.$cfg.trace" "$TRACE_DIR/b.$cfg.trace" >/dev/null \
    || { echo "tier1: FAIL — same-seed traces diverge ($cfg)"; exit 1; }
done
if "$BUILD_DIR"/tools/trace_diff \
    "$TRACE_DIR/a.world_paxos_k8.trace" "$TRACE_DIR/c.world_paxos_k8.trace" \
    >/dev/null; then
  echo "tier1: FAIL — trace_diff missed a seed mutation"
  exit 1
fi
echo "tier1: trace self-check OK"

# Legacy byte-identity gate: every <=64-process configuration must keep
# producing the exact event trace recorded at the seed revision — the
# widened id space (multi-word ProcessSet, GroupPairIndex log layout,
# two-tier ballot stride) has to be byte-invisible below the old ceiling.
# scripts/golden_trace_hashes.txt pins (events, hash) per config; regenerate
# it ONLY for an intentional wire/trace change.
# check_golden GOLDEN_FILE TRACE_PREFIX: every config the file names must
# have recorded exactly its pinned trace header under TRACE_PREFIX.
check_golden() {
  while read -r cfg events hash; do
    [[ "$cfg" =~ ^#.*$ || -z "$cfg" ]] && continue
    header=$(head -n1 "$2.$cfg.trace")
    want="# gam-trace v1 events=$events hash=$hash"
    [[ "$header" == "$want" ]] \
      || { echo "tier1: FAIL — $cfg trace differs from its golden ($1)"; \
           echo "  want: $want"; echo "  got:  $header"; exit 1; }
  done < "$1"
}
check_golden scripts/golden_trace_hashes.txt "$TRACE_DIR/a"
echo "tier1: legacy trace byte-identity gate OK"

# Wide byte-identity gate: e3_mu_wide128 is the only gated config above 64
# groups, so it is the one the sparse (g,h) layout of logs, Σ oracles and
# per-process state could move. scripts/golden_trace_hashes_wide.txt pins it.
check_golden scripts/golden_trace_hashes_wide.txt "$TRACE_DIR/a"
echo "tier1: wide trace byte-identity gate OK"

# Windowed byte-identity gate: the goldens above run batch 1 / window 1, where
# UniversalLog never claims a batch or re-drives an instance. whitebox and
# generic at batch 16 / window 8 do, so their pinned traces hold the log's
# pipelined paths to the same wire.
"$BUILD_DIR"/bench/bench_sweep --quick --seeds=1 --batch=16 --window=8 \
  --protocol=whitebox --protocol=generic \
  --out="$TRACE_DIR"/win.json --trace="$TRACE_DIR"/win >/dev/null
check_golden scripts/golden_trace_hashes_windowed.txt "$TRACE_DIR/win"
echo "tier1: windowed trace byte-identity gate OK"

# Wide-topology gate (widened id space): the 128-group / 256-process smoke
# config must sweep deterministically (bench_sweep's internal gate) with the
# invariant monitors clean on its recorded seed. The sweep exits nonzero on
# either failure; the summary check below additionally proves the monitors
# actually consumed the wide trace rather than vacuously passing.
WIDE_DIR="$BUILD_DIR/wide-smoke"
rm -rf "$WIDE_DIR" && mkdir -p "$WIDE_DIR"
"$BUILD_DIR"/bench/bench_sweep --quick --seeds=2 \
  --out="$WIDE_DIR"/wide.json --metrics="$WIDE_DIR"/wide.metrics.json \
  >/dev/null \
  || { echo "tier1: FAIL — wide sweep (determinism or monitors)"; exit 1; }
python3 - "$WIDE_DIR"/wide.json <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
m = rep["metrics"]["e3_mu_wide128"]
assert m["monitor_violations"] == 0, m
assert m["monitor_events"] > 0, m
if rep.get("metrics_compiled") == "on":
    assert m["deliveries"] > 0, m
print(f"tier1: wide smoke — {m['monitor_events']} monitored events, "
      f"0 violations, {m['deliveries']} deliveries")
EOF
echo "tier1: wide-topology gate OK"

# Engine-equivalence gate: the scan and incremental guard engines must record
# byte-identical event traces for the Algorithm-1 configurations (the World
# config does not run MuMulticast and is skipped). trace_diff localizes the
# first divergent event on failure.
"$BUILD_DIR"/bench/bench_sweep --quick --seeds=1 --engine=scan \
  --out="$TRACE_DIR"/scan.json --trace="$TRACE_DIR"/scan >/dev/null
for cfg in e3_mu_k16 e3_mu_k64 e3_mu_hirate_base e3_mu_hirate_batched \
           figure1_crashes e3_mu_wide128; do
  "$BUILD_DIR"/tools/trace_diff \
    "$TRACE_DIR/a.$cfg.trace" "$TRACE_DIR/scan.$cfg.trace" \
    || { echo "tier1: FAIL — scan vs incremental engines diverge ($cfg)"; \
         exit 1; }
done
echo "tier1: engine-equivalence gate OK"

# Batching equivalence gate (ISSUE 6): explicit batch_k=1/window_size=1 flags
# must reproduce the default traces byte for byte (the knobs default to
# today's behavior), and a heavily batched run must itself be engine-stable —
# scan and incremental may not disagree about macro-step contents. trace_diff
# localizes the first divergent event on a mismatch.
"$BUILD_DIR"/bench/bench_sweep --quick --seeds=1 --batch=1 --window=1 \
  --out="$TRACE_DIR"/unit.json --trace="$TRACE_DIR"/unit >/dev/null
for cfg in e3_mu_k16 e3_mu_k64 world_paxos_k8 figure1_crashes; do
  "$BUILD_DIR"/tools/trace_diff \
    "$TRACE_DIR/a.$cfg.trace" "$TRACE_DIR/unit.$cfg.trace" \
    || { echo "tier1: FAIL — batch=1/window=1 diverges from default ($cfg)"; \
         exit 1; }
done
"$BUILD_DIR"/bench/bench_sweep --quick --seeds=1 --batch=16 --window=8 \
  --out="$TRACE_DIR"/batinc.json --trace="$TRACE_DIR"/batinc >/dev/null
"$BUILD_DIR"/bench/bench_sweep --quick --seeds=1 --batch=16 --window=8 \
  --engine=scan \
  --out="$TRACE_DIR"/batscan.json --trace="$TRACE_DIR"/batscan >/dev/null
for cfg in e3_mu_k16 e3_mu_k64 figure1_crashes; do
  "$BUILD_DIR"/tools/trace_diff \
    "$TRACE_DIR/batinc.$cfg.trace" "$TRACE_DIR/batscan.$cfg.trace" \
    || { echo "tier1: FAIL — engines diverge at batch=16/window=8 ($cfg)"; \
         exit 1; }
done
echo "tier1: batching equivalence gate OK"

# Adversary engine-equivalence: the scan/incremental identity must also hold
# under an adversarial schedule, not just the uniform-random default — the
# guard engines may not disagree about which actions a hostile interleaving
# enables.
"$BUILD_DIR"/bench/bench_sweep --quick --seeds=1 --adversary=pct:3 \
  --out="$TRACE_DIR"/advinc.json --trace="$TRACE_DIR"/adv.pct3 >/dev/null
"$BUILD_DIR"/bench/bench_sweep --quick --seeds=1 --adversary=pct:3 \
  --engine=scan \
  --out="$TRACE_DIR"/advscan.json --trace="$TRACE_DIR"/advscan >/dev/null
for cfg in e3_mu_k16 e3_mu_k64 e3_mu_hirate_base e3_mu_hirate_batched \
           figure1_crashes; do
  "$BUILD_DIR"/tools/trace_diff \
    "$TRACE_DIR/adv.pct3.$cfg.trace" "$TRACE_DIR/advscan.$cfg.trace" \
    || { echo "tier1: FAIL — engines diverge under pct:3 adversary ($cfg)"; \
         exit 1; }
done
echo "tier1: adversary engine-equivalence gate OK"

# Adversary byte-identity gate: both engines above could move together, and
# no other pin runs Algorithm 1 under PCT or the baselines at all.
# scripts/golden_trace_hashes_adversary.txt pins the pct:3 traces of the six
# Algorithm-1 configs and the default-order traces of skeen and broadcast.
"$BUILD_DIR"/bench/bench_sweep --quick --seeds=1 \
  --protocol=skeen --protocol=broadcast \
  --out="$TRACE_DIR"/advrand.json --trace="$TRACE_DIR"/adv.random >/dev/null
check_golden scripts/golden_trace_hashes_adversary.txt "$TRACE_DIR/adv"
echo "tier1: adversary trace byte-identity gate OK"

# Adversary smoke: on the honest protocol every hunt strategy must come back
# clean — the monitors may not cry wolf under hostile schedules or
# quorum-boundary crash patterns.
"$BUILD_DIR"/tools/adversary_hunt --quick \
  --out="$BUILD_DIR"/adversary_hunt \
  || { echo "tier1: FAIL — adversary hunt flagged the honest protocol"; \
       exit 1; }
echo "tier1: adversary smoke OK"

# Metrics self-check: a --metrics report is a pure function of (config, seed
# base) — two identical invocations must produce byte-identical reports, and
# metrics_report must both read its own output and flag a seed mutation as a
# non-empty diff (exit 1).
METRICS_DIR="$BUILD_DIR/metrics-selfcheck"
rm -rf "$METRICS_DIR" && mkdir -p "$METRICS_DIR"
"$BUILD_DIR"/bench/bench_sweep --quick \
  --out="$METRICS_DIR"/a.json --metrics="$METRICS_DIR"/a.metrics.json >/dev/null
"$BUILD_DIR"/bench/bench_sweep --quick \
  --out="$METRICS_DIR"/b.json --metrics="$METRICS_DIR"/b.metrics.json >/dev/null
cmp "$METRICS_DIR"/a.metrics.json "$METRICS_DIR"/b.metrics.json \
  || { echo "tier1: FAIL — same-config metrics reports are not byte-identical"; \
       exit 1; }
"$BUILD_DIR"/tools/metrics_report "$METRICS_DIR"/a.metrics.json >/dev/null \
  || { echo "tier1: FAIL — metrics_report cannot read its own report"; exit 1; }
"$BUILD_DIR"/bench/bench_sweep --quick --seed-base=2 \
  --out="$METRICS_DIR"/c.json --metrics="$METRICS_DIR"/c.metrics.json >/dev/null
if "$BUILD_DIR"/tools/metrics_report --diff --threshold=0 --quiet \
    "$METRICS_DIR"/a.metrics.json "$METRICS_DIR"/c.metrics.json; then
  echo "tier1: FAIL — metrics_report missed a seed mutation"
  exit 1
fi
echo "tier1: metrics self-check OK"

# Span self-check gate (ISSUE 9): span capture is a pure function of (config,
# seed) — two identical seeded runs must produce byte-identical span files and
# byte-identical span_report output (text and JSON) — and the report must
# reconstruct a complete timeline for every delivery (span_report exits
# nonzero on orphans). The python pass cross-validates the two instruments:
# the span-side deliver-latency sum must match the deliver_latency histogram
# total within 1% (they agree exactly today; 1% leaves slack for benign probe
# placement changes without letting the instruments drift apart).
SPAN_DIR="$BUILD_DIR/span-selfcheck"
rm -rf "$SPAN_DIR" && mkdir -p "$SPAN_DIR"
"$BUILD_DIR"/bench/bench_sweep --quick --seeds=1 \
  --out="$SPAN_DIR"/a.json --metrics="$SPAN_DIR"/a.metrics.json \
  --spans="$SPAN_DIR"/a >/dev/null
"$BUILD_DIR"/bench/bench_sweep --quick --seeds=1 \
  --out="$SPAN_DIR"/b.json --metrics="$SPAN_DIR"/b.metrics.json \
  --spans="$SPAN_DIR"/b >/dev/null
for cfg in e3_mu_k16 e3_mu_k64 e3_mu_hirate_base e3_mu_hirate_batched \
           figure1_crashes e3_mu_wide128; do
  cmp "$SPAN_DIR/a.$cfg.spans" "$SPAN_DIR/b.$cfg.spans" \
    || { echo "tier1: FAIL — same-seed span files differ ($cfg)"; exit 1; }
  "$BUILD_DIR"/tools/span_report "$SPAN_DIR/a.$cfg.spans" \
      --json="$SPAN_DIR/a.$cfg.report.json" >"$SPAN_DIR/a.$cfg.report.txt" \
    || { echo "tier1: FAIL — span_report orphans or I/O error ($cfg)"; exit 1; }
  "$BUILD_DIR"/tools/span_report "$SPAN_DIR/b.$cfg.spans" \
      --json="$SPAN_DIR/b.$cfg.report.json" >"$SPAN_DIR/b.$cfg.report.txt" \
    || { echo "tier1: FAIL — span_report orphans or I/O error ($cfg)"; exit 1; }
  # The first text line echoes the input path (differs by construction);
  # everything after it, and the whole JSON report, must be byte-identical.
  { cmp <(tail -n +2 "$SPAN_DIR/a.$cfg.report.txt") \
        <(tail -n +2 "$SPAN_DIR/b.$cfg.report.txt") \
      && cmp "$SPAN_DIR/a.$cfg.report.json" "$SPAN_DIR/b.$cfg.report.json"; } \
    || { echo "tier1: FAIL — span_report output not reproducible ($cfg)"; \
         exit 1; }
done
python3 - "$SPAN_DIR" <<'EOF'
import json, os, sys
d = sys.argv[1]
rep = json.load(open(os.path.join(d, "a.json")))
if rep.get("metrics_compiled") != "on":
    print("tier1: span cross-check skipped (metrics compiled out)")
    sys.exit(0)
met = json.load(open(os.path.join(d, "a.metrics.json")))
by_name = {c["name"]: c for c in met["configs"]}
checked = 0
for cfg in ["e3_mu_k16", "e3_mu_k64", "e3_mu_hirate_base",
            "e3_mu_hirate_batched", "figure1_crashes", "e3_mu_wide128"]:
    sp = json.load(open(os.path.join(d, f"a.{cfg}.report.json")))
    hists = [h for h in by_name[cfg]["histograms"]
             if h["name"] == "deliver_latency"]
    want_sum = sum(h["sum"] for h in hists)
    want_count = sum(h["count"] for h in hists)
    assert sp["orphans"] == 0, (cfg, sp["orphans"])
    assert sp["deliveries"] == want_count, (cfg, sp["deliveries"], want_count)
    assert 0.99 * want_sum <= sp["deliver_latency_sum"] <= 1.01 * want_sum, \
        (cfg, sp["deliver_latency_sum"], want_sum)
    checked += 1
print(f"tier1: span cross-check — {checked} configs, span latency sums match"
      f" the deliver_latency histograms within 1%")
EOF
echo "tier1: span self-check gate OK"

# Convoy-wait threshold gate (ISSUE 6): the high-rate pair in the sweep pits
# batch_k=1/window_size=1 against batch_k=16/window_size=8 on the same
# workload. Batching must keep paying for itself — the per-message convoy
# wait and delivery latency must stay at least 10x below the unbatched
# baseline, and the batched convoy-wait mean may not regress above an
# absolute ceiling (measured 1.0 at the seed of this gate; 2.0 leaves slack
# for workload-neutral tweaks without letting a convoy creep back in).
if ! python3 - "$METRICS_DIR"/a.json <<'EOF'
import json, sys
rep = json.load(open(sys.argv[1]))
if "metrics" not in rep:
    print("tier1: convoy gate skipped (metrics compiled out)")
    sys.exit(0)
base = rep["metrics"]["e3_mu_hirate_base"]
bat = rep["metrics"]["e3_mu_hirate_batched"]
# Raw means, not the hirate_*_ratio fields: those go null when the batched
# mean is exactly 0 (a perfect score must not read as a skip).
ok = (bat["deliver_latency_mean"] * 10 <= base["deliver_latency_mean"]
      and bat["convoy_wait_mean"] * 10 <= base["convoy_wait_mean"]
      and bat["convoy_wait_mean"] <= 2.0)
print(f"tier1: convoy gate — latency {base['deliver_latency_mean']:.1f} -> "
      f"{bat['deliver_latency_mean']:.1f}, convoy {base['convoy_wait_mean']:.1f}"
      f" -> {bat['convoy_wait_mean']:.3f}")
sys.exit(0 if ok else 1)
EOF
then
  echo "tier1: FAIL — convoy_wait regressed vs the batched baseline"
  exit 1
fi
echo "tier1: convoy-wait threshold gate OK"

# Metrics-overhead gate: with no registry attached the probes must cost under
# 5% of e3_mu_k16 single-thread throughput vs a -DGAM_METRICS=OFF build
# (compiled out entirely). The span probes ride the same switch, so the gate
# also reads e3_mu_hirate_batched (the probe-densest config: batch, pipeline,
# and span milestones all fire there) against the same 5% ceiling — that is
# the ISSUE 9 span-probe overhead gate. Best-of-3, interleaved, to ride out
# scheduler noise; skipped under sanitizers where throughput is meaningless.
if [[ -z "${GAM_SANITIZE:-}" ]]; then
  NOMETRICS_DIR=build-nometrics
  cmake -B "$NOMETRICS_DIR" -S . -DGAM_METRICS=OFF >/dev/null
  cmake --build "$NOMETRICS_DIR" -j "$(nproc)" --target bench_sweep
  steps_per_sec() {
    python3 -c "import json,sys; \
print(next(s['steps_per_sec'] for s in json.load(open(sys.argv[1]))['sweeps'] \
if s['name']==sys.argv[2]))" "$1" "$2"
  }
  best_off=0 best_on=0 hb_off=0 hb_on=0
  for _ in 1 2 3; do
    "$NOMETRICS_DIR"/bench/bench_sweep --seeds=512 --threads=1 \
      --out="$METRICS_DIR"/overhead.json >/dev/null
    v=$(steps_per_sec "$METRICS_DIR"/overhead.json e3_mu_k16_seq)
    best_off=$(python3 -c "print(max($best_off, $v))")
    v=$(steps_per_sec "$METRICS_DIR"/overhead.json e3_mu_hirate_batched_seq)
    hb_off=$(python3 -c "print(max($hb_off, $v))")
    "$BUILD_DIR"/bench/bench_sweep --seeds=512 --threads=1 \
      --out="$METRICS_DIR"/overhead.json >/dev/null
    v=$(steps_per_sec "$METRICS_DIR"/overhead.json e3_mu_k16_seq)
    best_on=$(python3 -c "print(max($best_on, $v))")
    v=$(steps_per_sec "$METRICS_DIR"/overhead.json e3_mu_hirate_batched_seq)
    hb_on=$(python3 -c "print(max($hb_on, $v))")
  done
  ratio=$(python3 -c "print('%.4f' % ($best_on / $best_off))")
  hb_ratio=$(python3 -c "print('%.4f' % ($hb_on / $hb_off))")
  echo "tier1: metrics overhead — e3_mu_k16 steps/s: OFF=$best_off ON=$best_on (ON/OFF=$ratio)"
  echo "tier1: span-probe overhead — e3_mu_hirate_batched steps/s: OFF=$hb_off ON=$hb_on (ON/OFF=$hb_ratio)"
  python3 -c "exit(0 if $best_on / $best_off >= 0.95 else 1)" \
    || { echo "tier1: FAIL — metrics probes cost more than 5% (ON/OFF=$ratio)"; \
         exit 1; }
  python3 -c "exit(0 if $hb_on / $hb_off >= 0.95 else 1)" \
    || { echo "tier1: FAIL — span probes cost more than 5% on the batched" \
              "config (ON/OFF=$hb_ratio)"; exit 1; }
  echo "tier1: metrics-overhead gate OK"
fi

# The buffer/scheduler regression tests (out-of-bounds destination,
# swap-and-pop vs FIFO-head interaction) and the engine-equivalence sweep
# exist to be run under ASan; do that here when the main gate is unsanitized
# so the plain gate still covers them.
if [[ -z "${GAM_SANITIZE:-}" ]]; then
  ASAN_DIR=build-address
  cmake -B "$ASAN_DIR" -S . -DGAM_SANITIZE=address >/dev/null
  cmake --build "$ASAN_DIR" -j "$(nproc)" \
    --target test_message_buffer test_sim_trace test_engine_equivalence \
             test_metrics test_monitors test_adversary
  cmake --build "$ASAN_DIR" -j "$(nproc)" --target test_net
  "$ASAN_DIR"/tests/test_message_buffer
  "$ASAN_DIR"/tests/test_sim_trace
  "$ASAN_DIR"/tests/test_engine_equivalence
  "$ASAN_DIR"/tests/test_metrics
  "$ASAN_DIR"/tests/test_monitors
  "$ASAN_DIR"/tests/test_adversary
  "$ASAN_DIR"/tests/test_net
  echo "tier1: ASan regression tests OK"
fi

# Planted-bug teeth gate: a build with -DGAM_PLANTED_BUG=ON (one deliberately
# weakened delivery guard in MuMulticast) must be caught — the hunt must exit
# nonzero and name the violating event index, and the planted test_adversary
# must pass its detection+replay gate. Runs under ASan so the replay and
# planted-bug paths are also memory-checked. The honest smoke above proves
# the other polarity: no false alarms.
if [[ -z "${GAM_SANITIZE:-}" ]]; then
  PLANTED_DIR=build-planted
  cmake -B "$PLANTED_DIR" -S . -DGAM_PLANTED_BUG=ON -DGAM_SANITIZE=address \
    >/dev/null
  cmake --build "$PLANTED_DIR" -j "$(nproc)" \
    --target adversary_hunt test_adversary gam_loadgen
  "$PLANTED_DIR"/tests/test_adversary
  PLANTED_OUT=$("$PLANTED_DIR"/tools/adversary_hunt --seeds=256 \
    --out="$PLANTED_DIR"/adversary_hunt) && {
    echo "tier1: FAIL — planted bug survived 256 seeds of every strategy";
    exit 1;
  }
  echo "$PLANTED_OUT" | grep -q "event " || {
    echo "tier1: FAIL — planted-bug violation lacks an event index";
    exit 1;
  }
  echo "$PLANTED_OUT" | grep -q "reproduces (event hash identical)" || {
    echo "tier1: FAIL — planted-bug schedule did not replay byte-identically";
    exit 1;
  }
  echo "tier1: planted-bug teeth gate OK"

  # Planted flight-dump gate (ISSUE 9): the same planted build carries a
  # second deliberate fault on the net path — replica 1 misreports its fifth
  # delivery (see GroupLogs) — and a monitored gam_loadgen run must (a) exit
  # nonzero and (b) leave a non-empty flight-recorder dump next to its JSON,
  # proving the last-K evidence trail survives a real violation, not just the
  # unit tests.
  PLANTED_NET="$PLANTED_DIR/net-flight"
  rm -rf "$PLANTED_NET" && mkdir -p "$PLANTED_NET"
  if "$PLANTED_DIR"/tools/gam_loadgen --processes=6 --groups=2 --batch=64 \
      --window=4 --rate=40000 --duration-ms=1000 --monitor \
      --out="$PLANTED_NET"/planted.json >/dev/null; then
    echo "tier1: FAIL — planted delivery bug passed the loadgen monitors"
    exit 1
  fi
  FLIGHT_DUMP=$(ls "$PLANTED_NET"/planted.json.*.flight 2>/dev/null | head -n1)
  if [[ -z "$FLIGHT_DUMP" || ! -s "$FLIGHT_DUMP" ]]; then
    echo "tier1: FAIL — monitor violation produced no flight dump"
    exit 1
  fi
  head -n1 "$FLIGHT_DUMP" | grep -q '^# gam-spans v1 ' \
    || { echo "tier1: FAIL — flight dump is not a gam-spans v1 file"; exit 1; }
  if head -n1 "$FLIGHT_DUMP" | grep -q 'events=0$'; then
    echo "tier1: FAIL — flight dump is empty"
    exit 1
  fi
  echo "tier1: planted flight-dump gate OK ($(head -n1 "$FLIGHT_DUMP"))"
fi

# RunSpec migration gate: RunSpec/Scenario is the single way to build a
# World. The deprecated World(pattern, seed) shim is gone; no call site
# outside the layer itself may construct a World directly — new code must
# not reintroduce positional construction.
if grep -rnE 'sim::World [a-z_]+\(|make_unique<sim::World>' \
    --include='*.cpp' --include='*.hpp' \
    src tests bench examples tools \
    | grep -v 'src/sim/run_spec.hpp' \
    | grep -v 'src/sim/world.hpp'; then
  echo "tier1: FAIL — direct sim::World construction outside RunSpec/Scenario"
  exit 1
fi
echo "tier1: RunSpec migration gate OK"

# Protocol arena gate (ISSUE 10): every protocol in amcast::ProtocolRegistry
# must clear a monitored quick arena — the protocol x topology x
# conflict-rate x crash grid with the invariant monitors attached to every
# cell, and the genuineness ledger zero exactly for the genuine protocols
# (bench_arena exits nonzero on any violation). The summary check proves the
# grid actually covered the advertised axes rather than skipping everything,
# and the unknown-name path must keep failing fast with the registry listing.
ARENA_DIR="$BUILD_DIR/arena-gate"
rm -rf "$ARENA_DIR" && mkdir -p "$ARENA_DIR"
"$BUILD_DIR"/bench/bench_arena --quick --out="$ARENA_DIR"/arena.json \
  >/dev/null \
  || { echo "tier1: FAIL — protocol arena (monitors or ledger sign)"; exit 1; }
python3 - "$ARENA_DIR"/arena.json <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
run = [c for c in r["cells"] if "skipped" not in c]
protos = {c["protocol"] for c in run}
topos = {c["topology"] for c in run}
rates = {c["conflict_rate"] for c in run}
assert len(protos) >= 5, protos
assert len(topos) >= 3, topos
assert len(rates) >= 3, rates
assert all(c["monitor_violations"] == 0 and c["quiescent"] for c in run)
print(f"tier1: arena — {len(run)} cells run, {len(protos)} protocols, "
      f"{len(topos)} topologies, {len(rates)} conflict rates, 0 violations")
EOF
if "$BUILD_DIR"/bench/bench_sweep --protocol=bogus \
    --out="$ARENA_DIR"/x.json >/dev/null 2>&1; then
  echo "tier1: FAIL — bench_sweep accepted an unknown --protocol name"
  exit 1
fi
echo "tier1: protocol arena gate OK"

# Typed ProtocolId gate (ISSUE 10): trace protocol numbering flows through
# sim::ProtocolId and the named kTraceBase constants end to end. Raw integer
# bases must not reappear — no `protocol_base = <int>` assignment and no
# integer-literal base arithmetic against a group id anywhere outside the
# constant definitions themselves.
if grep -rnE 'protocol_base *= *[0-9]' \
    --include='*.cpp' --include='*.hpp' src tests bench tools examples; then
  echo "tier1: FAIL — raw integer protocol_base (use sim::ProtocolId and the"
  echo "  named kTraceBase constants)"
  exit 1
fi
if grep -rnE 'protocol_id\([0-9]+\) *\+|[^_a-zA-Z](100|1000|2000) *\+ *g\b' \
    --include='*.cpp' --include='*.hpp' src tests bench tools examples; then
  echo "tier1: FAIL — raw protocol-id arithmetic (use the named kTraceBase"
  echo "  constants and ProtocolId operator+)"
  exit 1
fi
echo "tier1: typed ProtocolId gate OK"

# Net runtime smoke gate (ISSUE 8): the live runtime must complete a
# rate-capped monitored run over the in-process backend with every invariant
# monitor clean, and clear a deliberately low throughput floor (2K/s — the
# smoke config measures ~40K/s even on a 1-CPU container; the headline
# numbers live in BENCH_net.json, this gate only proves liveness + safety).
# The rate cap keeps monitor memory bounded: monitor cost scales with the
# number of deliveries fed back, not with runtime throughput.
NET_DIR="$BUILD_DIR/net-smoke"
rm -rf "$NET_DIR" && mkdir -p "$NET_DIR"
"$BUILD_DIR"/tools/gam_loadgen --processes=6 --groups=2 --batch=64 --window=4 \
  --rate=40000 --duration-ms=1000 --monitor --min-rate=2000 \
  --stats-interval=200 --stats-out="$NET_DIR"/stats.txt \
  --spans="$NET_DIR"/smoke.spans \
  --out="$NET_DIR"/smoke.json >/dev/null \
  || { echo "tier1: FAIL — net smoke (monitors dirty, timeout, or below floor)"; \
       exit 1; }
echo "tier1: net smoke gate OK"

# Live-introspection smoke (ISSUE 9): the smoke run above emitted periodic
# machine-readable snapshots and a full ns-clock span capture. gam_top must
# render the last complete snapshot (--once exits 1 when no complete S..E
# block exists, e.g. a torn tail), and span_report must reconstruct a
# complete timeline for every live delivery — the observability acceptance
# bar on the live path, not just the simulator.
"$BUILD_DIR"/tools/gam_top --once "$NET_DIR"/stats.txt >/dev/null \
  || { echo "tier1: FAIL — gam_top found no complete stats snapshot"; exit 1; }
"$BUILD_DIR"/tools/span_report "$NET_DIR"/smoke.spans \
    --json="$NET_DIR"/smoke.report.json --quiet \
  || { echo "tier1: FAIL — live span stream has orphan deliveries"; exit 1; }
python3 - "$NET_DIR"/smoke.report.json <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["clock"] == "ns", r["clock"]
assert r["deliveries"] > 0, r
assert r["orphans"] == 0, r
assert r["wire"]["frames"] > 0, r
print(f"tier1: live spans — {r['deliveries']} deliveries reconstructed, "
      f"0 orphans, {r['wire']['frames']} wire frames")
EOF
echo "tier1: live introspection gate OK"

# Net record->replay gate (ISSUE 8): a live run recorded over the in-process
# backend must replay byte-for-byte in the simulator — the recorded stream is
# a legal World execution, and gam_loadgen --record compares the live event
# stream against ReplayScheduler + receive-script playback event for event,
# exiting nonzero on the first divergence.
"$BUILD_DIR"/tools/gam_loadgen --record --processes=6 --groups=2 --ops=48 \
  --batch=4 --window=2 --trace-live="$NET_DIR"/live.trace \
  --trace-replay="$NET_DIR"/replay.trace >/dev/null \
  || { echo "tier1: FAIL — live net run does not replay in the simulator"; \
       exit 1; }
"$BUILD_DIR"/tools/trace_diff "$NET_DIR"/live.trace "$NET_DIR"/replay.trace \
  >/dev/null \
  || { echo "tier1: FAIL — trace_diff finds live vs replay divergence"; \
       exit 1; }
echo "tier1: net record->replay gate OK"

# Benchmark self-test: perfbench (BENCHMARK.json's harness) builds its own
# package from src/ into .bench_build/ and runs its tests — the delivery
# checker, the op-id mapping, the quantiles and a short live client run — so a
# library change that breaks the benchmark fails here, not at measurement.
python3 perfbench/run.py --test \
  || { echo "tier1: FAIL — perfbench self-test"; exit 1; }
echo "tier1: perfbench self-test OK"

echo "tier1: OK ($BUILD_DIR)"
