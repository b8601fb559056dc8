// The perf-tracking bench: parallel seed sweeps over the hot simulator paths.
//
// Four configurations, each swept over independent seeds:
//   e3_mu_k16        — Algorithm 1 on the E3 workload (k=16 disjoint groups,
//                      round-robin messages): the action-system hot path;
//   e3_mu_k64        — the same workload at the 64-group limit (single-member
//                      groups, the most groups the 64-process universe
//                      admits): scaling check for the incremental engine;
//   world_paxos_k8   — ReplicatedMulticast (per-group Paxos logs inside a
//                      sim::World network): the World/MessageBuffer hot path
//                      the swap-and-pop + runnable-set changes target;
//   figure1_crashes  — Algorithm 1 on Figure 1 under sampled failure
//                      patterns: the branchy detector-driven path.
//   e3_mu_wide128    — Algorithm 1 on 32 disjoint 4-rings (128 groups /
//                      256 processes): the widened-id-space smoke. Guards the
//                      multi-word ProcessSet, the GroupPairIndex log layout,
//                      and the wide-stride ballot packing at full scale, with
//                      the invariant monitors applying unchanged. Swept over
//                      fewer seeds than the regular configs (the topology is
//                      4x the size).
//
// Plus the batching headline pair: e3_mu_hirate_base / e3_mu_hirate_batched
// run the k=16 workload at a high submission rate, unbatched vs pinned
// batch_k=16 / window_size=8; their metrics summaries are the before/after
// convoy-wait comparison, and --batch=K / --window=W apply the knobs to the
// four regular configs.
//
// --engine=scan|incremental selects MuMulticast's guard-evaluation engine
// (default incremental); the two must produce identical per-seed trace
// hashes — scripts/tier1.sh diffs their recorded traces as a gate.
//
// Each sweep runs twice: sequentially (one thread — the single-core
// steps/sec trendline) and on the thread pool (the wall-clock speedup
// trendline; equals ~1x on a single-core host). A determinism gate compares
// the per-seed delivery-trace hashes of both executions: a World must
// produce bit-identical runs whether it executes inline or on the pool.
//
// Output: human-readable table + BENCH_sim.json (see EXPERIMENTS.md for the
// schema). Exit code is non-zero when the determinism gate fails or any run
// ends at its step budget instead of quiescing, so this binary doubles as
// the ThreadSanitizer smoke test (`bench_sweep --quick`).
// On a gate failure the divergent seed is replayed twice inline with full
// event recording, both traces are dumped, and the first divergent event is
// printed (the same report `tools/trace_diff` produces offline).
//
// --metrics=PATH adds an instrumented pass per configuration: every worker
// owns a private sim::Metrics registry merged once at the join (the merge
// algebra is commutative, so the report is byte-identical across reruns,
// thread counts, and job-claim orders),
// and seed-index 0's full event stream replays through the online invariant
// monitors (integrity / agreement / acyclicity). The result is a
// gam-metrics-v1 JSON report at PATH; a compact per-config summary also folds
// into BENCH_sim.json under "metrics". Inspect or diff reports with
// tools/metrics_report. A monitor violation fails the run (exit 1), same as
// the determinism gate.
//
// --adversary=SPEC drives every configuration under an adversarial strategy
// (sim/adversary.hpp): "random" (default), "pct[:D]" for PCT priority
// scheduling, and a "qedge" prefix that additionally derives each seed's
// failure pattern from the group system's quorum boundaries
// ("qedge+pct:3"). Replay specs are rejected here — replay is a single-run
// affair (tools/adversary_hunt). All gates (determinism, monitors,
// engine-equivalence via recorded traces) apply unchanged under any
// strategy.
//
// --protocol=NAME (repeatable) adds a swept configuration proto_<NAME> for
// any protocol in amcast::ProtocolRegistry (mu, perfectfd, skeen, broadcast,
// worldlog, whitebox, generic, ...), run on a shared disjoint topology with
// the same determinism/monitor gates; conflict-aware protocols get a
// conflict-classed workload and the conflict-aware acyclicity monitor.
// Unknown names exit 2 listing the registered protocols.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "amcast/mu_multicast.hpp"
#include "amcast/protocol.hpp"
#include "amcast/replicated_multicast.hpp"
#include "amcast/workload.hpp"
#include "groups/generator.hpp"
#include "sim/adversary.hpp"
#include "sim/metrics.hpp"
#include "sim/monitors.hpp"
#include "sim/spans.hpp"
#include "sim/trace.hpp"
#include "sweep.hpp"

// Build-time run metadata (bench/CMakeLists.txt); fallbacks keep the file
// compiling outside that target.
#ifndef GAM_GIT_REV
#define GAM_GIT_REV "unknown"
#endif
#ifndef GAM_BUILD_TYPE
#define GAM_BUILD_TYPE ""
#endif
#ifndef GAM_SANITIZE_STR
#define GAM_SANITIZE_STR ""
#endif

using namespace gam;
using namespace gam::amcast;
using namespace gam::bench;

namespace {

struct Config {
  bool quick = false;
  int threads = 0;       // 0 = hardware concurrency
  int seeds = 0;         // 0 = default per mode
  int seed_base = 1;     // seed of job 0 (job i runs seed_base + i)
  std::string out = "BENCH_sim.json";
  std::string trace;     // when set, record seed 0 of each config to
                         // <trace>.<config>.trace
  std::string spans;     // when set, record seed 0's span stream to
                         // <spans>.<config>.spans (tools/span_report input)
  std::string metrics;   // when set, write a gam-metrics-v1 report here
  MuMulticast::Engine engine = MuMulticast::Engine::kIncremental;
  sim::AdversarySpec adversary;  // scheduling strategy + crash derivation
  // Batched rounds / pipelined issuance knobs applied to every config
  // (mu_multicast.hpp Options; universal_log.hpp for the World configs).
  // The pinned e3_mu_hirate_{base,batched} pair ignores these — it always
  // measures 1/1 against 16/8.
  int batch_k = 1;
  int window_size = 1;
  // Extra per-protocol configs requested via --protocol=NAME (validated
  // against the ProtocolRegistry at parse time).
  std::vector<std::string> protocols;
};

// Every output path is written at the END of a multi-minute sweep; probe them
// up front so a typo'd directory fails in milliseconds with exit 2 instead.
// A probe that had to create the file removes it again.
bool path_writable(const std::string& path) {
  std::FILE* pre = std::fopen(path.c_str(), "r");
  bool existed = pre != nullptr;
  if (pre) std::fclose(pre);
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (!f) return false;
  std::fclose(f);
  if (!existed) std::remove(path.c_str());
  return true;
}

// The failure pattern a configuration runs under: quorum-edge derived when
// the axis asks for it, crash-free otherwise. (figure1_crashes keeps its
// sampled environment in the non-qedge case; see its job below.)
sim::FailurePattern adversary_pattern(const sim::AdversarySpec& adv,
                                      const groups::GroupSystem& sys,
                                      std::uint64_t seed) {
  if (!adv.quorum_edge_crashes)
    return sim::FailurePattern(sys.process_count());
  return sim::QuorumEdgeAdversary(sys.groups(), sys.process_count())
      .pattern_for(seed);
}

// A swept job: runs seed-index `i`; when `rec` is non-null the run's full
// event stream is recorded there instead of only hashed; when `met` is
// non-null the run attaches its metrics probes to that registry; when
// `spans` is non-null the run attaches its span sink there (Algorithm 1
// configs — the World configs carry no span probes and leave it empty).
using TracedJob = std::function<RunResult(int, sim::RecorderSink*,
                                          sim::Metrics*, sim::SpanCollector*)>;

// How a configuration's trace maps onto the invariant monitors: group
// membership, protocol numbering, and the failure pattern of seed-index 0
// (the seed the monitor pass replays).
using MonitorConfigFn = std::function<sim::MonitorConfig()>;

// ---- the swept workloads -----------------------------------------------------

// A registered protocol by name; the registry owns the descriptor.
const ProtocolDescriptor& descriptor(const char* name) {
  const ProtocolDescriptor* d = ProtocolRegistry::instance().find(name);
  GAM_EXPECTS(d != nullptr);
  return *d;
}

// The one construction-and-run path every configuration funnels through
// (ISSUE 10): build from the descriptor, attach sinks/metrics/spans
// uniformly, submit, run, absorb wire/alloc stats when the protocol carries a
// World. Every engine implements amcast::Protocol itself and reads the
// adversary's scheduler from its options, and the call order here reproduces
// the old hand-wired order byte for byte (the golden trace gate pins it).
RunResult run_protocol(const ProtocolDescriptor& d,
                       const groups::GroupSystem& sys,
                       const sim::FailurePattern& pat,
                       const ProtocolOptions& opt,
                       const std::vector<MulticastMessage>& workload,
                       sim::RecorderSink* rec, sim::Metrics* met,
                       sim::SpanCollector* spans) {
  auto p = d.make(sys, pat, opt);
  sim::HashingSink hasher;
  p->set_event_sink(rec ? static_cast<sim::TraceSink*>(rec) : &hasher);
  if (met) p->set_metrics(met);
  if (spans) p->set_span_sink(spans);
  for (const auto& m : workload) p->submit(m);
  RunResult r = summarize(p->run());
  r.messages = p->wire_messages();
  if (sim::World* w = p->world()) absorb_world(r, *w);
  r.trace_hash = combine_hash(r.trace_hash, rec ? rec->hash() : hasher.hash());
  return r;
}

// Options shared by every swept configuration of one seed.
ProtocolOptions sweep_options(std::uint64_t seed, MuMulticast::Engine engine,
                              const sim::AdversarySpec& adv, int batch_k,
                              int window_size) {
  ProtocolOptions opt;
  opt.seed = seed;
  opt.engine = engine;
  opt.scheduler = adv.scheduler;
  opt.batch_k = batch_k;
  opt.window_size = window_size;
  return opt;
}

// E3 (bench_genuine_vs_broadcast): k disjoint groups, Algorithm 1.
// group_size=2 is the paper's E3 shape; the k=64 scaling config uses
// single-member groups (64 groups × 2 members would overflow the 64-process
// universe).
RunResult run_e3_mu(std::uint64_t seed, int k, int group_size, int per_group,
                    MuMulticast::Engine engine,
                    const sim::AdversarySpec& adv, sim::RecorderSink* rec,
                    sim::Metrics* met, int batch_k = 1, int window_size = 1,
                    sim::SpanCollector* spans = nullptr) {
  auto sys = groups::disjoint_system(k, group_size);
  sim::FailurePattern pat = adversary_pattern(adv, sys, seed);
  return run_protocol(descriptor("mu"), sys, pat,
                      sweep_options(seed, engine, adv, batch_k, window_size),
                      round_robin_workload(sys, per_group), rec, met, spans);
}

// ReplicatedMulticast: per-group Paxos logs inside a simulated network — the
// workload that actually exercises World scheduling and the message buffer.
// The hash covers the complete wire-event stream (every send, receive,
// null-step, FD query, and delivery), not just the delivery record.
RunResult run_world_paxos(std::uint64_t seed, int k, int per_group,
                          const sim::AdversarySpec& adv,
                          sim::RecorderSink* rec, sim::Metrics* met,
                          int batch_k = 1, int window_size = 1) {
  auto sys = groups::disjoint_system(k, 3);
  sim::FailurePattern pat = adversary_pattern(adv, sys, seed);
  return run_protocol(descriptor("worldlog"), sys, pat,
                      sweep_options(seed, MuMulticast::Engine::kIncremental,
                                    adv, batch_k, window_size),
                      round_robin_workload(sys, per_group), rec, met, nullptr);
}

// The 128-group / 256-process wide smoke: Algorithm 1 on 32 disjoint
// 4-rings. Every id past the old 64-ceiling is exercised — multi-word
// ProcessSet words, group ids above 63 in the GroupPairIndex layout, and
// wide-stride ballots in the consensus objects.
RunResult run_wide_mu(std::uint64_t seed, int per_group,
                      MuMulticast::Engine engine,
                      const sim::AdversarySpec& adv, sim::RecorderSink* rec,
                      sim::Metrics* met, int batch_k = 1, int window_size = 1,
                      sim::SpanCollector* spans = nullptr) {
  auto sys = groups::clustered_ring_system(32, 4, 2);
  sim::FailurePattern pat = adversary_pattern(adv, sys, seed);
  ProtocolOptions opt = sweep_options(seed, engine, adv, batch_k, window_size);
  opt.max_steps = 1u << 22;
  return run_protocol(descriptor("mu"), sys, pat, opt,
                      round_robin_workload(sys, per_group), rec, met, spans);
}

// Figure 1 under sampled crashes: detector-heavy Algorithm 1 runs.
RunResult run_figure1_crashes(std::uint64_t seed, int per_group,
                              MuMulticast::Engine engine,
                              const sim::AdversarySpec& adv,
                              sim::RecorderSink* rec, sim::Metrics* met,
                              int batch_k = 1, int window_size = 1,
                              sim::SpanCollector* spans = nullptr) {
  auto sys = groups::figure1_system();
  sim::FailurePattern pat = [&] {
    if (adv.quorum_edge_crashes) return adversary_pattern(adv, sys, seed);
    Rng rng(seed);
    sim::EnvironmentSampler env{
        .process_count = 5, .max_failures = 2, .horizon = 100};
    return env.sample(rng);
  }();
  return run_protocol(descriptor("mu"), sys, pat,
                      sweep_options(seed, engine, adv, batch_k, window_size),
                      round_robin_workload(sys, per_group), rec, met, spans);
}

sim::MonitorConfig monitor_config(const groups::GroupSystem& sys,
                                  sim::ProtocolId protocol_base,
                                  bool require_multicast,
                                  ProcessSet faulty = {}) {
  sim::MonitorConfig mc;
  mc.groups.reserve(static_cast<size_t>(sys.group_count()));
  for (GroupId g = 0; g < sys.group_count(); ++g)
    mc.groups.push_back(sys.group(g));
  mc.protocol_base = protocol_base;
  mc.require_multicast = require_multicast;
  mc.faulty = faulty;
  return mc;
}

// Sum of a gauge's merged values across all labels (the ledger gauges merge
// by addition, so this is the across-seeds total).
std::int64_t gauge_total(const sim::Metrics& m, const std::string& name) {
  std::int64_t total = 0;
  for (const auto& [k, g] : m.gauges())
    if (k.name == name) total += g.value;
  return total;
}

// The per-config summary folded into BENCH_sim.json: headline latency
// quantiles, FD-query pressure, the genuineness ledger, and the monitor
// verdict — enough for trend tracking without parsing the full report.
std::string metrics_summary_json(const sim::Metrics& m,
                                 std::uint64_t monitor_events,
                                 std::uint64_t monitor_violations) {
  sim::Histogram lat = m.merged_histogram("deliver_latency");
  sim::Histogram convoy = m.merged_histogram("convoy_wait");
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"deliveries\": %llu, \"deliver_latency_mean\": %.3f, "
      "\"deliver_latency_p99\": %llu, \"convoy_wait_mean\": %.3f, "
      "\"fd_queries\": %llu, \"consensus_proposals\": %llu, "
      "\"non_addressee_steps\": %lld, \"non_addressee_messages\": %lld, "
      "\"monitor_events\": %llu, \"monitor_violations\": %llu}",
      static_cast<unsigned long long>(lat.count), lat.mean(),
      static_cast<unsigned long long>(lat.quantile(0.99)), convoy.mean(),
      static_cast<unsigned long long>(m.counter_total("fd_query")),
      static_cast<unsigned long long>(m.counter_total("consensus_propose")),
      static_cast<long long>(gauge_total(m, "non_addressee_steps")),
      static_cast<long long>(gauge_total(m, "non_addressee_messages")),
      static_cast<unsigned long long>(monitor_events),
      static_cast<unsigned long long>(monitor_violations));
  return buf;
}

void print_stats(const SweepStats& s) {
  std::printf("  %-28s runs=%-4d threads=%-2d wall=%8.3fs  "
              "runs/s=%8.1f  steps/s=%11.0f\n",
              s.name.c_str(), s.runs, s.threads, s.wall_seconds,
              s.runs_per_sec(), s.steps_per_sec());
}

// On a per-seed hash mismatch: replay the seed twice inline with full event
// recording, dump both traces next to `cfg.out`, and print the first
// divergent event. Two agreeing inline replays that still disagree with the
// pooled hash point at a cross-thread effect (shared state / data race); two
// disagreeing replays localize the nondeterminism exactly.
void dump_divergence(const Config& cfg, const char* name, int i,
                     const TracedJob& job) {
  sim::RecorderSink a, b;
  job(i, &a, nullptr, nullptr);
  job(i, &b, nullptr, nullptr);
  std::string base = cfg.out + "." + name + ".seed" + std::to_string(i);
  std::string pa = base + ".a.trace", pb = base + ".b.trace";
  if (!a.write(pa) || !b.write(pb))
    std::printf("  (failed to write %s / %s)\n", pa.c_str(), pb.c_str());
  else
    std::printf("  dumped inline replays: %s %s\n", pa.c_str(), pb.c_str());
  auto div = sim::first_divergence(a.events(), b.events());
  if (div) {
    std::printf("%s", sim::render_divergence(a.events(), b.events(), *div).c_str());
  } else {
    std::printf(
        "  inline replays agree (%zu events, hash %016llx): the divergence "
        "only appears under the pool — suspect shared state or a data race; "
        "rerun under GAM_SANITIZE=thread\n",
        a.events().size(), static_cast<unsigned long long>(a.hash()));
  }
}

// Runs one configuration sequentially and pooled; checks per-seed trace
// hashes agree between the two executions (byte-reproducibility across
// thread interleavings). Returns false on a determinism violation.
bool sweep_both(const Config& cfg, const char* name, int n,
                const SweepRunner& seq, const SweepRunner& pool,
                const TracedJob& job, const MonitorConfigFn& moncfg,
                BenchJson& json, double* speedup_out,
                sim::MetricsReport* report,
                std::vector<std::string>* summaries) {
  auto plain = [&job](int i) { return job(i, nullptr, nullptr, nullptr); };
  // Untimed warm-up: the seq pass used to run first against a cold heap and
  // cold caches, inflating every "pool speedup" by a constant factor (the
  // k64 pool-slower-than-seq artifact was mostly this).
  plain(0);
  std::vector<RunResult> seq_results, pool_results;
  SweepStats s1 = seq.sweep(std::string(name) + "_seq", n, plain, &seq_results);
  SweepStats sp =
      pool.sweep(std::string(name) + "_pool", n, plain, &pool_results);

  bool ok = true;
  for (int i = 0; i < n; ++i) {
    if (seq_results[static_cast<size_t>(i)].trace_hash !=
        pool_results[static_cast<size_t>(i)].trace_hash) {
      std::printf("  DETERMINISM VIOLATION: %s seed-index %d "
                  "(inline %016llx vs pool %016llx)\n",
                  name, i,
                  static_cast<unsigned long long>(
                      seq_results[static_cast<size_t>(i)].trace_hash),
                  static_cast<unsigned long long>(
                      pool_results[static_cast<size_t>(i)].trace_hash));
      dump_divergence(cfg, name, i, job);
      ok = false;
    }
  }
  print_stats(s1);
  print_stats(sp);
  double speedup = sp.wall_seconds > 0 ? s1.wall_seconds / sp.wall_seconds : 0;
  std::printf("  %-28s speedup=%.2fx  determinism=%s\n\n", "",
              speedup, ok ? "ok" : "VIOLATED");
  // A run cut off by the step budget has no verdict (the monitors and spec
  // checks only judge finished runs), so it fails the sweep like a violation.
  if (s1.quiescent_runs != static_cast<std::uint64_t>(n)) {
    std::printf("  NOT QUIESCENT: %s — %llu of %d run(s) ended at the step "
                "budget\n\n",
                name,
                static_cast<unsigned long long>(
                    static_cast<std::uint64_t>(n) - s1.quiescent_runs),
                n);
    ok = false;
  }
  json.add(s1);
  json.add(sp);
  if (speedup_out) *speedup_out = speedup;

  // --trace=PATH: record seed-index 0 of this configuration for offline
  // comparison with trace_diff (e.g. across binaries, flags, or seeds).
  if (!cfg.trace.empty()) {
    sim::RecorderSink rec;
    job(0, &rec, nullptr, nullptr);
    std::string path = cfg.trace + "." + name + ".trace";
    if (rec.write(path))
      std::printf("  recorded %zu events -> %s\n\n", rec.events().size(),
                  path.c_str());
    else
      std::printf("  failed to write %s\n\n", path.c_str());
  }

  // --spans=PATH: re-run seed-index 0 with a span collector attached and
  // write the lifecycle stream for tools/span_report. The simulator stamps
  // events with its step clock, so the file is byte-identical run to run —
  // the tier-1 span self-check diffs two of them.
  if (!cfg.spans.empty()) {
    sim::SpanCollector col;
    job(0, nullptr, nullptr, &col);
    std::string path = cfg.spans + "." + name + ".spans";
    if (sim::write_spans(path, col.events()))
      std::printf("  recorded %zu span events -> %s\n\n", col.events().size(),
                  path.c_str());
    else
      std::printf("  failed to write %s\n\n", path.c_str());
  }

  // --metrics=PATH: an instrumented pooled pass. Each *worker* owns a
  // private registry (sweep.hpp run_merged) so the job hot path never
  // allocates in a shared registry; the commutative merge algebra keeps the
  // report byte-identical across reruns, thread counts, and claim orders.
  // Seed-index 0 is then replayed with full event recording through the
  // invariant monitors — a violation fails the sweep exactly like the
  // determinism gate.
  if (report) {
    sim::Metrics& merged = report->config(name);
    pool.run_merged(
        n, [&](int i, sim::Metrics& m) { return job(i, nullptr, &m, nullptr); },
        &merged);

    sim::RecorderSink rec;
    RunResult r0 = job(0, &rec, nullptr, nullptr);
    sim::InvariantMonitors mon(moncfg());
    sim::feed(mon, rec.events());
    mon.finalize(r0.quiescent);
    auto viols = mon.violations();
    std::uint64_t checked = mon.integrity().events_seen();
    merged.counter("monitor_events").add(checked);
    merged.counter("monitor_violations").add(viols.size());
    for (const auto& v : viols) {
      std::printf("  INVARIANT VIOLATION (%s seed-index 0): %s\n", name,
                  sim::format_violation(v).c_str());
      ok = false;
    }
    if (summaries)
      summaries->push_back("\"" + std::string(name) +
                           "\": " + metrics_summary_json(merged, checked,
                                                         viols.size()));
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--quick") {
      cfg.quick = true;
    } else if (a.rfind("--threads=", 0) == 0) {
      cfg.threads = std::atoi(a.c_str() + 10);
    } else if (a.rfind("--seeds=", 0) == 0) {
      cfg.seeds = std::atoi(a.c_str() + 8);
    } else if (a.rfind("--seed-base=", 0) == 0) {
      cfg.seed_base = std::atoi(a.c_str() + 12);
    } else if (a.rfind("--out=", 0) == 0) {
      cfg.out = a.substr(6);
    } else if (a.rfind("--trace=", 0) == 0) {
      cfg.trace = a.substr(8);
    } else if (a.rfind("--spans=", 0) == 0) {
      cfg.spans = a.substr(8);
    } else if (a.rfind("--metrics=", 0) == 0) {
      cfg.metrics = a.substr(10);
    } else if (a == "--engine=scan") {
      cfg.engine = MuMulticast::Engine::kScan;
    } else if (a == "--engine=incremental") {
      cfg.engine = MuMulticast::Engine::kIncremental;
    } else if (a.rfind("--batch=", 0) == 0) {
      cfg.batch_k = std::max(1, std::atoi(a.c_str() + 8));
    } else if (a.rfind("--window=", 0) == 0) {
      cfg.window_size = std::max(1, std::atoi(a.c_str() + 9));
    } else if (a.rfind("--protocol=", 0) == 0) {
      std::string name = a.substr(11);
      if (!ProtocolRegistry::instance().find(name)) {
        std::fprintf(stderr,
                     "error: unknown --protocol name: %s (registered: %s)\n",
                     name.c_str(),
                     ProtocolRegistry::instance().names().c_str());
        return 2;
      }
      cfg.protocols.push_back(name);
    } else if (a.rfind("--adversary=", 0) == 0) {
      auto spec = sim::AdversarySpec::parse(a.substr(12));
      if (!spec) {
        std::fprintf(stderr,
                     "error: unrecognized --adversary spec: %s (valid: "
                     "random, pct[:D], qedge[+SCHED], replay:PATH)\n",
                     a.c_str() + 12);
        return 2;
      }
      if (spec->scheduler.kind == sim::SchedulerSpec::Kind::kReplay) {
        std::fprintf(stderr,
                     "error: --adversary=replay:... replays one recorded run; "
                     "it cannot drive a multi-seed sweep (use "
                     "tools/adversary_hunt or tools/trace_diff)\n");
        return 2;
      }
      cfg.adversary = *spec;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--threads=N] [--seeds=N] "
                   "[--seed-base=N] [--out=PATH] [--trace=PATH] [--spans=PATH] "
                   "[--metrics=PATH] [--engine=scan|incremental] "
                   "[--batch=K] [--window=W] "
                   "[--adversary=random|pct[:D]|qedge[+SCHED]] "
                   "[--protocol=NAME]...\n  registered protocols: %s\n",
                   argv[0], ProtocolRegistry::instance().names().c_str());
      return 2;
    }
  }

  // Fail fast on unwritable output destinations (exit 2, like a usage
  // error): --trace writes PATH.<config>.trace, so its probe appends a
  // throwaway suffix rather than touching a real output.
  const struct {
    const char* flag;
    std::string shown;
    std::string probe;
  } outputs[] = {
      {"--out", cfg.out, cfg.out},
      {"--metrics", cfg.metrics, cfg.metrics},
      {"--trace", cfg.trace,
       cfg.trace.empty() ? "" : cfg.trace + ".writable.probe"},
      {"--spans", cfg.spans,
       cfg.spans.empty() ? "" : cfg.spans + ".writable.probe"},
  };
  for (const auto& o : outputs) {
    if (o.probe.empty()) continue;
    if (!path_writable(o.probe)) {
      std::fprintf(stderr, "error: %s path is not writable: %s\n", o.flag,
                   o.shown.c_str());
      return 2;
    }
  }

  if (!cfg.metrics.empty() && !sim::kMetricsCompiled)
    std::fprintf(stderr,
                 "warning: built with GAM_METRICS=OFF — the --metrics report "
                 "will carry monitor results but no probe data\n");

  const int seeds = cfg.seeds > 0 ? cfg.seeds : (cfg.quick ? 4 : 32);
  const int per_group = cfg.quick ? 2 : 4;
  SweepRunner seq(1);
  SweepRunner pool(cfg.threads);
  const bool engine_incremental =
      cfg.engine == MuMulticast::Engine::kIncremental;

  if (cfg.threads == 0 && pool.threads() == 1)
    std::fprintf(stderr,
                 "warning: hardware-concurrency detection reported <= 1; the "
                 "pool runs single-threaded and pool-vs-seq speedups are "
                 "meaningless (pass --threads=N to size the pool "
                 "explicitly)\n");

  std::printf("Simulator seed-sweep bench — %d seeds/config, pool of %d "
              "thread(s), %s engine, adversary=%s%s\n\n",
              seeds, pool.threads(),
              engine_incremental ? "incremental" : "scan",
              cfg.adversary.name().c_str(), cfg.quick ? " [quick]" : "");

  BenchJson json;
  json.field("bench", std::string("bench_sweep"));
  json.field("quick", std::string(cfg.quick ? "true" : "false"));
  json.field("engine",
             std::string(engine_incremental ? "incremental" : "scan"));
  json.field("adversary", cfg.adversary.name());
  // Requested is the --threads value as given (0 = auto-detect); effective is
  // the size the pool actually runs with. They differ when detection falls
  // back — consumers must not read a speedup off a 1-thread "pool".
  json.field("pool_threads_requested", cfg.threads);
  json.field("pool_threads_effective", pool.threads());
  json.field("seeds_per_config", seeds);
  json.field("batch_k", cfg.batch_k);
  json.field("window_size", cfg.window_size);
  // Run metadata (satellite of the metrics work): where and how this binary
  // was built, and what it actually ran with.
  json.field("git_rev", std::string(GAM_GIT_REV));
  json.field("build_type", std::string(GAM_BUILD_TYPE));
  json.field("sanitize", std::string(GAM_SANITIZE_STR));
  json.field("metrics_compiled",
             std::string(sim::kMetricsCompiled ? "on" : "off"));

  sim::MetricsReport report;
  sim::MetricsReport* rep = cfg.metrics.empty() ? nullptr : &report;
  std::vector<std::string> summaries;
  if (rep) {
    report.meta["bench"] = "bench_sweep";
    report.meta["git_rev"] = GAM_GIT_REV;
    report.meta["build_type"] = GAM_BUILD_TYPE;
    report.meta["sanitize"] = GAM_SANITIZE_STR;
    report.meta["engine"] = engine_incremental ? "incremental" : "scan";
    report.meta["adversary"] = cfg.adversary.name();
    report.meta["quick"] = cfg.quick ? "true" : "false";
    report.meta["seeds_per_config"] = std::to_string(seeds);
    report.meta["seed_base"] = std::to_string(cfg.seed_base);
    report.meta["batch_k"] = std::to_string(cfg.batch_k);
    report.meta["window_size"] = std::to_string(cfg.window_size);
    report.meta["pool_threads_effective"] = std::to_string(pool.threads());
    report.meta["metrics_compiled"] = sim::kMetricsCompiled ? "on" : "off";
  }

  bool ok = true;
  double e3_speedup = 0;
  auto seed_of = [&cfg](int i) {
    return static_cast<std::uint64_t>(cfg.seed_base) +
           static_cast<std::uint64_t>(i);
  };

  // Monitor configs re-derive seed-index 0's failure pattern (sampled or
  // quorum-edge) so the agreement monitor knows who may miss deliveries.
  auto faulty0 = [&](const groups::GroupSystem& sys) {
    return adversary_pattern(cfg.adversary, sys, seed_of(0)).faulty_set();
  };

  ok &= sweep_both(
      cfg, "e3_mu_k16", seeds, seq, pool,
      [&](int i, sim::RecorderSink* rec, sim::Metrics* met,
          sim::SpanCollector* spans) {
        return run_e3_mu(seed_of(i), 16, 2, per_group, cfg.engine,
                         cfg.adversary, rec, met, cfg.batch_k,
                         cfg.window_size, spans);
      },
      [&] {
        auto sys = groups::disjoint_system(16, 2);
        return monitor_config(sys, sim::protocol_id(0), true, faulty0(sys));
      },
      json, &e3_speedup, rep, &summaries);

  ok &= sweep_both(
      cfg, "e3_mu_k64", seeds, seq, pool,
      [&](int i, sim::RecorderSink* rec, sim::Metrics* met,
          sim::SpanCollector* spans) {
        return run_e3_mu(seed_of(i), 64, 1, per_group, cfg.engine,
                         cfg.adversary, rec, met, cfg.batch_k,
                         cfg.window_size, spans);
      },
      [&] {
        auto sys = groups::disjoint_system(64, 1);
        return monitor_config(sys, sim::protocol_id(0), true, faulty0(sys));
      },
      json, nullptr, rep, &summaries);

  // The batching headline pair (ISSUE 6): one high-submission-rate μ config
  // measured unbatched and with pinned batch_k=16 / window_size=8. Same
  // topology, workload, seeds, and adversary — only the knobs differ, so the
  // metrics summaries folded into BENCH_sim.json give the before/after
  // convoy_wait / deliver_latency comparison directly.
  const int hirate_per_group = cfg.quick ? 8 : 16;
  auto hirate_job = [&](int batch, int window) {
    return [&, batch, window](int i, sim::RecorderSink* rec,
                              sim::Metrics* met, sim::SpanCollector* spans) {
      return run_e3_mu(seed_of(i), 16, 2, hirate_per_group, cfg.engine,
                       cfg.adversary, rec, met, batch, window, spans);
    };
  };
  auto hirate_moncfg = [&] {
    auto sys = groups::disjoint_system(16, 2);
    return monitor_config(sys, sim::protocol_id(0), true, faulty0(sys));
  };
  ok &= sweep_both(cfg, "e3_mu_hirate_base", seeds, seq, pool, hirate_job(1, 1),
                   hirate_moncfg, json, nullptr, rep, &summaries);
  ok &= sweep_both(cfg, "e3_mu_hirate_batched", seeds, seq, pool,
                   hirate_job(16, 8), hirate_moncfg, json, nullptr, rep,
                   &summaries);

  ok &= sweep_both(
      cfg, "world_paxos_k8", seeds, seq, pool,
      [&](int i, sim::RecorderSink* rec, sim::Metrics* met,
          sim::SpanCollector*) {
        // World configs carry no span probes; the collector stays empty.
        return run_world_paxos(seed_of(i), cfg.quick ? 4 : 8, per_group,
                               cfg.adversary, rec, met, cfg.batch_k,
                               cfg.window_size);
      },
      // World traces number protocols kTraceBase+g and record only the
      // delivery side (no kMulticast events), hence the relaxed integrity
      // mode.
      [&] {
        auto sys = groups::disjoint_system(cfg.quick ? 4 : 8, 3);
        return monitor_config(sys, ReplicatedMulticast::kTraceBase, false,
                              faulty0(sys));
      },
      json, nullptr, rep, &summaries);

  ok &= sweep_both(
      cfg, "figure1_crashes", seeds, seq, pool,
      [&](int i, sim::RecorderSink* rec, sim::Metrics* met,
          sim::SpanCollector* spans) {
        return run_figure1_crashes(seed_of(i), per_group, cfg.engine,
                                   cfg.adversary, rec, met, cfg.batch_k,
                                   cfg.window_size, spans);
      },
      [&] {
        auto sys = groups::figure1_system();
        if (cfg.adversary.quorum_edge_crashes)
          return monitor_config(sys, sim::protocol_id(0), true, faulty0(sys));
        Rng rng(seed_of(0));
        sim::EnvironmentSampler env{
            .process_count = 5, .max_failures = 2, .horizon = 100};
        return monitor_config(sys, sim::protocol_id(0), true,
                              env.sample(rng).faulty_set());
      },
      json, nullptr, rep, &summaries);

  // The wide smoke rides every sweep but over fewer seeds — one run is ~4x
  // the regular configs, and its job here is coverage of the widened id
  // space, not a latency trendline.
  const int wide_seeds = std::min(seeds, cfg.quick ? 2 : 8);
  ok &= sweep_both(
      cfg, "e3_mu_wide128", wide_seeds, seq, pool,
      [&](int i, sim::RecorderSink* rec, sim::Metrics* met,
          sim::SpanCollector* spans) {
        return run_wide_mu(seed_of(i), 1, cfg.engine, cfg.adversary, rec, met,
                           cfg.batch_k, cfg.window_size, spans);
      },
      [&] {
        auto sys = groups::clustered_ring_system(32, 4, 2);
        return monitor_config(sys, sim::protocol_id(0), true, faulty0(sys));
      },
      json, nullptr, rep, &summaries);

  // --protocol=NAME extras: the named registry protocol swept on a shared
  // disjoint arena topology under the same determinism and monitor gates as
  // the fixed configs. Conflict-aware protocols run the rate-0.5 classed
  // workload (and the monitors get the class map); everyone else runs the
  // round-robin default.
  for (const std::string& pname : cfg.protocols) {
    const ProtocolDescriptor& d = descriptor(pname.c_str());
    const int pk = cfg.quick ? 4 : 8;
    auto proto_sys = [pk] { return groups::disjoint_system(pk, 3); };
    auto proto_workload = [&](std::uint64_t seed) {
      auto sys = proto_sys();
      if (!d.conflict_aware) return round_robin_workload(sys, per_group);
      std::vector<groups::GroupId> targets;
      for (groups::GroupId g = 0; g < sys.group_count(); ++g)
        targets.push_back(g);
      Rng rng(seed);
      return conflict_workload(sys, targets, per_group, 0.5, rng);
    };
    std::string cfg_name = "proto_" + pname;
    ok &= sweep_both(
        cfg, cfg_name.c_str(), seeds, seq, pool,
        [&](int i, sim::RecorderSink* rec, sim::Metrics* met,
            sim::SpanCollector* spans) {
          auto sys = proto_sys();
          sim::FailurePattern pat =
              adversary_pattern(cfg.adversary, sys, seed_of(i));
          return run_protocol(d, sys, pat,
                              sweep_options(seed_of(i), cfg.engine,
                                            cfg.adversary, cfg.batch_k,
                                            cfg.window_size),
                              proto_workload(seed_of(i)), rec, met, spans);
        },
        [&] {
          auto sys = proto_sys();
          auto mc = monitor_config(sys, d.trace_base,
                                   d.emits_multicast_events, faulty0(sys));
          if (d.conflict_aware)
            for (const auto& m : proto_workload(seed_of(0)))
              mc.conflict_class[m.id] = m.conflict_class;
          return mc;
        },
        json, nullptr, rep, &summaries);
  }

  if (pool.threads() == 1)
    json.null_field("e3_pool_vs_seq_speedup");
  else
    json.field("e3_pool_vs_seq_speedup", e3_speedup);
  json.field("determinism", std::string(ok ? "ok" : "violated"));
  // Headline batching win: unbatched over batched histogram means on the
  // hirate pair (>= 10x is the ISSUE 6 acceptance bar). Needs the metrics
  // pass; null without it, when the probes are compiled out, or when the
  // batched mean is exactly 0 (the ratio is infinite — consumers should
  // read the raw means under "metrics" to tell a skip from a perfect score).
  if (rep && sim::kMetricsCompiled) {
    auto mean_of = [&](const char* config, const char* series) {
      return report.config(config).merged_histogram(series).mean();
    };
    double lat_b = mean_of("e3_mu_hirate_batched", "deliver_latency");
    double cv_b = mean_of("e3_mu_hirate_batched", "convoy_wait");
    if (lat_b > 0)
      json.field("hirate_deliver_latency_ratio",
                 mean_of("e3_mu_hirate_base", "deliver_latency") / lat_b);
    else
      json.null_field("hirate_deliver_latency_ratio");
    if (cv_b > 0)
      json.field("hirate_convoy_wait_ratio",
                 mean_of("e3_mu_hirate_base", "convoy_wait") / cv_b);
    else
      json.null_field("hirate_convoy_wait_ratio");
  } else {
    json.null_field("hirate_deliver_latency_ratio");
    json.null_field("hirate_convoy_wait_ratio");
  }
  if (rep) {
    std::string folded = "{";
    for (size_t i = 0; i < summaries.size(); ++i)
      folded += (i ? ", " : "") + summaries[i];
    folded += "}";
    json.raw("metrics", folded);
    if (!report.write(cfg.metrics)) {
      std::fprintf(stderr, "failed to write %s\n", cfg.metrics.c_str());
      return 1;
    }
    std::printf("wrote metrics report %s\n", cfg.metrics.c_str());
  }
  if (!json.write(cfg.out)) {
    std::fprintf(stderr, "failed to write %s\n", cfg.out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", cfg.out.c_str());
  std::printf("determinism gate: %s\n", ok ? "ok" : "VIOLATED");
  return ok ? 0 : 1;
}
