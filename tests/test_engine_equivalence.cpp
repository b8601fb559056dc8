// Engine-equivalence gate: the incremental guarded-action engine must be
// observationally identical to the scan engine — same action of the same
// process at every step, seed for seed, across topologies, failure patterns,
// detector lags and option variants. The scan engine is the literal reading
// of Algorithm 1's pseudo-code; any divergence is an incremental-engine bug
// (a missing invalidation, a stale cache, or a changed tie-break order).
//
// On a mismatch the test dumps both delivery-event traces to disk in the
// tools/trace_diff format and prints the first divergent event with context
// (the same report `trace_diff A.trace B.trace` produces offline), plus the
// first divergent *action* firing from the full structured traces.
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "amcast/mu_multicast.hpp"
#include "amcast/trace.hpp"
#include "amcast/workload.hpp"
#include "groups/generator.hpp"
#include "groups/group_system.hpp"
#include "sim/monitors.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace gam::amcast {
namespace {

using groups::GroupSystem;

// One run of a (topology, pattern, options, workload) cell under a given
// engine, with both the structured action trace and the delivery event
// stream recorded.
struct EngineRun {
  RunRecord record;
  Trace actions;
  sim::RecorderSink events;
};

EngineRun run_engine(const GroupSystem& sys, const sim::FailurePattern& pat,
                     MuMulticast::Options opt,
                     const std::vector<MulticastMessage>& msgs,
                     MuMulticast::Engine engine) {
  opt.engine = engine;
  EngineRun out;
  MuMulticast mc(sys, pat, opt);
  mc.attach_trace(&out.actions);
  mc.set_event_sink(&out.events);
  for (const auto& m : msgs) mc.submit(m);
  out.record = mc.run();
  return out;
}

std::string dump_dir() {
  const char* t = std::getenv("TEST_TMPDIR");
  return t ? t : "/tmp";
}

// Compares two runs event-for-event; on mismatch writes both delivery traces
// for trace_diff and fails with the localized divergence report.
void expect_equivalent(const char* label, const EngineRun& scan,
                       const EngineRun& inc) {
  // Delivery record: the user-visible output of the protocol.
  ASSERT_EQ(scan.record.deliveries.size(), inc.record.deliveries.size())
      << label;
  for (size_t i = 0; i < scan.record.deliveries.size(); ++i) {
    const auto& a = scan.record.deliveries[i];
    const auto& b = inc.record.deliveries[i];
    ASSERT_TRUE(a.p == b.p && a.m == b.m && a.t == b.t &&
                a.local_seq == b.local_seq)
        << label << ": delivery " << i << " differs (scan p" << a.p << " m"
        << a.m << " t" << a.t << " vs incremental p" << b.p << " m" << b.m
        << " t" << b.t << ")";
  }

  // Run shape.
  EXPECT_EQ(scan.record.steps, inc.record.steps) << label;
  EXPECT_EQ(scan.record.quiescent, inc.record.quiescent) << label;
  EXPECT_EQ(scan.record.multicast.size(), inc.record.multicast.size()) << label;
  EXPECT_EQ(scan.record.active, inc.record.active) << label;

  // Full action stream: catches divergences that cancel out downstream.
  const auto& sa = scan.actions.events();
  const auto& ia = inc.actions.events();
  size_t n = std::min(sa.size(), ia.size());
  for (size_t i = 0; i < n; ++i) {
    const auto& a = sa[i];
    const auto& b = ia[i];
    bool same = a.t == b.t && a.p == b.p && a.action == b.action &&
                a.m == b.m && a.h == b.h && a.position == b.position;
    ASSERT_TRUE(same) << label << ": action " << i << " diverges:\n  scan:  t="
                      << a.t << " p" << a.p << " " << action_name(a.action)
                      << " m" << a.m << "\n  incr:  t=" << b.t << " p" << b.p
                      << " " << action_name(b.action) << " m" << b.m;
  }
  ASSERT_EQ(sa.size(), ia.size()) << label << ": action counts differ";

  // Delivery-event stream (what the sweep determinism gate hashes). On a
  // mismatch, dump both traces in trace_diff format and print its report.
  if (scan.events.hash() != inc.events.hash()) {
    std::string base = dump_dir() + "/engine_equiv." + label;
    std::string pa = base + ".scan.trace", pb = base + ".incremental.trace";
    scan.events.write(pa);
    inc.events.write(pb);
    auto div = sim::first_divergence(scan.events.events(), inc.events.events());
    std::string report =
        div ? sim::render_divergence(scan.events.events(), inc.events.events(),
                                     *div)
            : std::string("(hash differs but streams compare equal?)");
    FAIL() << label << ": delivery-event hash mismatch\n"
           << report << "dumped: " << pa << " " << pb
           << "\n(inspect offline with: trace_diff " << pa << " " << pb << ")";
  }
}

// Every cell's recorded event stream also replays through the online
// invariant monitors (integrity / agreement / acyclicity): equivalence
// between engines is worthless if both are equivalently wrong. End-of-run
// obligations only bind when the run quiesced under an unrestricted
// scheduler — a fair-set-restricted or cut-off run legitimately leaves
// deliveries pending at the excluded processes.
void expect_invariants(const char* label, const GroupSystem& sys,
                       const sim::FailurePattern& pat,
                       const MuMulticast::Options& opt, const EngineRun& run) {
  sim::MonitorConfig cfg;
  for (GroupId g = 0; g < sys.group_count(); ++g)
    cfg.groups.push_back(sys.group(g));
  cfg.faulty = pat.faulty_set();
  sim::InvariantMonitors mons(cfg);
  sim::feed(mons, run.events.events());
  mons.finalize(run.record.quiescent && opt.fair_set.empty());
  for (const auto& v : mons.violations())
    ADD_FAILURE() << label << ": " << sim::format_violation(v);
}

void sweep_cell(const char* label, const GroupSystem& sys,
                const sim::FailurePattern& pat, MuMulticast::Options opt,
                const std::vector<MulticastMessage>& msgs) {
  auto scan = run_engine(sys, pat, opt, msgs, MuMulticast::Engine::kScan);
  auto inc =
      run_engine(sys, pat, opt, msgs, MuMulticast::Engine::kIncremental);
  expect_equivalent(label, scan, inc);
  expect_invariants(label, sys, pat, opt, inc);
}

TEST(EngineEquivalence, DisjointK8SeedSweep) {
  auto sys = groups::disjoint_system(8, 2);
  sim::FailurePattern pat(sys.process_count());
  auto msgs = round_robin_workload(sys, 3);
  for (std::uint64_t seed = 1; seed <= 12; ++seed)
    sweep_cell(("disjoint_k8_s" + std::to_string(seed)).c_str(), sys, pat,
               {.seed = seed}, msgs);
}

TEST(EngineEquivalence, Figure1FailureFreeSeedSweep) {
  auto sys = groups::figure1_system();
  sim::FailurePattern pat(sys.process_count());
  auto msgs = round_robin_workload(sys, 3);
  for (std::uint64_t seed = 1; seed <= 12; ++seed)
    sweep_cell(("fig1_s" + std::to_string(seed)).c_str(), sys, pat,
               {.seed = seed}, msgs);
}

TEST(EngineEquivalence, Figure1CrashEnvironments) {
  // The bench's figure1_crashes cell: sampled crash patterns, detector lag —
  // the paths where a missed failure-detector invalidation would show.
  auto sys = groups::figure1_system();
  auto msgs = round_robin_workload(sys, 2);
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed);
    sim::EnvironmentSampler env{
        .process_count = 5, .max_failures = 2, .horizon = 100};
    sim::FailurePattern pat = env.sample(rng);
    sweep_cell(("fig1_crash_s" + std::to_string(seed)).c_str(), sys, pat,
               {.seed = seed, .fd_lag = (seed % 3) * 2}, msgs);
  }
}

TEST(EngineEquivalence, ChainAndTriangleTopologies) {
  GroupSystem chain(5, {ProcessSet{0, 1}, ProcessSet{1, 2, 3},
                        ProcessSet{3, 4}});
  GroupSystem triangle(3, {ProcessSet{0, 1}, ProcessSet{1, 2},
                           ProcessSet{2, 0}});
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::FailurePattern pc(chain.process_count());
    sweep_cell(("chain_s" + std::to_string(seed)).c_str(), chain, pc,
               {.seed = seed}, round_robin_workload(chain, 3));
    sim::FailurePattern pt(triangle.process_count());
    sweep_cell(("triangle_s" + std::to_string(seed)).c_str(), triangle, pt,
               {.seed = seed}, round_robin_workload(triangle, 3));
  }
}

TEST(EngineEquivalence, StrictVariant) {
  auto sys = groups::figure1_system();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::FailurePattern pat(sys.process_count());
    if (seed % 2 == 0) pat.crash_at(3, 5);  // exercise the 1^{g∩h} flips
    sweep_cell(("strict_s" + std::to_string(seed)).c_str(), sys, pat,
               {.seed = seed, .fd_lag = 2, .strict = true},
               round_robin_workload(sys, 2));
  }
}

TEST(EngineEquivalence, HelpingWithCrashedSenders) {
  // Helping enables a guard purely by the clock crossing a raw crash time —
  // the invalidation path that has no log mutation attached.
  auto sys = groups::disjoint_system(4, 2);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::FailurePattern pat(sys.process_count());
    pat.crash_at(0, 3 + static_cast<sim::Time>(seed % 4));
    sweep_cell(("helping_s" + std::to_string(seed)).c_str(), sys, pat,
               {.seed = seed, .fd_lag = 1, .helping = true},
               round_robin_workload(sys, 3));
  }
}

TEST(EngineEquivalence, FairSetRestrictedRuns) {
  auto sys = groups::figure1_system();
  sim::FailurePattern pat(sys.process_count());
  auto msgs = round_robin_workload(sys, 2);
  // Restrict the scheduler to p0..p3 (g3 = {p0,p3,p4} keeps a member).
  ProcessSet fair{0, 1, 2, 3};
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    sweep_cell(("fair_s" + std::to_string(seed)).c_str(), sys, pat,
               {.seed = seed, .max_steps = 4096, .fair_set = fair}, msgs);
}

TEST(EngineEquivalence, ExternalClockTickDriven) {
  // The emulation harness's driving pattern: the orchestrator owns the clock
  // via set_time and steps each process once per tick. Exercises the
  // transition-crossing path of set_time (only ticks that cross a μ
  // transition may refresh caches).
  auto sys = groups::figure1_system();
  auto msgs = round_robin_workload(sys, 2);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::FailurePattern pat(sys.process_count());
    pat.crash_at(1, 10 + static_cast<sim::Time>(seed));
    MuMulticast::Options opt{.seed = seed, .fd_lag = 2,
                             .external_clock = true};
    EngineRun runs[2];
    for (int e = 0; e < 2; ++e) {
      auto& out = runs[e];
      opt.engine = e == 0 ? MuMulticast::Engine::kScan
                          : MuMulticast::Engine::kIncremental;
      MuMulticast mc(sys, pat, opt);
      mc.attach_trace(&out.actions);
      mc.set_event_sink(&out.events);
      for (const auto& m : msgs) mc.submit(m);
      for (sim::Time t = 0; t < 200; ++t) {
        mc.set_time(t);
        for (ProcessId p = 0; p < sys.process_count(); ++p)
          mc.step_process(p);
      }
      out.record = mc.record();
    }
    expect_equivalent(("tick_s" + std::to_string(seed)).c_str(), runs[0],
                      runs[1]);
  }
}

}  // namespace
}  // namespace gam::amcast
