// Tracing a run of Algorithm 1: how a message moves through the phases of
// §4.3 (multicast → pending → commit → stabilize → stable → deliver), and
// what the trace looks like when a crash forces γ to unblock the survivors.
// The last section drops below the protocol to the simulator's own event
// stream (src/sim/trace.hpp): every send, receive, null step, crash, FD
// query and delivery of a World-backed run, recorded and diffed.
#include <cstdio>

#include "amcast/mu_multicast.hpp"
#include "amcast/replicated_multicast.hpp"
#include "amcast/trace.hpp"
#include "amcast/workload.hpp"
#include "groups/generator.hpp"
#include "groups/group_system.hpp"
#include "sim/trace.hpp"

int main() {
  using namespace gam;

  // Two intersecting groups: g0 = {p0,p1}, g1 = {p1,p2}.
  groups::GroupSystem sys(3, {ProcessSet{0, 1}, ProcessSet{1, 2}});
  sim::FailurePattern pat(3);

  amcast::MuMulticast mc(sys, pat, {.seed = 1});
  amcast::Trace trace;
  mc.attach_trace(&trace);
  mc.submit({0, 0, 0, 0});  // m0 to g0
  mc.submit({1, 1, 2, 0});  // m1 to g1
  mc.run();

  std::printf("== timeline (every action firing, in order) ==\n%s",
              trace.render_timeline().c_str());
  std::printf("\n== per-message lifecycles ==\n%s",
              trace.render_lifecycles().c_str());
  std::printf("\nphase-progression check: %s\n",
              trace.check_progression().empty() ? "consistent"
                                                : trace.check_progression().c_str());

  // Same workload on the Figure-1 topology with a crash: watch the commit of
  // g0's message wait until γ drops the families broken by p1's death.
  std::printf("\n== Figure 1, p1 crashes at t=15 — g0's message must wait for "
              "gamma ==\n");
  auto fig = groups::figure1_system();
  sim::FailurePattern crash(5);
  crash.crash_at(1, 15);
  amcast::MuMulticast mc2(fig, crash, {.seed = 2});
  amcast::Trace trace2;
  mc2.attach_trace(&trace2);
  mc2.submit({0, 0, 0, 0});  // to g0 = {p0, p1}
  mc2.run();
  std::printf("%s", trace2.render_timeline().c_str());
  std::printf("(note the gap between 'pending' and 'commit' at p0: the commit "
              "precondition\nneeded tuples only p1 could write, until gamma "
              "declared p1's families faulty at t=15)\n");

  // One layer down: the simulator's own event stream. A RecorderSink on the
  // World captures every wire event of a ReplicatedMulticast run; two runs
  // with the same seed are event-for-event identical, and a seed change is
  // localized to its first divergent event — the same report
  // `tools/trace_diff` produces for recorded files.
  std::printf("\n== simulator event stream (ReplicatedMulticast, 2 groups "
              "of 3) ==\n");
  auto record_run = [](std::uint64_t seed, sim::RecorderSink& rec) {
    auto sys2 = groups::disjoint_system(2, 3);
    sim::FailurePattern nofail(sys2.process_count());
    amcast::ReplicatedMulticast rm(sys2, nofail, {.seed = seed});
    rm.set_event_sink(&rec);
    for (auto& m : amcast::round_robin_workload(sys2, 1)) rm.submit(m);
    rm.run();
  };
  sim::RecorderSink a, b, c;
  record_run(7, a);
  record_run(7, b);
  record_run(8, c);
  std::printf("first 6 of %zu events (hash %016llx):\n", a.events().size(),
              static_cast<unsigned long long>(a.hash()));
  for (size_t i = 0; i < a.events().size() && i < 6; ++i)
    std::printf("  %s\n", sim::format_event(a.events()[i]).c_str());
  auto same = sim::first_divergence(a.events(), b.events());
  std::printf("seed 7 vs seed 7: %s\n",
              same ? "DIVERGED (bug!)" : "identical, as required");
  auto diff = sim::first_divergence(a.events(), c.events());
  if (diff)
    std::printf("seed 7 vs seed 8:\n%s",
                sim::render_divergence(a.events(), c.events(), *diff, 2).c_str());
  return 0;
}
