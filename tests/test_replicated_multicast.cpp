// End-to-end: genuine atomic multicast running over the message-passing
// object layer (per-group universal logs from Ω_g ∧ Σ_g inside a simulated
// network) — the §4.3 "implementing the shared objects" story closed for the
// disjoint-group and broadcast configurations.
#include "amcast/replicated_multicast.hpp"

#include <gtest/gtest.h>

#include <set>

#include "amcast/mu_multicast.hpp"
#include "amcast/spec.hpp"
#include "amcast/workload.hpp"
#include "groups/generator.hpp"
#include "sim/adversary.hpp"

namespace gam::amcast {
namespace {

using sim::FailurePattern;

TEST(ReplicatedMulticast, SingleGroupIsAtomicBroadcast) {
  groups::GroupSystem sys(3, {ProcessSet::universe(3)});
  FailurePattern pat(3);
  ReplicatedMulticast rm(sys, pat, {.seed = 1});
  for (auto& m : single_group_workload(sys, 0, 4)) rm.submit(m);
  auto rec = rm.run();
  auto r = check_all(rec, sys, pat);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(rec.deliveries.size(), 12u);
  // Single group => total order.
  auto pw = check_pairwise_ordering(rec);
  EXPECT_TRUE(pw.ok) << pw.error;
  EXPECT_GT(rm.wire_messages(), 0u);
}

TEST(ReplicatedMulticast, DisjointGroupsAreGenuine) {
  auto sys = groups::disjoint_system(3, 3);  // 9 processes
  FailurePattern pat(9);
  ReplicatedMulticast rm(sys, pat, {.seed = 2});
  // Address only g0: members of g1, g2 must exchange no messages at all.
  rm.submit({0, 0, 0, 0});
  rm.submit({1, 0, 1, 0});
  auto rec = rm.run();
  auto r = check_all(rec, sys, pat);
  EXPECT_TRUE(r.ok) << r.error;
  for (ProcessId p = 3; p < 9; ++p) {
    EXPECT_EQ(rm.world()->stats(p).messages_sent, 0u) << "p" << p;
    EXPECT_EQ(rm.world()->stats(p).steps, 0u) << "p" << p;
  }
}

TEST(ReplicatedMulticast, SurvivesLeaderCrash) {
  groups::GroupSystem sys(3, {ProcessSet::universe(3)});
  FailurePattern pat(3);
  pat.crash_at(0, 40);  // p0 = initial Ω leader
  ReplicatedMulticast rm(sys, pat, {.seed = 3});
  for (auto& m : single_group_workload(sys, 0, 4)) rm.submit(m);
  auto rec = rm.run();
  EXPECT_TRUE(check_integrity(rec, sys).ok);
  EXPECT_TRUE(check_ordering(rec, sys).ok);
  auto t = check_termination(rec, sys, pat);
  EXPECT_TRUE(t.ok) << t.error;
}

TEST(ReplicatedMulticast, FullWorkloadAcrossGroups) {
  auto sys = groups::disjoint_system(4, 3);
  FailurePattern pat(12);
  pat.crash_at(5, 60);
  ReplicatedMulticast rm(sys, pat, {.seed = 4});
  for (auto& m : round_robin_workload(sys, 3)) rm.submit(m);
  auto rec = rm.run();
  auto r = check_all(rec, sys, pat);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(ReplicatedMulticast, QuiescesWithEveryDeliveryUnderPct) {
  // Under strict PCT priorities a log leader that always wants a step would
  // run alone forever; past its horizon PCT plans fairly, so the run ends.
  auto sys = groups::disjoint_system(4, 3);
  FailurePattern pat(sys.process_count());
  ReplicatedMulticast rm(sys, pat, {.seed = 1, .scheduler = sim::pct(3)});
  for (auto& m : round_robin_workload(sys, 2)) rm.submit(m);
  auto rec = rm.run();
  ASSERT_TRUE(rec.quiescent);
  EXPECT_EQ(rec.deliveries.size(), 24u);  // 8 messages x 3 members
  auto r = check_all(rec, sys, pat);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(ReplicatedMulticast, RejectsIntersectingGroups) {
  auto sys = groups::figure1_system();
  FailurePattern pat(5);
  EXPECT_DEATH(ReplicatedMulticast(sys, pat, {}), "Precondition");
}

TEST(ReplicatedMulticast, AgreesWithIdealLayerOnDeliverySets) {
  // The same workload through the ideal-object engine and the replicated
  // engine: both must deliver exactly the same (process, message) pairs —
  // orders may differ between groups (both valid), within a group both are
  // total so the *sets* coincide.
  auto sys = groups::disjoint_system(2, 3);
  FailurePattern pat(6);
  auto workload = round_robin_workload(sys, 3);

  MuMulticast ideal(sys, pat, {.seed = 7});
  for (auto& m : workload) ideal.submit(m);
  auto a = ideal.run();

  ReplicatedMulticast repl(sys, pat, {.seed = 7});
  for (auto& m : workload) repl.submit(m);
  auto b = repl.run();

  auto key_set = [](const RunRecord& r) {
    std::set<std::pair<ProcessId, MsgId>> s;
    for (auto& d : r.deliveries) s.emplace(d.p, d.m);
    return s;
  };
  EXPECT_EQ(key_set(a), key_set(b));
  EXPECT_TRUE(check_all(b, sys, pat).ok);
}

}  // namespace
}  // namespace gam::amcast
