// Tests for the baseline protocols: each must satisfy exactly the properties
// it claims — and measurably *lack* the ones the paper says it lacks.
#include "amcast/baselines.hpp"

#include <gtest/gtest.h>

#include "amcast/mu_multicast.hpp"
#include "amcast/spec.hpp"
#include "amcast/workload.hpp"
#include "groups/group_system.hpp"

namespace gam::amcast {
namespace {

using groups::GroupSystem;
using groups::figure1_system;
using sim::FailurePattern;

GroupSystem disjoint_groups() {
  return GroupSystem(6, {ProcessSet{0, 1}, ProcessSet{2, 3},
                         ProcessSet{4, 5}});
}

// ---- BroadcastMulticast ------------------------------------------------------

TEST(BroadcastMulticast, SafeAndLiveButNotGenuine) {
  auto sys = disjoint_groups();
  FailurePattern pat(6);
  BroadcastMulticast bc(sys, pat, {.seed = 3});
  // A single message to g0: with a broadcast-based solution EVERY process
  // takes steps — the minimality violation of §2.3.
  bc.submit({0, 0, 0, 0});
  auto rec = bc.run();
  EXPECT_TRUE(check_integrity(rec, sys).ok);
  EXPECT_TRUE(check_ordering(rec, sys).ok);
  EXPECT_TRUE(check_termination(rec, sys, pat).ok);
  EXPECT_FALSE(check_minimality(rec, sys).ok);
  EXPECT_EQ(rec.active, ProcessSet::universe(6));
}

TEST(BroadcastMulticast, TotalOrderAcrossGroups) {
  auto sys = figure1_system();
  FailurePattern pat(5);
  BroadcastMulticast bc(sys, pat, {.seed = 7});
  for (auto& m : round_robin_workload(sys, 4)) bc.submit(m);
  auto rec = bc.run();
  EXPECT_TRUE(check_integrity(rec, sys).ok);
  EXPECT_TRUE(check_ordering(rec, sys).ok);
  EXPECT_TRUE(check_termination(rec, sys, pat).ok);
  EXPECT_TRUE(check_pairwise_ordering(rec).ok);  // global order is total
}

TEST(BroadcastMulticast, StepCostScalesWithSystemSize) {
  // The quantitative core of the genuineness argument [33, 37]: one message
  // to one group costs ~n steps under broadcast, ~|g| under Algorithm 1.
  auto sys = disjoint_groups();
  FailurePattern pat(6);
  BroadcastMulticast bc(sys, pat, {.seed = 1});
  bc.submit({0, 0, 0, 0});
  auto rec_bc = bc.run();

  MuMulticast mu(sys, pat, {.seed = 1});
  mu.submit({0, 0, 0, 0});
  auto rec_mu = mu.run();

  // Broadcast pays at least one step at every process (append + n consumes);
  // the genuine solution charges only the destination group. Absolute step
  // counts are not comparable across the two execution models — the scaling
  // *shape* (flat vs linear in system size) is what bench_genuine_vs_broadcast
  // measures.
  EXPECT_GE(rec_bc.steps, 7u);        // 1 append + 6 consumes
  EXPECT_EQ(rec_mu.active.size(), 2); // only g0
  EXPECT_EQ(rec_bc.active.size(), 6); // everyone
}

TEST(BroadcastMulticast, ToleratesCrashesOfNonSenders) {
  auto sys = disjoint_groups();
  FailurePattern pat(6);
  pat.crash_at(5, 3);
  BroadcastMulticast bc(sys, pat, {.seed = 5});
  bc.submit({0, 0, 0, 0});
  bc.submit({1, 1, 2, 0});
  auto rec = bc.run();
  EXPECT_TRUE(check_termination(rec, sys, pat).ok);
}

// ---- SkeenMulticast ----------------------------------------------------------

TEST(SkeenMulticast, FailureFreeRunsAreCorrect) {
  auto sys = figure1_system();
  FailurePattern pat(5);
  SkeenMulticast sk(sys, pat, {.seed = 11});
  for (auto& m : round_robin_workload(sys, 4)) sk.submit(m);
  auto rec = sk.run();
  auto r = check_all(rec, sys, pat);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_GT(sk.wire_messages(), 0u);
}

TEST(SkeenMulticast, GenuineOnDisjointWorkload) {
  auto sys = disjoint_groups();
  FailurePattern pat(6);
  SkeenMulticast sk(sys, pat, {.seed = 2});
  sk.submit({0, 0, 0, 0});
  auto rec = sk.run();
  EXPECT_TRUE(check_minimality(rec, sys).ok);
  EXPECT_EQ(rec.active.size(), 2);
}

TEST(SkeenMulticast, BlocksWhenADestinationMemberCrashes) {
  // Skeen has no failure handling: one dead proposer blocks the message at
  // every correct member — the motivation for failure detectors.
  auto sys = figure1_system();
  FailurePattern pat(5);
  pat.crash_at(1, 0);  // member of g0 and g1, dead from the start
  SkeenMulticast sk(sys, pat, {.seed = 4});
  sk.submit({0, 0, 0, 0});  // to g0 = {p0, p1}
  auto rec = sk.run();
  EXPECT_FALSE(check_termination(rec, sys, pat).ok);
  EXPECT_TRUE(rec.deliveries.empty());
}

TEST(SkeenMulticast, AgreesWithTimestampOrderAcrossOverlaps) {
  auto sys = figure1_system();
  FailurePattern pat(5);
  SkeenMulticast sk(sys, pat, {.seed = 21});
  for (auto& m : round_robin_workload(sys, 6)) sk.submit(m);
  auto rec = sk.run();
  EXPECT_TRUE(check_ordering(rec, sys).ok);
  EXPECT_TRUE(check_pairwise_ordering(rec).ok);
}

// ---- PartitionedMulticast ----------------------------------------------------

TEST(PartitionedMulticast, FinestPartitionsOfFigure1) {
  auto sys = figure1_system();
  auto parts = PartitionedMulticast::finest_partitions(sys);
  // Signatures: p0 ∈ {g0,g2,g3}, p1 ∈ {g0,g1}, p2 ∈ {g1,g2}, p3 ∈ {g2,g3},
  // p4 ∈ {g3} — all distinct: five singleton partitions.
  EXPECT_EQ(parts.size(), 5u);
  for (auto& p : parts) EXPECT_EQ(p.size(), 1);
}

TEST(PartitionedMulticast, FinestPartitionsMergeTwins) {
  // p0,p1 belong to exactly the same groups -> one partition.
  GroupSystem sys(4, {ProcessSet{0, 1, 2}, ProcessSet{2, 3}});
  auto parts = PartitionedMulticast::finest_partitions(sys);
  EXPECT_EQ(parts.size(), 3u);  // {0,1}, {2}, {3}
}

TEST(PartitionedMulticast, FailureFreeRunsAreCorrect) {
  auto sys = figure1_system();
  FailurePattern pat(5);
  PartitionedMulticast pm(sys, pat,
                          PartitionedMulticast::finest_partitions(sys),
                          {.seed = 9});
  for (auto& m : round_robin_workload(sys, 4)) pm.submit(m);
  auto rec = pm.run();
  auto r = check_all(rec, sys, pat);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(pm.blocked().empty());
}

TEST(PartitionedMulticast, BlocksWhenAPartitionDiesEntirely) {
  // The cost of the decomposability assumption (§7): killing p1 — a whole
  // partition — blocks messages to g0 and g1 forever, while Algorithm 1
  // keeps delivering at the survivors (MuMulticast test above).
  auto sys = figure1_system();
  FailurePattern pat(5);
  pat.crash_at(1, 0);
  PartitionedMulticast pm(sys, pat,
                          PartitionedMulticast::finest_partitions(sys),
                          {.seed = 13});
  pm.submit({0, 0, 0, 0});  // to g0 ⊇ {p1}
  auto rec = pm.run();
  EXPECT_FALSE(rec.multicast.empty());
  EXPECT_EQ(pm.blocked().size(), 1u);
  EXPECT_FALSE(check_termination(rec, sys, pat).ok);
}

TEST(PartitionedMulticast, SurvivesCrashInsideALargerPartition) {
  // With a non-singleton partition, one member may die and the entity lives.
  GroupSystem sys(4, {ProcessSet{0, 1, 2}, ProcessSet{2, 3}});
  FailurePattern pat(4);
  pat.crash_at(0, 0);  // partition {0,1} keeps p1
  PartitionedMulticast pm(sys, pat,
                          PartitionedMulticast::finest_partitions(sys),
                          {.seed = 17});
  pm.submit({0, 0, 1, 0});
  auto rec = pm.run();
  EXPECT_TRUE(pm.blocked().empty());
  auto r = check_termination(rec, sys, pat);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(PartitionedMulticast, RejectsInvalidDecomposition) {
  auto sys = figure1_system();
  FailurePattern pat(5);
  EXPECT_DEATH(PartitionedMulticast(sys, pat, {ProcessSet{0, 1, 2}}, {}),
               "Precondition");
}

// ---- PerfectFdMulticast ([36] preset) -----------------------------------------

TEST(PerfectFdMulticast, DeliversDespiteIntersectionCrash) {
  auto sys = figure1_system();
  FailurePattern pat(5);
  pat.crash_at(1, 30);
  MuMulticast mc(sys, pat, perfect_fd_options({.seed = 19}));
  for (auto& m : round_robin_workload(sys, 2)) mc.submit(m);
  auto rec = mc.run();
  auto r = check_all(rec, sys, pat);
  EXPECT_TRUE(r.ok) << r.error;
  auto s = check_strict_ordering(rec, sys);
  EXPECT_TRUE(s.ok) << s.error;
}

}  // namespace
}  // namespace gam::amcast
