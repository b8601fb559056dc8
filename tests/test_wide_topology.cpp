// Coverage for the widened id space: the IdPacker ballot/timestamp helper,
// the GroupPairIndex over intersecting (g,h) pairs, the sparse cyclic-family
// fallback for big intersection-graph components, and 128-group / 256-process
// topologies running Algorithm 1 and the RunSpec-backed ReplicatedMulticast
// end to end with the invariant monitors clean.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "amcast/mu_multicast.hpp"
#include "amcast/replicated_multicast.hpp"
#include "amcast/spec.hpp"
#include "amcast/workload.hpp"
#include "groups/generator.hpp"
#include "groups/group_system.hpp"
#include "sim/monitors.hpp"
#include "sim/trace.hpp"
#include "util/packing.hpp"
#include "util/process_set.hpp"

namespace gam {
namespace {

// ---- IdPacker ---------------------------------------------------------------

TEST(IdPacker, LegacyStrideForSmallScopes) {
  // Every scope whose ids fit below 64 keeps the historical stride, so
  // packed ballots in recorded seed traces are unchanged.
  auto p = IdPacker::for_set(ProcessSet::universe(5));
  EXPECT_EQ(p.stride(), IdPacker::kLegacyStride);
  EXPECT_EQ(p.pack(3, 2), 3 * 64 + 2);
  EXPECT_EQ(p.major_of(3 * 64 + 2), 3);
  EXPECT_EQ(p.id_of(3 * 64 + 2), 2);
  EXPECT_EQ(IdPacker::for_set(ProcessSet{63}).stride(),
            IdPacker::kLegacyStride);
}

TEST(IdPacker, WideStrideOnceAnIdReachesSixtyFour) {
  auto p = IdPacker::for_set(ProcessSet{0, 64});
  EXPECT_EQ(p.stride(), IdPacker::kWideStride);
  // The legacy stride would alias (round 1, id 0) with (round 0, id 64);
  // the wide stride keeps them distinct.
  EXPECT_NE(p.pack(0, 64), p.pack(1, 0));
  EXPECT_EQ(p.major_of(p.pack(7, 200)), 7);
  EXPECT_EQ(p.id_of(p.pack(7, 200)), 200);
}

TEST(IdPacker, PackedOrderIsLexicographic) {
  for (auto p : {IdPacker::for_limit(8), IdPacker::for_limit(200)}) {
    // Higher rounds beat lower rounds regardless of the id minor.
    EXPECT_LT(p.pack(0, static_cast<int>(p.stride()) - 1), p.pack(1, 0));
    EXPECT_LT(p.pack(5, 3), p.pack(5, 4));
  }
}

TEST(IdPacker, LargeRoundsDoNotOverflow) {
  // round * 64 + self used to be computed in int; int64 packing survives
  // rounds past 2^31.
  auto p = IdPacker::for_limit(64);
  std::int64_t big = std::int64_t{1} << 40;
  EXPECT_EQ(p.major_of(p.pack(big, 7)), big);
  EXPECT_EQ(p.id_of(p.pack(big, 7)), 7);
}

TEST(IdPackerDeathTest, ContractViolations) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto p = IdPacker::for_limit(8);
  EXPECT_DEATH(p.pack(0, 64), "Precondition");   // id past the stride
  EXPECT_DEATH(p.pack(-1, 0), "Precondition");   // negative major
  EXPECT_DEATH(IdPacker::for_set(ProcessSet{}), "Precondition");
}

// ---- GroupPairIndex ---------------------------------------------------------

TEST(GroupPairIndex, NormalizesAndSizes) {
  // Figure 1 has four groups and five intersecting pairs: every pair but
  // g1∩g3 = ∅. One slot each, the diagonal included.
  auto sys = groups::figure1_system();
  const groups::GroupPairIndex& idx = sys.pair_index();
  int intersecting = 0;
  for (groups::GroupId g = 0; g < sys.group_count(); ++g)
    for (groups::GroupId h = g + 1; h < sys.group_count(); ++h)
      if (sys.intersecting(g, h)) ++intersecting;
  EXPECT_EQ(intersecting, 5);
  EXPECT_EQ(idx.size(), sys.group_count() + intersecting);
  EXPECT_EQ(idx.flat(3, 0), idx.flat(0, 3));
  EXPECT_EQ(idx.flat(0, 0), 0);
  EXPECT_EQ(idx.flat(3, 3), idx.size() - 1);
  EXPECT_EQ(idx.find(1, 3), -1);
  EXPECT_EQ(idx.find(3, 1), -1);
  EXPECT_EQ(idx.neighbors(1), (std::vector<groups::GroupId>{0, 1, 2}));
}

TEST(GroupPairIndex, SizedByTheIntersectionGraph) {
  // 128 groups in 32 disjoint 4-rings: 128 diagonal slots plus 128 ring
  // edges, not 128².
  auto sys = groups::clustered_ring_system(32, 4, 2);
  ASSERT_EQ(sys.group_count(), 128);
  EXPECT_EQ(sys.pair_index().size(), 256);
}

TEST(GroupPairIndex, NoAliasingPastSixtyFourGroups) {
  // Every intersecting pair has its own slot, the slots run in (lo, hi)
  // order with no gap, and pair() reads each one back, on both sides of
  // group id 64.
  for (const groups::GroupSystem& sys :
       {groups::figure1_system(), groups::clustered_ring_system(32, 4, 2)}) {
    const groups::GroupPairIndex& idx = sys.pair_index();
    std::vector<int> hit(static_cast<size_t>(idx.size()), 0);
    int next = 0;
    for (groups::GroupId g = 0; g < sys.group_count(); ++g)
      for (groups::GroupId h = g; h < sys.group_count(); ++h) {
        if (!sys.intersecting(g, h)) {
          ASSERT_EQ(idx.find(g, h), -1) << g << "," << h;
          continue;
        }
        int f = idx.flat(g, h);
        ASSERT_EQ(f, next++) << g << "," << h;
        ASSERT_EQ(hit[static_cast<size_t>(f)]++, 0) << g << "," << h;
        EXPECT_EQ(idx.flat(h, g), f);
        EXPECT_EQ(idx.pair(f), std::make_pair(g, h));
      }
    EXPECT_EQ(next, idx.size());
  }
}

TEST(GroupPairIndexDeathTest, RejectsForeignGroupIds) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto sys = groups::figure1_system();
  const groups::GroupPairIndex& idx = sys.pair_index();
  EXPECT_DEATH(idx.flat(0, 4), "Precondition");
  EXPECT_DEATH(idx.flat(-1, 0), "Precondition");
}

TEST(GroupPairIndexDeathTest, RejectsDisjointPairs) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto sys = groups::figure1_system();
  EXPECT_DEATH(sys.pair_index().flat(1, 3), "Precondition");  // g1∩g3 = ∅
}

// ---- sparse cyclic-family fallback ------------------------------------------

TEST(SparseFamilies, BigComponentFallbackFindsTheTriangle) {
  // A chain of 22 groups is one 22-member connected component — past the
  // exhaustive per-component bound — whose only cyclic family is the
  // triangle g0-g1-g2 closed by a shared process. The fallback must find
  // exactly it.
  std::vector<ProcessSet> gs;
  for (int i = 0; i < 22; ++i) gs.push_back(ProcessSet{i, i + 1});
  gs[0].insert(50);  // close g0-g2: p50 sits in both
  gs[2].insert(50);
  groups::GroupSystem sys(51, gs);
  auto fams = sys.cyclic_families();
  ASSERT_EQ(fams.size(), 1u);
  EXPECT_EQ(fams.front(), groups::family_of({0, 1, 2}));
  EXPECT_TRUE(sys.is_cyclic(fams.front()));
}

TEST(SparseFamilies, CyclicNeighborsStillWorkPastTheBound) {
  // The γ machinery consumes families_of_process; the fallback's results
  // must flow through it. p1 sits in g0∩g1 of the triangle above.
  std::vector<ProcessSet> gs;
  for (int i = 0; i < 22; ++i) gs.push_back(ProcessSet{i, i + 1});
  gs[0].insert(50);
  gs[2].insert(50);
  groups::GroupSystem sys(51, gs);
  auto fams = sys.families_of_process(1);
  ASSERT_EQ(fams.size(), 1u);
  EXPECT_EQ(fams.front(), groups::family_of({0, 1, 2}));
}

// ---- wide topologies end to end ---------------------------------------------

TEST(WideTopology, ClusteredRingSystemShape) {
  auto sys = groups::clustered_ring_system(32, 4, 2);
  EXPECT_EQ(sys.process_count(), 256);
  EXPECT_EQ(sys.group_count(), 128);
  // One cyclic family per cluster: its whole 4-ring.
  auto fams = sys.cyclic_families();
  ASSERT_EQ(fams.size(), 32u);
  for (int c = 0; c < 32; ++c)
    EXPECT_TRUE(std::count(fams.begin(), fams.end(),
                           groups::family_of({4 * c, 4 * c + 1, 4 * c + 2,
                                              4 * c + 3})) == 1)
        << "cluster " << c;
}

TEST(WideTopology, MuMulticastRunsCleanAndDeterministic) {
  // Algorithm 1 on 128 groups / 256 processes: every message delivers, the
  // integrity/agreement/acyclicity monitors stay silent, and two identical
  // runs produce identical traces.
  auto run = [](sim::RecorderSink* rec) {
    auto sys = groups::clustered_ring_system(32, 4, 2);
    sim::FailurePattern pat(sys.process_count());
    amcast::MuMulticast mc(sys, pat, {.seed = 9, .max_steps = 1u << 22});
    mc.set_event_sink(rec);
    for (auto& m : amcast::round_robin_workload(sys, 1)) mc.submit(m);
    return mc.run();
  };
  sim::RecorderSink a;
  auto record = run(&a);
  EXPECT_TRUE(record.quiescent);

  auto sys = groups::clustered_ring_system(32, 4, 2);
  // 128 messages, each delivered by its 3-member destination group.
  EXPECT_EQ(record.deliveries.size(), 384u);
  sim::FailurePattern pat(sys.process_count());
  auto spec = amcast::check_all(record, sys, pat);
  EXPECT_TRUE(spec.ok) << spec.error;

  sim::MonitorConfig cfg;
  for (groups::GroupId g = 0; g < sys.group_count(); ++g)
    cfg.groups.push_back(sys.group(g));
  cfg.require_multicast = true;
  sim::InvariantMonitors mons(cfg);
  sim::feed(mons, a.events());
  mons.finalize(record.quiescent);
  EXPECT_TRUE(mons.ok()) << sim::format_violation(mons.violations().front());
  EXPECT_GT(mons.integrity().events_seen(), 0u);

  sim::RecorderSink b;
  run(&b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.events().size(), b.events().size());
}

TEST(WideTopology, ReplicatedMulticastScenarioRunsClean) {
  // The RunSpec-backed World runtime at the same scale: 128 per-group Paxos
  // logs across 256 processes (ReplicatedMulticast requires pairwise-disjoint
  // groups), monitors clean, trace deterministic.
  auto run = [](sim::TraceSink* sink) {
    auto sys = groups::disjoint_system(128, 2);
    sim::FailurePattern pat(sys.process_count());
    amcast::ReplicatedMulticast rm(sys, pat, {.seed = 11});
    rm.set_event_sink(sink);
    for (auto& m : amcast::round_robin_workload(sys, 1)) rm.submit(m);
    return rm.run();
  };
  sim::RecorderSink rec;
  auto record = run(&rec);
  EXPECT_TRUE(record.quiescent);
  EXPECT_EQ(record.deliveries.size(), 256u);  // 128 messages x 2 members

  auto sys = groups::disjoint_system(128, 2);
  sim::MonitorConfig cfg;
  for (groups::GroupId g = 0; g < sys.group_count(); ++g)
    cfg.groups.push_back(sys.group(g));
  // World traces number protocols kTraceBase+g
  cfg.protocol_base = amcast::ReplicatedMulticast::kTraceBase;
  cfg.require_multicast = false; // delivery-side trace only
  sim::InvariantMonitors mons(cfg);
  sim::feed(mons, rec.events());
  mons.finalize(record.quiescent);
  EXPECT_TRUE(mons.ok()) << sim::format_violation(mons.violations().front());

  sim::HashingSink again;
  run(&again);
  EXPECT_EQ(rec.hash(), again.hash());
}

}  // namespace
}  // namespace gam
