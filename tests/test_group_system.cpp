#include "groups/group_system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "groups/generator.hpp"

namespace gam::groups {
namespace {

// The paper's Figure 1, shifted to 0-based ids:
//   g0 = {p0,p1}, g1 = {p1,p2}, g2 = {p0,p2,p3}, g3 = {p0,p3,p4}.
// Cyclic families: f = {g0,g1,g2}, f' = {g0,g2,g3}, f'' = {g0,g1,g2,g3}.
class Figure1 : public ::testing::Test {
 protected:
  GroupSystem sys = figure1_system();
  FamilyMask f = family_of({0, 1, 2});
  FamilyMask fp = family_of({0, 2, 3});
  FamilyMask fpp = family_of({0, 1, 2, 3});
};

TEST_F(Figure1, BasicShape) {
  EXPECT_EQ(sys.process_count(), 5);
  EXPECT_EQ(sys.group_count(), 4);
  EXPECT_EQ(sys.group(0), (ProcessSet{0, 1}));
  EXPECT_EQ(sys.group(3), (ProcessSet{0, 3, 4}));
  EXPECT_EQ(sys.covered_processes(), ProcessSet::universe(5));
}

TEST_F(Figure1, Intersections) {
  EXPECT_EQ(sys.intersection(0, 1), ProcessSet{1});
  EXPECT_EQ(sys.intersection(0, 2), ProcessSet{0});
  EXPECT_EQ(sys.intersection(1, 2), ProcessSet{2});
  EXPECT_EQ(sys.intersection(1, 3), ProcessSet{});
  EXPECT_EQ(sys.intersection(2, 3), (ProcessSet{0, 3}));
  EXPECT_TRUE(sys.intersecting(0, 3));
  EXPECT_FALSE(sys.intersecting(1, 3));
}

TEST_F(Figure1, GroupsOfProcess) {
  EXPECT_EQ(sys.groups_of(0), (std::vector<GroupId>{0, 2, 3}));
  EXPECT_EQ(sys.groups_of(1), (std::vector<GroupId>{0, 1}));
  EXPECT_EQ(sys.groups_of(4), (std::vector<GroupId>{3}));
}

TEST_F(Figure1, ExactlyThePaperCyclicFamilies) {
  auto fams = sys.cyclic_families();
  std::set<FamilyMask> got(fams.begin(), fams.end());
  EXPECT_EQ(got, (std::set<FamilyMask>{f, fp, fpp}));
}

TEST_F(Figure1, FamiliesOfGroupMatchPaper) {
  // Paper: F(g_2) = {f, f''}; our g1.
  auto fams = sys.families_of_group(1);
  std::set<FamilyMask> got(fams.begin(), fams.end());
  EXPECT_EQ(got, (std::set<FamilyMask>{f, fpp}));
}

TEST_F(Figure1, FamiliesOfProcessMatchPaper) {
  // Paper: F(p_1) = F (our p0); F(p_5) = ∅ (our p4).
  auto all = sys.families_of_process(0);
  EXPECT_EQ(all.size(), 3u);
  EXPECT_TRUE(sys.families_of_process(4).empty());
  // Our p1 sits in g0∩g1 only → families containing both: f and f''.
  auto p1f = sys.families_of_process(1);
  std::set<FamilyMask> got(p1f.begin(), p1f.end());
  EXPECT_EQ(got, (std::set<FamilyMask>{f, fpp}));
}

TEST_F(Figure1, IsCyclicAgreesWithEnumeration) {
  for (std::uint32_t bits = 0; bits < (std::uint32_t{1} << 4); ++bits) {
    FamilyMask m;
    for (GroupId g = 0; g < 4; ++g)
      if ((bits >> g) & 1u) m.insert(g);
    bool in_list = std::count(sys.cyclic_families().begin(),
                              sys.cyclic_families().end(), m) > 0;
    EXPECT_EQ(sys.is_cyclic(m), in_list) << "family mask " << bits;
  }
}

TEST_F(Figure1, CpathsOfTriangle) {
  // A triangle has a unique Hamiltonian cycle, hence 3 rotations x 2
  // directions = 6 closed paths.
  auto paths = sys.cpaths(f);
  EXPECT_EQ(paths.size(), 6u);
  for (const auto& pi : paths) {
    EXPECT_EQ(pi.size(), 4u);
    EXPECT_EQ(pi.front(), pi.back());
    std::set<GroupId> visited(pi.begin(), pi.end());
    EXPECT_EQ(visited, (std::set<GroupId>{0, 1, 2}));
  }
  // All six are pairwise equivalent (same edges).
  for (const auto& a : paths)
    for (const auto& b : paths)
      EXPECT_TRUE(GroupSystem::paths_equivalent(a, b));
}

TEST_F(Figure1, CpathsOfFourCycleAreNotAllEquivalent) {
  // f'' has a unique Hamiltonian cycle too (g1's only neighbors are g0, g2).
  auto cycles = sys.hamiltonian_cycles(fpp);
  ASSERT_EQ(cycles.size(), 1u);
  auto paths = sys.cpaths(fpp);
  EXPECT_EQ(paths.size(), 8u);  // 4 rotations x 2 directions
}

TEST_F(Figure1, PathDirectionsSplitEvenly) {
  auto paths = sys.cpaths(f);
  int plus = 0, minus = 0;
  for (const auto& pi : paths)
    (sys.path_direction(pi) == 1 ? plus : minus)++;
  EXPECT_EQ(plus, 3);
  EXPECT_EQ(minus, 3);
}

TEST_F(Figure1, FamilyFaultyWhenP1Dies) {
  // Paper: f'' (and f) become faulty when g0∩g1 = {p1} fails; f' survives.
  sim::FailurePattern pat(5);
  pat.crash_at(1, 10);
  EXPECT_FALSE(sys.family_faulty_at(f, pat, 9));
  EXPECT_TRUE(sys.family_faulty_at(f, pat, 10));
  EXPECT_TRUE(sys.family_faulty_at(fpp, pat, 10));
  EXPECT_FALSE(sys.family_faulty_at(fp, pat, 1'000'000));
  EXPECT_TRUE(sys.family_faulty(f, pat));
  EXPECT_TRUE(sys.family_faulty(fpp, pat));
  EXPECT_FALSE(sys.family_faulty(fp, pat));
}

TEST_F(Figure1, FamilySurvivesWhileSomeCycleRemains) {
  // Killing p3 removes no edge of f'' (g2∩g3 = {p0,p3} keeps p0): not faulty.
  sim::FailurePattern pat(5);
  pat.crash_at(3, 0);
  EXPECT_FALSE(sys.family_faulty_at(fpp, pat, 100));
  EXPECT_FALSE(sys.family_faulty_at(fp, pat, 100));
}

TEST_F(Figure1, CyclicNeighborsConsistentAcrossFamilyMembers) {
  // Lemma 30: H(p, g) agrees at the members of a correct family. All members
  // of every intersection of every family must compute the same H(·, g0).
  auto ref = sys.cyclic_neighbors(0, 0);
  EXPECT_EQ(ref, (std::vector<GroupId>{0, 1, 2, 3}));
  EXPECT_EQ(sys.cyclic_neighbors(1, 0), ref);  // p1 ∈ g0∩g1
}

TEST(GroupSystem, DisjointGroupsHaveNoCyclicFamilies) {
  GroupSystem sys(6, {ProcessSet{0, 1}, ProcessSet{2, 3}, ProcessSet{4, 5}});
  EXPECT_TRUE(sys.cyclic_families().empty());
  for (ProcessId p = 0; p < 6; ++p)
    EXPECT_TRUE(sys.families_of_process(p).empty());
}

TEST(GroupSystem, AcyclicChainHasNoCyclicFamilies) {
  // g0 - g1 - g2 in a path: intersecting but no Hamiltonian cycle of size 3.
  GroupSystem sys(5, {ProcessSet{0, 1}, ProcessSet{1, 2, 3},
                      ProcessSet{3, 4}});
  EXPECT_TRUE(sys.cyclic_families().empty());
}

TEST(GroupSystem, TriangleIsCyclic) {
  GroupSystem sys(3, {ProcessSet{0, 1}, ProcessSet{1, 2}, ProcessSet{2, 0}});
  ASSERT_EQ(sys.cyclic_families().size(), 1u);
  EXPECT_EQ(sys.cyclic_families()[0], family_of({0, 1, 2}));
}

TEST(GroupSystem, CompleteIntersectionGraphFamilyCount) {
  // Four groups all sharing process 0: every subset of size >= 3 is cyclic
  // (complete graphs are Hamiltonian): C(4,3) + C(4,4) = 5 families.
  GroupSystem sys(5, {ProcessSet{0, 1}, ProcessSet{0, 2}, ProcessSet{0, 3},
                      ProcessSet{0, 4}});
  EXPECT_EQ(sys.cyclic_families().size(), 5u);
}

TEST(GroupSystem, CpathsDistinctCyclesOfK4) {
  // K4 has 3 distinct Hamiltonian cycles -> 3 * 4 * 2 = 24 closed paths.
  GroupSystem sys(5, {ProcessSet{0, 1}, ProcessSet{0, 2}, ProcessSet{0, 3},
                      ProcessSet{0, 4}});
  FamilyMask all = family_of({0, 1, 2, 3});
  EXPECT_EQ(sys.hamiltonian_cycles(all).size(), 3u);
  EXPECT_EQ(sys.cpaths(all).size(), 24u);
}

TEST(GroupSystem, FamilyMembersRoundTrip) {
  FamilyMask m = family_of({1, 4, 9});
  EXPECT_EQ(family_members(m), (std::vector<GroupId>{1, 4, 9}));
  EXPECT_EQ(family_size(m), 3);
  EXPECT_TRUE(family_contains(m, 4));
  EXPECT_FALSE(family_contains(m, 2));
}

TEST(GroupSystem, FamilyFaultyNeedsAllCyclesBroken) {
  // Two triangles sharing an edge: family of 4 groups with 2 Hamiltonian
  // cycles... construct: g0={0,1}, g1={1,2}, g2={2,3,0}, g3={0,2}.
  // Edges: g0g1(1), g1g2(2), g2g0(0), g1g3(2), g2g3(0,2... ) — just verify the
  // predicate only fires when the remaining graph loses Hamiltonicity.
  GroupSystem sys(4, {ProcessSet{0, 1}, ProcessSet{1, 2}, ProcessSet{2, 3, 0},
                      ProcessSet{0, 2}});
  FamilyMask quad = family_of({0, 1, 2, 3});
  if (!sys.is_cyclic(quad)) GTEST_SKIP() << "topology not cyclic";
  sim::FailurePattern pat(4);
  pat.crash_at(2, 5);  // kills g1∩g3 = {2} and weakens others
  bool faulty_after = sys.family_faulty_at(quad, pat, 5);
  bool faulty_before = sys.family_faulty_at(quad, pat, 4);
  EXPECT_FALSE(faulty_before);
  // After p2 dies, g1 = {1,2} keeps p1; g1's edges to g2 (via p2) and to g3
  // (via p2) are gone, so no cycle can include g1.
  EXPECT_TRUE(faulty_after);
}

TEST(GroupSystem, PairwiseVsHamiltonianFaultyReadingsDivergeOnChords) {
  // Intersection graph: K4 minus the edge g2-g3, with the chord g0-g1 having
  // a dedicated process p0. Killing p0 makes the 4-family faulty under the
  // pairwise reading (the one liveness needs, cf. Lemma 25) but NOT under the
  // literal per-path reading: the Hamiltonian cycle g2-g0-g3-g1-g2 avoids
  // the dead chord.
  GroupSystem sys(7, {ProcessSet{0, 1, 4, 5},    // g0
                      ProcessSet{0, 2, 3, 6},    // g1
                      ProcessSet{1, 2},          // g2
                      ProcessSet{3, 4}});        // g3
  FamilyMask quad = family_of({0, 1, 2, 3});
  ASSERT_TRUE(sys.is_cyclic(quad));
  sim::FailurePattern pat(7);
  pat.crash_at(0, 10);  // p0 = g0∩g1, a chord of the surviving cycle
  EXPECT_TRUE(sys.family_faulty_at(quad, pat, 10));
  EXPECT_FALSE(sys.family_faulty_hamiltonian_at(quad, pat, 10));
  // On Figure 1 the two readings agree everywhere.
  auto fig = figure1_system();
  sim::FailurePattern fp(5);
  fp.crash_at(1, 5);
  for (FamilyMask f : fig.cyclic_families())
    EXPECT_EQ(fig.family_faulty_at(f, fp, 5),
              fig.family_faulty_hamiltonian_at(f, fp, 5));
}

TEST(GroupSystemLimits, MaxGroupsConstructAndEnumerate) {
  // kMaxGroups exactly: 128 disjoint single-member groups. Family
  // enumeration must not scan 2^128 subsets (it runs per connected component
  // of the intersection graph, and disjoint groups give 128 singleton
  // components).
  std::vector<ProcessSet> gs;
  for (int g = 0; g < GroupSystem::kMaxGroups; ++g)
    gs.push_back(ProcessSet::single(g));
  GroupSystem sys(GroupSystem::kMaxGroups, gs);
  EXPECT_EQ(sys.group_count(), GroupSystem::kMaxGroups);
  EXPECT_TRUE(sys.cyclic_families().empty());
}

TEST(GroupSystemLimits, PastTheOldSixtyFourCeiling) {
  // Regression for the former 64-group cap: 65+ groups must construct, keep
  // distinct FamilyMask bits, and enumerate cyclic families correctly. 22
  // disjoint triangles of groups = 66 groups, each a 3-member component.
  std::vector<ProcessSet> gs;
  for (int t = 0; t < 22; ++t) {
    int base = 2 * t;  // two shared processes per triangle
    gs.push_back(ProcessSet{base, base + 1});
    gs.push_back(ProcessSet{base + 1, base});  // same pair, distinct group
    gs.push_back(ProcessSet{base, base + 1});
  }
  GroupSystem sys(44, gs);
  EXPECT_EQ(sys.group_count(), 66);
  // Each triangle {3t, 3t+1, 3t+2} is cyclic; nothing spans triangles.
  auto fams = sys.cyclic_families();
  EXPECT_EQ(fams.size(), 22u);
  for (int t = 0; t < 22; ++t)
    EXPECT_TRUE(std::count(fams.begin(), fams.end(),
                           family_of({3 * t, 3 * t + 1, 3 * t + 2})) == 1)
        << "triangle " << t;
}

// F(p) and H(p, g) by brute force, scanning every pair of members of every
// family: the reference families_of_process and cyclic_neighbors must match.
std::vector<FamilyMask> brute_families_of_process(const GroupSystem& sys,
                                                  ProcessId p) {
  std::vector<FamilyMask> out;
  for (FamilyMask f : sys.cyclic_families()) {
    auto members = family_members(f);
    bool in_some_intersection = false;
    for (size_t i = 0; i < members.size() && !in_some_intersection; ++i)
      for (size_t j = i + 1; j < members.size(); ++j)
        if (sys.intersection(members[i], members[j]).contains(p)) {
          in_some_intersection = true;
          break;
        }
    if (in_some_intersection) out.push_back(f);
  }
  return out;
}

std::vector<GroupId> brute_cyclic_neighbors(
    const GroupSystem& sys, const std::vector<FamilyMask>& families_of_p,
    GroupId g) {
  std::vector<GroupId> out;
  for (FamilyMask f : families_of_p) {
    if (!family_contains(f, g)) continue;
    for (GroupId h : family_members(f)) {
      if (h != g && sys.intersection(g, h).empty()) continue;
      if (std::find(out.begin(), out.end(), h) == out.end()) out.push_back(h);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(GroupSystem, FamiliesAndCyclicNeighborsMatchBruteForce) {
  std::vector<GroupSystem> systems;
  systems.push_back(figure1_system());
  // The chord topology of MuMulticast.ChordTopologyStaysLiveWhen-
  // ChordIntersectionDies.
  systems.push_back(GroupSystem(7, {ProcessSet{0, 1, 4, 5}, ProcessSet{0, 2, 3, 6},
                                    ProcessSet{1, 2}, ProcessSet{3, 4}}));
  // The 22-group chain of SparseFamilies, closed into one triangle.
  std::vector<ProcessSet> chain;
  for (int i = 0; i < 22; ++i) chain.push_back(ProcessSet{i, i + 1});
  chain[0].insert(50);
  chain[2].insert(50);
  systems.push_back(GroupSystem(51, chain));
  systems.push_back(clustered_ring_system(32, 4, 2));
  for (const GroupSystem& sys : systems) {
    ASSERT_FALSE(sys.cyclic_families().empty());
    size_t with_families = 0;
    for (ProcessId p = 0; p < sys.process_count(); ++p) {
      auto want = brute_families_of_process(sys, p);
      ASSERT_EQ(sys.families_of_process(p), want) << "p" << p;
      if (!want.empty()) ++with_families;
      for (GroupId g = 0; g < sys.group_count(); ++g)
        ASSERT_EQ(sys.cyclic_neighbors(p, g),
                  brute_cyclic_neighbors(sys, want, g))
            << "p" << p << " g" << g;
    }
    EXPECT_GT(with_families, 0u);
  }
}

using GroupSystemDeathTest = ::testing::Test;

TEST(GroupSystemDeathTest, GroupPastTheLimitTripsPrecondition) {
  // A (kMaxGroups+1)-th group would silently alias a FamilyMask bit;
  // construction must die with a diagnostic naming the limit instead.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::vector<ProcessSet> gs(static_cast<size_t>(GroupSystem::kMaxGroups) + 1,
                             ProcessSet{0});
  EXPECT_DEATH(GroupSystem(1, gs), "kMaxGroups");
}

}  // namespace
}  // namespace gam::groups
