// Destination groups, intersection graphs, and cyclic families (paper, §2-§3).
//
// The atomic-multicast problem is fully determined by the set G of destination
// groups. This module owns:
//   - G itself and the derived maps G(p) (groups containing p) and pairwise
//     intersections g∩h;
//   - the intersection graph of any family f ⊆ G (vertices = groups, edge
//     g—h iff g∩h ≠ ∅);
//   - the set F of *cyclic families*: families of ≥3 groups whose intersection
//     graph is Hamiltonian, together with cpaths(f), the closed paths visiting
//     all groups of f;
//   - the "family faulty at t" predicate: every closed path of f visits an
//     edge (g,h) with g∩h fully crashed at t.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/failure_pattern.hpp"
#include "util/contracts.hpp"
#include "util/process_set.hpp"

namespace gam::groups {

using GroupId = int;

// A family of destination groups as a fixed-width bitset over group ids.
// 2 words = 128 group ids; GroupSystem::kMaxGroups is static_assert-tied to
// this width.
using FamilyMask = FixedBitset<2>;

inline FamilyMask family_of(std::initializer_list<GroupId> gs) {
  FamilyMask m;
  for (GroupId g : gs) m.insert(g);
  return m;
}

inline bool family_contains(const FamilyMask& f, GroupId g) {
  return f.contains(g);
}

inline int family_size(const FamilyMask& f) { return f.size(); }

std::vector<GroupId> family_members(const FamilyMask& f);

// A closed path in an intersection graph: a sequence of group ids with
// front() == back(), visiting every group of the family exactly once
// (a Hamiltonian cycle read from some start, in some direction).
using ClosedPath = std::vector<GroupId>;

class GroupSystem;

// Sparse index over the destination-group pairs {g, h} that share a process:
// the diagonal (g, g) of every group plus every edge of the intersection
// graph. Algorithm 1 keeps one log per such pair, μ one Σ_{g∩h} and the
// strict variant one indicator 1^{g∩h}. A pair with g∩h = ∅ carries nothing
// (Σ_∅ reads ⊥, and no process belongs to both groups), so it has no slot.
// Slots are numbered in (lo, hi) order, so a walk over them visits the
// intersecting pairs in the same order as a walk over every pair would.
class GroupPairIndex {
 public:
  GroupPairIndex() = default;
  // Reads the pairs off G(p): O(Σ_p |G(p)|²) candidates, no all-pairs scan.
  explicit GroupPairIndex(const GroupSystem& system);

  int group_count() const { return static_cast<int>(neighbors_.size()); }

  // Number of slots: the group count plus the number of intersecting pairs.
  int size() const { return static_cast<int>(pairs_.size()); }

  // Slot of the unordered pair {g, h} (g == h allowed), or -1 when
  // g∩h = ∅.
  int find(GroupId g, GroupId h) const;

  // Slot of {g, h}, which must intersect.
  int flat(GroupId g, GroupId h) const {
    int slot = find(g, h);
    GAM_EXPECTS(slot >= 0);
    return slot;
  }

  // The (lo, hi) pair of a slot.
  std::pair<GroupId, GroupId> pair(int slot) const {
    GAM_EXPECTS(slot >= 0 && slot < size());
    return pairs_[static_cast<size_t>(slot)];
  }

  // The groups h with g∩h ≠ ∅, g itself included, ascending.
  const std::vector<GroupId>& neighbors(GroupId g) const {
    GAM_EXPECTS(valid(g));
    return neighbors_[static_cast<size_t>(g)];
  }

 private:
  bool valid(GroupId g) const { return g >= 0 && g < group_count(); }

  std::vector<std::vector<GroupId>> neighbors_;
  // Per group g: where g sits in neighbors_[g], and the slot of (g, g). The
  // slots of (g, h) for the neighbors h > g follow that one in order.
  std::vector<int> diagonal_pos_;
  std::vector<int> diagonal_slot_;
  std::vector<std::pair<GroupId, GroupId>> pairs_;  // slot -> (lo, hi)
};

class GroupSystem {
 public:
  // Hard limit on |G|: the FamilyMask group bitset holds this many group
  // ids. Construction aborts with a diagnostic past the limit.
  static constexpr int kMaxGroups = FamilyMask::kCapacity;
  static_assert(kMaxGroups == 128,
                "FamilyMask width and kMaxGroups move together");

  GroupSystem(int process_count, std::vector<ProcessSet> groups);

  int process_count() const { return process_count_; }
  int group_count() const { return static_cast<int>(groups_.size()); }
  const ProcessSet& group(GroupId g) const {
    GAM_EXPECTS(valid(g));
    return groups_[static_cast<size_t>(g)];
  }
  const std::vector<ProcessSet>& groups() const { return groups_; }

  ProcessSet intersection(GroupId g, GroupId h) const {
    return group(g) & group(h);
  }
  bool intersecting(GroupId g, GroupId h) const {
    return !intersection(g, h).empty();
  }

  // The intersecting pairs of G, diagonal included (see GroupPairIndex).
  const GroupPairIndex& pair_index() const { return pair_index_; }

  // G(p): ids of the groups containing p.
  const std::vector<GroupId>& groups_of(ProcessId p) const {
    GAM_EXPECTS(p >= 0 && p < process_count_);
    return groups_of_[static_cast<size_t>(p)];
  }

  // All processes that belong to at least one group.
  ProcessSet covered_processes() const;

  // ---- cyclic families -----------------------------------------------------

  // F: every family f ⊆ G with |f| >= 3 whose intersection graph is
  // Hamiltonian. Computed once, lazily. A cyclic family's intersection graph
  // is connected, so the enumeration runs per connected component of the
  // global intersection graph: components up to 20 groups are enumerated
  // exhaustively (2^20 subsets, far beyond the topologies in the paper),
  // while the total group count may go up to kMaxGroups — e.g. 128
  // pairwise-disjoint groups enumerate nothing at all. Components larger
  // than 20 fall back to a bounded sparse enumeration of small connected
  // induced subgraphs (families of size <= kSparseFamilyCap within a
  // per-component examination budget) instead of aborting; the fallback is
  // sound (everything it reports is cyclic) but deliberately incomplete,
  // and prints a diagnostic saying so.
  const std::vector<FamilyMask>& cyclic_families() const;

  // Knobs of the sparse fallback, exposed so tests can reason about them.
  static constexpr int kExhaustiveComponentCap = 20;
  static constexpr int kSparseFamilyCap = 8;
  static constexpr std::size_t kSparseBudget = 200000;

  bool is_cyclic(FamilyMask f) const;

  // F(g): the cyclic families containing group g.
  std::vector<FamilyMask> families_of_group(GroupId g) const;

  // F(p): the cyclic families f with p ∈ g∩h for distinct g,h ∈ f.
  std::vector<FamilyMask> families_of_process(ProcessId p) const;

  // H(p, g) from Lemma 30: the groups h with g∩h ≠ ∅ such that some cyclic
  // family f ∈ F(p) contains both g and h.
  std::vector<GroupId> cyclic_neighbors(ProcessId p, GroupId g) const;

  // The groups h with g∩h ≠ ∅ such that some family of `families` contains
  // both g and h, ascending; h = g qualifies whenever some family contains
  // g. H(p, g) is this over F(p), and γ(g) over the families γ outputs.
  std::vector<GroupId> neighbors_in(const std::vector<FamilyMask>& families,
                                    GroupId g) const;

  // cpaths(f): all closed paths in the intersection graph of f visiting every
  // group — i.e. every rotation and direction of every Hamiltonian cycle.
  std::vector<ClosedPath> cpaths(FamilyMask f) const;

  // Distinct Hamiltonian cycles of f up to rotation and reflection (one
  // canonical representative per ≡-equivalence class of cpaths).
  std::vector<ClosedPath> hamiltonian_cycles(FamilyMask f) const;

  // Two closed paths are equivalent when they visit the same edges.
  static bool paths_equivalent(const ClosedPath& a, const ClosedPath& b);

  // dir(π): +1 when π follows its cycle's canonical orientation, -1 otherwise.
  int path_direction(const ClosedPath& pi) const;

  // ---- failure-dependent notions --------------------------------------------

  // f is faulty at time t when some group intersection inside f — a pair of
  // distinct members g,h with g∩h ≠ ∅ — is entirely crashed at t.
  //
  // NOTE ON THE DEFINITION. The paper phrases faultiness per closed path
  // ("every π ∈ cpaths(f) visits an edge (g,h) with g∩h faulty"), which reads
  // as a Hamiltonicity condition (family_faulty_hamiltonian_at below). The two
  // readings agree on triangles and on every example in the paper (Figure 1),
  // but diverge when a family survives the death of a *chord*: there the
  // path reading keeps the family alive while Algorithm 1's commit action
  // waits forever for tuples that only the dead intersection could write.
  // Lemma 25 states exactly the property liveness needs — "if g∩h is faulty
  // then every cyclic family containing g and h is eventually faulty" — and
  // that property holds by construction under the pairwise reading, which is
  // therefore the operational predicate used by the γ oracle. See
  // tests/test_mu_multicast.cpp (ChordTopologyStaysLive) and DESIGN.md.
  bool family_faulty_at(FamilyMask f, const sim::FailurePattern& pattern,
                        sim::Time t) const;

  // f is eventually faulty in this pattern (faulty at t = ∞).
  bool family_faulty(FamilyMask f, const sim::FailurePattern& pattern) const;

  // The literal per-path reading: after removing the edges whose
  // intersections are dead at t, the intersection graph of f is no longer
  // Hamiltonian. Exposed for the Algorithm 3 emulation machinery and the
  // bench that contrasts the two readings.
  bool family_faulty_hamiltonian_at(FamilyMask f,
                                    const sim::FailurePattern& pattern,
                                    sim::Time t) const;

  std::string family_to_string(FamilyMask f) const;

 private:
  bool valid(GroupId g) const { return g >= 0 && g < group_count(); }

  // Is the graph over `members` with the given adjacency Hamiltonian?
  bool hamiltonian(const std::vector<GroupId>& members,
                   const std::vector<std::uint32_t>& adj) const;

  // The bounded fallback behind cyclic_families() for components larger than
  // kExhaustiveComponentCap: grows connected induced subgraphs up to
  // kSparseFamilyCap members within kSparseBudget examinations.
  void sparse_cyclic_families(const std::vector<GroupId>& members,
                              std::vector<FamilyMask>& out) const;

  // Adjacency (bitmask over positions in `members`) of the intersection graph
  // restricted to `members`, keeping only edges whose intersections pass
  // `edge_alive`.
  template <typename EdgeAlive>
  std::vector<std::uint32_t> adjacency(const std::vector<GroupId>& members,
                                       EdgeAlive&& edge_alive) const {
    auto n = members.size();
    std::vector<std::uint32_t> adj(n, 0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        ProcessSet inter = intersection(members[i], members[j]);
        if (!inter.empty() && edge_alive(inter)) {
          adj[i] |= (1u << j);
          adj[j] |= (1u << i);
        }
      }
    }
    return adj;
  }

  int process_count_;
  std::vector<ProcessSet> groups_;
  std::vector<std::vector<GroupId>> groups_of_;
  GroupPairIndex pair_index_;
  mutable std::vector<FamilyMask> cyclic_families_;
  // Per family of cyclic_families_: the processes in some g∩h of two of its
  // members, so that F(p) is one bit test per family.
  mutable std::vector<ProcessSet> family_intersections_;
  mutable bool families_computed_ = false;
};

// The running example of the paper (Figure 1): P = {p0..p4} with
// g0 = {p0,p1}, g1 = {p1,p2}, g2 = {p0,p2,p3}, g3 = {p0,p3,p4}.
// (The paper numbers from 1; we number from 0.)
GroupSystem figure1_system();

}  // namespace gam::groups
