#include "groups/group_system.hpp"

#include <algorithm>
#include <bit>
#include <set>
#include <utility>

namespace gam::groups {

std::vector<GroupId> family_members(const FamilyMask& f) {
  return std::vector<GroupId>(f.begin(), f.end());
}

GroupSystem::GroupSystem(int process_count, std::vector<ProcessSet> groups)
    : process_count_(process_count), groups_(std::move(groups)) {
  GAM_EXPECTS(process_count_ > 0 &&
              process_count_ <= ProcessSet::kMaxProcesses);
  GAM_EXPECTS(!groups_.empty());
  if (group_count() > kMaxGroups)
    std::fprintf(stderr,
                 "GroupSystem: %d destination groups exceed kMaxGroups = %d "
                 "(the FamilyMask group bitset holds kMaxGroups ids; widen "
                 "FixedBitset's word count to go further)\n",
                 group_count(), kMaxGroups);
  GAM_EXPECTS(group_count() <= kMaxGroups);
  groups_of_.resize(static_cast<size_t>(process_count_));
  for (GroupId g = 0; g < group_count(); ++g) {
    const ProcessSet& s = groups_[static_cast<size_t>(g)];
    GAM_EXPECTS(!s.empty());
    GAM_EXPECTS(s.subset_of(ProcessSet::universe(process_count_)));
    for (ProcessId p : s) groups_of_[static_cast<size_t>(p)].push_back(g);
  }
  pair_index_ = GroupPairIndex(*this);
}

GroupPairIndex::GroupPairIndex(const GroupSystem& system)
    : neighbors_(static_cast<size_t>(system.group_count())) {
  // Every g, h ∈ G(p) intersect in p, and every intersecting pair shows up
  // at each process of its intersection.
  for (ProcessId p = 0; p < system.process_count(); ++p)
    for (GroupId g : system.groups_of(p))
      for (GroupId h : system.groups_of(p))
        neighbors_[static_cast<size_t>(g)].push_back(h);
  for (GroupId g = 0; g < group_count(); ++g) {
    std::vector<GroupId>& nb = neighbors_[static_cast<size_t>(g)];
    std::sort(nb.begin(), nb.end());
    nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
    auto pos = std::lower_bound(nb.begin(), nb.end(), g);
    diagonal_pos_.push_back(static_cast<int>(pos - nb.begin()));
    diagonal_slot_.push_back(size());
    for (; pos != nb.end(); ++pos) {
      GAM_INVARIANT(system.intersecting(g, *pos));
      pairs_.emplace_back(g, *pos);
    }
  }
}

int GroupPairIndex::find(GroupId g, GroupId h) const {
  GAM_EXPECTS(valid(g) && valid(h));
  GroupId lo = std::min(g, h);
  GroupId hi = std::max(g, h);
  const std::vector<GroupId>& nb = neighbors_[static_cast<size_t>(lo)];
  auto first = nb.begin() + diagonal_pos_[static_cast<size_t>(lo)];
  auto it = std::lower_bound(first, nb.end(), hi);
  if (it == nb.end() || *it != hi) return -1;
  return diagonal_slot_[static_cast<size_t>(lo)] +
         static_cast<int>(it - first);
}

ProcessSet GroupSystem::covered_processes() const {
  ProcessSet s;
  for (const auto& g : groups_) s |= g;
  return s;
}

bool GroupSystem::hamiltonian(const std::vector<GroupId>& members,
                              const std::vector<std::uint32_t>& adj) const {
  auto n = members.size();
  if (n < 3) return false;
  // Held-Karp reachability DP anchored at vertex 0. The DP table has 2^n
  // entries; past ~24 vertices it would silently try to allocate gigabytes
  // (and before the guard, n >= 32 truncated the mask to 32 bits — an
  // incorrect answer, not just a slow one).
  GAM_EXPECTS(n <= 24);
  std::uint32_t full = (1u << n) - 1;
  // dp[mask] = set of end vertices v such that a simple path 0 -> v visits
  // exactly `mask` (mask always contains bit 0).
  std::vector<std::uint32_t> dp(full + 1u, 0);
  dp[1] = 1u;  // the trivial path at vertex 0
  for (std::uint32_t mask = 1; mask <= full; ++mask) {
    if ((mask & 1u) == 0 || dp[mask] == 0) continue;
    std::uint32_t ends = dp[mask];
    while (ends != 0) {
      auto v = static_cast<unsigned>(std::countr_zero(ends));
      ends &= ends - 1;
      std::uint32_t nexts = adj[v] & ~mask;
      while (nexts != 0) {
        auto w = static_cast<unsigned>(std::countr_zero(nexts));
        nexts &= nexts - 1;
        dp[mask | (1u << w)] |= (1u << w);
      }
    }
  }
  // Hamiltonian cycle: some end v of a full path with an edge back to 0.
  return (dp[full] & adj[0]) != 0;
}

const std::vector<FamilyMask>& GroupSystem::cyclic_families() const {
  if (families_computed_) return cyclic_families_;
  int n = group_count();
  // A Hamiltonian intersection graph is connected, so every cyclic family
  // lives inside one connected component of the global intersection graph.
  // Enumerate subsets per component: the exponential bound applies to the
  // largest component, not to |G|.
  std::vector<int> component(static_cast<size_t>(n), -1);
  int components = 0;
  for (GroupId start = 0; start < n; ++start) {
    if (component[static_cast<size_t>(start)] != -1) continue;
    int c = components++;
    std::vector<GroupId> stack{start};
    component[static_cast<size_t>(start)] = c;
    while (!stack.empty()) {
      GroupId g = stack.back();
      stack.pop_back();
      for (GroupId h : pair_index_.neighbors(g))
        if (component[static_cast<size_t>(h)] == -1) {
          component[static_cast<size_t>(h)] = c;
          stack.push_back(h);
        }
    }
  }
  std::vector<std::vector<GroupId>> members_of(static_cast<size_t>(components));
  for (GroupId g = 0; g < n; ++g)
    members_of[static_cast<size_t>(component[static_cast<size_t>(g)])]
        .push_back(g);
  for (const std::vector<GroupId>& members : members_of) {
    auto k = members.size();
    if (k < 3) continue;
    if (k <= static_cast<size_t>(kExhaustiveComponentCap)) {
      for (std::uint32_t sub = 1; sub < (std::uint32_t{1} << k); ++sub) {
        if (std::popcount(sub) < 3) continue;
        FamilyMask f;
        for (size_t i = 0; i < k; ++i)
          if ((sub >> i) & 1u) f.insert(members[i]);
        if (is_cyclic(f)) cyclic_families_.push_back(f);
      }
    } else {
      sparse_cyclic_families(members, cyclic_families_);
    }
  }
  // Ascending mask order, exactly what the former whole-set scan produced.
  std::sort(cyclic_families_.begin(), cyclic_families_.end());
  // A process lies in some g∩h of two members of f exactly when it belongs
  // to two of them.
  for (FamilyMask f : cyclic_families_) {
    ProcessSet seen, twice;
    for (GroupId g : f) {
      twice |= seen & group(g);
      seen |= group(g);
    }
    family_intersections_.push_back(twice);
  }
  families_computed_ = true;
  return cyclic_families_;
}

void GroupSystem::sparse_cyclic_families(
    const std::vector<GroupId>& members,
    std::vector<FamilyMask>& out) const {
  std::fprintf(stderr,
               "GroupSystem: a connected component of the intersection graph "
               "has %zu groups (> %d); falling back to a bounded sparse "
               "enumeration of cyclic families up to size %d — the family "
               "set may be incomplete\n",
               members.size(), kExhaustiveComponentCap, kSparseFamilyCap);
  // Grow connected induced subgraphs outward from each root, adding only
  // groups with a larger id than the root so every subgraph is reached from
  // its minimum member exactly once (deduped by `seen` across growth paths).
  // Each family popped off the work list counts against the examination
  // budget; everything reported is genuinely cyclic (is_cyclic is exact),
  // the bound only costs completeness.
  std::set<FamilyMask> seen;
  std::size_t examined = 0;
  for (GroupId root : members) {
    std::vector<FamilyMask> work{family_of({root})};
    while (!work.empty() && examined < kSparseBudget) {
      FamilyMask f = work.back();
      work.pop_back();
      ++examined;
      if (family_size(f) >= 3 && is_cyclic(f)) out.push_back(f);
      if (family_size(f) >= kSparseFamilyCap) continue;
      for (GroupId g : f) {
        for (GroupId h : pair_index_.neighbors(g)) {
          if (h <= root || f.contains(h)) continue;
          FamilyMask next = f;
          next.insert(h);
          if (seen.insert(next).second) work.push_back(next);
        }
      }
    }
  }
  if (examined >= kSparseBudget)
    std::fprintf(stderr,
                 "GroupSystem: sparse cyclic-family enumeration hit its "
                 "budget of %zu examined families\n",
                 kSparseBudget);
}

bool GroupSystem::is_cyclic(FamilyMask f) const {
  if (family_size(f) < 3) return false;
  auto members = family_members(f);
  auto adj = adjacency(members, [](const ProcessSet&) { return true; });
  return hamiltonian(members, adj);
}

std::vector<FamilyMask> GroupSystem::families_of_group(GroupId g) const {
  GAM_EXPECTS(valid(g));
  std::vector<FamilyMask> out;
  for (FamilyMask f : cyclic_families())
    if (family_contains(f, g)) out.push_back(f);
  return out;
}

std::vector<FamilyMask> GroupSystem::families_of_process(ProcessId p) const {
  GAM_EXPECTS(p >= 0 && p < process_count_);
  const std::vector<FamilyMask>& all = cyclic_families();
  std::vector<FamilyMask> out;
  for (size_t i = 0; i < all.size(); ++i)
    if (family_intersections_[i].contains(p)) out.push_back(all[i]);
  return out;
}

std::vector<GroupId> GroupSystem::cyclic_neighbors(ProcessId p,
                                                   GroupId g) const {
  // Lemma 30 proves H(·, g) is the same at every member of a correct family,
  // which makes it a sound consensus-object key in Algorithm 1 (line 20).
  return neighbors_in(families_of_process(p), g);
}

std::vector<GroupId> GroupSystem::neighbors_in(
    const std::vector<FamilyMask>& families, GroupId g) const {
  FamilyMask with_g;
  for (FamilyMask f : families)
    if (family_contains(f, g)) with_g |= f;
  std::vector<GroupId> out;
  for (GroupId h : pair_index_.neighbors(g))
    if (with_g.contains(h)) out.push_back(h);
  return out;
}

std::vector<ClosedPath> GroupSystem::hamiltonian_cycles(FamilyMask f) const {
  auto members = family_members(f);
  auto n = members.size();
  std::vector<ClosedPath> cycles;
  if (n < 3) return cycles;
  auto adj = adjacency(members, [](const ProcessSet&) { return true; });

  // Backtracking enumeration anchored at position 0; reflections are deduped
  // by requiring path[1] < path[n-1] (positions, both adjacent to 0 in the
  // cycle).
  std::vector<unsigned> path{0};
  std::vector<bool> used(n, false);
  used[0] = true;
  auto emit = [&] {
    ClosedPath cp;
    cp.reserve(n + 1);
    for (unsigned pos : path) cp.push_back(members[pos]);
    cp.push_back(members[0]);
    cycles.push_back(std::move(cp));
  };
  auto backtrack = [&](auto&& self) -> void {
    if (path.size() == n) {
      if ((adj[path.back()] & 1u) != 0 && path[1] < path[n - 1]) emit();
      return;
    }
    std::uint32_t nexts = adj[path.back()];
    while (nexts != 0) {
      auto w = static_cast<unsigned>(std::countr_zero(nexts));
      nexts &= nexts - 1;
      if (used[w]) continue;
      used[w] = true;
      path.push_back(w);
      self(self);
      path.pop_back();
      used[w] = false;
    }
  };
  backtrack(backtrack);
  return cycles;
}

std::vector<ClosedPath> GroupSystem::cpaths(FamilyMask f) const {
  std::vector<ClosedPath> out;
  for (const ClosedPath& cycle : hamiltonian_cycles(f)) {
    auto k = cycle.size() - 1;  // number of distinct vertices
    // Every rotation, in both directions.
    for (size_t start = 0; start < k; ++start) {
      ClosedPath fwd, bwd;
      fwd.reserve(k + 1);
      bwd.reserve(k + 1);
      for (size_t i = 0; i <= k; ++i)
        fwd.push_back(cycle[(start + i) % k]);
      for (size_t i = 0; i <= k; ++i)
        bwd.push_back(cycle[(start + k - i) % k]);
      out.push_back(std::move(fwd));
      out.push_back(std::move(bwd));
    }
  }
  return out;
}

namespace {

std::vector<std::pair<GroupId, GroupId>> edge_set(const ClosedPath& p) {
  std::vector<std::pair<GroupId, GroupId>> edges;
  for (size_t i = 0; i + 1 < p.size(); ++i) {
    GroupId a = p[i], b = p[i + 1];
    edges.emplace_back(std::min(a, b), std::max(a, b));
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

}  // namespace

bool GroupSystem::paths_equivalent(const ClosedPath& a, const ClosedPath& b) {
  return edge_set(a) == edge_set(b);
}

int GroupSystem::path_direction(const ClosedPath& pi) const {
  GAM_EXPECTS(pi.size() >= 4 && pi.front() == pi.back());
  auto k = pi.size() - 1;
  // Locate the smallest group id on the cycle; the canonical orientation
  // leaves it toward its smaller neighbor.
  size_t at = 0;
  for (size_t i = 1; i < k; ++i)
    if (pi[i] < pi[at]) at = i;
  GroupId succ = pi[(at + 1) % k];
  GroupId pred = pi[(at + k - 1) % k];
  return succ < pred ? 1 : -1;
}

bool GroupSystem::family_faulty_at(FamilyMask f,
                                   const sim::FailurePattern& pattern,
                                   sim::Time t) const {
  auto members = family_members(f);
  for (size_t i = 0; i < members.size(); ++i)
    for (size_t j = i + 1; j < members.size(); ++j) {
      ProcessSet inter = intersection(members[i], members[j]);
      if (!inter.empty() && pattern.set_faulty_at(inter, t)) return true;
    }
  return false;
}

bool GroupSystem::family_faulty(FamilyMask f,
                                const sim::FailurePattern& pattern) const {
  auto members = family_members(f);
  for (size_t i = 0; i < members.size(); ++i)
    for (size_t j = i + 1; j < members.size(); ++j) {
      ProcessSet inter = intersection(members[i], members[j]);
      if (!inter.empty() && pattern.set_faulty(inter)) return true;
    }
  return false;
}

bool GroupSystem::family_faulty_hamiltonian_at(
    FamilyMask f, const sim::FailurePattern& pattern, sim::Time t) const {
  auto members = family_members(f);
  auto adj = adjacency(members, [&](const ProcessSet& inter) {
    return !pattern.set_faulty_at(inter, t);
  });
  return !hamiltonian(members, adj);
}

std::string GroupSystem::family_to_string(FamilyMask f) const {
  std::string out = "{";
  bool first = true;
  for (GroupId g : family_members(f)) {
    if (!first) out += ",";
    out += "g" + std::to_string(g);
    first = false;
  }
  return out + "}";
}

GroupSystem figure1_system() {
  return GroupSystem(5, {ProcessSet{0, 1}, ProcessSet{1, 2},
                         ProcessSet{0, 2, 3}, ProcessSet{0, 3, 4}});
}

}  // namespace gam::groups
