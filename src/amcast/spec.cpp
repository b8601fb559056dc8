#include "amcast/spec.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "sim/metrics.hpp"

namespace gam::amcast {

namespace {

std::map<MsgId, MulticastMessage> multicast_index(const RunRecord& run) {
  std::map<MsgId, MulticastMessage> idx;
  for (const auto& m : run.multicast) idx[m.id] = m;
  return idx;
}

// Per process, the messages it delivered in local order.
std::map<ProcessId, std::vector<MsgId>> local_orders(const RunRecord& run) {
  std::map<ProcessId, std::vector<MsgId>> per;
  std::vector<Delivery> sorted = run.deliveries;
  std::sort(sorted.begin(), sorted.end(), [](const Delivery& a, const Delivery& b) {
    return std::make_pair(a.p, a.local_seq) < std::make_pair(b.p, b.local_seq);
  });
  for (const auto& d : sorted) per[d.p].push_back(d.m);
  return per;
}

// Cycle detection over an adjacency map (DFS, three colors).
bool has_cycle(const std::map<MsgId, std::set<MsgId>>& adj) {
  std::map<MsgId, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::pair<MsgId, std::set<MsgId>::const_iterator>> stack;
  for (const auto& [start, _] : adj) {
    if (color[start] != 0) continue;
    color[start] = 1;
    stack.emplace_back(start, adj.at(start).begin());
    while (!stack.empty()) {
      auto& [u, it] = stack.back();
      if (it == adj.at(u).end()) {
        color[u] = 2;
        stack.pop_back();
        continue;
      }
      MsgId v = *it;
      ++it;
      auto found = adj.find(v);
      if (found == adj.end()) continue;
      if (color[v] == 1) return true;
      if (color[v] == 0) {
        color[v] = 1;
        stack.emplace_back(v, found->second.begin());
      }
    }
  }
  return false;
}

}  // namespace

std::vector<std::pair<MsgId, MsgId>> delivery_relation(
    const RunRecord& run, const groups::GroupSystem& system) {
  // m ↦p m' when p ∈ dst(m) ∩ dst(m'), p delivers m, and at that point has
  // not delivered m' (either m' comes later at p, or never). Only messages
  // addressed to p can take either end of such an edge, so each process
  // walks its own deliveries and the messages to its own groups.
  auto idx = multicast_index(run);
  std::vector<std::vector<MsgId>> to_group(
      static_cast<size_t>(system.group_count()));
  for (const auto& [id, m] : idx) {
    GAM_EXPECTS(m.dst >= 0 && m.dst < system.group_count());
    to_group[static_cast<size_t>(m.dst)].push_back(id);
  }
  std::vector<std::pair<MsgId, MsgId>> edges;
  std::vector<MsgId> addressed, undelivered;
  for (const auto& [p, order] : local_orders(run)) {
    // p's deliveries of messages addressed to it, in local order.
    addressed.clear();
    for (MsgId m : order)
      if (system.group(idx.at(m).dst).contains(p)) addressed.push_back(m);
    std::set<MsgId> delivered_here(order.begin(), order.end());
    undelivered.clear();
    for (GroupId g : system.groups_of(p))
      for (MsgId m2 : to_group[static_cast<size_t>(g)])
        if (!delivered_here.count(m2)) undelivered.push_back(m2);
    for (size_t i = 0; i < addressed.size(); ++i) {
      for (size_t j = i + 1; j < addressed.size(); ++j)
        edges.emplace_back(addressed[i], addressed[j]);
      for (MsgId m2 : undelivered) edges.emplace_back(addressed[i], m2);
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

SpecResult check_integrity(const RunRecord& run,
                           const groups::GroupSystem& system) {
  SpecResult r;
  auto idx = multicast_index(run);
  std::set<std::pair<ProcessId, MsgId>> seen;
  for (const auto& d : run.deliveries) {
    if (!seen.emplace(d.p, d.m).second)
      r.fail("message " + std::to_string(d.m) + " delivered twice at p" +
             std::to_string(d.p));
    auto it = idx.find(d.m);
    if (it == idx.end()) {
      r.fail("message " + std::to_string(d.m) + " delivered but never multicast");
      continue;
    }
    if (!system.group(it->second.dst).contains(d.p))
      r.fail("p" + std::to_string(d.p) + " delivered message " +
             std::to_string(d.m) + " outside its destination group");
  }
  return r;
}

SpecResult check_termination(const RunRecord& run,
                             const groups::GroupSystem& system,
                             const sim::FailurePattern& pattern) {
  SpecResult r;
  if (!run.quiescent) {
    r.fail("run did not reach quiescence within its step budget");
    return r;
  }
  std::set<MsgId> delivered_somewhere;
  for (const auto& d : run.deliveries) delivered_somewhere.insert(d.m);
  std::map<ProcessId, std::set<MsgId>> delivered_at;
  for (const auto& d : run.deliveries) delivered_at[d.p].insert(d.m);

  for (const auto& m : run.multicast) {
    bool must_deliver = pattern.correct(m.src) || delivered_somewhere.count(m.id);
    if (!must_deliver) continue;
    for (ProcessId p : system.group(m.dst)) {
      if (!pattern.correct(p)) continue;
      if (!delivered_at[p].count(m.id))
        r.fail("correct p" + std::to_string(p) + " never delivered message " +
               std::to_string(m.id) + " addressed to g" +
               std::to_string(m.dst));
    }
  }
  return r;
}

SpecResult check_ordering(const RunRecord& run,
                          const groups::GroupSystem& system) {
  SpecResult r;
  std::map<MsgId, std::set<MsgId>> adj;
  for (const auto& m : run.multicast) adj[m.id];  // ensure nodes exist
  for (auto& [a, b] : delivery_relation(run, system)) adj[a].insert(b);
  if (has_cycle(adj)) r.fail("delivery relation ↦ has a cycle");
  return r;
}

SpecResult check_minimality(const RunRecord& run,
                            const groups::GroupSystem& system) {
  SpecResult r;
  ProcessSet addressed;
  for (const auto& m : run.multicast) addressed |= system.group(m.dst);
  ProcessSet offenders = run.active - addressed;
  if (!offenders.empty())
    r.fail("processes " + offenders.to_string() +
           " took steps although no message was addressed to them");
  return r;
}

void record_ledger(sim::Metrics& reg, const RunRecord& run,
                   const groups::GroupSystem& system,
                   const ProcessCount& steps, const ProcessCount& messages) {
  ProcessSet addressed;
  for (const auto& m : run.multicast) addressed |= system.group(m.dst);
  std::uint64_t steps_outside = 0, msgs_outside = 0;
  for (ProcessId p = 0; p < system.process_count(); ++p) {
    if (addressed.contains(p)) continue;
    steps_outside += steps(p);
    if (messages) msgs_outside += messages(p);
  }
  reg.gauge("non_addressee_steps").set(static_cast<std::int64_t>(steps_outside));
  reg.gauge("non_addressee_processes").set((run.active - addressed).size());
  reg.gauge("non_addressee_messages")
      .set(static_cast<std::int64_t>(msgs_outside));
}

SpecResult check_strict_ordering(const RunRecord& run,
                                 const groups::GroupSystem& system) {
  SpecResult r;
  std::map<MsgId, std::set<MsgId>> adj;
  for (const auto& m : run.multicast) adj[m.id];
  for (auto& [a, b] : delivery_relation(run, system)) adj[a].insert(b);

  // m ⤳ m' : first delivery of m happened before m' was multicast.
  std::map<MsgId, Time> first_delivery;
  for (const auto& d : run.deliveries) {
    auto it = first_delivery.find(d.m);
    if (it == first_delivery.end() || d.t < it->second)
      first_delivery[d.m] = d.t;
  }
  for (size_t i = 0; i < run.multicast.size(); ++i) {
    MsgId m2 = run.multicast[i].id;
    Time sent = run.multicast_time[i];
    for (auto& [m, t] : first_delivery)
      if (m != m2 && t < sent) adj[m].insert(m2);
  }
  if (has_cycle(adj)) r.fail("↦ ∪ ⤳ has a cycle (strict ordering violated)");
  return r;
}

SpecResult check_pairwise_ordering(const RunRecord& run) {
  SpecResult r;
  auto per = local_orders(run);
  // Relative positions per process; any two processes delivering the same two
  // messages must agree on their order.
  std::map<std::pair<MsgId, MsgId>, ProcessId> seen;  // ordered pair -> witness
  for (const auto& [p, order] : per) {
    std::map<MsgId, size_t> at;
    for (size_t i = 0; i < order.size(); ++i) at[order[i]] = i;
    for (size_t i = 0; i < order.size(); ++i)
      for (size_t j = i + 1; j < order.size(); ++j) {
        auto key = std::make_pair(order[i], order[j]);
        auto rev = std::make_pair(order[j], order[i]);
        seen.emplace(key, p);
        auto conflict = seen.find(rev);
        if (conflict != seen.end())
          r.fail("p" + std::to_string(p) + " and p" +
                 std::to_string(conflict->second) +
                 " deliver messages " + std::to_string(order[i]) + "," +
                 std::to_string(order[j]) + " in opposite orders");
      }
  }
  return r;
}

SpecResult check_all(const RunRecord& run, const groups::GroupSystem& system,
                     const sim::FailurePattern& pattern) {
  SpecResult r = check_integrity(run, system);
  if (!r.ok) return r;
  r = check_ordering(run, system);
  if (!r.ok) return r;
  r = check_minimality(run, system);
  if (!r.ok) return r;
  return check_termination(run, system, pattern);
}

}  // namespace gam::amcast
