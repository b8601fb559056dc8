#include "amcast/baselines.hpp"

#include <algorithm>

#include "amcast/spec.hpp"  // record_ledger

namespace gam::amcast {

// ---- BaselineMulticast ---------------------------------------------------------

void BaselineMulticast::submit(const MulticastMessage& m) {
  GAM_EXPECTS(system_.group(m.dst).contains(m.src));
  workload_.push_back(m);
  by_id_[m.id] = m;
}

void BaselineMulticast::set_metrics(sim::Metrics* m) {
  probe_ = Probe{};
  probe_.reg = m;
  if (!m) return;
  probe_.steps.assign(static_cast<size_t>(system_.process_count()), 0);
  probe_.handled.assign(static_cast<size_t>(system_.process_count()), 0);
}

bool BaselineMulticast::count_step(ProcessId p) {
  ++now_;
  ++record_.steps;
  record_.active.insert(p);
  GAM_METRICS_PROBE(if (probe_.reg) ++probe_.steps[static_cast<size_t>(p)]);
  return true;
}

void BaselineMulticast::finish_run() {
  GAM_METRICS_PROBE(if (probe_.reg) record_ledger(
      *probe_.reg, record_, system_,
      [this](ProcessId p) { return probe_.steps[static_cast<size_t>(p)]; },
      [this](ProcessId p) { return probe_.handled[static_cast<size_t>(p)]; }));
  if (event_sink_) emit_synthesized_events(record_, *event_sink_);
}

// ---- BroadcastMulticast --------------------------------------------------------

BroadcastMulticast::BroadcastMulticast(const groups::GroupSystem& system,
                                       const sim::FailurePattern& pattern,
                                       Options options)
    : BaselineMulticast(system, pattern, options),
      cursor_(static_cast<size_t>(system.process_count()), 0),
      next_own_(static_cast<size_t>(system.process_count()), 0),
      local_seq_(static_cast<size_t>(system.process_count()), 0) {}

bool BroadcastMulticast::step_process(ProcessId p) {
  if (pattern_.crashed(p, now_)) return false;
  auto pi = static_cast<size_t>(p);
  // 1. Broadcast the next unsent own message (senders broadcast in
  //    submission order; the global log induces the total order). Only p
  //    itself appends its messages, so a per-process cursor over the workload
  //    replaces the former O(workload x log) rescan.
  for (size_t& i = next_own_[pi]; i < workload_.size(); ++i) {
    const MulticastMessage& m = workload_[i];
    if (m.src != p || in_log_.count(m.id)) continue;
    global_log_.push_back(m.id);
    in_log_.insert(m.id);
    record_.multicast.push_back(m);
    record_.multicast_time.push_back(now_);
    GAM_METRICS_PROBE(if (probe_.reg) probe_.mcast_time[m.id] = now_);
    ++i;
    return count_step(p);
  }
  // 2. Consume the next broadcast entry — *every* process pays this step for
  //    *every* message; that is precisely what genuineness forbids.
  if (cursor_[pi] < global_log_.size()) {
    MsgId mid = global_log_[cursor_[pi]++];
    const MulticastMessage& m = by_id_.at(mid);
    GAM_METRICS_PROBE(if (probe_.reg) ++probe_.handled[pi]);
    if (system_.group(m.dst).contains(p)) {
      record_.deliveries.push_back({p, mid, now_, local_seq_[pi]++});
      GAM_METRICS_PROBE(if (probe_.reg) probe_.reg
                            ->histogram("deliver_latency",
                                        "g" + std::to_string(m.dst))
                            .record(now_ - probe_.mcast_time.at(mid)));
    }
    return count_step(p);
  }
  return false;
}

// ---- SkeenMulticast -------------------------------------------------------------

SkeenMulticast::SkeenMulticast(const groups::GroupSystem& system,
                               const sim::FailurePattern& pattern,
                               Options options)
    : BaselineMulticast(system, pattern, options),
      procs_(static_cast<size_t>(system.process_count())) {}

bool SkeenMulticast::step_sender(const MulticastMessage& m) {
  PerMessage& st = state_[m.id];
  auto& sender = procs_[static_cast<size_t>(m.src)];
  if (!st.sent) {
    // Group-sequential issuance: wait until the sender has delivered every
    // earlier message it can observe for this group.
    for (const MulticastMessage& prev : workload_) {
      if (prev.id == m.id) break;
      if (prev.dst != m.dst) continue;
      if (!state_[prev.id].sent) {
        if (!pattern_.crashed(prev.src, now_)) return false;
        continue;  // sender died before sending: skipped
      }
      if (!sender.delivered.count(prev.id)) return false;
    }
    st.sent = true;
    wire_messages_ += static_cast<std::uint64_t>(system_.group(m.dst).size());
    record_.multicast.push_back(m);
    record_.multicast_time.push_back(now_);
    GAM_METRICS_PROBE(if (probe_.reg) probe_.mcast_time[m.id] = now_);
    return true;
  }
  // Finalize once every destination member proposed. Skeen has no failure
  // handling: a crashed member that never proposed blocks the message forever.
  if (st.final_ts < 0 &&
      static_cast<int>(st.proposals.size()) == system_.group(m.dst).size()) {
    std::int64_t ts = 0;
    for (auto& [q, t] : st.proposals) ts = std::max(ts, t);
    st.final_ts = ts;
    wire_messages_ += static_cast<std::uint64_t>(system_.group(m.dst).size());
    for (ProcessId q : system_.group(m.dst)) {
      auto& member = procs_[static_cast<size_t>(q)];
      member.pending[m.id] = {ts, true};
      member.clock = std::max(member.clock, ts);
    }
    return true;
  }
  return false;
}

int SkeenMulticast::try_deliver(ProcessId p) {
  int delivered = 0;
  auto& st = procs_[static_cast<size_t>(p)];
  for (;;) {
    // Deliver the finalized pending message with the smallest (ts, id) if it
    // is minimal among *all* pending entries at p.
    MsgId best = -1;
    std::pair<std::int64_t, MsgId> best_key{0, 0};
    for (auto& [mid, e] : st.pending) {
      if (!e.second) continue;  // not finalized yet
      std::pair<std::int64_t, MsgId> key{e.first, mid};
      if (best == -1 || key < best_key) {
        best = mid;
        best_key = key;
      }
    }
    if (best == -1) return delivered;
    for (auto& [mid, e] : st.pending)
      if (std::make_pair(e.first, mid) < best_key)
        return delivered;  // must wait
    st.pending.erase(best);
    st.delivered.insert(best);
    record_.deliveries.push_back({p, best, now_, st.seq++});
    GAM_METRICS_PROBE(if (probe_.reg) probe_.reg
                          ->histogram("deliver_latency",
                                      "g" + std::to_string(by_id_.at(best).dst))
                          .record(now_ - probe_.mcast_time.at(best)));
    ++delivered;
  }
}

bool SkeenMulticast::step_process(ProcessId p) {
  if (pattern_.crashed(p, now_)) return false;
  bool acted = false;
  // Sender duties.
  for (const MulticastMessage& m : workload_) {
    if (m.src != p) continue;
    if (step_sender(m)) {
      acted = true;
      break;
    }
  }
  // Proposal duties: answer one outstanding request.
  if (!acted) {
    for (auto& [mid, st] : state_) {
      if (!st.sent || st.final_ts >= 0) continue;
      const MulticastMessage& m = by_id_.at(mid);
      if (!system_.group(m.dst).contains(p) || st.proposals.count(p)) continue;
      auto& me = procs_[static_cast<size_t>(p)];
      std::int64_t ts = ++me.clock;
      st.proposals[p] = ts;
      me.pending[mid] = {ts, false};
      ++wire_messages_;  // the reply
      acted = true;
      break;
    }
  }
  // Delivery from the holdback queue is a protocol step of its own: a member
  // with nothing else to do must still drain deliverable messages.
  if (try_deliver(p) > 0) acted = true;
  return acted && count_step(p);
}

// ---- PartitionedMulticast --------------------------------------------------------

PartitionedMulticast::PartitionedMulticast(const groups::GroupSystem& system,
                                           const sim::FailurePattern& pattern,
                                           std::vector<ProcessSet> partitions,
                                           Options options)
    : BaselineMulticast(system, pattern, options),
      partitions_(std::move(partitions)),
      parts_(partitions_.size()),
      procs_(static_cast<size_t>(system.process_count())) {
  // Validate the decomposability assumption.
  for (size_t i = 0; i < partitions_.size(); ++i)
    for (size_t j = i + 1; j < partitions_.size(); ++j)
      GAM_EXPECTS(!partitions_[i].intersects(partitions_[j]));
  for (groups::GroupId g = 0; g < system_.group_count(); ++g) {
    ProcessSet covered;
    for (const ProcessSet& part : partitions_)
      if (part.subset_of(system_.group(g))) covered |= part;
    GAM_EXPECTS(covered == system_.group(g));
  }
}

std::vector<ProcessSet> PartitionedMulticast::finest_partitions(
    const groups::GroupSystem& system) {
  // Equivalence classes of "belongs to exactly the same groups".
  std::map<groups::FamilyMask, ProcessSet> classes;
  for (ProcessId p = 0; p < system.process_count(); ++p) {
    groups::FamilyMask sig;
    for (groups::GroupId g : system.groups_of(p)) sig.insert(g);
    classes[sig].insert(p);
  }
  std::vector<ProcessSet> out;
  for (auto& [sig, s] : classes)
    if (!sig.empty()) out.push_back(s);  // uncovered: no partition needed
  return out;
}

std::vector<int> PartitionedMulticast::partitions_of_group(
    groups::GroupId g) const {
  std::vector<int> out;
  for (size_t i = 0; i < partitions_.size(); ++i)
    if (partitions_[i].subset_of(system_.group(g)))
      out.push_back(static_cast<int>(i));
  return out;
}

bool PartitionedMulticast::partition_alive(int part) const {
  return !pattern_.set_faulty_at(partitions_[static_cast<size_t>(part)], now_);
}

bool PartitionedMulticast::step_process(ProcessId p) {
  if (pattern_.crashed(p, now_)) return false;
  bool acted = false;
  // Sender: issue the next eligible message.
  for (const MulticastMessage& m : workload_) {
    if (m.src != p || state_.count(m.id)) continue;
    bool ready = true;
    for (const MulticastMessage& prev : workload_) {
      if (prev.id == m.id) break;
      if (prev.dst != m.dst) continue;
      if (!state_.count(prev.id)) {
        if (!pattern_.crashed(prev.src, now_)) ready = false;
        continue;
      }
      if (!procs_[static_cast<size_t>(p)].pending.count(prev.id) &&
          state_[prev.id].final_ts >= 0) {
        // prev finalized and no longer pending at p => delivered; fine.
      } else {
        ready = false;
      }
    }
    if (!ready) continue;
    state_[m.id];  // mark issued
    record_.multicast.push_back(m);
    record_.multicast_time.push_back(now_);
    acted = true;
    break;
  }
  // Partition duties: a live member proposes on behalf of its partition
  // (the decomposability assumption makes the partition one logical
  // entity; intra-partition consensus is abstracted away, §7).
  if (!acted) {
    for (auto& [mid, st] : state_) {
      if (st.final_ts >= 0) continue;
      const MulticastMessage& m = by_id_.at(mid);
      for (int part : partitions_of_group(m.dst)) {
        if (st.proposals.count(part)) continue;
        if (!partitions_[static_cast<size_t>(part)].contains(p)) continue;
        auto& entity = parts_[static_cast<size_t>(part)];
        std::int64_t ts = ++entity.clock;
        st.proposals[part] = ts;
        for (ProcessId q : partitions_[static_cast<size_t>(part)])
          if (!pattern_.crashed(q, now_))
            procs_[static_cast<size_t>(q)].pending[mid] = {ts, false};
        acted = true;
        break;
      }
      if (acted) break;
      // Finalize when every involved partition proposed — a step of a
      // destination-group member only (genuineness).
      if (!system_.group(m.dst).contains(p)) continue;
      auto needed = partitions_of_group(m.dst);
      if (static_cast<int>(st.proposals.size()) ==
          static_cast<int>(needed.size())) {
        std::int64_t ts = 0;
        for (auto& [part, t] : st.proposals) ts = std::max(ts, t);
        st.final_ts = ts;
        for (ProcessId q : system_.group(m.dst))
          if (!pattern_.crashed(q, now_)) {
            procs_[static_cast<size_t>(q)].pending[mid] = {ts, true};
            for (int part : needed)
              parts_[static_cast<size_t>(part)].clock =
                  std::max(parts_[static_cast<size_t>(part)].clock, ts);
          }
        acted = true;
        break;
      }
    }
  }
  // Delivery in (ts, id) order, as in Skeen; draining the holdback queue
  // is a step in its own right.
  {
    auto& st = procs_[static_cast<size_t>(p)];
    for (;;) {
      MsgId best = -1;
      std::pair<std::int64_t, MsgId> best_key{0, 0};
      for (auto& [mid, e] : st.pending) {
        if (!e.second) continue;
        std::pair<std::int64_t, MsgId> key{e.first, mid};
        if (best == -1 || key < best_key) {
          best = mid;
          best_key = key;
        }
      }
      if (best == -1) break;
      bool minimal = true;
      for (auto& [mid, e] : st.pending)
        if (std::make_pair(e.first, mid) < best_key) minimal = false;
      if (!minimal) break;
      st.pending.erase(best);
      record_.deliveries.push_back({p, best, now_, st.seq++});
      acted = true;
    }
  }
  return acted && count_step(p);
}

void PartitionedMulticast::finish_run() {
  BaselineMulticast::finish_run();
  // Diagnose blockage: issued messages that some live partition can never
  // finalize because a required partition is entirely crashed.
  for (auto& [mid, st] : state_) {
    if (st.final_ts >= 0) continue;
    const MulticastMessage& m = by_id_.at(mid);
    for (int part : partitions_of_group(m.dst))
      if (!partition_alive(part)) {
        blocked_.push_back(mid);
        break;
      }
  }
}

}  // namespace gam::amcast
