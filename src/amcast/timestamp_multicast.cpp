#include "amcast/timestamp_multicast.hpp"

#include <algorithm>

#include "amcast/baselines.hpp"  // PartitionedMulticast::finest_partitions
#include "amcast/spec.hpp"  // record_ledger

namespace gam::amcast {

namespace {
// Agent wire types. kTsReq carries [msg]; kTs carries [msg, partition, ts].
constexpr sim::MsgType kTsReq{1};
constexpr sim::MsgType kTs{2};
}  // namespace

// The per-process endpoint. All protocol state lives in the parent (the
// engine is a closed-world simulation study, not a deployment), so the agent
// is just the wire adapter: decode incoming messages into parent handlers and
// flush the outbox that log-apply callbacks fill (those callbacks run inside
// the log's step and have no Context to send from; the queued announcements
// go out on this process's next idle step, costing the same
// one-step-per-send the paper's model charges).
class TimestampMulticast::Agent final : public objects::SubProtocol {
 public:
  Agent(TimestampMulticast* parent, ProcessId self, sim::ProtocolId wire_id)
      : parent_(parent), self_(self), wire_id_(wire_id) {}

  void on_message(sim::Context& ctx, const sim::Message& m) override {
    (void)ctx;
    if (m.type == sim::raw(kTsReq)) {
      parent_->handle_ts_req(self_, m.data[0]);
    } else if (m.type == sim::raw(kTs)) {
      parent_->note_ts(self_, m.data[0], static_cast<int>(m.data[1]),
                       m.data[2]);
    }
  }

  bool on_idle(sim::Context& ctx) override {
    auto& outbox = parent_->procs_[static_cast<size_t>(self_)].outbox;
    if (outbox.empty()) return false;
    while (!outbox.empty()) {
      Outgoing o = outbox.front();
      outbox.pop_front();
      if (o.type == kTsReq)
        ctx.send(o.dst, wire_id_, o.type, {o.a});
      else
        ctx.send(o.dst, wire_id_, o.type, {o.a, o.b, o.c});
    }
    return true;
  }

  bool wants_step() const override {
    return !parent_->procs_[static_cast<size_t>(self_)].outbox.empty();
  }

 private:
  TimestampMulticast* parent_;
  ProcessId self_;
  sim::ProtocolId wire_id_;
};

TimestampMulticast::TimestampMulticast(const groups::GroupSystem& system,
                                       const sim::FailurePattern& pattern,
                                       ProtocolOptions options,
                                       bool conflict_aware,
                                       sim::ProtocolId trace_base)
    : system_(system),
      pattern_(pattern),
      options_(options),
      conflict_aware_(conflict_aware),
      trace_base_(trace_base),
      partitions_(PartitionedMulticast::finest_partitions(system)),
      part_of_(static_cast<size_t>(system.process_count()), -1),
      procs_(static_cast<size_t>(system.process_count())) {
  for (size_t i = 0; i < partitions_.size(); ++i)
    for (ProcessId p : partitions_[i]) part_of_[static_cast<size_t>(p)] =
        static_cast<int>(i);

  scenario_ = std::make_unique<sim::Scenario>(sim::RunSpec{}
                                                  .groups(system)
                                                  .failures(pattern)
                                                  .seed(options_.seed)
                                                  .max_steps(options_.max_steps)
                                                  .scheduler(options_.scheduler));
  world_ = &scenario_->world();
  hosts_ = objects::install_hosts(*world_);
  logs_.resize(static_cast<size_t>(system.process_count()));

  const sim::ProtocolId wire_id = trace_base_ + kWireOffset;
  for (size_t i = 0; i < partitions_.size(); ++i) {
    ProcessSet scope = partitions_[i];
    sigmas_.push_back(std::make_unique<fd::SigmaOracle>(pattern_, scope));
    omegas_.push_back(std::make_unique<fd::OmegaOracle>(pattern_, scope));
    const sim::ProtocolId log_id =
        trace_base_ + (kWireOffset + 1 + static_cast<std::int32_t>(i));
    const int part = static_cast<int>(i);
    for (ProcessId p : scope) {
      auto log = std::make_shared<objects::UniversalLog>(
          log_id, p, scope, *sigmas_.back(), *omegas_.back(),
          options_.batch_k, options_.window_size);
      log->set_on_learn([this, p, part](std::int64_t op, std::int64_t) {
        on_log_apply(p, part, op);
      });
      hosts_[static_cast<size_t>(p)]->add(log_id, log);
      logs_[static_cast<size_t>(p)] = log;
    }
  }
  for (ProcessId p = 0; p < system.process_count(); ++p) {
    auto agent = std::make_shared<Agent>(this, p, wire_id);
    agents_.push_back(agent.get());
    hosts_[static_cast<size_t>(p)]->add(wire_id, agent);
  }
}

void TimestampMulticast::submit(const MulticastMessage& m) {
  GAM_EXPECTS(m.id >= 0);  // the op encoding reserves negatives for BUMP
  GAM_EXPECTS(system_.group(m.dst).contains(m.src));
  workload_.push_back(m);
}

void TimestampMulticast::set_metrics(sim::Metrics* m) {
  metrics_ = m;
  world_->set_metrics(m);
}

void TimestampMulticast::set_event_sink(sim::TraceSink* sink) {
  world_->set_trace_sink(sink);
}

void TimestampMulticast::originate(const MulticastMessage& m) {
  MsgInfo info;
  info.m = m;
  info.members = system_.group(m.dst);
  for (size_t i = 0; i < partitions_.size(); ++i)
    if (!(partitions_[i] & info.members).empty())
      info.cover.push_back(static_cast<int>(i));
  info_[m.id] = std::move(info);
  record_.multicast.push_back(m);
  record_.multicast_time.push_back(0);
  auto& pp = procs_[static_cast<size_t>(m.src)];
  for (ProcessId q : info_[m.id].members)
    if (q != m.src) pp.outbox.push_back({q, kTsReq, m.id, 0, 0});
  handle_ts_req(m.src, m.id);
}

void TimestampMulticast::handle_ts_req(ProcessId p, MsgId id) {
  auto& pp = procs_[static_cast<size_t>(p)];
  // At most one submission per replica, and never after the op is already in
  // the local learned prefix: the log resolves a pending entry only when its
  // op first enters the prefix, so a post-learn submit would pend forever and
  // the run would never quiesce.
  if (pp.submitted.count(id) || pp.local_ts.count(id)) return;
  GAM_EXPECTS(part_of_[static_cast<size_t>(p)] >= 0);
  pp.submitted.insert(id);
  logs_[static_cast<size_t>(p)]->submit(id, nullptr);
}

void TimestampMulticast::on_log_apply(ProcessId p, int part, std::int64_t op) {
  auto& pp = procs_[static_cast<size_t>(p)];
  if (op < 0) {  // BUMP(T)
    pp.clock = std::max(pp.clock, -op - 1);
    try_deliver(p);
    return;
  }
  // TS-REQ: this partition's timestamp proposal for op is the next clock
  // tick. Announce (partition, ts) to every destination member; the local
  // copy short-circuits the wire.
  const std::int64_t ts = ++pp.clock;
  pp.local_ts[op] = ts;
  pp.applied.insert(op);
  const MsgInfo& info = info_.at(op);
  for (ProcessId q : info.members)
    if (q != p) pp.outbox.push_back({q, kTs, op, part, ts});
  note_ts(p, op, part, ts);
}

void TimestampMulticast::note_ts(ProcessId p, MsgId id, int part,
                                 std::int64_t ts) {
  // A timestamp announcement doubles as retransmission of the request: a
  // member that missed the sender's fan-out (say the sender crashed mid-send)
  // still funnels the op into its partition once any partition ordered it.
  handle_ts_req(p, id);
  auto& pp = procs_[static_cast<size_t>(p)];
  if (!pp.ts_seen[id].emplace(part, ts).second) return;  // duplicate
  const MsgInfo& info = info_.at(id);
  if (pp.ts_seen[id].size() == info.cover.size() && !pp.final_ts.count(id)) {
    std::int64_t f = 0;
    for (const auto& [pt, t] : pp.ts_seen[id]) f = std::max(f, t);
    pp.final_ts[id] = f;
    // Keep the local clock ahead of everything finalized, so new local
    // timestamps can never slot below a message already cleared for delivery.
    if (f > pp.clock && pp.bumps.insert(f).second)
      logs_[static_cast<size_t>(p)]->submit(bump_op(f), nullptr);
  }
  try_deliver(p);
}

bool TimestampMulticast::conflicts(MsgId a, MsgId b) const {
  if (!conflict_aware_) return true;
  return info_.at(a).m.conflict_class == info_.at(b).m.conflict_class;
}

void TimestampMulticast::try_deliver(ProcessId p) {
  auto& pp = procs_[static_cast<size_t>(p)];
  for (;;) {
    MsgId best = -1;
    for (MsgId id : pp.applied) {
      auto fit = pp.final_ts.find(id);
      if (fit == pp.final_ts.end()) continue;   // final ts still unknown
      if (pp.clock < fit->second) continue;     // clock must catch up first
      const std::pair<std::int64_t, MsgId> key{fit->second, id};
      // Minimal among the conflicting pending messages: a pending message
      // without a final timestamp counts at its local proposal, a lower
      // bound on its final (max over partitions only grows).
      bool minimal = true;
      for (MsgId other : pp.applied) {
        if (other == id || !conflicts(id, other)) continue;
        auto oit = pp.final_ts.find(other);
        const std::int64_t lb =
            oit != pp.final_ts.end() ? oit->second : pp.local_ts.at(other);
        if (std::pair<std::int64_t, MsgId>{lb, other} < key) {
          minimal = false;
          break;
        }
      }
      if (minimal) {
        best = id;
        break;
      }
    }
    if (best < 0) return;
    deliver(p, best);
  }
}

void TimestampMulticast::deliver(ProcessId p, MsgId id) {
  auto& pp = procs_[static_cast<size_t>(p)];
  pp.applied.erase(id);
  pp.delivered.insert(id);
  const MsgInfo& info = info_.at(id);
  const std::int64_t seq = pp.seq++;
  record_.deliveries.push_back({p, id, world_->now(), seq});
  // Submissions all happen at t=0, so latency == the delivery instant.
  GAM_METRICS_PROBE(
      if (metrics_) metrics_
          ->histogram("deliver_latency", "g" + std::to_string(info.m.dst))
          .record(world_->now()));
  world_->trace_deliver(p, trace_base_ + info.m.dst, id, seq);
}

RunRecord TimestampMulticast::run() {
  for (const MulticastMessage& m : workload_) {
    if (pattern_.crashed(m.src, 0)) continue;  // never got to call multicast
    originate(m);
  }
  record_.quiescent = world_->run_until_quiescent(options_.max_steps);
  for (ProcessId p = 0; p < system_.process_count(); ++p) {
    record_.steps += world_->stats(p).steps;
    if (world_->stats(p).steps > 0) record_.active.insert(p);
  }
  // Genuineness ledger from the world's wire stats (must be zero — every log
  // and every announcement is scoped inside some destination group).
  GAM_METRICS_PROBE(if (metrics_) record_ledger(
      *metrics_, record_, system_,
      [this](ProcessId p) { return world_->stats(p).steps; },
      [this](ProcessId p) { return world_->stats(p).messages_sent; }));
  return record_;
}

std::uint64_t TimestampMulticast::wire_messages() const {
  std::uint64_t n = 0;
  for (ProcessId p = 0; p < system_.process_count(); ++p)
    n += world_->stats(p).messages_sent;
  return n;
}

}  // namespace gam::amcast
