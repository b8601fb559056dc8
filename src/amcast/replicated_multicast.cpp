#include "amcast/replicated_multicast.hpp"

#include "amcast/spec.hpp"  // record_ledger

namespace gam::amcast {

ReplicatedMulticast::ReplicatedMulticast(const groups::GroupSystem& system,
                                         const sim::FailurePattern& pattern,
                                         Options options)
    : system_(system),
      pattern_(pattern),
      options_(options),
      local_seq_(static_cast<size_t>(system.process_count()), 0) {
  // Disjointness: per-group logs are only a complete solution when no two
  // groups intersect (otherwise Algorithm 1's cross-log machinery is needed).
  for (groups::GroupId g = 0; g < system_.group_count(); ++g)
    for (groups::GroupId h = g + 1; h < system_.group_count(); ++h)
      GAM_EXPECTS(system_.intersection(g, h).empty());

  scenario_ = std::make_unique<sim::Scenario>(sim::RunSpec{}
                                                  .groups(system)
                                                  .failures(pattern)
                                                  .seed(options.seed)
                                                  .max_steps(options.max_steps)
                                                  .scheduler(options.scheduler));
  world_ = &scenario_->world();
  hosts_ = objects::install_hosts(*world_);

  for (groups::GroupId g = 0; g < system_.group_count(); ++g) {
    ProcessSet scope = system_.group(g);
    sigmas_.push_back(std::make_unique<fd::SigmaOracle>(pattern_, scope));
    omegas_.push_back(std::make_unique<fd::OmegaOracle>(pattern_, scope));
    members_[g].assign(scope.begin(), scope.end());
    for (ProcessId p : scope) {
      auto log = std::make_shared<objects::UniversalLog>(
          kTraceBase + g, p, scope, *sigmas_.back(), *omegas_.back(),
          options_.batch_k, options_.window_size);
      // Delivery = the message enters this replica's learned prefix. The
      // event is also reported into the world's trace stream so deliveries
      // interleave with the wire events that caused them.
      log->set_on_learn([this, p, g](std::int64_t op, std::int64_t) {
        std::int64_t seq = local_seq_[static_cast<size_t>(p)]++;
        record_.deliveries.push_back({p, op, world_->now(), seq});
        // Submissions all happen at t=0, so latency == the delivery instant.
        GAM_METRICS_PROBE(
            if (metrics_) metrics_
                ->histogram("deliver_latency", "g" + std::to_string(g))
                .record(world_->now()));
        world_->trace_deliver(p, kTraceBase + g, op, seq);
      });
      hosts_[static_cast<size_t>(p)]->add(kTraceBase + g, log);
      logs_[g].push_back(log);
    }
  }
}

void ReplicatedMulticast::submit(const MulticastMessage& m) {
  GAM_EXPECTS(system_.group(m.dst).contains(m.src));
  workload_.push_back(m);
}

void ReplicatedMulticast::set_metrics(sim::Metrics* m) {
  metrics_ = m;
  world_->set_metrics(m);
}

RunRecord ReplicatedMulticast::run() {
  // Senders submit their messages into their group's log (if still alive at
  // start; a crash-at-0 sender never gets to call multicast).
  for (const MulticastMessage& m : workload_) {
    if (pattern_.crashed(m.src, 0)) continue;
    const auto& ms = members_.at(m.dst);
    for (size_t i = 0; i < ms.size(); ++i)
      if (ms[i] == m.src) {
        logs_.at(m.dst)[i]->submit(m.id, nullptr);
        record_.multicast.push_back(m);
        record_.multicast_time.push_back(0);
        break;
      }
  }
  record_.quiescent = world_->run_until_quiescent(options_.max_steps);
  for (ProcessId p = 0; p < system_.process_count(); ++p) {
    record_.steps += world_->stats(p).steps;
    if (world_->stats(p).steps > 0) record_.active.insert(p);
  }
  // Genuineness ledger from the world's wire stats (must be zero — each
  // group's log is scoped to exactly its members).
  GAM_METRICS_PROBE(if (metrics_) record_ledger(
      *metrics_, record_, system_,
      [this](ProcessId p) { return world_->stats(p).steps; },
      [this](ProcessId p) { return world_->stats(p).messages_sent; }));
  return record_;
}

std::uint64_t ReplicatedMulticast::wire_messages() const {
  std::uint64_t n = 0;
  for (ProcessId p = 0; p < system_.process_count(); ++p)
    n += world_->stats(p).messages_sent;
  return n;
}

}  // namespace gam::amcast
