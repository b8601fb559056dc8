// Genuine atomic multicast over the *message-passing* object layer.
//
// Algorithm 1's shared objects are implementable from μ (§4.3): per-group
// logs via the universal construction on Ω_g ∧ Σ_g. This engine closes that
// loop end-to-end for the topologies where per-group ordering suffices —
// pairwise-disjoint destination groups (the embarrassingly-parallel workload
// of §2.3) and the single-group case (atomic broadcast): every group runs a
// UniversalLog among exactly its members inside a simulated network, and a
// message is delivered at a member when it enters the learned prefix of the
// group's log.
//
// Genuineness falls out of the scoping: the log of g exchanges messages among
// g only, so a process with no addressed message never sends or receives
// anything. The intersecting-group cases need Algorithm 1's cross-log
// machinery on top (src/amcast/mu_multicast.hpp); DESIGN.md discusses the
// split.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "amcast/options.hpp"
#include "amcast/protocol.hpp"
#include "amcast/types.hpp"
#include "fd/detectors.hpp"
#include "groups/group_system.hpp"
#include "objects/protocol_host.hpp"
#include "objects/universal_log.hpp"
#include "sim/run_spec.hpp"
#include "sim/world.hpp"

namespace gam::amcast {

class ReplicatedMulticast final : public Protocol {
 public:
  // Shared options (amcast/options.hpp): consumes seed / max_steps /
  // scheduler, plus batch_k / window_size forwarded to each group's
  // UniversalLog (see universal_log.hpp); 1/1 is the legacy wire behavior.
  using Options = ProtocolOptions;

  // Group g's log (and its deliver events) runs at protocol id
  // kTraceBase + g in the world's wire/trace id space. 100 is the historical
  // world-trace numbering; the golden trace hashes pin it.
  static constexpr sim::ProtocolId kTraceBase = sim::protocol_id(100);

  // Requires pairwise-disjoint destination groups.
  ReplicatedMulticast(const groups::GroupSystem& system,
                      const sim::FailurePattern& pattern, Options options);

  void submit(const MulticastMessage& m) override;
  RunRecord run() override;
  const RunRecord& record() const override { return record_; }
  const ProtocolOptions& options() const override { return options_; }

  // Wire cost of the run (benches / tests).
  std::uint64_t wire_messages() const override;

  sim::World* world() override { return world_; }

  // Caller-owned registry: wires the World's buffer/FD probes plus per-group
  // delivery-latency histograms and the genuineness ledger computed from the
  // world's per-process wire stats. Attach before run().
  void set_metrics(sim::Metrics* m) override;
  // The World's event stream: every wire event plus the deliveries.
  void set_event_sink(sim::TraceSink* sink) override {
    world_->set_trace_sink(sink);
  }

 private:
  const groups::GroupSystem& system_;
  const sim::FailurePattern& pattern_;
  Options options_;

  std::unique_ptr<sim::Scenario> scenario_;  // owns the World + scheduler
  sim::World* world_ = nullptr;
  std::vector<objects::ProtocolHost*> hosts_;
  // Detector components per group (the μ pieces this configuration needs).
  std::vector<std::unique_ptr<fd::SigmaOracle>> sigmas_;
  std::vector<std::unique_ptr<fd::OmegaOracle>> omegas_;
  // logs_[g][member-index] — one replica per group member.
  std::map<groups::GroupId,
           std::vector<std::shared_ptr<objects::UniversalLog>>>
      logs_;
  std::map<groups::GroupId, std::vector<ProcessId>> members_;

  std::vector<MulticastMessage> workload_;
  std::vector<std::int64_t> local_seq_;
  RunRecord record_;
  sim::Metrics* metrics_ = nullptr;
};

}  // namespace gam::amcast
