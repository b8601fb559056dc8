// The uniform protocol surface of the arena (ISSUE 10).
//
// Five multicast implementations grew five bespoke construction dances:
// different constructors, different run entry points, sinks attached through
// different methods (MuMulticast::set_event_sink vs
// ReplicatedMulticast::world().set_trace_sink), and protocol numbering
// hand-wired at every bench call site. amcast::Protocol is the one surface a
// harness needs — submit the workload, attach sinks/metrics, run, read the
// record — and ProtocolRegistry makes "add the Nth protocol" a one-file
// change: register a descriptor and every bench axis, monitor wiring, and
// test sweep picks it up by name. Every engine implements Protocol itself;
// the sequential ones share one scheduler loop (sequential.hpp).
//
// The registry descriptor also carries the *semantics* a harness needs to
// drive a protocol correctly: where its deliver events sit in the trace id
// space (trace_base), whether its stream contains kMulticast events
// (monitor integrity mode), whether it is genuine (ledger expectation),
// whether it survives crashes (crash-scenario cells), and whether it only
// solves the pairwise-disjoint topologies. DESIGN.md decision 16 discusses
// the shape.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "amcast/options.hpp"
#include "amcast/types.hpp"
#include "groups/group_system.hpp"
#include "sim/failure_pattern.hpp"
#include "sim/ids.hpp"
#include "sim/metrics.hpp"
#include "sim/spans.hpp"
#include "sim/trace.hpp"

namespace gam::sim {
class World;  // sim/world.hpp
}

namespace gam::amcast {

class Protocol {
 public:
  virtual ~Protocol() = default;

  // Queues one multicast request. All submissions happen before run().
  virtual void submit(const MulticastMessage& m) = 0;

  // Runs to quiescence (or the step budget) and returns the run record.
  virtual RunRecord run() = 0;

  // The record accumulated so far (identical to run()'s return after run()).
  virtual const RunRecord& record() const = 0;

  virtual const ProtocolOptions& options() const = 0;

  // Processes that took at least one protocol step (Minimality/ledger).
  virtual ProcessSet actors() const { return record().active; }

  // Wire messages exchanged, for protocols with a network; 0 otherwise.
  virtual std::uint64_t wire_messages() const { return 0; }

  // Uniform observer attachment. Every sink/registry is caller-owned and
  // must outlive run(). Protocols without a given instrument ignore the call.
  virtual void set_metrics(sim::Metrics*) {}
  virtual void set_event_sink(sim::TraceSink*) {}
  virtual void set_span_sink(sim::SpanSink*) {}

  // The backing simulated network, when the protocol runs inside one
  // (harnesses absorb wire/alloc stats from it); nullptr otherwise.
  virtual sim::World* world() { return nullptr; }
};

// For engines that produce a RunRecord but no event stream (the sequential
// baselines): feeds `sink` the kMulticast/kDeliver events MuMulticast emits
// for the same record (same field conventions, same payload fold), so sinks
// and monitors attach uniformly.
void emit_synthesized_events(const RunRecord& rec, sim::TraceSink& sink);

struct ProtocolDescriptor {
  const char* name;
  // Deliver events for destination group g carry protocol id trace_base + g;
  // MonitorConfig::protocol_base subtracts it back out.
  sim::ProtocolId trace_base;
  // Genuineness (§2.3): non-addressees take no steps and send no messages.
  // The arena asserts the ledger is zero exactly for genuine protocols.
  bool genuine;
  // Keeps all safety properties and delivers at correct addressees under the
  // crash scenarios (false: the protocol exists to *break* there — Skeen).
  bool crash_tolerant;
  // Only solves pairwise-disjoint destination groups (per-group logs with no
  // cross-group machinery).
  bool requires_disjoint;
  // The event stream contains kMulticast events (monitors run with
  // require_multicast); World-backed streams record only the delivery side.
  bool emits_multicast_events;
  // Delivery order constrained only between conflicting messages (the
  // conflict_class workload axis); commuting messages may deliver in any
  // relative order, so the acyclicity monitor must be fed the class map.
  bool conflict_aware;
  const char* summary;
  std::unique_ptr<Protocol> (*make)(const groups::GroupSystem& system,
                                    const sim::FailurePattern& pattern,
                                    const ProtocolOptions& options);
};

// The process-global protocol table. Construction stays with the caller: a
// factory receives (system, pattern, options) by reference and the returned
// Protocol keeps referring to them, so both must outlive it (the same
// contract every concrete class already had).
class ProtocolRegistry {
 public:
  static const ProtocolRegistry& instance();

  const std::vector<ProtocolDescriptor>& all() const { return table_; }
  const ProtocolDescriptor* find(std::string_view name) const;
  const ProtocolDescriptor* find(sim::ProtocolId trace_base) const;

  // "mu, skeen, ..." — for usage/error messages.
  std::string names() const;

 private:
  ProtocolRegistry();
  std::vector<ProtocolDescriptor> table_;
};

}  // namespace gam::amcast
