// Checkable specification of atomic multicast and its variations (paper §2,
// §6): Integrity, Termination, Ordering, Minimality (genuineness), Strict
// Ordering and Pairwise Ordering, evaluated on a finished RunRecord.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "amcast/types.hpp"
#include "groups/group_system.hpp"
#include "sim/failure_pattern.hpp"

namespace gam::sim {
class Metrics;  // sim/metrics.hpp
}

namespace gam::amcast {

struct SpecResult {
  bool ok = true;
  std::string error;

  void fail(std::string msg) {
    if (ok) error = std::move(msg);
    ok = false;
  }
};

// (Integrity) every process delivers a message at most once, only if it
// belongs to the destination group, and only if the message was multicast.
SpecResult check_integrity(const RunRecord& run,
                           const groups::GroupSystem& system);

// (Termination) every message multicast by a correct process, or delivered by
// any process, is delivered by every correct member of its destination group.
// Requires the run to be quiescent (the finite stand-in for "eventually").
SpecResult check_termination(const RunRecord& run,
                             const groups::GroupSystem& system,
                             const sim::FailurePattern& pattern);

// (Ordering) the delivery relation ↦ — m ↦ m' when some p in both destination
// groups delivers m without having delivered m' before — is acyclic.
SpecResult check_ordering(const RunRecord& run,
                          const groups::GroupSystem& system);

// (Minimality / genuineness) only processes addressed by some multicast
// message take protocol steps.
SpecResult check_minimality(const RunRecord& run,
                            const groups::GroupSystem& system);

// The same property measured, as the genuineness ledger: the steps,
// processes and messages attributable to processes outside ∪ dst(m) of the
// issued messages, written to the non_addressee_{steps,processes,messages}
// gauges of `reg`. steps(p) and messages(p) are process p's counts; an empty
// `messages` reads as zero (protocols without a network).
using ProcessCount = std::function<std::uint64_t(ProcessId)>;
void record_ledger(sim::Metrics& reg, const RunRecord& run,
                   const groups::GroupSystem& system,
                   const ProcessCount& steps, const ProcessCount& messages);

// (Strict Ordering, §6.1) the transitive closure of ↦ ∪ ⤳ is a strict partial
// order, where m ⤳ m' when m is delivered in real time before m' is multicast.
SpecResult check_strict_ordering(const RunRecord& run,
                                 const groups::GroupSystem& system);

// (Pairwise Ordering, §7) if p delivers m then m', every q that delivers m'
// has delivered m before.
SpecResult check_pairwise_ordering(const RunRecord& run);

// Convenience: integrity + termination + ordering + minimality.
SpecResult check_all(const RunRecord& run, const groups::GroupSystem& system,
                     const sim::FailurePattern& pattern);

// The ↦ edges of a run (exposed for tests and benches).
std::vector<std::pair<MsgId, MsgId>> delivery_relation(
    const RunRecord& run, const groups::GroupSystem& system);

}  // namespace gam::amcast
