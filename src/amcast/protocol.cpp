// The protocol registry and its factories (DESIGN.md decision 16), plus the
// event synthesis the sequential baselines run after their loop. Every
// engine implements amcast::Protocol itself; benches, tests and tools
// construct protocols from descriptors and never mention a concrete engine.
#include "amcast/protocol.hpp"

#include <algorithm>
#include <map>
#include <memory>

#include "amcast/baselines.hpp"
#include "amcast/mu_multicast.hpp"
#include "amcast/replicated_multicast.hpp"
#include "amcast/timestamp_multicast.hpp"

namespace gam::amcast {

// Multicasts go out first (by time, then id), then deliveries (by time,
// process, local sequence) — chronology per message is preserved since a
// delivery never precedes its multicast in the record.
void emit_synthesized_events(const RunRecord& rec, sim::TraceSink& sink) {
  std::vector<sim::TraceEvent> evs;
  evs.reserve(rec.multicast.size() + rec.deliveries.size());
  std::map<MsgId, const MulticastMessage*> by_id;
  for (size_t i = 0; i < rec.multicast.size(); ++i) {
    const MulticastMessage& m = rec.multicast[i];
    by_id[m.id] = &m;
    sim::TraceEvent e;
    e.t = rec.multicast_time[i];
    e.p = m.src;
    e.kind = sim::TraceEventKind::kMulticast;
    e.protocol = static_cast<std::int32_t>(m.dst);
    e.peer = m.src;
    e.arg = m.id;
    e.payload_hash = sim::trace_mix(sim::kTraceHashSeed,
                                    static_cast<std::uint64_t>(m.payload));
    evs.push_back(e);
  }
  std::stable_sort(evs.begin(), evs.end(),
                   [](const sim::TraceEvent& a, const sim::TraceEvent& b) {
                     return a.t != b.t ? a.t < b.t : a.arg < b.arg;
                   });
  std::vector<Delivery> dels = rec.deliveries;
  std::stable_sort(dels.begin(), dels.end(),
                   [](const Delivery& a, const Delivery& b) {
                     if (a.t != b.t) return a.t < b.t;
                     if (a.p != b.p) return a.p < b.p;
                     return a.local_seq < b.local_seq;
                   });
  for (const Delivery& d : dels) {
    const MulticastMessage* m = by_id.at(d.m);
    sim::TraceEvent e;
    e.t = d.t;
    e.p = d.p;
    e.kind = sim::TraceEventKind::kDeliver;
    e.protocol = static_cast<std::int32_t>(m->dst);
    e.type = static_cast<std::int32_t>(d.local_seq);
    e.arg = d.m;
    e.payload_hash = sim::trace_mix(sim::kTraceHashSeed,
                                    static_cast<std::uint64_t>(m->payload));
    evs.push_back(e);
  }
  for (const sim::TraceEvent& e : evs) sink.on_event(e);
}

namespace {

std::unique_ptr<Protocol> make_mu(const groups::GroupSystem& s,
                                  const sim::FailurePattern& f,
                                  const ProtocolOptions& o) {
  return std::make_unique<MuMulticast>(s, f, o);
}
std::unique_ptr<Protocol> make_perfectfd(const groups::GroupSystem& s,
                                         const sim::FailurePattern& f,
                                         const ProtocolOptions& o) {
  return std::make_unique<MuMulticast>(s, f, perfect_fd_options(o));
}
std::unique_ptr<Protocol> make_skeen(const groups::GroupSystem& s,
                                     const sim::FailurePattern& f,
                                     const ProtocolOptions& o) {
  return std::make_unique<SkeenMulticast>(s, f, o);
}
std::unique_ptr<Protocol> make_broadcast(const groups::GroupSystem& s,
                                         const sim::FailurePattern& f,
                                         const ProtocolOptions& o) {
  return std::make_unique<BroadcastMulticast>(s, f, o);
}
std::unique_ptr<Protocol> make_worldlog(const groups::GroupSystem& s,
                                        const sim::FailurePattern& f,
                                        const ProtocolOptions& o) {
  return std::make_unique<ReplicatedMulticast>(s, f, o);
}
std::unique_ptr<Protocol> make_whitebox(const groups::GroupSystem& s,
                                        const sim::FailurePattern& f,
                                        const ProtocolOptions& o) {
  return std::make_unique<TimestampMulticast>(
      s, f, o, /*conflict_aware=*/false,
      TimestampMulticast::kWhiteBoxTraceBase);
}
std::unique_ptr<Protocol> make_generic(const groups::GroupSystem& s,
                                       const sim::FailurePattern& f,
                                       const ProtocolOptions& o) {
  return std::make_unique<TimestampMulticast>(
      s, f, o, /*conflict_aware=*/true, TimestampMulticast::kGenericTraceBase);
}

}  // namespace

ProtocolRegistry::ProtocolRegistry() {
  // Field order: name, trace_base, genuine, crash_tolerant, requires_disjoint,
  // emits_multicast_events, conflict_aware, summary, make.
  //
  // crash_tolerant is "keeps its guarantees under the environment crashes the
  // arena throws at it" — for the quorum-based engines that still assumes
  // every group (worldlog) or covering partition (whitebox/generic) keeps a
  // live majority; bench_arena.cpp checks that per cell before running them.
  table_ = {
      {"mu", sim::protocol_id(0), true, true, false, true, false,
       "Algorithm 1: genuine atomic multicast from mu (group-sequential)",
       &make_mu},
      {"perfectfd", sim::protocol_id(0), true, true, false, true, false,
       "Schiper-Pedone [36]: the section-6.1 strict variant with exact "
       "(lag-0) failure indicators",
       &make_perfectfd},
      {"skeen", sim::protocol_id(0), true, false, false, true, false,
       "Skeen's failure-free timestamping baseline (breaks under crashes)",
       &make_skeen},
      {"broadcast", sim::protocol_id(0), false, true, false, true, false,
       "non-genuine strawman: one system-wide atomic broadcast",
       &make_broadcast},
      {"worldlog", ReplicatedMulticast::kTraceBase, true, true, true, false,
       false,
       "per-group Paxos logs over the simulated network (disjoint groups)",
       &make_worldlog},
      {"whitebox", TimestampMulticast::kWhiteBoxTraceBase, true, true, false,
       false, false,
       "White-Box Atomic Multicast: per-partition Paxos timestamping with "
       "direct inter-partition exchange (arXiv 1904.07171)",
       &make_whitebox},
      {"generic", TimestampMulticast::kGenericTraceBase, true, true, false,
       false, true,
       "Generic Multicast: the white-box engine ordering only conflicting "
       "pairs (arXiv 2410.01901)",
       &make_generic},
  };
}

const ProtocolRegistry& ProtocolRegistry::instance() {
  static const ProtocolRegistry reg;
  return reg;
}

const ProtocolDescriptor* ProtocolRegistry::find(std::string_view name) const {
  for (const ProtocolDescriptor& d : table_)
    if (name == d.name) return &d;
  return nullptr;
}

// First descriptor at `trace_base`; the Algorithm-1 family shares base 0, so
// base lookup is only unique for the World-backed engines.
const ProtocolDescriptor* ProtocolRegistry::find(
    sim::ProtocolId trace_base) const {
  for (const ProtocolDescriptor& d : table_)
    if (d.trace_base == trace_base) return &d;
  return nullptr;
}

std::string ProtocolRegistry::names() const {
  std::string out;
  for (const ProtocolDescriptor& d : table_) {
    if (!out.empty()) out += ", ";
    out += d.name;
  }
  return out;
}

}  // namespace gam::amcast
