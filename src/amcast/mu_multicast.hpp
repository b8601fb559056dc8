// Algorithm 1 (paper §4.3): genuine group-sequential atomic multicast from
// the candidate failure detector μ = (∧ Σ_{g∩h}) ∧ (∧ Ω_g) ∧ γ.
//
// The implementation follows the paper action by action. A process p keeps a
// phase per message addressed to it; the actions
//
//   multicast  (lines  5- 7)  append m to LOG_g at the sender,
//   pending    (lines  8-15)  propagate m into every LOG_{g∩h} with h ∈ G(p),
//   commit     (lines 16-24)  agree on the highest position via CONS_{m,f}
//                             and bumpAndLock m there in every local log,
//   stabilize  (lines 25-29)  announce that m's predecessors in LOG_{g∩h}
//                             are stable by appending (m,h) to LOG_g,
//   stable     (lines 30-33)  wait for those announcements from every group
//                             of γ(g),
//   deliver    (lines 34-37)  deliver once every <_L-predecessor is delivered,
//
// fire under exactly the preconditions of the pseudo-code. The logs and
// consensus objects are the wait-free linearizable objects of
// objects/ideal.hpp; Σ and Ω enter through them (see DESIGN.md), γ and the
// per-group leaders enter through the μ oracle.
//
// Two execution engines share one selection semantics (DESIGN.md,
// "Incremental guarded-action engine"):
//
//   kScan         re-evaluates every guard of a process at every scheduling
//                 attempt — the literal reading of the pseudo-code and the
//                 equivalence oracle;
//   kIncremental  caches, per process, the next action that would fire and
//                 invalidates that cache only on the events that can change
//                 a guard: a mutation of a log the process reads (dirtying
//                 the members of the log's two groups), a phase change of
//                 the process itself, or the clock crossing a failure-
//                 detector transition time (all μ outputs are step functions
//                 of time; the transition instants are precomputed from the
//                 failure pattern). A clean "nothing enabled" verdict makes
//                 a scheduling attempt O(1).
//
// Both engines fire the same action of the same process at every step, so
// runs are trace-identical seed for seed (tests/test_engine_equivalence).
//
// Options toggle the §6.1 strict variant (the stable action waits on the
// indicator 1^{g∩h} for *every* intersecting h, instead of on γ) and a
// restriction of the scheduler to a subset of processes (P-fair runs, used by
// the §6.2 group-parallelism experiments). Steps are ordered by the shared
// sequential loop (sequential.hpp) under options().scheduler.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "amcast/options.hpp"
#include "amcast/sequential.hpp"
#include "amcast/trace.hpp"
#include "amcast/types.hpp"
#include "fd/detectors.hpp"
#include "groups/group_system.hpp"
#include "objects/ideal.hpp"
#include "sim/failure_pattern.hpp"
#include "sim/metrics.hpp"
#include "sim/spans.hpp"
#include "sim/trace.hpp"

namespace gam::amcast {

class MuMulticast final : public SequentialProtocol {
 public:
  // The engine enum and the options struct are the shared amcast ones
  // (options.hpp): every protocol behind amcast::Protocol reads the same
  // ProtocolOptions, and Algorithm 1 consumes the seed/max_steps/fd_lag/
  // strict/fair_set/sigma_gated/helping/external_clock/track_log_history/
  // engine/scheduler/batch_k/window_size fields (batched rounds per DESIGN.md
  // decision 12; pipelined issuance per the §4.1 relaxation).
  using Engine = amcast::Engine;
  using Options = ProtocolOptions;

  MuMulticast(const groups::GroupSystem& system,
              const sim::FailurePattern& pattern, Options options);
  ~MuMulticast();

  MuMulticast(const MuMulticast&) = delete;
  MuMulticast& operator=(const MuMulticast&) = delete;

  // Queues a message. Messages to the same group are issued group-
  // sequentially in submission order (§4.1): the k-th message to g becomes
  // eligible for multicast once its sender has delivered the first k-1.
  void submit(const MulticastMessage& m) override;

  // One scheduled step of p: up to batch_k enabled actions, drained at the
  // current time. The shared loop calls it; the emulation harness and
  // fine-grained tests drive it directly.
  bool step_process(ProcessId p) override;
  bool quiescent() const;
  RunRecord snapshot() const;

  // With track_log_history: replays every log's operation journal against the
  // Table-2 base invariants (Claims 2-8). Empty string = all hold.
  std::string validate_log_invariants() const;

  // Optional structured tracing: every action firing is recorded into the
  // attached trace (owned by the caller; must outlive the run).
  void attach_trace(Trace* trace) { trace_ = trace; }

  // Optional metrics registry (caller-owned; attach before submitting so the
  // lifecycle stamps cover every message). Collected series: per-group
  // delivery-latency and convoy-wait histograms, phase-transition latencies,
  // FD-query counters by detector class, consensus proposes, per-(g,h) log
  // sizes, and the genuineness ledger (all in simulated steps). Probes never
  // read the RNG or feed back into guards, so instrumented runs stay
  // trace-identical to bare ones.
  void set_metrics(sim::Metrics* m) override;

  // Optional causal span sink (caller-owned; attach before submitting).
  // Lifecycle milestones — submit, log_enter, paxos_round/locked,
  // deliverable, delivered — are emitted per multicast, stamped in simulated
  // steps. Emission is observation-only (no RNG reads, no guard feedback), so
  // span-instrumented runs stay trace-identical to bare ones; under
  // GAM_METRICS=OFF the probe statements compile out entirely.
  void set_span_sink(sim::SpanSink* sink) override { span_sink_ = sink; }

  // Introspection for tests.
  Phase phase_of(ProcessId p, MsgId m) const;
  const objects::Log& log_of(groups::GroupId g, groups::GroupId h) const;
  const fd::MuOracle& oracle() const { return oracle_; }
  void advance_time(sim::Time dt);
  void set_time(sim::Time t);

 private:
  // Idle rounds advance the clock until the last failure-detector transition
  // is behind us: γ and the indicators change output when crashes land, and
  // crash times are on the same clock as the steps.
  sim::Time idle_until() const override;
  void tick() override;
  void finish_run() override;

  struct PerProcess;
  struct ConsKey {
    MsgId m;
    groups::FamilyMask f;
    bool operator<(const ConsKey& o) const {
      return std::tie(m, f) < std::tie(o.m, o.f);
    }
  };

  // The outcome of guard evaluation for one process: the first action that
  // would fire, in the fixed priority order deliver > stable > stabilize >
  // commit > pending > multicast (ties within an action broken by ascending
  // message id, or by submission order for multicast).
  struct ActionChoice {
    enum Kind : std::int8_t {
      kNone = 0,
      kMulticast,
      kPending,
      kCommit,
      kStabilize,
      kStable,
      kDeliver,
    };
    Kind kind = kNone;
    std::int32_t mi = -1;       // dense message index into workload_
    groups::GroupId h = -1;     // stabilize only
  };

  objects::Log& log(groups::GroupId g, groups::GroupId h);
  std::size_t log_index(groups::GroupId g, groups::GroupId h) const;
  // The position of g in groups_of(p), which must contain it.
  std::size_t group_slot(ProcessId p, groups::GroupId g) const;

  // Guard evaluation (pure) and effect execution for the chosen action.
  ActionChoice resolve(ProcessId p) const;
  void execute(ProcessId p, const ActionChoice& c);

  bool action_enabled_somewhere() const;

  // Helpers over preconditions.
  bool pending_enabled(ProcessId p, const MulticastMessage& m) const;
  bool commit_enabled(ProcessId p, const MulticastMessage& m) const;
  bool stabilize_enabled(ProcessId p, const MulticastMessage& m,
                         groups::GroupId h) const;
  bool stable_enabled(ProcessId p, const MulticastMessage& m) const;
  bool deliver_enabled(ProcessId p, const MulticastMessage& m) const;
  bool multicast_eligible(ProcessId by, const MulticastMessage& m) const;
  // Same precondition, but entries of `batched` (messages this very action is
  // about to append) count as having entered LOG_g — how the batched
  // multicast effect extends a batch past members it hasn't appended yet.
  bool multicast_eligible_batched(ProcessId by, const MulticastMessage& m,
                                  const std::vector<MsgId>& batched) const;
  bool may_multicast(ProcessId p, const MulticastMessage& m) const;
  bool sigma_allows(ProcessId p, groups::GroupId g) const;

  // γ(g) at p (commit/stable wait set) and the strict §6.1 wait set, both
  // memoized per (process, group) and keyed by the failure-detector version
  // (the number of transition times the clock has crossed): μ outputs are
  // constant between transitions, so the memo is exact.
  const std::vector<groups::GroupId>& gamma_groups(ProcessId p,
                                                   groups::GroupId g) const;
  const std::vector<groups::GroupId>& stable_wait_groups(
      ProcessId p, groups::GroupId g) const;

  Phase phase_at(ProcessId p, std::int32_t mi) const;
  std::int32_t index_of(MsgId m) const;

  // Incremental-engine bookkeeping.
  void mark_dirty(ProcessSet ps);
  void mark_all_dirty();
  void clock_crossed();  // after now_ moved forward: cross transition times
  std::uint64_t fd_version() const { return next_transition_; }

  fd::MuOracle oracle_;
  std::vector<fd::IndicatorOracle> indicators_;  // strict variant, per pair slot

  std::vector<MulticastMessage> workload_;       // dense storage, submission order
  std::unordered_map<MsgId, std::int32_t> index_of_;  // id -> dense index
  std::vector<std::vector<MsgId>> group_sequence_;    // per destination group

  // One log per intersecting (g,h), indexed by the system's pair_index()
  // slot, which doubles as the journal key.
  std::vector<objects::Log> logs_;
  std::map<ConsKey, objects::Consensus> consensus_;
  objects::AccessJournal journal_;

  std::vector<PerProcess> procs_;

  // The sorted instants at which any μ component (or the raw crash predicate
  // the helping rule reads) can change output; next_transition_ counts how
  // many the clock has crossed and doubles as the memo version.
  std::vector<sim::Time> fd_transitions_;
  std::size_t next_transition_ = 0;

  // Per-process cached selection (incremental engine). Mutable: quiescence
  // checks are const but may refresh a dirty cache.
  mutable std::vector<std::uint8_t> dirty_;
  mutable std::vector<ActionChoice> cached_;

  Trace* trace_ = nullptr;
  sim::SpanSink* span_sink_ = nullptr;

  // Metrics probe state, live only while a registry is attached (reg != null).
  // Members exist in every build; GAM_NO_METRICS compiles the probe
  // *statements* out (sim/metrics.hpp).
  struct Probe {
    sim::Metrics* reg = nullptr;
    // Hot counters resolved once at attach (labels are fixed); histogram
    // handles resolve per event — delivery-rate events are orders of
    // magnitude rarer than guard evaluations.
    sim::Counter* fd_gamma = nullptr;
    sim::Counter* fd_sigma = nullptr;
    sim::Counter* fd_indicator = nullptr;
    sim::Counter* consensus = nullptr;
    sim::Histogram* batch_occ = nullptr;  // actions drained per macro-step
    std::vector<sim::Time> submit_time;               // workload-indexed
    std::vector<sim::Time> mcast_time;                // workload-indexed
    std::vector<std::vector<sim::Time>> stable_time;  // per process, like its phase
    std::vector<std::uint64_t> steps;                 // per process
  };
  Probe probe_;
  void probe_execute(ProcessId p, const ActionChoice& c,
                     const MulticastMessage& m);
  void flush_metrics();
};

}  // namespace gam::amcast
