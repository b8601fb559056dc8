// A universal construction (Herlihy [28]) specialised to logs: a replicated,
// totally-ordered operation log built from an unbounded sequence of consensus
// instances, each decided by the Ω ∧ Σ machinery of consensus_mp.hpp.
//
// This is the construction Algorithm 1's §4.3 refers to for LOG_g: group
// members submit operations; instance k of multi-decree Paxos fixes the k-th
// operation; every member applies the decided prefix in order. (The
// contention-free fast variant for LOG_{g∩h} lives in cf_consensus.hpp.)
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "fd/detectors.hpp"
#include "objects/protocol_host.hpp"
#include "objects/run_set.hpp"
#include "sim/metrics.hpp"
#include "sim/spans.hpp"
#include "sim/world.hpp"
#include "util/process_set.hpp"

namespace gam::objects {

class UniversalLog : public SubProtocol {
 public:
  // batch: max ops amortized over one consensus instance (ordered batch
  // proposal, consensus_mp.hpp). window: max instances a leader drives
  // concurrently (Derecho-style pipelining). batch = window = 1 reproduces
  // the legacy one-op-per-instance wire traffic byte for byte.
  UniversalLog(sim::ProtocolId protocol_id, ProcessId self, ProcessSet scope,
               const fd::SigmaOracle& sigma, const fd::OmegaOracle& omega,
               int batch = 1, int window = 1)
      : protocol_id_(protocol_id),
        self_(self),
        scope_(scope),
        sigma_(&sigma),
        omega_(&omega),
        batch_(batch < 1 ? 1 : batch),
        window_(window < 1 ? 1 : window) {
    GAM_EXPECTS(scope.contains(self));
  }

  // Submit an operation; it will appear exactly once in the decided log.
  // `applied` fires when the operation's position is learned locally. An op
  // submitted twice is still learned once: its twin is dropped once the op
  // is learned (a leader's when it is decided again, anyone else's when it
  // comes up for forwarding), and the twin's callback never fires.
  void submit(std::int64_t op, std::function<void(std::int64_t pos)> applied);

  // Observer invoked at *this replica* for every op as it enters the learned
  // prefix (op, position). Replication clients (state machines, the
  // replicated multicast) apply commands from here; the log itself keeps no
  // copy of the prefix.
  void set_on_learn(std::function<void(std::int64_t, std::int64_t)> cb) {
    on_learn_ = std::move(cb);
  }

  // Optional causal span sink (caller-owned). Emits submit, paxos_round
  // (instance, ballot) when this replica drives an op, and delivered when an
  // op enters the learned prefix. Events carry t=0 — the replica has no run
  // clock of its own — so the attached sink is expected to stamp them
  // (net::FlightRecorder stamps wall-clock ns; a record-mode wrapper stamps
  // the global step clock). Compiled out under GAM_METRICS=OFF.
  void set_span_sink(sim::SpanSink* sink) { span_sink_ = sink; }

  void on_message(sim::Context& ctx, const sim::Message& m) override;
  bool on_idle(sim::Context& ctx) override;
  bool wants_step() const override { return !pending_.empty(); }

 private:
  // Value frames carry an ordered op batch (OrderedBatch, consensus_mp.hpp):
  // the ops follow the fixed header, length implied by the frame size, and a
  // batch of one is byte-identical to the legacy single-op frame.
  static constexpr sim::MsgType kPrepare{1};   // [inst, ballot]
  static constexpr sim::MsgType kPromise{2};   // [inst, ballot,
                                               //  accepted_ballot,
                                               //  accepted_ops...]
  static constexpr sim::MsgType kAccept{3};    // [inst, ballot, ops...]
  static constexpr sim::MsgType kAccepted{4};  // [inst, ballot]
  static constexpr sim::MsgType kDecide{5};    // [inst, ops...]
  static constexpr sim::MsgType kForward{6};   // [op] — hand the op to the
                                               // Ω leader to drive

  struct AcceptorState {
    std::int64_t promised = -1;
    std::int64_t accepted_ballot = -1;
    std::vector<std::int64_t> accepted_values;  // empty = none
  };
  struct ProposerState {
    bool engaged = false;  // this replica ever drove the instance
    std::int64_t ballot = -1;
    bool accept_phase = false;
    std::vector<std::int64_t> values;  // ordered batch driven in this instance
    std::int64_t best_accepted_ballot = -1;
    ProcessSet promisers;
    ProcessSet accepters;
    int stall = 0;
    std::int64_t round = 0;
  };
  // Learner and proposer state of one instance not yet applied.
  struct InstanceState {
    bool decided = false;
    std::vector<std::int64_t> batch;  // the decided batch, once decided
    ProposerState proposer;
  };

  void learn(std::int64_t inst, std::vector<std::int64_t> values);
  // Drives `inst` with the oldest pending ops no other live instance claims,
  // up to batch_ of them; false (and nothing changes) when there are none.
  bool drive(sim::Context& ctx, std::int64_t inst);
  // Hands `inst`'s claimed ops back to the pool before it is re-driven.
  void release(std::int64_t inst);
  bool is_pending(std::int64_t op) const;
  std::int64_t first_unlearned() const { return applied_insts_; }

  sim::ProtocolId protocol_id_;
  ProcessId self_;
  ProcessSet scope_;
  const fd::SigmaOracle* sigma_;
  const fd::OmegaOracle* omega_;

  int batch_ = 1;
  int window_ = 1;

  // Acceptor state stays per instance for the whole run: an acceptor that
  // forgot an accepted batch would answer a stale leader's prepare with an
  // empty promise, and that leader could then decide a different batch.
  // Instances are contiguous from 0, so a dense vector indexed by instance.
  std::vector<AcceptorState> acceptors_;

  AcceptorState& acceptor(std::int64_t inst) {
    GAM_EXPECTS(inst >= 0);
    auto i = static_cast<std::size_t>(inst);
    if (i >= acceptors_.size()) acceptors_.resize(i + 1);
    return acceptors_[i];
  }

  // Learner and proposer state only for instances at or above the applied
  // prefix: instances_[i] is instance applied_insts_ + i, and applying an
  // instance pops it. Below the prefix every instance is decided and no
  // message can change anything, so there is nothing to keep.
  std::int64_t applied_insts_ = 0;  // contiguous applied instance count
  std::deque<InstanceState> instances_;

  // nullptr for applied instances and for ones no message has touched yet.
  InstanceState* find(std::int64_t inst) {
    if (inst < applied_insts_) return nullptr;
    auto i = static_cast<std::size_t>(inst - applied_insts_);
    return i < instances_.size() ? &instances_[i] : nullptr;
  }
  InstanceState& instance(std::int64_t inst) {
    GAM_EXPECTS(inst >= applied_insts_);
    auto i = static_cast<std::size_t>(inst - applied_insts_);
    if (i >= instances_.size()) instances_.resize(i + 1);
    return instances_[i];
  }
  // nullptr when this replica is not driving `inst` (or it is applied).
  ProposerState* proposer_at(std::int64_t inst) {
    InstanceState* s = find(inst);
    return s && s->proposer.engaged ? &s->proposer : nullptr;
  }
  bool has_decided(std::int64_t inst) {
    if (inst < applied_insts_) return inst >= 0;
    InstanceState* s = find(inst);
    return s && s->decided;
  }

  std::int64_t learned_count_ = 0;  // length of the learned prefix
  // Ops already placed into the learned prefix: competing leaders may decide
  // the same op in two window instances; first-occurrence dedup over the
  // (identical at every replica) decided sequence keeps learned logs equal.
  RunSet ordered_ops_;

  struct Pending {
    std::int64_t op;
    std::function<void(std::int64_t)> applied;
    // The window instance whose batch holds this op; it counts only while
    // that instance is live (>= first_unlearned()). -1 = unclaimed.
    std::int64_t claim = -1;
  };
  // Own + forwarded ops not yet in the log. A deque because the common
  // completion order is FIFO (batches are taken from the front, instances
  // learn in order), so the erase in learn() is usually a pop_front — on a
  // vector that front-erase memmoved the whole tail per delivered op.
  std::deque<Pending> pending_;
  std::function<void(std::int64_t, std::int64_t)> on_learn_;
  sim::SpanSink* span_sink_ = nullptr;
  int forward_stall_ = 0;
};

}  // namespace gam::objects
