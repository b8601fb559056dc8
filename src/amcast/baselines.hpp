// Baseline atomic-multicast protocols the paper positions against (§1, §7).
//
//   BroadcastMulticast  — the non-genuine strawman: one system-wide atomic
//                         broadcast; every process handles every message and
//                         delivers the addressed ones. Correct, ordered, and
//                         deliberately *not* minimal (§2.3): it exists to
//                         regenerate the scaling claims of [33, 37].
//   SkeenMulticast      — the classical failure-free timestamping protocol
//                         [5, 22] over the message-passing simulator:
//                         senders gather logical-clock proposals from the
//                         destination members and finalize at the maximum;
//                         members deliver in timestamp order. Breaks (blocks
//                         or mis-orders) under crashes — which is the point.
//   PartitionedMulticast — the "disjoint decomposition" family of solutions
//                         (e.g. [32, 17, 21, 10, 31, 13]): destination groups
//                         are unions of disjoint partitions, each assumed to
//                         behave as a logically correct entity. When a
//                         partition dies entirely, messages needing it block
//                         forever; Algorithm 1 instead keeps delivering via γ
//                         (experiment E7 in DESIGN.md).
//   PerfectFdMulticast  — Schiper & Pedone [36]: genuine multicast from a
//                         perfect failure detector. Our §6.1 strict variant
//                         with lag-0 indicators *is* this algorithm
//                         generalized, so the preset simply configures it.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "amcast/options.hpp"
#include "amcast/sequential.hpp"
#include "amcast/types.hpp"
#include "groups/group_system.hpp"
#include "sim/failure_pattern.hpp"
#include "sim/metrics.hpp"

namespace gam::amcast {

// What the baselines share: the submitted workload, the bookkeeping of a
// fired step, and what a finished run reports — the genuineness ledger (with
// a registry attached) and the kMulticast/kDeliver events MuMulticast would
// have emitted (with an event sink attached).
class BaselineMulticast : public SequentialProtocol {
 public:
  void submit(const MulticastMessage& m) override;

  // Caller-owned registry; attach before run(). Collected series: per-group
  // delivery latency and the genuineness ledger.
  void set_metrics(sim::Metrics* m) override;

 protected:
  using SequentialProtocol::SequentialProtocol;

  // Accounts one fired step of p (clock, record, ledger); returns true.
  bool count_step(ProcessId p);
  void finish_run() override;

  std::vector<MulticastMessage> workload_;
  std::map<MsgId, MulticastMessage> by_id_;

  // Probe state, live only while a registry is attached: multicast stamps
  // for the delivery-latency histograms plus per-process step/message
  // attribution for the genuineness ledger.
  struct Probe {
    sim::Metrics* reg = nullptr;
    std::map<MsgId, sim::Time> mcast_time;
    std::vector<std::uint64_t> steps;    // per process
    std::vector<std::uint64_t> handled;  // per process: protocol messages handled
  };
  Probe probe_;
};

// ---- non-genuine broadcast-based multicast -----------------------------------

// The broadcast strawman's ledger is the interesting one: every process pays
// a step (and handles a message) for every broadcast entry, so non-addressee
// activity is structurally non-zero on disjoint workloads — the
// anti-genuineness witness the Figure-1 experiments plot against Algorithm 1.
class BroadcastMulticast final : public BaselineMulticast {
 public:
  using Options = ProtocolOptions;  // consumes seed / max_steps / scheduler

  BroadcastMulticast(const groups::GroupSystem& system,
                     const sim::FailurePattern& pattern, Options options);

  bool step_process(ProcessId p) override;

 private:
  std::vector<MsgId> global_log_;          // the system-wide broadcast order
  std::set<MsgId> in_log_;                 // members of global_log_, O(log n)
  std::vector<size_t> cursor_;             // per process: next log index
  std::vector<size_t> next_own_;           // per process: next own workload idx
  std::vector<std::int64_t> local_seq_;
};

// ---- Skeen's protocol (failure-free) -----------------------------------------

class SkeenMulticast final : public BaselineMulticast {
 public:
  using Options = ProtocolOptions;  // consumes seed / max_steps / scheduler

  SkeenMulticast(const groups::GroupSystem& system,
                 const sim::FailurePattern& pattern, Options options);

  bool step_process(ProcessId p) override;

  // Total messages exchanged (protocol cost; benches report it).
  std::uint64_t wire_messages() const override { return wire_messages_; }

 private:
  struct PerMessage {
    std::map<ProcessId, std::int64_t> proposals;
    std::int64_t final_ts = -1;
    bool sent = false;
  };
  struct PerProcess {
    std::int64_t clock = 0;
    // Holdback: msg -> (timestamp, finalized?)
    std::map<MsgId, std::pair<std::int64_t, bool>> pending;
    std::set<MsgId> delivered;
    std::int64_t seq = 0;
  };

  bool step_sender(const MulticastMessage& m);
  int try_deliver(ProcessId p);

  std::uint64_t wire_messages_ = 0;
  std::map<MsgId, PerMessage> state_;
  std::vector<PerProcess> procs_;
};

// ---- partitioned solutions ----------------------------------------------------

class PartitionedMulticast final : public BaselineMulticast {
 public:
  using Options = ProtocolOptions;  // consumes seed / max_steps / scheduler

  // `partitions` must be pairwise disjoint and every destination group must
  // be a union of them (the standard decomposability assumption, §7).
  PartitionedMulticast(const groups::GroupSystem& system,
                       const sim::FailurePattern& pattern,
                       std::vector<ProcessSet> partitions, Options options);

  bool step_process(ProcessId p) override;

  // Messages that blocked because a required partition is entirely crashed.
  const std::vector<MsgId>& blocked() const { return blocked_; }

  // The finest valid decomposition of a group system: the equivalence classes
  // of "member of exactly the same groups".
  static std::vector<ProcessSet> finest_partitions(
      const groups::GroupSystem& system);

 private:
  struct PerPartition {
    std::int64_t clock = 0;
  };
  struct PerMessage {
    std::map<int, std::int64_t> proposals;  // partition -> proposed ts
    std::int64_t final_ts = -1;
  };
  struct PerProcess {
    std::map<MsgId, std::pair<std::int64_t, bool>> pending;
    std::int64_t seq = 0;
  };

  void finish_run() override;
  std::vector<int> partitions_of_group(groups::GroupId g) const;
  bool partition_alive(int part) const;

  std::vector<ProcessSet> partitions_;
  std::map<MsgId, PerMessage> state_;
  std::vector<PerPartition> parts_;
  std::vector<PerProcess> procs_;
  std::vector<MsgId> blocked_;
};

// ---- [36]: genuine multicast from a perfect failure detector -----------------

// The §6.1 strict solution instantiated with exact (lag-0) indicators is the
// generalization of Schiper & Pedone's perfect-failure-detector algorithm;
// this preset makes the relationship explicit (the "perfectfd" registry
// entry and the Table 1 harness both use it).
inline ProtocolOptions perfect_fd_options(ProtocolOptions options) {
  options.strict = true;
  options.fd_lag = 0;
  return options;
}

}  // namespace gam::amcast
