// The live workloads: disjoint-group UniversalLog replication on
// net::Runtime over InProcTransport (inproc_saturate, closed loop) or
// TcpTransport (tcp_paced, open loop), driven by the benchmark's own client.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

// Op ids: each client numbers its ops consecutively from a seeded offset, as
// a client with a sequence counter would; the checker maps an id back to the
// op it stands for. Group g's ids live in [g << 40, (g + 1) << 40). The ids
// stay consecutive for every seed, so the seed moves the hash-table slots
// they land in but not how the ops spread over them.
class OpIds {
 public:
  explicit OpIds(std::uint64_t seed);
  std::int64_t id(int g, std::uint64_t index) const;
  // The op index of `id` within group g; nullopt when `id` is not g's.
  std::optional<std::uint64_t> index(int g, std::int64_t id) const;

 private:
  static constexpr int kBits = 40;
  static constexpr std::uint64_t kMask = (std::uint64_t{1} << kBits) - 1;
  std::uint64_t offset_;
};

// Verdict on one group's per-replica delivery sequences.
struct SequenceCheck {
  bool safety_ok = true;
  std::string error;
  // Ops delivered at every replica (the common prefix, when it is safe).
  std::uint64_t delivered_everywhere = 0;
};

// Every replica must deliver the same sequence, and each op of it must be
// one of the `submitted` ops of group g, exactly once. A replica may lag
// (a shorter sequence is not a violation), but any disagreement inside the
// common prefix, a duplicate or a foreign op is.
SequenceCheck check_group_sequences(
    const std::vector<const std::vector<std::int64_t>*>& replicas,
    const OpIds& ids, int g, std::uint64_t submitted);

// Latency of one op: from `from_ns` (its due time in an open loop, its
// submit instant in a closed loop) to its delivery at the group's last
// replica; kMissed when some replica never delivered it (0 = not delivered).
std::uint64_t op_latency(std::uint64_t from_ns,
                         const std::vector<std::uint64_t>& delivered_ns);

// The shape both live workloads share: groups of 2 replicas, UniversalLog
// batch 256 and window 4 (gam_loadgen's defaults).
struct LiveConfig {
  bool tcp = false;
  int groups = 2;
  // Open loop when rate > 0 (multicasts/s over all groups, one client per
  // group); closed loop otherwise, keeping 2 * batch * window ops in flight
  // per client.
  double rate = 0;
  std::uint64_t ops_per_group = 0;  // closed loop: fixed count per batch
  double seconds = 10;              // timed window
  // Untimed warm-up: the schedule's prefix (open loop) or whole batches
  // (closed loop). On a shared VM the vCPUs take about a second to deliver
  // full speed under a fresh load.
  double warmup_s = 2;
  std::uint64_t seed = 1;
  bool traced = false;
  bool greedy_client = false;  // tests: the client keeps the idle slot
  std::string spans_path;      // traced: span dump file ("" = none)
};

struct LiveResult {
  Outcome outcome;
  std::string error;
  double throughput_mps = 0;          // median over timed batches
  std::vector<double> batch_mps;
  std::vector<std::uint64_t> latency_ns;   // due -> last replica; kMissed
  std::vector<std::uint64_t> lateness_ns;  // open loop: due -> submit
  std::vector<double> setup_s;
  std::map<std::string, double> layers;  // traced: per-layer metrics
};

LiveResult run_live(const LiveConfig& cfg);

}  // namespace perfbench
