// Experiment E3 (paper §1, §2.3, citing [33, 37]): why genuineness matters.
//
// Workload: k pairwise-disjoint groups of 2 processes, 4 messages each. The
// broadcast-based solution makes every process handle every message, so its
// per-message cost grows linearly with the number of groups; the genuine
// solutions (Algorithm 1, Skeen) keep it flat. The table reports total
// protocol steps, steps per delivered message, and how many processes took
// any step at all.
//
// Every (k, protocol) cell is an independent seeded run, so the cells fan
// out across the sweep pool (bench/sweep.hpp); each job builds its own
// GroupSystem and protocol instance and writes only its own result slot.
#include <cstdio>
#include <vector>

#include "amcast/baselines.hpp"
#include "amcast/mu_multicast.hpp"
#include "amcast/replicated_multicast.hpp"
#include "amcast/workload.hpp"
#include "groups/generator.hpp"
#include "sweep.hpp"

using namespace gam;
using namespace gam::amcast;

namespace {

struct Cost {
  std::uint64_t steps = 0;
  size_t deliveries = 0;
  int active = 0;
  std::uint64_t wire_messages = 0;  // replicated rows only
};

Cost cost_of(const RunRecord& rec) {
  return {rec.steps, rec.deliveries.size(), rec.active.size(), 0};
}

void print(const char* name, int k, const Cost& c) {
  std::printf("  %-22s k=%2d  steps=%7llu  steps/msg=%7.2f  active=%2d/%2d\n",
              name, k, static_cast<unsigned long long>(c.steps),
              c.deliveries ? static_cast<double>(c.steps) /
                                 static_cast<double>(c.deliveries / 2)
                           : 0.0,
              c.active, 2 * k);
}

}  // namespace

int main() {
  constexpr int kPerGroup = 4;
  const std::vector<int> ks{2, 4, 8, 12, 16};
  enum Protocol { kMu = 0, kBroadcast, kSkeen, kReplicated, kProtocols };

  bench::SweepRunner pool;
  std::printf(
      "Genuine vs broadcast-based multicast on k disjoint groups "
      "(%d msgs/group, pool of %d)\n"
      "Expected shape: broadcast steps/msg grows ~linearly with k; genuine "
      "stays flat.\n\n",
      kPerGroup, pool.threads());

  // One job per (k, protocol) cell; results land in per-cell slots.
  std::vector<Cost> cells(ks.size() * kProtocols);
  pool.run(static_cast<int>(cells.size()), [&](int i) {
    auto ki = static_cast<size_t>(i) / kProtocols;
    auto proto = static_cast<Protocol>(static_cast<size_t>(i) % kProtocols);
    int k = ks[ki];
    auto sys = groups::disjoint_system(k, 2);
    sim::FailurePattern pat(sys.process_count());
    auto workload = round_robin_workload(sys, kPerGroup);
    Cost& cell = cells[static_cast<size_t>(i)];
    switch (proto) {
      case kMu: {
        MuMulticast mc(sys, pat, {.seed = 7});
        for (auto& m : workload) mc.submit(m);
        cell = cost_of(mc.run());
        break;
      }
      case kBroadcast: {
        BroadcastMulticast bc(sys, pat, {.seed = 7});
        for (auto& m : workload) bc.submit(m);
        cell = cost_of(bc.run());
        break;
      }
      case kSkeen: {
        SkeenMulticast sk(sys, pat, {.seed = 7});
        for (auto& m : workload) sk.submit(m);
        cell = cost_of(sk.run());
        break;
      }
      case kReplicated: {
        ReplicatedMulticast rm(sys, pat, {.seed = 7});
        for (auto& m : workload) rm.submit(m);
        cell = cost_of(rm.run());
        cell.wire_messages = rm.wire_messages();
        break;
      }
      default:
        break;
    }
    return bench::RunResult{};
  });

  for (size_t ki = 0; ki < ks.size(); ++ki) {
    int k = ks[ki];
    const Cost* row = &cells[ki * kProtocols];
    print("Algorithm 1 (genuine)", k, row[kMu]);
    print("Skeen (genuine)", k, row[kSkeen]);
    print("broadcast-based", k, row[kBroadcast]);
    print("replicated (Paxos logs)", k, row[kReplicated]);
    std::printf("  %-22s k=%2d  wire messages: %llu (%.1f per delivered "
                "copy)\n\n",
                "", k,
                static_cast<unsigned long long>(row[kReplicated].wire_messages),
                static_cast<double>(row[kReplicated].wire_messages) /
                    static_cast<double>(row[kReplicated].deliveries));
  }

  std::printf(
      "steps/msg normalizes by delivered messages per group member; the "
      "broadcast rows grow with k\nbecause every process consumes every "
      "message, the genuine rows do not (minimality, SS 2.3).\n");
  return 0;
}
