// The sim_checked workload: a seeded simulator sweep. Every run is built
// from amcast::ProtocolRegistry, run to quiescence with sim::InvariantMonitors
// attached online, then checked by amcast::check_all.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "amcast/options.hpp"
#include "amcast/spec.hpp"
#include "amcast/types.hpp"
#include "groups/group_system.hpp"
#include "sim/failure_pattern.hpp"
#include "stats.hpp"

namespace perfbench {

// One cell of a seed: which protocol runs on which topology, how contended
// the workload is, and whether the adversary samples crashes and schedules
// with PCT.
struct SimCell {
  const char* protocol;
  const char* topology;
  double conflict_rate;
  bool adversarial;  // sampled crash pattern + pct:3 (adversary_hunt's setting)
};

inline constexpr SimCell kSimCells[] = {
    {"mu", "figure1", 1.0, true},
    {"mu", "clustered128", 1.0, false},
    {"whitebox", "clustered128", 1.0, false},
    {"generic", "clustered128", 0.5, false},
};
inline constexpr int kSimCellCount = 4;
inline constexpr int kSimPerGroup = 2;  // messages to each addressed group

struct SimTopologies {
  gam::groups::GroupSystem figure1;
  gam::groups::GroupSystem clustered128;
  static SimTopologies build();  // also warms cyclic_families()
  const gam::groups::GroupSystem& get(const char* name) const;
};

// Everything a run takes from the seed; the cell fixes the rest.
struct SimInputs {
  int cell = 0;
  std::uint64_t run_seed = 0;
  gam::sim::FailurePattern pattern{1};
  std::vector<gam::amcast::MulticastMessage> workload;
  gam::amcast::ProtocolOptions options;
};

SimInputs sim_inputs(const SimTopologies& topo, int cell,
                     std::uint64_t seed_base, std::uint64_t index);

// amcast::check_all, except that a conflict-aware protocol's Ordering is
// checked within each conflict class (commuting messages may deliver in any
// relative order).
gam::amcast::SpecResult spec_check(const gam::amcast::RunRecord& rec,
                                   const gam::groups::GroupSystem& sys,
                                   const gam::sim::FailurePattern& pattern,
                                   bool conflict_aware);

struct SimConfig {
  double seconds = 10;
  double warmup_s = 2;
  int workers = 4;
  std::uint64_t seed = 1;
  bool traced = false;
  std::string spans_path;
};

struct SimResult {
  Outcome outcome;
  std::string error;
  double runs_per_s = 0;
  double multicasts_per_s = 0;
  // Wall time of each timed run (one cell of a seed): build, run to
  // quiescence, monitors and spec check; kMissed for a run that failed.
  std::vector<std::uint64_t> run_ns;
  std::vector<double> setup_s;
  std::map<std::string, double> layers;
};

SimResult run_sim(const SimConfig& cfg);

}  // namespace perfbench
