// A black-box atomic-multicast instance for the necessity constructions
// (paper §5): Algorithm 2 probes "A_{g,x}" instances in which only the
// processes of x participate, Algorithm 3 probes per-path instances, and
// Algorithm 4 probes instances of the *strict* algorithm. All of them need
// the same plumbing: a MuMulticast driven on an external global clock, with
// participation restricted to a set and (for Algorithm 2) progress gated on
// quorum availability among the participants.
#pragma once

#include <memory>
#include <optional>

#include "amcast/mu_multicast.hpp"
#include "amcast/types.hpp"
#include "groups/group_system.hpp"
#include "sim/failure_pattern.hpp"

namespace gam::emulation {

using amcast::MulticastMessage;
using amcast::MuMulticast;
using amcast::RunRecord;
using groups::GroupId;
using sim::Time;

class Instance {
 public:
  struct Options {
    ProcessSet participants;
    bool sigma_gated = false;  // quorum-dependent progress (Algorithm 2)
    bool strict = false;       // A solves *strict* multicast (Algorithm 4)
    std::uint64_t seed = 1;
  };

  Instance(const groups::GroupSystem& system,
           const sim::FailurePattern& pattern, Options options)
      : options_(options) {
    MuMulticast::Options mo;
    mo.seed = options.seed;
    mo.fair_set = options.participants;
    mo.sigma_gated = options.sigma_gated;
    mo.strict = options.strict;
    mo.external_clock = true;
    mc_ = std::make_unique<MuMulticast>(system, pattern, mo);
  }

  void submit(MulticastMessage m) { mc_->submit(m); }

  // One scheduling round at global time t: every participant gets one attempt.
  void tick(Time t) {
    mc_->set_time(t);
    for (ProcessId p : options_.participants) mc_->step_process(p);
  }

  // Deliveries so far (times are global-clock times).
  const std::vector<amcast::Delivery>& deliveries() const {
    return mc_->record().deliveries;
  }

  // The time of the first delivery of any message, if one happened.
  std::optional<Time> first_delivery() const {
    std::optional<Time> t;
    for (const auto& d : deliveries())
      if (!t || d.t < *t) t = d.t;
    return t;
  }

  MuMulticast& algorithm() { return *mc_; }

 private:
  Options options_;
  std::unique_ptr<MuMulticast> mc_;
};

}  // namespace gam::emulation
