// The engines whose processes take steps one at a time against shared
// state: Algorithm 1's action system (mu_multicast.hpp) and the baselines
// (baselines.hpp). They share one scheduler loop, and a sim::Scheduler is
// the only thing that orders their steps (DESIGN.md decision 16).
//
// run() takes the strategy options().scheduler names. The default (kRandom)
// is sim::ReshuffleScheduler seeded with options().seed: one permutation of
// all processes, reshuffled in place every round. Any other strategy is
// instantiated from the same seed, exactly as the World-backed engines do.
#pragma once

#include <vector>

#include "amcast/protocol.hpp"

namespace gam::sim {
class Scheduler;  // sim/world.hpp
}

namespace gam::amcast {

class SequentialProtocol : public Protocol {
 public:
  // Runs under options().scheduler until quiescence or the step budget.
  RunRecord run() override;

  // Same, but scheduling attempts come from an explicit strategy
  // (sim/adversary.hpp: PCT, replay, ...). When `schedule_out` is non-null
  // the executed schedule is appended to it — the pid of every fired step,
  // with -1 for each idle clock tick — which sim::write_schedule serializes
  // and a ReplayScheduler re-executes byte-identically (the strategy owns all
  // the randomness, so the fired-step sequence fully determines the run).
  RunRecord run_with(sim::Scheduler& sched,
                     std::vector<ProcessId>* schedule_out = nullptr);

  // Executes one enabled step of p at the current time; returns whether one
  // fired. A crashed process never fires; the loop itself keeps to a
  // non-empty options().fair_set.
  virtual bool step_process(ProcessId p) = 0;

  const RunRecord& record() const override { return record_; }
  const ProtocolOptions& options() const override { return options_; }
  void set_event_sink(sim::TraceSink* sink) override { event_sink_ = sink; }
  sim::Time now() const { return now_; }

 protected:
  SequentialProtocol(const groups::GroupSystem& system,
                     const sim::FailurePattern& pattern,
                     ProtocolOptions options)
      : system_(system), pattern_(pattern), options_(options) {}

  // While no step fires, idle rounds advance the clock until it reaches
  // this instant, so that steps only the passage of time enables (failure-
  // detector outputs changing as crashes land) still happen.
  virtual sim::Time idle_until() const { return 0; }
  // Moves the clock one idle tick forward.
  virtual void tick() { ++now_; }
  // Runs once the loop ends, before run_with returns the record.
  virtual void finish_run() {}

  const groups::GroupSystem& system_;
  const sim::FailurePattern& pattern_;
  ProtocolOptions options_;
  sim::Time now_ = 0;
  RunRecord record_;
  sim::TraceSink* event_sink_ = nullptr;
};

}  // namespace gam::amcast
