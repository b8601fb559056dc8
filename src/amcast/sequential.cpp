#include "amcast/sequential.hpp"

#include <memory>

#include "sim/adversary.hpp"
#include "util/contracts.hpp"

namespace gam::amcast {

RunRecord SequentialProtocol::run() {
  std::unique_ptr<sim::Scheduler> sched =
      options_.scheduler.kind == sim::SchedulerSpec::Kind::kRandom
          ? std::make_unique<sim::ReshuffleScheduler>(options_.seed)
          : options_.scheduler.instantiate(options_.seed);
  GAM_EXPECTS(sched != nullptr);  // a replay file that failed to load
  return run_with(*sched);
}

RunRecord SequentialProtocol::run_with(sim::Scheduler& sched,
                                       std::vector<ProcessId>* schedule_out) {
  const int n = system_.process_count();
  // step_process skips crashed processes itself, so the candidates are fixed
  // for the whole run.
  const ProcessSet candidates = options_.fair_set.empty()
                                    ? ProcessSet::universe(n)
                                    : options_.fair_set;
  const sim::Time idle_horizon = idle_until();
  auto idle_tick = [&] {
    tick();
    if (schedule_out) schedule_out->push_back(-1);
  };

  sched.begin(n);
  std::uint64_t executed = 0;
  std::vector<ProcessId> order;
  while (record_.steps < options_.max_steps) {
    // A replay consumes its recorded idle ticks here, keeping the clock in
    // lockstep with the recording run.
    if (sched.take_idle_tick()) {
      idle_tick();
      continue;
    }
    bool fired = false;
    order.clear();
    sched.plan(candidates, order);
    for (ProcessId p : order) {
      if (record_.steps >= options_.max_steps) break;
      if (p < 0 || p >= n || !step_process(p)) continue;
      fired = true;
      sched.fired(p, executed++);
      if (schedule_out) schedule_out->push_back(p);
      if (sched.single_step()) break;
    }
    if (fired) continue;
    if (sched.exhausted()) break;
    if (now_ < idle_horizon) {
      idle_tick();
      continue;
    }
    record_.quiescent = true;
    break;
  }
  finish_run();
  return record_;
}

}  // namespace gam::amcast
