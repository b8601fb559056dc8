// RunSpec + Scenario: the single way to construct and run a World.
//
// Before this layer, every test/bench/tool duplicated the same five-part
// setup dance — build a FailurePattern, construct a World from positional
// arguments, attach a trace sink, attach metrics, pick a step budget — and
// there was nowhere to hang a scheduling strategy. RunSpec is a fluent,
// copyable value describing a scenario:
//
//   sim::Scenario sc(sim::RunSpec{}
//                        .groups(fig1)            // or .processes(n)
//                        .failures(pattern)
//                        .seed(42)
//                        .scheduler(sim::pct(3))
//                        .trace(&recorder)
//                        .metrics(&registry));
//   sc.world().install(0, ...);
//   sc.run();
//
// Scenario materializes the spec: it owns the World and the instantiated
// Scheduler (strategies fork their randomness from the run seed, so a spec
// plus a seed is a complete, reproducible scenario description). The old
// World(FailurePattern, seed) positional constructor is gone; Scenario is
// the only way to build a World.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/adversary.hpp"
#include "sim/failure_pattern.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"
#include "util/contracts.hpp"
#include "util/process_set.hpp"

namespace gam::sim {

class RunSpec {
 public:
  RunSpec() = default;

  // Crash-free universe of n processes (overridden by failures()).
  RunSpec& processes(int n) {
    process_count_ = n;
    return *this;
  }

  RunSpec& failures(FailurePattern f) {
    pattern_ = std::move(f);
    return *this;
  }

  // Records the group memberships (for quorum-edge adversaries and monitor
  // wiring) and defaults the process count. Accepts anything shaped like
  // groups::GroupSystem — a template so sim stays below groups in the
  // layering.
  template <typename GroupSystemLike>
  RunSpec& groups(const GroupSystemLike& sys) {
    groups_.clear();
    for (int g = 0; g < sys.group_count(); ++g) groups_.push_back(sys.group(g));
    if (process_count_ == 0) process_count_ = sys.process_count();
    return *this;
  }

  RunSpec& seed(std::uint64_t s) {
    seed_ = s;
    return *this;
  }

  RunSpec& max_steps(std::uint64_t n) {
    max_steps_ = n;
    return *this;
  }

  RunSpec& scheduler(SchedulerSpec spec) {
    scheduler_ = spec;
    return *this;
  }

  // Escape hatch for strategies SchedulerSpec cannot name (hand-built replay
  // scripts, test doubles). The factory receives the run seed.
  RunSpec& scheduler_factory(
      std::function<std::unique_ptr<Scheduler>(std::uint64_t)> f) {
    factory_ = std::move(f);
    return *this;
  }

  // Non-owning; must outlive the Scenario's runs.
  RunSpec& crash_injector(CrashInjector* inj) {
    injector_ = inj;
    return *this;
  }

  RunSpec& trace(TraceSink* sink) {
    trace_sink_ = sink;
    return *this;
  }

  RunSpec& metrics(Metrics* reg) {
    metrics_ = reg;
    return *this;
  }

  // The pattern the scenario runs under: explicit failures, else a crash-free
  // universe over the declared process count.
  FailurePattern resolve_pattern() const {
    if (pattern_) return *pattern_;
    GAM_EXPECTS(process_count_ > 0);
    return FailurePattern(process_count_);
  }

  std::uint64_t run_seed() const { return seed_; }
  std::uint64_t step_budget() const { return max_steps_; }
  const SchedulerSpec& scheduler_spec() const { return scheduler_; }
  const std::vector<ProcessSet>& group_sets() const { return groups_; }
  TraceSink* trace_sink() const { return trace_sink_; }
  Metrics* metrics_registry() const { return metrics_; }
  CrashInjector* injector() const { return injector_; }
  const std::function<std::unique_ptr<Scheduler>(std::uint64_t)>&
  scheduler_factory_fn() const {
    return factory_;
  }

 private:
  int process_count_ = 0;
  std::optional<FailurePattern> pattern_;
  std::vector<ProcessSet> groups_;
  std::uint64_t seed_ = 1;
  std::uint64_t max_steps_ = std::uint64_t{1} << 22;
  SchedulerSpec scheduler_;
  std::function<std::unique_ptr<Scheduler>(std::uint64_t)> factory_;
  CrashInjector* injector_ = nullptr;
  TraceSink* trace_sink_ = nullptr;
  Metrics* metrics_ = nullptr;
};

// Materializes a RunSpec: owns the World plus the instantiated scheduler and
// wires sinks/metrics/injector. Movable; not copyable (the World isn't).
class Scenario {
 public:
  explicit Scenario(RunSpec spec) : spec_(std::move(spec)) {
    world_.reset(new World(World::ScenarioKey{}, spec_.resolve_pattern(),
                           spec_.run_seed()));
    if (spec_.scheduler_factory_fn())
      scheduler_ = spec_.scheduler_factory_fn()(spec_.run_seed());
    else if (spec_.scheduler_spec().kind != SchedulerSpec::Kind::kRandom)
      scheduler_ = spec_.scheduler_spec().instantiate(spec_.run_seed());
    // kRandom needs no explicit object: the World's lazily-owned default is
    // seeded identically (kSchedulerSeedSalt), so spec'd and default random
    // runs are byte-for-byte the same.
    GAM_EXPECTS(spec_.scheduler_spec().kind == SchedulerSpec::Kind::kRandom ||
                spec_.scheduler_factory_fn() || scheduler_ != nullptr);
    if (scheduler_) world_->set_scheduler(scheduler_.get());
    if (spec_.injector()) world_->set_crash_injector(spec_.injector());
    if (spec_.trace_sink()) world_->set_trace_sink(spec_.trace_sink());
    if (spec_.metrics_registry()) world_->set_metrics(spec_.metrics_registry());
  }

  World& world() { return *world_; }
  const World& world() const { return *world_; }
  const RunSpec& spec() const { return spec_; }
  Scheduler* scheduler() { return scheduler_.get(); }

  // Runs to quiescence under the spec's step budget.
  bool run() { return world_->run_until_quiescent(spec_.step_budget()); }

 private:
  RunSpec spec_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<World> world_;
};

}  // namespace gam::sim
