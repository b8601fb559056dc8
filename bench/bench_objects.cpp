// Experiment E8: the shared-object layer — ideal linearizable objects and
// their message-passing constructions from Σ and Ω ∧ Σ. For the replicated
// objects the interesting quantity is not wall time but protocol cost:
// simulator steps and wire messages per operation as the replication scope
// grows. Both are exported as benchmark counters.
#include <benchmark/benchmark.h>

#include <memory>

#include "amcast/mu_multicast.hpp"
#include "amcast/workload.hpp"
#include "fd/detectors.hpp"
#include "groups/generator.hpp"
#include "objects/abd_register.hpp"
#include "objects/ideal.hpp"
#include "objects/protocol_host.hpp"
#include "objects/universal_log.hpp"
#include "sim/run_spec.hpp"
#include "sim/world.hpp"

using namespace gam;
using namespace gam::objects;

static void BM_IdealLogAppend(benchmark::State& state) {
  for (auto _ : state) {
    Log log;
    for (std::int64_t i = 0; i < state.range(0); ++i)
      log.append(LogEntry::message(i), 0);
    benchmark::DoNotOptimize(log.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IdealLogAppend)->Arg(64)->Arg(256)->Arg(1024);

static void BM_IdealLogBumpAndOrder(benchmark::State& state) {
  for (auto _ : state) {
    Log log;
    for (std::int64_t i = 0; i < state.range(0); ++i)
      log.append(LogEntry::message(i), 0);
    for (std::int64_t i = 0; i < state.range(0); ++i)
      log.bump_and_lock(LogEntry::message(i), state.range(0), 0);
    benchmark::DoNotOptimize(
        log.messages_before(LogEntry::message(state.range(0) - 1)));
  }
}
BENCHMARK(BM_IdealLogBumpAndOrder)->Arg(64)->Arg(256);

namespace {

struct ReplicatedFixture {
  explicit ReplicatedFixture(int n, std::uint64_t seed)
      : pattern(n),
        scenario(sim::RunSpec{}.failures(pattern).seed(seed)),
        world(scenario.world()),
        scope(ProcessSet::universe(n)),
        sigma(pattern, scope),
        omega(pattern, scope) {
    hosts = install_hosts(world);
    for (ProcessId p = 0; p < n; ++p) {
      stores.push_back(std::make_shared<QuorumStore>(sim::protocol_id(1), p,
                                                     scope, sigma));
      hosts[static_cast<size_t>(p)]->add(sim::protocol_id(1), stores.back());
    }
  }

  std::uint64_t total_messages() const {
    std::uint64_t n = 0;
    for (ProcessId p = 0; p < world.process_count(); ++p)
      n += world.stats(p).messages_sent;
    return n;
  }
  std::uint64_t total_steps() const {
    std::uint64_t n = 0;
    for (ProcessId p = 0; p < world.process_count(); ++p)
      n += world.stats(p).steps;
    return n;
  }

  sim::FailurePattern pattern;
  sim::Scenario scenario;
  sim::World& world;
  ProcessSet scope;
  fd::SigmaOracle sigma;
  fd::OmegaOracle omega;
  std::vector<ProtocolHost*> hosts;
  std::vector<std::shared_ptr<QuorumStore>> stores;
};

}  // namespace

static void BM_AbdRegisterWrite(benchmark::State& state) {
  auto n = static_cast<int>(state.range(0));
  std::uint64_t msgs = 0, steps = 0, ops = 0;
  for (auto _ : state) {
    ReplicatedFixture fx(n, 42);
    AbdRegister reg(fx.stores[0], 0);
    for (int i = 0; i < 8; ++i) {
      bool done = false;
      reg.write(i, [&] { done = true; });
      fx.world.run_until_quiescent(100'000);
      benchmark::DoNotOptimize(done);
      ++ops;
    }
    msgs += fx.total_messages();
    steps += fx.total_steps();
  }
  state.counters["msgs/op"] = static_cast<double>(msgs) / static_cast<double>(ops);
  state.counters["steps/op"] = static_cast<double>(steps) / static_cast<double>(ops);
}
BENCHMARK(BM_AbdRegisterWrite)->Arg(3)->Arg(5)->Arg(7)->Arg(9);

static void BM_UniversalLogDecide(benchmark::State& state) {
  auto n = static_cast<int>(state.range(0));
  std::uint64_t msgs = 0, ops = 0;
  for (auto _ : state) {
    ReplicatedFixture fx(n, 7);
    std::vector<std::shared_ptr<UniversalLog>> logs;
    std::int64_t learned = 0;  // ops learned at replica 0
    for (ProcessId p = 0; p < n; ++p) {
      auto l = std::make_shared<UniversalLog>(sim::protocol_id(2), p, fx.scope,
                                              fx.sigma, fx.omega);
      fx.hosts[static_cast<size_t>(p)]->add(sim::protocol_id(2), l);
      logs.push_back(l);
    }
    logs[0]->set_on_learn(
        [&learned](std::int64_t, std::int64_t) { ++learned; });
    for (int i = 0; i < 6; ++i) {
      logs[static_cast<size_t>(i % n)]->submit(i, nullptr);
      ++ops;
    }
    fx.world.run_until_quiescent(400'000);
    benchmark::DoNotOptimize(learned);
    msgs += fx.total_messages();
  }
  state.counters["msgs/op"] = static_cast<double>(msgs) / static_cast<double>(ops);
}
BENCHMARK(BM_UniversalLogDecide)->Arg(3)->Arg(5)->Arg(7);

static void BM_Algorithm1EndToEnd(benchmark::State& state) {
  // Full Algorithm-1 runs on a ring of k groups (cyclic families, the
  // expensive case), 2 messages per group.
  auto k = static_cast<int>(state.range(0));
  auto sys = groups::ring_system(k, 2);
  sim::FailurePattern pat(sys.process_count());
  std::uint64_t steps = 0, deliveries = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    amcast::MuMulticast mc(sys, pat, {.seed = seed++});
    for (auto& m : amcast::round_robin_workload(sys, 2)) mc.submit(m);
    auto rec = mc.run();
    steps += rec.steps;
    deliveries += rec.deliveries.size();
  }
  state.counters["steps/deliv"] =
      static_cast<double>(steps) / static_cast<double>(deliveries);
}
BENCHMARK(BM_Algorithm1EndToEnd)->DenseRange(3, 6);
