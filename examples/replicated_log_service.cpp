// State-machine replication on the library's object layer (paper §6.1's
// motivation): a replicated counter service whose commands flow through the
// universal-construction log built from Ω ∧ Σ — the same construction
// Algorithm 1 uses for its per-group logs (§4.3).
//
// The run crashes the initial Ω leader mid-stream; Σ's quorums and Ω's
// re-election keep the log — and therefore every replica's state — moving.
#include <cstdio>
#include <memory>
#include <vector>

#include "fd/detectors.hpp"
#include "objects/protocol_host.hpp"
#include "objects/universal_log.hpp"
#include "sim/run_spec.hpp"
#include "sim/world.hpp"

using namespace gam;
using namespace gam::objects;

namespace {

// The service: a counter supporting add(k) and reset, commands encoded as
// integers (reset = 0, add(k) = k).
std::int64_t apply_all(const std::vector<std::int64_t>& log) {
  std::int64_t value = 0;
  for (std::int64_t cmd : log) value = (cmd == 0) ? 0 : value + cmd;
  return value;
}

}  // namespace

int main() {
  constexpr int kReplicas = 5;
  sim::FailurePattern pattern(kReplicas);
  pattern.crash_at(0, 60);  // p0 is the initial leader — kill it mid-run

  sim::Scenario scenario(sim::RunSpec{}.failures(pattern).seed(99));
  sim::World& world = scenario.world();
  auto hosts = install_hosts(world);

  ProcessSet scope = ProcessSet::universe(kReplicas);
  fd::SigmaOracle sigma(pattern, scope);
  fd::OmegaOracle omega(pattern, scope);

  // Each replica applies commands from the log's learn observer; here it
  // just records the command sequence it was handed.
  std::vector<std::shared_ptr<UniversalLog>> logs;
  std::vector<std::vector<std::int64_t>> learned(kReplicas);
  for (ProcessId p = 0; p < kReplicas; ++p) {
    auto log = std::make_shared<UniversalLog>(sim::protocol_id(1), p, scope,
                                              sigma, omega);
    hosts[static_cast<size_t>(p)]->add(sim::protocol_id(1), log);
    log->set_on_learn([&learned, p](std::int64_t cmd, std::int64_t) {
      learned[static_cast<size_t>(p)].push_back(cmd);
    });
    logs.push_back(log);
  }

  // Clients at different replicas submit commands concurrently.
  int applied = 0;
  auto on_applied = [&](std::int64_t pos) {
    (void)pos;
    ++applied;
  };
  logs[1]->submit(+5, on_applied);
  logs[2]->submit(+7, on_applied);
  logs[3]->submit(0, on_applied);   // reset
  logs[4]->submit(+11, on_applied);
  logs[1]->submit(+2, on_applied);

  bool quiescent = world.run_until_quiescent(500'000);
  std::printf("quiescent: %s, commands ordered: %d/5\n",
              quiescent ? "yes" : "no", applied);

  // Every correct replica learned the same command sequence.
  const auto& reference = learned[1];
  std::printf("decided log (%zu entries):", reference.size());
  for (std::int64_t cmd : reference) std::printf(" %lld", static_cast<long long>(cmd));
  std::printf("\n");
  bool agree = true;
  for (ProcessId p = 1; p < kReplicas; ++p)
    agree = agree && learned[static_cast<size_t>(p)] == reference;
  std::printf("correct replicas agree on the log: %s\n",
              agree ? "yes" : "NO");
  std::printf("service state (counter) at every correct replica: %lld\n",
              static_cast<long long>(apply_all(reference)));

  std::uint64_t msgs = 0;
  for (ProcessId p = 0; p < kReplicas; ++p)
    msgs += world.stats(p).messages_sent;
  std::printf("protocol cost: %llu messages, %llu total steps\n",
              static_cast<unsigned long long>(msgs),
              static_cast<unsigned long long>(
                  [&] {
                    std::uint64_t s = 0;
                    for (ProcessId p = 0; p < kReplicas; ++p)
                      s += world.stats(p).steps;
                    return s;
                  }()));
  return (agree && applied == 5) ? 0 : 1;
}
