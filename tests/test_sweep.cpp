// Tests for the incremental runnable-set scheduler (src/sim/world.hpp) and
// the parallel seed-sweep harness (bench/sweep.hpp):
//   - quiescence declared by run_until_quiescent must agree with the
//     authoritative full-scan definition, including under cross-actor
//     wants_step coupling that the cached wants bits cannot see;
//   - a sweep job runs exactly once regardless of pool size;
//   - the same seed must produce the identical delivery trace whether a run
//     executes inline, on a one-thread pool, or on a many-thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "amcast/mu_multicast.hpp"
#include "amcast/replicated_multicast.hpp"
#include "amcast/workload.hpp"
#include "bench/sweep.hpp"
#include "groups/generator.hpp"
#include "sim/metrics.hpp"
#include "sim/run_spec.hpp"
#include "sim/world.hpp"

namespace gam {
namespace {

using sim::Actor;
using sim::Context;
using sim::Message;

// ---------------------------------------------------------------------------
// Scheduler correctness.

// Cross-actor coupling: Arm's step flips a flag that makes Trigger runnable.
// Trigger's cached wants bit goes stale the moment Arm steps; only the
// authoritative any_runnable() scan can notice. The world must not declare
// quiescence before Trigger fires.
struct Shared {
  bool armed = false;
  bool fired = false;
};

class Arm : public Actor {
 public:
  explicit Arm(Shared* s) : s_(s) {}
  void on_step(Context&, const Message*) override {
    s_->armed = true;
    done_ = true;
  }
  bool wants_step() const override { return !done_; }

 private:
  Shared* s_;
  bool done_ = false;
};

class Trigger : public Actor {
 public:
  explicit Trigger(Shared* s) : s_(s) {}
  void on_step(Context&, const Message*) override {
    if (s_->armed) s_->fired = true;
  }
  bool wants_step() const override { return s_->armed && !s_->fired; }

 private:
  Shared* s_;
};

TEST(RunnableSet, CrossActorCouplingDoesNotStopEarly) {
  Shared shared;
  sim::Scenario sc(sim::RunSpec{}.processes(2).seed(42));
  sim::World& world = sc.world();
  // Install the coupled actor first so its cached wants bit is computed
  // (false) before the flag ever flips.
  world.install(1, std::make_unique<Trigger>(&shared));
  world.install(0, std::make_unique<Arm>(&shared));
  EXPECT_TRUE(world.run_until_quiescent(1000));
  EXPECT_TRUE(shared.armed);
  EXPECT_TRUE(shared.fired);
}

// Relay chain: each actor forwards the token to the next process. Exercises
// the buffer-driven half of the candidate set (wants_step always false).
class Relay : public Actor {
 public:
  Relay(ProcessId next, int* count) : next_(next), count_(count) {}
  void on_step(Context& ctx, const Message* m) override {
    if (!m) return;
    ++*count_;
    if (m->type > 0) ctx.send(next_, sim::protocol_id(0), sim::msg_type(m->type - 1));
  }

 private:
  ProcessId next_;
  int* count_;
};

TEST(RunnableSet, QuiescencePostconditionHolds) {
  int hops = 0;
  sim::Scenario sc(sim::RunSpec{}.processes(5).seed(7));
  sim::World& world = sc.world();
  for (ProcessId p = 0; p < 5; ++p)
    world.install(p, std::make_unique<Relay>((p + 1) % 5, &hops));
  Message kick;
  kick.src = 0;
  kick.dst = 0;
  kick.type = 23;  // 23 further hops after the first delivery
  world.buffer().send(std::move(kick));
  ASSERT_TRUE(world.run_until_quiescent(100000));
  EXPECT_EQ(hops, 24);
  // The full-scan definition of quiescence, checked via public API.
  EXPECT_EQ(world.buffer().size(), 0u);
  EXPECT_TRUE(world.buffer().nonempty_set().empty());
  for (ProcessId p = 0; p < 5; ++p) EXPECT_EQ(world.buffer().pending_for(p), 0u);
}

TEST(RunnableSet, CrashedDestinationDoesNotSpin) {
  // A message pending for a crashed process keeps its nonempty bit set
  // forever; the scheduler must still detect quiescence instead of spinning
  // on the dead candidate.
  int hops = 0;
  sim::FailurePattern pat(3);
  pat.crash_at(2, 0);
  sim::Scenario sc(sim::RunSpec{}.failures(pat).seed(9));
  sim::World& world = sc.world();
  for (ProcessId p = 0; p < 3; ++p)
    world.install(p, std::make_unique<Relay>(p, &hops));
  Message doomed;
  doomed.src = 0;
  doomed.dst = 2;
  doomed.type = 5;
  world.buffer().send(std::move(doomed));
  EXPECT_TRUE(world.run_until_quiescent(1000));
  EXPECT_EQ(hops, 0);
  EXPECT_EQ(world.buffer().pending_for(2), 1u);  // undeliverable, still held
}

// ---------------------------------------------------------------------------
// Sweep runner mechanics.

TEST(SweepRunner, RunsEachJobExactlyOnce) {
  constexpr int kJobs = 100;
  std::vector<std::atomic<int>> hits(kJobs);
  bench::SweepRunner pool(4);
  auto results = pool.run(kJobs, [&](int i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
    bench::RunResult r;
    r.steps = static_cast<std::uint64_t>(i);
    return r;
  });
  ASSERT_EQ(results.size(), static_cast<size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "job " << i;
    EXPECT_EQ(results[static_cast<size_t>(i)].steps,
              static_cast<std::uint64_t>(i));
  }
}

TEST(SweepRunner, SweepAggregates) {
  bench::SweepRunner pool(2);
  auto stats = pool.sweep("agg", 10, [](int i) {
    bench::RunResult r;
    r.steps = 10;
    r.deliveries = 2;
    r.quiescent = i % 2 == 0;
    return r;
  });
  EXPECT_EQ(stats.runs, 10);
  EXPECT_EQ(stats.steps, 100u);
  EXPECT_EQ(stats.deliveries, 20u);
  EXPECT_EQ(stats.quiescent_runs, 5u);
  EXPECT_GE(stats.wall_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Determinism: all nondeterminism flows from the seed, so a run's delivery
// trace must be identical inline and under any pool size. Exercised for both
// protocol shapes: the ideal-object action system (MuMulticast) and the
// World-backed network protocol (ReplicatedMulticast).

bench::RunResult run_mu(int i) {
  auto sys = groups::disjoint_system(3, 2);
  sim::FailurePattern pat(sys.process_count());
  amcast::MuMulticast mc(sys, pat,
                         {.seed = static_cast<std::uint64_t>(i) + 1});
  for (auto& m : amcast::round_robin_workload(sys, 2)) mc.submit(m);
  return bench::summarize(mc.run());
}

bench::RunResult run_world(int i) {
  auto sys = groups::disjoint_system(2, 3);
  sim::FailurePattern pat(sys.process_count());
  amcast::ReplicatedMulticast rm(sys, pat,
                                 {.seed = static_cast<std::uint64_t>(i) + 1});
  for (auto& m : amcast::round_robin_workload(sys, 2)) rm.submit(m);
  auto r = bench::summarize(rm.run());
  bench::absorb_world(r, *rm.world());
  return r;
}

void expect_same_traces(const std::vector<bench::RunResult>& a,
                        const std::vector<bench::RunResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].trace_hash, b[i].trace_hash) << "seed index " << i;
    EXPECT_EQ(a[i].steps, b[i].steps) << "seed index " << i;
    EXPECT_EQ(a[i].deliveries, b[i].deliveries) << "seed index " << i;
  }
}

// run_merged gives every job its own registry and folds them in job order,
// so the merged report is the per-run sum for any pool size — byte-identical
// to a sequential run. A start barrier holds the first `threads` jobs until
// all of them have started, which puts them on distinct workers: a registry
// shared per worker then could not pass by accident. write_json is
// deterministic, so comparing serialized bytes is exact.
TEST(SweepRunner, RunMergedReportIsPoolSizeInvariant) {
  if (!sim::kMetricsCompiled) GTEST_SKIP() << "metrics compiled out";
  constexpr int kJobs = 24;
  auto report = [&](int threads) {
    std::atomic<int> started{0};
    auto job = [&](int i, sim::Metrics& m) {
      if (i < threads) {
        started.fetch_add(1);
        while (started.load() < threads) std::this_thread::yield();
      }
      m.counter("jobs").add(1);
      m.histogram("val").record(static_cast<std::uint64_t>(i) * 3);
      m.gauge("depth", i % 2 ? "odd" : "even").set(i);
      bench::RunResult r;
      r.steps = 1;
      return r;
    };
    sim::Metrics merged;
    bench::SweepRunner(threads).run_merged(kJobs, job, &merged);
    // Gauge values add across runs (0 + 2 + ... + 22, 1 + 3 + ... + 23);
    // high-water marks take the maximum.
    const auto& even = merged.gauges().at({"depth", "even"});
    const auto& odd = merged.gauges().at({"depth", "odd"});
    EXPECT_EQ(even.value, 132) << threads << " threads";
    EXPECT_EQ(odd.value, 144) << threads << " threads";
    EXPECT_EQ(even.hwm, 22);
    EXPECT_EQ(odd.hwm, 23);
    EXPECT_EQ(merged.counter_total("jobs"), static_cast<std::uint64_t>(kJobs));
    char* buf = nullptr;
    size_t len = 0;
    std::FILE* f = open_memstream(&buf, &len);
    merged.write_json(f, 0);
    std::fclose(f);
    std::string out(buf, len);
    std::free(buf);
    return out;
  };
  std::string seq = report(1);
  EXPECT_FALSE(seq.empty());
  EXPECT_EQ(seq, report(4));
  EXPECT_EQ(seq, report(3));
}

TEST(SweepDeterminism, PoolSizeInvariantTraces) {
  constexpr int kSeeds = 6;
  for (auto job : {&run_mu, &run_world}) {
    std::vector<bench::RunResult> inline_results;
    for (int i = 0; i < kSeeds; ++i) inline_results.push_back(job(i));
    auto one = bench::SweepRunner(1).run(kSeeds, job);
    auto four = bench::SweepRunner(4).run(kSeeds, job);
    expect_same_traces(inline_results, one);
    expect_same_traces(inline_results, four);
    // Distinct seeds must actually produce distinct traces (the hash is not
    // degenerate).
    EXPECT_NE(inline_results[0].trace_hash, inline_results[1].trace_hash);
  }
}

TEST(SweepDeterminism, WorldAllocStatsAreSeedStable) {
  auto a = run_world(3);
  auto b = run_world(3);
  EXPECT_EQ(a.inline_payloads, b.inline_payloads);
  EXPECT_EQ(a.heap_payloads, b.heap_payloads);
  EXPECT_EQ(a.moved_sends, b.moved_sends);
  EXPECT_GT(a.inline_payloads + a.heap_payloads, 0u);
}

TEST(SweepDeterminism, HashIsOrderSensitive) {
  amcast::RunRecord rec;
  rec.deliveries.push_back({0, 1, 10, 0});
  rec.deliveries.push_back({1, 1, 11, 0});
  auto h1 = bench::hash_deliveries(rec);
  std::swap(rec.deliveries[0], rec.deliveries[1]);
  auto h2 = bench::hash_deliveries(rec);
  EXPECT_NE(h1, h2);
}

}  // namespace
}  // namespace gam
