// Tests for the adversarial scheduling & crash-injection layer
// (src/sim/adversary.hpp) and the RunSpec/Scenario construction API
// (src/sim/run_spec.hpp):
//   - a recorded schedule replays byte-identically, both at the World layer
//     (attempts extracted from a full event trace) and at the MuMulticast
//     layer (schedule file round-tripped through disk);
//   - PCT draws sane priorities and change points (distinct priorities, d-1
//     sorted change points spread over the step bound);
//   - the quorum-edge derivation crashes all but one member of a group
//     intersection at consecutive early times, and Σ over the derived
//     pattern collapses to the survivor singleton right at the boundary;
//   - the planted-bug gate: under -DGAM_PLANTED_BUG the pct:3 hunt finds a
//     monitor violation within the seed budget and the violating run
//     replays from its schedule; in honest builds the same hunt is clean;
//   - a default-spec Scenario is seed-for-seed reproducible (the canonical
//     World construction), and mid-run crash injection fires through
//     World::mutable_pattern.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "amcast/mu_multicast.hpp"
#include "amcast/workload.hpp"
#include "fd/detectors.hpp"
#include "groups/generator.hpp"
#include "sim/adversary.hpp"
#include "sim/monitors.hpp"
#include "sim/run_spec.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"

namespace gam {
namespace {

using sim::Actor;
using sim::Context;
using sim::Message;

// Forwards a countdown token around a ring; exercises receive-driven steps.
class Relay : public Actor {
 public:
  explicit Relay(ProcessId next) : next_(next) {}
  void on_step(Context& ctx, const Message* m) override {
    if (m && m->type > 0)
      ctx.send(next_, sim::protocol_id(0), sim::msg_type(m->type - 1));
  }

 private:
  ProcessId next_;
};

void kick(sim::World& world, ProcessId dst, std::int32_t hops) {
  Message m;
  m.src = dst;
  m.dst = dst;
  m.type = hops;
  world.buffer().send(std::move(m));
}

// ---------------------------------------------------------------------------
// Replay determinism.

TEST(Replay, WorldTraceReplaysByteIdentically) {
  // Record a PCT-scheduled run, extract its attempt sequence from the event
  // stream, and re-execute under ReplayScheduler: the two event streams must
  // be identical, event for event.
  sim::RecorderSink first;
  {
    sim::Scenario sc(sim::RunSpec{}
                         .processes(3)
                         .seed(21)
                         .scheduler(sim::pct(3, 256))
                         .trace(&first));
    for (ProcessId p = 0; p < 3; ++p)
      sc.world().install(p, std::make_unique<Relay>((p + 1) % 3));
    kick(sc.world(), 0, 9);
    ASSERT_TRUE(sc.run());
  }
  ASSERT_FALSE(first.events().empty());

  auto attempts = sim::ReplayScheduler::attempts_from_events(first.events());
  ASSERT_FALSE(attempts.empty());

  sim::RecorderSink second;
  {
    sim::Scenario sc(sim::RunSpec{}
                         .processes(3)
                         .seed(21)
                         .scheduler_factory([&](std::uint64_t) {
                           return std::make_unique<sim::ReplayScheduler>(
                               attempts);
                         })
                         .trace(&second));
    for (ProcessId p = 0; p < 3; ++p)
      sc.world().install(p, std::make_unique<Relay>((p + 1) % 3));
    kick(sc.world(), 0, 9);
    ASSERT_TRUE(sc.run());
  }
  EXPECT_EQ(first.events(), second.events());
  EXPECT_EQ(first.hash(), second.hash());
}

TEST(Replay, MuMulticastScheduleFileRoundTrips) {
  // Record a PCT-scheduled Algorithm 1 run's attempt schedule, write it to
  // disk, load it back, and re-run: byte-identical event hash.
  auto sys = groups::figure1_system();
  auto run = [&](sim::Scheduler& sched, std::vector<ProcessId>* schedule_out,
                 sim::TraceSink* sink) {
    sim::FailurePattern pat(sys.process_count());
    amcast::MuMulticast mc(sys, pat, {.seed = 5});
    mc.set_event_sink(sink);
    for (auto& m : amcast::round_robin_workload(sys, 2)) mc.submit(m);
    return mc.run_with(sched, schedule_out);
  };

  sim::RecorderSink rec;
  std::vector<ProcessId> schedule;
  auto pct = sim::pct(3).instantiate(5);
  auto record = run(*pct, &schedule, &rec);
  ASSERT_TRUE(record.quiescent);
  ASSERT_FALSE(schedule.empty());

  std::string path = "test_adversary_schedule.tmp";
  ASSERT_TRUE(sim::write_schedule(path, schedule));
  auto loaded = sim::load_schedule(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, schedule);

  auto replayer = sim::ReplayScheduler::from_file(path);
  std::remove(path.c_str());
  ASSERT_TRUE(replayer.has_value());
  EXPECT_EQ(replayer->size(), schedule.size());

  sim::HashingSink hash;
  auto replayed = run(*replayer, nullptr, &hash);
  EXPECT_TRUE(replayed.quiescent);
  EXPECT_EQ(hash.hash(), rec.hash());
  EXPECT_EQ(replayed.deliveries.size(), record.deliveries.size());
}

TEST(Replay, SpecInstantiationIsDeterministic) {
  // The same spec + seed must build schedulers whose runs agree: re-running
  // a (strategy, seed) cell is the first half of the reproducibility story.
  auto run_hash = [](std::uint64_t seed) {
    sim::HashingSink h;
    sim::Scenario sc(sim::RunSpec{}
                         .processes(4)
                         .seed(seed)
                         .scheduler(sim::pct(2, 128))
                         .trace(&h));
    for (ProcessId p = 0; p < 4; ++p)
      sc.world().install(p, std::make_unique<Relay>((p + 1) % 4));
    // Several concurrent tokens, so the scheduler has real choices and
    // different priority draws yield different interleavings.
    for (ProcessId p = 0; p < 4; ++p) kick(sc.world(), p, 7);
    EXPECT_TRUE(sc.run());
    return h.hash();
  };
  EXPECT_EQ(run_hash(3), run_hash(3));
  EXPECT_NE(run_hash(3), run_hash(4));
}

// ---------------------------------------------------------------------------
// PCT internals.

TEST(Pct, PrioritiesDistinctAndChangePointsSorted) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    sim::PctScheduler pct(/*depth=*/4, /*step_bound=*/1000, seed);
    pct.begin(8);
    const auto& pr = pct.priorities();
    ASSERT_EQ(pr.size(), 8u);
    std::set<std::int64_t> distinct(pr.begin(), pr.end());
    EXPECT_EQ(distinct.size(), 8u) << "seed " << seed;

    const auto& cps = pct.change_points();
    ASSERT_EQ(cps.size(), 3u);  // depth - 1
    for (size_t i = 0; i < cps.size(); ++i) {
      EXPECT_GE(cps[i], 1u);
      EXPECT_LT(cps[i], 1000u);
      if (i > 0) {
        EXPECT_LE(cps[i - 1], cps[i]);
      }
    }
  }
}

TEST(Pct, ChangePointsSpreadOverStepBound) {
  // Distribution sanity: across seeds, change points must land in every
  // quarter of [1, step_bound) — uniform draws, not clustered at one end.
  constexpr std::uint64_t kBound = 1000;
  int bucket[4] = {0, 0, 0, 0};
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    sim::PctScheduler pct(3, kBound, seed);
    pct.begin(4);
    for (auto cp : pct.change_points())
      ++bucket[cp * 4 / kBound];
  }
  for (int q = 0; q < 4; ++q) EXPECT_GT(bucket[q], 0) << "quarter " << q;
}

TEST(Pct, DemotionChangesScheduleOrder) {
  // With depth >= 2 a demotion exists; across seeds PCT runs must not all
  // equal the depth-1 (pure priority) runs — the change points have teeth.
  auto run_hash = [](const sim::SchedulerSpec& spec, std::uint64_t seed) {
    sim::HashingSink h;
    sim::Scenario sc(
        sim::RunSpec{}.processes(4).seed(seed).scheduler(spec).trace(&h));
    for (ProcessId p = 0; p < 4; ++p)
      sc.world().install(p, std::make_unique<Relay>((p + 1) % 4));
    for (ProcessId p = 0; p < 4; ++p) kick(sc.world(), p, 10);
    EXPECT_TRUE(sc.run());
    return h.hash();
  };
  int differs = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed)
    differs += run_hash(sim::pct(4, 64), seed) != run_hash(sim::pct(1), seed);
  EXPECT_GT(differs, 0);
}

TEST(Pct, PlansRoundRobinPastItsHorizon) {
  // Depth 1 has no change point, so within the horizon the same process
  // heads every plan. Past it the plans rotate: each candidate comes first
  // in turn, so a process that can always fire cannot starve the others.
  constexpr std::uint64_t kBound = 6;
  sim::PctScheduler pct(/*depth=*/1, kBound, /*seed=*/7);
  pct.begin(4);
  const ProcessSet all = ProcessSet::universe(4);
  std::vector<ProcessId> order;
  std::vector<ProcessId> heads;
  for (std::uint64_t step = 0; step < kBound + 8; ++step) {
    order.clear();
    pct.plan(all, order);
    ASSERT_EQ(order.size(), 4u);
    heads.push_back(order[0]);
    pct.fired(order[0], step);
  }
  for (std::uint64_t step = 1; step < kBound; ++step)
    EXPECT_EQ(heads[step], heads[0]) << "step " << step;
  // Round-robin from the process after the last one that fired.
  for (std::uint64_t step = kBound; step < heads.size(); ++step)
    EXPECT_EQ(heads[step], (heads[step - 1] + 1) % 4) << "step " << step;
}

// ---------------------------------------------------------------------------
// Quorum-edge derivation.

TEST(QuorumEdge, CrashesSitOnTheSigmaBoundary) {
  auto sys = groups::figure1_system();
  sim::QuorumEdgeAdversary adv(sys.groups(), sys.process_count());
  ASSERT_FALSE(adv.scopes().empty());

  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    auto target = adv.target_for(seed);
    // The attacked scope is a recorded intersection; victims + survivor
    // partition it.
    EXPECT_TRUE(target.scope.contains(target.survivor));
    EXPECT_FALSE(target.victims.contains(target.survivor));
    EXPECT_EQ(target.victims.size() + 1, target.scope.size());

    sim::FailurePattern pat = adv.pattern_for(seed);
    EXPECT_EQ(pat.faulty_set(), target.victims);
    if (target.victims.empty()) continue;  // singleton scope: nothing to kill

    // Consecutive early crash times inside the window.
    EXPECT_GE(target.first_crash, 1);
    EXPECT_EQ(target.last_crash,
              target.first_crash +
                  static_cast<sim::Time>(target.victims.size()) - 1);

    // Σ restricted to the attacked scope: a full quorum before the first
    // crash, the survivor singleton from the last crash on — the boundary.
    fd::SigmaOracle sigma(pat, target.scope);
    auto before = sigma.query(target.survivor, 0);
    ASSERT_TRUE(before.has_value());
    EXPECT_EQ(*before, target.scope);
    auto after = sigma.query(target.survivor, target.last_crash);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(*after, ProcessSet{target.survivor});
  }
}

TEST(QuorumEdge, InjectorCrashesMidRun) {
  // Dynamic injection at the World layer: the injector applies the target's
  // crashes through mutable_pattern once enough steps executed. (Plain-World
  // runs only — FD oracles bind the pattern at construction, so MuMulticast
  // derives qedge patterns up front instead.)
  auto sys = groups::figure1_system();
  sim::QuorumEdgeAdversary adv(sys.groups(), sys.process_count());
  // Find a seed whose attacked intersection is not a singleton (singleton
  // scopes have nobody to kill).
  std::uint64_t seed = 1;
  auto target = adv.target_for(seed);
  while (target.victims.empty() && seed < 64) target = adv.target_for(++seed);
  ASSERT_FALSE(target.victims.empty());

  sim::QuorumEdgeInjector injector(target, /*trigger_step=*/5);
  sim::Scenario sc(sim::RunSpec{}
                       .processes(sys.process_count())
                       .seed(seed)
                       .crash_injector(&injector));
  sim::World& world = sc.world();
  int n = sys.process_count();
  for (ProcessId p = 0; p < n; ++p)
    world.install(p, std::make_unique<Relay>((p + 1) % n));
  kick(world, 0, 60);
  ASSERT_TRUE(sc.run());

  EXPECT_TRUE(injector.fired());
  for (ProcessId v : target.victims) {
    EXPECT_TRUE(world.pattern().crashed(v, world.now())) << "victim " << v;
    // Crashed mid-run: the victim stepped before the injection, never after.
    EXPECT_TRUE(world.pattern().alive(v, 0));
  }
}

// ---------------------------------------------------------------------------
// RunSpec / Scenario.

TEST(RunSpec, DefaultScenarioIsReproducible) {
  // The World(pattern, seed) shim is gone; a default-spec Scenario is the
  // canonical construction and must stay seed-for-seed deterministic (the
  // property every determinism gate downstream builds on).
  auto run = [](sim::TraceSink* sink) {
    sim::Scenario sc(sim::RunSpec{}.processes(3).seed(77));
    sc.world().set_trace_sink(sink);
    for (ProcessId p = 0; p < 3; ++p)
      sc.world().install(p, std::make_unique<Relay>((p + 1) % 3));
    kick(sc.world(), 2, 12);
    EXPECT_TRUE(sc.run());
  };
  sim::HashingSink a, b;
  run(&a);
  run(&b);
  EXPECT_GT(a.count(), 0u);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(RunSpec, ExplicitRandomSpecMatchesDefault) {
  // scheduler(random_scheduler()) and no scheduler at all must coincide: the
  // spec'd RandomScheduler forks its stream with the same salt as the
  // World-owned default.
  auto run = [](const sim::RunSpec& spec) {
    sim::HashingSink h;
    sim::RunSpec s = spec;
    sim::Scenario sc(s.trace(&h));
    for (ProcessId p = 0; p < 4; ++p)
      sc.world().install(p, std::make_unique<Relay>((p + 1) % 4));
    kick(sc.world(), 0, 15);
    EXPECT_TRUE(sc.run());
    return h.hash();
  };
  EXPECT_EQ(run(sim::RunSpec{}.processes(4).seed(9)),
            run(sim::RunSpec{}.processes(4).seed(9).scheduler(
                sim::random_scheduler())));
}

// ---------------------------------------------------------------------------
// Spec parsing.

TEST(AdversarySpec, ParsesTheCliGrammar) {
  auto p1 = sim::AdversarySpec::parse("random");
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->scheduler.kind, sim::SchedulerSpec::Kind::kRandom);
  EXPECT_FALSE(p1->quorum_edge_crashes);

  auto p2 = sim::AdversarySpec::parse("pct:5");
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->scheduler.kind, sim::SchedulerSpec::Kind::kPct);
  EXPECT_EQ(p2->scheduler.depth, 5);

  auto p3 = sim::AdversarySpec::parse("qedge+pct:2");
  ASSERT_TRUE(p3.has_value());
  EXPECT_TRUE(p3->quorum_edge_crashes);
  EXPECT_EQ(p3->scheduler.depth, 2);
  EXPECT_EQ(p3->name(), "qedge+pct:2");

  auto p4 = sim::AdversarySpec::parse("replay:some/file.trace");
  ASSERT_TRUE(p4.has_value());
  EXPECT_EQ(p4->scheduler.kind, sim::SchedulerSpec::Kind::kReplay);
  EXPECT_EQ(p4->scheduler.replay_path, "some/file.trace");

  EXPECT_FALSE(sim::AdversarySpec::parse("pct:").has_value());
  EXPECT_FALSE(sim::AdversarySpec::parse("chaos").has_value());
  EXPECT_FALSE(sim::AdversarySpec::parse("").has_value());
}

// ---------------------------------------------------------------------------
// The planted-bug gate. One weakened delivery guard ships behind
// -DGAM_PLANTED_BUG; pct:3 must expose it within the seed budget there, and
// find nothing in honest builds. (scripts/tier1.sh runs this test in both
// build flavors; tools/adversary_hunt is the CLI face of the same loop.)

struct HuntCell {
  std::vector<sim::MonitorViolation> violations;
  std::vector<ProcessId> schedule;
  std::uint64_t trace_hash = 0;
};

HuntCell planted_cell(std::uint64_t seed) {
  auto sys = groups::figure1_system();
  Rng rng(seed);
  sim::EnvironmentSampler env{
      .process_count = sys.process_count(), .max_failures = 2, .horizon = 100};
  sim::FailurePattern pat = env.sample(rng);

  amcast::MuMulticast mc(sys, pat, {.seed = seed});
  sim::RecorderSink rec;
  mc.set_event_sink(&rec);
  for (auto& m : amcast::round_robin_workload(sys, 4)) mc.submit(m);

  HuntCell cell;
  auto sched = sim::pct(3).instantiate(seed);
  auto record = mc.run_with(*sched, &cell.schedule);
  cell.trace_hash = rec.hash();

  sim::MonitorConfig cfg;
  for (groups::GroupId g = 0; g < sys.group_count(); ++g)
    cfg.groups.push_back(sys.group(g));
  cfg.faulty = pat.faulty_set();
  sim::InvariantMonitors mon(cfg);
  sim::feed(mon, rec.events());
  mon.finalize(record.quiescent);
  cell.violations = mon.violations();
  return cell;
}

TEST(PlantedBug, PctHuntMatchesBuildFlavor) {
  constexpr std::uint64_t kBudget = sim::kPlantedBug ? 256 : 24;
  std::uint64_t found = 0;
  HuntCell bad;
  for (std::uint64_t seed = 1; seed <= kBudget; ++seed) {
    HuntCell cell = planted_cell(seed);
    if (!cell.violations.empty()) {
      found = seed;
      bad = cell;
      break;
    }
  }
  if (!sim::kPlantedBug) {
    EXPECT_EQ(found, 0u) << "honest build flagged a violation: "
                         << sim::format_violation(bad.violations[0]);
    return;
  }
  ASSERT_NE(found, 0u) << "planted bug not found within " << kBudget
                       << " pct:3 seeds";
  // The violating schedule must replay: same seed + schedule -> same events.
  auto sys = groups::figure1_system();
  Rng rng(found);
  sim::EnvironmentSampler env{
      .process_count = sys.process_count(), .max_failures = 2, .horizon = 100};
  sim::FailurePattern pat = env.sample(rng);
  amcast::MuMulticast mc(sys, pat, {.seed = found});
  sim::HashingSink hash;
  mc.set_event_sink(&hash);
  for (auto& m : amcast::round_robin_workload(sys, 4)) mc.submit(m);
  sim::ReplayScheduler replayer(bad.schedule);
  mc.run_with(replayer);
  EXPECT_EQ(hash.hash(), bad.trace_hash);
}

}  // namespace
}  // namespace gam
