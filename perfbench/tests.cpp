// The benchmark's own tests: its statistics, span accounting, failure
// accounting, delivery checker, seed handling and client rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "groups/generator.hpp"
#include "live.hpp"
#include "net/transport.hpp"
#include "simcheck.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "tracing.hpp"

namespace perfbench {
namespace {

TEST(Quantiles, ExactNearestRankOnRawSamples) {
  std::vector<std::uint64_t> v(1000);
  std::iota(v.begin(), v.end(), 1);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  EXPECT_EQ(quantile(v, 0.5), 500u);
  EXPECT_EQ(quantile(v, 0.9), 900u);
  EXPECT_EQ(quantile(v, 0.999), 999u);
  EXPECT_EQ(quantile(v, 1.0), 1000u);
  EXPECT_EQ(quantile(v, 0.0001), 1u);
  // No power-of-two bucketing: 1000 samples of 600 and one of 700 keep
  // their exact values (a bucketed p50 would answer 1023).
  std::vector<std::uint64_t> w(1000, 600);
  w.push_back(700);
  EXPECT_EQ(quantile(w, 0.5), 600u);
  EXPECT_EQ(quantile(w, 1.0), 700u);
  std::vector<std::uint64_t> empty;
  EXPECT_EQ(quantile(empty, 0.5), 0u);
}

TEST(Quantiles, TailTrackerMatchesTheFullSample) {
  std::vector<std::uint64_t> v(200000);
  std::mt19937_64 rng(3);
  for (auto& x : v) x = rng() % 1000003;
  TailTracker a(64), b(64);
  for (std::size_t i = 0; i < v.size(); ++i) (i % 2 ? a : b).add(v[i]);
  a.merge(b);
  EXPECT_EQ(a.count(), v.size());
  for (double q : {0.9999, 0.99995, 1.0}) {
    std::vector<std::uint64_t> copy = v;
    EXPECT_EQ(a.quantile(q), quantile(copy, q)) << q;
  }
  // p99 of 200000 samples lies 2000 below the top: not kept by 64 slots.
  EXPECT_FALSE(a.quantile(0.99).has_value());
}

// A Context that sends straight into a transport, standing in for the
// runtime's NetContext (which calls Transport::try_send inside the step).
class TransportContext final : public gam::sim::Context {
 public:
  TransportContext(gam::net::Transport& t, gam::ProcessId self)
      : Context(self, 0), t_(t) {}
  void send(gam::ProcessId dst, gam::sim::ProtocolId protocol,
            gam::sim::MsgType type, gam::sim::Payload data) override {
    const auto h = gam::net::make_header(
        0, self(), dst, gam::sim::raw(protocol), gam::sim::raw(type),
        static_cast<std::uint16_t>(gam::sim::raw(protocol)), data.size());
    t_.try_send(self(), dst, h, data);
  }
  void send_to_set(gam::ProcessSet dst, gam::sim::ProtocolId protocol,
                   gam::sim::MsgType type, gam::sim::Payload data) override {
    for (gam::ProcessId p : dst) send(p, protocol, type, data);
  }
  void trace_fd_query(gam::sim::ProtocolId, gam::sim::DetectorClass) override {}

 private:
  gam::net::Transport& t_;
};

class SendingActor final : public gam::sim::Actor {
 public:
  void on_step(gam::sim::Context& ctx, const gam::sim::Message*) override {
    volatile std::uint64_t spin = 0;
    for (int i = 0; i < 20000; ++i) spin = spin + static_cast<std::uint64_t>(i);
    gam::ProcessSet both;
    both.insert(0);
    both.insert(1);
    ctx.send_to_set(both, gam::sim::protocol_id(7), gam::sim::MsgType{1},
                    {1, 2, 3});
    for (int i = 0; i < 20000; ++i) spin = spin + static_cast<std::uint64_t>(i);
  }
};

TEST(Spans, SelfTimeIsTheStepMinusItsNestedTransportCalls) {
  gam::net::InProcTransport inner(2);
  std::vector<ProcTrace> procs(2);
  TracingTransport transport(inner, procs);
  TracingActor actor(std::make_unique<SendingActor>(), procs[0]);
  TransportContext ctx(transport, 0);
  actor.on_step(ctx, nullptr);  // step 0 is sampled: it gets a span

  const ProcTrace& c = procs[0];
  ASSERT_EQ(c.steps, 1u);
  EXPECT_EQ(c.ctx_sends, 2u);  // send_to_set fan-out
  EXPECT_EQ(c.sends, 2u);
  const auto& spans = c.spans.spans();
  ASSERT_EQ(spans.size(), 3u);
  const Span& step = spans[0];
  EXPECT_EQ(step.name, SpanName::kIdleStep);
  std::vector<Span> children;
  for (const Span& s : spans)
    if (s.parent == 0) children.push_back(s);
  ASSERT_EQ(children.size(), 2u);
  for (const Span& s : children) EXPECT_EQ(s.name, SpanName::kSend);
  const std::uint64_t child_ns = children[0].duration() + children[1].duration();
  EXPECT_EQ(covered_ns(step, children), child_ns);
  EXPECT_EQ(self_ns(step, children), step.duration() - child_ns);
  EXPECT_EQ(c.step_self_ns, self_ns(step, children));
  EXPECT_EQ(c.idle_self_ns, c.step_self_ns);
  EXPECT_EQ(c.nested_transport_ns, child_ns);
}

TEST(Spans, OverlappingAndOverhangingChildrenCountOnce) {
  const Span parent{100, 200, 0, -1, SpanName::kStep};
  const std::vector<Span> kids = {{110, 130, 0, 0, SpanName::kSend},
                                  {120, 150, 0, 0, SpanName::kSend},
                                  {190, 210, 0, 0, SpanName::kPoll},
                                  {50, 60, 0, 0, SpanName::kPoll}};
  EXPECT_EQ(covered_ns(parent, kids), 50u);  // [110,150) + [190,200)
  EXPECT_EQ(self_ns(parent, kids), 50u);
}

TEST(Failures, FailedFracCountsUndeliveredOpsAndMissesEveryLimit) {
  Outcome a;
  a.attempted = 8;
  a.failed = 2;
  EXPECT_DOUBLE_EQ(a.failed_frac(), 0.25);
  EXPECT_FALSE(a.correct());
  Outcome b;
  b.attempted = 12;
  a.add(b);
  EXPECT_DOUBLE_EQ(a.failed_frac(), 0.1);
  Outcome clean;
  clean.attempted = 5;
  EXPECT_TRUE(clean.correct());
  EXPECT_FALSE(Outcome{}.correct());  // nothing attempted is not a pass

  // A lagging replica is no safety violation, but the ops it lacks fail.
  const OpIds ids(5);
  std::vector<std::int64_t> r0, r1;
  for (std::uint64_t i = 0; i < 10; ++i) r0.push_back(ids.id(0, i));
  r1.assign(r0.begin(), r0.begin() + 7);
  const SequenceCheck chk = check_group_sequences({&r0, &r1}, ids, 0, 10);
  EXPECT_TRUE(chk.safety_ok) << chk.error;
  EXPECT_EQ(chk.delivered_everywhere, 7u);

  // Failed ops take the missed sentinel, so with more than 0.1% of them
  // p999 reports a miss rather than a fast value.
  std::vector<std::uint64_t> lat(1000, 100);
  lat[3] = op_latency(50, {120, 0});
  lat[9] = kMissed;
  EXPECT_EQ(lat[3], kMissed);
  EXPECT_EQ(quantile(lat, 0.999), kMissed);
  EXPECT_EQ(quantile(lat, 0.5), 100u);
}

TEST(Failures, CheckerRejectsViolatingSequences) {
  const OpIds ids(11);
  std::vector<std::int64_t> good;
  for (std::uint64_t i = 0; i < 6; ++i) good.push_back(ids.id(1, i));
  EXPECT_TRUE(check_group_sequences({&good, &good}, ids, 1, 6).safety_ok);
  EXPECT_EQ(check_group_sequences({&good, &good}, ids, 1, 6).delivered_everywhere, 6u);

  auto swapped = good;
  std::swap(swapped[2], swapped[3]);
  EXPECT_FALSE(check_group_sequences({&good, &swapped}, ids, 1, 6).safety_ok);

  auto dup = good;
  dup[4] = dup[1];
  EXPECT_FALSE(check_group_sequences({&dup, &dup}, ids, 1, 6).safety_ok);

  auto foreign = good;
  foreign[5] = ids.id(0, 5);  // another group's op
  EXPECT_FALSE(check_group_sequences({&foreign, &foreign}, ids, 1, 6).safety_ok);

  auto unsubmitted = good;
  unsubmitted.push_back(ids.id(1, 6));  // index 6 was never submitted
  EXPECT_FALSE(
      check_group_sequences({&unsubmitted, &unsubmitted}, ids, 1, 6).safety_ok);
}

TEST(OpIdsTest, BijectiveAndNamespacedPerGroup) {
  const OpIds ids(42);
  for (std::uint64_t i : {0ull, 1ull, 2ull, 1000ull, (1ull << 40) - 1}) {
    for (int g : {0, 1, 3}) {
      const std::int64_t id = ids.id(g, i);
      EXPECT_EQ(ids.index(g, id), i);
      EXPECT_FALSE(ids.index(g + 1, id).has_value());
    }
  }
  EXPECT_NE(OpIds(1).id(0, 5), OpIds(2).id(0, 5));
}

TEST(Latency, DueTimeLatencyIncludesGeneratorLateness) {
  // Op due at 1000, submitted late at 1400, delivered at 1500 and 1700: the
  // user waited from 1000, so the 400 ns the generator ran late count.
  const std::uint64_t due = 1000, submit = 1400;
  const std::uint64_t lat = op_latency(due, {1500, 1700});
  EXPECT_EQ(lat, 700u);
  EXPECT_EQ(lat, (submit - due) + op_latency(submit, {1500, 1700}));
  EXPECT_EQ(op_latency(due, {1500, 0}), kMissed);
}

TEST(SimInputsTest, SeedChangesTheInputsAndNothingElse) {
  const SimTopologies topo = SimTopologies::build();
  bool pattern_moved = false, classes_moved = false;
  for (int cell = 0; cell < kSimCellCount; ++cell) {
    for (std::uint64_t index : {0ull, 5ull}) {
      const SimInputs a = sim_inputs(topo, cell, 1, index);
      const SimInputs a2 = sim_inputs(topo, cell, 1, index);
      const SimInputs b = sim_inputs(topo, cell, 2, index);
      // Same seed, same inputs.
      EXPECT_EQ(a.run_seed, a2.run_seed);
      EXPECT_EQ(a.pattern.faulty_set(), a2.pattern.faulty_set());
      ASSERT_EQ(a.workload.size(), a2.workload.size());
      for (std::size_t i = 0; i < a.workload.size(); ++i) {
        EXPECT_EQ(a.workload[i].src, a2.workload[i].src);
        EXPECT_EQ(a.workload[i].conflict_class, a2.workload[i].conflict_class);
      }
      // Another seed: new randomness, same cell shape.
      EXPECT_NE(a.run_seed, b.run_seed);
      EXPECT_EQ(a.options.seed, a.run_seed);
      EXPECT_EQ(b.options.seed, b.run_seed);
      EXPECT_EQ(a.cell, b.cell);
      EXPECT_EQ(a.options.scheduler.kind, b.options.scheduler.kind);
      EXPECT_EQ(a.options.batch_k, b.options.batch_k);
      EXPECT_EQ(a.options.window_size, b.options.window_size);
      EXPECT_EQ(a.options.max_steps, b.options.max_steps);
      ASSERT_EQ(a.workload.size(), b.workload.size());
      for (std::size_t i = 0; i < a.workload.size(); ++i) {
        EXPECT_EQ(a.workload[i].id, b.workload[i].id);
        EXPECT_EQ(a.workload[i].dst, b.workload[i].dst);
        classes_moved |= a.workload[i].conflict_class != b.workload[i].conflict_class;
      }
      if (kSimCells[cell].adversarial)
        pattern_moved |= a.pattern.faulty_set() != b.pattern.faulty_set();
      else
        EXPECT_TRUE(b.pattern.faulty_set().empty());
    }
  }
  EXPECT_TRUE(pattern_moved);
  EXPECT_TRUE(classes_moved);
}

TEST(SimChecked, ConflictAwareSpecOrdersOnlyWithinAClass) {
  using namespace gam::amcast;
  const auto sys = gam::groups::disjoint_system(1, 2);
  const gam::sim::FailurePattern pattern(2);
  auto run_with = [&](std::vector<MsgId> at0, std::vector<MsgId> at1) {
    RunRecord r;
    for (MsgId id : {0, 1, 2}) {
      MulticastMessage m;
      m.id = id;
      m.dst = 0;
      m.src = 0;
      m.conflict_class = id == 1 ? 1 : 0;  // 0 and 2 conflict; 1 commutes
      r.multicast.push_back(m);
      r.multicast_time.push_back(0);
    }
    for (auto [p, order] : {std::pair{0, at0}, std::pair{1, at1}})
      for (std::size_t i = 0; i < order.size(); ++i)
        r.deliveries.push_back({p, order[i], 1, static_cast<std::int64_t>(i)});
    r.active.insert(0);
    r.active.insert(1);
    r.quiescent = true;
    return r;
  };
  // Commuting messages 0 and 1 in opposite orders: fine for generic, a
  // cycle for the classical relation.
  const RunRecord commuting = run_with({0, 1, 2}, {1, 0, 2});
  EXPECT_TRUE(spec_check(commuting, sys, pattern, true).ok);
  EXPECT_FALSE(spec_check(commuting, sys, pattern, false).ok);
  // Conflicting messages 0 and 2 in opposite orders violate both.
  const RunRecord conflicting = run_with({0, 1, 2}, {2, 1, 0});
  EXPECT_FALSE(spec_check(conflicting, sys, pattern, true).ok);
  // A missing delivery still fails Termination.
  const RunRecord lagging = run_with({0, 1, 2}, {0, 1});
  EXPECT_FALSE(spec_check(lagging, sys, pattern, true).ok);
}

TEST(SimChecked, ShortSweepPassesEveryCheckAndTheLedger) {
  SimConfig c;
  c.seconds = 0.3;
  c.warmup_s = 0.05;
  c.workers = 2;
  c.seed = 9;
  c.traced = true;
  const SimResult r = run_sim(c);
  EXPECT_TRUE(r.outcome.correct()) << r.error;
  EXPECT_GT(r.runs_per_s, 0);
  EXPECT_EQ(r.layers.at("sim.genuineness_ledger"), 0);
  EXPECT_GT(r.layers.at("amcast.steps_per_run"), 0);
  EXPECT_GT(r.layers.at("sim.events_per_run"), 0);
}

LiveConfig paced_tcp(bool greedy) {
  LiveConfig c;
  c.tcp = true;
  c.groups = 1;
  c.rate = 50000;
  c.warmup_s = 0.2;
  c.seconds = 1.0;
  c.greedy_client = greedy;
  return c;
}

TEST(LiveClient, PacedTcpP50StaysNearARoundTrip) {
  LiveResult r = run_live(paced_tcp(false));
  ASSERT_TRUE(r.outcome.correct()) << r.error;
  const std::uint64_t p50 = quantile(r.latency_ns, 0.5);
  // A few loopback round trips, not a share of the 1.2 s schedule.
  EXPECT_LT(p50, 5'000'000u) << "p50 " << p50 << " ns";
}

TEST(LiveClient, AClientKeepingTheIdleSlotStarvesTheLog) {
  // gam_loadgen's driver shape: report work after each burst. The log never
  // gets an idle slot while ops keep falling due, so latency grows with the
  // run instead of staying near a round trip.
  LiveResult r = run_live(paced_tcp(true));
  ASSERT_TRUE(r.outcome.safety_ok) << r.error;
  const std::uint64_t p50 = quantile(r.latency_ns, 0.5);
  EXPECT_GT(p50, 100'000'000u) << "p50 " << p50 << " ns";
}

TEST(LiveClient, TracedPacedTcpReportsItsLayers) {
  LiveConfig c = paced_tcp(false);
  c.seconds = 0.5;
  c.traced = true;
  const LiveResult r = run_live(c);
  ASSERT_TRUE(r.outcome.correct()) << r.error;
  for (const char* name :
       {"net.frames_per_mc", "net.bytes_per_mc", "net.send_ns", "net.poll_ns",
        "net.pump_ns", "net.poll_hit_frac", "net.transport_frac",
        "net.wire_wait_p50_us", "net.steps_per_mc", "net.loop_frac",
        "net.setup_ms", "objects.busy_frac", "objects.step_ns",
        "objects.submit_ns", "objects.step_p9999_us", "objects.round_p50_us",
        "objects.sends_per_mc", "fd.queries_per_mc"})
    EXPECT_GT(r.layers.at(name), 0) << name;
  EXPECT_GE(r.layers.at("objects.rounds_per_instance"), 1);
  EXPECT_GE(r.layers.at("objects.ops_per_instance"), 1);
  EXPECT_FALSE(r.lateness_ns.empty());
}

TEST(LiveClient, ClosedLoopInprocDeliversEveryOpInOneOrder) {
  LiveConfig c;
  c.ops_per_group = 20000;
  c.warmup_s = 0.01;
  c.seconds = 0.01;
  c.traced = true;
  const LiveResult r = run_live(c);
  EXPECT_TRUE(r.outcome.correct()) << r.error;
  // At least one warm-up batch and three timed ones, 2 groups each.
  EXPECT_EQ(r.outcome.attempted % (2u * 20000u), 0u);
  EXPECT_GE(r.outcome.attempted, 4u * 2u * 20000u);
  EXPECT_GE(r.batch_mps.size(), 3u);
  EXPECT_GT(r.throughput_mps, 0);
  EXPECT_GT(r.layers.at("net.frames_per_mc"), 0);
  EXPECT_GT(r.layers.at("objects.ops_per_instance"), 1);
}

}  // namespace
}  // namespace perfbench
