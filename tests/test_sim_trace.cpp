// Tests for the structured event-trace layer (src/sim/trace.hpp) and the two
// latent scheduler/buffer bugs it was built to catch:
//   - a send to a destination id >= World::process_count() used to enter the
//     buffer unchecked, put that id into nonempty_set(), and walk the
//     scheduler into actors_ out of bounds (regression: the send must now
//     trip a precondition at the Context boundary);
//   - the two broadcast overloads (Context::send_to_set vs
//     MessageBuffer::send_to_set) used to diverge on StepStats accounting
//     (regression: World::total_stats() must agree whichever path fired).
// Plus: event emission from World runs, payload sensitivity of the event
// hash, trace file round-trip, and first-divergence localization.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "amcast/replicated_multicast.hpp"
#include "amcast/workload.hpp"
#include "groups/generator.hpp"
#include "sim/run_spec.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"

namespace gam {
namespace {

using sim::Actor;
using sim::Context;
using sim::Message;
using sim::RecorderSink;
using sim::TraceEvent;
using sim::TraceEventKind;

size_t count_kind(const std::vector<TraceEvent>& evs, TraceEventKind k) {
  size_t n = 0;
  for (const auto& e : evs) n += e.kind == k;
  return n;
}

// Forwards a countdown token to `next`; payload carried unchanged.
class Relay : public Actor {
 public:
  explicit Relay(ProcessId next) : next_(next) {}
  void on_step(Context& ctx, const Message* m) override {
    if (m && m->type > 0)
      ctx.send(next_, sim::protocol_id(7), sim::msg_type(m->type - 1), m->data);
  }

 private:
  ProcessId next_;
};

// Takes exactly one idle (null-message) step, sending a fixed payload.
class OneShotSender : public Actor {
 public:
  OneShotSender(ProcessId dst, std::int64_t word) : dst_(dst), word_(word) {}
  void on_step(Context& ctx, const Message*) override {
    if (sent_) return;
    sent_ = true;
    ctx.send(dst_, sim::protocol_id(1), sim::msg_type(1), {word_});
  }
  bool wants_step() const override { return !sent_; }

 private:
  ProcessId dst_;
  std::int64_t word_;
  bool sent_ = false;
};

// ---------------------------------------------------------------------------
// Sinks.

TEST(TraceSinks, RecorderAndHasherAgree) {
  RecorderSink rec;
  sim::HashingSink hash;
  for (int i = 0; i < 10; ++i) {
    TraceEvent e;
    e.t = static_cast<sim::Time>(i);
    e.p = i % 3;
    e.kind = i % 2 ? TraceEventKind::kSend : TraceEventKind::kReceive;
    e.payload_hash = static_cast<std::uint64_t>(i) * 17;
    rec.on_event(e);
    hash.on_event(e);
  }
  EXPECT_EQ(rec.events().size(), 10u);
  EXPECT_EQ(hash.count(), 10u);
  EXPECT_EQ(rec.hash(), hash.hash());
  EXPECT_EQ(rec.hash(), sim::hash_events(rec.events()));
}

TEST(TraceSinks, RingKeepsLastNInOrder) {
  sim::RingSink ring(4);
  for (int i = 0; i < 11; ++i) {
    TraceEvent e;
    e.arg = i;
    ring.on_event(e);
  }
  EXPECT_EQ(ring.total(), 11u);
  auto w = ring.snapshot();
  ASSERT_EQ(w.size(), 4u);
  for (size_t i = 0; i < w.size(); ++i)
    EXPECT_EQ(w[i].arg, static_cast<std::int64_t>(7 + i));
}

// ---------------------------------------------------------------------------
// World emission.

TEST(WorldTrace, RelayRunEmitsTypedStream) {
  RecorderSink rec;
  sim::Scenario sc(sim::RunSpec{}.processes(3).seed(5).trace(&rec));
  sim::World& world = sc.world();
  for (ProcessId p = 0; p < 3; ++p)
    world.install(p, std::make_unique<Relay>((p + 1) % 3));
  Message kick;
  kick.src = 0;
  kick.dst = 1;
  kick.type = 4;
  kick.data = sim::Payload{42};
  world.buffer().send(std::move(kick));
  ASSERT_TRUE(world.run_until_quiescent(1000));

  // 5 sends (kick + 4 hops), 5 receives, no null steps, no crashes.
  const auto& evs = rec.events();
  EXPECT_EQ(count_kind(evs, TraceEventKind::kSend), 5u);
  EXPECT_EQ(count_kind(evs, TraceEventKind::kReceive), 5u);
  EXPECT_EQ(count_kind(evs, TraceEventKind::kNullStep), 0u);
  EXPECT_EQ(count_kind(evs, TraceEventKind::kCrash), 0u);
  // The payload word rides along every hop and is folded into each event.
  std::uint64_t expected = sim::hash_payload(sim::Payload{42});
  for (const auto& e : evs) EXPECT_EQ(e.payload_hash, expected);
  // Every receive is preceded by the matching send (same type countdown).
  ASSERT_GE(evs.size(), 2u);
  EXPECT_EQ(evs[0].kind, TraceEventKind::kSend);
  EXPECT_EQ(evs[0].p, 0);
  EXPECT_EQ(evs[0].peer, 1);
}

TEST(WorldTrace, NullStepAndCrashEmitted) {
  sim::FailurePattern pat(2);
  pat.crash_at(1, 0);
  RecorderSink rec;
  sim::Scenario sc(sim::RunSpec{}.failures(pat).seed(3).trace(&rec));
  sim::World& world = sc.world();
  world.install(0, std::make_unique<OneShotSender>(0, 9));
  // A message pending for the crashed p1 makes it a scheduling candidate, so
  // the crash becomes observable (and must be emitted exactly once).
  Message doomed;
  doomed.src = 0;
  doomed.dst = 1;
  doomed.type = 0;
  world.buffer().send(std::move(doomed));
  ASSERT_TRUE(world.run_until_quiescent(1000));
  const auto& evs = rec.events();
  EXPECT_EQ(count_kind(evs, TraceEventKind::kNullStep), 1u);
  EXPECT_EQ(count_kind(evs, TraceEventKind::kCrash), 1u);
  for (const auto& e : evs)
    if (e.kind == TraceEventKind::kCrash) {
      EXPECT_EQ(e.p, 1);
      EXPECT_EQ(e.arg, 0);  // crash time
    }
}

TEST(WorldTrace, DisabledSinkRunsIdentically) {
  // The traced and untraced executions of one seed must not diverge: tracing
  // is observation only.
  auto run = [](sim::TraceSink* sink) {
    sim::Scenario sc(sim::RunSpec{}.processes(3).seed(11).trace(sink));
    sim::World& world = sc.world();
    for (ProcessId p = 0; p < 3; ++p)
      world.install(p, std::make_unique<Relay>((p + 1) % 3));
    Message kick;
    kick.src = 0;
    kick.dst = 0;
    kick.type = 10;
    world.buffer().send(std::move(kick));
    world.run_until_quiescent(1000);
    return world.total_stats();
  };
  sim::HashingSink h;
  auto with = run(&h);
  auto without = run(nullptr);
  EXPECT_GT(h.count(), 0u);
  EXPECT_EQ(with.steps, without.steps);
  EXPECT_EQ(with.messages_sent, without.messages_sent);
  EXPECT_EQ(with.messages_received, without.messages_received);
}

// ---------------------------------------------------------------------------
// Regression: out-of-bounds destination. Before this PR the send below was
// accepted, put pid 5 into nonempty_set(), and the candidate walk indexed
// actors_[5] in a 3-process world — an out-of-bounds read under ASan. It must
// now die at the Context::send boundary.

using WorldTraceDeathTest = ::testing::Test;

TEST(WorldTraceDeathTest, SendPastProcessCountTripsPrecondition) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Scenario sc(sim::RunSpec{}.processes(3).seed(1));
  sim::WorldContext ctx(sc.world(), 0, 0);
  EXPECT_DEATH(ctx.send(5, sim::protocol_id(1), sim::msg_type(1), {}),
               "Precondition violated");
  EXPECT_DEATH(ctx.send(-1, sim::protocol_id(1), sim::msg_type(1), {}),
               "Precondition violated");
  EXPECT_DEATH(ctx.send_to_set(ProcessSet{0, 4}, sim::protocol_id(1),
                               sim::msg_type(1), {}),
               "Precondition violated");
}

TEST(WorldTrace, InRangeInjectedSendStaysInert) {
  // Direct buffer injection for an id in [0, process_count) without an actor
  // must neither crash nor spin (defensive candidate masking).
  sim::Scenario sc(sim::RunSpec{}.processes(3).seed(1));
  sim::World& world = sc.world();
  world.install(0, std::make_unique<Relay>(1));
  Message m;
  m.src = 0;
  m.dst = 2;  // no actor installed at p2
  m.type = 3;
  world.buffer().send(std::move(m));
  EXPECT_TRUE(world.run_until_quiescent(100));
  EXPECT_EQ(world.buffer().pending_for(2), 1u);
}

// ---------------------------------------------------------------------------
// Regression: messages_sent accounting must agree across the two broadcast
// overloads. Before this PR the MessageBuffer::send_to_set path bypassed
// StepStats entirely, so totals depended on which overload a protocol called.

class CtxBroadcaster : public Actor {
 public:
  void on_step(Context& ctx, const Message*) override {
    if (done_) return;
    done_ = true;
    ctx.send_to_set(ProcessSet{0, 1, 2}, sim::protocol_id(4),
                    sim::msg_type(1), {1, 2});
  }
  bool wants_step() const override { return !done_; }

 private:
  bool done_ = false;
};

class BufBroadcaster : public Actor {
 public:
  void on_step(Context&, const Message*) override {}
};

TEST(StepStats, BroadcastPathsAgreeOnMessagesSent) {
  sim::Scenario sc_ctx(sim::RunSpec{}.processes(3).seed(1));
  sim::World& via_ctx = sc_ctx.world();
  via_ctx.install(0, std::make_unique<CtxBroadcaster>());
  for (ProcessId p = 1; p < 3; ++p)
    via_ctx.install(p, std::make_unique<BufBroadcaster>());
  ASSERT_TRUE(via_ctx.run_until_quiescent(100));

  sim::Scenario sc_buf(sim::RunSpec{}.processes(3).seed(1));
  sim::World& via_buf = sc_buf.world();
  for (ProcessId p = 0; p < 3; ++p)
    via_buf.install(p, std::make_unique<BufBroadcaster>());
  Message proto;
  proto.src = 0;
  proto.protocol = 4;
  proto.type = 1;
  proto.data = sim::Payload{1, 2};
  via_buf.buffer().send_to_set(std::move(proto), ProcessSet{0, 1, 2});
  ASSERT_TRUE(via_buf.run_until_quiescent(100));

  EXPECT_EQ(via_ctx.total_stats().messages_sent, 3u);
  EXPECT_EQ(via_buf.total_stats().messages_sent, 3u);
  EXPECT_EQ(via_ctx.stats(0).messages_sent, via_buf.stats(0).messages_sent);
  // The copy/move accounting must agree too (move-on-last-recipient).
  EXPECT_EQ(via_ctx.buffer().alloc_stats().moved_sends, 1u);
  EXPECT_EQ(via_buf.buffer().alloc_stats().moved_sends, 1u);
  EXPECT_EQ(via_ctx.buffer().alloc_stats().inline_payloads, 3u);
  EXPECT_EQ(via_buf.buffer().alloc_stats().inline_payloads, 3u);
}

// ---------------------------------------------------------------------------
// Determinism-hash strength: a payload-only mutation must flip the event
// hash. (The old delivery-id fold collided on these runs — same ids, same
// timing, different content.)

TEST(TraceHash, PayloadOnlyMutationFlipsEventHash) {
  auto run = [](std::int64_t word) {
    sim::HashingSink h;
    sim::Scenario sc(sim::RunSpec{}.processes(2).seed(7).trace(&h));
    sim::World& world = sc.world();
    world.install(0, std::make_unique<OneShotSender>(1, word));
    world.install(1, std::make_unique<BufBroadcaster>());
    world.run_until_quiescent(100);
    return h.hash();
  };
  EXPECT_NE(run(1), run(2));
  EXPECT_EQ(run(1), run(1));
}

// ---------------------------------------------------------------------------
// Serialization round-trip + divergence localization.

TEST(TraceFile, RoundTripsThroughDisk) {
  RecorderSink rec;
  sim::Scenario sc(sim::RunSpec{}.processes(3).seed(13).trace(&rec));
  sim::World& world = sc.world();
  for (ProcessId p = 0; p < 3; ++p)
    world.install(p, std::make_unique<Relay>((p + 1) % 3));
  Message kick;
  kick.src = 2;
  kick.dst = 0;
  kick.type = 6;
  kick.data = sim::Payload{-3, 1 << 20};
  world.buffer().send(std::move(kick));
  ASSERT_TRUE(world.run_until_quiescent(1000));
  ASSERT_FALSE(rec.events().empty());

  std::string path = "test_sim_trace_roundtrip.tmp";
  ASSERT_TRUE(rec.write(path));
  auto loaded = sim::load_trace(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, rec.events());
  EXPECT_EQ(sim::hash_events(*loaded), rec.hash());
  EXPECT_FALSE(sim::first_divergence(*loaded, rec.events()).has_value());
}

TEST(TraceFile, RejectsGarbage) {
  std::string path = "test_sim_trace_garbage.tmp";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("not a trace\n", f);
  std::fclose(f);
  EXPECT_FALSE(sim::load_trace(path).has_value());
  std::remove(path.c_str());
  EXPECT_FALSE(sim::load_trace("does_not_exist.trace").has_value());
}

TEST(TraceDiff, LocalizesFirstDivergentEvent) {
  std::vector<TraceEvent> a, b;
  for (int i = 0; i < 10; ++i) {
    TraceEvent e;
    e.t = static_cast<sim::Time>(i);
    e.p = 0;
    e.kind = TraceEventKind::kSend;
    e.arg = i;
    a.push_back(e);
    b.push_back(e);
  }
  EXPECT_FALSE(sim::first_divergence(a, b).has_value());

  b[6].payload_hash = 99;  // content-only change
  auto div = sim::first_divergence(a, b);
  ASSERT_TRUE(div.has_value());
  EXPECT_EQ(*div, 6u);
  std::string report = sim::render_divergence(a, b, *div);
  EXPECT_NE(report.find("first divergence at event 6"), std::string::npos);
  EXPECT_NE(report.find("A>"), std::string::npos);
  EXPECT_NE(report.find("B>"), std::string::npos);

  // One stream being a strict prefix of the other diverges at its end.
  b = a;
  b.resize(4);
  div = sim::first_divergence(a, b);
  ASSERT_TRUE(div.has_value());
  EXPECT_EQ(*div, 4u);
  EXPECT_NE(sim::render_divergence(a, b, *div).find("<end of stream>"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: a World-backed protocol run produces all event kinds, and the
// delivery events interleave with the wire traffic that caused them.

TEST(WorldTrace, ReplicatedRunEmitsFdQueriesAndDeliveries) {
  auto sys = groups::disjoint_system(2, 3);
  sim::FailurePattern pat(sys.process_count());
  amcast::ReplicatedMulticast rm(sys, pat, {.seed = 3});
  RecorderSink rec;
  rm.set_event_sink(&rec);
  for (auto& m : amcast::round_robin_workload(sys, 2)) rm.submit(m);
  auto record = rm.run();
  ASSERT_TRUE(record.quiescent);
  ASSERT_FALSE(record.deliveries.empty());

  const auto& evs = rec.events();
  EXPECT_GT(count_kind(evs, TraceEventKind::kSend), 0u);
  EXPECT_GT(count_kind(evs, TraceEventKind::kReceive), 0u);
  EXPECT_GT(count_kind(evs, TraceEventKind::kFdQuery), 0u);
  EXPECT_EQ(count_kind(evs, TraceEventKind::kDeliver),
            record.deliveries.size());
  // Per-process wire accounting matches the send events in the stream.
  std::uint64_t send_events = count_kind(evs, TraceEventKind::kSend);
  EXPECT_EQ(send_events, rm.wire_messages());
}

}  // namespace
}  // namespace gam
