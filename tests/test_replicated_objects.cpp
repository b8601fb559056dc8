// Tests for the message-passing object constructions: ABD registers and
// adopt-commit from Σ, indulgent consensus and the universal log from Ω ∧ Σ,
// and the contention-free fast consensus behind Proposition 47.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "fd/detectors.hpp"
#include "objects/abd_register.hpp"
#include "objects/cf_consensus.hpp"
#include "objects/protocol_host.hpp"
#include "objects/quorum_store.hpp"
#include "objects/run_set.hpp"
#include "objects/universal_log.hpp"
#include "sim/run_spec.hpp"
#include "sim/spans.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace gam::objects {
namespace {

using sim::FailurePattern;

struct Fixture {
  // `scope` processes replicate one QuorumStore under protocol id `pid`.
  Fixture(FailurePattern pat, std::uint64_t seed)
      : pattern(std::move(pat)),
        scenario(sim::RunSpec{}.failures(pattern).seed(seed)),
        world(scenario.world()) {
    hosts = install_hosts(world);
  }

  std::shared_ptr<QuorumStore> add_store(std::int32_t pid, ProcessId p,
                                         ProcessSet scope,
                                         const fd::SigmaOracle& sigma) {
    auto s =
        std::make_shared<QuorumStore>(sim::protocol_id(pid), p, scope, sigma);
    hosts[static_cast<size_t>(p)]->add(sim::protocol_id(pid), s);
    return s;
  }

  FailurePattern pattern;
  sim::Scenario scenario;
  sim::World& world;
  std::vector<ProtocolHost*> hosts;
};

// ---- QuorumStore / AbdRegister ------------------------------------------------

TEST(QuorumStore, WriteThenSnapshotSeesValue) {
  FailurePattern pat(3);
  Fixture fx(pat, 1);
  ProcessSet scope = ProcessSet::universe(3);
  fd::SigmaOracle sigma(fx.pattern, scope);
  std::vector<std::shared_ptr<QuorumStore>> stores;
  for (ProcessId p = 0; p < 3; ++p)
    stores.push_back(fx.add_store(1, p, scope, sigma));

  bool wrote = false;
  stores[0]->write(7, 1, 42, [&] { wrote = true; });
  ASSERT_TRUE(fx.world.run_until_quiescent(50'000));
  EXPECT_TRUE(wrote);

  std::optional<QuorumStore::Snapshot> snap;
  stores[1]->snapshot([&](const QuorumStore::Snapshot& s) { snap = s; });
  ASSERT_TRUE(fx.world.run_until_quiescent(50'000));
  ASSERT_TRUE(snap.has_value());
  ASSERT_TRUE(snap->count(7));
  EXPECT_EQ(snap->at(7).value, 42);
}

TEST(QuorumStore, HigherTimestampWins) {
  FailurePattern pat(3);
  Fixture fx(pat, 2);
  ProcessSet scope = ProcessSet::universe(3);
  fd::SigmaOracle sigma(fx.pattern, scope);
  std::vector<std::shared_ptr<QuorumStore>> stores;
  for (ProcessId p = 0; p < 3; ++p)
    stores.push_back(fx.add_store(1, p, scope, sigma));

  stores[0]->write(0, 5, 100, [] {});
  ASSERT_TRUE(fx.world.run_until_quiescent(50'000));
  stores[1]->write(0, 3, 200, [] {});  // stale timestamp: must not clobber
  ASSERT_TRUE(fx.world.run_until_quiescent(50'000));

  std::optional<QuorumStore::Snapshot> snap;
  stores[2]->snapshot([&](const QuorumStore::Snapshot& s) { snap = s; });
  ASSERT_TRUE(fx.world.run_until_quiescent(50'000));
  EXPECT_EQ(snap->at(0).value, 100);
}

TEST(QuorumStore, SurvivesMinorityCrash) {
  FailurePattern pat(3);
  pat.crash_at(2, 0);
  Fixture fx(pat, 3);
  ProcessSet scope = ProcessSet::universe(3);
  fd::SigmaOracle sigma(fx.pattern, scope);
  std::vector<std::shared_ptr<QuorumStore>> stores;
  for (ProcessId p = 0; p < 3; ++p)
    stores.push_back(fx.add_store(1, p, scope, sigma));

  bool wrote = false;
  stores[0]->write(1, 1, 7, [&] { wrote = true; });
  ASSERT_TRUE(fx.world.run_until_quiescent(50'000));
  EXPECT_TRUE(wrote);
}

TEST(AbdRegister, ReadsLastWrite) {
  FailurePattern pat(3);
  Fixture fx(pat, 4);
  ProcessSet scope = ProcessSet::universe(3);
  fd::SigmaOracle sigma(fx.pattern, scope);
  std::vector<std::shared_ptr<QuorumStore>> stores;
  for (ProcessId p = 0; p < 3; ++p)
    stores.push_back(fx.add_store(1, p, scope, sigma));

  AbdRegister w0(stores[0], 0), w1(stores[1], 1), r2(stores[2], 2);
  bool done = false;
  w0.write(11, [&] { done = true; });
  ASSERT_TRUE(fx.world.run_until_quiescent(50'000));
  ASSERT_TRUE(done);
  w1.write(22, [&] {});
  ASSERT_TRUE(fx.world.run_until_quiescent(50'000));

  std::optional<std::int64_t> got;
  r2.read([&](std::optional<std::int64_t> v) { got = *v; });
  ASSERT_TRUE(fx.world.run_until_quiescent(50'000));
  EXPECT_EQ(got, 22);
}

TEST(AbdRegister, EmptyRegisterReadsNothing) {
  FailurePattern pat(2);
  Fixture fx(pat, 5);
  ProcessSet scope = ProcessSet::universe(2);
  fd::SigmaOracle sigma(fx.pattern, scope);
  auto s0 = fx.add_store(1, 0, scope, sigma);
  fx.add_store(1, 1, scope, sigma);
  AbdRegister r(s0, 0);
  bool called = false;
  std::optional<std::int64_t> got = 99;
  r.read([&](std::optional<std::int64_t> v) {
    called = true;
    got = v;
  });
  ASSERT_TRUE(fx.world.run_until_quiescent(50'000));
  EXPECT_TRUE(called);
  EXPECT_FALSE(got.has_value());
}

// ---- QuorumAdoptCommit ---------------------------------------------------------

TEST(QuorumAdoptCommit, SoloProposerCommits) {
  FailurePattern pat(3);
  Fixture fx(pat, 6);
  ProcessSet scope = ProcessSet::universe(3);
  fd::SigmaOracle sigma(fx.pattern, scope);
  auto s0 = fx.add_store(1, 0, scope, sigma);
  fx.add_store(1, 1, scope, sigma);
  fx.add_store(1, 2, scope, sigma);
  QuorumAdoptCommit ac(s0, 0);
  std::optional<QuorumAdoptCommit::Outcome> out;
  ac.propose(9, [&](QuorumAdoptCommit::Outcome o) { out = o; });
  ASSERT_TRUE(fx.world.run_until_quiescent(50'000));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->grade, QuorumAdoptCommit::Grade::kCommit);
  EXPECT_EQ(out->value, 9);
}

TEST(QuorumAdoptCommit, SequentialSameValueAllCommit) {
  FailurePattern pat(3);
  Fixture fx(pat, 7);
  ProcessSet scope = ProcessSet::universe(3);
  fd::SigmaOracle sigma(fx.pattern, scope);
  std::vector<std::shared_ptr<QuorumStore>> stores;
  for (ProcessId p = 0; p < 3; ++p)
    stores.push_back(fx.add_store(1, p, scope, sigma));
  for (ProcessId p = 0; p < 3; ++p) {
    QuorumAdoptCommit ac(stores[static_cast<size_t>(p)], p);
    std::optional<QuorumAdoptCommit::Outcome> out;
    ac.propose(4, [&](QuorumAdoptCommit::Outcome o) { out = o; });
    ASSERT_TRUE(fx.world.run_until_quiescent(50'000));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->grade, QuorumAdoptCommit::Grade::kCommit);
    EXPECT_EQ(out->value, 4);
  }
}

TEST(QuorumAdoptCommit, ConcurrentConflictNeverCommitsTwoValues) {
  // Across many seeds, run two concurrent conflicting proposals; AC-agreement
  // demands that if any process commits v, every returned value equals v.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    FailurePattern pat(3);
    Fixture fx(pat, seed);
    ProcessSet scope = ProcessSet::universe(3);
    fd::SigmaOracle sigma(fx.pattern, scope);
    std::vector<std::shared_ptr<QuorumStore>> stores;
    for (ProcessId p = 0; p < 3; ++p)
      stores.push_back(fx.add_store(1, p, scope, sigma));
    QuorumAdoptCommit ac0(stores[0], 0), ac1(stores[1], 1);
    std::optional<QuorumAdoptCommit::Outcome> o0, o1;
    ac0.propose(10, [&](QuorumAdoptCommit::Outcome o) { o0 = o; });
    ac1.propose(20, [&](QuorumAdoptCommit::Outcome o) { o1 = o; });
    ASSERT_TRUE(fx.world.run_until_quiescent(100'000));
    ASSERT_TRUE(o0 && o1);
    EXPECT_TRUE(o0->value == 10 || o0->value == 20);
    EXPECT_TRUE(o1->value == 10 || o1->value == 20);
    bool commit0 = o0->grade == QuorumAdoptCommit::Grade::kCommit;
    bool commit1 = o1->grade == QuorumAdoptCommit::Grade::kCommit;
    if (commit0) {
      EXPECT_EQ(o1->value, o0->value) << "seed " << seed;
    }
    if (commit1) {
      EXPECT_EQ(o0->value, o1->value) << "seed " << seed;
    }
  }
}

// ---- IndulgentConsensus ----------------------------------------------------------

TEST(IndulgentConsensus, AllProposersAgree) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    FailurePattern pat(3);
    Fixture fx(pat, seed);
    ProcessSet scope = ProcessSet::universe(3);
    fd::SigmaOracle sigma(fx.pattern, scope);
    fd::OmegaOracle omega(fx.pattern, scope);
    std::vector<std::shared_ptr<IndulgentConsensus>> cons;
    for (ProcessId p = 0; p < 3; ++p) {
      auto c = std::make_shared<IndulgentConsensus>(sim::protocol_id(2), p,
                                                    scope, sigma, omega);
      fx.hosts[static_cast<size_t>(p)]->add(sim::protocol_id(2), c);
      cons.push_back(c);
    }
    std::vector<std::optional<std::int64_t>> got(3);
    for (ProcessId p = 0; p < 3; ++p)
      cons[static_cast<size_t>(p)]->propose(
          100 + p, [&got, p](std::int64_t v) { got[static_cast<size_t>(p)] = v; });
    ASSERT_TRUE(fx.world.run_until_quiescent(200'000)) << "seed " << seed;
    ASSERT_TRUE(got[0] && got[1] && got[2]) << "seed " << seed;
    EXPECT_EQ(*got[0], *got[1]);
    EXPECT_EQ(*got[1], *got[2]);
    EXPECT_GE(*got[0], 100);
    EXPECT_LE(*got[0], 102);
  }
}

TEST(IndulgentConsensus, DecidesDespiteMinorityCrash) {
  FailurePattern pat(3);
  pat.crash_at(0, 10);  // p0 is the initial Ω leader: the worst victim
  Fixture fx(pat, 77);
  ProcessSet scope = ProcessSet::universe(3);
  fd::SigmaOracle sigma(fx.pattern, scope);
  fd::OmegaOracle omega(fx.pattern, scope);
  std::vector<std::shared_ptr<IndulgentConsensus>> cons;
  for (ProcessId p = 0; p < 3; ++p) {
    auto c = std::make_shared<IndulgentConsensus>(sim::protocol_id(2), p,
                                                  scope, sigma, omega);
    fx.hosts[static_cast<size_t>(p)]->add(sim::protocol_id(2), c);
    cons.push_back(c);
  }
  std::optional<std::int64_t> got1, got2;
  cons[1]->propose(1, [&](std::int64_t v) { got1 = v; });
  cons[2]->propose(2, [&](std::int64_t v) { got2 = v; });
  ASSERT_TRUE(fx.world.run_until_quiescent(400'000));
  ASSERT_TRUE(got1 && got2);
  EXPECT_EQ(*got1, *got2);
}

TEST(IndulgentConsensus, NonLeaderProposalReachesDecisionViaForwarding) {
  FailurePattern pat(3);
  Fixture fx(pat, 11);
  ProcessSet scope = ProcessSet::universe(3);
  fd::SigmaOracle sigma(fx.pattern, scope);
  fd::OmegaOracle omega(fx.pattern, scope);  // stable leader: p0
  std::vector<std::shared_ptr<IndulgentConsensus>> cons;
  for (ProcessId p = 0; p < 3; ++p) {
    auto c = std::make_shared<IndulgentConsensus>(sim::protocol_id(2), p,
                                                  scope, sigma, omega);
    fx.hosts[static_cast<size_t>(p)]->add(sim::protocol_id(2), c);
    cons.push_back(c);
  }
  // Only p2 — never the leader — proposes.
  std::optional<std::int64_t> got;
  cons[2]->propose(55, [&](std::int64_t v) { got = v; });
  ASSERT_TRUE(fx.world.run_until_quiescent(200'000));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 55);
}

// ---- UniversalLog ------------------------------------------------------------------

// A replica's learned prefix, recorded through set_on_learn (the log keeps no
// copy of it). Positions must arrive dense and in order.
struct LearnedLog {
  std::vector<std::int64_t> ops;

  void attach(UniversalLog& log) {
    log.set_on_learn([this](std::int64_t op, std::int64_t pos) {
      EXPECT_EQ(pos, static_cast<std::int64_t>(ops.size()));
      ops.push_back(op);
    });
  }
};

TEST(UniversalLog, AllMembersLearnTheSameSequence) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    FailurePattern pat(3);
    Fixture fx(pat, seed * 31);
    ProcessSet scope = ProcessSet::universe(3);
    fd::SigmaOracle sigma(fx.pattern, scope);
    fd::OmegaOracle omega(fx.pattern, scope);
    std::vector<std::shared_ptr<UniversalLog>> logs;
    std::vector<LearnedLog> learned(3);
    for (ProcessId p = 0; p < 3; ++p) {
      auto l = std::make_shared<UniversalLog>(sim::protocol_id(3), p, scope,
                                              sigma, omega);
      fx.hosts[static_cast<size_t>(p)]->add(sim::protocol_id(3), l);
      learned[static_cast<size_t>(p)].attach(*l);
      logs.push_back(l);
    }
    // Each member submits two ops; op values encode (proposer, seq).
    int applied = 0;
    for (ProcessId p = 0; p < 3; ++p)
      for (int k = 0; k < 2; ++k)
        logs[static_cast<size_t>(p)]->submit(
            p * 10 + k, [&](std::int64_t) { ++applied; });
    ASSERT_TRUE(fx.world.run_until_quiescent(400'000)) << "seed " << seed;
    EXPECT_EQ(applied, 6);
    ASSERT_EQ(learned[0].ops.size(), 6u) << "seed " << seed;
    EXPECT_EQ(learned[0].ops, learned[1].ops);
    EXPECT_EQ(learned[1].ops, learned[2].ops);
    // Exactly-once: all six distinct ops appear.
    auto sorted = learned[0].ops;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<std::int64_t>{0, 1, 10, 11, 20, 21}));
  }
}

TEST(UniversalLog, ProgressAfterLeaderCrash) {
  FailurePattern pat(3);
  pat.crash_at(0, 50);
  Fixture fx(pat, 13);
  ProcessSet scope = ProcessSet::universe(3);
  fd::SigmaOracle sigma(fx.pattern, scope);
  fd::OmegaOracle omega(fx.pattern, scope);
  std::vector<std::shared_ptr<UniversalLog>> logs;
  std::vector<LearnedLog> learned(3);
  for (ProcessId p = 0; p < 3; ++p) {
    auto l = std::make_shared<UniversalLog>(sim::protocol_id(3), p, scope,
                                            sigma, omega);
    fx.hosts[static_cast<size_t>(p)]->add(sim::protocol_id(3), l);
    learned[static_cast<size_t>(p)].attach(*l);
    logs.push_back(l);
  }
  int applied = 0;
  logs[1]->submit(100, [&](std::int64_t) { ++applied; });
  logs[2]->submit(200, [&](std::int64_t) { ++applied; });
  ASSERT_TRUE(fx.world.run_until_quiescent(400'000));
  EXPECT_EQ(applied, 2);
  EXPECT_EQ(learned[1].ops, learned[2].ops);
  EXPECT_EQ(learned[1].ops.size(), 2u);
}

TEST(UniversalLog, DuplicateSubmitLearnsOnceAndQuiesces) {
  // Op 7 submitted twice at one replica must be learned once, and its
  // pending twin must go, or the replica keeps wanting steps forever: the
  // leader (p0) would re-propose it, anyone else re-forward it.
  for (ProcessId submitter : {0, 1}) {
    FailurePattern pat(3);
    Fixture fx(pat, 5);
    ProcessSet scope = ProcessSet::universe(3);
    fd::SigmaOracle sigma(fx.pattern, scope);
    fd::OmegaOracle omega(fx.pattern, scope);
    std::vector<std::shared_ptr<UniversalLog>> logs;
    std::vector<LearnedLog> learned(3);
    for (ProcessId p = 0; p < 3; ++p) {
      auto l = std::make_shared<UniversalLog>(sim::protocol_id(3), p, scope,
                                              sigma, omega);
      fx.hosts[static_cast<size_t>(p)]->add(sim::protocol_id(3), l);
      learned[static_cast<size_t>(p)].attach(*l);
      logs.push_back(l);
    }
    int applied = 0;
    for (int i = 0; i < 2; ++i)
      logs[static_cast<size_t>(submitter)]->submit(
          7, [&](std::int64_t) { ++applied; });
    ASSERT_TRUE(fx.world.run_until_quiescent(200'000)) << "p" << submitter;
    for (ProcessId p = 0; p < 3; ++p) {
      EXPECT_EQ(learned[static_cast<size_t>(p)].ops,
                std::vector<std::int64_t>{7})
          << "p" << p;
      EXPECT_FALSE(logs[static_cast<size_t>(p)]->wants_step()) << "p" << p;
    }
    EXPECT_EQ(applied, 1) << "p" << submitter;
  }
}

TEST(UniversalLog, OutOfOrderDecisionsLearnInInstanceOrder) {
  // Regression for the kForward dedup rewrite: decisions arriving out of
  // instance order must still produce the contiguous learned prefix, and a
  // forwarded op must be enqueued exactly once — whether it re-arrives while
  // pending or after it has entered the learned prefix.
  FailurePattern pat(3);
  sim::Scenario sc(sim::RunSpec{}.failures(pat).seed(7));
  sim::WorldContext ctx(sc.world(), 0, 0);
  ProcessSet scope = ProcessSet::universe(3);
  fd::SigmaOracle sigma(pat, scope);
  fd::OmegaOracle omega(pat, scope);
  UniversalLog log(sim::protocol_id(3), 0, scope, sigma, omega);
  LearnedLog learned;
  learned.attach(log);

  auto decide = [](std::int64_t inst, std::int64_t value) {
    sim::Message m;
    m.src = 1;
    m.dst = 0;
    m.protocol = 3;
    m.type = 5;  // kDecide: [inst, value]
    m.data = {inst, value};
    return m;
  };
  auto forward = [](std::int64_t op) {
    sim::Message m;
    m.src = 2;
    m.dst = 0;
    m.protocol = 3;
    m.type = 6;  // kForward: [op]
    m.data = {op};
    return m;
  };

  // Instance 2 decides first: nothing learnable yet.
  log.on_message(ctx, decide(2, 102));
  EXPECT_TRUE(learned.ops.empty());

  // A forwarded op enqueues once; the duplicate is dropped.
  EXPECT_FALSE(log.wants_step());
  log.on_message(ctx, forward(42));
  EXPECT_TRUE(log.wants_step());
  log.on_message(ctx, forward(42));

  // Instance 0 lands: prefix [100]. Instance 1 lands: the buffered decision
  // for instance 2 completes the prefix in one learn cascade.
  log.on_message(ctx, decide(0, 100));
  EXPECT_EQ(learned.ops, (std::vector<std::int64_t>{100}));
  log.on_message(ctx, decide(1, 101));
  EXPECT_EQ(learned.ops, (std::vector<std::int64_t>{100, 101, 102}));

  // Duplicate decision for a learned instance is inert.
  log.on_message(ctx, decide(1, 101));
  EXPECT_EQ(learned.ops.size(), 3u);

  // Forwarding an op that is already in the learned prefix must not enqueue
  // it again (it would be proposed — and decided — twice).
  log.on_message(ctx, forward(101));
  // Drain the only genuinely pending op to expose the state: 42 remains.
  log.on_message(ctx, decide(3, 42));
  EXPECT_EQ(learned.ops, (std::vector<std::int64_t>{100, 101, 102, 42}));
  EXPECT_FALSE(log.wants_step());  // nothing pending: 101 was deduped
}

TEST(UniversalLog, WindowedDuplicateDecisionLearnsOnce) {
  // With a window of instances in flight, competing leaders may decide the
  // same op in two instances. It must enter the learned prefix once, resolve
  // its pending entry once, and a forward of it arriving after the learn
  // must not make it pending again.
  FailurePattern pat(3);
  sim::Scenario sc(sim::RunSpec{}.failures(pat).seed(7));
  sim::WorldContext ctx(sc.world(), 0, 0);
  ProcessSet scope = ProcessSet::universe(3);
  fd::SigmaOracle sigma(pat, scope);
  fd::OmegaOracle omega(pat, scope);
  UniversalLog log(sim::protocol_id(3), 0, scope, sigma, omega, /*batch=*/2,
                   /*window=*/2);
  LearnedLog learned;
  learned.attach(log);
  sim::SpanCollector spans;
  log.set_span_sink(&spans);

  auto decide = [](std::int64_t inst, std::vector<std::int64_t> ops) {
    sim::Message m;
    m.src = 1;
    m.dst = 0;
    m.protocol = 3;
    m.type = 5;  // kDecide: [inst, ops...]
    m.data = {inst};
    for (std::int64_t op : ops) m.data.push_back(op);
    return m;
  };
  auto forward = [](std::int64_t op) {
    sim::Message m;
    m.src = 2;
    m.dst = 0;
    m.protocol = 3;
    m.type = 6;  // kForward: [op]
    m.data = {op};
    return m;
  };
  // (instance, op) of every round driven since the last call.
  auto rounds = [&spans] {
    std::vector<std::pair<std::int64_t, std::int64_t>> out;
    for (const sim::SpanEvent& e : spans.events())
      if (e.kind == sim::SpanKind::kPaxosRound) out.emplace_back(e.a, e.m);
    spans.clear();
    return out;
  };
  using Rounds = std::vector<std::pair<std::int64_t, std::int64_t>>;

  std::map<std::int64_t, std::vector<std::int64_t>> resolved;  // op -> pos
  for (std::int64_t op : {1, 2, 3, 4, 5})
    log.submit(op, [&resolved, op](std::int64_t pos) {
      resolved[op].push_back(pos);
    });

  // Process 0 leads. It fills its window with disjoint batches; op 5 waits.
  rounds();
  EXPECT_TRUE(log.on_idle(ctx));
  if (sim::kMetricsCompiled) {
    EXPECT_EQ(rounds(), (Rounds{{0, 1}, {0, 2}, {1, 3}, {1, 4}}));
  }
  // Until the stall limit nothing is re-driven; then each instance re-claims
  // its own batch, never one another instance holds.
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(log.on_idle(ctx));
  EXPECT_TRUE(log.on_idle(ctx));
  if (sim::kMetricsCompiled) {
    EXPECT_EQ(rounds(), (Rounds{{0, 1}, {0, 2}, {1, 3}, {1, 4}}));
  }

  // A competing leader decided instance 1 with 3 in it, and instance 0 with 3
  // as well. Instance 1 waits behind the hole at 0, then both apply.
  log.on_message(ctx, decide(1, {3, 2, 4}));
  EXPECT_TRUE(learned.ops.empty());
  log.on_message(ctx, decide(0, {1, 3}));
  EXPECT_EQ(learned.ops, (std::vector<std::int64_t>{1, 3, 2, 4}));
  EXPECT_EQ(resolved, (std::map<std::int64_t, std::vector<std::int64_t>>{
                          {1, {0}}, {2, {2}}, {3, {1}}, {4, {3}}}));

  // Op 5 is the only one left; the window's next instance drives it.
  EXPECT_TRUE(log.wants_step());
  EXPECT_TRUE(log.on_idle(ctx));
  if (sim::kMetricsCompiled) {
    EXPECT_EQ(rounds(), (Rounds{{2, 5}}));
  }
  log.on_message(ctx, decide(2, {5}));
  EXPECT_EQ(learned.ops, (std::vector<std::int64_t>{1, 3, 2, 4, 5}));
  EXPECT_EQ(resolved[5], (std::vector<std::int64_t>{4}));
  EXPECT_FALSE(log.wants_step());

  // Late forwards of learned ops are dropped; an unseen op still enqueues.
  log.on_message(ctx, forward(3));
  log.on_message(ctx, forward(5));
  EXPECT_FALSE(log.wants_step());
  log.on_message(ctx, forward(6));
  EXPECT_TRUE(log.wants_step());
}

// ---- RunSet ---------------------------------------------------------------------

// Number of maximal runs of consecutive ids in `ref`.
std::size_t count_runs(const std::set<std::int64_t>& ref) {
  std::size_t runs = 0;
  bool first = true;
  std::int64_t prev = 0;
  for (std::int64_t x : ref) {
    if (first || x - 1 != prev) ++runs;  // x > prev, so x - 1 cannot underflow
    first = false;
    prev = x;
  }
  return runs;
}

// Inserts `xs` into a RunSet and a std::set and checks they agree on every
// insert result, on membership of each id and its neighbours, and on the
// number of runs.
void expect_matches_std_set(const std::vector<std::int64_t>& xs) {
  RunSet set;
  std::set<std::int64_t> ref;
  for (std::int64_t x : xs) {
    ASSERT_EQ(set.insert(x), ref.insert(x).second) << "insert " << x;
  }
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  for (std::int64_t x : xs) {
    EXPECT_TRUE(set.contains(x)) << x;
    if (x != kMin) {
      EXPECT_EQ(set.contains(x - 1), ref.count(x - 1) > 0) << x;
    }
    if (x != kMax) {
      EXPECT_EQ(set.contains(x + 1), ref.count(x + 1) > 0) << x;
    }
  }
  EXPECT_EQ(set.runs(), count_runs(ref));
}

TEST(RunSet, ConsecutiveIdsCostOneRun) {
  std::vector<std::int64_t> up, down, evens_then_odds;
  for (std::int64_t i = 0; i < 1000; ++i) up.push_back(1000 + i);
  for (std::int64_t i = 0; i < 1000; ++i) down.push_back(-1 - i);  // BUMP ops
  for (std::int64_t i = 0; i < 1000; i += 2) evens_then_odds.push_back(i);
  for (std::int64_t i = 1; i < 1000; i += 2) evens_then_odds.push_back(i);
  for (const auto* xs : {&up, &down, &evens_then_odds}) {
    RunSet set;
    for (std::int64_t x : *xs) EXPECT_TRUE(set.insert(x));
    for (std::int64_t x : *xs) EXPECT_FALSE(set.insert(x));
    EXPECT_EQ(set.runs(), 1u);
    expect_matches_std_set(*xs);
  }
}

TEST(RunSet, Int64Extremes) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  RunSet set;
  EXPECT_TRUE(set.insert(kMax));
  EXPECT_TRUE(set.insert(kMin));
  EXPECT_FALSE(set.insert(kMax));
  EXPECT_FALSE(set.insert(kMin));
  EXPECT_TRUE(set.contains(kMax));
  EXPECT_TRUE(set.contains(kMin));
  EXPECT_FALSE(set.contains(0));
  EXPECT_FALSE(set.contains(kMax - 1));
  EXPECT_FALSE(set.contains(kMin + 1));
  EXPECT_EQ(set.runs(), 2u);
  EXPECT_TRUE(set.insert(kMax - 1));  // grows the top run down
  EXPECT_TRUE(set.insert(kMin + 1));  // grows the bottom run up
  EXPECT_EQ(set.runs(), 2u);
  expect_matches_std_set({kMax, kMin, kMax - 1, kMin + 1, kMax - 2, kMin + 2,
                          kMax - 4, kMin + 4, kMax - 3, kMin + 3, 0, -1, 1});
}

TEST(RunSet, MatchesStdSetOnSeededRandomInserts) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<std::int64_t> xs;
    // Dense draws around a few centres — negatives, zero and both int64
    // ends included — so runs form, grow at either end and merge.
    const std::int64_t centres[] = {kMin, -1000, 0, 1000, kMax};
    for (int i = 0; i < 3000; ++i) {
      std::int64_t c = centres[rng.below(5)];
      std::int64_t d = static_cast<std::int64_t>(rng.below(200));
      xs.push_back(c == kMin ? c + d : c == kMax ? c - d : c + d - 100);
    }
    SCOPED_TRACE(seed);
    expect_matches_std_set(xs);
  }
}

// ---- CfFastConsensus (Proposition 47) ------------------------------------------

TEST(CfFastConsensus, ContentionFreeStaysInIntersection) {
  // g = {0,1,2,3}, g∩h = {1,2}. A contention-free propose must complete on
  // the adopt-commit fast path, and only the intersection processes (plus
  // nobody else) take steps.
  FailurePattern pat(4);
  Fixture fx(pat, 17);
  ProcessSet g = ProcessSet::universe(4);
  ProcessSet inter{1, 2};
  fd::SigmaOracle sigma_inter(fx.pattern, inter);
  fd::SigmaOracle sigma_g(fx.pattern, g);
  fd::OmegaOracle omega_g(fx.pattern, g);

  std::vector<std::shared_ptr<QuorumStore>> ac_stores(4);
  std::vector<std::shared_ptr<IndulgentConsensus>> cons(4);
  for (ProcessId p = 0; p < 4; ++p) {
    if (inter.contains(p)) {
      ac_stores[static_cast<size_t>(p)] =
          std::make_shared<QuorumStore>(sim::protocol_id(5), p, inter,
                                        sigma_inter);
      fx.hosts[static_cast<size_t>(p)]->add(sim::protocol_id(5),
                                            ac_stores[static_cast<size_t>(p)]);
    }
    cons[static_cast<size_t>(p)] =
        std::make_shared<IndulgentConsensus>(sim::protocol_id(6), p, g,
                                             sigma_g, omega_g);
    fx.hosts[static_cast<size_t>(p)]->add(sim::protocol_id(6),
                                          cons[static_cast<size_t>(p)]);
  }

  CfFastConsensus cf1(ac_stores[1], 1, cons[1]);
  std::optional<std::int64_t> got;
  cf1.propose(33, [&](std::int64_t v) { got = v; });
  ASSERT_TRUE(fx.world.run_until_quiescent(100'000));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 33);
  EXPECT_TRUE(cf1.took_fast_path());
  // Proposition 47's genuineness: processes outside g∩h never stepped.
  EXPECT_EQ(fx.world.stats(0).steps, 0u);
  EXPECT_EQ(fx.world.stats(3).steps, 0u);
}

TEST(CfFastConsensus, ConflictFallsBackToGroupConsensus) {
  FailurePattern pat(4);
  Fixture fx(pat, 19);
  ProcessSet g = ProcessSet::universe(4);
  ProcessSet inter{1, 2};
  fd::SigmaOracle sigma_inter(fx.pattern, inter);
  fd::SigmaOracle sigma_g(fx.pattern, g);
  fd::OmegaOracle omega_g(fx.pattern, g);

  std::vector<std::shared_ptr<QuorumStore>> ac_stores(4);
  std::vector<std::shared_ptr<IndulgentConsensus>> cons(4);
  for (ProcessId p = 0; p < 4; ++p) {
    if (inter.contains(p)) {
      ac_stores[static_cast<size_t>(p)] =
          std::make_shared<QuorumStore>(sim::protocol_id(5), p, inter,
                                        sigma_inter);
      fx.hosts[static_cast<size_t>(p)]->add(sim::protocol_id(5),
                                            ac_stores[static_cast<size_t>(p)]);
    }
    cons[static_cast<size_t>(p)] =
        std::make_shared<IndulgentConsensus>(sim::protocol_id(6), p, g,
                                             sigma_g, omega_g);
    fx.hosts[static_cast<size_t>(p)]->add(sim::protocol_id(6),
                                          cons[static_cast<size_t>(p)]);
  }

  CfFastConsensus cf1(ac_stores[1], 1, cons[1]);
  CfFastConsensus cf2(ac_stores[2], 2, cons[2]);
  std::optional<std::int64_t> g1, g2;
  cf1.propose(41, [&](std::int64_t v) { g1 = v; });
  cf2.propose(42, [&](std::int64_t v) { g2 = v; });
  ASSERT_TRUE(fx.world.run_until_quiescent(400'000));
  ASSERT_TRUE(g1 && g2);
  EXPECT_EQ(*g1, *g2);
  EXPECT_TRUE(*g1 == 41 || *g1 == 42);
}

}  // namespace
}  // namespace gam::objects
