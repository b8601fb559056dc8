// The Protocol interface / registry arena tests (ISSUE 10):
//
//   - registry sanity: lookup by name and trace base, the names() listing;
//   - cross-protocol agreement: every registered protocol, fed the same
//     conflict-classed workload on a crash-free disjoint topology, produces
//     the same delivery *set* (addressee-complete, exactly-once) — only the
//     order may differ between protocols;
//   - a monitor sweep per protocol over Figure-1-style sampled crash
//     environments (descriptor-compatible: non-crash-tolerant protocols run
//     the crash-free pattern, requires_disjoint protocols run on a disjoint
//     topology, partition-timestamp protocols skip environments that kill a
//     covering partition's majority);
//   - conflict_workload determinism: the same seed yields the same
//     commuting-set partition, rate<=0 yields pairwise-distinct classes,
//     rate 1 a single class;
//   - per-protocol run determinism: same seed, same trace hash;
//   - the adversary axis: every protocol runs under a PCT scheduler.
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "amcast/baselines.hpp"
#include "amcast/protocol.hpp"
#include "amcast/timestamp_multicast.hpp"
#include "amcast/workload.hpp"
#include "groups/generator.hpp"
#include "groups/group_system.hpp"
#include "sim/adversary.hpp"
#include "sim/monitors.hpp"
#include "sim/trace.hpp"

namespace gam::amcast {
namespace {

std::vector<MulticastMessage> classed_workload(const groups::GroupSystem& sys,
                                               double rate, int per_group,
                                               std::uint64_t seed) {
  std::vector<groups::GroupId> targets;
  for (groups::GroupId g = 0; g < sys.group_count(); ++g)
    targets.push_back(g);
  Rng rng(seed);
  return conflict_workload(sys, targets, per_group, rate, rng);
}

bool partitions_majority_alive(const groups::GroupSystem& sys,
                               const sim::FailurePattern& pat) {
  for (const auto& part : PartitionedMulticast::finest_partitions(sys)) {
    int alive = 0;
    for (ProcessId p : part)
      if (!pat.faulty(p)) ++alive;
    if (2 * alive <= part.size()) return false;
  }
  return true;
}

bool uses_partition_logs(const ProtocolDescriptor& d) {
  return d.trace_base == TimestampMulticast::kWhiteBoxTraceBase ||
         d.trace_base == TimestampMulticast::kGenericTraceBase;
}

// ---- registry ---------------------------------------------------------------

TEST(ProtocolRegistry, FindsEveryDescriptorByNameAndListsThem) {
  const auto& reg = ProtocolRegistry::instance();
  ASSERT_GE(reg.all().size(), 5u);
  std::string names = reg.names();
  for (const auto& d : reg.all()) {
    const ProtocolDescriptor* found = reg.find(d.name);
    ASSERT_NE(found, nullptr) << d.name;
    EXPECT_STREQ(found->name, d.name);
    EXPECT_NE(names.find(d.name), std::string::npos) << d.name;
  }
  EXPECT_EQ(reg.find("no-such-protocol"), nullptr);
  // Distinct trace bases resolve back to a descriptor carrying that base
  // (base 0 is shared by the Algorithm-1 family; any member is acceptable).
  for (const auto& d : reg.all())
    EXPECT_EQ(reg.find(d.trace_base)->trace_base, d.trace_base);
}

// ---- cross-protocol agreement ----------------------------------------------

TEST(ProtocolArena, AllProtocolsAgreeOnTheDeliverySet) {
  auto sys = groups::disjoint_system(4, 3);
  sim::FailurePattern pat(sys.process_count());
  auto wl = classed_workload(sys, 0.5, 2, 7);

  std::map<std::string, std::set<std::pair<ProcessId, MsgId>>> delivered;
  for (const auto& d : ProtocolRegistry::instance().all()) {
    ProtocolOptions opt;
    opt.seed = 7;
    auto p = d.make(sys, pat, opt);
    for (const auto& m : wl) p->submit(m);
    RunRecord record = p->run();
    EXPECT_TRUE(record.quiescent) << d.name;
    auto& set = delivered[d.name];
    for (const auto& del : record.deliveries) {
      EXPECT_TRUE(set.emplace(del.p, del.m).second)
          << d.name << ": duplicate delivery of " << del.m << " at " << del.p;
    }
    // Addressee-complete: every member of dst(m) delivers m.
    size_t want = 0;
    for (const auto& m : wl) want += static_cast<size_t>(sys.group(m.dst).size());
    EXPECT_EQ(set.size(), want) << d.name;
  }
  const auto& reference = delivered.begin()->second;
  for (const auto& [name, set] : delivered)
    EXPECT_EQ(set, reference) << name << " vs " << delivered.begin()->first;
}

// ---- monitored crash sweep --------------------------------------------------

TEST(ProtocolArena, MonitorsStayCleanUnderSampledCrashEnvironments) {
  const int kSeeds = 12;
  for (const auto& d : ProtocolRegistry::instance().all()) {
    auto sys = d.requires_disjoint ? groups::disjoint_system(4, 3)
                                   : groups::figure1_system();
    for (int s = 1; s <= kSeeds; ++s) {
      sim::FailurePattern pat(sys.process_count());
      if (d.crash_tolerant) {
        Rng rng(static_cast<std::uint64_t>(s));
        sim::EnvironmentSampler env{.process_count = sys.process_count(),
                                    .max_failures = 2,
                                    .horizon = 100};
        pat = env.sample(rng);
      }
      if (uses_partition_logs(d) && !partitions_majority_alive(sys, pat))
        continue;

      ProtocolOptions opt;
      opt.seed = static_cast<std::uint64_t>(s);
      auto wl = classed_workload(sys, d.conflict_aware ? 0.5 : 1.0, 2,
                                 static_cast<std::uint64_t>(s));
      // A sender crashed at t=0 never multicasts; keep the population uniform
      // by reassigning to an alive destination member (as the arena does).
      for (auto& m : wl) {
        if (!pat.faulty(m.src)) continue;
        for (ProcessId p : sys.group(m.dst))
          if (!pat.faulty(p)) {
            m.src = p;
            break;
          }
      }

      sim::RecorderSink rec;
      auto p = d.make(sys, pat, opt);
      p->set_event_sink(&rec);
      for (const auto& m : wl) p->submit(m);
      RunRecord record = p->run();
      ASSERT_TRUE(record.quiescent) << d.name << " seed " << s;

      sim::MonitorConfig mc;
      for (groups::GroupId g = 0; g < sys.group_count(); ++g)
        mc.groups.push_back(sys.group(g));
      mc.protocol_base = d.trace_base;
      mc.require_multicast = d.emits_multicast_events;
      mc.faulty = pat.faulty_set();
      if (d.conflict_aware)
        for (const auto& m : wl) mc.conflict_class[m.id] = m.conflict_class;
      sim::InvariantMonitors mons(mc);
      sim::feed(mons, rec.events());
      mons.finalize(record.quiescent);
      EXPECT_TRUE(mons.ok())
          << d.name << " seed " << s << ": "
          << sim::format_violation(mons.violations().front());
    }
  }
}

// ---- the adversary axis -------------------------------------------------------

// Every registered protocol takes its schedule from ProtocolOptions::scheduler:
// under PCT each one orders its steps differently from the default, and
// still quiesces with every delivery and clean monitors.
TEST(ProtocolArena, PctReordersEveryProtocol) {
  auto sys = groups::disjoint_system(4, 3);
  sim::FailurePattern pat(sys.process_count());
  for (const auto& d : ProtocolRegistry::instance().all()) {
    auto wl = classed_workload(sys, d.conflict_aware ? 0.5 : 1.0, 2, 1);
    auto run = [&](const sim::SchedulerSpec& sched, sim::RecorderSink& rec) {
      ProtocolOptions opt;
      opt.seed = 1;
      opt.scheduler = sched;
      auto p = d.make(sys, pat, opt);
      p->set_event_sink(&rec);
      for (const auto& m : wl) p->submit(m);
      return p->run();
    };
    sim::RecorderSink random, pct;
    RunRecord by_random = run(sim::random_scheduler(), random);
    RunRecord by_pct = run(sim::pct(3), pct);
    ASSERT_TRUE(by_pct.quiescent) << d.name;
    EXPECT_EQ(by_pct.deliveries.size(), by_random.deliveries.size()) << d.name;
    EXPECT_NE(pct.hash(), random.hash()) << d.name;

    sim::MonitorConfig mc;
    for (groups::GroupId g = 0; g < sys.group_count(); ++g)
      mc.groups.push_back(sys.group(g));
    mc.protocol_base = d.trace_base;
    mc.require_multicast = d.emits_multicast_events;
    if (d.conflict_aware)
      for (const auto& m : wl) mc.conflict_class[m.id] = m.conflict_class;
    sim::InvariantMonitors mons(mc);
    sim::feed(mons, pct.events());
    mons.finalize(by_pct.quiescent);
    EXPECT_TRUE(mons.ok()) << d.name << ": "
                           << sim::format_violation(mons.violations().front());
  }
}

// ---- conflict workload determinism ------------------------------------------

TEST(ConflictWorkload, SameSeedSamePartition) {
  auto sys = groups::disjoint_system(6, 2);
  auto a = classed_workload(sys, 0.5, 4, 42);
  auto b = classed_workload(sys, 0.5, 4, 42);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].conflict_class, b[i].conflict_class);
  }
  // A different seed draws a different partition (overwhelmingly likely for
  // 24 two-way coin flips; pinned here as a regression guard).
  auto c = classed_workload(sys, 0.5, 4, 43);
  bool same = true;
  for (size_t i = 0; i < a.size(); ++i)
    same &= a[i].conflict_class == c[i].conflict_class;
  EXPECT_FALSE(same);
}

TEST(ConflictWorkload, RateEndpoints) {
  auto sys = groups::disjoint_system(6, 2);
  // rate <= 0: every message its own class — nothing conflicts.
  auto free_wl = classed_workload(sys, 0.0, 4, 1);
  std::set<std::int32_t> classes;
  for (const auto& m : free_wl) EXPECT_TRUE(classes.insert(m.conflict_class).second);
  // rate 1: a single class — the classical total-order relation.
  for (const auto& m : classed_workload(sys, 1.0, 4, 1))
    EXPECT_EQ(m.conflict_class, 0);
  // rate 0.5: two classes.
  for (const auto& m : classed_workload(sys, 0.5, 4, 1)) {
    EXPECT_GE(m.conflict_class, 0);
    EXPECT_LT(m.conflict_class, 2);
  }
}

// ---- per-protocol run determinism -------------------------------------------

TEST(ProtocolArena, SameSeedSameTraceHashPerProtocol) {
  auto sys = groups::disjoint_system(4, 3);
  sim::FailurePattern pat(sys.process_count());
  for (const auto& d : ProtocolRegistry::instance().all()) {
    auto hash_of = [&] {
      ProtocolOptions opt;
      opt.seed = 5;
      sim::HashingSink sink;
      auto p = d.make(sys, pat, opt);
      p->set_event_sink(&sink);
      for (const auto& m : classed_workload(sys, 0.5, 2, 5)) p->submit(m);
      p->run();
      return sink.hash();
    };
    EXPECT_EQ(hash_of(), hash_of()) << d.name;
  }
}

}  // namespace
}  // namespace gam::amcast
