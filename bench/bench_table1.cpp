// Experiment "Table 1" (paper §1, Table 1): the weakest-failure-detector
// matrix across the atomic-multicast problem variants.
//
// For every row of the paper's table we run the matching algorithm with the
// matching detector over a sweep of failure patterns on the Figure-1 topology
// and report which specification properties hold. The paper's claims are
// about computability, so what this harness regenerates is the *shape* of the
// table: each solution satisfies exactly the properties its detector class
// pays for, and the cross-checks show that the weaker setups break the
// stronger variants.
//
// The per-seed runs are independent, so each row fans its seeds across the
// sweep pool (bench/sweep.hpp); every job builds its own GroupSystem and
// protocol instance, keeping runs byte-reproducible under any interleaving.
#include <cstdio>
#include <functional>
#include <map>
#include <string>

#include "amcast/baselines.hpp"
#include "amcast/mu_multicast.hpp"
#include "amcast/spec.hpp"
#include "amcast/workload.hpp"
#include "groups/group_system.hpp"
#include "sweep.hpp"

using namespace gam;
using namespace gam::amcast;

namespace {

struct RowResult {
  int runs = 0;
  int integrity = 0, ordering = 0, termination = 0, minimality = 0;
  int strict = 0, pairwise = 0;
  // The genuineness probe is a separate run: a single message to one group,
  // so that a non-genuine solution visibly makes un-addressed processes work.
  int probe_runs = 0, probe_minimality = 0;

  void absorb(const RunRecord& rec, const groups::GroupSystem& sys,
              const sim::FailurePattern& pat) {
    ++runs;
    integrity += check_integrity(rec, sys).ok;
    ordering += check_ordering(rec, sys).ok;
    termination += check_termination(rec, sys, pat).ok;
    minimality += check_minimality(rec, sys).ok;
    strict += check_strict_ordering(rec, sys).ok;
    pairwise += check_pairwise_ordering(rec).ok;
  }

  void absorb_probe(const RunRecord& rec, const groups::GroupSystem& sys) {
    ++probe_runs;
    probe_minimality += check_minimality(rec, sys).ok;
  }

  void merge(const RowResult& o) {
    runs += o.runs;
    integrity += o.integrity;
    ordering += o.ordering;
    termination += o.termination;
    minimality += o.minimality;
    strict += o.strict;
    pairwise += o.pairwise;
    probe_runs += o.probe_runs;
    probe_minimality += o.probe_minimality;
  }
};

const char* mark(int got, int runs) {
  if (got == runs) return "yes";
  if (got == 0) return "NO ";
  return "mix";
}

void print_row(const std::string& name, const std::string& detector,
               const RowResult& r) {
  std::printf("%-34s %-28s %4s %4s %4s %4s %6s %8s\n", name.c_str(),
              detector.c_str(), mark(r.integrity, r.runs),
              mark(r.ordering, r.runs), mark(r.termination, r.runs),
              r.probe_runs ? mark(r.probe_minimality, r.probe_runs)
                           : mark(r.minimality, r.runs),
              mark(r.strict, r.runs), mark(r.pairwise, r.runs));
}

}  // namespace

int main() {
  constexpr int kSeeds = 12;
  constexpr sim::Time kHorizon = 300;
  bench::SweepRunner pool;

  std::printf(
      "Table 1 reproduction — Figure-1 topology, %d seeds, <=2 crashes each "
      "(pool of %d)\n",
      kSeeds, pool.threads());
  std::printf("%-34s %-28s %4s %4s %4s %4s %6s %8s\n", "solution",
              "failure detector", "int", "ord", "term", "min", "strict",
              "pairwise");
  std::printf("%s\n", std::string(104, '-').c_str());

  // Genuineness probe: a single message to g3 = {p0, p3, p4}; if p1 or p2
  // take steps, the solution is not genuine.
  const std::vector<MulticastMessage> probe{{0, 3, 0, 0}};

  // make_and_run(sys, pat, seed, workload): one full protocol run. Each pool
  // job builds a private GroupSystem — its lazy cyclic-family cache must not
  // be shared across threads.
  using MakeAndRun = std::function<RunRecord(
      const groups::GroupSystem&, const sim::FailurePattern&, std::uint64_t,
      std::vector<MulticastMessage>)>;

  auto sweep = [&](const MakeAndRun& make_and_run) {
    std::vector<RowResult> rows(kSeeds);
    pool.run(kSeeds, [&](int i) {
      auto seed = static_cast<std::uint64_t>(i) + 1;
      auto sys = groups::figure1_system();
      Rng rng(seed);
      sim::EnvironmentSampler env{.process_count = 5, .max_failures = 2,
                                  .horizon = kHorizon / 3};
      sim::FailurePattern pat = env.sample(rng);
      auto& row = rows[static_cast<size_t>(i)];
      row.absorb(make_and_run(sys, pat, seed, round_robin_workload(sys, 3)),
                 sys, pat);
      sim::FailurePattern clean(5);
      row.absorb_probe(make_and_run(sys, clean, seed, probe), sys);
      return bench::RunResult{};
    });
    RowResult total;
    for (const auto& r : rows) total.merge(r);
    return total;
  };

  // Row: non-genuine broadcast-based multicast (needs only Ω ∧ Σ globally).
  print_row("atomic broadcast (non-genuine)", "Omega ^ Sigma  [8,15]",
            sweep([](const groups::GroupSystem& sys,
                     const sim::FailurePattern& pat, std::uint64_t seed,
                     std::vector<MulticastMessage> w) {
              BroadcastMulticast bc(sys, pat, {.seed = seed});
              for (auto& m : w) bc.submit(m);
              return bc.run();
            }));

  // Row: Skeen's protocol, genuine but failure-free only.
  print_row("Skeen [5,22] (failure-free only)", "(none)",
            sweep([](const groups::GroupSystem& sys,
                     const sim::FailurePattern& pat, std::uint64_t seed,
                     std::vector<MulticastMessage> w) {
              SkeenMulticast sk(sys, pat, {.seed = seed});
              for (auto& m : w) sk.submit(m);
              return sk.run();
            }));

  // Row: partitioned decomposition (blocks when a partition dies).
  print_row("partitioned [32,17,21,10,...]", "per-partition Omega^Sigma",
            sweep([](const groups::GroupSystem& sys,
                     const sim::FailurePattern& pat, std::uint64_t seed,
                     std::vector<MulticastMessage> w) {
              PartitionedMulticast pm(
                  sys, pat, PartitionedMulticast::finest_partitions(sys),
                  {.seed = seed});
              for (auto& m : w) pm.submit(m);
              return pm.run();
            }));

  // Row: Algorithm 1 with μ — the paper's contribution.
  print_row("Algorithm 1 (this paper)", "mu = ^Sigma_gh ^Omega_g ^gamma",
            sweep([](const groups::GroupSystem& sys,
                     const sim::FailurePattern& pat, std::uint64_t seed,
                     std::vector<MulticastMessage> w) {
              MuMulticast mc(sys, pat, {.seed = seed});
              for (auto& m : w) mc.submit(m);
              return mc.run();
            }));

  // Row: strict variant (§6.1) — adds real-time order via 1^{g∩h}.
  print_row("Algorithm 1 + strict (SS 6.1)", "mu ^ 1^{g@h}",
            sweep([](const groups::GroupSystem& sys,
                     const sim::FailurePattern& pat, std::uint64_t seed,
                     std::vector<MulticastMessage> w) {
              MuMulticast mc(sys, pat, {.seed = seed, .strict = true});
              for (auto& m : w) mc.submit(m);
              return mc.run();
            }));

  // Row: [36], genuine from a perfect failure detector = strict preset.
  print_row("Schiper-Pedone [36]", "P (perfect)",
            sweep([](const groups::GroupSystem& sys,
                     const sim::FailurePattern& pat, std::uint64_t seed,
                     std::vector<MulticastMessage> w) {
              MuMulticast mc(sys, pat, perfect_fd_options({.seed = seed}));
              for (auto& m : w) mc.submit(m);
              return mc.run();
            }));

  // Row: pairwise-ordering variant (§7): computably F = ∅; run Algorithm 1 on
  // an acyclic topology where γ is vacuous.
  {
    std::vector<RowResult> rows(kSeeds);
    pool.run(kSeeds, [&](int i) {
      auto seed = static_cast<std::uint64_t>(i) + 1;
      groups::GroupSystem chain(5, {ProcessSet{0, 1}, ProcessSet{1, 2, 3},
                                    ProcessSet{3, 4}});
      Rng rng(seed);
      sim::EnvironmentSampler env{.process_count = 5, .max_failures = 2,
                                  .horizon = kHorizon / 3};
      sim::FailurePattern pat = env.sample(rng);
      MuMulticast mc(chain, pat, {.seed = seed});
      for (auto& m : round_robin_workload(chain, 3)) mc.submit(m);
      rows[static_cast<size_t>(i)].absorb(mc.run(), chain, pat);
      return bench::RunResult{};
    });
    RowResult row;
    for (const auto& r : rows) row.merge(r);
    print_row("pairwise ordering (SS 7, F=0)", "^Sigma_gh ^Omega_g", row);
  }

  std::printf(
      "\nReading: 'yes' = property held in all runs, 'NO' = in none, 'mix' = "
      "depends on the failure pattern.\n"
      "Expected shape (paper Table 1):\n"
      "  - broadcast-based: everything but minimality (not genuine);\n"
      "  - Skeen: safety holds, termination only failure-free ('mix');\n"
      "  - partitioned: termination 'mix' (blocks when a partition dies);\n"
      "  - Algorithm 1 with mu: int/ord/term/min all 'yes', strictness not "
      "guaranteed ('mix' possible);\n"
      "  - strict / [36]: adds strict ordering 'yes';\n"
      "  - acyclic topologies: pairwise ordering needs no gamma.\n");
  return 0;
}
