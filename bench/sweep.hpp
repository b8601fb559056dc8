// Parallel seed-sweep harness for the simulator benches.
//
// Every artefact this repo reproduces is produced by driving many independent
// seeded runs (a World or an action system per (seed, topology, protocol)
// cell). Those runs share nothing mutable, so they fan out across a
// std::thread pool: each job builds its OWN GroupSystem / FailurePattern /
// protocol instance and owns its Rng, which keeps every run byte-reproducible
// regardless of thread interleaving — the pool only changes *when* a run
// executes, never what it computes. Results land in a pre-sized slot per job
// (no locks, no sharing), and aggregation happens after the join.
//
// Rules for jobs:
//   - build all state inside the job (GroupSystem's cyclic-family cache is
//     lazily computed and NOT thread-safe; never share one across jobs
//     without pre-warming it);
//   - derive all randomness from the job index;
//   - return a RunResult — the trace hash makes cross-schedule determinism
//     checkable (pool vs inline runs of the same seed must agree bit for bit).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "amcast/types.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"

namespace gam::bench {

// The outcome of one independent simulated run.
struct RunResult {
  std::uint64_t steps = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t messages = 0;  // wire messages, when the run has a network
  bool quiescent = false;
  std::uint64_t trace_hash = 0;  // order-sensitive hash of the event trace
  // Payload/copy accounting (World-backed runs; see MessageBuffer).
  std::uint64_t inline_payloads = 0;
  std::uint64_t heap_payloads = 0;
  std::uint64_t moved_sends = 0;
};

// FNV-1a over the full delivery trace: any reordering, retiming, or content
// change of a delivery OR of a multicast payload changes the hash. Event
// kinds are folded as discriminators so streams that happen to produce the
// same integer sequence under different record types cannot collide. The
// World-backed configurations additionally fold the full wire-event stream
// (sim::HashingSink) on top of this — see combine_hash.
inline std::uint64_t hash_deliveries(const amcast::RunRecord& rec) {
  std::uint64_t h = sim::kTraceHashSeed;
  auto mix = [&h](std::uint64_t x) { h = sim::trace_mix(h, x); };
  for (const auto& d : rec.deliveries) {
    mix(static_cast<std::uint64_t>(sim::TraceEventKind::kDeliver));
    mix(static_cast<std::uint64_t>(d.p));
    mix(static_cast<std::uint64_t>(d.m));
    mix(d.t);
    mix(static_cast<std::uint64_t>(d.local_seq));
  }
  for (size_t i = 0; i < rec.multicast.size(); ++i) {
    const auto& m = rec.multicast[i];
    mix(static_cast<std::uint64_t>(sim::TraceEventKind::kSend));
    mix(static_cast<std::uint64_t>(m.id));
    mix(static_cast<std::uint64_t>(m.dst));
    mix(static_cast<std::uint64_t>(m.src));
    mix(static_cast<std::uint64_t>(m.payload));
    mix(i < rec.multicast_time.size() ? rec.multicast_time[i] : 0);
  }
  return h;
}

// Folds an event-stream hash (from a sim::HashingSink or RecorderSink
// attached to the run) into a run's delivery hash.
inline std::uint64_t combine_hash(std::uint64_t delivery_hash,
                                  std::uint64_t event_hash) {
  return sim::trace_mix(delivery_hash, event_hash);
}

inline RunResult summarize(const amcast::RunRecord& rec) {
  RunResult r;
  r.steps = rec.steps;
  r.deliveries = rec.deliveries.size();
  r.quiescent = rec.quiescent;
  r.trace_hash = hash_deliveries(rec);
  return r;
}

// Folds a World's wire + allocation counters into a run's result.
inline void absorb_world(RunResult& r, const sim::World& world) {
  const auto& a = world.buffer().alloc_stats();
  r.inline_payloads = a.inline_payloads;
  r.heap_payloads = a.heap_payloads;
  r.moved_sends = a.moved_sends;
}

// Aggregate of one sweep (n runs of one configuration).
struct SweepStats {
  std::string name;
  int runs = 0;
  int threads = 1;
  double wall_seconds = 0;
  std::uint64_t steps = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t messages = 0;
  std::uint64_t quiescent_runs = 0;
  std::uint64_t inline_payloads = 0;
  std::uint64_t heap_payloads = 0;
  std::uint64_t moved_sends = 0;

  double runs_per_sec() const {
    return wall_seconds > 0 ? runs / wall_seconds : 0;
  }
  double steps_per_sec() const {
    return wall_seconds > 0 ? static_cast<double>(steps) / wall_seconds : 0;
  }
};

// Fans jobs 0..n-1 over a fixed-size thread pool. Work is claimed via an
// atomic cursor; each job writes only its own result slot, so the only
// synchronization is the claim counter and the join.
class SweepRunner {
 public:
  // threads == 0 picks hardware_concurrency (>= 1).
  explicit SweepRunner(int threads = 0)
      : threads_(threads > 0
                     ? threads
                     : std::max(1u, std::thread::hardware_concurrency())) {}

  int threads() const { return threads_; }

  std::vector<RunResult> run(int n,
                             const std::function<RunResult(int)>& job) const {
    if (threads_ == 1 || n <= 1) {
      std::vector<RunResult> results(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) results[static_cast<size_t>(i)] = job(i);
      return results;
    }
    // Cache-line-padded result slots: adjacent RunResults share lines, and
    // with short jobs the cross-core write invalidations on the results
    // vector were a measurable fraction of the job hot path.
    struct alignas(64) Slot {
      RunResult r;
    };
    std::vector<Slot> slots(static_cast<size_t>(n));
    std::atomic<int> next{0};
    auto worker = [&]() {
      for (;;) {
        int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        slots[static_cast<size_t>(i)].r = job(i);
      }
    };
    std::vector<std::thread> pool;
    int workers = std::min(threads_, n);
    pool.reserve(static_cast<size_t>(workers));
    for (int t = 0; t < workers; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
    std::vector<RunResult> results(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
      results[static_cast<size_t>(i)] = slots[static_cast<size_t>(i)].r;
    return results;
  }

  // Like run(), but each job records into a registry of its own, and the
  // registries are merged into `merged` in job-index order after the join.
  // One registry per job is what makes the merge the per-run sum that
  // metrics.hpp documents: Gauge::set overwrites, so a registry shared by the
  // jobs of one worker (or of a sequential run) would keep only the reading
  // of whichever job ran last, and on a pool that depends on the claim race.
  std::vector<RunResult> run_merged(
      int n, const std::function<RunResult(int, sim::Metrics&)>& job,
      sim::Metrics* merged) const {
    std::vector<sim::Metrics> per_job(static_cast<size_t>(n));
    auto results = run(
        n, [&](int i) { return job(i, per_job[static_cast<size_t>(i)]); });
    if (merged)
      for (const auto& m : per_job) merged->merge(m);
    return results;
  }

  // Times `run` and aggregates the results; the per-run results are also
  // handed back through `out` when non-null (determinism checks).
  SweepStats sweep(std::string name, int n,
                   const std::function<RunResult(int)>& job,
                   std::vector<RunResult>* out = nullptr) const {
    SweepStats s;
    s.name = std::move(name);
    s.runs = n;
    s.threads = std::min(threads_, std::max(n, 1));
    auto t0 = std::chrono::steady_clock::now();
    auto results = run(n, job);
    auto t1 = std::chrono::steady_clock::now();
    s.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    for (const auto& r : results) {
      s.steps += r.steps;
      s.deliveries += r.deliveries;
      s.messages += r.messages;
      s.quiescent_runs += r.quiescent ? 1 : 0;
      s.inline_payloads += r.inline_payloads;
      s.heap_payloads += r.heap_payloads;
      s.moved_sends += r.moved_sends;
    }
    if (out) *out = std::move(results);
    return s;
  }

 private:
  int threads_;
};

// Minimal JSON emitter for BENCH_sim.json — flat scalars and one array of
// sweep objects; enough structure for trend tracking across PRs.
class BenchJson {
 public:
  void field(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    scalars_.push_back("\"" + key + "\": " + buf);
  }
  void field(const std::string& key, std::uint64_t v) {
    scalars_.push_back("\"" + key + "\": " + std::to_string(v));
  }
  void field(const std::string& key, int v) {
    scalars_.push_back("\"" + key + "\": " + std::to_string(v));
  }
  void field(const std::string& key, const std::string& v) {
    scalars_.push_back("\"" + key + "\": \"" + v + "\"");
  }
  // An explicit JSON null — for metrics that would be meaningless rather
  // than zero (e.g. a pool-vs-seq speedup measured with a 1-thread pool).
  void null_field(const std::string& key) {
    scalars_.push_back("\"" + key + "\": null");
  }
  // A pre-rendered JSON value (object/array) under `key` — how the per-config
  // metrics summaries fold into BENCH_sim.json.
  void raw(const std::string& key, const std::string& json_value) {
    scalars_.push_back("\"" + key + "\": " + json_value);
  }

  void add(const SweepStats& s) {
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "    {\"name\": \"%s\", \"runs\": %d, \"threads\": %d, "
        "\"wall_seconds\": %.6f, \"runs_per_sec\": %.1f, "
        "\"steps_per_sec\": %.1f, \"steps\": %llu, \"deliveries\": %llu, "
        "\"messages\": %llu, \"quiescent_runs\": %llu, "
        "\"inline_payloads\": %llu, \"heap_payloads\": %llu, "
        "\"moved_sends\": %llu}",
        s.name.c_str(), s.runs, s.threads, s.wall_seconds, s.runs_per_sec(),
        s.steps_per_sec(), static_cast<unsigned long long>(s.steps),
        static_cast<unsigned long long>(s.deliveries),
        static_cast<unsigned long long>(s.messages),
        static_cast<unsigned long long>(s.quiescent_runs),
        static_cast<unsigned long long>(s.inline_payloads),
        static_cast<unsigned long long>(s.heap_payloads),
        static_cast<unsigned long long>(s.moved_sends));
    sweeps_.push_back(buf);
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\n");
    for (const auto& s : scalars_) std::fprintf(f, "  %s,\n", s.c_str());
    std::fprintf(f, "  \"sweeps\": [\n");
    for (size_t i = 0; i < sweeps_.size(); ++i)
      std::fprintf(f, "%s%s\n", sweeps_[i].c_str(),
                   i + 1 < sweeps_.size() ? "," : "");
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::vector<std::string> scalars_;
  std::vector<std::string> sweeps_;
};

}  // namespace gam::bench
