#include "simcheck.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "amcast/protocol.hpp"
#include "amcast/spec.hpp"
#include "amcast/workload.hpp"
#include "groups/generator.hpp"
#include "sim/adversary.hpp"
#include "sim/metrics.hpp"
#include "sim/monitors.hpp"
#include "sim/trace.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using gam::ProcessId;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Traced counters of one worker thread.
struct SimTrace {
  // Algorithm 1 (mu) cells: the amcast layer.
  std::uint64_t mu_runs = 0, mu_build_ns = 0, mu_run_ns = 0, mu_spec_ns = 0,
                mu_steps = 0;
  double mu_latency_sum = 0;
  std::uint64_t mu_latency_count = 0;
  // World-backed cells: the sim layer.
  std::uint64_t world_runs = 0, world_run_ns = 0, world_events = 0,
                world_null_steps = 0, world_receives = 0, world_fd_queries = 0,
                world_wire = 0, world_deliveries = 0, world_monitor_ns = 0;
  // Every cell.
  std::uint64_t monitor_ns = 0, monitor_events = 0;
  std::int64_t ledger = 0;
  SpanBuffer spans{std::size_t{1} << 16};
};

// Counts the stream by kind and times the monitors behind it.
class TimingSink final : public gam::sim::TraceSink {
 public:
  explicit TimingSink(gam::sim::TraceSink& inner) : inner_(inner) {}

  void on_event(const gam::sim::TraceEvent& e) override {
    using gam::sim::TraceEventKind;
    ++events;
    if (e.kind == TraceEventKind::kNullStep) ++null_steps;
    if (e.kind == TraceEventKind::kReceive) ++receives;
    if (e.kind == TraceEventKind::kFdQuery) ++fd_queries;
    const std::uint64_t t0 = now_ns();
    inner_.on_event(e);
    monitor_ns += now_ns() - t0;
  }

  std::uint64_t events = 0, null_steps = 0, receives = 0, fd_queries = 0,
                monitor_ns = 0;

 private:
  gam::sim::TraceSink& inner_;
};

std::int64_t gauge_total(const gam::sim::Metrics& m, const std::string& name) {
  std::int64_t total = 0;
  for (const auto& [k, g] : m.gauges())
    if (k.name == name) total += g.value;
  return total;
}

struct CellVerdict {
  bool ok = true;
  std::string error;
  std::uint64_t multicasts = 0;
};

CellVerdict run_cell(const SimTopologies& topo, const SimInputs& in,
                     std::uint64_t run_id, SimTrace* tr) {
  using namespace gam;
  const SimCell& cell = kSimCells[in.cell];
  const groups::GroupSystem& sys = topo.get(cell.topology);
  const amcast::ProtocolDescriptor* d =
      amcast::ProtocolRegistry::instance().find(cell.protocol);
  CellVerdict v;
  v.multicasts = in.workload.size();

  const std::uint64_t t0 = now_ns();
  sim::MonitorConfig mc;
  for (groups::GroupId g = 0; g < sys.group_count(); ++g)
    mc.groups.push_back(sys.group(g));
  mc.protocol_base = d->trace_base;
  mc.require_multicast = d->emits_multicast_events;
  mc.faulty = in.pattern.faulty_set();
  if (d->conflict_aware)
    for (const auto& m : in.workload) mc.conflict_class[m.id] = m.conflict_class;
  sim::InvariantMonitors mons(mc);
  auto p = d->make(sys, in.pattern, in.options);
  std::unique_ptr<TimingSink> timing;
  sim::Metrics metrics;
  if (tr) {
    timing = std::make_unique<TimingSink>(mons);
    p->set_event_sink(timing.get());
    p->set_metrics(&metrics);
  } else {
    p->set_event_sink(&mons);
  }
  for (const auto& m : in.workload) p->submit(m);
  const std::uint64_t t1 = now_ns();
  const amcast::RunRecord rec = p->run();
  const std::uint64_t t2 = now_ns();
  mons.finalize(rec.quiescent);
  const std::uint64_t t3 = now_ns();
  const amcast::SpecResult spec =
      spec_check(rec, sys, in.pattern, d->conflict_aware);
  const std::uint64_t t4 = now_ns();

  const std::string where = std::string(cell.protocol) + "@" + cell.topology +
                            " seed " + std::to_string(in.run_seed) + ": ";
  if (!rec.quiescent) {
    v.ok = false;
    v.error = where + "not quiescent";
  } else if (!mons.ok()) {
    v.ok = false;
    v.error = where + sim::format_violation(mons.violations().front());
  } else if (!spec.ok) {
    v.ok = false;
    v.error = where + spec.error;
  }

  if (tr) {
    tr->spans.record(SpanName::kSimBuild, static_cast<std::int64_t>(run_id), t0, t1);
    const std::int32_t run_span =
        tr->spans.record(SpanName::kSimRun, static_cast<std::int64_t>(run_id), t1, t2);
    tr->spans.record(SpanName::kSimMonitor, static_cast<std::int64_t>(run_id), t2, t3,
                     run_span < 0 ? -1 : run_span);
    tr->spans.record(SpanName::kSimSpec, static_cast<std::int64_t>(run_id), t3, t4);
    tr->monitor_ns += timing->monitor_ns + (t3 - t2);
    tr->monitor_events += timing->events;
    // The genuineness ledger: every protocol of the mix is genuine, so no
    // process outside the addressed groups may step or send.
    const std::int64_t ledger = gauge_total(metrics, "non_addressee_steps") +
                                gauge_total(metrics, "non_addressee_messages");
    tr->ledger += ledger;
    if (ledger != 0 && v.ok) {
      v.ok = false;
      v.error = where + "genuineness ledger " + std::to_string(ledger);
    }
    if (std::string(cell.protocol) == "mu") {
      ++tr->mu_runs;
      tr->mu_build_ns += t1 - t0;
      tr->mu_run_ns += t2 - t1;
      tr->mu_spec_ns += t4 - t3;
      tr->mu_steps += rec.steps;
      const sim::Histogram lat = metrics.merged_histogram("deliver_latency");
      tr->mu_latency_sum += static_cast<double>(lat.sum);
      tr->mu_latency_count += lat.count;
    } else {
      ++tr->world_runs;
      tr->world_run_ns += t2 - t1;
      tr->world_events += timing->events;
      tr->world_null_steps += timing->null_steps;
      tr->world_receives += timing->receives;
      tr->world_fd_queries += timing->fd_queries;
      tr->world_wire += p->wire_messages();
      tr->world_deliveries += rec.deliveries.size();
      tr->world_monitor_ns += timing->monitor_ns;
    }
  }
  return v;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

gam::amcast::SpecResult spec_check(
    const gam::amcast::RunRecord& rec, const gam::groups::GroupSystem& sys,
    const gam::sim::FailurePattern& pattern, bool conflict_aware) {
  using namespace gam::amcast;
  if (!conflict_aware) return check_all(rec, sys, pattern);
  // Generic multicast orders only conflicting messages, so Ordering is
  // checked within each conflict class: check_ordering on the sub-run of
  // that class's messages and their deliveries.
  SpecResult r = check_integrity(rec, sys);
  if (!r.ok) return r;
  std::map<std::int32_t, RunRecord> by_class;
  std::map<MsgId, std::int32_t> class_of;
  for (std::size_t i = 0; i < rec.multicast.size(); ++i) {
    const MulticastMessage& m = rec.multicast[i];
    class_of[m.id] = m.conflict_class;
    RunRecord& sub = by_class[m.conflict_class];
    sub.multicast.push_back(m);
    sub.multicast_time.push_back(rec.multicast_time[i]);
  }
  for (const Delivery& d : rec.deliveries)
    by_class[class_of.at(d.m)].deliveries.push_back(d);
  for (const auto& [c, sub] : by_class) {
    r = check_ordering(sub, sys);
    if (!r.ok) {
      r.error = "conflict class " + std::to_string(c) + ": " + r.error;
      return r;
    }
  }
  r = check_minimality(rec, sys);
  if (!r.ok) return r;
  return check_termination(rec, sys, pattern);
}

SimTopologies SimTopologies::build() {
  SimTopologies t{gam::groups::figure1_system(),
                  gam::groups::clustered_ring_system(32, 4, 2)};
  t.figure1.cyclic_families();
  t.clustered128.cyclic_families();
  return t;
}

const gam::groups::GroupSystem& SimTopologies::get(const char* name) const {
  return std::string(name) == "figure1" ? figure1 : clustered128;
}

SimInputs sim_inputs(const SimTopologies& topo, int cell,
                     std::uint64_t seed_base, std::uint64_t index) {
  using namespace gam;
  const SimCell& c = kSimCells[cell];
  const groups::GroupSystem& sys = topo.get(c.topology);
  SimInputs in;
  in.cell = cell;
  in.run_seed = mix(seed_base, index * kSimCellCount + static_cast<std::uint64_t>(cell));
  in.pattern = sim::FailurePattern(sys.process_count());
  if (c.adversarial) {
    Rng rng(in.run_seed);
    sim::EnvironmentSampler env{
        .process_count = sys.process_count(), .max_failures = 2, .horizon = 100};
    in.pattern = env.sample(rng);
    in.options.scheduler = sim::pct(3);
  }
  in.options.seed = in.run_seed;
  // The arena's workload: conflict-classed messages to the first half of the
  // groups, so the other half is addressee of nothing and the genuineness
  // ledger has processes to watch. A sender that crashes is replaced by a
  // correct member of the destination where one exists.
  std::vector<groups::GroupId> targets;
  for (groups::GroupId g = 0; g < (sys.group_count() + 1) / 2; ++g)
    targets.push_back(g);
  Rng rng(mix(in.run_seed, 0x776f726b6c6f6164ULL));
  in.workload = amcast::conflict_workload(sys, targets, kSimPerGroup,
                                          c.conflict_rate, rng);
  for (auto& m : in.workload) {
    if (!in.pattern.faulty(m.src)) continue;
    for (ProcessId p : sys.group(m.dst))
      if (!in.pattern.faulty(p)) {
        m.src = p;
        break;
      }
  }
  return in;
}

SimResult run_sim(const SimConfig& cfg) {
  SimResult r;
  // Set-up: topologies with their cyclic families, then per-worker state,
  // timed kSetupRepeats times; the last one is used.
  const int workers = std::max(1, cfg.workers);
  std::optional<SimTopologies> topo;
  std::vector<SimTrace> traces;
  std::vector<double> groups_ms;
  for (int i = 0; i < kSetupRepeats; ++i) {
    topo.reset();
    traces.clear();
    const std::uint64_t t0 = now_ns();
    topo.emplace(SimTopologies::build());
    const std::uint64_t t1 = now_ns();
    traces = std::vector<SimTrace>(static_cast<std::size_t>(workers));
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    groups_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  }

  struct alignas(64) WorkerOut {
    Outcome outcome;
    std::string error;
    std::uint64_t multicasts = 0;
    std::vector<std::uint64_t> run_ns;
    std::uint64_t end_ns = 0;
  };
  std::vector<WorkerOut> outs(static_cast<std::size_t>(workers));
  std::atomic<std::uint64_t> next{0};
  std::atomic<bool> failed{false};

  // Warm-up seeds come from their own index range, so the timed seeds are
  // the same whatever the warm-up covered.
  constexpr std::uint64_t kWarmupBase = std::uint64_t{1} << 62;
  std::atomic<std::uint64_t> warm_next{kWarmupBase};
  const std::uint64_t t_warm_end =
      now_ns() + static_cast<std::uint64_t>(cfg.warmup_s * 1e9);
  auto run_seed_cells = [&](int w, std::uint64_t index, bool timed) {
    WorkerOut& o = outs[static_cast<std::size_t>(w)];
    for (int c = 0; c < kSimCellCount; ++c) {
      const std::uint64_t t0 = now_ns();
      const SimInputs in = sim_inputs(*topo, c, cfg.seed, index);
      const CellVerdict v =
          run_cell(*topo, in, index * kSimCellCount + static_cast<std::uint64_t>(c),
                   cfg.traced && timed ? &traces[static_cast<std::size_t>(w)]
                                       : nullptr);
      Outcome one;
      one.attempted = 1;
      one.failed = v.ok ? 0 : 1;
      one.safety_ok = v.ok;
      o.outcome.add(one);
      if (v.ok && timed) o.multicasts += v.multicasts;
      if (timed) o.run_ns.push_back(v.ok ? now_ns() - t0 : kMissed);
      if (!v.ok) {
        failed.store(true);
        if (o.error.empty()) o.error = v.error;
      }
    }
  };

  std::vector<std::thread> threads;
  std::uint64_t t_start = 0;
  {
    std::atomic<int> warmed{0};
    std::atomic<std::uint64_t> start_at{0};
    for (int w = 0; w < workers; ++w)
      threads.emplace_back([&, w] {
        while (now_ns() < t_warm_end && !failed.load())
          run_seed_cells(w, warm_next.fetch_add(1), false);
        // Every worker finishes its warm-up before any starts timing.
        if (warmed.fetch_add(1) + 1 == workers) start_at.store(now_ns());
        while (start_at.load() == 0) std::this_thread::yield();
        const std::uint64_t t_end =
            start_at.load() + static_cast<std::uint64_t>(cfg.seconds * 1e9);
        while (now_ns() < t_end && !failed.load())
          run_seed_cells(w, next.fetch_add(1), true);
        outs[static_cast<std::size_t>(w)].end_ns = now_ns();
      });
    for (auto& t : threads) t.join();
    t_start = start_at.load();
  }

  std::uint64_t t_last = t_start, multicasts = 0;
  for (WorkerOut& o : outs) {
    r.outcome.add(o.outcome);
    if (!o.error.empty() && r.error.empty()) r.error = o.error;
    multicasts += o.multicasts;
    t_last = std::max(t_last, o.end_ns);
    r.run_ns.insert(r.run_ns.end(), o.run_ns.begin(), o.run_ns.end());
  }
  const double elapsed = static_cast<double>(t_last - t_start) / 1e9;
  r.runs_per_s = ratio(static_cast<double>(r.run_ns.size()), elapsed);
  r.multicasts_per_s = ratio(static_cast<double>(multicasts), elapsed);

  if (cfg.traced) {
    SimTrace s;
    for (const SimTrace& t : traces) {
      s.mu_runs += t.mu_runs;
      s.mu_build_ns += t.mu_build_ns;
      s.mu_run_ns += t.mu_run_ns;
      s.mu_spec_ns += t.mu_spec_ns;
      s.mu_steps += t.mu_steps;
      s.mu_latency_sum += t.mu_latency_sum;
      s.mu_latency_count += t.mu_latency_count;
      s.world_runs += t.world_runs;
      s.world_run_ns += t.world_run_ns;
      s.world_events += t.world_events;
      s.world_null_steps += t.world_null_steps;
      s.world_receives += t.world_receives;
      s.world_fd_queries += t.world_fd_queries;
      s.world_wire += t.world_wire;
      s.world_deliveries += t.world_deliveries;
      s.world_monitor_ns += t.world_monitor_ns;
      s.monitor_ns += t.monitor_ns;
      s.monitor_events += t.monitor_events;
      s.ledger += t.ledger;
    }
    auto& m = r.layers;
    const auto d = [](auto x) { return static_cast<double>(x); };
    m["amcast.build_us"] = ratio(d(s.mu_build_ns), d(s.mu_runs)) / 1e3;
    m["amcast.run_us"] = ratio(d(s.mu_run_ns), d(s.mu_runs)) / 1e3;
    m["amcast.ns_per_step"] = ratio(d(s.mu_run_ns), d(s.mu_steps));
    m["amcast.spec_us"] = ratio(d(s.mu_spec_ns), d(s.mu_runs)) / 1e3;
    m["amcast.steps_per_run"] = ratio(d(s.mu_steps), d(s.mu_runs));
    m["amcast.deliver_latency_steps"] =
        ratio(s.mu_latency_sum, d(s.mu_latency_count));
    m["sim.run_us"] = ratio(d(s.world_run_ns), d(s.world_runs)) / 1e3;
    // The run span's self time: its online monitor children are excluded.
    m["sim.ns_per_event"] =
        ratio(d(s.world_run_ns) - d(s.world_monitor_ns), d(s.world_events));
    m["sim.monitor_ns_per_event"] = ratio(d(s.monitor_ns), d(s.monitor_events));
    m["sim.events_per_run"] = ratio(d(s.world_events), d(s.world_runs));
    m["sim.null_step_frac"] =
        ratio(d(s.world_null_steps), d(s.world_null_steps + s.world_receives));
    m["sim.msgs_per_delivery"] = ratio(d(s.world_wire), d(s.world_deliveries));
    m["fd.queries_per_delivery"] =
        ratio(d(s.world_fd_queries), d(s.world_deliveries));
    m["sim.genuineness_ledger"] = d(s.ledger);
    m["groups.setup_ms"] = median(groups_ms);
    std::uint64_t dropped = 0;
    for (const SimTrace& t : traces) dropped += t.spans.dropped();
    m["trace.spans_dropped"] = d(dropped);
    if (!cfg.spans_path.empty()) {
      std::vector<const SpanBuffer*> bufs;
      for (const SimTrace& t : traces) bufs.push_back(&t.spans);
      if (!write_span_file(cfg.spans_path, bufs) && r.error.empty())
        r.error = "cannot write " + cfg.spans_path;
    }
  }
  return r;
}

}  // namespace perfbench
