// gam_loadgen — disjoint-group atomic-multicast load generator over the
// net::Runtime (net/runtime.hpp).
//
// Free mode (default): one LoadDriver per group, colocated with the group's
// Ω leader, submits ops into the group's UniversalLog replica at a target
// rate (or open-throttle with a bounded in-flight window when --rate=0) for
// --duration-ms, then drains. Throughput is completed multicasts (every
// replica delivered) over total wall-clock; latency is submit-to-local-learn
// at the leader, recorded into the metrics registry (power-of-two-bucket
// histograms, one per group). Results go to --out as "gam-net-bench v1" JSON.
//
// --monitor additionally collects every (replica, group, op, seq) delivery,
// synthesizes the protocol-level kMulticast/kDeliver stream, and runs the
// InvariantMonitors over it — the tier-1 smoke gate runs a short monitored
// configuration and enforces a throughput floor via --min-rate.
//
// --record switches to record mode: --ops upfront submissions per group over
// an unthrottled in-process transport, globally serialized steps, then a
// replay of the recorded trace inside the deterministic simulator
// (net/replay.hpp). The live and replayed streams are written to
// --trace-live / --trace-replay and compared; any divergence is a nonzero
// exit. This is the live-to-sim fidelity gate.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/flight_recorder.hpp"
#include "net/group_logs.hpp"
#include "net/replay.hpp"
#include "net/runtime.hpp"
#include "net/tcp_transport.hpp"
#include "net/transport.hpp"
#include "sim/metrics.hpp"
#include "sim/monitors.hpp"
#include "sim/spans.hpp"
#include "sim/trace.hpp"

#ifndef GAM_GIT_REV
#define GAM_GIT_REV "unknown"
#endif
#ifndef GAM_BUILD_TYPE
#define GAM_BUILD_TYPE "unknown"
#endif
#ifndef GAM_SANITIZE_STR
#define GAM_SANITIZE_STR ""
#endif

namespace {

using gam::ProcessId;

using Clock = std::chrono::steady_clock;

// SIGINT/SIGTERM request a graceful shutdown: the run loop notices the flag,
// stops, and the normal post-run path still writes the bench JSON and dumps
// the flight recorder — an interrupted run keeps its evidence.
volatile std::sig_atomic_t g_signal = 0;
extern "C" void on_shutdown_signal(int sig) { g_signal = sig; }

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

struct Args {
  int processes = 6;
  int groups = 2;
  double rate = 0;  // total multicasts/sec across groups; 0 = open throttle
  int duration_ms = 1000;
  int batch = 256;
  int window = 4;
  std::uint64_t net_window = 256;  // transport in-flight frames per link
  std::size_t ring_bytes = std::size_t{1} << 20;
  std::string backend = "inproc";  // inproc | tcp
  std::string out = "BENCH_net.json";
  bool monitor = false;
  double min_rate = 0;  // smoke floor: exit nonzero below this
  // Record/replay mode.
  bool record = false;
  int ops = 64;  // record-mode submissions per group
  std::string trace_live = "net_live.trace";
  std::string trace_replay = "net_replay.trace";
  // Observability.
  int stats_interval_ms = 0;       // 0 = no live stats
  std::string stats_out;           // machine-readable snapshots for gam_top
  std::string spans;               // full span capture -> gam-spans v1 file
  std::string flight;              // flight-dump basename; default <out>.flight
  std::size_t flight_events = 4096;  // ring capacity per process; 0 disables
};

bool parse_flag(const char* a, const char* name, const char** value) {
  std::size_t n = std::strlen(name);
  if (std::strncmp(a, name, n) != 0 || a[n] != '=') return false;
  *value = a + n + 1;
  return true;
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (parse_flag(argv[i], "--processes", &v)) args.processes = std::atoi(v);
    else if (parse_flag(argv[i], "--groups", &v)) args.groups = std::atoi(v);
    else if (parse_flag(argv[i], "--rate", &v)) args.rate = std::atof(v);
    else if (parse_flag(argv[i], "--duration-ms", &v))
      args.duration_ms = std::atoi(v);
    else if (parse_flag(argv[i], "--batch", &v)) args.batch = std::atoi(v);
    else if (parse_flag(argv[i], "--window", &v)) args.window = std::atoi(v);
    else if (parse_flag(argv[i], "--net-window", &v))
      args.net_window = std::strtoull(v, nullptr, 10);
    else if (parse_flag(argv[i], "--ring-bytes", &v))
      args.ring_bytes = std::strtoull(v, nullptr, 10);
    else if (parse_flag(argv[i], "--backend", &v)) args.backend = v;
    else if (parse_flag(argv[i], "--out", &v)) args.out = v;
    else if (parse_flag(argv[i], "--min-rate", &v)) args.min_rate = std::atof(v);
    else if (parse_flag(argv[i], "--ops", &v)) args.ops = std::atoi(v);
    else if (parse_flag(argv[i], "--trace-live", &v)) args.trace_live = v;
    else if (parse_flag(argv[i], "--trace-replay", &v)) args.trace_replay = v;
    else if (parse_flag(argv[i], "--stats-interval", &v))
      args.stats_interval_ms = std::atoi(v);
    else if (parse_flag(argv[i], "--stats-out", &v)) args.stats_out = v;
    else if (parse_flag(argv[i], "--spans", &v)) args.spans = v;
    else if (parse_flag(argv[i], "--flight", &v)) args.flight = v;
    else if (parse_flag(argv[i], "--flight-events", &v))
      args.flight_events = std::strtoull(v, nullptr, 10);
    else if (std::strcmp(argv[i], "--monitor") == 0) args.monitor = true;
    else if (std::strcmp(argv[i], "--record") == 0) args.record = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (args.processes <= 0 || args.groups <= 0 ||
      args.processes % args.groups != 0) {
    std::fprintf(stderr, "--processes must be a positive multiple of --groups\n");
    std::exit(2);
  }
  return args;
}

// Ops are namespaced per group so dedup sets and monitors never alias across
// groups: group g submits op_base(g), op_base(g)+1, ...
std::int64_t op_base(int g) { return static_cast<std::int64_t>(g) << 40; }

// The per-group traffic source: a SubProtocol colocated with the group's Ω
// leader (protocol id 1 — never on the wire; it only uses idle steps). Burst
// submission from on_idle keeps pacing on the leader's own event-loop thread,
// so no cross-thread access to the UniversalLog.
class LoadDriver final : public gam::objects::SubProtocol {
 public:
  LoadDriver(gam::objects::UniversalLog* log, std::int64_t base, double rate,
             std::uint64_t inflight_cap, std::atomic<std::uint64_t>* submitted,
             std::atomic<bool>* time_up)
      : log_(log),
        base_(base),
        rate_(rate),
        cap_(inflight_cap),
        submitted_(submitted),
        time_up_(time_up),
        start_(Clock::now()) {}

  // Never addressed on the wire; the driver only consumes idle slots.
  void on_message(gam::sim::Context&, const gam::sim::Message&) override {}

  bool wants_step() const override { return !closed_; }

  bool on_idle(gam::sim::Context&) override {
    if (closed_) return false;
    if (time_up_->load(std::memory_order_relaxed)) {
      closed_ = true;
      return false;
    }
    const auto now = Clock::now();
    std::uint64_t target;
    if (rate_ > 0) {
      const double el =
          static_cast<double>(ns_between(start_, now)) / 1e9;
      target = static_cast<std::uint64_t>(rate_ * el);
    } else {
      target = own_done_ + cap_;
    }
    if (target <= count_) return false;
    const std::uint64_t burst = std::min<std::uint64_t>(target - count_, 256);
    const std::uint64_t t_ns = ns_between(start_, now);
    for (std::uint64_t i = 0; i < burst; ++i) {
      submit_ns_.push_back(t_ns);
      log_->submit(base_ + static_cast<std::int64_t>(count_), nullptr);
      ++count_;
    }
    submitted_->fetch_add(burst, std::memory_order_relaxed);
    // Report no work: ProtocolHost ends an idle slot at the first
    // sub-protocol that reports work, and the group's log comes after this
    // driver in protocol-id order, so `true` here would take the slot the
    // leader's log needs to open Paxos instances for the ops just submitted.
    return false;
  }

  // Called from the leader replica's on_learn — same thread as on_idle.
  void on_own_delivery(std::int64_t op) {
    const auto idx = static_cast<std::uint64_t>(op - base_);
    if (idx < submit_ns_.size()) {
      const std::uint64_t lat_ns =
          ns_between(start_, Clock::now()) - submit_ns_[idx];
      latency_us_.record(lat_ns / 1000);
    }
    ++own_done_;
  }

  std::uint64_t submitted_count() const { return count_; }
  const gam::sim::Histogram& latency_us() const { return latency_us_; }

 private:
  gam::objects::UniversalLog* log_;
  std::int64_t base_;
  double rate_;
  std::uint64_t cap_;
  std::atomic<std::uint64_t>* submitted_;
  std::atomic<bool>* time_up_;
  Clock::time_point start_;
  bool closed_ = false;
  std::uint64_t count_ = 0;    // ops submitted
  std::uint64_t own_done_ = 0; // own ops the local replica has learned
  std::vector<std::uint64_t> submit_ns_;
  gam::sim::Histogram latency_us_;
};

void json_hist(std::FILE* f, const char* key, const gam::sim::Histogram& h,
               bool last) {
  std::fprintf(f,
               "    \"%s\": {\"count\": %llu, \"min_us\": %llu, "
               "\"max_us\": %llu, \"mean_us\": %.1f, \"p50_us\": %llu, "
               "\"p90_us\": %llu, \"p99_us\": %llu}%s\n",
               key, static_cast<unsigned long long>(h.count),
               static_cast<unsigned long long>(h.count ? h.min : 0),
               static_cast<unsigned long long>(h.max), h.mean(),
               static_cast<unsigned long long>(h.count ? h.quantile(0.5) : 0),
               static_cast<unsigned long long>(h.count ? h.quantile(0.9) : 0),
               static_cast<unsigned long long>(h.count ? h.quantile(0.99) : 0),
               last ? "" : ",");
}

int free_run(const Args& a) {
  const int gs = a.processes / a.groups;
  gam::net::GroupLogsConfig cfg;
  cfg.groups = a.groups;
  cfg.group_size = gs;
  cfg.batch = a.batch;
  cfg.window = a.window;
  gam::net::GroupLogs logs(cfg);
  const int n = logs.process_count();

  std::unique_ptr<gam::net::Transport> transport;
  if (a.backend == "tcp") {
    gam::net::TcpTransport::Options topt;
    topt.window = a.net_window;
    transport = std::make_unique<gam::net::TcpTransport>(n, topt);
  } else {
    gam::net::InProcTransport::Options iopt;
    iopt.ring_bytes = a.ring_bytes;
    iopt.window = a.net_window;
    transport = std::make_unique<gam::net::InProcTransport>(n, iopt);
  }
  gam::net::Runtime rt(*transport, gam::net::RuntimeOptions{});

  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<bool> time_up{false};

  std::vector<ProcessId> leaders;
  for (int g = 0; g < a.groups; ++g) leaders.push_back(logs.leader(g));
  std::vector<LoadDriver*> drivers(static_cast<std::size_t>(a.groups),
                                   nullptr);
  // Per-process delivery records for the monitors; each vector is written
  // only by its owner's event-loop thread.
  struct Delivery {
    int g;
    std::int64_t op;
    std::int64_t seq;
  };
  std::vector<std::vector<Delivery>> dels(static_cast<std::size_t>(n));
  const bool monitor = a.monitor;

  auto actors = logs.make_actors([&](ProcessId p, int g, std::int64_t op,
                                     std::int64_t seq) {
    delivered.fetch_add(1, std::memory_order_relaxed);
    if (monitor) dels[static_cast<std::size_t>(p)].push_back({g, op, seq});
    if (p == leaders[static_cast<std::size_t>(g)])
      drivers[static_cast<std::size_t>(g)]->on_own_delivery(op);
  });

  // In-flight cap for open throttle: enough to keep `window` instances of
  // `batch` ops full at the leader without letting pending_ grow unboundedly.
  const std::uint64_t cap =
      static_cast<std::uint64_t>(a.batch) * static_cast<std::uint64_t>(
          a.window) * 2;
  std::vector<std::shared_ptr<LoadDriver>> driver_refs;
  for (int g = 0; g < a.groups; ++g) {
    int idx = 0;
    for (ProcessId p : logs.group(g)) {
      if (p == leaders[static_cast<std::size_t>(g)]) break;
      ++idx;
    }
    auto d = std::make_shared<LoadDriver>(
        &logs.replica(g, idx), op_base(g), a.rate / a.groups, cap, &submitted,
        &time_up);
    drivers[static_cast<std::size_t>(g)] = d.get();
    logs.host(leaders[static_cast<std::size_t>(g)])
        .add(gam::sim::protocol_id(1), d);
    driver_refs.push_back(std::move(d));
  }

  for (ProcessId p = 0; p < n; ++p)
    rt.install(p, std::move(actors[static_cast<std::size_t>(p)]));

  // Flight recorder + optional full span capture. Every process gets a
  // stamping sink that feeds its own bounded ring (and, with --spans, a
  // per-process collector) — zero shared state on the event path.
  std::unique_ptr<gam::net::FlightRecorder> flight;
  std::vector<gam::sim::SpanCollector> span_cols;
  if (a.flight_events > 0) {
    flight = std::make_unique<gam::net::FlightRecorder>(n, a.flight_events);
    if (!a.spans.empty()) span_cols.resize(static_cast<std::size_t>(n));
    std::vector<gam::sim::SpanSink*> sinks;
    for (ProcessId p = 0; p < n; ++p) {
      if (!span_cols.empty())
        flight->set_collector(p, &span_cols[static_cast<std::size_t>(p)]);
      rt.set_span_sink(p, flight->sink(p));
      sinks.push_back(flight->sink(p));
    }
    logs.set_span_sinks(sinks);
  }

  std::signal(SIGINT, on_shutdown_signal);
  std::signal(SIGTERM, on_shutdown_signal);

  const auto start = Clock::now();
  const auto t_end = start + std::chrono::milliseconds(a.duration_ms);
  const std::uint64_t gs_u = static_cast<std::uint64_t>(gs);
  auto done = [&] {
    if (g_signal != 0) {
      // Graceful shutdown: stop immediately (no drain); the post-run path
      // still writes the JSON and dumps the flight recorder.
      time_up.store(true, std::memory_order_relaxed);
      return true;
    }
    if (!time_up.load(std::memory_order_relaxed)) {
      if (Clock::now() < t_end) return false;
      time_up.store(true, std::memory_order_relaxed);
    }
    // After the stop flag, submitted is quiescing; equality means every
    // submitted op was delivered by its full group.
    return delivered.load(std::memory_order_relaxed) ==
           submitted.load(std::memory_order_relaxed) * gs_u;
  };

  // Live introspection: a snapshot line every --stats-interval ms from the
  // runtime's relaxed per-process stats, without touching the run. With
  // --stats-out, machine-readable snapshot blocks for tools/gam_top ride
  // along.
  std::atomic<bool> run_over{false};
  std::thread stats_thread;
  if (a.stats_interval_ms > 0) {
    stats_thread = std::thread([&] {
      std::FILE* sf =
          a.stats_out.empty() ? nullptr : std::fopen(a.stats_out.c_str(), "w");
      std::uint64_t snap = 0;
      std::uint64_t last_mc = 0;
      auto last_t = Clock::now();
      while (!run_over.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(a.stats_interval_ms));
        const auto now = Clock::now();
        const std::uint64_t sub = submitted.load(std::memory_order_relaxed);
        const std::uint64_t del = delivered.load(std::memory_order_relaxed);
        const std::uint64_t mc = del / gs_u;
        const double dt =
            static_cast<double>(ns_between(last_t, now)) / 1e9;
        const double rate =
            dt > 0 ? static_cast<double>(mc - last_mc) / dt : 0.0;
        const std::uint64_t inflight = sub * gs_u - del;
        std::uint64_t outbox = 0, hwm = 0, backoff_max = 0, cap_hits = 0;
        for (ProcessId p = 0; p < n; ++p) {
          const auto s = rt.stats(p);
          outbox += s.outbox_depth;
          hwm = std::max(hwm, s.outbox_hwm);
          backoff_max = std::max(backoff_max, s.idle_backoff_us);
          cap_hits += s.idle_backoff_max_reached;
        }
        std::fprintf(stderr,
                     "[stats %6.1fs] rate=%.0f/s inflight=%llu outbox=%llu "
                     "(hwm %llu) backoff<=%lluus cap_hits=%llu steps=%llu\n",
                     static_cast<double>(ns_between(start, now)) / 1e9, rate,
                     static_cast<unsigned long long>(inflight),
                     static_cast<unsigned long long>(outbox),
                     static_cast<unsigned long long>(hwm),
                     static_cast<unsigned long long>(backoff_max),
                     static_cast<unsigned long long>(cap_hits),
                     static_cast<unsigned long long>(rt.total_steps()));
        if (sf) {
          std::fprintf(sf, "S %llu %llu %llu %llu %.0f %llu\n",
                       static_cast<unsigned long long>(snap),
                       static_cast<unsigned long long>(
                           ns_between(start, now) / 1000000),
                       static_cast<unsigned long long>(sub),
                       static_cast<unsigned long long>(mc), rate,
                       static_cast<unsigned long long>(inflight));
          for (ProcessId p = 0; p < n; ++p) {
            const auto s = rt.stats(p);
            std::fprintf(
                sf, "P %d %llu %llu %llu %llu %llu\n", p,
                static_cast<unsigned long long>(s.steps),
                static_cast<unsigned long long>(s.outbox_depth),
                static_cast<unsigned long long>(s.outbox_hwm),
                static_cast<unsigned long long>(s.idle_backoff_us),
                static_cast<unsigned long long>(s.idle_backoff_max_reached));
          }
          std::fprintf(sf, "E %llu\n", static_cast<unsigned long long>(snap));
          std::fflush(sf);
        }
        last_mc = mc;
        last_t = now;
        ++snap;
      }
      if (sf) std::fclose(sf);
    });
  }

  const auto budget =
      std::chrono::milliseconds(a.duration_ms * 4 + 20000);
  const bool completed = rt.run(done, budget);
  run_over.store(true, std::memory_order_relaxed);
  if (stats_thread.joinable()) stats_thread.join();
  const bool interrupted = g_signal != 0;
  const double elapsed =
      static_cast<double>(ns_between(start, Clock::now())) / 1e9;

  const std::uint64_t dels_total = delivered.load();
  const std::uint64_t completed_mc = dels_total / gs_u;
  const double mps = elapsed > 0 ? static_cast<double>(completed_mc) / elapsed
                                 : 0.0;

  // Fold per-driver latency into the metrics registry (one labeled series
  // per group), then report from the registry.
  gam::sim::Metrics reg;
  for (int g = 0; g < a.groups; ++g) {
    reg.histogram("deliver_latency_us", "g" + std::to_string(g))
        .merge(drivers[static_cast<std::size_t>(g)]->latency_us());
    reg.counter("submitted", "g" + std::to_string(g))
        .add(drivers[static_cast<std::size_t>(g)]->submitted_count());
  }
  const gam::sim::Histogram all = reg.merged_histogram("deliver_latency_us");

  // Net-runtime introspection folded into the registry: how often each
  // process's idle backoff hit its cap, and how deep its outbox ever got.
  std::uint64_t backoff_cap_total = 0, outbox_hwm_max = 0;
  for (ProcessId p = 0; p < n; ++p) {
    const auto s = rt.stats(p);
    reg.counter("idle_backoff_max_reached", "p" + std::to_string(p))
        .add(s.idle_backoff_max_reached);
    reg.gauge("outbox_depth", "p" + std::to_string(p))
        .set(static_cast<std::int64_t>(s.outbox_hwm));
    backoff_cap_total += s.idle_backoff_max_reached;
    outbox_hwm_max = std::max(outbox_hwm_max, s.outbox_hwm);
  }

  // Monitor pass: synthesize the protocol-level stream. Per-process delivery
  // order is preserved (each process's records are appended in its own
  // delivery order), which is all the acyclicity monitor reads.
  std::string monitor_verdict = "skipped";
  std::vector<std::string> violation_text;
  if (monitor) {
    if (interrupted) {
      monitor_verdict = "skipped_interrupted";
    } else if (!completed) {
      monitor_verdict = "skipped_incomplete_run";
    } else {
      gam::sim::MonitorConfig mc;
      mc.groups = logs.group_sets();
      mc.protocol_base = cfg.protocol_base;
      gam::sim::InvariantMonitors mons(mc);
      gam::sim::Time t = 0;
      for (int g = 0; g < a.groups; ++g) {
        const std::uint64_t k =
            drivers[static_cast<std::size_t>(g)]->submitted_count();
        for (std::uint64_t i = 0; i < k; ++i) {
          gam::sim::TraceEvent e;
          e.t = t++;
          e.p = leaders[static_cast<std::size_t>(g)];
          e.kind = gam::sim::TraceEventKind::kMulticast;
          e.protocol = gam::sim::raw(cfg.protocol_base + g);
          e.peer = e.p;
          e.arg = op_base(g) + static_cast<std::int64_t>(i);
          mons.on_event(e);
        }
      }
      // Interleave deliveries round-robin by position rather than feeding
      // whole per-process sequences back to back: per-process order (all the
      // monitors read) is identical either way, but back-to-back feeding
      // makes the acyclicity check walk a delivery-count-long edge chain per
      // event — quadratic, minutes at smoke-test volumes.
      std::size_t longest = 0;
      for (const auto& v : dels) longest = std::max(longest, v.size());
      for (std::size_t i = 0; i < longest; ++i) {
        for (ProcessId p = 0; p < n; ++p) {
          const auto& v = dels[static_cast<std::size_t>(p)];
          if (i >= v.size()) continue;
          const Delivery& d = v[i];
          gam::sim::TraceEvent e;
          e.t = t++;
          e.p = p;
          e.kind = gam::sim::TraceEventKind::kDeliver;
          e.protocol = gam::sim::raw(cfg.protocol_base + d.g);
          e.type = static_cast<std::int32_t>(d.seq);
          e.arg = d.op;
          mons.on_event(e);
        }
      }
      mons.finalize(true);
      if (mons.ok()) {
        monitor_verdict = "clean";
      } else {
        monitor_verdict =
            "violations:" + std::to_string(mons.violations().size());
        for (const auto& v : mons.violations())
          violation_text.push_back(gam::sim::format_violation(v));
      }
    }
  }

  // Failure evidence: dump the flight-recorder rings on any of the three
  // shutdown-with-a-problem paths (threads are joined; plain reads are safe).
  const bool floor_failed = !interrupted && a.min_rate > 0 && mps < a.min_rate;
  const bool monitor_tripped = monitor_verdict.rfind("violations", 0) == 0;
  std::string flight_path;
  if (flight && (interrupted || monitor_tripped || floor_failed)) {
    const std::string base = a.flight.empty() ? a.out : a.flight;
    flight_path = gam::net::flight_dump_path(base);
    if (!flight->dump(flight_path)) {
      std::fprintf(stderr, "cannot write flight dump %s\n",
                   flight_path.c_str());
      flight_path.clear();
    }
  }
  std::string span_path;
  if (!a.spans.empty()) {
    std::vector<gam::sim::SpanEvent> all_spans;
    for (auto& c : span_cols)
      all_spans.insert(all_spans.end(), c.events().begin(), c.events().end());
    std::stable_sort(all_spans.begin(), all_spans.end(),
                     [](const gam::sim::SpanEvent& x,
                        const gam::sim::SpanEvent& y) {
                       if (x.t != y.t) return x.t < y.t;
                       return x.p < y.p;
                     });
    if (gam::sim::write_spans(a.spans, all_spans, "ns")) span_path = a.spans;
  }

  std::FILE* f = std::fopen(a.out.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", a.out.c_str());
    return 2;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"gam-net-bench v1\",\n");
  std::fprintf(f, "  \"git_rev\": \"%s\",\n", GAM_GIT_REV);
  std::fprintf(f, "  \"build_type\": \"%s\",\n", GAM_BUILD_TYPE);
  std::fprintf(f, "  \"sanitize\": \"%s\",\n", GAM_SANITIZE_STR);
  std::fprintf(f, "  \"backend\": \"%s\",\n", a.backend.c_str());
  std::fprintf(f, "  \"processes\": %d,\n", n);
  std::fprintf(f, "  \"groups\": %d,\n", a.groups);
  std::fprintf(f, "  \"group_size\": %d,\n", gs);
  std::fprintf(f, "  \"batch_k\": %d,\n", a.batch);
  std::fprintf(f, "  \"window_size\": %d,\n", a.window);
  std::fprintf(f, "  \"net_window\": %llu,\n",
               static_cast<unsigned long long>(a.net_window));
  std::fprintf(f, "  \"ring_bytes\": %llu,\n",
               static_cast<unsigned long long>(a.ring_bytes));
  std::fprintf(f, "  \"rate_target\": %.0f,\n", a.rate);
  std::fprintf(f, "  \"duration_ms\": %d,\n", a.duration_ms);
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"completed_ok\": %s,\n", completed ? "true" : "false");
  std::fprintf(f, "  \"submitted\": %llu,\n",
               static_cast<unsigned long long>(submitted.load()));
  std::fprintf(f, "  \"completed_multicasts\": %llu,\n",
               static_cast<unsigned long long>(completed_mc));
  std::fprintf(f, "  \"deliveries\": %llu,\n",
               static_cast<unsigned long long>(dels_total));
  std::fprintf(f, "  \"elapsed_sec\": %.3f,\n", elapsed);
  std::fprintf(f, "  \"multicasts_per_sec\": %.0f,\n", mps);
  std::fprintf(f, "  \"total_actor_steps\": %llu,\n",
               static_cast<unsigned long long>(rt.total_steps()));
  std::fprintf(f, "  \"monitors\": \"%s\",\n", monitor_verdict.c_str());
  std::fprintf(f, "  \"interrupted\": %s,\n", interrupted ? "true" : "false");
  std::fprintf(f, "  \"idle_backoff_max_reached\": %llu,\n",
               static_cast<unsigned long long>(backoff_cap_total));
  std::fprintf(f, "  \"outbox_depth_hwm\": %llu,\n",
               static_cast<unsigned long long>(outbox_hwm_max));
  std::fprintf(f, "  \"flight_dump\": \"%s\",\n", flight_path.c_str());
  std::fprintf(f, "  \"spans\": \"%s\",\n", span_path.c_str());
  std::fprintf(f, "  \"latency_us\": {\n");
  for (int g = 0; g < a.groups; ++g) {
    const std::string key = "g" + std::to_string(g);
    json_hist(f, key.c_str(),
              drivers[static_cast<std::size_t>(g)]->latency_us(), false);
  }
  json_hist(f, "all", all, true);
  std::fprintf(f, "  },\n");
  std::fprintf(f,
               "  \"caveats\": \"thread-per-process on %u hardware thread(s); "
               "on an oversubscribed CI container throughput is "
               "scheduling-bound, see EXPERIMENTS.md\"\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("gam_loadgen: backend=%s n=%d groups=%d gs=%d batch=%d "
              "window=%d\n",
              a.backend.c_str(), n, a.groups, gs, a.batch, a.window);
  std::printf("  completed=%s multicasts=%llu elapsed=%.3fs rate=%.0f/s "
              "monitors=%s\n",
              completed ? "yes" : "TIMEOUT",
              static_cast<unsigned long long>(completed_mc), elapsed, mps,
              monitor_verdict.c_str());
  for (const auto& v : violation_text)
    std::printf("  VIOLATION %s\n", v.c_str());
  if (!flight_path.empty())
    std::printf("  flight recorder dumped to %s\n", flight_path.c_str());

  if (interrupted) {
    std::printf("  interrupted by signal %d; results flushed to %s\n",
                static_cast<int>(g_signal), a.out.c_str());
    return 130;
  }
  if (!completed) return 1;
  if (monitor && monitor_verdict != "clean") return 1;
  if (floor_failed) {
    std::printf("  FLOOR FAILED: %.0f < %.0f multicasts/sec\n", mps,
                a.min_rate);
    return 3;
  }
  return 0;
}

int record_run(const Args& a) {
  const int gs = a.processes / a.groups;
  gam::net::GroupLogsConfig cfg;
  cfg.groups = a.groups;
  cfg.group_size = gs;
  cfg.batch = a.batch;
  cfg.window = a.window;
  gam::net::GroupLogs logs(cfg);
  const int n = logs.process_count();

  // Record mode: a send must never fail (the World's cannot), so the window
  // is unthrottled and the rings are sized generously.
  gam::net::InProcTransport::Options iopt;
  iopt.ring_bytes = std::max<std::size_t>(a.ring_bytes, std::size_t{1} << 20);
  iopt.window = 0;
  gam::net::InProcTransport transport(n, iopt);
  gam::net::RuntimeOptions ropt;
  ropt.record = true;
  gam::net::Runtime rt(transport, ropt);

  // Plain counter: record-mode deliveries happen under the step mutex, and
  // done() is evaluated under it too.
  std::uint64_t delivered = 0;
  auto actors = logs.make_actors([&](ProcessId p, int g, std::int64_t op,
                                     std::int64_t seq) {
    ++delivered;
    rt.trace_deliver(p, logs.protocol(g), op, seq);
  });
  for (ProcessId p = 0; p < n; ++p)
    rt.install(p, std::move(actors[static_cast<std::size_t>(p)]));

  // --spans on a recorded run: the same flight-recorder sinks, but stamped
  // with the runtime's global step clock (every emission happens under the
  // step mutex, or at t=0 for the pre-run submissions), so the span file
  // lines up with the recorded trace.
  std::unique_ptr<gam::net::FlightRecorder> flight;
  std::vector<gam::sim::SpanCollector> span_cols;
  if (!a.spans.empty()) {
    flight = std::make_unique<gam::net::FlightRecorder>(
        n, a.flight_events > 0 ? a.flight_events : 4096,
        [&rt] { return static_cast<std::uint64_t>(rt.now()); });
    span_cols.resize(static_cast<std::size_t>(n));
    std::vector<gam::sim::SpanSink*> sinks;
    for (ProcessId p = 0; p < n; ++p) {
      flight->set_collector(p, &span_cols[static_cast<std::size_t>(p)]);
      sinks.push_back(flight->sink(p));
    }
    logs.set_span_sinks(sinks);
  }

  std::vector<std::pair<int, std::int64_t>> submissions;
  for (int g = 0; g < a.groups; ++g)
    for (int i = 0; i < a.ops; ++i)
      submissions.emplace_back(g, op_base(g) + i);
  for (const auto& [g, op] : submissions) logs.submit_at_leader(g, op);

  const std::uint64_t want = static_cast<std::uint64_t>(a.ops) *
                             static_cast<std::uint64_t>(a.groups) *
                             static_cast<std::uint64_t>(gs);
  const bool completed =
      rt.run([&] { return delivered == want; }, std::chrono::seconds(60));
  if (!completed) {
    std::fprintf(stderr, "record run timed out (%llu/%llu deliveries)\n",
                 static_cast<unsigned long long>(delivered),
                 static_cast<unsigned long long>(want));
    return 1;
  }

  const auto& live = rt.recorder().events();
  gam::sim::write_trace(a.trace_live, live);

  if (!a.spans.empty()) {
    std::vector<gam::sim::SpanEvent> all_spans;
    for (auto& c : span_cols)
      all_spans.insert(all_spans.end(), c.events().begin(), c.events().end());
    std::stable_sort(all_spans.begin(), all_spans.end(),
                     [](const gam::sim::SpanEvent& x,
                        const gam::sim::SpanEvent& y) {
                       if (x.t != y.t) return x.t < y.t;
                       return x.p < y.p;
                     });
    gam::sim::write_spans(a.spans, all_spans, "steps");
  }

  auto replay = gam::net::replay_in_simulator(cfg, submissions, live);
  gam::sim::write_trace(a.trace_replay, replay.events);

  const auto div = gam::sim::first_divergence(live, replay.events);
  std::printf("gam_loadgen --record: n=%d groups=%d ops/group=%d "
              "live_events=%zu replay_events=%zu hash=%016llx\n",
              n, a.groups, a.ops, live.size(), replay.events.size(),
              static_cast<unsigned long long>(rt.recorder().hash()));
  if (div.has_value()) {
    std::printf("  DIVERGENCE at event %zu\n", *div);
    const auto show = [&](const char* which,
                          const std::vector<gam::sim::TraceEvent>& ev) {
      if (*div < ev.size())
        std::printf("    %s: %s\n", which,
                    gam::sim::format_event(ev[*div]).c_str());
      else
        std::printf("    %s: <stream ended>\n", which);
    };
    show("live  ", live);
    show("replay", replay.events);
    return 1;
  }
  std::printf("  replay matches live run event for event (%zu events)\n",
              live.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.record) return record_run(args);
  return free_run(args);
}
