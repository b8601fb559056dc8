#include "live.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <unordered_map>

#include "net/group_logs.hpp"
#include "net/runtime.hpp"
#include "net/tcp_transport.hpp"
#include "net/transport.hpp"
#include "sim/monitors.hpp"
#include "tracing.hpp"

namespace perfbench {

namespace {

using gam::ProcessId;

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// The log and transport knobs gam_loadgen uses for this shape.
constexpr int kGroupSize = 2;
constexpr int kBatch = 256;
constexpr int kWindow = 4;
constexpr std::uint64_t kOutstanding = 2 * kBatch * kWindow;
constexpr std::uint64_t kNetWindow = 256;
constexpr std::size_t kRingBytes = std::size_t{1} << 20;
// Delivery deadline after the schedule; only a failing run waits for it.
constexpr double kDrainS = 20;
// The closed loop times one op in kClosedLoopEvery (a clock read per
// delivery would cost a few percent of its throughput); the open loop
// times every op.
constexpr std::uint64_t kClosedLoopEvery = 8;
// Traced runs feed the monitors this many delivered positions per group.
constexpr std::size_t kMonitorOps = 100000;
// Ops one idle slot may submit; bounds the length of a client step.
constexpr std::uint64_t kBurst = 4096;
// The client speaks a protocol id below every log's (100 + g), so the host
// offers it each idle slot first; it then reports no work, and the same slot
// reaches the log (see ProtocolHost::on_step).
constexpr auto kClientProtocol = gam::sim::protocol_id(1);

// One replica's delivery record, written only by its event-loop thread.
struct alignas(64) Replica {
  std::vector<std::int64_t> seq;
  std::vector<std::uint64_t> deliver_ns;  // by timed op slot
  std::atomic<std::uint64_t> count{0};    // read by done() on any thread
  std::uint64_t last_ns = 0;
};

// The benchmark's client: a SubProtocol colocated with its group's Ω leader,
// so UniversalLog::submit runs on the leader's own thread.
class Client final : public gam::objects::SubProtocol {
 public:
  struct Plan {
    bool open = false;
    std::uint64_t total = 0;        // ops this client submits
    std::uint64_t cap = 0;          // closed loop: ops in flight
    std::uint64_t start_ns = 0;     // open loop: due time of op 0
    double period_ns = 0;           // open loop: schedule spacing
    std::uint64_t latency_every = 1;  // time ops whose index is a multiple
    bool greedy = false;
  };

  Client(gam::objects::UniversalLog& log, const OpIds& ids, int g, Plan plan,
         ProcTrace* trace)
      : log_(log), ids_(ids), g_(g), plan_(plan), trace_(trace),
        submit_ns_((plan.total + plan.latency_every - 1) / plan.latency_every,
                   0) {}

  void on_message(gam::sim::Context&, const gam::sim::Message&) override {}

  bool wants_step() const override {
    if (next_ >= plan_.total) return false;
    if (plan_.open) return now_ns() >= due(next_);
    return next_ - acked_ < plan_.cap;
  }

  bool on_idle(gam::sim::Context&) override {
    const std::uint64_t t = now_ns();
    std::uint64_t n = 0;
    while (next_ < plan_.total && n < kBurst) {
      if (plan_.open ? due(next_) > t : next_ - acked_ >= plan_.cap) break;
      submit(next_, t);
      ++next_;
      ++n;
    }
    // gam_loadgen's driver returns true here, which ends the host's idle
    // slot before the colocated log can open Paxos instances.
    return plan_.greedy && n > 0;
  }

  void on_leader_delivery() { ++acked_; }

  std::uint64_t due(std::uint64_t i) const {
    return plan_.start_ns +
           static_cast<std::uint64_t>(static_cast<double>(i) * plan_.period_ns);
  }
  std::uint64_t submitted() const { return next_; }
  std::uint64_t first_submit_ns() const { return first_ns_; }
  // Submit instant of timed op slot k (op index k * latency_every).
  std::uint64_t submit_ns(std::uint64_t k) const { return submit_ns_[k]; }
  std::uint64_t submit_calls_ns() const { return submit_calls_ns_; }

 private:
  void submit(std::uint64_t i, std::uint64_t t_slot) {
    const std::int64_t op = ids_.id(g_, i);
    const bool timed = i % plan_.latency_every == 0;
    // The open loop stamps every op with its slot's instant; the closed loop
    // reads the clock only for the ops it times.
    const std::uint64_t t0 = plan_.open ? t_slot : (timed ? now_ns() : 0);
    if (first_ns_ == 0) first_ns_ = t0 ? t0 : now_ns();
    if (timed) submit_ns_[i / plan_.latency_every] = t0;
    if (trace_) {
      const std::uint64_t s0 = now_ns();
      log_.submit(op, nullptr);
      const std::uint64_t s1 = now_ns();
      submit_calls_ns_ += s1 - s0;
      if (i % kSampleEvery == 0)
        trace_->spans.record(SpanName::kSubmit, op,
                             plan_.open ? due(i) : s0, s1);
      return;
    }
    log_.submit(op, nullptr);
  }

  gam::objects::UniversalLog& log_;
  const OpIds& ids_;
  int g_;
  Plan plan_;
  ProcTrace* trace_;
  std::uint64_t next_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t first_ns_ = 0;
  std::uint64_t submit_calls_ns_ = 0;
  std::vector<std::uint64_t> submit_ns_;
};

// Per-layer raw totals summed over the batches of a traced run.
struct LayerAcc {
  ProcTrace sum;  // counters only; its spans and maps stay empty
  TailTracker step_tail{4096};
  std::vector<std::uint64_t> wire_wait_ns, round_ns;
  std::uint64_t submit_calls = 0, submit_calls_ns = 0;
  std::uint64_t completed_mc = 0, leader_ops = 0, instances = 0;
  std::uint64_t thread_wall_ns = 0, outbox_hwm = 0, backoff_cap_hits = 0;
  std::uint64_t spans_dropped = 0;
  std::vector<double> net_setup_ms;

  void absorb(const std::vector<ProcTrace>& procs) {
    std::unordered_map<std::uint64_t, std::uint64_t> out_at;
    for (const ProcTrace& p : procs) {
      sum.sends += p.sends;
      sum.refused += p.refused;
      sum.send_ns += p.send_ns;
      sum.bytes += p.bytes;
      sum.polls += p.polls;
      sum.hits += p.hits;
      sum.poll_ns += p.poll_ns;
      sum.pumps += p.pumps;
      sum.pump_ns += p.pump_ns;
      sum.steps += p.steps;
      sum.idle_steps += p.idle_steps;
      sum.step_ns += p.step_ns;
      sum.step_self_ns += p.step_self_ns;
      sum.idle_self_ns += p.idle_self_ns;
      sum.nested_transport_ns += p.nested_transport_ns;
      sum.ctx_sends += p.ctx_sends;
      sum.fd_queries += p.fd_queries;
      sum.rounds += p.rounds;
      step_tail.merge(p.step_tail);
      round_ns.insert(round_ns.end(), p.round_ns.begin(), p.round_ns.end());
      spans_dropped += p.spans.dropped();
      for (const auto& [id, t] : p.wire_out) out_at.emplace(id, t);
    }
    for (const ProcTrace& p : procs)
      for (const auto& [id, t] : p.wire_in) {
        auto it = out_at.find(id);
        if (it != out_at.end() && t >= it->second)
          wire_wait_ns.push_back(t - it->second);
      }
  }
};

struct BatchOut {
  Outcome outcome;
  std::string error;
  double setup_s = 0;
  double mps = 0;
  std::vector<std::uint64_t> latency_ns, lateness_ns;
};

gam::net::GroupLogsConfig logs_config(const LiveConfig& cfg) {
  gam::net::GroupLogsConfig g;
  g.groups = cfg.groups;
  g.group_size = kGroupSize;
  g.batch = kBatch;
  g.window = kWindow;
  return g;
}

std::unique_ptr<gam::net::Transport> make_transport(const LiveConfig& cfg,
                                                    int n) {
  if (cfg.tcp) {
    gam::net::TcpTransport::Options o;
    o.window = kNetWindow;
    return std::make_unique<gam::net::TcpTransport>(n, o);
  }
  gam::net::InProcTransport::Options o;
  o.ring_bytes = kRingBytes;
  o.window = kNetWindow;
  return std::make_unique<gam::net::InProcTransport>(n, o);
}

// Index of p among group g's members (ascending pid order).
int member_index(const gam::net::GroupLogs& logs, int g, ProcessId p) {
  int idx = 0;
  for (ProcessId q : logs.group(g)) {
    if (q == p) return idx;
    ++idx;
  }
  return -1;
}

// Rebuilds the protocol-level stream from the first `limit` positions of each
// replica's sequence (equal prefixes, so every delivered op is delivered at
// all replicas) and runs the invariant monitors over it.
std::string monitor_prefix(const gam::net::GroupLogs& logs,
                           const std::vector<Replica>& reps,
                           const std::vector<ProcessId>& leaders,
                           std::size_t limit) {
  gam::sim::MonitorConfig mc;
  mc.groups = logs.group_sets();
  mc.protocol_base = logs.config().protocol_base;
  gam::sim::InvariantMonitors mons(mc);
  gam::sim::Time t = 0;
  const int groups = logs.config().groups;
  for (int g = 0; g < groups; ++g) {
    std::size_t common = SIZE_MAX;
    for (ProcessId p : logs.group(g))
      common = std::min(common, reps[static_cast<std::size_t>(p)].seq.size());
    const auto& ref = reps[static_cast<std::size_t>(leaders[static_cast<std::size_t>(g)])].seq;
    for (std::size_t i = 0; i < std::min(common, limit); ++i) {
      gam::sim::TraceEvent e;
      e.t = t++;
      e.p = leaders[static_cast<std::size_t>(g)];
      e.kind = gam::sim::TraceEventKind::kMulticast;
      e.protocol = gam::sim::raw(logs.protocol(g));
      e.peer = e.p;
      e.arg = ref[i];
      mons.on_event(e);
    }
  }
  // Round-robin by position keeps the acyclicity probe linear.
  for (std::size_t i = 0; i < limit; ++i) {
    bool any = false;
    for (int g = 0; g < groups; ++g) {
      std::size_t common = SIZE_MAX;
      for (ProcessId p : logs.group(g))
        common = std::min(common, reps[static_cast<std::size_t>(p)].seq.size());
      if (i >= common) continue;
      any = true;
      std::int64_t seq = static_cast<std::int64_t>(i);
      for (ProcessId p : logs.group(g)) {
        gam::sim::TraceEvent e;
        e.t = t++;
        e.p = p;
        e.kind = gam::sim::TraceEventKind::kDeliver;
        e.protocol = gam::sim::raw(logs.protocol(g));
        e.type = static_cast<std::int32_t>(seq);
        e.arg = reps[static_cast<std::size_t>(p)].seq[i];
        mons.on_event(e);
      }
    }
    if (!any) break;
  }
  mons.finalize(true);
  if (mons.ok()) return "";
  return gam::sim::format_violation(mons.violations().front());
}

// One runtime run: set up, submit `per_group` ops per client, drain, check.
BatchOut run_batch(const LiveConfig& cfg, const OpIds& ids,
                   std::uint64_t per_group, std::uint64_t timed_from,
                   LayerAcc* acc, bool monitor) {
  BatchOut out;
  const int n = cfg.groups * kGroupSize;
  const bool open = cfg.rate > 0;
  const std::uint64_t every = open ? 1 : kClosedLoopEvery;
  const std::uint64_t slots = (per_group + every - 1) / every;

  // Harness bookkeeping first, outside the set-up timer.
  std::vector<Replica> reps(static_cast<std::size_t>(n));
  for (auto& r : reps) {
    r.seq.reserve(per_group);
    r.deliver_ns.assign(slots, 0);
  }
  std::vector<ProcTrace> procs(acc ? static_cast<std::size_t>(n) : 0);
  std::vector<std::unique_ptr<ProcSpanSink>> sinks;

  const std::uint64_t t_setup0 = now_ns();
  gam::net::GroupLogs logs(logs_config(cfg));
  std::vector<ProcessId> leaders;
  for (int g = 0; g < cfg.groups; ++g) leaders.push_back(logs.leader(g));
  std::vector<Client*> clients(static_cast<std::size_t>(cfg.groups), nullptr);

  auto actors = logs.make_actors([&](ProcessId p, int g, std::int64_t op,
                                     std::int64_t) {
    Replica& r = reps[static_cast<std::size_t>(p)];
    r.seq.push_back(op);
    const auto idx = ids.index(g, op);
    if (idx && *idx % every == 0 && *idx / every < slots)
      r.deliver_ns[*idx / every] = now_ns();
    const std::uint64_t k = r.count.load(std::memory_order_relaxed) + 1;
    r.count.store(k, std::memory_order_relaxed);
    if (k == per_group) r.last_ns = now_ns();
    if (p == leaders[static_cast<std::size_t>(g)])
      clients[static_cast<std::size_t>(g)]->on_leader_delivery();
  });

  std::vector<std::shared_ptr<Client>> client_refs;
  const std::uint64_t start_ns = now_ns() + 2'000'000;  // threads spawned
  for (int g = 0; g < cfg.groups; ++g) {
    Client::Plan plan;
    plan.open = open;
    plan.total = per_group;
    plan.cap = kOutstanding;
    plan.start_ns = start_ns;
    plan.period_ns = open ? 1e9 / (cfg.rate / cfg.groups) : 0;
    plan.latency_every = every;
    plan.greedy = cfg.greedy_client;
    const ProcessId l = leaders[static_cast<std::size_t>(g)];
    auto c = std::make_shared<Client>(
        logs.replica(g, member_index(logs, g, l)), ids, g, plan,
        acc ? &procs[static_cast<std::size_t>(l)] : nullptr);
    clients[static_cast<std::size_t>(g)] = c.get();
    logs.host(l).add(kClientProtocol, c);
    client_refs.push_back(std::move(c));
  }

  const std::uint64_t t_net0 = now_ns();
  auto base = make_transport(cfg, n);
  std::unique_ptr<TracingTransport> traced_transport;
  gam::net::Transport* transport = base.get();
  if (acc) {
    traced_transport = std::make_unique<TracingTransport>(*base, procs);
    transport = traced_transport.get();
  }
  gam::net::Runtime rt(*transport, gam::net::RuntimeOptions{});
  const std::uint64_t t_net1 = now_ns();
  for (ProcessId p = 0; p < n; ++p) {
    auto a = std::move(actors[static_cast<std::size_t>(p)]);
    if (acc)
      a = std::make_unique<TracingActor>(std::move(a),
                                         procs[static_cast<std::size_t>(p)]);
    rt.install(p, std::move(a));
  }
  if (acc) {
    std::vector<gam::sim::SpanSink*> by_pid;
    for (ProcessId p = 0; p < n; ++p) {
      sinks.push_back(
          std::make_unique<ProcSpanSink>(procs[static_cast<std::size_t>(p)]));
      rt.set_span_sink(p, sinks.back().get());
      by_pid.push_back(sinks.back().get());
    }
    logs.set_span_sinks(by_pid);
  }
  out.setup_s = static_cast<double>(now_ns() - t_setup0) / 1e9;
  if (acc) acc->net_setup_ms.push_back(static_cast<double>(t_net1 - t_net0) / 1e6);

  const std::uint64_t want = per_group * static_cast<std::uint64_t>(n);
  auto done = [&] {
    std::uint64_t got = 0;
    for (const Replica& r : reps) got += r.count.load(std::memory_order_relaxed);
    return got == want;
  };
  const double schedule_s =
      open ? static_cast<double>(per_group) / (cfg.rate / cfg.groups) : 0;
  const auto budget = std::chrono::milliseconds(
      static_cast<long long>((schedule_s + kDrainS) * 1000) + 100);
  const std::uint64_t t_run0 = now_ns();
  rt.run(done, budget);
  const std::uint64_t t_run1 = now_ns();

  // Checks: per-group sequences, then timing of the ops that reached every
  // replica. Undelivered ops fail and miss every latency limit.
  std::uint64_t last_ns = 0, first_ns = UINT64_MAX, completed = 0;
  std::vector<std::uint64_t> delivered;
  for (int g = 0; g < cfg.groups; ++g) {
    std::vector<const std::vector<std::int64_t>*> seqs;
    for (ProcessId p : logs.group(g)) {
      seqs.push_back(&reps[static_cast<std::size_t>(p)].seq);
      last_ns = std::max(last_ns, reps[static_cast<std::size_t>(p)].last_ns);
    }
    const Client& c = *clients[static_cast<std::size_t>(g)];
    first_ns = std::min(first_ns, c.first_submit_ns());
    const SequenceCheck chk = check_group_sequences(seqs, ids, g, c.submitted());
    Outcome o;
    o.attempted = per_group;
    o.failed = per_group - std::min(per_group, chk.delivered_everywhere);
    o.safety_ok = chk.safety_ok;
    out.outcome.add(o);
    completed += chk.delivered_everywhere;
    if (!chk.safety_ok && out.error.empty())
      out.error = "g" + std::to_string(g) + ": " + chk.error;
    for (std::uint64_t k = timed_from / every; k < slots; ++k) {
      const std::uint64_t i = k * every;
      delivered.clear();
      for (ProcessId p : logs.group(g))
        delivered.push_back(reps[static_cast<std::size_t>(p)].deliver_ns[k]);
      const std::uint64_t from = open ? c.due(i) : c.submit_ns(k);
      if (acc && i % kSampleEvery == 0)
        for (ProcessId p : logs.group(g)) {
          const std::uint64_t t = reps[static_cast<std::size_t>(p)].deliver_ns[k];
          if (t != 0)
            procs[static_cast<std::size_t>(p)].spans.record(
                SpanName::kDeliver, ids.id(g, i), from, t);
        }
      out.latency_ns.push_back(op_latency(from, delivered));
      if (open && c.submit_ns(k) != 0)
        out.lateness_ns.push_back(c.submit_ns(k) - std::min(c.submit_ns(k), from));
    }
  }
  if (last_ns > first_ns && out.outcome.failed == 0)
    out.mps = static_cast<double>(completed) /
              (static_cast<double>(last_ns - first_ns) / 1e9);

  if (acc) {
    acc->absorb(procs);
    for (ProcessId p = 0; p < n; ++p) {
      const auto s = rt.stats(p);
      acc->outbox_hwm = std::max(acc->outbox_hwm, s.outbox_hwm);
      acc->backoff_cap_hits += s.idle_backoff_max_reached;
    }
    for (int g = 0; g < cfg.groups; ++g) {
      const ProcessId l = leaders[static_cast<std::size_t>(g)];
      acc->submit_calls += clients[static_cast<std::size_t>(g)]->submitted();
      acc->submit_calls_ns += clients[static_cast<std::size_t>(g)]->submit_calls_ns();
      acc->leader_ops += reps[static_cast<std::size_t>(l)].seq.size();
      acc->instances += static_cast<std::uint64_t>(
          procs[static_cast<std::size_t>(l)].max_inst + 1);
    }
    acc->completed_mc += completed;
    acc->thread_wall_ns += (t_run1 - t_run0) * static_cast<std::uint64_t>(n);
    if (monitor && out.outcome.safety_ok) {
      const std::string v = monitor_prefix(logs, reps, leaders, kMonitorOps);
      if (!v.empty()) {
        out.outcome.safety_ok = false;
        out.error = "monitors: " + v;
      }
    }
    if (!cfg.spans_path.empty()) {
      std::vector<const SpanBuffer*> bufs;
      for (const ProcTrace& p : procs) bufs.push_back(&p.spans);
      if (!write_span_file(cfg.spans_path, bufs) && out.error.empty())
        out.error = "cannot write " + cfg.spans_path;
    }
  }
  return out;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

void fill_layers(const LayerAcc& a, LiveResult& r) {
  const ProcTrace& s = a.sum;
  const double mc = static_cast<double>(a.completed_mc);
  const double wall = static_cast<double>(a.thread_wall_ns);
  const double transport_ns =
      static_cast<double>(s.send_ns + s.poll_ns + s.pump_ns);
  const double outside_steps =
      transport_ns - static_cast<double>(s.nested_transport_ns);
  auto& m = r.layers;
  m["net.frames_per_mc"] = ratio(static_cast<double>(s.sends - s.refused), mc);
  m["net.bytes_per_mc"] = ratio(static_cast<double>(s.bytes), mc);
  m["net.send_ns"] = ratio(static_cast<double>(s.send_ns), static_cast<double>(s.sends));
  m["net.poll_ns"] = ratio(static_cast<double>(s.poll_ns), static_cast<double>(s.polls));
  m["net.pump_ns"] = ratio(static_cast<double>(s.pump_ns), static_cast<double>(s.pumps));
  m["net.send_refused_frac"] = ratio(static_cast<double>(s.refused), static_cast<double>(s.sends));
  m["net.poll_hit_frac"] = ratio(static_cast<double>(s.hits), static_cast<double>(s.polls));
  m["net.transport_frac"] = ratio(transport_ns, wall);
  std::vector<std::uint64_t> ww = a.wire_wait_ns;
  m["net.wire_wait_p50_us"] = static_cast<double>(quantile(ww, 0.5)) / 1e3;
  m["net.wire_wait_p99_us"] = static_cast<double>(quantile(ww, 0.99)) / 1e3;
  m["net.steps_per_mc"] = ratio(static_cast<double>(s.steps), mc);
  m["net.idle_step_frac"] = ratio(static_cast<double>(s.idle_steps), static_cast<double>(s.steps));
  m["net.loop_frac"] = ratio(wall - static_cast<double>(s.step_ns) - outside_steps, wall);
  m["net.outbox_hwm"] = static_cast<double>(a.outbox_hwm);
  m["net.backoff_cap_hits"] = static_cast<double>(a.backoff_cap_hits);
  m["net.setup_ms"] = median(a.net_setup_ms);
  m["objects.busy_frac"] = ratio(static_cast<double>(s.step_self_ns), wall);
  m["objects.step_ns"] = ratio(static_cast<double>(s.step_self_ns), static_cast<double>(s.steps));
  m["objects.idle_step_ns"] = ratio(static_cast<double>(s.idle_self_ns), static_cast<double>(s.idle_steps));
  m["objects.submit_ns"] = ratio(static_cast<double>(a.submit_calls_ns), static_cast<double>(a.submit_calls));
  m["objects.step_p9999_us"] =
      static_cast<double>(a.step_tail.quantile(0.9999).value_or(0)) / 1e3;
  m["objects.rounds_per_instance"] = ratio(static_cast<double>(s.rounds), static_cast<double>(a.instances));
  std::vector<std::uint64_t> rn = a.round_ns;
  m["objects.round_p50_us"] = static_cast<double>(quantile(rn, 0.5)) / 1e3;
  m["objects.ops_per_instance"] = ratio(static_cast<double>(a.leader_ops), static_cast<double>(a.instances));
  m["objects.sends_per_mc"] = ratio(static_cast<double>(s.ctx_sends), mc);
  m["fd.queries_per_mc"] = ratio(static_cast<double>(s.fd_queries), mc);
  m["trace.spans_dropped"] = static_cast<double>(a.spans_dropped);
}

}  // namespace

OpIds::OpIds(std::uint64_t seed) {
  std::uint64_t s = seed;
  offset_ = splitmix(s) & kMask;
}

std::int64_t OpIds::id(int g, std::uint64_t index) const {
  return static_cast<std::int64_t>((static_cast<std::uint64_t>(g) << kBits) |
                                   ((offset_ + index) & kMask));
}

std::optional<std::uint64_t> OpIds::index(int g, std::int64_t id) const {
  if (id < 0 || (static_cast<std::uint64_t>(id) >> kBits) !=
                    static_cast<std::uint64_t>(g))
    return std::nullopt;
  return ((static_cast<std::uint64_t>(id) & kMask) - offset_) & kMask;
}

std::uint64_t op_latency(std::uint64_t from_ns,
                         const std::vector<std::uint64_t>& delivered_ns) {
  std::uint64_t last = 0;
  for (std::uint64_t t : delivered_ns) {
    if (t == 0) return kMissed;
    last = std::max(last, t);
  }
  return from_ns != 0 && last >= from_ns ? last - from_ns : kMissed;
}

SequenceCheck check_group_sequences(
    const std::vector<const std::vector<std::int64_t>*>& replicas,
    const OpIds& ids, int g, std::uint64_t submitted) {
  SequenceCheck out;
  if (replicas.empty()) return out;
  std::size_t longest = 0, common = SIZE_MAX;
  for (std::size_t r = 0; r < replicas.size(); ++r) {
    if (replicas[r]->size() > replicas[longest]->size()) longest = r;
    common = std::min(common, replicas[r]->size());
  }
  const auto& ref = *replicas[longest];
  for (std::size_t r = 0; r < replicas.size() && out.safety_ok; ++r) {
    const auto& s = *replicas[r];
    for (std::size_t i = 0; i < s.size(); ++i)
      if (s[i] != ref[i]) {
        out.safety_ok = false;
        out.error = "replica " + std::to_string(r) + " delivers op " +
                    std::to_string(s[i]) + " at position " + std::to_string(i) +
                    " where replica " + std::to_string(longest) + " delivers " +
                    std::to_string(ref[i]);
        break;
      }
  }
  std::vector<bool> seen(submitted, false);
  for (std::size_t i = 0; i < ref.size() && out.safety_ok; ++i) {
    const auto idx = ids.index(g, ref[i]);
    if (!idx || *idx >= submitted) {
      out.safety_ok = false;
      out.error = "op " + std::to_string(ref[i]) + " at position " +
                  std::to_string(i) + " was never submitted to g" +
                  std::to_string(g);
    } else if (seen[*idx]) {
      out.safety_ok = false;
      out.error = "op " + std::to_string(ref[i]) + " delivered twice (position " +
                  std::to_string(i) + ")";
    } else {
      seen[*idx] = true;
    }
  }
  out.delivered_everywhere = out.safety_ok ? common : 0;
  return out;
}

LiveResult run_live(const LiveConfig& cfg) {
  LiveResult r;
  const OpIds ids(cfg.seed);
  std::unique_ptr<LayerAcc> acc;
  if (cfg.traced) acc = std::make_unique<LayerAcc>();
  if (cfg.rate > 0) {
    // Open loop: one runtime run; the schedule's first warmup_s is untimed.
    // The set-up is timed kSetupRepeats times; the last one runs.
    const double per_group_rate = cfg.rate / cfg.groups;
    const auto warm = static_cast<std::uint64_t>(per_group_rate * cfg.warmup_s);
    const auto total =
        warm + static_cast<std::uint64_t>(per_group_rate * cfg.seconds);
    for (int i = 0; i < kSetupRepeats - 1; ++i) {
      const std::uint64_t t0 = now_ns();
      {
        gam::net::GroupLogs logs(logs_config(cfg));
        auto actors = logs.make_actors([](ProcessId, int, std::int64_t, std::int64_t) {});
        auto t = make_transport(cfg, logs.process_count());
        gam::net::Runtime rt(*t, gam::net::RuntimeOptions{});
        for (ProcessId p = 0; p < logs.process_count(); ++p)
          rt.install(p, std::move(actors[static_cast<std::size_t>(p)]));
        r.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      }
    }
    BatchOut b = run_batch(cfg, ids, total, warm, acc.get(), true);
    r.outcome = b.outcome;
    r.error = b.error;
    r.setup_s.push_back(b.setup_s);
    r.latency_ns = std::move(b.latency_ns);
    r.lateness_ns = std::move(b.lateness_ns);
    r.throughput_mps = b.mps;
    r.batch_mps.push_back(b.mps);
  } else {
    // Closed loop: untimed warm-up batches for warmup_s (at least one), then
    // fixed-size batches until the timed window is used up (at least three).
    const std::uint64_t t_warm_end =
        now_ns() + static_cast<std::uint64_t>(cfg.warmup_s * 1e9);
    do {
      BatchOut warm = run_batch(cfg, ids, cfg.ops_per_group, 0, nullptr, false);
      r.outcome.add(warm.outcome);
      if (!warm.error.empty() && r.error.empty()) r.error = warm.error;
    } while (r.outcome.safety_ok && now_ns() < t_warm_end);
    const std::uint64_t t_end =
        now_ns() + static_cast<std::uint64_t>(cfg.seconds * 1e9);
    LiveConfig batch_cfg = cfg;
    for (int i = 0; r.outcome.safety_ok && (i < 3 || now_ns() < t_end); ++i) {
      if (i > 0) batch_cfg.spans_path.clear();  // one span dump per run
      BatchOut b = run_batch(batch_cfg, ids, cfg.ops_per_group, 0, acc.get(),
                             i == 0);
      r.outcome.add(b.outcome);
      if (!b.error.empty() && r.error.empty()) r.error = b.error;
      r.setup_s.push_back(b.setup_s);
      r.batch_mps.push_back(b.mps);
      r.latency_ns.insert(r.latency_ns.end(), b.latency_ns.begin(),
                          b.latency_ns.end());
    }
    r.throughput_mps = median(r.batch_mps);
  }
  if (acc) fill_layers(*acc, r);
  return r;
}

}  // namespace perfbench
