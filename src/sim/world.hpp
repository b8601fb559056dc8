// The simulation world: processes as deterministic automata taking
// asynchronous steps against a message buffer and a failure pattern
// (paper, Appendix A).
//
// A step of process p consists of (1) receiving one message addressed to p or
// the null message, (2) querying its failure-detector modules, (3) a local
// state change, and (4) sending messages. The world serializes steps on a
// global clock that the processes themselves cannot read; failure-detector
// oracles (src/fd) read it to produce histories consistent with the failure
// pattern.
//
// Scheduling is incremental: instead of rescanning all P processes every
// round, the world keeps the runnable candidates as a bitmask — the buffer
// maintains the set of destinations with pending messages, and the world
// tracks a wants-step bit per actor, refreshed whenever that actor steps.
// A round hands the candidates to the attached Scheduler strategy (uniform-
// random by default; adversarial strategies in sim/adversary.hpp) and walks
// the planned attempt order, so its cost is O(runnable).
// The wants bits are a conservative cache (an actor's wants_step only changes
// during its own step or between runs); quiescence is still decided by the
// authoritative full scan `any_runnable()`, so exotic couplings cannot make
// the world stop early.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "sim/actor.hpp"
#include "sim/failure_pattern.hpp"
#include "sim/ids.hpp"
#include "sim/message.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "util/contracts.hpp"
#include "util/process_set.hpp"
#include "util/rng.hpp"

namespace gam::sim {

class World;
class Scenario;

// The World-backed implementation of the abstract Context surface
// (sim/actor.hpp): sends go through the simulated message buffer, queries
// through the world's trace/metrics plumbing. Constructed on the stack for
// the duration of one step.
class WorldContext final : public Context {
 public:
  WorldContext(World& world, ProcessId self, Time now)
      : Context(self, now), world_(world) {}

  void send(ProcessId dst, ProtocolId protocol, MsgType type,
            Payload data = {}) override;
  void send_to_set(ProcessSet dst, ProtocolId protocol, MsgType type,
                   Payload data = {}) override;
  void trace_fd_query(ProtocolId protocol, DetectorClass detector) override;

 private:
  World& world_;
};

// ---------------------------------------------------------------------------
// Scheduling strategies. The world asks its scheduler, once per round, for an
// attempt order over the runnable candidates; the scheduler learns which
// attempts actually fired. Concrete adversarial strategies (PCT, replay,
// quorum-edge) live in sim/adversary.hpp — only the uniform-random default
// is defined here because the world owns one lazily.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // Called at the start of every run; strategies that set up per-run state
  // (PCT priorities) initialize on the first call and ignore repeats.
  virtual void begin(int process_count) { (void)process_count; }

  // Appends the round's attempt order to `out` (which arrives cleared). The
  // strategy may order any subset or superset of `candidates`; the world
  // skips attempts that cannot fire (crashed, stale, out of range).
  virtual void plan(ProcessSet candidates, std::vector<ProcessId>& out) = 0;

  // Attempt `p` executed as the `step_index`-th fired step of this run.
  virtual void fired(ProcessId p, std::uint64_t step_index) {
    (void)p, (void)step_index;
  }

  // True to end the round after the first fired step (priority schedulers
  // re-plan after every step; batch schedulers walk the whole order).
  virtual bool single_step() const { return false; }

  // True once the strategy has no further attempts to offer (replay ran off
  // the end of its script). The world then decides quiescence immediately.
  virtual bool exhausted() const { return false; }

  // Drivers with an idle-tick notion (SequentialProtocol::run_with advancing
  // the clock toward FD stabilization) poll this each round; a replay consumes
  // a recorded idle tick here. The World itself never idles, so it ignores
  // this hook.
  virtual bool take_idle_tick() { return false; }
};

// Seed derivation for schedulers: the world's rng_ feeds ONLY message-buffer
// receives; every scheduler owns a private stream forked from the run seed
// with this salt, so recording and replaying a schedule leaves the receive
// stream untouched (byte-identical traces under replay).
inline constexpr std::uint64_t kSchedulerSeedSalt = 0x5ced5a1753c8edULL;

// The historical strategy: Fisher-Yates over the runnable candidates.
class RandomScheduler final : public Scheduler {
 public:
  explicit RandomScheduler(std::uint64_t seed) : rng_(seed) {}

  void plan(ProcessSet candidates, std::vector<ProcessId>& out) override {
    for (ProcessId p : candidates) out.push_back(p);
    for (std::size_t i = out.size(); i > 1; --i) {
      auto j = static_cast<std::size_t>(rng_.below(i));
      std::swap(out[i - 1], out[j]);
    }
  }

 private:
  Rng rng_;
};

// The sequential engines' default order (amcast/sequential.hpp): one
// permutation of all n processes, reshuffled in place (Fisher-Yates) every
// round, of which the round attempts the candidates. Unlike RandomScheduler,
// what it draws does not depend on the candidate set.
class ReshuffleScheduler final : public Scheduler {
 public:
  explicit ReshuffleScheduler(std::uint64_t seed) : rng_(seed) {}

  void begin(int process_count) override {
    if (!order_.empty()) return;
    for (ProcessId p = 0; p < process_count; ++p) order_.push_back(p);
  }

  void plan(ProcessSet candidates, std::vector<ProcessId>& out) override {
    for (std::size_t i = order_.size(); i > 1; --i)
      std::swap(order_[i - 1], order_[rng_.below(i)]);
    for (ProcessId p : order_)
      if (candidates.contains(p)) out.push_back(p);
  }

 private:
  Rng rng_;
  std::vector<ProcessId> order_;
};

// Mid-run crash injection: ticked once per scheduling round, before the
// candidate set is computed, with the count of steps executed so far. An
// injector may call world.mutable_pattern().crash_at(...) to crash processes
// at the current time. NOTE: failure-detector oracles bind the pattern they
// were constructed on; layers that precompute FD transition times (MuMulticast)
// must see crashes in the pattern at construction, so dynamic injection is
// sound only for plain-World runs (see DESIGN.md, decision 11).
class CrashInjector {
 public:
  virtual ~CrashInjector() = default;
  virtual void tick(World& world, std::uint64_t steps_executed) = 0;
};

struct StepStats {
  std::uint64_t steps = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
};

class World : private BufferObserver {
 public:
  // The buffer holds a pointer back to this world (wire accounting/tracing).
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int process_count() const { return pattern_.process_count(); }
  const FailurePattern& pattern() const { return pattern_; }
  // Mutable pattern access for mid-run crash injection. Crashes only — a
  // CrashInjector may move a crash time up to "now", never resurrect.
  FailurePattern& mutable_pattern() { return pattern_; }
  std::uint64_t seed() const { return seed_; }
  Time now() const { return now_; }

  // Plugs a scheduling strategy in (non-owning; must outlive the runs it
  // schedules). nullptr restores the built-in uniform-random default.
  void set_scheduler(Scheduler* s) { scheduler_ = s; }
  Scheduler* scheduler() const { return scheduler_; }

  // Plugs a mid-run crash injector in (non-owning). nullptr removes it.
  void set_crash_injector(CrashInjector* inj) { injector_ = inj; }

  void install(ProcessId p, std::unique_ptr<Actor> actor) {
    GAM_EXPECTS(p >= 0 && p < process_count());
    actors_[static_cast<size_t>(p)] = std::move(actor);
    refresh_wants_bit(p);
  }

  Actor* actor(ProcessId p) { return actors_[static_cast<size_t>(p)].get(); }

  // Executes one step of process p at the current time, if p is alive and
  // installed. Returns false when p cannot take a step.
  bool step_process(ProcessId p) {
    GAM_EXPECTS(p >= 0 && p < process_count());
    auto i = static_cast<size_t>(p);
    if (!actors_[i]) return false;
    if (pattern_.crashed(p, now_)) {
      trace_crash(p);
      return false;
    }
    auto msg = receive_for_step(p);  // emits the receive event, if any
    if (!msg) trace(TraceEventKind::kNullStep, p, 0, 0, -1, nullptr);
    WorldContext ctx(*this, p, now_);
    sending_as_ = p;
    actors_[i]->on_step(ctx, msg ? &*msg : nullptr);
    sending_as_ = -1;
    ++stats_[i].steps;
    if (msg) ++stats_[i].messages_received;
    ++now_;
    refresh_wants_bit(p);
    return true;
  }

  // Runs until quiescence (no live process has a pending message or wants a
  // step) or until `max_steps` steps have executed. Returns true on
  // quiescence. Scheduling is delegated to the attached strategy (default:
  // seeded-random permutation of the *runnable* candidates per round, which
  // makes every run fair for the processes that keep taking steps while
  // costing O(runnable) instead of O(P)).
  bool run_until_quiescent(std::uint64_t max_steps) {
    refresh_wants();  // actors may have been poked between runs
    Scheduler& sched = active_scheduler();
    sched.begin(process_count());
    std::uint64_t executed = 0;
    // Mask to the installed universe: a message injected for an id outside
    // [0, process_count) (possible only via direct buffer access — Context
    // sends are validated) must never become a scheduling candidate, or the
    // walk below would index actors_ past the end.
    const ProcessSet universe = ProcessSet::universe(process_count());
    while (executed < max_steps) {
      if (injector_) injector_->tick(*this, executed);
      ProcessSet candidates = (buffer_.nonempty_set() | wants_) & universe;
      bool progressed = false;
      if (!candidates.empty()) {
        order_.clear();
        sched.plan(candidates, order_);
        for (ProcessId p : order_) {
          if (executed >= max_steps) break;
          // Scripted strategies (replay) may plan attempts outside the
          // installed universe; skip rather than index actors_ out of bounds.
          if (p < 0 || p >= process_count()) continue;
          if (pattern_.crashed(p, now_)) {
            trace_crash(p);
            continue;
          }
          if (!buffer_.has_message_for(p) && !wants(p)) {
            wants_.erase(p);  // stale cached bit
            continue;
          }
          if (step_process(p)) {
            progressed = true;
            sched.fired(p, executed);
            ++executed;
            if (sched.single_step()) break;
          }
        }
      }
      if (!progressed) {
        // The candidate walk made no step. A strategy that ran out of script
        // ends the run here; otherwise decide quiescence with the
        // authoritative scan and resync the wants cache if it missed anything.
        if (sched.exhausted()) return !any_runnable();
        if (!any_runnable()) return true;
        refresh_wants();
      }
    }
    return !any_runnable();
  }

  const StepStats& stats(ProcessId p) const {
    return stats_[static_cast<size_t>(p)];
  }

  // System-wide totals (the sweep harness aggregates these).
  StepStats total_stats() const {
    StepStats t;
    for (const auto& s : stats_) {
      t.steps += s.steps;
      t.messages_sent += s.messages_sent;
      t.messages_received += s.messages_received;
    }
    return t;
  }

  // Processes that took at least one step (for Minimality checking).
  ProcessSet active_processes() const {
    ProcessSet s;
    for (int p = 0; p < process_count(); ++p)
      if (stats_[static_cast<size_t>(p)].steps > 0) s.insert(p);
    return s;
  }

  MessageBuffer& buffer() { return buffer_; }
  const MessageBuffer& buffer() const { return buffer_; }
  Rng& rng() { return rng_; }

  // Structured event tracing. With no sink attached (the default) every
  // emission short-circuits on one branch; attach a HashingSink for the
  // determinism gate, a RecorderSink for full capture, or a RingSink for a
  // bounded crash window. The sink must outlive the runs it observes.
  void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }
  TraceSink* trace_sink() const { return trace_sink_; }

  // Wire-level metrics probes: message-buffer depth high-water mark and
  // FD-query counters by detector class. Handles resolve once here; the
  // probes are null-checked pointer writes. The registry must outlive the
  // runs it observes.
  void set_metrics(Metrics* m) {
#ifndef GAM_NO_METRICS
    metrics_ = m;
    buffer_depth_ = m ? &m->gauge("buffer_depth") : nullptr;
    for (auto d : {DetectorClass::kOmega, DetectorClass::kSigma,
                   DetectorClass::kGamma, DetectorClass::kIndicator})
      fd_query_[static_cast<std::size_t>(raw(d))] =
          m ? &m->counter("fd_query", detector_class_name(d)) : nullptr;
#else
    (void)m;
#endif
  }

  // Protocol layers report their delivery events here so they interleave with
  // the wire events in one stream (`m` is the protocol-level message id).
  void trace_deliver(ProcessId p, ProtocolId protocol, std::int64_t m,
                     std::int64_t seq) {
    trace(TraceEventKind::kDeliver, p, raw(protocol),
          static_cast<std::int32_t>(seq), -1, nullptr, m);
  }

  // Deterministic replay of a live run (net/runtime.hpp record mode): the
  // scripted keys pin, receive by receive, WHICH pending message each step
  // consumes — the one lever the seeded-random buffer would otherwise pull on
  // its own. With a script attached, every receive pops the oldest pending
  // message matching the next key instead of a uniformly random one; the
  // attempt order still comes from the attached (Replay)Scheduler. The two
  // mechanisms together make a recorded live execution a fully determined
  // World run.
  struct ReceiveKey {
    ProcessId src = -1;
    std::int32_t protocol = 0;
    std::int32_t type = 0;
    std::uint64_t payload_hash = 0;
  };

  void set_receive_script(std::vector<ReceiveKey> keys) {
    receive_script_ = std::move(keys);
    script_cursor_ = 0;
    scripted_receives_ = true;
  }

  // The receive keys a recorded trace encodes, in stream order.
  static std::vector<ReceiveKey> receive_script_from_events(
      const std::vector<TraceEvent>& events) {
    std::vector<ReceiveKey> keys;
    for (const TraceEvent& e : events)
      if (e.kind == TraceEventKind::kReceive)
        keys.push_back({e.peer, e.protocol, e.type, e.payload_hash});
    return keys;
  }

 private:
  friend class WorldContext;
  friend class Scenario;  // the RunSpec runner constructs via ScenarioKey

  // Tag for the non-deprecated constructor path. Scenario (sim/run_spec.hpp)
  // is the supported entry point; the public (FailurePattern, seed)
  // constructor above delegates here and exists as a one-PR migration shim.
  struct ScenarioKey {};

  World(ScenarioKey, FailurePattern pattern, std::uint64_t seed)
      : pattern_(std::move(pattern)),
        seed_(seed),
        rng_(seed),
        actors_(static_cast<size_t>(pattern_.process_count())),
        stats_(static_cast<size_t>(pattern_.process_count())) {
    buffer_.set_observer(this);
  }

  // The attached strategy, or the lazily-owned uniform-random default. The
  // default's stream is forked from the run seed with kSchedulerSeedSalt so
  // it is independent of rng_ (which feeds only buffer receives).
  Scheduler& active_scheduler() {
    if (scheduler_) return *scheduler_;
    if (!default_scheduler_)
      default_scheduler_ = std::make_unique<RandomScheduler>(
          trace_mix(seed_, kSchedulerSeedSalt));
    return *default_scheduler_;
  }

  // One step's receive: scripted when a replay script is attached (and the
  // buffer holds something for p), seeded-random otherwise. A scripted key
  // that matches nothing means the replayed run diverged from the recording —
  // fail loudly rather than silently fall back to randomness.
  std::optional<Message> receive_for_step(ProcessId p) {
    if (!scripted_receives_) return buffer_.receive(p, rng_);
    if (!buffer_.has_message_for(p)) return std::nullopt;
    GAM_EXPECTS(script_cursor_ < receive_script_.size());
    const ReceiveKey& k = receive_script_[script_cursor_++];
    auto m = buffer_.receive_match(p, [&](const Message& c) {
      return c.src == k.src && c.protocol == k.protocol && c.type == k.type &&
             hash_payload(c.data) == k.payload_hash;
    });
    GAM_EXPECTS(m.has_value());
    return m;
  }

  bool wants(ProcessId p) const {
    const auto& a = actors_[static_cast<size_t>(p)];
    return a && a->wants_step();
  }

  void refresh_wants_bit(ProcessId p) {
    if (wants(p))
      wants_.insert(p);
    else
      wants_.erase(p);
  }

  void refresh_wants() {
    wants_ = {};
    for (int p = 0; p < process_count(); ++p)
      if (wants(p)) wants_.insert(p);
  }

  bool any_runnable() const {
    for (int p = 0; p < process_count(); ++p) {
      // A process with no installed automaton can never take a step; counting
      // it runnable on a pending message would make run_until_quiescent spin
      // forever without ever consuming its step budget (step_process refuses,
      // so `executed` never advances past the while condition).
      if (!actors_[static_cast<size_t>(p)]) continue;
      if (pattern_.crashed(p, now_)) continue;
      if (buffer_.has_message_for(p)) return true;
      if (wants(p)) return true;
    }
    return false;
  }

  // Central emission point. The `if (!trace_sink_)` branch is the entire cost
  // of disabled tracing; defining GAM_NO_TRACE compiles even that out.
  void trace(TraceEventKind kind, ProcessId p, std::int32_t protocol,
             std::int32_t type, ProcessId peer, const Payload* data,
             std::int64_t arg = 0) {
#ifndef GAM_NO_TRACE
    if (!trace_sink_) return;
    TraceEvent e;
    e.t = now_;
    e.p = p;
    e.kind = kind;
    e.protocol = protocol;
    e.type = type;
    e.peer = peer;
    e.arg = arg;
    e.payload_hash = data ? hash_payload(*data) : 0;
    trace_sink_->on_event(e);
#else
    (void)kind, (void)p, (void)protocol, (void)type, (void)peer, (void)data,
        (void)arg;
#endif
  }

  // One crash event per process, emitted the first time the scheduler skips
  // it as crashed (the pattern itself is static, so this is the first moment
  // the crash becomes observable in the run).
  void trace_crash(ProcessId p) {
    if (!trace_sink_ || crash_traced_.contains(p)) return;
    crash_traced_.insert(p);
    trace(TraceEventKind::kCrash, p, 0, 0, -1, nullptr,
          static_cast<std::int64_t>(pattern_.crash_time(p)));
  }

  // BufferObserver: every wire message funnels through these, whichever send
  // or receive overload produced it — the single place where per-process
  // messages_sent accounting and send/receive tracing happen.
  void on_buffer_send(const Message& m) override {
    if (m.src >= 0 && m.src < process_count())
      ++stats_[static_cast<size_t>(m.src)].messages_sent;
    GAM_METRICS_PROBE(if (buffer_depth_) buffer_depth_->set(
        static_cast<std::int64_t>(buffer_.size())));
    trace(TraceEventKind::kSend, m.src, m.protocol, m.type, m.dst, &m.data);
  }

  void on_buffer_receive(const Message& m) override {
    trace(TraceEventKind::kReceive, m.dst, m.protocol, m.type, m.src, &m.data);
  }

  FailurePattern pattern_;
  std::uint64_t seed_ = 0;
  Rng rng_;  // consumed ONLY by buffer receives (see kSchedulerSeedSalt)
  Time now_ = 0;
  MessageBuffer buffer_;
  std::vector<std::unique_ptr<Actor>> actors_;
  std::vector<StepStats> stats_;
  ProcessSet wants_;                // cached wants_step bits
  std::vector<ProcessId> order_;    // reused per-round attempt buffer
  ProcessId sending_as_ = -1;
  TraceSink* trace_sink_ = nullptr;
  ProcessSet crash_traced_;         // crash events already emitted
  Scheduler* scheduler_ = nullptr;             // attached strategy (non-owning)
  std::unique_ptr<Scheduler> default_scheduler_;  // lazily-built random
  CrashInjector* injector_ = nullptr;          // mid-run crashes (non-owning)
  std::vector<ReceiveKey> receive_script_;     // scripted-replay receives
  std::size_t script_cursor_ = 0;
  bool scripted_receives_ = false;
#ifndef GAM_NO_METRICS
  Metrics* metrics_ = nullptr;
  Gauge* buffer_depth_ = nullptr;   // resolved once in set_metrics
  std::array<Counter*, 4> fd_query_{};  // indexed by raw(DetectorClass)
#endif
};

inline void WorldContext::send(ProcessId dst, ProtocolId protocol,
                               MsgType type, Payload data) {
  // Validate against the world's process count, not the ProcessSet capacity:
  // a destination in [process_count, kMaxProcesses) would sit in the buffer's
  // nonempty set with no actor behind it (and, before the scheduler masked
  // candidates, walked the scheduler into actors_ out of bounds).
  GAM_EXPECTS(dst >= 0 && dst < world_.process_count());
  Message m;
  m.src = self();
  m.dst = dst;
  m.protocol = raw(protocol);
  m.type = raw(type);
  m.data = std::move(data);
  world_.buffer_.send(std::move(m));  // stats/tracing via the buffer observer
}

inline void WorldContext::send_to_set(ProcessSet dst, ProtocolId protocol,
                                      MsgType type, Payload data) {
  GAM_EXPECTS(dst.subset_of(ProcessSet::universe(world_.process_count())));
  Message proto;
  proto.src = self();
  proto.protocol = raw(protocol);
  proto.type = raw(type);
  proto.data = std::move(data);
  // One shared broadcast path: MessageBuffer::send_to_set does the
  // move-on-last-recipient optimization, and the buffer observer attributes
  // every resulting wire message to this sender — the two overloads can no
  // longer diverge on StepStats or AllocStats accounting.
  world_.buffer_.send_to_set(std::move(proto), dst);
}

inline void WorldContext::trace_fd_query(ProtocolId protocol,
                                         DetectorClass detector) {
  GAM_METRICS_PROBE({
    Counter* c = world_.fd_query_[static_cast<std::size_t>(raw(detector))];
    if (c) c->add();
  });
  world_.trace(TraceEventKind::kFdQuery, self(), raw(protocol), raw(detector),
               -1, nullptr);
}

}  // namespace gam::sim
