// Decorators the traced live run wraps around the library's public surfaces:
// a net::Transport (try_send / poll / pump), a sim::Actor (each step of a
// ProtocolHost), a sim::Context (send fan-out and failure-detector queries)
// and a stamping sim::SpanSink (wire and UniversalLog span events). Each
// process's counters are written only by that process's event-loop thread
// and read after the threads are joined, so none of them synchronizes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/transport.hpp"
#include "sim/actor.hpp"
#include "sim/spans.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

// Wire frames and Paxos rounds are sampled one in kSampleEvery (by wire id
// and instance number), so span memory stays bounded on long runs.
inline constexpr std::uint64_t kSampleEvery = 16;
inline constexpr std::size_t kWireSampleCap = std::size_t{1} << 18;
inline constexpr std::size_t kSpanCap = std::size_t{1} << 16;

struct alignas(64) ProcTrace {
  // Transport decorator.
  std::uint64_t sends = 0, refused = 0, send_ns = 0, bytes = 0;
  std::uint64_t polls = 0, hits = 0, poll_ns = 0;
  std::uint64_t pumps = 0, pump_ns = 0;
  // Actor decorator; step_ns is wall time, the self times exclude the
  // transport calls nested in the step.
  std::uint64_t steps = 0, idle_steps = 0, step_ns = 0, step_self_ns = 0,
                idle_self_ns = 0, nested_transport_ns = 0;
  TailTracker step_tail;
  // Context decorator.
  std::uint64_t ctx_sends = 0, fd_queries = 0;
  // Span sink: sampled (wire id, ns) pairs and Paxos round bookkeeping.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> wire_out, wire_in;
  std::int64_t last_inst = -1, last_ballot = -1, max_inst = -1;
  std::uint64_t rounds = 0;
  // First op of a sampled round -> (round start ns, span index).
  std::unordered_map<std::int64_t, std::pair<std::uint64_t, std::int32_t>>
      open_rounds;
  std::vector<std::uint64_t> round_ns;
  // Spans of this thread; the open step span parents nested transport calls.
  SpanBuffer spans{kSpanCap};
  std::int32_t step_span = -1;
  bool in_step = false;
  std::uint64_t step_transport_ns = 0;

  void transport_call(SpanName name, std::uint64_t t0, std::uint64_t t1) {
    if (in_step) {
      step_transport_ns += t1 - t0;
      if (step_span >= 0) spans.record(name, 0, t0, t1, step_span);
    }
  }
};

class TracingTransport final : public gam::net::Transport {
 public:
  TracingTransport(gam::net::Transport& inner, std::vector<ProcTrace>& procs)
      : inner_(inner), procs_(procs) {}

  int process_count() const override { return inner_.process_count(); }

  bool try_send(gam::ProcessId src, gam::ProcessId dst,
                const gam::net::WireHeader& h,
                const gam::sim::Payload& payload) override {
    const std::uint64_t t0 = now_ns();
    const bool ok = inner_.try_send(src, dst, h, payload);
    const std::uint64_t t1 = now_ns();
    ProcTrace& c = procs_[static_cast<std::size_t>(src)];
    ++c.sends;
    c.send_ns += t1 - t0;
    if (ok)
      c.bytes += sizeof(gam::net::WireHeader) +
                 payload.size() * sizeof(std::int64_t);
    else
      ++c.refused;
    c.transport_call(SpanName::kSend, t0, t1);
    return ok;
  }

  std::optional<gam::net::Frame> poll(gam::ProcessId self) override {
    const std::uint64_t t0 = now_ns();
    auto f = inner_.poll(self);
    const std::uint64_t t1 = now_ns();
    ProcTrace& c = procs_[static_cast<std::size_t>(self)];
    ++c.polls;
    c.poll_ns += t1 - t0;
    if (f) ++c.hits;
    c.transport_call(SpanName::kPoll, t0, t1);
    return f;
  }

  void pump(gam::ProcessId self) override {
    const std::uint64_t t0 = now_ns();
    inner_.pump(self);
    const std::uint64_t t1 = now_ns();
    ProcTrace& c = procs_[static_cast<std::size_t>(self)];
    ++c.pumps;
    c.pump_ns += t1 - t0;
    c.transport_call(SpanName::kPump, t0, t1);
  }

  bool idle(gam::ProcessId self) override { return inner_.idle(self); }

 private:
  gam::net::Transport& inner_;
  std::vector<ProcTrace>& procs_;
};

class CountingContext final : public gam::sim::Context {
 public:
  CountingContext(gam::sim::Context& inner, ProcTrace& c)
      : Context(inner.self(), inner.now()), inner_(inner), c_(c) {}

  void send(gam::ProcessId dst, gam::sim::ProtocolId protocol,
            gam::sim::MsgType type, gam::sim::Payload data) override {
    ++c_.ctx_sends;
    inner_.send(dst, protocol, type, std::move(data));
  }
  void send_to_set(gam::ProcessSet dst, gam::sim::ProtocolId protocol,
                   gam::sim::MsgType type, gam::sim::Payload data) override {
    c_.ctx_sends += static_cast<std::uint64_t>(dst.size());
    inner_.send_to_set(dst, protocol, type, std::move(data));
  }
  void trace_fd_query(gam::sim::ProtocolId protocol,
                      gam::sim::DetectorClass detector) override {
    ++c_.fd_queries;
    inner_.trace_fd_query(protocol, detector);
  }

 private:
  gam::sim::Context& inner_;
  ProcTrace& c_;
};

class TracingActor final : public gam::sim::Actor {
 public:
  TracingActor(std::unique_ptr<gam::sim::Actor> inner, ProcTrace& c)
      : inner_(std::move(inner)), c_(c) {}

  void on_step(gam::sim::Context& ctx, const gam::sim::Message* m) override {
    CountingContext counting(ctx, c_);
    const std::uint64_t t0 = now_ns();
    c_.in_step = true;
    c_.step_transport_ns = 0;
    // One step in kSampleEvery gets a span (its nested transport calls
    // become its children); the counters above see every step.
    c_.step_span = c_.steps % kSampleEvery == 0
                       ? c_.spans.open(m ? SpanName::kStep : SpanName::kIdleStep,
                                       m ? m->type : 0, t0)
                       : -1;
    inner_->on_step(counting, m);
    const std::uint64_t t1 = now_ns();
    c_.spans.close(c_.step_span, t1);
    c_.step_span = -1;
    c_.in_step = false;
    const std::uint64_t wall = t1 - t0;
    const std::uint64_t self = wall - std::min(wall, c_.step_transport_ns);
    ++c_.steps;
    c_.step_ns += wall;
    c_.step_self_ns += self;
    c_.nested_transport_ns += c_.step_transport_ns;
    c_.step_tail.add(wall);
    if (!m) {
      ++c_.idle_steps;
      c_.idle_self_ns += self;
    }
  }

  bool wants_step() const override { return inner_->wants_step(); }

 private:
  std::unique_ptr<gam::sim::Actor> inner_;
  ProcTrace& c_;
};

// Stamps the runtime's wire events and the UniversalLog's span events of one
// process with steady-clock ns (the library leaves t = 0 for the sink).
class ProcSpanSink final : public gam::sim::SpanSink {
 public:
  explicit ProcSpanSink(ProcTrace& c) : c_(c) {}

  void on_span(const gam::sim::SpanEvent& e) override {
    using gam::sim::SpanKind;
    switch (e.kind) {
      case SpanKind::kWireOut:
      case SpanKind::kWireIn: {
        const auto id = static_cast<std::uint64_t>(e.m);
        if (id % kSampleEvery != 0) return;
        auto& v = e.kind == SpanKind::kWireOut ? c_.wire_out : c_.wire_in;
        if (v.size() < kWireSampleCap) v.emplace_back(id, now_ns());
        return;
      }
      case SpanKind::kPaxosRound: {
        // drive() emits one event per op of the round, consecutively; a new
        // (instance, ballot) pair is a new round.
        if (e.a == c_.last_inst && e.b == c_.last_ballot) return;
        c_.last_inst = e.a;
        c_.last_ballot = e.b;
        c_.max_inst = std::max(c_.max_inst, e.a);
        ++c_.rounds;
        if (static_cast<std::uint64_t>(e.a) % kSampleEvery == 0) {
          const std::uint64_t t = now_ns();
          c_.open_rounds[e.m] = {t, c_.spans.open(SpanName::kPaxosRound, e.a, t)};
        }
        return;
      }
      case SpanKind::kDelivered: {
        if (c_.open_rounds.empty()) return;
        auto it = c_.open_rounds.find(e.m);
        if (it == c_.open_rounds.end()) return;
        const std::uint64_t t = now_ns();
        c_.spans.close(it->second.second, t);
        c_.round_ns.push_back(t - it->second.first);
        c_.open_rounds.erase(it);
        return;
      }
      default:
        return;
    }
  }

 private:
  ProcTrace& c_;
};

}  // namespace perfbench
