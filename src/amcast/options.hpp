// One options struct for every multicast protocol (ISSUE 10 satellite).
//
// Before this header each protocol class carried its own nested `Options`
// with a drifting subset of the same fields (MuMulticast had the engine and
// batching knobs but no scheduler; ReplicatedMulticast had the scheduler but
// its own max_steps default). ProtocolOptions is the union: every protocol
// aliases `Options` to it and reads the fields it understands, so a single
// designated-initializer literal configures any protocol behind the
// amcast::Protocol interface.
//
// Field order is load-bearing: C++20 designated initializers must name
// fields in declaration order, and the order below is the superset-merge of
// every initializer the repo already contains (seed, max_steps, fd_lag,
// strict, fair_set, sigma_gated, helping, external_clock, track_log_history,
// engine, then the scheduler, then batch_k/window_size). Append new fields at
// the end.
#pragma once

#include <cstdint>

#include "sim/adversary.hpp"
#include "sim/failure_pattern.hpp"
#include "util/process_set.hpp"

namespace gam::amcast {

// Guard-evaluation engine of the Algorithm-1 action system (MuMulticast);
// kScan is the reference oracle, kIncremental the dirty-tracked default.
// Protocols without an action system ignore it.
enum class Engine : std::int8_t {
  kScan = 0,
  kIncremental = 1,
};

struct ProtocolOptions {
  std::uint64_t seed = 1;
  std::uint64_t max_steps = std::uint64_t{1} << 22;
  // Slack of the μ failure-detector components (Algorithm 1 only).
  sim::Time fd_lag = 0;
  // §6.1: strict atomic multicast via the 1^{g∩h} indicators (Algorithm 1).
  bool strict = false;
  // When non-empty, only these processes are scheduled (P-fair runs).
  ProcessSet fair_set;
  // Quorum gating (emulation harness, §5): an action of p for a message
  // addressed to g is enabled only while Σ_g's current quorum lies inside
  // fair_set. Requires a fair_set.
  bool sigma_gated = false;
  // Helping (Proposition 1's reduction): destination members re-multicast on
  // behalf of crashed submitters (Algorithm 1).
  bool helping = false;
  // External clock (emulation harness): the orchestrator owns the clock via
  // set_time(); steps do not advance it.
  bool external_clock = false;
  // Journal every log mutation for validate_log_invariants() (tests).
  bool track_log_history = false;
  // Guard-evaluation engine (Algorithm 1).
  Engine engine = Engine::kIncremental;
  // Scheduling strategy (bench --adversary axis), read by every protocol:
  // the World-backed ones schedule their World with it, the sequential ones
  // their steps (sequential.hpp, which also gives kRandom's order there).
  sim::SchedulerSpec scheduler;
  // Ordered-batch / pipelining knobs (mu_multicast.hpp decision 12;
  // universal_log.hpp's instance window). 1/1 is the legacy wire behavior.
  int batch_k = 1;
  int window_size = 1;
};

}  // namespace gam::amcast
