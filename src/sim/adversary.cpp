#include "sim/adversary.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/contracts.hpp"

namespace gam::sim {

// ---------------------------------------------------------------------------
// PctScheduler

PctScheduler::PctScheduler(int depth, std::uint64_t step_bound,
                           std::uint64_t seed)
    : depth_(depth), step_bound_(step_bound), rng_(seed) {
  GAM_EXPECTS(depth >= 1);
  GAM_EXPECTS(step_bound >= 1);
}

void PctScheduler::begin(int process_count) {
  if (begun_) return;  // idempotent across repeated runs of one world
  begun_ = true;
  // Random distinct starting priorities: a uniform permutation of
  // [1, n], Fisher-Yates on the private stream.
  priority_.resize(static_cast<std::size_t>(process_count));
  for (int p = 0; p < process_count; ++p) priority_[static_cast<std::size_t>(p)] = p + 1;
  for (std::size_t i = priority_.size(); i > 1; --i) {
    auto j = static_cast<std::size_t>(rng_.below(i));
    std::swap(priority_[i - 1], priority_[j]);
  }
  // d-1 change points, uniform over [1, k). Duplicates are allowed by the
  // PCT construction (two demotions at one step collapse to one).
  change_points_.clear();
  for (int i = 0; i + 1 < depth_; ++i)
    change_points_.push_back(step_bound_ > 1 ? 1 + rng_.below(step_bound_ - 1)
                                             : 1);
  std::sort(change_points_.begin(), change_points_.end());
}

void PctScheduler::plan(ProcessSet candidates, std::vector<ProcessId>& out) {
  for (ProcessId p : candidates) out.push_back(p);
  if (fired_steps_ >= step_bound_) {
    // Past the horizon: ascending ids, rotated to start at next_.
    std::rotate(out.begin(), std::lower_bound(out.begin(), out.end(), next_),
                out.end());
    return;
  }
  // Highest priority first; the driver runs the first attempt that fires and
  // (single_step) returns for a fresh plan.
  std::sort(out.begin(), out.end(), [this](ProcessId a, ProcessId b) {
    return priority_[static_cast<std::size_t>(a)] >
           priority_[static_cast<std::size_t>(b)];
  });
}

void PctScheduler::fired(ProcessId p, std::uint64_t step_index) {
  // Demote the running process below every other priority at each change
  // point passed. Change points are sorted; consume the prefix <= index+1
  // (points are 1-based step counts).
  while (!change_points_.empty() && change_points_.front() <= step_index + 1) {
    priority_[static_cast<std::size_t>(p)] = next_low_--;
    change_points_.erase(change_points_.begin());
  }
  fired_steps_ = step_index + 1;
  next_ = p + 1;
}

// ---------------------------------------------------------------------------
// ReplayScheduler

std::vector<ProcessId> ReplayScheduler::attempts_from_events(
    const std::vector<TraceEvent>& events) {
  std::vector<ProcessId> attempts;
  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case TraceEventKind::kReceive:
      case TraceEventKind::kNullStep:
      case TraceEventKind::kCrash:
        attempts.push_back(e.p);
        break;
      default:
        break;  // sends/fd-queries/delivers happen inside a step
    }
  }
  return attempts;
}

std::optional<ReplayScheduler> ReplayScheduler::from_file(
    const std::string& path) {
  auto events = load_trace(path);
  if (!events) return std::nullopt;
  return ReplayScheduler(attempts_from_events(*events));
}

void ReplayScheduler::plan(ProcessSet candidates,
                           std::vector<ProcessId>& out) {
  (void)candidates;  // the script, not the candidate set, decides
  if (cursor_ < attempts_.size()) out.push_back(attempts_[cursor_++]);
}

bool ReplayScheduler::take_idle_tick() {
  if (cursor_ < attempts_.size() && attempts_[cursor_] == -1) {
    ++cursor_;
    return true;
  }
  return false;
}

bool write_schedule(const std::string& path,
                    const std::vector<ProcessId>& attempts) {
  std::vector<TraceEvent> events;
  events.reserve(attempts.size());
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    TraceEvent e;
    e.t = i;
    e.p = attempts[i];
    e.kind = TraceEventKind::kNullStep;
    events.push_back(e);
  }
  return write_trace(path, events);
}

std::optional<std::vector<ProcessId>> load_schedule(const std::string& path) {
  auto events = load_trace(path);
  if (!events) return std::nullopt;
  return ReplayScheduler::attempts_from_events(*events);
}

// ---------------------------------------------------------------------------
// QuorumEdgeAdversary

QuorumEdgeAdversary::QuorumEdgeAdversary(std::vector<ProcessSet> groups,
                                         int process_count)
    : process_count_(process_count) {
  // Every nonempty pairwise intersection (including g∩g = g) is a Σ scope
  // whose quorums the protocol leans on; dedup so the seed→target map is
  // uniform over distinct boundaries.
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t h = g; h < groups.size(); ++h) {
      ProcessSet s = groups[g] & groups[h];
      if (s.empty()) continue;
      if (std::find(scopes_.begin(), scopes_.end(), s) == scopes_.end())
        scopes_.push_back(s);
    }
  }
  GAM_EXPECTS(!scopes_.empty());
}

QuorumEdgeAdversary::Target QuorumEdgeAdversary::target_for(
    std::uint64_t seed, Time window) const {
  GAM_EXPECTS(window >= 1);
  Target t;
  t.scope = scopes_[seed % scopes_.size()];
  // The highest pid survives as the quorum of last resort; everyone else in
  // the scope dies back-to-back starting at a seed-staggered early time.
  t.survivor = t.scope.max();
  t.victims = t.scope;
  t.victims.erase(t.survivor);
  t.first_crash = 1 + (seed / scopes_.size()) % window;
  Time next = t.first_crash;
  for (ProcessId p : t.victims) {
    (void)p;
    t.last_crash = next++;
  }
  if (t.victims.empty()) t.last_crash = t.first_crash;
  return t;
}

FailurePattern QuorumEdgeAdversary::pattern_for(std::uint64_t seed,
                                                Time window) const {
  Target t = target_for(seed, window);
  FailurePattern pat(process_count_);
  Time next = t.first_crash;
  for (ProcessId p : t.victims) pat.crash_at(p, next++);
  return pat;
}

void QuorumEdgeInjector::tick(World& world, std::uint64_t steps_executed) {
  if (fired_ || steps_executed < trigger_step_) return;
  fired_ = true;
  // Crash every victim "now": the boundary lands wherever the run currently
  // is, rather than at a precomputed wall-clock time.
  Time now = world.now();
  Time next = now;
  for (ProcessId p : target_.victims)
    world.mutable_pattern().crash_at(p, next++);
}

// ---------------------------------------------------------------------------
// Specs

std::optional<SchedulerSpec> SchedulerSpec::parse(const std::string& text) {
  SchedulerSpec s;
  if (text == "random") return s;
  if (text == "pct") {
    s.kind = Kind::kPct;
    return s;
  }
  if (text.rfind("pct:", 0) == 0) {
    s.kind = Kind::kPct;
    char* end = nullptr;
    long d = std::strtol(text.c_str() + 4, &end, 10);
    if (!end || *end != '\0' || d < 1 || d > 64) return std::nullopt;
    s.depth = static_cast<int>(d);
    return s;
  }
  if (text.rfind("replay:", 0) == 0) {
    s.kind = Kind::kReplay;
    s.replay_path = text.substr(7);
    if (s.replay_path.empty()) return std::nullopt;
    return s;
  }
  return std::nullopt;
}

std::string SchedulerSpec::name() const {
  switch (kind) {
    case Kind::kRandom:
      return "random";
    case Kind::kPct:
      return "pct:" + std::to_string(depth);
    case Kind::kReplay:
      return "replay:" + replay_path;
  }
  return "?";
}

std::unique_ptr<Scheduler> SchedulerSpec::instantiate(
    std::uint64_t seed) const {
  switch (kind) {
    case Kind::kRandom:
      return std::make_unique<RandomScheduler>(
          trace_mix(seed, kSchedulerSeedSalt));
    case Kind::kPct:
      return std::make_unique<PctScheduler>(
          depth, step_bound, trace_mix(seed, kSchedulerSeedSalt));
    case Kind::kReplay: {
      auto r = ReplayScheduler::from_file(replay_path);
      if (!r) return nullptr;
      return std::make_unique<ReplayScheduler>(std::move(*r));
    }
  }
  return nullptr;
}

std::optional<AdversarySpec> AdversarySpec::parse(const std::string& text) {
  AdversarySpec a;
  if (text == "qedge") {
    a.quorum_edge_crashes = true;
    return a;
  }
  if (text.rfind("qedge+", 0) == 0) {
    a.quorum_edge_crashes = true;
    auto s = SchedulerSpec::parse(text.substr(6));
    if (!s) return std::nullopt;
    a.scheduler = *s;
    return a;
  }
  auto s = SchedulerSpec::parse(text);
  if (!s) return std::nullopt;
  a.scheduler = *s;
  return a;
}

std::string AdversarySpec::name() const {
  if (!quorum_edge_crashes) return scheduler.name();
  if (scheduler.kind == SchedulerSpec::Kind::kRandom) return "qedge";
  return "qedge+" + scheduler.name();
}

}  // namespace gam::sim
