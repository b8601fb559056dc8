// Failure patterns and environments (paper, Appendix A).
//
// A failure pattern is a function F : N -> 2^P with F(t) ⊆ F(t+1): the set of
// processes that have crashed by time t. Crash-stop, no recovery. An
// environment is a set of failure patterns; we represent environments
// intensionally as generators (all patterns with at most f failures, etc.).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/contracts.hpp"
#include "util/process_set.hpp"
#include "util/rng.hpp"

namespace gam::sim {

using Time = std::uint64_t;
inline constexpr Time kNever = std::numeric_limits<Time>::max();

class FailurePattern {
 public:
  // A pattern over n processes where nobody crashes.
  explicit FailurePattern(int n) : crash_time_(static_cast<size_t>(n), kNever) {
    GAM_EXPECTS(n > 0 && n <= ProcessSet::kMaxProcesses);
  }

  int process_count() const { return static_cast<int>(crash_time_.size()); }

  // Schedule p to crash at time t (inclusive: p takes no step at or after t).
  void crash_at(ProcessId p, Time t) {
    GAM_EXPECTS(valid(p));
    crash_time_[static_cast<size_t>(p)] = t;
  }

  Time crash_time(ProcessId p) const {
    GAM_EXPECTS(valid(p));
    return crash_time_[static_cast<size_t>(p)];
  }

  bool crashed(ProcessId p, Time t) const {
    GAM_EXPECTS(valid(p));
    return t >= crash_time_[static_cast<size_t>(p)];
  }

  bool alive(ProcessId p, Time t) const { return !crashed(p, t); }

  // F(t): the processes crashed by time t.
  ProcessSet failed_at(Time t) const {
    ProcessSet s;
    for (int p = 0; p < process_count(); ++p)
      if (crashed(p, t)) s.insert(p);
    return s;
  }

  ProcessSet alive_at(Time t) const {
    return ProcessSet::universe(process_count()) - failed_at(t);
  }

  bool faulty(ProcessId p) const {
    return crash_time_[static_cast<size_t>(p)] != kNever;
  }

  bool correct(ProcessId p) const { return !faulty(p); }

  // Faulty(F) = ∪_t F(t).
  ProcessSet faulty_set() const {
    ProcessSet s;
    for (int p = 0; p < process_count(); ++p)
      if (faulty(p)) s.insert(p);
    return s;
  }

  // Correct(F) = P \ Faulty(F).
  ProcessSet correct_set() const {
    return ProcessSet::universe(process_count()) - faulty_set();
  }

  // True when the whole set P has crashed by time t ("P is faulty at t").
  bool set_faulty_at(ProcessSet set, Time t) const {
    for (ProcessId p : set)
      if (alive(p, t)) return false;
    return !set.empty();
  }

  // True when every member of `set` eventually crashes. O(|set|).
  bool set_faulty(ProcessSet set) const {
    for (ProcessId p : set)
      if (!valid(p) || !faulty(p)) return false;
    return !set.empty();
  }

  // The earliest time at which the whole of `set` has crashed, or kNever.
  Time set_crash_time(ProcessSet set) const {
    if (!set_faulty(set)) return kNever;
    Time t = 0;
    for (ProcessId p : set) t = std::max(t, crash_time(p));
    return t;
  }

 private:
  bool valid(ProcessId p) const {
    return p >= 0 && p < process_count();
  }

  std::vector<Time> crash_time_;
};

// Generators for the environments the paper's theorems quantify over. The
// necessity results assume that "if a process may fail, it may fail at any
// time"; random sampling of crash times over a horizon approximates that
// quantification in tests and benches.
struct EnvironmentSampler {
  int process_count = 0;
  int max_failures = 0;     // |Faulty(F)| <= max_failures
  Time horizon = 1000;      // crash times are drawn from [0, horizon)
  ProcessSet failure_prone; // only these processes may crash (default: all)

  FailurePattern sample(Rng& rng) const {
    GAM_EXPECTS(process_count > 0);
    FailurePattern f(process_count);
    ProcessSet prone = failure_prone.empty()
                           ? ProcessSet::universe(process_count)
                           : failure_prone;
    std::vector<ProcessId> candidates(prone.begin(), prone.end());
    // Fisher-Yates prefix shuffle to pick the victims.
    int victims = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(
                      std::min<int>(max_failures,
                                    static_cast<int>(candidates.size()))) +
                  1));
    for (int i = 0; i < victims; ++i) {
      auto j = i + static_cast<int>(rng.below(candidates.size() - static_cast<size_t>(i)));
      std::swap(candidates[static_cast<size_t>(i)], candidates[static_cast<size_t>(j)]);
      f.crash_at(candidates[static_cast<size_t>(i)],
                 static_cast<Time>(rng.below(horizon)));
    }
    return f;
  }
};

}  // namespace gam::sim
