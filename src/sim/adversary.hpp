// Adversarial scheduling and crash-injection strategies.
//
// The paper's theorems quantify over ALL failure patterns and ALL fair
// schedules; the uniform-random default exercises exactly one benign corner
// of that space. This module supplies the adversaries the invariant monitors
// are worth running against:
//
//   PctScheduler       — PCT-style priority scheduling (Burckhardt et al.):
//                        random distinct priorities, always run the highest-
//                        priority enabled process, and demote at d-1 random
//                        change points. Covers any bug of "depth" d with
//                        probability >= 1/(n * k^(d-1)) per run.
//   ReplayScheduler    — re-executes the exact attempt sequence recorded in
//                        a `# gam-trace v1` file, making any adversarial
//                        schedule byte-reproducible after the fact.
//   QuorumEdgeAdversary— derives a failure pattern from the group system that
//                        kills processes right at a Σ-quorum boundary: all
//                        but one member of some pairwise group intersection
//                        crash back-to-back, driving Σ to its quorum of last
//                        resort while the survivors keep running.
//   QuorumEdgeInjector — the same boundary attack as mid-run crash injection
//                        through World::mutable_pattern (plain-World runs
//                        only; FD oracles bind their construction pattern).
//
// Links are reliable in this model (no-loss, no-duplication buffer), so the
// adversary's levers are schedule order and crash timing — never message
// loss. SchedulerSpec/AdversarySpec are the value objects the CLI axis
// (`bench_sweep --adversary=`, tools/adversary_hunt) parses and instantiates.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/failure_pattern.hpp"
#include "sim/trace.hpp"
#include "sim/world.hpp"
#include "util/process_set.hpp"
#include "util/rng.hpp"

namespace gam::sim {

// True in -DGAM_PLANTED_BUG=ON builds: MuMulticast ships one deliberately
// weakened delivery guard so the adversary hunt has a known bug to find.
// Never ON in shipping builds; scripts/tier1.sh gates both polarities.
#ifdef GAM_PLANTED_BUG
inline constexpr bool kPlantedBug = true;
#else
inline constexpr bool kPlantedBug = false;
#endif

// ---------------------------------------------------------------------------
// PCT. `step_bound` is the a-priori bound k on run length used to draw the
// d-1 priority change points; PCT's guarantee covers the first k steps.
// Past them the scheduler plans fairly instead: round-robin from the process
// after the last one that fired, so every candidate runs within n plans and
// a high-priority process that always wants a step cannot starve the rest.
// single_step() is true: the scheduler re-plans after every fired step so
// the highest-priority enabled process always runs next.
class PctScheduler final : public Scheduler {
 public:
  PctScheduler(int depth, std::uint64_t step_bound, std::uint64_t seed);

  void begin(int process_count) override;
  void plan(ProcessSet candidates, std::vector<ProcessId>& out) override;
  void fired(ProcessId p, std::uint64_t step_index) override;
  bool single_step() const override { return true; }

  // Introspection for tests.
  int depth() const { return depth_; }
  const std::vector<std::uint64_t>& change_points() const {
    return change_points_;
  }
  const std::vector<std::int64_t>& priorities() const { return priority_; }

 private:
  int depth_;
  std::uint64_t step_bound_;
  Rng rng_;
  bool begun_ = false;
  std::vector<std::int64_t> priority_;      // per process; higher runs first
  std::vector<std::uint64_t> change_points_;  // sorted step indices
  std::int64_t next_low_ = -1;              // next demotion value
  std::uint64_t fired_steps_ = 0;           // steps fired so far
  ProcessId next_ = 0;  // past the horizon: where the round-robin resumes
};

// ---------------------------------------------------------------------------
// Replay. The script is a flat attempt sequence: process ids to attempt in
// order, with -1 encoding an idle clock tick (drivers with an idle notion
// consume those through take_idle_tick; the World skips them). Attempts that
// cannot fire (crashed processes) are planned anyway and skipped by the
// driver — exactly what the recording run did.
class ReplayScheduler final : public Scheduler {
 public:
  explicit ReplayScheduler(std::vector<ProcessId> attempts)
      : attempts_(std::move(attempts)) {}

  // The attempt sequence a recorded `# gam-trace v1` stream encodes: one
  // attempt per kReceive / kNullStep / kCrash event (the three event kinds a
  // scheduling attempt can produce). Works both on full World traces and on
  // schedule files written by write_schedule (all-kNullStep).
  static std::vector<ProcessId> attempts_from_events(
      const std::vector<TraceEvent>& events);

  // Loads a trace/schedule file and extracts its attempt sequence.
  static std::optional<ReplayScheduler> from_file(const std::string& path);

  void plan(ProcessSet candidates, std::vector<ProcessId>& out) override;
  bool single_step() const override { return true; }
  bool exhausted() const override { return cursor_ >= attempts_.size(); }
  bool take_idle_tick() override;

  std::size_t size() const { return attempts_.size(); }
  std::size_t cursor() const { return cursor_; }

 private:
  std::vector<ProcessId> attempts_;
  std::size_t cursor_ = 0;
};

// Serializes an attempt sequence (-1 = idle tick) as a `# gam-trace v1` file
// of null-step records (t = index, p = attempt), so schedules ride the same
// format, tooling, and hash discipline as event traces.
bool write_schedule(const std::string& path,
                    const std::vector<ProcessId>& attempts);
std::optional<std::vector<ProcessId>> load_schedule(const std::string& path);

// ---------------------------------------------------------------------------
// Quorum-edge crash derivation. Takes the group memberships (passed as plain
// ProcessSets to keep sim below groups in the layering) and derives failure
// patterns that crash all but one member of some nonempty pairwise group
// intersection at consecutive early times. The survivor is Σ's quorum of
// last resort for every scope containing the intersection: the pattern sits
// exactly on the boundary where quorums collapse to a singleton while the
// run keeps going.
class QuorumEdgeAdversary {
 public:
  struct Target {
    ProcessSet scope;      // the attacked intersection g∩h
    ProcessSet victims;    // crashed members (all but the survivor)
    ProcessId survivor;    // the quorum of last resort
    Time first_crash;      // earliest victim crash time
    Time last_crash;       // latest victim crash time
  };

  QuorumEdgeAdversary(std::vector<ProcessSet> groups, int process_count);

  // Deterministically maps a seed to one boundary attack. `window` bounds the
  // start-time stagger so crashes land early, while protocol state is still
  // in flight.
  Target target_for(std::uint64_t seed, Time window = 16) const;
  FailurePattern pattern_for(std::uint64_t seed, Time window = 16) const;

  const std::vector<ProcessSet>& scopes() const { return scopes_; }

 private:
  std::vector<ProcessSet> scopes_;  // deduped nonempty pairwise intersections
  int process_count_;
};

// Mid-run variant: applies a Target's crashes through mutable_pattern once
// the executed-step count reaches `trigger_step`. Plain-World runs only (see
// CrashInjector's note on oracle binding).
class QuorumEdgeInjector final : public CrashInjector {
 public:
  QuorumEdgeInjector(QuorumEdgeAdversary::Target target,
                     std::uint64_t trigger_step)
      : target_(target), trigger_step_(trigger_step) {}

  void tick(World& world, std::uint64_t steps_executed) override;
  bool fired() const { return fired_; }

 private:
  QuorumEdgeAdversary::Target target_;
  std::uint64_t trigger_step_;
  bool fired_ = false;
};

// ---------------------------------------------------------------------------
// CLI-facing value objects.

// A scheduling strategy by name: "random", "pct" / "pct:D", "replay:PATH".
struct SchedulerSpec {
  enum class Kind : std::int8_t { kRandom = 0, kPct = 1, kReplay = 2 };

  Kind kind = Kind::kRandom;
  int depth = 3;                   // PCT
  std::uint64_t step_bound = 4096; // PCT change-point horizon
  std::string replay_path;         // replay

  static std::optional<SchedulerSpec> parse(const std::string& text);
  std::string name() const;

  // Builds the scheduler for one run. All randomness forks from `seed` with
  // kSchedulerSeedSalt, matching the World's built-in default so that
  // kRandom-by-spec and no-spec runs are byte-identical. Returns nullptr if
  // a replay file cannot be loaded.
  std::unique_ptr<Scheduler> instantiate(std::uint64_t seed) const;
};

inline SchedulerSpec pct(int depth, std::uint64_t step_bound = 4096) {
  SchedulerSpec s;
  s.kind = SchedulerSpec::Kind::kPct;
  s.depth = depth;
  s.step_bound = step_bound;
  return s;
}

inline SchedulerSpec random_scheduler() { return SchedulerSpec{}; }

inline SchedulerSpec replay(std::string path) {
  SchedulerSpec s;
  s.kind = SchedulerSpec::Kind::kReplay;
  s.replay_path = std::move(path);
  return s;
}

// The full --adversary= axis: a scheduling strategy plus (optionally) the
// quorum-edge crash derivation. Grammar: "random" | "pct[:D]" |
// "replay:PATH" | "qedge" | "qedge+<scheduler>".
struct AdversarySpec {
  SchedulerSpec scheduler;
  bool quorum_edge_crashes = false;

  static std::optional<AdversarySpec> parse(const std::string& text);
  std::string name() const;
};

}  // namespace gam::sim
