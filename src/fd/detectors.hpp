// Failure-detector oracles (paper §3 and Appendix A).
//
// A failure detector D maps a failure pattern F to a set of histories; a
// history assigns to each (process, time) the value returned by a query. The
// oracles below compute, from the simulator's failure pattern, one valid
// history per class:
//
//   Σ_P  (quorum):    Intersection — any two returned quorums intersect;
//                     Liveness — eventually only correct processes returned.
//   Ω_P  (leader):    Leadership — eventually a single correct leader forever.
//   γ    (cyclicity): Accuracy — an omitted family of F(p) is faulty now;
//                     Completeness — a faulty family is eventually omitted
//                     forever at correct members.
//   1^P  (indicator): Accuracy — true only if P is crashed now;
//                     Completeness — eventually true forever once P crashed.
//   P    (perfect):   strong accuracy + completeness (for the [36] baseline).
//
// Each class also ships a "laggy" mode: outputs stabilize only after a
// configurable delay, which is exactly the slack the classes permit. Tests
// drive Algorithm 1 under both modes to check it relies on nothing stronger
// than the advertised axioms.
#pragma once

#include <optional>
#include <vector>

#include "groups/group_system.hpp"
#include "sim/failure_pattern.hpp"
#include "util/process_set.hpp"

namespace gam::fd {

using sim::Time;

// ---- Σ_P -------------------------------------------------------------------

class SigmaOracle {
 public:
  // The detector restricted to `scope` (Σ_P with P = scope); processes outside
  // the scope read ⊥. `lag` delays convergence onto the correct set.
  SigmaOracle(const sim::FailurePattern& pattern, ProcessSet scope,
              Time lag = 0);

  // H(p, t); nullopt encodes ⊥ (p outside the scope).
  std::optional<ProcessSet> query(ProcessId p, Time t) const;

  // The times at which this history's output can change (sorted, deduped):
  // the lagged crash instants of the faulty scope members. Between two
  // consecutive transition times every query is constant — the incremental
  // guarded-action engine invalidates its caches only at these instants.
  std::vector<Time> transition_times() const;

  ProcessSet scope() const { return scope_; }

 private:
  ProcessSet quorum_at(Time t) const;

  const sim::FailurePattern* pattern_;
  ProcessSet scope_;
  Time lag_;
  // The member of the scope that crashes last (quorum of last resort: keeps
  // Intersection valid even when the whole scope is faulty).
  ProcessId last_survivor_;
};

// ---- Ω_P -------------------------------------------------------------------

class OmegaOracle {
 public:
  OmegaOracle(const sim::FailurePattern& pattern, ProcessSet scope,
              Time lag = 0);

  std::optional<ProcessId> query(ProcessId p, Time t) const;

  // Output-change instants (see SigmaOracle::transition_times).
  std::vector<Time> transition_times() const;

  ProcessSet scope() const { return scope_; }

 private:
  const sim::FailurePattern* pattern_;
  ProcessSet scope_;
  Time lag_;
};

// ---- γ ---------------------------------------------------------------------

class GammaOracle {
 public:
  // `lag` delays the removal of faulty families (Completeness is eventual);
  // Accuracy — never omitting a family that is still correct — holds for any
  // lag by construction.
  GammaOracle(const groups::GroupSystem& system,
              const sim::FailurePattern& pattern, Time lag = 0);

  // γ(p, t): the cyclic families of F(p) this history still reports at t.
  std::vector<groups::FamilyMask> query(ProcessId p, Time t) const;

  // F(p), computed once per process at construction.
  const std::vector<groups::FamilyMask>& families_of(ProcessId p) const {
    GAM_EXPECTS(p >= 0 && p < system_->process_count());
    return families_of_[static_cast<size_t>(p)];
  }

  // γ(g) at process p and time t (paper §3): the groups h with g∩h ≠ ∅ such
  // that g and h belong to a family output by γ(p, t).
  std::vector<groups::GroupId> gamma_of_group(ProcessId p, groups::GroupId g,
                                              Time t) const;

  // The lagged family-faulty instants: outside these, γ(p, t) — and hence
  // γ(g) — is constant in t at every process.
  std::vector<Time> transition_times() const;

 private:
  const groups::GroupSystem* system_;
  const sim::FailurePattern* pattern_;
  Time lag_;
  // Cache: per process, F(p); per family, the time it becomes faulty (kNever
  // if it never does).
  std::vector<std::vector<groups::FamilyMask>> families_of_;
  std::vector<std::pair<groups::FamilyMask, Time>> faulty_time_;

  Time family_faulty_time(groups::FamilyMask f) const;
};

// ---- 1^P -------------------------------------------------------------------

class IndicatorOracle {
 public:
  // 1^{watched} restricted to `scope` (the paper's 1^{g∩h} has
  // watched = g∩h, scope = g∪h).
  IndicatorOracle(const sim::FailurePattern& pattern, ProcessSet watched,
                  ProcessSet scope, Time lag = 0);

  std::optional<bool> query(ProcessId p, Time t) const;

  // The single lagged flip instant (empty when `watched` never fully crashes).
  std::vector<Time> transition_times() const;

 private:
  const sim::FailurePattern* pattern_;
  ProcessSet watched_;
  ProcessSet scope_;
  Time lag_;
};

// ---- P (perfect) -------------------------------------------------------------

class PerfectOracle {
 public:
  explicit PerfectOracle(const sim::FailurePattern& pattern)
      : pattern_(&pattern) {}

  // The exact crashed set at t: strongly accurate and complete.
  ProcessSet query(ProcessId, Time t) const { return pattern_->failed_at(t); }

 private:
  const sim::FailurePattern* pattern_;
};

// ---- μ ---------------------------------------------------------------------

// The candidate detector μ_G = (∧_{g,h∈G} Σ_{g∩h}) ∧ (∧_{g∈G} Ω_g) ∧ γ,
// bundled per group system. Algorithm 1 consumes exactly this interface.
class MuOracle {
 public:
  MuOracle(const groups::GroupSystem& system,
           const sim::FailurePattern& pattern, Time lag = 0);

  // Σ_{g∩h}; g == h gives Σ_g, and a disjoint pair gives Σ_∅ (⊥ everywhere).
  const SigmaOracle& sigma(groups::GroupId g, groups::GroupId h) const;
  // Ω_g.
  const OmegaOracle& omega(groups::GroupId g) const;
  const GammaOracle& gamma() const { return gamma_; }

  // The union of every component's transition times (sorted, deduped): a
  // consumer whose clock has not crossed one of these since it last evaluated
  // a μ query will read exactly the same answers.
  std::vector<Time> transition_times() const;

  const groups::GroupSystem& system() const { return *system_; }

 private:
  const groups::GroupSystem* system_;
  std::vector<SigmaOracle> sigmas_;   // indexed by the system's pair_index()
  SigmaOracle disjoint_;              // Σ_∅, shared by every disjoint pair
  std::vector<OmegaOracle> omegas_;   // indexed g
  GammaOracle gamma_;
};

}  // namespace gam::fd
