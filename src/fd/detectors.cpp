#include "fd/detectors.hpp"

#include <algorithm>

namespace gam::fd {

namespace {

// The "view time" of a laggy detector: what it believes at t is the truth at
// t - lag (clamped at 0). Lagging a crash-monotone signal preserves every
// "eventually" clause of the classes while exercising the transient slack.
Time lagged(Time t, Time lag) { return t > lag ? t - lag : 0; }

void sort_unique(std::vector<Time>& ts) {
  std::sort(ts.begin(), ts.end());
  ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
}

// The lagged crash instants of the faulty members of `scope`: the only times
// a lag-delayed view of "who in the scope is alive" can change.
std::vector<Time> scope_transitions(const sim::FailurePattern& pattern,
                                    ProcessSet scope, Time lag) {
  std::vector<Time> ts;
  for (ProcessId p : scope) {
    Time ct = pattern.crash_time(p);
    if (ct != sim::kNever) ts.push_back(ct + lag);
  }
  sort_unique(ts);
  return ts;
}

}  // namespace

// ---- Σ_P ---------------------------------------------------------------------

SigmaOracle::SigmaOracle(const sim::FailurePattern& pattern, ProcessSet scope,
                         Time lag)
    : pattern_(&pattern), scope_(scope), lag_(lag), last_survivor_(-1) {
  // The quorum of last resort: the scope member that crashes last. Once the
  // whole scope is dead, returning {last_survivor_} keeps Intersection valid
  // because that process belongs to every earlier alive-set. Correct members
  // never crash, so any of them qualifies.
  Time best = 0;
  for (ProcessId p : scope_) {
    Time ct = pattern_->crash_time(p);
    if (last_survivor_ == -1 || ct > best ||
        (ct == best && p < last_survivor_)) {
      best = ct;
      last_survivor_ = p;
    }
    if (ct == sim::kNever) {  // a correct member: stop looking
      last_survivor_ = p;
      break;
    }
  }
}

ProcessSet SigmaOracle::quorum_at(Time t) const {
  Time view = lagged(t, lag_);
  ProcessSet alive;
  for (ProcessId q : scope_)
    if (pattern_->alive(q, view)) alive.insert(q);
  if (!alive.empty()) return alive;
  return ProcessSet::single(last_survivor_);
}

std::optional<ProcessSet> SigmaOracle::query(ProcessId p, Time t) const {
  if (!scope_.contains(p)) return std::nullopt;
  return quorum_at(t);
}

std::vector<Time> SigmaOracle::transition_times() const {
  return scope_transitions(*pattern_, scope_, lag_);
}

// ---- Ω_P ---------------------------------------------------------------------

OmegaOracle::OmegaOracle(const sim::FailurePattern& pattern, ProcessSet scope,
                         Time lag)
    : pattern_(&pattern), scope_(scope), lag_(lag) {}

std::optional<ProcessId> OmegaOracle::query(ProcessId p, Time t) const {
  if (!scope_.contains(p)) return std::nullopt;
  Time view = lagged(t, lag_);
  // The smallest scope member still alive at the view time. Faulty processes
  // all crash eventually, so this converges to the smallest correct member —
  // exactly one leader, forever, as Leadership demands.
  for (ProcessId q : scope_)
    if (pattern_->alive(q, view)) return q;
  return scope_.min();  // whole scope dead: Leadership is vacuous
}

std::vector<Time> OmegaOracle::transition_times() const {
  return scope_transitions(*pattern_, scope_, lag_);
}

// ---- γ -----------------------------------------------------------------------

GammaOracle::GammaOracle(const groups::GroupSystem& system,
                         const sim::FailurePattern& pattern, Time lag)
    : system_(&system), pattern_(&pattern), lag_(lag) {
  families_of_.resize(static_cast<size_t>(system.process_count()));
  for (ProcessId p = 0; p < system.process_count(); ++p)
    families_of_[static_cast<size_t>(p)] = system.families_of_process(p);
  for (groups::FamilyMask f : system.cyclic_families())
    faulty_time_.emplace_back(f, family_faulty_time(f));
}

Time GammaOracle::family_faulty_time(groups::FamilyMask f) const {
  if (!system_->family_faulty(f, *pattern_)) return sim::kNever;
  // Family faultiness is crash-monotone; the transition can only happen when
  // some edge intersection finishes crashing. Probe those instants in order.
  auto members = groups::family_members(f);
  std::vector<Time> candidates;
  for (size_t i = 0; i < members.size(); ++i)
    for (size_t j = i + 1; j < members.size(); ++j) {
      ProcessSet inter = system_->intersection(members[i], members[j]);
      if (inter.empty()) continue;
      Time ct = pattern_->set_crash_time(inter);
      if (ct != sim::kNever) candidates.push_back(ct);
    }
  std::sort(candidates.begin(), candidates.end());
  for (Time t : candidates)
    if (system_->family_faulty_at(f, *pattern_, t)) return t;
  GAM_INVARIANT(false);  // family_faulty(f) implied a finite transition time
  return sim::kNever;
}

std::vector<groups::FamilyMask> GammaOracle::query(ProcessId p, Time t) const {
  std::vector<groups::FamilyMask> out;
  for (groups::FamilyMask f : families_of_[static_cast<size_t>(p)]) {
    auto it = std::find_if(faulty_time_.begin(), faulty_time_.end(),
                           [f](const auto& e) { return e.first == f; });
    GAM_INVARIANT(it != faulty_time_.end());
    Time ft = it->second;
    // Keep the family until lag steps after it became faulty. Accuracy holds
    // (we only ever omit after ft), Completeness holds (omitted forever from
    // ft + lag on).
    bool omitted = ft != sim::kNever && t >= ft + lag_;
    if (!omitted) out.push_back(f);
  }
  return out;
}

std::vector<Time> GammaOracle::transition_times() const {
  std::vector<Time> ts;
  for (const auto& [f, ft] : faulty_time_)
    if (ft != sim::kNever) ts.push_back(ft + lag_);
  sort_unique(ts);
  return ts;
}

std::vector<groups::GroupId> GammaOracle::gamma_of_group(ProcessId p,
                                                         groups::GroupId g,
                                                         Time t) const {
  // h = g qualifies whenever some family still output by γ contains g
  // (g∩g = g ≠ ∅), which the stable/commit preconditions of Algorithm 1 rely
  // on (Lemma 22 applies it with dst(m') = g).
  return system_->neighbors_in(query(p, t), g);
}

// ---- 1^P ---------------------------------------------------------------------

IndicatorOracle::IndicatorOracle(const sim::FailurePattern& pattern,
                                 ProcessSet watched, ProcessSet scope,
                                 Time lag)
    : pattern_(&pattern), watched_(watched), scope_(scope), lag_(lag) {}

std::optional<bool> IndicatorOracle::query(ProcessId p, Time t) const {
  if (!scope_.contains(p)) return std::nullopt;
  Time ct = pattern_->set_crash_time(watched_);
  if (ct == sim::kNever) return false;
  return t >= ct + lag_;
}

std::vector<Time> IndicatorOracle::transition_times() const {
  Time ct = pattern_->set_crash_time(watched_);
  if (ct == sim::kNever) return {};
  return {ct + lag_};
}

// ---- μ -----------------------------------------------------------------------

MuOracle::MuOracle(const groups::GroupSystem& system,
                   const sim::FailurePattern& pattern, Time lag)
    : system_(&system),
      disjoint_(pattern, ProcessSet{}, lag),
      gamma_(system, pattern, lag) {
  const groups::GroupPairIndex& pairs = system.pair_index();
  sigmas_.reserve(static_cast<size_t>(pairs.size()));
  for (int slot = 0; slot < pairs.size(); ++slot) {
    auto [g, h] = pairs.pair(slot);
    sigmas_.emplace_back(pattern, system.intersection(g, h), lag);
  }
  int n = system.group_count();
  omegas_.reserve(static_cast<size_t>(n));
  for (groups::GroupId g = 0; g < n; ++g)
    omegas_.emplace_back(pattern, system.group(g), lag);
}

const SigmaOracle& MuOracle::sigma(groups::GroupId g, groups::GroupId h) const {
  int slot = system_->pair_index().find(g, h);
  return slot < 0 ? disjoint_ : sigmas_[static_cast<size_t>(slot)];
}

const OmegaOracle& MuOracle::omega(groups::GroupId g) const {
  GAM_EXPECTS(g >= 0 && g < system_->group_count());
  return omegas_[static_cast<size_t>(g)];
}

std::vector<Time> MuOracle::transition_times() const {
  std::vector<Time> ts;
  auto absorb = [&ts](std::vector<Time> more) {
    ts.insert(ts.end(), more.begin(), more.end());
  };
  for (const SigmaOracle& s : sigmas_) absorb(s.transition_times());
  for (const OmegaOracle& o : omegas_) absorb(o.transition_times());
  absorb(gamma_.transition_times());
  sort_unique(ts);
  return ts;
}

}  // namespace gam::fd
