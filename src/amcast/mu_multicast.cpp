#include "amcast/mu_multicast.hpp"

#include <algorithm>

#include "amcast/spec.hpp"  // record_ledger

namespace gam::amcast {

using groups::GroupId;
using objects::LogEntry;

// Per-process protocol state: the messages addressed to the process and
// their PHASE map of line 4, plus the failure-detector memos of the
// incremental engine. Per-group state has one slot per group of G(p), in the
// order of groups_of(p).
struct MuMulticast::PerProcess {
  // The dense indices of the messages whose destination contains this
  // process, ascending by id and in submission order. A process only ever
  // acts on these: dissemination is closed and helping is limited to
  // destination members.
  std::vector<std::int32_t> by_id;
  std::vector<std::int32_t> by_submission;
  // workload_-indexed, long enough to cover every message addressed here;
  // any other message stays at kStart (see phase_at).
  std::vector<Phase> phase;
  std::int64_t delivered_seq = 0;
  std::vector<groups::FamilyMask> cons_family;  // per G(p) slot: H(p,g)

  // Wait-set memo: μ outputs are constant between transition times, so a
  // (process, group) wait set computed at version v is exact until the clock
  // crosses the next transition (fd_version() changes). Filled by const
  // guard evaluation.
  struct WaitCache {
    std::uint64_t version = ~std::uint64_t{0};
    std::vector<GroupId> groups;
  };
  mutable std::vector<WaitCache> gamma_memo;   // per G(p) slot: γ(g) here
  mutable std::vector<WaitCache> strict_memo;  // per G(p) slot: §6.1 wait set
};

MuMulticast::MuMulticast(const groups::GroupSystem& system,
                         const sim::FailurePattern& pattern, Options options)
    : SequentialProtocol(system, pattern, options),
      oracle_(system, pattern, options.fd_lag) {
  GAM_EXPECTS(system.process_count() == pattern.process_count());
  GAM_EXPECTS(options_.batch_k >= 1 && options_.window_size >= 1);
  const groups::GroupPairIndex& pairs = system_.pair_index();
  if (options_.strict) {
    // One indicator 1^{g∩h} per pair of intersecting groups (g = h gives
    // 1^g), indexed like the logs. Scope g∪h as in §6.1.
    for (int slot = 0; slot < pairs.size(); ++slot) {
      auto [g, h] = pairs.pair(slot);
      indicators_.emplace_back(pattern_, system_.intersection(g, h),
                               system_.group(g) | system_.group(h),
                               options_.fd_lag);
    }
  }
  auto n = static_cast<size_t>(system.process_count());
  procs_.resize(n);
  for (ProcessId p = 0; p < system.process_count(); ++p) {
    PerProcess& st = procs_[static_cast<size_t>(p)];
    const std::vector<groups::FamilyMask>& fp = oracle_.gamma().families_of(p);
    for (GroupId g : system_.groups_of(p)) {
      groups::FamilyMask mask;
      for (GroupId h : system_.neighbors_in(fp, g)) mask.insert(h);
      st.cons_family.push_back(mask);
    }
    st.gamma_memo.resize(st.cons_family.size());
    if (options_.strict) st.strict_memo.resize(st.cons_family.size());
  }

  group_sequence_.resize(static_cast<size_t>(system.group_count()));

  // One log per intersecting pair, indexed (and journal-keyed) by the pair
  // index slot. No process belongs to both groups of a disjoint pair, so no
  // guard or effect ever names such a log.
  logs_.reserve(static_cast<size_t>(pairs.size()));
  for (int slot = 0; slot < pairs.size(); ++slot)
    logs_.emplace_back(static_cast<std::int64_t>(slot),
                       options_.track_log_history);

  // The instants at which any guard input other than the logs and phases can
  // change: μ component transitions, the strict indicators, and the raw crash
  // predicate (read by the helping rule and by multicast_eligible).
  fd_transitions_ = oracle_.transition_times();
  for (ProcessId p = 0; p < pattern_.process_count(); ++p)
    if (pattern_.faulty(p)) fd_transitions_.push_back(pattern_.crash_time(p));
  for (const auto& ind : indicators_) {
    auto ts = ind.transition_times();
    fd_transitions_.insert(fd_transitions_.end(), ts.begin(), ts.end());
  }
  std::sort(fd_transitions_.begin(), fd_transitions_.end());
  fd_transitions_.erase(
      std::unique(fd_transitions_.begin(), fd_transitions_.end()),
      fd_transitions_.end());
  next_transition_ = static_cast<size_t>(
      std::upper_bound(fd_transitions_.begin(), fd_transitions_.end(), now_) -
      fd_transitions_.begin());

  dirty_.assign(n, 1);
  cached_.assign(n, ActionChoice{});
}

MuMulticast::~MuMulticast() = default;

// ---- metrics probes ----------------------------------------------------------

namespace {
std::string group_label(GroupId g) { return "g" + std::to_string(g); }
constexpr sim::Time kNoStamp = ~sim::Time{0};
}  // namespace

void MuMulticast::set_metrics(sim::Metrics* m) {
  probe_ = Probe{};
  probe_.reg = m;
  if (!m) return;
  probe_.fd_gamma = &m->counter("fd_query", "gamma");
  probe_.fd_sigma = &m->counter("fd_query", "sigma");
  probe_.fd_indicator = &m->counter("fd_query", "indicator");
  probe_.consensus = &m->counter("consensus_propose");
  probe_.batch_occ = &m->histogram("batch_occupancy");
  probe_.submit_time.assign(workload_.size(), kNoStamp);
  probe_.mcast_time.assign(workload_.size(), kNoStamp);
  probe_.stable_time.assign(
      static_cast<size_t>(system_.process_count()),
      std::vector<sim::Time>(workload_.size(), kNoStamp));
  probe_.steps.assign(static_cast<size_t>(system_.process_count()), 0);
}

// Lifecycle stamps at each phase transition; all series are in simulated
// steps relative to the multicast instant except convoy_wait, which measures
// the stable → deliver gap at the delivering process (the time a stable
// message sits behind undelivered <_L-predecessors — the convoy effect).
void MuMulticast::probe_execute(ProcessId p, const ActionChoice& c,
                                const MulticastMessage& m) {
  auto mi = static_cast<size_t>(c.mi);
  sim::Metrics& reg = *probe_.reg;
  switch (c.kind) {
    case ActionChoice::kMulticast: {
      probe_.mcast_time[mi] = now_;
      if (probe_.submit_time[mi] != kNoStamp)
        reg.histogram("multicast_wait")
            .record(now_ - probe_.submit_time[mi]);
      break;
    }
    case ActionChoice::kPending:
    case ActionChoice::kCommit: {
      if (probe_.mcast_time[mi] != kNoStamp)
        reg.histogram("phase_latency",
                      c.kind == ActionChoice::kPending ? "pending" : "commit")
            .record(now_ - probe_.mcast_time[mi]);
      break;
    }
    case ActionChoice::kStable: {
      probe_.stable_time[static_cast<size_t>(p)][mi] = now_;
      if (probe_.mcast_time[mi] != kNoStamp)
        reg.histogram("phase_latency", "stable")
            .record(now_ - probe_.mcast_time[mi]);
      break;
    }
    case ActionChoice::kDeliver: {
      if (probe_.mcast_time[mi] != kNoStamp)
        reg.histogram("deliver_latency", group_label(m.dst))
            .record(now_ - probe_.mcast_time[mi]);
      sim::Time st = probe_.stable_time[static_cast<size_t>(p)][mi];
      if (st != kNoStamp)
        reg.histogram("convoy_wait", group_label(m.dst)).record(now_ - st);
      break;
    }
    case ActionChoice::kStabilize:
    case ActionChoice::kNone:
      break;
  }
}

// End-of-run series: per-(g,h) log sizes and the genuineness ledger. A
// genuine protocol (Theorem: Algorithm 1) must show zero non-addressee
// activity — steps, processes, or messages attributable to processes outside
// ∪ dst(m) over the issued messages (the minimality property of spec.cpp).
void MuMulticast::flush_metrics() {
  sim::Metrics& reg = *probe_.reg;
  for (size_t slot = 0; slot < logs_.size(); ++slot) {
    const objects::Log& l = logs_[slot];
    if (l.size() == 0) continue;
    auto [g, h] = system_.pair_index().pair(static_cast<int>(slot));
    reg.gauge("log_size", group_label(g) + "x" + std::to_string(h))
        .set(static_cast<std::int64_t>(l.size()));
  }

  // Algorithm 1 exchanges no wire messages (all coordination is through the
  // shared objects), so its message ledger is identically zero.
  record_ledger(
      reg, record_, system_,
      [this](ProcessId p) { return probe_.steps[static_cast<size_t>(p)]; },
      nullptr);
}

void MuMulticast::submit(const MulticastMessage& m) {
  GAM_EXPECTS(m.id >= 0 && !index_of_.count(m.id));
  GAM_EXPECTS(m.dst >= 0 && m.dst < system_.group_count());
  GAM_EXPECTS(system_.group(m.dst).contains(m.src));  // closed dissemination
  auto mi = static_cast<std::int32_t>(workload_.size());
  workload_.push_back(m);
  index_of_.emplace(m.id, mi);
  group_sequence_[static_cast<size_t>(m.dst)].push_back(m.id);
  GAM_METRICS_PROBE(if (probe_.reg) {
    probe_.submit_time.push_back(now_);
    probe_.mcast_time.push_back(kNoStamp);
  });
  for (ProcessId p : system_.group(m.dst)) {
    PerProcess& st = procs_[static_cast<size_t>(p)];
    st.phase.resize(static_cast<size_t>(mi) + 1, Phase::kStart);
    GAM_METRICS_PROBE(if (probe_.reg) probe_.stable_time[static_cast<size_t>(p)]
                          .resize(static_cast<size_t>(mi) + 1, kNoStamp));
    st.by_submission.push_back(mi);
    // Keep by_id ascending by id (append is the common case: workloads are
    // generated with increasing ids).
    auto pos = st.by_id.end();
    if (!st.by_id.empty() &&
        workload_[static_cast<size_t>(st.by_id.back())].id > m.id)
      pos = std::upper_bound(st.by_id.begin(), st.by_id.end(), m.id,
                             [this](MsgId id, std::int32_t j) {
                               return id < workload_[static_cast<size_t>(j)].id;
                             });
    st.by_id.insert(pos, mi);
  }
  GAM_METRICS_PROBE(if (span_sink_) span_sink_->on_span(
      {static_cast<std::uint64_t>(now_), m.src, sim::SpanKind::kSubmit, m.id,
       m.dst, 0}));
  // Only members of the destination group can gain an enabled multicast.
  mark_dirty(system_.group(m.dst));
}

std::size_t MuMulticast::log_index(GroupId g, GroupId h) const {
  return static_cast<size_t>(system_.pair_index().flat(g, h));
}

objects::Log& MuMulticast::log(GroupId g, GroupId h) {
  return logs_[log_index(g, h)];
}

const objects::Log& MuMulticast::log_of(GroupId g, GroupId h) const {
  return logs_[log_index(g, h)];
}

std::string MuMulticast::validate_log_invariants() const {
  for (size_t slot = 0; slot < logs_.size(); ++slot) {
    std::string err = logs_[slot].check_history();
    if (err.empty()) continue;
    auto [g, h] = system_.pair_index().pair(static_cast<int>(slot));
    return "LOG(g" + std::to_string(g) + ",g" + std::to_string(h) + "): " +
           err;
  }
  return {};
}

std::size_t MuMulticast::group_slot(ProcessId p, GroupId g) const {
  const std::vector<GroupId>& gp = system_.groups_of(p);
  auto it = std::lower_bound(gp.begin(), gp.end(), g);
  GAM_EXPECTS(it != gp.end() && *it == g);
  return static_cast<size_t>(it - gp.begin());
}

Phase MuMulticast::phase_of(ProcessId p, MsgId m) const {
  auto it = index_of_.find(m);
  if (it == index_of_.end()) return Phase::kStart;
  return phase_at(p, it->second);
}

Phase MuMulticast::phase_at(ProcessId p, std::int32_t mi) const {
  // A process never acts on a message outside its groups, whose phase there
  // therefore stays kStart.
  const std::vector<Phase>& phase = procs_[static_cast<size_t>(p)].phase;
  auto i = static_cast<size_t>(mi);
  return i < phase.size() ? phase[i] : Phase::kStart;
}

std::int32_t MuMulticast::index_of(MsgId m) const { return index_of_.at(m); }

// ---- incremental bookkeeping -------------------------------------------------

void MuMulticast::mark_dirty(ProcessSet ps) {
  for (ProcessId p : ps) dirty_[static_cast<size_t>(p)] = 1;
}

void MuMulticast::mark_all_dirty() {
  std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{1});
}

void MuMulticast::clock_crossed() {
  bool crossed = false;
  while (next_transition_ < fd_transitions_.size() &&
         fd_transitions_[next_transition_] <= now_) {
    ++next_transition_;
    crossed = true;
  }
  if (crossed) mark_all_dirty();
}

void MuMulticast::set_time(sim::Time t) {
  if (t == now_) return;
  bool backward = t < now_;
  now_ = t;
  if (backward) {
    // Re-derive the transition cursor; the version keying of the wait-set
    // memos stays exact (equal cursor == same inter-transition interval).
    next_transition_ = static_cast<size_t>(
        std::upper_bound(fd_transitions_.begin(), fd_transitions_.end(),
                         now_) -
        fd_transitions_.begin());
    mark_all_dirty();
  } else {
    clock_crossed();
  }
}

void MuMulticast::advance_time(sim::Time dt) { set_time(now_ + dt); }

// ---- preconditions -----------------------------------------------------------

bool MuMulticast::sigma_allows(ProcessId p, groups::GroupId g) const {
  if (!options_.sigma_gated) return true;
  GAM_METRICS_PROBE(if (probe_.fd_sigma) probe_.fd_sigma->add());
  auto q = oracle_.sigma(g, g).query(p, now_);
  return q && q->subset_of(options_.fair_set);
}

bool MuMulticast::may_multicast(ProcessId p, const MulticastMessage& m) const {
  if (m.src == p) return true;
  // Proposition 1's helping: a destination member may multicast on behalf of
  // a submitter that crashed before issuing the message.
  return options_.helping && system_.group(m.dst).contains(p) &&
         pattern_.crashed(m.src, now_);
}

bool MuMulticast::multicast_eligible(ProcessId by,
                                     const MulticastMessage& m) const {
  return multicast_eligible_batched(by, m, {});
}

bool MuMulticast::multicast_eligible_batched(
    ProcessId by, const MulticastMessage& m,
    const std::vector<MsgId>& batched) const {
  // Group-sequential issuance (§4.1), relaxed to a bounded in-flight window:
  // whoever multicasts the k-th message to g (its sender, or a Prop-1
  // helper) must have delivered every predecessor at submission distance
  // >= window_size; closer predecessors only need to have entered LOG_g,
  // which keeps appends in submission order while phases overlap
  // (Derecho-style pipelining). window_size = 1 is the strict §4.1 rule.
  // Entries already gathered into the current append batch count as entered.
  // Without helping, a predecessor whose sender crashed before multicasting
  // it is skipped — it will never enter the protocol; with helping it will,
  // so the issuer must wait for it.
  const auto& seq = group_sequence_[static_cast<size_t>(m.dst)];
  size_t j = 0;
  while (j < seq.size() && seq[j] != m.id) ++j;
  for (size_t i = 0; i < j; ++i) {
    MsgId prev = seq[i];
    std::int32_t pi = index_of(prev);
    bool entered = log_of(m.dst, m.dst).contains(LogEntry::message(prev)) ||
                   std::find(batched.begin(), batched.end(), prev) !=
                       batched.end();
    if (entered) {
      bool within = j - i < static_cast<size_t>(options_.window_size);
      if (!within && phase_at(by, pi) != Phase::kDeliver) return false;
    } else if (options_.helping) {
      return false;  // a helper will issue prev; wait for it
    } else {
      const MulticastMessage& pm = workload_[static_cast<size_t>(pi)];
      if (!pattern_.crashed(pm.src, now_)) return false;  // may still send
    }
  }
  return true;
}

bool MuMulticast::pending_enabled(ProcessId p, const MulticastMessage& m) const {
  const objects::Log& lg = log_of(m.dst, m.dst);
  if (!lg.contains(LogEntry::message(m.id))) return false;
  bool ok = true;
  lg.for_each_before(LogEntry::message(m.id), [&](const LogEntry& e) {
    if (e.kind == LogEntry::kMessage &&
        phase_at(p, index_of(e.m)) < Phase::kCommit) {
      ok = false;
      return false;
    }
    return true;
  });
  return ok;
}

bool MuMulticast::commit_enabled(ProcessId p, const MulticastMessage& m) const {
  const objects::Log& lg = log_of(m.dst, m.dst);
  for (GroupId h : gamma_groups(p, m.dst)) {
    if (!lg.any_entry([&](const LogEntry& e) {
          return e.kind == LogEntry::kPosTuple && e.m == m.id && e.h == h;
        }))
      return false;
  }
  return true;
}

bool MuMulticast::stabilize_enabled(ProcessId p, const MulticastMessage& m,
                                    GroupId h) const {
  const objects::Log& lgh = log_of(m.dst, h);
  if (log_of(m.dst, m.dst).contains(LogEntry::stab_tuple(m.id, h)))
    return false;  // effect already applied (append is idempotent)
  bool ok = true;
  lgh.for_each_before(LogEntry::message(m.id), [&](const LogEntry& e) {
    if (e.kind == LogEntry::kMessage &&
        phase_at(p, index_of(e.m)) < Phase::kStable) {
      ok = false;
      return false;
    }
    return true;
  });
  return ok;
}

const std::vector<GroupId>& MuMulticast::gamma_groups(ProcessId p,
                                                      GroupId g) const {
  auto& memo = procs_[static_cast<size_t>(p)].gamma_memo[group_slot(p, g)];
  if (memo.version != fd_version()) {
    GAM_METRICS_PROBE(if (probe_.fd_gamma) probe_.fd_gamma->add());
    memo.groups = oracle_.gamma().gamma_of_group(p, g, now_);
    memo.version = fd_version();
  }
  return memo.groups;
}

const std::vector<GroupId>& MuMulticast::stable_wait_groups(ProcessId p,
                                                            GroupId g) const {
  if (!options_.strict) return gamma_groups(p, g);
  // Strict variant (§6.1): wait on every intersecting group unless its
  // intersection with g is flagged dead by 1^{g∩h}.
  auto& memo = procs_[static_cast<size_t>(p)].strict_memo[group_slot(p, g)];
  if (memo.version != fd_version()) {
    memo.groups.clear();
    const groups::GroupPairIndex& pairs = system_.pair_index();
    for (GroupId h : pairs.neighbors(g)) {
      GAM_METRICS_PROBE(if (probe_.fd_indicator) probe_.fd_indicator->add());
      auto flag =
          indicators_[static_cast<size_t>(pairs.flat(g, h))].query(p, now_);
      if (!(flag && *flag)) memo.groups.push_back(h);
    }
    memo.version = fd_version();
  }
  return memo.groups;
}

bool MuMulticast::stable_enabled(ProcessId p, const MulticastMessage& m) const {
  const objects::Log& lg = log_of(m.dst, m.dst);
  for (GroupId h : stable_wait_groups(p, m.dst))
    if (!lg.contains(LogEntry::stab_tuple(m.id, h))) return false;
  return true;
}

bool MuMulticast::deliver_enabled(ProcessId p, const MulticastMessage& m) const {
  for (GroupId h : system_.groups_of(p)) {
    if (!system_.intersection(m.dst, h).contains(p)) continue;
    const objects::Log& l = log_of(m.dst, h);
    if (!l.contains(LogEntry::message(m.id))) continue;
    bool ok = true;
    l.for_each_before(LogEntry::message(m.id), [&](const LogEntry& e) {
      if (e.kind == LogEntry::kMessage &&
          phase_at(p, index_of(e.m)) != Phase::kDeliver) {
#ifdef GAM_PLANTED_BUG
        // Deliberately weakened guard (adversary-hunt target, see CMake
        // option GAM_PLANTED_BUG): treat an undelivered predecessor whose
        // submitter has crashed as abandoned and skip it. Wrong — the logs
        // are shared objects, so other destination members still deliver the
        // predecessor, and a schedule that parks this process between the
        // predecessor's commit and the successor's stable makes the delivery
        // orders cross (acyclicity violation).
        const MulticastMessage& pred =
            workload_[static_cast<size_t>(index_of(e.m))];
        if (pattern_.crashed(pred.src, now_)) return true;
#endif
        ok = false;
        return false;
      }
      return true;
    });
    if (!ok) return false;
  }
  return true;
}

// ---- guard evaluation --------------------------------------------------------

// The first enabled action of p in the fixed priority order. This is the
// single source of selection semantics for both engines: kScan calls it at
// every scheduling attempt, kIncremental only when p is dirty. Within each
// action the iteration order matches the original scan loops exactly —
// ascending message id for the phase-driven actions (the std::map order the
// scan engine historically used), <_L order inside the pending log walk, and
// submission order for multicast — so the two engines pick identical actions.
MuMulticast::ActionChoice MuMulticast::resolve(ProcessId p) const {
  const PerProcess& st = procs_[static_cast<size_t>(p)];

  // deliver (lines 34-37)
  for (std::int32_t mi : st.by_id) {
    if (st.phase[static_cast<size_t>(mi)] != Phase::kStable) continue;
    const MulticastMessage& m = workload_[static_cast<size_t>(mi)];
    if (!deliver_enabled(p, m)) continue;
    if (!sigma_allows(p, m.dst)) continue;
    return {ActionChoice::kDeliver, mi, -1};
  }

  // stable (lines 30-33)
  for (std::int32_t mi : st.by_id) {
    if (st.phase[static_cast<size_t>(mi)] != Phase::kCommit) continue;
    const MulticastMessage& m = workload_[static_cast<size_t>(mi)];
    if (!stable_enabled(p, m)) continue;
    if (!sigma_allows(p, m.dst)) continue;
    return {ActionChoice::kStable, mi, -1};
  }

  // stabilize (lines 25-29)
  for (std::int32_t mi : st.by_id) {
    if (st.phase[static_cast<size_t>(mi)] != Phase::kCommit) continue;
    const MulticastMessage& m = workload_[static_cast<size_t>(mi)];
    if (!sigma_allows(p, m.dst)) continue;
    for (GroupId h : system_.groups_of(p))
      if (stabilize_enabled(p, m, h)) return {ActionChoice::kStabilize, mi, h};
  }

  // commit (lines 16-24)
  for (std::int32_t mi : st.by_id) {
    if (st.phase[static_cast<size_t>(mi)] != Phase::kPending) continue;
    const MulticastMessage& m = workload_[static_cast<size_t>(mi)];
    if (!commit_enabled(p, m) || !sigma_allows(p, m.dst)) continue;
    return {ActionChoice::kCommit, mi, -1};
  }

  // pending (lines 8-15)
  for (GroupId g : system_.groups_of(p)) {
    const objects::Log& lg = log_of(g, g);
    ActionChoice out{};
    lg.for_each_sorted([&](const LogEntry& e) {
      if (e.kind != LogEntry::kMessage) return true;
      std::int32_t mi = index_of(e.m);
      if (st.phase[static_cast<size_t>(mi)] != Phase::kStart) return true;
      const MulticastMessage& m = workload_[static_cast<size_t>(mi)];
      if (!pending_enabled(p, m) || !sigma_allows(p, m.dst)) return true;
      out = {ActionChoice::kPending, mi, -1};
      return false;
    });
    if (out.kind != ActionChoice::kNone) return out;
  }

  // multicast (lines 5-7)
  for (std::int32_t mi : st.by_submission) {
    const MulticastMessage& m = workload_[static_cast<size_t>(mi)];
    if (!may_multicast(p, m)) continue;
    if (st.phase[static_cast<size_t>(mi)] != Phase::kStart) continue;
    if (log_of(m.dst, m.dst).contains(LogEntry::message(m.id))) continue;
    if (!multicast_eligible(p, m) || !sigma_allows(p, m.dst)) continue;
    return {ActionChoice::kMulticast, mi, -1};
  }

  return {};
}

// ---- effects -----------------------------------------------------------------

void MuMulticast::execute(ProcessId p, const ActionChoice& c) {
  PerProcess& st = procs_[static_cast<size_t>(p)];
  const MulticastMessage& m = workload_[static_cast<size_t>(c.mi)];
  MsgId mid = m.id;
  // Processes whose cached selection a log mutation may flip: every guard of
  // q reading LOG_{a∩b} has a,b ∈ G(q), so the members of a's and b's groups
  // over-approximate the readers.
  ProcessSet dirty;
  auto touched = [&](GroupId a, GroupId b) {
    dirty |= system_.group(a) | system_.group(b);
  };

  switch (c.kind) {
    case ActionChoice::kMulticast: {
      // Batched append: extend the chosen message with up to batch_k - 1
      // further eligible same-group submissions (in submission order; resolve
      // picks the earliest eligible one, so candidates can only follow m) and
      // write them to LOG_g in a single append_batch — one log mutation, one
      // epoch bump. Each member still gets its own record / trace / event /
      // probe bookkeeping, so downstream consumers see per-message events.
      std::vector<std::int32_t> batch_mi{c.mi};
      if (options_.batch_k > 1) {
        std::vector<MsgId> batch_ids{mid};
        const auto& seq = group_sequence_[static_cast<size_t>(m.dst)];
        const objects::Log& lg = log_of(m.dst, m.dst);
        size_t j = 0;
        while (j < seq.size() && seq[j] != mid) ++j;
        for (size_t i = j + 1;
             i < seq.size() &&
             batch_mi.size() < static_cast<size_t>(options_.batch_k);
             ++i) {
          std::int32_t ci = index_of(seq[i]);
          const MulticastMessage& cand = workload_[static_cast<size_t>(ci)];
          if (st.phase[static_cast<size_t>(ci)] != Phase::kStart) continue;
          if (lg.contains(LogEntry::message(cand.id))) continue;
          if (!may_multicast(p, cand)) continue;
          if (!multicast_eligible_batched(p, cand, batch_ids) ||
              !sigma_allows(p, cand.dst))
            continue;
          batch_ids.push_back(cand.id);
          batch_mi.push_back(ci);
        }
      }
      std::vector<LogEntry> entries;
      entries.reserve(batch_mi.size());
      for (std::int32_t bi : batch_mi)
        entries.push_back(
            LogEntry::message(workload_[static_cast<size_t>(bi)].id));
      log(m.dst, m.dst).append_batch(entries.data(), entries.size(), p,
                                     &journal_);
      touched(m.dst, m.dst);
      for (size_t b = 0; b < batch_mi.size(); ++b) {
        const MulticastMessage& bm = workload_[static_cast<size_t>(batch_mi[b])];
        record_.multicast.push_back(bm);
        record_.multicast_time.push_back(now_);
        if (trace_)
          trace_->record({now_, p, TraceEvent::kMulticast, bm.id, -1, -1});
        if (event_sink_) {
          sim::TraceEvent e;
          e.t = now_;
          e.p = p;
          e.kind = sim::TraceEventKind::kMulticast;
          e.protocol = static_cast<std::int32_t>(bm.dst);
          e.peer = bm.src;
          e.arg = bm.id;
          e.payload_hash = sim::trace_mix(
              sim::kTraceHashSeed, static_cast<std::uint64_t>(bm.payload));
          event_sink_->on_event(e);
        }
        GAM_METRICS_PROBE(if (probe_.reg && b > 0) probe_execute(
            p, {ActionChoice::kMulticast, batch_mi[b], -1}, bm));
        // Span milestone: the multicast action is the instant m enters
        // LOG_{g,g} — the "enter" anchor deliver_latency measures from.
        GAM_METRICS_PROBE(if (span_sink_) span_sink_->on_span(
            {static_cast<std::uint64_t>(now_), p, sim::SpanKind::kLogEnter,
             bm.id, bm.dst, bm.dst}));
      }
      // Window depth at issue: entered-but-undelivered (at the issuer)
      // messages of this group. Bounded by window_size — the issuance guard
      // requires delivery of everything at distance >= window_size, and the
      // entered set is prefix-closed in submission order.
      GAM_METRICS_PROBE(if (probe_.reg) {
        std::int64_t depth = 0;
        for (MsgId id : group_sequence_[static_cast<size_t>(m.dst)]) {
          std::int32_t qi = index_of(id);
          if (log_of(m.dst, m.dst).contains(LogEntry::message(id)) &&
              phase_at(p, qi) != Phase::kDeliver)
            ++depth;
        }
        probe_.reg->gauge("window_depth", group_label(m.dst)).set(depth);
      });
      break;
    }
    case ActionChoice::kPending: {
      for (GroupId h : system_.groups_of(p)) {
        std::int64_t i =
            log(m.dst, h).append(LogEntry::message(mid), p, &journal_);
        log(m.dst, m.dst).append(LogEntry::pos_tuple(mid, h, i), p, &journal_);
        touched(m.dst, h);
        touched(m.dst, m.dst);
        GAM_METRICS_PROBE(if (span_sink_) span_sink_->on_span(
            {static_cast<std::uint64_t>(now_), p, sim::SpanKind::kLogEnter,
             mid, m.dst, h}));
      }
      st.phase[static_cast<size_t>(c.mi)] = Phase::kPending;
      if (trace_) trace_->record({now_, p, TraceEvent::kPending, mid, -1, -1});
      break;
    }
    case ActionChoice::kCommit: {
      const objects::Log& lg = log_of(m.dst, m.dst);
      std::int64_t k = 0;
      for (const LogEntry& e : lg.entries_if([&](const LogEntry& e) {
             return e.kind == LogEntry::kPosTuple && e.m == mid;
           }))
        k = std::max(k, e.i);
      ConsKey key{mid, st.cons_family[group_slot(p, m.dst)]};
      GAM_METRICS_PROBE(if (probe_.consensus) probe_.consensus->add());
      k = consensus_[key].propose(k, p, &journal_, mid);
      GAM_METRICS_PROBE(if (span_sink_) {
        span_sink_->on_span({static_cast<std::uint64_t>(now_), p,
                             sim::SpanKind::kPaxosRound, mid, k, 0});
        span_sink_->on_span({static_cast<std::uint64_t>(now_), p,
                             sim::SpanKind::kLocked, mid, k, 0});
      });
      for (GroupId h : system_.groups_of(p)) {
        log(m.dst, h).bump_and_lock(LogEntry::message(mid), k, p, &journal_);
        touched(m.dst, h);
      }
      st.phase[static_cast<size_t>(c.mi)] = Phase::kCommit;
      if (trace_) trace_->record({now_, p, TraceEvent::kCommit, mid, -1, k});
      break;
    }
    case ActionChoice::kStabilize: {
      log(m.dst, m.dst).append(LogEntry::stab_tuple(mid, c.h), p, &journal_);
      touched(m.dst, m.dst);
      if (trace_)
        trace_->record({now_, p, TraceEvent::kStabilize, mid, c.h, -1});
      break;
    }
    case ActionChoice::kStable: {
      st.phase[static_cast<size_t>(c.mi)] = Phase::kStable;
      if (trace_) trace_->record({now_, p, TraceEvent::kStable, mid, -1, -1});
      GAM_METRICS_PROBE(if (span_sink_) span_sink_->on_span(
          {static_cast<std::uint64_t>(now_), p, sim::SpanKind::kDeliverable,
           mid, m.dst, 0}));
      break;
    }
    case ActionChoice::kDeliver: {
      st.phase[static_cast<size_t>(c.mi)] = Phase::kDeliver;
      record_.deliveries.push_back({p, mid, now_, st.delivered_seq++});
      if (trace_) trace_->record({now_, p, TraceEvent::kDeliver, mid, -1, -1});
      if (event_sink_) {
        sim::TraceEvent e;
        e.t = now_;
        e.p = p;
        e.kind = sim::TraceEventKind::kDeliver;
        e.protocol = static_cast<std::int32_t>(m.dst);
        e.type = static_cast<std::int32_t>(st.delivered_seq - 1);
        e.arg = mid;
        e.payload_hash = sim::trace_mix(
            sim::kTraceHashSeed, static_cast<std::uint64_t>(m.payload));
        event_sink_->on_event(e);
      }
      GAM_METRICS_PROBE(if (span_sink_) span_sink_->on_span(
          {static_cast<std::uint64_t>(now_), p, sim::SpanKind::kDelivered, mid,
           m.dst, st.delivered_seq - 1}));
      break;
    }
    case ActionChoice::kNone:
      break;
  }

  GAM_METRICS_PROBE(if (probe_.reg) probe_execute(p, c, m));

  dirty.insert(p);  // own phase (and one-shot state) changed
  mark_dirty(dirty);
}

// ---- scheduling --------------------------------------------------------------

bool MuMulticast::step_process(ProcessId p) {
  if (pattern_.crashed(p, now_)) return false;
  if (!options_.fair_set.empty() && !options_.fair_set.contains(p))
    return false;
  // Macro-step (batched rounds): one scheduled step drains up to batch_k
  // consecutive enabled actions of p, re-resolving after each effect, with
  // the clock frozen within the step. Schedule-equivalent to batch_k
  // consecutive unbatched steps of p, so safety carries over unchanged;
  // batch_k = 1 reproduces today's behavior exactly.
  int drained = 0;
  for (int b = 0; b < options_.batch_k; ++b) {
    ActionChoice c;
    if (options_.engine == Engine::kScan) {
      c = resolve(p);
    } else {
      auto i = static_cast<size_t>(p);
      if (dirty_[i]) {
        cached_[i] = resolve(p);
        dirty_[i] = 0;
      }
      c = cached_[i];
    }
    if (c.kind == ActionChoice::kNone) break;
    execute(p, c);
    ++drained;
  }
  if (drained == 0) return false;
  if (!options_.external_clock) {
    ++now_;
    clock_crossed();
  }
  ++record_.steps;
  record_.active.insert(p);
  GAM_METRICS_PROBE(if (probe_.reg) {
    ++probe_.steps[static_cast<size_t>(p)];
    if (probe_.batch_occ)
      probe_.batch_occ->record(static_cast<std::uint64_t>(drained));
  });
  return true;
}

bool MuMulticast::action_enabled_somewhere() const {
  for (ProcessId p = 0; p < system_.process_count(); ++p) {
    if (pattern_.crashed(p, now_)) continue;
    if (!options_.fair_set.empty() && !options_.fair_set.contains(p)) continue;
    if (options_.engine == Engine::kIncremental) {
      auto i = static_cast<size_t>(p);
      if (dirty_[i]) {
        cached_[i] = resolve(p);
        dirty_[i] = 0;
      }
      if (cached_[i].kind != ActionChoice::kNone) return true;
    } else if (resolve(p).kind != ActionChoice::kNone) {
      return true;
    }
  }
  return false;
}

bool MuMulticast::quiescent() const { return !action_enabled_somewhere(); }

sim::Time MuMulticast::idle_until() const {
  sim::Time t_stab = 0;
  for (ProcessId p = 0; p < pattern_.process_count(); ++p)
    if (pattern_.faulty(p))
      t_stab = std::max(t_stab,
                        pattern_.crash_time(p) + options_.fd_lag + 1);
  return t_stab;
}

void MuMulticast::tick() {
  ++now_;
  clock_crossed();
}

void MuMulticast::finish_run() {
  if (!record_.quiescent && !action_enabled_somewhere())
    record_.quiescent = true;
  record_.active |= journal_.active();
  GAM_METRICS_PROBE(if (probe_.reg) flush_metrics());
}

RunRecord MuMulticast::snapshot() const {
  RunRecord r = record_;
  r.active |= journal_.active();
  r.quiescent = !action_enabled_somewhere();
  return r;
}

}  // namespace gam::amcast
