#include "objects/universal_log.hpp"

#include <algorithm>

#include "objects/consensus_mp.hpp"

namespace gam::objects {

namespace {
constexpr int kStallLimit = 8;
}

void UniversalLog::submit(std::int64_t op,
                          std::function<void(std::int64_t)> applied) {
  pending_.push_back({op, std::move(applied)});
  GAM_METRICS_PROBE(if (span_sink_) span_sink_->on_span(
      {0, self_, sim::SpanKind::kSubmit, op, 0, 0}));
}

bool UniversalLog::is_pending(std::int64_t op) const {
  for (const Pending& p : pending_)
    if (p.op == op) return true;
  return false;
}

void UniversalLog::learn(std::int64_t inst, std::vector<std::int64_t> values) {
  InstanceState& decided = instance(inst);
  GAM_EXPECTS(!decided.decided);  // callers drop decisions of decided instances
  decided.decided = true;
  decided.batch = std::move(values);
  while (!instances_.empty() && instances_.front().decided) {
    std::vector<std::int64_t> batch = std::move(instances_.front().batch);
    instances_.pop_front();
    ++applied_insts_;
    for (std::int64_t op : batch) {
      if (!ordered_ops_.insert(op)) {
        // Decided twice (a competing leader's window instance, or an op
        // submitted twice to the leader): it keeps its first position, and a
        // pending twin is dropped, or the leader would drive it forever.
        auto twin = std::find_if(pending_.begin(), pending_.end(),
                                 [op](const Pending& p) { return p.op == op; });
        if (twin != pending_.end()) pending_.erase(twin);
        continue;
      }
      std::int64_t pos = learned_count_++;
      GAM_METRICS_PROBE(if (span_sink_) span_sink_->on_span(
          {0, self_, sim::SpanKind::kDelivered, op, pos, 0}));
      if (on_learn_) on_learn_(op, pos);
      // Resolve own pending submissions that just got ordered.
      for (auto p = pending_.begin(); p != pending_.end(); ++p) {
        if (p->op != op) continue;
        auto cb = std::move(p->applied);
        pending_.erase(p);
        if (cb) cb(pos);
        break;
      }
    }
  }
}

void UniversalLog::release(std::int64_t inst) {
  for (Pending& p : pending_)
    if (p.claim == inst) p.claim = -1;
}

bool UniversalLog::drive(sim::Context& ctx, std::int64_t inst) {
  // Claim the oldest pending ops that no live instance holds: a claim by an
  // applied instance is stale (its batch was decided without the op), and
  // `inst`'s own claims were released before a re-drive. Re-submits of an op
  // already decided in a *learned* instance cannot happen: we only drive ops
  // still pending, and learn() removes them the moment they appear. Ops
  // decided concurrently by a competing leader are deduplicated at learn().
  std::vector<std::int64_t> ops;
  ops.reserve(std::min(pending_.size(), static_cast<std::size_t>(batch_)));
  for (Pending& p : pending_) {
    if (p.claim >= first_unlearned()) continue;
    p.claim = inst;
    ops.push_back(p.op);
    if (ops.size() == static_cast<std::size_t>(batch_)) break;
  }
  if (ops.empty()) return false;
  ProposerState& ps = instance(inst).proposer;
  ps.engaged = true;
  ++ps.round;
  ps.ballot = IdPacker::for_set(scope_).pack(ps.round, self_);
  ps.accept_phase = false;
  ps.promisers = {};
  ps.accepters = {};
  ps.best_accepted_ballot = -1;
  ps.values = std::move(ops);
  ps.stall = 0;
  GAM_METRICS_PROBE(if (span_sink_) for (std::int64_t op : ps.values)
                        span_sink_->on_span({0, self_,
                                             sim::SpanKind::kPaxosRound, op,
                                             inst, ps.ballot}));
  ctx.send_to_set(scope_, protocol_id_, kPrepare, {inst, ps.ballot});
  return true;
}

bool UniversalLog::on_idle(sim::Context& ctx) {
  if (pending_.empty()) return false;
  auto leader = omega_->query(self_, ctx.now());
  ctx.trace_fd_query(protocol_id_, sim::DetectorClass::kOmega);
  if (!leader) return false;
  if (*leader != self_) {
    // Non-leaders periodically hand their oldest pending op to the leader so
    // the log progresses even when the stable leader has nothing to submit.
    if (++forward_stall_ > kStallLimit) {
      forward_stall_ = 0;
      // A twin of a learned op (submitted twice here) is never decided again:
      // the leader drops forwards of ordered ops. Drop it instead.
      while (!pending_.empty() && ordered_ops_.contains(pending_.front().op))
        pending_.pop_front();
      if (pending_.empty()) return false;
      ctx.send(*leader, protocol_id_, kForward, {pending_.front().op});
      return true;
    }
    return false;
  }
  // Leader: keep up to window_ consecutive instances in flight, each driving
  // a disjoint ordered batch of pending ops (the pipelining half of PR 6;
  // window_ = 1 is the legacy one-instance-at-a-time loop).
  bool acted = false;
  std::int64_t base = first_unlearned();
  for (std::int64_t inst = base; inst < base + window_; ++inst) {
    if (has_decided(inst)) continue;
    ProposerState* ps = proposer_at(inst);
    if (ps && ++ps->stall <= kStallLimit) continue;
    if (ps) release(inst);
    if (!drive(ctx, inst)) break;  // every pending op is already in flight
    acted = true;
  }
  return acted;
}

void UniversalLog::on_message(sim::Context& ctx, const sim::Message& m) {
  std::int64_t inst = m.data[0];
  GAM_EXPECTS(sim::MsgType{m.type} == kForward || inst >= 0);
  switch (sim::MsgType{m.type}) {
    case kPrepare: {
      auto& ac = acceptor(inst);
      std::int64_t b = m.data[1];
      if (b > ac.promised) ac.promised = b;
      if (b >= ac.promised)
        ctx.send(m.src, protocol_id_, kPromise,
                 OrderedBatch::encode({inst, b, ac.accepted_ballot},
                                      ac.accepted_values));
      break;
    }
    case kPromise: {
      ProposerState* psp = proposer_at(inst);
      if (!psp) break;
      ProposerState& ps = *psp;
      if (m.data[1] != ps.ballot || ps.accept_phase || has_decided(inst))
        break;
      ps.promisers.insert(m.src);
      if (m.data[2] > ps.best_accepted_ballot) {
        ps.best_accepted_ballot = m.data[2];
        ps.values = OrderedBatch::decode(m.data, 3);
      }
      auto q = sigma_->query(self_, ctx.now());
      ctx.trace_fd_query(protocol_id_, sim::DetectorClass::kSigma);
      if (q && q->subset_of(ps.promisers)) {
        ps.accept_phase = true;
        ps.stall = 0;
        ctx.send_to_set(scope_, protocol_id_, kAccept,
                        OrderedBatch::encode({inst, ps.ballot}, ps.values));
      }
      break;
    }
    case kAccept: {
      auto& ac = acceptor(inst);
      std::int64_t b = m.data[1];
      if (b >= ac.promised) {
        ac.promised = b;
        ac.accepted_ballot = b;
        ac.accepted_values = OrderedBatch::decode(m.data, 2);
        ctx.send(m.src, protocol_id_, kAccepted, {inst, b});
      }
      break;
    }
    case kAccepted: {
      ProposerState* psp = proposer_at(inst);
      if (!psp) break;
      ProposerState& ps = *psp;
      if (m.data[1] != ps.ballot || !ps.accept_phase || has_decided(inst))
        break;
      ps.accepters.insert(m.src);
      auto q = sigma_->query(self_, ctx.now());
      ctx.trace_fd_query(protocol_id_, sim::DetectorClass::kSigma);
      if (q && q->subset_of(ps.accepters)) {
        ctx.send_to_set(scope_, protocol_id_, kDecide,
                        OrderedBatch::encode({inst}, ps.values));
        learn(inst, std::move(ps.values));
      }
      break;
    }
    case kDecide: {
      if (!has_decided(inst)) learn(inst, OrderedBatch::decode(m.data, 1));
      break;
    }
    case kForward: {
      // Every op this replica knows is either ordered or still pending.
      std::int64_t op = m.data[0];
      if (!ordered_ops_.contains(op) && !is_pending(op))
        pending_.push_back({op, nullptr});
      break;
    }
    default:
      break;
  }
}

}  // namespace gam::objects
