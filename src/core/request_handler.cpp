#include "core/request_handler.hpp"

#include <map>

#include "common/hash.hpp"

namespace dataflasks::core {

RequestHandler::RequestHandler(NodeId self, net::Transport& transport,
                               pss::PeerSampling& pss, SliceManager& slices,
                               store::Store& store, Rng rng, ClockFn clock,
                               RequestHandlerOptions options,
                               MetricsRegistry& metrics)
    : self_(self),
      transport_(transport),
      slices_(slices),
      store_(store),
      rng_(rng),
      clock_(std::move(clock)),
      options_(options),
      metrics_(metrics) {
  ensure(clock_ != nullptr, "RequestHandler: clock required");
  wall_ = clock_;
  dissemination::SprayOptions spray = options_.spray;
  spray.max_hops = dissemination::adaptive_ttl(
      spray.global_fanout, slices_.config().slice_count, options_.ttl_beta);

  router_ = std::make_unique<dissemination::SprayRouter>(
      self, transport, pss, rng_.fork(0x0f0e),
      spray,
      /*current_slice=*/[this]() { return slices_.slice(); },
      /*slice_peers=*/
      [this](std::size_t count) { return slices_.slice_peers(count); },
      /*deliver=*/
      [this](const Payload& payload, SliceId target, NodeId origin) {
        return deliver(payload, target, origin);
      },
      /*directory=*/
      [this](SliceId slice) { return slices_.directory_lookup(slice); });
}

void RequestHandler::on_config_changed(const slicing::SliceConfig& config) {
  dissemination::SprayOptions spray = router_->options();
  spray.max_hops = dissemination::adaptive_ttl(
      spray.global_fanout, config.slice_count, options_.ttl_beta);
  router_->set_options(spray);
}

bool RequestHandler::handle(const net::Message& msg) {
  if (router_->handle(msg)) return true;

  switch (msg.type) {
    case kOpEnvelope: {
      const auto envelope = decode_op_envelope(msg.payload);
      if (!envelope) return true;  // malformed: drop
      metrics_.counter("rh.envelopes").add();
      if (envelope->protocol != options_.serve_protocol) {
        // Speak-one-version server: answer with an explicit mismatch naming
        // what we serve, so the client renegotiates instead of timing out.
        metrics_.counter("rh.version_mismatches").add();
        if (!envelope->ops.empty()) {
          const RequestId rid = envelope->ops.front().rid;
          transport_.send(net::Message{
              self_, NodeId(rid.client), kVersionMismatch,
              encode(VersionMismatch{rid, envelope->protocol,
                                     options_.serve_protocol})});
        }
        return true;
      }
      handle_envelope(*envelope);
      return true;
    }
    case kReplicatePush: {
      const auto push = decode_replicate_push(msg.payload);
      if (!push) return true;
      for (const store::Object& object : push->objects) {
        store_replicated(object);
      }
      return true;
    }
    default:
      return false;
  }
}

void RequestHandler::handle_envelope(const OpEnvelope& envelope) {
  // Stats is an admin op about *this* node: answered right here at the
  // contact, never sprayed into a slice. Everything else regroups by
  // target slice below.
  std::vector<OpReply> stats_replies;
  // Regroup by target slice: every op bound for the same slice travels as
  // one spray unit (ordered map keeps spray emission deterministic). A
  // group over the per-datagram budget is split — the UDP transport drops
  // oversized frames, so the split must happen here.
  std::map<SliceId, OpsRequest> by_slice;
  std::size_t client_ops = 0;
  const RoutedOp* first_client_op = nullptr;
  for (const RoutedOp& routed : envelope.ops) {
    if (routed.op.type == OpType::kStats) {
      const SimTime started = clock_();
      metrics_.counter("rh.stats_served").add();
      if (admission_ != nullptr) admission_->admit(WorkClass::kAdmin);
      const std::string text = stats_fn_ ? stats_fn_() : std::string{};
      stats_replies.push_back(
          OpReply{routed.rid, OpType::kStats, OpStatus::kOk,
                  store::Object{
                      Key{}, 0,
                      Payload(ByteView(
                          reinterpret_cast<const std::uint8_t*>(text.data()),
                          text.size()))}});
      note_op(OpType::kStats, started);
      continue;
    }
    ++client_ops;
    if (first_client_op == nullptr) first_client_op = &routed;
    by_slice[slices_.key_slice(routed.op.key)].ops.push_back(routed);
  }
  if (!stats_replies.empty()) {
    const NodeId client(stats_replies.front().rid.client);
    const SliceId slice = slices_.slice();
    const std::uint32_t slice_count = slices_.config().slice_count;
    chunk_by_budget(
        stats_replies,
        [](const OpReply& reply) { return encoded_size(reply); },
        [&](std::vector<OpReply>& chunk) {
          transport_.send(net::Message{
              self_, client, kOpReplyBatch,
              encode(OpReplyBatch{self_, slice, slice_count,
                                  std::move(chunk)})});
        });
  }
  // Admission gate for the envelope's client work. Stats (above) were
  // served regardless: a saturated node must stay observable.
  if (first_client_op != nullptr &&
      shed_client_ops(*first_client_op, client_ops, "rh.envelopes_shed")) {
    return;
  }
  for (auto& [slice, group] : by_slice) {
    metrics_.counter("rh.client_ops").add(group.ops.size());
    chunk_by_budget(
        group.ops, [](const RoutedOp& routed) { return encoded_size(routed); },
        [this, slice = slice](std::vector<RoutedOp>& chunk) {
          spray_or_deliver(slice, encode_inner(OpsRequest{std::move(chunk)}));
        });
  }
}

void RequestHandler::spray_ops(SliceId target, std::vector<RoutedOp> ops) {
  if (ops.empty()) return;
  metrics_.counter("rh.shard_forwarded_ops").add(ops.size());
  chunk_by_budget(
      ops, [](const RoutedOp& routed) { return encoded_size(routed); },
      [this, target](std::vector<RoutedOp>& chunk) {
        spray_or_deliver(target, encode_inner(OpsRequest{std::move(chunk)}));
      });
}

void RequestHandler::store_replicated(store::Object object) {
  if (object.expired(wall_())) {
    // A copy that expired in flight: storing it would only schedule more
    // reap work and risk serving a dead value before the wheel fires.
    metrics_.counter("rh.pushes_expired").add();
    return;
  }
  if (slices_.key_slice(object.key) == slices_.slice()) {
    if (store_.put(object).ok()) {
      metrics_.counter("rh.pushes_stored").add();
    }
  } else if (options_.hinted_handoff) {
    // Misrouted copy (stale view or slice change mid-flight): keep it
    // and re-home it to the right slice on the next maintenance tick.
    buffer_handoff(std::move(object));
  }
}

void RequestHandler::spray_or_deliver(SliceId target, Payload inner) {
  router_->originate(target, std::move(inner));
}

dissemination::DeliverResult RequestHandler::deliver(const Payload& payload,
                                                     SliceId target,
                                                     NodeId /*origin*/) {
  const auto kind = peek_inner_kind(payload);
  if (!kind) return dissemination::DeliverResult::kStop;

  switch (*kind) {
    case InnerKind::kOps: {
      const auto ops = decode_ops(payload);
      if (!ops) return dissemination::DeliverResult::kStop;
      return handle_ops_delivery(*ops, target);
    }
    case InnerKind::kHandoff: {
      const auto handoff = decode_handoff(payload);
      if (!handoff) return dissemination::DeliverResult::kStop;
      if (slices_.key_slice(handoff->object.key) == slices_.slice() &&
          store_.put(handoff->object).ok()) {
        metrics_.counter("rh.handoffs_stored").add();
      }
      return dissemination::DeliverResult::kStop;
    }
  }
  return dissemination::DeliverResult::kStop;
}

void RequestHandler::note_op(OpType type, SimTime started) {
  if (hot_ == nullptr && admission_ == nullptr) return;
  const SimTime elapsed = clock_() - started;  // SimTime unit is µs
  if (admission_ != nullptr) {
    // Feeds the smoothed service-latency estimate behind the Little's-law
    // overload signal.
    admission_->note_service(elapsed > 0 ? elapsed : 0);
  }
  if (hot_ == nullptr) return;
  const std::size_t i = OpHotMetrics::index(type);
  if (obs::Counter* counter = hot_->ops[i]) counter->add();
  if (obs::LatencyHistogram* hist = hot_->exec_us[i]) {
    hist->record(elapsed > 0 ? static_cast<std::uint64_t>(elapsed) : 0);
  }
}

bool RequestHandler::shed_client_ops(const RoutedOp& first,
                                     std::size_t op_count,
                                     const char* shed_counter) {
  if (admission_ == nullptr) return false;
  const AdmissionController::Decision decision =
      admission_->admit(WorkClass::kClientOp, op_count);
  if (decision.admit) return false;
  metrics_.counter(shed_counter).add();
  // Explicit backpressure instead of a silent drop: the client finds the
  // owning request by rid (first op, like kVersionMismatch), backs off by
  // the hint and routes around this node.
  transport_.send(net::Message{
      self_, NodeId(first.rid.client), kOverloaded,
      encode(OverloadReply{first.rid, decision.retry_after_ms})});
  return true;
}

void RequestHandler::buffer_handoff(store::Object object) {
  if (handoff_.size() >= options_.handoff_capacity) {
    handoff_.pop_front();  // oldest hint gives way; anti-entropy backstops
    metrics_.counter("rh.handoffs_evicted").add();
  }
  handoff_.push_back(std::move(object));
}

void RequestHandler::tick_maintenance() {
  if (!options_.hinted_handoff) return;

  // Re-home buffered misrouted copies. A directory contact for the target
  // slice makes this one cheap unicast; discovery spray is the fallback.
  //
  // Deliberately NOT done here: scanning the store for "foreign" keys left
  // behind by slice changes. Replication = slice membership means a
  // misplaced node is never an object's sole holder, state transfer
  // completion already drops foreign keys safely, and at large k (slice
  // width below rank-estimate noise) such a scan turns boundary jitter
  // into discovery-spray storms.
  for (std::size_t i = 0;
       i < options_.handoff_per_tick && !handoff_.empty(); ++i) {
    store::Object obj = std::move(handoff_.front());
    handoff_.pop_front();
    const std::uint64_t fingerprint =
        hash_combine(stable_key_hash(obj.key), obj.version);
    if (resprayed_.seen_or_insert(fingerprint)) continue;  // already re-homed
    const SliceId target = slices_.key_slice(obj.key);

    if (const auto contact = slices_.directory_lookup(target);
        contact && *contact != self_) {
      const ReplicatePush push{{std::move(obj)}};
      transport_.send(
          net::Message{self_, *contact, kReplicatePush, encode(push)});
      metrics_.counter("rh.handoffs_forwarded").add();
    } else {
      metrics_.counter("rh.handoffs_sprayed").add();
      spray_or_deliver(target, encode_inner(HandoffRequest{std::move(obj)}));
    }
  }
}

dissemination::DeliverResult RequestHandler::handle_ops_delivery(
    const OpsRequest& ops, SliceId target) {
  if (ops.ops.empty()) return dissemination::DeliverResult::kStop;

  // Replica-side admission gate: a sprayed batch reaching an overloaded
  // member is refused with the same explicit kOverloaded frame (and stops
  // relaying — shedding includes the epidemic fan-out). A non-overloaded
  // member elsewhere in the slice may still serve the duplicate spray;
  // the client's rid dedup absorbs whichever answer lands first.
  if (shed_client_ops(ops.ops.front(), ops.ops.size(),
                      "rh.deliveries_shed")) {
    return dissemination::DeliverResult::kStop;
  }

  OpReplyBatch batch{self_, slices_.slice(), slices_.config().slice_count,
                     {}};
  ReplicatePush push;
  std::vector<RoutedOp> unserved_gets;
  bool has_writes = false;

  for (const RoutedOp& routed : ops.ops) {
    const Operation& op = routed.op;
    const SimTime started = clock_();
    has_writes = has_writes || op.type != OpType::kGet;
    switch (op.type) {
      case OpType::kPut: {
        store::Object object{op.key, op.version.value_or(0), op.value};
        if (op.ttl_ms != 0) {
          // The first storing replica stamps the absolute deadline (wall
          // clock: replicas compare it across processes); copies propagate
          // the stamp so the whole slice expires the object together.
          object.expires_at =
              wall_() + static_cast<SimTime>(op.ttl_ms) * kMillis;
        }
        const Status stored = store_.put(object);
        if (!stored.ok()) {
          if (stored.error().code == Error::Code::kSuperseded) {
            // The key's tombstone outranks this version: the store
            // discarded it. Tell the client honestly — a kOk ack here
            // would claim a write that never landed.
            metrics_.counter("rh.puts_superseded").add();
            batch.replies.push_back(OpReply{
                routed.rid, OpType::kPut, OpStatus::kSuperseded,
                store::Object{op.key, object.version, {}}});
            break;
          }
          // Version conflict: the upper layer broke its ordering contract.
          // Do not ack; the client will time out and surface the failure.
          metrics_.counter("rh.put_conflicts").add();
          break;
        }
        metrics_.counter("rh.puts_stored").add();
        batch.replies.push_back(OpReply{
            routed.rid, OpType::kPut, OpStatus::kOk,
            store::Object{op.key, object.version, {}}});
        push.objects.push_back(std::move(object));
        break;
      }
      case OpType::kDelete: {
        // First storing replica stamps the tombstone; copies propagate the
        // stamp so every replica GCs on (roughly) the same schedule.
        store::Object tomb = store::Object::make_tombstone(
            op.key, op.version.value_or(0), clock_());
        const Status stored = store_.put(tomb);
        if (!stored.ok()) {
          metrics_.counter("rh.delete_conflicts").add();
          break;
        }
        metrics_.counter("rh.deletes_stored").add();
        batch.replies.push_back(OpReply{
            routed.rid, OpType::kDelete, OpStatus::kOk,
            store::Object{op.key, tomb.version, {}}});
        push.objects.push_back(std::move(tomb));
        break;
      }
      case OpType::kGet: {
        auto found = store_.get(op.key, op.version);
        if (found.ok()) {
          store::Object object = std::move(found).value();
          if (object.expired(wall_())) {
            // Expired but not yet reaped: an authoritative miss, answered
            // like a delete so the value is never served past its deadline
            // (and never relayed onward for a slice-mate to resurrect).
            metrics_.counter("rh.gets_expired").add();
            batch.replies.push_back(OpReply{
                routed.rid, OpType::kGet, OpStatus::kDeleted,
                store::Object{op.key, object.version, {}}});
            break;
          }
          if (object.tombstone) {
            // Authoritative "deleted": completes the client's get instead
            // of letting it time out.
            metrics_.counter("rh.gets_deleted").add();
            batch.replies.push_back(OpReply{
                routed.rid, OpType::kGet, OpStatus::kDeleted,
                store::Object{op.key, object.version, {}}});
          } else {
            metrics_.counter("rh.gets_served").add();
            batch.replies.push_back(OpReply{routed.rid, OpType::kGet,
                                            OpStatus::kOk,
                                            std::move(object)});
          }
          break;
        }
        if (const Version tomb = store_.tombstone_version(op.key);
            tomb != 0 && (!op.version || *op.version <= tomb)) {
          // The requested version was dropped by a delete we hold: that is
          // an authoritative miss, not a replication gap.
          metrics_.counter("rh.gets_deleted").add();
          batch.replies.push_back(
              OpReply{routed.rid, OpType::kGet, OpStatus::kDeleted,
                      store::Object{op.key, tomb, {}}});
          break;
        }
        // In the key's slice but missing the object (still replicating, or
        // it never existed). Keep this get spreading inside the slice:
        // another member may hold it. The client times out on a true miss.
        metrics_.counter("rh.gets_missed").add();
        unserved_gets.push_back(routed);
        break;
      }
      case OpType::kCompareAndPut: {
        store::Object object{op.key, op.version.value_or(0), op.value};
        const store::CasOutcome outcome =
            store_.compare_and_put(object, op.expected);
        switch (outcome.status) {
          case store::CasOutcome::Status::kStored:
            metrics_.counter("rh.cas_stored").add();
            batch.replies.push_back(OpReply{
                routed.rid, OpType::kCompareAndPut, OpStatus::kOk,
                store::Object{op.key, object.version, {}}});
            push.objects.push_back(std::move(object));
            break;
          case store::CasOutcome::Status::kMismatch:
          case store::CasOutcome::Status::kDeleted:
            // Definitive precondition failure. The reply carries the key's
            // actual current version (the tombstone's for a deleted key) so
            // the client can re-read and decide, rather than retry blind.
            metrics_.counter("rh.cas_failed").add();
            batch.replies.push_back(OpReply{
                routed.rid, OpType::kCompareAndPut, OpStatus::kCasFailed,
                store::Object{op.key, outcome.current, {}}});
            break;
          case store::CasOutcome::Status::kConflict:
            // The stamped version failed to advance past the current one:
            // version-ordering contract broke, same as a put conflict. No
            // ack; the client times out and surfaces the failure.
            metrics_.counter("rh.cas_conflicts").add();
            break;
        }
        break;
      }
      case OpType::kStats:
        // Stats ops are answered at the contact and never sprayed; one
        // arriving inside a slice delivery means a peer broke the
        // protocol. Drop it (no reply — nothing sensible to report).
        metrics_.counter("rh.stats_misrouted").add();
        break;
    }
    note_op(op.type, started);
  }

  // Reply and push batches are chunked against the per-datagram budget:
  // two 35 kB get hits served out of one delivered batch must go out as
  // two reply datagrams, not one silently-dropped 70 kB frame.
  if (!batch.replies.empty()) {
    const NodeId client(ops.ops.front().rid.client);
    chunk_by_budget(
        batch.replies,
        [](const OpReply& reply) { return encoded_size(reply); },
        [&](std::vector<OpReply>& chunk) {
          transport_.send(net::Message{
              self_, client, kOpReplyBatch,
              encode(OpReplyBatch{batch.replica, batch.slice,
                                  batch.slice_count, std::move(chunk)})});
        });
  }

  // Immediate redundancy: copy everything stored here to a few slice-mates
  // right away so the writes survive this node failing before the next
  // anti-entropy round. Each chunk is encoded once and its buffer shared
  // across the fan-out.
  if (!push.objects.empty()) {
    chunk_by_budget(
        push.objects,
        [](const store::Object& object) { return store::encoded_size(object); },
        [this](std::vector<store::Object>& chunk) {
          const Payload encoded = encode(ReplicatePush{std::move(chunk)});
          for (const NodeId peer :
               slices_.slice_peers(options_.direct_replication)) {
            if (peer == self_) continue;
            transport_.send(
                net::Message{self_, peer, kReplicatePush, encoded});
          }
        });
  }

  if (unserved_gets.empty()) return dissemination::DeliverResult::kStop;
  if (!has_writes) {
    // Pure-read batch: keep the original payload relaying in the slice
    // (duplicate replies for already-served gets are absorbed client-side
    // by request id — the epidemic trade the paper makes everywhere else).
    return dissemination::DeliverResult::kContinueInSlice;
  }
  // Mixed batch: stop the original (or every relay hop would re-execute
  // the writes and re-fan full-value ReplicatePush copies slice-wide) and
  // re-spray only the unserved gets. The remainder is a pure-read batch,
  // so downstream members use the continue path — no re-spray cascade.
  metrics_.counter("rh.batch_get_resprays").add();
  spray_or_deliver(target, encode_inner(OpsRequest{std::move(unserved_gets)}));
  return dissemination::DeliverResult::kStop;
}

}  // namespace dataflasks::core
