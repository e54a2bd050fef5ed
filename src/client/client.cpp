#include "client/client.hpp"

#include <algorithm>

#include "slicing/slice_map.hpp"

namespace dataflasks::client {

namespace {

// Constant counter names (no per-op string assembly on the hot path; all
// under SSO size anyway).
const char* issued_counter(core::OpType type) {
  switch (type) {
    case core::OpType::kPut: return "client.puts";
    case core::OpType::kGet: return "client.gets";
    case core::OpType::kDelete: return "client.dels";
    case core::OpType::kCompareAndPut: return "client.cas";
    case core::OpType::kStats: return "client.stats";
  }
  return "client.ops";
}

const char* retries_counter(core::OpType type) {
  switch (type) {
    case core::OpType::kPut: return "client.put_retries";
    case core::OpType::kGet: return "client.get_retries";
    case core::OpType::kDelete: return "client.del_retries";
    case core::OpType::kCompareAndPut: return "client.cas_retries";
    case core::OpType::kStats: return "client.stats_retries";
  }
  return "client.op_retries";
}

const char* failures_counter(core::OpType type) {
  switch (type) {
    case core::OpType::kPut: return "client.put_failures";
    case core::OpType::kGet: return "client.get_failures";
    case core::OpType::kDelete: return "client.del_failures";
    case core::OpType::kCompareAndPut: return "client.cas_failures";
    case core::OpType::kStats: return "client.stats_failures";
  }
  return "client.op_failures";
}

const char* successes_counter(core::OpType type) {
  switch (type) {
    case core::OpType::kPut: return "client.put_successes";
    case core::OpType::kGet: return "client.get_successes";
    case core::OpType::kDelete: return "client.del_successes";
    case core::OpType::kCompareAndPut: return "client.cas_successes";
    case core::OpType::kStats: return "client.stats_successes";
  }
  return "client.op_successes";
}

}  // namespace

Client::Client(NodeId id, net::Transport& transport,
               runtime::Runtime& rt, LoadBalancer& balancer, Rng rng,
               ClientOptions options)
    : id_(id),
      transport_(transport),
      runtime_(rt),
      balancer_(balancer),
      rng_(rng),
      options_(options),
      active_protocol_(std::clamp(options.protocol_version,
                                  core::kOpProtocolMin,
                                  core::kOpProtocolVersion)) {
  transport_.register_handler(
      id_, [this](const net::Message& msg) { dispatch(msg); });
}

Client::~Client() {
  transport_.unregister_handler(id_);
  for (auto& [_, batch] : pending_) {
    batch.timer.cancel();
    batch.hedge_timer.cancel();
    batch.retry_timer.cancel();
  }
}

Version Client::stamp_version(const Key& key) {
  // Versions must be unique system-wide for a (key, value) pair: replicas
  // reject a version re-stamped with different bytes (the upper layer owns
  // ordering, paper §III). Counter in the high bits keeps per-client
  // monotonicity; the client id in the low 24 bits keeps concurrent
  // clients' stamps disjoint.
  return (++version_counters_[key] << 24) | (id_.value & 0xFFFFFF);
}

Version Client::stamp_version_above(const Key& key, Version floor) {
  // Lifting the counter to floor's counter part makes the next stamp's
  // counter strictly greater, so the stamp exceeds `floor` regardless of
  // which client id sits in the low bits.
  Version& counter = version_counters_[key];
  counter = std::max(counter, floor >> 24);
  return stamp_version(key);
}

std::optional<SliceId> Client::slice_hint(const PendingBatch& batch) const {
  // Unknown k: no reply yet. k = 1: every node is in the key's slice, so a
  // hint could only pin the client to one node; the uniform pick spreads
  // the load instead.
  if (slice_count_ <= 1) return std::nullopt;
  // Hint by the first unresolved op: exact for single-op requests and for
  // batches that happen to target one slice; a plain guess otherwise (any
  // contact can fan a mixed batch out to its slices).
  for (std::size_t i = 0; i < batch.ops.size(); ++i) {
    if (!batch.resolved[i]) {
      return slicing::key_to_slice(batch.ops[i].key, slice_count_);
    }
  }
  return std::nullopt;
}

void Client::execute(std::vector<core::Operation> ops, BatchCallback done) {
  ensure(!ops.empty(), "Client::execute on an empty batch");
  const std::uint64_t base_seq = next_seq_;
  next_seq_ += ops.size();

  PendingBatch batch;
  batch.base_seq = base_seq;
  batch.done = std::move(done);
  batch.started = runtime_.now();
  if (options_.op_deadline > 0) {
    batch.deadline = batch.started + options_.op_deadline;
  }
  batch.unresolved = ops.size();
  batch.resolved.assign(ops.size(), false);
  batch.results.resize(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    OpResult& result = batch.results[i];
    result.type = ops[i].type;
    result.key = ops[i].key;
    result.version = ops[i].version.value_or(0);
    batch.read_only =
        batch.read_only && ops[i].type == core::OpType::kGet;
    rid_index_.emplace(base_seq + i, base_seq);
    metrics_.counter(issued_counter(ops[i].type)).add();
  }
  batch.ops = std::move(ops);

  auto [it, inserted] = pending_.emplace(base_seq, std::move(batch));
  ensure(inserted, "duplicate batch base sequence");
  metrics_.counter("client.batches").add();
  send_batch(it->second);
}

std::vector<Payload> Client::encode_unresolved(
    const PendingBatch& batch) const {
  // A batch over the per-datagram budget goes out as several envelopes —
  // the UDP transport silently drops oversized frames, so the split must
  // happen here. Replies route by rid, so the batch bookkeeping does not
  // care how many datagrams carried it.
  // Envelope protocol: the negotiated version, lifted to whatever the
  // batch's ops require. Ops above the negotiated version still go out at
  // their own minimum — the server either serves them or answers with a
  // kVersionMismatch that fails them as unsupported; silently not sending
  // would turn "server can't do this" into a timeout.
  std::uint8_t protocol = active_protocol_;
  std::vector<core::RoutedOp> unresolved;
  for (std::size_t i = 0; i < batch.ops.size(); ++i) {
    if (batch.resolved[i]) continue;
    protocol = std::max(protocol, core::min_protocol_for(batch.ops[i]));
    unresolved.push_back(core::RoutedOp{
        RequestId{id_.value, batch.base_seq + i}, batch.ops[i]});
  }
  std::vector<Payload> encoded;
  core::chunk_by_budget(
      unresolved,
      [](const core::RoutedOp& routed) { return core::encoded_size(routed); },
      [&encoded, protocol](std::vector<core::RoutedOp>& chunk) {
        encoded.push_back(
            core::encode(core::OpEnvelope{protocol, std::move(chunk)}));
      });
  return encoded;
}

void Client::send_envelopes(const PendingBatch& batch, NodeId contact) {
  for (Payload& payload : encode_unresolved(batch)) {
    transport_.send(net::Message{id_, contact, core::kOpEnvelope,
                                 std::move(payload)});
    metrics_.counter("client.envelopes_sent").add();
  }
}

void Client::send_batch(PendingBatch& batch) {
  ++batch.attempts;
  batch.got_reply = false;
  batch.contact = balancer_.pick_contact(slice_hint(batch), runtime_.now());
  send_envelopes(batch, batch.contact);

  // The attempt timer never outlives the deadline: a request with 100ms of
  // budget left must resolve (one way or the other) within 100ms, not after
  // a full request_timeout.
  SimTime timeout = options_.request_timeout;
  if (batch.deadline > 0) {
    const SimTime now = runtime_.now();
    const SimTime remaining = batch.deadline > now ? batch.deadline - now : 1;
    timeout = std::min(timeout, remaining);
  }

  const std::uint64_t base_seq = batch.base_seq;
  batch.timer = runtime_.schedule_after(
      timeout, [this, base_seq]() { on_timeout(base_seq); });

  if (options_.get_hedge_delay > 0 && batch.read_only) {
    batch.hedge_timer = runtime_.schedule_after(
        options_.get_hedge_delay, [this, base_seq]() {
          const auto it = pending_.find(base_seq);
          if (it == pending_.end()) return;  // already answered
          // Second contact, same request ids: whichever replica answers
          // first wins and the duplicate replies are absorbed by rid dedup.
          const NodeId hedge_contact =
              balancer_.pick_contact(slice_hint(it->second), runtime_.now());
          send_envelopes(it->second, hedge_contact);
          metrics_.counter("client.get_hedges").add();
        });
  }
}

template <typename Mark>
void Client::fail_unresolved(PendingBatch& batch, const char* counter,
                             Mark mark) {
  for (std::size_t i = 0; i < batch.ops.size(); ++i) {
    if (batch.resolved[i]) continue;
    batch.resolved[i] = true;
    rid_index_.erase(batch.base_seq + i);
    OpResult& result = batch.results[i];
    result.ok = false;
    result.attempts = batch.attempts;
    result.latency = runtime_.now() - batch.started;
    mark(result);
    metrics_.counter(failures_counter(batch.ops[i].type)).add();
    if (counter != nullptr) metrics_.counter(counter).add();
  }
  batch.unresolved = 0;
  complete(batch);
}

void Client::on_timeout(std::uint64_t base_seq) {
  const auto it = pending_.find(base_seq);
  if (it == pending_.end()) return;  // completed meanwhile
  PendingBatch& batch = it->second;
  batch.hedge_timer.cancel();
  // Silence is the only evidence of a dead contact. A contact that answered
  // this attempt — even with a negative (version mismatch, overload shed) —
  // is alive; blacklisting it would punish honesty and steer the balancer
  // with noise.
  if (!batch.got_reply) balancer_.node_unreachable(batch.contact);
  const SimTime now = runtime_.now();
  if (batch.deadline > 0 && now >= batch.deadline) {
    fail_unresolved(batch, "client.ops_deadline_exceeded",
                    [](OpResult& r) { r.deadline_exceeded = true; });
    return;
  }
  if (batch.attempts < options_.max_attempts) {
    for (std::size_t i = 0; i < batch.ops.size(); ++i) {
      if (batch.resolved[i]) continue;
      metrics_.counter(retries_counter(batch.ops[i].type)).add();
    }
    send_batch(batch);
    return;
  }
  // Out of attempts: everything still unresolved fails.
  fail_unresolved(batch, nullptr, [](OpResult&) {});
}

void Client::handle_overloaded(NodeId from, const core::OverloadReply& shed) {
  if (shed.rid.client != id_.value) return;  // not ours (misroute)
  const auto idx_it = rid_index_.find(shed.rid.seq);
  if (idx_it == rid_index_.end()) {
    metrics_.counter("client.duplicate_replies").add();
    return;
  }
  const auto batch_it = pending_.find(idx_it->second);
  ensure(batch_it != pending_.end(), "rid index points at a dead batch");
  PendingBatch& batch = batch_it->second;
  metrics_.counter("client.overload_replies").add();
  batch.got_reply = true;

  const SimTime now = runtime_.now();
  // Route future picks around the hot node for the server-suggested window.
  const SimTime hint = SimTime{shed.retry_after_ms} * kMillis;
  balancer_.node_overloaded(from, now + std::max<SimTime>(hint, kMillis));

  // One backoff per attempt: a shed arrives per envelope chunk (and per
  // hedged contact), and one overload signal must not multiply retries.
  if (batch.retry_timer.active()) return;

  // Capped exponential backoff seeded by the server's retry-after hint,
  // jittered to 50–150% so a shed thundering herd does not re-arrive as a
  // synchronized wave.
  SimTime delay = batch.attempts < 20
                      ? options_.backoff_base << (batch.attempts - 1)
                      : options_.backoff_max;
  delay = std::clamp(std::max(delay, hint), SimTime{1}, options_.backoff_max);
  delay = delay / 2 + rng_.next_in(0, delay);

  const bool deadline_blown =
      batch.deadline > 0 && now + delay >= batch.deadline;
  if (batch.attempts >= options_.max_attempts || deadline_blown) {
    // The backoff wait cannot fit the budget: fail definitively now, as
    // overloaded — the caller learns to slow down instead of seeing an
    // indistinguishable timeout.
    batch.timer.cancel();
    batch.hedge_timer.cancel();
    fail_unresolved(batch, "client.ops_overloaded",
                    [](OpResult& r) { r.overloaded = true; });
    return;
  }

  batch.timer.cancel();
  batch.hedge_timer.cancel();
  const std::uint64_t base_seq = batch.base_seq;
  batch.retry_timer = runtime_.schedule_after(delay, [this, base_seq]() {
    const auto it = pending_.find(base_seq);
    if (it == pending_.end()) return;
    // Explicitly deactivate the handle: the alive flag is checked at fire
    // time, not flipped by it, and a stale-active handle would dedup away
    // every future shed for this batch.
    it->second.retry_timer.cancel();
    metrics_.counter("client.overload_retries").add();
    send_batch(it->second);
  });
}

void Client::handle_version_mismatch(const core::VersionMismatch& mismatch) {
  if (mismatch.rid.client != id_.value) return;  // not ours (misroute)
  const auto idx_it = rid_index_.find(mismatch.rid.seq);
  if (idx_it == rid_index_.end()) {
    metrics_.counter("client.duplicate_replies").add();
    return;
  }
  const auto batch_it = pending_.find(idx_it->second);
  ensure(batch_it != pending_.end(), "rid index points at a dead batch");
  PendingBatch& batch = batch_it->second;
  metrics_.counter("client.version_mismatches").add();
  batch.got_reply = true;

  // Adopt the server's version when we can speak it. Sticky across
  // requests: one mixed-version cluster member teaches us, the rest of the
  // session skips the extra round-trip.
  const std::uint8_t offered = mismatch.supported;
  const bool adoptable = offered >= core::kOpProtocolMin &&
                         offered <= core::kOpProtocolVersion;
  if (adoptable && active_protocol_ != offered) {
    active_protocol_ = offered;
    metrics_.counter("client.protocol_negotiations").add();
  }

  // Ops the negotiated protocol cannot express fail now — "this cluster
  // can't do that" is a definitive answer, not a timeout.
  for (std::size_t i = 0; i < batch.ops.size(); ++i) {
    if (batch.resolved[i]) continue;
    if (adoptable &&
        core::min_protocol_for(batch.ops[i]) <= active_protocol_) {
      continue;
    }
    batch.resolved[i] = true;
    rid_index_.erase(batch.base_seq + i);
    --batch.unresolved;
    OpResult& result = batch.results[i];
    result.ok = false;
    result.unsupported = true;
    result.attempts = batch.attempts;
    result.latency = runtime_.now() - batch.started;
    metrics_.counter("client.ops_unsupported").add();
  }
  if (batch.unresolved == 0) {
    complete(batch);
    return;
  }
  // Re-send the remainder at the adopted version, to the same contact,
  // without burning a retry attempt — the server answered; it is not
  // unreachable. Guarded per version: a mismatch reply arrives per
  // envelope chunk, and one renegotiation must not multiply resends.
  if (batch.negotiated != active_protocol_) {
    batch.negotiated = active_protocol_;
    send_envelopes(batch, batch.contact);
  }
}

void Client::complete(PendingBatch& batch) {
  batch.timer.cancel();
  batch.hedge_timer.cancel();
  batch.retry_timer.cancel();
  auto done = std::move(batch.done);
  auto results = std::move(batch.results);
  pending_.erase(batch.base_seq);
  if (done) done(results);
}

void Client::dispatch(const net::Message& msg) {
  if (msg.type == core::kVersionMismatch) {
    const auto mismatch = core::decode_version_mismatch(msg.payload);
    if (mismatch) handle_version_mismatch(*mismatch);
    return;
  }
  if (msg.type == core::kOverloaded) {
    const auto shed = core::decode_overload_reply(msg.payload);
    if (shed) handle_overloaded(msg.src, *shed);
    return;
  }
  if (msg.type != core::kOpReplyBatch) {
    metrics_.counter("client.unhandled_messages").add();
    return;
  }
  const auto reply_batch = core::decode_op_reply_batch(msg.payload);
  if (!reply_batch) return;
  // The newest reply wins. A new slice count renumbers every slice, so the
  // cached replicas stop meaning anything. A stale count costs a spray,
  // never correctness: the contact regroups ops by its own key_slice.
  if (reply_batch->slice_count != slice_count_) {
    slice_count_ = reply_batch->slice_count;
    balancer_.forget_slices();
  }

  for (const core::OpReply& reply : reply_batch->replies) {
    if (reply.rid.client != id_.value) continue;  // not ours (misroute)
    const auto idx_it = rid_index_.find(reply.rid.seq);
    if (idx_it == rid_index_.end()) {
      // Duplicate reply for an already-resolved op: the epidemic normal
      // case the client library exists to absorb (paper §V).
      metrics_.counter("client.duplicate_replies").add();
      continue;
    }
    const auto batch_it = pending_.find(idx_it->second);
    ensure(batch_it != pending_.end(), "rid index points at a dead batch");
    PendingBatch& batch = batch_it->second;
    const std::size_t index =
        static_cast<std::size_t>(reply.rid.seq - batch.base_seq);
    ensure(index < batch.ops.size(), "reply seq outside its batch");

    balancer_.observe_replica(reply_batch->replica, reply_batch->slice);
    batch.got_reply = true;
    batch.resolved[index] = true;
    rid_index_.erase(idx_it);
    --batch.unresolved;

    OpResult& result = batch.results[index];
    result.attempts = batch.attempts;
    result.latency = runtime_.now() - batch.started;
    result.replica = reply_batch->replica;
    switch (reply.status) {
      case core::OpStatus::kOk:
        result.ok = true;
        result.version = reply.object.version;
        // Gets carry the stored object; stats carry the snapshot text in
        // the object's value.
        if (reply.type == core::OpType::kGet ||
            reply.type == core::OpType::kStats) {
          result.object = reply.object;
        }
        metrics_.counter(successes_counter(reply.type)).add();
        break;
      case core::OpStatus::kDeleted:
        // Authoritative miss: a replica holds the key's tombstone. The op
        // completes now (ok = false) instead of timing out. The reply
        // object carries the tombstone's key/version (empty value).
        result.ok = false;
        result.deleted = true;
        result.version = reply.object.version;
        result.object = reply.object;
        metrics_.counter("client.gets_deleted").add();
        break;
      case core::OpStatus::kSuperseded:
        // Definitive rejection: the key's tombstone outranks this write's
        // version; the store discarded it.
        result.ok = false;
        result.superseded = true;
        result.version = reply.object.version;
        metrics_.counter("client.puts_superseded").add();
        break;
      case core::OpStatus::kCasFailed:
        // Definitive precondition failure: `version` is the key's actual
        // current version (the tombstone's when the key is deleted), so
        // the caller can re-read and decide instead of retrying blind.
        result.ok = false;
        result.cas_failed = true;
        result.version = reply.object.version;
        metrics_.counter("client.cas_precondition_failures").add();
        break;
      case core::OpStatus::kOverloaded:
        // Per-op refusal under admission control (whole-envelope shedding
        // uses the cheaper kOverloaded frame, which retries with backoff;
        // a per-op status inside an otherwise-served batch is definitive).
        result.ok = false;
        result.overloaded = true;
        metrics_.counter("client.ops_overloaded").add();
        break;
    }
    if (batch.unresolved == 0) {
      complete(batch);
      // `batch` is gone; later replies in this message hit the duplicate
      // path above.
    }
  }
}

// ---- single-op convenience surface ------------------------------------------

void Client::put(Key key, Payload value, Version version, PutCallback done) {
  put(std::move(key), std::move(value), version, /*ttl_ms=*/0,
      std::move(done));
}

void Client::put(Key key, Payload value, Version version,
                 std::uint32_t ttl_ms, PutCallback done) {
  execute({core::Operation::put(std::move(key), version, std::move(value),
                                ttl_ms)},
          [done = std::move(done)](const std::vector<OpResult>& results) {
            if (!done) return;
            const OpResult& r = results.front();
            PutResult out;
            out.ok = r.ok;
            out.superseded = r.superseded;
            out.unsupported = r.unsupported;
            out.key = r.key;
            out.version = r.version;
            out.replica = r.replica;
            out.attempts = r.attempts;
            out.latency = r.latency;
            done(out);
          });
}

Version Client::put_auto(Key key, Payload value, PutCallback done) {
  const Version version = stamp_version(key);
  put(std::move(key), std::move(value), version, std::move(done));
  return version;
}

void Client::get(Key key, std::optional<Version> version, GetCallback done) {
  execute({core::Operation::get(std::move(key), version)},
          [done = std::move(done)](const std::vector<OpResult>& results) {
            if (!done) return;
            const OpResult& r = results.front();
            GetResult out;
            out.ok = r.ok;
            out.deleted = r.deleted;
            out.object = r.object;
            out.replica = r.replica;
            out.attempts = r.attempts;
            out.latency = r.latency;
            done(out);
          });
}

void Client::del(Key key, Version version, DelCallback done) {
  execute({core::Operation::del(std::move(key), version)},
          [done = std::move(done)](const std::vector<OpResult>& results) {
            if (!done) return;
            const OpResult& r = results.front();
            DelResult out;
            out.ok = r.ok;
            out.key = r.key;
            out.version = r.version;
            out.replica = r.replica;
            out.attempts = r.attempts;
            out.latency = r.latency;
            done(out);
          });
}

Version Client::del_auto(Key key, DelCallback done) {
  // Stamped from the same per-key counter as put_auto, so the tombstone
  // supersedes every version this client has written.
  const Version version = stamp_version(key);
  del(std::move(key), version, std::move(done));
  return version;
}

Version Client::cas(Key key, Version expected, Payload value,
                    CasCallback done) {
  // Stamp above `expected`, not just above this client's counter: the
  // expected version usually came from a get of another client's write.
  const Version version = stamp_version_above(key, expected);
  cas_at(std::move(key), expected, version, std::move(value),
         std::move(done));
  return version;
}

void Client::cas_at(Key key, Version expected, Version version, Payload value,
                    CasCallback done) {
  execute({core::Operation::cas(std::move(key), expected, version,
                                std::move(value))},
          [done = std::move(done)](const std::vector<OpResult>& results) {
            if (!done) return;
            const OpResult& r = results.front();
            CasResult out;
            out.ok = r.ok;
            out.cas_failed = r.cas_failed;
            out.unsupported = r.unsupported;
            out.key = r.key;
            out.version = r.version;
            out.replica = r.replica;
            out.attempts = r.attempts;
            out.latency = r.latency;
            done(out);
          });
}

void Client::stats(StatsCallback done) {
  execute({core::Operation::stats()},
          [done = std::move(done)](const std::vector<OpResult>& results) {
            if (!done) return;
            const OpResult& r = results.front();
            StatsResult out;
            out.ok = r.ok;
            out.unsupported = r.unsupported;
            const ByteView view = r.object.value.view();
            if (view.len > 0) {
              out.text.assign(reinterpret_cast<const char*>(view.ptr),
                              view.len);
            }
            out.replica = r.replica;
            out.attempts = r.attempts;
            out.latency = r.latency;
            done(out);
          });
}

}  // namespace dataflasks::client
