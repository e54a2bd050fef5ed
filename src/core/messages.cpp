#include "core/messages.hpp"

namespace dataflasks::core {

namespace {

void encode_version_opt(Writer& w, const std::optional<Version>& v) {
  w.boolean(v.has_value());
  w.u64(v.value_or(0));
}

std::optional<Version> decode_version_opt(Reader& r) {
  const bool has = r.boolean();
  const Version v = r.u64();
  return has ? std::optional<Version>(v) : std::nullopt;
}

void encode_config(Writer& w, const slicing::SliceConfig& config) {
  w.u32(config.slice_count);
  w.u64(config.epoch);
}

slicing::SliceConfig decode_config(Reader& r) {
  slicing::SliceConfig config;
  config.slice_count = r.u32();
  config.epoch = r.u64();
  return config;
}

// ---- Operation / RoutedOp codec --------------------------------------------

void encode_op(Writer& w, const Operation& op, std::uint8_t protocol) {
  w.u8(static_cast<std::uint8_t>(op.type));
  w.str(op.key);
  switch (op.type) {
    case OpType::kPut:
      w.u64(op.version.value_or(0));
      // v3 puts always carry the TTL field (0 = forever): the field's
      // presence is keyed on the envelope's protocol byte, never on its
      // value, so the layout is decidable without lookahead.
      if (protocol >= 3) w.u32(op.ttl_ms);
      w.bytes(op.value);
      break;
    case OpType::kGet:
      encode_version_opt(w, op.version);
      break;
    case OpType::kDelete:
      w.u64(op.version.value_or(0));
      break;
    case OpType::kCompareAndPut:
      w.u64(op.expected);
      w.u64(op.version.value_or(0));
      w.bytes(op.value);
      break;
    case OpType::kStats:
      break;  // type + (empty) key is the whole op
  }
}

/// Returns nullopt (and fails the reader) on an unknown op type.
std::optional<Operation> decode_op(Reader& r, std::uint8_t protocol) {
  Operation op;
  const std::uint8_t type = r.u8();
  op.key = r.str();
  switch (type) {
    case static_cast<std::uint8_t>(OpType::kPut):
      op.type = OpType::kPut;
      op.version = r.u64();
      if (protocol >= 3) op.ttl_ms = r.u32();
      op.value = r.payload();
      break;
    case static_cast<std::uint8_t>(OpType::kGet):
      op.type = OpType::kGet;
      op.version = decode_version_opt(r);
      break;
    case static_cast<std::uint8_t>(OpType::kDelete):
      op.type = OpType::kDelete;
      op.version = r.u64();
      break;
    case static_cast<std::uint8_t>(OpType::kCompareAndPut):
      op.type = OpType::kCompareAndPut;
      op.expected = r.u64();
      op.version = r.u64();
      op.value = r.payload();
      break;
    case static_cast<std::uint8_t>(OpType::kStats):
      op.type = OpType::kStats;
      break;
    default:
      return std::nullopt;
  }
  return op;
}

void encode_routed(Writer& w, const RoutedOp& routed, std::uint8_t protocol) {
  w.request_id(routed.rid);
  encode_op(w, routed.op, protocol);
}

/// Decodes a RoutedOp list shared by envelopes and spray payloads. Sets the
/// reader failed on any malformed element.
std::optional<std::vector<RoutedOp>> decode_routed_ops(Reader& r,
                                                       std::uint8_t protocol) {
  bool bad_op = false;
  auto ops = r.vec<RoutedOp>([&r, &bad_op, protocol]() {
    RoutedOp routed;
    routed.rid = r.request_id();
    auto op = decode_op(r, protocol);
    if (!op) {
      bad_op = true;
      return RoutedOp{};
    }
    routed.op = std::move(*op);
    return routed;
  });
  if (bad_op || !r.ok()) return std::nullopt;
  return ops;
}

std::size_t encoded_size_routed(const std::vector<RoutedOp>& ops) {
  std::size_t size = sizeof(std::uint32_t);
  for (const RoutedOp& routed : ops) size += encoded_size(routed);
  return size;
}

}  // namespace

std::uint8_t min_protocol_for(const Operation& op) {
  if (op.type == OpType::kPut && op.ttl_ms != 0) return 3;
  return min_protocol_for(op.type);
}

std::size_t encoded_size(const Operation& op) {
  // type + key + per-type version field + (put only) value block. Sized at
  // the native (v3) layout: for downgraded envelopes this overestimates a
  // put by the 4-byte TTL field, which only makes reserve hints and chunk
  // budgets slightly conservative.
  std::size_t size = 1 + sizeof(std::uint32_t) + op.key.size();
  switch (op.type) {
    case OpType::kPut:
      size += sizeof(Version) + sizeof(std::uint32_t) /* ttl_ms */ +
              sizeof(std::uint32_t) + op.value.size();
      break;
    case OpType::kGet:
      size += 1 + sizeof(Version);  // optional<Version>
      break;
    case OpType::kDelete:
      size += sizeof(Version);
      break;
    case OpType::kCompareAndPut:
      size += 2 * sizeof(Version) + sizeof(std::uint32_t) + op.value.size();
      break;
    case OpType::kStats:
      break;
  }
  return size;
}

std::size_t encoded_size(const RoutedOp& routed) {
  return 2 * sizeof(std::uint64_t) + encoded_size(routed.op);
}

// ---- envelope ---------------------------------------------------------------

Payload encode(const OpEnvelope& msg) {
  Writer w(1 + encoded_size_routed(msg.ops));
  w.u8(msg.protocol);
  w.vec(msg.ops, [&w, &msg](const RoutedOp& routed) {
    encode_routed(w, routed, msg.protocol);
  });
  return w.take_payload();
}

std::optional<OpEnvelope> decode_op_envelope(const Payload& payload) {
  Reader r(payload);
  OpEnvelope msg;
  msg.protocol = r.u8();
  // Every version back to kOpProtocolMin is decodable (the protocol byte
  // selects the per-op layout), so decode structurally and let the request
  // handler decide whether it *serves* the carried version — a mismatch
  // must reach it to produce the explicit kVersionMismatch reply.
  if (!r.ok() || msg.protocol < kOpProtocolMin ||
      msg.protocol > kOpProtocolVersion) {
    return std::nullopt;
  }
  auto ops = decode_routed_ops(r, msg.protocol);
  if (!ops || !r.finish().ok()) return std::nullopt;
  msg.ops = std::move(*ops);
  return msg;
}

// ---- inner payloads ---------------------------------------------------------

Payload encode_inner(const OpsRequest& req) {
  // Node-to-node spray traffic always rides the native layout: the contact
  // node re-encodes here after decoding whatever version the client spoke.
  Writer w(1 + encoded_size_routed(req.ops));
  w.u8(static_cast<std::uint8_t>(InnerKind::kOps));
  w.vec(req.ops, [&w](const RoutedOp& routed) {
    encode_routed(w, routed, kOpProtocolVersion);
  });
  return w.take_payload();
}

Payload encode_inner(const HandoffRequest& req) {
  Writer w(1 + store::encoded_size(req.object));
  w.u8(static_cast<std::uint8_t>(InnerKind::kHandoff));
  encode(w, req.object);
  return w.take_payload();
}

std::optional<InnerKind> peek_inner_kind(const Payload& payload) {
  if (payload.empty()) return std::nullopt;
  switch (payload.front()) {
    case static_cast<std::uint8_t>(InnerKind::kOps): return InnerKind::kOps;
    case static_cast<std::uint8_t>(InnerKind::kHandoff):
      return InnerKind::kHandoff;
    default: return std::nullopt;
  }
}

std::optional<OpsRequest> decode_ops(const Payload& payload) {
  Reader r(payload);
  if (r.u8() != static_cast<std::uint8_t>(InnerKind::kOps)) {
    return std::nullopt;
  }
  auto ops = decode_routed_ops(r, kOpProtocolVersion);
  if (!ops || !r.finish().ok()) return std::nullopt;
  OpsRequest req;
  req.ops = std::move(*ops);
  return req;
}

std::optional<HandoffRequest> decode_handoff(const Payload& payload) {
  Reader r(payload);
  if (r.u8() != static_cast<std::uint8_t>(InnerKind::kHandoff)) {
    return std::nullopt;
  }
  HandoffRequest req;
  req.object = store::decode_object(r);
  if (!r.finish().ok()) return std::nullopt;
  return req;
}

// ---- reply batch ------------------------------------------------------------

std::size_t encoded_size(const OpReply& reply) {
  // rid + type + status + object.
  return 2 * sizeof(std::uint64_t) + 2 + store::encoded_size(reply.object);
}

Payload encode(const OpReplyBatch& msg) {
  std::size_t size = sizeof(std::uint64_t) + 3 * sizeof(std::uint32_t);
  for (const OpReply& reply : msg.replies) {
    size += encoded_size(reply);
  }
  Writer w(size);
  w.node_id(msg.replica);
  w.u32(msg.slice);
  w.u32(msg.slice_count);
  w.vec(msg.replies, [&w](const OpReply& reply) {
    w.request_id(reply.rid);
    w.u8(static_cast<std::uint8_t>(reply.type));
    w.u8(static_cast<std::uint8_t>(reply.status));
    store::encode(w, reply.object);
  });
  return w.take_payload();
}

std::optional<OpReplyBatch> decode_op_reply_batch(const Payload& payload) {
  Reader r(payload);
  OpReplyBatch msg;
  msg.replica = r.node_id();
  msg.slice = r.u32();
  msg.slice_count = r.u32();
  bool bad = false;
  msg.replies = r.vec<OpReply>([&r, &bad]() {
    OpReply reply;
    reply.rid = r.request_id();
    const std::uint8_t type = r.u8();
    const std::uint8_t status = r.u8();
    if (type < static_cast<std::uint8_t>(OpType::kPut) ||
        type > static_cast<std::uint8_t>(OpType::kStats) ||
        status < static_cast<std::uint8_t>(OpStatus::kOk) ||
        status > static_cast<std::uint8_t>(OpStatus::kOverloaded)) {
      bad = true;
      return reply;
    }
    reply.type = static_cast<OpType>(type);
    reply.status = static_cast<OpStatus>(status);
    reply.object = store::decode_object(r);
    return reply;
  });
  if (bad || !r.finish().ok()) return std::nullopt;
  return msg;
}

// ---- replication push -------------------------------------------------------

Payload encode(const ReplicatePush& msg) {
  std::size_t size = sizeof(std::uint32_t);
  for (const store::Object& o : msg.objects) size += store::encoded_size(o);
  Writer w(size);
  w.vec(msg.objects, [&w](const store::Object& o) { store::encode(w, o); });
  return w.take_payload();
}

std::optional<ReplicatePush> decode_replicate_push(const Payload& payload) {
  Reader r(payload);
  ReplicatePush msg;
  msg.objects =
      r.vec<store::Object>([&r]() { return store::decode_object(r); });
  if (!r.finish().ok()) return std::nullopt;
  return msg;
}

// ---- version negotiation ------------------------------------------------------

Payload encode(const VersionMismatch& msg) {
  Writer w(2 * sizeof(std::uint64_t) + 2);
  w.request_id(msg.rid);
  w.u8(msg.got);
  w.u8(msg.supported);
  return w.take_payload();
}

std::optional<VersionMismatch> decode_version_mismatch(
    const Payload& payload) {
  Reader r(payload);
  VersionMismatch msg;
  msg.rid = r.request_id();
  msg.got = r.u8();
  msg.supported = r.u8();
  if (!r.finish().ok()) return std::nullopt;
  return msg;
}

// ---- overload backpressure ----------------------------------------------------

Payload encode(const OverloadReply& msg) {
  Writer w(2 * sizeof(std::uint64_t) + sizeof(std::uint32_t));
  w.request_id(msg.rid);
  w.u32(msg.retry_after_ms);
  return w.take_payload();
}

std::optional<OverloadReply> decode_overload_reply(const Payload& payload) {
  Reader r(payload);
  OverloadReply msg;
  msg.rid = r.request_id();
  msg.retry_after_ms = r.u32();
  if (!r.finish().ok()) return std::nullopt;
  return msg;
}

// ---- slice advertisement ------------------------------------------------------

Payload encode(const SliceAdvert& msg) {
  Writer w(2 * sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t) +
           encoded_size_endpoint_opt(msg.endpoint));
  w.node_id(msg.node);
  w.u32(msg.slice);
  encode_config(w, msg.config);
  encode_endpoint_opt(w, msg.endpoint);
  return w.take_payload();
}

std::optional<SliceAdvert> decode_slice_advert(const Payload& payload) {
  Reader r(payload);
  SliceAdvert msg;
  msg.node = r.node_id();
  msg.slice = r.u32();
  msg.config = decode_config(r);
  msg.endpoint = decode_endpoint_opt(r);
  if (!r.finish().ok()) return std::nullopt;
  return msg;
}

// ---- anti-entropy -------------------------------------------------------------

Payload encode_ae_digest(bool is_reply,
                         const std::vector<store::DigestEntry>& entries) {
  std::size_t size = 1 + sizeof(std::uint32_t);
  for (const store::DigestEntry& e : entries) size += store::encoded_size(e);
  Writer w(size);
  w.boolean(is_reply);
  w.vec(entries, [&w](const store::DigestEntry& e) { store::encode(w, e); });
  return w.take_payload();
}

Payload encode(const AeDigest& msg) {
  return encode_ae_digest(msg.is_reply, msg.entries);
}

std::optional<AeDigest> decode_ae_digest(const Payload& payload) {
  Reader r(payload);
  AeDigest msg;
  msg.is_reply = r.boolean();
  msg.entries = r.vec<store::DigestEntry>(
      [&r]() { return store::decode_digest_entry(r); });
  if (!r.finish().ok()) return std::nullopt;
  return msg;
}

Payload encode(const AePull& msg) {
  std::size_t size = sizeof(std::uint32_t);
  for (const store::DigestEntry& e : msg.entries) size += store::encoded_size(e);
  Writer w(size);
  w.vec(msg.entries,
        [&w](const store::DigestEntry& e) { store::encode(w, e); });
  return w.take_payload();
}

std::optional<AePull> decode_ae_pull(const Payload& payload) {
  Reader r(payload);
  AePull msg;
  msg.entries = r.vec<store::DigestEntry>(
      [&r]() { return store::decode_digest_entry(r); });
  if (!r.finish().ok()) return std::nullopt;
  return msg;
}

Payload encode(const AePush& msg) {
  std::size_t size = sizeof(std::uint32_t);
  for (const store::Object& o : msg.objects) size += store::encoded_size(o);
  Writer w(size);
  w.vec(msg.objects, [&w](const store::Object& o) { store::encode(w, o); });
  return w.take_payload();
}

std::optional<AePush> decode_ae_push(const Payload& payload) {
  Reader r(payload);
  AePush msg;
  msg.objects =
      r.vec<store::Object>([&r]() { return store::decode_object(r); });
  if (!r.finish().ok()) return std::nullopt;
  return msg;
}

// Receivers allocate bucket_count-sized arrays (fingerprints, membership
// masks), so a wire-supplied count far beyond what bucket sizing ever
// produces (4096) is malformed input, not a bigger store.
constexpr std::uint32_t kMaxSummaryBuckets = 65536;

Payload encode(const AeSummary& msg) {
  Writer w(sizeof(std::uint32_t) + sizeof(std::uint64_t) +
           sizeof(std::uint32_t) +
           msg.fingerprints.size() * sizeof(std::uint64_t));
  w.u32(msg.bucket_count);
  w.u64(msg.entry_count);
  w.vec(msg.fingerprints, [&w](std::uint64_t fp) { w.u64(fp); });
  return w.take_payload();
}

std::optional<AeSummary> decode_ae_summary(const Payload& payload) {
  Reader r(payload);
  AeSummary msg;
  msg.bucket_count = r.u32();
  msg.entry_count = r.u64();
  msg.fingerprints = r.vec<std::uint64_t>([&r]() { return r.u64(); });
  if (!r.finish().ok()) return std::nullopt;
  // A summary whose fingerprint array disagrees with its own bucket count
  // is malformed — comparing it positionally would be garbage.
  if (msg.bucket_count == 0 || msg.bucket_count > kMaxSummaryBuckets ||
      msg.fingerprints.size() != msg.bucket_count) {
    return std::nullopt;
  }
  return msg;
}

Payload encode(const AeBucketDigest& msg) {
  std::size_t size = 1 + 2 * sizeof(std::uint32_t) +
                     msg.buckets.size() * sizeof(std::uint32_t) +
                     sizeof(std::uint32_t);
  for (const store::DigestEntry& e : msg.entries) size += store::encoded_size(e);
  Writer w(size);
  w.boolean(msg.is_reply);
  w.u32(msg.bucket_count);
  w.vec(msg.buckets, [&w](std::uint32_t b) { w.u32(b); });
  w.vec(msg.entries, [&w](const store::DigestEntry& e) { store::encode(w, e); });
  return w.take_payload();
}

std::optional<AeBucketDigest> decode_ae_bucket_digest(const Payload& payload) {
  Reader r(payload);
  AeBucketDigest msg;
  msg.is_reply = r.boolean();
  msg.bucket_count = r.u32();
  msg.buckets = r.vec<std::uint32_t>([&r]() { return r.u32(); });
  msg.entries = r.vec<store::DigestEntry>(
      [&r]() { return store::decode_digest_entry(r); });
  if (!r.finish().ok()) return std::nullopt;
  if (msg.bucket_count == 0 || msg.bucket_count > kMaxSummaryBuckets) {
    return std::nullopt;
  }
  for (const std::uint32_t b : msg.buckets) {
    if (b >= msg.bucket_count) return std::nullopt;
  }
  return msg;
}

// ---- state transfer ------------------------------------------------------------

Payload encode(const StRequest& msg) {
  Writer w(sizeof(std::uint32_t) + store::encoded_size(msg.cursor));
  w.u32(msg.slice);
  store::encode(w, msg.cursor);
  return w.take_payload();
}

std::optional<StRequest> decode_st_request(const Payload& payload) {
  Reader r(payload);
  StRequest msg;
  msg.slice = r.u32();
  msg.cursor = store::decode_digest_entry(r);
  if (!r.finish().ok()) return std::nullopt;
  return msg;
}

Payload encode(const StReply& msg) {
  std::size_t size = sizeof(std::uint32_t) + 2;
  for (const store::Object& o : msg.objects) size += store::encoded_size(o);
  Writer w(size);
  w.u32(msg.slice);
  w.boolean(msg.done);
  w.boolean(msg.continues);
  w.vec(msg.objects, [&w](const store::Object& o) { store::encode(w, o); });
  return w.take_payload();
}

std::optional<StReply> decode_st_reply(const Payload& payload) {
  Reader r(payload);
  StReply msg;
  msg.slice = r.u32();
  msg.done = r.boolean();
  msg.continues = r.boolean();
  msg.objects =
      r.vec<store::Object>([&r]() { return store::decode_object(r); });
  if (!r.finish().ok()) return std::nullopt;
  return msg;
}

}  // namespace dataflasks::core
