// DataFlasks protocol messages: the versioned client operation API,
// replica traffic, anti-entropy and state transfer, plus slice
// advertisements. Each struct has an explicit codec; decoders return
// nullopt on malformed input.
//
// Client <-> node surface (the versioned operation API): a client packs up
// to a datagram's worth of operations into one OpEnvelope (protocol
// version byte + N routed ops); nodes decode the envelope, group the ops
// by target slice, execute or spray each group, and answer with
// OpReplyBatch messages carrying one entry per served operation. A single
// put/get/delete is just an envelope of one — there is no separate
// single-op wire path.
#pragma once

#include <cstdint>
#include <optional>

#include "common/serialize.hpp"
#include "common/types.hpp"
#include "net/message.hpp"
#include "slicing/slice_map.hpp"
#include "store/object.hpp"

namespace dataflasks::core {

// ---- message type tags ----------------------------------------------------
// Request-category traffic (counted by the paper's figures):
constexpr std::uint16_t kOpEnvelope = net::kRequestTypeBase + 8;
constexpr std::uint16_t kOpReplyBatch = net::kRequestTypeBase + 9;
constexpr std::uint16_t kReplicatePush = net::kRequestTypeBase + 12;
constexpr std::uint16_t kVersionMismatch = net::kRequestTypeBase + 13;
constexpr std::uint16_t kOverloaded = net::kRequestTypeBase + 14;
// Maintenance traffic:
constexpr std::uint16_t kSliceAdvert = net::kSlicingTypeBase + 4;
constexpr std::uint16_t kAeDigest = net::kAntiEntropyTypeBase + 0;
constexpr std::uint16_t kAePull = net::kAntiEntropyTypeBase + 1;
constexpr std::uint16_t kAePush = net::kAntiEntropyTypeBase + 2;
constexpr std::uint16_t kStRequest = net::kAntiEntropyTypeBase + 3;
constexpr std::uint16_t kStReply = net::kAntiEntropyTypeBase + 4;
constexpr std::uint16_t kAeSummary = net::kAntiEntropyTypeBase + 5;
constexpr std::uint16_t kAeBucketDigest = net::kAntiEntropyTypeBase + 6;

// ---- the operation variant -------------------------------------------------

/// Wire protocol version of the operation API this build speaks natively.
/// v2 added compare-and-put and the stats admin op (envelope layout
/// unchanged); v3 adds a ttl_ms field to every Put — the first version
/// whose op layout depends on the envelope's protocol byte, so the op
/// codec threads that byte through. One decoder still reads every version
/// back to kOpProtocolMin. A node serves exactly one version and answers
/// envelopes carrying any other with an explicit kVersionMismatch reply so
/// clients can negotiate down (instead of the silent drop v1 servers gave
/// unknown versions).
constexpr std::uint8_t kOpProtocolVersion = 3;
/// Oldest protocol version this build can still encode and serve.
constexpr std::uint8_t kOpProtocolMin = 1;

enum class OpType : std::uint8_t {
  kPut = 1,
  kGet = 2,
  kDelete = 3,
  kCompareAndPut = 4,  ///< conditional write (protocol v2)
  kStats = 5,          ///< admin: metrics snapshot from the contact (v2)
};

/// Lowest protocol version whose envelopes may carry `type`; the client
/// fails ops a negotiated-down connection cannot express.
[[nodiscard]] constexpr std::uint8_t min_protocol_for(OpType type) {
  return type == OpType::kCompareAndPut || type == OpType::kStats ? 2 : 1;
}

struct Operation;
/// Per-op refinement: a plain put rides any version, but a put carrying a
/// TTL needs v3's wire field — against an older server it must fail as
/// `unsupported` rather than silently store forever.
[[nodiscard]] std::uint8_t min_protocol_for(const Operation& op);

/// One client operation. `version` is the write stamp for put/delete/cas
/// and the optional requested version for get (nullopt = latest). `value`
/// is put/cas-only (shared payload, zero-copy through encode/decode).
/// `expected` is cas-only: the version the key must currently be at (0 =
/// "key must not exist"). `ttl_ms` is put-only (protocol v3): 0 = lives
/// forever; otherwise the first storing replica stamps an absolute expiry
/// deadline ttl_ms from its wall clock and the object expires cluster-wide.
struct Operation {
  OpType type = OpType::kGet;
  Key key;
  std::optional<Version> version;
  Payload value;
  Version expected = 0;
  std::uint32_t ttl_ms = 0;

  [[nodiscard]] static Operation put(Key key, Version version, Payload value,
                                     std::uint32_t ttl_ms = 0) {
    Operation op{OpType::kPut, std::move(key), version, std::move(value)};
    op.ttl_ms = ttl_ms;
    return op;
  }
  [[nodiscard]] static Operation get(Key key,
                                     std::optional<Version> version =
                                         std::nullopt) {
    return Operation{OpType::kGet, std::move(key), version, {}};
  }
  [[nodiscard]] static Operation del(Key key, Version version) {
    return Operation{OpType::kDelete, std::move(key), version, {}};
  }
  /// Conditional write: stores (key, version, value) only if the key's
  /// latest live version still equals `expected` at the evaluating replica.
  /// Best-effort in an epidemic store — the check runs against the first
  /// replica the spray reaches, not a total order (DataDroplets owns
  /// ordering above us, paper §III); it is exact in the steady state and a
  /// conflict detector under races, not a linearizable CAS.
  [[nodiscard]] static Operation cas(Key key, Version expected,
                                     Version version, Payload value) {
    return Operation{OpType::kCompareAndPut, std::move(key), version,
                     std::move(value), expected};
  }
  /// Admin op: the contact node answers directly with its rendered metrics
  /// snapshot (Prometheus text) in the reply object's value. Never sprayed.
  [[nodiscard]] static Operation stats() {
    return Operation{OpType::kStats, {}, std::nullopt, {}};
  }
};

/// An operation with its request identity, as routed through the system.
/// rid.client doubles as the issuing client's NodeId — replies go there.
struct RoutedOp {
  RequestId rid;
  Operation op;
};

/// Exact wire sizes (senders use these to keep batched messages under the
/// one-datagram transport ceiling by splitting, instead of having the UDP
/// layer silently drop an oversized frame).
[[nodiscard]] std::size_t encoded_size(const Operation& op);
[[nodiscard]] std::size_t encoded_size(const RoutedOp& routed);

/// Per-message payload budget batched senders chunk against: safely under
/// net::kMaxFramePayload (~60 kB) with headroom for envelope/spray/frame
/// framing around the op list.
constexpr std::size_t kBatchBytesBudget = 48 * 1024;

/// Splits `items` into budget-sized chunks: `size_of(item)` gives each
/// element's encoded size, `flush(chunk)` is called once per non-empty
/// chunk (elements are moved in). An element alone over the budget still
/// ships as its own chunk — the transport's hard cap decides its fate.
template <typename T, typename SizeFn, typename FlushFn>
void chunk_by_budget(std::vector<T>& items, SizeFn&& size_of,
                     FlushFn&& flush) {
  std::vector<T> chunk;
  std::size_t chunk_bytes = 0;
  for (T& item : items) {
    const std::size_t item_bytes = size_of(item);
    if (!chunk.empty() && chunk_bytes + item_bytes > kBatchBytesBudget) {
      flush(chunk);
      chunk.clear();
      chunk_bytes = 0;
    }
    chunk_bytes += item_bytes;
    chunk.push_back(std::move(item));
  }
  if (!chunk.empty()) flush(chunk);
}

/// Client -> contact node: a batch of operations in one datagram.
struct OpEnvelope {
  std::uint8_t protocol = kOpProtocolVersion;
  std::vector<RoutedOp> ops;
};

// ---- inner payloads carried by the spray router ----------------------------

enum class InnerKind : std::uint8_t { kOps = 1, kHandoff = 3 };

/// Operations travelling toward one slice: the contact node regroups an
/// envelope's ops by target slice and sprays each group as a unit, so a
/// batch costs one epidemic dissemination instead of N.
struct OpsRequest {
  std::vector<RoutedOp> ops;
};

/// An object being re-homed to its slice without a waiting client: hinted
/// handoff for replicas that landed on the wrong node (stale slice views,
/// slice changes). No ack is produced; durability is restored by storage at
/// the slice plus anti-entropy.
struct HandoffRequest {
  store::Object object;
};

[[nodiscard]] Payload encode_inner(const OpsRequest& req);
[[nodiscard]] Payload encode_inner(const HandoffRequest& req);
[[nodiscard]] std::optional<InnerKind> peek_inner_kind(const Payload& payload);
[[nodiscard]] std::optional<OpsRequest> decode_ops(const Payload& payload);
[[nodiscard]] std::optional<HandoffRequest> decode_handoff(
    const Payload& payload);

// ---- envelope / reply (unicast) ---------------------------------------------

[[nodiscard]] Payload encode(const OpEnvelope& msg);
[[nodiscard]] std::optional<OpEnvelope> decode_op_envelope(
    const Payload& payload);

/// Per-operation outcome carried in a reply batch.
enum class OpStatus : std::uint8_t {
  kOk = 1,          ///< put/delete/cas stored; get/stats served
  kDeleted = 2,     ///< get: the key is authoritatively deleted (tombstone)
  kSuperseded = 3,  ///< put: discarded — outranked by the key's tombstone
  kCasFailed = 4,   ///< cas: expected version did not match (the reply
                    ///< object carries the key's actual current version;
                    ///< a deleted key fails with the tombstone's version)
  kOverloaded = 5,  ///< the node refused this op under admission control;
                    ///< retry later / elsewhere (whole-envelope shedding
                    ///< uses the cheaper kOverloaded frame instead)
};

struct OpReply {
  RequestId rid;
  OpType type = OpType::kGet;
  OpStatus status = OpStatus::kOk;
  /// Get hit: the full object. Put/delete acks, deleted-gets and
  /// superseded-puts: key and version with an empty value.
  store::Object object;
};

[[nodiscard]] std::size_t encoded_size(const OpReply& reply);

/// Replica -> client: every operation this replica served out of one
/// delivered batch (a single datagram regardless of batch size). Carries
/// the replica's slice and the fleet's slice count, so the client learns
/// both how to map keys to slices and which node serves which slice
/// (paper §VII). A replica that cannot serve some get keeps that op
/// spreading inside the slice instead of answering it; the client absorbs
/// the resulting duplicate replies by request id (paper §V).
struct OpReplyBatch {
  NodeId replica;
  SliceId slice = 0;
  std::uint32_t slice_count = 1;
  std::vector<OpReply> replies;
};

[[nodiscard]] Payload encode(const OpReplyBatch& msg);
[[nodiscard]] std::optional<OpReplyBatch> decode_op_reply_batch(
    const Payload& payload);

/// Immediate redundancy push: the delivering replica copies fresh writes
/// (and tombstones) to a few slice-mates without waiting for anti-entropy.
/// One message carries every object stored out of a delivered batch.
struct ReplicatePush {
  std::vector<store::Object> objects;
};

[[nodiscard]] Payload encode(const ReplicatePush& msg);
[[nodiscard]] std::optional<ReplicatePush> decode_replicate_push(
    const Payload& payload);

/// Server -> client: an envelope carried a protocol version this node does
/// not serve. Explicit negotiation instead of a silent drop: the client
/// re-encodes at `supported` (when it can) without burning a retry
/// attempt. `rid` is the rejected envelope's first op, which is how the
/// client finds the owning batch.
struct VersionMismatch {
  RequestId rid;
  std::uint8_t got = 0;        ///< version the rejected envelope carried
  std::uint8_t supported = 0;  ///< the one version this server serves
};

[[nodiscard]] Payload encode(const VersionMismatch& msg);
[[nodiscard]] std::optional<VersionMismatch> decode_version_mismatch(
    const Payload& payload);

/// Server -> client: the node is overloaded and shed the envelope (or the
/// sprayed batch) owning `rid` without executing any of its ops. Explicit
/// backpressure instead of a silent drop: the client backs off for at
/// least `retry_after_ms`, retries elsewhere, and its load balancer routes
/// around this node. `rid` is the shed batch's first client op, which is
/// how the client finds the owning request (same convention as
/// VersionMismatch). This frame is part of every protocol version the
/// node serves — v1 clients receive it too and must resolve the ops
/// definitively rather than hang.
struct OverloadReply {
  RequestId rid;
  std::uint32_t retry_after_ms = 0;
};

[[nodiscard]] Payload encode(const OverloadReply& msg);
[[nodiscard]] std::optional<OverloadReply> decode_overload_reply(
    const Payload& payload);

// ---- slice advertisement (maintenance) --------------------------------------

/// Periodic gossip: "node X is in slice S under config C". Feeds the
/// intra-slice views and the slice directory used for routing shortcuts.
/// Carries the advertiser's transport endpoint (when it has one), so
/// maintenance traffic refreshes peer addresses just like PSS shuffles do.
struct SliceAdvert {
  NodeId node;
  SliceId slice = 0;
  slicing::SliceConfig config;
  std::optional<Endpoint> endpoint;
};

[[nodiscard]] Payload encode(const SliceAdvert& msg);
[[nodiscard]] std::optional<SliceAdvert> decode_slice_advert(
    const Payload& payload);

// ---- anti-entropy -----------------------------------------------------------

/// Digest exchange: `is_reply` distinguishes the answer leg (a reply must
/// not trigger another reply). Entries may be a random sample when the
/// store exceeds the digest cap. Tombstones appear as ordinary entries, so
/// a replica that missed a delete pulls the tombstone like a missed write.
struct AeDigest {
  bool is_reply = false;
  std::vector<store::DigestEntry> entries;
};

struct AePull {
  std::vector<store::DigestEntry> entries;
};

struct AePush {
  std::vector<store::Object> objects;
};

[[nodiscard]] Payload encode(const AeDigest& msg);
/// Encode an AeDigest without materializing the struct: lets anti-entropy
/// serialize straight from the store's cached digest reference.
[[nodiscard]] Payload encode_ae_digest(bool is_reply,
                                       const std::vector<store::DigestEntry>& entries);
[[nodiscard]] Payload encode(const AePull& msg);
[[nodiscard]] Payload encode(const AePush& msg);
[[nodiscard]] std::optional<AeDigest> decode_ae_digest(const Payload& payload);
[[nodiscard]] std::optional<AePull> decode_ae_pull(const Payload& payload);
[[nodiscard]] std::optional<AePush> decode_ae_push(const Payload& payload);

/// Round 1 of O(diff) anti-entropy: a fixed-size sketch of the sender's
/// slice data instead of every (key, version). Entries hash into
/// `bucket_count` buckets (hash_to_bucket over hash_combine(key_hash,
/// version)); each bucket's fingerprint XOR-folds its entries' hashes, so
/// it is order-independent and incremental. Two converged replicas
/// exchange ~8 bytes per bucket and stop; only buckets whose fingerprints
/// disagree fall back to per-key digests (round 2, AeBucketDigest).
struct AeSummary {
  std::uint32_t bucket_count = 0;
  std::uint64_t entry_count = 0;  ///< entries folded in (disambiguates empty)
  std::vector<std::uint64_t> fingerprints;  ///< one per bucket
};

/// Round 2: per-key digests for the buckets that disagreed. The responder
/// sends its entries in those buckets (is_reply = false); the summary's
/// sender pulls what it misses and answers with its own entries in the
/// same buckets (is_reply = true) so repair stays symmetric. From here the
/// classic AePull / AePush legs finish the exchange.
struct AeBucketDigest {
  bool is_reply = false;
  std::uint32_t bucket_count = 0;          ///< bucketing both sides used
  std::vector<std::uint32_t> buckets;      ///< disagreeing bucket ids
  std::vector<store::DigestEntry> entries; ///< sender's entries in them
};

[[nodiscard]] Payload encode(const AeSummary& msg);
[[nodiscard]] Payload encode(const AeBucketDigest& msg);
[[nodiscard]] std::optional<AeSummary> decode_ae_summary(
    const Payload& payload);
[[nodiscard]] std::optional<AeBucketDigest> decode_ae_bucket_digest(
    const Payload& payload);

// ---- state transfer ----------------------------------------------------------

/// Cursor-paged snapshot request for one slice's data. The cursor is the
/// last (key, version) already received; empty key means "from the start".
struct StRequest {
  SliceId slice = 0;
  store::DigestEntry cursor;
};

/// One snapshot page. Over UDP the donor bounds the page by
/// `core::kBatchBytesBudget` as well as by object count, so a page of large
/// values never exceeds what a UDP frame carries (and a lost reply is
/// recovered by re-requesting from the same cursor — no partial pages to
/// resequence). Over a stream the donor sizes pages against the transport's
/// bigger payload budget and answers one request with a burst of pages,
/// every page but the last marked `continues`: the joiner treats those as
/// progress without issuing a request per page. `done` marks the whole
/// transfer complete.
struct StReply {
  SliceId slice = 0;
  bool done = false;
  bool continues = false;
  std::vector<store::Object> objects;
};

[[nodiscard]] Payload encode(const StRequest& msg);
[[nodiscard]] Payload encode(const StReply& msg);
[[nodiscard]] std::optional<StRequest> decode_st_request(const Payload& payload);
[[nodiscard]] std::optional<StReply> decode_st_reply(const Payload& payload);

}  // namespace dataflasks::core
