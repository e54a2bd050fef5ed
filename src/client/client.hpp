// DataFlasks client library (paper §V): one component implements the
// operation API by contacting a node from the Load Balancer; the other
// deals with reply messages — "it must know how to handle multiple replies
// for the same request", which epidemic dissemination naturally produces,
// by deduplicating on the request identifier.
//
// The client speaks the versioned operation API: every request — a single
// put, get or delete, or an explicit batch — is one OpEnvelope datagram,
// and replicas answer with OpReplyBatch messages. Batches resolve per
// operation; timeouts retry only the operations still unresolved.
//
// The client also stamps versions for puts and deletes (standing in for
// DataDroplets, which the paper says totally orders operations before they
// reach DataFlasks): a monotonic per-key counter.
//
// This is the callback core; client/session.hpp layers a futures-based
// surface (Session::put/get/del/put_batch/get_many) on top of it.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/load_balancer.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/messages.hpp"
#include "net/transport.hpp"
#include "runtime/runtime.hpp"
#include "store/object.hpp"

namespace dataflasks::client {

struct ClientOptions {
  SimTime request_timeout = 2 * kSeconds;
  std::uint32_t max_attempts = 4;  ///< total tries (1 initial + retries)
  /// Hedged reads: when > 0, a read-only request with unanswered gets is
  /// re-sent to a *second* contact after this delay (without consuming a
  /// retry attempt). Cuts tail latency when the first contact is slow or
  /// dead, at the cost of occasional duplicate work — which the reply
  /// dedup absorbs anyway.
  SimTime get_hedge_delay = 0;
  /// Operation-API protocol to open with. A server answering with
  /// kVersionMismatch renegotiates the client down (or the request fails
  /// as unsupported when the ops cannot be expressed at the server's
  /// version). Clamped to [kOpProtocolMin, kOpProtocolVersion].
  std::uint8_t protocol_version = core::kOpProtocolVersion;
  /// Absolute per-request budget: once this much time has passed since
  /// execute(), unresolved ops fail definitively as deadline_exceeded —
  /// no further retries, no unbounded backoff waits. Zero means no
  /// deadline (legacy behavior: max_attempts alone bounds the request).
  SimTime op_deadline = 0;
  /// Backoff after an explicit kOverloaded shed: the retry waits
  /// max(server retry-after hint, backoff_base << (attempts-1)) capped at
  /// backoff_max, jittered ±50% to decorrelate a thundering herd.
  SimTime backoff_base = 50 * kMillis;
  SimTime backoff_max = 2 * kSeconds;
};

/// Unified per-operation outcome for batch requests.
struct OpResult {
  bool ok = false;
  core::OpType type = core::OpType::kGet;
  /// Get only: the key is authoritatively deleted (a replica holds its
  /// tombstone). `ok` is false; this is a definitive miss, not a timeout.
  bool deleted = false;
  /// Put only: the store discarded the write because the key's tombstone
  /// outranks its version. `ok` is false; definitive, not a timeout.
  bool superseded = false;
  /// CompareAndPut only: the precondition failed — the key's current
  /// version (in `version`; a tombstone's for a deleted key) differs from
  /// the expected one. `ok` is false; definitive, not a timeout.
  bool cas_failed = false;
  /// The op cannot be expressed at the protocol version the contacted
  /// server speaks (e.g. CompareAndPut against a v1-only cluster). `ok` is
  /// false; definitive, not a timeout.
  bool unsupported = false;
  /// Every contacted node shed the op under admission control and the
  /// retry/backoff budget ran out. `ok` is false; definitive backpressure,
  /// not a timeout — the caller should slow down before resubmitting.
  bool overloaded = false;
  /// The request's op_deadline passed before the op resolved. `ok` is
  /// false; definitive for this request (the op may still land server-side
  /// — same at-most-once caveat as a timeout).
  bool deadline_exceeded = false;
  store::Object object;  ///< get hit: the full object
  Key key;
  Version version = 0;
  NodeId replica;  ///< first replica that answered this op
  std::uint32_t attempts = 0;
  SimTime latency = 0;
};

struct PutResult {
  bool ok = false;
  /// The write lost to the key's tombstone (deleted at a higher version):
  /// a definitive rejection, not a timeout.
  bool superseded = false;
  /// The contacted cluster's protocol cannot express this put (a TTL'd put
  /// against a pre-v3 cluster). Definitive, not a timeout.
  bool unsupported = false;
  Key key;
  Version version = 0;
  NodeId replica;           ///< first acknowledging replica
  std::uint32_t attempts = 0;
  SimTime latency = 0;
};

struct GetResult {
  bool ok = false;
  /// Authoritative tombstone answer: the key was deleted (ok == false).
  bool deleted = false;
  store::Object object;
  NodeId replica;
  std::uint32_t attempts = 0;
  SimTime latency = 0;
};

struct DelResult {
  bool ok = false;
  Key key;
  Version version = 0;
  NodeId replica;
  std::uint32_t attempts = 0;
  SimTime latency = 0;
};

struct CasResult {
  bool ok = false;
  /// Precondition failed: `version` is the key's actual current version
  /// (the tombstone's when the key is deleted). Definitive, not a timeout.
  bool cas_failed = false;
  /// The contacted cluster's protocol cannot express compare-and-put.
  bool unsupported = false;
  Key key;
  Version version = 0;  ///< stored version on ok; current version on failure
  NodeId replica;
  std::uint32_t attempts = 0;
  SimTime latency = 0;
};

struct StatsResult {
  bool ok = false;
  bool unsupported = false;
  std::string text;  ///< the contact node's stats snapshot (Prometheus text)
  NodeId replica;
  std::uint32_t attempts = 0;
  SimTime latency = 0;
};

class Client {
 public:
  using PutCallback = std::function<void(const PutResult&)>;
  using GetCallback = std::function<void(const GetResult&)>;
  using DelCallback = std::function<void(const DelResult&)>;
  using CasCallback = std::function<void(const CasResult&)>;
  using StatsCallback = std::function<void(const StatsResult&)>;
  /// Fires exactly once per execute(): when every op has resolved (served,
  /// authoritatively deleted, or failed after the retry budget). Results
  /// are in the submitted op order.
  using BatchCallback = std::function<void(const std::vector<OpResult>&)>;

  Client(NodeId id, net::Transport& transport, runtime::Runtime& rt,
         LoadBalancer& balancer, Rng rng, ClientOptions options = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Submits a batch of operations as one OpEnvelope (pipelining: N ops,
  /// one round-trip). Ops may mix puts, gets and deletes across keys.
  void execute(std::vector<core::Operation> ops, BatchCallback done);

  /// Writes `value` under `key` with an explicit version (upper layers that
  /// order operations themselves use this form). Payload converts
  /// implicitly from `Bytes`; the value buffer is shared, not copied, all
  /// the way to the replicas' stores.
  void put(Key key, Payload value, Version version, PutCallback done);

  /// Put with a time-to-live: replicas stamp an absolute expiry deadline
  /// `ttl_ms` from now and the object expires cluster-wide (reaped, and
  /// answered as deleted if read first). Requires protocol v3 — against an
  /// older cluster the op fails with `unsupported` set. `ttl_ms == 0`
  /// means no expiry (identical to the plain overload).
  void put(Key key, Payload value, Version version, std::uint32_t ttl_ms,
           PutCallback done);

  /// Writes with an auto-stamped version (monotonic per key, this client).
  Version put_auto(Key key, Payload value, PutCallback done);

  /// Reads `key`; `version == nullopt` asks for the latest.
  void get(Key key, std::optional<Version> version, GetCallback done);

  /// Deletes `key` at an explicit version: replicas store a tombstone that
  /// replicates like a write and supersedes every older version.
  void del(Key key, Version version, DelCallback done);

  /// Deletes with an auto-stamped version (above this client's last write).
  Version del_auto(Key key, DelCallback done);

  /// Conditional write: stores `value` only if the key's current version
  /// equals `expected` (0 = "create only"). The new version is auto-stamped
  /// above `expected`, so a CAS chained off a get always advances. Returns
  /// the stamped version.
  Version cas(Key key, Version expected, Payload value, CasCallback done);

  /// CAS with an explicit new version (callers that order writes
  /// themselves). `version` must exceed `expected` or replicas reject it.
  void cas_at(Key key, Version expected, Version version, Payload value,
              CasCallback done);

  /// Admin op: asks the contact node for its stats snapshot (Prometheus
  /// text — the same bytes its /metrics endpoint serves).
  void stats(StatsCallback done);

  /// Next auto version for `key` (monotonic per key, disjoint across
  /// clients). put_auto/del_auto use this; batch builders call it to stamp
  /// each entry before packing the envelope.
  [[nodiscard]] Version stamp_version(const Key& key);

  /// Like stamp_version, but guaranteed to stamp strictly above `floor`
  /// (e.g. a version read from another client's write, for CAS chaining).
  [[nodiscard]] Version stamp_version_above(const Key& key, Version floor);

  [[nodiscard]] NodeId id() const { return id_; }
  /// Operation-API protocol currently spoken (moves down when a server
  /// answers kVersionMismatch).
  [[nodiscard]] std::uint8_t active_protocol() const {
    return active_protocol_;
  }
  /// The fleet's slice count as the newest reply stated it (0 before the
  /// first reply). Keys map to slices by it, so the load balancer can send
  /// a request straight to a cached replica of the key's slice.
  [[nodiscard]] std::uint32_t slice_count() const { return slice_count_; }
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  /// Operations (not batches) currently awaiting resolution.
  [[nodiscard]] std::size_t inflight() const { return rid_index_.size(); }

 private:
  struct PendingBatch {
    std::vector<core::Operation> ops;
    std::vector<OpResult> results;   ///< parallel to `ops`
    std::vector<bool> resolved;      ///< parallel to `ops`
    std::size_t unresolved = 0;
    BatchCallback done;
    std::uint64_t base_seq = 0;      ///< ops[i] has rid.seq == base_seq + i
    bool read_only = true;           ///< all gets: eligible for hedging
    std::uint32_t attempts = 0;
    /// Protocol this batch was last re-sent at after a kVersionMismatch
    /// (0 = never). One resend per adopted version: a mismatch arriving
    /// per envelope chunk must not multiply resends.
    std::uint8_t negotiated = 0;
    SimTime started = 0;
    /// Absolute resolve-by time (0 = none); set from options.op_deadline.
    SimTime deadline = 0;
    /// The current attempt's contact answered *something* (a reply batch,
    /// a version mismatch, an overload shed). Distinguishes an explicit
    /// negative from silence: only silence marks the contact unreachable.
    bool got_reply = false;
    NodeId contact;
    runtime::TimerHandle timer;
    runtime::TimerHandle hedge_timer;
    /// Pending backoff wait after a kOverloaded shed (also the dedup guard:
    /// extra shed frames for the same attempt must not multiply retries).
    runtime::TimerHandle retry_timer;
  };

  void dispatch(const net::Message& msg);
  void handle_version_mismatch(const core::VersionMismatch& mismatch);
  void handle_overloaded(NodeId from, const core::OverloadReply& shed);
  void send_batch(PendingBatch& batch);
  void send_envelopes(const PendingBatch& batch, NodeId contact);
  void on_timeout(std::uint64_t base_seq);
  /// Fails every unresolved op (`mark` sets the definitive flag on each
  /// result) and fires the batch callback.
  template <typename Mark>
  void fail_unresolved(PendingBatch& batch, const char* counter, Mark mark);
  void complete(PendingBatch& batch);
  /// The unresolved ops re-encoded as one or more envelopes, split against
  /// the per-datagram budget (an oversized frame would be dropped by UDP).
  [[nodiscard]] std::vector<Payload> encode_unresolved(
      const PendingBatch& batch) const;
  [[nodiscard]] std::optional<SliceId> slice_hint(
      const PendingBatch& batch) const;

  NodeId id_;
  net::Transport& transport_;
  runtime::Runtime& runtime_;
  LoadBalancer& balancer_;
  Rng rng_;
  ClientOptions options_;
  MetricsRegistry metrics_;
  std::uint8_t active_protocol_;
  std::uint32_t slice_count_ = 0;
  std::uint64_t next_seq_ = 1;
  std::unordered_map<Key, Version> version_counters_;
  /// Batches keyed by their base sequence number.
  std::unordered_map<std::uint64_t, PendingBatch> pending_;
  /// Every unresolved op's seq -> owning batch base_seq (reply routing).
  std::unordered_map<std::uint64_t, std::uint64_t> rid_index_;
};

}  // namespace dataflasks::client
