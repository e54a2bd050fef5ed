// Real network transport: one nonblocking IPv4 UDP socket per process,
// integrated with the RealTimeRuntime's poll step. Peer routing goes
// through an AddressBook fed from three sources: static configuration
// (add_peer / resolved seeds, pinned), gossip-learned endpoints
// (learn_endpoint, stamped and authoritative), and datagram source
// addresses (so a client on an ephemeral port receives replies without
// pre-registration). Gossip keeps the table healing under churn exactly
// like the membership does: a node that restarts on a new port re-enters
// routing via its fresher-stamped self-descriptor, no reconfiguration.
//
// Single-seed join: add_seed() probes a bare host:port with a transport-
// level discovery frame (retried until answered); the reply carries the
// node id(s) living at that address, which are pinned and handed to the
// seed listener so the owner can bootstrap its PSS from them.
//
// Semantics match SimTransport deliberately: fire-and-forget sends, drops
// are counted not surfaced, and a handler is invoked synchronously on the
// runtime loop thread for every decoded datagram addressed to it.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/address_book.hpp"
#include "net/transport.hpp"
#include "runtime/real_time_runtime.hpp"

namespace dataflasks::net {

/// Resolves a host to a dotted-quad IPv4 address: numeric addresses pass
/// through, anything else goes through getaddrinfo (DNS, /etc/hosts — so
/// "localhost" and real hostnames both work in --listen/--peer). Returns
/// nullopt when the name does not resolve to an IPv4 address.
[[nodiscard]] std::optional<std::string> resolve_ipv4(const std::string& host);

/// Transport-level discovery frames (single-seed join). Handled inside
/// UdpTransport, below protocol dispatch: a probe asks "which node ids
/// live at this address?", the reply names one registered node and carries
/// its advertised endpoint. Allocated above every protocol type range, so
/// they classify as MsgCategory::kOther.
constexpr std::uint16_t kAddrProbe = 0x0600;
constexpr std::uint16_t kAddrProbeReply = 0x0601;

/// Transport-level stats scrape: a kStatsRequest frame is answered (when a
/// stats provider is installed) with a kStatsReply whose payload is the
/// provider's text, truncated to one datagram. The UDP twin of the HTTP
/// /metrics endpoint — reachable with nothing but the cluster transport.
/// The reply is addressed to the requesting frame's src and dispatched to
/// that node's registered handler on the requester side.
constexpr std::uint16_t kStatsRequest = 0x0602;
constexpr std::uint16_t kStatsReply = 0x0603;

class UdpTransport final : public Transport {
 public:
  struct Options {
    /// IPv4 address or resolvable hostname to bind ("0.0.0.0" for all
    /// interfaces).
    std::string bind_host = "127.0.0.1";
    /// 0 binds an ephemeral port (read it back via local_port()).
    std::uint16_t port = 0;
    /// Host gossiped to peers in self-descriptors (multi-homed hosts, or
    /// when binding 0.0.0.0). Empty uses bind_host; a transport bound to
    /// 0.0.0.0 with no advertise_host gossips no endpoint at all.
    std::string advertise_host;
    /// TCP stream port stamped into the advertised endpoint (0 = none).
    /// The stream listener binds before this transport is constructed, so
    /// gossip and discovery probes carry the resolved port from the start.
    std::uint16_t advertise_stream_port = 0;
    /// Bound on dynamically learned peer addresses; static peers and
    /// resolved seeds are pinned and excluded from the bound.
    std::size_t max_learned_peers = 1024;
    /// Retry cadence for unanswered seed probes.
    SimTime seed_probe_period = 500 * kMillis;
    /// Sets SO_REUSEPORT before bind, so N shard transports share one
    /// addr:port and the kernel spreads datagrams across them by source
    /// 4-tuple hash — the sharded server's ingress partitioning.
    bool reuse_port = false;
    /// Batched datagram I/O: recvmmsg on the drain path and sendmmsg with a
    /// same-loop-pass egress buffer, so per-packet syscall overhead stops
    /// dominating the hot path. Single-syscall fallback off-Linux (and when
    /// disabled here, which tests use to pin down behavior differences).
    bool batch_io = true;
  };

  /// Invoked once per seed whose probe is answered, with the node id that
  /// lives at the seed address (already pinned by then).
  using SeedListener = std::function<void(NodeId)>;

  /// Opens and binds the socket and registers it with the runtime's poll
  /// step. Throws via ensure() on socket/bind failure (misconfiguration is
  /// fatal at boot, unlike runtime drops).
  UdpTransport(runtime::RealTimeRuntime& rt, Options options);
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// Statically maps `node` to host:port (pinned: immune to eviction and
  /// to datagram-source overwrites; a fresher gossiped stamp still heals).
  void add_peer(NodeId node, const std::string& host, std::uint16_t port);

  /// Single-seed join: probes host:port until the process there answers
  /// with its node id, then pins the address and fires the seed listener.
  void add_seed(const std::string& host, std::uint16_t port);
  void set_seed_listener(SeedListener listener) {
    seed_listener_ = std::move(listener);
  }

  /// Installs the snapshot renderer answering kStatsRequest frames; unset,
  /// such frames are dropped (counted, not answered) unless a forwarder is
  /// installed.
  using StatsProvider = std::function<std::string()>;
  void set_stats_provider(StatsProvider provider) {
    stats_provider_ = std::move(provider);
  }

  /// Shard plumbing: a worker transport has no stats provider of its own;
  /// the forwarder hands the request (plus requester address) to the shard
  /// group, which mails it to shard 0 for rendering. Consulted only when no
  /// provider is installed.
  using StatsForwarder = std::function<void(const Message&, const sockaddr_in&)>;
  void set_stats_forwarder(StatsForwarder forwarder) {
    stats_forwarder_ = std::move(forwarder);
  }

  /// Renders via the installed provider and answers to `from` out of this
  /// socket. Public so shard 0 can answer a scrape that arrived on a
  /// sibling shard's socket (with SO_REUSEPORT every socket shares the
  /// same source address, so the requester cannot tell the difference).
  void answer_stats_request(const Message& msg, const sockaddr_in& from) {
    handle_stats_request(msg, from);
  }
  [[nodiscard]] std::size_t pending_seeds() const {
    return pending_seeds_.size();
  }

  [[nodiscard]] std::uint16_t local_port() const { return local_port_; }
  [[nodiscard]] bool knows_peer(NodeId node) const {
    return book_.contains(node);
  }
  [[nodiscard]] const AddressBook& peers() const { return book_; }
  /// Mutable address table: the DualTransport resolves stream dial
  /// addresses from it and installs the eviction listener that closes an
  /// evicted peer's cached stream connection.
  [[nodiscard]] AddressBook& book() { return book_; }

  /// Directed discovery probe to an already-known peer (clients use it to
  /// learn a server's advertised endpoint — including its stream port —
  /// without joining gossip). The answer is adopted via learn_endpoint;
  /// unknown peers are a no-op.
  void probe_peer(NodeId node);

  void send(Message msg) override;

  /// Sends to an explicit socket address, bypassing the AddressBook. The
  /// shard router uses it for addresses carried in slice snapshots and for
  /// client replies from executor shards (the client's address was observed
  /// on the ingress shard's socket, not this one). Counted like send().
  void send_to(const Message& msg, const sockaddr_in& to);

  /// Feeds a datagram-source observation into this transport's book, as if
  /// the datagram had arrived on this socket. Owner-thread-only like every
  /// other method; the shard router mails it ahead of forwarded messages so
  /// shard 0 can route replies to clients seen on worker sockets.
  void observe_peer(NodeId node, const sockaddr_in& from) {
    book_.observe(node, from);
  }

  void register_handler(NodeId node, Handler handler) override;
  void unregister_handler(NodeId node) override;

  [[nodiscard]] std::optional<Endpoint> local_endpoint() const override {
    return local_endpoint_;
  }
  void learn_endpoint(NodeId node, const Endpoint& endpoint) override;

  // Accounting, mirroring SimTransport's counters. Written only on the
  // owner thread; atomic so shard 0's metrics render may read every shard's
  // totals without synchronizing the loops.
  [[nodiscard]] std::uint64_t total_sent() const {
    return total_sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t total_delivered() const {
    return total_delivered_.load(std::memory_order_relaxed);
  }
  /// Sends dropped for an unknown peer, send errors, datagrams that failed
  /// frame decoding, and deliveries with no registered handler.
  [[nodiscard]] std::uint64_t total_dropped() const {
    return total_dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t decode_failures() const {
    return decode_failures_.load(std::memory_order_relaxed);
  }
  /// Delivered datagrams (those counted by total_delivered) that traveled
  /// inside a batched syscall (0 when batch_io is off or unsupported) —
  /// observability for the mmsg hot path. Probes, stats frames and decode
  /// failures taken in by a batch do not count, so the share of delivered
  /// datagrams that came batched never exceeds 1.
  [[nodiscard]] std::uint64_t batched_recv() const {
    return batched_recv_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t batched_send() const {
    return batched_send_.load(std::memory_order_relaxed);
  }

 private:
  /// Drains the socket: decodes and dispatches every queued datagram.
  void on_readable();
  /// Decodes one raw datagram and routes it (discovery frames, handler
  /// dispatch) — shared by the single-syscall and recvmmsg drain paths.
  /// True when a handler took it (it counted as delivered).
  bool process_datagram(ByteView datagram, const sockaddr_in& from);

  void send_frame_to(const Message& msg, const sockaddr_in& to);
  void enqueue_send(Payload frame, const sockaddr_in& to);
  void flush_pending_sends();
  void send_probe(const sockaddr_in& to);
  void probe_pending_seeds();
  void handle_probe(const Message& msg, const sockaddr_in& from);
  void handle_probe_reply(const Message& msg, const sockaddr_in& from);
  void handle_stats_request(const Message& msg, const sockaddr_in& from);

  /// Datagrams per batched syscall. Receive buffers are a member (one
  /// ~61 KB buffer per slot would not fit on the stack).
  static constexpr std::size_t kIoBatch = 16;

  runtime::RealTimeRuntime& runtime_;
  Options options_;
  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  std::optional<Endpoint> local_endpoint_;
  AddressBook book_;
  std::unordered_map<NodeId, Handler> handlers_;
  std::vector<sockaddr_in> pending_seeds_;
  runtime::TimerHandle seed_timer_;
  SeedListener seed_listener_;
  StatsProvider stats_provider_;
  StatsForwarder stats_forwarder_;

  struct PendingSend {
    Payload frame;  ///< keeps the encoded bytes alive until the syscall
    sockaddr_in to;
  };
  std::vector<PendingSend> pending_sends_;
  runtime::TimerHandle flush_timer_;
  std::vector<std::uint8_t> recv_buffers_;  ///< kIoBatch slots, batch_io only

  std::atomic<std::uint64_t> total_sent_{0};
  std::atomic<std::uint64_t> total_delivered_{0};
  std::atomic<std::uint64_t> total_dropped_{0};
  std::atomic<std::uint64_t> decode_failures_{0};
  std::atomic<std::uint64_t> batched_recv_{0};
  std::atomic<std::uint64_t> batched_send_{0};
};

}  // namespace dataflasks::net
