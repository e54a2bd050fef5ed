// One TCP stream to one peer: the per-connection half of the Dragonfly-style
// listener/connection split. A StreamConnection owns its fd, the incremental
// frame decoder for the read side, and a bounded egress queue of Payload
// views for the write side — a queued 1 MiB value is a refcount bump on the
// message's existing buffer, never a copy into a contiguous frame.
//
// Nonblocking throughout: dials resolve via POLLOUT + SO_ERROR, reads drain
// until EAGAIN, and writes flush as far as the socket accepts — one gathered
// sendmsg over the queued views, on a TCP_NODELAY socket — parking the
// remainder behind a writable watch. Backpressure is a hard bound: when the
// egress queue would exceed its byte budget the connection closes (the
// DualTransport falls back to UDP or drops, exactly like a congested
// datagram path) rather than buffering without limit.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <deque>

#include "common/types.hpp"
#include "net/message.hpp"
#include "net/stream/stream_frame.hpp"
#include "runtime/real_time_runtime.hpp"

namespace dataflasks::net {

class StreamConnection {
 public:
  struct Limits {
    /// Egress bytes queued beyond the socket buffer before the connection
    /// is declared wedged and closed.
    std::size_t max_egress_bytes = 64 * 1024 * 1024;
    SimTime connect_timeout = 5 * kSeconds;
    SimTime idle_timeout = 120 * kSeconds;
  };

  /// Owner callbacks. The owner (StreamTransport) outlives every
  /// connection. None fire from inside the constructors (a failed dial is
  /// observed via closed() after construction); on_stream_closed fires at
  /// most once per stored connection, and the owner must defer destruction
  /// of the connection object until the current dispatch unwinds (it may be
  /// called from inside the connection's own read loop).
  struct Events {
    virtual ~Events() = default;
    virtual void on_stream_message(StreamConnection& conn, Message msg) = 0;
    /// An outbound handshake resolved successfully (async path only).
    virtual void on_stream_open(StreamConnection& conn) = 0;
    virtual void on_stream_closed(StreamConnection& conn) = 0;
  };

  /// Counter block shared by every connection of one transport. Atomics:
  /// the metrics endpoint renders them from another thread.
  struct Stats {
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> bytes_out{0};
    std::atomic<std::uint64_t> frames_in{0};
    std::atomic<std::uint64_t> frames_out{0};
    std::atomic<std::uint64_t> reassembly_errors{0};
    std::atomic<std::uint64_t> egress_overflows{0};
    std::atomic<std::uint64_t> egress_queue_hwm{0};  ///< high watermark
  };

  /// Wraps an accepted (already connected) fd. `fd` must be nonblocking.
  StreamConnection(runtime::RealTimeRuntime& rt, Events& events, Stats& stats,
                   const Limits& limits, int fd);

  /// Initiates a nonblocking connect to `addr` on behalf of peer `peer`.
  /// open() turns true once the handshake resolves; a refused/timed-out
  /// dial surfaces as on_stream_closed without ever having been open.
  StreamConnection(runtime::RealTimeRuntime& rt, Events& events, Stats& stats,
                   const Limits& limits, NodeId peer, const sockaddr_in& addr);

  StreamConnection(const StreamConnection&) = delete;
  StreamConnection& operator=(const StreamConnection&) = delete;
  ~StreamConnection();

  /// Queues one frame (header + payload view). Returns false when the
  /// connection is closed, or when the enqueue overflowed the egress budget
  /// (which closes the connection). Legal while still connecting: frames
  /// flush the moment the handshake resolves.
  bool send(const Message& msg);

  /// Closes the socket and notifies the owner (once).
  void close();

  [[nodiscard]] bool open() const { return state_ == State::kOpen; }
  /// True once the connection has ever been open (distinguishes a failed
  /// dial from a connection that carried traffic and then closed).
  [[nodiscard]] bool ever_open() const { return ever_open_; }
  [[nodiscard]] bool connecting() const {
    return state_ == State::kConnecting;
  }
  [[nodiscard]] bool closed() const { return state_ == State::kClosed; }
  /// Peer NodeId: set at dial time for outbound connections, adopted from
  /// the first frame's src for inbound ones (invalid until then).
  [[nodiscard]] NodeId peer() const { return peer_; }
  void set_peer(NodeId peer) { peer_ = peer; }
  /// True for connections this end dialed (vs. accepted).
  [[nodiscard]] bool outbound() const { return outbound_; }
  [[nodiscard]] std::size_t egress_bytes() const { return egress_bytes_; }
  [[nodiscard]] SimTime last_activity() const { return last_activity_; }
  [[nodiscard]] int fd() const { return fd_; }

 private:
  enum class State { kConnecting, kOpen, kClosed };

  void watch_read();
  void on_readable();
  void on_writable();
  void finish_connect();
  void became_open();
  void flush();
  void enqueue(Payload bytes);
  void arm_connect_timeout();

  runtime::RealTimeRuntime& rt_;
  Events& events_;
  Stats& stats_;
  Limits limits_;

  int fd_ = -1;
  State state_ = State::kClosed;
  NodeId peer_{};
  bool outbound_ = false;
  bool ever_open_ = false;
  bool write_watched_ = false;

  StreamFrameDecoder decoder_;

  /// Egress: Payload views in write order; head_offset_ tracks the bytes of
  /// the front entry already accepted by the socket.
  std::deque<Payload> egress_;
  std::size_t head_offset_ = 0;
  std::size_t egress_bytes_ = 0;

  SimTime last_activity_ = 0;
  runtime::TimerHandle connect_timer_;
};

}  // namespace dataflasks::net
