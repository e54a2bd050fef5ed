#include "net/stream/stream_connection.hpp"

#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "common/ensure.hpp"

namespace dataflasks::net {

namespace {
constexpr std::size_t kReadChunk = 64 * 1024;
/// Egress entries gathered into one sendmsg: 32 frames' headers + payloads.
constexpr std::size_t kMaxIov = 64;

/// Frames are whole messages the peer is waiting on: Nagle would hold a
/// frame's tail behind the peer's delayed ACK (a timer-sized stall per
/// round trip), and flush() already coalesces everything queued into one
/// gathered write, so there is nothing left for Nagle to merge.
void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void bump(std::atomic<std::uint64_t>& counter, std::uint64_t by = 1) {
  counter.fetch_add(by, std::memory_order_relaxed);
}

void raise_watermark(std::atomic<std::uint64_t>& hwm, std::uint64_t value) {
  std::uint64_t seen = hwm.load(std::memory_order_relaxed);
  while (value > seen &&
         !hwm.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}
}  // namespace

StreamConnection::StreamConnection(runtime::RealTimeRuntime& rt,
                                   Events& events, Stats& stats,
                                   const Limits& limits, int fd)
    : rt_(rt), events_(events), stats_(stats), limits_(limits), fd_(fd) {
  ensure(fd_ >= 0, "StreamConnection: bad accepted fd");
  set_nodelay(fd_);
  state_ = State::kOpen;
  ever_open_ = true;
  last_activity_ = rt_.now();
  watch_read();
}

StreamConnection::StreamConnection(runtime::RealTimeRuntime& rt,
                                   Events& events, Stats& stats,
                                   const Limits& limits, NodeId peer,
                                   const sockaddr_in& addr)
    : rt_(rt),
      events_(events),
      stats_(stats),
      limits_(limits),
      peer_(peer),
      outbound_(true) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    state_ = State::kClosed;  // owner observes via closed(), no callback
    return;
  }
  set_nodelay(fd_);
  const int rc = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr));
  if (rc == 0) {
    state_ = State::kOpen;
    ever_open_ = true;
    last_activity_ = rt_.now();
    watch_read();
    return;
  }
  if (errno != EINPROGRESS) {
    ::close(fd_);
    fd_ = -1;
    state_ = State::kClosed;
    return;
  }
  state_ = State::kConnecting;
  last_activity_ = rt_.now();
  // The handshake resolves as a writability event (POLLOUT on success,
  // POLLERR/POLLHUP on refusal); SO_ERROR disambiguates.
  rt_.watch_fd_writable(fd_, [this] { on_writable(); });
  write_watched_ = true;
  arm_connect_timeout();
}

StreamConnection::~StreamConnection() {
  connect_timer_.cancel();
  if (fd_ >= 0) {
    rt_.unwatch_fd(fd_);
    rt_.unwatch_fd_writable(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

void StreamConnection::arm_connect_timeout() {
  connect_timer_ = rt_.schedule_after(limits_.connect_timeout, [this] {
    if (state_ == State::kConnecting) close();
  });
}

void StreamConnection::watch_read() {
  rt_.watch_fd(fd_, [this] { on_readable(); });
}

void StreamConnection::close() {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  connect_timer_.cancel();
  if (fd_ >= 0) {
    rt_.unwatch_fd(fd_);
    rt_.unwatch_fd_writable(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  egress_.clear();
  egress_bytes_ = 0;
  head_offset_ = 0;
  // Last action: the owner may mark this connection for destruction.
  events_.on_stream_closed(*this);
}

bool StreamConnection::send(const Message& msg) {
  if (state_ == State::kClosed) return false;
  if (msg.payload.size() > kMaxStreamPayload) return false;
  const std::size_t frame_bytes = kStreamHeaderSize + msg.payload.size();
  if (egress_bytes_ + frame_bytes > limits_.max_egress_bytes) {
    // The peer is not draining: buffering further would hide the stall and
    // grow without bound. Close; the caller falls back or drops, exactly
    // like a congested datagram path.
    bump(stats_.egress_overflows);
    close();
    return false;
  }
  enqueue(encode_stream_header(msg));
  if (msg.payload.size() > 0) enqueue(msg.payload);
  bump(stats_.frames_out);
  if (state_ == State::kOpen) flush();
  return state_ != State::kClosed;
}

void StreamConnection::enqueue(Payload bytes) {
  egress_bytes_ += bytes.size();
  raise_watermark(stats_.egress_queue_hwm, egress_bytes_);
  egress_.push_back(std::move(bytes));
}

void StreamConnection::flush() {
  while (!egress_.empty()) {
    // One gathered write for everything queued (a frame is a header entry
    // plus a payload view): the socket sees whole frames at once instead
    // of a 26-byte header segment followed by its body.
    iovec iov[kMaxIov];
    std::size_t count = 0;
    for (auto it = egress_.begin(); it != egress_.end() && count < kMaxIov;
         ++it, ++count) {
      const std::size_t skip = count == 0 ? head_offset_ : 0;
      iov[count].iov_base = const_cast<std::uint8_t*>(it->data() + skip);
      iov[count].iov_len = it->size() - skip;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    // MSG_NOSIGNAL: a peer that closed mid-write must surface as EPIPE,
    // not kill the process.
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      bump(stats_.bytes_out, static_cast<std::uint64_t>(n));
      egress_bytes_ -= static_cast<std::size_t>(n);
      last_activity_ = rt_.now();
      // Retire fully written entries; a partial one keeps its offset.
      std::size_t left = static_cast<std::size_t>(n);
      while (left > 0) {
        const std::size_t rest = egress_.front().size() - head_offset_;
        if (left < rest) {
          head_offset_ += left;
          break;
        }
        left -= rest;
        egress_.pop_front();
        head_offset_ = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close();
    return;
  }
  if (egress_.empty()) {
    if (write_watched_) {
      rt_.unwatch_fd_writable(fd_);
      write_watched_ = false;
    }
  } else if (!write_watched_) {
    rt_.watch_fd_writable(fd_, [this] { on_writable(); });
    write_watched_ = true;
  }
}

void StreamConnection::on_writable() {
  if (state_ == State::kConnecting) {
    finish_connect();
    return;
  }
  if (state_ == State::kOpen) flush();
}

void StreamConnection::finish_connect() {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
    close();
    return;
  }
  became_open();
}

void StreamConnection::became_open() {
  state_ = State::kOpen;
  ever_open_ = true;
  connect_timer_.cancel();
  last_activity_ = rt_.now();
  watch_read();
  events_.on_stream_open(*this);
  if (state_ != State::kOpen) return;  // the owner may have closed us
  // Frames queued while the handshake was in flight go out now; flush also
  // rights the writable watch (keeps it while data remains, drops it
  // otherwise).
  flush();
}

void StreamConnection::on_readable() {
  std::uint8_t buf[kReadChunk];
  while (state_ == State::kOpen) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      bump(stats_.bytes_in, static_cast<std::uint64_t>(n));
      last_activity_ = rt_.now();
      decoder_.feed(ByteView(buf, static_cast<std::size_t>(n)));
      if (decoder_.failed()) {
        // Framing desynchronized (bad magic / oversized length): nothing
        // after this point can be trusted, so the stream dies.
        bump(stats_.reassembly_errors);
        close();
        return;
      }
      while (auto msg = decoder_.poll()) {
        bump(stats_.frames_in);
        if (!peer_.valid()) peer_ = msg->src;
        events_.on_stream_message(*this, std::move(*msg));
        // The handler may have replied (fine) or closed us (stop).
        if (state_ != State::kOpen) return;
      }
      continue;
    }
    if (n == 0) {  // orderly shutdown by the peer
      close();
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close();
    return;
  }
}

}  // namespace dataflasks::net
