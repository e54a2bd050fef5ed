#include "net/udp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/ensure.hpp"
#include "net/frame.hpp"

namespace dataflasks::net {

static_assert(Transport::kDefaultMaxPayload == kMaxFramePayload,
              "the interface-level default payload budget restates the UDP "
              "frame limit; keep them in sync");

std::optional<std::string> resolve_ipv4(const std::string& host) {
  // Fast path: already a numeric IPv4 address.
  in_addr probe{};
  if (::inet_pton(AF_INET, host.c_str(), &probe) == 1) return host;

  addrinfo hints{};
  hints.ai_family = AF_INET;  // the transport is IPv4 UDP
  hints.ai_socktype = SOCK_DGRAM;
  addrinfo* results = nullptr;
  if (::getaddrinfo(host.c_str(), nullptr, &hints, &results) != 0 ||
      results == nullptr) {
    return std::nullopt;
  }
  char dotted[INET_ADDRSTRLEN] = {};
  const auto* addr = reinterpret_cast<const sockaddr_in*>(results->ai_addr);
  const char* ok =
      ::inet_ntop(AF_INET, &addr->sin_addr, dotted, sizeof dotted);
  ::freeaddrinfo(results);
  if (ok == nullptr) return std::nullopt;
  return std::string(dotted);
}

namespace {

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const auto resolved = resolve_ipv4(host);
  ensure(resolved.has_value(),
         "UdpTransport: cannot resolve host to an IPv4 address");
  ensure(::inet_pton(AF_INET, resolved->c_str(), &addr.sin_addr) == 1,
         "UdpTransport: not a numeric IPv4 address");
  return addr;
}

bool same_addr(const sockaddr_in& a, const sockaddr_in& b) {
  return a.sin_addr.s_addr == b.sin_addr.s_addr && a.sin_port == b.sin_port;
}

/// Boot stamp for this transport's advertised endpoint: wall-clock
/// microseconds, forced strictly increasing process-wide so two transports
/// created back-to-back (or a fast in-process restart) still order by
/// creation. Across real restarts the wall clock itself provides the
/// ordering, which is what lets a restarted node's endpoint outrank its
/// previous incarnation everywhere. Like tombstone GC stamps, this assumes
/// loosely synchronized (and roughly monotonic) clocks: a host whose clock
/// steps backwards across a restart gossips a stamp its peers consider
/// stale until real time catches up. Persisting the last stamp in the
/// durable data dir would close that gap; not done yet.
std::uint64_t wall_clock_micros() {
  const auto wall = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count();
  return static_cast<std::uint64_t>(wall);
}

/// Gossiped stamps further than this ahead of the local wall clock are
/// rejected: one endpoint stamped with (say) UINT64_MAX — a hugely skewed
/// clock or a hostile frame — would otherwise outrank every future honest
/// restart forever, cluster-wide. Rejected endpoints degrade gracefully:
/// the entry stays unstamped, so datagram-source observation still routes
/// the node. Generous enough that loosely synchronized clocks never trip.
constexpr std::uint64_t kMaxStampFutureSkew = 60ull * 60 * 1000 * 1000;

std::uint64_t next_boot_stamp() {
  static std::atomic<std::uint64_t> last{0};
  std::uint64_t now = wall_clock_micros();
  std::uint64_t prev = last.load(std::memory_order_relaxed);
  while (true) {
    const std::uint64_t stamp = std::max(now, prev + 1);
    if (last.compare_exchange_weak(prev, stamp, std::memory_order_relaxed)) {
      return stamp;
    }
  }
}

}  // namespace

UdpTransport::UdpTransport(runtime::RealTimeRuntime& rt, Options options)
    : runtime_(rt),
      options_(std::move(options)),
      book_(AddressBook::Options{options_.max_learned_peers}) {
#if !defined(__linux__)
  options_.batch_io = false;  // recvmmsg/sendmmsg are Linux syscalls
#endif
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  ensure(fd_ >= 0, "UdpTransport: socket() failed");

  if (options_.reuse_port) {
    const int one = 1;
    ensure(::setsockopt(fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) == 0,
           "UdpTransport: setsockopt(SO_REUSEPORT) failed");
  }

  sockaddr_in addr = make_addr(options_.bind_host, options_.port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd_);
    fd_ = -1;
    ensure(false, "UdpTransport: bind() failed (port in use?)");
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ensure(::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound),
                       &bound_len) == 0,
         "UdpTransport: getsockname() failed");
  local_port_ = ntohs(bound.sin_port);

  // What peers should be told: the advertise host when given, else the
  // bind host — unless that is the wildcard, which is not a reachable
  // address and must not be gossiped.
  const std::string& advertise = options_.advertise_host.empty()
                                     ? options_.bind_host
                                     : options_.advertise_host;
  const sockaddr_in reach = make_addr(advertise, local_port_);
  if (reach.sin_addr.s_addr != htonl(INADDR_ANY)) {
    local_endpoint_ = endpoint_of(reach, next_boot_stamp());
    local_endpoint_->stream_port = options_.advertise_stream_port;
  }

  if (options_.batch_io) {
    recv_buffers_.resize(kIoBatch *
                         (kFrameHeaderSize + kMaxFramePayload + 1024));
  }

  runtime_.watch_fd(fd_, [this]() { on_readable(); });
}

UdpTransport::~UdpTransport() {
  seed_timer_.cancel();
  flush_timer_.cancel();
  flush_pending_sends();  // best effort: don't strand queued egress
  if (fd_ >= 0) {
    runtime_.unwatch_fd(fd_);
    ::close(fd_);
  }
}

void UdpTransport::add_peer(NodeId node, const std::string& host,
                            std::uint16_t port) {
  book_.pin(node, make_addr(host, port));
}

void UdpTransport::learn_endpoint(NodeId node, const Endpoint& endpoint) {
  if (endpoint.stamp > wall_clock_micros() + kMaxStampFutureSkew) return;
  book_.learn(node, endpoint);
}

void UdpTransport::add_seed(const std::string& host, std::uint16_t port) {
  const sockaddr_in addr = make_addr(host, port);
  pending_seeds_.push_back(addr);
  send_probe(addr);
  if (!seed_timer_.active()) {
    seed_timer_ = runtime_.schedule_periodic(
        options_.seed_probe_period, options_.seed_probe_period,
        [this]() { probe_pending_seeds(); });
  }
}

void UdpTransport::probe_pending_seeds() {
  for (const sockaddr_in& addr : pending_seeds_) send_probe(addr);
}

void UdpTransport::probe_peer(NodeId node) {
  const sockaddr_in* to = book_.lookup(node);
  if (to == nullptr) return;
  send_probe(*to);
}

void UdpTransport::send_probe(const sockaddr_in& to) {
  Message probe;
  // A joining process may probe before its node registers; an invalid src
  // simply means the responder cannot pre-learn our address from the frame
  // header (it still answers to the datagram's source).
  probe.src = handlers_.empty() ? NodeId() : handlers_.begin()->first;
  probe.dst = NodeId();
  probe.type = kAddrProbe;
  Writer w;
  encode_endpoint_opt(w, local_endpoint_);
  probe.payload = w.take_payload();
  send_frame_to(probe, to);
}

void UdpTransport::send_frame_to(const Message& msg, const sockaddr_in& to) {
  Payload frame = encode_frame(msg);
  if (options_.batch_io) {
    enqueue_send(std::move(frame), to);
    return;
  }
  const ssize_t n = ::sendto(fd_, frame.data(), frame.size(), 0,
                             reinterpret_cast<const sockaddr*>(&to),
                             sizeof to);
  if (n < 0 || static_cast<std::size_t>(n) != frame.size()) {
    total_dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void UdpTransport::enqueue_send(Payload frame, const sockaddr_in& to) {
  pending_sends_.push_back(PendingSend{std::move(frame), to});
  if (pending_sends_.size() >= kIoBatch) {
    flush_pending_sends();
    return;
  }
  // One flush per loop pass: every send issued while handling the current
  // batch of events/datagrams shares the syscall. run_until pops all due
  // events before sleeping, so a zero-delay timer fires in this same pass —
  // batching adds no wire latency, only syscall coalescing.
  if (!flush_timer_.active()) {
    flush_timer_ = runtime_.schedule_at(runtime_.now(),
                                        [this]() { flush_pending_sends(); });
  }
}

void UdpTransport::flush_pending_sends() {
  if (pending_sends_.empty()) return;
  flush_timer_.cancel();
#if defined(__linux__)
  std::size_t offset = 0;
  while (offset < pending_sends_.size()) {
    const std::size_t batch =
        std::min(kIoBatch, pending_sends_.size() - offset);
    iovec iovs[kIoBatch];
    mmsghdr msgs[kIoBatch];
    std::memset(msgs, 0, sizeof msgs);
    for (std::size_t i = 0; i < batch; ++i) {
      PendingSend& p = pending_sends_[offset + i];
      iovs[i].iov_base = const_cast<std::uint8_t*>(p.frame.data());
      iovs[i].iov_len = p.frame.size();
      msgs[i].msg_hdr.msg_name = &p.to;
      msgs[i].msg_hdr.msg_namelen = sizeof p.to;
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    const int sent =
        ::sendmmsg(fd_, msgs, static_cast<unsigned int>(batch), 0);
    if (sent < 0) {
      // EAGAIN/ENOBUFS: fire-and-forget semantics drop the whole remainder
      // rather than block the loop (the datagram contract allows loss).
      total_dropped_.fetch_add(pending_sends_.size() - offset,
                               std::memory_order_relaxed);
      break;
    }
    batched_send_.fetch_add(static_cast<std::uint64_t>(sent),
                            std::memory_order_relaxed);
    offset += static_cast<std::size_t>(sent);
    if (static_cast<std::size_t>(sent) < batch) {
      // Partial batch: the next datagram hit a transient error; drop it and
      // continue with the rest.
      total_dropped_.fetch_add(1, std::memory_order_relaxed);
      ++offset;
    }
  }
#else
  for (const PendingSend& p : pending_sends_) {
    const ssize_t n = ::sendto(fd_, p.frame.data(), p.frame.size(), 0,
                               reinterpret_cast<const sockaddr*>(&p.to),
                               sizeof p.to);
    if (n < 0 || static_cast<std::size_t>(n) != p.frame.size()) {
      total_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
#endif
  pending_sends_.clear();
}

void UdpTransport::send(Message msg) {
  total_sent_.fetch_add(1, std::memory_order_relaxed);
  const sockaddr_in* to = book_.lookup(msg.dst);
  if (to == nullptr) {
    // unknown peer: same fate as a simulated blackhole
    total_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (msg.payload.size() > kMaxFramePayload) {
    total_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  send_frame_to(msg, *to);
}

void UdpTransport::send_to(const Message& msg, const sockaddr_in& to) {
  total_sent_.fetch_add(1, std::memory_order_relaxed);
  if (msg.payload.size() > kMaxFramePayload) {
    total_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  send_frame_to(msg, to);
}

void UdpTransport::handle_probe(const Message& msg, const sockaddr_in& from) {
  if (msg.src.valid()) {
    book_.observe(msg.src, from);
    Reader r(msg.payload);
    if (const auto endpoint = decode_endpoint_opt(r); endpoint && r.ok()) {
      learn_endpoint(msg.src, *endpoint);
    }
  }
  // Answer for every node living on this socket (one per server process).
  // No handler yet means the node is still booting: stay silent and let the
  // prober's retry find us ready.
  for (const auto& [node, handler] : handlers_) {
    Message reply;
    reply.src = node;
    reply.dst = msg.src;
    reply.type = kAddrProbeReply;
    Writer w;
    encode_endpoint_opt(w, local_endpoint_);
    reply.payload = w.take_payload();
    send_frame_to(reply, from);
  }
}

void UdpTransport::handle_probe_reply(const Message& msg,
                                      const sockaddr_in& from) {
  if (!msg.src.valid()) return;
  bool was_pending = false;
  std::erase_if(pending_seeds_, [&](const sockaddr_in& seed) {
    const bool match = same_addr(seed, from);
    was_pending |= match;
    return match;
  });
  if (!was_pending) {
    // Not a seed we are waiting on: a directed probe_peer() answer (or a
    // duplicate). Adopt the advertised endpoint — this is how a client
    // learns a server's stream port — but pin nothing.
    Reader r(msg.payload);
    if (const auto endpoint = decode_endpoint_opt(r); endpoint && r.ok()) {
      learn_endpoint(msg.src, *endpoint);
    }
    return;
  }
  // The seed is configuration: pin it like a static peer, then let its
  // stamped endpoint (if advertised) record freshness for future healing.
  book_.pin(msg.src, from);
  Reader r(msg.payload);
  if (const auto endpoint = decode_endpoint_opt(r); endpoint && r.ok()) {
    learn_endpoint(msg.src, *endpoint);
  }
  if (pending_seeds_.empty()) seed_timer_.cancel();
  if (seed_listener_) seed_listener_(msg.src);
}

void UdpTransport::handle_stats_request(const Message& msg,
                                        const sockaddr_in& from) {
  if (!stats_provider_) {
    if (stats_forwarder_) {
      // Worker shard: shard 0 owns the render; hand the request over.
      stats_forwarder_(msg, from);
      return;
    }
    // no provider: scrape unanswered, like a dead peer
    total_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::string text = stats_provider_();
  if (text.size() > kMaxFramePayload) {
    // One datagram per scrape: better a truncated (still line-oriented)
    // snapshot than a frame the receiving side would drop whole.
    text.resize(kMaxFramePayload);
  }
  Message reply;
  reply.src = handlers_.empty() ? NodeId() : handlers_.begin()->first;
  reply.dst = msg.src;
  reply.type = kStatsReply;
  reply.payload = Payload(ByteView(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  send_frame_to(reply, from);
}

void UdpTransport::on_readable() {
  // Drain everything queued on the socket: the poll step is level-triggered
  // but one wakeup may cover many datagrams.
#if defined(__linux__)
  if (options_.batch_io) {
    const std::size_t slot = kFrameHeaderSize + kMaxFramePayload + 1024;
    for (;;) {
      iovec iovs[kIoBatch];
      mmsghdr msgs[kIoBatch];
      sockaddr_in froms[kIoBatch];
      std::memset(msgs, 0, sizeof msgs);
      for (std::size_t i = 0; i < kIoBatch; ++i) {
        iovs[i].iov_base = recv_buffers_.data() + i * slot;
        iovs[i].iov_len = slot;
        msgs[i].msg_hdr.msg_name = &froms[i];
        msgs[i].msg_hdr.msg_namelen = sizeof froms[i];
        msgs[i].msg_hdr.msg_iov = &iovs[i];
        msgs[i].msg_hdr.msg_iovlen = 1;
      }
      const int received = ::recvmmsg(fd_, msgs, kIoBatch, 0, nullptr);
      if (received <= 0) return;  // EAGAIN: drained
      std::uint64_t delivered = 0;
      for (int i = 0; i < received; ++i) {
        delivered += process_datagram(
            ByteView(recv_buffers_.data() + i * slot, msgs[i].msg_len),
            froms[i]);
      }
      batched_recv_.fetch_add(delivered, std::memory_order_relaxed);
      if (static_cast<std::size_t>(received) < kIoBatch) return;  // drained
    }
  }
#endif
  std::uint8_t buf[kFrameHeaderSize + kMaxFramePayload + 1024];
  for (;;) {
    sockaddr_in from{};
    socklen_t from_len = sizeof from;
    const ssize_t n =
        ::recvfrom(fd_, buf, sizeof buf, 0,
                   reinterpret_cast<sockaddr*>(&from), &from_len);
    if (n < 0) {
      // EAGAIN/EWOULDBLOCK: drained. Anything else: transient; retry on the
      // next poll wakeup.
      return;
    }
    process_datagram(ByteView(buf, static_cast<std::size_t>(n)), from);
  }
}

bool UdpTransport::process_datagram(ByteView datagram,
                                    const sockaddr_in& from) {
  auto msg = decode_frame(datagram);
  if (!msg) {
    decode_failures_.fetch_add(1, std::memory_order_relaxed);
    total_dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Discovery frames are transport business, not protocol traffic.
  if (msg->type == kAddrProbe) {
    handle_probe(*msg, from);
    return false;
  }
  if (msg->type == kAddrProbeReply) {
    handle_probe_reply(*msg, from);
    return false;
  }
  if (msg->type == kStatsRequest) {
    handle_stats_request(*msg, from);
    return false;
  }
  // Record the sender's address so replies (and client acks) route
  // without static configuration; pinned routes are not clobbered.
  if (msg->src.valid()) book_.observe(msg->src, from);

  const auto it = handlers_.find(msg->dst);
  if (it == handlers_.end()) {
    total_dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  total_delivered_.fetch_add(1, std::memory_order_relaxed);
  it->second(*msg);
  return true;
}

void UdpTransport::register_handler(NodeId node, Handler handler) {
  handlers_[node] = std::move(handler);
}

void UdpTransport::unregister_handler(NodeId node) { handlers_.erase(node); }

}  // namespace dataflasks::net
