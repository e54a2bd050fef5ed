// Stream transport tests: incremental frame reassembly (arbitrary byte
// windows, poisoning on malformed headers), real TCP loopback through
// StreamListener/StreamConnection/StreamTransport — including a 1 MiB frame,
// the reply-rides-the-connection-back contract, TCP_NODELAY on both ends and
// timer-free sequential round trips — and the DualTransport
// policy layer: oversized sends require streams, preferred types fall back
// to UDP against stream-less peers, maintenance never leaves UDP, and an
// AddressBook eviction closes the evicted peer's cached connection.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "net/frame.hpp"
#include "net/stream/dual_transport.hpp"
#include "net/stream/stream_frame.hpp"
#include "net/stream/stream_listener.hpp"
#include "net/stream/stream_transport.hpp"
#include "net/udp_transport.hpp"
#include "runtime/real_time_runtime.hpp"

namespace dataflasks::net {
namespace {

constexpr std::uint32_t kLoopbackIp = 0x7F000001;  // 127.0.0.1, host order

Message sample_message(std::size_t payload_size = 8) {
  Message msg;
  msg.src = NodeId(7);
  msg.dst = NodeId(11);
  msg.type = 0x0301;
  Bytes bytes(payload_size);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 13 + 1);
  }
  msg.payload = Payload(bytes);
  return msg;
}

/// Drives the runtime in small steps until `done` or the timeout elapses.
void run_until(runtime::RealTimeRuntime& rt, SimTime timeout,
               const std::function<bool()>& done) {
  const SimTime deadline = rt.now() + timeout;
  while (!done() && rt.now() < deadline) {
    rt.run_for(20 * kMillis);
  }
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(kLoopbackIp);
  return addr;
}

// ---- frame decoder ---------------------------------------------------------

TEST(StreamFrame, RoundTripsOneFrame) {
  const Message original = sample_message();
  const Payload wire = encode_stream_frame(original);
  EXPECT_EQ(wire.size(), kStreamHeaderSize + original.payload.size());

  StreamFrameDecoder decoder;
  decoder.feed(wire.view());
  const auto decoded = decoder.poll();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->src, original.src);
  EXPECT_EQ(decoded->dst, original.dst);
  EXPECT_EQ(decoded->type, original.type);
  EXPECT_EQ(decoded->payload, original.payload);
  EXPECT_FALSE(decoder.poll().has_value());
  EXPECT_FALSE(decoder.failed());
  EXPECT_EQ(decoder.partial_bytes(), 0u);
}

TEST(StreamFrame, ReassemblesByteAtATime) {
  const Message original = sample_message(300);
  const Payload wire = encode_stream_frame(original);

  StreamFrameDecoder decoder;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    EXPECT_FALSE(decoder.poll().has_value())
        << "no frame may complete before byte " << wire.size();
    decoder.feed(ByteView(wire.data() + i, 1));
  }
  const auto decoded = decoder.poll();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload, original.payload);
}

TEST(StreamFrame, DecodesBackToBackFramesFromOneWindow) {
  Message a = sample_message(5);
  Message b = sample_message(60 * 1024 + 17);  // over the datagram budget
  b.type = 0x0302;
  Message c = sample_message(0);
  c.payload = Payload();

  Bytes wire;
  for (const Message* m : {&a, &b, &c}) {
    const Payload f = encode_stream_frame(*m);
    wire.insert(wire.end(), f.begin(), f.end());
  }

  StreamFrameDecoder decoder;
  decoder.feed(ByteView(wire.data(), wire.size()));
  const auto da = decoder.poll();
  const auto db = decoder.poll();
  const auto dc = decoder.poll();
  ASSERT_TRUE(da.has_value());
  ASSERT_TRUE(db.has_value());
  ASSERT_TRUE(dc.has_value());
  EXPECT_EQ(da->payload, a.payload);
  EXPECT_EQ(db->payload, b.payload);
  EXPECT_EQ(db->type, 0x0302);
  EXPECT_TRUE(dc->payload.empty());
  EXPECT_FALSE(decoder.poll().has_value());
}

TEST(StreamFrame, HeaderSplitAcrossFeedsStillParses) {
  const Message original = sample_message(40);
  const Payload wire = encode_stream_frame(original);
  // Split inside the header, then inside the payload.
  for (const std::size_t cut : {std::size_t{3}, kStreamHeaderSize - 1,
                                kStreamHeaderSize + 1, wire.size() - 1}) {
    StreamFrameDecoder decoder;
    decoder.feed(ByteView(wire.data(), cut));
    EXPECT_FALSE(decoder.poll().has_value());
    decoder.feed(ByteView(wire.data() + cut, wire.size() - cut));
    const auto decoded = decoder.poll();
    ASSERT_TRUE(decoded.has_value()) << "cut at " << cut;
    EXPECT_EQ(decoded->payload, original.payload);
  }
}

TEST(StreamFrame, BadMagicPoisonsTheDecoder) {
  const Payload wire = encode_stream_frame(sample_message());
  Bytes corrupt(wire.begin(), wire.end());
  corrupt[0] ^= 0xFF;

  StreamFrameDecoder decoder;
  decoder.feed(ByteView(corrupt.data(), corrupt.size()));
  EXPECT_TRUE(decoder.failed());
  EXPECT_FALSE(decoder.poll().has_value());
  // Poisoned: further feeds are no-ops, never a crash or resync attempt.
  decoder.feed(wire.view());
  EXPECT_TRUE(decoder.failed());
  EXPECT_FALSE(decoder.poll().has_value());
}

TEST(StreamFrame, OversizedDeclaredLengthPoisonsTheDecoder) {
  const Payload wire = encode_stream_frame(sample_message());
  Bytes corrupt(wire.begin(), wire.end());
  const std::size_t len_off = kStreamHeaderSize - sizeof(std::uint32_t);
  const auto huge = static_cast<std::uint32_t>(kMaxStreamPayload + 1);
  std::memcpy(corrupt.data() + len_off, &huge, sizeof huge);

  StreamFrameDecoder decoder;
  decoder.feed(ByteView(corrupt.data(), corrupt.size()));
  EXPECT_TRUE(decoder.failed());
  EXPECT_FALSE(decoder.poll().has_value());
}

TEST(StreamFrame, LengthAtTheLimitIsAccepted) {
  Message msg = sample_message(0);
  msg.payload = Payload(Bytes(kMaxStreamPayload, 0x5A));
  const Payload wire = encode_stream_frame(msg);
  StreamFrameDecoder decoder;
  decoder.feed(wire.view());
  const auto decoded = decoder.poll();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload.size(), kMaxStreamPayload);
  EXPECT_FALSE(decoder.failed());
}

TEST(StreamFrame, PartialBytesTracksBufferedPrefix) {
  const Payload wire = encode_stream_frame(sample_message(32));
  StreamFrameDecoder decoder;
  decoder.feed(ByteView(wire.data(), 10));
  EXPECT_EQ(decoder.partial_bytes(), 10u);
  // 26 more bytes: the 26-byte header completes and is consumed, leaving
  // 10 buffered payload bytes as the in-progress prefix.
  decoder.feed(ByteView(wire.data() + 10, kStreamHeaderSize));
  EXPECT_EQ(decoder.partial_bytes(), 10u);
  EXPECT_FALSE(decoder.poll().has_value());
}

// ---- TCP loopback ----------------------------------------------------------

struct StreamPeer {
  StreamPeer(runtime::RealTimeRuntime& rt, bool listen) {
    StreamTransport::Options options;
    options.listen = listen;
    options.listen_ip = kLoopbackIp;
    transport = std::make_unique<StreamTransport>(rt, options);
    transport->set_receiver(
        [this](const Message& msg) { received.push_back(msg); });
  }

  std::unique_ptr<StreamTransport> transport;
  std::vector<Message> received;
};

TEST(StreamTransport, ExchangesFramesAndRepliesRideTheConnectionBack) {
  runtime::RealTimeRuntime rt(1);
  StreamPeer server(rt, /*listen=*/true);
  StreamPeer client(rt, /*listen=*/false);
  ASSERT_NE(server.transport->listen_port(), 0);

  client.transport->dial(NodeId(2),
                         loopback_addr(server.transport->listen_port()));
  run_until(rt, 2 * kSeconds,
            [&] { return client.transport->connected_to(NodeId(2)); });
  ASSERT_TRUE(client.transport->connected_to(NodeId(2)));

  Message request;
  request.src = NodeId(1);
  request.dst = NodeId(2);
  request.type = 0x0301;
  request.payload = Payload(Bytes{1, 2, 3});
  EXPECT_TRUE(client.transport->send(request));
  run_until(rt, 2 * kSeconds, [&] { return !server.received.empty(); });
  ASSERT_EQ(server.received.size(), 1u);
  EXPECT_EQ(server.received[0].payload, request.payload);

  // The inbound connection bound itself to NodeId(1) from the first frame's
  // src: the server can answer with no address exchange at all.
  EXPECT_TRUE(server.transport->connected_to(NodeId(1)));
  Message reply;
  reply.src = NodeId(2);
  reply.dst = NodeId(1);
  reply.type = 0x0302;
  reply.payload = Payload(Bytes{9, 9, 9});
  EXPECT_TRUE(server.transport->send(reply));
  run_until(rt, 2 * kSeconds, [&] { return !client.received.empty(); });
  ASSERT_EQ(client.received.size(), 1u);
  EXPECT_EQ(client.received[0].payload, reply.payload);

  EXPECT_EQ(server.transport->counters().accepted.load(), 1u);
  EXPECT_EQ(client.transport->counters().dialed.load(), 1u);
  EXPECT_GE(client.transport->counters().io.frames_out.load(), 1u);
  EXPECT_GE(server.transport->counters().io.frames_in.load(), 1u);
}

TEST(StreamTransport, CarriesAMebibyteFrame) {
  runtime::RealTimeRuntime rt(1);
  StreamPeer server(rt, /*listen=*/true);
  StreamPeer client(rt, /*listen=*/false);

  client.transport->dial(NodeId(2),
                         loopback_addr(server.transport->listen_port()));

  Bytes big(1024 * 1024 + 137);
  Rng rng(0xABCD);
  for (auto& b : big) b = static_cast<std::uint8_t>(rng.next_below(256));
  Message msg;
  msg.src = NodeId(1);
  msg.dst = NodeId(2);
  msg.type = 0x0303;
  msg.payload = Payload(big);

  // Legal while the handshake is still resolving: frames queue and flush
  // the moment the connect completes.
  EXPECT_TRUE(client.transport->send(msg));
  run_until(rt, 5 * kSeconds, [&] { return !server.received.empty(); });
  ASSERT_EQ(server.received.size(), 1u);
  EXPECT_EQ(server.received[0].payload.size(), big.size());
  EXPECT_EQ(server.received[0].payload, msg.payload);
  EXPECT_GE(server.transport->counters().io.bytes_in.load(), big.size());
}

TEST(StreamTransport, FailedDialCountsAndNotifiesPeerDown) {
  runtime::RealTimeRuntime rt(1);
  StreamPeer client(rt, /*listen=*/false);
  std::vector<NodeId> down;
  client.transport->set_peer_down_listener(
      [&](NodeId node) { down.push_back(node); });

  // Nothing listens on a freshly bound-then-closed ephemeral port; grab one.
  StreamTransport::Options probe_options;
  probe_options.listen = true;
  probe_options.listen_ip = kLoopbackIp;
  std::uint16_t dead_port = 0;
  {
    StreamTransport probe(rt, probe_options);
    dead_port = probe.listen_port();
  }
  ASSERT_NE(dead_port, 0);

  client.transport->dial(NodeId(5), loopback_addr(dead_port));
  run_until(rt, 5 * kSeconds, [&] {
    return client.transport->counters().dial_failures.load() > 0;
  });
  EXPECT_EQ(client.transport->counters().dial_failures.load(), 1u);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0], NodeId(5));
  EXPECT_FALSE(client.transport->connected_to(NodeId(5)));
  EXPECT_FALSE(client.transport->dialing(NodeId(5)));
}

struct NullEvents final : StreamConnection::Events {
  void on_stream_message(StreamConnection&, Message) override {}
  void on_stream_open(StreamConnection&) override {}
  void on_stream_closed(StreamConnection&) override {}
};

bool nodelay_set(int fd) {
  int on = 0;
  socklen_t len = sizeof(on);
  return ::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, &len) == 0 &&
         on != 0;
}

TEST(StreamConnection, DialedAndAcceptedSocketsDisableNagle) {
  runtime::RealTimeRuntime rt(1);
  NullEvents events;
  StreamConnection::Stats stats;
  const StreamConnection::Limits limits;
  std::unique_ptr<StreamConnection> accepted;
  StreamListener listener(rt, kLoopbackIp, 0, [&](int fd) {
    accepted =
        std::make_unique<StreamConnection>(rt, events, stats, limits, fd);
  });
  ASSERT_NE(listener.port(), 0);

  StreamConnection dialed(rt, events, stats, limits, NodeId(2),
                          loopback_addr(listener.port()));
  ASSERT_FALSE(dialed.closed());
  EXPECT_TRUE(nodelay_set(dialed.fd()));
  run_until(rt, 2 * kSeconds, [&] { return accepted != nullptr; });
  ASSERT_NE(accepted, nullptr);
  EXPECT_TRUE(nodelay_set(accepted->fd()));
}

TEST(StreamTransport, SequentialRoundTripsWaitOnNoTimer) {
  // Each 8 KiB request goes out only after the previous 8 KiB reply came
  // back. Were a frame's body to wait behind the peer's delayed ACK of its
  // header (Nagle), every round trip past the connection's quick-ACK phase
  // would cost a delayed-ACK quantum and the loop would take seconds.
  runtime::RealTimeRuntime rt(1);
  StreamPeer server(rt, /*listen=*/true);
  StreamPeer client(rt, /*listen=*/false);
  server.transport->set_receiver([&](const Message& msg) {
    Message reply = msg;
    reply.src = msg.dst;
    reply.dst = msg.src;
    server.transport->send(reply);
  });
  std::size_t replies = 0;
  client.transport->set_receiver([&](const Message&) {
    ++replies;
    rt.stop();
  });
  client.transport->dial(NodeId(2),
                         loopback_addr(server.transport->listen_port()));
  run_until(rt, 2 * kSeconds,
            [&] { return client.transport->connected_to(NodeId(2)); });
  ASSERT_TRUE(client.transport->connected_to(NodeId(2)));

  constexpr std::size_t kRounds = 200;
  Message request = sample_message(8 * 1024);
  request.src = NodeId(1);
  request.dst = NodeId(2);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kRounds; ++i) {
    ASSERT_TRUE(client.transport->send(request));
    const SimTime deadline = rt.now() + 2 * kSeconds;
    while (replies == i && rt.now() < deadline) rt.run_until(deadline);
    ASSERT_EQ(replies, i + 1) << "round trip " << i << " never completed";
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(1))
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
             .count()
      << " ms for " << kRounds << " round trips";
}

TEST(StreamTransport, SendWithoutRouteReturnsFalse) {
  runtime::RealTimeRuntime rt(1);
  StreamPeer client(rt, /*listen=*/false);
  EXPECT_FALSE(client.transport->send(sample_message()));
}

// ---- DualTransport policy --------------------------------------------------

TEST(DualTransport, OversizedSendWithoutStreamSideIsDroppedAndCounted) {
  runtime::RealTimeRuntime rt(1);
  UdpTransport udp(rt, {});
  DualTransport dual(rt, udp, nullptr, {});
  Message msg;
  msg.src = NodeId(1);
  msg.dst = NodeId(2);
  msg.type = 0x0301;
  msg.payload = Payload(Bytes(kMaxFramePayload + 1, 0xEE));
  dual.send(msg);
  EXPECT_EQ(dual.dropped_no_stream(), 1u);
  EXPECT_EQ(udp.total_sent(), 0u) << "an oversized payload must never be "
                                     "handed to the datagram socket";
}

TEST(DualTransport, PreferredTypeFallsBackToUdpAgainstStreamlessPeer) {
  runtime::RealTimeRuntime rt(1);
  UdpTransport udp_a(rt, {});
  UdpTransport udp_b(rt, {});
  StreamTransport stream_a(rt, {});  // dial-only, never used here
  DualTransport::Options options;
  options.prefer_stream = [](std::uint16_t type) { return type == 0x0301; };
  DualTransport dual_a(rt, udp_a, &stream_a, std::move(options));

  // b is known by UDP address only — no gossiped stream port.
  udp_a.add_peer(NodeId(2), "127.0.0.1", udp_b.local_port());

  std::vector<Message> received;
  udp_b.register_handler(NodeId(2), [&](const Message& msg) {
    received.push_back(msg);
    rt.stop();
  });

  Message msg;
  msg.src = NodeId(1);
  msg.dst = NodeId(2);
  msg.type = 0x0301;
  msg.payload = Payload(Bytes{4, 5, 6});
  dual_a.send(msg);
  rt.run_for(2 * kSeconds);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].payload, msg.payload);
  EXPECT_EQ(stream_a.counters().dialed.load(), 0u)
      << "no stream port advertised, so no dial may be attempted";
}

/// Full dual wiring on both ends, mirroring ShardGroup (server) and the CLI
/// (client): the server listens and advertises its stream port; the client
/// learns it via a gossiped endpoint.
struct DualPeer {
  DualPeer(runtime::RealTimeRuntime& rt, NodeId id, bool listen,
           std::size_t max_learned = 1024) {
    StreamTransport::Options stream_options;
    stream_options.listen = listen;
    stream_options.listen_ip = kLoopbackIp;
    stream = std::make_unique<StreamTransport>(rt, stream_options);

    UdpTransport::Options udp_options;
    udp_options.max_learned_peers = max_learned;
    udp_options.advertise_stream_port = stream->listen_port();
    udp = std::make_unique<UdpTransport>(rt, udp_options);

    DualTransport::Options dual_options;
    dual_options.prefer_stream = [](std::uint16_t type) {
      return type == 0x0310;
    };
    dual = std::make_unique<DualTransport>(rt, *udp, stream.get(),
                                           std::move(dual_options));
    dual->register_handler(id, [this](const Message& msg) {
      received.push_back(msg);
    });
  }

  std::unique_ptr<StreamTransport> stream;
  std::unique_ptr<UdpTransport> udp;
  std::unique_ptr<DualTransport> dual;
  std::vector<Message> received;
};

TEST(DualTransport, OversizedDialsAdvertisedPortAndReplyRidesBack) {
  runtime::RealTimeRuntime rt(1);
  DualPeer server(rt, NodeId(2), /*listen=*/true);
  DualPeer client(rt, NodeId(1), /*listen=*/false);

  // The gossiped endpoint carries both ports; learning it is all the client
  // needs to reach the server over either transport.
  client.udp->learn_endpoint(
      NodeId(2), Endpoint{kLoopbackIp, server.udp->local_port(), 5,
                          server.stream->listen_port()});

  Bytes big(1024 * 1024);
  Rng rng(0x77);
  for (auto& b : big) b = static_cast<std::uint8_t>(rng.next_below(256));
  Message request;
  request.src = NodeId(1);
  request.dst = NodeId(2);
  request.type = 0x0301;
  request.payload = Payload(big);
  client.dual->send(request);  // held while the dial resolves, then flushed

  run_until(rt, 5 * kSeconds, [&] { return !server.received.empty(); });
  ASSERT_EQ(server.received.size(), 1u);
  EXPECT_EQ(server.received[0].payload, request.payload);

  // Oversized reply: the server has no datagram address for the client (the
  // request arrived on a stream), so the reply must ride the same
  // connection back.
  Message reply;
  reply.src = NodeId(2);
  reply.dst = NodeId(1);
  reply.type = 0x0302;
  reply.payload = Payload(Bytes(kMaxFramePayload + 77, 0x42));
  server.dual->send(reply);
  run_until(rt, 5 * kSeconds, [&] { return !client.received.empty(); });
  ASSERT_EQ(client.received.size(), 1u);
  EXPECT_EQ(client.received[0].payload, reply.payload);

  // Connected streams raise the payload ceiling the chunkers consult.
  EXPECT_EQ(client.dual->max_payload(NodeId(2)), kMaxStreamPayload);
  EXPECT_EQ(client.dual->max_payload(NodeId(99)), kMaxFramePayload);
  EXPECT_EQ(client.dual->dropped_no_stream(), 0u);
  EXPECT_EQ(server.dual->dropped_no_stream(), 0u);
}

TEST(DualTransport, MaintenanceStaysOnUdpDespiteOpenStream) {
  runtime::RealTimeRuntime rt(1);
  DualPeer server(rt, NodeId(2), /*listen=*/true);
  DualPeer client(rt, NodeId(1), /*listen=*/false);
  client.udp->learn_endpoint(
      NodeId(2), Endpoint{kLoopbackIp, server.udp->local_port(), 5,
                          server.stream->listen_port()});

  // Open the stream with a preferred-type message first.
  Message envelope;
  envelope.src = NodeId(1);
  envelope.dst = NodeId(2);
  envelope.type = 0x0310;
  envelope.payload = Payload(Bytes{1});
  client.dual->send(envelope);
  run_until(rt, 5 * kSeconds,
            [&] { return client.stream->connected_to(NodeId(2)); });
  ASSERT_TRUE(client.stream->connected_to(NodeId(2)));
  run_until(rt, 5 * kSeconds, [&] { return !server.received.empty(); });

  // A gossip-range message must still travel as a datagram.
  const auto stream_frames_before =
      client.stream->counters().io.frames_out.load();
  Message shuffle;
  shuffle.src = NodeId(1);
  shuffle.dst = NodeId(2);
  shuffle.type = 0x0100;
  shuffle.payload = Payload(Bytes{2, 2});
  client.dual->send(shuffle);
  run_until(rt, 5 * kSeconds, [&] { return server.received.size() >= 2; });
  ASSERT_EQ(server.received.size(), 2u);
  EXPECT_EQ(server.received[1].type, 0x0100);
  EXPECT_EQ(client.stream->counters().io.frames_out.load(),
            stream_frames_before)
      << "maintenance traffic must not ride the stream";
  EXPECT_GE(server.udp->total_delivered(), 1u);
}

TEST(DualTransport, AddressBookEvictionClosesCachedConnection) {
  runtime::RealTimeRuntime rt(1);
  DualPeer server(rt, NodeId(7), /*listen=*/true);
  // A client whose learned-address table holds exactly one entry: learning a
  // second peer must evict the first — and close its stream, or the fd
  // would leak until process exit.
  DualPeer client(rt, NodeId(1), /*listen=*/false, /*max_learned=*/1);
  client.udp->learn_endpoint(
      NodeId(7), Endpoint{kLoopbackIp, server.udp->local_port(), 5,
                          server.stream->listen_port()});

  Message envelope;
  envelope.src = NodeId(1);
  envelope.dst = NodeId(7);
  envelope.type = 0x0310;
  envelope.payload = Payload(Bytes{3});
  client.dual->send(envelope);
  run_until(rt, 5 * kSeconds,
            [&] { return client.stream->connected_to(NodeId(7)); });
  ASSERT_TRUE(client.stream->connected_to(NodeId(7)));
  ASSERT_EQ(client.stream->connection_count(), 1u);

  // Learning an unrelated peer overflows the one-entry table and evicts
  // NodeId(7); the eviction listener must tear the connection down.
  client.udp->learn_endpoint(NodeId(8), Endpoint{kLoopbackIp, 1, 6});
  EXPECT_FALSE(client.stream->connected_to(NodeId(7)));
  EXPECT_EQ(client.stream->connection_count(), 0u)
      << "evicted peer's cached connection must close, not leak its fd";
}

}  // namespace
}  // namespace dataflasks::net
