// Datagram framing and real UDP transport tests: exact round-trips, the
// fuzz discipline from test_fuzz_codecs applied to the frame codec
// (truncations at every prefix, corrupted bytes, garbage — a decoder must
// reject, never crash), and loopback delivery through real sockets
// including the learned-peer-address reply path.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "net/frame.hpp"
#include "net/udp_transport.hpp"
#include "runtime/real_time_runtime.hpp"

namespace dataflasks::net {
namespace {

Message sample_message() {
  Message msg;
  msg.src = NodeId(7);
  msg.dst = NodeId(11);
  msg.type = 0x0301;
  msg.payload = Payload(Bytes{1, 2, 3, 4, 5, 200, 0, 42});
  return msg;
}

Bytes frame_bytes(const Message& msg) {
  const Payload frame = encode_frame(msg);
  return Bytes(frame.begin(), frame.end());
}

// ---- framing ---------------------------------------------------------------

TEST(Frame, RoundTripsAllFields) {
  const Message original = sample_message();
  const Bytes wire = frame_bytes(original);
  EXPECT_EQ(wire.size(), kFrameHeaderSize + original.payload.size());

  const auto decoded = decode_frame(ByteView(wire.data(), wire.size()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->src, original.src);
  EXPECT_EQ(decoded->dst, original.dst);
  EXPECT_EQ(decoded->type, original.type);
  EXPECT_EQ(decoded->payload, original.payload);
}

TEST(Frame, RoundTripsEmptyPayload) {
  Message msg = sample_message();
  msg.payload = Payload();
  const Bytes wire = frame_bytes(msg);
  EXPECT_EQ(wire.size(), kFrameHeaderSize);
  const auto decoded = decode_frame(ByteView(wire.data(), wire.size()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload.size(), 0u);
}

TEST(Frame, RejectsEveryTruncation) {
  const Bytes wire = frame_bytes(sample_message());
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(decode_frame(ByteView(wire.data(), len)).has_value())
        << "prefix of length " << len << " must be rejected";
  }
}

TEST(Frame, RejectsTrailingGarbage) {
  Bytes wire = frame_bytes(sample_message());
  wire.push_back(0xAB);
  EXPECT_FALSE(decode_frame(ByteView(wire.data(), wire.size())).has_value());
}

TEST(Frame, RejectsBadMagic) {
  Bytes wire = frame_bytes(sample_message());
  wire[0] ^= 0xFF;
  EXPECT_FALSE(decode_frame(ByteView(wire.data(), wire.size())).has_value());
}

TEST(Frame, RejectsOversizedDeclaredLength) {
  Bytes wire = frame_bytes(sample_message());
  // The length field sits right before the payload; declare more than the
  // datagram limit while keeping the datagram itself small.
  const std::size_t len_off = kFrameHeaderSize - sizeof(std::uint32_t);
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxFramePayload + 1);
  std::memcpy(wire.data() + len_off, &huge, sizeof huge);
  EXPECT_FALSE(decode_frame(ByteView(wire.data(), wire.size())).has_value());
}

TEST(Frame, RejectsLengthDisagreeingWithDatagram) {
  Bytes wire = frame_bytes(sample_message());
  const std::size_t len_off = kFrameHeaderSize - sizeof(std::uint32_t);
  std::uint32_t declared = 0;
  std::memcpy(&declared, wire.data() + len_off, sizeof declared);
  ++declared;  // claims one byte more than the datagram carries
  std::memcpy(wire.data() + len_off, &declared, sizeof declared);
  EXPECT_FALSE(decode_frame(ByteView(wire.data(), wire.size())).has_value());
}

TEST(Frame, SurvivesSeededRandomCorruption) {
  const Bytes valid = frame_bytes(sample_message());
  Rng rng(0xF4A3);
  for (int round = 0; round < 2000; ++round) {
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < flips; ++i) {
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    // Must never crash; any result (reject or decode) is acceptable.
    (void)decode_frame(ByteView(mutated.data(), mutated.size()));
  }
}

TEST(Frame, SurvivesPureGarbage) {
  Rng rng(0xBEEF);
  for (int round = 0; round < 2000; ++round) {
    Bytes garbage(rng.next_below(128));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    (void)decode_frame(ByteView(garbage.data(), garbage.size()));
  }
}

// ---- UDP loopback ----------------------------------------------------------

TEST(UdpTransport, DeliversBetweenLoopbackSockets) {
  runtime::RealTimeRuntime rt(1);
  UdpTransport a(rt, {});
  UdpTransport b(rt, {});
  a.add_peer(NodeId(2), "127.0.0.1", b.local_port());

  std::vector<Message> received;
  b.register_handler(NodeId(2), [&](const Message& msg) {
    received.push_back(msg);
    rt.stop();
  });

  Message msg;
  msg.src = NodeId(1);
  msg.dst = NodeId(2);
  msg.type = 0x0301;
  msg.payload = Payload(Bytes{9, 8, 7});
  a.send(msg);

  rt.run_for(2 * kSeconds);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].src, NodeId(1));
  EXPECT_EQ(received[0].type, 0x0301);
  EXPECT_EQ(received[0].payload, msg.payload);
  EXPECT_EQ(b.total_delivered(), 1u);
}

TEST(UdpTransport, LearnsSenderAddressForReplies) {
  runtime::RealTimeRuntime rt(1);
  UdpTransport server(rt, {});
  UdpTransport client(rt, {});
  // Only the client knows the server statically — the reply direction must
  // work purely off the learned source address, as real client acks do.
  client.add_peer(NodeId(10), "127.0.0.1", server.local_port());

  bool reply_seen = false;
  server.register_handler(NodeId(10), [&](const Message& msg) {
    Message reply;
    reply.src = NodeId(10);
    reply.dst = msg.src;
    reply.type = msg.type;
    server.send(reply);
  });
  client.register_handler(NodeId(99), [&](const Message&) {
    reply_seen = true;
    rt.stop();
  });

  Message request;
  request.src = NodeId(99);
  request.dst = NodeId(10);
  request.type = 0x0302;
  client.send(request);

  rt.run_for(2 * kSeconds);
  EXPECT_TRUE(reply_seen);
  EXPECT_TRUE(server.knows_peer(NodeId(99)));
}

TEST(UdpTransport, CountsUnknownPeerAsDrop) {
  runtime::RealTimeRuntime rt(1);
  UdpTransport t(rt, {});
  Message msg;
  msg.src = NodeId(1);
  msg.dst = NodeId(404);
  t.send(msg);
  EXPECT_EQ(t.total_sent(), 1u);
  EXPECT_EQ(t.total_dropped(), 1u);
}

TEST(UdpTransport, DropsOversizedPayloadAtSend) {
  runtime::RealTimeRuntime rt(1);
  UdpTransport a(rt, {});
  UdpTransport b(rt, {});
  a.add_peer(NodeId(2), "127.0.0.1", b.local_port());
  Message msg;
  msg.src = NodeId(1);
  msg.dst = NodeId(2);
  msg.payload = Payload(Bytes(kMaxFramePayload + 1, 0xCC));
  a.send(msg);
  EXPECT_EQ(a.total_dropped(), 1u);
}

TEST(UdpTransport, AdvertisesStampedLocalEndpoint) {
  runtime::RealTimeRuntime rt(1);
  UdpTransport a(rt, {});
  UdpTransport b(rt, {});
  const auto ea = a.local_endpoint();
  const auto eb = b.local_endpoint();
  ASSERT_TRUE(ea.has_value());
  ASSERT_TRUE(eb.has_value());
  EXPECT_EQ(ea->ip, 0x7F000001u);  // 127.0.0.1, host byte order
  EXPECT_EQ(ea->port, a.local_port());
  // Stamps are strictly ordered by creation: a restarted transport always
  // outranks its previous incarnation.
  EXPECT_LT(ea->stamp, eb->stamp);

  UdpTransport::Options wildcard;
  wildcard.bind_host = "0.0.0.0";
  UdpTransport c(rt, wildcard);
  EXPECT_FALSE(c.local_endpoint().has_value())
      << "the wildcard address is not reachable and must not be gossiped";
}

TEST(UdpTransport, GossipLearnedEndpointRoutesSends) {
  runtime::RealTimeRuntime rt(1);
  UdpTransport a(rt, {});
  UdpTransport b(rt, {});
  // No add_peer: a learns b's address purely from a gossiped endpoint.
  a.learn_endpoint(NodeId(2), Endpoint{0x7F000001, b.local_port(), 5});
  EXPECT_TRUE(a.knows_peer(NodeId(2)));

  bool delivered = false;
  b.register_handler(NodeId(2), [&](const Message&) {
    delivered = true;
    rt.stop();
  });
  Message msg;
  msg.src = NodeId(1);
  msg.dst = NodeId(2);
  msg.type = 0x0301;
  a.send(msg);
  rt.run_for(2 * kSeconds);
  EXPECT_TRUE(delivered);
}

TEST(UdpTransport, LearnedPeerTableIsBounded) {
  runtime::RealTimeRuntime rt(1);
  UdpTransport::Options options;
  options.max_learned_peers = 4;
  UdpTransport target(rt, options);
  target.add_peer(NodeId(1000), "127.0.0.1", 7999);  // pinned, exempt
  target.register_handler(NodeId(500), [](const Message&) {});

  // A parade of ephemeral-port clients; each datagram learns an entry, but
  // the table must not grow past the bound (+ the pinned entry).
  std::vector<std::unique_ptr<UdpTransport>> clients;
  for (std::uint64_t i = 0; i < 10; ++i) {
    clients.push_back(std::make_unique<UdpTransport>(rt, UdpTransport::Options{}));
    clients.back()->add_peer(NodeId(500), "127.0.0.1", target.local_port());
    Message msg;
    msg.src = NodeId(i);
    msg.dst = NodeId(500);
    msg.type = 0x0301;
    clients.back()->send(msg);
  }
  const SimTime deadline = rt.now() + 5 * kSeconds;
  while (target.total_delivered() < 10 && rt.now() < deadline) {
    rt.run_for(20 * kMillis);
  }
  ASSERT_EQ(target.total_delivered(), 10u);
  EXPECT_LE(target.peers().learned_count(), 4u);
  EXPECT_TRUE(target.knows_peer(NodeId(1000)));  // pinned survived
}

TEST(UdpTransport, DatagramSourceDoesNotClobberPinnedPeer) {
  runtime::RealTimeRuntime rt(1);
  UdpTransport target(rt, {});
  UdpTransport real_peer(rt, {});
  UdpTransport impostor(rt, {});
  target.register_handler(NodeId(9), [](const Message&) {});
  target.add_peer(NodeId(5), "127.0.0.1", real_peer.local_port());

  // The impostor's datagrams claim src=5 from a different socket; the
  // pinned route must keep pointing at the configured address.
  impostor.add_peer(NodeId(9), "127.0.0.1", target.local_port());
  Message forged;
  forged.src = NodeId(5);
  forged.dst = NodeId(9);
  forged.type = 0x0301;
  impostor.send(forged);

  const SimTime deadline = rt.now() + 5 * kSeconds;
  while (target.total_delivered() < 1 && rt.now() < deadline) {
    rt.run_for(20 * kMillis);
  }
  ASSERT_EQ(target.total_delivered(), 1u);
  EXPECT_EQ(target.peers().port_of(NodeId(5)), real_peer.local_port());

  // Authoritative gossip (fresher stamp) is still allowed to heal it.
  target.learn_endpoint(NodeId(5),
                        Endpoint{0x7F000001, impostor.local_port(), 99});
  EXPECT_EQ(target.peers().port_of(NodeId(5)), impostor.local_port());
}

TEST(UdpTransport, SeedProbeDiscoversNodeIdAndPins) {
  runtime::RealTimeRuntime rt(1);
  UdpTransport server(rt, {});
  server.register_handler(NodeId(7), [](const Message&) {});

  UdpTransport joiner(rt, {});
  NodeId discovered;
  joiner.set_seed_listener([&](NodeId id) {
    discovered = id;
    rt.stop();
  });
  // Only an address, no id: the probe handshake resolves it.
  joiner.add_seed("127.0.0.1", server.local_port());
  EXPECT_EQ(joiner.pending_seeds(), 1u);

  rt.run_for(5 * kSeconds);
  EXPECT_EQ(discovered, NodeId(7));
  EXPECT_EQ(joiner.pending_seeds(), 0u);
  EXPECT_TRUE(joiner.knows_peer(NodeId(7)));
  EXPECT_TRUE(joiner.peers().pinned(NodeId(7)));
  EXPECT_EQ(joiner.peers().port_of(NodeId(7)), server.local_port());
  // The reply carried the server's stamped endpoint.
  EXPECT_GT(joiner.peers().stamp_of(NodeId(7)), 0u);
}

TEST(UdpTransport, SeedProbeRetriesUntilServerRegisters) {
  runtime::RealTimeRuntime rt(1);
  UdpTransport::Options fast_probe;
  fast_probe.seed_probe_period = 50 * kMillis;
  UdpTransport server(rt, {});
  UdpTransport joiner(rt, fast_probe);
  bool resolved = false;
  joiner.set_seed_listener([&](NodeId) {
    resolved = true;
    rt.stop();
  });
  // Probe a server that has not registered its node yet: the first probe
  // gets no answer; a retry after registration must still resolve it.
  joiner.add_seed("127.0.0.1", server.local_port());
  rt.run_for(120 * kMillis);
  EXPECT_FALSE(resolved);

  server.register_handler(NodeId(3), [](const Message&) {});
  rt.run_for(5 * kSeconds);
  EXPECT_TRUE(resolved);
  EXPECT_TRUE(joiner.peers().pinned(NodeId(3)));
}

TEST(UdpTransport, IgnoresGarbageDatagrams) {
  runtime::RealTimeRuntime rt(1);
  UdpTransport target(rt, {});
  bool delivered = false;
  target.register_handler(NodeId(1), [&](const Message&) { delivered = true; });

  // A raw socket throwing noise at the port: must be counted, not crash,
  // and never reach a handler.
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(target.local_port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const char noise[] = "definitely not a dataflasks frame";
  ASSERT_GT(::sendto(fd, noise, sizeof noise, 0,
                     reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
            0);
  ::close(fd);

  rt.run_for(50 * kMillis);
  EXPECT_FALSE(delivered);
  EXPECT_EQ(target.decode_failures(), 1u);
}

TEST(UdpTransport, BatchedRecvCountsOnlyDeliveredDatagrams) {
  runtime::RealTimeRuntime rt(1);
  UdpTransport server(rt, {});
  std::size_t handled = 0;
  server.register_handler(NodeId(7), [&](const Message&) {
    ++handled;
    rt.stop();
  });

  // A seed probe: the server takes it in through recvmmsg and answers it
  // inside the transport, so no handler sees it and it is not delivered.
  UdpTransport joiner(rt, {});
  joiner.set_seed_listener([&](NodeId) { rt.stop(); });
  joiner.add_seed("127.0.0.1", server.local_port());
  rt.run_for(5 * kSeconds);
  ASSERT_TRUE(joiner.knows_peer(NodeId(7)));
  EXPECT_EQ(server.total_delivered(), 0u);
  EXPECT_EQ(server.batched_recv(), 0u);

  // A protocol datagram is both delivered and counted as batched.
  joiner.send(Message{NodeId(1), NodeId(7), 0x0301, Payload(Bytes{1})});
  rt.run_for(2 * kSeconds);
  ASSERT_EQ(handled, 1u);
  EXPECT_EQ(server.total_delivered(), 1u);
  EXPECT_EQ(server.batched_recv(), 1u);
}

TEST(UdpTransport, StatsRequestAnsweredBelowProtocolDispatch) {
  // kStatsRequest is handled inside the transport, before protocol
  // dispatch: a scraper needs no node id, no registered handler and no
  // protocol state — just the server's address.
  runtime::RealTimeRuntime rt(1);
  UdpTransport server(rt, {});
  server.register_handler(NodeId(7), [&](const Message&) {});
  server.set_stats_provider([] {
    return std::string("df_test_total 42\n");
  });

  UdpTransport scraper(rt, {});
  scraper.add_peer(NodeId(7), "127.0.0.1", server.local_port());
  std::string body;
  scraper.register_handler(NodeId(0xC0FFEE), [&](const Message& msg) {
    ASSERT_EQ(msg.type, kStatsReply);
    EXPECT_EQ(msg.src, NodeId(7));  // first registered handler's node
    const ByteView view = msg.payload.view();
    body.assign(reinterpret_cast<const char*>(view.data()), view.size());
    rt.stop();
  });

  Message request;
  request.src = NodeId(0xC0FFEE);
  request.dst = NodeId(7);
  request.type = kStatsRequest;
  scraper.send(request);

  rt.run_for(2 * kSeconds);
  EXPECT_EQ(body, "df_test_total 42\n");
}

TEST(UdpTransport, StatsRequestWithoutProviderIsCountedDrop) {
  runtime::RealTimeRuntime rt(1);
  UdpTransport server(rt, {});  // no provider configured
  UdpTransport scraper(rt, {});
  scraper.add_peer(NodeId(7), "127.0.0.1", server.local_port());

  Message request;
  request.src = NodeId(0xC0FFEE);
  request.dst = NodeId(7);
  request.type = kStatsRequest;
  scraper.send(request);

  rt.run_for(100 * kMillis);
  EXPECT_EQ(server.total_dropped(), 1u);
  EXPECT_EQ(server.total_delivered(), 0u);
}

}  // namespace
}  // namespace dataflasks::net
