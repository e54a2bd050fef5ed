// The acceptance test for the runtime split: three *unmodified* DataFlasks
// nodes run over the real clock on real 127.0.0.1 UDP sockets — zero
// simulator involvement — serve a put, answer a quorum read, and replicate
// across the whole slice within a wall-clock deadline. A companion test
// pins the other half of the contract: the simulator path stays
// deterministic (same seed ⇒ same event count) after the refactor.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "client/client.hpp"
#include "client/load_balancer.hpp"
#include "common/rng.hpp"
#include "core/messages.hpp"
#include "core/node.hpp"
#include "harness/cluster.hpp"
#include "net/stream/dual_transport.hpp"
#include "net/stream/stream_transport.hpp"
#include "net/udp_transport.hpp"
#include "runtime/real_time_runtime.hpp"

namespace dataflasks {
namespace {

/// Gossip cadences compressed to tens of milliseconds so the epidemic
/// substrate converges in well under a second of wall time.
core::NodeOptions fast_real_options() {
  core::NodeOptions options;
  options.pss_period = 30 * kMillis;
  options.slicing_period = 30 * kMillis;
  options.advert_period = 30 * kMillis;
  options.ae_period = 100 * kMillis;
  options.st_tick_period = 60 * kMillis;
  options.handoff_period = 60 * kMillis;
  // One slice: every node replicates every key, so "all 3 stores hold the
  // object" is the full-replication condition.
  options.slice_config = {1, 1};
  return options;
}

struct RealNode {
  std::unique_ptr<net::UdpTransport> transport;
  std::unique_ptr<core::Node> node;
};

TEST(RealCluster, LoopbackPutQuorumGetAndFullReplication) {
  runtime::RealTimeRuntime rt(0xDF);

  // Boot 3 nodes on ephemeral loopback ports, fully meshed via the static
  // peer table (ports are only known after binding, so wire them up after
  // all sockets exist).
  constexpr std::size_t kNodes = 3;
  std::vector<RealNode> nodes(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes[i].transport = std::make_unique<net::UdpTransport>(
        rt, net::UdpTransport::Options{});
    nodes[i].node = std::make_unique<core::Node>(
        NodeId(i), /*capacity=*/1.0, rt, *nodes[i].transport,
        fast_real_options(), /*seed=*/1000 + i);
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    for (std::size_t j = 0; j < kNodes; ++j) {
      if (i == j) continue;
      nodes[i].transport->add_peer(NodeId(j), "127.0.0.1",
                                   nodes[j].transport->local_port());
    }
  }
  std::vector<NodeId> all_ids;
  for (std::size_t i = 0; i < kNodes; ++i) all_ids.emplace_back(i);
  for (std::size_t i = 0; i < kNodes; ++i) {
    std::vector<NodeId> seeds = all_ids;
    std::erase(seeds, NodeId(i));
    nodes[i].node->start(seeds);
  }

  // The client is a fourth process-equivalent: its own UDP socket, knowing
  // the servers statically; replies route back via learned addresses.
  net::UdpTransport client_transport(rt, {});
  for (std::size_t i = 0; i < kNodes; ++i) {
    client_transport.add_peer(NodeId(i), "127.0.0.1",
                              nodes[i].transport->local_port());
  }
  client::LoadBalancer balancer(all_ids, Rng(7));
  client::ClientOptions client_options;
  client_options.request_timeout = 300 * kMillis;
  client_options.max_attempts = 4;
  client::Client client(NodeId(9000), client_transport, rt, balancer, Rng(8),
                        client_options);

  // Let PSS/slicing converge.
  rt.run_for(200 * kMillis);

  const Key key = "real-cluster-key";
  const std::string value = "served-over-real-udp";
  const Version version = 42;

  // ---- put ------------------------------------------------------------
  bool put_done = false;
  client::PutResult put_result;
  client.put(key, Payload(Bytes(value.begin(), value.end())), version,
             [&](const client::PutResult& result) {
               put_result = result;
               put_done = true;
               rt.stop();
             });
  rt.run_for(5 * kSeconds);
  ASSERT_TRUE(put_done) << "put did not complete within the deadline";
  ASSERT_TRUE(put_result.ok) << "put failed after " << put_result.attempts
                             << " attempts";

  // ---- quorum get -----------------------------------------------------
  // Epidemic reads naturally produce multiple replies; the client's
  // request-id dedup returns the first. Issuing the read after the ack
  // asserts at least one live replica serves it within the deadline.
  bool get_done = false;
  client::GetResult get_result;
  client.get(key, std::nullopt, [&](const client::GetResult& result) {
    get_result = result;
    get_done = true;
    rt.stop();
  });
  rt.run_for(5 * kSeconds);
  ASSERT_TRUE(get_done) << "get did not complete within the deadline";
  ASSERT_TRUE(get_result.ok);
  EXPECT_EQ(get_result.object.key, key);
  EXPECT_EQ(get_result.object.version, version);
  EXPECT_EQ(get_result.object.value, Bytes(value.begin(), value.end()));

  // ---- full replication within a deadline ------------------------------
  // Direct replication plus anti-entropy must land the object on every
  // slice member. 10s of wall headroom; typically converges in < 1s.
  const auto replicas = [&]() {
    std::size_t count = 0;
    for (const RealNode& n : nodes) {
      if (n.node->store().contains(key, version)) ++count;
    }
    return count;
  };
  const SimTime deadline = rt.now() + 10 * kSeconds;
  while (replicas() < kNodes && rt.now() < deadline) {
    rt.run_for(50 * kMillis);
  }
  EXPECT_EQ(replicas(), kNodes)
      << "replication did not converge within the deadline";

  for (RealNode& n : nodes) n.node->crash();
}

// The acceptance test for gossip-learned addresses: a 3-node real-UDP
// cluster where node 2 is killed and restarted on a DIFFERENT port, joining
// back through a single seed address (no node id, no static peer list).
// The survivors must relearn its address purely from PSS gossip — their
// old entries are pinned to the dead port, so only the restarted node's
// fresher-stamped self-descriptor can heal them — and a subsequent put
// must replicate onto the restarted node without any add_peer call.
TEST(RealCluster, HealsAddressesAfterRestartOnNewPort) {
  runtime::RealTimeRuntime rt(0xA11);

  constexpr std::size_t kNodes = 3;
  std::vector<RealNode> nodes(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes[i].transport = std::make_unique<net::UdpTransport>(
        rt, net::UdpTransport::Options{});
    nodes[i].node = std::make_unique<core::Node>(
        NodeId(i), /*capacity=*/1.0, rt, *nodes[i].transport,
        fast_real_options(), /*seed=*/2000 + i);
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    for (std::size_t j = 0; j < kNodes; ++j) {
      if (i == j) continue;
      nodes[i].transport->add_peer(NodeId(j), "127.0.0.1",
                                   nodes[j].transport->local_port());
    }
  }
  std::vector<NodeId> all_ids;
  for (std::size_t i = 0; i < kNodes; ++i) all_ids.emplace_back(i);
  for (std::size_t i = 0; i < kNodes; ++i) {
    std::vector<NodeId> seeds = all_ids;
    std::erase(seeds, NodeId(i));
    nodes[i].node->start(seeds);
  }
  const std::uint16_t seed_port = nodes[0].transport->local_port();
  rt.run_for(200 * kMillis);

  // ---- kill node 2; bring it back on a fresh ephemeral port -----------
  const std::uint16_t old_port = nodes[2].transport->local_port();
  nodes[2].node.reset();       // dtor crashes the node
  nodes[2].transport.reset();  // closes the socket, frees the port

  net::UdpTransport::Options rejoin;
  rejoin.seed_probe_period = 50 * kMillis;
  nodes[2].transport = std::make_unique<net::UdpTransport>(rt, rejoin);
  ASSERT_NE(nodes[2].transport->local_port(), old_port)
      << "restart must land on a different port for the test to mean "
         "anything";
  nodes[2].node = std::make_unique<core::Node>(
      NodeId(2), /*capacity=*/1.0, rt, *nodes[2].transport,
      fast_real_options(), /*seed=*/2902);
  // Single-seed join: only node 0's ADDRESS is configured. The node id
  // behind it comes from the discovery probe; node 1's address and the
  // survivors' route back to us are gossip-learned.
  core::Node& rejoined = *nodes[2].node;
  nodes[2].transport->set_seed_listener(
      [&rejoined](NodeId contact) { rejoined.add_contact(contact); });
  nodes[2].transport->add_seed("127.0.0.1", seed_port);
  nodes[2].node->start({});

  // ---- survivors must relearn node 2's address via gossip alone --------
  const std::uint16_t new_port = nodes[2].transport->local_port();
  const auto survivors_healed = [&]() {
    return nodes[0].transport->peers().port_of(NodeId(2)) == new_port &&
           nodes[1].transport->peers().port_of(NodeId(2)) == new_port;
  };
  SimTime deadline = rt.now() + 10 * kSeconds;
  while (!survivors_healed() && rt.now() < deadline) {
    rt.run_for(50 * kMillis);
  }
  EXPECT_TRUE(survivors_healed())
      << "survivors kept routing node 2 to the dead port";
  // The old entries were pinned static config; only the fresher-stamped
  // gossip endpoint may have rerouted them.
  EXPECT_TRUE(nodes[0].transport->peers().pinned(NodeId(2)));
  EXPECT_GT(nodes[0].transport->peers().stamp_of(NodeId(2)), 0u);

  // ---- a fresh put must now converge onto the restarted node -----------
  net::UdpTransport client_transport(rt, {});
  for (std::size_t i = 0; i < 2; ++i) {
    client_transport.add_peer(NodeId(i), "127.0.0.1",
                              nodes[i].transport->local_port());
  }
  client::LoadBalancer balancer({NodeId(0), NodeId(1)}, Rng(7));
  client::ClientOptions client_options;
  client_options.request_timeout = 300 * kMillis;
  client_options.max_attempts = 4;
  client::Client client(NodeId(9001), client_transport, rt, balancer, Rng(8),
                        client_options);

  const Key key = "healed-cluster-key";
  bool put_done = false;
  client::PutResult put_result;
  client.put(key, Payload(Bytes{1, 2, 3}), 7,
             [&](const client::PutResult& result) {
               put_result = result;
               put_done = true;
               rt.stop();
             });
  rt.run_for(5 * kSeconds);
  ASSERT_TRUE(put_done);
  ASSERT_TRUE(put_result.ok);

  deadline = rt.now() + 10 * kSeconds;
  while (!nodes[2].node->store().contains(key, 7) && rt.now() < deadline) {
    rt.run_for(50 * kMillis);
  }
  EXPECT_TRUE(nodes[2].node->store().contains(key, 7))
      << "replication never reached the restarted node's new address";

  for (RealNode& n : nodes) n.node->crash();
}

// A real-cluster node with the full stream wiring the server binary uses:
// a listening StreamTransport, a UdpTransport advertising its port, and a
// DualTransport routing state transfer (and anything oversized) onto
// streams. When `with_stream` is false the node is UDP-only — the dual
// layer degrades to a pass-through, exactly like a pre-stream build.
struct StreamNode {
  StreamNode(runtime::RealTimeRuntime& rt, NodeId id, bool with_stream,
             std::uint64_t seed) {
    if (with_stream) {
      net::StreamTransport::Options stream_options;
      stream_options.listen = true;
      stream_options.listen_ip = 0x7F000001;
      stream = std::make_unique<net::StreamTransport>(rt, stream_options);
    }
    net::UdpTransport::Options udp_options;
    udp_options.advertise_stream_port =
        stream != nullptr ? stream->listen_port() : 0;
    udp = std::make_unique<net::UdpTransport>(rt, udp_options);

    net::DualTransport::Options dual_options;
    dual_options.prefer_stream = [](std::uint16_t type) {
      return type == core::kStRequest || type == core::kStReply;
    };
    dual = std::make_unique<net::DualTransport>(rt, *udp, stream.get(),
                                                std::move(dual_options));
    node = std::make_unique<core::Node>(id, /*capacity=*/1.0, rt, *dual,
                                        fast_real_options(), seed);
  }

  // Declaration order doubles as teardown order in reverse: the node stops
  // first, then the dual detaches its listeners, then the sockets close.
  std::unique_ptr<net::StreamTransport> stream;
  std::unique_ptr<net::UdpTransport> udp;
  std::unique_ptr<net::DualTransport> dual;
  std::unique_ptr<core::Node> node;
};

// The acceptance test for the stream transport: a ≥1 MiB value — seventeen
// times the datagram budget — round-trips through a real 3-node cluster.
// The envelope reaches the serving node over the client's dialed TCP
// connection, the replica pushes ride node-to-node streams dialed from
// gossip-learned stream ports, and the oversized get reply comes back down
// the client's own connection.
TEST(RealCluster, MebibyteValueRoundTripsOverStreams) {
  runtime::RealTimeRuntime rt(0x57E);

  constexpr std::size_t kNodes = 3;
  std::vector<std::unique_ptr<StreamNode>> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes.push_back(std::make_unique<StreamNode>(rt, NodeId(i),
                                                 /*with_stream=*/true,
                                                 /*seed=*/3000 + i));
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    for (std::size_t j = 0; j < kNodes; ++j) {
      if (i == j) continue;
      nodes[i]->udp->add_peer(NodeId(j), "127.0.0.1",
                              nodes[j]->udp->local_port());
    }
  }
  std::vector<NodeId> all_ids;
  for (std::size_t i = 0; i < kNodes; ++i) all_ids.emplace_back(i);
  for (std::size_t i = 0; i < kNodes; ++i) {
    std::vector<NodeId> seeds = all_ids;
    std::erase(seeds, NodeId(i));
    nodes[i]->node->start(seeds);
  }

  // The client mirrors dataflasks_cli: dual wiring with a dial-only stream
  // side, discovering each server's stream port via a directed probe.
  net::UdpTransport client_udp(rt, {});
  net::StreamTransport client_stream(rt, {});
  net::DualTransport::Options client_dual_options;
  client_dual_options.prefer_stream = [](std::uint16_t type) {
    return type == core::kOpEnvelope;
  };
  net::DualTransport client_transport(rt, client_udp, &client_stream,
                                      std::move(client_dual_options));
  for (std::size_t i = 0; i < kNodes; ++i) {
    client_udp.add_peer(NodeId(i), "127.0.0.1", nodes[i]->udp->local_port());
    client_udp.probe_peer(NodeId(i));
  }
  client::LoadBalancer balancer(all_ids, Rng(7));
  client::ClientOptions client_options;
  client_options.request_timeout = 500 * kMillis;
  client_options.max_attempts = 4;
  client::Client client(NodeId(9002), client_transport, rt, balancer, Rng(8),
                        client_options);

  // Convergence covers PSS/slicing AND the probe replies that carry the
  // servers' stream ports back to the client.
  rt.run_for(300 * kMillis);
  for (std::size_t i = 0; i < kNodes; ++i) {
    ASSERT_NE(client_udp.peers().stream_port_of(NodeId(i)), 0)
        << "probe reply did not deliver node " << i << "'s stream port";
  }

  const Key key = "mebibyte-key";
  const Version version = 11;
  Bytes value(1024 * 1024 + 333);
  Rng fill(0xB16);
  for (auto& b : value) b = static_cast<std::uint8_t>(fill.next_below(256));

  bool put_done = false;
  client::PutResult put_result;
  client.put(key, Payload(value), version,
             [&](const client::PutResult& result) {
               put_result = result;
               put_done = true;
               rt.stop();
             });
  rt.run_for(10 * kSeconds);
  ASSERT_TRUE(put_done) << "oversized put did not complete";
  ASSERT_TRUE(put_result.ok) << "oversized put failed after "
                             << put_result.attempts << " attempts";

  // Full replication: every replica push of this object is itself
  // oversized, so convergence proves node-to-node streams work too.
  const auto replicas = [&]() {
    std::size_t count = 0;
    for (const auto& n : nodes) {
      if (n->node->store().contains(key, version)) ++count;
    }
    return count;
  };
  const SimTime deadline = rt.now() + 15 * kSeconds;
  while (replicas() < kNodes && rt.now() < deadline) {
    rt.run_for(50 * kMillis);
  }
  EXPECT_EQ(replicas(), kNodes)
      << "oversized replication did not converge within the deadline";

  bool get_done = false;
  client::GetResult get_result;
  client.get(key, std::nullopt, [&](const client::GetResult& result) {
    get_result = result;
    get_done = true;
    rt.stop();
  });
  rt.run_for(10 * kSeconds);
  ASSERT_TRUE(get_done) << "oversized get did not complete";
  ASSERT_TRUE(get_result.ok);
  EXPECT_EQ(get_result.object.version, version);
  ASSERT_EQ(get_result.object.value.size(), value.size());
  EXPECT_EQ(get_result.object.value, value);

  // The value cannot have traveled any other way: the client dropped
  // nothing (its only oversized sends go to dialed servers), and the get
  // reply really arrived on its stream. Server nodes are NOT asserted
  // drop-free: epidemic reads make every replica that saw the relayed get
  // answer, and a non-ingress replica has no path to a client it never
  // spoke to — the client dedups on the ingress replica's streamed reply.
  EXPECT_EQ(client_transport.dropped_no_stream(), 0u);
  EXPECT_GT(client_stream.counters().io.frames_in.load(), 0u)
      << "the get reply must have arrived on the client's stream";

  for (const auto& n : nodes) n->node->crash();
}

// Mixed fleet: one node runs without any stream transport, as a node from
// a pre-stream build would. Gossip still interoperates — the stream-less
// node emits legacy descriptors, the stream nodes' tag-2 descriptors decode
// cleanly — and small values replicate everywhere over plain UDP.
TEST(RealCluster, MixedFleetFallsBackToUdp) {
  runtime::RealTimeRuntime rt(0xFA11);

  constexpr std::size_t kNodes = 3;
  std::vector<std::unique_ptr<StreamNode>> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const bool with_stream = i != 2;  // node 2 is UDP-only
    nodes.push_back(std::make_unique<StreamNode>(rt, NodeId(i), with_stream,
                                                 /*seed=*/4000 + i));
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    for (std::size_t j = 0; j < kNodes; ++j) {
      if (i == j) continue;
      nodes[i]->udp->add_peer(NodeId(j), "127.0.0.1",
                              nodes[j]->udp->local_port());
    }
  }
  std::vector<NodeId> all_ids;
  for (std::size_t i = 0; i < kNodes; ++i) all_ids.emplace_back(i);
  for (std::size_t i = 0; i < kNodes; ++i) {
    std::vector<NodeId> seeds = all_ids;
    std::erase(seeds, NodeId(i));
    nodes[i]->node->start(seeds);
  }

  // A stream-less client, as any pre-stream build would be.
  net::UdpTransport client_transport(rt, {});
  for (std::size_t i = 0; i < kNodes; ++i) {
    client_transport.add_peer(NodeId(i), "127.0.0.1",
                              nodes[i]->udp->local_port());
  }
  client::LoadBalancer balancer(all_ids, Rng(7));
  client::ClientOptions client_options;
  client_options.request_timeout = 300 * kMillis;
  client_options.max_attempts = 4;
  client::Client client(NodeId(9003), client_transport, rt, balancer, Rng(8),
                        client_options);

  rt.run_for(300 * kMillis);

  // The stream nodes must have learned each other's stream ports from
  // gossip — and learned that node 2 has none.
  EXPECT_EQ(nodes[0]->udp->peers().stream_port_of(NodeId(2)), 0)
      << "a UDP-only node must never gossip a stream port";

  const Key key = "mixed-fleet-key";
  bool put_done = false;
  client::PutResult put_result;
  client.put(key, Payload(Bytes{42, 43, 44}), 5,
             [&](const client::PutResult& result) {
               put_result = result;
               put_done = true;
               rt.stop();
             });
  rt.run_for(5 * kSeconds);
  ASSERT_TRUE(put_done);
  ASSERT_TRUE(put_result.ok);

  const auto replicas = [&]() {
    std::size_t count = 0;
    for (const auto& n : nodes) {
      if (n->node->store().contains(key, 5)) ++count;
    }
    return count;
  };
  const SimTime deadline = rt.now() + 10 * kSeconds;
  while (replicas() < kNodes && rt.now() < deadline) {
    rt.run_for(50 * kMillis);
  }
  EXPECT_EQ(replicas(), kNodes)
      << "small-value replication must reach the UDP-only node";

  bool get_done = false;
  client::GetResult get_result;
  client.get(key, std::nullopt, [&](const client::GetResult& result) {
    get_result = result;
    get_done = true;
    rt.stop();
  });
  rt.run_for(5 * kSeconds);
  ASSERT_TRUE(get_done);
  ASSERT_TRUE(get_result.ok);
  EXPECT_EQ(get_result.object.value, Bytes({42, 43, 44}));

  // Nothing in the small-value workload may have needed a stream.
  for (const auto& n : nodes) {
    EXPECT_EQ(n->dual->dropped_no_stream(), 0u);
  }

  for (const auto& n : nodes) n->node->crash();
}

// Same protocol code, simulator runtime: bit-identical determinism must
// survive the Runtime indirection. Two clusters with one seed must execute
// the same event count and reach the same replica state; a third with a
// different seed almost surely diverges.
TEST(RealCluster, SimulatorPathStaysDeterministic) {
  // The traffic mix deliberately includes the whole operation API: single
  // put, a mixed batch envelope (puts + get), and a delete whose tombstone
  // replicates and is GC-eligible — same seed must still mean same events.
  const auto run_once = [](std::uint64_t seed) {
    harness::ClusterOptions options;
    options.node_count = 40;
    options.seed = seed;
    options.node.slice_config = {4, 1};
    options.node.tombstone_grace = 20 * kSeconds;
    options.node.tombstone_gc_period = 5 * kSeconds;
    harness::Cluster cluster(options);
    cluster.start_all();
    auto& client = cluster.add_client();
    client.put("det-key", Bytes{1, 2, 3}, 5, nullptr);
    client.execute({core::Operation::put("det-batch-a", 1, Bytes{1}),
                    core::Operation::put("det-batch-b", 1, Bytes{2}),
                    core::Operation::get("det-key")},
                   nullptr);
    client.del("det-batch-a", 9, nullptr);
    const std::uint64_t events =
        cluster.simulator().run_until(60 * kSeconds);
    return std::pair<std::uint64_t, std::size_t>(
        events, cluster.replica_count("det-key", 5) +
                    cluster.replica_count("det-batch-b", 1));
  };

  const auto a = run_once(1234);
  const auto b = run_once(1234);
  EXPECT_EQ(a.first, b.first) << "same seed must execute same event count";
  EXPECT_EQ(a.second, b.second);

  const auto c = run_once(99);
  EXPECT_NE(a.first, c.first)
      << "different seeds executing identical event counts is (almost "
         "surely) a frozen RNG, not determinism";
}

}  // namespace
}  // namespace dataflasks
