// Client library tests: the load balancer in isolation, then the full
// client against a real cluster — acks, multi-reply deduplication (paper
// §V), timeouts and retries, and routing by the learned slice count.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>

#include "client/client.hpp"
#include "client/load_balancer.hpp"
#include "client/session.hpp"
#include "harness/cluster.hpp"
#include "test_util.hpp"

namespace dataflasks::client {
namespace {

// ---- load balancers -------------------------------------------------------------

TEST(RandomLB, PicksFromNodeList) {
  LoadBalancer lb({NodeId(1), NodeId(2), NodeId(3)}, Rng(1));
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(lb.pick_contact(std::nullopt).value);
  EXPECT_EQ(seen, (std::set<std::uint64_t>{1, 2, 3}));
}

TEST(RandomLB, EmptyListRejected) {
  EXPECT_THROW(LoadBalancer({}, Rng(1)), InvariantViolation);
}

TEST(SliceCacheLB, UsesCachedReplicaForKnownSlice) {
  LoadBalancer lb({NodeId(1), NodeId(2), NodeId(3)}, Rng(1));
  lb.observe_replica(NodeId(2), /*slice=*/7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(lb.pick_contact(SliceId{7}), NodeId(2));
  }
  EXPECT_EQ(lb.cache_hits(), 20u);
}

TEST(SliceCacheLB, FallsBackToRandomOnMiss) {
  LoadBalancer lb({NodeId(1), NodeId(2)}, Rng(1));
  const NodeId pick = lb.pick_contact(SliceId{9});
  EXPECT_TRUE(pick == NodeId(1) || pick == NodeId(2));
  EXPECT_EQ(lb.cache_misses(), 1u);
}

TEST(SliceCacheLB, UnreachableNodeEvicted) {
  LoadBalancer lb({NodeId(1), NodeId(2)}, Rng(1));
  lb.observe_replica(NodeId(1), 3);
  lb.observe_replica(NodeId(1), 4);
  EXPECT_EQ(lb.cache_size(), 2u);
  lb.node_unreachable(NodeId(1));
  EXPECT_EQ(lb.cache_size(), 0u);
}

// ---- client against a live cluster ------------------------------------------------

harness::ClusterOptions small_cluster_options(std::uint64_t seed = 7) {
  harness::ClusterOptions opts;
  opts.node_count = 60;
  opts.seed = seed;
  opts.node.slice_config = {4, 1};
  return opts;
}

class ClientClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<harness::Cluster>(small_cluster_options());
    cluster_->start_all();
    cluster_->run_for(60 * kSeconds);  // converge PSS + slicing + views
  }

  std::unique_ptr<harness::Cluster> cluster_;
};

TEST_F(ClientClusterTest, PutIsAcknowledged) {
  auto& client = cluster_->add_client();
  PutResult result;
  client.put("hello", Bytes{1, 2, 3}, 1,
             [&](const PutResult& r) { result = r; });
  cluster_->run_for(10 * kSeconds);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.key, "hello");
  EXPECT_EQ(result.version, 1u);
  EXPECT_GT(result.latency, 0);
}

TEST_F(ClientClusterTest, GetReturnsWhatWasPut) {
  auto& client = cluster_->add_client();
  client.put("k1", Bytes{0xAA, 0xBB}, 1, nullptr);
  cluster_->run_for(10 * kSeconds);

  GetResult result;
  client.get("k1", std::nullopt, [&](const GetResult& r) { result = r; });
  cluster_->run_for(10 * kSeconds);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.object.value, (Bytes{0xAA, 0xBB}));
  EXPECT_EQ(result.object.version, 1u);
}

TEST_F(ClientClusterTest, GetSpecificVersion) {
  auto& client = cluster_->add_client();
  client.put("multi", Bytes{1}, 1, nullptr);
  client.put("multi", Bytes{2}, 2, nullptr);
  cluster_->run_for(15 * kSeconds);

  GetResult v1, latest;
  client.get("multi", Version{1}, [&](const GetResult& r) { v1 = r; });
  client.get("multi", std::nullopt, [&](const GetResult& r) { latest = r; });
  cluster_->run_for(10 * kSeconds);
  ASSERT_TRUE(v1.ok);
  EXPECT_EQ(v1.object.value, Bytes{1});
  ASSERT_TRUE(latest.ok);
  EXPECT_EQ(latest.object.version, 2u);
}

TEST_F(ClientClusterTest, PutAutoStampsMonotonicVersions) {
  auto& client = cluster_->add_client();
  const Version v1 = client.put_auto("auto", Bytes{1}, nullptr);
  const Version v2 = client.put_auto("auto", Bytes{2}, nullptr);
  EXPECT_LT(v1, v2);
  cluster_->run_for(10 * kSeconds);

  GetResult result;
  client.get("auto", v2, [&](const GetResult& r) { result = r; });
  cluster_->run_for(10 * kSeconds);
  EXPECT_TRUE(result.ok);
}

TEST_F(ClientClusterTest, MissingKeyTimesOutAfterRetries) {
  ClientOptions opts;
  opts.request_timeout = 2 * kSeconds;
  opts.max_attempts = 2;
  auto& client = cluster_->add_client(opts);

  GetResult result;
  result.ok = true;
  client.get("never_written", std::nullopt,
             [&](const GetResult& r) { result = r; });
  cluster_->run_for(30 * kSeconds);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(client.metrics().counter_value("client.get_failures"), 1u);
}

TEST_F(ClientClusterTest, DuplicateRepliesAreAbsorbed) {
  auto& client = cluster_->add_client();
  // Write, wait for replication so several members hold the object...
  client.put("dup", Bytes{7}, 1, nullptr);
  cluster_->run_for(20 * kSeconds);

  // ...then read repeatedly: epidemic dissemination can produce several
  // replies per request; exactly one callback per get must fire.
  int callbacks = 0;
  for (int i = 0; i < 5; ++i) {
    client.get("dup", std::nullopt, [&](const GetResult&) { ++callbacks; });
  }
  cluster_->run_for(15 * kSeconds);
  EXPECT_EQ(callbacks, 5);
  EXPECT_EQ(client.inflight(), 0u);
}

TEST_F(ClientClusterTest, RetrySucceedsWhenFirstContactIsDead) {
  ClientOptions opts;
  opts.request_timeout = 2 * kSeconds;
  opts.max_attempts = 4;
  auto& client = cluster_->add_client(opts);

  // Kill a third of the cluster: some picks will hit dead contacts and the
  // retry path must find a live one.
  for (std::size_t i = 0; i < 20; ++i) cluster_->crash(i);

  int successes = 0;
  for (int i = 0; i < 10; ++i) {
    client.put("retry_key" + std::to_string(i), Bytes{1}, 1,
               [&](const PutResult& r) {
                 if (r.ok) ++successes;
               });
  }
  cluster_->run_for(60 * kSeconds);
  EXPECT_EQ(successes, 10);
}

// ---- delete / tombstones ----------------------------------------------------

TEST_F(ClientClusterTest, DeleteIsAcknowledgedAndGetsReportDeleted) {
  auto& client = cluster_->add_client();
  client.put("doomed", Bytes{1}, 1, nullptr);
  cluster_->run_for(15 * kSeconds);

  DelResult del;
  client.del("doomed", 2, [&](const DelResult& r) { del = r; });
  cluster_->run_for(10 * kSeconds);
  ASSERT_TRUE(del.ok);
  EXPECT_EQ(del.key, "doomed");
  EXPECT_EQ(del.version, 2u);

  // Let the tombstone replicate slice-wide, then read: the get completes
  // with an authoritative "deleted" instead of timing out.
  cluster_->run_for(30 * kSeconds);
  GetResult get;
  get.ok = true;
  client.get("doomed", std::nullopt, [&](const GetResult& r) { get = r; });
  cluster_->run_for(15 * kSeconds);
  EXPECT_FALSE(get.ok);
  EXPECT_TRUE(get.deleted);
  EXPECT_EQ(client.metrics().counter_value("client.gets_deleted"), 1u);

  // A write below the tombstone's version is rejected honestly — not
  // acked as stored and silently dropped.
  PutResult stale;
  client.put("doomed", Bytes{9}, 1, [&](const PutResult& r) { stale = r; });
  cluster_->run_for(15 * kSeconds);
  EXPECT_FALSE(stale.ok);
  EXPECT_TRUE(stale.superseded);
}

TEST_F(ClientClusterTest, AntiEntropyHealsToTombstoneNotValue) {
  auto& client = cluster_->add_client();
  const Bytes stale_value{0xBE, 0xEF};
  client.put("zombie", stale_value, 1, nullptr);
  cluster_->run_for(20 * kSeconds);
  client.del("zombie", 2, nullptr);
  cluster_->run_for(40 * kSeconds);  // tombstone converges slice-wide

  // Simulate a replica that missed the delete (rejoined from an old disk
  // image): wipe the key on one slice member and plant the stale value.
  core::Node* lagging = nullptr;
  for (std::size_t i = 0; i < cluster_->size(); ++i) {
    auto& node = cluster_->node(i);
    if (node.running() && node.key_slice("zombie") == node.slice()) {
      lagging = &node;
      break;
    }
  }
  ASSERT_NE(lagging, nullptr);
  lagging->store().remove_keys_where(
      [](const Key& k) { return k == "zombie"; });
  ASSERT_TRUE(lagging->store().put({"zombie", 1, stale_value}).ok());
  ASSERT_TRUE(lagging->store().contains("zombie", 1));

  // Anti-entropy must converge the lagging replica to the tombstone — and
  // must NOT spread the stale value back to the healed members.
  cluster_->run_for(60 * kSeconds);
  EXPECT_FALSE(lagging->store().contains("zombie", 1))
      << "stale value survived anti-entropy";
  EXPECT_EQ(lagging->store().tombstone_version("zombie"), 2u)
      << "lagging replica did not converge to the tombstone";
  EXPECT_EQ(cluster_->replica_count("zombie", 1), 0u)
      << "the deleted value resurrected somewhere";
}

// ---- batched operations -----------------------------------------------------

TEST_F(ClientClusterTest, BatchPipelinesOpsInOneEnvelope) {
  auto& client = cluster_->add_client();
  std::vector<core::Operation> ops;
  for (int i = 0; i < 8; ++i) {
    ops.push_back(core::Operation::put("batch" + std::to_string(i), 1,
                                       Bytes{static_cast<std::uint8_t>(i)}));
  }
  std::vector<OpResult> results;
  client.execute(std::move(ops),
                 [&](const std::vector<OpResult>& r) { results = r; });
  cluster_->run_for(15 * kSeconds);

  ASSERT_EQ(results.size(), 8u);
  for (const OpResult& r : results) {
    EXPECT_TRUE(r.ok) << r.key;
    EXPECT_EQ(r.type, core::OpType::kPut);
  }
  // The whole batch went out as one envelope (no retries needed here).
  EXPECT_EQ(client.metrics().counter_value("client.envelopes_sent"), 1u);
  EXPECT_EQ(client.metrics().counter_value("client.batches"), 1u);
  EXPECT_EQ(client.inflight(), 0u);

  // And the writes are individually readable afterwards.
  GetResult got;
  client.get("batch3", std::nullopt, [&](const GetResult& r) { got = r; });
  cluster_->run_for(10 * kSeconds);
  ASSERT_TRUE(got.ok);
  EXPECT_EQ(got.object.value, Bytes{3});
}

TEST_F(ClientClusterTest, MixedBatchResolvesPerOperation) {
  auto& client = cluster_->add_client();
  client.put("mixed-old", Bytes{7}, 1, nullptr);
  cluster_->run_for(15 * kSeconds);

  ClientOptions fail_fast;
  fail_fast.request_timeout = 2 * kSeconds;
  fail_fast.max_attempts = 2;
  auto& batcher = cluster_->add_client(fail_fast);

  std::vector<core::Operation> ops;
  ops.push_back(core::Operation::get("mixed-old"));          // hit
  ops.push_back(core::Operation::put("mixed-new", 1, Bytes{8}));
  ops.push_back(core::Operation::get("mixed-missing"));      // times out
  std::vector<OpResult> results;
  batcher.execute(std::move(ops),
                  [&](const std::vector<OpResult>& r) { results = r; });
  cluster_->run_for(30 * kSeconds);

  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_EQ(results[0].object.value, Bytes{7});
  EXPECT_TRUE(results[1].ok);
  // The missing get fails alone after the retry budget — it does not drag
  // the served ops down with it.
  EXPECT_FALSE(results[2].ok);
  EXPECT_FALSE(results[2].deleted);
  EXPECT_EQ(results[2].attempts, 2u);
}

TEST_F(ClientClusterTest, OversizedBatchSplitsIntoMultipleEnvelopes) {
  auto& client = cluster_->add_client();
  // 5 puts x 20 kB = ~100 kB of ops against a 48 kB per-datagram budget:
  // the batch must ship as several envelopes (a single frame would be
  // dropped by the real UDP transport) and still resolve as one batch.
  std::vector<core::Operation> ops;
  for (int i = 0; i < 5; ++i) {
    ops.push_back(core::Operation::put("big" + std::to_string(i), 1,
                                       Bytes(20 * 1024, 0xAB)));
  }
  std::vector<OpResult> results;
  client.execute(std::move(ops),
                 [&](const std::vector<OpResult>& r) { results = r; });
  cluster_->run_for(15 * kSeconds);

  ASSERT_EQ(results.size(), 5u);
  for (const OpResult& r : results) EXPECT_TRUE(r.ok) << r.key;
  EXPECT_GE(client.metrics().counter_value("client.envelopes_sent"), 3u);
  EXPECT_EQ(client.metrics().counter_value("client.batches"), 1u);
}

// ---- session futures --------------------------------------------------------

TEST_F(ClientClusterTest, SessionFuturesResolveAndChain) {
  auto& client = cluster_->add_client();
  Session session(client);

  auto put = session.put("fut", Bytes{9});
  EXPECT_FALSE(put.ready());
  cluster_->run_for(10 * kSeconds);
  ASSERT_TRUE(put.ready());
  EXPECT_TRUE(put.value().ok);

  auto got = session.get("fut");
  bool chained = false;
  got.then([&](const GetResult& r) { chained = r.ok; });
  cluster_->run_for(10 * kSeconds);
  ASSERT_TRUE(got.ready());
  EXPECT_TRUE(chained);
  EXPECT_EQ(got.value().object.value, Bytes{9});
  // then() after completion fires immediately.
  bool immediate = false;
  got.then([&](const GetResult&) { immediate = true; });
  EXPECT_TRUE(immediate);

  auto gone = session.del("fut");
  cluster_->run_for(10 * kSeconds);
  ASSERT_TRUE(gone.ready());
  EXPECT_TRUE(gone.value().ok);
}

TEST_F(ClientClusterTest, SessionBatchSurfaces) {
  auto& client = cluster_->add_client();
  Session session(client);

  auto batch = session.put_batch({{"sb-a", Bytes{1}}, {"sb-b", Bytes{2}}});
  cluster_->run_for(15 * kSeconds);
  ASSERT_TRUE(batch.ready());
  EXPECT_TRUE(batch.value().all_ok());
  ASSERT_EQ(batch.value().puts.size(), 2u);

  auto many = session.get_many({"sb-a", "sb-b"});
  cluster_->run_for(15 * kSeconds);
  ASSERT_TRUE(many.ready());
  ASSERT_EQ(many.value().size(), 2u);
  EXPECT_TRUE(many.value()[0].ok);
  EXPECT_EQ(many.value()[0].object.value, Bytes{1});
  EXPECT_TRUE(many.value()[1].ok);
  EXPECT_EQ(many.value()[1].object.value, Bytes{2});

  // Empty batches complete immediately instead of tripping the client's
  // non-empty invariant.
  auto none = session.get_many({});
  ASSERT_TRUE(none.ready());
  EXPECT_TRUE(none.value().empty());
  auto no_puts = session.put_batch({});
  ASSERT_TRUE(no_puts.ready());
  EXPECT_TRUE(no_puts.value().all_ok());
}

TEST_F(ClientClusterTest, SliceCacheBalancerLearnsFromAcks) {
  auto& client = cluster_->add_client();
  EXPECT_EQ(client.slice_count(), 0u);

  for (int i = 0; i < 20; ++i) {
    client.put("warm" + std::to_string(i), Bytes{1}, 1, nullptr);
  }
  cluster_->run_for(30 * kSeconds);

  // The replies taught the client both the slice count and a replica per
  // slice; nothing was configured.
  EXPECT_EQ(client.slice_count(), 4u);
  auto& lb = cluster_->balancer(0);
  EXPECT_GT(lb.cache_size(), 0u);

  const auto hits_before = lb.cache_hits();
  for (int i = 0; i < 20; ++i) {
    client.put("warm" + std::to_string(i), Bytes{2}, 2, nullptr);
  }
  cluster_->run_for(30 * kSeconds);
  EXPECT_GT(lb.cache_hits(), hits_before);
}

/// Request-category messages sent by every cluster node and by `client`.
std::uint64_t request_msgs_sent(harness::Cluster& cluster, NodeId client) {
  std::vector<NodeId> ids = cluster.node_ids();
  ids.push_back(client);
  std::uint64_t sent = 0;
  for (const NodeId id : ids) {
    sent += cluster.transport()
                .stats_for_category(id, net::MsgCategory::kRequest)
                .sent;
  }
  return sent;
}

TEST_F(ClientClusterTest, WarmSlicePutReachesItsSliceInOneHop) {
  auto& client = cluster_->add_client();
  std::optional<PutResult> first;
  client.put("learn", Bytes{1}, 1, [&](const PutResult& r) { first = r; });
  cluster_->run_for(5 * kSeconds);
  ASSERT_TRUE(first.has_value() && first->ok);
  EXPECT_EQ(client.slice_count(), 4u);

  // One put per key warms the key's slice; the second put of the key must
  // then go straight to a replica: the envelope, the ack and the
  // replica's immediate pushes, with no discovery spray.
  for (int i = 0; i < 8; ++i) {
    const Key key = "hop" + std::to_string(i);
    bool warmed = false;
    client.put(key, Bytes{1}, 1, [&](const PutResult& r) { warmed = r.ok; });
    cluster_->run_for(5 * kSeconds);
    ASSERT_TRUE(warmed) << key;

    const std::uint64_t before = request_msgs_sent(*cluster_, client.id());
    std::optional<PutResult> second;
    client.put(key, Bytes{2}, 2, [&](const PutResult& r) { second = r; });
    cluster_->run_for(5 * kSeconds);
    ASSERT_TRUE(second.has_value() && second->ok) << key;
    EXPECT_EQ(second->attempts, 1u) << key;
    EXPECT_LE(request_msgs_sent(*cluster_, client.id()) - before, 5u) << key;
  }
}

TEST_F(ClientClusterTest, CrashedCachedReplicaCostsOneTimeout) {
  ClientOptions opts;
  opts.request_timeout = 2 * kSeconds;
  opts.max_attempts = 4;
  auto& client = cluster_->add_client(opts);

  std::optional<PutResult> warm;
  client.put("cached", Bytes{1}, 1, [&](const PutResult& r) { warm = r; });
  cluster_->run_for(5 * kSeconds);
  ASSERT_TRUE(warm.has_value() && warm->ok);
  const NodeId cached = warm->replica;
  cluster_->crash(static_cast<std::size_t>(cached.value));

  // The first put goes to the dead cached replica, times out once, and
  // the retry finds a live contact.
  std::optional<PutResult> after_crash;
  client.put("cached", Bytes{2}, 2,
             [&](const PutResult& r) { after_crash = r; });
  cluster_->run_for(10 * kSeconds);
  ASSERT_TRUE(after_crash.has_value() && after_crash->ok);
  EXPECT_EQ(after_crash->attempts, 2u);
  EXPECT_NE(after_crash->replica, cached);

  // The eviction stuck: the next op routes elsewhere on its first try.
  std::optional<PutResult> next;
  client.put("cached", Bytes{3}, 3, [&](const PutResult& r) { next = r; });
  cluster_->run_for(10 * kSeconds);
  ASSERT_TRUE(next.has_value() && next->ok);
  EXPECT_EQ(next->attempts, 1u);
  EXPECT_NE(next->replica, cached);
}

TEST(OneSliceRouting, EveryNodeStaysAContact) {
  // k = 1: every node is in the key's slice, so the client must keep the
  // paper's uniform pick instead of pinning itself to the first replica
  // that answered.
  harness::ClusterOptions opts;
  opts.node_count = 3;
  opts.seed = 11;
  opts.node.slice_config = {1, 1};
  harness::Cluster cluster(opts);
  cluster.start_all();
  cluster.run_for(30 * kSeconds);
  auto& client = cluster.add_client();

  constexpr int kOps = 300;
  std::map<NodeId, int> contacts;
  for (int i = 0; i < kOps; ++i) {
    std::optional<PutResult> result;
    client.put("one" + std::to_string(i), Bytes{1}, 1,
               [&](const PutResult& r) { result = r; });
    cluster.run_for(kSeconds);
    ASSERT_TRUE(result.has_value() && result->ok) << i;
    // A put's contact is in the (only) slice, so it is the acking replica.
    ++contacts[result->replica];
  }
  EXPECT_EQ(client.slice_count(), 1u);
  ASSERT_EQ(contacts.size(), 3u);
  for (const auto& [node, count] : contacts) {
    EXPECT_GE(count, kOps / 5) << "node " << node.value;
  }
}

// ---- compare-and-put (protocol v2) ------------------------------------------

TEST_F(ClientClusterTest, CasCreatesThenGuardsUpdates) {
  auto& client = cluster_->add_client();
  Session session(client);

  // expected == 0: create-only succeeds on a fresh key. Waits between the
  // steps are generous: each CAS may land on any replica of the slice, so
  // the previous write must have reached all of them (per-replica
  // preconditions, like all epidemic-store reads).
  auto created = session.cas("cas-key", 0, Bytes{1});
  cluster_->run_for(40 * kSeconds);
  ASSERT_TRUE(created.ready());
  ASSERT_TRUE(created.value().ok);
  const Version v1 = created.value().version;
  EXPECT_GT(v1, 0u);

  // Correct precondition: the update lands and the version advances.
  auto updated = session.cas("cas-key", v1, Bytes{2});
  cluster_->run_for(40 * kSeconds);
  ASSERT_TRUE(updated.ready());
  ASSERT_TRUE(updated.value().ok);
  EXPECT_GT(updated.value().version, v1);

  // Stale precondition: a definitive kCasFailed naming the current
  // version — not a timeout.
  auto stale = session.cas("cas-key", v1, Bytes{3});
  cluster_->run_for(10 * kSeconds);
  ASSERT_TRUE(stale.ready());
  EXPECT_FALSE(stale.value().ok);
  EXPECT_TRUE(stale.value().cas_failed);
  EXPECT_EQ(stale.value().version, updated.value().version);
  EXPECT_GT(client.metrics().counter_value("client.cas_precondition_failures"),
            0u);

  // The guarded value is what readers see.
  auto got = session.get("cas-key");
  cluster_->run_for(10 * kSeconds);
  ASSERT_TRUE(got.ready());
  ASSERT_TRUE(got.value().ok);
  EXPECT_EQ(got.value().object.value, Bytes{2});
}

TEST_F(ClientClusterTest, CasCreateOnlyFailsOnExistingKey) {
  auto& client = cluster_->add_client();
  Session session(client);
  auto put = session.put("occupied", Bytes{7});
  // Long converge: the conflicting CAS below may be routed to ANY replica
  // of the key's slice, so every replica must hold the value first (the
  // precondition check is per-replica, like all epidemic-store reads).
  cluster_->run_for(40 * kSeconds);
  ASSERT_TRUE(put.ready());
  ASSERT_TRUE(put.value().ok);

  auto create = session.cas("occupied", 0, Bytes{8});
  cluster_->run_for(10 * kSeconds);
  ASSERT_TRUE(create.ready());
  EXPECT_FALSE(create.value().ok);
  EXPECT_TRUE(create.value().cas_failed);
  EXPECT_EQ(create.value().version, put.value().version);
}

TEST_F(ClientClusterTest, CasNeverResurrectsDeletedKey) {
  auto& client = cluster_->add_client();
  Session session(client);
  auto put = session.put("doomed", Bytes{1});
  cluster_->run_for(20 * kSeconds);
  ASSERT_TRUE(put.ready() && put.value().ok);
  auto del = session.del("doomed");
  cluster_->run_for(40 * kSeconds);  // tombstone must reach every replica
  ASSERT_TRUE(del.ready() && del.value().ok);

  // CAS against the tombstone's version still fails: deletes win until an
  // unconditional put recreates the key above the tombstone.
  auto cas = session.cas("doomed", del.value().version, Bytes{2});
  cluster_->run_for(10 * kSeconds);
  ASSERT_TRUE(cas.ready());
  EXPECT_FALSE(cas.value().ok);
  EXPECT_TRUE(cas.value().cas_failed);
  EXPECT_EQ(cas.value().version, del.value().version);

  auto got = session.get("doomed");
  cluster_->run_for(10 * kSeconds);
  ASSERT_TRUE(got.ready());
  EXPECT_FALSE(got.value().ok);
  EXPECT_TRUE(got.value().deleted);
}

// ---- stats admin op (protocol v2) -------------------------------------------

TEST_F(ClientClusterTest, StatsOpReturnsContactNodeSnapshot) {
  auto& client = cluster_->add_client();
  Session session(client);
  client.put("warmup", Bytes{1}, 1, nullptr);
  cluster_->run_for(10 * kSeconds);

  auto stats = session.stats();
  cluster_->run_for(10 * kSeconds);
  ASSERT_TRUE(stats.ready());
  ASSERT_TRUE(stats.value().ok);
  // Sim nodes use the default provider: the node's event counters rendered
  // as one Prometheus family.
  EXPECT_NE(stats.value().text.find("df_node_events_total"),
            std::string::npos);
  EXPECT_NE(stats.value().replica, NodeId(0xFFFFFFFF));
}

// ---- protocol negotiation ---------------------------------------------------

class V1ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto opts = small_cluster_options(11);
    opts.node.request.serve_protocol = core::kOpProtocolMin;  // v1 fleet
    cluster_ = std::make_unique<harness::Cluster>(opts);
    cluster_->start_all();
    cluster_->run_for(60 * kSeconds);
  }

  std::unique_ptr<harness::Cluster> cluster_;
};

TEST_F(V1ClusterTest, ClientNegotiatesDownAndServesV1Ops) {
  // A v2 client against a v1-only fleet: the first envelope is answered
  // with kVersionMismatch, the client adopts v1 and resends — the batch
  // still succeeds without burning a retry attempt.
  auto& client = cluster_->add_client();
  EXPECT_EQ(client.active_protocol(), core::kOpProtocolVersion);

  PutResult put;
  client.put("downgraded", Bytes{9}, 1, [&](const PutResult& r) { put = r; });
  cluster_->run_for(15 * kSeconds);
  ASSERT_TRUE(put.ok);
  EXPECT_EQ(put.attempts, 1u);
  EXPECT_EQ(client.active_protocol(), core::kOpProtocolMin);
  EXPECT_GT(client.metrics().counter_value("client.version_mismatches"), 0u);
  EXPECT_EQ(client.metrics().counter_value("client.protocol_negotiations"),
            1u);

  // Subsequent envelopes go out at v1 directly: no further negotiation.
  GetResult got;
  client.get("downgraded", std::nullopt,
             [&](const GetResult& r) { got = r; });
  cluster_->run_for(15 * kSeconds);
  ASSERT_TRUE(got.ok);
  EXPECT_EQ(got.object.value, Bytes{9});
  EXPECT_EQ(client.metrics().counter_value("client.protocol_negotiations"),
            1u);
}

TEST_F(V1ClusterTest, V2OnlyOpsFailDefinitivelyAgainstV1Fleet) {
  auto& client = cluster_->add_client();
  Session session(client);

  // CAS cannot be expressed at v1: a definitive unsupported failure (fast),
  // not a timeout.
  auto cas = session.cas("nope", 0, Bytes{1});
  cluster_->run_for(15 * kSeconds);
  ASSERT_TRUE(cas.ready());
  EXPECT_FALSE(cas.value().ok);
  EXPECT_TRUE(cas.value().unsupported);

  auto stats = session.stats();
  cluster_->run_for(15 * kSeconds);
  ASSERT_TRUE(stats.ready());
  EXPECT_FALSE(stats.value().ok);
  EXPECT_TRUE(stats.value().unsupported);
  EXPECT_GT(client.metrics().counter_value("client.ops_unsupported"), 0u);

  // Mixed batch: the v1-expressible ops still succeed after negotiation;
  // only the CAS comes back unsupported.
  std::vector<core::Operation> ops;
  ops.push_back(core::Operation::put("mixed", 1, Bytes{1}));
  ops.push_back(core::Operation::cas("mixed", 1, 2, Bytes{2}));
  std::vector<OpResult> results;
  client.execute(std::move(ops),
                 [&](const std::vector<OpResult>& r) { results = r; });
  cluster_->run_for(15 * kSeconds);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_TRUE(results[1].unsupported);
}

TEST_F(ClientClusterTest, V1ConfiguredClientNegotiatesUpToV2) {
  // The reverse direction: a client pinned to v1 meets a v2-serving fleet,
  // adopts the offered version and completes the op.
  ClientOptions opts;
  opts.protocol_version = core::kOpProtocolMin;
  auto& client = cluster_->add_client(opts);
  EXPECT_EQ(client.active_protocol(), core::kOpProtocolMin);

  PutResult put;
  client.put("upgraded", Bytes{4}, 1, [&](const PutResult& r) { put = r; });
  cluster_->run_for(15 * kSeconds);
  ASSERT_TRUE(put.ok);
  EXPECT_EQ(client.active_protocol(), core::kOpProtocolVersion);
}

}  // namespace
}  // namespace dataflasks::client
