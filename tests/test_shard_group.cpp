// ShardGroup end-to-end: a 4-shard shared-nothing server process serving
// the full operation API over real loopback UDP, with a client whose single
// socket forces one ingress shard — so serving keys across all four store
// partitions exercises the cross-shard mailbox path, not just local
// execution. The single-shard test pins the degenerate case: --shards 1
// must be the classic node wiring (no router, counters in the node
// registry), which is what keeps the pre-refactor behavior reachable.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "client/load_balancer.hpp"
#include "net/udp_transport.hpp"
#include "runtime/real_time_runtime.hpp"
#include "server/shard_group.hpp"
#include "store/memstore.hpp"
#include "store/sharded_store.hpp"

namespace dataflasks::server {
namespace {

constexpr std::uint64_t kServerId = 1;

ShardGroupOptions fast_group_options(std::size_t shards) {
  ShardGroupOptions options;
  options.id = NodeId(kServerId);
  options.seed = 0xE2E0 + shards;
  options.shards = shards;
  options.node.pss_period = 30 * kMillis;
  options.node.slicing_period = 30 * kMillis;
  options.node.advert_period = 30 * kMillis;
  options.node.ae_period = 100 * kMillis;
  options.node.st_tick_period = 60 * kMillis;
  options.node.handoff_period = 60 * kMillis;
  options.node.slice_config = {1, 1};
  options.snapshot_period = 50 * kMillis;
  return options;
}

std::unique_ptr<store::Store> make_partitions(std::size_t count) {
  std::vector<std::unique_ptr<store::Store>> parts;
  for (std::size_t i = 0; i < count; ++i) {
    parts.push_back(std::make_unique<store::MemStore>());
  }
  return std::make_unique<store::ShardedStore>(std::move(parts));
}

/// Client-side fixture: its own runtime + socket, the group's port pinned.
struct TestClient {
  explicit TestClient(std::uint16_t server_port)
      : rt(0xC11E),
        transport(rt, {}),
        balancer({NodeId(kServerId)}, Rng(7)),
        client(NodeId(9000), transport, rt, balancer, Rng(8), options()) {
    transport.add_peer(NodeId(kServerId), "127.0.0.1", server_port);
  }

  static client::ClientOptions options() {
    client::ClientOptions options;
    options.request_timeout = 500 * kMillis;
    options.max_attempts = 4;
    return options;
  }

  runtime::RealTimeRuntime rt;
  net::UdpTransport transport;
  client::LoadBalancer balancer;
  client::Client client;

  /// Runs the client loop until `done` flips (the callback stops it).
  void wait(const bool& done) {
    const SimTime deadline = rt.now() + 10 * kSeconds;
    while (!done && rt.now() < deadline) rt.run_for(20 * kMillis);
  }
};

/// 16 keys guaranteed to cover every one of the 4 store partitions.
std::vector<Key> covering_keys() {
  std::vector<Key> keys;
  bool covered[4] = {false, false, false, false};
  for (int i = 0; keys.size() < 16; ++i) {
    const Key key = "sg-key-" + std::to_string(i);
    covered[store::ShardedStore::partition_of(key, 4)] = true;
    keys.push_back(key);
  }
  EXPECT_TRUE(covered[0] && covered[1] && covered[2] && covered[3]);
  return keys;
}

TEST(ShardGroup, FourShardsServeOpsAcrossPartitionsOverRealUdp) {
  ShardGroup group(fast_group_options(4), make_partitions(4));
  ASSERT_EQ(group.shard_count(), 4u);
  group.start({});
  group.start_workers();
  std::thread loop([&group]() { group.run(); });

  TestClient tc(group.local_port());
  const std::vector<Key> keys = covering_keys();

  // ---- puts across every partition ------------------------------------
  for (std::size_t i = 0; i < keys.size(); ++i) {
    bool done = false;
    client::PutResult result;
    tc.client.put(keys[i], Payload(Bytes{static_cast<std::uint8_t>(i)}),
                  /*version=*/5, [&](const client::PutResult& r) {
                    result = r;
                    done = true;
                    tc.rt.stop();
                  });
    tc.wait(done);
    ASSERT_TRUE(done) << keys[i];
    ASSERT_TRUE(result.ok) << keys[i] << " failed after " << result.attempts
                           << " attempts";
  }

  // ---- gets come back with the stored value ---------------------------
  for (std::size_t i = 0; i < keys.size(); ++i) {
    bool done = false;
    client::GetResult result;
    tc.client.get(keys[i], std::nullopt, [&](const client::GetResult& r) {
      result = r;
      done = true;
      tc.rt.stop();
    });
    tc.wait(done);
    ASSERT_TRUE(done) << keys[i];
    ASSERT_TRUE(result.ok) << keys[i];
    EXPECT_EQ(result.object.version, 5u);
    EXPECT_EQ(result.object.value,
              Bytes{static_cast<std::uint8_t>(i)});
  }

  // ---- delete answers authoritatively through its owner shard ---------
  {
    bool done = false;
    client::DelResult result;
    tc.client.del(keys[0], /*version=*/9, [&](const client::DelResult& r) {
      result = r;
      done = true;
      tc.rt.stop();
    });
    tc.wait(done);
    ASSERT_TRUE(done);
    ASSERT_TRUE(result.ok);
  }
  {
    bool done = false;
    client::GetResult result;
    tc.client.get(keys[0], std::nullopt, [&](const client::GetResult& r) {
      result = r;
      done = true;
      tc.rt.stop();
    });
    tc.wait(done);
    ASSERT_TRUE(done);
    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(result.deleted) << "tombstone must answer, not time out";
  }

  group.stop();
  loop.join();
  group.shutdown();

  // Every key (plus one tombstone) landed in the shared store.
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_TRUE(group.node().store().contains(keys[i], 5)) << keys[i];
  }
  EXPECT_EQ(group.node().store().tombstone_version(keys[0]), 9u);

  // The merged counters must account for every op — and because the
  // client's single socket hashes to ONE ingress shard while the keys
  // cover all four partitions, some ops MUST have crossed shards.
  MetricsRegistry merged;
  group.merge_counters(merged);
  EXPECT_EQ(merged.counter_value("rh.puts_stored"), keys.size());
  EXPECT_EQ(merged.counter_value("rh.deletes_stored"), 1u);
  EXPECT_GE(merged.counter_value("rh.gets_served"), keys.size() - 1);
  EXPECT_GE(merged.counter_value("shard.ops_cross_shard"), 1u)
      << "cross-shard mailbox path never engaged";
  EXPECT_GE(group.totals().mailbox_drained, 1u);
}

/// Pins the calling thread to one CPU. Best effort: where the cpuset
/// forbids it the schedule is left to chance.
void pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

TEST(ShardGroup, StopFromAnotherThreadNeverRacesTeardown) {
  // The hosting shape: the owner thread builds the group, runs shard 0 and
  // destroys the group as soon as run() returns, while another thread
  // stops it (a destructor, a signal handler). stop() stops shard 0
  // first, so the owner races ahead into teardown while the stopping
  // thread still walks the remaining shards; shutdown() must wait it out.
  // All threads share one CPU and the stopper runs at the lowest priority,
  // so the owner usually wins that race and frees the group under a
  // stop() that does not wait.
  const int cpu = std::max(0, sched_getcpu());
  for (int round = 0; round < 100; ++round) {
    std::atomic<ShardGroup*> group{nullptr};
    std::atomic<int> loops_running{0};
    std::thread owner([&group, &loops_running, cpu]() {
      pin_to_cpu(cpu);  // the worker shard thread inherits it
      auto owned = std::make_unique<ShardGroup>(fast_group_options(2),
                                                make_partitions(2));
      owned->start({});
      owned->start_workers();
      // Counted from inside both loops: a runtime clears its stop flag
      // when its loop starts, so only a stop() after that is meaningful.
      for (std::size_t k = 0; k < owned->shard_count(); ++k) {
        owned->shard_runtime(k).post_from_any_thread(
            [&loops_running]() { loops_running.fetch_add(1); });
      }
      group.store(owned.get());
      owned->run();
      owned->shutdown();
      owned.reset();
    });
    std::thread stopper([&group, &loops_running, cpu]() {
      pin_to_cpu(cpu);
      (void)setpriority(PRIO_PROCESS,
                        static_cast<id_t>(::syscall(SYS_gettid)), 19);
      while (loops_running.load() < 2) std::this_thread::yield();
      group.load()->stop();
    });
    stopper.join();
    owner.join();
  }
}

TEST(ShardGroup, SingleShardIsTheClassicNodeWiring) {
  ShardGroup group(fast_group_options(1), nullptr);
  ASSERT_EQ(group.shard_count(), 1u);
  group.start({});
  group.start_workers();  // no-op: no worker threads with one shard
  std::thread loop([&group]() { group.run(); });

  TestClient tc(group.local_port());
  bool put_done = false;
  client::PutResult put_result;
  tc.client.put("classic-key", Payload(Bytes{0x01}), 3,
                [&](const client::PutResult& r) {
                  put_result = r;
                  put_done = true;
                  tc.rt.stop();
                });
  tc.wait(put_done);
  ASSERT_TRUE(put_done);
  ASSERT_TRUE(put_result.ok);

  bool get_done = false;
  client::GetResult get_result;
  tc.client.get("classic-key", std::nullopt,
                [&](const client::GetResult& r) {
                  get_result = r;
                  get_done = true;
                  tc.rt.stop();
                });
  tc.wait(get_done);
  ASSERT_TRUE(get_done);
  ASSERT_TRUE(get_result.ok);
  EXPECT_EQ(get_result.object.version, 3u);

  group.stop();
  loop.join();
  group.shutdown();

  // Classic path: the node's own RequestHandler executed the ops, so its
  // counters live in the node registry and NO shard-router counter moved.
  EXPECT_EQ(group.node().metrics().counter_value("rh.puts_stored"), 1u);
  MetricsRegistry merged;
  group.merge_counters(merged);
  EXPECT_EQ(merged.counter_value("rh.puts_stored"), 0u);
  EXPECT_EQ(merged.counter_value("shard.ops_cross_shard"), 0u);
}

}  // namespace
}  // namespace dataflasks::server
