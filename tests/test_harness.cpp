// Harness tests: the Cluster builder's audits and churn application, and
// the closed-loop Runner (op sequencing, RMW flow, deadlines, stats).
#include <gtest/gtest.h>

#include "harness/cluster.hpp"
#include "harness/runner.hpp"

namespace dataflasks::harness {
namespace {

ClusterOptions tiny(std::uint64_t seed) {
  ClusterOptions opts;
  opts.node_count = 40;
  opts.seed = seed;
  opts.node.slice_config = {2, 1};
  return opts;
}

TEST(ClusterTest, StartAllBringsEveryNodeUp) {
  Cluster cluster(tiny(1));
  cluster.start_all();
  EXPECT_EQ(cluster.running_node_ids().size(), cluster.size());
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_TRUE(cluster.node(i).running());
  }
}

TEST(ClusterTest, CrashAndRestartAreIdempotent) {
  Cluster cluster(tiny(2));
  cluster.start_all();
  cluster.crash(3);
  cluster.crash(3);  // no-op
  EXPECT_FALSE(cluster.node(3).running());
  EXPECT_EQ(cluster.running_node_ids().size(), cluster.size() - 1);
  cluster.restart(3);
  cluster.restart(3);  // no-op
  EXPECT_TRUE(cluster.node(3).running());
}

TEST(ClusterTest, NodeByIdAndCapacityRange) {
  Cluster cluster(tiny(3));
  EXPECT_EQ(cluster.node_by_id(NodeId(5)), &cluster.node(5));
  EXPECT_EQ(cluster.node_by_id(NodeId(999)), nullptr);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_GE(cluster.node(i).capacity(), cluster.options().capacity_min);
    EXPECT_LT(cluster.node(i).capacity(), cluster.options().capacity_max);
  }
}

TEST(ClusterTest, ChurnPlanIsAppliedOnSchedule) {
  Cluster cluster(tiny(4));
  cluster.start_all();
  std::vector<sim::ChurnEvent> plan{
      {10 * kSeconds, NodeId(1), sim::ChurnEventKind::kCrash},
      {20 * kSeconds, NodeId(1), sim::ChurnEventKind::kRestart},
  };
  cluster.apply_churn_plan(plan);

  cluster.run_for(15 * kSeconds);
  EXPECT_FALSE(cluster.node(1).running());
  cluster.run_for(10 * kSeconds);
  EXPECT_TRUE(cluster.node(1).running());
}

TEST(ClusterTest, ReplicaAuditsCountOnlyRunningNodes) {
  Cluster cluster(tiny(5));
  cluster.start_all();
  cluster.run_for(60 * kSeconds);
  auto& client = cluster.add_client();
  client.put("audited", Bytes{1}, 1, nullptr);
  cluster.run_for(30 * kSeconds);

  const std::size_t before = cluster.replica_count("audited", 1);
  ASSERT_GE(before, 1u);
  // Crash a holder: the audit must drop accordingly.
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.node(i).running() &&
        cluster.node(i).store().contains("audited", 1)) {
      cluster.crash(i);
      break;
    }
  }
  EXPECT_EQ(cluster.replica_count("audited", 1), before - 1);
}

// ---- Runner -------------------------------------------------------------------

struct RunnerFixture : public ::testing::Test {
  void SetUp() override {
    cluster = std::make_unique<Cluster>(tiny(7));
    cluster->start_all();
    cluster->run_for(60 * kSeconds);
  }
  std::unique_ptr<Cluster> cluster;
};

TEST_F(RunnerFixture, ExecutesAllOpsAndCountsStats) {
  auto& client = cluster->add_client();
  std::vector<workload::Op> stream{
      {workload::OpKind::kInsert, "a", 50},
      {workload::OpKind::kRead, "a", 0},
      {workload::OpKind::kUpdate, "a", 50},
  };
  Runner runner(*cluster, {&client}, {stream});
  EXPECT_TRUE(runner.run(cluster->simulator().now() + 300 * kSeconds));

  const RunnerStats& stats = runner.stats();
  EXPECT_EQ(stats.puts_issued, 2u);
  EXPECT_EQ(stats.gets_issued, 1u);
  EXPECT_EQ(stats.puts_succeeded, 2u);
  EXPECT_EQ(stats.gets_succeeded, 1u);
  EXPECT_GT(stats.put_latency.count(), 0u);
}

TEST_F(RunnerFixture, ReadModifyWriteIssuesBothOps) {
  auto& client = cluster->add_client();
  std::vector<workload::Op> stream{
      {workload::OpKind::kInsert, "rmw", 20},
      {workload::OpKind::kReadModifyWrite, "rmw", 20},
  };
  Runner runner(*cluster, {&client}, {stream});
  EXPECT_TRUE(runner.run(cluster->simulator().now() + 300 * kSeconds));
  EXPECT_EQ(runner.stats().gets_issued, 1u);
  EXPECT_EQ(runner.stats().puts_issued, 2u);  // insert + the MW of RMW
}

TEST_F(RunnerFixture, DeadlineStopsEarly) {
  auto& client = cluster->add_client();
  std::vector<workload::Op> stream(200,
                                   {workload::OpKind::kInsert, "x", 10});
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i].key = "x" + std::to_string(i);
  }
  Runner runner(*cluster, {&client}, {stream});
  // A deadline far too tight for 200 closed-loop ops.
  EXPECT_FALSE(runner.run(cluster->simulator().now() + 2 * kSeconds));
  EXPECT_LT(runner.stats().puts_issued, 200u);
}

TEST_F(RunnerFixture, MultipleClientsProgressIndependently) {
  std::vector<client::Client*> clients;
  std::vector<std::vector<workload::Op>> streams;
  for (int c = 0; c < 3; ++c) {
    clients.push_back(&cluster->add_client());
    std::vector<workload::Op> stream;
    for (int i = 0; i < 5; ++i) {
      stream.push_back({workload::OpKind::kInsert,
                        "c" + std::to_string(c) + "k" + std::to_string(i),
                        10});
    }
    streams.push_back(std::move(stream));
  }
  Runner runner(*cluster, clients, std::move(streams));
  EXPECT_TRUE(runner.run(cluster->simulator().now() + 300 * kSeconds));
  EXPECT_EQ(runner.stats().puts_succeeded, 15u);
}

TEST(RunnerValue, DeterministicAndSized) {
  const Bytes a = Runner::make_value(64, 7);
  const Bytes b = Runner::make_value(64, 7);
  const Bytes c = Runner::make_value(64, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 64u);
}

TEST(RunnerConstruction, MismatchedStreamsRejected) {
  Cluster cluster(tiny(8));
  cluster.start_all();
  auto& client = cluster.add_client();
  EXPECT_THROW(Runner(cluster, {&client}, {}), InvariantViolation);
}

}  // namespace
}  // namespace dataflasks::harness
