// Admission control and load shedding: unit tests for the controller's
// signals (queue depth, loop lag, Little's-law in-flight estimate,
// hysteresis, maintenance trickle) and cluster tests for the end-to-end
// overload contract — explicit kOverloaded replies, client backoff and
// rerouting, per-request deadlines, and gossip surviving on the trickle.
#include <gtest/gtest.h>

#include <optional>

#include "core/admission_controller.hpp"
#include "harness/cluster.hpp"

namespace dataflasks {
namespace {

using client::ClientOptions;
using client::GetResult;
using client::PutResult;
using core::AdmissionController;
using core::AdmissionOptions;
using core::WorkClass;

// ---- controller units -------------------------------------------------------

AdmissionOptions queue_only_options() {
  AdmissionOptions opts;
  opts.enabled = true;
  opts.queue_high = 100;
  opts.queue_low = 10;
  opts.lag_high = 0;          // signal off
  opts.max_inflight_ops = 0;  // signal off
  return opts;
}

TEST(AdmissionControllerTest, DisabledAdmitsEverything) {
  MetricsRegistry metrics;
  SimTime now = 0;
  AdmissionController adm([&]() { return now; }, AdmissionOptions{}, metrics);
  EXPECT_TRUE(adm.admit(WorkClass::kClientOp).admit);
  EXPECT_TRUE(adm.admit(WorkClass::kMaintenance).admit);
  EXPECT_TRUE(adm.admit(WorkClass::kAdmin).admit);
  adm.tick();
  EXPECT_FALSE(adm.overloaded());
}

TEST(AdmissionControllerTest, QueueDepthEntersAndExitsWithHysteresis) {
  MetricsRegistry metrics;
  SimTime now = 0;
  std::size_t depth = 0;
  AdmissionController adm([&]() { return now; }, queue_only_options(),
                          metrics);
  adm.set_load_probe([&]() { return depth; });

  depth = 500;
  now += 100 * kMillis;
  adm.tick();
  ASSERT_TRUE(adm.overloaded());
  const auto shed = adm.admit(WorkClass::kClientOp);
  EXPECT_FALSE(shed.admit);
  EXPECT_GE(shed.retry_after_ms, adm.options().retry_after_min_ms);

  // Between the watermarks: still overloaded (no flapping at the boundary).
  depth = 50;
  now += 100 * kMillis;
  adm.tick();
  EXPECT_TRUE(adm.overloaded());

  depth = 5;
  now += 100 * kMillis;
  adm.tick();
  EXPECT_FALSE(adm.overloaded());
  EXPECT_TRUE(adm.admit(WorkClass::kClientOp).admit);
  EXPECT_EQ(metrics.counter_value("admission.overload_entered"), 1u);
  EXPECT_EQ(metrics.counter_value("admission.overload_exited"), 1u);
}

TEST(AdmissionControllerTest, AdminAlwaysAdmittedWhileOverloaded) {
  MetricsRegistry metrics;
  SimTime now = 0;
  AdmissionController adm([&]() { return now; }, queue_only_options(),
                          metrics);
  adm.set_load_probe([]() { return std::size_t{10000}; });
  now += 100 * kMillis;
  adm.tick();
  ASSERT_TRUE(adm.overloaded());
  EXPECT_FALSE(adm.admit(WorkClass::kClientOp).admit);
  EXPECT_TRUE(adm.admit(WorkClass::kAdmin).admit);
}

TEST(AdmissionControllerTest, LoopLagEntersOverloadAndDecaysOut) {
  MetricsRegistry metrics;
  SimTime now = 0;
  AdmissionOptions opts;
  opts.enabled = true;
  opts.queue_high = 0;        // signal off
  opts.max_inflight_ops = 0;  // signal off
  opts.lag_high = 100 * kMillis;
  opts.lag_low = 20 * kMillis;
  AdmissionController adm([&]() { return now; }, opts, metrics);

  // On-schedule tick establishes the expectation...
  now = 100 * kMillis;
  adm.tick();
  EXPECT_FALSE(adm.overloaded());
  // ...then the next tick fires 500ms late (a saturated poll loop).
  now += opts.tick_period + 500 * kMillis;
  adm.tick();
  EXPECT_GT(adm.lag_ewma_us(), static_cast<double>(opts.lag_high));
  EXPECT_TRUE(adm.overloaded());

  // Back on schedule, the lag EWMA decays below the low watermark and the
  // controller exits.
  for (int i = 0; i < 20 && adm.overloaded(); ++i) {
    now += opts.tick_period;
    adm.tick();
  }
  EXPECT_FALSE(adm.overloaded());
}

TEST(AdmissionControllerTest, InflightEstimateCapsAdmission) {
  MetricsRegistry metrics;
  SimTime now = 0;
  AdmissionOptions opts;
  opts.enabled = true;
  opts.queue_high = 0;  // signal off
  opts.lag_high = 0;    // signal off
  opts.max_inflight_ops = 4;
  AdmissionController adm([&]() { return now; }, opts, metrics);

  // 1000 admitted ops over a 100ms window at 1ms smoothed service time:
  // Little's law says ~10 concurrently in flight, over the cap of 4.
  adm.note_service(1000);
  EXPECT_TRUE(adm.admit(WorkClass::kClientOp, 1000).admit);
  now += 100 * kMillis;
  adm.tick();
  EXPECT_GT(adm.inflight_estimate(), 4.0);
  EXPECT_TRUE(adm.overloaded());

  // An idle window drops the estimate to zero and the controller exits.
  now += 100 * kMillis;
  adm.tick();
  EXPECT_FALSE(adm.overloaded());
}

TEST(AdmissionControllerTest, RetryAfterScalesWithSeverityAndClamps) {
  MetricsRegistry metrics;
  SimTime now = 0;
  AdmissionController adm([&]() { return now; }, queue_only_options(),
                          metrics);
  // 100x past the queue watermark: the hint saturates at the maximum.
  adm.set_load_probe([]() { return std::size_t{10000}; });
  now += 100 * kMillis;
  adm.tick();
  ASSERT_TRUE(adm.overloaded());
  EXPECT_EQ(adm.admit(WorkClass::kClientOp).retry_after_ms,
            adm.options().retry_after_max_ms);
}

TEST(AdmissionControllerTest, MaintenanceTrickleIsBoundedAndRefills) {
  MetricsRegistry metrics;
  SimTime now = 0;
  AdmissionOptions opts = queue_only_options();
  opts.maintenance_trickle_per_sec = 3;
  AdmissionController adm([&]() { return now; }, opts, metrics);
  adm.set_load_probe([]() { return std::size_t{10000}; });
  now += 100 * kMillis;
  adm.tick();
  ASSERT_TRUE(adm.overloaded());

  // The bucket holds one second's worth: 3 messages pass, the 4th is shed.
  EXPECT_TRUE(adm.admit(WorkClass::kMaintenance).admit);
  EXPECT_TRUE(adm.admit(WorkClass::kMaintenance).admit);
  EXPECT_TRUE(adm.admit(WorkClass::kMaintenance).admit);
  EXPECT_FALSE(adm.admit(WorkClass::kMaintenance).admit);

  // A second of ticks refills the bucket even while still overloaded.
  now += kSeconds;
  adm.tick();
  ASSERT_TRUE(adm.overloaded());
  EXPECT_TRUE(adm.admit(WorkClass::kMaintenance).admit);
  EXPECT_GE(metrics.counter_value("admission.maintenance_trickle"), 4u);
  EXPECT_GE(metrics.counter_value("admission.maintenance_shed"), 1u);
}

// ---- cluster: end-to-end overload contract ----------------------------------

harness::ClusterOptions admission_cluster_options(std::uint64_t seed = 11) {
  harness::ClusterOptions opts;
  opts.node_count = 20;
  opts.seed = seed;
  opts.node.slice_config = {2, 1};
  opts.node.admission.enabled = true;
  return opts;
}

void force_overload(harness::Cluster& cluster, std::size_t index) {
  // A huge queue-depth reading trips the probe signal on the next tick.
  cluster.node(index).set_load_probe([]() { return std::size_t{1} << 20; });
}

void clear_overload(harness::Cluster& cluster, std::size_t index) {
  cluster.node(index).set_load_probe([]() { return std::size_t{0}; });
}

class AdmissionClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ =
        std::make_unique<harness::Cluster>(admission_cluster_options());
    cluster_->start_all();
    cluster_->run_for(60 * kSeconds);
  }

  std::unique_ptr<harness::Cluster> cluster_;
};

TEST_F(AdmissionClusterTest, FullyOverloadedClusterShedsDefinitivelyThenRecovers) {
  for (std::size_t i = 0; i < cluster_->size(); ++i) {
    force_overload(*cluster_, i);
  }
  cluster_->run_for(kSeconds);  // a few admission ticks
  for (std::size_t i = 0; i < cluster_->size(); ++i) {
    ASSERT_NE(cluster_->node(i).admission(), nullptr);
    ASSERT_TRUE(cluster_->node(i).admission()->overloaded()) << "node " << i;
  }

  ClientOptions opts;
  opts.request_timeout = 2 * kSeconds;
  opts.max_attempts = 3;
  opts.backoff_base = 50 * kMillis;
  auto& client = cluster_->add_client(opts);

  // Every contact sheds: the op must resolve definitively as overloaded —
  // an explicit backpressure answer, not a hang and not a plain timeout.
  std::optional<PutResult> put;
  client.put("shed-me", Bytes{1}, 1, [&](const PutResult& r) { put = r; });
  cluster_->run_for(30 * kSeconds);
  ASSERT_TRUE(put.has_value());
  EXPECT_FALSE(put->ok);
  EXPECT_GE(client.metrics().counter_value("client.overload_replies"), 1u);
  EXPECT_GE(client.metrics().counter_value("client.ops_overloaded"), 1u);
  EXPECT_EQ(client.inflight(), 0u);

  // Load gone: the controllers exit on their low watermarks and the same
  // client's next write lands.
  for (std::size_t i = 0; i < cluster_->size(); ++i) {
    clear_overload(*cluster_, i);
  }
  cluster_->run_for(2 * kSeconds);
  for (std::size_t i = 0; i < cluster_->size(); ++i) {
    EXPECT_FALSE(cluster_->node(i).admission()->overloaded()) << "node " << i;
  }
  std::optional<PutResult> recovered;
  client.put("recovered", Bytes{2}, 1,
             [&](const PutResult& r) { recovered = r; });
  cluster_->run_for(20 * kSeconds);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_TRUE(recovered->ok);
}

TEST_F(AdmissionClusterTest, ClientRoutesAroundHotMinority) {
  // A quarter of the fleet is saturated; the balancer's overload feedback
  // steers retries at the healthy majority, so every op still lands.
  for (std::size_t i = 0; i < 5; ++i) force_overload(*cluster_, i);
  cluster_->run_for(kSeconds);

  ClientOptions opts;
  opts.request_timeout = 2 * kSeconds;
  opts.max_attempts = 4;
  opts.backoff_base = 50 * kMillis;
  auto& client = cluster_->add_client(opts);

  std::size_t ok = 0;
  std::size_t done = 0;
  for (int i = 0; i < 10; ++i) {
    const Key key = "hot-" + std::to_string(i);
    client.put(key, Bytes{static_cast<std::uint8_t>(i)}, 1,
               [&](const PutResult& r) {
                 ++done;
                 if (r.ok) ++ok;
               });
  }
  cluster_->run_for(60 * kSeconds);
  EXPECT_EQ(done, 10u);
  EXPECT_EQ(ok, 10u);
  EXPECT_EQ(client.inflight(), 0u);
}

TEST_F(AdmissionClusterTest, MaintenanceTrickleKeepsGossipAliveUnderOverload) {
  for (std::size_t i = 0; i < cluster_->size(); ++i) {
    force_overload(*cluster_, i);
  }
  cluster_->run_for(30 * kSeconds);

  // Client work is shed, but the guaranteed trickle keeps membership
  // converging: gossip is admitted (not starved) on every node.
  std::uint64_t trickled = 0;
  for (std::size_t i = 0; i < cluster_->size(); ++i) {
    trickled += cluster_->node(i).metrics().counter_value(
        "admission.maintenance_trickle");
    EXPECT_GT(cluster_->node(i).peer_sampling().view().size(), 0u)
        << "node " << i;
  }
  EXPECT_GT(trickled, 0u);
}

// ---- client semantics against a scripted server -----------------------------

/// Fixture with ONE unstarted node slot whose transport handler we script
/// by hand, so tests control exactly what the "server" answers.
class ScriptedServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    harness::ClusterOptions opts;
    opts.node_count = 1;
    opts.seed = 5;
    cluster_ = std::make_unique<harness::Cluster>(opts);
    // Node 0 is never started; tests register their own handler for it.
  }

  std::unique_ptr<harness::Cluster> cluster_;
};

TEST_F(ScriptedServerTest, OverloadReplyBacksOffThenFailsDefinitively) {
  // The scripted contact sheds every envelope with a retry-after hint.
  std::size_t envelopes = 0;
  cluster_->transport().register_handler(
      NodeId(0), [&](const net::Message& msg) {
        if (msg.type != core::kOpEnvelope) return;
        const auto envelope = core::decode_op_envelope(msg.payload);
        ASSERT_TRUE(envelope.has_value());
        ++envelopes;
        cluster_->transport().send(net::Message{
            NodeId(0), msg.src, core::kOverloaded,
            core::encode(
                core::OverloadReply{envelope->ops.front().rid, 100})});
      });

  ClientOptions opts;
  opts.request_timeout = 2 * kSeconds;
  opts.max_attempts = 2;
  opts.backoff_base = 50 * kMillis;
  auto& client = cluster_->add_client(opts);

  std::optional<PutResult> result;
  client.put("k", Bytes{1}, 1, [&](const PutResult& r) { result = r; });
  cluster_->run_for(30 * kSeconds);

  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  EXPECT_EQ(result->attempts, 2u);
  // One backoff retry happened, then the budget was spent: definitive.
  EXPECT_EQ(envelopes, 2u);
  EXPECT_EQ(client.metrics().counter_value("client.overload_replies"), 2u);
  EXPECT_EQ(client.metrics().counter_value("client.overload_retries"), 1u);
  EXPECT_EQ(client.metrics().counter_value("client.ops_overloaded"), 1u);

  // Regression (explicit-negative vs. silence): the contact ANSWERED, so
  // it must be marked overloaded — not unreachable. node_unreachable would
  // have left the overload map empty.
  auto& balancer = cluster_->balancer(0);
  EXPECT_EQ(balancer.overloaded_count(), 1u);
}

TEST_F(ScriptedServerTest, SilentContactIsStillMarkedUnreachable) {
  // No handler at all: pure timeout. The failure is generic (not
  // overloaded, not deadline — no deadline configured), after the full
  // retry budget.
  ClientOptions opts;
  opts.request_timeout = kSeconds;
  opts.max_attempts = 2;
  auto& client = cluster_->add_client(opts);

  std::optional<PutResult> result;
  client.put("k", Bytes{1}, 1, [&](const PutResult& r) { result = r; });
  cluster_->run_for(10 * kSeconds);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  EXPECT_EQ(result->attempts, 2u);
  EXPECT_EQ(client.metrics().counter_value("client.overload_replies"), 0u);
  auto& balancer = cluster_->balancer(0);
  EXPECT_EQ(balancer.overloaded_count(), 0u);
}

TEST_F(ScriptedServerTest, DeadlineBoundsASilentRequest) {
  // Generous retry budget, tight deadline: the deadline must win, and the
  // op must resolve as deadline_exceeded within (roughly) the deadline —
  // not after max_attempts x request_timeout.
  ClientOptions opts;
  opts.request_timeout = kSeconds;
  opts.max_attempts = 10;
  opts.op_deadline = 2500 * kMillis;
  auto& client = cluster_->add_client(opts);

  std::optional<client::OpResult> result;
  client.execute({core::Operation::get("k")},
                 [&](const std::vector<client::OpResult>& results) {
                   result = results.front();
                 });
  cluster_->run_for(3 * kSeconds);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  EXPECT_TRUE(result->deadline_exceeded);
  EXPECT_LE(result->latency, 2600 * kMillis);
  EXPECT_EQ(client.metrics().counter_value("client.ops_deadline_exceeded"),
            1u);
}

TEST_F(ScriptedServerTest, DeadlineTrumpsOverloadBackoffWait) {
  // The shed's suggested wait does not fit the remaining budget: fail as
  // overloaded NOW instead of sleeping past the deadline.
  cluster_->transport().register_handler(
      NodeId(0), [&](const net::Message& msg) {
        if (msg.type != core::kOpEnvelope) return;
        const auto envelope = core::decode_op_envelope(msg.payload);
        ASSERT_TRUE(envelope.has_value());
        cluster_->transport().send(net::Message{
            NodeId(0), msg.src, core::kOverloaded,
            core::encode(
                core::OverloadReply{envelope->ops.front().rid, 5000})});
      });

  ClientOptions opts;
  opts.request_timeout = 2 * kSeconds;
  opts.max_attempts = 10;
  opts.op_deadline = kSeconds;
  opts.backoff_max = 10 * kSeconds;
  auto& client = cluster_->add_client(opts);

  std::optional<PutResult> result;
  client.put("k", Bytes{1}, 1, [&](const PutResult& r) { result = r; });
  cluster_->run_for(5 * kSeconds);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  EXPECT_EQ(client.metrics().counter_value("client.ops_overloaded"), 1u);
  EXPECT_EQ(result->attempts, 1u);
}

TEST_F(ScriptedServerTest, V1ClientFailsDefinitivelyOnOverloadFrame) {
  // A v1-pinned client still understands the kOverloaded frame (it is not
  // part of the negotiated op encoding): the op fails definitively instead
  // of crashing or hanging.
  cluster_->transport().register_handler(
      NodeId(0), [&](const net::Message& msg) {
        if (msg.type != core::kOpEnvelope) return;
        const auto envelope = core::decode_op_envelope(msg.payload);
        ASSERT_TRUE(envelope.has_value());
        EXPECT_EQ(envelope->protocol, core::kOpProtocolMin);
        cluster_->transport().send(net::Message{
            NodeId(0), msg.src, core::kOverloaded,
            core::encode(
                core::OverloadReply{envelope->ops.front().rid, 100})});
      });

  ClientOptions opts;
  opts.protocol_version = core::kOpProtocolMin;
  opts.request_timeout = 2 * kSeconds;
  opts.max_attempts = 2;
  opts.backoff_base = 50 * kMillis;
  auto& client = cluster_->add_client(opts);

  std::optional<PutResult> result;
  client.put("k", Bytes{1}, 1, [&](const PutResult& r) { result = r; });
  cluster_->run_for(30 * kSeconds);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->ok);
  EXPECT_EQ(client.metrics().counter_value("client.ops_overloaded"), 1u);
  EXPECT_EQ(client.inflight(), 0u);
}

// ---- balancer overload feedback ---------------------------------------------

TEST(LoadBalancerOverload, AvoidsOverloadedContactUntilExpiry) {
  client::LoadBalancer lb({NodeId(1), NodeId(2), NodeId(3)}, Rng(1));
  lb.node_overloaded(NodeId(2), 10 * kSeconds);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(lb.pick_contact(std::nullopt, kSeconds), NodeId(2));
  }
  // Past the window the node is re-admitted (and the entry purged).
  bool seen = false;
  for (int i = 0; i < 100 && !seen; ++i) {
    seen = lb.pick_contact(std::nullopt, 11 * kSeconds) == NodeId(2);
  }
  EXPECT_TRUE(seen);
  EXPECT_EQ(lb.overloaded_count(), 0u);
}

TEST(LoadBalancerOverload, SuccessFeedbackClearsOverload) {
  client::LoadBalancer lb({NodeId(1), NodeId(2)}, Rng(1));
  lb.node_overloaded(NodeId(2), 10 * kSeconds);
  EXPECT_EQ(lb.overloaded_count(), 1u);
  lb.observe_replica(NodeId(2), 0);
  EXPECT_EQ(lb.overloaded_count(), 0u);
}

TEST(LoadBalancerOverload, OverloadedAnswerClearsUnreachable) {
  // An overload reply proves liveness: the node moves from the
  // unreachable set to the (time-bounded) overload set.
  client::LoadBalancer lb({NodeId(1), NodeId(2)}, Rng(1));
  lb.node_unreachable(NodeId(2));
  lb.node_overloaded(NodeId(2), 5 * kSeconds);
  EXPECT_EQ(lb.overloaded_count(), 1u);
  // After expiry it is immediately pickable — the unreachable mark is gone.
  bool seen = false;
  for (int i = 0; i < 100 && !seen; ++i) {
    seen = lb.pick_contact(std::nullopt, 6 * kSeconds) == NodeId(2);
  }
  EXPECT_TRUE(seen);
}

TEST(LoadBalancerOverload, SliceCacheSkipsOverloadedEntryWithoutEvicting) {
  client::LoadBalancer lb({NodeId(1), NodeId(2), NodeId(3)}, Rng(1));
  lb.observe_replica(NodeId(2), 7);
  EXPECT_EQ(lb.pick_contact(SliceId{7}, kSeconds), NodeId(2));
  lb.node_overloaded(NodeId(2), 10 * kSeconds);
  for (int i = 0; i < 50; ++i) {
    EXPECT_NE(lb.pick_contact(SliceId{7}, kSeconds), NodeId(2));
  }
  // The cache entry survived the avoidance window: once the overload
  // expires the cached replica is used again.
  EXPECT_EQ(lb.pick_contact(SliceId{7}, 11 * kSeconds), NodeId(2));
}

}  // namespace
}  // namespace dataflasks
