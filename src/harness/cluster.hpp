// Simulation harness: builds a whole DataFlasks deployment (simulator,
// network, transport, N nodes, clients) from one options struct, applies
// churn plans, and provides whole-system audits (replica counts, slice
// distribution) that tests and benches assert on. Plays the role of the
// Minha test driver in the paper's evaluation.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "client/client.hpp"
#include "core/node.hpp"
#include "net/sim_transport.hpp"
#include "sim/churn.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace dataflasks::harness {

struct ClusterOptions {
  std::size_t node_count = 100;
  core::NodeOptions node;
  sim::LatencyModel latency{5 * kMillis, 50 * kMillis};
  double loss_probability = 0.0;
  std::uint64_t seed = 42;
  /// Bootstrap contacts handed to each starting node (random sample).
  std::size_t bootstrap_contacts = 8;
  /// Node capacities (the slicing attribute) drawn uniformly from this range.
  double capacity_min = 1.0;
  double capacity_max = 2.0;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options);

  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] net::SimTransport& transport() { return *transport_; }
  [[nodiscard]] sim::NetworkModel& network() { return model_; }
  [[nodiscard]] const ClusterOptions& options() const { return options_; }

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] core::Node& node(std::size_t index) { return *nodes_[index]; }
  [[nodiscard]] core::Node* node_by_id(NodeId id);
  [[nodiscard]] std::vector<NodeId> node_ids() const;
  [[nodiscard]] std::vector<NodeId> running_node_ids() const;

  /// Starts every node with random bootstrap contacts.
  void start_all();

  /// Runs the simulation for `duration` of virtual time.
  void run_for(SimTime duration);

  /// Crash / restart by index (applies both the network and node effects).
  void crash(std::size_t index);
  void restart(std::size_t index);

  /// Schedules a churn plan's events onto the simulator.
  void apply_churn_plan(const std::vector<sim::ChurnEvent>& plan);

  /// Creates a client with its own load balancer over every node. The
  /// cluster owns both.
  client::Client& add_client(client::ClientOptions options = {});
  [[nodiscard]] std::size_t client_count() const { return clients_.size(); }
  [[nodiscard]] client::Client& client(std::size_t index) {
    return *clients_[index];
  }
  [[nodiscard]] client::LoadBalancer& balancer(std::size_t index) {
    return *balancers_[index];
  }

  // ---- audits --------------------------------------------------------------

  /// How many running nodes currently sit in each slice (by their own claim).
  [[nodiscard]] std::map<SliceId, std::size_t> slice_histogram() const;

  /// Copies of (key, version) currently stored across running nodes.
  [[nodiscard]] std::size_t replica_count(const Key& key,
                                          Version version) const;

  /// Fraction of running members of `key`'s slice holding (key, version):
  /// 1.0 means anti-entropy fully converged for this object.
  [[nodiscard]] double slice_coverage(const Key& key, Version version) const;

  /// Mean per-node message count (sent + received), optionally restricted
  /// to one traffic category — the quantity Figures 3-4 plot.
  [[nodiscard]] double mean_messages_per_node() const;
  [[nodiscard]] double mean_messages_per_node(net::MsgCategory category) const;

 private:
  ClusterOptions options_;
  sim::Simulator simulator_;
  sim::NetworkModel model_;
  std::unique_ptr<net::SimTransport> transport_;
  Rng rng_;
  std::vector<std::unique_ptr<core::Node>> nodes_;
  std::vector<std::unique_ptr<client::LoadBalancer>> balancers_;
  std::vector<std::unique_ptr<client::Client>> clients_;
  std::uint64_t next_client_id_ = 1'000'000;
};

}  // namespace dataflasks::harness
