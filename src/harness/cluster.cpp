#include "harness/cluster.hpp"

#include <algorithm>

namespace dataflasks::harness {

Cluster::Cluster(ClusterOptions options)
    : options_(options),
      simulator_(options.seed),
      model_(options.latency, options.loss_probability),
      rng_(simulator_.rng().fork(0xc1a5)) {
  ensure(options_.node_count > 0, "Cluster: zero nodes");
  transport_ = std::make_unique<net::SimTransport>(simulator_, model_);

  nodes_.reserve(options_.node_count);
  for (std::size_t i = 0; i < options_.node_count; ++i) {
    const double capacity =
        options_.capacity_min +
        rng_.next_double() * (options_.capacity_max - options_.capacity_min);
    nodes_.push_back(std::make_unique<core::Node>(
        NodeId(i), capacity, simulator_, *transport_, options_.node,
        /*seed=*/rng_.next_u64()));
  }
}

core::Node* Cluster::node_by_id(NodeId id) {
  if (id.value >= nodes_.size()) return nullptr;
  return nodes_[static_cast<std::size_t>(id.value)].get();
}

std::vector<NodeId> Cluster::node_ids() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(n->id());
  return out;
}

std::vector<NodeId> Cluster::running_node_ids() const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_) {
    if (n->running()) out.push_back(n->id());
  }
  return out;
}

void Cluster::start_all() {
  const std::vector<NodeId> ids = node_ids();
  for (auto& n : nodes_) {
    std::vector<NodeId> seeds = rng_.sample(ids, options_.bootstrap_contacts);
    std::erase(seeds, n->id());
    n->start(seeds);
  }
}

void Cluster::run_for(SimTime duration) {
  simulator_.run_until(simulator_.now() + duration);
}

void Cluster::crash(std::size_t index) {
  ensure(index < nodes_.size(), "Cluster::crash: bad index");
  if (!nodes_[index]->running()) return;
  model_.set_node_up(NodeId(index), false);
  nodes_[index]->crash();
}

void Cluster::restart(std::size_t index) {
  ensure(index < nodes_.size(), "Cluster::restart: bad index");
  if (nodes_[index]->running()) return;
  model_.set_node_up(NodeId(index), true);
  // A rejoining node bootstraps from currently running peers when possible.
  std::vector<NodeId> seeds = running_node_ids();
  if (seeds.empty()) seeds = node_ids();
  seeds = rng_.sample(seeds, options_.bootstrap_contacts);
  std::erase(seeds, NodeId(index));
  nodes_[index]->start(seeds);
}

void Cluster::apply_churn_plan(const std::vector<sim::ChurnEvent>& plan) {
  for (const sim::ChurnEvent& event : plan) {
    const auto index = static_cast<std::size_t>(event.node.value);
    ensure(index < nodes_.size(), "churn plan references unknown node");
    simulator_.schedule_at(event.at, [this, event, index]() {
      if (event.kind == sim::ChurnEventKind::kCrash) {
        crash(index);
      } else {
        restart(index);
      }
    });
  }
}

client::Client& Cluster::add_client(client::ClientOptions options) {
  balancers_.push_back(std::make_unique<client::LoadBalancer>(
      node_ids(), rng_.fork(next_client_id_)));
  clients_.push_back(std::make_unique<client::Client>(
      NodeId(next_client_id_++), *transport_, simulator_, *balancers_.back(),
      rng_.fork(0xc11e47), options));
  return *clients_.back();
}

std::map<SliceId, std::size_t> Cluster::slice_histogram() const {
  std::map<SliceId, std::size_t> histogram;
  for (const auto& n : nodes_) {
    if (n->running()) ++histogram[n->slice()];
  }
  return histogram;
}

std::size_t Cluster::replica_count(const Key& key, Version version) const {
  std::size_t count = 0;
  for (const auto& n : nodes_) {
    if (n->running() && n->store().contains(key, version)) ++count;
  }
  return count;
}

double Cluster::slice_coverage(const Key& key, Version version) const {
  std::size_t members = 0;
  std::size_t holders = 0;
  for (const auto& n : nodes_) {
    if (!n->running()) continue;
    if (n->key_slice(key) != n->slice()) continue;
    ++members;
    if (n->store().contains(key, version)) ++holders;
  }
  return members == 0 ? 0.0
                      : static_cast<double>(holders) /
                            static_cast<double>(members);
}

double Cluster::mean_messages_per_node() const {
  if (nodes_.empty()) return 0.0;
  std::uint64_t total = 0;
  for (const auto& n : nodes_) {
    total += transport_->stats(n->id()).total_messages();
  }
  return static_cast<double>(total) / static_cast<double>(nodes_.size());
}

double Cluster::mean_messages_per_node(net::MsgCategory category) const {
  if (nodes_.empty()) return 0.0;
  std::uint64_t total = 0;
  for (const auto& n : nodes_) {
    total += transport_->stats_for_category(n->id(), category).total_messages();
  }
  return static_cast<double>(total) / static_cast<double>(nodes_.size());
}

}  // namespace dataflasks::harness
