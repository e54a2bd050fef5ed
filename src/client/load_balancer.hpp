// Load Balancer (paper §V): "provides the Client Library with references to
// nodes that can answer client requests. ... For now, the Load Balancer
// provides the client with a random contact node."
//
// This one goes the §VII way: it remembers one replica per slice, learned
// from replies, and contacts it directly, so a request reaches its slice
// on the first hop. A slice it knows no replica for (a cold client, an
// evicted entry, or no slice hint at all) gets the paper's random contact.
#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace dataflasks::client {

class LoadBalancer {
 public:
  LoadBalancer(std::vector<NodeId> nodes, Rng rng);

  /// Picks a contact node for a request targeting `slice`: the cached
  /// replica of that slice, else a random node. `slice` is nullopt when
  /// the client cannot compute it (slice count unknown) or when it would
  /// not narrow the choice (one slice holds every node). `now` is the
  /// caller's clock, used to expire per-contact overload avoidance
  /// (callers without a clock may pass 0: avoidance then never expires on
  /// its own, only through observe_replica feedback).
  [[nodiscard]] NodeId pick_contact(std::optional<SliceId> slice,
                                    SimTime now = 0);

  /// Feedback: `node` (a member of `slice`) answered a request. It becomes
  /// the slice's cached replica.
  void observe_replica(NodeId node, SliceId slice);

  /// Feedback: `node` failed to answer before the timeout. It is avoided
  /// by random picks and evicted from the slice cache.
  void node_unreachable(NodeId node);

  /// Feedback: `node` answered with an explicit overload shed; prefer
  /// other contacts until `until` (same clock domain as pick_contact's
  /// `now`). Distinct from node_unreachable — an overloaded node is alive,
  /// so its cache entry is skipped, not evicted.
  void node_overloaded(NodeId node, SimTime until);

  /// Drops every cached replica (the slice numbering changed).
  void forget_slices() { cache_.clear(); }

  void set_nodes(std::vector<NodeId> nodes) {
    nodes_ = std::move(nodes);
    // Stale blacklist entries for nodes no longer in the pool would pin the
    // bounded budget and never be re-admitted; start fresh.
    unreachable_.clear();
    overloaded_until_.clear();
  }
  [[nodiscard]] const std::vector<NodeId>& nodes() const { return nodes_; }
  /// Contacts currently under overload avoidance (expired entries are
  /// only purged lazily by pick_contact).
  [[nodiscard]] std::size_t overloaded_count() const {
    return overloaded_until_.size();
  }
  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }
  [[nodiscard]] std::uint64_t cache_hits() const { return hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const { return misses_; }

 private:
  /// True while `node` is under overload avoidance; purges expired entries.
  [[nodiscard]] bool avoid_overloaded(NodeId node, SimTime now);
  [[nodiscard]] NodeId pick_random(SimTime now);

  std::vector<NodeId> nodes_;
  Rng rng_;
  std::unordered_set<NodeId> unreachable_;
  std::unordered_map<NodeId, SimTime> overloaded_until_;
  std::unordered_map<SliceId, NodeId> cache_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Older name of LoadBalancer, kept only because the benchmark driver
/// (perfbench/fleet.cpp) still spells it this way.
using RandomLoadBalancer = LoadBalancer;

}  // namespace dataflasks::client
