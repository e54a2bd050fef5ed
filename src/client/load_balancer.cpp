#include "client/load_balancer.hpp"

#include <algorithm>

#include "common/ensure.hpp"

namespace dataflasks::client {

LoadBalancer::LoadBalancer(std::vector<NodeId> nodes, Rng rng)
    : nodes_(std::move(nodes)), rng_(rng) {
  ensure(!nodes_.empty(), "LoadBalancer: empty node list");
}

NodeId LoadBalancer::pick_contact(std::optional<SliceId> slice, SimTime now) {
  if (slice) {
    const auto it = cache_.find(*slice);
    // A cached replica under overload avoidance is skipped (not evicted:
    // it still holds the data and is re-used once the avoidance expires).
    if (it != cache_.end() && !avoid_overloaded(it->second, now)) {
      ++hits_;
      return it->second;
    }
    ++misses_;
  }
  return pick_random(now);
}

NodeId LoadBalancer::pick_random(SimTime now) {
  // Retry a few draws to dodge contacts that recently timed out or shed us
  // for overload. The last draw is returned unconditionally: it bounds the
  // work and doubles as an occasional liveness probe, so a restarted (or
  // recovered) node re-admits itself even without success feedback.
  NodeId candidate = rng_.pick(nodes_);
  for (int redraw = 0;
       redraw < 8 &&
       (unreachable_.contains(candidate) || avoid_overloaded(candidate, now));
       ++redraw) {
    candidate = rng_.pick(nodes_);
  }
  return candidate;
}

bool LoadBalancer::avoid_overloaded(NodeId node, SimTime now) {
  const auto it = overloaded_until_.find(node);
  if (it == overloaded_until_.end()) return false;
  if (now != 0 && now >= it->second) {
    overloaded_until_.erase(it);
    return false;
  }
  return true;
}

void LoadBalancer::observe_replica(NodeId node, SliceId slice) {
  unreachable_.erase(node);
  overloaded_until_.erase(node);
  cache_[slice] = node;
}

void LoadBalancer::node_unreachable(NodeId node) {
  // Bound: never blacklist more than half the population, or a partitioned
  // client would mark everyone unreachable and neuter the avoidance.
  if (unreachable_.size() >= std::max<std::size_t>(1, nodes_.size() / 2)) {
    unreachable_.clear();
  }
  unreachable_.insert(node);
  std::erase_if(cache_, [node](const auto& entry) {
    return entry.second == node;
  });
}

void LoadBalancer::node_overloaded(NodeId node, SimTime until) {
  // An overloaded node answered, so it is definitely reachable.
  unreachable_.erase(node);
  // Same half-population bound as node_unreachable: when the whole fleet is
  // saturated, avoidance cannot help and must not block every pick.
  if (overloaded_until_.size() >= std::max<std::size_t>(1, nodes_.size() / 2) &&
      !overloaded_until_.contains(node)) {
    overloaded_until_.clear();
  }
  SimTime& entry = overloaded_until_[node];
  entry = std::max(entry, until);
}

}  // namespace dataflasks::client
