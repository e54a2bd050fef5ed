// Slice-targeted spray routing (paper §IV-B). A request is relayed through
// random PSS peers until it reaches a node of the target slice; dissemination
// then continues only inside the slice ("we consider a Peer Sampling Service
// intra-slice"). This implements the paper's optimization of reaching only
// the fraction of nodes needed to hit the slice instead of flooding atomically.
//
// The router is protocol-agnostic: the owner supplies its current slice, a
// slice-local peer sampler and a delivery callback; payloads are opaque.
#pragma once

#include <cstdint>
#include <functional>

#include "common/rng.hpp"
#include "dissemination/dedup_cache.hpp"
#include "net/transport.hpp"
#include "pss/peer_sampling.hpp"

namespace dataflasks::dissemination {

constexpr std::uint16_t kSprayMsg = net::kRequestTypeBase + 1;

struct SprayOptions {
  std::size_t global_fanout = 2;  ///< relays while outside the target slice
  std::size_t slice_fanout = 3;   ///< relays once inside the target slice
  /// Discovery hop budget. Needs ~log_f(beta * k) hops to cover enough
  /// nodes to hit a slice w.h.p.; owners set this from adaptive_ttl().
  std::uint8_t max_hops = 16;
  /// Separate budget for the intra-slice phase (paper §IV-B: once inside
  /// the slice, dissemination continues over the intra-slice PSS). The hop
  /// counter resets when a message first enters its target slice.
  std::uint8_t max_slice_hops = 8;
  std::size_t dedup_capacity = 1 << 15;
};

/// Hop budget sufficient for a fanout-f spray to cover ~beta * slice_count
/// nodes — the coverage at which a uniformly spread spray hits a specific
/// slice with probability >= 1 - e^{-beta} — plus fixed slack for overlap.
[[nodiscard]] std::uint8_t adaptive_ttl(std::size_t fanout,
                                        std::uint32_t slice_count,
                                        double beta);

/// What the delivery callback tells the router to do next.
enum class DeliverResult {
  kStop,             ///< handled; do not relay further (typical for puts)
  kContinueInSlice,  ///< keep relaying to slice peers (get not satisfiable here)
};

class SprayRouter {
 public:
  /// Called once per message id when this node is in the target slice.
  /// The payload is a zero-copy view into the frame it arrived in.
  using DeliverFn = std::function<DeliverResult(
      const Payload& payload, SliceId target, NodeId origin)>;
  /// Supplies this node's current slice (from the slicing protocol).
  using SliceFn = std::function<SliceId()>;
  /// Supplies up to `count` known members of this node's own slice.
  using SlicePeersFn = std::function<std::vector<NodeId>(std::size_t count)>;
  /// Optional: a recently seen contact in the given slice. When it names
  /// one, a discovery relay sends one copy straight to it and keeps a
  /// single random relay as a hedge — the paper's §VII cache optimization.
  using DirectoryFn = std::function<std::optional<NodeId>(SliceId)>;

  SprayRouter(NodeId self, net::Transport& transport, pss::PeerSampling& pss,
              Rng rng, SprayOptions options, SliceFn current_slice,
              SlicePeersFn slice_peers, DeliverFn deliver,
              DirectoryFn directory = nullptr);

  /// Originates a spray toward `target`. Returns the spray id. If this node
  /// is already in the target slice, delivery happens locally first.
  std::uint64_t originate(SliceId target, Payload payload);

  /// Consumes spray messages; false when the type is not ours.
  bool handle(const net::Message& msg);

  [[nodiscard]] const SprayOptions& options() const { return options_; }
  void set_options(const SprayOptions& options) { options_ = options; }

 private:
  void route(std::uint64_t id, SliceId target, NodeId origin,
             std::uint8_t hops, bool in_slice_phase, const Payload& payload,
             bool deliver_locally);
  void relay_global(std::uint64_t id, SliceId target, NodeId origin,
                    std::uint8_t hops, bool in_slice_phase,
                    const Payload& payload);
  void relay_in_slice(std::uint64_t id, SliceId target, NodeId origin,
                      std::uint8_t hops, const Payload& payload);
  /// Encodes the wire frame for one relay round; every peer in the round
  /// shares the returned buffer.
  [[nodiscard]] Payload encode_frame(std::uint64_t id, SliceId target,
                                     NodeId origin, std::uint8_t hops,
                                     bool in_slice_phase,
                                     const Payload& payload) const;

  NodeId self_;
  net::Transport& transport_;
  pss::PeerSampling& pss_;
  Rng rng_;
  SprayOptions options_;
  SliceFn current_slice_;
  SlicePeersFn slice_peers_;
  DeliverFn deliver_;
  DirectoryFn directory_;
  DedupCache seen_;
  std::uint64_t next_local_id_ = 0;
};

}  // namespace dataflasks::dissemination
