#include "dissemination/spray_router.hpp"

#include <algorithm>
#include <cmath>

#include "common/hash.hpp"

namespace dataflasks::dissemination {

std::uint8_t adaptive_ttl(std::size_t fanout, std::uint32_t slice_count,
                          double beta) {
  ensure(fanout >= 2, "adaptive_ttl: fanout must be >= 2");
  const double target_coverage =
      std::max(2.0, beta * static_cast<double>(slice_count));
  // fanout^hops >= target coverage. A fanout-f spray tree overshoots the
  // target by up to f-fold already (ceil) which absorbs tree overlap at
  // coverages well below N; the residual miss probability (~e^-beta) is
  // handled by client retries rather than by padding every spray.
  const double hops =
      std::ceil(std::log(target_coverage) / std::log(static_cast<double>(fanout)));
  return static_cast<std::uint8_t>(std::clamp(hops, 1.0, 255.0));
}

SprayRouter::SprayRouter(NodeId self, net::Transport& transport,
                         pss::PeerSampling& pss, Rng rng, SprayOptions options,
                         SliceFn current_slice, SlicePeersFn slice_peers,
                         DeliverFn deliver, DirectoryFn directory)
    : self_(self),
      transport_(transport),
      pss_(pss),
      rng_(rng),
      options_(options),
      current_slice_(std::move(current_slice)),
      slice_peers_(std::move(slice_peers)),
      deliver_(std::move(deliver)),
      directory_(std::move(directory)),
      seen_(options.dedup_capacity) {
  ensure(static_cast<bool>(current_slice_), "SprayRouter: no slice fn");
  ensure(static_cast<bool>(slice_peers_), "SprayRouter: no slice peers fn");
  ensure(static_cast<bool>(deliver_), "SprayRouter: no deliver fn");
}

std::uint64_t SprayRouter::originate(SliceId target, Payload payload) {
  const std::uint64_t id =
      hash_combine(self_.value, 0x5b4a9e11ULL + next_local_id_++);
  seen_.seen_or_insert(id);
  route(id, target, self_, 0, /*in_slice_phase=*/false, payload,
        /*deliver_locally=*/true);
  return id;
}

bool SprayRouter::handle(const net::Message& msg) {
  if (msg.type != kSprayMsg) return false;

  Reader r(msg.payload);
  const std::uint64_t id = r.u64();
  const auto target = static_cast<SliceId>(r.u32());
  const NodeId origin = r.node_id();
  const std::uint8_t hops = r.u8();
  const bool in_slice_phase = r.boolean();
  // Zero-copy: the inner payload stays a view into the incoming frame.
  const Payload payload = r.payload();
  if (!r.finish().ok()) return true;  // malformed: drop

  if (seen_.seen_or_insert(id)) return true;  // duplicate
  route(id, target, origin, hops, in_slice_phase, payload,
        /*deliver_locally=*/true);
  return true;
}

void SprayRouter::route(std::uint64_t id, SliceId target, NodeId origin,
                        std::uint8_t hops, bool in_slice_phase,
                        const Payload& payload, bool deliver_locally) {
  const bool in_target = current_slice_() == target;

  if (in_target) {
    DeliverResult result = DeliverResult::kStop;
    if (deliver_locally) result = deliver_(payload, target, origin);
    if (result == DeliverResult::kContinueInSlice) {
      // Phase switch: the discovery hop counter does not constrain the
      // intra-slice phase, which gets its own budget.
      const std::uint8_t slice_hops = in_slice_phase ? hops : 0;
      if (slice_hops < options_.max_slice_hops) {
        relay_in_slice(id, target, origin, slice_hops + 1, payload);
      }
    }
    return;
  }

  if (!in_slice_phase && hops < options_.max_hops) {
    relay_global(id, target, origin, hops + 1, /*in_slice_phase=*/false,
                 payload);
  } else if (in_slice_phase && hops < options_.max_slice_hops) {
    // A slice-phase message landed on a node that (now) believes it is
    // outside the slice (stale view / slice change): keep it moving via
    // the global view so it is not lost.
    relay_global(id, target, origin, hops + 1, /*in_slice_phase=*/true,
                 payload);
  }
}

void SprayRouter::relay_global(std::uint64_t id, SliceId target, NodeId origin,
                               std::uint8_t hops, bool in_slice_phase,
                               const Payload& payload) {
  std::size_t fanout = options_.global_fanout;
  // One frame per relay round: every recipient below (directory contact and
  // random peers alike) shares the same encoded buffer.
  const Payload frame =
      encode_frame(id, target, origin, hops, in_slice_phase, payload);

  if (directory_) {
    if (const auto contact = directory_(target);
        contact && *contact != self_) {
      // Known member of the target slice: jump straight to it and keep a
      // single random relay as a hedge against a stale directory entry.
      transport_.send(net::Message{self_, *contact, kSprayMsg, frame});
      fanout = fanout > 1 ? 1 : 0;
    }
  }

  for (const NodeId peer : pss_.sample_peers(fanout)) {
    if (peer == self_) continue;
    transport_.send(net::Message{self_, peer, kSprayMsg, frame});
  }
}

void SprayRouter::relay_in_slice(std::uint64_t id, SliceId target,
                                 NodeId origin, std::uint8_t hops,
                                 const Payload& payload) {
  auto peers = slice_peers_(options_.slice_fanout);
  if (peers.empty()) {
    // Slice view not warmed up yet: fall back to global relay so the
    // request is not lost (it will re-enter the slice elsewhere).
    relay_global(id, target, origin, hops, /*in_slice_phase=*/true, payload);
    return;
  }
  const Payload frame = encode_frame(id, target, origin, hops,
                                     /*in_slice_phase=*/true, payload);
  for (const NodeId peer : peers) {
    if (peer == self_) continue;
    transport_.send(net::Message{self_, peer, kSprayMsg, frame});
  }
}

Payload SprayRouter::encode_frame(std::uint64_t id, SliceId target,
                                  NodeId origin, std::uint8_t hops,
                                  bool in_slice_phase,
                                  const Payload& payload) const {
  Writer w(2 * sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t) + 2 +
           payload.size());
  w.u64(id);
  w.u32(target);
  w.node_id(origin);
  w.u8(hops);
  w.boolean(in_slice_phase);
  w.bytes(payload);
  return w.take_payload();
}

}  // namespace dataflasks::dissemination
