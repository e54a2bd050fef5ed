#include "server/shard_group.hpp"

#include <arpa/inet.h>

#include <algorithm>
#include <thread>
#include <utility>

#include "common/ensure.hpp"
#include "core/messages.hpp"
#include "slicing/slice_map.hpp"
#include "store/sharded_store.hpp"

namespace dataflasks::server {

namespace {

/// Resolves the UDP bind host to the host-byte-order IPv4 address the
/// stream listener binds. Misconfiguration is fatal at boot, like a UDP
/// bind failure.
std::uint32_t stream_listen_ip(const std::string& bind_host) {
  const auto dotted = net::resolve_ipv4(bind_host);
  ensure(dotted.has_value(),
         "ShardGroup: stream listener host does not resolve");
  const in_addr_t addr = ::inet_addr(dotted->c_str());
  ensure(addr != INADDR_NONE || *dotted == "255.255.255.255",
         "ShardGroup: bad stream listener address");
  return ntohl(addr);
}

/// Distinct deterministic RNG stream per shard (golden-ratio mix, same
/// spirit as splitmix64): shards must not replay each other's gossip or
/// spray choices.
std::uint64_t shard_seed(std::uint64_t seed, std::size_t k) {
  return seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(k) + 1));
}

}  // namespace

ShardGroup::ShardGroup(ShardGroupOptions options,
                       std::unique_ptr<store::Store> store)
    : options_(std::move(options)) {
  const std::size_t n = std::max<std::size_t>(1, options_.shards);
  options_.shards = n;
  ensure(n == 1 || store != nullptr,
         "ShardGroup: shards > 1 requires an injected thread-safe store");

  shards_.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    auto shard = std::make_unique<Shard>();
    shard->index = k;
    shard->rt = std::make_unique<runtime::RealTimeRuntime>(
        shard_seed(options_.seed, k));

    net::UdpTransport::Options net = options_.net;
    if (n > 1) {
      // All shards share the listen address; SO_REUSEPORT makes the kernel
      // the ingress load balancer (hash of the source 4-tuple).
      net.reuse_port = true;
      if (k > 0) net.port = shards_[0]->transport->local_port();
    }
    if (k == 0 && options_.stream_port >= 0) {
      // Streams live on shard 0 and bind before its UDP socket, so the
      // transport stamps the RESOLVED stream port (ephemeral included) into
      // the endpoint gossip carries from the very first self-descriptor.
      net::StreamTransport::Options sopts;
      sopts.listen = true;
      sopts.listen_ip = stream_listen_ip(net.bind_host);
      sopts.listen_port = static_cast<std::uint16_t>(options_.stream_port);
      stream_ = std::make_unique<net::StreamTransport>(*shard->rt, sopts);
    }
    if (stream_ != nullptr) {
      // EVERY shard advertises the (shared) listener: with SO_REUSEPORT a
      // client's discovery probe lands on an arbitrary sibling socket, and
      // a worker answering "no stream port" would leave that client on UDP.
      net.advertise_stream_port = stream_->listen_port();
    }
    shard->transport = std::make_unique<net::UdpTransport>(*shard->rt, net);

    if (k > 0 && options_.node.admission.enabled) {
      shard->metrics = std::make_unique<MetricsRegistry>();
      auto* rt = shard->rt.get();
      shard->admission = std::make_unique<core::AdmissionController>(
          [rt]() { return rt->now(); }, options_.node.admission,
          *shard->metrics);
      shard->admission->set_load_probe(
          [rt]() { return rt->pending_events(); });
    }
    shards_.push_back(std::move(shard));
  }

  if (stream_ != nullptr) {
    // Policy: state-transfer traffic prefers streams (the donor bursts
    // megabyte pages over them); client envelopes arrive on whatever the
    // client chose; everything gossipy stays UDP unless oversized.
    net::DualTransport::Options dopts;
    dopts.prefer_stream = [](std::uint16_t type) {
      return type == core::kStRequest || type == core::kStReply;
    };
    dual_ = std::make_unique<net::DualTransport>(
        *shards_[0]->rt, *shards_[0]->transport, stream_.get(),
        std::move(dopts));
  }

  // The full protocol node lives on shard 0; its store is the shared
  // (sharded) one, so executor shards reach the same data. With streams
  // enabled it talks through the DualTransport, which routes per message.
  net::Transport& node_transport =
      dual_ ? static_cast<net::Transport&>(*dual_)
            : static_cast<net::Transport&>(*shards_[0]->transport);
  node_ = std::make_unique<core::Node>(
      options_.id, options_.capacity, *shards_[0]->rt, node_transport,
      options_.node, shards_[0]->rt->rng().fork(0xDF).next_u64(),
      std::move(store));
}

ShardGroup::~ShardGroup() { shutdown(); }

core::AdmissionController* ShardGroup::shard_admission(std::size_t k) {
  // Shard 0's executor shares the node's controller (same thread), so its
  // sheds land in the node registry and render natively.
  return k == 0 ? node_->admission() : shards_[k]->admission.get();
}

void ShardGroup::start(const std::vector<NodeId>& peer_seeds) {
  node_->start(peer_seeds);
  if (shards_.size() == 1) return;  // classic single-runtime server

  // The shard router takes over every socket — including shard 0's, where
  // it REPLACES the node's own registration (route() hands non-executor
  // traffic straight back to the node).
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    Shard& shard = *shards_[k];
    if (k == 0 && dual_ != nullptr) {
      // Registering on the dual replaces the node's own registration for
      // BOTH legs: datagrams and stream frames alike land in route().
      dual_->register_handler(
          options_.id, [this](const net::Message& msg) { route(0, msg); });
    } else {
      shard.transport->register_handler(
          options_.id,
          [this, k](const net::Message& msg) { route(k, msg); });
    }
    if (k > 0) {
      // A UDP stats scrape landing on a worker socket is rendered by shard
      // 0 but answered FROM shard 0's socket: with SO_REUSEPORT both share
      // one source address, so the requester cannot tell the difference.
      shard.transport->set_stats_forwarder(
          [this](const net::Message& msg, const sockaddr_in& from) {
            shards_[0]->rt->post_from_any_thread([this, msg, from]() {
              shards_[0]->transport->answer_stats_request(msg, from);
            });
          });
      if (shard.admission != nullptr) {
        // Worker admission ticks ride the worker's own runtime, probing
        // the worker's own queue — per-shard overload, judged locally.
        shard.rt->schedule_periodic(options_.node.admission.tick_period,
                                    options_.node.admission.tick_period,
                                    [this, k]() { admission_tick(k); });
      }
    }
  }

  publish_snapshot();
  snapshot_timer_ = shards_[0]->rt->schedule_periodic(
      options_.snapshot_period, options_.snapshot_period,
      [this]() { publish_snapshot(); });
}

void ShardGroup::start_workers() {
  // Returns only once every worker loop runs: run() clears its runtime's
  // stop flag on entry, so a stop() landing before that would be lost and
  // shutdown() would join a loop that never ends.
  std::atomic<std::size_t> running{0};
  for (std::size_t k = 1; k < shards_.size(); ++k) {
    Shard& shard = *shards_[k];
    shard.rt->schedule_after(0, [&running]() { running.fetch_add(1); });
    shard.thread = std::thread([&shard]() { shard.rt->run(); });
  }
  while (running.load() + 1 < shards_.size()) std::this_thread::yield();
}

void ShardGroup::run() { shards_[0]->rt->run(); }

void ShardGroup::stop() {
  // Async-signal-safe: lock-free atomics plus one eventfd write per shard;
  // shards_ itself is immutable after construction. The count goes up
  // before shard 0 can stop, so shutdown() on the owner thread sees it.
  stops_in_progress_.fetch_add(1, std::memory_order_acq_rel);
  for (auto& shard : shards_) shard->rt->stop();
  stops_in_progress_.fetch_sub(1, std::memory_order_release);
}

void ShardGroup::shutdown() {
  stop();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  // A stop() from another thread (a hosting destructor, a signal handler)
  // may still be walking shards_. It finishes in a few syscalls; no lock,
  // because a signal handler cannot take one.
  while (stops_in_progress_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
}

void ShardGroup::set_op_metrics(const core::OpHotMetrics* hot) {
  hot_ = hot;
  node_->set_op_metrics(hot);
}

ShardGroup::PressureView ShardGroup::pressure(std::size_t k) const {
  PressureView view;
  if (k == 0) {
    const core::AdmissionController* adm = node_->admission();
    if (adm == nullptr) return view;
    view.valid = true;
    view.overloaded = adm->overloaded();
    view.lag_us = adm->lag_ewma_us();
    view.service_us = adm->service_ewma_us();
    view.inflight = adm->inflight_estimate();
    view.retry_after_ms = adm->retry_after_ms();
    view.queue_depth = adm->last_queue_depth();
    return view;
  }
  const ShardPressure& p = shards_[k]->pressure;
  if (!p.valid.load(std::memory_order_acquire)) return view;
  view.valid = true;
  view.overloaded = p.overloaded.load(std::memory_order_relaxed);
  view.lag_us = p.lag_us.load(std::memory_order_relaxed);
  view.service_us = p.service_us.load(std::memory_order_relaxed);
  view.inflight = p.inflight.load(std::memory_order_relaxed);
  view.retry_after_ms = p.retry_after_ms.load(std::memory_order_relaxed);
  view.queue_depth = p.queue_depth.load(std::memory_order_relaxed);
  return view;
}

ShardGroup::PressureView ShardGroup::max_pressure() const {
  PressureView max;
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    const PressureView view = pressure(k);
    if (!view.valid) continue;
    if (!max.valid) {
      max = view;
      continue;
    }
    max.overloaded = max.overloaded || view.overloaded;
    max.lag_us = std::max(max.lag_us, view.lag_us);
    max.service_us = std::max(max.service_us, view.service_us);
    max.inflight = std::max(max.inflight, view.inflight);
    max.retry_after_ms = std::max(max.retry_after_ms, view.retry_after_ms);
    max.queue_depth = std::max(max.queue_depth, view.queue_depth);
  }
  return max;
}

ShardGroup::Totals ShardGroup::totals() const {
  Totals t;
  for (const auto& shard : shards_) {
    t.sent += shard->transport->total_sent();
    t.delivered += shard->transport->total_delivered();
    t.dropped += shard->transport->total_dropped();
    t.batched_recv += shard->transport->batched_recv();
    t.batched_send += shard->transport->batched_send();
    t.mailbox_drained += shard->rt->mailbox_drained();
  }
  return t;
}

void ShardGroup::merge_counters(MetricsRegistry& into) const {
  std::uint64_t forwarded = 0;
  std::uint64_t local = 0;
  std::uint64_t mailed = 0;
  for (const auto& shard : shards_) {
    const ShardExecCounters& c = shard->counters;
    const auto fold = [&into](const char* name,
                              const std::atomic<std::uint64_t>& v) {
      const std::uint64_t n = v.load(std::memory_order_relaxed);
      if (n != 0) into.counter(name).add(n);
    };
    fold("rh.puts_stored", c.puts_stored);
    fold("rh.puts_superseded", c.puts_superseded);
    fold("rh.put_conflicts", c.put_conflicts);
    fold("rh.deletes_stored", c.deletes_stored);
    fold("rh.delete_conflicts", c.delete_conflicts);
    fold("rh.gets_served", c.gets_served);
    fold("rh.gets_deleted", c.gets_deleted);
    fold("rh.gets_missed", c.gets_missed);
    fold("rh.cas_stored", c.cas_stored);
    fold("rh.cas_failed", c.cas_failed);
    fold("rh.cas_conflicts", c.cas_conflicts);
    fold("rh.stats_misrouted", c.stats_misrouted);
    fold("rh.pushes_stored", c.pushes_stored);
    fold("rh.envelopes_shed", c.envelopes_shed);
    fold("rh.shard_resprayed_gets", c.gets_resprayed);
    forwarded += c.forwarded_node.load(std::memory_order_relaxed);
    local += c.ops_local.load(std::memory_order_relaxed);
    mailed += c.ops_mailed.load(std::memory_order_relaxed);

    // Worker admission counters (shard 0's live in the node registry).
    const ShardPressure& p = shard->pressure;
    const auto fold_p = [&into](const char* name,
                                const std::atomic<std::uint64_t>& v) {
      const std::uint64_t n = v.load(std::memory_order_relaxed);
      if (n != 0) into.counter(name).add(n);
    };
    fold_p("admission.client_ops_shed", p.client_ops_shed);
    fold_p("admission.client_ops_admitted", p.client_ops_admitted);
    fold_p("admission.overload_entered", p.overload_entered);
    fold_p("admission.overload_exited", p.overload_exited);
  }
  if (forwarded != 0) into.counter("shard.forwarded_to_node").add(forwarded);
  if (local != 0) into.counter("shard.ops_local").add(local);
  if (mailed != 0) into.counter("shard.ops_cross_shard").add(mailed);
}

// ---- routing (runs on the ingress shard's thread) --------------------------

void ShardGroup::route(std::size_t from, const net::Message& msg) {
  switch (msg.type) {
    case core::kOpEnvelope:
      route_envelope(from, msg);
      return;
    case core::kReplicatePush:
      route_push(from, msg);
      return;
    default:
      // Gossip, slicing, sprays, anti-entropy, state transfer, replies —
      // the protocol brain on shard 0 owns all of it.
      forward_to_node(from, msg);
      return;
  }
}

void ShardGroup::route_envelope(std::size_t from, const net::Message& msg) {
  Shard& shard = *shards_[from];
  const SliceSnapshot& snap = shard.snapshot;
  const sockaddr_in* client = shard.transport->peers().lookup(msg.src);
  // A client with a live stream answers through shard 0's DualTransport,
  // which picks the leg per reply (oversized → stream, small → UDP). Its
  // datagram source may ALSO be on record — the discovery probe travels
  // over UDP — so the stream check must win, or a megabyte reply would be
  // pushed at the datagram socket and dropped. The zeroed sockaddr (port 0
  // — no real client has it) is the marker execute_ops switches on.
  const bool stream_client =
      stream_ != nullptr && stream_->connected_to_any_thread(msg.src);
  if (!snap.valid || (client == nullptr && !stream_client)) {
    // No slice identity yet (or no reply route): let the node handle the
    // whole envelope the classic way.
    forward_to_node(from, msg);
    return;
  }
  auto envelope = core::decode_op_envelope(msg.payload);
  if (!envelope) return;  // malformed; the node would drop it too
  if (envelope->protocol != snap.serve_protocol) {
    forward_to_node(from, msg);  // node answers kVersionMismatch
    return;
  }

  // Partition: ops for this node's slice split by store partition; stats
  // ops (answered with the full render) and foreign-slice ops go to the
  // node, which serves/sprays them exactly as before.
  std::vector<core::RoutedOp> node_ops;
  std::vector<std::vector<core::RoutedOp>> per_shard(shards_.size());
  for (core::RoutedOp& routed : envelope->ops) {
    if (routed.op.type == core::OpType::kStats ||
        slicing::key_to_slice(routed.op.key, snap.slice_count) !=
            snap.my_slice) {
      node_ops.push_back(std::move(routed));
    } else {
      const std::size_t owner =
          store::ShardedStore::partition_of(routed.op.key, shards_.size());
      per_shard[owner].push_back(std::move(routed));
    }
  }

  if (!node_ops.empty()) {
    forward_to_node(
        from, net::Message{msg.src, msg.dst, core::kOpEnvelope,
                           core::encode(core::OpEnvelope{
                               envelope->protocol, std::move(node_ops)})});
  }
  sockaddr_in client_addr{};  // port 0 = stream client, reply via dual
  if (client != nullptr && !stream_client) client_addr = *client;
  for (std::size_t k = 0; k < per_shard.size(); ++k) {
    if (per_shard[k].empty()) continue;
    if (k == from) {
      shard.counters.ops_local.fetch_add(per_shard[k].size(),
                                         std::memory_order_relaxed);
      execute_ops(from, std::move(per_shard[k]), client_addr);
    } else {
      shard.counters.ops_mailed.fetch_add(per_shard[k].size(),
                                          std::memory_order_relaxed);
      shards_[k]->rt->post_from_any_thread(
          [this, k, ops = std::move(per_shard[k]), client_addr]() mutable {
            execute_ops(k, std::move(ops), client_addr);
          });
    }
  }
}

void ShardGroup::route_push(std::size_t from, const net::Message& msg) {
  Shard& shard = *shards_[from];
  const SliceSnapshot& snap = shard.snapshot;
  if (!snap.valid) {
    forward_to_node(from, msg);
    return;
  }
  auto push = core::decode_replicate_push(msg.payload);
  if (!push) return;

  // In-slice objects store straight into their owner partition; foreign
  // ones ride to the node, whose hinted handoff re-homes them.
  std::vector<store::Object> node_objects;
  std::vector<std::vector<store::Object>> per_shard(shards_.size());
  for (store::Object& object : push->objects) {
    if (slicing::key_to_slice(object.key, snap.slice_count) != snap.my_slice) {
      node_objects.push_back(std::move(object));
      continue;
    }
    const std::size_t owner =
        store::ShardedStore::partition_of(object.key, shards_.size());
    per_shard[owner].push_back(std::move(object));
  }
  if (!node_objects.empty()) {
    forward_to_node(from,
                    net::Message{msg.src, msg.dst, core::kReplicatePush,
                                 core::encode(core::ReplicatePush{
                                     std::move(node_objects)})});
  }
  for (std::size_t k = 0; k < per_shard.size(); ++k) {
    if (per_shard[k].empty()) continue;
    if (k == from) {
      store_pushed(from, std::move(per_shard[k]));
    } else {
      shards_[k]->rt->post_from_any_thread(
          [this, k, objects = std::move(per_shard[k])]() mutable {
            store_pushed(k, std::move(objects));
          });
    }
  }
}

void ShardGroup::forward_to_node(std::size_t from, net::Message msg) {
  Shard& shard = *shards_[from];
  shard.counters.forwarded_node.fetch_add(1, std::memory_order_relaxed);
  if (from == 0) {
    node_->deliver(msg);
    return;
  }
  // Mail the ingress socket's source-address observation ahead of the
  // message, so shard 0 can route the reply (a client on an ephemeral port
  // is known only to the socket its datagram landed on).
  std::optional<sockaddr_in> observed;
  if (const sockaddr_in* addr = shard.transport->peers().lookup(msg.src)) {
    observed = *addr;
  }
  shards_[0]->rt->post_from_any_thread(
      [this, msg = std::move(msg), observed]() {
        if (observed) shards_[0]->transport->observe_peer(msg.src, *observed);
        node_->deliver(msg);
      });
}

// ---- execution (runs on the owner shard's thread) --------------------------

void ShardGroup::note_exec(std::size_t k, core::OpType type, SimTime started) {
  core::AdmissionController* adm = shard_admission(k);
  if (hot_ == nullptr && adm == nullptr) return;
  const SimTime elapsed = shards_[k]->rt->now() - started;
  if (adm != nullptr) adm->note_service(elapsed > 0 ? elapsed : 0);
  if (hot_ == nullptr) return;
  const std::size_t i = core::OpHotMetrics::index(type);
  if (obs::Counter* counter = hot_->ops[i]) counter->add();
  if (obs::LatencyHistogram* hist = hot_->exec_us[i]) {
    hist->record(elapsed > 0 ? static_cast<std::uint64_t>(elapsed) : 0);
  }
}

void ShardGroup::execute_ops(std::size_t k, std::vector<core::RoutedOp> ops,
                             sockaddr_in client_addr) {
  using core::OpReply;
  using core::OpStatus;
  using core::OpType;
  if (ops.empty()) return;
  Shard& shard = *shards_[k];
  ShardExecCounters& c = shard.counters;
  store::Store& store = node_->store();
  const NodeId self = options_.id;
  const NodeId client(ops.front().rid.client);

  // Per-shard admission gate, mirroring the single-shard envelope shed: an
  // overloaded shard answers with one explicit kOverloaded frame instead
  // of executing (siblings may still be admitting — per-core backpressure).
  // Stream-delivered envelopes answer through shard 0's DualTransport (the
  // connection lives on its loop); datagram clients get replies straight
  // from this shard's REUSEPORT socket.
  const bool via_stream = client_addr.sin_port == 0;

  if (core::AdmissionController* adm = shard_admission(k)) {
    const core::AdmissionController::Decision decision =
        adm->admit(core::WorkClass::kClientOp, ops.size());
    if (!decision.admit) {
      c.envelopes_shed.fetch_add(1, std::memory_order_relaxed);
      net::Message shed{self, client, core::kOverloaded,
                        core::encode(core::OverloadReply{
                            ops.front().rid, decision.retry_after_ms})};
      if (via_stream) {
        send_via_dual(k, std::move(shed));
      } else {
        shard.transport->send_to(shed, client_addr);
      }
      return;
    }
  }

  core::OpReplyBatch batch{self, shard.snapshot.my_slice,
                           shard.snapshot.slice_count, {}};
  core::ReplicatePush push;
  std::vector<core::RoutedOp> unserved_gets;

  for (const core::RoutedOp& routed : ops) {
    const core::Operation& op = routed.op;
    const SimTime started = shard.rt->now();
    switch (op.type) {
      case OpType::kPut: {
        store::Object object{op.key, op.version.value_or(0), op.value};
        const Status stored = store.put(object);
        if (!stored.ok()) {
          if (stored.error().code == Error::Code::kSuperseded) {
            c.puts_superseded.fetch_add(1, std::memory_order_relaxed);
            batch.replies.push_back(
                OpReply{routed.rid, OpType::kPut, OpStatus::kSuperseded,
                        store::Object{op.key, object.version, {}}});
            break;
          }
          c.put_conflicts.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        c.puts_stored.fetch_add(1, std::memory_order_relaxed);
        batch.replies.push_back(
            OpReply{routed.rid, OpType::kPut, OpStatus::kOk,
                    store::Object{op.key, object.version, {}}});
        push.objects.push_back(std::move(object));
        break;
      }
      case OpType::kDelete: {
        store::Object tomb = store::Object::make_tombstone(
            op.key, op.version.value_or(0), shard.rt->now());
        const Status stored = store.put(tomb);
        if (!stored.ok()) {
          c.delete_conflicts.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        c.deletes_stored.fetch_add(1, std::memory_order_relaxed);
        batch.replies.push_back(
            OpReply{routed.rid, OpType::kDelete, OpStatus::kOk,
                    store::Object{op.key, tomb.version, {}}});
        push.objects.push_back(std::move(tomb));
        break;
      }
      case OpType::kGet: {
        auto found = store.get(op.key, op.version);
        if (found.ok()) {
          store::Object object = std::move(found).value();
          if (object.tombstone) {
            c.gets_deleted.fetch_add(1, std::memory_order_relaxed);
            batch.replies.push_back(
                OpReply{routed.rid, OpType::kGet, OpStatus::kDeleted,
                        store::Object{op.key, object.version, {}}});
          } else {
            c.gets_served.fetch_add(1, std::memory_order_relaxed);
            batch.replies.push_back(OpReply{routed.rid, OpType::kGet,
                                            OpStatus::kOk,
                                            std::move(object)});
          }
          break;
        }
        if (const Version tomb = store.tombstone_version(op.key);
            tomb != 0 && (!op.version || *op.version <= tomb)) {
          c.gets_deleted.fetch_add(1, std::memory_order_relaxed);
          batch.replies.push_back(
              OpReply{routed.rid, OpType::kGet, OpStatus::kDeleted,
                      store::Object{op.key, tomb, {}}});
          break;
        }
        // This partition doesn't hold it: mail the get to shard 0, which
        // re-sprays it into the slice — a sibling replica may serve it.
        c.gets_missed.fetch_add(1, std::memory_order_relaxed);
        unserved_gets.push_back(routed);
        break;
      }
      case OpType::kCompareAndPut: {
        store::Object object{op.key, op.version.value_or(0), op.value};
        const store::CasOutcome outcome =
            store.compare_and_put(object, op.expected);
        switch (outcome.status) {
          case store::CasOutcome::Status::kStored:
            c.cas_stored.fetch_add(1, std::memory_order_relaxed);
            batch.replies.push_back(
                OpReply{routed.rid, OpType::kCompareAndPut, OpStatus::kOk,
                        store::Object{op.key, object.version, {}}});
            push.objects.push_back(std::move(object));
            break;
          case store::CasOutcome::Status::kMismatch:
          case store::CasOutcome::Status::kDeleted:
            c.cas_failed.fetch_add(1, std::memory_order_relaxed);
            batch.replies.push_back(OpReply{
                routed.rid, OpType::kCompareAndPut, OpStatus::kCasFailed,
                store::Object{op.key, outcome.current, {}}});
            break;
          case store::CasOutcome::Status::kConflict:
            c.cas_conflicts.fetch_add(1, std::memory_order_relaxed);
            break;
        }
        break;
      }
      case OpType::kStats:
        // The router sends stats ops to shard 0; one here is a bug or a
        // malformed envelope. Drop, like the single-shard path.
        c.stats_misrouted.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    note_exec(k, op.type, started);
  }

  // Replies leave straight from this shard's socket toward the observed
  // client address (REUSEPORT keeps the source address identical to shard
  // 0's), chunked against the one-datagram budget.
  if (!batch.replies.empty()) {
    core::chunk_by_budget(
        batch.replies,
        [](const OpReply& reply) { return core::encoded_size(reply); },
        [&](std::vector<OpReply>& chunk) {
          net::Message reply{self, client, core::kOpReplyBatch,
                             core::encode(core::OpReplyBatch{
                                 batch.replica, batch.slice,
                                 batch.slice_count, std::move(chunk)})};
          if (via_stream) {
            send_via_dual(k, std::move(reply));
          } else {
            shard.transport->send_to(reply, client_addr);
          }
        });
  }

  // Immediate redundancy, addressed via the latest slice snapshot: each
  // chunk is encoded once and the buffer shared across the fan-out.
  if (!push.objects.empty() && !shard.snapshot.replica_peers.empty()) {
    core::chunk_by_budget(
        push.objects,
        [](const store::Object& object) {
          return store::encoded_size(object);
        },
        [&](std::vector<store::Object>& chunk) {
          const Payload encoded =
              core::encode(core::ReplicatePush{std::move(chunk)});
          // chunk_by_budget ships a single over-budget object as its own
          // chunk; a push that no datagram can carry (a big value) goes
          // through the dual, which requires a stream to the replica.
          const bool oversized =
              encoded.size() > net::Transport::kDefaultMaxPayload;
          for (const auto& [peer, addr] : shard.snapshot.replica_peers) {
            if (oversized && dual_ != nullptr) {
              send_via_dual(
                  k, net::Message{self, peer, core::kReplicatePush, encoded});
            } else {
              shard.transport->send_to(
                  net::Message{self, peer, core::kReplicatePush, encoded},
                  addr);
            }
          }
        });
  }

  if (!unserved_gets.empty()) {
    c.gets_resprayed.fetch_add(unserved_gets.size(),
                               std::memory_order_relaxed);
    const SliceId target = shard.snapshot.my_slice;
    auto respray = [this, target, gets = std::move(unserved_gets)]() mutable {
      node_->requests().spray_ops(target, std::move(gets));
    };
    if (k == 0) {
      respray();
    } else {
      shards_[0]->rt->post_from_any_thread(std::move(respray));
    }
  }
}

void ShardGroup::send_via_dual(std::size_t k, net::Message msg) {
  if (dual_ == nullptr) return;  // no stream client without a dual
  if (k == 0) {
    dual_->send(std::move(msg));
    return;
  }
  shards_[0]->rt->post_from_any_thread(
      [this, msg = std::move(msg)]() mutable { dual_->send(std::move(msg)); });
}

void ShardGroup::store_pushed(std::size_t k, std::vector<store::Object> objects) {
  Shard& shard = *shards_[k];
  store::Store& store = node_->store();
  for (store::Object& object : objects) {
    if (store.put(std::move(object)).ok()) {
      shard.counters.pushes_stored.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

// ---- shard 0 -> executors: slice identity + replica addresses --------------

void ShardGroup::publish_snapshot() {
  SliceSnapshot snap;
  snap.valid = true;
  snap.my_slice = node_->slice();
  snap.slice_count = node_->slice_config().slice_count;
  snap.serve_protocol = options_.node.request.serve_protocol;
  for (const NodeId peer : node_->slices().slice_peers(
           options_.node.request.direct_replication)) {
    if (peer == options_.id) continue;
    if (const sockaddr_in* addr = shards_[0]->transport->peers().lookup(peer)) {
      snap.replica_peers.emplace_back(peer, *addr);
    }
  }
  shards_[0]->snapshot = snap;
  for (std::size_t k = 1; k < shards_.size(); ++k) {
    shards_[k]->rt->post_from_any_thread(
        [shard = shards_[k].get(), snap]() { shard->snapshot = snap; });
  }
}

void ShardGroup::admission_tick(std::size_t k) {
  Shard& shard = *shards_[k];
  core::AdmissionController& adm = *shard.admission;
  adm.tick();
  ShardPressure& p = shard.pressure;
  p.overloaded.store(adm.overloaded(), std::memory_order_relaxed);
  p.lag_us.store(adm.lag_ewma_us(), std::memory_order_relaxed);
  p.service_us.store(adm.service_ewma_us(), std::memory_order_relaxed);
  p.inflight.store(adm.inflight_estimate(), std::memory_order_relaxed);
  p.retry_after_ms.store(adm.retry_after_ms(), std::memory_order_relaxed);
  p.queue_depth.store(adm.last_queue_depth(), std::memory_order_relaxed);
  // The controller counts into this shard's private registry (not
  // thread-safe); snapshot the values the process-level render folds in.
  const MetricsRegistry& m = *shard.metrics;
  p.client_ops_shed.store(m.counter_value("admission.client_ops_shed"),
                          std::memory_order_relaxed);
  p.client_ops_admitted.store(
      m.counter_value("admission.client_ops_admitted"),
      std::memory_order_relaxed);
  p.overload_entered.store(m.counter_value("admission.overload_entered"),
                           std::memory_order_relaxed);
  p.overload_exited.store(m.counter_value("admission.overload_exited"),
                          std::memory_order_relaxed);
  p.valid.store(true, std::memory_order_release);
}

}  // namespace dataflasks::server
