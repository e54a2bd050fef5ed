#include "core/node.hpp"

#include "obs/metrics.hpp"

namespace dataflasks::core {

Node::Node(NodeId id, double capacity, runtime::Runtime& rt,
           net::Transport& transport, NodeOptions options, std::uint64_t seed,
           std::unique_ptr<store::Store> durable_store)
    : id_(id),
      capacity_(capacity),
      runtime_(rt),
      transport_(transport),
      options_(options),
      rng_(seed),
      store_(std::move(durable_store)),
      store_is_volatile_(store_ == nullptr) {
  if (store_ == nullptr) store_ = std::make_unique<store::MemStore>();
}

Node::~Node() {
  if (running_) crash();
}

void Node::build_components() {
  // Every start gets fresh, independent randomness: a restarted node must
  // not replay its previous gossip choices.
  Rng boot = rng_.fork(0xb007);

  if (options_.admission.enabled) {
    admission_ = std::make_unique<AdmissionController>(
        [this]() { return runtime_.now(); }, options_.admission, metrics_);
    if (load_probe_) admission_->set_load_probe(load_probe_);
  } else {
    admission_.reset();
  }

  switch (options_.pss_kind) {
    case PssKind::kCyclon:
      pss_ = std::make_unique<pss::Cyclon>(id_, transport_, boot.fork(1),
                                           options_.cyclon);
      break;
    case PssKind::kNewscast:
      pss_ = std::make_unique<pss::Newscast>(id_, transport_, boot.fork(1),
                                             options_.newscast);
      break;
  }

  // Gossip-learned routing: every shuffle advertises our endpoint and
  // feeds every received descriptor's endpoint into the transport's
  // address table, so addresses heal under churn the way membership does.
  // No-ops on transports without an address table (the simulator).
  pss_->set_self_endpoint_provider(
      [this]() { return transport_.local_endpoint(); });
  pss_->set_descriptor_listener(
      [this](const std::vector<pss::NodeDescriptor>& batch) {
        for (const pss::NodeDescriptor& d : batch) {
          if (d.id != id_ && d.endpoint.has_value()) {
            transport_.learn_endpoint(d.id, *d.endpoint);
          }
        }
      });

  std::unique_ptr<slicing::Slicer> slicer;
  switch (options_.slicer_kind) {
    case SlicerKind::kSliver:
      slicer = std::make_unique<slicing::Sliver>(
          id_, capacity_, transport_, *pss_, boot.fork(2),
          options_.slice_config, options_.sliver);
      break;
    case SlicerKind::kOrdered:
      slicer = std::make_unique<slicing::OrderedSlicing>(
          id_, capacity_, transport_, *pss_, boot.fork(2),
          options_.slice_config);
      break;
  }

  slices_ = std::make_unique<SliceManager>(id_, transport_, *pss_,
                                           std::move(slicer), boot.fork(3),
                                           options_.slice_manager);

  requests_ = std::make_unique<RequestHandler>(
      id_, transport_, *pss_, *slices_, *store_, boot.fork(4),
      [this]() { return runtime_.now(); }, options_.request, metrics_);
  // TTL deadlines are stamped against the wall clock so replicas in other
  // processes agree on them (the simulator's wall_now() is its sim clock,
  // keeping sim tests deterministic).
  requests_->set_wall_clock([this]() { return runtime_.wall_now(); });
  requests_->set_stats_provider(
      stats_fn_ ? stats_fn_ : [this]() {
        // Default snapshot: this node's event-counter registry, rendered in
        // the same Prometheus text form the server's /metrics endpoint uses.
        return obs::render_node_counters(metrics_, "df_node_events_total");
      });
  requests_->set_hot_metrics(hot_metrics_);
  requests_->set_admission(admission_.get());

  anti_entropy_ = std::make_unique<AntiEntropy>(
      id_, transport_, *store_, boot.fork(5), options_.anti_entropy,
      [this]() { return slices_->slice(); },
      [this](const Key& key) { return slices_->key_slice(key); },
      [this](std::size_t count) { return slices_->slice_peers(count); },
      metrics_);

  if (options_.size_estimation) {
    size_estimator_ = std::make_unique<aggregation::SizeEstimator>(
        id_, transport_, *pss_, boot.fork(7), options_.size_estimator);
  } else {
    size_estimator_.reset();
  }

  state_transfer_ = std::make_unique<StateTransfer>(
      id_, transport_, *store_, boot.fork(6), options_.state_transfer,
      [this]() { return slices_->slice(); },
      [this](const Key& key) { return slices_->key_slice(key); },
      [this](std::size_t count) { return slices_->slice_peers(count); },
      metrics_);

  slices_->set_config_change_listener(
      [this](const slicing::SliceConfig& config) {
        requests_->on_config_changed(config);
      });
  slices_->set_slice_change_listener([this](SliceId, SliceId) {
    metrics_.counter("node.slice_changes").add();
    if (options_.state_transfer_on_slice_change) {
      state_transfer_->begin();
    }
  });
}

void Node::start(const std::vector<NodeId>& seeds) {
  ensure(!running_, "Node::start on a running node");

  if (store_is_volatile_) {
    // A fresh process has an empty volatile store.
    store_ = std::make_unique<store::MemStore>();
  }
  build_components();
  pss_->bootstrap(seeds);

  transport_.register_handler(
      id_, [this](const net::Message& msg) { dispatch(msg); });
  start_timers();
  running_ = true;
  metrics_.counter("node.starts").add();

  // A (re)joining node pulls its slice's data as soon as it knows peers.
  if (options_.state_transfer_on_slice_change) {
    state_transfer_->begin();
  }
}

void Node::start_timers() {
  auto jitter = [this](SimTime period) {
    return rng_.next_in(0, period);  // desynchronize cycles across nodes
  };

  timers_.push_back(runtime_.schedule_periodic(
      jitter(options_.pss_period), options_.pss_period,
      [this]() { pss_->tick(); }));
  timers_.push_back(runtime_.schedule_periodic(
      jitter(options_.slicing_period), options_.slicing_period,
      [this]() { slices_->tick_slicing(); }));
  timers_.push_back(runtime_.schedule_periodic(
      jitter(options_.advert_period), options_.advert_period,
      [this]() { slices_->tick_advertisement(); }));
  if (options_.anti_entropy_enabled) {
    timers_.push_back(runtime_.schedule_periodic(
        jitter(options_.ae_period), options_.ae_period,
        [this]() { anti_entropy_->tick(); }));
  }
  timers_.push_back(runtime_.schedule_periodic(
      jitter(options_.st_tick_period), options_.st_tick_period,
      [this]() { state_transfer_->tick(); }));
  if (options_.request.hinted_handoff) {
    timers_.push_back(runtime_.schedule_periodic(
        jitter(options_.handoff_period), options_.handoff_period,
        [this]() { requests_->tick_maintenance(); }));
  }
  if (options_.tombstone_grace > 0) {
    timers_.push_back(runtime_.schedule_periodic(
        jitter(options_.tombstone_gc_period), options_.tombstone_gc_period,
        [this]() {
          const std::size_t dropped = store_->gc_tombstones(
              runtime_.now(), options_.tombstone_grace);
          if (dropped > 0) {
            metrics_.counter("node.tombstones_gced").add(dropped);
          }
        }));
  }
  if (options_.expiry_reap_period > 0) {
    timers_.push_back(runtime_.schedule_periodic(
        jitter(options_.expiry_reap_period), options_.expiry_reap_period,
        [this]() {
          const store::ReapStats reaped =
              store_->reap(runtime_.wall_now(), options_.max_store_bytes);
          if (reaped.expired > 0) {
            metrics_.counter("node.keys_expired").add(reaped.expired);
          }
          if (reaped.evicted > 0) {
            metrics_.counter("node.keys_evicted").add(reaped.evicted);
          }
        }));
  }
  if (options_.compact_period > 0) {
    timers_.push_back(runtime_.schedule_periodic(
        jitter(options_.compact_period), options_.compact_period,
        [this]() {
          // A durable store only captures here; its snapshot is written off
          // this loop, so what comes back is what earlier writes reclaimed
          // (or the error one of them hit).
          const auto reclaimed = store_->compact_storage();
          if (!reclaimed.ok()) {
            // Compaction failure is not fatal (the live log keeps working);
            // it is however the kind of quiet disk trouble operators need a
            // counter for.
            metrics_.counter("node.compact_failures").add();
            return;
          }
          metrics_.counter("node.compactions").add();
          metrics_.counter("node.compact_bytes_reclaimed")
              .add(reclaimed.value());
        }));
  }
  if (size_estimator_ != nullptr) {
    timers_.push_back(runtime_.schedule_periodic(
        jitter(options_.size_estimation_period),
        options_.size_estimation_period,
        [this]() { size_estimator_->tick(); }));
  }
  if (admission_ != nullptr) {
    // No jitter: the tick measures its own lateness (the loop-lag overload
    // signal), so the first fire must land exactly one period out.
    timers_.push_back(runtime_.schedule_periodic(
        options_.admission.tick_period, options_.admission.tick_period,
        [this]() { admission_->tick(); }));
  }
}

void Node::crash() {
  ensure(running_, "Node::crash on a stopped node");
  for (auto& timer : timers_) timer.cancel();
  timers_.clear();
  transport_.unregister_handler(id_);
  running_ = false;
  metrics_.counter("node.crashes").add();
  if (store_is_volatile_) {
    static_cast<store::MemStore&>(*store_).clear();
  }
}

void Node::dispatch(const net::Message& msg) {
  if (!running_) return;
  // Route by type range first: at scale this runs once per delivered
  // message, and probing every subsystem in sequence doubles the dispatch
  // cost for the most frequent (gossip) traffic.
  switch (msg.category()) {
    case net::MsgCategory::kPeerSampling:
      if (maintenance_shed()) return;
      if (pss_->handle(msg)) return;
      break;
    case net::MsgCategory::kSlicing:
      if (maintenance_shed()) return;
      if (slices_->handle(msg)) return;
      // Size-estimation gossip rides in the slicing type range.
      if (size_estimator_ != nullptr && size_estimator_->handle(msg)) return;
      break;
    case net::MsgCategory::kRequest:
      // Client-work admission happens inside the request handler (it can
      // answer with an explicit kOverloaded frame; dropping here would be
      // the silent loss this subsystem exists to remove).
      if (requests_->handle(msg)) return;
      break;
    case net::MsgCategory::kAntiEntropy:
      if (maintenance_shed()) return;
      // State transfer shares the anti-entropy type range.
      if (anti_entropy_->handle(msg)) return;
      if (state_transfer_->handle(msg)) return;
      break;
    default:
      break;
  }
  metrics_.counter("node.unhandled_messages").add();
}

bool Node::maintenance_shed() {
  if (admission_ == nullptr) return false;
  if (admission_->admit(WorkClass::kMaintenance).admit) return false;
  // Dropping gossip/anti-entropy has no reply path; the trickle admitted
  // above is what keeps membership and repair converging under overload.
  metrics_.counter("node.maintenance_shed").add();
  return true;
}

void Node::add_contact(NodeId contact) {
  if (!running_ || contact == id_ || !contact.valid()) return;
  pss_->bootstrap({contact});
}

void Node::set_stats_provider(RequestHandler::StatsFn fn) {
  stats_fn_ = std::move(fn);
  if (requests_) {
    requests_->set_stats_provider(
        stats_fn_ ? stats_fn_ : [this]() {
          return obs::render_node_counters(metrics_, "df_node_events_total");
        });
  }
}

void Node::set_op_metrics(const OpHotMetrics* hot) {
  hot_metrics_ = hot;
  if (requests_) requests_->set_hot_metrics(hot_metrics_);
}

void Node::set_load_probe(AdmissionController::LoadProbeFn probe) {
  load_probe_ = std::move(probe);
  if (admission_) admission_->set_load_probe(load_probe_);
}

void Node::propose_slice_count(std::uint32_t slice_count) {
  slicing::SliceConfig config = slices_->config();
  config.slice_count = slice_count;
  ++config.epoch;
  slices_->adopt_config(config);
}

}  // namespace dataflasks::core
