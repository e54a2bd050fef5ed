// dataflasks_server: boots ONE DataFlasks node as a standalone process on
// real-clock runtimes and UDP transports — the deployment face of the exact
// protocol code the simulator drives with thousands of in-process nodes.
//
//   $ dataflasks_server --id 0 --listen 127.0.0.1:7100
//   $ dataflasks_server --id 1 --listen 127.0.0.1:7101 --seed 127.0.0.1:7100
//
// One --seed host:port is enough to join: the seed's node id is discovered
// with a transport probe, and every other member's address arrives by
// gossip (PSS descriptors and slice adverts carry endpoints). Static
// --peer id@host:port maps still work and are pinned.
//
// --shards N (default: one per hardware thread) runs the process as a
// shared-nothing shard group: N runtime threads, each with its own
// SO_REUSEPORT socket, executing client ops against a partitioned store
// while membership/gossip stays on shard 0 (see server/shard_group.hpp).
// --shards 1 is the classic single-runtime server, unchanged. Runs until
// SIGINT/SIGTERM. See src/server/config.hpp for the full flag reference.
#include <pthread.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "core/node.hpp"
#include "net/udp_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_endpoint.hpp"
#include "runtime/real_time_runtime.hpp"
#include "server/config.hpp"
#include "server/shard_group.hpp"
#include "store/log_store.hpp"
#include "store/memstore.hpp"
#include "store/sharded_store.hpp"
#include "store/storage_engine.hpp"

namespace {

dataflasks::server::ShardGroup* g_group = nullptr;

void handle_signal(int) {
  // ShardGroup::stop() is async-signal-safe: per runtime, an atomic flag
  // plus an eventfd write — every shard loop wakes promptly and exits.
  if (g_group != nullptr) g_group->stop();
}

sigset_t stop_signals() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  return set;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dataflasks;

  std::vector<std::string> args(argv + 1, argv + argc);
  auto parsed = server::parse_server_args(args);
  if (!parsed) {
    std::fprintf(stderr, "dataflasks_server: %s\n",
                 parsed.error().message.c_str());
    std::fprintf(stderr,
                 "usage: dataflasks_server [--config FILE] [--id N] "
                 "[--listen HOST:PORT] [--advertise HOST] "
                 "[--peer ID@HOST:PORT ...] [--seed HOST:PORT|N ...] "
                 "[--capacity X] [--slices K] [--gossip-ms N] [--ae-ms N] "
                 "[--store memory|durable|log] [--data-dir DIR] "
                 "[--compact-interval-sec N] [--max-store-bytes N] "
                 "[--reap-ms N] [--metrics-port N] [--stream-port N] "
                 "[--log-level LEVEL] [--shards N]\n");
    return 1;
  }
  const server::ServerConfig config = std::move(parsed).value();

  if (const auto level = log_level_from_string(config.log_level)) {
    set_global_log_level(*level);
  }
  Logger log("server");

  // The stop signals are taken only on this thread, and only while it
  // runs shard 0's loop. Every thread spawned below (shard workers, the
  // snapshot writer) inherits the blocked mask, so the handler never runs
  // on a thread that outlives the group, nor on this one mid-teardown.
  const sigset_t signals = stop_signals();
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  const std::size_t shards = config.resolved_shards();

  // Each process gets its own deterministic stream: either the configured
  // seed or one derived from the node id (so a homogeneously-configured
  // fleet still gossips independently). Shards fork per-shard streams.
  const std::uint64_t seed =
      config.seed != 0 ? config.seed : 0xDF5EED00ULL + config.id;

  // ---- store assembly ----
  // Single shard: the classic wiring (one durable store, or the node's own
  // volatile MemStore). Multi shard: a ShardedStore with one partition per
  // shard — per-partition locks make it safe for the executor threads, and
  // its constructor re-homes recovered objects across --shards changes.
  // Durable partitions get their own generation files / log files;
  // partition 0 keeps the unsuffixed name so existing data directories
  // upgrade in place.
  //
  // --store durable is the snapshot + journal-tail StorageEngine;
  // --store log keeps the legacy full-replay LogStore (the recovery
  // benchmark's baseline).
  std::unique_ptr<store::Store> assembled;
  // Engine pointers survive the moves below so the metrics renderer can
  // read journal/snapshot stats (those accessors are cross-thread safe).
  std::vector<store::StorageEngine*> engines;
  if (config.store != server::StoreKind::kMemory || shards > 1) {
    const auto recovery_start = std::chrono::steady_clock::now();
    std::vector<std::unique_ptr<store::Store>> partitions;
    std::size_t recovered = 0;
    std::size_t snapshot_objects = 0;
    std::size_t tail_records = 0;
    std::uint64_t newest_generation = 0;
    for (std::size_t k = 0; k < shards; ++k) {
      const std::string shard_suffix =
          k > 0 ? "-shard" + std::to_string(k) : "";
      if (config.store == server::StoreKind::kDurable) {
        auto engine = std::make_unique<store::StorageEngine>(
            config.store_base_path() + shard_suffix);
        if (!engine->open_status().ok()) {
          std::fprintf(stderr, "dataflasks_server: %s\n",
                       engine->open_status().error().message.c_str());
          return 1;
        }
        // Loud recovery: every anomaly worked around (corrupt snapshot
        // fallback, torn journal tail) is printed, never swallowed.
        for (const std::string& warning : engine->recovery().warnings) {
          log.warn("store recovery: ", warning);
        }
        recovered += engine->object_count();
        snapshot_objects += engine->recovery().snapshot_objects;
        tail_records += engine->recovery().records_replayed;
        newest_generation =
            std::max(newest_generation, engine->generation());
        engines.push_back(engine.get());
        partitions.push_back(std::move(engine));
      } else if (config.store == server::StoreKind::kLog) {
        auto log_store = std::make_unique<store::LogStore>(
            config.store_base_path() + shard_suffix + ".log");
        if (!log_store->open_status().ok()) {
          std::fprintf(stderr, "dataflasks_server: %s\n",
                       log_store->open_status().error().message.c_str());
          return 1;
        }
        recovered += log_store->object_count();
        partitions.push_back(std::move(log_store));
      } else {
        partitions.push_back(std::make_unique<store::MemStore>());
      }
    }
    if (config.store == server::StoreKind::kDurable) {
      // The smoke test greps this line to assert restart went through the
      // checkpointed path, not a full-history replay.
      std::printf("dataflasks_server: recovered snapshot+tail from %s "
                  "(generation %llu: %zu snapshot objects + %zu journal "
                  "records -> %zu live, %zu partitions)\n",
                  config.store_base_path().c_str(),
                  static_cast<unsigned long long>(newest_generation),
                  snapshot_objects, tail_records, recovered, shards);
    } else if (config.store == server::StoreKind::kLog) {
      std::printf("dataflasks_server: durable store %s (%zu objects "
                  "recovered, %zu partitions)\n",
                  config.store_path().c_str(), recovered, shards);
    }
    if (config.store != server::StoreKind::kMemory) {
      // The recovery benchmark greps this: wall time spent rebuilding the
      // store, comparable across --store durable and --store log.
      const double recovery_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - recovery_start)
              .count();
      std::printf("dataflasks_server: store recovery took %.1f ms\n",
                  recovery_ms);
    }
    if (shards == 1) {
      assembled = std::move(partitions.front());
    } else {
      auto sharded =
          std::make_unique<store::ShardedStore>(std::move(partitions));
      if (sharded->rebalanced() > 0) {
        log.info("rebalanced ", sharded->rebalanced(),
                 " objects across ", shards, " store partitions");
      }
      assembled = std::move(sharded);
    }
  }

  server::ShardGroupOptions group_options;
  group_options.id = NodeId(config.id);
  group_options.capacity = config.capacity;
  group_options.seed = seed;
  group_options.shards = shards;
  group_options.net.bind_host = config.listen_host;
  group_options.net.port = config.listen_port;
  group_options.net.advertise_host = config.advertise_host;
  group_options.stream_port = config.stream_port;
  group_options.node = config.node_options();

  server::ShardGroup group(group_options, std::move(assembled));
  core::Node& node = group.node();
  runtime::RealTimeRuntime& rt = group.shard0_runtime();
  net::UdpTransport& transport = group.shard0_transport();

  if (!transport.local_endpoint().has_value()) {
    // Binding the wildcard without an advertise host means self-descriptors
    // carry no endpoint: peers can still reach us through configuration and
    // datagram sources, but gossip address healing is off for this node.
    log.warn("listen=", config.listen_host,
             " is not advertisable; set --advertise HOST so peers can "
             "gossip-learn this node's address");
  }
  for (const server::PeerSpec& peer : config.peers) {
    transport.add_peer(NodeId(peer.id), peer.host, peer.port);
  }

  // ---- observability ----
  // One process-wide registry. The request hot path (node AND executor
  // shards — obs counters/histograms are atomic) holds direct pointers to
  // its per-op counters/histograms; instantaneous health is polled into
  // gauges at render time, so a node nobody scrapes pays nothing for them.
  obs::MetricsRegistry registry;
  core::OpHotMetrics hot;
  {
    const char* kOpNames[core::OpHotMetrics::kOpTypes] = {
        "put", "get", "delete", "cas", "stats"};
    for (std::size_t i = 0; i < core::OpHotMetrics::kOpTypes; ++i) {
      const std::string label = std::string("op=\"") + kOpNames[i] + "\"";
      hot.ops[i] = &registry.counter(
          "df_ops_total", label, "Operations executed by this node");
      hot.exec_us[i] = &registry.histogram(
          "df_op_exec_us", label,
          "Local per-operation execution latency (microseconds)");
    }
  }
  auto render_stats = [&]() {
    const pss::View& view = node.peer_sampling().view();
    registry.gauge("df_pss_view_size", "", "Partial-view entries held")
        .set(static_cast<double>(view.size()));
    registry.gauge("df_pss_view_capacity", "", "Partial-view capacity")
        .set(static_cast<double>(view.capacity()));
    registry
        .gauge("df_ae_backlog", "",
               "Objects requested in the latest anti-entropy exchange")
        .set(static_cast<double>(node.ae_backlog()));
    registry
        .gauge("df_handoff_backlog", "",
               "Misrouted objects buffered for re-homing")
        .set(static_cast<double>(node.requests().handoff_backlog()));
    registry.gauge("df_address_book_size", "", "Peer addresses known")
        .set(static_cast<double>(transport.peers().size()));
    registry
        .gauge("df_address_book_learned", "",
               "Gossip-learned (unpinned) peer addresses")
        .set(static_cast<double>(transport.peers().learned_count()));
    registry
        .gauge("df_runtime_queue_depth", "",
               "Events pending on the runtime loop (shard 0)")
        .set(static_cast<double>(rt.pending_events()));
    registry.gauge("df_shards", "", "Shared-nothing runtime shards")
        .set(static_cast<double>(group.shard_count()));
    // Process overload = the max-pressure shard (node's controller
    // included): one saturated core sheds even if its siblings idle.
    if (const auto pressure = group.max_pressure(); pressure.valid) {
      registry
          .gauge("df_admission_overloaded", "",
                 "1 while admission control is shedding load")
          .set(pressure.overloaded ? 1.0 : 0.0);
      registry
          .gauge("df_admission_loop_lag_us", "",
                 "Event-loop lag EWMA seen by the admission tick")
          .set(pressure.lag_us);
      registry
          .gauge("df_admission_service_us", "",
                 "Smoothed per-operation service latency")
          .set(pressure.service_us);
      registry
          .gauge("df_admission_inflight_estimate", "",
                 "Little's-law in-flight operation estimate")
          .set(pressure.inflight);
      registry
          .gauge("df_admission_retry_after_ms", "",
                 "Retry-after hint currently sent with sheds")
          .set(static_cast<double>(pressure.retry_after_ms));
      registry
          .gauge("df_admission_max_shard_queue_depth", "",
                 "Runtime queue depth on the max-pressure shard")
          .set(static_cast<double>(pressure.queue_depth));
    }
    registry.gauge("df_store_objects", "", "Objects held by the data store")
        .set(static_cast<double>(node.store().object_count()));
    registry
        .gauge("df_store_value_bytes", "", "Value bytes held by the store")
        .set(static_cast<double>(node.store().value_bytes()));
    const store::StoreBreakdown breakdown = node.store().breakdown();
    registry
        .gauge("df_store_live_objects", "",
               "Live (non-tombstone) objects in the store")
        .set(static_cast<double>(breakdown.live_objects));
    registry
        .gauge("df_store_live_bytes", "",
               "Value bytes held by live objects")
        .set(static_cast<double>(breakdown.live_bytes));
    registry
        .gauge("df_store_tombstone_objects", "",
               "Tombstones awaiting grace-period GC")
        .set(static_cast<double>(breakdown.tombstone_objects));
    registry
        .counter("df_store_keys_expired_total", "",
                 "Key versions removed by TTL expiry")
        .set(node.metrics().counter_value("node.keys_expired"));
    registry
        .counter("df_store_keys_evicted_total", "",
                 "Keys evicted under the --max-store-bytes budget")
        .set(node.metrics().counter_value("node.keys_evicted"));
    if (!engines.empty()) {
      std::size_t tail_bytes = 0;
      double oldest_age = 0.0;
      std::uint64_t generation = 0;
      std::uint64_t skipped = 0;
      for (const store::StorageEngine* engine : engines) {
        tail_bytes += engine->journal_bytes();
        oldest_age = std::max(oldest_age, engine->snapshot_age_seconds());
        generation = std::max(generation, engine->generation());
        skipped += engine->checkpoints_skipped();
      }
      registry
          .gauge("df_store_journal_tail_bytes", "",
                 "Journal bytes appended since the last checkpoint")
          .set(static_cast<double>(tail_bytes));
      registry
          .gauge("df_store_snapshot_age_seconds", "",
                 "Seconds since the last checkpoint (oldest partition)")
          .set(oldest_age);
      registry
          .gauge("df_store_generation", "",
                 "Current snapshot/journal generation (newest partition)")
          .set(static_cast<double>(generation));
      registry
          .counter("df_store_checkpoints_skipped_total", "",
                   "Checkpoint ticks skipped while a snapshot write was "
                   "still in flight")
          .set(skipped);
    }
    const server::ShardGroup::Totals totals = group.totals();
    registry.counter("df_transport_sent_total", "", "Datagrams sent")
        .set(totals.sent);
    registry
        .counter("df_transport_delivered_total", "", "Datagrams delivered")
        .set(totals.delivered);
    registry.counter("df_transport_dropped_total", "", "Datagrams dropped")
        .set(totals.dropped);
    registry
        .counter("df_transport_batched_recv_total", "",
                 "Datagrams received via batched recvmmsg")
        .set(totals.batched_recv);
    registry
        .counter("df_transport_batched_send_total", "",
                 "Datagrams sent via batched sendmmsg")
        .set(totals.batched_send);
    registry
        .counter("df_mailbox_drained_total", "",
                 "Cross-shard mailbox closures executed")
        .set(totals.mailbox_drained);
    if (net::StreamTransport* stream = group.stream()) {
      const net::StreamTransport::Counters& sc = stream->counters();
      const auto val = [](const std::atomic<std::uint64_t>& v) {
        return v.load(std::memory_order_relaxed);
      };
      registry
          .counter("df_stream_accepted_total", "",
                   "Stream connections accepted")
          .set(val(sc.accepted));
      registry.counter("df_stream_dialed_total", "", "Outbound stream dials")
          .set(val(sc.dialed));
      registry
          .counter("df_stream_dial_failures_total", "",
                   "Stream dials that never opened")
          .set(val(sc.dial_failures));
      registry
          .counter("df_stream_closed_total", "", "Stream connections closed")
          .set(val(sc.closed));
      registry
          .gauge("df_stream_active", "", "Stream connections currently open")
          .set(static_cast<double>(val(sc.active)));
      registry
          .counter("df_stream_bytes_in_total", "", "Stream bytes received")
          .set(val(sc.io.bytes_in));
      registry.counter("df_stream_bytes_out_total", "", "Stream bytes sent")
          .set(val(sc.io.bytes_out));
      registry
          .counter("df_stream_frames_in_total", "",
                   "Stream frames reassembled and delivered")
          .set(val(sc.io.frames_in));
      registry
          .counter("df_stream_frames_out_total", "", "Stream frames queued")
          .set(val(sc.io.frames_out));
      registry
          .counter("df_stream_reassembly_errors_total", "",
                   "Stream frame decode failures (connection dropped)")
          .set(val(sc.io.reassembly_errors));
      registry
          .counter("df_stream_egress_overflows_total", "",
                   "Stream connections closed for egress overflow")
          .set(val(sc.io.egress_overflows));
      registry
          .gauge("df_stream_egress_queue_hwm_bytes", "",
                 "High-water mark of any connection's egress queue")
          .set(static_cast<double>(val(sc.io.egress_queue_hwm)));
      if (net::DualTransport* dual = group.dual()) {
        registry
            .counter("df_stream_dropped_no_stream_total", "",
                     "Oversized sends dropped with no stream path")
            .set(dual->dropped_no_stream());
      }
    }
    // The node's per-subsystem event counters ride along as one labeled
    // family; executor-shard counters fold into the same names so CLI
    // stats, UDP scrapes and HTTP scrapes all see one node.
    MetricsRegistry merged;
    for (const auto& [name, value] : node.metrics().all_counters()) {
      merged.counter(name).add(value);
    }
    group.merge_counters(merged);
    return registry.render() +
           obs::render_node_counters(merged, "df_node_events_total");
  };
  group.set_op_metrics(&hot);
  node.set_stats_provider(render_stats);       // Operation::stats() admin op
  transport.set_stats_provider(render_stats);  // kStatsRequest UDP frames
  // Admission control reads the loop's queue depth through the same probe
  // the df_runtime_queue_depth gauge polls (worker shards probe their own
  // loops; see ShardGroup).
  node.set_load_probe([&rt]() { return rt.pending_events(); });

  // Seed-only join: each probe reply names the node id living at a seed
  // address; feed it into the PSS as a bootstrap contact and let gossip
  // learn the rest of the membership (and its addresses) from there.
  transport.set_seed_listener([&node, &log](NodeId contact) {
    log.info("seed resolved to ", to_string(contact));
    node.add_contact(contact);
  });
  for (const server::SeedSpec& seed_spec : config.seeds) {
    transport.add_seed(seed_spec.host, seed_spec.port);
  }

  group.start(config.peer_ids());

  // Optional plain-TCP Prometheus endpoint (--metrics-port; 0 = ephemeral).
  // Printed before the ready line so scripts can parse both in one pass.
  std::optional<obs::MetricsTcpEndpoint> metrics_endpoint;
  if (config.metrics_port >= 0) {
    metrics_endpoint.emplace(
        rt, config.listen_host,
        static_cast<std::uint16_t>(config.metrics_port), render_stats);
    std::printf("dataflasks_server: node %llu metrics on %s:%u\n",
                static_cast<unsigned long long>(config.id),
                config.listen_host.c_str(), metrics_endpoint->port());
  }

  // Stream listener line precedes the ready line (like the metrics line)
  // so scripts parse the resolved ephemeral port in the same pass.
  if (group.stream() != nullptr) {
    std::printf("dataflasks_server: node %llu streams on %s:%u\n",
                static_cast<unsigned long long>(config.id),
                config.listen_host.c_str(), group.stream_port());
  }

  g_group = &group;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  // Worker shard threads spawn only after every socket is bound and every
  // handler installed, so the ready line below is an honest contract:
  // scripts (and the CI smoke test) wait for it before pointing clients at
  // the process.
  group.start_workers();
  std::printf("dataflasks_server: node %llu ready on %s:%u (%zu peers, %zu "
              "seeds, %u slices, %zu shards)\n",
              static_cast<unsigned long long>(config.id),
              config.listen_host.c_str(), transport.local_port(),
              config.peers.size(), config.seeds.size(), config.slices,
              group.shard_count());
  std::fflush(stdout);

  // Unblocked from inside the loop: run() clears the stop flag on entry,
  // so a signal taken before it would be lost.
  rt.schedule_after(0, [&signals]() {
    pthread_sigmask(SIG_UNBLOCK, &signals, nullptr);
  });
  group.run();
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  // SIGINT/SIGTERM stopped every shard loop; join the workers before any
  // teardown so no executor touches the store or a socket mid-destruction.
  group.shutdown();
  node.crash();
  const server::ShardGroup::Totals totals = group.totals();
  std::printf("dataflasks_server: node %llu stopped (sent=%llu "
              "delivered=%llu dropped=%llu)\n",
              static_cast<unsigned long long>(config.id),
              static_cast<unsigned long long>(totals.sent),
              static_cast<unsigned long long>(totals.delivered),
              static_cast<unsigned long long>(totals.dropped));
  return 0;
}
