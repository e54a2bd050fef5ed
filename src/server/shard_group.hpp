// Shared-nothing multi-shard server runtime (thread-per-core model): one
// process hosts N shards, each with its OWN RealTimeRuntime on a dedicated
// thread, its own SO_REUSEPORT UDP socket on the shared listen port, its
// own admission controller and its own RNG stream. The kernel spreads
// inbound datagrams across the shard sockets by source-address hash, so
// ingress parallelizes without a dispatcher thread.
//
// Division of labor:
//   - Shard 0 runs the full core::Node — membership gossip, slicing,
//     anti-entropy, state transfer, handoff and the spray router all stay
//     single-threaded there, untouched.
//   - Every shard (0 included) runs a client-op EXECUTOR: operation
//     envelopes arriving on its socket are decoded and the ops for this
//     node's slice are executed against the shared ShardedStore, keyed by
//     ShardedStore::partition_of — ops owned by a sibling shard are mailed
//     to it, everything else (foreign slices, stats ops, protocol
//     mismatches, gossip, sprays) is forwarded to shard 0's Node.
//   - Cross-shard communication happens ONLY through the runtimes'
//     lock-free mailboxes (Runtime::post_from_any_thread); shards share no
//     mutable state besides the ShardedStore's internally-locked
//     partitions and this group's atomic counters.
//
// Executor semantics mirror RequestHandler::handle_ops_delivery at the
// contact: writes store locally + push immediate copies to slice-mates
// (addresses carried in a periodically published SliceSnapshot), served
// gets answer the client directly from the executing shard's socket, and
// unserved gets are mailed to shard 0 which re-sprays them into the slice
// (RequestHandler::spray_ops). With --shards 1 none of this engages: the
// group degenerates to exactly the classic single-runtime server.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "core/node.hpp"
#include "net/stream/dual_transport.hpp"
#include "net/stream/stream_transport.hpp"
#include "net/udp_transport.hpp"
#include "runtime/real_time_runtime.hpp"
#include "store/store.hpp"

namespace dataflasks::server {

struct ShardGroupOptions {
  NodeId id;
  double capacity = 1.0;
  /// Process seed; each shard's runtime forks a distinct stream from it.
  std::uint64_t seed = 1;
  /// Shard count (>= 1). 1 = classic single-runtime server, bit-for-bit.
  std::size_t shards = 1;
  /// Shard 0's transport options; workers derive theirs (same port,
  /// SO_REUSEPORT) from the bound result.
  net::UdpTransport::Options net;
  /// TCP stream listener port on the UDP bind address: -1 = no streams
  /// (UDP-only node), 0 = ephemeral, else the given port. The listener
  /// binds BEFORE shard 0's UDP transport so the gossiped endpoint carries
  /// the resolved port from the first self-descriptor. Stream ingress and
  /// egress live on shard 0; executor shards mail stream-bound replies to
  /// it (see execute_ops).
  std::int32_t stream_port = -1;
  core::NodeOptions node;
  /// Cadence at which shard 0 publishes slice identity + replica addresses
  /// to the executor shards.
  SimTime snapshot_period = 200 * kMillis;
};

/// Executor-side event counters, one set per shard. Written only on the
/// owning shard's thread; atomic so shard 0's metrics render can fold all
/// shards into the single-node counter names without synchronizing loops.
struct ShardExecCounters {
  std::atomic<std::uint64_t> puts_stored{0};
  std::atomic<std::uint64_t> puts_superseded{0};
  std::atomic<std::uint64_t> put_conflicts{0};
  std::atomic<std::uint64_t> deletes_stored{0};
  std::atomic<std::uint64_t> delete_conflicts{0};
  std::atomic<std::uint64_t> gets_served{0};
  std::atomic<std::uint64_t> gets_deleted{0};
  std::atomic<std::uint64_t> gets_missed{0};
  std::atomic<std::uint64_t> cas_stored{0};
  std::atomic<std::uint64_t> cas_failed{0};
  std::atomic<std::uint64_t> cas_conflicts{0};
  std::atomic<std::uint64_t> stats_misrouted{0};
  std::atomic<std::uint64_t> pushes_stored{0};
  std::atomic<std::uint64_t> envelopes_shed{0};
  std::atomic<std::uint64_t> ops_local{0};      ///< executed on ingress shard
  std::atomic<std::uint64_t> ops_mailed{0};     ///< mailed to a sibling shard
  std::atomic<std::uint64_t> forwarded_node{0}; ///< frames handed to shard 0
  std::atomic<std::uint64_t> gets_resprayed{0}; ///< unserved, mailed to spray
};

/// Per-shard admission pressure, published by each shard's admission tick
/// for shard 0's render. Overload for the PROCESS is judged on the
/// max-pressure shard: one saturated core sheds even if siblings idle.
struct ShardPressure {
  std::atomic<bool> valid{false};
  std::atomic<bool> overloaded{false};
  std::atomic<double> lag_us{0.0};
  std::atomic<double> service_us{0.0};
  std::atomic<double> inflight{0.0};
  std::atomic<std::uint32_t> retry_after_ms{0};
  std::atomic<std::uint64_t> queue_depth{0};
  // Snapshots of the worker controller's registry counters (copied out on
  // the shard thread at tick time; the registry itself is not thread-safe).
  std::atomic<std::uint64_t> client_ops_shed{0};
  std::atomic<std::uint64_t> client_ops_admitted{0};
  std::atomic<std::uint64_t> overload_entered{0};
  std::atomic<std::uint64_t> overload_exited{0};
};

class ShardGroup {
 public:
  /// Plain-data view of one shard's pressure (or the max across shards).
  struct PressureView {
    bool valid = false;
    bool overloaded = false;
    double lag_us = 0.0;
    double service_us = 0.0;
    double inflight = 0.0;
    std::uint32_t retry_after_ms = 0;
    std::uint64_t queue_depth = 0;
  };

  /// Summed transport / runtime counters across every shard.
  struct Totals {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t batched_recv = 0;
    std::uint64_t batched_send = 0;
    std::uint64_t mailbox_drained = 0;
  };

  /// Binds every shard's socket (shard 0 first; workers re-bind its port
  /// with SO_REUSEPORT) and builds the Node on shard 0 — all on the
  /// calling thread, so a bind failure throws before any thread exists.
  /// `store`: the node's store; REQUIRED thread-safe (store::ShardedStore)
  /// when shards > 1, may be null (volatile MemStore) when shards == 1.
  ShardGroup(ShardGroupOptions options, std::unique_ptr<store::Store> store);
  ~ShardGroup();

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  [[nodiscard]] core::Node& node() { return *node_; }
  [[nodiscard]] runtime::RealTimeRuntime& shard0_runtime() {
    return *shards_[0]->rt;
  }
  [[nodiscard]] net::UdpTransport& shard0_transport() {
    return *shards_[0]->transport;
  }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::uint16_t local_port() const {
    return shards_[0]->transport->local_port();
  }
  [[nodiscard]] runtime::RealTimeRuntime& shard_runtime(std::size_t k) {
    return *shards_[k]->rt;
  }
  [[nodiscard]] net::UdpTransport& shard_transport(std::size_t k) {
    return *shards_[k]->transport;
  }
  /// Null when the group was built without a stream listener.
  [[nodiscard]] net::StreamTransport* stream() { return stream_.get(); }
  [[nodiscard]] net::DualTransport* dual() { return dual_.get(); }
  /// Resolved stream listener port (0 when streams are disabled).
  [[nodiscard]] std::uint16_t stream_port() const {
    return stream_ ? stream_->listen_port() : 0;
  }

  /// Starts the node, installs the shard router on every socket and
  /// schedules snapshot publishing + per-shard admission ticks. Call on
  /// the boot thread BEFORE start_workers().
  void start(const std::vector<NodeId>& peer_seeds);
  /// Spawns the worker shard threads (no-op with one shard) and returns
  /// once every worker loop is running.
  void start_workers();
  /// Runs shard 0's loop on the calling thread until stop(). A stop()
  /// that lands before the loop has started is lost (the runtime clears
  /// its stop flag on entry), so dataflasks_server unblocks its stop
  /// signals from an event inside the loop.
  void run();
  /// Stops every shard's loop. Async-signal-safe (lock-free atomics +
  /// eventfd write per runtime), so it is callable straight from a
  /// SIGINT/SIGTERM handler — each loop wakes promptly and exits. Callable
  /// from any thread while the group is alive: shutdown() waits for every
  /// stop() still in progress, so the group is never freed under one.
  void stop();
  /// Joins the worker threads and waits out any stop() still running on
  /// another thread. Call after run() returns, before teardown.
  void shutdown();

  /// Hot-path per-op metrics shared by the node and every executor (obs
  /// counters/histograms are atomic). `hot` must outlive the group.
  void set_op_metrics(const core::OpHotMetrics* hot);

  [[nodiscard]] PressureView pressure(std::size_t shard) const;
  /// Max-pressure shard across the whole process, node's controller
  /// included — the overload signal the server exports.
  [[nodiscard]] PressureView max_pressure() const;
  [[nodiscard]] Totals totals() const;

  /// Folds every shard's executor counters (and worker admission counters)
  /// into `into` under the same names the single-shard node uses, so one
  /// scrape shows one node regardless of shard count. Shard-0 thread only.
  void merge_counters(MetricsRegistry& into) const;

 private:
  /// Addressed replica peers for the executor push path, refreshed from
  /// shard 0 every snapshot_period. A plain value copied into each shard.
  struct SliceSnapshot {
    bool valid = false;
    SliceId my_slice = 0;
    std::uint32_t slice_count = 1;
    std::uint8_t serve_protocol = core::kOpProtocolVersion;
    std::vector<std::pair<NodeId, sockaddr_in>> replica_peers;
  };

  struct Shard {
    std::size_t index = 0;
    std::unique_ptr<runtime::RealTimeRuntime> rt;
    std::unique_ptr<net::UdpTransport> transport;
    /// Worker shards only: private registry feeding the controller (the
    /// common MetricsRegistry is single-threaded by design).
    std::unique_ptr<MetricsRegistry> metrics;
    std::unique_ptr<core::AdmissionController> admission;
    SliceSnapshot snapshot;  ///< shard-thread-local copy
    ShardPressure pressure;
    ShardExecCounters counters;
    std::thread thread;
  };

  [[nodiscard]] core::AdmissionController* shard_admission(std::size_t k);
  void route(std::size_t from, const net::Message& msg);
  void route_envelope(std::size_t from, const net::Message& msg);
  void route_push(std::size_t from, const net::Message& msg);
  /// Hands `msg` to shard 0's Node (mailing an address observation ahead
  /// of it so replies can route), from any shard thread.
  void forward_to_node(std::size_t from, net::Message msg);
  /// Executes client ops owned by shard `k` on its thread: the ported
  /// handle_ops_delivery op switch against the shared store.
  void execute_ops(std::size_t k, std::vector<core::RoutedOp> ops,
                   sockaddr_in client_addr);
  /// Stores replica-push objects owned by shard `k`.
  void store_pushed(std::size_t k, std::vector<store::Object> objects);
  /// Sends `msg` through shard 0's DualTransport (stream routing happens
  /// there), from any shard thread. Stream connections are owned by shard
  /// 0's loop, so executor replies to stream clients ride its mailbox.
  void send_via_dual(std::size_t k, net::Message msg);
  void publish_snapshot();
  void admission_tick(std::size_t k);
  void note_exec(std::size_t k, core::OpType type, SimTime started);

  ShardGroupOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Destruction order matters: the node references dual_, dual_ references
  // stream_ and shard 0's transport/runtime — members are torn down in
  // exactly the reverse of this declaration order.
  std::unique_ptr<net::StreamTransport> stream_;
  std::unique_ptr<net::DualTransport> dual_;
  std::unique_ptr<core::Node> node_;
  const core::OpHotMetrics* hot_ = nullptr;
  runtime::TimerHandle snapshot_timer_;
  /// stop() calls that have not returned yet. Stopping shard 0 lets its
  /// owner thread leave run() and tear the group down while the stopping
  /// thread still walks the other shards; shutdown() waits for zero.
  std::atomic<std::uint32_t> stops_in_progress_{0};
};

}  // namespace dataflasks::server
