// Fleets under test and the due-time load generator that drives them.
//
// Two ways to host the same three-node fleet, configured from the same
// server flags:
//   - ProcessFleet: dataflasks_server processes (untraced runs; what a user
//     deploys). kill -9 and restart are real.
//   - HostedFleet: the same server::ShardGroup the server binary runs,
//     hosted inside this process so the traced run can wrap each node's
//     store, install OpHotMetrics and probe every shard runtime.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "client/client.hpp"
#include "common.hpp"
#include "core/request_handler.hpp"
#include "obs/metrics.hpp"
#include "server/config.hpp"
#include "store/store.hpp"

namespace perfbench {

/// Server flags for node `index` of a fleet: `common` plus identity, a
/// listen address (`ports[index]`, 0 = ephemeral) and a static --peer for
/// every other node already bound (`ports[j] != 0`). Static peers, not
/// --seed joins: a seed probe can land on a worker shard's SO_REUSEPORT
/// socket, and a multi-shard fleet then sometimes never converges.
std::vector<std::string> node_args(const std::vector<std::string>& common,
                                   std::size_t index,
                                   const std::vector<std::uint16_t>& ports);

class Fleet {
 public:
  virtual ~Fleet() = default;
  [[nodiscard]] virtual std::vector<server::PeerSpec> peers() const = 0;
  /// One gauge per node: "df_store_objects" (versions held) or
  /// "df_pss_view_size" (membership view entries).
  [[nodiscard]] virtual std::vector<double> gauge(const std::string& name) = 0;
  /// Hard-stops node `index` and restarts it on the same port and data
  /// directory; returns milliseconds from the stop to the node being ready.
  virtual double restart(std::size_t index) = 0;
  /// Summed peak RSS (MiB) and CPU seconds of the nodes (0 when hosted in
  /// this process: the traced run does not report them).
  [[nodiscard]] virtual double rss_mb() = 0;
  [[nodiscard]] virtual double cpu_seconds() = 0;
};

/// Boots `nodes` server processes from `bin` with `common` flags.
std::unique_ptr<Fleet> make_process_fleet(const std::string& bin,
                                          const std::string& log_dir,
                                          const std::vector<std::string>& common,
                                          std::size_t nodes);

// ---- traced hosting -------------------------------------------------------

/// Store-layer trace, shared by every wrapped partition of every node.
struct StoreTrace {
  obs::LatencyHistogram put_us;
  obs::LatencyHistogram get_us;
  obs::LatencyHistogram digest_us;
  obs::LatencyHistogram checkpoint_us;
  /// Journal bytes retired by checkpoints (tails in progress are added at
  /// readout).
  std::atomic<std::uint64_t> checkpointed_journal_bytes{0};
};

/// Pass-through Store decorator that times calls into the wrapped store.
/// Forwards every virtual method, including the ones Store gives defaults
/// (compare_and_put, compact_storage, breakdown), so wrapping changes no
/// behaviour: a skipped compact_storage would silently turn checkpoints
/// off, and ShardedStore's compare_and_put is the thread-safe one.
class TracedStore final : public store::Store {
 public:
  TracedStore(std::unique_ptr<store::Store> inner, StoreTrace* trace);

  Status put(const store::Object& obj) override;
  store::CasOutcome compare_and_put(const store::Object& obj,
                                    Version expected) override;
  [[nodiscard]] Result<store::Object> get(
      const Key& key, std::optional<Version> version) const override;
  [[nodiscard]] Version tombstone_version(const Key& key) const override;
  std::size_t gc_tombstones(SimTime now, SimTime grace) override;
  [[nodiscard]] bool contains(const Key& key, Version version) const override;
  [[nodiscard]] std::vector<store::DigestEntry> digest() const override;
  [[nodiscard]] const std::vector<store::DigestEntry>& digest_entries()
      const override;
  void for_each(
      const std::function<void(const store::Object&)>& fn) const override;
  [[nodiscard]] std::vector<store::Object> all() const override;
  std::size_t remove_keys_where(
      const std::function<bool(const Key&)>& predicate) override;
  [[nodiscard]] std::size_t object_count() const override;
  [[nodiscard]] std::size_t value_bytes() const override;
  store::ReapStats reap(SimTime now, std::size_t max_bytes) override;
  Result<std::size_t> compact_storage() override;
  [[nodiscard]] std::uint64_t mutation_rev() const override;
  [[nodiscard]] store::StoreBreakdown breakdown() const override;

  /// Journal bytes appended since the last checkpoint (durable engines).
  [[nodiscard]] std::size_t journal_tail_bytes() const;

 private:
  std::unique_ptr<store::Store> inner_;
  StoreTrace* trace_;  ///< null: forward without timing
};

/// What the traced run reads from the hosted nodes at the end.
struct HostedReadout {
  std::uint64_t mailbox_drained = 0;
  std::uint64_t dropped = 0;
  std::uint64_t delivered = 0;
  std::uint64_t batched_recv = 0;  ///< datagrams taken in by recvmmsg
  double shed_ratio = 0.0;
  double inflight = 0.0;
  std::map<std::string, std::uint64_t> counters;  ///< node + shard counters
  std::size_t objects = 0;
  std::size_t keys = 0;
  std::size_t checkpoints = 0;
  std::uint64_t journal_bytes = 0;  ///< appended across all generations
};

class HostedFleet : public Fleet {
 public:
  virtual void start_probes() = 0;
  virtual void stop_probes() = 0;
  [[nodiscard]] virtual HostedReadout readout() = 0;
  [[nodiscard]] virtual StoreTrace& store_trace() = 0;
  [[nodiscard]] virtual core::OpHotMetrics& hot() = 0;
  /// Runtime probes: post_from_any_thread -> run hop, 1 ms timer lateness,
  /// and queue depth seen by the probe, over every shard of every node.
  [[nodiscard]] virtual const obs::LatencyHistogram& probe_hop_us() = 0;
  [[nodiscard]] virtual const obs::LatencyHistogram& probe_lag_us() = 0;
  [[nodiscard]] virtual double probe_queue_depth() = 0;
  [[nodiscard]] virtual std::uint64_t probes_posted() = 0;
  /// Cross-shard mailbox closures run so far, probes included.
  [[nodiscard]] virtual std::uint64_t mailbox_drained() = 0;
};

std::unique_ptr<HostedFleet> make_hosted_fleet(
    const std::vector<std::string>& common, std::size_t nodes);

// ---- due-time generator -----------------------------------------------------

/// Builds the ops of global batch `index` (called on the issuing worker's
/// thread; must only read shared state).
using BatchMaker = std::function<std::vector<core::Operation>(
    client::Client& client, Rng& rng, std::size_t index)>;

struct Phase {
  double rate = 1000.0;        ///< aggregate ops per second
  std::size_t batch = 1;       ///< ops per envelope
  double seconds = 1.0;        ///< schedule length (unless total_batches)
  std::size_t total_batches = 0;  ///< >0: schedule exactly this many
  std::size_t threads = 2;
  std::size_t value_size = 100;
  std::uint64_t seed = 1;
  std::uint64_t client_salt = 0;  ///< keeps stamped versions disjoint
  bool record_acked = false;      ///< keep (key, version) of acked puts
  bool trace = false;             ///< time client execute + transport send
  bool streams = false;  ///< client dials TCP streams for its envelopes
  /// Called once per worker (on its thread) with the phase seed, for that
  /// worker's BatchMaker.
  std::function<BatchMaker(std::size_t worker, std::uint64_t seed)> make;
  /// Optional per-op check of a served get; returning false counts the op
  /// as a wrong answer. Defaults to value_matches on the returned version.
  std::function<bool(const core::Operation&, const client::OpResult&)> check;
};

struct PhaseResult {
  Samples get_us;   ///< from each op's due time to its completion
  Samples put_us;
  Samples late_us;  ///< issue time minus due time, per batch
  std::uint64_t scheduled_ops = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t shed_ops = 0;     ///< never issued: in-flight cap reached
  std::uint64_t attempts = 0;     ///< summed over resolved ops
  std::uint64_t batches = 0;
  std::uint64_t envelopes = 0;
  std::vector<std::pair<Key, Version>> acked;
  double wall_seconds = 0.0;
  // Traced only.
  Samples execute_us;  ///< synchronous Client::execute() call
  Samples execute_self_us;  ///< execute() minus the sends inside it
  Samples send_us;     ///< one transport send() call
  std::uint64_t sends = 0;
  std::uint64_t send_bytes = 0;
  std::uint64_t stream_frames = 0;
};

/// Runs one open-loop phase against `peers`: worker w issues global
/// batches w, w+T, ... at their due times t0 + index * batch / rate, and on
/// every wakeup issues every batch whose due time has passed.
PhaseResult run_phase(const std::vector<server::PeerSpec>& peers,
                      const Phase& phase, const std::string& span_path = "");

/// Adds `from`'s counts to `into` and pools its samples.
void merge_into(PhaseResult& into, const PhaseResult& from);

/// Polls `fleet` until gauge `name` reaches `at_least` on every node;
/// returns false on timeout.
bool wait_gauge(Fleet& fleet, const std::string& name, double at_least,
                double timeout_s);

}  // namespace perfbench
