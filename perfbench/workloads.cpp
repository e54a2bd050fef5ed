// The two real-fleet workloads.
//
// fleet-read: 3 nodes, --shards 1, memory store, preloaded; 95% gets / 5%
// puts over Zipfian keys, single-op requests with 100 B values, open loop at
// a fixed reference rate. Per-message costs dominate (client encode, UDP,
// the runtime loop, the get path); nothing is journaled, checkpointed,
// mailed between shards or sent over streams.
//
// fleet-write-durable: 3 nodes, --shards 2, durable store, streams, 2 s
// checkpoints; all puts of 1 KiB values over uniform keys in 8-op envelopes
// at a fixed rate, then kill -9 of one node, restart, and a read-back of
// every acked put at its version. Per-op costs dominate (store apply,
// journal append, checkpoints, replica pushes, anti-entropy with real
// diffs, the cross-shard mailbox, envelopes over TCP).
//
// The flush policy is the store's own and the same on every commit: each
// journal append is flushed to the OS (no fsync), each snapshot is fsynced
// before it is published.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "fleet.hpp"
#include "workload/ycsb.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kNodes = 3;
constexpr std::size_t kClientThreads = 2;
/// How many times set-up runs per run; setup_s is the median.
constexpr int kSetups = 3;
// fleet-read
constexpr std::size_t kReadRecords = 5000;
constexpr std::size_t kReadValue = 100;
constexpr double kReadRate = 6000.0;  ///< reference rate, ops/s
/// Rate ladder for max_rate_ops_s (--ladder), each rung 2 s.
constexpr double kLadder[] = {2000, 4000, 6000, 8000, 12000, 16000, 24000,
                              32000};
constexpr double kLadderP99LimitUs = 10'000.0;
constexpr double kLadderErrorLimit = 0.001;

// fleet-write-durable
constexpr std::size_t kWriteKeys = 4096;
constexpr std::size_t kWriteValue = 1024;
constexpr std::size_t kWriteBatch = 8;
constexpr double kWriteRate = 2000.0;     ///< ops/s
constexpr double kReadbackRate = 4000.0;  ///< ops/s
constexpr std::size_t kDurablePreload = 256;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// The measured phase and the CPU the fleet spent on it.
struct Measured {
  PhaseResult r;
  double cpu_us_per_op = 0.0;  ///< fleet CPU per resolved op
};

Measured measure(Fleet& fleet, const Phase& p, const std::string& span_path) {
  Measured m;
  const double cpu0 = fleet.cpu_seconds();
  m.r = run_phase(fleet.peers(), p, span_path);
  m.cpu_us_per_op =
      (fleet.cpu_seconds() - cpu0) * 1e6 /
      static_cast<double>(std::max<std::uint64_t>(1, m.r.ok + m.r.failed));
  return m;
}

/// Puts `count` keys (`key_of(i)`) at 20k ops/s in 8-op envelopes.
PhaseResult preload(Fleet& fleet, std::size_t count, std::size_t value_size,
                    std::function<Key(std::size_t)> key_of,
                    std::uint64_t seed) {
  Phase p;
  p.rate = 20000.0;
  p.batch = 8;
  p.total_batches = (count + p.batch - 1) / p.batch;
  p.threads = kClientThreads;
  p.value_size = value_size;
  p.seed = seed;
  p.client_salt = 1;
  p.make = [count, value_size, key_of](std::size_t,
                                       std::uint64_t) -> BatchMaker {
    return [count, value_size, key_of](client::Client& client, Rng&,
                                       std::size_t index) {
      std::vector<core::Operation> ops;
      for (std::size_t i = index * 8; i < std::min(count, index * 8 + 8);
           ++i) {
        const Key key = key_of(i);
        const Version v = client.stamp_version(key);
        ops.push_back(
            core::Operation::put(key, v, value_for(key, v, value_size)));
      }
      return ops;
    };
  };
  return run_phase(fleet.peers(), p);
}

/// Boots a fleet and preloads it, `kSetups` times when measuring setup_s
/// (keeping the last fleet), once otherwise.
template <typename Boot>
std::unique_ptr<Fleet> setup_fleet(const Options& opts, Report& report,
                                   Boot boot) {
  std::vector<double> setups;
  std::unique_ptr<Fleet> fleet;
  const int reps = opts.trace ? 1 : kSetups;
  for (int rep = 0; rep < reps; ++rep) {
    fleet.reset();
    const double start = mono_us();
    fleet = boot(rep);
    setups.push_back((mono_us() - start) / 1e6);
  }
  report.set("setup_s", median(setups));
  return fleet;
}

void latency_metrics(Report& report, PhaseResult& gets, PhaseResult& puts) {
  report.set("get_p50_us", gets.get_us.quantile(0.50));
  report.set("get_p99_us", gets.get_us.quantile(0.99));
  report.set("get_samples", static_cast<double>(gets.get_us.size()));
  report.set("put_p50_us", puts.put_us.quantile(0.50));
  report.set("put_p99_us", puts.put_us.quantile(0.99));
  report.set("put_samples", static_cast<double>(puts.put_us.size()));
}

/// Generator and client-layer numbers of the main phase.
void generator_metrics(Report& report, PhaseResult& main) {
  report.set("gen.late_us_p50", main.late_us.quantile(0.50));
  report.set("gen.late_us_p99", main.late_us.quantile(0.99));
  report.set("gen.unissued", static_cast<double>(main.shed_ops));
  if (main.late_us.quantile(0.99) > kLateP99BoundUs) {
    report.notes.push_back("generator late p99 above the bound");
  }
  const double resolved = static_cast<double>(main.ok + main.failed);
  report.set("client.attempts_per_op",
             resolved > 0 ? static_cast<double>(main.attempts) / resolved
                          : 0.0);
  report.set("client.envelopes_per_request",
             main.batches > 0 ? static_cast<double>(main.envelopes) /
                                    static_cast<double>(main.batches)
                              : 0.0);
}

/// Per-layer numbers of a traced run over `ops` client ops.
void layer_metrics(Report& report, HostedFleet& fleet, PhaseResult& main,
                   const HostedReadout& before, const HostedReadout& after,
                   std::uint64_t drained_delta, double user_bytes) {
  const double ops = std::max<double>(1.0, static_cast<double>(main.ok +
                                                               main.failed));
  const auto delta = [&](const char* name) {
    const auto get = [name](const HostedReadout& r) {
      const auto it = r.counters.find(name);
      return it == r.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    return get(after) - get(before);
  };
  report.set("client.execute_us", main.execute_us.quantile(0.50));
  report.set("client.execute_self_us", main.execute_self_us.quantile(0.50));
  report.set("net.client_send_us", main.send_us.quantile(0.50));
  report.set("net.client_msgs_per_op", static_cast<double>(main.sends) / ops);
  report.set("net.client_bytes_per_op",
             static_cast<double>(main.send_bytes) / ops);
  const double delivered =
      static_cast<double>(after.delivered - before.delivered);
  report.set("net.batched_recv_share",
             delivered > 0 ? static_cast<double>(after.batched_recv -
                                                 before.batched_recv) /
                                 delivered
                           : 0.0);
  report.set("net.dropped", static_cast<double>(after.dropped));
  report.set("net.stream_frames_per_op",
             static_cast<double>(main.stream_frames) / ops);
  report.set("runtime.loop_lag_us",
             static_cast<double>(fleet.probe_lag_us().quantile(0.99)));
  report.set("runtime.queue_depth", fleet.probe_queue_depth());
  report.set("runtime.mailbox_hop_us",
             static_cast<double>(fleet.probe_hop_us().quantile(0.50)));
  report.set("runtime.mailbox_msgs_per_op",
             static_cast<double>(drained_delta) / ops);
  const core::OpHotMetrics& hot = fleet.hot();
  report.set("server.exec_us.get",
             static_cast<double>(
                 hot.exec_us[core::OpHotMetrics::index(core::OpType::kGet)]
                     ->quantile(0.50)));
  report.set("server.exec_us.put",
             static_cast<double>(
                 hot.exec_us[core::OpHotMetrics::index(core::OpType::kPut)]
                     ->quantile(0.50)));
  const double local = delta("shard.ops_local");
  const double mailed = delta("shard.ops_cross_shard");
  report.set("server.ops_mailed_ratio",
             local + mailed > 0 ? mailed / (local + mailed) : 0.0);
  report.set("server.forwarded_to_node_per_op",
             delta("shard.forwarded_to_node") / ops);
  report.set("core.admission_shed_ratio", after.shed_ratio);
  report.set("core.admission_inflight", after.inflight);
  const double puts = std::max(1.0, static_cast<double>(main.put_us.size()));
  report.set("core.replica_pushes_per_put", delta("rh.pushes_stored") / puts);
  report.set("core.ae_bytes_per_s",
             delta("ae.bytes_sent") / std::max(1e-3, main.wall_seconds));
  report.set("core.ae_converged_ratio",
             delta("ae.summaries_sent") > 0
                 ? delta("ae.summaries_converged") / delta("ae.summaries_sent")
                 : 0.0);
  StoreTrace& st = fleet.store_trace();
  report.set("store.put_us", static_cast<double>(st.put_us.quantile(0.50)));
  report.set("store.put_us_p99",
             static_cast<double>(st.put_us.quantile(0.99)));
  report.set("store.puts", static_cast<double>(st.put_us.count()));
  report.set("store.get_us", static_cast<double>(st.get_us.quantile(0.50)));
  report.set("store.get_us_p99",
             static_cast<double>(st.get_us.quantile(0.99)));
  report.set("store.gets", static_cast<double>(st.get_us.count()));
  report.set("store.digest_us",
             static_cast<double>(st.digest_us.quantile(0.50)));
  report.set("store.checkpoint_us",
             static_cast<double>(st.checkpoint_us.quantile(0.50)));
  report.set("store.checkpoints", static_cast<double>(after.checkpoints));
  report.set("store.journal_bytes_per_user_byte",
             user_bytes > 0
                 ? static_cast<double>(after.journal_bytes -
                                       before.journal_bytes) /
                       user_bytes
                 : 0.0);
  report.set("store.versions_per_key",
             after.keys > 0 ? static_cast<double>(after.objects) /
                                  static_cast<double>(after.keys)
                            : 0.0);
}

void count_ops(Report& report, const PhaseResult& r) {
  report.attempted += r.scheduled_ops;
  report.failed += r.failed + r.shed_ops;
  report.wrong += r.wrong;
}

double error_ratio(const PhaseResult& r) {
  return static_cast<double>(r.failed + r.shed_ops) /
         static_cast<double>(std::max<std::uint64_t>(1, r.scheduled_ops));
}

/// Boots a fleet whose membership has converged. A 2-shard fleet
/// sometimes boots with nodes that neither gossip nor answer stats (about
/// one boot in a hundred); such a fleet is torn down and booted again from
/// an empty `dir`, at most three times.
std::unique_ptr<Fleet> boot(const Options& opts,
                            const std::vector<std::string>& common,
                            const std::string& dir) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::unique_ptr<Fleet> fleet =
        opts.trace ? std::unique_ptr<Fleet>(make_hosted_fleet(common, kNodes))
                   : make_process_fleet(opts.server_bin, dir, common, kNodes);
    if (wait_gauge(*fleet, "df_pss_view_size", 1, 10.0)) return fleet;
    std::fprintf(stderr, "perfbench: membership did not converge; "
                         "booting the fleet again\n");
  }
  throw std::runtime_error("fleet membership did not converge");
}

/// The traced run's measured window: the hosted fleet's readouts before
/// and after it, with the runtime probes running in between. Inert for
/// server processes.
struct TraceWindow {
  HostedFleet* fleet = nullptr;
  HostedReadout before;
  HostedReadout after;
  std::uint64_t drained0 = 0, probes0 = 0, drained = 0;

  explicit TraceWindow(Fleet& f) : fleet(dynamic_cast<HostedFleet*>(&f)) {
    if (fleet == nullptr) return;
    before = fleet->readout();
    fleet->start_probes();
    drained0 = fleet->mailbox_drained();
    probes0 = fleet->probes_posted();
  }
  /// Stops the probes; mailbox closures they caused are not counted.
  void close() {
    if (fleet == nullptr) return;
    fleet->stop_probes();
    drained = fleet->mailbox_drained() - drained0 -
              (fleet->probes_posted() - probes0);
    after = fleet->readout();
  }
};

/// fleet-read's get/put mix for one worker.
BatchMaker read_mix(std::size_t worker, std::uint64_t seed) {
  workload::WorkloadSpec spec = workload::WorkloadSpec::B();
  spec.record_count = kReadRecords;
  spec.value_size = kReadValue;
  auto gen = std::make_shared<workload::WorkloadGenerator>(
      spec, Rng(seed * 1000003 + worker));
  return [gen](client::Client& client, Rng&, std::size_t) {
    const workload::Op op = gen->next();
    std::vector<core::Operation> ops;
    if (op.kind == workload::OpKind::kRead) {
      ops.push_back(core::Operation::get(op.key));
    } else {
      const Version v = client.stamp_version(op.key);
      ops.push_back(
          core::Operation::put(op.key, v, value_for(op.key, v, kReadValue)));
    }
    return ops;
  };
}

/// Climbs kLadder for 2 s a rung; max_rate_ops_s is the highest rung before
/// the first one whose p99 exceeds 10 ms, whose error ratio exceeds 0.1%,
/// or where the generator falls behind its schedule.
void climb_ladder(const Options& opts, Fleet& fleet, Report& report) {
  double best = 0.0;
  std::uint64_t salt = 200;
  for (const double rate : kLadder) {
    Phase p;
    p.rate = rate;
    p.seconds = 2.0;
    p.threads = kClientThreads;
    p.value_size = kReadValue;
    p.seed = opts.seed * 977 + static_cast<std::uint64_t>(rate);
    p.client_salt = salt++;
    p.make = read_mix;
    PhaseResult r = run_phase(fleet.peers(), p);
    count_ops(report, r);
    Samples all = r.get_us;
    all.append(r.put_us);
    const double p99 = all.quantile(0.99);
    const double late99 = r.late_us.quantile(0.99);
    const bool held = p99 <= kLadderP99LimitUs &&
                      error_ratio(r) <= kLadderErrorLimit &&
                      late99 <= kLateP99BoundUs;
    report.notes.push_back(
        "ladder " + std::to_string(static_cast<int>(rate)) + " ops/s: p99 " +
        std::to_string(static_cast<int>(p99)) + " us, errors " +
        std::to_string(r.failed + r.shed_ops) + ", late p99 " +
        std::to_string(static_cast<int>(late99)) + " us" +
        (held ? "" : " (limit missed)"));
    if (!held) break;
    best = rate;
  }
  report.set("max_rate_ops_s", best);
}

}  // namespace

void run_fleet_read(const Options& opts, Report& report) {
  const std::vector<std::string> common = {"--shards", "1", "--store",
                                           "memory", "--slices", "1",
                                           "--log-level", "warn"};
  const auto key_of = [](std::size_t i) {
    return workload::WorkloadGenerator::key_for(i);
  };
  std::unique_ptr<Fleet> fleet =
      setup_fleet(opts, report, [&](int rep) -> std::unique_ptr<Fleet> {
        auto f = boot(opts, common,
                      opts.work_dir + "/read" + std::to_string(rep));
        PhaseResult loaded =
            preload(*f, kReadRecords, kReadValue, key_of, opts.seed);
        if (loaded.ok != kReadRecords) {
          throw std::runtime_error("fleet-read preload incomplete");
        }
        if (!wait_gauge(*f, "df_store_objects", kReadRecords, 30.0)) {
          throw std::runtime_error("fleet-read preload did not replicate");
        }
        return f;
      });

  Phase p;
  p.rate = kReadRate;
  p.seconds = opts.seconds;
  p.threads = kClientThreads;
  p.value_size = kReadValue;
  p.seed = opts.seed;
  p.client_salt = 2;
  p.trace = opts.trace;
  p.make = read_mix;

  TraceWindow trace(*fleet);
  Measured main =
      measure(*fleet, p, opts.trace ? opts.work_dir + "/spans.jsonl" : "");
  trace.close();
  count_ops(report, main.r);
  latency_metrics(report, main.r, main.r);
  generator_metrics(report, main.r);
  report.set("cpu_us_per_op", main.cpu_us_per_op);
  report.set("rss_mb", fleet->rss_mb());
  report.set("error_ratio", error_ratio(main.r));
  report.set("offered_ops_s", kReadRate);
  report.set("achieved_ops_s", static_cast<double>(main.r.ok) / opts.seconds);
  if (trace.fleet != nullptr) {
    layer_metrics(report, *trace.fleet, main.r, trace.before, trace.after,
                  trace.drained,
                  static_cast<double>(main.r.put_us.size() * kReadValue));
  }
  if (opts.ladder) climb_ladder(opts, *fleet, report);
}

void run_fleet_write_durable(const Options& opts, Report& report) {
  const std::string data_root = opts.work_dir + "/durable";
  const auto key_of = [](std::size_t i) { return "dk" + std::to_string(i); };
  std::string data_dir;
  std::unique_ptr<Fleet> fleet =
      setup_fleet(opts, report, [&](int rep) -> std::unique_ptr<Fleet> {
        // Earlier set-ups' data dirs go at once: the disk footprint stays
        // one fleet's.
        if (!data_dir.empty()) std::filesystem::remove_all(data_dir);
        data_dir = data_root + std::to_string(rep);
        const std::vector<std::string> common = {
            "--shards", "2", "--store", "durable", "--data-dir", data_dir,
            "--stream-port", "0", "--compact-interval-sec", "2",
            "--slices", "1", "--log-level", "warn"};
        auto f = boot(opts, common, data_dir);
        PhaseResult loaded =
            preload(*f, kDurablePreload, kWriteValue, key_of, opts.seed);
        if (loaded.ok != kDurablePreload ||
            !wait_gauge(*f, "df_store_objects", kDurablePreload, 30.0)) {
          throw std::runtime_error("fleet-write-durable preload failed");
        }
        return f;
      });

  // Write phase: half the run; the restart and read-back take the rest. A
  // longer phase grows the store (it keeps every version) and with it each
  // checkpoint's stall, and the tail then wanders from run to run.
  Phase w;
  w.rate = kWriteRate;
  w.batch = kWriteBatch;
  w.seconds = opts.seconds * 0.5;
  w.threads = kClientThreads;
  w.value_size = kWriteValue;
  w.seed = opts.seed;
  w.client_salt = 3;
  w.record_acked = true;
  w.streams = true;
  w.trace = opts.trace;
  w.make = [key_of](std::size_t worker, std::uint64_t seed) -> BatchMaker {
    auto rng = std::make_shared<Rng>(seed * 7919 + worker);
    return [rng, key_of](client::Client& client, Rng&, std::size_t) {
      std::vector<core::Operation> ops;
      for (std::size_t i = 0; i < kWriteBatch; ++i) {
        const Key key = key_of(rng->next_below(kWriteKeys));
        const Version v = client.stamp_version(key);
        ops.push_back(
            core::Operation::put(key, v, value_for(key, v, kWriteValue)));
      }
      return ops;
    };
  };

  TraceWindow trace(*fleet);
  Measured writes =
      measure(*fleet, w, opts.trace ? opts.work_dir + "/spans.jsonl" : "");
  trace.close();
  count_ops(report, writes.r);
  report.set("cpu_us_per_op", writes.cpu_us_per_op);
  report.set("rss_mb", fleet->rss_mb());

  // kill -9 one replica (not the one the others were told of first) and
  // restart it from its data dir.
  report.set("restart_ms", fleet->restart(kNodes - 1));

  // Read back every acked put at its version.
  const auto acked = std::make_shared<std::vector<std::pair<Key, Version>>>(
      writes.r.acked);
  Phase r;
  r.rate = kReadbackRate;
  r.batch = kWriteBatch;
  r.total_batches = (acked->size() + r.batch - 1) / r.batch;
  r.threads = kClientThreads;
  r.value_size = kWriteValue;
  r.seed = opts.seed + 1;
  r.client_salt = 4;
  r.streams = true;
  r.make = [acked](std::size_t, std::uint64_t) -> BatchMaker {
    return [acked](client::Client&, Rng&, std::size_t index) {
      std::vector<core::Operation> ops;
      for (std::size_t k = index * kWriteBatch;
           k < std::min(acked->size(), (index + 1) * kWriteBatch); ++k) {
        ops.push_back(
            core::Operation::get((*acked)[k].first, (*acked)[k].second));
      }
      return ops;
    };
  };
  r.check = [](const core::Operation& op, const client::OpResult& res) {
    return res.object.version == op.version && res.object.key == op.key &&
           value_matches(res.object, kWriteValue);
  };
  PhaseResult readback = acked->empty() ? PhaseResult{}
                                        : run_phase(fleet->peers(), r);
  count_ops(report, readback);
  const std::uint64_t lost = readback.failed +
                             readback.shed_ops + readback.wrong;
  report.set("lost_acked_writes", static_cast<double>(lost));
  if (lost > 0) {
    report.wrong += readback.failed + readback.shed_ops;
    report.notes.push_back(std::to_string(lost) +
                           " acked writes not readable after restart");
  }
  latency_metrics(report, readback, writes.r);
  generator_metrics(report, writes.r);
  report.set("gen.readback_late_us_p99",
             readback.late_us.quantile(0.99));
  if (readback.late_us.quantile(0.99) > kLateP99BoundUs) {
    report.notes.push_back("read-back generator late p99 above the bound");
  }
  const double user_bytes = static_cast<double>(acked->size() * kWriteValue);
  report.set("disk_bytes_per_user_byte",
             user_bytes > 0 ? static_cast<double>(dir_bytes(data_dir)) /
                                  user_bytes
                            : 0.0);
  PhaseResult all = writes.r;
  merge_into(all, readback);
  report.set("error_ratio", error_ratio(all));
  report.set("acked_puts", static_cast<double>(acked->size()));
  if (trace.fleet != nullptr) {
    layer_metrics(report, *trace.fleet, writes.r, trace.before,
                  trace.after, trace.drained, user_bytes);
  }
}

}  // namespace perfbench
