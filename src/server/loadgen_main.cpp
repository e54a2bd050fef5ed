// dataflasks_loadgen: multi-threaded load harness for a REAL DataFlasks
// cluster — YCSB-style workloads driven through the client library over
// UDP, with per-phase latency histograms and a machine-readable JSON
// report. This measures the deployment stack end to end (client batching,
// real datagrams, epidemic routing, replica stores), where bench_*.cpp
// measures protocol behavior under the simulator's virtual clock.
//
//   $ dataflasks_loadgen --peer 0@127.0.0.1:7100 --peer 1@127.0.0.1:7101
//       --workload A --threads 4 --concurrency 4 --duration-ms 20000
//       --out BENCH_real_cluster.json
//
// Share-nothing workers: each thread owns a runtime, a UDP socket, a
// client and a workload generator, so workers never contend on anything —
// their histograms are merged bucket-wise after join. Closed loop by
// default (`concurrency` self-reissuing batch streams per worker); --rate
// switches to an open loop issuing at a fixed aggregate rate and counting
// shed batches instead of queueing into the client unboundedly.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "client/load_balancer.hpp"
#include "client/session.hpp"
#include "core/messages.hpp"
#include "net/stream/dual_transport.hpp"
#include "net/stream/stream_transport.hpp"
#include "net/udp_transport.hpp"
#include "obs/metrics.hpp"
#include "runtime/real_time_runtime.hpp"
#include "server/config.hpp"
#include "workload/ycsb.hpp"

namespace {

using namespace dataflasks;

int usage() {
  std::fprintf(
      stderr,
      "usage: dataflasks_loadgen --peer ID@HOST:PORT [--peer ...]\n"
      "         [--workload A|B|C|D|F|write-only|delete-heavy]\n"
      "         [--threads N] [--concurrency N] [--batch N] [--records N]\n"
      "         [--value-bytes N | --value-size N] [--duration-ms N]\n"
      "         [--rate OPS_PER_SEC]\n"
      "         [--timeout-ms N] [--deadline-ms N] [--ttl-ms N]\n"
      "         [--seed N]\n"
      "         [--skip-load] [--sweep R1,R2,...] [--print-server-stats]\n"
      "         [--out FILE]\n"
      "closed loop (default): `concurrency` batch streams per thread, each\n"
      "reissuing on completion; --rate switches to an open loop at a fixed\n"
      "aggregate issue rate (shed batches are reported, not queued).\n"
      "--deadline-ms sets an absolute per-request budget (ops fail\n"
      "definitively as deadline_exceeded past it). --sweep runs one open\n"
      "loop per offered rate (duration-ms each, one shared load phase) and\n"
      "reports goodput per step plus the throughput knee.\n"
      "--value-size (alias of --value-bytes) may exceed the UDP datagram\n"
      "budget: such values travel over the stream transport, so the\n"
      "contacted servers must run with --stream-port.\n"
      "--ttl-ms puts run-phase writes with a TTL (cache mode: keys expire\n"
      "cluster-wide); the load phase stays plain so records outlive it.\n");
  return 1;
}

struct LoadgenConfig {
  std::vector<server::PeerSpec> peers;
  std::string workload = "A";
  std::size_t threads = 2;
  std::size_t concurrency = 4;  ///< closed-loop streams per worker
  std::size_t batch = 8;        ///< ops per request envelope
  std::size_t records = 1000;
  std::size_t value_bytes = 100;
  std::int64_t duration_ms = 10000;
  double rate = 0.0;  ///< aggregate ops/sec; 0 = closed loop
  std::int64_t timeout_ms = 1000;
  /// Absolute per-request budget (client op_deadline); 0 = none.
  std::int64_t deadline_ms = 0;
  /// TTL stamped on run-phase writes (cache mode); 0 = plain puts.
  std::uint32_t ttl_ms = 0;
  /// Offered-load sweep: one open-loop run per rate, knee reported.
  std::vector<double> sweep;
  std::uint64_t seed = 0;
  bool skip_load = false;
  bool print_server_stats = false;
  std::string out;  ///< report path; empty = stdout
};

/// One worker's share of the measurements. Histograms record microseconds
/// of client-observed end-to-end latency (failed ops excluded); failures
/// count ops that exhausted the retry budget or were definitively
/// rejected (superseded / CAS conflict).
struct WorkerStats {
  obs::LatencyHistogram load_us;
  obs::LatencyHistogram op_us;
  obs::LatencyHistogram read_us;
  obs::LatencyHistogram write_us;
  std::uint64_t load_ok = 0;
  std::uint64_t load_failed = 0;
  std::uint64_t ops_ok = 0;
  std::uint64_t ops_failed = 0;
  std::uint64_t batches = 0;
  std::uint64_t shed_ops = 0;  ///< open loop only: dropped at issue time
  /// Run-phase failure breakdown: explicit server backpressure vs. the
  /// per-request deadline expiring (both subsets of ops_failed).
  std::uint64_t ops_overloaded = 0;
  std::uint64_t ops_deadline = 0;

  void merge_from(const WorkerStats& other) {
    load_us.merge_from(other.load_us);
    op_us.merge_from(other.op_us);
    read_us.merge_from(other.read_us);
    write_us.merge_from(other.write_us);
    load_ok += other.load_ok;
    load_failed += other.load_failed;
    ops_ok += other.ops_ok;
    ops_failed += other.ops_failed;
    batches += other.batches;
    shed_ops += other.shed_ops;
    ops_overloaded += other.ops_overloaded;
    ops_deadline += other.ops_deadline;
  }
};

std::optional<workload::WorkloadSpec> spec_for(const std::string& name) {
  if (name == "A") return workload::WorkloadSpec::A();
  if (name == "B") return workload::WorkloadSpec::B();
  if (name == "C") return workload::WorkloadSpec::C();
  if (name == "D") return workload::WorkloadSpec::D();
  if (name == "F") return workload::WorkloadSpec::F();
  if (name == "write-only") return workload::WorkloadSpec::write_only();
  if (name == "delete-heavy") return workload::WorkloadSpec::delete_heavy();
  return std::nullopt;
}

/// Expands one workload op into client operations. Read-modify-write is a
/// get + put of the same key riding the same envelope (one round-trip).
void append_ops(std::vector<core::Operation>& out, const workload::Op& op,
                client::Client& client, const Payload& value,
                std::uint32_t ttl_ms) {
  switch (op.kind) {
    case workload::OpKind::kRead:
      out.push_back(core::Operation::get(op.key));
      break;
    case workload::OpKind::kUpdate:
    case workload::OpKind::kInsert:
      out.push_back(core::Operation::put(
          op.key, client.stamp_version(op.key), value, ttl_ms));
      break;
    case workload::OpKind::kReadModifyWrite:
      out.push_back(core::Operation::get(op.key));
      out.push_back(core::Operation::put(
          op.key, client.stamp_version(op.key), value, ttl_ms));
      break;
    case workload::OpKind::kDelete:
      out.push_back(
          core::Operation::del(op.key, client.stamp_version(op.key)));
      break;
  }
}

void record_results(const std::vector<client::OpResult>& results,
                    obs::LatencyHistogram& phase_us, WorkerStats& stats,
                    std::uint64_t& ok, std::uint64_t& failed, bool classify) {
  for (const client::OpResult& r : results) {
    // An authoritative "deleted" answer is a served read (the cluster
    // resolved the key to a tombstone), not a failure of the harness.
    if (r.ok || r.deleted) {
      ++ok;
      const auto us = static_cast<std::uint64_t>(r.latency > 0 ? r.latency : 0);
      phase_us.record(us);
      if (classify) {
        if (r.type == core::OpType::kGet) {
          stats.read_us.record(us);
        } else {
          stats.write_us.record(us);
        }
      }
    } else {
      ++failed;
      if (classify) {
        if (r.overloaded) ++stats.ops_overloaded;
        if (r.deadline_exceeded) ++stats.ops_deadline;
      }
    }
  }
}

/// One worker: own runtime, socket, client and generator; closed or open
/// loop until the phase deadline, then a clean stop once nothing is in
/// flight.
void run_worker(std::size_t index, const LoadgenConfig& config,
                std::uint64_t seed, WorkerStats& stats,
                std::size_t id_salt) {
  runtime::RealTimeRuntime rt(seed);
  net::UdpTransport udp(rt, {});  // ephemeral local port
  // Dial-only stream leg: required when --value-size exceeds the datagram
  // budget, transparent UDP fallback against stream-less servers otherwise.
  net::StreamTransport stream(rt, {});
  net::DualTransport::Options dual_options;
  dual_options.prefer_stream = [](std::uint16_t type) {
    return type == core::kOpEnvelope;
  };
  net::DualTransport transport(rt, udp, &stream, std::move(dual_options));
  std::vector<NodeId> contacts;
  for (const server::PeerSpec& peer : config.peers) {
    udp.add_peer(NodeId(peer.id), peer.host, peer.port);
    contacts.emplace_back(peer.id);
    udp.probe_peer(NodeId(peer.id));  // learns the contact's stream port
  }

  // Client identity: loadgen tag | pid byte | worker index, so concurrent
  // loadgen processes and their workers all stamp disjoint versions (the
  // id's low 24 bits salt every stamped version).
  const auto pid = static_cast<std::uint64_t>(::getpid());
  const NodeId client_id(0x10AD000000000000ULL | ((pid & 0xFF) << 16) |
                         ((index + id_salt) & 0xFFFF));
  client::LoadBalancer balancer(contacts, rt.rng().fork(1));
  client::ClientOptions options;
  options.request_timeout = config.timeout_ms * kMillis;
  options.max_attempts = 3;
  options.op_deadline =
      config.deadline_ms > 0 ? config.deadline_ms * kMillis : 0;
  client::Client client(client_id, transport, rt, balancer, rt.rng().fork(2),
                        options);

  workload::WorkloadSpec spec = *spec_for(config.workload);
  spec.record_count = config.records;
  spec.value_size = config.value_bytes;
  workload::WorkloadGenerator generator(spec, rt.rng().fork(3 + index));
  const Payload value{Bytes(config.value_bytes, 0xDF)};

  // ---- load phase: this worker's modulo share of the records ----
  if (!config.skip_load && config.records > 0) {
    std::vector<core::Operation> to_load;
    const std::vector<workload::Op> all = generator.load_phase();
    for (std::size_t i = index; i < all.size(); i += config.threads) {
      to_load.push_back(core::Operation::put(
          all[i].key, client.stamp_version(all[i].key), value));
    }
    std::size_t cursor = 0;
    std::size_t active = 0;
    std::function<void()> issue = [&]() {
      if (cursor >= to_load.size()) {
        if (active == 0) rt.stop();
        return;
      }
      const std::size_t n = std::min(config.batch, to_load.size() - cursor);
      std::vector<core::Operation> chunk(
          to_load.begin() + static_cast<std::ptrdiff_t>(cursor),
          to_load.begin() + static_cast<std::ptrdiff_t>(cursor + n));
      cursor += n;
      ++active;
      client.execute(std::move(chunk),
                     [&](const std::vector<client::OpResult>& results) {
                       --active;
                       record_results(results, stats.load_us, stats,
                                      stats.load_ok, stats.load_failed,
                                      /*classify=*/false);
                       issue();
                     });
    };
    const std::size_t streams = std::max<std::size_t>(config.concurrency, 1);
    for (std::size_t s = 0; s < streams && cursor < to_load.size(); ++s) {
      issue();
    }
    if (active > 0) rt.run();
  }

  // ---- run phase ----
  const SimTime deadline = rt.now() + config.duration_ms * kMillis;

  auto make_batch = [&]() {
    std::vector<core::Operation> ops;
    ops.reserve(config.batch + 1);  // RMW may push one op past the target
    while (ops.size() < config.batch) {
      append_ops(ops, generator.next(), client, value, config.ttl_ms);
    }
    return ops;
  };
  auto on_done = [&](const std::vector<client::OpResult>& results) {
    ++stats.batches;
    record_results(results, stats.op_us, stats, stats.ops_ok,
                   stats.ops_failed, /*classify=*/true);
  };

  if (config.rate <= 0.0) {
    // Closed loop: each stream reissues on completion until the deadline.
    std::size_t active = std::max<std::size_t>(config.concurrency, 1);
    std::function<void()> issue = [&]() {
      if (rt.now() >= deadline) {
        if (--active == 0) rt.stop();
        return;
      }
      client.execute(make_batch(),
                     [&](const std::vector<client::OpResult>& results) {
                       on_done(results);
                       issue();
                     });
    };
    for (std::size_t s = 0; s < active; ++s) {
      // Stagger first issues so the streams do not phase-lock.
      rt.schedule_after(static_cast<SimTime>(s) * kMillis, issue);
    }
    rt.run();
  } else {
    // Open loop: issue one batch per tick at a fixed per-worker rate; an
    // overloaded cluster sheds batches at issue time (reported) instead of
    // stacking latency into an unbounded client queue.
    const double worker_rate = config.rate / static_cast<double>(config.threads);
    const auto period = std::max<SimTime>(
        static_cast<SimTime>(static_cast<double>(config.batch) * 1e6 /
                             worker_rate),
        1);
    const std::size_t inflight_cap =
        std::max<std::size_t>(config.concurrency, 1) * 4;
    std::size_t active = 0;
    std::function<void()> tick = [&]() {
      if (rt.now() >= deadline) {
        if (active == 0) rt.stop();
        return;  // else: the last completion below stops the loop
      }
      if (active >= inflight_cap) {
        stats.shed_ops += config.batch;
      } else {
        ++active;
        client.execute(make_batch(),
                       [&](const std::vector<client::OpResult>& results) {
                         --active;
                         on_done(results);
                         if (rt.now() >= deadline && active == 0) rt.stop();
                       });
      }
      rt.schedule_after(period, tick);
    };
    rt.schedule_after(period, tick);
    // Backstop: every in-flight batch resolves within the retry budget, so
    // bound the post-deadline drain instead of trusting it.
    rt.schedule_after(
        config.duration_ms * kMillis + 3 * config.timeout_ms * kMillis +
            kSeconds,
        [&]() { rt.stop(); });
    rt.run();
  }
}

/// Spawns the share-nothing worker fleet for one run and merges their
/// measurements. `id_salt` keeps client ids (and thus stamped versions)
/// disjoint across sweep steps.
std::unique_ptr<WorkerStats> run_fleet(const LoadgenConfig& config,
                                       std::size_t id_salt) {
  std::vector<std::unique_ptr<WorkerStats>> stats;
  for (std::size_t w = 0; w < config.threads; ++w) {
    stats.push_back(std::make_unique<WorkerStats>());
  }
  std::vector<std::thread> workers;
  workers.reserve(config.threads);
  for (std::size_t w = 0; w < config.threads; ++w) {
    workers.emplace_back(run_worker, w, std::cref(config),
                         config.seed + 0x9E37 * (w + 1 + id_salt),
                         std::ref(*stats[w]), id_salt);
  }
  for (std::thread& worker : workers) worker.join();
  // WorkerStats holds atomic histogram buckets and cannot be moved, so the
  // merged total travels behind a pointer.
  auto total = std::make_unique<WorkerStats>();
  for (const auto& s : stats) total->merge_from(*s);
  return total;
}

/// One offered-load step of a --sweep run.
struct SweepStep {
  double offered = 0.0;   ///< target aggregate ops/sec
  double goodput = 0.0;   ///< ops_ok / run seconds
  std::unique_ptr<WorkerStats> stats;  ///< immovable member, held by pointer
};

void write_quantiles(std::FILE* out, const obs::LatencyHistogram& h) {
  std::fprintf(out,
               "{\"p50\": %llu, \"p90\": %llu, \"p99\": %llu, "
               "\"p999\": %llu, \"max\": %llu, \"mean\": %.1f}",
               static_cast<unsigned long long>(h.quantile(0.50)),
               static_cast<unsigned long long>(h.quantile(0.90)),
               static_cast<unsigned long long>(h.quantile(0.99)),
               static_cast<unsigned long long>(h.quantile(0.999)),
               static_cast<unsigned long long>(h.max()), h.mean());
}

/// One Stats op against a random contact after the run, so the server-side
/// view (op counters, backlogs, store size) lands next to the client-side
/// numbers in the harness output.
void print_server_stats(const LoadgenConfig& config) {
  runtime::RealTimeRuntime rt(config.seed ^ 0x57A75);
  net::UdpTransport transport(rt, {});
  std::vector<NodeId> contacts;
  for (const server::PeerSpec& peer : config.peers) {
    transport.add_peer(NodeId(peer.id), peer.host, peer.port);
    contacts.emplace_back(peer.id);
  }
  const NodeId client_id(0x10AD570000000000ULL |
                         (static_cast<std::uint64_t>(::getpid()) & 0xFFFF));
  client::LoadBalancer balancer(contacts, rt.rng().fork(1));
  client::ClientOptions options;
  options.request_timeout = config.timeout_ms * kMillis;
  client::Client client(client_id, transport, rt, balancer, rt.rng().fork(2),
                        options);
  client::Session session(client);
  session.stats().then([&](const client::StatsResult& result) {
    if (result.ok) {
      std::fprintf(stderr, "---- server stats (replica n%llu) ----\n%s",
                   static_cast<unsigned long long>(result.replica.value),
                   result.text.c_str());
    } else {
      std::fprintf(stderr, "dataflasks_loadgen: stats op failed\n");
    }
    rt.stop();
  });
  rt.run_for((config.timeout_ms * 3 + 500) * kMillis);
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenConfig config;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const auto next_u64 = [&](std::uint64_t& out) {
      const char* text = next();
      if (text == nullptr || *text == '\0') return false;
      char* end = nullptr;
      out = std::strtoull(text, &end, 10);
      return end != nullptr && *end == '\0';
    };
    std::uint64_t u64 = 0;
    if (arg == "--peer") {
      const char* text = next();
      server::PeerSpec peer;
      if (text == nullptr || !server::parse_peer_spec(text, peer)) {
        std::fprintf(stderr, "dataflasks_loadgen: bad --peer spec\n");
        return usage();
      }
      config.peers.push_back(peer);
    } else if (arg == "--workload") {
      const char* text = next();
      if (text == nullptr || !spec_for(text)) {
        std::fprintf(stderr, "dataflasks_loadgen: unknown workload\n");
        return usage();
      }
      config.workload = text;
    } else if (arg == "--threads") {
      if (!next_u64(u64) || u64 == 0 || u64 > 256) return usage();
      config.threads = u64;
    } else if (arg == "--concurrency") {
      if (!next_u64(u64) || u64 == 0) return usage();
      config.concurrency = u64;
    } else if (arg == "--batch") {
      if (!next_u64(u64) || u64 == 0) return usage();
      config.batch = u64;
    } else if (arg == "--records") {
      if (!next_u64(u64)) return usage();
      config.records = u64;
    } else if (arg == "--value-bytes" || arg == "--value-size") {
      if (!next_u64(u64) || u64 == 0) return usage();
      config.value_bytes = u64;
    } else if (arg == "--duration-ms") {
      if (!next_u64(u64) || u64 == 0) return usage();
      config.duration_ms = static_cast<std::int64_t>(u64);
    } else if (arg == "--rate") {
      if (!next_u64(u64)) return usage();
      config.rate = static_cast<double>(u64);
    } else if (arg == "--timeout-ms") {
      if (!next_u64(u64) || u64 == 0) return usage();
      config.timeout_ms = static_cast<std::int64_t>(u64);
    } else if (arg == "--deadline-ms") {
      if (!next_u64(u64) || u64 == 0) return usage();
      config.deadline_ms = static_cast<std::int64_t>(u64);
    } else if (arg == "--ttl-ms") {
      if (!next_u64(u64) || u64 == 0) return usage();
      config.ttl_ms = static_cast<std::uint32_t>(u64);
    } else if (arg == "--sweep") {
      const char* text = next();
      if (text == nullptr || *text == '\0') return usage();
      std::string list(text);
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        const std::string token = list.substr(pos, comma - pos);
        char* end = nullptr;
        const double rate = std::strtod(token.c_str(), &end);
        if (rate <= 0.0 || end == nullptr || *end != '\0') {
          std::fprintf(stderr, "dataflasks_loadgen: bad --sweep rate\n");
          return usage();
        }
        config.sweep.push_back(rate);
        pos = comma + 1;
      }
    } else if (arg == "--seed") {
      if (!next_u64(u64)) return usage();
      config.seed = u64;
    } else if (arg == "--skip-load") {
      config.skip_load = true;
    } else if (arg == "--print-server-stats") {
      config.print_server_stats = true;
    } else if (arg == "--out") {
      const char* text = next();
      if (text == nullptr) return usage();
      config.out = text;
    } else {
      std::fprintf(stderr, "dataflasks_loadgen: unknown flag %s\n",
                   arg.c_str());
      return usage();
    }
  }
  if (config.peers.empty()) return usage();
  if (config.seed == 0) {
    config.seed =
        0x10AD5EEDULL ^ (static_cast<std::uint64_t>(::getpid()) << 20);
  }

  std::fprintf(stderr,
               "dataflasks_loadgen: workload %s, %zu threads x %zu streams, "
               "batch %zu, %zu records, %lld ms%s\n",
               config.workload.c_str(), config.threads, config.concurrency,
               config.batch, config.records,
               static_cast<long long>(config.duration_ms),
               config.rate > 0 ? " (open loop)" : "");

  const auto wall_start = std::chrono::steady_clock::now();
  const double run_seconds = static_cast<double>(config.duration_ms) / 1000.0;

  // Merged share-nothing worker measurements (bucket-wise histogram
  // accumulation keeps the single-histogram quantile error bound). A sweep
  // aggregates every step into `total` and keeps the per-step breakdown.
  WorkerStats total;
  std::vector<SweepStep> sweep;
  if (config.sweep.empty()) {
    total.merge_from(*run_fleet(config, 0));
  } else {
    LoadgenConfig step_config = config;
    for (std::size_t s = 0; s < config.sweep.size(); ++s) {
      step_config.rate = config.sweep[s];
      // One shared load phase; each step's id_salt keeps its client ids —
      // and thus its stamped versions — disjoint from every other step's.
      step_config.skip_load = config.skip_load || s > 0;
      std::fprintf(stderr,
                   "dataflasks_loadgen: sweep step %zu/%zu, offering %.0f "
                   "ops/sec\n",
                   s + 1, config.sweep.size(), step_config.rate);
      SweepStep step;
      step.offered = step_config.rate;
      step.stats = run_fleet(step_config, (s + 1) * config.threads);
      step.goodput =
          run_seconds > 0
              ? static_cast<double>(step.stats->ops_ok) / run_seconds
              : 0;
      total.merge_from(*step.stats);
      sweep.push_back(std::move(step));
    }
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  const double measured_seconds =
      run_seconds * static_cast<double>(std::max<std::size_t>(
                        config.sweep.size(), 1));
  const double ops_per_sec =
      measured_seconds > 0
          ? static_cast<double>(total.ops_ok) / measured_seconds
          : 0;

  std::FILE* out = stdout;
  if (!config.out.empty()) {
    out = std::fopen(config.out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "dataflasks_loadgen: cannot write %s\n",
                   config.out.c_str());
      return 1;
    }
  }
  std::fprintf(out, "{\n  \"bench\": \"real_cluster\",\n");
  std::fprintf(out,
               "  \"config\": {\"workload\": \"%s\", \"peers\": %zu, "
               "\"threads\": %zu, \"concurrency\": %zu, \"batch\": %zu, "
               "\"records\": %zu, \"value_bytes\": %zu, "
               "\"duration_ms\": %lld, \"rate\": %.0f, "
               "\"timeout_ms\": %lld, \"deadline_ms\": %lld, "
               "\"ttl_ms\": %llu},\n",
               config.workload.c_str(), config.peers.size(), config.threads,
               config.concurrency, config.batch, config.records,
               config.value_bytes, static_cast<long long>(config.duration_ms),
               config.rate, static_cast<long long>(config.timeout_ms),
               static_cast<long long>(config.deadline_ms),
               static_cast<unsigned long long>(config.ttl_ms));
  std::fprintf(out,
               "  \"load_phase\": {\"ops\": %llu, \"failures\": %llu, "
               "\"latency_us\": ",
               static_cast<unsigned long long>(total.load_ok),
               static_cast<unsigned long long>(total.load_failed));
  write_quantiles(out, total.load_us);
  std::fprintf(out, "},\n");
  std::fprintf(out,
               "  \"run_phase\": {\"ops\": %llu, \"failures\": %llu, "
               "\"overloaded\": %llu, \"deadline_exceeded\": %llu, "
               "\"shed_ops\": %llu, \"batches\": %llu, \"seconds\": %.1f, "
               "\"ops_per_sec\": %.1f,\n    \"latency_us\": ",
               static_cast<unsigned long long>(total.ops_ok),
               static_cast<unsigned long long>(total.ops_failed),
               static_cast<unsigned long long>(total.ops_overloaded),
               static_cast<unsigned long long>(total.ops_deadline),
               static_cast<unsigned long long>(total.shed_ops),
               static_cast<unsigned long long>(total.batches),
               measured_seconds, ops_per_sec);
  write_quantiles(out, total.op_us);
  std::fprintf(out, ",\n    \"read_latency_us\": ");
  write_quantiles(out, total.read_us);
  std::fprintf(out, ",\n    \"write_latency_us\": ");
  write_quantiles(out, total.write_us);
  std::fprintf(out, "}");
  if (!sweep.empty()) {
    // Per-step goodput plus the throughput knee: the offered load where
    // goodput peaks — past it the server sheds instead of collapsing.
    std::size_t knee = 0;
    std::fprintf(out, ",\n  \"sweep\": [");
    for (std::size_t s = 0; s < sweep.size(); ++s) {
      if (sweep[s].goodput > sweep[knee].goodput) knee = s;
      const WorkerStats& st = *sweep[s].stats;
      std::fprintf(
          out,
          "%s\n    {\"offered\": %.0f, \"goodput\": %.1f, \"ops\": %llu, "
          "\"failures\": %llu, \"overloaded\": %llu, "
          "\"deadline_exceeded\": %llu, \"shed_ops\": %llu, "
          "\"p50_us\": %llu, \"p99_us\": %llu}",
          s > 0 ? "," : "", sweep[s].offered, sweep[s].goodput,
          static_cast<unsigned long long>(st.ops_ok),
          static_cast<unsigned long long>(st.ops_failed),
          static_cast<unsigned long long>(st.ops_overloaded),
          static_cast<unsigned long long>(st.ops_deadline),
          static_cast<unsigned long long>(st.shed_ops),
          static_cast<unsigned long long>(st.op_us.quantile(0.5)),
          static_cast<unsigned long long>(st.op_us.quantile(0.99)));
    }
    const WorkerStats& ks = *sweep[knee].stats;
    const double attempted = static_cast<double>(ks.ops_ok + ks.ops_failed +
                                                 ks.shed_ops);
    const double shed_fraction =
        attempted > 0
            ? static_cast<double>(ks.ops_overloaded + ks.shed_ops) / attempted
            : 0;
    std::fprintf(out,
                 "\n  ],\n  \"knee\": {\"offered\": %.0f, \"goodput\": %.1f, "
                 "\"p99_us\": %llu, \"shed_fraction\": %.4f}",
                 sweep[knee].offered, sweep[knee].goodput,
                 static_cast<unsigned long long>(ks.op_us.quantile(0.99)),
                 shed_fraction);
  }
  std::fprintf(out, ",\n  \"wall_seconds\": %.1f\n}\n", wall_seconds);
  if (out != stdout) std::fclose(out);

  std::fprintf(stderr,
               "dataflasks_loadgen: %llu ops ok, %llu failed "
               "(%llu overloaded, %llu deadline), %.1f ops/sec, "
               "p50 %llu us, p99 %llu us, p999 %llu us\n",
               static_cast<unsigned long long>(total.ops_ok),
               static_cast<unsigned long long>(total.ops_failed),
               static_cast<unsigned long long>(total.ops_overloaded),
               static_cast<unsigned long long>(total.ops_deadline),
               ops_per_sec,
               static_cast<unsigned long long>(total.op_us.quantile(0.5)),
               static_cast<unsigned long long>(total.op_us.quantile(0.99)),
               static_cast<unsigned long long>(total.op_us.quantile(0.999)));

  if (config.print_server_stats) print_server_stats(config);

  return total.ops_ok > 0 ? 0 : 2;
}
