// sim-churn-1k: 1000 simulated nodes in harness::Cluster with 10 slices and
// the default Cyclon + Sliver stack. Preload, then an open-loop mixed
// put/get load while a scripted plan crashes about 10% of the nodes and
// brings them back empty (replacements), then quiescence. It covers the
// paper's epidemic layers at the paper's scale (PSS, slicing, spray,
// anti-entropy, state transfer), which a 3-node fleet in one slice never
// exercises. Every count repeats exactly for a given seed; only wall time
// and CPU vary.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>

#include "common.hpp"
#include "harness/cluster.hpp"

// ---- counting allocator -------------------------------------------------------
// Counts heap bytes the way bench/saturation_throughput.cpp does, but only
// while the sim's measured window runs (the flag is off for fleet runs).
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {
namespace {

constexpr std::size_t kNodes = 1000;
constexpr int kSetups = 3;  ///< set-ups per run; setup_s is the median
constexpr std::size_t kClients = 16;
constexpr std::size_t kRecords = 1000;
constexpr std::size_t kValue = 256;
constexpr double kReadFraction = 0.5;
constexpr double kRate = 400.0;          ///< client ops per simulated second
constexpr double kSimPerWall = 1.0;      ///< simulated s of load per --seconds
constexpr double kChurnFraction = 0.10;  ///< nodes replaced mid-run
/// Long enough for slicing to converge before the preload: after a 30 s
/// warm-up some seeds acked a preload put on nodes that later left the
/// key's slice, and every get of that key then timed out.
constexpr SimTime kWarmup = 90 * kSeconds;
constexpr SimTime kDrain = 10 * kSeconds;
constexpr SimTime kQuiesce = 20 * kSeconds;

Key key_of(std::size_t i) { return "sim-" + std::to_string(i); }

std::uint64_t sent_in(harness::Cluster& cluster, net::MsgCategory category) {
  std::uint64_t total = 0;
  for (const NodeId id : cluster.node_ids()) {
    total += cluster.transport().stats_for_category(id, category).sent;
  }
  return total;
}

std::uint64_t node_counter(harness::Cluster& cluster, const char* name) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    total += cluster.node(i).metrics().counter_value(name);
  }
  return total;
}

struct Outcome {
  Samples get_us;
  Samples put_us;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t failed_gets = 0;
  std::uint64_t failed_puts = 0;
  std::uint64_t wrong = 0;
  std::map<Key, Version> latest_acked;
};

}  // namespace

void run_sim_churn(const Options& opts, Report& report) {
  // Set-up (warm-up + preload) runs kSetups times from the same seed;
  // setup_s is the median and the last cluster is measured.
  std::unique_ptr<harness::Cluster> built;
  std::vector<client::Client*> clients;
  Outcome out;
  std::uint64_t preloaded = 0;
  std::vector<double> setups;
  for (int rep = 0; rep < kSetups; ++rep) {
    built.reset();
    clients.clear();
    out = Outcome{};
    preloaded = 0;
    const double setup_start = mono_us();
    harness::ClusterOptions copts;
    copts.node_count = kNodes;
    copts.seed = opts.seed;
    built = std::make_unique<harness::Cluster>(copts);
    built->start_all();
    built->simulator().run_until(kWarmup);
    // Enough attempts that an op whose contacts all crash mid-request
    // still resolves: the workload is meant to have no failed ops.
    client::ClientOptions client_options;
    client_options.max_attempts = 8;
    for (std::size_t i = 0; i < kClients; ++i) {
      clients.push_back(&built->add_client(client_options));
    }
    for (std::size_t i = 0; i < kRecords; ++i) {
      const Key key = key_of(i);
      client::Client* c = clients[i % kClients];
      const Version v = c->stamp_version(key);
      c->put(key, value_for(key, v, kValue), v,
             [&preloaded, &out](const client::PutResult& r) {
               if (!r.ok) return;
               ++preloaded;
               Version& latest = out.latest_acked[r.key];
               latest = std::max(latest, r.version);
             });
    }
    built->simulator().run_until(built->simulator().now() + 20 * kSeconds);
    setups.push_back((mono_us() - setup_start) / 1e6);
  }
  std::sort(setups.begin(), setups.end());
  report.set("setup_s", setups[setups.size() / 2]);
  harness::Cluster& cluster = *built;
  if (preloaded != kRecords) {
    report.notes.push_back("preload acked " + std::to_string(preloaded) +
                           " of " + std::to_string(kRecords));
  }

  // ---- measured window ----
  const SimTime start = cluster.simulator().now();
  const SimTime load = static_cast<SimTime>(opts.seconds * kSimPerWall *
                                            static_cast<double>(kSeconds));
  const auto total_ops =
      static_cast<std::size_t>(std::llround(kRate * static_cast<double>(load) /
                                            static_cast<double>(kSeconds)));
  Rng rng(opts.seed ^ 0xC4A2);
  for (std::size_t i = 0; i < total_ops; ++i) {
    const SimTime due =
        start + static_cast<SimTime>(static_cast<double>(i) * kSeconds / kRate);
    const Key key = key_of(rng.next_below(kRecords));
    const bool is_get = rng.next_double() < kReadFraction;
    client::Client* c = clients[i % kClients];
    // Ops are posted at their due time, so client latency is measured from
    // it (the simulator never issues late).
    cluster.simulator().post_at(due, [c, key, is_get, &out]() {
      std::vector<core::Operation> ops;
      if (is_get) {
        ops.push_back(core::Operation::get(key));
      } else {
        const Version v = c->stamp_version(key);
        ops.push_back(core::Operation::put(key, v, value_for(key, v, kValue)));
      }
      c->execute(std::move(ops),
                 [&out](const std::vector<client::OpResult>& results) {
                   for (const client::OpResult& r : results) {
                     if (!r.ok) {
                       ++out.failed;
                       ++(r.type == core::OpType::kGet ? out.failed_gets
                                                       : out.failed_puts);
                       continue;
                     }
                     ++out.ok;
                     const double us = static_cast<double>(r.latency);
                     if (r.type == core::OpType::kGet) {
                       out.get_us.add(us);
                       if (!value_matches(r.object, kValue)) ++out.wrong;
                     } else {
                       out.put_us.add(us);
                       Version& latest = out.latest_acked[r.key];
                       latest = std::max(latest, r.version);
                     }
                   }
                 });
    });
  }
  // Churn: ~10% of nodes crash during the middle third of the load and come
  // back empty 10 s later (a replacement with the same identity).
  std::vector<sim::ChurnEvent> plan;
  const std::vector<NodeId> victims = rng.sample(
      cluster.node_ids(),
      static_cast<std::size_t>(kChurnFraction * static_cast<double>(kNodes)));
  for (const NodeId id : victims) {
    const SimTime at = start + load / 3 +
                       static_cast<SimTime>(rng.next_double() *
                                            static_cast<double>(load / 3));
    plan.push_back({at, id, sim::ChurnEventKind::kCrash});
    plan.push_back({at + 10 * kSeconds, id, sim::ChurnEventKind::kRestart});
  }
  std::sort(plan.begin(), plan.end());
  cluster.apply_churn_plan(plan);

  cluster.transport().reset_stats();
  const std::uint64_t st0 = node_counter(cluster, "st.objects_received");
  const std::uint64_t useful0 = node_counter(cluster, "rh.puts_stored") +
                                node_counter(cluster, "rh.pushes_stored") +
                                node_counter(cluster, "rh.gets_served");
  g_alloc_bytes.store(0);
  g_alloc_count.store(0);
  const double cpu0 = cpu_seconds(0);
  const double wall0 = mono_us();
  g_count_allocs.store(true);
  const std::uint64_t events =
      cluster.simulator().run_until(start + load + kDrain);
  g_count_allocs.store(false);
  const double wall = (mono_us() - wall0) / 1e6;
  const double cpu = cpu_seconds(0) - cpu0;
  const double window_s =
      static_cast<double>(load + kDrain) / static_cast<double>(kSeconds);

  const double ops = static_cast<double>(std::max<std::size_t>(1, total_ops));
  const std::uint64_t request = sent_in(cluster, net::MsgCategory::kRequest);
  const std::uint64_t pss = sent_in(cluster, net::MsgCategory::kPeerSampling);
  const std::uint64_t slicing = sent_in(cluster, net::MsgCategory::kSlicing);
  const std::uint64_t ae = sent_in(cluster, net::MsgCategory::kAntiEntropy);
  std::uint64_t received = 0;
  for (const NodeId id : cluster.node_ids()) {
    received += cluster.transport()
                    .stats_for_category(id, net::MsgCategory::kRequest)
                    .received;
  }
  const std::uint64_t useful = node_counter(cluster, "rh.puts_stored") +
                               node_counter(cluster, "rh.pushes_stored") +
                               node_counter(cluster, "rh.gets_served") -
                               useful0;
  const std::uint64_t st_objects =
      node_counter(cluster, "st.objects_received") - st0;

  // Quiescence, then replica coverage of every acked key's newest version.
  cluster.simulator().run_until(cluster.simulator().now() + kQuiesce);
  double coverage = 0.0;
  for (const auto& [key, version] : out.latest_acked) {
    coverage += cluster.slice_coverage(key, version);
  }
  coverage /= static_cast<double>(std::max<std::size_t>(
      1, out.latest_acked.size()));
  double mean = 0.0, sq = 0.0;
  const auto histogram = cluster.slice_histogram();
  for (const auto& [slice, n] : histogram) mean += static_cast<double>(n);
  mean /= static_cast<double>(std::max<std::size_t>(1, histogram.size()));
  for (const auto& [slice, n] : histogram) {
    sq += (static_cast<double>(n) - mean) * (static_cast<double>(n) - mean);
  }
  const double cv =
      mean > 0 ? std::sqrt(sq / static_cast<double>(histogram.size())) / mean
               : 0.0;

  if (out.failed > 0) {
    report.notes.push_back(std::to_string(out.failed_gets) + " gets and " +
                           std::to_string(out.failed_puts) +
                           " puts failed");
  }
  report.attempted = total_ops;
  report.failed = out.failed + (total_ops - out.ok - out.failed);
  report.wrong = out.wrong;
  report.set("get_p50_us", out.get_us.quantile(0.50));
  report.set("get_p99_us", out.get_us.quantile(0.99));
  report.set("get_samples", static_cast<double>(out.get_us.size()));
  report.set("put_p50_us", out.put_us.quantile(0.50));
  report.set("put_p99_us", out.put_us.quantile(0.99));
  report.set("put_samples", static_cast<double>(out.put_us.size()));
  report.set("cpu_us_per_op", cpu * 1e6 / ops);
  report.set("rss_mb", peak_rss_mb(0));
  report.set("error_ratio", static_cast<double>(report.failed) / ops);
  report.set("msgs_per_op", static_cast<double>(request) / ops);
  report.set("maint_msgs_per_node_s",
             static_cast<double>(pss + slicing + ae) /
                 (static_cast<double>(kNodes) * window_s));
  report.set("sim_ops_per_wall_s", ops / std::max(1e-9, wall));
  report.set("alloc_bytes_per_op",
             static_cast<double>(g_alloc_bytes.load()) / ops);
  report.set("slice_coverage", coverage);
  report.set("core.state_transfer_objects", static_cast<double>(st_objects));
  report.set("dissemination.spray_msgs_per_op",
             static_cast<double>(request) / ops);
  report.set("dissemination.dup_delivery_ratio",
             received > 0 ? static_cast<double>(useful) /
                                static_cast<double>(received)
                          : 0.0);
  report.set("pss.msgs_per_node_s",
             static_cast<double>(pss) /
                 (static_cast<double>(kNodes) * window_s));
  report.set("slicing.msgs_per_node_s",
             static_cast<double>(slicing) /
                 (static_cast<double>(kNodes) * window_s));
  report.set("core.ae_msgs_per_node_s",
             static_cast<double>(ae) /
                 (static_cast<double>(kNodes) * window_s));
  report.set("slicing.slice_size_cv", cv);
  report.set("sim.events_per_op", static_cast<double>(events) / ops);
  report.set("sim.allocs_per_op",
             static_cast<double>(g_alloc_count.load()) / ops);
}

}  // namespace perfbench
