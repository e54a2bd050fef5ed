// YCSB workbench: run any of the standard YCSB workload mixes against a
// DataFlasks cluster and print a benchmark-style report (throughput is
// virtual-time ops/s; latencies are virtual milliseconds). A miniature of
// the paper's evaluation setup ("we ran YCSB ... as its direct client"),
// usable for quick what-if exploration.
//
//   $ ./examples/ycsb_workbench workload=a nodes=120 records=200 ops=400
//   workload = a|b|c|d|f|write-only|delete-heavy; other knobs: slices=
//   clients= seed= deletes=<fraction>
//   batch=<N: ops pipelined per envelope>
#include <cstdio>

#include "common/config.hpp"
#include "harness/cluster.hpp"
#include "harness/runner.hpp"

namespace {

dataflasks::workload::WorkloadSpec spec_by_name(const std::string& name) {
  using dataflasks::workload::WorkloadSpec;
  if (name == "a") return WorkloadSpec::A();
  if (name == "b") return WorkloadSpec::B();
  if (name == "c") return WorkloadSpec::C();
  if (name == "d") return WorkloadSpec::D();
  if (name == "f") return WorkloadSpec::F();
  if (name == "delete-heavy") return WorkloadSpec::delete_heavy();
  return WorkloadSpec::write_only();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dataflasks;

  std::vector<std::string> args(argv + 1, argv + argc);
  auto parsed = Config::from_args(args);
  if (!parsed.ok()) {
    std::fprintf(stderr, "usage: ycsb_workbench [workload=a] [nodes=120] "
                         "[slices=6] [clients=8] [records=200] [ops=400] "
                         "[seed=42]\n");
    return 1;
  }
  const Config cfg = std::move(parsed).value();

  const std::string workload = cfg.get_string("workload", "a");
  const auto nodes = static_cast<std::size_t>(cfg.get_int("nodes", 120));
  const auto slices = static_cast<std::uint32_t>(cfg.get_int("slices", 6));
  const auto clients = static_cast<std::size_t>(cfg.get_int("clients", 8));
  const auto records = static_cast<std::size_t>(cfg.get_int("records", 200));
  const auto ops = static_cast<std::size_t>(cfg.get_int("ops", 400));
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
  const double deletes = cfg.get_double("deletes", 0.0);
  const auto batch =
      static_cast<std::size_t>(std::max<long long>(1, cfg.get_int("batch", 1)));

  workload::WorkloadSpec spec = spec_by_name(workload);
  if (deletes > 0.0) spec = spec.with_deletes(deletes);
  spec.record_count = records;
  spec.operation_count = ops / std::max<std::size_t>(1, clients);

  std::printf("ycsb-workbench: workload=%s nodes=%zu slices=%u clients=%zu "
              "records=%zu ops=%zu deletes=%.2f batch=%zu\n",
              spec.name.c_str(), nodes, slices, clients, records,
              spec.operation_count * clients, spec.delete_proportion, batch);

  harness::ClusterOptions copts;
  copts.node_count = nodes;
  copts.seed = seed;
  copts.node.slice_config = {slices, 1};
  harness::Cluster cluster(copts);
  cluster.start_all();
  cluster.run_for(90 * kSeconds);

  std::vector<client::Client*> cluster_clients;
  for (std::size_t i = 0; i < clients; ++i) {
    cluster_clients.push_back(&cluster.add_client());
  }

  // Load phase: client 0 inserts every record.
  workload::WorkloadGenerator loader(spec, Rng(seed ^ 0x10ad));
  harness::Runner load(cluster, {cluster_clients[0]}, {loader.load_phase()});
  const SimTime load_start = cluster.simulator().now();
  if (!load.run(load_start + 3600 * kSeconds)) {
    std::fprintf(stderr, "load phase did not finish\n");
    return 1;
  }
  std::printf("load phase: %llu inserts in %.1f s virtual\n",
              static_cast<unsigned long long>(load.stats().puts_succeeded),
              static_cast<double>(cluster.simulator().now() - load_start) /
                  kSeconds);

  // Transaction phase across all clients.
  std::vector<std::vector<workload::Op>> streams;
  Rng stream_rng(seed ^ 0x7bc);
  for (std::size_t i = 0; i < clients; ++i) {
    workload::WorkloadGenerator gen(spec, stream_rng.fork(i));
    streams.push_back(gen.transaction_phase());
  }
  harness::Runner txn(cluster, cluster_clients, std::move(streams), batch);
  const SimTime txn_start = cluster.simulator().now();
  txn.run(txn_start + 3600 * kSeconds);
  const double seconds =
      static_cast<double>(cluster.simulator().now() - txn_start) / kSeconds;

  const auto& stats = txn.stats();
  std::printf("\ntransaction phase (%.1f s virtual):\n", seconds);
  std::printf("  throughput:    %.1f ops/s (virtual)\n",
              static_cast<double>(stats.ops_completed()) / seconds);
  std::printf("  reads:  %6llu ok / %llu failed, p50 %.0f ms, p99 %.0f ms\n",
              static_cast<unsigned long long>(stats.gets_succeeded),
              static_cast<unsigned long long>(stats.gets_failed),
              stats.get_latency.quantile(0.5) / kMillis,
              stats.get_latency.quantile(0.99) / kMillis);
  std::printf("  writes: %6llu ok / %llu failed, p50 %.0f ms, p99 %.0f ms\n",
              static_cast<unsigned long long>(stats.puts_succeeded),
              static_cast<unsigned long long>(stats.puts_failed),
              stats.put_latency.quantile(0.5) / kMillis,
              stats.put_latency.quantile(0.99) / kMillis);
  if (stats.dels_issued > 0) {
    std::printf("  deletes: %5llu ok / %llu failed, p50 %.0f ms, "
                "p99 %.0f ms\n",
                static_cast<unsigned long long>(stats.dels_succeeded),
                static_cast<unsigned long long>(stats.dels_failed),
                stats.del_latency.quantile(0.5) / kMillis,
                stats.del_latency.quantile(0.99) / kMillis);
  }
  if (batch > 1) {
    std::printf("  batch envelopes: %llu (%.1f ops/envelope)\n",
                static_cast<unsigned long long>(stats.batches_issued),
                stats.batches_issued > 0
                    ? static_cast<double>(stats.ops_completed()) /
                          static_cast<double>(stats.batches_issued)
                    : 0.0);
  }
  std::printf("  request msgs/node: %.1f, anti-entropy msgs/node: %.1f\n",
              cluster.mean_messages_per_node(net::MsgCategory::kRequest),
              cluster.mean_messages_per_node(net::MsgCategory::kAntiEntropy));
  return 0;
}
