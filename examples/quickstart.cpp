// Quickstart: spin up a small DataFlasks deployment in the simulator, wait
// for the epidemic substrate to converge, write a few objects and read them
// back — the smallest end-to-end tour of the public API.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "harness/cluster.hpp"

int main() {
  using namespace dataflasks;

  // 1. A 60-node cluster, 4 slices, default gossip settings.
  harness::ClusterOptions options;
  options.node_count = 60;
  options.seed = 7;
  options.node.slice_config = {4, 1};
  harness::Cluster cluster(options);

  std::printf("starting %zu nodes with %u slices...\n", options.node_count,
              options.node.slice_config.slice_count);
  cluster.start_all();

  // 2. Let the Peer Sampling Service and the slicing protocol converge:
  //    after this every node knows a slice and some slice-mates.
  cluster.run_for(60 * kSeconds);
  std::printf("slice populations after convergence:\n");
  for (const auto& [slice, count] : cluster.slice_histogram()) {
    std::printf("  slice %u: %zu nodes\n", slice, count);
  }

  // 3. A client. It starts with the paper's random contacts and learns,
  //    from its replies, the slice count and a replica per slice (§VII).
  auto& client = cluster.add_client();

  // 4. Write three versioned objects. DataFlasks routes each put to the
  //    slice owning the key; the first slice member to receive it stores
  //    it, acks us and replicates to its slice-mates.
  for (int i = 1; i <= 3; ++i) {
    const Key key = "greeting" + std::to_string(i);
    const std::string text = "hello world #" + std::to_string(i);
    client.put(key, Bytes(text.begin(), text.end()), /*version=*/1,
               [key](const client::PutResult& result) {
                 std::printf("put %-12s -> %s (replica n%llu, %.0f ms)\n",
                             key.c_str(), result.ok ? "ACK" : "FAILED",
                             static_cast<unsigned long long>(
                                 result.replica.value),
                             result.latency / static_cast<double>(kMillis));
               });
  }
  cluster.run_for(10 * kSeconds);

  // 5. Read them back — possibly answered by a different replica each time.
  for (int i = 1; i <= 3; ++i) {
    const Key key = "greeting" + std::to_string(i);
    client.get(key, std::nullopt, [key](const client::GetResult& result) {
      if (result.ok) {
        const std::string text(result.object.value.begin(),
                               result.object.value.end());
        std::printf("get %-12s -> \"%s\" v%llu (from n%llu)\n", key.c_str(),
                    text.c_str(),
                    static_cast<unsigned long long>(result.object.version),
                    static_cast<unsigned long long>(result.replica.value));
      } else {
        std::printf("get %-12s -> MISS\n", key.c_str());
      }
    });
  }
  cluster.run_for(10 * kSeconds);

  // 6. Replication converges epidemically in the background: after a few
  //    anti-entropy rounds every slice member holds the object.
  cluster.run_for(30 * kSeconds);
  std::printf("replicas of greeting1: %zu (slice coverage %.0f%%)\n",
              cluster.replica_count("greeting1", 1),
              100.0 * cluster.slice_coverage("greeting1", 1));
  return 0;
}
