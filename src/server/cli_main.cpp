// dataflasks_cli: one-shot operations against a live DataFlasks cluster
// over UDP — the paper's client library (request dedup, retries, load
// balancing) driven by the real-clock runtime through the futures-based
// Session surface.
//
//   $ dataflasks_cli --peer 0@127.0.0.1:7100 put greeting "hello world"
//   $ dataflasks_cli --peer 0@127.0.0.1:7100 get greeting
//   $ dataflasks_cli --peer 0@127.0.0.1:7100 del greeting
//   $ dataflasks_cli --peer 0@127.0.0.1:7100 cas greeting 0 "first write"
//   $ dataflasks_cli --peer 0@127.0.0.1:7100 stats
//   $ printf 'put k1 v1\nput k2 v2\nget k1\n' |
//       dataflasks_cli --peer 0@127.0.0.1:7100 batch
//
// `batch` reads one operation per stdin line (put <key> <value> |
// get <key> | del <key>) and pipelines them all into a single OpEnvelope.
//
// Exit codes: 0 success, 1 usage/config error, 2 request failed (timeout,
// or a get answered with an authoritative "deleted" tombstone).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "client/load_balancer.hpp"
#include "client/session.hpp"
#include "common/logging.hpp"
#include "core/messages.hpp"
#include "net/stream/dual_transport.hpp"
#include "net/stream/stream_transport.hpp"
#include "net/udp_transport.hpp"
#include "runtime/real_time_runtime.hpp"
#include "server/config.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: dataflasks_cli --peer ID@HOST:PORT [--peer ...]\n"
               "         [--timeout-ms N] [--version N] [--seed N]\n"
               "         [--ttl-ms N] [--log-level LEVEL]\n"
               "         put <key> <value> | get <key> | del <key> |\n"
               "         cas <key> <expected-version> <value> | stats | "
               "batch\n"
               "       batch reads stdin lines: put <key> <value> | "
               "get <key> | del <key>\n"
               "       stats prints the contact node's metrics snapshot "
               "(Prometheus text)\n"
               "       --ttl-ms N expires a put cluster-wide N ms after it "
               "is stored\n");
  return 1;
}

dataflasks::Payload payload_of(const std::string& text) {
  return dataflasks::Payload(dataflasks::ByteView(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dataflasks;

  std::vector<server::PeerSpec> peers;
  std::int64_t timeout_ms = 2000;
  std::uint32_t ttl_ms = 0;
  Version version = 1;
  bool version_given = false;
  std::uint64_t seed = 0;
  std::vector<std::string> positional;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--peer") {
      const char* value = next();
      server::PeerSpec peer;
      if (value == nullptr || !server::parse_peer_spec(value, peer)) {
        std::fprintf(stderr, "dataflasks_cli: bad --peer spec\n");
        return usage();
      }
      peers.push_back(peer);
    } else if (arg == "--timeout-ms") {
      const char* value = next();
      if (value == nullptr || (timeout_ms = std::atoll(value)) <= 0) {
        return usage();
      }
    } else if (arg == "--ttl-ms") {
      const char* value = next();
      if (value == nullptr) return usage();
      ttl_ms = static_cast<std::uint32_t>(std::strtoull(value, nullptr, 10));
    } else if (arg == "--version") {
      const char* value = next();
      if (value == nullptr) return usage();
      version = static_cast<Version>(std::strtoull(value, nullptr, 10));
      version_given = true;
    } else if (arg == "--seed") {
      const char* value = next();
      if (value == nullptr) return usage();
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--log-level") {
      const char* value = next();
      const auto level =
          value != nullptr ? log_level_from_string(value) : std::nullopt;
      if (!level) {
        std::fprintf(stderr, "dataflasks_cli: bad --log-level\n");
        return usage();
      }
      set_global_log_level(*level);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "dataflasks_cli: unknown flag %s\n", arg.c_str());
      return usage();
    } else {
      positional.push_back(arg);
    }
  }

  if (peers.empty() || positional.empty()) return usage();
  const std::string& command = positional[0];
  const bool is_put = command == "put";
  const bool is_get = command == "get";
  const bool is_del = command == "del";
  const bool is_cas = command == "cas";
  const bool is_stats = command == "stats";
  const bool is_batch = command == "batch";
  if ((is_put && positional.size() != 3) ||
      ((is_get || is_del) && positional.size() != 2) ||
      (is_cas && positional.size() != 4) ||
      ((is_stats || is_batch) && positional.size() != 1) ||
      (!is_put && !is_get && !is_del && !is_cas && !is_stats && !is_batch)) {
    return usage();
  }

  // Ephemeral client identity: high bits tag "client", low bits the pid so
  // concurrent CLI invocations do not collide (replies are routed by the
  // learned source address of this process's socket either way).
  const std::uint64_t pid = static_cast<std::uint64_t>(::getpid());
  const NodeId client_id(0x00C11E0000000000ULL | pid);
  if (seed == 0) seed = 0xC11E5EEDULL ^ (pid << 16);

  runtime::RealTimeRuntime rt(seed);
  net::UdpTransport udp(rt, {});  // ephemeral local port
  // Dial-only stream leg: envelopes ride a TCP connection when the contact
  // advertises a stream port (big values need one — they exceed what a
  // datagram carries), and fall back to UDP transparently when it does not.
  net::StreamTransport stream(rt, {});
  net::DualTransport::Options dual_options;
  dual_options.prefer_stream = [](std::uint16_t type) {
    return type == core::kOpEnvelope;
  };
  net::DualTransport transport(rt, udp, &stream, std::move(dual_options));
  std::vector<NodeId> contact_ids;
  for (const server::PeerSpec& peer : peers) {
    udp.add_peer(NodeId(peer.id), peer.host, peer.port);
    contact_ids.emplace_back(peer.id);
    // Directed discovery: the probe answer carries the contact's advertised
    // endpoint, stream port included, so the first oversized envelope can
    // dial instead of being stuck UDP-only.
    udp.probe_peer(NodeId(peer.id));
  }

  client::LoadBalancer balancer(contact_ids, rt.rng().fork(1));
  client::ClientOptions options;
  // Every attempt must fit inside the run window below, so the failure
  // callback always fires (and prints) before the deadline.
  options.max_attempts = 3;
  options.request_timeout =
      std::max<std::int64_t>(timeout_ms / options.max_attempts, 50) * kMillis;
  client::Client client(client_id, transport, rt, balancer,
                        rt.rng().fork(2), options);
  client::Session session(client);

  int exit_code = 2;
  bool completed = false;
  const auto finish = [&](int code) {
    exit_code = code;
    completed = true;
    rt.stop();
  };

  if (is_put) {
    // The Session sugar has no explicit-version + TTL form; the callback
    // core does (a zero TTL is exactly the plain put).
    client.put(positional[1], payload_of(positional[2]), version, ttl_ms,
               [&](const client::PutResult& result) {
                 if (result.ok) {
                   std::printf(
                       "OK put %s v%llu -> replica n%llu "
                       "(%u attempts, %.1f ms)\n",
                       result.key.c_str(),
                       static_cast<unsigned long long>(result.version),
                       static_cast<unsigned long long>(result.replica.value),
                       result.attempts,
                       result.latency / static_cast<double>(kMillis));
                   finish(0);
                 } else if (result.superseded) {
                   std::printf(
                       "REJECTED put %s v%llu (key deleted at a higher "
                       "version)\n",
                       result.key.c_str(),
                       static_cast<unsigned long long>(result.version));
                   finish(2);
                 } else if (result.unsupported) {
                   std::fprintf(stderr,
                                "UNSUPPORTED put %s (cluster protocol has "
                                "no TTL; retry without --ttl-ms)\n",
                                result.key.c_str());
                   finish(2);
                 } else {
                   std::fprintf(stderr, "FAILED put %s (%u attempts)\n",
                                result.key.c_str(), result.attempts);
                   finish(2);
                 }
               });
  } else if (is_get) {
    const std::string& key = positional[1];
    session.get(key).then([&](const client::GetResult& result) {
      if (result.ok) {
        const std::string text(result.object.value.begin(),
                               result.object.value.end());
        std::printf("OK get %s v%llu = %s (replica n%llu, %.1f ms)\n",
                    result.object.key.c_str(),
                    static_cast<unsigned long long>(result.object.version),
                    text.c_str(),
                    static_cast<unsigned long long>(result.replica.value),
                    result.latency / static_cast<double>(kMillis));
        finish(0);
      } else if (result.deleted) {
        // Authoritative tombstone answer — the key was deleted, and a
        // replica said so; this is not a timeout.
        std::printf("MISS get %s (deleted at v%llu)\n", key.c_str(),
                    static_cast<unsigned long long>(result.object.version));
        finish(2);
      } else {
        std::fprintf(stderr, "FAILED get %s (%u attempts)\n", key.c_str(),
                     result.attempts);
        finish(2);
      }
    });
  } else if (is_del) {
    // Deletes default to a version above any CLI put (CLI puts default to
    // v1); an explicit --version overrides for upper layers that manage
    // ordering — including deleting exactly version 1.
    const Version del_version = version_given ? version : Version{1} << 32;
    session.del(positional[1], del_version)
        .then([&](const client::DelResult& result) {
          if (result.ok) {
            std::printf("OK del %s v%llu -> replica n%llu "
                        "(%u attempts, %.1f ms)\n",
                        result.key.c_str(),
                        static_cast<unsigned long long>(result.version),
                        static_cast<unsigned long long>(result.replica.value),
                        result.attempts,
                        result.latency / static_cast<double>(kMillis));
            finish(0);
          } else {
            std::fprintf(stderr, "FAILED del %s (%u attempts)\n",
                         result.key.c_str(), result.attempts);
            finish(2);
          }
        });
  } else if (is_cas) {
    const Version expected =
        static_cast<Version>(std::strtoull(positional[2].c_str(), nullptr, 10));
    session.cas(positional[1], expected, payload_of(positional[3]))
        .then([&](const client::CasResult& result) {
          if (result.ok) {
            std::printf("OK cas %s v%llu -> replica n%llu "
                        "(%u attempts, %.1f ms)\n",
                        result.key.c_str(),
                        static_cast<unsigned long long>(result.version),
                        static_cast<unsigned long long>(result.replica.value),
                        result.attempts,
                        result.latency / static_cast<double>(kMillis));
            finish(0);
          } else if (result.cas_failed) {
            std::printf("CONFLICT cas %s (current version is v%llu)\n",
                        result.key.c_str(),
                        static_cast<unsigned long long>(result.version));
            finish(2);
          } else if (result.unsupported) {
            std::fprintf(stderr,
                         "UNSUPPORTED cas %s (cluster speaks protocol v1)\n",
                         result.key.c_str());
            finish(2);
          } else {
            std::fprintf(stderr, "FAILED cas %s (%u attempts)\n",
                         result.key.c_str(), result.attempts);
            finish(2);
          }
        });
  } else if (is_stats) {
    session.stats().then([&](const client::StatsResult& result) {
      if (result.ok) {
        // The snapshot is the deliverable: print it verbatim (already
        // newline-terminated Prometheus text).
        std::fputs(result.text.c_str(), stdout);
        std::printf("# stats from replica n%llu (%u attempts, %.1f ms)\n",
                    static_cast<unsigned long long>(result.replica.value),
                    result.attempts,
                    result.latency / static_cast<double>(kMillis));
        finish(0);
      } else if (result.unsupported) {
        std::fprintf(stderr,
                     "UNSUPPORTED stats (cluster speaks protocol v1)\n");
        finish(2);
      } else {
        std::fprintf(stderr, "FAILED stats (%u attempts)\n", result.attempts);
        finish(2);
      }
    });
  } else {  // batch
    std::vector<core::Operation> ops;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(std::cin, line)) {
      ++line_no;
      std::istringstream in(line);
      std::string op, key;
      if (!(in >> op)) continue;  // blank line
      if (!(in >> key)) {
        std::fprintf(stderr, "dataflasks_cli: batch line %zu: missing key\n",
                     line_no);
        return 1;
      }
      if (op == "put") {
        std::string value;
        std::getline(in >> std::ws, value);
        ops.push_back(core::Operation::put(key, client.stamp_version(key),
                                           payload_of(value)));
      } else if (op == "get") {
        ops.push_back(core::Operation::get(key));
      } else if (op == "del") {
        ops.push_back(
            core::Operation::del(key, client.stamp_version(key)));
      } else {
        std::fprintf(stderr, "dataflasks_cli: batch line %zu: unknown op "
                     "'%s'\n", line_no, op.c_str());
        return 1;
      }
    }
    if (ops.empty()) {
      std::fprintf(stderr, "dataflasks_cli: batch: no operations on stdin\n");
      return 1;
    }
    session.execute(std::move(ops))
        .then([&](const std::vector<client::OpResult>& results) {
          int code = 0;
          for (const client::OpResult& r : results) {
            const char* op = r.type == core::OpType::kPut   ? "put"
                             : r.type == core::OpType::kGet ? "get"
                                                            : "del";
            if (r.ok) {
              if (r.type == core::OpType::kGet) {
                const std::string text(r.object.value.begin(),
                                       r.object.value.end());
                std::printf("OK get %s v%llu = %s\n", r.key.c_str(),
                            static_cast<unsigned long long>(
                                r.object.version),
                            text.c_str());
              } else {
                std::printf("OK %s %s v%llu\n", op, r.key.c_str(),
                            static_cast<unsigned long long>(r.version));
              }
            } else if (r.deleted) {
              std::printf("MISS get %s (deleted)\n", r.key.c_str());
              code = 2;
            } else if (r.superseded) {
              std::printf("REJECTED put %s (key deleted at a higher "
                          "version)\n", r.key.c_str());
              code = 2;
            } else {
              std::printf("FAILED %s %s (%u attempts)\n", op, r.key.c_str(),
                          r.attempts);
              code = 2;
            }
          }
          // Real datagram count: batches over the per-datagram budget are
          // split by the client, so this can legitimately exceed 1.
          const std::uint64_t envelopes =
              client.metrics().counter_value("client.envelopes_sent");
          std::printf("batch: %zu ops, %llu envelope%s\n", results.size(),
                      static_cast<unsigned long long>(envelopes),
                      envelopes == 1 ? "" : "s");
          finish(code);
        });
  }

  // Headroom beyond the final attempt's timeout, so the failure callback
  // (not this deadline) is what normally ends an unsuccessful run.
  rt.run_for((timeout_ms + 500) * kMillis);
  if (!completed) {
    // A get of an absent key sits on timeouts until the retry budget runs
    // out; report a conclusive timeout explicitly.
    std::fprintf(stderr, "TIMEOUT %s (no conclusive reply)\n",
                 command.c_str());
  }
  const std::uint64_t delivered =
      udp.total_delivered() +
      stream.counters().io.frames_in.load(std::memory_order_relaxed);
  if (exit_code != 0 && delivered == 0) {
    std::fprintf(stderr,
                 "dataflasks_cli: no replies received — is the cluster up?\n");
  }
  return exit_code;
}
