// Fleet hosting (server processes or in-process shard groups), the traced
// store decorator and the due-time open-loop generator.
#include "fleet.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "client/load_balancer.hpp"
#include "net/stream/dual_transport.hpp"
#include "net/stream/stream_transport.hpp"
#include "net/udp_transport.hpp"
#include "runtime/real_time_runtime.hpp"
#include "server/shard_group.hpp"
#include "store/memstore.hpp"
#include "store/sharded_store.hpp"
#include "store/storage_engine.hpp"

namespace perfbench {
namespace {

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Parses the port out of "ready on HOST:PORT" in a server log.
std::uint16_t ready_port(const std::string& log) {
  const std::size_t at = log.find(" ready on ");
  if (at == std::string::npos) return 0;
  const std::size_t colon = log.find(':', at + 10);
  if (colon == std::string::npos) return 0;
  return static_cast<std::uint16_t>(
      std::strtoul(log.c_str() + colon + 1, nullptr, 10));
}

// ---- server processes -------------------------------------------------------

class ServerProcess {
 public:
  ServerProcess(const std::string& bin, const std::vector<std::string>& args,
                const std::string& log_path)
      : log_path_(log_path) {
    std::vector<std::string> argv_store;
    argv_store.push_back(bin);
    argv_store.insert(argv_store.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& s : argv_store) argv.push_back(s.data());
    argv.push_back(nullptr);
    const int fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) throw std::runtime_error("cannot open " + log_path);
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fd);
      throw std::runtime_error("fork failed");
    }
    if (pid_ == 0) {
      // The server dies with the driver, whatever way the driver exits.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::execv(bin.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(fd);
  }
  ~ServerProcess() { kill_and_wait(SIGKILL); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Waits for the ready line; returns the bound UDP port.
  std::uint16_t wait_ready(double timeout_s) {
    const double deadline = mono_us() + timeout_s * 1e6;
    while (mono_us() < deadline) {
      if (const std::uint16_t port = ready_port(read_file(log_path_))) {
        return port;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("server exited before ready: " +
                                 read_file(log_path_));
      }
      sleep_ms(2);
    }
    throw std::runtime_error("server not ready in time: " +
                             read_file(log_path_));
  }

  void kill_and_wait(int sig) {
    if (pid_ <= 0) return;
    ::kill(pid_, sig);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  [[nodiscard]] int pid() const { return pid_; }

 private:
  std::string log_path_;
  int pid_ = -1;
};

class ProcessFleetImpl final : public Fleet {
 public:
  ProcessFleetImpl(std::string bin, std::string log_dir,
                   std::vector<std::string> common, std::size_t nodes)
      : bin_(std::move(bin)), log_dir_(std::move(log_dir)),
        common_(std::move(common)) {
    for (std::size_t i = 0; i < nodes; ++i) {
      ports_.push_back(0);
      procs_.push_back(nullptr);
      boot(i);
    }
  }
  ~ProcessFleetImpl() override {
    // SIGTERM first so servers shut down cleanly; the destructor of each
    // process handle SIGKILLs whatever is left.
    for (auto& p : procs_) {
      if (p) p->kill_and_wait(SIGTERM);
    }
  }

  std::vector<server::PeerSpec> peers() const override {
    std::vector<server::PeerSpec> out;
    for (std::size_t i = 0; i < ports_.size(); ++i) {
      out.push_back({i, "127.0.0.1", ports_[i]});
    }
    return out;
  }

  std::vector<double> gauge(const std::string& name) override;

  double restart(std::size_t index) override {
    const double start = mono_us();
    procs_[index]->kill_and_wait(SIGKILL);
    boot(index);
    return (mono_us() - start) / 1000.0;
  }

  double rss_mb() override {
    double total = 0;
    for (auto& p : procs_) total += peak_rss_mb(p->pid());
    return total;
  }
  double cpu_seconds() override {
    double total = 0;
    for (auto& p : procs_) total += perfbench::cpu_seconds(p->pid());
    return total;
  }

 private:
  void boot(std::size_t i) {
    const std::string log =
        log_dir_ + "/node" + std::to_string(i) + "-" +
        std::to_string(++boots_) + ".log";
    procs_[i] = std::make_unique<ServerProcess>(
        bin_, node_args(common_, i, ports_), log);
    ports_[i] = procs_[i]->wait_ready(30.0);
  }

  std::string bin_;
  std::string log_dir_;
  std::vector<std::string> common_;
  std::vector<std::uint16_t> ports_;
  std::vector<std::unique_ptr<ServerProcess>> procs_;
  std::size_t boots_ = 0;
};

/// One Stats op against one node; the reply is the node's Prometheus text.
std::string fetch_stats(const server::PeerSpec& peer, std::uint64_t salt) {
  runtime::RealTimeRuntime rt(0x57A7 + salt);
  net::UdpTransport udp(rt, {});
  udp.add_peer(NodeId(peer.id), peer.host, peer.port);
  client::RandomLoadBalancer balancer({NodeId(peer.id)}, rt.rng().fork(1));
  client::ClientOptions options;
  options.request_timeout = 300 * kMillis;
  options.max_attempts = 2;
  client::Client client(NodeId(0x57A7000000000000ULL + salt), udp, rt,
                        balancer, rt.rng().fork(2), options);
  std::string text;
  client.stats([&](const client::StatsResult& r) {
    if (r.ok) text = r.text;
    rt.stop();
  });
  rt.run_for(2 * kSeconds);
  return text;
}

double prom_value(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::strtod(line.c_str() + name.size() + 1, nullptr);
    }
  }
  return -1.0;
}

std::vector<double> ProcessFleetImpl::gauge(const std::string& name) {
  std::vector<double> out;
  static std::uint64_t salt = 0;
  for (const server::PeerSpec& peer : peers()) {
    out.push_back(prom_value(fetch_stats(peer, ++salt), name));
  }
  return out;
}

// ---- in-process hosting -----------------------------------------------------

/// Runs `fn` on `rt`'s loop thread and returns its result.
template <typename F>
auto on_loop(runtime::RealTimeRuntime& rt, F fn) -> decltype(fn()) {
  auto promise = std::make_shared<std::promise<decltype(fn())>>();
  auto future = promise->get_future();
  rt.post_from_any_thread(
      [promise, fn = std::move(fn)]() mutable { promise->set_value(fn()); });
  if (future.wait_for(std::chrono::seconds(20)) !=
      std::future_status::ready) {
    throw std::runtime_error("shard loop did not answer");
  }
  return future.get();
}

struct ProbeStats {
  obs::LatencyHistogram hop_us;
  obs::LatencyHistogram lag_us;
  std::atomic<std::uint64_t> depth_sum{0};
  std::atomic<std::uint64_t> depth_samples{0};
  std::atomic<std::uint64_t> posted{0};
};

/// One in-process node: a ShardGroup built, run and torn down on its own
/// thread exactly the way dataflasks_server's main does it.
class HostedNode {
 public:
  HostedNode(std::vector<std::string> args, StoreTrace* trace,
             core::OpHotMetrics* hot)
      : args_(std::move(args)), trace_(trace), hot_(hot) {
    auto parsed = server::parse_server_args(args_);
    if (!parsed) throw std::runtime_error(parsed.error().message);
    config_ = std::move(parsed).value();
    std::promise<void> ready;
    auto ready_future = ready.get_future();
    thread_ = std::thread([this, &ready]() { body(ready); });
    try {
      ready_future.get();  // rethrows a boot failure
    } catch (...) {
      thread_.join();
      throw;
    }
  }
  ~HostedNode() {
    if (group_ != nullptr) group_->stop();
    if (thread_.joinable()) thread_.join();
  }
  HostedNode(const HostedNode&) = delete;
  HostedNode& operator=(const HostedNode&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] server::ShardGroup& group() { return *group_; }
  [[nodiscard]] const std::vector<TracedStore*>& parts() const {
    return parts_;
  }

 private:
  void body(std::promise<void>& ready) {
    try {
      const std::size_t shards = config_.resolved_shards();
      std::vector<std::unique_ptr<store::Store>> partitions;
      for (std::size_t k = 0; k < shards; ++k) {
        std::unique_ptr<store::Store> inner;
        if (config_.store == server::StoreKind::kDurable) {
          auto engine = std::make_unique<store::StorageEngine>(
              config_.store_base_path() +
              (k > 0 ? "-shard" + std::to_string(k) : ""));
          if (!engine->open_status().ok()) {
            throw std::runtime_error(
                engine->open_status().error().message);
          }
          inner = std::move(engine);
        } else {
          inner = std::make_unique<store::MemStore>();
        }
        auto traced = std::make_unique<TracedStore>(std::move(inner), trace_);
        parts_.push_back(traced.get());
        partitions.push_back(std::move(traced));
      }
      std::unique_ptr<store::Store> assembled;
      if (shards == 1) {
        assembled = std::move(partitions.front());
      } else {
        assembled =
            std::make_unique<store::ShardedStore>(std::move(partitions));
      }
      server::ShardGroupOptions options;
      options.id = NodeId(config_.id);
      options.capacity = config_.capacity;
      options.seed =
          config_.seed != 0 ? config_.seed : 0xDF5EED00ULL + config_.id;
      options.shards = shards;
      options.net.bind_host = config_.listen_host;
      options.net.port = config_.listen_port;
      options.net.advertise_host = config_.advertise_host;
      options.stream_port = config_.stream_port;
      options.node = config_.node_options();
      group_ = std::make_unique<server::ShardGroup>(options,
                                                     std::move(assembled));
      core::Node& node = group_->node();
      runtime::RealTimeRuntime& rt = group_->shard0_runtime();
      net::UdpTransport& transport = group_->shard0_transport();
      for (const server::PeerSpec& peer : config_.peers) {
        transport.add_peer(NodeId(peer.id), peer.host, peer.port);
      }
      group_->set_op_metrics(hot_);
      node.set_load_probe([&rt]() { return rt.pending_events(); });
      transport.set_seed_listener(
          [&node](NodeId contact) { node.add_contact(contact); });
      for (const server::SeedSpec& seed : config_.seeds) {
        transport.add_seed(seed.host, seed.port);
      }
      group_->start(config_.peer_ids());
      group_->start_workers();
      port_ = transport.local_port();
    } catch (...) {
      ready.set_exception(std::current_exception());
      return;
    }
    ready.set_value();
    group_->run();
    group_->shutdown();
    group_->node().crash();
    group_.reset();  // store (journals) closes on this thread
  }

  std::vector<std::string> args_;
  server::ServerConfig config_;
  StoreTrace* trace_;
  core::OpHotMetrics* hot_;
  std::vector<TracedStore*> parts_;
  std::unique_ptr<server::ShardGroup> group_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

class HostedFleetImpl final : public HostedFleet {
 public:
  HostedFleetImpl(std::vector<std::string> common, std::size_t nodes)
      : common_(std::move(common)), probes_(std::make_shared<ProbeStats>()) {
    for (std::size_t i = 0; i < core::OpHotMetrics::kOpTypes; ++i) {
      hot_.ops[i] = &op_counters_[i];
      hot_.exec_us[i] = &op_exec_us_[i];
    }
    for (std::size_t i = 0; i < nodes; ++i) {
      ports_.push_back(0);
      nodes_.push_back(nullptr);
      boot(i);
    }
  }
  ~HostedFleetImpl() override {
    stop_probes();
    for (auto& n : nodes_) n.reset();
  }

  std::vector<server::PeerSpec> peers() const override {
    std::vector<server::PeerSpec> out;
    for (std::size_t i = 0; i < ports_.size(); ++i) {
      out.push_back({i, "127.0.0.1", ports_[i]});
    }
    return out;
  }

  std::vector<double> gauge(const std::string& name) override {
    std::vector<double> out;
    const bool objects = name == "df_store_objects";
    for (auto& n : nodes_) {
      core::Node& node = n->group().node();
      out.push_back(on_loop(n->group().shard0_runtime(), [&node, objects]() {
        return static_cast<double>(
            objects ? node.store().object_count()
                    : node.peer_sampling().view().size());
      }));
    }
    return out;
  }

  double restart(std::size_t index) override {
    const bool probing = probe_thread_.joinable();
    stop_probes();
    const double start = mono_us();
    for (TracedStore* part : nodes_[index]->parts()) {
      retired_journal_ += part->journal_tail_bytes();
    }
    retired_drained_ += nodes_[index]->group().totals().mailbox_drained;
    nodes_[index].reset();
    boot(index);
    const double ms = (mono_us() - start) / 1000.0;
    if (probing) start_probes();
    return ms;
  }

  double rss_mb() override { return 0.0; }
  double cpu_seconds() override { return 0.0; }

  void start_probes() override {
    if (probe_thread_.joinable()) return;
    probing_.store(true);
    probe_thread_ = std::thread([this]() {
      while (probing_.load()) {
        for (auto& n : nodes_) {
          for (std::size_t k = 0; k < n->group().shard_count(); ++k) {
            post_probe(n->group().shard_runtime(k));
          }
        }
        sleep_ms(5);
      }
    });
  }
  void stop_probes() override {
    if (!probe_thread_.joinable()) return;
    probing_.store(false);
    probe_thread_.join();
    sleep_ms(20);  // let posted probes and their timers drain
  }

  HostedReadout readout() override;
  StoreTrace& store_trace() override { return store_trace_; }
  core::OpHotMetrics& hot() override { return hot_; }
  const obs::LatencyHistogram& probe_hop_us() override {
    return probes_->hop_us;
  }
  const obs::LatencyHistogram& probe_lag_us() override {
    return probes_->lag_us;
  }
  double probe_queue_depth() override {
    const auto n = probes_->depth_samples.load();
    return n == 0 ? 0.0
                  : static_cast<double>(probes_->depth_sum.load()) /
                        static_cast<double>(n);
  }
  std::uint64_t probes_posted() override { return probes_->posted.load(); }
  std::uint64_t mailbox_drained() override {
    std::uint64_t total = retired_drained_;
    for (auto& n : nodes_) total += n->group().totals().mailbox_drained;
    return total;
  }

 private:
  void boot(std::size_t i) {
    nodes_[i] = std::make_unique<HostedNode>(node_args(common_, i, ports_),
                                             &store_trace_, &hot_);
    ports_[i] = nodes_[i]->port();
  }

  void post_probe(runtime::RealTimeRuntime& rt) {
    const double posted = mono_us();
    probes_->posted.fetch_add(1, std::memory_order_relaxed);
    rt.post_from_any_thread([probes = probes_, posted, &rt]() {
      const double ran = mono_us();
      probes->hop_us.record(static_cast<std::uint64_t>(ran - posted));
      probes->depth_sum.fetch_add(rt.pending_events(),
                                  std::memory_order_relaxed);
      probes->depth_samples.fetch_add(1, std::memory_order_relaxed);
      rt.post_after(1 * kMillis, [probes, armed = mono_us()]() {
        const double late = mono_us() - armed - 1000.0;
        probes->lag_us.record(
            static_cast<std::uint64_t>(late > 0 ? late : 0));
      });
    });
  }

  std::vector<std::string> common_;
  StoreTrace store_trace_;
  core::OpHotMetrics hot_;
  obs::Counter op_counters_[core::OpHotMetrics::kOpTypes];
  obs::LatencyHistogram op_exec_us_[core::OpHotMetrics::kOpTypes];
  std::vector<std::uint16_t> ports_;
  std::vector<std::unique_ptr<HostedNode>> nodes_;
  std::shared_ptr<ProbeStats> probes_;
  std::atomic<bool> probing_{false};
  std::thread probe_thread_;
  std::uint64_t retired_journal_ = 0;
  std::uint64_t retired_drained_ = 0;
};

HostedReadout HostedFleetImpl::readout() {
  HostedReadout out;
  std::uint64_t journal =
      retired_journal_ + store_trace_.checkpointed_journal_bytes.load();
  double shed = 0, admitted = 0;
  for (auto& n : nodes_) {
    server::ShardGroup& group = n->group();
    const server::ShardGroup::Totals t = group.totals();
    out.mailbox_drained += t.mailbox_drained;
    out.dropped += t.dropped;
    out.delivered += t.delivered;
    out.batched_recv += t.batched_recv;
    for (std::size_t k = 0; k < group.shard_count(); ++k) {
      out.inflight += group.pressure(k).inflight;
    }
    core::Node& node = group.node();
    auto snapshot = on_loop(group.shard0_runtime(), [&node, &group]() {
      MetricsRegistry merged;
      for (const auto& [name, value] : node.metrics().all_counters()) {
        merged.counter(name).add(value);
      }
      group.merge_counters(merged);
      std::map<std::string, std::uint64_t> counters;
      for (const auto& [name, value] : merged.all_counters()) {
        counters[name] = value;
      }
      std::size_t keys = 0;
      Key last;
      std::vector<store::DigestEntry> digest = node.store().digest();
      std::sort(digest.begin(), digest.end());
      for (const store::DigestEntry& e : digest) {
        if (keys == 0 || e.key != last) ++keys;
        last = e.key;
      }
      return std::make_tuple(counters, digest.size(), keys);
    });
    for (const auto& [name, value] : std::get<0>(snapshot)) {
      out.counters[name] += value;
    }
    out.objects += std::get<1>(snapshot);
    out.keys += std::get<2>(snapshot);
    shed += static_cast<double>(
        std::get<0>(snapshot).count("admission.client_ops_shed")
            ? std::get<0>(snapshot).at("admission.client_ops_shed")
            : 0);
    admitted += static_cast<double>(
        std::get<0>(snapshot).count("admission.client_ops_admitted")
            ? std::get<0>(snapshot).at("admission.client_ops_admitted")
            : 0);
    for (TracedStore* part : n->parts()) journal += part->journal_tail_bytes();
  }
  out.checkpoints = store_trace_.checkpoint_us.count();
  out.shed_ratio = shed + admitted > 0 ? shed / (shed + admitted) : 0.0;
  out.journal_bytes = journal;
  return out;
}

// ---- traced client transport --------------------------------------------------

/// Client-side transport decorator: times every send() and counts the
/// messages and bytes the client puts on the wire.
class TracingTransport final : public net::Transport {
 public:
  explicit TracingTransport(net::Transport& inner) : inner_(inner) {}
  void send(net::Message msg) override {
    ++sends;
    bytes += msg.wire_size();
    const double start = mono_us();
    inner_.send(std::move(msg));
    const double took = mono_us() - start;
    send_us.add(took);
    busy_us += took;
  }
  void register_handler(NodeId node, Handler handler) override {
    inner_.register_handler(node, std::move(handler));
  }
  void unregister_handler(NodeId node) override {
    inner_.unregister_handler(node);
  }
  std::optional<Endpoint> local_endpoint() const override {
    return inner_.local_endpoint();
  }
  void learn_endpoint(NodeId node, const Endpoint& endpoint) override {
    inner_.learn_endpoint(node, endpoint);
  }
  std::size_t max_payload(NodeId node) const override {
    return inner_.max_payload(node);
  }

  Samples send_us;
  double busy_us = 0.0;
  std::uint64_t sends = 0;
  std::uint64_t bytes = 0;

 private:
  net::Transport& inner_;
};

// ---- generator worker ---------------------------------------------------------

struct Span {
  std::size_t index = 0;
  double due = 0, issued = 0, returned = 0, done = 0;
  double send_in_execute = 0;
};

struct WorkerOut {
  PhaseResult result;
  std::vector<Span> spans;
};

void run_worker(const std::vector<server::PeerSpec>& peers,
                const Phase& phase, std::size_t w, double t0,
                std::size_t total_batches, WorkerOut& out) {
  PhaseResult& res = out.result;
  runtime::RealTimeRuntime rt(phase.seed * 0x9E37 + w + 1);
  net::UdpTransport udp(rt, {});
  net::StreamTransport stream(rt, {});
  net::DualTransport::Options dual_options;
  dual_options.prefer_stream = [](std::uint16_t type) {
    return type == core::kOpEnvelope;
  };
  net::DualTransport dual(rt, udp, &stream, std::move(dual_options));
  net::Transport& wire =
      phase.streams ? static_cast<net::Transport&>(dual) : udp;
  TracingTransport traced(wire);
  net::Transport& transport =
      phase.trace ? static_cast<net::Transport&>(traced) : wire;
  std::vector<NodeId> contacts;
  for (const server::PeerSpec& peer : peers) {
    udp.add_peer(NodeId(peer.id), peer.host, peer.port);
    contacts.emplace_back(peer.id);
    udp.probe_peer(NodeId(peer.id));
  }
  client::RandomLoadBalancer balancer(contacts, rt.rng().fork(1));
  client::ClientOptions options;
  options.request_timeout = 1000 * kMillis;
  options.max_attempts = 3;
  const NodeId client_id(0xBE0C000000000000ULL |
                         ((phase.client_salt & 0xFFF) << 8) | (w & 0xFF));
  client::Client client(client_id, transport, rt, balancer, rt.rng().fork(2),
                        options);
  Rng rng = rt.rng().fork(3 + w);
  const BatchMaker make = phase.make(w, phase.seed);

  const double period_us =
      static_cast<double>(phase.batch) * 1e6 / phase.rate;
  const std::size_t stride = phase.threads;
  const std::size_t inflight_cap = 4096;
  std::size_t next = w;
  std::size_t inflight_ops = 0;
  bool issuing_done = false;

  auto issue = [&](std::size_t index, double due, double now) {
    std::vector<core::Operation> ops = make(client, rng, index);
    const std::size_t n = ops.size();
    res.scheduled_ops += n;
    if (inflight_ops + n > inflight_cap) {
      res.shed_ops += n;
      return;
    }
    res.late_us.add(now - due);
    ++res.batches;
    inflight_ops += n;
    std::shared_ptr<std::vector<core::Operation>> sent;
    if (phase.check || phase.record_acked) {
      sent = std::make_shared<std::vector<core::Operation>>(ops);
    }
    const std::size_t span_slot = out.spans.size();
    if (phase.trace) out.spans.push_back({index, due, now, 0, 0, 0});
    const double send_busy_before = traced.busy_us;
    client.execute(std::move(ops), [&, due, n, sent, span_slot](
                                       const std::vector<client::OpResult>&
                                           results) {
      const double done = mono_us();
      if (phase.trace) out.spans[span_slot].done = done;
      for (std::size_t i = 0; i < results.size(); ++i) {
        const client::OpResult& r = results[i];
        res.attempts += r.attempts;
        if (!r.ok) {
          ++res.failed;
          continue;
        }
        ++res.ok;
        if (r.type == core::OpType::kGet) {
          res.get_us.add(done - due);
          const bool good =
              phase.check ? phase.check((*sent)[i], r)
                          : value_matches(r.object, phase.value_size);
          if (!good) ++res.wrong;
        } else {
          res.put_us.add(done - due);
          if (phase.record_acked) res.acked.emplace_back(r.key, r.version);
        }
      }
      inflight_ops -= n;
      if (issuing_done && inflight_ops == 0) rt.stop();
    });
    if (phase.trace) {
      const double returned = mono_us();
      out.spans[span_slot].returned = returned;
      out.spans[span_slot].send_in_execute = traced.busy_us - send_busy_before;
      res.execute_us.add(returned - now);
      res.execute_self_us.add(returned - now -
                              out.spans[span_slot].send_in_execute);
    }
  };

  // Pacing: a sleeper thread wakes the loop (through its mailbox, which
  // interrupts poll at once) at every due time, because the runtime's own
  // timers round waits up to whole milliseconds. Each wakeup issues every
  // batch whose due time has passed.
  std::function<void()> tick = [&]() {
    const double now = mono_us();
    while (next < total_batches &&
           t0 + static_cast<double>(next) * period_us <= now) {
      issue(next, t0 + static_cast<double>(next) * period_us, now);
      next += stride;
    }
    if (next >= total_batches && !issuing_done) {
      issuing_done = true;
      if (inflight_ops == 0) rt.stop();
    }
  };
  std::atomic<bool> pacing{true};
  std::thread pacer([&]() {
    // The default 50 us timer slack would make every batch that late.
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    for (std::size_t i = w; i < total_batches && pacing.load(); i += stride) {
      const double due = t0 + static_cast<double>(i) * period_us;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::micro>(due))));
      rt.post_from_any_thread([&tick]() { tick(); });
    }
    // Closes the schedule even for a worker with no batches of its own.
    rt.post_from_any_thread([&tick]() { tick(); });
  });
  // Backstop: the schedule plus every retry budget, then stop regardless.
  const double schedule_us = static_cast<double>(total_batches) * period_us /
                             static_cast<double>(stride);
  rt.schedule_after(static_cast<SimTime>(schedule_us + (t0 - mono_us())) +
                        4 * options.request_timeout + kSeconds,
                    [&]() { rt.stop(); });
  rt.run();
  pacing.store(false);
  pacer.join();
  res.failed += inflight_ops;  // never resolved before the backstop
  res.envelopes = client.metrics().counter_value("client.envelopes_sent");
  res.sends = traced.sends;
  res.send_bytes = traced.bytes;
  res.send_us = traced.send_us;
  res.stream_frames =
      stream.counters().io.frames_out.load(std::memory_order_relaxed);
}

}  // namespace

std::vector<std::string> node_args(const std::vector<std::string>& common,
                                   std::size_t index,
                                   const std::vector<std::uint16_t>& ports) {
  std::vector<std::string> args = common;
  args.insert(args.end(), {"--id", std::to_string(index), "--listen",
                           "127.0.0.1:" + std::to_string(ports[index])});
  for (std::size_t j = 0; j < ports.size(); ++j) {
    if (j == index || ports[j] == 0) continue;
    args.insert(args.end(), {"--peer", std::to_string(j) + "@127.0.0.1:" +
                                           std::to_string(ports[j])});
  }
  return args;
}

std::unique_ptr<Fleet> make_process_fleet(
    const std::string& bin, const std::string& log_dir,
    const std::vector<std::string>& common, std::size_t nodes) {
  return std::make_unique<ProcessFleetImpl>(bin, log_dir, common, nodes);
}

std::unique_ptr<HostedFleet> make_hosted_fleet(
    const std::vector<std::string>& common, std::size_t nodes) {
  return std::make_unique<HostedFleetImpl>(common, nodes);
}

// ---- TracedStore ----------------------------------------------------------------

namespace {
/// Times one call into the wrapped store when tracing.
template <typename F>
auto timed(obs::LatencyHistogram* hist, F&& fn) -> decltype(fn()) {
  if (hist == nullptr) return fn();
  const double start = mono_us();
  auto out = fn();
  hist->record(static_cast<std::uint64_t>(mono_us() - start));
  return out;
}
}  // namespace

TracedStore::TracedStore(std::unique_ptr<store::Store> inner,
                         StoreTrace* trace)
    : inner_(std::move(inner)), trace_(trace) {}

Status TracedStore::put(const store::Object& obj) {
  return timed(trace_ ? &trace_->put_us : nullptr,
               [&]() { return inner_->put(obj); });
}
store::CasOutcome TracedStore::compare_and_put(const store::Object& obj,
                                               Version expected) {
  return timed(trace_ ? &trace_->put_us : nullptr,
               [&]() { return inner_->compare_and_put(obj, expected); });
}
Result<store::Object> TracedStore::get(const Key& key,
                                       std::optional<Version> version) const {
  return timed(trace_ ? &trace_->get_us : nullptr,
               [&]() { return inner_->get(key, version); });
}
Version TracedStore::tombstone_version(const Key& key) const {
  return inner_->tombstone_version(key);
}
std::size_t TracedStore::gc_tombstones(SimTime now, SimTime grace) {
  return inner_->gc_tombstones(now, grace);
}
bool TracedStore::contains(const Key& key, Version version) const {
  return inner_->contains(key, version);
}
std::vector<store::DigestEntry> TracedStore::digest() const {
  return timed(trace_ ? &trace_->digest_us : nullptr,
               [&]() { return inner_->digest(); });
}
const std::vector<store::DigestEntry>& TracedStore::digest_entries() const {
  const double start = mono_us();
  const std::vector<store::DigestEntry>& out = inner_->digest_entries();
  if (trace_ != nullptr) {
    trace_->digest_us.record(static_cast<std::uint64_t>(mono_us() - start));
  }
  return out;
}
void TracedStore::for_each(
    const std::function<void(const store::Object&)>& fn) const {
  inner_->for_each(fn);
}
std::vector<store::Object> TracedStore::all() const { return inner_->all(); }
std::size_t TracedStore::remove_keys_where(
    const std::function<bool(const Key&)>& predicate) {
  return inner_->remove_keys_where(predicate);
}
std::size_t TracedStore::object_count() const {
  return inner_->object_count();
}
std::size_t TracedStore::value_bytes() const { return inner_->value_bytes(); }
store::ReapStats TracedStore::reap(SimTime now, std::size_t max_bytes) {
  return inner_->reap(now, max_bytes);
}
Result<std::size_t> TracedStore::compact_storage() {
  const std::size_t tail = journal_tail_bytes();
  auto out = timed(trace_ ? &trace_->checkpoint_us : nullptr,
                   [&]() { return inner_->compact_storage(); });
  if (trace_ != nullptr && out.ok()) {
    trace_->checkpointed_journal_bytes.fetch_add(tail, std::memory_order_relaxed);
  }
  return out;
}
std::uint64_t TracedStore::mutation_rev() const {
  return inner_->mutation_rev();
}
store::StoreBreakdown TracedStore::breakdown() const {
  return inner_->breakdown();
}
std::size_t TracedStore::journal_tail_bytes() const {
  const auto* engine = dynamic_cast<const store::StorageEngine*>(inner_.get());
  return engine != nullptr ? engine->journal_bytes() : 0;
}

// ---- generator ------------------------------------------------------------------

PhaseResult run_phase(const std::vector<server::PeerSpec>& peers,
                      const Phase& phase, const std::string& span_path) {
  const std::size_t total =
      phase.total_batches > 0
          ? phase.total_batches
          : static_cast<std::size_t>(phase.seconds * phase.rate /
                                     static_cast<double>(phase.batch));
  std::vector<std::unique_ptr<WorkerOut>> outs;
  for (std::size_t w = 0; w < phase.threads; ++w) {
    outs.push_back(std::make_unique<WorkerOut>());
  }
  // Workers bind their sockets and probe streams before t0.
  const double t0 = mono_us() + 100'000.0;
  const double wall_start = mono_us();
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < phase.threads; ++w) {
    threads.emplace_back(run_worker, std::cref(peers), std::cref(phase), w,
                         t0, total, std::ref(*outs[w]));
  }
  for (std::thread& t : threads) t.join();

  PhaseResult merged;
  merged.wall_seconds = (mono_us() - wall_start) / 1e6;
  std::ofstream spans;
  if (phase.trace && !span_path.empty()) spans.open(span_path, std::ios::app);
  for (std::size_t w = 0; w < outs.size(); ++w) {
    merge_into(merged, outs[w]->result);
    if (spans.is_open()) {
      // One line per request: client execute (issued -> returned) nested in
      // the op span (due -> done); send_us is the transport time inside it.
      for (const Span& s : outs[w]->spans) {
        spans << "{\"worker\": " << w << ", \"batch\": " << s.index
              << ", \"due_us\": " << static_cast<std::int64_t>(s.due - t0)
              << ", \"issued_us\": "
              << static_cast<std::int64_t>(s.issued - t0)
              << ", \"execute_returned_us\": "
              << static_cast<std::int64_t>(s.returned - t0)
              << ", \"done_us\": " << static_cast<std::int64_t>(s.done - t0)
              << ", \"send_in_execute_us\": "
              << static_cast<std::int64_t>(s.send_in_execute) << "}\n";
      }
    }
  }
  return merged;
}

void merge_into(PhaseResult& into, const PhaseResult& from) {
  into.get_us.append(from.get_us);
  into.put_us.append(from.put_us);
  into.late_us.append(from.late_us);
  into.execute_us.append(from.execute_us);
  into.execute_self_us.append(from.execute_self_us);
  into.send_us.append(from.send_us);
  into.scheduled_ops += from.scheduled_ops;
  into.ok += from.ok;
  into.failed += from.failed;
  into.wrong += from.wrong;
  into.shed_ops += from.shed_ops;
  into.attempts += from.attempts;
  into.batches += from.batches;
  into.envelopes += from.envelopes;
  into.sends += from.sends;
  into.send_bytes += from.send_bytes;
  into.stream_frames += from.stream_frames;
  into.acked.insert(into.acked.end(), from.acked.begin(), from.acked.end());
}

bool wait_gauge(Fleet& fleet, const std::string& name, double at_least,
                double timeout_s) {
  const double deadline = mono_us() + timeout_s * 1e6;
  std::vector<double> last;
  while (mono_us() < deadline) {
    last = fleet.gauge(name);
    bool all = true;
    for (const double v : last) all = all && v >= at_least;
    if (all) return true;
    sleep_ms(20);
  }
  std::string seen;
  for (const double v : last) seen += " " + std::to_string(v);
  std::fprintf(stderr, "perfbench: %s stayed below %.0f:%s\n", name.c_str(),
               at_least, seen.c_str());
  return false;
}

}  // namespace perfbench
