// Self-checks of the benchmark's own machinery:
//   1. the traced store decorator is transparent: one fixed op sequence
//      through a bare and a wrapped StorageEngine / ShardedStore gives the
//      same results, the same checkpoints and the same recovered state;
//   2. the due-time generator holds the highest rate each fleet workload
//      uses against a loopback node, issuing every batch with bounded
//      lateness.
#include <algorithm>
#include <filesystem>
#include <sstream>

#include "fleet.hpp"
#include "store/sharded_store.hpp"
#include "store/storage_engine.hpp"

namespace perfbench {
namespace {

store::Object object(const std::string& key, Version v, SimTime expires = 0) {
  store::Object o;
  o.key = key;
  o.version = v;
  o.value = value_for(key, v, 64);
  o.expires_at = expires;
  return o;
}

/// Runs the fixed sequence and renders every observable result as text.
std::string exercise(store::Store& s) {
  std::ostringstream log;
  const auto status = [](const Status& st) { return st.ok() ? 1 : 0; };
  for (int i = 0; i < 40; ++i) {
    log << status(s.put(object("k" + std::to_string(i % 13), 1 + i / 13)));
  }
  log << status(s.put(object("k1", 1)));  // idempotent re-put
  log << status(s.put(store::Object::make_tombstone("k2", 9, 100)));
  log << status(s.put(object("k2", 5)));  // below the tombstone
  const auto cas = [&](const char* key, Version expected, Version v) {
    const store::CasOutcome o = s.compare_and_put(object(key, v), expected);
    log << " cas" << static_cast<int>(o.status) << ":" << o.current;
  };
  cas("k3", 4, 10);   // stored
  cas("k3", 4, 11);   // mismatch
  cas("k2", 9, 12);   // deleted
  cas("k4", 4, 4);    // conflict
  cas("fresh", 0, 1); // create-only
  log << " ts" << s.tombstone_version("k2") << " c"
      << s.contains("k3", 10) << s.contains("k3", 11);
  for (const char* key : {"k0", "k2", "k3", "missing"}) {
    const auto got = s.get(key, std::nullopt);
    log << " g" << got.ok();
    if (got.ok()) log << ":" << got.value().version << got.value().tombstone;
  }
  const auto compacted = s.compact_storage();
  log << " compact" << compacted.ok();
  log << status(s.put(object("ttl", 1, 500)));
  const store::ReapStats reaped = s.reap(1000, 0);
  log << " reap" << reaped.expired << "/" << reaped.evicted;
  log << " rm" << s.remove_keys_where([](const Key& k) { return k == "k5"; });
  log << " gc" << s.gc_tombstones(10'000, 1000);
  std::vector<store::DigestEntry> digest = s.digest();
  std::sort(digest.begin(), digest.end());
  log << " d" << digest.size() << "=" << s.digest_entries().size();
  for (const auto& e : digest) log << " " << e.key << "@" << e.version;
  const store::StoreBreakdown b = s.breakdown();
  log << " n" << s.object_count() << " b" << s.value_bytes() << " live"
      << b.live_objects << "/" << b.live_bytes << "/" << b.tombstone_objects;
  return log.str();
}

std::string contents(const store::Store& s) {
  std::vector<store::Object> all = s.all();
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return std::tie(a.key, a.version) < std::tie(b.key, b.version);
  });
  std::ostringstream out;
  for (const auto& o : all) {
    out << o.key << "@" << o.version << (o.tombstone ? "t" : "")
        << (value_matches(o, 64) || o.tombstone ? "" : "!") << " ";
  }
  return out.str();
}

std::unique_ptr<store::Store> engine(const std::string& base) {
  auto e = std::make_unique<store::StorageEngine>(base);
  if (!e->open_status().ok()) {
    throw std::runtime_error(e->open_status().error().message);
  }
  return e;
}

std::unique_ptr<store::Store> sharded(const std::string& base, bool wrap,
                                      StoreTrace* trace) {
  std::vector<std::unique_ptr<store::Store>> parts;
  for (int k = 0; k < 2; ++k) {
    auto inner = engine(base + "-p" + std::to_string(k));
    if (wrap) inner = std::make_unique<TracedStore>(std::move(inner), trace);
    parts.push_back(std::move(inner));
  }
  return std::make_unique<store::ShardedStore>(std::move(parts));
}

int check(bool ok, const std::string& what) {
  std::printf("selfcheck: %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

int decorator_checks(const std::string& dir) {
  int failures = 0;
  StoreTrace trace;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const bool use_sharded : {false, true}) {
    const std::string kind = use_sharded ? "ShardedStore" : "StorageEngine";
    const std::string bare_base = dir + "/bare-" + kind;
    const std::string wrap_base = dir + "/wrapped-" + kind;
    std::string bare_log, wrap_log, bare_after, wrap_after;
    {
      auto bare = use_sharded ? sharded(bare_base, false, nullptr)
                              : engine(bare_base);
      std::unique_ptr<store::Store> wrapped =
          use_sharded ? sharded(wrap_base, true, &trace)
                      : std::make_unique<TracedStore>(engine(wrap_base),
                                                      &trace);
      bare_log = exercise(*bare);
      wrap_log = exercise(*wrapped);
    }
    // Reopen from disk: the checkpoint the wrapper forwarded must have
    // produced the same recoverable state.
    {
      auto bare = use_sharded ? sharded(bare_base, false, nullptr)
                              : engine(bare_base);
      auto wrapped = use_sharded ? sharded(wrap_base, false, nullptr)
                                 : engine(wrap_base);
      bare_after = contents(*bare);
      wrap_after = contents(*wrapped);
    }
    failures += check(bare_log == wrap_log,
                      "wrapped " + kind + " answers like the bare one");
    failures += check(bare_after == wrap_after && !bare_after.empty(),
                      "wrapped " + kind + " recovers the same objects");
  }
  failures += check(trace.checkpoint_us.count() >= 3,
                    "compact_storage reaches every wrapped engine");
  std::filesystem::remove_all(dir);
  return failures;
}

int generator_checks() {
  int failures = 0;
  auto fleet = make_hosted_fleet(
      {"--shards", "1", "--store", "memory", "--slices", "1", "--log-level",
       "warn"},
      1);
  struct Rung {
    const char* name;
    double rate;
    std::size_t batch;
  };
  // The highest rate of every phase the fleet workloads schedule.
  for (const Rung& rung : {Rung{"fleet-read reference", 6000.0, 1},
                           Rung{"fleet-read ladder top", 32000.0, 1},
                           Rung{"fleet-write-durable writes", 2000.0, 8},
                           Rung{"fleet-write-durable read-back", 4000.0, 8},
                           Rung{"preload", 20000.0, 8}}) {
    Phase p;
    p.rate = rung.rate;
    p.batch = rung.batch;
    p.seconds = 2.0;
    p.threads = 2;
    p.value_size = 16;
    p.client_salt = 9;
    p.make = [](std::size_t, std::uint64_t) -> BatchMaker {
      return [](client::Client& client, Rng& rng, std::size_t index) {
        std::vector<core::Operation> ops;
        const Key key = "gen-" + std::to_string(rng.next_below(256));
        const Version v = client.stamp_version(key);
        ops.push_back(core::Operation::put(key, v, value_for(key, v, 16)));
        (void)index;
        return ops;
      };
    };
    // Batch > 1 rungs send that many ops per envelope.
    if (rung.batch > 1) {
      p.make = [batch = rung.batch](std::size_t,
                                       std::uint64_t) -> BatchMaker {
        return [batch](client::Client& client, Rng& rng, std::size_t) {
          std::vector<core::Operation> ops;
          for (std::size_t i = 0; i < batch; ++i) {
            const Key key = "gen-" + std::to_string(rng.next_below(256));
            const Version v = client.stamp_version(key);
            ops.push_back(
                core::Operation::put(key, v, value_for(key, v, 16)));
          }
          return ops;
        };
      };
    }
    PhaseResult r = run_phase(fleet->peers(), p);
    const double expected = rung.rate * p.seconds;
    const double late99 = r.late_us.quantile(0.99);
    std::printf("selfcheck: %s at %.0f ops/s: %llu/%0.f ops issued, "
                "late p50/p90/p99 %.0f/%.0f/%.0f us\n",
                rung.name, rung.rate,
                static_cast<unsigned long long>(r.scheduled_ops - r.shed_ops),
                expected, r.late_us.quantile(0.5), r.late_us.quantile(0.9),
                late99);
    failures += check(r.shed_ops == 0 &&
                          static_cast<double>(r.scheduled_ops) >=
                              expected - static_cast<double>(rung.batch) &&
                          late99 <= kLateP99BoundUs,
                      std::string("generator holds ") + rung.name);
  }
  return failures;
}

}  // namespace

int run_selfcheck(const Options& opts) {
  int failures = decorator_checks(opts.work_dir + "/decorator");
  failures += generator_checks();
  return failures;
}

}  // namespace perfbench
