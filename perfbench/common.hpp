// Shared pieces of the benchmark driver: command-line options, the result
// report, exact-quantile sample sets, seed-derived value bytes and /proc
// readers for the processes under test.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/payload.hpp"
#include "common/types.hpp"
#include "store/object.hpp"

namespace perfbench {

using namespace dataflasks;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool ladder = false;     ///< fleet-read: also climb the rate ladder
  std::string server_bin;  ///< dataflasks_server built from this checkout
  std::string work_dir;    ///< scratch space for data dirs, logs and spans
};

/// Generator lateness (issue time minus due time) allowed at p99 on every
/// rate the fleet workloads schedule: the generator's loop may wait up to
/// about a millisecond for its next wakeup, plus scheduling noise.
constexpr double kLateP99BoundUs = 5000.0;

/// One run's outcome. `metrics` holds every number the run measured, end to
/// end and per layer; the wrapper script picks the names BENCHMARK.json
/// lists for the requested mode.
struct Report {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output checks: value bytes that do not match their version, acked
  /// writes lost across the restart, or any other wrong answer.
  std::uint64_t wrong = 0;
  std::vector<std::string> notes;

  void set(const std::string& name, double value) { metrics[name] = value; }
  void print(std::FILE* out) const;
};

/// Exact quantiles over raw samples (the obs histogram's bucket bounds would
/// make medians repeat bit-for-bit across runs).
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  /// Linear interpolation between closest ranks; 0 when empty.
  [[nodiscard]] double quantile(double q);

 private:
  std::vector<double> values_;
  bool sorted_ = false;
};

/// Value bytes are a pure function of (key, version), so every read can
/// check that the bytes it got belong to the version it got.
[[nodiscard]] Payload value_for(const Key& key, Version version,
                                std::size_t size);
[[nodiscard]] bool value_matches(const store::Object& obj, std::size_t size);

/// Microseconds on the steady clock.
[[nodiscard]] double mono_us();

/// Peak resident set (VmHWM) of `pid` in MiB; 0 when unreadable. pid 0 reads
/// this process.
[[nodiscard]] double peak_rss_mb(int pid);
/// CPU seconds consumed so far by every thread of `pid` (0 = this
/// process).
[[nodiscard]] double cpu_seconds(int pid);

/// Total bytes of regular files under `dir`.
[[nodiscard]] std::uint64_t dir_bytes(const std::string& dir);

/// Workload entry points (each fills `report`; a thrown exception is a
/// failed run).
void run_fleet_read(const Options& opts, Report& report);
void run_fleet_write_durable(const Options& opts, Report& report);
void run_sim_churn(const Options& opts, Report& report);
/// Generator-at-rate and store-decorator transparency checks; returns the
/// number of failed checks.
int run_selfcheck(const Options& opts);

}  // namespace perfbench
