// perfbench_driver: runs one benchmark workload against the DataFlasks
// library and server built from this checkout, and prints one result line
// ("PERFBENCH_RESULT {json}") that perfbench/run.py turns into the
// benchmark's report.
//
//   perfbench_driver --workload fleet-read --seed 1 --seconds 10 --trace 0
//       --server-bin build/src/server/dataflasks_server --work-dir DIR
//   perfbench_driver --selfcheck --work-dir DIR
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "common/hash.hpp"

namespace perfbench {

void Report::print(std::FILE* out) const {
  std::fprintf(out, "PERFBENCH_RESULT {\"attempted\": %llu, \"failed\": %llu, "
                    "\"wrong\": %llu, \"nproc\": %u, \"metrics\": {",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(wrong),
               std::thread::hardware_concurrency());
  bool first = true;
  for (const auto& [name, value] : metrics) {
    const double v = std::isfinite(value) ? value : 0.0;
    std::fprintf(out, "%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), v);
    first = false;
  }
  std::fprintf(out, "}, \"notes\": [");
  for (std::size_t i = 0; i < notes.size(); ++i) {
    std::string escaped;
    for (const char c : notes[i]) {
      if (c == '"' || c == '\\') escaped.push_back('\\');
      escaped.push_back(c == '\n' ? ' ' : c);
    }
    std::fprintf(out, "%s\"%s\"", i > 0 ? ", " : "", escaped.c_str());
  }
  std::fprintf(out, "]}\n");
  std::fflush(out);
}

double Samples::quantile(double q) {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(values_.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] + (values_[hi] - values_[lo]) * frac;
}

Payload value_for(const Key& key, Version version, std::size_t size) {
  Bytes bytes(size);
  std::uint64_t x = stable_key_hash(key) ^ (version * 0x9E3779B97F4A7C15ULL);
  for (std::size_t i = 0; i < size; i += 8) {
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    std::memcpy(bytes.data() + i, &z, std::min<std::size_t>(8, size - i));
  }
  return Payload(std::move(bytes));
}

bool value_matches(const store::Object& obj, std::size_t size) {
  if (obj.tombstone || obj.value.size() != size) return false;
  const Payload expected = value_for(obj.key, obj.version, size);
  return std::memcmp(expected.data(), obj.value.data(), size) == 0;
}

double mono_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb(int pid) {
  const std::string path = pid == 0 ? std::string("/proc/self/status")
                                    : "/proc/" + std::to_string(pid) +
                                          "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double cpu_seconds(int pid) {
  if (pid == 0) {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
  }
  // The first schedstat field is a thread's time on a CPU in nanoseconds;
  // /proc/PID/stat's clock ticks (10 ms) are too coarse for one round.
  double total = 0.0;
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid) + "/task", ec)) {
    std::ifstream in(task.path() / "schedstat");
    double ns = 0.0;
    if (in >> ns) total += ns / 1e9;
  }
  return total;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --server-bin PATH --work-dir DIR [--ladder]\n"
               "       perfbench_driver --selfcheck --work-dir DIR\n"
               "workloads: fleet-read fleet-write-durable sim-churn-1k\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  bool selfcheck = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--selfcheck") {
      selfcheck = true;
      continue;
    }
    if (arg == "--ladder") {
      opts.ladder = true;
      continue;
    }
    if (value == nullptr) return usage();
    ++i;
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--server-bin") {
      opts.server_bin = value;
    } else if (arg == "--work-dir") {
      opts.work_dir = value;
    } else {
      return usage();
    }
  }
  if (opts.work_dir.empty() || !(opts.seconds > 0)) return usage();
  std::filesystem::create_directories(opts.work_dir);

  if (selfcheck) {
    const int failures = run_selfcheck(opts);
    std::printf("selfcheck: %d failed checks\n", failures);
    return failures == 0 ? 0 : 1;
  }

  Report report;
  try {
    if (opts.workload == "fleet-read") {
      run_fleet_read(opts, report);
    } else if (opts.workload == "fleet-write-durable") {
      run_fleet_write_durable(opts, report);
    } else if (opts.workload == "sim-churn-1k") {
      run_sim_churn(opts, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  report.print(stdout);
  return 0;
}
