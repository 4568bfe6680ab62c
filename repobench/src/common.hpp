// Shared pieces of the repo benchmark: options, the result every workload
// returns, per-layer accumulators, timing and exact sample statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace repobench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Per-layer sums a traced run accumulates; each workload turns them into
/// the named per-layer metrics when it finishes.
using Layers = std::map<std::string, double>;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `attempted` counts the workload's
/// operations (networks planned, images inferred, requests sent); an
/// operation whose output fails its check counts in `failed` and clears
/// `correct`.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void add(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  /// Records a wrong output of one operation.
  void wrong(const std::string& what);
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds (user + system) this process has used so far, all threads.
/// Unlike wall time it excludes time the host took the virtual CPUs away.
double cpu_s();

/// Exact quantile of the samples (linear interpolation between closest
/// ranks, q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Peak resident set size of this process so far, MiB.
double peak_rss_mib();

/// Adds `value` to layers[key].
inline void accumulate(Layers* layers, const std::string& key, double value) {
  if (layers != nullptr) (*layers)[key] += value;
}

/// a / b, or 0 when the base b is 0 (a ratio with an empty base).
inline double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

}  // namespace repobench
