// Lock-cheap named metrics: counters, gauges, histograms.
//
// The registry is sharded per thread: an update touches only the calling
// thread's shard (its mutex is uncontended except while a snapshot merges),
// so instrumented hot loops never serialize on each other. snapshot()
// merges every shard into one consistent view:
//
//  * counters  — summed across shards (exact, regardless of interleaving)
//  * gauges    — last write wins, ordered by a global sequence number
//  * histograms— log2-bucketed, bucket counts / sum / min / max combined
//
// Naming scheme: `subsystem.noun[_unit]`, e.g. `executor.tiles_computed`,
// `sim.queue_wait_cycles`, `planner.candidates_evaluated` — see
// docs/OBSERVABILITY.md.
//
// Cost policy: the MOCHA_METRIC_* macros check one relaxed atomic flag and
// do nothing while metrics are disabled (the default). Direct
// MetricsRegistry calls always record (tests and tools use the API
// unconditionally).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mocha::util {
class JsonWriter;
}

namespace mocha::obs {

/// Log2-bucketed distribution. Bucket 0 holds values <= 0; bucket i >= 1
/// holds values in [2^(i-1), 2^i).
struct HistogramData {
  static constexpr int kBuckets = 41;

  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = std::numeric_limits<std::int64_t>::max();
  std::int64_t max = std::numeric_limits<std::int64_t>::min();
  std::array<std::uint64_t, kBuckets> buckets{};

  static int bucket_of(std::int64_t value);

  void add(std::int64_t value);
  void merge(const HistogramData& other);
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Estimated value at percentile `p` in [0, 100]: linear interpolation
  /// inside the log2 bucket holding that rank, clamped to the observed
  /// [min, max] (so p0 == min and p100 == max exactly). Worst-case error
  /// is the width of one bucket. Returns 0 on an empty histogram.
  double percentile(double p) const;
};

/// A merged, point-in-time view of the registry.
struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  /// Writes `{"counters": {...}, "gauges": {...}, "histograms": {...}}` as
  /// one JSON object value (embeddable inside a larger document).
  void write_json(util::JsonWriter& json) const;

  /// The same object as a standalone JSON string.
  std::string to_json() const;
};

class MetricsRegistry {
 public:
  /// The process-global registry the MOCHA_METRIC_* macros feed.
  static MetricsRegistry& global();

  /// Gates the macros (not direct calls). Off by default so uninstrumented
  /// runs pay one relaxed load per macro site.
  static bool enabled();
  void set_enabled(bool enabled);

  void counter_add(std::string_view name, std::int64_t delta);
  void gauge_set(std::string_view name, std::int64_t value);
  void histogram_record(std::string_view name, std::int64_t value);

  /// Merged view across all shards. Safe to call while other threads
  /// update; updates racing the snapshot land in the next one.
  MetricsSnapshot snapshot() const;

  /// Drops every recorded value (shards stay registered).
  void reset();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  struct Gauge {
    std::uint64_t seq = 0;
    std::int64_t value = 0;
  };

  struct Shard {
    std::mutex mu;  // owner-held on update, registry-held on snapshot/reset
    std::map<std::string, std::int64_t> counters;
    std::map<std::string, Gauge> gauges;
    std::map<std::string, HistogramData> histograms;
  };

  Shard& local_shard();

  const std::uint64_t id_ = next_id();
  static std::uint64_t next_id();

  mutable std::mutex shards_mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Composes a per-instance metric lane name: "subsystem.name" when `scope`
/// is empty, "subsystem.scope.name" otherwise (e.g. lane_name("serve",
/// "shard2", "completed") -> "serve.shard2.completed"). Call sites that
/// record on a hot path precompose the lane names once (the serving engine
/// builds its set at construction) instead of concatenating per record.
std::string lane_name(std::string_view subsystem, std::string_view scope,
                      std::string_view name);

namespace detail {
inline std::atomic<bool> g_metrics_enabled{false};
}

inline bool MetricsRegistry::enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

}  // namespace mocha::obs

#define MOCHA_METRIC_ADD(name, delta)                                     \
  do {                                                                    \
    if (::mocha::obs::MetricsRegistry::enabled()) {                       \
      ::mocha::obs::MetricsRegistry::global().counter_add(                \
          (name), static_cast<std::int64_t>(delta));                      \
    }                                                                     \
  } while (false)
#define MOCHA_METRIC_GAUGE(name, value)                                   \
  do {                                                                    \
    if (::mocha::obs::MetricsRegistry::enabled()) {                       \
      ::mocha::obs::MetricsRegistry::global().gauge_set(                  \
          (name), static_cast<std::int64_t>(value));                      \
    }                                                                     \
  } while (false)
#define MOCHA_METRIC_HIST(name, value)                                    \
  do {                                                                    \
    if (::mocha::obs::MetricsRegistry::enabled()) {                       \
      ::mocha::obs::MetricsRegistry::global().histogram_record(           \
          (name), static_cast<std::int64_t>(value));                      \
    }                                                                     \
  } while (false)
