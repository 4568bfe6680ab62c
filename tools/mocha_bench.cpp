// Reproducible parallel-performance benchmark: times the hot paths — the
// functional executor, the morph planner, and the fleet of simulated
// accelerators — at 1/2/N threads and emits BENCH_parallel.json so the perf
// trajectory is tracked from PR to PR.
//
// Every workload returns a checksum over its results; the harness asserts
// the checksum is identical at every thread count, so a speedup that costs
// determinism cannot be reported as a win.
//
// Usage:
//   mocha_bench [--smoke] [--out BENCH_parallel.json] [--threads 1,2,8]
//               [--isa scalar|avx2|neon]
//
// --smoke shrinks the workloads to seconds (wired as the `bench_smoke` ctest
// entry so the harness and the JSON emitter cannot rot). The default thread
// sweep never exceeds the host's hardware_concurrency — numbers beyond it
// measure oversubscription, not scaling — but --threads can ask for any
// series. --isa forces the kernel/codec dispatch (same as MOCHA_KERNEL_ISA);
// the dispatched ISA is recorded in every record and in the manifest.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/morph.hpp"
#include "dataflow/executor.hpp"
#include "nn/generate.hpp"
#include "nn/reference.hpp"
#include "obs/manifest.hpp"
#include "obs/sink.hpp"
#include "util/cli.hpp"
#include "util/cpuid.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace mocha::bench {
namespace {

using dataflow::LayerPlan;
using dataflow::NetworkPlan;
using nn::Index;
using nn::Value;
using nn::ValueTensor;

/// FNV-1a over anything the workloads want folded into their checksum.
class Checksum {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void tensor(const ValueTensor& t) {
    bytes(t.data(), static_cast<std::size_t>(t.size()) * sizeof(Value));
  }
  void integer(std::int64_t v) { bytes(&v, sizeof(v)); }
  void text(const std::string& s) { bytes(s.data(), s.size()); }

  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

double time_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

struct Record {
  std::string workload;
  int threads = 1;
  double wall_ms = 0;
  double speedup = 1.0;
  std::string checksum;
  /// What the host actually offers (0 when the runtime cannot tell) and
  /// whether this record asked for more lanes than that — oversubscribed
  /// points are real measurements but not scaling evidence.
  int hw_threads = 0;
  bool oversubscribed = false;
  /// Which kernel/codec ISA variant the dispatch routed to — numbers from
  /// different variants are different benchmarks.
  std::string kernel_isa;
};

/// A workload is a deterministic callable returning its result checksum.
struct Workload {
  std::string name;
  std::function<std::string()> run;
  /// Thread-scaling workloads run at every requested count; single-shot
  /// workloads (e.g. the checked-vs-unchecked accessor delta) run once.
  bool sweep_threads = true;
};

/// Times `workload` at each thread count (min of `reps` runs) and checks
/// the result checksum never changes with the thread count. Thread counts
/// beyond the host's hardware_concurrency still run (the scaling series
/// stays complete) but are flagged per record and collected in `warnings`,
/// so a "regression" at 4 threads on a 1-core CI box reads as what it is.
void measure(const Workload& workload, const std::vector<int>& thread_counts,
             int reps, std::vector<Record>* records,
             std::vector<std::string>* warnings) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  double serial_ms = 0;
  std::string reference_checksum;
  const std::vector<int> counts =
      workload.sweep_threads ? thread_counts : std::vector<int>{1};
  for (int threads : counts) {
    util::ThreadPool::set_global_threads(threads);
    std::string checksum;
    double best_ms = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
      best_ms = std::min(best_ms, time_ms([&] { checksum = workload.run(); }));
    }
    if (reference_checksum.empty()) {
      reference_checksum = checksum;
      serial_ms = best_ms;
    }
    MOCHA_CHECK(checksum == reference_checksum,
                workload.name << ": checksum changed at " << threads
                              << " threads — parallel run is not equivalent");
    Record record;
    record.workload = workload.name;
    record.threads = threads;
    record.wall_ms = best_ms;
    record.speedup = best_ms > 0 ? serial_ms / best_ms : 1.0;
    record.checksum = checksum;
    record.hw_threads = hw;
    record.oversubscribed = hw > 0 && threads > hw;
    record.kernel_isa = util::isa_name(util::active_isa());
    if (record.oversubscribed) {
      std::string warning = workload.name + ": " + std::to_string(threads) +
                            " threads requested on a machine with " +
                            std::to_string(hw) +
                            " hardware threads; timing is oversubscribed";
      std::cerr << "warning: " << warning << "\n";
      warnings->push_back(std::move(warning));
    }
    records->push_back(record);
    std::cout << workload.name << "  threads=" << threads << "  wall_ms="
              << best_ms << "  speedup=" << record.speedup << "\n";
  }
  util::ThreadPool::set_global_threads(1);
}

/// VGG-style conv stack (3x3 kernels, pooling between blocks) executed
/// functionally with spatial tiling and real codec round-trips — the E1..E10
/// regeneration hot path.
Workload executor_workload(bool smoke) {
  return {"executor_vgg", [smoke] {
    const nn::Network net =
        smoke ? nn::make_synthetic("vgg_smoke", 16, 16, {16, 32}, 3, true)
              : nn::make_synthetic("vgg_style", 56, 56, {64, 128, 256}, 3,
                                   true);
    util::Rng rng(17);
    const ValueTensor input =
        nn::random_tensor(net.layers.front().input_shape(), 0.3, rng);
    const auto weights = nn::random_weights(net, 0.25, rng);
    NetworkPlan plan;
    for (const nn::LayerSpec& layer : net.layers) {
      LayerPlan lp;
      // Quarter tiles give a 4x4 grid per layer; real codecs on every
      // stream so the measurement path is the one the tests rely on.
      lp.tile = {std::max<Index>(1, (layer.out_h() + 3) / 4),
                 std::max<Index>(1, (layer.out_w() + 3) / 4), layer.in_c,
                 layer.out_channels()};
      lp.ifmap_codec = compress::CodecKind::Zrle;
      lp.kernel_codec = layer.has_weights() ? compress::CodecKind::Bitmask
                                            : compress::CodecKind::None;
      lp.ofmap_codec = compress::CodecKind::Zrle;
      plan.layers.push_back(lp);
    }
    // Encode-only codec measurement: the coded byte counts (and hence this
    // workload's checksum) are identical with or without the decode+compare
    // verification, which the integration tests keep enabled.
    dataflow::FunctionalOptions options;
    options.verify_codecs = false;
    const dataflow::FunctionalResult result =
        dataflow::run_functional(net, plan, input, weights, options);
    Checksum sum;
    sum.tensor(result.outputs.back());
    for (const dataflow::MeasuredStreams& streams : result.streams) {
      sum.integer(streams.ifmap_coded);
      sum.integer(streams.kernel_coded);
      sum.integer(streams.ofmap_coded);
    }
    return sum.hex();
  }};
}

/// The morph controller's full candidate search (analytical sweep + exact
/// refinement) — the planner hot path.
Workload planner_workload(bool smoke) {
  return {"planner_alexnet", [smoke] {
    const nn::Network net = smoke ? nn::make_lenet5() : nn::make_alexnet();
    const auto stats = core::assumed_stats(net, {});
    const core::MorphController morph(model::default_tech(),
                                      core::MorphOptions{});
    const NetworkPlan plan =
        morph.plan(net, fabric::mocha_default_config(), stats);
    Checksum sum;
    for (const LayerPlan& lp : plan.layers) sum.text(lp.summary());
    return sum.hex();
  }};
}

/// The comparative fleet (MOCHA + three baselines) planned and simulated on
/// one network — the figure-harness hot path, parallel across accelerators.
Workload fleet_workload(bool smoke) {
  return {"fleet_sim", [smoke] {
    const nn::Network net = smoke ? nn::make_lenet5() : nn::make_alexnet();
    const Fleet fleet = Fleet::make();
    const FleetRuns runs = run_fleet(fleet, net);
    Checksum sum;
    sum.integer(static_cast<std::int64_t>(runs.mocha.total_cycles));
    sum.integer(runs.mocha.total_dram_bytes);
    for (const auto& [strategy, report] : runs.baselines) {
      sum.integer(static_cast<std::int64_t>(report.total_cycles));
      sum.integer(report.total_dram_bytes);
    }
    return sum.hex();
  }};
}

/// One conv layer through the packed microkernels (the reference entry
/// point) at a given input sparsity — tracks the raw compute backend from
/// PR to PR. The dense variant measures the interior fast path; the
/// 90%-sparse variant additionally exercises the zero-row skipping.
Workload micro_kernel_workload(bool smoke, const char* name,
                               double sparsity) {
  const Index side = smoke ? 16 : 56;
  const Index in_c = smoke ? 8 : 64;
  return {name, [side, in_c, sparsity] {
    const nn::LayerSpec layer =
        nn::conv_layer("bench_conv", in_c, side, side, 64, 3, 1, 1);
    util::Rng rng(29);
    const ValueTensor input =
        nn::random_tensor(layer.input_shape(), sparsity, rng);
    const ValueTensor weights =
        nn::random_tensor(layer.weight_shape(), 0.25, rng, -8, 8);
    ValueTensor out;
    for (int rep = 0; rep < 4; ++rep) {
      out = nn::conv2d_ref(input, weights, layer, nn::Quant{});
    }
    Checksum sum;
    sum.tensor(out);
    return sum.hex();
  }};
}

/// Checked at() walk over a large tensor — baseline for the accessor delta.
Workload access_checked_workload(bool smoke) {
  const Index side = smoke ? 64 : 256;
  return {"tensor_at_checked", [side] {
    util::Rng rng(5);
    const ValueTensor t =
        nn::random_tensor({1, 32, side, side}, 0.3, rng);
    std::int64_t sum = 0;
    for (int rep = 0; rep < 4; ++rep) {
      for (Index c = 0; c < t.shape().c; ++c) {
        for (Index y = 0; y < t.shape().h; ++y) {
          for (Index x = 0; x < t.shape().w; ++x) {
            sum += t.at(0, c, y, x);
          }
        }
      }
    }
    Checksum check;
    check.integer(sum);
    return check.hex();
  }, /*sweep_threads=*/false};
}

/// The same walk through at_unchecked — the measured win of the hot-loop
/// accessor used by the executor and reference kernels.
Workload access_unchecked_workload(bool smoke) {
  const Index side = smoke ? 64 : 256;
  return {"tensor_at_unchecked", [side] {
    util::Rng rng(5);
    const ValueTensor t =
        nn::random_tensor({1, 32, side, side}, 0.3, rng);
    std::int64_t sum = 0;
    for (int rep = 0; rep < 4; ++rep) {
      for (Index c = 0; c < t.shape().c; ++c) {
        for (Index y = 0; y < t.shape().h; ++y) {
          for (Index x = 0; x < t.shape().w; ++x) {
            sum += t.at_unchecked(0, c, y, x);
          }
        }
      }
    }
    Checksum check;
    check.integer(sum);
    return check.hex();
  }, /*sweep_threads=*/false};
}

void emit_json(const std::vector<Record>& records,
               const std::vector<std::string>& warnings, bool smoke,
               const std::string& path) {
  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value("mocha.bench.parallel.v1");
  json.key("manifest");
  obs::RunManifest::current("mocha_bench").write_json(json);
  json.key("smoke").value(smoke);
  json.key("hardware_concurrency")
      .value(static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  json.key("warnings").begin_array();
  for (const std::string& warning : warnings) json.value(warning);
  json.end_array();
  json.key("records").begin_array();
  for (const Record& record : records) {
    json.begin_object();
    json.key("workload").value(record.workload);
    json.key("threads").value(record.threads);
    json.key("hw_threads").value(record.hw_threads);
    json.key("oversubscribed").value(record.oversubscribed);
    json.key("wall_ms").value(record.wall_ms);
    json.key("speedup").value(record.speedup);
    json.key("checksum").value(record.checksum);
    json.key("kernel_isa").value(record.kernel_isa);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  MOCHA_CHECK(mocha::obs::write_file_atomic(path, json.str() + "\n"),
              "cannot write " << path);
  std::cout << "wrote " << path << "\n";
}

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_parallel.json";
  std::vector<int> thread_override;
  util::ArgParser cli(argc, argv,
                      " [--smoke] [--out path] [--threads 1,2,8] "
                      "[--isa scalar|avx2|neon]\n");
  while (cli.next()) {
    const std::string& flag = cli.flag();
    if (flag == "--smoke") {
      smoke = true;
    } else if (flag == "--out") {
      out_path = cli.value();
      if (out_path.empty()) cli.fail("--out expects a path");
    } else if (flag == "--threads") {
      thread_override = cli.int_list_value(1, 1 << 16);
    } else if (flag == "--isa") {
      const std::string text = cli.value();
      util::KernelIsa isa;
      if (!util::parse_isa(text, &isa)) {
        cli.fail("--isa expects scalar|avx2|neon, got '" + text + "'");
      }
      util::force_isa(isa);  // hard error if not runnable here
    } else {
      cli.fail("unknown flag: " + flag);
    }
  }

  // Default sweep: 1, 2, and "all the machine has", capped at the host's
  // hardware_concurrency — counts beyond it measure oversubscription, not
  // scaling. --threads overrides uncapped (the oversubscription warnings
  // then say what the numbers mean).
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  std::vector<int> thread_counts = thread_override;
  if (thread_counts.empty()) {
    for (int t : {1, 2, hw}) {
      if (t <= hw) thread_counts.push_back(t);
    }
    thread_counts.erase(
        std::unique(thread_counts.begin(), thread_counts.end()),
        thread_counts.end());
  }
  const int reps = smoke ? 1 : 3;

  std::vector<Record> records;
  std::vector<std::string> warnings;
  for (const Workload& workload :
       {executor_workload(smoke), planner_workload(smoke),
        fleet_workload(smoke),
        micro_kernel_workload(smoke, "micro_kernels_dense", 0.0),
        micro_kernel_workload(smoke, "micro_kernels_sparse90", 0.9),
        access_checked_workload(smoke), access_unchecked_workload(smoke)}) {
    measure(workload, thread_counts, reps, &records, &warnings);
  }
  emit_json(records, warnings, smoke, out_path);
  return 0;
}

}  // namespace
}  // namespace mocha::bench

int main(int argc, char** argv) {
  try {
    return mocha::bench::run(argc, argv);
  } catch (const mocha::CheckFailure& e) {
    std::cerr << "mocha_bench: " << e.what() << "\n";
    return 3;
  }
}
