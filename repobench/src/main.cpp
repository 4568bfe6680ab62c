// mocha_repobench: runs one workload of the repo benchmark and prints its
// result as one JSON line (the last line of standard output).
//
//   mocha_repobench --workload plan_sim|infer|serve [--seed N]
//                   [--seconds S] [--trace 0|1]
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// with the benchmark's spans around calls into each layer and reports the
// per-layer metrics, plus the traced run's end-to-end metrics under
// "end_to_end" (run.py subtracts the untraced run's to give the tracing
// overhead). See README.md.

#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <thread>

#include "inputs.hpp"
#include "oracle.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace repobench {

int thread_budget() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/// The codecs the default planner may assign (Huffman is off by default).
const char* const kCodecs[] = {"zrle", "bitmask"};

int usage() {
  std::cerr << "usage: mocha_repobench --workload plan_sim|infer|serve "
               "[--seed N] [--seconds S] [--trace 0|1]\n";
  return 2;
}

bool parse(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        options->workload = value;
      } else if (flag == "--seed") {
        options->seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        options->seconds = std::stod(value, &used);
        if (!(options->seconds > 0 && options->seconds <= 600)) return false;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        options->trace = value == "1";
      } else {
        return false;
      }
      if (used != 0 && used != value.size()) return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return options->workload == "plan_sim" || options->workload == "infer" ||
         options->workload == "serve";
}

/// Executor, kernel and codec layers on the serve models, for a traced run
/// whose workload does not execute networks.
void probe_executor(const Options& options, Result& result, Layers& layers) {
  const mocha::core::Accelerator acc = make_accelerator();
  const auto nets = serve_models();
  for (std::size_t m = 0; m < nets.size(); ++m) {
    const auto weights = make_weights(nets[m], mix_seed(kModelSeed, 20, m));
    const auto input = make_image(nets[m], mix_seed(options.seed, 31, m));
    const auto plan = acc.plan(nets[m], assumed_stats(nets[m]));
    double seconds = 0;
    const auto out = run_executor(nets[m], plan, input, weights, {}, &seconds,
                                  result, &layers);
    ++result.attempted;
    check_outputs(nets[m], input, weights, out.outputs, result);
  }
}

/// A short serve run, for a traced run whose workload does not serve.
void probe_serve(const Options& options, Result& result, Layers& layers) {
  Options probe = options;
  probe.seconds = 4;
  Layers serve_layers;
  mocha::util::ThreadPool::set_global_threads(1);
  const Result served = run_serve(probe, &serve_layers);
  result.correct = result.correct && served.correct;
  result.attempted += served.attempted;
  result.failed += served.failed;
  for (const auto& [key, value] : serve_layers) {
    if (key.rfind("serve.", 0) == 0) layers[key] = value;
  }
}

/// Turns the traced run's sums into the named per-layer metrics.
std::vector<Metric> per_layer_metrics(const Layers& sums) {
  auto get = [&](const std::string& key) {
    const auto it = sums.find(key);
    return it == sums.end() ? 0.0 : it->second;
  };
  std::vector<Metric> m;
  auto add = [&](const std::string& name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  add("core.plan_s", get("core.plan_s"), "s");
  add("core.simulate_s", get("core.simulate_s"), "s");
  add("core.analytic_candidates", get("core.analytic_candidates"), "count");
  add("core.des_finalists", get("core.des_finalists"), "count");
  add("core.refined_groups", get("core.refined_groups"), "count");
  add("core.refine_overturn_ratio",
      ratio(get("core.refine_overturns"), get("core.refined_groups")),
      "ratio");
  add("dataflow.schedule_build_s", get("dataflow.schedule_build_s"), "s");
  add("sim.engine_s", get("sim.engine_s"), "s");
  add("sim.tasks", get("sim.tasks"), "count");
  add("sim.tasks_per_s", ratio(get("sim.tasks"), get("sim.engine_s")), "1/s");
  add("sim.dram_mib", get("sim.dram_bytes") / kMiB, "MiB");
  add("sim.pe_util", ratio(get("sim.pe_busy_cycles"), get("sim.cycles")),
      "ratio");
  const double calls = get("dataflow.exec_calls");
  add("dataflow.exec_s", ratio(get("dataflow.exec_s"), calls), "s");
  add("nn.kernel_s", ratio(get("nn.kernel_s"), calls), "s");
  add("dataflow.exec_gmac_per_s",
      ratio(get("dataflow.exec_macs"), get("dataflow.exec_s")) / 1e9, "GMAC/s");
  add("dataflow.exec_over_kernel",
      ratio(get("dataflow.exec_s"), get("nn.kernel_s")), "ratio");
  for (const char* kind : {"conv", "dwconv", "fc"}) {
    const std::string k = std::string("nn.") + kind;
    add(k + "_gmac_per_s", ratio(get(k + "_macs"), get(k + "_s")) / 1e9,
        "GMAC/s");
  }
  double raw = 0, coded = 0, enc = 0, dec = 0;
  for (const char* codec : kCodecs) {
    const std::string k = std::string("compress.") + codec;
    raw += get(k + ".raw_bytes");
    coded += get(k + ".coded_bytes");
    enc += get(k + ".encode_s");
    dec += get(k + ".decode_s");
    add(k + ".encode_mib_per_s",
        ratio(get(k + ".raw_bytes"), get(k + ".encode_s")) / kMiB, "MiB/s");
    add(k + ".decode_mib_per_s",
        ratio(get(k + ".raw_bytes"), get(k + ".decode_s")) / kMiB, "MiB/s");
    add(k + ".raw_mib", get(k + ".raw_bytes") / kMiB, "MiB");
  }
  add("compress.encode_mib_per_s", ratio(raw, enc) / kMiB, "MiB/s");
  add("compress.decode_mib_per_s", ratio(raw, dec) / kMiB, "MiB/s");
  add("compress.coded_ratio", ratio(coded, raw), "ratio");
  add("compress.raw_mib", raw / kMiB, "MiB");
  add("serve.latency_ms_p50", get("serve.latency_ms_p50"), "ms");
  add("serve.latency_ms_p99", get("serve.latency_ms_p99"), "ms");
  add("serve.rps", get("serve.rps"), "1/s");
  add("serve.queue_ms_p50", get("serve.queue_ms_p50"), "ms");
  add("serve.queue_ms_p99", get("serve.queue_ms_p99"), "ms");
  add("serve.exec_ms_p50", get("serve.exec_ms_p50"), "ms");
  add("serve.route_ms_p99", get("serve.route_ms_p99"), "ms");
  add("serve.attempts_per_request", get("serve.attempts_per_request"),
      "ratio");
  add("serve.steals", get("serve.steals"), "count");
  add("serve.canaries", get("serve.canaries"), "count");
  add("serve.hedges", get("serve.hedges"), "count");
  add("serve.hedge_win_ratio", get("serve.hedge_win_ratio"), "ratio");
  add("serve.exec_inflation", get("serve.exec_inflation"), "ratio");
  add("serve.gen_lag_ms_p99", get("serve.gen_lag_ms_p99"), "ms");
  return m;
}

void print_metrics(const std::vector<Metric>& metrics) {
  std::printf("{");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}");
}

int run(const Options& options) {
  const std::string self = oracle::self_test();
  if (!self.empty()) {
    std::cerr << "oracle self-test failed: " << self << "\n";
    return 3;
  }
  // The serving fleet brings its own worker threads; its executor runs
  // serial inside each request so the whole run stays within the budget.
  mocha::util::ThreadPool::set_global_threads(
      options.workload == "serve" ? 1 : thread_budget());

  Layers sums;
  Layers* layers = options.trace ? &sums : nullptr;
  Result result = options.workload == "plan_sim" ? run_plan_sim(options, layers)
                  : options.workload == "infer"  ? run_infer(options, layers)
                                                 : run_serve(options, layers);
  result.add("peak_rss_mib", peak_rss_mib(), "MiB");
  if (options.trace) {
    if (sums.count("dataflow.exec_calls") == 0) {
      probe_executor(options, result, sums);
    }
    if (sums.count("serve.exec_ms_p50") == 0) {
      probe_serve(options, result, sums);
    }
    result.per_layer = per_layer_metrics(sums);
  }

  for (auto* metrics : {&result.end_to_end, &result.per_layer}) {
    for (Metric& m : *metrics) {
      if (!std::isfinite(m.value)) {
        result.wrong(m.name + " is not finite");
        m.value = 0;
      }
      std::cerr << m.name << " = " << m.value << " " << m.unit << "\n";
    }
  }
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": ",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  print_metrics(options.trace ? result.per_layer : result.end_to_end);
  if (options.trace) {
    std::printf(", \"end_to_end\": ");
    print_metrics(result.end_to_end);
  }
  std::printf("}\n");
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace repobench

int main(int argc, char** argv) {
  repobench::Options options;
  if (!repobench::parse(argc, argv, &options)) return repobench::usage();
  try {
    return repobench::run(options);
  } catch (const std::exception& e) {
    std::cerr << "mocha_repobench: " << e.what() << "\n";
    return 1;
  }
}
