// mocha_sim — command-line front end for the simulator.
//
//   mocha_sim [--network alexnet|vgg16|lenet5|nin|mobilenet] [--accelerator mocha|tiling|
//             merge|parallel|nextbest] [--objective edp|cycles|energy]
//             [--batch N] [--sram-kib N] [--pe N] [--clock-mhz N]
//             [--no-compression] [--huffman] [--json] [--plan]
//             [--trace FILE] [--metrics]
//
// Examples:
//   mocha_sim --network alexnet                         # MOCHA, defaults
//   mocha_sim --network vgg16 --accelerator nextbest    # best fixed baseline
//   mocha_sim --network alexnet --batch 8 --json        # machine-readable
//   mocha_sim --network alexnet --trace trace.json      # chrome://tracing
//   mocha_sim --network alexnet --fault-kill 0.25       # degraded fabric
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include <fstream>

#include "baseline/baselines.hpp"
#include "core/accelerator.hpp"
#include "core/morph.hpp"
#include "core/report_json.hpp"
#include "dataflow/schedule.hpp"
#include "fault/model.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json_parse.hpp"
#include "util/cli.hpp"
#include "util/cpuid.hpp"
#include "serve/signal.hpp"
#include "sim/dot.hpp"
#include "util/table.hpp"

namespace {

struct Args {
  std::string network = "alexnet";
  std::string accelerator = "mocha";
  std::string objective = "edp";
  mocha::nn::Index batch = 1;
  std::int64_t sram_kib = 0;  // 0 = default
  int pe = 0;                 // 0 = default
  double clock_mhz = 0;       // 0 = default
  bool no_compression = false;
  bool huffman = false;
  bool json = false;
  bool show_plan = false;
  bool metrics = false;   // collect and print a MetricsRegistry snapshot
  bool critpath = false;  // per-group critical-path summary in the report
  bool trace_flows = false;  // dependence-edge flow events in the trace
  std::string slack_hints_file;  // mocha.hints.v1 planner bias (mocha only)
  std::string dot_file;   // export the first group's schedule as Graphviz
  std::string trace_file; // write a Chrome trace-event JSON of the run
  std::string faults_file;  // JSON fault scenario (fault/model.hpp)
  double fault_kill = 0.0;  // random scenario killing this fraction
  std::uint64_t fault_seed = 42;
};

constexpr const char* kUsage =
    " [--network alexnet|vgg16|lenet5|nin|mobilenet] [--accelerator "
    "mocha|tiling|merge|parallel|nextbest]\n"
    "       [--objective edp|cycles|energy] [--batch N] [--sram-kib N] "
    "[--pe N] [--clock-mhz N]\n"
    "       [--no-compression] [--huffman] [--json] [--plan] "
    "[--dot FILE]\n"
    "       [--trace FILE] [--trace-flows] [--metrics] "
    "[--isa scalar|avx2|neon]\n"
    "       [--critpath] [--slack-hints FILE]\n"
    "       [--faults FILE] [--fault-kill FRAC] [--fault-seed N]\n";

Args parse(int argc, char** argv) {
  Args args;
  mocha::util::ArgParser cli(argc, argv, kUsage);
  while (cli.next()) {
    const std::string& flag = cli.flag();
    if (flag == "--network") {
      args.network = cli.value();
    } else if (flag == "--accelerator") {
      args.accelerator = cli.value();
    } else if (flag == "--objective") {
      args.objective = cli.value();
    } else if (flag == "--batch") {
      args.batch = cli.int_value(1, 1 << 20);
    } else if (flag == "--sram-kib") {
      args.sram_kib = cli.int_value(1, 1 << 24);
    } else if (flag == "--pe") {
      args.pe = static_cast<int>(cli.int_value(1, 4096));
    } else if (flag == "--clock-mhz") {
      args.clock_mhz = cli.double_value(1e-3, 1e6);
    } else if (flag == "--no-compression") {
      args.no_compression = true;
    } else if (flag == "--huffman") {
      args.huffman = true;
    } else if (flag == "--json") {
      args.json = true;
    } else if (flag == "--plan") {
      args.show_plan = true;
    } else if (flag == "--dot") {
      args.dot_file = cli.value();
    } else if (flag == "--trace") {
      args.trace_file = cli.value();
    } else if (flag == "--metrics") {
      args.metrics = true;
    } else if (flag == "--critpath") {
      args.critpath = true;
    } else if (flag == "--trace-flows") {
      args.trace_flows = true;
    } else if (flag == "--slack-hints") {
      args.slack_hints_file = cli.value();
    } else if (flag == "--faults") {
      args.faults_file = cli.value();
    } else if (flag == "--fault-kill") {
      args.fault_kill = cli.double_value(0.0, 0.95);
    } else if (flag == "--fault-seed") {
      args.fault_seed = static_cast<std::uint64_t>(
          cli.int_value(0, std::numeric_limits<std::int64_t>::max()));
    } else if (flag == "--isa") {
      // Kernel/codec dispatch override, same values as MOCHA_KERNEL_ISA.
      // Parse errors are a CLI problem (exit 2); an unsupported-but-valid
      // ISA is a host/build problem and stays the hard MOCHA_CHECK.
      const std::string text = cli.value();
      mocha::util::KernelIsa isa;
      if (!mocha::util::parse_isa(text, &isa)) {
        cli.fail("--isa expects scalar|avx2|neon, got '" + text + "'");
      }
      mocha::util::force_isa(isa);
    } else if (flag == "--help" || flag == "-h") {
      cli.usage();
    } else {
      cli.fail("unknown flag: " + flag);
    }
  }
  if (!args.faults_file.empty() && args.fault_kill > 0.0) {
    cli.fail("--faults and --fault-kill are mutually exclusive");
  }
  if (args.trace_flows && args.trace_file.empty()) {
    cli.fail("--trace-flows requires --trace");
  }
  if (!args.slack_hints_file.empty() && args.accelerator != "mocha") {
    cli.fail("--slack-hints only applies to --accelerator mocha");
  }
  return args;
}

}  // namespace

namespace {

/// Loads a mocha.hints.v1 document (written by `mocha_critpath --emit-hints`)
/// into a per-layer criticality vector for MorphOptions. Any structural
/// problem is a CLI-input error: explain on stderr, return false.
bool load_slack_hints(const std::string& path, const mocha::nn::Network& net,
                      std::vector<double>* out) {
  using mocha::util::JsonValue;
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot read slack hints " << path << "\n";
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  JsonValue doc;
  try {
    doc = mocha::util::parse_json(buffer.str());
  } catch (const mocha::CheckFailure& e) {
    std::cerr << "error: bad slack hints " << path << ": " << e.what() << "\n";
    return false;
  }
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || schema->string != "mocha.hints.v1") {
    std::cerr << "error: " << path << " is not a mocha.hints.v1 document\n";
    return false;
  }
  const JsonValue* hint_net = doc.find("network");
  if (hint_net != nullptr && hint_net->string != net.name) {
    // Stale hints silently biasing the wrong network would be a debugging
    // trap; a mismatch is a hard error, not a warning.
    std::cerr << "error: slack hints are for network '" << hint_net->string
              << "', simulating '" << net.name << "'\n";
    return false;
  }
  const JsonValue* layers = doc.find("layers");
  if (layers == nullptr || !layers->is_array()) {
    std::cerr << "error: " << path << " has no layers array\n";
    return false;
  }
  std::vector<double> hints(net.layers.size(), 0.0);
  for (const JsonValue& entry : layers->array) {
    const JsonValue* layer = entry.find("layer");
    const JsonValue* crit = entry.find("criticality");
    if (layer == nullptr || crit == nullptr) {
      std::cerr << "error: " << path
                << ": each layer entry needs 'layer' and 'criticality'\n";
      return false;
    }
    const double idx = layer->number;
    if (idx < 0 || idx >= static_cast<double>(hints.size()) ||
        idx != static_cast<double>(static_cast<std::size_t>(idx))) {
      std::cerr << "error: " << path << ": layer index " << idx
                << " outside network (" << hints.size() << " layers)\n";
      return false;
    }
    if (!std::isfinite(crit->number) || crit->number < 0.0 ||
        crit->number > 1.0) {
      std::cerr << "error: " << path << ": criticality " << crit->number
                << " outside [0, 1]\n";
      return false;
    }
    hints[static_cast<std::size_t>(idx)] = crit->number;
  }
  *out = std::move(hints);
  return true;
}

int run(const Args& args) {
  using namespace mocha;

  std::optional<nn::Network> named = nn::make_network(args.network);
  if (!named) {
    std::cerr << "unknown network: " << args.network << "\n";
    return 2;
  }
  nn::Network net = std::move(*named);

  const std::optional<core::Objective> objective =
      core::objective_from_name(args.objective);
  if (!objective) {
    std::cerr << "unknown objective: " << args.objective << "\n";
    return 2;
  }

  // Fault spec, if any — parsed once; the random scenario is drawn per
  // config inside customize() so it matches whichever base geometry the
  // selected accelerator uses.
  bool inject = !args.faults_file.empty() || args.fault_kill > 0.0;
  fault::FaultModel file_faults;
  if (!args.faults_file.empty()) {
    std::ifstream in(args.faults_file);
    if (!in) {
      std::cerr << "error: cannot read fault spec " << args.faults_file
                << "\n";
      return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    try {
      file_faults = fault::FaultModel::from_json(buffer.str());
    } catch (const CheckFailure& e) {
      std::cerr << "error: bad fault spec " << args.faults_file << ": "
                << e.what() << "\n";
      return 2;
    }
  }

  std::string fault_summary;  // for the manifest; set by customize()
  auto customize = [&](fabric::FabricConfig config) {
    if (args.sram_kib > 0) config.sram_bytes = args.sram_kib * 1024;
    if (args.pe > 0) config.pe_rows = config.pe_cols = args.pe;
    if (args.clock_mhz > 0) config.clock_ghz = args.clock_mhz / 1000.0;
    if (inject) {
      const fault::FaultModel faults =
          args.faults_file.empty()
              ? fault::FaultModel::random_scenario(config, args.fault_kill,
                                                   args.fault_seed)
              : file_faults;
      fault_summary = faults.summary(config);
      if (args.metrics) fault::record_metrics(config, faults);
      config = fault::degraded_config(config, faults);
    }
    return config;
  };

  if (args.metrics) obs::MetricsRegistry::global().set_enabled(true);
  // The session flushes to disk when it goes out of scope, after the run.
  std::unique_ptr<obs::TraceSession> trace;
  if (!args.trace_file.empty()) {
    trace = std::make_unique<obs::TraceSession>(args.trace_file);
    // Dependence-edge flow events are opt-in: they roughly double the event
    // count and older trace consumers may not expect ph:"s"/"f" records.
    if (args.trace_flows) trace->set_sim_flows(true);
  }

  // Ctrl-C / SIGTERM mid-simulation: flush the trace collected so far (the
  // write is atomic tmp+rename, so an interrupted run still leaves a
  // parseable document) and exit cleanly. A second signal force-kills.
  // The mutex closes a shutdown race: a signal landing while the main
  // thread is already inside the end-of-run trace.reset() must not _Exit
  // until that final write has hit disk.
  std::mutex trace_mu;
  serve::SignalDrain drain([&trace, &trace_mu] {
    std::lock_guard<std::mutex> lock(trace_mu);
    if (trace) trace->flush();
    std::cerr << "mocha_sim: interrupted; partial trace flushed\n";
  });

  // The config the selected accelerator actually ran with, for the manifest.
  fabric::FabricConfig used_config = customize(fabric::mocha_default_config());

  core::RunReport report;
  if (args.accelerator == "mocha") {
    core::MorphOptions options;
    options.objective = *objective;
    options.allow_compression = !args.no_compression;
    options.allow_huffman = args.huffman;
    if (!args.slack_hints_file.empty() &&
        !load_slack_hints(args.slack_hints_file, net,
                          &options.layer_criticality)) {
      return 2;
    }
    const core::Accelerator acc(
        customize(fabric::mocha_default_config()), model::default_tech(),
        std::make_shared<core::MorphController>(model::default_tech(),
                                                options));
    // Accelerator::run, split so --plan/--dot reuse the one planner pass.
    const auto stats = core::assumed_stats(net, nn::SparsityProfile{});
    const dataflow::NetworkPlan plan = acc.plan(net, stats, args.batch);
    report = acc.run_with_plan(net, plan, stats, args.batch);
    used_config = acc.config();
    if (args.show_plan) {
      for (std::size_t i = 0; i < plan.layers.size(); ++i) {
        std::cerr << net.layers[i].name << ": " << plan.layers[i].summary()
                  << "\n";
      }
    }
    if (!args.dot_file.empty()) {
      // Export the first scheduled group's executed task graph.
      const auto group = plan.fusion_groups().front();
      dataflow::BuiltSchedule built = dataflow::build_group_schedule(
          net, plan, group, acc.config(), stats, args.batch);
      sim::Engine(built.layout.specs).run(built.graph);
      std::ofstream out(args.dot_file);
      out << sim::to_dot(built.graph, built.layout.specs);
      std::cerr << "wrote " << args.dot_file << " ("
                << built.graph.size() << " tasks)\n";
    }
  } else if (args.accelerator == "nextbest") {
    baseline::NextBest best =
        baseline::next_best(net, model::default_tech(), *objective);
    used_config =
        fabric::baseline_config(baseline::strategy_name(best.strategy));
    report = std::move(best.report);
  } else {
    baseline::Strategy strategy;
    if (args.accelerator == "tiling") {
      strategy = baseline::Strategy::TilingOnly;
    } else if (args.accelerator == "merge") {
      strategy = baseline::Strategy::MergeOnly;
    } else if (args.accelerator == "parallel") {
      strategy = baseline::Strategy::ParallelOnly;
    } else {
      std::cerr << "unknown accelerator: " << args.accelerator << "\n";
      return 2;
    }
    const core::Accelerator acc = baseline::make_baseline_accelerator(
        strategy, customize(fabric::baseline_config(args.accelerator)),
        model::default_tech(), *objective);
    report = acc.run(net, {}, args.batch);
    used_config = acc.config();
  }

  {
    // Flush the trace file before reporting, holding the drain mutex so a
    // signal arriving mid-write waits for the complete document.
    std::lock_guard<std::mutex> lock(trace_mu);
    trace.reset();
  }

  obs::RunManifest manifest = obs::RunManifest::current("mocha_sim");
  manifest.network = args.network;
  manifest.accelerator = report.accelerator;
  manifest.objective = args.objective;
  manifest.batch = args.batch;
  manifest.sram_bytes = used_config.sram_bytes;
  manifest.pe_rows = used_config.pe_rows;
  manifest.pe_cols = used_config.pe_cols;
  manifest.clock_ghz = used_config.clock_ghz;
  manifest.fault_scenario = fault_summary;

  obs::MetricsSnapshot snapshot;
  if (args.metrics) snapshot = obs::MetricsRegistry::global().snapshot();

  if (args.json) {
    std::cout << core::report_to_json(report, &manifest,
                                      args.metrics ? &snapshot : nullptr,
                                      args.critpath)
              << "\n";
    return 0;
  }

  util::Table table({"group", "plan", "cycles", "GOPS", "uJ", "peak KiB"});
  for (const core::GroupReport& group : report.groups) {
    table.row()
        .cell(group.label)
        .cell(group.plan_summary)
        .cell(static_cast<long long>(group.cycles))
        .cell(group.throughput_gops(report.clock_ghz))
        .cell(group.energy.total_pj() / 1e6)
        .cell(static_cast<double>(group.peak_sram_bytes) / 1024.0, 1);
  }
  table.print(std::cout,
              report.accelerator + " / " + report.network + " (batch " +
                  std::to_string(args.batch) + ")");
  std::cout << "\ntotal: " << report.total_cycles << " cycles, "
            << report.runtime_ms() << " ms, " << report.throughput_gops()
            << " GOPS, " << report.efficiency_gops_per_w() << " GOPS/W, "
            << report.total_energy_pj * 1e-9 << " mJ, peak scratchpad "
            << static_cast<double>(report.peak_sram_bytes) / 1024.0
            << " KiB, sram_ok=" << (report.sram_ok ? "yes" : "no") << "\n";
  if (args.critpath) {
    // Bottleneck ranking: groups by cycle share, with each group's dominant
    // critical-path task kind and its contention gap (schedule makespan
    // minus the dependence-only critical path — cycles queueing would
    // reclaim with more resources).
    std::vector<std::size_t> order(report.groups.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return report.groups[a].cycles > report.groups[b].cycles;
                     });
    std::cout << "\ncritical-path bottlenecks (top "
              << std::min<std::size_t>(order.size(), 5) << " of "
              << order.size() << " groups):\n";
    for (std::size_t rank = 0; rank < order.size() && rank < 5; ++rank) {
      const core::GroupReport& group = report.groups[order[rank]];
      const double share =
          report.total_cycles == 0
              ? 0.0
              : 100.0 * static_cast<double>(group.cycles) /
                    static_cast<double>(report.total_cycles);
      std::cout << "  " << group.label << ": " << group.cycles << " cycles ("
                << share << "% of total), dominant kind "
                << group.critpath.dominant_kind << ", contention gap "
                << group.critpath.contention_gap << " cycles\n";
    }
  }
  if (args.metrics) {
    std::cout << "\nmetrics: " << snapshot.to_json() << "\n";
  }
  return report.sram_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const mocha::CheckFailure& e) {
    // An invariant tripped past argument validation — report it like a tool,
    // not a crash dump, and exit non-zero.
    std::cerr << "mocha_sim: " << e.what() << "\n";
    return 3;
  }
}
