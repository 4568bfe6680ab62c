// mocha_critpath — trace-driven critical-path analysis and what-if slack
// profiling over the MOCHA planner's committed schedules.
//
//   mocha_critpath [--network alexnet|vgg16|lenet5|nin|mobilenet]
//                  [--objective edp|cycles|energy] [--batch N]
//                  [--sram-kib N] [--pe N] [--clock-mhz N]
//                  [--no-compression] [--huffman]
//                  [--what-if SPEC]... [--top-k N]
//                  [--out FILE] [--emit-hints FILE] [--trace FILE]
//                  [--isa scalar|avx2|neon]
//
// Plans the network with the morph controller, executes every fusion
// group's task graph in the discrete-event engine, and reconstructs the
// dependence graph into a critical-path report (obs/critpath.hpp): the
// schedule-critical chain, the CPM dependence bound, per-resource slack,
// and top-k bottleneck layers/kinds. Each --what-if scenario ("unbounded",
// "dram_channels+1", "codec_units*2", "reconfig/2") is answered twice —
// analytically (a [predicted, upper_bound] band, exact for unbounded) and
// by replaying the engine with the modified ResourceSpec list — and the
// two are reported side by side in a mocha.critpath.v1 JSON document.
//
// Exit codes: 0 ok, 2 bad arguments, 3 internal invariant failure,
// 5 a what-if replay landed outside its analytic band (model and engine
// disagree — the documented tolerance admits no slack there).
//
// --emit-hints writes a mocha.hints.v1 per-layer criticality file that
// `mocha_sim --slack-hints` feeds back into the planner; --trace writes a
// Chrome trace with dependence-edge flow events enabled, the critical
// chain flagged with category "critical".
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/accelerator.hpp"
#include "core/morph.hpp"
#include "dataflow/schedule.hpp"
#include "obs/critpath.hpp"
#include "obs/manifest.hpp"
#include "obs/trace.hpp"
#include "serve/signal.hpp"
#include "sim/trace.hpp"
#include "util/cli.hpp"
#include "util/cpuid.hpp"
#include "util/json.hpp"

namespace {

struct Args {
  std::string network = "alexnet";
  std::string objective = "edp";
  mocha::nn::Index batch = 1;
  std::int64_t sram_kib = 0;  // 0 = default
  int pe = 0;                 // 0 = default
  double clock_mhz = 0;       // 0 = default
  bool no_compression = false;
  bool huffman = false;
  int top_k = 5;                      // bottleneck list length
  std::vector<std::string> what_ifs;  // empty = the default sweep
  std::string out_file;               // report destination ("" = stdout)
  std::string hints_file;             // mocha.hints.v1 destination
  std::string trace_file;             // Chrome trace with flow events
};

constexpr const char* kUsage =
    " [--network alexnet|vgg16|lenet5|nin|mobilenet]\n"
    "       [--objective edp|cycles|energy] [--batch N] [--sram-kib N] "
    "[--pe N] [--clock-mhz N]\n"
    "       [--no-compression] [--huffman] [--top-k N]\n"
    "       [--what-if unbounded|RES+N|RES*K|KIND/F]...\n"
    "       [--out FILE] [--emit-hints FILE] [--trace FILE] "
    "[--isa scalar|avx2|neon]\n";

Args parse(int argc, char** argv) {
  Args args;
  mocha::util::ArgParser cli(argc, argv, kUsage);
  while (cli.next()) {
    const std::string& flag = cli.flag();
    if (flag == "--network") {
      args.network = cli.value();
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
    } else if (flag == "--top-k") {
      args.top_k = static_cast<int>(cli.int_value(1, 100));
    } else if (flag == "--what-if") {
      const std::string spec = cli.value();
      // Validate the grammar now so a typo is a CLI error, not a mid-run
      // abort after minutes of planning.
      try {
        (void)mocha::obs::parse_what_if(spec);
      } catch (const mocha::CheckFailure& e) {
        cli.fail(e.what());
      }
      args.what_ifs.push_back(spec);
    } else if (flag == "--out") {
      args.out_file = cli.value();
    } else if (flag == "--emit-hints") {
      args.hints_file = cli.value();
    } else if (flag == "--trace") {
      args.trace_file = cli.value();
    } else if (flag == "--isa") {
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
  return args;
}

}  // namespace

namespace {

using mocha::sim::Cycle;

/// Everything the report needs about one executed fusion group.
struct GroupAnalysis {
  std::size_t index = 0;
  std::size_t first_layer = 0;
  std::size_t last_layer = 0;
  std::string label;
  Cycle makespan = 0;
  std::int64_t reconfig_cycles = 0;
  mocha::obs::CritPathReport report;
  std::vector<mocha::obs::WhatIfOutcome> outcomes;
  /// (layer, duration) per schedule-critical chain step, attributed by the
  /// task label's layer.
  std::vector<std::pair<std::size_t, Cycle>> step_layers;
  /// Kind and [start, finish) of every chain step, for the JSON path array.
  std::vector<mocha::sim::TaskKind> step_kinds;
  std::vector<std::pair<Cycle, Cycle>> step_times;
  std::vector<std::string> step_labels;
};

/// Aggregated view of one what-if across all groups: group makespans are
/// summed (groups execute back to back), the fixed per-group reconfig
/// charge rides along — scaled exactly for a reconfig speedup scenario,
/// unchanged otherwise.
struct WhatIfTotal {
  std::string name;
  bool applicable = false;
  bool exact = true;
  bool within_bounds = true;
  Cycle baseline = 0;
  Cycle predicted = 0;
  Cycle upper_bound = 0;
  Cycle replayed = 0;
};

std::int64_t scaled_reconfig(const mocha::obs::WhatIf& spec,
                             std::int64_t reconfig) {
  if (spec.kind == mocha::obs::WhatIf::Kind::Speed &&
      spec.task_kind == mocha::sim::TaskKind::Reconfig && reconfig > 0) {
    return static_cast<std::int64_t>(
        std::ceil(static_cast<double>(reconfig) / spec.speed_factor));
  }
  return reconfig;
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

  fabric::FabricConfig config = fabric::mocha_default_config();
  if (args.sram_kib > 0) config.sram_bytes = args.sram_kib * 1024;
  if (args.pe > 0) config.pe_rows = config.pe_cols = args.pe;
  if (args.clock_mhz > 0) config.clock_ghz = args.clock_mhz / 1000.0;
  config.validate();

  // The what-if sweep: the ISSUE's canonical questions by default —
  // contention-free headroom, one more DMA channel, doubled codec
  // bandwidth, doubled compute parallelism, and a 2x faster config bus.
  std::vector<obs::WhatIf> what_ifs;
  if (args.what_ifs.empty()) {
    what_ifs.push_back(obs::what_if_unbounded());
    what_ifs.push_back(obs::what_if_capacity_add("dram_channels", 1));
    what_ifs.push_back(obs::what_if_capacity_scale("codec_units", 2.0));
    what_ifs.push_back(obs::what_if_capacity_scale("pe_groups", 2.0));
    what_ifs.push_back(obs::what_if_speed(sim::TaskKind::Reconfig, 2.0));
  } else {
    for (const std::string& spec : args.what_ifs) {
      what_ifs.push_back(obs::parse_what_if(spec));
    }
  }

  std::unique_ptr<obs::TraceSession> trace;
  if (!args.trace_file.empty()) {
    trace = std::make_unique<obs::TraceSession>(args.trace_file);
    // The whole point of this tool's trace: dependence edges as flow
    // events, critical-chain edges in their own category.
    trace->set_sim_flows(true);
  }
  std::mutex trace_mu;
  serve::SignalDrain drain([&trace, &trace_mu] {
    std::lock_guard<std::mutex> lock(trace_mu);
    if (trace) trace->flush();
    std::cerr << "mocha_critpath: interrupted; partial trace flushed\n";
  });

  const core::MorphController planner(model::default_tech(), [&] {
    core::MorphOptions options;
    options.objective = *objective;
    options.allow_compression = !args.no_compression;
    options.allow_huffman = args.huffman;
    return options;
  }());
  const auto stats = core::assumed_stats(net, nn::SparsityProfile{});
  const dataflow::NetworkPlan plan =
      planner.plan(net, config, stats, args.batch);
  const auto groups = plan.fusion_groups();

  std::vector<GroupAnalysis> analyses;
  analyses.reserve(groups.size());
  Cycle total_cycles = 0;
  std::int64_t total_reconfig = 0;
  std::vector<Cycle> layer_critical(net.layers.size(), 0);
  // Kind totals across groups, index-aligned by enum value.
  constexpr sim::TaskKind kKinds[] = {
      sim::TaskKind::DmaLoad,  sim::TaskKind::DmaStore,
      sim::TaskKind::Decompress, sim::TaskKind::Compress,
      sim::TaskKind::Compute,  sim::TaskKind::Reconfig,
      sim::TaskKind::Barrier,
  };
  std::vector<Cycle> kind_critical(std::size(kKinds), 0);
  std::vector<Cycle> kind_total(std::size(kKinds), 0);
  auto kind_index = [&](sim::TaskKind kind) {
    for (std::size_t k = 0; k < std::size(kKinds); ++k) {
      if (kKinds[k] == kind) return k;
    }
    return std::size(kKinds) - 1;
  };

  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const auto& group = groups[gi];
    dataflow::BuiltSchedule built =
        dataflow::build_group_schedule(net, plan, group, config, stats,
                                       args.batch);
    const sim::Engine engine(built.layout.specs);
    const sim::RunResult result = engine.run(built.graph, /*detailed=*/true);

    GroupAnalysis ga;
    ga.index = gi;
    ga.first_layer = group.first;
    ga.last_layer = group.last;
    ga.label = net.layers[group.first].name;
    for (std::size_t l = group.first + 1; l <= group.last; ++l) {
      ga.label += "+" + net.layers[l].name;
    }
    ga.makespan = result.makespan;
    ga.reconfig_cycles = core::group_reconfig_cycles(config, plan, group.first);
    ga.report = obs::analyze_critical_path(built.graph, result);

    if (trace) {
      // Same lane layout as the accelerator's committed-run emission: the
      // context load precedes the group on the sequencer lane, then the
      // group's tasks, then the offset advances past its makespan.
      std::lock_guard<std::mutex> lock(trace_mu);
      if (ga.reconfig_cycles > 0) {
        trace->sim_event("sequencer", "reconfig " + ga.label, "Reconfig", 0,
                         static_cast<Cycle>(ga.reconfig_cycles));
      }
      trace->set_sim_offset(trace->sim_offset() +
                            static_cast<Cycle>(ga.reconfig_cycles));
      sim::TraceEmitOptions emit_options;
      emit_options.group = static_cast<std::int64_t>(gi);
      emit_options.on_critical_path = &ga.report.on_path;
      sim::emit_trace(built.graph, built.layout.specs, trace.get(),
                      emit_options);
      trace->set_sim_offset(trace->sim_offset() + result.makespan);
    }

    for (const obs::CritStep& step : ga.report.path) {
      const sim::Task& task = built.graph.task(step.task);
      const Cycle duration = task.finish - task.start;
      // Tasks without a layer (group barriers) attribute to the group head.
      const std::size_t layer =
          task.label.layer == sim::TaskLabel::kUnset
              ? group.first
              : static_cast<std::size_t>(task.label.layer);
      layer_critical[layer] += duration;
      ga.step_layers.emplace_back(layer, duration);
      ga.step_kinds.push_back(task.kind);
      ga.step_times.emplace_back(task.start, task.finish);
      ga.step_labels.push_back(task.label.str());
    }
    for (const obs::CritKind& kind : ga.report.kinds) {
      kind_critical[kind_index(kind.kind)] += kind.critical_cycles;
      kind_total[kind_index(kind.kind)] += kind.total_cycles;
    }

    ga.outcomes.reserve(what_ifs.size());
    for (const obs::WhatIf& spec : what_ifs) {
      ga.outcomes.push_back(obs::evaluate_what_if(built.graph, result, spec));
    }

    total_cycles += result.makespan + static_cast<Cycle>(ga.reconfig_cycles);
    total_reconfig += ga.reconfig_cycles;
    analyses.push_back(std::move(ga));
  }

  {
    std::lock_guard<std::mutex> lock(trace_mu);
    trace.reset();
  }

  // Aggregate each what-if across groups.
  std::vector<WhatIfTotal> totals(what_ifs.size());
  bool diverged = false;
  for (std::size_t s = 0; s < what_ifs.size(); ++s) {
    WhatIfTotal& total = totals[s];
    total.name = what_ifs[s].name;
    for (const GroupAnalysis& ga : analyses) {
      const obs::WhatIfOutcome& o = ga.outcomes[s];
      const std::int64_t reconfig =
          scaled_reconfig(what_ifs[s], ga.reconfig_cycles);
      total.baseline += o.baseline + static_cast<Cycle>(ga.reconfig_cycles);
      total.predicted += o.predicted + static_cast<Cycle>(reconfig);
      total.upper_bound += o.upper_bound + static_cast<Cycle>(reconfig);
      total.replayed += o.replayed + static_cast<Cycle>(reconfig);
      total.applicable =
          total.applicable || o.applicable ||
          reconfig != ga.reconfig_cycles;  // reconfig charge was scaled
      total.exact = total.exact && o.exact;
      total.within_bounds = total.within_bounds && o.within_bounds;
      if (!o.within_bounds) {
        std::cerr << "mocha_critpath: what-if '" << o.name << "' on group "
                  << ga.index << " (" << ga.label << "): replayed "
                  << o.replayed << " outside analytic band [" << o.predicted
                  << ", " << o.upper_bound << "]\n";
        diverged = true;
      }
    }
  }

  obs::RunManifest manifest = obs::RunManifest::current("mocha_critpath");
  manifest.network = args.network;
  manifest.accelerator = config.name;
  manifest.objective = args.objective;
  manifest.batch = args.batch;
  manifest.sram_bytes = config.sram_bytes;
  manifest.pe_rows = config.pe_rows;
  manifest.pe_cols = config.pe_cols;
  manifest.clock_ghz = config.clock_ghz;

  // ---- mocha.critpath.v1 report ---------------------------------------
  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value("mocha.critpath.v1");
  json.key("manifest");
  manifest.write_json(json);
  json.key("total_cycles").value(static_cast<std::uint64_t>(total_cycles));
  json.key("reconfig_cycles").value(total_reconfig);

  json.key("groups").begin_array();
  for (const GroupAnalysis& ga : analyses) {
    const obs::CritPathReport& cp = ga.report;
    json.begin_object();
    json.key("group").value(static_cast<std::int64_t>(ga.index));
    json.key("label").value(ga.label);
    json.key("first_layer").value(static_cast<std::int64_t>(ga.first_layer));
    json.key("last_layer").value(static_cast<std::int64_t>(ga.last_layer));
    json.key("makespan").value(static_cast<std::uint64_t>(cp.makespan));
    json.key("reconfig_cycles").value(ga.reconfig_cycles);
    json.key("dep_critical_cycles")
        .value(static_cast<std::uint64_t>(cp.dep_critical_cycles));
    json.key("contention_gap")
        .value(static_cast<std::uint64_t>(cp.contention_gap));
    json.key("queue_entered_cycles")
        .value(static_cast<std::uint64_t>(cp.queue_entered_cycles));
    json.key("path_complete").value(cp.path_complete);
    json.key("path").begin_array();
    for (std::size_t i = 0; i < cp.path.size(); ++i) {
      json.begin_object();
      json.key("task").value(static_cast<std::int64_t>(cp.path[i].task));
      json.key("entered_by").value(obs::crit_edge_name(cp.path[i].entered_by));
      json.key("kind").value(sim::task_kind_name(ga.step_kinds[i]));
      json.key("label").value(ga.step_labels[i]);
      json.key("layer").value(static_cast<std::int64_t>(ga.step_layers[i].first));
      json.key("start").value(static_cast<std::uint64_t>(ga.step_times[i].first));
      json.key("finish")
          .value(static_cast<std::uint64_t>(ga.step_times[i].second));
      json.end_object();
    }
    json.end_array();
    json.key("kinds").begin_array();
    for (const obs::CritKind& kind : cp.kinds) {
      json.begin_object();
      json.key("kind").value(sim::task_kind_name(kind.kind));
      json.key("critical_cycles")
          .value(static_cast<std::uint64_t>(kind.critical_cycles));
      json.key("total_cycles")
          .value(static_cast<std::uint64_t>(kind.total_cycles));
      json.end_object();
    }
    json.end_array();
    json.key("resources").begin_array();
    for (const obs::CritResource& res : cp.resources) {
      json.begin_object();
      json.key("name").value(res.name);
      json.key("capacity").value(static_cast<std::int64_t>(res.capacity));
      json.key("busy_cycles").value(static_cast<std::uint64_t>(res.busy_cycles));
      json.key("critical_cycles")
          .value(static_cast<std::uint64_t>(res.critical_cycles));
      json.key("queue_wait_cycles")
          .value(static_cast<std::uint64_t>(res.queue_wait_cycles));
      json.key("min_slack").value(static_cast<std::uint64_t>(res.min_slack));
      json.key("mean_slack").value(res.mean_slack);
      json.key("utilization").value(res.utilization);
      json.key("bound_tasks").value(res.bound_tasks);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();

  // Top-k bottleneck layers by critical-chain cycles.
  Cycle critical_sum = 0;
  for (Cycle c : layer_critical) critical_sum += c;
  std::vector<std::size_t> layer_order;
  for (std::size_t l = 0; l < layer_critical.size(); ++l) {
    if (layer_critical[l] > 0) layer_order.push_back(l);
  }
  std::stable_sort(layer_order.begin(), layer_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return layer_critical[a] > layer_critical[b];
                   });
  json.key("bottleneck_layers").begin_array();
  for (std::size_t rank = 0;
       rank < layer_order.size() && rank < static_cast<std::size_t>(args.top_k);
       ++rank) {
    const std::size_t l = layer_order[rank];
    json.begin_object();
    json.key("layer").value(static_cast<std::int64_t>(l));
    json.key("name").value(net.layers[l].name);
    json.key("critical_cycles")
        .value(static_cast<std::uint64_t>(layer_critical[l]));
    json.key("share").value(critical_sum == 0
                                ? 0.0
                                : static_cast<double>(layer_critical[l]) /
                                      static_cast<double>(critical_sum));
    json.end_object();
  }
  json.end_array();

  std::vector<std::size_t> kind_order;
  for (std::size_t k = 0; k < std::size(kKinds); ++k) {
    if (kind_total[k] > 0) kind_order.push_back(k);
  }
  std::stable_sort(kind_order.begin(), kind_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return kind_critical[a] > kind_critical[b];
                   });
  json.key("bottleneck_kinds").begin_array();
  for (std::size_t rank = 0;
       rank < kind_order.size() && rank < static_cast<std::size_t>(args.top_k);
       ++rank) {
    const std::size_t k = kind_order[rank];
    json.begin_object();
    json.key("kind").value(sim::task_kind_name(kKinds[k]));
    json.key("critical_cycles")
        .value(static_cast<std::uint64_t>(kind_critical[k]));
    json.key("total_cycles").value(static_cast<std::uint64_t>(kind_total[k]));
    json.end_object();
  }
  json.end_array();

  json.key("what_if").begin_array();
  for (std::size_t s = 0; s < what_ifs.size(); ++s) {
    const WhatIfTotal& total = totals[s];
    json.begin_object();
    json.key("name").value(total.name);
    json.key("applicable").value(total.applicable);
    json.key("exact").value(total.exact);
    json.key("within_bounds").value(total.within_bounds);
    json.key("baseline_cycles").value(static_cast<std::uint64_t>(total.baseline));
    json.key("predicted_cycles")
        .value(static_cast<std::uint64_t>(total.predicted));
    json.key("upper_bound_cycles")
        .value(static_cast<std::uint64_t>(total.upper_bound));
    json.key("replayed_cycles").value(static_cast<std::uint64_t>(total.replayed));
    json.key("predicted_speedup")
        .value(total.predicted == 0 ? 1.0
                                    : static_cast<double>(total.baseline) /
                                          static_cast<double>(total.predicted));
    json.key("replayed_speedup")
        .value(total.replayed == 0 ? 1.0
                                   : static_cast<double>(total.baseline) /
                                         static_cast<double>(total.replayed));
    json.key("groups").begin_array();
    for (const GroupAnalysis& ga : analyses) {
      const obs::WhatIfOutcome& o = ga.outcomes[s];
      json.begin_object();
      json.key("group").value(static_cast<std::int64_t>(ga.index));
      json.key("applicable").value(o.applicable);
      json.key("exact").value(o.exact);
      json.key("within_bounds").value(o.within_bounds);
      json.key("baseline").value(static_cast<std::uint64_t>(o.baseline));
      json.key("predicted").value(static_cast<std::uint64_t>(o.predicted));
      json.key("upper_bound").value(static_cast<std::uint64_t>(o.upper_bound));
      json.key("replayed").value(static_cast<std::uint64_t>(o.replayed));
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();

  if (args.out_file.empty()) {
    std::cout << json.str() << "\n";
  } else {
    std::ofstream out(args.out_file);
    if (!out) {
      std::cerr << "error: cannot write " << args.out_file << "\n";
      return 2;
    }
    out << json.str() << "\n";
  }

  if (!args.hints_file.empty()) {
    // mocha.hints.v1: per-layer criticality normalized to the most critical
    // layer, consumed by `mocha_sim --slack-hints`.
    Cycle max_critical = 0;
    for (Cycle c : layer_critical) max_critical = std::max(max_critical, c);
    util::JsonWriter hints;
    hints.begin_object();
    hints.key("schema").value("mocha.hints.v1");
    hints.key("network").value(net.name);
    hints.key("layers").begin_array();
    for (std::size_t l = 0; l < net.layers.size(); ++l) {
      hints.begin_object();
      hints.key("layer").value(static_cast<std::int64_t>(l));
      hints.key("name").value(net.layers[l].name);
      hints.key("criticality")
          .value(max_critical == 0
                     ? 0.0
                     : static_cast<double>(layer_critical[l]) /
                           static_cast<double>(max_critical));
      hints.end_object();
    }
    hints.end_array();
    hints.end_object();
    std::ofstream out(args.hints_file);
    if (!out) {
      std::cerr << "error: cannot write " << args.hints_file << "\n";
      return 2;
    }
    out << hints.str() << "\n";
  }

  // Human summary on stdout when the JSON went to a file.
  if (!args.out_file.empty()) {
    std::cout << args.network << ": " << total_cycles << " cycles across "
              << analyses.size() << " groups";
    if (!layer_order.empty()) {
      std::cout << "; top bottleneck layer " << net.layers[layer_order[0]].name
                << " (" << layer_critical[layer_order[0]]
                << " critical cycles)";
    }
    std::cout << "\n";
    for (const WhatIfTotal& total : totals) {
      std::cout << "  what-if " << total.name << ": predicted ["
                << total.predicted << ", " << total.upper_bound
                << "], replayed " << total.replayed
                << (total.exact ? " (exact)" : "")
                << (total.within_bounds ? "" : "  ** OUT OF BOUNDS **")
                << "\n";
    }
    std::cout << "wrote " << args.out_file << "\n";
  }

  if (diverged) {
    std::cerr << "mocha_critpath: analytic prediction and engine replay "
                 "disagree (see above)\n";
    return 5;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const mocha::CheckFailure& e) {
    std::cerr << "mocha_critpath: " << e.what() << "\n";
    return 3;
  }
}
