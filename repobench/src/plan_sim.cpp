// plan_sim: MOCHA plans and simulates AlexNet, VGG-16 and MobileNet-v1
// through Accelerator::run, round after round. The planner (analytic
// enumeration plus exact DES refinement) and the final simulation do all the
// work; the executor, codecs and serving do none.

#include <sstream>

#include "core/morph.hpp"
#include "dataflow/schedule.hpp"
#include "workloads.hpp"

namespace repobench {

using mocha::core::Accelerator;
using mocha::core::RunReport;
using mocha::nn::Network;

Accelerator make_accelerator() { return mocha::core::make_mocha_accelerator(); }

std::vector<mocha::dataflow::LayerStreamStats> assumed_stats(
    const Network& net) {
  return mocha::core::assumed_stats(net, mocha::nn::SparsityProfile{});
}

namespace {

bool same_report(const RunReport& a, const RunReport& b) {
  if (a.total_cycles != b.total_cycles ||
      a.total_energy_pj != b.total_energy_pj ||
      a.total_dram_bytes != b.total_dram_bytes ||
      a.peak_sram_bytes != b.peak_sram_bytes ||
      a.groups.size() != b.groups.size()) {
    return false;
  }
  for (std::size_t g = 0; g < a.groups.size(); ++g) {
    if (a.groups[g].cycles != b.groups[g].cycles ||
        a.groups[g].plan_summary != b.groups[g].plan_summary) {
      return false;
    }
  }
  return true;
}

}  // namespace

Planned plan_and_simulate(const Accelerator& acc, const Network& net,
                          Layers* layers) {
  const auto stats = assumed_stats(net);
  Planned out;
  if (layers == nullptr) {
    out.plan = acc.plan(net, stats);
    out.report = acc.run_with_plan(net, out.plan, stats);
    return out;
  }
  const auto& morph =
      dynamic_cast<const mocha::core::MorphController&>(acc.planner());
  mocha::core::PlanTrace trace;
  const double t0 = now_s();
  out.plan = morph.plan_result(net, acc.config(), stats, 1, &trace).plan;
  const double t1 = now_s();
  out.report = acc.run_with_plan(net, out.plan, stats);
  const double t2 = now_s();
  accumulate(layers, "core.plan_s", t1 - t0);
  accumulate(layers, "core.simulate_s", t2 - t1);
  for (const mocha::core::GroupTrace& group : trace) {
    accumulate(layers, "core.analytic_candidates",
               static_cast<double>(group.analytical_candidates));
    accumulate(layers, "core.des_finalists",
               static_cast<double>(group.finalists.size()));
    if (group.finalists.size() >= 2) {
      accumulate(layers, "core.refined_groups", 1);
      // Finalists arrive in analytic rank order: an overturn is a DES
      // winner other than the analytic top-1.
      accumulate(layers, "core.refine_overturns",
                 group.finalists.front().chosen ? 0 : 1);
    }
  }
  return out;
}

void check_plan(const Accelerator& acc, const Network& net,
                const Planned& planned, Result& result, Layers* layers) {
  const auto& config = acc.config();
  const RunReport& report = planned.report;
  const auto stats = assumed_stats(net);
  const auto groups = planned.plan.fusion_groups();
  std::ostringstream bad;
  if (groups.size() != report.groups.size()) {
    bad << "group count " << groups.size() << " vs reported "
        << report.groups.size() << "; ";
  }
  for (std::size_t g = 0; g < groups.size() && g < report.groups.size();
       ++g) {
    const double t0 = now_s();
    mocha::dataflow::BuiltSchedule built =
        mocha::dataflow::build_group_schedule(net, planned.plan, groups[g],
                                              config, stats, 1);
    const double t1 = now_s();
    const mocha::sim::Engine engine(built.layout.specs);
    const mocha::sim::RunResult run = engine.run(built.graph, true);
    const double t2 = now_s();
    const auto& reported = report.groups[g];
    const auto cycles =
        run.makespan + static_cast<mocha::sim::Cycle>(
                           mocha::core::group_reconfig_cycles(
                               config, planned.plan, groups[g].first));
    if (cycles != reported.cycles) {
      bad << reported.label << " replayed " << cycles << " cycles vs reported "
          << reported.cycles << "; ";
    }
    if (static_cast<double>(reported.cycles) * config.dram_bytes_per_cycle <
        static_cast<double>(reported.dram_bytes)) {
      bad << reported.label << " moves " << reported.dram_bytes
          << " DRAM bytes in " << reported.cycles << " cycles; ";
    }
    accumulate(layers, "dataflow.schedule_build_s", t1 - t0);
    accumulate(layers, "sim.engine_s", t2 - t1);
    accumulate(layers, "sim.tasks", static_cast<double>(run.task_count));
    accumulate(layers, "sim.dram_bytes",
               static_cast<double>(reported.dram_bytes));
    accumulate(layers, "sim.pe_busy_cycles",
               reported.pe_utilization * static_cast<double>(run.makespan));
    accumulate(layers, "sim.cycles", static_cast<double>(run.makespan));
  }
  if (!report.sram_ok || report.peak_sram_bytes > config.sram_bytes) {
    bad << "peak storage " << report.peak_sram_bytes << " exceeds SRAM "
        << config.sram_bytes << "; ";
  }
  if (static_cast<double>(report.total_cycles) * config.dram_bytes_per_cycle <
      static_cast<double>(report.total_dram_bytes)) {
    bad << "cycles below DRAM bytes / bandwidth; ";
  }
  if (report.total_energy_pj < static_cast<double>(report.total_dram_bytes) *
                                   acc.tech().dram_pj_per_byte) {
    bad << "energy below DRAM bytes x DRAM energy per byte; ";
  }
  if (!bad.str().empty()) result.wrong(net.name + ": " + bad.str());
}

void add_sim_metrics(Result& result, const std::vector<RunReport>& reports) {
  double cycles = 0, energy_pj = 0, sram = 0;
  for (const RunReport& report : reports) {
    cycles += static_cast<double>(report.total_cycles);
    energy_pj += report.total_energy_pj;
    sram += static_cast<double>(report.peak_sram_bytes);
  }
  result.add("sim_mcycles", cycles / 1e6, "Mcycles");
  result.add("sim_energy_mj", energy_pj / 1e9, "mJ");
  result.add("sim_sram_kib", sram / 1024.0, "KiB");
}

Result run_plan_sim(const Options& options, Layers* layers) {
  Result result;
  const std::vector<Network> nets = {mocha::nn::make_alexnet(),
                                     mocha::nn::make_vgg16(),
                                     mocha::nn::make_mobilenet_v1()};
  // Set-up: the accelerator and a LeNet-5 warm-up run (thread pool, first
  // allocations), repeated; the median CPU time is reported.
  std::vector<double> setups;
  for (int rep = 0; rep < 5; ++rep) {
    const double c0 = cpu_s();
    const Accelerator warm = make_accelerator();
    warm.run(mocha::nn::make_lenet5());
    setups.push_back(cpu_s() - c0);
  }
  const Accelerator acc = make_accelerator();

  // Timed rounds. Untraced, each network goes through Accelerator::run; a
  // traced round times plan_result and run_with_plan apart (the same work).
  std::vector<RunReport> first;  // round 1; later rounds must repeat it
  std::vector<Planned> traced;   // round 1's plans, traced runs only
  int rounds = 0;
  double measured = 0;
  double cpu = 0;
  Layers round_layers;
  while (rounds == 0 || measured < options.seconds) {
    const double t0 = now_s();
    const double c0 = cpu_s();
    for (std::size_t i = 0; i < nets.size(); ++i) {
      RunReport report;
      if (layers == nullptr) {
        report = acc.run(nets[i]);
      } else {
        Planned planned = plan_and_simulate(acc, nets[i], &round_layers);
        report = planned.report;
        if (traced.size() < nets.size()) traced.push_back(std::move(planned));
      }
      if (first.size() < nets.size()) {
        first.push_back(std::move(report));
      } else if (!same_report(report, first[i])) {
        result.wrong(nets[i].name + ": report differs between rounds");
      }
      ++result.attempted;
    }
    ++rounds;
    measured += now_s() - t0;
    cpu += cpu_s() - c0;
  }

  // Checks, outside the timed rounds: replay each network's plan group by
  // group. Untraced rounds do not expose the plan, so it is planned again
  // here and must reproduce the report Accelerator::run gave.
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const Planned planned = layers != nullptr
                                ? std::move(traced[i])
                                : plan_and_simulate(acc, nets[i], nullptr);
    if (!same_report(planned.report, first[i])) {
      result.wrong(nets[i].name + ": plan + run_with_plan differs from run");
    }
    check_plan(acc, nets[i], planned, result, layers);
  }
  if (layers != nullptr) {
    // Planner spans per round: the mean over the run's rounds.
    for (const auto& [key, value] : round_layers) {
      (*layers)[key] += value / rounds;
    }
  }

  result.add("setup_s", median(setups), "s");
  result.add("cpu_ms_per_op",
             1e3 * cpu / static_cast<double>(result.attempted), "ms");
  add_sim_metrics(result, first);
  return result;
}

}  // namespace repobench
