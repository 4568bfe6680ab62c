// E15 — graceful-degradation figure: kill a growing fraction of the
// fabric's PEs, SRAM banks, and codec engines, and compare
//
//   * re-morphed MOCHA — the morph controller plans against the surviving
//     resources (fault::degraded_config), steering tile shapes, parallelism
//     and codecs around the damage; vs.
//   * fixed plan — the healthy-fabric plan replayed on the degraded fabric,
//     what a fixed-function accelerator (or one without a re-planning
//     controller) is stuck with. Its over-split parallelism time-multiplexes
//     onto the surviving PE groups and its working set may no longer fit
//     the shrunken scratchpad.
//
// The harness is self-asserting: at >= 25% resource loss the re-morphed
// plan must strictly beat the fixed plan in throughput, or the binary exits
// non-zero (this is the paper's "morphability = graceful degradation"
// claim, and the degradation_smoke ctest keeps it true).
//
//   fig_degradation [--smoke] [--out FILE]
#include <fstream>

#include "common.hpp"
#include "core/morph.hpp"
#include "fault/model.hpp"
#include "obs/manifest.hpp"
#include "obs/sink.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

struct Point {
  std::string network;
  double kill_fraction = 0;
  std::string scenario_summary;
  std::string scenario_json;
  double mocha_gops = 0;
  double fixed_gops = 0;
  bool mocha_sram_ok = true;
  bool fixed_sram_ok = true;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mocha;

  bool smoke = false;
  std::string out_path;
  util::ArgParser cli(argc, argv, " [--smoke] [--out FILE]\n");
  while (cli.next()) {
    if (cli.flag() == "--smoke") {
      smoke = true;
    } else if (cli.flag() == "--out") {
      out_path = cli.value();
      if (out_path.empty()) cli.fail("--out expects a path");
    } else {
      cli.fail("unknown flag: " + cli.flag());
    }
  }

  const std::vector<double> fractions =
      smoke ? std::vector<double>{0.0, 0.25, 0.5}
            : std::vector<double>{0.0, 0.25, 0.5, 0.75};
  std::vector<nn::Network> nets;
  nets.push_back(nn::make_alexnet());
  if (!smoke) nets.push_back(nn::make_vgg16());

  const fabric::FabricConfig base = fabric::mocha_default_config();
  const model::TechParams tech = model::default_tech();
  const auto planner = std::make_shared<core::MorphController>(
      tech, core::MorphOptions{});

  std::vector<Point> points;
  bool degraded_wins = true;
  util::Table table({"network", "killed %", "scenario", "mocha GOPS",
                     "fixed-plan GOPS", "gain %", "fixed fits"});
  for (const nn::Network& net : nets) {
    const auto stats = core::assumed_stats(net, nn::SparsityProfile{});
    // The plan a healthy fabric would choose — frozen, then replayed on
    // every degraded configuration below.
    const core::Accelerator healthy(base, tech, planner);
    const dataflow::NetworkPlan healthy_plan = healthy.plan(net, stats);

    for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
      const double frac = fractions[fi];
      fault::FaultModel scenario;
      if (frac > 0.0) {
        scenario = fault::FaultModel::random_scenario(
            base, frac, 42 + static_cast<std::uint64_t>(fi));
      }
      const fabric::FabricConfig degraded =
          fault::degraded_config(base, scenario);
      fault::record_metrics(base, scenario);

      const core::RunReport morphed =
          core::Accelerator(degraded, tech, planner).run(net);
      const core::RunReport fixed =
          core::Accelerator(degraded, tech, planner)
              .run_with_plan(net, healthy_plan, stats);

      Point p;
      p.network = net.name;
      p.kill_fraction = frac;
      p.scenario_summary = scenario.summary(base);
      p.scenario_json = scenario.to_json();
      p.mocha_gops = morphed.throughput_gops();
      p.fixed_gops = fixed.throughput_gops();
      p.mocha_sram_ok = morphed.sram_ok;
      p.fixed_sram_ok = fixed.sram_ok;
      points.push_back(p);

      if (frac >= 0.25 && p.mocha_gops <= p.fixed_gops) {
        degraded_wins = false;
        std::cerr << "FAIL: " << net.name << " at " << frac * 100
                  << "% loss: re-morphed " << p.mocha_gops
                  << " GOPS <= fixed-plan " << p.fixed_gops << " GOPS\n";
      }

      table.row()
          .cell(p.network)
          .cell(frac * 100, 0)
          .cell(p.scenario_summary)
          .cell(p.mocha_gops)
          .cell(p.fixed_gops)
          .cell((p.mocha_gops / p.fixed_gops - 1.0) * 100, 1)
          .cell(p.fixed_sram_ok ? "yes" : "no");
    }
  }
  bench::emit(table, "E15: graceful degradation (re-morphed vs fixed plan)");

  if (!out_path.empty()) {
    obs::RunManifest manifest = obs::RunManifest::current("fig_degradation");
    manifest.accelerator = "mocha";
    manifest.objective = "edp";
    util::JsonWriter json;
    json.begin_object();
    json.key("schema").value("mocha.e15.v1");
    json.key("manifest");
    manifest.write_json(json);
    json.key("smoke").value(smoke);
    json.key("series").begin_array();
    for (const Point& p : points) {
      json.begin_object();
      json.key("network").value(p.network);
      json.key("kill_fraction").value(p.kill_fraction);
      json.key("scenario").value(p.scenario_json);
      json.key("scenario_summary").value(p.scenario_summary);
      json.key("mocha_gops").value(p.mocha_gops);
      json.key("fixed_gops").value(p.fixed_gops);
      json.key("mocha_sram_ok").value(p.mocha_sram_ok);
      json.key("fixed_sram_ok").value(p.fixed_sram_ok);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    if (!mocha::obs::write_file_atomic(out_path, json.str() + "\n")) {
      std::cerr << "error: cannot write " << out_path << "\n";
      return 1;
    }
    std::cout << "wrote " << out_path << "\n";
  }

  return degraded_wins ? 0 : 1;
}
