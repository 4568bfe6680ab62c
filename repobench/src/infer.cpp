// infer: sequential batch-1 run_functional calls on AlexNet and
// MobileNet-v1 under the plans the planner chose in set-up, with default
// options (every coded stream encoded, decoded and compared). Kernels,
// codecs and the tiled executor do all the work; the planner does none.

#include <iostream>
#include <span>

#include "compress/codec.hpp"
#include "inputs.hpp"
#include "nn/reference.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

namespace repobench {

using mocha::nn::LayerKind;
using mocha::nn::Network;
using mocha::nn::ValueTensor;

namespace {

const char* kind_key(LayerKind kind) {
  switch (kind) {
    case LayerKind::Conv:
      return "conv";
    case LayerKind::DepthwiseConv:
      return "dwconv";
    case LayerKind::FullyConnected:
      return "fc";
    case LayerKind::Pool:
      return "pool";
  }
  return "pool";
}

std::string plan_key(const mocha::dataflow::NetworkPlan& plan) {
  std::string key;
  for (const auto& layer : plan.layers) {
    key += layer.summary() + (layer.fuse_with_next ? "+" : "|");
  }
  return key;
}

/// Encodes and decodes one stream through make_codec(kind), timed.
void time_codec(mocha::compress::CodecKind kind, const ValueTensor& stream,
                const std::string& where, Result& result, Layers* layers) {
  if (kind == mocha::compress::CodecKind::None || stream.empty()) return;
  const auto codec = mocha::compress::make_codec(kind);
  const std::span<const mocha::nn::Value> values(stream.data(),
                                                 stream.storage().size());
  const double t0 = now_s();
  const std::vector<std::uint8_t> coded = codec->encode(values);
  const double t1 = now_s();
  const std::vector<mocha::nn::Value> decoded =
      codec->decode(coded, values.size());
  const double t2 = now_s();
  if (decoded != stream.storage()) {
    result.wrong(where + ": " + codec->name() + " round trip differs");
  }
  const std::string key = std::string("compress.") + codec->name();
  accumulate(layers, key + ".raw_bytes",
             static_cast<double>(values.size_bytes()));
  accumulate(layers, key + ".coded_bytes", static_cast<double>(coded.size()));
  accumulate(layers, key + ".encode_s", t1 - t0);
  accumulate(layers, key + ".decode_s", t2 - t1);
}

}  // namespace

mocha::dataflow::FunctionalResult run_executor(
    const Network& net, const mocha::dataflow::NetworkPlan& plan,
    const ValueTensor& input, const std::vector<ValueTensor>& weights,
    const mocha::dataflow::FunctionalOptions& options, double* seconds,
    Result& result, Layers* layers, double* cpu_seconds) {
  const double c0 = cpu_s();
  const double t0 = now_s();
  mocha::dataflow::FunctionalResult out =
      mocha::dataflow::run_functional(net, plan, input, weights, options);
  *seconds = now_s() - t0;
  if (cpu_seconds != nullptr) *cpu_seconds = cpu_s() - c0;
  if (layers == nullptr) return out;
  accumulate(layers, "dataflow.exec_s", *seconds);
  accumulate(layers, "dataflow.exec_calls", 1);
  accumulate(layers, "dataflow.exec_macs",
             static_cast<double>(net.total_macs()));
  for (std::size_t l = 0; l < net.layers.size(); ++l) {
    const auto& layer = net.layers[l];
    const ValueTensor& in = l == 0 ? input : out.outputs[l - 1];
    const double k0 = now_s();
    const ValueTensor ref =
        mocha::nn::run_layer_ref(in, weights[l], layer, options.quant);
    const double dt = now_s() - k0;
    if (ref != out.outputs[l]) {
      result.wrong(net.name + "/" + layer.name +
                   ": executor differs from run_layer_ref");
    }
    const std::string kind = kind_key(layer.kind);
    accumulate(layers, "nn.kernel_s", dt);
    accumulate(layers, "nn." + kind + "_s", dt);
    accumulate(layers, "nn." + kind + "_macs",
               static_cast<double>(layer.macs()));
    const auto& lp = plan.layers[l];
    const std::string where = net.name + "/" + layer.name;
    time_codec(lp.ifmap_codec, in, where, result, layers);
    time_codec(lp.kernel_codec, weights[l], where, result, layers);
    time_codec(lp.ofmap_codec, out.outputs[l], where, result, layers);
  }
  return out;
}

bool check_outputs(const Network& net, const ValueTensor& input,
                   const std::vector<ValueTensor>& weights,
                   const std::vector<ValueTensor>& got, Result& result) {
  const std::vector<ValueTensor> want = oracle::run_network(
      net, input, weights, mocha::nn::Quant{}.frac_shift, thread_budget());
  for (std::size_t l = 0; l < want.size(); ++l) {
    if (l >= got.size() || got[l] != want[l]) {
      result.wrong(net.name + "/" + net.layers[l].name +
                   ": differs from oracle");
      return false;
    }
  }
  const Liveness live = check_liveness(net, want);
  if (!live.problem.empty()) {
    result.wrong(live.problem);
    return false;
  }
  return true;
}

Result run_infer(const Options& options, Layers* layers) {
  Result result;
  const std::vector<Network> nets = {mocha::nn::make_alexnet(),
                                     mocha::nn::make_mobilenet_v1()};
  std::vector<std::vector<ValueTensor>> weights;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    weights.push_back(make_weights(nets[i], mix_seed(kModelSeed, 10, i)));
  }
  const mocha::core::Accelerator acc = make_accelerator();

  // Set-up: plan both networks, repeated (the plans must repeat too); the
  // median CPU time is reported.
  std::vector<mocha::dataflow::NetworkPlan> plans;
  std::vector<double> setups;
  for (int rep = 0; rep < 3; ++rep) {
    const double c0 = cpu_s();
    std::vector<mocha::dataflow::NetworkPlan> chosen;
    for (const Network& net : nets) {
      chosen.push_back(acc.plan(net, assumed_stats(net)));
    }
    setups.push_back(cpu_s() - c0);
    for (std::size_t i = 0; i < plans.size(); ++i) {
      if (plan_key(chosen[i]) != plan_key(plans[i])) {
        result.wrong(nets[i].name + ": plan differs between set-ups");
      }
    }
    plans = std::move(chosen);
  }

  // Measured: one fresh seeded image per call, AlexNet then MobileNet-v1
  // per round. The oracle check runs between calls, outside the timing.
  const mocha::dataflow::FunctionalOptions exec_options;
  double measured = 0;
  double cpu = 0;
  std::uint64_t image = 0;
  while (image == 0 || measured < options.seconds) {
    for (std::size_t i = 0; i < nets.size(); ++i, ++image) {
      const ValueTensor input =
          make_image(nets[i], mix_seed(options.seed, 3, image));
      double seconds = 0;
      double cpu_seconds = 0;
      const auto out =
          run_executor(nets[i], plans[i], input, weights[i], exec_options,
                       &seconds, result, layers, &cpu_seconds);
      cpu += cpu_seconds;
      ++result.attempted;
      measured += seconds;
      check_outputs(nets[i], input, weights[i], out.outputs, result);
      if (image < nets.size()) {
        const Liveness live = check_liveness(nets[i], out.outputs);
        std::cerr << "zero fraction by layer, " << nets[i].name << ":";
        for (double z : live.zero_fraction) std::cerr << " " << z;
        std::cerr << "\n";
      }
    }
  }

  // The chosen plans, simulated and replayed (a traced run plans again
  // through plan_result, which must choose the same plans).
  std::vector<mocha::core::RunReport> reports;
  for (std::size_t i = 0; i < nets.size(); ++i) {
    Planned planned;
    if (layers != nullptr) {
      planned = plan_and_simulate(acc, nets[i], layers);
      if (plan_key(planned.plan) != plan_key(plans[i])) {
        result.wrong(nets[i].name + ": traced planning chose another plan");
      }
    } else {
      planned.plan = plans[i];
      planned.report =
          acc.run_with_plan(nets[i], plans[i], assumed_stats(nets[i]));
    }
    check_plan(acc, nets[i], planned, result, layers);
    reports.push_back(planned.report);
  }

  result.add("setup_s", median(setups), "s");
  result.add("cpu_ms_per_op",
             1e3 * cpu / static_cast<double>(result.attempted), "ms");
  add_sim_metrics(result, reports);
  return result;
}

}  // namespace repobench
