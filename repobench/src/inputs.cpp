#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace repobench {

using mocha::nn::Index;
using mocha::nn::LayerKind;
using mocha::nn::Value;
using mocha::nn::ValueTensor;

namespace {

// Weight range h = kGain * 256 / sqrt(fan_in). With post-ReLU inputs of
// spread s, a layer's pre-activation spread is about h * sqrt(fan_in) * s /
// (256 * sqrt(3)) over the unpruned share; kGain = sqrt(6 / (1 - kPrune))
// keeps the post-ReLU spread level from layer to layer.
constexpr double kPrune = 0.2;
const double kGain = std::sqrt(6.0 / (1.0 - kPrune));

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Index fan_in(const mocha::nn::LayerSpec& layer) {
  switch (layer.kind) {
    case LayerKind::Conv:
      return layer.in_c * layer.kernel * layer.kernel;
    case LayerKind::DepthwiseConv:
      return layer.kernel * layer.kernel;
    case LayerKind::FullyConnected:
      return layer.ifmap_elems();
    case LayerKind::Pool:
      return 0;
  }
  return 0;
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag,
                       std::uint64_t index) {
  std::uint64_t state = seed * 0x100000001B3ull ^ (tag << 32) ^ index;
  splitmix(state);
  return splitmix(state);
}

std::vector<ValueTensor> make_weights(const mocha::nn::Network& net,
                                      std::uint64_t seed) {
  std::vector<ValueTensor> weights;
  weights.reserve(net.layers.size());
  for (std::size_t l = 0; l < net.layers.size(); ++l) {
    const auto& layer = net.layers[l];
    if (!layer.has_weights()) {
      weights.emplace_back();
      continue;
    }
    const double range =
        kGain * 256.0 / std::sqrt(static_cast<double>(fan_in(layer)));
    const auto h = static_cast<std::uint64_t>(
        std::clamp(std::lround(range), 1L, 32767L));
    ValueTensor w(layer.weight_shape());
    std::uint64_t state = mix_seed(seed, 1, l);
    Value* data = w.data();
    for (Index i = 0; i < w.size(); ++i) {
      const std::uint64_t r = splitmix(state);
      const bool pruned = static_cast<double>(r >> 40) <
                          kPrune * static_cast<double>(1ull << 24);
      data[i] = pruned ? Value{0}
                       : static_cast<Value>(
                             static_cast<std::int64_t>(r % (2 * h + 1)) -
                             static_cast<std::int64_t>(h));
    }
    weights.push_back(std::move(w));
  }
  return weights;
}

ValueTensor make_image(const mocha::nn::Network& net, std::uint64_t seed) {
  ValueTensor image(net.layers.front().input_shape());
  std::uint64_t state = mix_seed(seed, 2);
  Value* data = image.data();
  for (Index i = 0; i < image.size(); ++i) {
    data[i] = static_cast<Value>(splitmix(state) % 256);
  }
  return image;
}

Liveness check_liveness(const mocha::nn::Network& net,
                        const std::vector<ValueTensor>& outputs) {
  Liveness live;
  for (std::size_t l = 0; l < outputs.size(); ++l) {
    const auto& out = outputs[l].storage();
    std::size_t zeros = 0;
    std::size_t saturated = 0;
    for (const Value v : out) {
      zeros += v == 0;
      saturated += v == std::numeric_limits<Value>::max() ||
                   v == std::numeric_limits<Value>::min();
    }
    const double n = static_cast<double>(std::max<std::size_t>(out.size(), 1));
    live.zero_fraction.push_back(static_cast<double>(zeros) / n);
    live.saturated_fraction.push_back(static_cast<double>(saturated) / n);
    if (live.problem.empty()) {
      if (zeros == out.size()) {
        live.problem = net.name + "/" + net.layers[l].name + " is all zero";
      } else if (2 * saturated > out.size()) {
        live.problem =
            net.name + "/" + net.layers[l].name + " is mostly saturated";
      }
    }
  }
  return live;
}

}  // namespace repobench
