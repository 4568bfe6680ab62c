// Seeded benchmark inputs that keep activations alive through every layer.
//
// Weights are uniform integers in [-h, h] with h scaled to the layer's
// fan-in, so a layer's output has about the spread of its input under the
// Q8.8 requantize rule (see README.md); a fixed share is pruned to zero.
// Images are uniform pixels in [0, 255].
//
// Weights come from kModelSeed, not from the workload seed: the models are
// the system under test and stay fixed, as deployed models do, while the
// workload seed varies the images and the traffic. (Drawing the weights
// from the workload seed moved the serve workload's CPU time per request by
// 12% from seed to seed through how many activations the kernels skip.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/network.hpp"
#include "nn/tensor.hpp"

namespace repobench {

inline constexpr std::uint64_t kModelSeed = 1;

std::vector<mocha::nn::ValueTensor> make_weights(const mocha::nn::Network& net,
                                                 std::uint64_t seed);

mocha::nn::ValueTensor make_image(const mocha::nn::Network& net,
                                  std::uint64_t seed);

/// Zero and saturated fractions of every layer's output.
struct Liveness {
  std::vector<double> zero_fraction;
  std::vector<double> saturated_fraction;
  /// Empty when every layer is alive; otherwise names the first layer whose
  /// output is all zero or mostly (over half) saturated.
  std::string problem;
};

Liveness check_liveness(const mocha::nn::Network& net,
                        const std::vector<mocha::nn::ValueTensor>& outputs);

/// Deterministic stream seed for (seed, tag, index).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag,
                       std::uint64_t index = 0);

}  // namespace repobench
