// Output oracle written apart from the program: plain loop nests for conv
// (stride, zero padding), depthwise conv, pooling and FC, with int64
// accumulation and the fixed-point requantize rule (ReLU, arithmetic right
// shift, saturation to int16). It uses the program's tensor and layer
// descriptions as containers only and calls nothing in nn/kernels or
// nn/reference.
#pragma once

#include <string>
#include <vector>

#include "nn/network.hpp"
#include "nn/tensor.hpp"

namespace repobench::oracle {

/// Output of every layer of `net` (index-aligned with net.layers). Output
/// channels are split over `threads` plain std::threads.
std::vector<mocha::nn::ValueTensor> run_network(
    const mocha::nn::Network& net, const mocha::nn::ValueTensor& input,
    const std::vector<mocha::nn::ValueTensor>& weights, int frac_shift,
    int threads);

/// Checks the oracle against hand-computed tiny cases. Returns an empty
/// string on success, else what disagreed.
std::string self_test();

}  // namespace repobench::oracle
