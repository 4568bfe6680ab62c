// Whole-network descriptions and the benchmark networks used by the paper's
// evaluation era (AlexNet, VGG-16) plus smaller workloads for tests.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "nn/layer.hpp"

namespace mocha::nn {

/// An ordered chain of layers with matching shapes between neighbours.
struct Network {
  std::string name;
  std::vector<LayerSpec> layers;

  /// Checks every layer individually and the chaining of shapes:
  /// layer[i].output_shape() must equal layer[i+1].input_shape()
  /// (FC layers accept any predecessor whose element count matches fan-in).
  void validate() const;

  std::int64_t total_macs() const;
  std::int64_t total_weight_bytes() const;

  /// Index list of conv layers only (the paper's per-layer figures report
  /// conv layers; FC layers are dominated by weights, pooling by nothing).
  std::vector<std::size_t> conv_layer_indices() const;
};

/// AlexNet (Krizhevsky et al. 2012), single-tower dimensions, 227x227 input.
Network make_alexnet();

/// VGG-16 (Simonyan & Zisserman 2014), 224x224 input.
Network make_vgg16();

/// LeNet-5-style network on 32x32 input; small enough for exhaustive
/// functional verification in tests.
Network make_lenet5();

/// MobileNet-v1 (Howard et al. 2017), 224x224 input: depthwise-separable
/// blocks (3x3 depthwise + 1x1 pointwise). A generation past the paper's
/// workloads — included to show the morphable dataflow generalizes to
/// channel-wise operators.
Network make_mobilenet_v1();

/// Network-in-Network (Lin et al. 2014), 227x227 input: interleaves spatial
/// convolutions with 1x1 "cccp" layers and ends in global average pooling —
/// a usefully different tiling/fusion profile from AlexNet/VGG (no FC
/// layers, tiny kernels, deep channel mixing).
Network make_nin();

/// A single-conv-layer network, for focused unit tests.
Network make_single_conv(Index in_c, Index in_h, Index in_w, Index out_c,
                         Index kernel, Index stride, Index pad);

/// A parameterizable stack of conv(+pool) blocks used by property tests and
/// the scalability sweeps. `channels` lists the conv widths in order.
Network make_synthetic(const std::string& name, Index in_h, Index in_w,
                       const std::vector<Index>& channels, Index kernel,
                       bool pool_between);

/// The named networks above, by their command-line names: "alexnet",
/// "vgg16", "lenet5", "nin", "mobilenet". nullopt for any other name.
std::optional<Network> make_network(std::string_view name);

/// All benchmark networks the experiment harnesses sweep over.
std::vector<Network> benchmark_networks();

}  // namespace mocha::nn
