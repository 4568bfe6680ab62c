#include "nn/network.hpp"

#include <numeric>

namespace mocha::nn {

void Network::validate() const {
  MOCHA_CHECK(!name.empty(), "network has no name");
  MOCHA_CHECK(!layers.empty(), name << ": empty network");
  for (const LayerSpec& layer : layers) layer.validate();
  for (std::size_t i = 0; i + 1 < layers.size(); ++i) {
    const Shape4 out = layers[i].output_shape();
    const LayerSpec& next = layers[i + 1];
    if (next.kind == LayerKind::FullyConnected) {
      MOCHA_CHECK(out.elems() == next.ifmap_elems(),
                  name << ": " << layers[i].name << " produces " << out.elems()
                       << " elems but " << next.name << " consumes "
                       << next.ifmap_elems());
    } else {
      MOCHA_CHECK(out == next.input_shape(),
                  name << ": shape mismatch between " << layers[i].name
                       << " and " << next.name);
    }
  }
}

std::int64_t Network::total_macs() const {
  std::int64_t total = 0;
  for (const LayerSpec& layer : layers) total += layer.macs();
  return total;
}

std::int64_t Network::total_weight_bytes() const {
  std::int64_t total = 0;
  for (const LayerSpec& layer : layers) total += layer.weight_bytes();
  return total;
}

std::vector<std::size_t> Network::conv_layer_indices() const {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].kind == LayerKind::Conv) indices.push_back(i);
  }
  return indices;
}

Network make_alexnet() {
  Network net;
  net.name = "alexnet";
  net.layers = {
      conv_layer("conv1", 3, 227, 227, 96, 11, 4, 0),
      pool_layer("pool1", 96, 55, 55, 3, 2),
      conv_layer("conv2", 96, 27, 27, 256, 5, 1, 2),
      pool_layer("pool2", 256, 27, 27, 3, 2),
      conv_layer("conv3", 256, 13, 13, 384, 3, 1, 1),
      conv_layer("conv4", 384, 13, 13, 384, 3, 1, 1),
      conv_layer("conv5", 384, 13, 13, 256, 3, 1, 1),
      pool_layer("pool5", 256, 13, 13, 3, 2),
      fc_layer("fc6", 256 * 6 * 6, 4096),
      fc_layer("fc7", 4096, 4096),
      fc_layer("fc8", 4096, 1000, /*relu=*/false),
  };
  net.validate();
  return net;
}

Network make_vgg16() {
  Network net;
  net.name = "vgg16";
  Index h = 224;
  Index in_c = 3;
  int conv_id = 1;
  int pool_id = 1;
  const std::vector<std::vector<Index>> blocks = {
      {64, 64}, {128, 128}, {256, 256, 256}, {512, 512, 512}, {512, 512, 512}};
  for (const auto& block : blocks) {
    for (Index width : block) {
      net.layers.push_back(conv_layer("conv" + std::to_string(conv_id++), in_c,
                                      h, h, width, 3, 1, 1));
      in_c = width;
    }
    net.layers.push_back(
        pool_layer("pool" + std::to_string(pool_id++), in_c, h, h, 2, 2));
    h /= 2;
  }
  net.layers.push_back(fc_layer("fc1", 512 * 7 * 7, 4096));
  net.layers.push_back(fc_layer("fc2", 4096, 4096));
  net.layers.push_back(fc_layer("fc3", 4096, 1000, /*relu=*/false));
  net.validate();
  return net;
}

Network make_lenet5() {
  Network net;
  net.name = "lenet5";
  net.layers = {
      conv_layer("c1", 1, 32, 32, 6, 5, 1, 0),
      pool_layer("s2", 6, 28, 28, 2, 2, PoolOp::Average),
      conv_layer("c3", 6, 14, 14, 16, 5, 1, 0),
      pool_layer("s4", 16, 10, 10, 2, 2, PoolOp::Average),
      conv_layer("c5", 16, 5, 5, 120, 5, 1, 0),
      fc_layer("f6", 120, 84),
      fc_layer("output", 84, 10, /*relu=*/false),
  };
  net.validate();
  return net;
}

Network make_mobilenet_v1() {
  Network net;
  net.name = "mobilenet_v1";
  Index c = 32;
  Index h = 112;
  net.layers.push_back(conv_layer("conv1", 3, 224, 224, 32, 3, 2, 1));
  int block = 1;
  // (out channels, stride) per depthwise-separable block.
  const std::vector<std::pair<Index, Index>> blocks = {
      {64, 1},  {128, 2}, {128, 1}, {256, 2}, {256, 1},  {512, 2},
      {512, 1}, {512, 1}, {512, 1}, {512, 1}, {512, 1},  {1024, 2},
      {1024, 1}};
  for (const auto& [out_c, stride] : blocks) {
    const std::string suffix = std::to_string(block++);
    const Index pad = 1;
    net.layers.push_back(
        depthwise_layer("dw" + suffix, c, h, h, 3, stride, pad));
    const Index oh = net.layers.back().out_h();
    net.layers.push_back(
        conv_layer("pw" + suffix, c, oh, oh, out_c, 1, 1, 0));
    c = out_c;
    h = oh;
  }
  net.layers.push_back(pool_layer("gap", 1024, 7, 7, 7, 7, PoolOp::Average));
  net.layers.push_back(fc_layer("fc", 1024, 1000, /*relu=*/false));
  net.validate();
  return net;
}

Network make_nin() {
  Network net;
  net.name = "nin";
  net.layers = {
      conv_layer("conv1", 3, 227, 227, 96, 11, 4, 0),
      conv_layer("cccp1", 96, 55, 55, 96, 1, 1, 0),
      conv_layer("cccp2", 96, 55, 55, 96, 1, 1, 0),
      pool_layer("pool1", 96, 55, 55, 3, 2),
      conv_layer("conv2", 96, 27, 27, 256, 5, 1, 2),
      conv_layer("cccp3", 256, 27, 27, 256, 1, 1, 0),
      conv_layer("cccp4", 256, 27, 27, 256, 1, 1, 0),
      pool_layer("pool2", 256, 27, 27, 3, 2),
      conv_layer("conv3", 256, 13, 13, 384, 3, 1, 1),
      conv_layer("cccp5", 384, 13, 13, 384, 1, 1, 0),
      conv_layer("cccp6", 384, 13, 13, 384, 1, 1, 0),
      pool_layer("pool3", 384, 13, 13, 3, 2),
      conv_layer("conv4", 384, 6, 6, 1024, 3, 1, 1),
      conv_layer("cccp7", 1024, 6, 6, 1024, 1, 1, 0),
      conv_layer("cccp8", 1024, 6, 6, 1000, 1, 1, 0, /*relu=*/false),
      // Global average pooling over the 6x6 map yields the class scores.
      pool_layer("gap", 1000, 6, 6, 6, 6, PoolOp::Average),
  };
  net.validate();
  return net;
}

Network make_single_conv(Index in_c, Index in_h, Index in_w, Index out_c,
                         Index kernel, Index stride, Index pad) {
  Network net;
  net.name = "single_conv";
  net.layers = {conv_layer("conv", in_c, in_h, in_w, out_c, kernel, stride, pad)};
  net.validate();
  return net;
}

Network make_synthetic(const std::string& name, Index in_h, Index in_w,
                       const std::vector<Index>& channels, Index kernel,
                       bool pool_between) {
  MOCHA_CHECK(!channels.empty(), "synthetic network needs >=1 conv layer");
  Network net;
  net.name = name;
  Index c = 3;
  Index h = in_h;
  Index w = in_w;
  const Index pad = kernel / 2;
  for (std::size_t i = 0; i < channels.size(); ++i) {
    net.layers.push_back(conv_layer("conv" + std::to_string(i + 1), c, h, w,
                                    channels[i], kernel, 1, pad));
    c = channels[i];
    h = net.layers.back().out_h();
    w = net.layers.back().out_w();
    if (pool_between && i + 1 < channels.size() && h >= 2 && w >= 2) {
      net.layers.push_back(
          pool_layer("pool" + std::to_string(i + 1), c, h, w, 2, 2));
      h = net.layers.back().out_h();
      w = net.layers.back().out_w();
    }
  }
  net.validate();
  return net;
}

std::optional<Network> make_network(std::string_view name) {
  if (name == "alexnet") return make_alexnet();
  if (name == "vgg16") return make_vgg16();
  if (name == "lenet5") return make_lenet5();
  if (name == "nin") return make_nin();
  if (name == "mobilenet") return make_mobilenet_v1();
  return std::nullopt;
}

std::vector<Network> benchmark_networks() {
  return {make_alexnet(), make_vgg16()};
}

}  // namespace mocha::nn
