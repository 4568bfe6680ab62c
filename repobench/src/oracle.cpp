#include "oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace repobench::oracle {

using mocha::nn::Index;
using mocha::nn::LayerKind;
using mocha::nn::LayerSpec;
using mocha::nn::PoolOp;
using mocha::nn::Value;
using mocha::nn::ValueTensor;

namespace {

Value requantize(std::int64_t acc, bool relu, int frac_shift) {
  if (relu && acc < 0) acc = 0;
  acc >>= frac_shift;  // arithmetic: rounds toward negative infinity
  return static_cast<Value>(std::clamp<std::int64_t>(acc, -32768, 32767));
}

struct Span {
  Index begin = 0;
  Index end = 0;
};

/// Output positions o in [0, out) whose tap k reads an input position
/// o * stride - pad + k inside [0, size).
Span inside(Index k, Index pad, Index stride, Index size, Index out) {
  auto ceil_div = [](Index a, Index b) { return a <= 0 ? 0 : (a + b - 1) / b; };
  return {std::min(out, ceil_div(pad - k, stride)),
          std::min(out, ceil_div(size + pad - k, stride))};
}

/// Runs body(c, lane) for every c in [0, channels), split over at most
/// `threads` lanes (lane in [0, threads)).
template <typename Body>
void for_channels(Index channels, int threads, const Body& body) {
  const Index lanes = std::max<Index>(1, std::min<Index>(threads, channels));
  if (lanes == 1) {
    for (Index c = 0; c < channels; ++c) body(c, 0);
    return;
  }
  std::vector<std::thread> pool;
  for (Index lane = 0; lane < lanes; ++lane) {
    pool.emplace_back([&, lane] {
      for (Index c = lane; c < channels; c += lanes) body(c, lane);
    });
  }
  for (std::thread& t : pool) t.join();
}

ValueTensor layer_output(const LayerSpec& L, const ValueTensor& input,
                         const ValueTensor& weights, int frac_shift,
                         int threads) {
  ValueTensor out(L.output_shape());
  const Value* x = input.data();
  const Value* w = weights.data();
  Value* y = out.data();
  const Index H = L.in_h, W = L.in_w, K = L.kernel, S = L.stride, P = L.pad;
  const Index OH = L.out_h(), OW = L.out_w();
  switch (L.kind) {
    case LayerKind::Conv:
    case LayerKind::DepthwiseConv: {
      const bool depthwise = L.kind == LayerKind::DepthwiseConv;
      // One int64 accumulator per output pixel, one plane per lane,
      // allocated here so the lanes never allocate.
      std::vector<std::vector<std::int64_t>> planes(
          static_cast<std::size_t>(std::max(threads, 1)),
          std::vector<std::int64_t>(static_cast<std::size_t>(OH * OW)));
      for_channels(L.out_channels(), threads, [&](Index oc, Index lane) {
        // Each (input channel, ky, kx) tap adds its weight times the input
        // pixel it reads, over the output pixels whose tap lands inside the
        // (unpadded) input.
        std::vector<std::int64_t>& acc = planes[static_cast<std::size_t>(lane)];
        std::fill(acc.begin(), acc.end(), 0);
        const Index ic_begin = depthwise ? oc : 0;
        const Index ic_end = depthwise ? oc + 1 : L.in_c;
        for (Index ic = ic_begin; ic < ic_end; ++ic) {
          for (Index ky = 0; ky < K; ++ky) {
            const Span rows = inside(ky, P, S, H, OH);
            for (Index kx = 0; kx < K; ++kx) {
              const Span cols = inside(kx, P, S, W, OW);
              const std::int64_t wv =
                  depthwise ? w[(oc * K + ky) * K + kx]
                            : w[((oc * L.in_c + ic) * K + ky) * K + kx];
              for (Index oy = rows.begin; oy < rows.end; ++oy) {
                const Index row = (ic * H + oy * S - P + ky) * W - P + kx;
                std::int64_t* arow = acc.data() + oy * OW;
                for (Index ox = cols.begin; ox < cols.end; ++ox) {
                  arow[ox] += wv * x[row + ox * S];
                }
              }
            }
          }
        }
        for (Index i = 0; i < OH * OW; ++i) {
          y[oc * OH * OW + i] = requantize(acc[static_cast<std::size_t>(i)],
                                           L.relu, frac_shift);
        }
      });
      break;
    }
    case LayerKind::Pool:
      if (P != 0) throw std::runtime_error(L.name + ": padded pooling");
      for_channels(L.in_c, threads, [&](Index c, Index) {
        for (Index oy = 0; oy < OH; ++oy) {
          for (Index ox = 0; ox < OW; ++ox) {
            std::int64_t sum = 0;
            Value best = -32768;
            for (Index ky = 0; ky < K; ++ky) {
              for (Index kx = 0; kx < K; ++kx) {
                const Value v = x[(c * H + oy * S + ky) * W + ox * S + kx];
                sum += v;
                best = std::max(best, v);
              }
            }
            // Average pooling divides with truncation toward zero.
            y[(c * OH + oy) * OW + ox] =
                L.pool_op == PoolOp::Max ? best
                                         : static_cast<Value>(sum / (K * K));
          }
        }
      });
      break;
    case LayerKind::FullyConnected: {
      const Index fan_in = L.ifmap_elems();
      if (input.size() != fan_in) {
        throw std::runtime_error(L.name + ": fan-in mismatch");
      }
      for_channels(L.out_c, threads, [&](Index o, Index) {
        std::int64_t acc = 0;
        for (Index i = 0; i < fan_in; ++i) {
          acc += std::int64_t{x[i]} * w[o * fan_in + i];
        }
        y[o] = requantize(acc, L.relu, frac_shift);
      });
      break;
    }
  }
  return out;
}

ValueTensor tensor(Index c, Index h, Index w, std::vector<Value> data) {
  return ValueTensor({1, c, h, w}, std::move(data));
}

}  // namespace

std::vector<ValueTensor> run_network(const mocha::nn::Network& net,
                                     const ValueTensor& input,
                                     const std::vector<ValueTensor>& weights,
                                     int frac_shift, int threads) {
  std::vector<ValueTensor> outputs;
  outputs.reserve(net.layers.size());
  const ValueTensor* current = &input;
  for (std::size_t l = 0; l < net.layers.size(); ++l) {
    outputs.push_back(layer_output(net.layers[l], *current, weights[l],
                                   frac_shift, threads));
    current = &outputs.back();
  }
  return outputs;
}

std::string self_test() {
  std::ostringstream err;
  auto expect = [&](const char* what, const ValueTensor& got,
                    const std::vector<Value>& want) {
    if (got.storage() != want) err << what << " mismatch; ";
  };
  // Requantize: ReLU, floor shift, saturation.
  if (requantize(-1, false, 8) != -1 || requantize(-257, false, 8) != -2 ||
      requantize(-257, true, 8) != 0 || requantize(511, false, 8) != 1 ||
      requantize(40000LL * 256, false, 8) != 32767 ||
      requantize(-40000LL * 256, false, 8) != -32768) {
    err << "requantize; ";
  }
  // 3x3 image 1..9 and 2x2 kernel [[1,2],[3,4]], operands scaled by 16 so
  // the Q8.8 shift leaves the plain integer products.
  std::vector<Value> img;
  for (Value v = 1; v <= 9; ++v) img.push_back(static_cast<Value>(16 * v));
  const ValueTensor image = tensor(1, 3, 3, img);
  const ValueTensor k22({1, 1, 2, 2}, {16, 32, 48, 64});
  const ValueTensor none;
  // Stride 1, no padding: 1+4+12+20, 2+6+15+24, 4+10+21+32, 5+12+24+36.
  expect("conv s1 p0",
         layer_output(mocha::nn::conv_layer("c", 1, 3, 3, 1, 2, 1, 0, false),
                      image, k22, 8, 1),
         {37, 47, 67, 77});
  // Stride 2, pad 1: windows cover only (0,0); (0,1..2); (1..2,0); centre.
  expect("conv s2 p1",
         layer_output(mocha::nn::conv_layer("c", 1, 3, 3, 1, 2, 2, 1, false),
                      image, k22, 8, 1),
         {4, 18, 36, 77});
  // Depthwise: channel 0 with the kernel above, channel 1 negated, ReLU.
  std::vector<Value> two = img;
  for (Value v = 1; v <= 9; ++v) two.push_back(static_cast<Value>(16 * v));
  expect("depthwise",
         layer_output(mocha::nn::depthwise_layer("d", 2, 3, 3, 2, 1, 0, true),
                      tensor(2, 3, 3, two),
                      ValueTensor({2, 1, 2, 2},
                                  {16, 32, 48, 64, -16, -32, -48, -64}),
                      8, 2),
         {37, 47, 67, 77, 0, 0, 0, 0});
  // Pooling on the raw 1..9 image: max, and average truncating to zero.
  const ValueTensor raw = tensor(1, 3, 3, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  expect("max pool",
         layer_output(mocha::nn::pool_layer("p", 1, 3, 3, 2, 1), raw, none, 8,
                      1),
         {5, 6, 8, 9});
  expect("avg pool",
         layer_output(
             mocha::nn::pool_layer("p", 1, 3, 3, 2, 1, PoolOp::Average), raw,
             none, 8, 1),
         {3, 4, 6, 7});
  expect("avg pool negative",
         layer_output(
             mocha::nn::pool_layer("p", 1, 2, 2, 2, 2, PoolOp::Average),
             tensor(1, 2, 2, {-1, -2, 0, 0}), none, 8, 1),
         {0});
  // FC: [1,2,3] . [1,1,1] = 6 and . [1,-1,2] = 5 (operands scaled by 16).
  expect("fc",
         layer_output(mocha::nn::fc_layer("f", 3, 2, false),
                      tensor(3, 1, 1, {16, 32, 48}),
                      ValueTensor({2, 3, 1, 1}, {16, 16, 16, 16, -16, 32}), 8,
                      1),
         {6, 5});
  return err.str();
}

}  // namespace repobench::oracle
