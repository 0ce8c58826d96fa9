#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dnn/layers.hpp"

namespace vlacnn::dnn {

/// The backend label a `LayerRecord` carries for `layer`: the compiled
/// plan's name for a conv (`ctx.conv_label`), "auto" for a conv dispatched
/// without one, "im2col+gemm" for the default conv path, "fc" for a
/// connected layer and "aux" for every other layer. The one labelling rule
/// shared by `Network::forward` and both batch-scheduler executors.
std::string layer_algo_label(const ExecContext& ctx, const Layer& layer);

/// A feed-forward layer graph with Darknet-style indexed skip connections
/// (route / shortcut reference earlier layer outputs by index).
///
/// Built through the add_* API (used by the model zoo in models.hpp); tracks
/// the running output shape so convolutional descriptors are derived
/// automatically, like parsing a .cfg file would.
class Network {
 public:
  Network(int in_c, int in_h, int in_w, std::uint64_t seed = 1234);

  // ---- builder API (returns the new layer's index) ----
  int add_conv(int out_c, int ksize, int stride, int pad, Activation act,
               bool batch_norm);
  int add_maxpool(int size, int stride);
  int add_route(const std::vector<int>& from);
  int add_shortcut(int from, Activation act = Activation::Linear);
  int add_upsample();
  int add_connected(int out_n, Activation act);
  int add_softmax();
  int add_yolo();

  /// Runs inference; returns the last layer's output.
  const Tensor& forward(ExecContext& ctx, const Tensor& input);

  /// Folds every shortcut layer that directly follows the convolution
  /// producing its left operand into that convolution's epilogue (ROADMAP
  /// fused follow-up (b)): the conv gains the skip tensor as a second input
  /// and applies add + shortcut-activation via EpilogueDesc — in-kernel on
  /// fusing backends, as a post-pass otherwise — and the shortcut layer
  /// becomes a zero-cost alias of the conv's output. Numerics are
  /// bit-identical to the unfused graph. Only shortcuts whose producing
  /// conv is not consumed by any other layer are folded (the raw pre-add
  /// activation map must not be observable). Returns the number of folded
  /// shortcuts; safe to call more than once.
  int fuse_residuals();

  [[nodiscard]] std::size_t num_layers() const { return layers_.size(); }
  [[nodiscard]] const Layer& layer(std::size_t i) const { return *layers_[i]; }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_[i]; }

  [[nodiscard]] int in_c() const { return in_c_; }
  [[nodiscard]] int in_h() const { return in_h_; }
  [[nodiscard]] int in_w() const { return in_w_; }

  /// Shape after the last added layer (builder state).
  [[nodiscard]] int cur_c() const { return cur_c_; }
  [[nodiscard]] int cur_h() const { return cur_h_; }
  [[nodiscard]] int cur_w() const { return cur_w_; }

  /// Total conv/FC multiply-add FLOPs.
  [[nodiscard]] double total_flops() const;

  /// Number of convolutional layers.
  [[nodiscard]] std::size_t num_conv_layers() const;

  /// One line per layer (index, kind, output shape), like `darknet detect`.
  [[nodiscard]] std::string summary() const;

 private:
  std::uint64_t next_seed() { return seed_ ^ (layers_.size() * 0x9e3779b9ULL); }
  int push(std::unique_ptr<Layer> layer, int c, int h, int w);

  int in_c_, in_h_, in_w_;
  int cur_c_, cur_h_, cur_w_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace vlacnn::dnn
