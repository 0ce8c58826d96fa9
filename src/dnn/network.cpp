#include "dnn/network.hpp"

#include <sstream>

namespace vlacnn::dnn {

Network::Network(int in_c, int in_h, int in_w, std::uint64_t seed)
    : in_c_(in_c), in_h_(in_h), in_w_(in_w),
      cur_c_(in_c), cur_h_(in_h), cur_w_(in_w), seed_(seed) {
  VLACNN_REQUIRE(in_c > 0 && in_h > 0 && in_w > 0, "bad network input shape");
}

int Network::push(std::unique_ptr<Layer> layer, int c, int h, int w) {
  layer->set_self_index(static_cast<int>(layers_.size()));
  layers_.push_back(std::move(layer));
  cur_c_ = c;
  cur_h_ = h;
  cur_w_ = w;
  return static_cast<int>(layers_.size()) - 1;
}

int Network::add_conv(int out_c, int ksize, int stride, int pad,
                      Activation act, bool batch_norm) {
  ConvDesc d;
  d.in_c = cur_c_;
  d.in_h = cur_h_;
  d.in_w = cur_w_;
  d.out_c = out_c;
  d.ksize = ksize;
  d.stride = stride;
  d.pad = pad;
  d.act = act;
  d.batch_norm = batch_norm;
  auto layer = std::make_unique<ConvLayer>(d, next_seed());
  const int oh = d.out_h(), ow = d.out_w();
  return push(std::move(layer), out_c, oh, ow);
}

int Network::add_maxpool(int size, int stride) {
  auto layer = std::make_unique<MaxPoolLayer>(cur_c_, cur_h_, cur_w_, size, stride);
  const int oh = layer->out_h(), ow = layer->out_w();
  return push(std::move(layer), cur_c_, oh, ow);
}

int Network::add_route(const std::vector<int>& from) {
  int total_c = 0;
  int h = 0, w = 0;
  for (int idx : from) {
    VLACNN_REQUIRE(idx >= 0 && idx < static_cast<int>(layers_.size()),
                   "route source out of range");
    const Tensor& t = layers_[static_cast<std::size_t>(idx)]->output();
    if (h == 0) {
      h = t.h();
      w = t.w();
    }
    VLACNN_REQUIRE(t.h() == h && t.w() == w, "route spatial mismatch");
    total_c += t.c();
  }
  return push(std::make_unique<RouteLayer>(from, total_c, h, w), total_c, h, w);
}

int Network::add_shortcut(int from, Activation act) {
  VLACNN_REQUIRE(from >= 0 && from < static_cast<int>(layers_.size()),
                 "shortcut source out of range");
  return push(std::make_unique<ShortcutLayer>(from, cur_c_, cur_h_, cur_w_, act),
              cur_c_, cur_h_, cur_w_);
}

int Network::add_upsample() {
  return push(std::make_unique<UpsampleLayer>(cur_c_, cur_h_, cur_w_), cur_c_,
              cur_h_ * 2, cur_w_ * 2);
}

int Network::add_connected(int out_n, Activation act) {
  const int in_n = cur_c_ * cur_h_ * cur_w_;
  return push(std::make_unique<ConnectedLayer>(in_n, out_n, act, next_seed()),
              out_n, 1, 1);
}

int Network::add_softmax() {
  return push(std::make_unique<SoftmaxLayer>(cur_c_, cur_h_, cur_w_), cur_c_,
              cur_h_, cur_w_);
}

int Network::add_yolo() {
  return push(std::make_unique<YoloLayer>(cur_c_, cur_h_, cur_w_), cur_c_,
              cur_h_, cur_w_);
}

int Network::fuse_residuals() {
  // References to each layer's output in the unfused graph; a conv whose
  // raw output feeds anything beyond its shortcut cannot be folded.
  std::vector<int> refs(layers_.size(), 0);
  for (const auto& l : layers_)
    for (int idx : l->input_indices())
      if (idx >= 0) ++refs[static_cast<std::size_t>(idx)];
  int fused = 0;
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    auto* sc = dynamic_cast<ShortcutLayer*>(layers_[i].get());
    if (sc == nullptr || sc->fused()) continue;
    auto* conv = dynamic_cast<ConvLayer*>(layers_[i - 1].get());
    if (conv == nullptr || conv->has_fused_residual()) continue;
    if (refs[i - 1] != 1) continue;
    conv->fuse_residual(sc->from(), sc->activation());
    sc->set_fused_into(conv);
    ++fused;
  }
  return fused;
}

std::string layer_algo_label(const ExecContext& ctx, const Layer& layer) {
  if (const auto* conv = dynamic_cast<const ConvLayer*>(&layer))
    return ctx.conv_label ? ctx.conv_label(conv->desc())
                          : (ctx.conv_backend ? "auto" : "im2col+gemm");
  if (dynamic_cast<const ConnectedLayer*>(&layer) != nullptr) return "fc";
  return "aux";
}

const Tensor& Network::forward(ExecContext& ctx, const Tensor& input) {
  VLACNN_REQUIRE(!layers_.empty(), "empty network");
  VLACNN_REQUIRE(input.c() == in_c_ && input.h() == in_h_ && input.w() == in_w_,
                 "network input shape mismatch");
  sim::SimContext* sctx = ctx.engine().context();
  for (auto& layer : layers_) {
    std::vector<const Tensor*> ins;
    for (int idx : layer->input_indices()) {
      if (idx < 0)
        ins.push_back(&input);
      else
        ins.push_back(&layers_[static_cast<std::size_t>(idx)]->output());
    }
    const std::uint64_t before = sctx ? sctx->timing().finish() : 0;
    layer->forward(ctx, ins);
    LayerRecord rec;
    rec.name = layer->name();
    rec.flops = layer->flops() * input.n();
    rec.items = input.n();
    rec.algo = layer_algo_label(ctx, *layer);
    if (sctx) rec.cycles = sctx->timing().finish() - before;
    ctx.records.push_back(std::move(rec));
  }
  return layers_.back()->output();
}

double Network::total_flops() const {
  double total = 0.0;
  for (const auto& l : layers_) total += l->flops();
  return total;
}

std::size_t Network::num_conv_layers() const {
  std::size_t n = 0;
  for (const auto& l : layers_)
    if (dynamic_cast<const ConvLayer*>(l.get()) != nullptr) ++n;
  return n;
}

std::string Network::summary() const {
  std::ostringstream out;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const Tensor& t = layers_[i]->output();
    out << i << "\t" << layers_[i]->name() << "\t-> " << t.shape_str() << "\n";
  }
  return out.str();
}

}  // namespace vlacnn::dnn
