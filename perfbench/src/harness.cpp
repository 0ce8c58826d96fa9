// The serving stack, the single-context profile pass and the helpers every
// workload shares.

#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>

#include "bench_util.hpp"
#include "core/selector.hpp"
#include "gemm/blocking.hpp"
#include "sim/machine_config.hpp"
#include "sim/sim_context.hpp"

namespace perfbench {

namespace {

bool is_fc(const dnn::Layer& l) {
  return dynamic_cast<const dnn::ConnectedLayer*>(&l) != nullptr;
}

/// Layers BatchScheduler runs as one forward_batch over the whole batch.
bool batch_fused(const dnn::Layer& l, const core::BackendPlan& plan) {
  if (const auto* conv = dynamic_cast<const dnn::ConvLayer*>(&l))
    return plan.weight_resident_for(conv->desc());
  return plan.fc_weight_resident && is_fc(l);
}

struct SimSnapshot {
  std::uint64_t cycles = 0;
  sim::TimingStats timing;
  sim::CacheStats l2;
  std::uint64_t dram = 0;
};

SimSnapshot snapshot(sim::SimContext& s) {
  SimSnapshot snap;
  snap.cycles = s.timing().finish();  // Network::forward flushes here too
  snap.timing = s.timing().stats();
  snap.l2 = s.memory().l2_stats();
  snap.dram = s.memory().dram_line_fills();
  return snap;
}

}  // namespace

std::unique_ptr<Stack> set_up_stack(
    const std::function<std::unique_ptr<dnn::Network>()>& build,
    const char* build_name, int plan_batch, int workers,
    const dnn::Tensor& warm, Tracer* tr) {
  auto s = std::make_unique<Stack>();
  const auto t0 = SteadyClock::now();
  ScopedSpan whole(tr, "setup", "core");
  {
    ScopedSpan span(tr, build_name, "dnn");
    s->net = build();
    s->net->fuse_residuals();
  }
  const sim::MachineConfig machine = sim::a64fx();
  gemm::Opt6Config opt6;
  opt6.blocks = gemm::tune_block_sizes(machine);
  const core::CostModel model(machine, opt6);
  auto t = SteadyClock::now();
  core::BackendPlan plan;
  {
    ScopedSpan span(tr, "core::select_per_layer", "core");
    plan = core::select_per_layer(*s->net, machine, 7, plan_batch, {},
                                  core::CostSource::Analytic, &model);
  }
  s->plan_s = seconds_since(t);
  s->engine = std::make_unique<core::ConvolutionEngine>(std::move(plan));
  runtime::SchedulerConfig cfg;
  cfg.threads = workers;
  s->sched = std::make_unique<runtime::BatchScheduler>(*s->engine, cfg);
  t = SteadyClock::now();
  {
    ScopedSpan span(tr, "core::ConvolutionEngine::prepare", "core");
    s->engine->prepare(*s->net);
  }
  s->prepare_s = seconds_since(t);
  {
    ScopedSpan span(tr, "warm-up batch", "runtime");
    s->sched->run(*s->net, warm);
  }
  s->total_s = seconds_since(t0);
  return s;
}

dnn::Tensor reference_forward(Stack& s, const dnn::Tensor& input) {
  vla::VectorEngine eng(runtime::SchedulerConfig{}.vlen_bits);
  dnn::ExecContext ctx(eng);
  s.engine->install(ctx);
  return copy_tensor(s.net->forward(ctx, input));
}

const dnn::Tensor& profile_stack(Stack& s, const dnn::Tensor& input,
                                 Tracer& tracer, const std::string& pass,
                                 std::vector<LayerRow>& rows) {
  vla::VectorEngine eng(runtime::SchedulerConfig{}.vlen_bits);
  dnn::ExecContext ctx(eng);
  s.engine->install(ctx);
  return profile_pass(*s.net, ctx, s.engine->plan(), input, tracer, pass,
                      nullptr, rows);
}

const dnn::Tensor& profile_pass(dnn::Network& net, dnn::ExecContext& ctx,
                                const core::BackendPlan& plan,
                                const dnn::Tensor& input, Tracer& tracer,
                                const std::string& pass,
                                const core::CostModel* model,
                                std::vector<LayerRow>& rows) {
  sim::SimContext* sctx = ctx.engine().context();
  const int items = input.n();
  ScopedSpan whole(&tracer, "profile:" + pass, "dnn");
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    dnn::Layer& layer = net.layer(i);
    std::vector<const dnn::Tensor*> ins;
    for (int idx : layer.input_indices())
      ins.push_back(idx < 0 ? &input
                            : &net.layer(static_cast<std::size_t>(idx)).output());

    LayerRow row;
    row.pass = pass;
    row.index = static_cast<int>(i);
    row.kind = layer.name();
    const auto* conv = dynamic_cast<const dnn::ConvLayer*>(&layer);
    row.backend = conv != nullptr && ctx.conv_label
                      ? ctx.conv_label(conv->desc())
                      : (is_fc(layer) ? "fc" : layer.name());
    row.flops = layer.flops() * items;

    SimSnapshot before;
    if (sctx != nullptr) before = snapshot(*sctx);

    std::vector<std::pair<double, double>> children;
    const auto child = [&](const char* name, auto&& fn) {
      Span s;
      s.name = name;
      s.cat = "dnn";
      s.tid = thread_index();
      s.begin_us = tracer.now_us();
      fn();
      s.end_us = tracer.now_us();
      children.emplace_back(s.begin_us, s.end_us);
      tracer.add(std::move(s));
    };

    Span span;
    span.name = std::to_string(i) + " " + row.kind;
    span.cat = "dnn";
    span.tid = thread_index();
    span.begin_us = tracer.now_us();
    child("prepare_batch", [&] { layer.prepare_batch(ins); });
    bool fused = false;
    if (items > 1 && batch_fused(layer, plan))
      child("forward_batch", [&] { fused = layer.forward_batch(ctx, ins); });
    if (fused) row.backend += "+batch";
    for (int b = 0; !fused && b < items; ++b)
      child("forward_item", [&] { layer.forward_item(ctx, ins, b); });
    span.end_us = tracer.now_us();

    row.host_ms = (span.end_us - span.begin_us) / 1e3;
    row.self_ms = self_time(span.begin_us, span.end_us, children) / 1e3;
    span.args.emplace_back("flops", row.flops);
    if (sctx != nullptr) {
      const SimSnapshot after = snapshot(*sctx);
      row.simulated = true;
      row.cycles = after.cycles - before.cycles;
      row.mem_stall =
          after.timing.mem_stall_cycles - before.timing.mem_stall_cycles;
      row.issue_stall =
          after.timing.issue_stall_cycles - before.timing.issue_stall_cycles;
      row.dram_lines = after.dram - before.dram;
      const std::uint64_t samples =
          after.timing.vl_sample_count - before.timing.vl_sample_count;
      row.avg_vl = samples == 0 ? 0.0
                                : static_cast<double>(after.timing.elements -
                                                      before.timing.elements) /
                                      static_cast<double>(samples);
      if (model != nullptr && conv != nullptr)
        row.model_cycles = model->cycles(plan.backend_for(conv->desc()),
                                         conv->desc(), false, items);
      span.args.emplace_back("cycles", static_cast<double>(row.cycles));
      span.args.emplace_back("mem_stall_cycles",
                             static_cast<double>(row.mem_stall));
      span.args.emplace_back("issue_stall_cycles",
                             static_cast<double>(row.issue_stall));
      span.args.emplace_back("dram_lines", static_cast<double>(row.dram_lines));
      span.args.emplace_back("avg_vl_elems", row.avg_vl);
    }
    tracer.add(std::move(span));
    rows.push_back(std::move(row));
  }
  return net.layer(net.num_layers() - 1).output();
}

void add_host_layer_metrics(const std::vector<LayerRow>& rows,
                            std::vector<Metric>& out) {
  double gemm_flops = 0, gemm_ms = 0, wino_flops = 0, wino_ms = 0;
  double conv_ms = 0, fc_ms = 0, aux_ms = 0;
  for (const LayerRow& r : rows) {
    if (r.kind.rfind("conv", 0) == 0) {
      conv_ms += r.host_ms;
      if (r.backend.find("winograd") != std::string::npos) {
        wino_flops += r.flops;
        wino_ms += r.host_ms;
      } else if (r.backend.find("gemm") != std::string::npos) {
        gemm_flops += r.flops;
        gemm_ms += r.host_ms;
      }
    } else if (r.backend.rfind("fc", 0) == 0) {
      fc_ms += r.host_ms;
    } else {
      aux_ms += r.host_ms;
    }
  }
  const auto gflops = [](double flops, double ms) {
    return ms > 0.0 ? flops / (ms * 1e-3) / 1e9 : 0.0;
  };
  out.push_back({"gemm.host_gflops", gflops(gemm_flops, gemm_ms), "GFLOP/s", ""});
  out.push_back(
      {"winograd.host_gflops", gflops(wino_flops, wino_ms), "GFLOP/s", ""});
  out.push_back({"dnn.conv.host_ms", conv_ms, "ms", ""});
  out.push_back({"dnn.fc.host_ms", fc_ms, "ms", ""});
  out.push_back({"dnn.aux.host_ms", aux_ms, "ms", ""});
}

dnn::Tensor copy_item(const dnn::Tensor& src, int b) {
  dnn::Tensor t(1, src.c(), src.h(), src.w());
  std::memcpy(t.data(), src.item_data(b), src.item_size() * sizeof(float));
  return t;
}

dnn::Tensor copy_tensor(const dnn::Tensor& src) {
  dnn::Tensor t(src.n(), src.c(), src.h(), src.w());
  std::memcpy(t.data(), src.data(), src.size() * sizeof(float));
  return t;
}

bool same_bits(const dnn::Tensor& x, int a, const dnn::Tensor& y, int b) {
  return x.item_size() == y.item_size() &&
         std::memcmp(x.item_data(a), y.item_data(b),
                     x.item_size() * sizeof(float)) == 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

Metric find_metric(const std::vector<Metric>& v, const std::string& name) {
  for (const Metric& m : v)
    if (m.name == name) return m;
  return {name, 0.0, "", ""};
}

}  // namespace perfbench
