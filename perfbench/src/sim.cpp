// The paper's clock, simulated inside the traced run of offline-vgg16 and
// outside every timed window: YOLOv3's first 20 layers on the simulated SVE
// machine at a long vector length, once under the 6-loop GEMM policy and
// once under the Winograd policy.

#include <cmath>
#include <thread>

#include "bench_util.hpp"
#include "core/conv_engine.hpp"
#include "dnn/models.hpp"
#include "harness.hpp"
#include "sim/machine_config.hpp"
#include "sim/sim_context.hpp"

namespace perfbench {

namespace {

constexpr int kInput = 96;                    ///< YOLOv3 input side
constexpr unsigned kVlenBits = 2048;          ///< simulated vector length
constexpr std::uint64_t kL2Bytes = 1u << 20;  ///< simulated L2 size

/// One policy's simulated machine. The SimContext, engine and context
/// persist across passes (reset between them): the simulated address of a
/// buffer follows the process's registration order, so only a context whose
/// buffers are already in place repeats its cycle count exactly.
struct PolicyRun {
  const char* name = "";  ///< metric suffix: gemm | winograd
  core::EnginePolicy policy;
  std::unique_ptr<core::ConvolutionEngine> engine;
  std::unique_ptr<sim::SimContext> sctx;
  std::unique_ptr<vla::VectorEngine> eng;
  std::unique_ptr<dnn::ExecContext> ctx;
  dnn::Tensor functional;    ///< functional-pass output at the same VL
  std::uint64_t cycles = 0;  ///< of the untraced pass; the profiled one must match
  double host_s = 0.0;       ///< host seconds of the untraced pass
  sim::TimingStats timing;   ///< of the untraced pass
  sim::CacheStats l2;
  std::uint64_t dram_lines = 0;
};

void simulate(std::uint64_t seed, Tracer& tracer, RunOutcome& out) {
  const sim::MachineConfig machine =
      sim::sve_gem5().with_vlen(kVlenBits).with_l2_size(kL2Bytes);
  ScopedSpan whole(&tracer, "sim-yolo20", "sim");

  dnn::Tensor input(1, 3, kInput, kInput);
  input.randomize_item(0, seed);
  std::unique_ptr<dnn::Network> net;
  {
    ScopedSpan span(&tracer, "dnn::build_yolov3_prefix_20", "dnn");
    net = dnn::build_yolov3_prefix_20(kInput);
  }
  std::vector<PolicyRun> runs(2);
  runs[0].name = "gemm";
  runs[0].policy = core::EnginePolicy::opt6loop();
  runs[1].name = "winograd";
  runs[1].policy = core::EnginePolicy::winograd();
  for (PolicyRun& r : runs) {
    r.engine = std::make_unique<core::ConvolutionEngine>(r.policy);
    ScopedSpan span(&tracer, "core::ConvolutionEngine::prepare", "core");
    r.engine->prepare(*net);
  }
  for (PolicyRun& r : runs) {
    {
      ScopedSpan span(&tracer, "functional reference", "vla");
      vla::VectorEngine eng(kVlenBits);
      dnn::ExecContext ctx(eng);
      r.engine->install(ctx);
      r.functional = copy_tensor(net->forward(ctx, input));
    }
    ScopedSpan span(&tracer, "warm-up pass", "sim");
    r.sctx = std::make_unique<sim::SimContext>(machine);
    r.eng = std::make_unique<vla::VectorEngine>(*r.sctx);
    r.ctx = std::make_unique<dnn::ExecContext>(*r.eng);
    r.engine->install(*r.ctx);
    net->forward(*r.ctx, input);
  }

  // One untraced pass per policy (cycles, host time, whole-pass counters),
  // then one profile pass with per-layer deltas. Both must match the
  // functional output bit for bit, and the profile pass must repeat the
  // untraced pass's cycle count exactly.
  for (PolicyRun& r : runs) {
    ScopedSpan span(&tracer, std::string("simulated pass ") + r.name, "sim");
    r.sctx->reset();
    r.ctx->records.clear();
    const auto t0 = SteadyClock::now();
    const dnn::Tensor& y = net->forward(*r.ctx, input);
    r.cycles = r.sctx->cycles();
    r.host_s = seconds_since(t0);
    r.timing = r.sctx->timing().stats();
    r.l2 = r.sctx->memory().l2_stats();
    r.dram_lines = r.sctx->memory().dram_line_fills();
    out.attempted += 1;
    if (!same_bits(y, 0, r.functional, 0)) out.failed += 1;
  }
  for (PolicyRun& r : runs) {
    const core::CostModel model(machine, r.engine->plan().opt6);
    r.sctx->reset();
    r.ctx->records.clear();
    const dnn::Tensor& y =
        profile_pass(*net, *r.ctx, r.engine->plan(), input, tracer,
                     std::string("sim-") + r.name, &model, out.layers);
    out.attempted += 1;
    if (!same_bits(y, 0, r.functional, 0) || r.sctx->cycles() != r.cycles)
      out.failed += 1;
  }

  for (const PolicyRun& r : runs) {
    const std::string sfx = std::string("_") + r.name;
    const sim::TimingStats& ts = r.timing;
    std::vector<double> rel;
    for (const LayerRow& row : out.layers)
      if (row.pass == std::string("sim-") + r.name && row.model_cycles > 0 &&
          row.cycles > 0)
        rel.push_back(std::fabs(static_cast<double>(row.model_cycles) -
                                static_cast<double>(row.cycles)) /
                      static_cast<double>(row.cycles));
    out.detail.push_back({"sim_cycles" + sfx, static_cast<double>(r.cycles),
                          "cycles", "repeats exactly"});
    out.detail.push_back({"sim_host_s" + sfx, r.host_s, "s", "untraced pass"});
    out.per_layer.push_back({"sim.cycles" + sfx, static_cast<double>(r.cycles),
                             "cycles", ""});
    out.per_layer.push_back({"sim.mem_stall_cycles" + sfx,
                             static_cast<double>(ts.mem_stall_cycles), "cycles",
                             "overlaps issue stall"});
    out.per_layer.push_back({"sim.issue_stall_cycles" + sfx,
                             static_cast<double>(ts.issue_stall_cycles), "cycles",
                             "overlaps mem stall"});
    out.per_layer.push_back({"sim.l2_miss_rate" + sfx, r.l2.miss_rate(), "ratio", ""});
    out.per_layer.push_back({"sim.dram_lines" + sfx,
                             static_cast<double>(r.dram_lines), "lines", ""});
    out.per_layer.push_back(
        {"vla.avg_vl_elems" + sfx, ts.avg_vector_length_elems(), "elems", ""});
    out.per_layer.push_back({"vla.vinst" + sfx,
                             static_cast<double>(ts.vector_instructions), "count",
                             ""});
    out.per_layer.push_back(
        {"sim.host_ns_per_vinst" + sfx,
         r.host_s * 1e9 / static_cast<double>(ts.vector_instructions), "ns",
         "untraced pass"});
    out.per_layer.push_back({"core.costmodel.rel_err" + sfx, median(rel), "ratio",
                             "median over conv layers"});
  }
}

}  // namespace

void profile_sim(std::uint64_t seed, Tracer& tracer, RunOutcome& out) {
  // A thread of its own: stack temporaries the simulator maps by host cache
  // line then sit at offsets independent of argv / environ.
  std::exception_ptr err;
  std::thread t([&] {
    try {
      simulate(seed, tracer, out);
    } catch (...) {
      err = std::current_exception();
    }
  });
  t.join();
  if (err) std::rethrow_exception(err);
}

}  // namespace perfbench
