#pragma once

// Shared pieces of the workloads: options, the metric record, the served
// network stack, the single-context profile pass and small tensor /
// process helpers.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/conv_engine.hpp"
#include "core/cost_model.hpp"
#include "dnn/network.hpp"
#include "runtime/batch_scheduler.hpp"
#include "trace.hpp"

namespace vlacnn::serve {}  // declared for the alias below

namespace perfbench {

namespace core = vlacnn::core;
namespace dnn = vlacnn::dnn;
namespace gemm = vlacnn::gemm;
namespace runtime = vlacnn::runtime;
namespace serve = vlacnn::serve;
namespace sim = vlacnn::sim;
namespace vla = vlacnn::vla;

/// BatchScheduler pool size of both workloads, capped at the host's core
/// count; nothing else the harness starts runs above it.
inline constexpr int kWorkers = 4;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 3;

/// What one invocation varies; every other workload parameter is a
/// constant of its workload's source file.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  int workers = kWorkers;  ///< kWorkers capped at the host's core count
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< percentile / sample count, printed beside the value
};

/// One row of the per-network-layer table from a profile pass.
struct LayerRow {
  std::string pass;  ///< "vgg16", "tiny", "functional-gemm", "sim-winograd", ...
  int index = 0;
  std::string kind;     ///< Layer::name(): "conv 64 3x3/1", "connected", ...
  std::string backend;  ///< ExecContext::conv_label, or the layer kind
  double flops = 0.0;   ///< over all items of the pass
  double host_ms = 0.0; ///< the layer's span
  double self_ms = 0.0; ///< span minus its child spans
  bool simulated = false;
  std::uint64_t cycles = 0;
  std::uint64_t mem_stall = 0;
  std::uint64_t issue_stall = 0;
  std::uint64_t dram_lines = 0;
  double avg_vl = 0.0;
  std::uint64_t model_cycles = 0;  ///< CostModel prediction (conv only)
};

/// What a workload hands back to main().
struct RunOutcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< rejected + shed + errored + mismatched
  std::vector<Metric> end_to_end;  ///< the JSON metrics of an untraced run
  std::vector<Metric> detail;      ///< the workload's own named metrics
  std::vector<Metric> per_layer;   ///< measured module metrics (traced run)
  std::vector<LayerRow> layers;
};

/// One network served by a BatchScheduler: what offline-vgg16 and
/// serve-tiny-poisson set up, with the time each set-up step took.
struct Stack {
  std::unique_ptr<dnn::Network> net;
  std::unique_ptr<core::ConvolutionEngine> engine;
  std::unique_ptr<runtime::BatchScheduler> sched;
  double total_s = 0.0;  ///< build + plan + prepare + warm-up
  double plan_s = 0.0;
  double prepare_s = 0.0;
};

/// Builds the network (`build`, traced as `build_name`), plans it with
/// select_per_layer(CostSource::Analytic) on a64fx priced for
/// `plan_batch`, prepares the engine and warms the scheduler with one
/// batch of `warm`.
std::unique_ptr<Stack> set_up_stack(
    const std::function<std::unique_ptr<dnn::Network>()>& build,
    const char* build_name, int plan_batch, int workers,
    const dnn::Tensor& warm, Tracer* tr);

/// Network::forward of `input` on a fresh single context under the stack's
/// plan, copied out: the bit-identity reference.
dnn::Tensor reference_forward(Stack& s, const dnn::Tensor& input);

/// Runs every layer of `net` on the single context `ctx`, as
/// Network::forward does (per layer: prepare_batch, then forward_item per
/// item), except that layers BatchScheduler dispatches batch-fused
/// (weight-resident convs; FC layers under fc_weight_resident) go through
/// forward_batch when the input holds more than one item. Each call is a
/// span. With a SimContext on the engine, the TimingStats / MemorySystem
/// deltas of each layer fill the row's sim columns; `model` adds the
/// CostModel prediction for conv layers. The rows are appended to `rows`.
const dnn::Tensor& profile_pass(dnn::Network& net, dnn::ExecContext& ctx,
                                const core::BackendPlan& plan,
                                const dnn::Tensor& input, Tracer& tracer,
                                const std::string& pass,
                                const core::CostModel* model,
                                std::vector<LayerRow>& rows);

/// profile_pass on a fresh single context under the stack's plan.
const dnn::Tensor& profile_stack(Stack& s, const dnn::Tensor& input,
                                 Tracer& tracer, const std::string& pass,
                                 std::vector<LayerRow>& rows);

/// Aggregates profile rows into the dnn/gemm/winograd module metrics.
void add_host_layer_metrics(const std::vector<LayerRow>& rows,
                            std::vector<Metric>& out);

/// Copy of item `b` of `src` as a batch-1 tensor.
dnn::Tensor copy_item(const dnn::Tensor& src, int b);

/// Copy of the whole tensor.
dnn::Tensor copy_tensor(const dnn::Tensor& src);

/// Bitwise equality of item `a` of `x` with item `b` of `y`.
bool same_bits(const dnn::Tensor& x, int a, const dnn::Tensor& y, int b);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

double seconds_since(SteadyClock::time_point t0);

double median(std::vector<double> v);

Metric find_metric(const std::vector<Metric>& v, const std::string& name);

RunOutcome run_offline(const Options& o);
RunOutcome run_serve(const Options& o);

/// The paper's clock, for a traced run: YOLOv3's first 20 layers simulated
/// at 2048 bits under the GEMM and the Winograd policy, on a thread of its
/// own. Appends the sim_cycles_* / sim_host_s_* metrics to `out.detail`, the
/// sim/vla/cost-model module metrics to `out.per_layer` and the simulated
/// layer rows to `out.layers`; counts every pass in attempted / failed
/// (bit-identity with a functional pass at the same vector length, exact
/// cycle repeat). Call it before the process allocates any other tensor.
void profile_sim(std::uint64_t seed, Tracer& tracer, RunOutcome& out);

}  // namespace perfbench
