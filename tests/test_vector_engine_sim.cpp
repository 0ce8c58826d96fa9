// Instrumented vector engine: the same kernel code must produce identical
// numerics with and without a simulator attached, while feeding cycle and
// cache statistics.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "gemm/gemm_opt6.hpp"
#include "gemm/packed_weight_cache.hpp"
#include "sim/sim_context.hpp"
#include "test_util.hpp"
#include "vla/vector_engine.hpp"
#include "winograd/winograd_conv.hpp"

namespace vlacnn::vla {
namespace {

using test::random_vec;

TEST(EngineSim, NumericsIdenticalWithAndWithoutSim) {
  auto src = random_vec(1000, 1);
  auto run = [&](VectorEngine& eng) {
    std::vector<float> out(src.size(), 0.0f);
    for (std::size_t i = 0; i < src.size();) {
      const std::size_t vl = eng.setvl(src.size() - i);
      eng.vload(0, src.data() + i);
      eng.vmul_scalar(1, 0, 3.0f);
      eng.vfma_scalar(1, -1.0f, 0);
      eng.vstore(1, out.data() + i);
      i += vl;
    }
    return out;
  };
  VectorEngine plain(512);
  sim::SimContext ctx(sim::rvv_gem5());
  VectorEngine instrumented(ctx);
  EXPECT_EQ(run(plain), run(instrumented));
}

TEST(EngineSim, EngineTakesVlenFromMachine) {
  sim::SimContext ctx(sim::rvv_gem5().with_vlen(4096));
  VectorEngine eng(ctx);
  EXPECT_EQ(eng.vlen_bits(), 4096u);
  EXPECT_EQ(eng.vlmax(), 128u);
}

TEST(EngineSim, CyclesAccumulateMonotonically) {
  sim::SimContext ctx(sim::rvv_gem5());
  VectorEngine eng(ctx);
  auto buf = random_vec(256, 2);
  eng.setvl(16);
  eng.vload(0, buf.data());
  const auto c1 = ctx.cycles();
  eng.vload(1, buf.data() + 16);
  eng.vfma(0, 0, 1);
  const auto c2 = ctx.cycles();
  EXPECT_GT(c1, 0u);
  EXPECT_GT(c2, c1);
}

TEST(EngineSim, MemoryOpsReachTheCaches) {
  sim::SimContext ctx(sim::sve_gem5());
  VectorEngine eng(ctx);
  auto buf = random_vec(64, 3);
  eng.setvl(16);
  eng.vload(0, buf.data());
  EXPECT_GT(ctx.memory().l1_stats().accesses, 0u);
}

TEST(EngineSim, RepeatedLoadsHitCache) {
  sim::SimContext ctx(sim::sve_gem5());
  VectorEngine eng(ctx);
  auto buf = random_vec(16, 4);
  eng.setvl(16);
  eng.vload(0, buf.data());
  const auto misses_cold = ctx.memory().l1_stats().misses;
  for (int i = 0; i < 10; ++i) eng.vload(0, buf.data());
  EXPECT_EQ(ctx.memory().l1_stats().misses, misses_cold);
}

TEST(EngineSim, AvgVectorLengthReflectsTails) {
  // 100 full strips + tail of 1 element: avg VL just below VLMAX, the
  // Table III effect.
  sim::SimContext ctx(sim::rvv_gem5().with_vlen(512));
  VectorEngine eng(ctx);
  auto buf = random_vec(16 * 100 + 1, 5);
  for (std::size_t i = 0; i < buf.size();) {
    const std::size_t vl = eng.setvl(buf.size() - i);
    eng.vload(0, buf.data() + i);
    i += vl;
  }
  const double avg = ctx.timing().stats().avg_vector_length_elems();
  EXPECT_LT(avg, 16.0);
  EXPECT_GT(avg, 15.5);
}

TEST(EngineSim, GatherCostsMoreThanUnitLoad) {
  auto cycles_for = [](bool gather) {
    sim::SimContext ctx(sim::rvv_gem5().with_vlen(2048));
    VectorEngine eng(ctx);
    static std::vector<float> buf;
    buf = random_vec(4096, 6);
    std::vector<std::int32_t> idx(64);
    for (int i = 0; i < 64; ++i) idx[static_cast<std::size_t>(i)] = i * 64 % 4096;
    eng.setvl(64);
    for (int r = 0; r < 20; ++r) {
      if (gather)
        eng.vgather(0, buf.data(), idx.data());
      else
        eng.vload(0, buf.data());
    }
    return ctx.cycles();
  };
  EXPECT_GT(cycles_for(true), cycles_for(false));
}

TEST(EngineSim, ScalarOpsAdvanceClock) {
  sim::SimContext ctx(sim::rvv_gem5());
  VectorEngine eng(ctx);
  const auto c0 = ctx.cycles();
  eng.scalar_ops(1000);
  EXPECT_GE(ctx.cycles(), c0 + 1000);
}

TEST(EngineSim, PrefetchNoopStillDecodes) {
  sim::SimContext ctx(sim::sve_gem5());  // prefetch ignored on gem5 SVE
  VectorEngine eng(ctx);
  auto buf = random_vec(64, 7);
  const auto c0 = ctx.cycles();
  eng.prefetch(buf.data(), 256, 1);
  EXPECT_GT(ctx.cycles(), c0);  // decode slot charged
  // But the data is NOT resident afterwards.
  eng.setvl(16);
  eng.vload(0, buf.data());
  EXPECT_GT(ctx.memory().l1_stats().misses, 0u);
}

// ---- functional fast path vs instrumented path, whole kernels ----
//
// The hot ops are header-inline and take the simulator hooks behind one
// cold branch; these runs pin that a functional engine and an instrumented
// one still compute the same bits and count the same functional traffic
// through every kernel family that issues them.

/// 3x3/s1 conv with a BN + bias + leaky epilogue: every Gemm6 and Winograd
/// path accepts it, and K spans several k-panels of the default blocking.
dnn::ConvDesc fast_path_desc() {
  dnn::ConvDesc d;
  d.in_c = 32;
  d.in_h = d.in_w = 8;
  d.out_c = 64;
  d.ksize = 3;
  d.stride = 1;
  d.pad = 1;
  d.batch_norm = true;
  d.act = dnn::Activation::Leaky;
  d.validate();
  return d;
}

class FastPathKernels : public ::testing::TestWithParam<unsigned> {
 protected:
  static constexpr int kBatch = 3;

  FastPathKernels()
      : d_(fast_path_desc()),
        weights_(random_vec(static_cast<std::size_t>(d_.weight_count()), 11,
                            -0.5f, 0.5f)),
        input_(random_vec(static_cast<std::size_t>(kBatch) * item_in(), 12)),
        residual_(random_vec(item_out(), 13)),
        mean_(random_vec(static_cast<std::size_t>(d_.out_c), 14)),
        var_(random_vec(static_cast<std::size_t>(d_.out_c), 15, 0.5f, 2.0f)),
        scale_(random_vec(static_cast<std::size_t>(d_.out_c), 16)),
        bias_(random_vec(static_cast<std::size_t>(d_.out_c), 17)) {
    epi_.batch_norm = true;
    epi_.bn_mean = mean_.data();
    epi_.bn_var = var_.data();
    epi_.bn_scale = scale_.data();
    epi_.bias = bias_.data();
    epi_.act = dnn::Activation::Leaky;
  }

  [[nodiscard]] std::size_t item_in() const {
    return static_cast<std::size_t>(d_.in_c) * d_.in_h * d_.in_w;
  }
  [[nodiscard]] std::size_t item_out() const {
    return static_cast<std::size_t>(d_.gemm_m()) * d_.gemm_n();
  }

  /// Runs `kernel` on a functional engine and on an engine instrumented by
  /// sve_gem5 at the test's vector length: outputs must match bit for bit
  /// and the functional traffic counters must agree exactly.
  template <typename Kernel>
  void expect_paths_agree(Kernel&& kernel, const std::string& tag) {
    const sim::MachineConfig machine = sim::sve_gem5().with_vlen(GetParam());
    VectorEngine plain(machine.vlen_bits);
    sim::SimContext ctx(machine);
    VectorEngine timed(ctx);
    const std::vector<float> want = kernel(plain);
    const std::vector<float> got = kernel(timed);
    ASSERT_EQ(want.size(), got.size()) << tag;
    EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)),
              0)
        << tag;
    EXPECT_EQ(plain.mem_bytes_read(), timed.mem_bytes_read()) << tag;
    EXPECT_EQ(plain.mem_bytes_written(), timed.mem_bytes_written()) << tag;
    EXPECT_GT(plain.mem_bytes_read(), 0u) << tag;
    EXPECT_GT(ctx.cycles(), 0u) << tag;
  }

  /// Gemm6::conv_fused with `fmt` weights; a non-F32 format is made
  /// resident first and must be the image the kernel consumes.
  std::vector<float> conv_fused(VectorEngine& eng, gemm::PackFormat fmt) {
    gemm::PackedWeightCache cache;
    gemm::Gemm6 g;
    g.set_weight_cache(&cache);
    g.set_sparsity_pm(500);
    if (fmt != gemm::PackFormat::F32) {
      EXPECT_NE(cache.prepare(weights_.data(), d_.gemm_m(), d_.gemm_k(),
                              g.config().blocks.block_k, fmt, 500),
                nullptr);
    }
    dnn::EpilogueDesc epi = epi_;
    epi.residual = residual_.data();
    std::vector<float> out(item_out(), -1.0f);
    EXPECT_TRUE(g.conv_fused(eng, d_, weights_.data(), input_.data(),
                             out.data(), &epi, fmt));
    if (fmt != gemm::PackFormat::F32) {
      EXPECT_GT(cache.stats().hits, 0u);
    }
    return out;
  }

  dnn::ConvDesc d_;
  std::vector<float> weights_, input_, residual_, mean_, var_, scale_, bias_;
  dnn::EpilogueDesc epi_;
};

TEST_P(FastPathKernels, Gemm6ConvFusedOverEveryWeightFormat) {
  for (const gemm::PackFormat fmt :
       {gemm::PackFormat::F32, gemm::PackFormat::Bf16,
        gemm::PackFormat::Int8PerChannel, gemm::PackFormat::SparseF32}) {
    expect_paths_agree([&](VectorEngine& eng) { return conv_fused(eng, fmt); },
                       gemm::to_string(fmt));
  }
}

TEST_P(FastPathKernels, Gemm6ConvFusedBatch) {
  expect_paths_agree(
      [&](VectorEngine& eng) {
        gemm::Gemm6 g;
        std::vector<float> out(kBatch * item_out(), -1.0f);
        EXPECT_TRUE(g.conv_fused_batch(eng, d_, weights_.data(), input_.data(),
                                       item_in(), out.data(), item_out(),
                                       kBatch, &epi_));
        return out;
      },
      "conv_fused_batch");
}

TEST_P(FastPathKernels, WinogradConv) {
  expect_paths_agree(
      [&](VectorEngine& eng) {
        winograd::WinogradConv wino;
        std::vector<float> out(item_out(), -1.0f);
        wino.run(eng, d_, input_.data(), weights_.data(), out.data(), &epi_);
        return out;
      },
      "winograd");
}

INSTANTIATE_TEST_SUITE_P(SveGem5, FastPathKernels,
                         ::testing::Values(512u, 2048u),
                         [](const auto& info) {
                           return "vl" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace vlacnn::vla
