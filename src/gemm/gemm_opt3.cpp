#include "gemm/gemm_opt3.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace vlacnn::gemm {

namespace {
constexpr int kMaxAccRegs = 30;  // v0..v29 accumulators, v30 = B row
constexpr vla::Vreg kVB = 30;
constexpr vla::Vreg kVSpill = 31;

/// The (j, i, k) loops of gemm_opt3 with the alpha case fixed for the whole
/// call (`kScaled` is alpha != 1; the paper skips the multiply when
/// ALPHA == 1). Every operand is a by-value parameter, so none is re-read
/// after an engine op's call into the simulator.
template <bool kScaled>
void opt3_loops(vla::VectorEngine& eng, int unroll, int M, int N, int K,
                float alpha, const float* A, int lda, const float* B, int ldb,
                float* C, int ldc) {
  const int in_regs = std::min(unroll, kMaxAccRegs);
  const auto a_row = static_cast<std::size_t>(lda);
  const auto c_row = static_cast<std::size_t>(ldc);
  for (int j = 0; j < N;) {
    const auto gvl = static_cast<int>(eng.setvl(static_cast<std::size_t>(N - j)));
    eng.scalar_ops(2);  // strip-mine bookkeeping
    for (int i = 0; i < M; i += unroll) {
      const int rows = std::min(unroll, M - i);
      const int reg_rows = std::min(rows, in_regs);
      eng.scalar_ops(3);  // i-loop bookkeeping + address setup
      float* const c_tile = C + static_cast<std::size_t>(i) * c_row + j;

      // Load the C tile into vector accumulators (v0..v(reg_rows-1)).
      for (int u = 0; u < reg_rows; ++u)
        eng.vload(u, c_tile + static_cast<std::size_t>(u) * c_row);

      for (int k = 0; k < K; ++k) {
        eng.vload(kVB, B + static_cast<std::size_t>(k) * ldb + j);
        eng.scalar_ops(2);  // k-loop bookkeeping
        // Column k of the A tile; its rows are lda floats apart.
        const float* const a_col = A + static_cast<std::size_t>(i) * a_row + k;
        const auto a_at = [&](int u) {
          const float* const a_ptr = a_col + static_cast<std::size_t>(u) * a_row;
          eng.scalar_mem(a_ptr, sizeof(float), false);
          float a = *a_ptr;
          if constexpr (kScaled) {
            a *= alpha;
            eng.scalar_ops(1);
          }
          return a;
        };
        for (int u = 0; u < reg_rows; ++u) eng.vfma_scalar(u, a_at(u), kVB);
        for (int u = reg_rows; u < rows; ++u) {
          // Spilled accumulator: round-trips through memory every FMA.
          float* const crow = c_tile + static_cast<std::size_t>(u) * c_row;
          const float a = a_at(u);
          eng.vload(kVSpill, crow);
          eng.vfma_scalar(kVSpill, a, kVB);
          eng.vstore(kVSpill, crow);
        }
      }

      for (int u = 0; u < reg_rows; ++u)
        eng.vstore(u, c_tile + static_cast<std::size_t>(u) * c_row);
    }
    j += gvl;
  }
}
}  // namespace

void gemm_opt3(vla::VectorEngine& eng, const Opt3Config& cfg, int M, int N,
               int K, float alpha, const float* A, int lda, const float* B,
               int ldb, float* C, int ldc) {
  VLACNN_REQUIRE(cfg.unroll_factor >= 1 && cfg.unroll_factor <= 64,
                 "unroll factor out of range");
  if (alpha != 1.0f)
    opt3_loops<true>(eng, cfg.unroll_factor, M, N, K, alpha, A, lda, B, ldb,
                     C, ldc);
  else
    opt3_loops<false>(eng, cfg.unroll_factor, M, N, K, alpha, A, lda, B, ldb,
                      C, ldc);
}

void gemm_opt3_default(vla::VectorEngine& eng, int M, int N, int K,
                       float alpha, const float* A, int lda, const float* B,
                       int ldb, float* C, int ldc) {
  gemm_opt3(eng, Opt3Config{}, M, N, K, alpha, A, lda, B, ldb, C, ldc);
}

}  // namespace vlacnn::gemm
