#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/sim_context.hpp"

/// Marks a lane loop as free of loop-carried dependences. Two register
/// operands are either the same register or disjoint, and a memory operand
/// never lies inside the private register file (see VectorEngine), so lane l
/// of the destination depends only on lane l of each source. Without this
/// the vectorizer guards every such loop with a runtime overlap check and a
/// scalar fallback (`__restrict` on the inlined ops' locals does not reach
/// it).
#if defined(__clang__)
#define VLACNN_LANE_LOOP _Pragma("clang loop vectorize(assume_safety)")
#elif defined(__GNUC__)
#define VLACNN_LANE_LOOP _Pragma("GCC ivdep")
#else
#define VLACNN_LANE_LOOP
#endif

namespace vlacnn::vla {

namespace simd {
/// Four fp32 lanes as one GCC/Clang generic vector, lowered to whatever
/// SIMD the target has (SSE2 on baseline x86-64). Each lane of an
/// arithmetic op on it is the scalar IEEE op, so the results are
/// bit-identical to a scalar lane loop.
using F32x4 = float __attribute__((vector_size(16)));
inline F32x4 load4(const float* p) {
  F32x4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store4(float* p, F32x4 v) { std::memcpy(p, &v, sizeof v); }
/// `x` in every lane of a T (float or F32x4), bit for bit.
template <typename T>
T splat(float x) {
  if constexpr (std::is_same_v<T, float>)
    return x;
  else
    return T{x, x, x, x};
}
}  // namespace simd

/// Architectural vector register number (v0..v31).
using Vreg = int;
/// Architectural predicate register number (p0..p15, SVE only).
using Preg = int;

/// Vector-length-agnostic vector engine: the substitute for RVV / SVE
/// hardware intrinsics.
///
/// Kernels are written against this class exactly as they would be written
/// with EPI builtins (RVV) or ACLE (SVE): the author allocates architectural
/// registers v0..v31 explicitly, strip-mines loops with `setvl` (RVV style)
/// or `whilelt` predicates (SVE style), and uses contiguous / strided /
/// gather-scatter memory operations and vector-scalar FMAs.
///
/// The engine executes every operation functionally on host memory. When a
/// `sim::SimContext` is attached, each operation additionally feeds the
/// scoreboard timing model and the cache hierarchy, so the same kernel code
/// yields both numerics and simulated cycles.
///
/// Functional vs instrumented path. The ops the GEMM, Winograd, im2col and
/// epilogue kernels issue per inner-loop step (setvl, unit-stride and strided
/// load/store, broadcast, the FMAs and element-wise arithmetic, the local
/// gather/scatter, prefetch and the scalar accounting) are defined in this
/// header, so they inline into the kernels: the register range check, the
/// lane loop and the functional traffic count stay inline, and all simulator
/// bookkeeping sits behind a single `ctx_ != nullptr` test, as out-of-line
/// calls (the timing model's own entry points, or a private `timed_*`
/// helper where an address must be translated first). A functional engine
/// thus pays one predictable branch per op instead of a call; an
/// instrumented engine issues the same timing/memory events in the same
/// order as before. The remaining ops (predicated, gather/scatter,
/// reductions, permutes) are out of line.
///
/// Inlining exposes `acc += a * b` to the kernels' optimizer, which may
/// contract it into a fused multiply-add and change the rounding. The
/// library therefore builds with `-ffp-contract=off` (root CMakeLists.txt),
/// keeping the fp32 paths 0-ulp against the sequential reference.
///
/// Register operands. Each register is its own vlmax()-float slice of one
/// register file, so two register operands of an op are either the same
/// register (`vadd(u, u, b)`, `vfma(u, u, u)`) or disjoint; they never
/// partially overlap, and no memory operand lies inside the file. Lane l of
/// an element-wise op therefore reads only lane l of its sources: the shared
/// lane loop (`lanes`) loads a whole 16-lane block before storing it, and
/// its remainder loop is declared free of loop-carried dependences
/// (VLACNN_LANE_LOOP), instead of either being guarded by a runtime overlap
/// check. The file's base pointer and VLMAX are cached as members, so a
/// register's address is one multiply-add; the engine is non-copyable so
/// that cached pointer can never point into another engine's file. Engines
/// are held by reference or `unique_ptr`.
class VectorEngine {
 public:
  static constexpr unsigned kNumVregs = 32;
  static constexpr unsigned kNumPregs = 16;

  /// Functional-only engine with the given hardware vector length.
  explicit VectorEngine(unsigned vlen_bits);
  /// Instrumented engine; vector length comes from the machine config.
  explicit VectorEngine(sim::SimContext& ctx);
  VectorEngine(const VectorEngine&) = delete;
  VectorEngine& operator=(const VectorEngine&) = delete;

  [[nodiscard]] unsigned vlen_bits() const { return vlen_bits_; }
  /// VLMAX for 32-bit elements (svcntw() in SVE terms).
  [[nodiscard]] std::size_t vlmax() const { return vlmax_; }
  [[nodiscard]] sim::SimContext* context() const { return ctx_; }

  // ---------------- RVV-style strip mining ----------------

  /// `vsetvl`: returns the granted vector length min(requested, VLMAX) and
  /// makes it the implicit element count of subsequent unpredicated ops.
  std::size_t setvl(std::size_t requested) {
    gvl_ = std::min(requested, vlmax());
    if (ctx_ != nullptr) [[unlikely]]
      ctx_->timing().vop(sim::VopClass::SetVl, -1, {}, 0);
    return gvl_;
  }
  [[nodiscard]] std::size_t gvl() const { return gvl_; }

  // ---------------- SVE-style predication ----------------

  /// `whilelt p, i, n`: lane l is active iff i + l < n. Returns active count.
  std::size_t whilelt(Preg p, std::size_t i, std::size_t n);
  /// `ptrue`: all VLMAX lanes active.
  void ptrue(Preg p);
  [[nodiscard]] std::size_t active_lanes(Preg p) const;

  // ---------------- memory operations ----------------

  /// Unit-stride load of gvl() elements.
  void vload(Vreg vd, const float* src) {
    check_vreg(vd);
    const std::size_t n = gvl_;
    lanes(n, reg(vd), [](auto x) { return x; }, src);
    count_mem(n * sizeof(float), false);
    if (ctx_ != nullptr) [[unlikely]]
      timed_vmem(sim::VopClass::Load, vd, {}, n, src, n * sizeof(float), false);
  }
  /// Unit-stride store of gvl() elements.
  void vstore(Vreg vs, float* dst) {
    check_vreg(vs);
    const std::size_t n = gvl_;
    lanes(n, dst, [](auto x) { return x; }, reg(vs));
    count_mem(n * sizeof(float), true);
    if (ctx_ != nullptr) [[unlikely]]
      timed_vmem(sim::VopClass::Store, -1, {vs}, n, dst, n * sizeof(float),
                 true);
  }
  /// Predicated unit-stride load/store (SVE): inactive lanes are zeroed /
  /// skipped.
  void vload_pred(Vreg vd, Preg p, const float* src);
  void vstore_pred(Vreg vs, Preg p, float* dst);
  /// Strided load/store (stride in elements); gvl() elements.
  void vload_strided(Vreg vd, const float* base, std::ptrdiff_t stride_elems) {
    check_vreg(vd);
    const std::size_t n = gvl_;
    float* __restrict d = reg(vd);
    const float* __restrict s = base;
    for (std::size_t l = 0; l < n; ++l)
      d[l] = s[static_cast<std::ptrdiff_t>(l) * stride_elems];
    count_mem(n * sizeof(float), false);
    if (ctx_ != nullptr) [[unlikely]]
      timed_vmem_strided(sim::VopClass::Load, vd, base, stride_elems, n, false);
  }
  void vstore_strided(Vreg vs, float* base, std::ptrdiff_t stride_elems);
  /// Gather / scatter with per-element indices (in elements from base).
  void vgather(Vreg vd, const float* base, const std::int32_t* indices);
  void vscatter(Vreg vs, float* base, const std::int32_t* indices);

  /// Structured gather/scatter over a small cache-resident region — the
  /// cost model of SVE tuple loads + register transposes (ld4/st4 + trn/zip,
  /// the intrinsics the paper's Winograd uses, §IV-B/§VII). Functionally
  /// identical to vgather/vscatter; billed as one unit-stride access over
  /// the touched footprint plus an in-register permute, instead of
  /// per-element address generation.
  void vgather_local(Vreg vd, const float* base, const std::int32_t* indices) {
    check_vreg(vd);
    const std::size_t n = gvl_;
    float* __restrict d = reg(vd);
    const float* __restrict s = base;
    for (std::size_t l = 0; l < n; ++l) d[l] = s[indices[l]];
    count_mem(n * sizeof(float), false);
    if (ctx_ != nullptr) [[unlikely]]
      timed_gather_local(vd, base, indices, n);
  }
  void vscatter_local(Vreg vs, float* base, const std::int32_t* indices) {
    check_vreg(vs);
    const std::size_t n = gvl_;
    const float* __restrict s = reg(vs);
    float* __restrict d = base;
    for (std::size_t l = 0; l < n; ++l) d[indices[l]] = s[l];
    count_mem(n * sizeof(float), true);
    if (ctx_ != nullptr) [[unlikely]]
      timed_scatter_local(vs, base, indices, n);
  }

  /// Software prefetch hint (level 1 = L1, 2 = L2). Honoured only on
  /// machines with `sw_prefetch_effective` (paper §IV-A).
  void prefetch(const void* addr, std::size_t bytes, int level) {
    if (ctx_ != nullptr) [[unlikely]]
      timed_prefetch(addr, bytes, level);
  }

  // ---------------- arithmetic ----------------
  //
  // Register operands may name the same register (`vadd(u, u, b)`), so the
  // lane pointers of register-register ops are not `__restrict`; `lanes`
  // relies on the same-or-disjoint rule instead (see the class comment).

  void vbroadcast(Vreg vd, float x) {
    check_vreg(vd);
    const std::size_t n = gvl_;
    float* __restrict d = reg(vd);
    for (std::size_t l = 0; l < n; ++l) d[l] = x;
    if (ctx_ != nullptr) [[unlikely]]
      ctx_->timing().vop(sim::VopClass::Broadcast, vd, {}, n);
  }
  /// vd[i] = a[i] + b[i], etc. All use gvl() elements.
  void vadd(Vreg vd, Vreg va, Vreg vb) {
    binop(vd, va, vb, [](auto a, auto b) { return a + b; });
  }
  void vsub(Vreg vd, Vreg va, Vreg vb) {
    binop(vd, va, vb, [](auto a, auto b) { return a - b; });
  }
  void vmul(Vreg vd, Vreg va, Vreg vb) {
    binop(vd, va, vb, [](auto a, auto b) { return a * b; });
  }
  void vdiv(Vreg vd, Vreg va, Vreg vb);
  // std::max / std::min, lane-wise: (a < b) ? b : a and (b < a) ? b : a.
  void vmax(Vreg vd, Vreg va, Vreg vb) {
    binop(vd, va, vb, [](auto a, auto b) { return a < b ? b : a; });
  }
  void vmin(Vreg vd, Vreg va, Vreg vb) {
    binop(vd, va, vb, [](auto a, auto b) { return b < a ? b : a; });
  }
  /// vacc[i] += va[i] * vb[i]   (vfmacc.vv)
  void vfma(Vreg vacc, Vreg va, Vreg vb) {
    check_vreg(vacc);
    check_vreg(va);
    check_vreg(vb);
    const std::size_t n = gvl_;
    float* acc = reg(vacc);
    lanes(n, acc, [](auto c, auto x, auto y) { return c + x * y; }, acc,
          reg(va), reg(vb));
    if (ctx_ != nullptr) [[unlikely]]
      ctx_->timing().vop(sim::VopClass::Fma, vacc, {vacc, va, vb}, n);
  }
  /// vacc[i] += a * vb[i]       (vfmacc.vf — vector-scalar FMA; the compiler
  /// pattern the paper relies on to avoid explicit broadcasts)
  void vfma_scalar(Vreg vacc, float a, Vreg vb) {
    check_vreg(vacc);
    check_vreg(vb);
    const std::size_t n = gvl_;
    float* acc = reg(vacc);
    lanes(n, acc, [a](auto c, auto y) { return c + a * y; }, acc, reg(vb));
    if (ctx_ != nullptr) [[unlikely]]
      ctx_->timing().vop(sim::VopClass::Fma, vacc, {vacc, vb}, n);
  }
  void vadd_scalar(Vreg vd, Vreg va, float b) {
    map_lanes(vd, va, [b](auto a) { return a + b; });
  }
  void vmul_scalar(Vreg vd, Vreg va, float b) {
    map_lanes(vd, va, [b](auto a) { return a * b; });
  }
  void vmax_scalar(Vreg vd, Vreg va, float b) {
    map_lanes(vd, va, [b](auto a) {
      return a < b ? simd::splat<decltype(a)>(b) : a;
    });
  }
  /// Predicated FMA (SVE): only active lanes update.
  void vfma_pred(Vreg vacc, Preg p, Vreg va, Vreg vb);
  void vfma_scalar_pred(Vreg vacc, Preg p, float a, Vreg vb);

  /// Horizontal sum of gvl() elements.
  float vredsum(Vreg v);
  float vredmax(Vreg v);

  // ---------------- permutes (Winograd transposes) ----------------

  /// vd[i] = vs[idx[i]] for gvl() elements (tbl / vrgather).
  void vpermute(Vreg vd, Vreg vs, const std::int32_t* idx);
  /// Interleave even/odd (zip1/zip2-like) helpers used by the Winograd
  /// tuple transpose.
  void vzip_lo(Vreg vd, Vreg va, Vreg vb);
  void vzip_hi(Vreg vd, Vreg va, Vreg vb);

  // ---------------- scalar-side accounting ----------------

  /// Charges `n` scalar bookkeeping operations (loop control, address
  /// arithmetic) to the scalar pipe. No functional effect.
  void scalar_ops(std::uint64_t n) {
    if (ctx_ != nullptr) [[unlikely]]
      ctx_->timing().scalar(n);
  }
  /// Charges a scalar load/store of `bytes` at `addr`.
  void scalar_mem(const void* addr, std::size_t bytes, bool write) {
    count_mem(bytes, write);
    if (ctx_ != nullptr) [[unlikely]]
      timed_scalar_mem(addr, bytes, write);
  }

  // ---------------- traffic accounting ----------------

  /// Cumulative bytes read / written through this engine's memory operations
  /// (vector and scalar). Maintained functionally — unlike the simulator's
  /// cache statistics these are available on uninstrumented runs, which is
  /// what lets the fused-conv benchmarks and tests compare the memory
  /// traffic of two algorithm pipelines at host speed.
  [[nodiscard]] std::uint64_t mem_bytes_read() const { return bytes_read_; }
  [[nodiscard]] std::uint64_t mem_bytes_written() const { return bytes_written_; }
  [[nodiscard]] std::uint64_t mem_bytes_moved() const {
    return bytes_read_ + bytes_written_;
  }
  void reset_mem_counters() { bytes_read_ = bytes_written_ = 0; }
  /// Folds traffic observed on helper engines (intra-op pool workers) into
  /// this engine so a coordinating engine's counters stay inclusive.
  void add_mem_bytes(std::uint64_t read, std::uint64_t written) {
    bytes_read_ += read;
    bytes_written_ += written;
  }

  // ---------------- test access ----------------

  [[nodiscard]] float lane(Vreg v, std::size_t i) const;
  void set_lane(Vreg v, std::size_t i, float x);

 private:
  float* reg(Vreg v) { return rf_ + static_cast<std::size_t>(v) * vlmax_; }
  const float* reg(Vreg v) const {
    return rf_ + static_cast<std::size_t>(v) * vlmax_;
  }
  void check_vreg(Vreg v) const {
    if (v < 0 || v >= static_cast<int>(kNumVregs)) [[unlikely]]
      bad_vreg();
  }
  [[noreturn]] static void bad_vreg();
  void check_preg(Preg p) const;

  /// Lanes per block of `lanes`: one 64-byte line, four simd::F32x4.
  static constexpr std::size_t kBlockLanes = 16;

  /// d[l] = f(src[l]...) for l in [0, n): the lane loop of every
  /// element-wise op. Whole kBlockLanes-lane blocks run as four 4-lane
  /// vector ops each, every load of a block ahead of its stores, so a
  /// full-width op at 512 bits is straight-line code; a remainder shorter
  /// than a block runs a plain lane loop out of line, which keeps the
  /// inlined op short. `f` takes and returns either simd::F32x4 or float
  /// lanes, with the same IEEE op per lane.
  template <typename F, typename... Src>
  static void lanes(std::size_t n, float* d, F f, const Src*... src) {
    for (std::size_t l = 0; l < n; l += kBlockLanes) {
      if (n - l < kBlockLanes) [[unlikely]] {
        lanes_rest(n - l, d + l, f, (src + l)...);
        return;
      }
      const simd::F32x4 r0 = f(simd::load4(src + l)...);
      const simd::F32x4 r1 = f(simd::load4(src + l + 4)...);
      const simd::F32x4 r2 = f(simd::load4(src + l + 8)...);
      const simd::F32x4 r3 = f(simd::load4(src + l + 12)...);
      simd::store4(d + l, r0);
      simd::store4(d + l + 4, r1);
      simd::store4(d + l + 8, r2);
      simd::store4(d + l + 12, r3);
    }
  }
  template <typename F, typename... Src>
  [[gnu::noinline]] static void lanes_rest(std::size_t n, float* d, F f,
                                           const Src*... src) {
    VLACNN_LANE_LOOP
    for (std::size_t l = 0; l < n; ++l) d[l] = f(src[l]...);
  }

  /// d[l] = op(a[l], b[l]) over gvl() lanes, billed as one Arith op.
  template <typename Op>
  void binop(Vreg vd, Vreg va, Vreg vb, Op op) {
    check_vreg(vd);
    check_vreg(va);
    check_vreg(vb);
    const std::size_t n = gvl_;
    lanes(n, reg(vd), op, reg(va), reg(vb));
    if (ctx_ != nullptr) [[unlikely]]
      ctx_->timing().vop(sim::VopClass::Arith, vd, {va, vb}, n);
  }
  /// d[l] = op(a[l]) over gvl() lanes, billed as one Arith op.
  template <typename Op>
  void map_lanes(Vreg vd, Vreg va, Op op) {
    check_vreg(vd);
    check_vreg(va);
    const std::size_t n = gvl_;
    lanes(n, reg(vd), op, reg(va));
    if (ctx_ != nullptr) [[unlikely]]
      ctx_->timing().vop(sim::VopClass::Arith, vd, {va}, n);
  }

  // Simulator bookkeeping that translates addresses: called only with a
  // SimContext attached.
  void timed_vmem(sim::VopClass cls, int dst, std::initializer_list<int> srcs,
                  std::size_t elements, const void* addr, std::size_t bytes,
                  bool write);
  void timed_vmem_strided(sim::VopClass cls, int dst, const void* base,
                          std::ptrdiff_t stride_elems, std::size_t n,
                          bool write);
  void timed_gather_local(Vreg vd, const float* base,
                          const std::int32_t* indices, std::size_t n);
  void timed_scatter_local(Vreg vs, float* base, const std::int32_t* indices,
                           std::size_t n);
  void timed_prefetch(const void* addr, std::size_t bytes, int level);
  void timed_scalar_mem(const void* addr, std::size_t bytes, bool write);

  /// Counts `bytes` toward the functional traffic totals.
  void count_mem(std::size_t bytes, bool write) {
    if (write)
      bytes_written_ += bytes;
    else
      bytes_read_ += bytes;
  }

  sim::SimContext* ctx_ = nullptr;
  unsigned vlen_bits_;
  std::size_t vlmax_;  // vlen_bits_ / 32
  std::size_t gvl_;
  float* rf_ = nullptr;  // regfile_.data(), fixed after construction
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::vector<float> regfile_;               // kNumVregs * vlmax()
  std::vector<std::uint8_t> predfile_;       // kNumPregs * vlmax()
};

/// Folds the memory traffic that intra-op worker engines generate during a
/// fan-out into the coordinating engine, so its counters stay inclusive:
/// snapshot() before the parallel_for, fold_into() after the join. The
/// single implementation shared by the GEMM M-panel and Winograd tile
/// fan-outs — the two backends' bytes-moved accounting must not drift.
/// Reusable across calls (the snapshot buffer is retained).
class WorkerTrafficFold {
 public:
  void snapshot(const std::vector<std::unique_ptr<VectorEngine>>& workers,
                int n) {
    before_.resize(static_cast<std::size_t>(n));
    for (int w = 0; w < n; ++w)
      before_[static_cast<std::size_t>(w)] = {
          workers[static_cast<std::size_t>(w)]->mem_bytes_read(),
          workers[static_cast<std::size_t>(w)]->mem_bytes_written()};
  }
  void fold_into(VectorEngine& eng,
                 const std::vector<std::unique_ptr<VectorEngine>>& workers,
                 int n) const {
    for (int w = 0; w < n; ++w) {
      const VectorEngine& weng = *workers[static_cast<std::size_t>(w)];
      eng.add_mem_bytes(
          weng.mem_bytes_read() - before_[static_cast<std::size_t>(w)].first,
          weng.mem_bytes_written() -
              before_[static_cast<std::size_t>(w)].second);
    }
  }

 private:
  std::vector<std::pair<std::uint64_t, std::uint64_t>> before_;
};

/// Lazily materializes functional engine `w` of a per-worker pool,
/// recreating it when the requested hardware vector length changes. Shared
/// by the intra-op parallel GEMM/Winograd paths and the batch scheduler so
/// engine construction has a single home. Not thread-safe: call from the
/// coordinating thread before fanning out.
inline VectorEngine& ensure_worker_engine(
    std::vector<std::unique_ptr<VectorEngine>>& engines, int w,
    unsigned vlen_bits) {
  const auto idx = static_cast<std::size_t>(w);
  if (engines.size() <= idx) engines.resize(idx + 1);
  if (!engines[idx] || engines[idx]->vlen_bits() != vlen_bits)
    engines[idx] = std::make_unique<VectorEngine>(vlen_bits);
  return *engines[idx];
}

}  // namespace vlacnn::vla
