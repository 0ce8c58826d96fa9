#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/sim_context.hpp"

namespace vlacnn::vla {

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
class VectorEngine {
 public:
  static constexpr unsigned kNumVregs = 32;
  static constexpr unsigned kNumPregs = 16;

  /// Functional-only engine with the given hardware vector length.
  explicit VectorEngine(unsigned vlen_bits);
  /// Instrumented engine; vector length comes from the machine config.
  explicit VectorEngine(sim::SimContext& ctx);

  [[nodiscard]] unsigned vlen_bits() const { return vlen_bits_; }
  /// VLMAX for 32-bit elements (svcntw() in SVE terms).
  [[nodiscard]] std::size_t vlmax() const { return vlen_bits_ / 32; }
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
    float* __restrict d = reg(vd);
    const float* __restrict s = src;
    for (std::size_t l = 0; l < n; ++l) d[l] = s[l];
    count_mem(n * sizeof(float), false);
    if (ctx_ != nullptr) [[unlikely]]
      timed_vmem(sim::VopClass::Load, vd, {}, n, src, n * sizeof(float), false);
  }
  /// Unit-stride store of gvl() elements.
  void vstore(Vreg vs, float* dst) {
    check_vreg(vs);
    const std::size_t n = gvl_;
    const float* __restrict s = reg(vs);
    float* __restrict d = dst;
    for (std::size_t l = 0; l < n; ++l) d[l] = s[l];
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
  // lane pointers of register-register ops are not `__restrict`.

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
    binop(vd, va, vb, [](float a, float b) { return a + b; });
  }
  void vsub(Vreg vd, Vreg va, Vreg vb) {
    binop(vd, va, vb, [](float a, float b) { return a - b; });
  }
  void vmul(Vreg vd, Vreg va, Vreg vb) {
    binop(vd, va, vb, [](float a, float b) { return a * b; });
  }
  void vdiv(Vreg vd, Vreg va, Vreg vb);
  void vmax(Vreg vd, Vreg va, Vreg vb) {
    binop(vd, va, vb, [](float a, float b) { return std::max(a, b); });
  }
  void vmin(Vreg vd, Vreg va, Vreg vb) {
    binop(vd, va, vb, [](float a, float b) { return std::min(a, b); });
  }
  /// vacc[i] += va[i] * vb[i]   (vfmacc.vv)
  void vfma(Vreg vacc, Vreg va, Vreg vb) {
    check_vreg(vacc);
    check_vreg(va);
    check_vreg(vb);
    const std::size_t n = gvl_;
    float* acc = reg(vacc);
    const float* a = reg(va);
    const float* b = reg(vb);
    for (std::size_t l = 0; l < n; ++l) acc[l] += a[l] * b[l];
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
    const float* b = reg(vb);
    for (std::size_t l = 0; l < n; ++l) acc[l] += a * b[l];
    if (ctx_ != nullptr) [[unlikely]]
      ctx_->timing().vop(sim::VopClass::Fma, vacc, {vacc, vb}, n);
  }
  void vadd_scalar(Vreg vd, Vreg va, float b) {
    map_lanes(vd, va, [b](float a) { return a + b; });
  }
  void vmul_scalar(Vreg vd, Vreg va, float b) {
    map_lanes(vd, va, [b](float a) { return a * b; });
  }
  void vmax_scalar(Vreg vd, Vreg va, float b) {
    map_lanes(vd, va, [b](float a) { return std::max(a, b); });
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
  float* reg(Vreg v) {
    return regfile_.data() + static_cast<std::size_t>(v) * vlmax();
  }
  const float* reg(Vreg v) const {
    return regfile_.data() + static_cast<std::size_t>(v) * vlmax();
  }
  void check_vreg(Vreg v) const {
    if (v < 0 || v >= static_cast<int>(kNumVregs)) [[unlikely]]
      bad_vreg();
  }
  [[noreturn]] static void bad_vreg();
  void check_preg(Preg p) const;

  /// d[l] = op(a[l], b[l]) over gvl() lanes, billed as one Arith op.
  template <typename Op>
  void binop(Vreg vd, Vreg va, Vreg vb, Op op) {
    check_vreg(vd);
    check_vreg(va);
    check_vreg(vb);
    const std::size_t n = gvl_;
    float* d = reg(vd);
    const float* a = reg(va);
    const float* b = reg(vb);
    for (std::size_t l = 0; l < n; ++l) d[l] = op(a[l], b[l]);
    if (ctx_ != nullptr) [[unlikely]]
      ctx_->timing().vop(sim::VopClass::Arith, vd, {va, vb}, n);
  }
  /// d[l] = op(a[l]) over gvl() lanes, billed as one Arith op.
  template <typename Op>
  void map_lanes(Vreg vd, Vreg va, Op op) {
    check_vreg(vd);
    check_vreg(va);
    const std::size_t n = gvl_;
    float* d = reg(vd);
    const float* a = reg(va);
    for (std::size_t l = 0; l < n; ++l) d[l] = op(a[l]);
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
  std::size_t gvl_;
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
