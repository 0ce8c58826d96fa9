#include "vla/vector_engine.hpp"

#include <algorithm>

namespace vlacnn::vla {

namespace {
bool is_pow2(unsigned v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

VectorEngine::VectorEngine(unsigned vlen_bits)
    : vlen_bits_(vlen_bits), gvl_(vlen_bits / 32) {
  VLACNN_REQUIRE(is_pow2(vlen_bits) && vlen_bits >= 128 && vlen_bits <= 65536,
                 "vector length must be a power of two in [128, 65536] bits");
  regfile_.assign(static_cast<std::size_t>(kNumVregs) * vlmax(), 0.0f);
  predfile_.assign(static_cast<std::size_t>(kNumPregs) * vlmax(), 0);
}

VectorEngine::VectorEngine(sim::SimContext& ctx)
    : VectorEngine(ctx.config().vlen_bits) {
  ctx_ = &ctx;
}

void VectorEngine::bad_vreg() {
  detail::check_failed("precondition", "v >= 0 && v < kNumVregs", __FILE__,
                       __LINE__, "vector register out of range");
}
void VectorEngine::check_preg(Preg p) const {
  VLACNN_REQUIRE(p >= 0 && p < static_cast<int>(kNumPregs),
                 "predicate register out of range");
}

void VectorEngine::timed_vmem(sim::VopClass cls, int dst,
                              std::initializer_list<int> srcs,
                              std::size_t elements, const void* addr,
                              std::size_t bytes, bool write) {
  const std::uint64_t sim_addr = sim::AddressMap::instance().translate(addr);
  const sim::MemCost cost = ctx_->memory().vector_access(sim_addr, bytes, write);
  ctx_->timing().vmem(cls, dst, srcs, elements, cost);
}

void VectorEngine::timed_vmem_strided(sim::VopClass cls, int dst,
                                      const void* base,
                                      std::ptrdiff_t stride_elems,
                                      std::size_t n, bool write) {
  const std::uint64_t sim_addr = sim::AddressMap::instance().translate(base);
  const sim::MemCost cost = ctx_->memory().vector_access_strided(
      sim_addr, stride_elems * static_cast<std::ptrdiff_t>(sizeof(float)), 4,
      n, write);
  ctx_->timing().vmem(cls, dst, {}, n, cost);
}

// ---------------- strip mining / predication ----------------

std::size_t VectorEngine::whilelt(Preg p, std::size_t i, std::size_t n) {
  check_preg(p);
  std::uint8_t* pr = predfile_.data() + static_cast<std::size_t>(p) * vlmax();
  std::size_t active = 0;
  for (std::size_t l = 0; l < vlmax(); ++l) {
    pr[l] = (i + l < n) ? 1 : 0;
    active += pr[l];
  }
  gvl_ = vlmax();  // SVE ops nominally run at full width with predication
  if (ctx_ != nullptr) ctx_->timing().vop(sim::VopClass::SetVl, -1, {}, 0);
  return active;
}

void VectorEngine::ptrue(Preg p) {
  check_preg(p);
  std::uint8_t* pr = predfile_.data() + static_cast<std::size_t>(p) * vlmax();
  std::fill(pr, pr + vlmax(), std::uint8_t{1});
  gvl_ = vlmax();
  if (ctx_ != nullptr) ctx_->timing().vop(sim::VopClass::SetVl, -1, {}, 0);
}

std::size_t VectorEngine::active_lanes(Preg p) const {
  check_preg(p);
  const std::uint8_t* pr =
      predfile_.data() + static_cast<std::size_t>(p) * vlmax();
  std::size_t active = 0;
  for (std::size_t l = 0; l < vlmax(); ++l) active += pr[l];
  return active;
}

// ---------------- memory ----------------

void VectorEngine::vload_pred(Vreg vd, Preg p, const float* src) {
  check_vreg(vd);
  check_preg(p);
  const std::uint8_t* pr =
      predfile_.data() + static_cast<std::size_t>(p) * vlmax();
  float* d = reg(vd);
  std::size_t active = 0;
  for (std::size_t l = 0; l < vlmax(); ++l) {
    d[l] = pr[l] ? src[l] : 0.0f;
    active += pr[l];
  }
  count_mem(active * sizeof(float), false);
  if (ctx_ != nullptr)
    timed_vmem(sim::VopClass::Load, vd, {}, active, src,
               active * sizeof(float), false);
}

void VectorEngine::vstore_pred(Vreg vs, Preg p, float* dst) {
  check_vreg(vs);
  check_preg(p);
  const std::uint8_t* pr =
      predfile_.data() + static_cast<std::size_t>(p) * vlmax();
  const float* s = reg(vs);
  std::size_t active = 0;
  for (std::size_t l = 0; l < vlmax(); ++l) {
    if (pr[l]) {
      dst[l] = s[l];
      ++active;
    }
  }
  count_mem(active * sizeof(float), true);
  if (ctx_ != nullptr)
    timed_vmem(sim::VopClass::Store, -1, {vs}, active, dst,
               active * sizeof(float), true);
}

void VectorEngine::vstore_strided(Vreg vs, float* base,
                                  std::ptrdiff_t stride_elems) {
  check_vreg(vs);
  const float* s = reg(vs);
  for (std::size_t l = 0; l < gvl_; ++l)
    base[static_cast<std::ptrdiff_t>(l) * stride_elems] = s[l];
  count_mem(gvl_ * sizeof(float), true);
  if (ctx_ != nullptr)
    timed_vmem_strided(sim::VopClass::Store, -1, base, stride_elems, gvl_,
                       true);
}

void VectorEngine::vgather(Vreg vd, const float* base,
                           const std::int32_t* indices) {
  check_vreg(vd);
  float* d = reg(vd);
  for (std::size_t l = 0; l < gvl_; ++l) d[l] = base[indices[l]];
  count_mem(gvl_ * sizeof(float), false);
  if (ctx_ != nullptr) {
    sim::MemCost total;
    for (std::size_t l = 0; l < gvl_; ++l) {
      const std::uint64_t a =
          sim::AddressMap::instance().translate(base + indices[l]);
      total += ctx_->memory().vector_access(a, sizeof(float), false);
    }
    // Element accesses pipeline; rebase the serial part (cf.
    // MemorySystem::vector_access_strided).
    total.serial_cycles = 4 + (total.lines > 0 ? total.lines - 1 : 0);
    ctx_->timing().vmem(sim::VopClass::Gather, vd, {}, gvl_, total);
  }
}

namespace {
/// Splits a lane-index vector into maximal runs of consecutive addresses —
/// the access pattern of a structured tuple load/store (one small
/// unit-stride transfer per channel sub-block).
template <typename Fn>
void for_each_run(const std::int32_t* indices, std::size_t n, Fn&& fn) {
  std::size_t start = 0;
  for (std::size_t l = 1; l <= n; ++l) {
    if (l == n || indices[l] != indices[l - 1] + 1) {
      fn(indices[start], l - start);
      start = l;
    }
  }
}
}  // namespace

void VectorEngine::timed_gather_local(Vreg vd, const float* base,
                                      const std::int32_t* indices,
                                      std::size_t n) {
  sim::MemCost total;
  for_each_run(indices, n, [&](std::int32_t first, std::size_t count) {
    const std::uint64_t a = sim::AddressMap::instance().translate(base + first);
    total += ctx_->memory().vector_access(a, count * sizeof(float), false);
  });
  total.serial_cycles = 4 + (total.lines > 0 ? total.lines - 1 : 0);
  ctx_->timing().vmem(sim::VopClass::Load, vd, {}, n, total);
  ctx_->timing().vop(sim::VopClass::Permute, vd, {vd}, n);
}

void VectorEngine::timed_scatter_local(Vreg vs, float* base,
                                       const std::int32_t* indices,
                                       std::size_t n) {
  ctx_->timing().vop(sim::VopClass::Permute, vs, {vs}, n);
  sim::MemCost total;
  for_each_run(indices, n, [&](std::int32_t first, std::size_t count) {
    const std::uint64_t a = sim::AddressMap::instance().translate(base + first);
    total += ctx_->memory().vector_access(a, count * sizeof(float), true);
  });
  total.serial_cycles = 4 + (total.lines > 0 ? total.lines - 1 : 0);
  ctx_->timing().vmem(sim::VopClass::Store, -1, {vs}, n, total);
}

void VectorEngine::vscatter(Vreg vs, float* base, const std::int32_t* indices) {
  check_vreg(vs);
  const float* s = reg(vs);
  for (std::size_t l = 0; l < gvl_; ++l) base[indices[l]] = s[l];
  count_mem(gvl_ * sizeof(float), true);
  if (ctx_ != nullptr) {
    sim::MemCost total;
    for (std::size_t l = 0; l < gvl_; ++l) {
      const std::uint64_t a =
          sim::AddressMap::instance().translate(base + indices[l]);
      total += ctx_->memory().vector_access(a, sizeof(float), true);
    }
    total.serial_cycles = 4 + (total.lines > 0 ? total.lines - 1 : 0);
    ctx_->timing().vmem(sim::VopClass::Scatter, -1, {vs}, gvl_, total);
  }
}

void VectorEngine::timed_prefetch(const void* addr, std::size_t bytes,
                                  int level) {
  // The instruction itself occupies an issue slot even when it is a no-op
  // (paper §IV-A: gem5 treats SVE prefetches as no-ops but still decodes
  // them; RVV builds simply have no such instruction emitted).
  ctx_->timing().scalar(1);
  const std::uint64_t sim_addr = sim::AddressMap::instance().translate(addr);
  ctx_->memory().software_prefetch(sim_addr, bytes, level);
}

// ---------------- arithmetic ----------------

void VectorEngine::vdiv(Vreg vd, Vreg va, Vreg vb) {
  binop(vd, va, vb, [](float a, float b) { return a / b; });
}

void VectorEngine::vfma_pred(Vreg vacc, Preg p, Vreg va, Vreg vb) {
  check_vreg(vacc);
  check_vreg(va);
  check_vreg(vb);
  check_preg(p);
  const std::uint8_t* pr =
      predfile_.data() + static_cast<std::size_t>(p) * vlmax();
  float* acc = reg(vacc);
  const float* a = reg(va);
  const float* b = reg(vb);
  std::size_t active = 0;
  for (std::size_t l = 0; l < vlmax(); ++l) {
    if (pr[l]) {
      acc[l] += a[l] * b[l];
      ++active;
    }
  }
  if (ctx_ != nullptr)
    ctx_->timing().vop(sim::VopClass::Fma, vacc, {vacc, va, vb}, active);
}

void VectorEngine::vfma_scalar_pred(Vreg vacc, Preg p, float a, Vreg vb) {
  check_vreg(vacc);
  check_vreg(vb);
  check_preg(p);
  const std::uint8_t* pr =
      predfile_.data() + static_cast<std::size_t>(p) * vlmax();
  float* acc = reg(vacc);
  const float* b = reg(vb);
  std::size_t active = 0;
  for (std::size_t l = 0; l < vlmax(); ++l) {
    if (pr[l]) {
      acc[l] += a * b[l];
      ++active;
    }
  }
  if (ctx_ != nullptr)
    ctx_->timing().vop(sim::VopClass::Fma, vacc, {vacc, vb}, active);
}

float VectorEngine::vredsum(Vreg v) {
  check_vreg(v);
  const float* s = reg(v);
  float sum = 0.0f;
  for (std::size_t l = 0; l < gvl_; ++l) sum += s[l];
  if (ctx_ != nullptr) ctx_->timing().vop(sim::VopClass::Reduce, -1, {v}, gvl_);
  return sum;
}

float VectorEngine::vredmax(Vreg v) {
  check_vreg(v);
  const float* s = reg(v);
  float m = s[0];
  for (std::size_t l = 1; l < gvl_; ++l) m = std::max(m, s[l]);
  if (ctx_ != nullptr) ctx_->timing().vop(sim::VopClass::Reduce, -1, {v}, gvl_);
  return m;
}

// ---------------- permutes ----------------

void VectorEngine::vpermute(Vreg vd, Vreg vs, const std::int32_t* idx) {
  check_vreg(vd);
  check_vreg(vs);
  VLACNN_REQUIRE(vd != vs, "vpermute requires distinct registers");
  float* d = reg(vd);
  const float* s = reg(vs);
  for (std::size_t l = 0; l < gvl_; ++l) {
    VLACNN_REQUIRE(idx[l] >= 0 && static_cast<std::size_t>(idx[l]) < vlmax(),
                   "permute index out of register bounds");
    d[l] = s[idx[l]];
  }
  if (ctx_ != nullptr)
    ctx_->timing().vop(sim::VopClass::Permute, vd, {vs}, gvl_);
}

void VectorEngine::vzip_lo(Vreg vd, Vreg va, Vreg vb) {
  check_vreg(vd);
  check_vreg(va);
  check_vreg(vb);
  VLACNN_REQUIRE(vd != va && vd != vb, "vzip requires a distinct destination");
  float* d = reg(vd);
  const float* a = reg(va);
  const float* b = reg(vb);
  const std::size_t half = gvl_ / 2;
  for (std::size_t l = 0; l < half; ++l) {
    d[2 * l] = a[l];
    d[2 * l + 1] = b[l];
  }
  if (ctx_ != nullptr)
    ctx_->timing().vop(sim::VopClass::Permute, vd, {va, vb}, gvl_);
}

void VectorEngine::vzip_hi(Vreg vd, Vreg va, Vreg vb) {
  check_vreg(vd);
  check_vreg(va);
  check_vreg(vb);
  VLACNN_REQUIRE(vd != va && vd != vb, "vzip requires a distinct destination");
  float* d = reg(vd);
  const float* a = reg(va);
  const float* b = reg(vb);
  const std::size_t half = gvl_ / 2;
  for (std::size_t l = 0; l < half; ++l) {
    d[2 * l] = a[half + l];
    d[2 * l + 1] = b[half + l];
  }
  if (ctx_ != nullptr)
    ctx_->timing().vop(sim::VopClass::Permute, vd, {va, vb}, gvl_);
}

// ---------------- scalar accounting / test access ----------------

void VectorEngine::timed_scalar_mem(const void* addr, std::size_t bytes,
                                    bool write) {
  const std::uint64_t sim_addr = sim::AddressMap::instance().translate(addr);
  ctx_->timing().scalar_mem(ctx_->memory().scalar_access(sim_addr, bytes, write));
}

float VectorEngine::lane(Vreg v, std::size_t i) const {
  check_vreg(v);
  VLACNN_REQUIRE(i < vlmax(), "lane out of range");
  return reg(v)[i];
}

void VectorEngine::set_lane(Vreg v, std::size_t i, float x) {
  check_vreg(v);
  VLACNN_REQUIRE(i < vlmax(), "lane out of range");
  reg(v)[i] = x;
}

}  // namespace vlacnn::vla
