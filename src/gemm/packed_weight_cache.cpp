#include "gemm/packed_weight_cache.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace vlacnn::gemm {

const char* to_string(PackFormat f) {
  switch (f) {
    case PackFormat::F32: return "f32";
    case PackFormat::Bf16: return "bf16";
    case PackFormat::Int8PerChannel: return "int8";
    case PackFormat::SparseF32: return "sparse-f32";
    case PackFormat::SparseBf16: return "sparse-bf16";
  }
  return "?";
}

float int8_channel_scale(const float* row, int k) {
  float amax = 0.0f;
  for (int c = 0; c < k; ++c) {
    VLACNN_REQUIRE(std::isfinite(row[c]),
                   "int8 quantization needs finite weights");
    amax = std::max(amax, std::fabs(row[c]));
  }
  return amax > 0.0f ? amax / 127.0f : 1.0f;
}

namespace {

/// round-to-nearest(-even) symmetric int8 quantization, clamped to ±127.
std::int8_t quantize_int8(float x, float inv_scale) {
  const long q = std::lrintf(x * inv_scale);
  return static_cast<std::int8_t>(std::clamp(q, -127l, 127l));
}

}  // namespace

std::vector<std::uint8_t> prune_block_mask(const float* weights, int m, int k,
                                           int block_k, int density_pm) {
  VLACNN_REQUIRE(density_pm >= 1 && density_pm <= 1000,
                 "block-prune density must be in (0, 1000] per-mille");
  const SparseGrid g(m, k, block_k);
  std::vector<std::uint8_t> mask(g.size(), 0);
  // L1 mass per valid block, ranked descending (ties by lower index so the
  // mask — and therefore the packed image — is fully deterministic).
  std::vector<std::pair<double, std::size_t>> rank;
  rank.reserve(g.valid_blocks());
  for (int pk = 0; pk < g.num_pk; ++pk) {
    const int k1 = pk * block_k;
    for (int rb = 0; rb < g.num_rb; ++rb) {
      const int r0 = rb * kSparseBlockM, rows = g.rows(rb);
      for (int cb = 0; cb < g.chunks(pk); ++cb) {
        const int c0 = k1 + cb * kSparseBlockK, cols = g.cols(pk, cb);
        double mag = 0.0;
        for (int r = 0; r < rows; ++r) {
          const float* row = weights + static_cast<std::size_t>(r0 + r) * k + c0;
          for (int c = 0; c < cols; ++c) mag += std::fabs(row[c]);
        }
        rank.emplace_back(mag, g.index(pk, rb, cb));
      }
    }
  }
  const std::size_t kept =
      (rank.size() * static_cast<std::size_t>(density_pm) + 999) / 1000;
  std::stable_sort(rank.begin(), rank.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (std::size_t i = 0; i < kept && i < rank.size(); ++i)
    mask[rank[i].second] = 1;
  return mask;
}

void apply_block_mask(float* weights, int m, int k, int block_k,
                      const std::vector<std::uint8_t>& mask) {
  const SparseGrid g(m, k, block_k);
  VLACNN_REQUIRE(mask.size() == g.size(), "block mask / grid mismatch");
  for (int pk = 0; pk < g.num_pk; ++pk)
    for (int rb = 0; rb < g.num_rb; ++rb)
      for (int cb = 0; cb < g.chunks(pk); ++cb) {
        if (mask[g.index(pk, rb, cb)]) continue;
        const int r0 = rb * kSparseBlockM, rows = g.rows(rb);
        const int c0 = pk * block_k + cb * kSparseBlockK, cols = g.cols(pk, cb);
        for (int r = 0; r < rows; ++r)
          std::memset(weights + static_cast<std::size_t>(r0 + r) * k + c0, 0,
                      static_cast<std::size_t>(cols) * sizeof(float));
      }
}

PackedWeights::PackedWeights(const float* weights, int m, int k, int block_k,
                             PackFormat format, int density_pm)
    : m_(m), k_(k), block_k_(block_k), format_(format),
      density_pm_(pack_format_sparse(format) ? density_pm : 1000) {
  VLACNN_REQUIRE(m >= 1 && k >= 1 && block_k >= 1, "bad packed-weight dims");
  if (pack_format_sparse(format)) {
    pack_sparse(weights);
    reg_ = sim::RegisteredRange(data_.data(), data_.size());
    meta_reg_ = sim::RegisteredRange(sparse_meta_.data(),
                                     sparse_meta_.size() * sizeof(std::uint64_t));
    return;
  }
  data_.resize(static_cast<std::size_t>(m) * k * elem_bytes());
  // Int8 scales come first and cover the WHOLE row: the quantized value of
  // a weight must not depend on which k-block a later sweep reads it from.
  if (format == PackFormat::Int8PerChannel) {
    scales_.resize(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i)
      scales_[static_cast<std::size_t>(i)] =
          int8_channel_scale(weights + static_cast<std::size_t>(i) * k, k);
  }
  // Offline scalar packing (uninstrumented, like the Winograd weight
  // transform): per k-block, every row's [k1, k1+kc) slice lands
  // contiguously — the pack_a_panel layout, cast per format on the way in.
  for (int k1 = 0; k1 < k; k1 += block_k) {
    const int kc = std::min(block_k, k - k1);
    std::uint8_t* block =
        data_.data() + static_cast<std::size_t>(m) * k1 * elem_bytes();
    for (int i = 0; i < m; ++i) {
      const float* src = weights + static_cast<std::size_t>(i) * k + k1;
      std::uint8_t* dst =
          block + static_cast<std::size_t>(i) * kc * elem_bytes();
      switch (format) {
        case PackFormat::F32:
          std::memcpy(dst, src, static_cast<std::size_t>(kc) * sizeof(float));
          break;
        case PackFormat::Bf16: {
          auto* out = reinterpret_cast<std::uint16_t*>(dst);
          for (int c = 0; c < kc; ++c) out[c] = bf16_from_f32(src[c]);
          break;
        }
        case PackFormat::Int8PerChannel: {
          auto* out = reinterpret_cast<std::int8_t*>(dst);
          const float inv_scale = 1.0f / scales_[static_cast<std::size_t>(i)];
          for (int c = 0; c < kc; ++c)
            out[c] = quantize_int8(src[c], inv_scale);
          break;
        }
        case PackFormat::SparseF32:
        case PackFormat::SparseBf16:
          break;  // unreachable: sparse formats take pack_sparse above
      }
    }
  }
  reg_ = sim::RegisteredRange(data_.data(), data_.size());
  if (!scales_.empty())
    scales_reg_ = sim::RegisteredRange(scales_.data(),
                                       scales_.size() * sizeof(float));
}

void PackedWeights::pack_sparse(const float* weights) {
  const SparseGrid g(m_, k_, block_k_);
  VLACNN_REQUIRE(g.chunk_cap <= 64,
                 "sparse block bitmap needs block_k <= 64*kSparseBlockK");
  const auto mask = prune_block_mask(weights, m_, k_, block_k_, density_pm_);
  num_rb_ = static_cast<std::size_t>(g.num_rb);
  nsegs_ = g.segments();
  sparse_meta_.resize(2 * nsegs_);
  sparse_meta_.fill(0);
  // First sweep sizes the compacted stream and writes bitmaps + offsets.
  std::size_t cursor = 0;  // elements
  for (int pk = 0; pk < g.num_pk; ++pk)
    for (int rb = 0; rb < g.num_rb; ++rb) {
      const std::size_t seg = static_cast<std::size_t>(pk) * num_rb_ + rb;
      sparse_meta_[nsegs_ + seg] = cursor;
      std::uint64_t bits = 0;
      for (int cb = 0; cb < g.chunks(pk); ++cb)
        if (mask[g.index(pk, rb, cb)]) {
          bits |= 1ull << cb;
          cursor += static_cast<std::size_t>(g.rows(rb)) * g.cols(pk, cb);
        }
      sparse_meta_[seg] = bits;
    }
  data_.resize(cursor * elem_bytes());
  // Second sweep copies kept blocks: each a rows×cols row-major tile, blocks
  // consecutive in (pk, rb, ascending cb) order — the order the skip-aware
  // microkernel consumes them in.
  std::uint8_t* out = data_.data();
  for (int pk = 0; pk < g.num_pk; ++pk)
    for (int rb = 0; rb < g.num_rb; ++rb)
      for (int cb = 0; cb < g.chunks(pk); ++cb) {
        if (!mask[g.index(pk, rb, cb)]) continue;
        const int r0 = rb * kSparseBlockM, rows = g.rows(rb);
        const int c0 = pk * block_k_ + cb * kSparseBlockK;
        const int cols = g.cols(pk, cb);
        for (int r = 0; r < rows; ++r) {
          const float* src =
              weights + static_cast<std::size_t>(r0 + r) * k_ + c0;
          if (format_ == PackFormat::SparseF32) {
            std::memcpy(out, src, static_cast<std::size_t>(cols) * 4);
            out += static_cast<std::size_t>(cols) * 4;
          } else {
            auto* dst = reinterpret_cast<std::uint16_t*>(out);
            for (int c = 0; c < cols; ++c) dst[c] = bf16_from_f32(src[c]);
            out += static_cast<std::size_t>(cols) * 2;
          }
        }
      }
}

const float* PackedWeights::data() const {
  VLACNN_REQUIRE(format_ == PackFormat::F32,
                 "fp32 view of a quantized packed-weight image");
  return reinterpret_cast<const float*>(data_.data());
}

const float* PackedWeights::panel(int i1, int k1, int kc) const {
  VLACNN_REQUIRE(format_ == PackFormat::F32,
                 "fp32 panel of a quantized packed-weight image");
  return reinterpret_cast<const float*>(panel_raw(i1, k1, kc));
}

std::shared_ptr<const PackedWeights> PackedWeightCache::prepare(
    const float* weights, int m, int k, int block_k, PackFormat format,
    int density_pm) {
  if (!pack_format_sparse(format)) density_pm = 1000;
  const Key key{weights, m, k, block_k,
                static_cast<std::uint8_t>(format), density_pm};
  const std::size_t bytes = image_bytes(m, k, block_k, format, density_pm);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      it->second.last_use = ++tick_;
      return it->second.image;
    }
    // Admission checks BEFORE the (expensive) pack: prepare() runs before
    // every batch, so a layer that cannot be retained must cost O(1) here,
    // not a full M×K copy that is then thrown away.
    if (bytes > budget_) {
      ++stats_.rejected;
      return nullptr;  // caller keeps the run-time packing path
    }
    if (resident_bytes_ + bytes > budget_) {
      ++stats_.deferred;  // budget full: no evict-on-insert churn
      return nullptr;
    }
  }
  // Pack outside the lock: concurrent first-touch of *different* layers
  // proceeds in parallel; a duplicate pack of the same layer is harmless
  // (the images are identical) and the second insert wins nothing.
  auto image = std::make_shared<const PackedWeights>(weights, m, k, block_k,
                                                     format, density_pm);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    it->second.last_use = ++tick_;
    return it->second.image;
  }
  ++stats_.packs;
  if (resident_bytes_ + bytes > budget_) {
    ++stats_.deferred;  // a concurrent prepare filled the budget meanwhile
    return nullptr;
  }
  account(*image, /*insert=*/true);
  cache_.emplace(key, Entry{image, ++tick_});
  entry_count_.store(cache_.size(), std::memory_order_relaxed);
  return image;
}

std::shared_ptr<const PackedWeights> PackedWeightCache::find(
    const float* weights, int m, int k, int block_k, PackFormat format,
    int density_pm) {
  if (!pack_format_sparse(format)) density_pm = 1000;
  const Key key{weights, m, k, block_k,
                static_cast<std::uint8_t>(format), density_pm};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  it->second.last_use = ++tick_;
  return it->second.image;
}

void PackedWeightCache::account(const PackedWeights& image, bool insert) {
  const std::size_t bytes = image.bytes();
  const auto fmt = static_cast<std::size_t>(image.format());
  if (insert) {
    resident_bytes_ += bytes;
    resident_by_format_[fmt] += bytes;
  } else {
    resident_bytes_ -= bytes;
    resident_by_format_[fmt] -= bytes;
  }
}

void PackedWeightCache::enforce_budget() {
  while (resident_bytes_ > budget_ && !cache_.empty()) {
    auto victim = cache_.begin();
    for (auto it = cache_.begin(); it != cache_.end(); ++it)
      if (it->second.last_use < victim->second.last_use) victim = it;
    account(*victim->second.image, /*insert=*/false);
    cache_.erase(victim);
    ++stats_.evictions;
  }
  entry_count_.store(cache_.size(), std::memory_order_relaxed);
}

void PackedWeightCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
  entry_count_.store(0, std::memory_order_relaxed);
  resident_bytes_ = 0;
  resident_by_format_.fill(0);
}

void PackedWeightCache::set_budget(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_ = bytes;
  enforce_budget();
}

PackedWeightCacheStats PackedWeightCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PackedWeightCacheStats s = stats_;
  s.resident_bytes = resident_bytes_;
  s.resident_bytes_by_format = resident_by_format_;
  s.entries = cache_.size();
  return s;
}

}  // namespace vlacnn::gemm
