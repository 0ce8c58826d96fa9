// Functional semantics of the VLA vector engine (no simulator attached):
// strip-mining, predication, every memory-access flavour, arithmetic ops,
// reductions, and permutes — across several hardware vector lengths.

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "test_util.hpp"
#include "vla/vector_engine.hpp"

namespace vlacnn::vla {
namespace {

using test::random_vec;

class VectorEngineTest : public ::testing::TestWithParam<unsigned> {
 protected:
  VectorEngine make() { return VectorEngine(GetParam()); }
};

TEST_P(VectorEngineTest, VlmaxMatchesBits) {
  VectorEngine eng = make();
  EXPECT_EQ(eng.vlmax(), GetParam() / 32);
  EXPECT_EQ(eng.vlen_bits(), GetParam());
}

TEST_P(VectorEngineTest, SetvlGrantsAtMostVlmax) {
  VectorEngine eng = make();
  EXPECT_EQ(eng.setvl(1), 1u);
  EXPECT_EQ(eng.setvl(eng.vlmax()), eng.vlmax());
  EXPECT_EQ(eng.setvl(eng.vlmax() + 100), eng.vlmax());
  EXPECT_EQ(eng.setvl(0), 0u);
}

TEST_P(VectorEngineTest, LoadStoreRoundTrip) {
  VectorEngine eng = make();
  const std::size_t n = eng.vlmax();
  auto src = random_vec(n, 1);
  std::vector<float> dst(n, 0.0f);
  eng.setvl(n);
  eng.vload(3, src.data());
  eng.vstore(3, dst.data());
  EXPECT_EQ(src, dst);
}

TEST_P(VectorEngineTest, PartialStoreOnlyTouchesGvl) {
  VectorEngine eng = make();
  if (eng.vlmax() < 4) GTEST_SKIP();
  const std::size_t n = eng.vlmax();
  auto src = random_vec(n, 2);
  std::vector<float> dst(n, -7.0f);
  eng.setvl(n / 2);
  eng.vload(0, src.data());
  eng.vstore(0, dst.data());
  for (std::size_t i = 0; i < n / 2; ++i) EXPECT_EQ(dst[i], src[i]);
  for (std::size_t i = n / 2; i < n; ++i) EXPECT_EQ(dst[i], -7.0f);
}

TEST_P(VectorEngineTest, StridedLoadStore) {
  VectorEngine eng = make();
  const std::size_t n = eng.vlmax();
  std::vector<float> src(n * 3, 0.0f);
  for (std::size_t i = 0; i < n; ++i) src[3 * i] = static_cast<float>(i) + 1;
  std::vector<float> mid(n, 0.0f), dst(n * 2, 0.0f);
  eng.setvl(n);
  eng.vload_strided(1, src.data(), 3);
  eng.vstore(1, mid.data());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(mid[i], static_cast<float>(i) + 1);
  eng.vstore_strided(1, dst.data(), 2);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(dst[2 * i], static_cast<float>(i) + 1);
}

TEST_P(VectorEngineTest, GatherScatter) {
  VectorEngine eng = make();
  const std::size_t n = eng.vlmax();
  auto base = random_vec(4 * n, 3);
  std::vector<std::int32_t> idx(n);
  for (std::size_t i = 0; i < n; ++i)
    idx[i] = static_cast<std::int32_t>((i * 7) % (4 * n));
  eng.setvl(n);
  eng.vgather(5, base.data(), idx.data());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(eng.lane(5, i), base[static_cast<std::size_t>(idx[i])]);

  std::vector<float> out(4 * n, 0.0f);
  std::vector<std::int32_t> sidx(n);
  for (std::size_t i = 0; i < n; ++i) sidx[i] = static_cast<std::int32_t>(3 * i);
  eng.vscatter(5, out.data(), sidx.data());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(out[3 * i], eng.lane(5, i));
}

TEST_P(VectorEngineTest, ArithmeticOps) {
  VectorEngine eng = make();
  const std::size_t n = eng.vlmax();
  auto a = random_vec(n, 4), b = random_vec(n, 5, 0.5f, 2.0f);
  eng.setvl(n);
  eng.vload(0, a.data());
  eng.vload(1, b.data());

  eng.vadd(2, 0, 1);
  eng.vsub(3, 0, 1);
  eng.vmul(4, 0, 1);
  eng.vdiv(5, 0, 1);
  eng.vmax(6, 0, 1);
  eng.vmin(7, 0, 1);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(eng.lane(2, i), a[i] + b[i]);
    EXPECT_FLOAT_EQ(eng.lane(3, i), a[i] - b[i]);
    EXPECT_FLOAT_EQ(eng.lane(4, i), a[i] * b[i]);
    EXPECT_FLOAT_EQ(eng.lane(5, i), a[i] / b[i]);
    EXPECT_FLOAT_EQ(eng.lane(6, i), std::max(a[i], b[i]));
    EXPECT_FLOAT_EQ(eng.lane(7, i), std::min(a[i], b[i]));
  }
}

TEST_P(VectorEngineTest, ScalarOperandForms) {
  VectorEngine eng = make();
  const std::size_t n = eng.vlmax();
  auto a = random_vec(n, 6);
  eng.setvl(n);
  eng.vload(0, a.data());
  eng.vadd_scalar(1, 0, 2.5f);
  eng.vmul_scalar(2, 0, -3.0f);
  eng.vmax_scalar(3, 0, 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(eng.lane(1, i), a[i] + 2.5f);
    EXPECT_FLOAT_EQ(eng.lane(2, i), a[i] * -3.0f);
    EXPECT_FLOAT_EQ(eng.lane(3, i), std::max(a[i], 0.0f));
  }
}

TEST_P(VectorEngineTest, FmaForms) {
  VectorEngine eng = make();
  const std::size_t n = eng.vlmax();
  auto a = random_vec(n, 7), b = random_vec(n, 8), c = random_vec(n, 9);
  eng.setvl(n);
  eng.vload(0, a.data());
  eng.vload(1, b.data());
  eng.vload(2, c.data());
  eng.vfma(0, 1, 2);  // a += b*c
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_FLOAT_EQ(eng.lane(0, i), a[i] + b[i] * c[i]);
  eng.vload(0, a.data());
  eng.vfma_scalar(0, 1.5f, 1);  // a += 1.5*b
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_FLOAT_EQ(eng.lane(0, i), a[i] + 1.5f * b[i]);
}

TEST_P(VectorEngineTest, Broadcast) {
  VectorEngine eng = make();
  eng.setvl(eng.vlmax());
  eng.vbroadcast(9, 42.0f);
  for (std::size_t i = 0; i < eng.vlmax(); ++i) EXPECT_EQ(eng.lane(9, i), 42.0f);
}

TEST_P(VectorEngineTest, Reductions) {
  VectorEngine eng = make();
  const std::size_t n = eng.vlmax();
  std::vector<float> a(n);
  std::iota(a.begin(), a.end(), 1.0f);
  eng.setvl(n);
  eng.vload(0, a.data());
  EXPECT_FLOAT_EQ(eng.vredsum(0), static_cast<float>(n * (n + 1) / 2));
  EXPECT_FLOAT_EQ(eng.vredmax(0), static_cast<float>(n));
}

TEST_P(VectorEngineTest, WhileltPredication) {
  VectorEngine eng = make();
  const std::size_t n = eng.vlmax();
  // whilelt at the loop tail: only (total - i) lanes active.
  const std::size_t total = n + n / 2 + 1;
  const std::size_t active = eng.whilelt(0, n, total);
  EXPECT_EQ(active, std::min(n, total - n));
  EXPECT_EQ(eng.active_lanes(0), active);

  std::vector<float> src(n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) src[i] = static_cast<float>(i) + 1;
  eng.vload_pred(1, 0, src.data());
  for (std::size_t i = 0; i < n; ++i) {
    if (i < active)
      EXPECT_EQ(eng.lane(1, i), src[i]);
    else
      EXPECT_EQ(eng.lane(1, i), 0.0f);
  }

  std::vector<float> dst(n, -1.0f);
  eng.vstore_pred(1, 0, dst.data());
  for (std::size_t i = 0; i < n; ++i) {
    if (i < active)
      EXPECT_EQ(dst[i], src[i]);
    else
      EXPECT_EQ(dst[i], -1.0f);
  }
}

TEST_P(VectorEngineTest, PredicatedFma) {
  VectorEngine eng = make();
  const std::size_t n = eng.vlmax();
  eng.whilelt(2, 0, n / 2 + 1);
  auto a = random_vec(n, 10), b = random_vec(n, 11);
  eng.ptrue(3);
  eng.setvl(n);
  eng.vload(0, a.data());
  eng.vload(1, b.data());
  eng.vbroadcast(4, 1.0f);
  eng.vfma_pred(4, 2, 0, 1);
  const std::size_t act = n / 2 + 1 > n ? n : n / 2 + 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (i < act)
      EXPECT_FLOAT_EQ(eng.lane(4, i), 1.0f + a[i] * b[i]);
    else
      EXPECT_FLOAT_EQ(eng.lane(4, i), 1.0f);
  }
}

TEST_P(VectorEngineTest, PermuteAndZip) {
  VectorEngine eng = make();
  const std::size_t n = eng.vlmax();
  std::vector<float> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(i);
    b[i] = static_cast<float>(100 + i);
  }
  eng.setvl(n);
  eng.vload(0, a.data());
  eng.vload(1, b.data());

  std::vector<std::int32_t> rev(n);
  for (std::size_t i = 0; i < n; ++i)
    rev[i] = static_cast<std::int32_t>(n - 1 - i);
  eng.vpermute(2, 0, rev.data());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(eng.lane(2, i), a[n - 1 - i]);

  if (n >= 2) {
    eng.vzip_lo(3, 0, 1);
    eng.vzip_hi(4, 0, 1);
    for (std::size_t i = 0; i < n / 2; ++i) {
      EXPECT_EQ(eng.lane(3, 2 * i), a[i]);
      EXPECT_EQ(eng.lane(3, 2 * i + 1), b[i]);
      EXPECT_EQ(eng.lane(4, 2 * i), a[n / 2 + i]);
      EXPECT_EQ(eng.lane(4, 2 * i + 1), b[n / 2 + i]);
    }
  }
}

TEST_P(VectorEngineTest, RegisterBoundsChecked) {
  VectorEngine eng = make();
  EXPECT_THROW(eng.vbroadcast(32, 0.0f), InvalidArgument);
  EXPECT_THROW(eng.vbroadcast(-1, 0.0f), InvalidArgument);
  EXPECT_THROW(eng.whilelt(16, 0, 1), InvalidArgument);

  // Every header-inline op keeps its range check: each register operand,
  // one bad at a time, on both sides of the range.
  std::vector<float> buf(eng.vlmax(), 1.0f);
  std::vector<std::int32_t> idx(eng.vlmax(), 0);
  for (const Vreg bad : {-1, 32}) {
    EXPECT_THROW(eng.vload(bad, buf.data()), InvalidArgument);
    EXPECT_THROW(eng.vstore(bad, buf.data()), InvalidArgument);
    EXPECT_THROW(eng.vload_strided(bad, buf.data(), 1), InvalidArgument);
    EXPECT_THROW(eng.vgather_local(bad, buf.data(), idx.data()),
                 InvalidArgument);
    EXPECT_THROW(eng.vscatter_local(bad, buf.data(), idx.data()),
                 InvalidArgument);
    for (const auto& [d, a, b] : {std::tuple{bad, 0, 1}, std::tuple{0, bad, 1},
                                  std::tuple{0, 1, bad}}) {
      EXPECT_THROW(eng.vadd(d, a, b), InvalidArgument);
      EXPECT_THROW(eng.vsub(d, a, b), InvalidArgument);
      EXPECT_THROW(eng.vmul(d, a, b), InvalidArgument);
      EXPECT_THROW(eng.vmax(d, a, b), InvalidArgument);
      EXPECT_THROW(eng.vmin(d, a, b), InvalidArgument);
      EXPECT_THROW(eng.vfma(d, a, b), InvalidArgument);
    }
    for (const auto& [d, a] : {std::pair{bad, 0}, std::pair{0, bad}}) {
      EXPECT_THROW(eng.vfma_scalar(d, 1.0f, a), InvalidArgument);
      EXPECT_THROW(eng.vadd_scalar(d, a, 1.0f), InvalidArgument);
      EXPECT_THROW(eng.vmul_scalar(d, a, 1.0f), InvalidArgument);
      EXPECT_THROW(eng.vmax_scalar(d, a, 1.0f), InvalidArgument);
    }
  }
  // A rejected op has no side effects on memory.
  for (float x : buf) EXPECT_EQ(x, 1.0f);
  EXPECT_EQ(eng.mem_bytes_moved(), 0u);
}

INSTANTIATE_TEST_SUITE_P(VectorLengths, VectorEngineTest,
                         ::testing::Values(128u, 512u, 1024u, 2048u, 8192u,
                                           16384u),
                         [](const auto& info) {
                           return "vl" + std::to_string(info.param);
                         });

TEST(VectorEngineEdge, RejectsBadVectorLengths) {
  EXPECT_THROW(VectorEngine(100), InvalidArgument);
  EXPECT_THROW(VectorEngine(64), InvalidArgument);
  EXPECT_THROW(VectorEngine(1 << 20), InvalidArgument);
}

TEST(VectorEngineEdge, TailResidueClassesRoundTrip) {
  // Property: copying n elements via strip-mined setvl loops is exact for
  // every residue class of n mod VLMAX.
  VectorEngine eng(512);
  const std::size_t vlmax = eng.vlmax();
  for (std::size_t n = 1; n <= 3 * vlmax + 1; ++n) {
    auto src = random_vec(n, 100 + n);
    std::vector<float> dst(n, 0.0f);
    for (std::size_t i = 0; i < n;) {
      const std::size_t vl = eng.setvl(n - i);
      eng.vload(0, src.data() + i);
      eng.vstore(0, dst.data() + i);
      i += vl;
    }
    ASSERT_EQ(src, dst) << "n=" << n;
  }
}

}  // namespace
}  // namespace vlacnn::vla
