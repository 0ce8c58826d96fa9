// Winograd tile-size variants F(2x2,3x3) / F(4x4,3x3) / F(6x6,3x3):
// correctness of each transform set and the paper's accuracy claim — error
// grows with tile size (§IV-B's justification for stopping at 8x8 tiles).

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "common/rng.hpp"
#include "winograd/variants.hpp"

namespace vlacnn::winograd {

// Prints the parameter by name. Without it gtest prints the pointer value,
// which changes from process to process, so the listed (and ctest) name of
// each case would too.
void PrintTo(const WinogradVariant* v, std::ostream* os) { *os << v->name; }

namespace {

class VariantTest : public ::testing::TestWithParam<const WinogradVariant*> {};

TEST_P(VariantTest, GeometryConsistent) {
  const WinogradVariant& v = *GetParam();
  EXPECT_EQ(v.in_tile, v.out_tile + 2);  // r = 3
  EXPECT_EQ(v.bt.size(), static_cast<std::size_t>(v.in_tile) * v.in_tile);
  EXPECT_EQ(v.g.size(), static_cast<std::size_t>(v.in_tile) * 3);
  EXPECT_EQ(v.at.size(), static_cast<std::size_t>(v.out_tile) * v.in_tile);
}

TEST_P(VariantTest, SingleTileMatchesDirect) {
  const WinogradVariant& v = *GetParam();
  Rng rng(11);
  const int t = v.in_tile, m = v.out_tile;
  std::vector<float> d(static_cast<std::size_t>(t) * t);
  float g[9];
  for (auto& x : d) x = rng.uniform(-1.0f, 1.0f);
  for (auto& x : g) x = rng.uniform(-1.0f, 1.0f);

  std::vector<float> got(static_cast<std::size_t>(m) * m);
  variant_tile_conv(v, d.data(), g, got.data());

  for (int y = 0; y < m; ++y) {
    for (int x = 0; x < m; ++x) {
      double acc = 0.0;
      for (int ky = 0; ky < 3; ++ky)
        for (int kx = 0; kx < 3; ++kx)
          acc += static_cast<double>(g[ky * 3 + kx]) *
                 d[static_cast<std::size_t>(y + ky) * t + x + kx];
      EXPECT_NEAR(got[static_cast<std::size_t>(y) * m + x], acc, 5e-3)
          << v.name << " (" << y << "," << x << ")";
    }
  }
}

TEST_P(VariantTest, FullImageMatchesDirect) {
  const WinogradVariant& v = *GetParam();
  const double err = variant_max_error(v, 20, 23, 3);
  EXPECT_LT(err, 1e-2) << v.name;
}

TEST_P(VariantTest, ArithmeticReductionOrdering) {
  const WinogradVariant& v = *GetParam();
  EXPECT_GT(v.arithmetic_reduction(), 2.0);
  EXPECT_LT(v.arithmetic_reduction(), 6.0);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, VariantTest,
                         ::testing::Values(&f2x3(), &f4x3(), &f6x3_variant()),
                         [](const auto& info) {
                           std::string n = info.param->name;
                           std::string out;
                           for (char c : n)
                             if (std::isalnum(static_cast<unsigned char>(c)))
                               out += c;
                           return out;
                         });

TEST(VariantAccuracy, ErrorGrowsWithTileSize) {
  // The paper's stated reason for not exceeding 8x8 tiles: accuracy drops
  // as the interpolation points spread. Average over several seeds.
  double e2 = 0, e4 = 0, e6 = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    e2 += variant_max_error(f2x3(), 36, 36, seed);
    e4 += variant_max_error(f4x3(), 36, 36, seed);
    e6 += variant_max_error(f6x3_variant(), 36, 36, seed);
  }
  EXPECT_LT(e2, e4);
  EXPECT_LT(e4, e6);
}

TEST(VariantAccuracy, ReductionGrowsWithTileSize) {
  EXPECT_LT(f2x3().arithmetic_reduction(), f4x3().arithmetic_reduction());
  EXPECT_LT(f4x3().arithmetic_reduction(),
            f6x3_variant().arithmetic_reduction());
  EXPECT_NEAR(f6x3_variant().arithmetic_reduction(), 5.06, 0.01);
}

}  // namespace
}  // namespace vlacnn::winograd
