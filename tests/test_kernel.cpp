// Tests for kernel functions and the partially matrix-free KernelMatrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>

#include "data/synthetic.hpp"
#include "kernel/kernel.hpp"
#include "kernel/kernel_spec.hpp"
#include "la/blas.hpp"
#include "la/chol.hpp"
#include "la/gemm_kernel.hpp"
#include "util/rng.hpp"

namespace k = khss::kernel;
namespace la = khss::la;

namespace {

la::Matrix random_points(int n, int d, std::uint64_t seed) {
  khss::util::Rng rng(seed);
  la::Matrix pts(n, d);
  rng.fill_normal(pts.data(), pts.size());
  return pts;
}

double gaussian_ref(const la::Matrix& pts, int i, int j, double h) {
  double d2 = 0.0;
  for (int c = 0; c < pts.cols(); ++c) {
    const double diff = pts(i, c) - pts(j, c);
    d2 += diff * diff;
  }
  return std::exp(-d2 / (2.0 * h * h));
}

}  // namespace

TEST(Kernel, GaussianEntryMatchesDefinition) {
  la::Matrix pts = random_points(30, 5, 1);
  k::KernelMatrix km(pts, {k::KernelType::kGaussian, 1.3, 2, 1.0});
  for (int i = 0; i < 30; i += 7) {
    for (int j = 0; j < 30; j += 5) {
      EXPECT_NEAR(km.entry(i, j), gaussian_ref(pts, i, j, 1.3), 1e-12);
    }
  }
}

TEST(Kernel, DiagonalIsOnePlusLambda) {
  la::Matrix pts = random_points(10, 3, 2);
  k::KernelMatrix km(pts, {}, 0.5);
  for (int i = 0; i < 10; ++i) EXPECT_NEAR(km.entry(i, i), 1.5, 1e-12);
}

TEST(Kernel, SymmetricEntries) {
  la::Matrix pts = random_points(40, 8, 3);
  k::KernelMatrix km(pts, {k::KernelType::kGaussian, 0.7, 2, 1.0});
  for (int i = 0; i < 40; i += 3) {
    for (int j = 0; j < i; j += 3) {
      EXPECT_DOUBLE_EQ(km.entry(i, j), km.entry(j, i));
    }
  }
}

TEST(Kernel, LimitBehaviourInH) {
  // Paper Section 1: h -> 0 gives the identity; h -> inf gives all-ones.
  la::Matrix pts = random_points(15, 4, 4);
  k::KernelMatrix tiny(pts, {k::KernelType::kGaussian, 1e-4, 2, 1.0});
  k::KernelMatrix huge(pts, {k::KernelType::kGaussian, 1e6, 2, 1.0});
  for (int i = 0; i < 15; ++i) {
    for (int j = 0; j < 15; ++j) {
      if (i == j) {
        EXPECT_NEAR(tiny.entry(i, j), 1.0, 1e-12);
      } else {
        EXPECT_NEAR(tiny.entry(i, j), 0.0, 1e-12);
        EXPECT_NEAR(huge.entry(i, j), 1.0, 1e-9);
      }
    }
  }
}

TEST(Kernel, DenseMatchesEntries) {
  la::Matrix pts = random_points(25, 6, 5);
  k::KernelMatrix km(pts, {k::KernelType::kGaussian, 1.0, 2, 1.0}, 0.25);
  la::Matrix kd = km.dense();
  for (int i = 0; i < 25; ++i) {
    for (int j = 0; j < 25; ++j) EXPECT_NEAR(kd(i, j), km.entry(i, j), 1e-12);
  }
}

TEST(Kernel, ExtractMatchesEntries) {
  la::Matrix pts = random_points(50, 4, 6);
  k::KernelMatrix km(pts, {}, 0.1);
  std::vector<int> rows{0, 7, 33, 49}, cols{7, 1, 2};
  la::Matrix sub = km.extract(rows, cols);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < cols.size(); ++j) {
      EXPECT_NEAR(sub(static_cast<int>(i), static_cast<int>(j)),
                  km.entry(rows[i], cols[j]), 1e-12);
    }
  }
}

TEST(Kernel, MultiplyMatchesDense) {
  la::Matrix pts = random_points(300, 5, 7);  // crosses multiple tiles
  k::KernelMatrix km(pts, {k::KernelType::kGaussian, 0.9, 2, 1.0}, 0.3);
  khss::util::Rng rng(8);
  la::Matrix x(300, 6);
  rng.fill_normal(x.data(), x.size());

  la::Matrix y = km.multiply(x);
  la::Matrix ref = la::matmul(km.dense(), x);
  EXPECT_LT(la::diff_f(y, ref), 1e-10 * (1.0 + la::norm_f(ref)));
}

TEST(Kernel, CrossTimesVectorMatchesDenseCross) {
  la::Matrix train = random_points(80, 4, 9);
  la::Matrix test = random_points(15, 4, 10);
  k::KernelMatrix km(train, {k::KernelType::kGaussian, 1.1, 2, 1.0}, 2.0);
  khss::util::Rng rng(11);
  la::Vector w(80);
  for (auto& v : w) v = rng.normal();

  la::Vector y = km.cross_times_vector(test, w);
  la::Matrix kc = km.cross(test);
  la::Vector ref = la::matvec(kc, w);
  for (int i = 0; i < 15; ++i) EXPECT_NEAR(y[i], ref[i], 1e-10);
  // Cross matrix must NOT include lambda even for coincident points.
  k::KernelMatrix km0(train, {k::KernelType::kGaussian, 1.1, 2, 1.0}, 0.0);
  la::Matrix kc0 = km0.cross(test);
  EXPECT_LT(la::diff_f(kc, kc0), 1e-12);
}

TEST(Kernel, SetLambdaOnlyShiftsDiagonal) {
  la::Matrix pts = random_points(20, 3, 12);
  k::KernelMatrix km(pts, {}, 0.0);
  la::Matrix k0 = km.dense();
  km.set_lambda(3.0);
  la::Matrix k1 = km.dense();
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 20; ++j) {
      EXPECT_NEAR(k1(i, j), k0(i, j) + (i == j ? 3.0 : 0.0), 1e-12);
    }
  }
}

TEST(Kernel, GaussianPlusLambdaIsSPD) {
  // K is PSD (Gaussian kernel); K + lambda I must be SPD for lambda > 0.
  la::Matrix pts = random_points(60, 5, 13);
  k::KernelMatrix km(pts, {k::KernelType::kGaussian, 1.0, 2, 1.0}, 1e-6);
  EXPECT_TRUE(la::CholeskyFactor::is_spd(km.dense()));
}

class KernelTypes : public ::testing::TestWithParam<k::KernelType> {};

TEST_P(KernelTypes, MultiplyConsistentWithDense) {
  la::Matrix pts = random_points(150, 4, 14);
  k::KernelParams params;
  params.type = GetParam();
  params.h = 1.2;
  params.degree = 3;
  k::KernelMatrix km(pts, params, 0.7);
  khss::util::Rng rng(15);
  la::Matrix x(150, 3);
  rng.fill_normal(x.data(), x.size());
  la::Matrix y = km.multiply(x);
  la::Matrix ref = la::matmul(km.dense(), x);
  EXPECT_LT(la::diff_f(y, ref), 1e-9 * (1.0 + la::norm_f(ref)));
}

INSTANTIATE_TEST_SUITE_P(Types, KernelTypes,
                         ::testing::Values(k::KernelType::kGaussian,
                                           k::KernelType::kLaplacian,
                                           k::KernelType::kPolynomial));

TEST(Kernel, LaplacianEntry) {
  la::Matrix pts(2, 1);
  pts(0, 0) = 0.0;
  pts(1, 0) = 3.0;
  k::KernelMatrix km(pts, {k::KernelType::kLaplacian, 1.5, 2, 1.0});
  EXPECT_NEAR(km.entry(0, 1), std::exp(-2.0), 1e-12);
}

TEST(Kernel, PolynomialEntry) {
  la::Matrix pts(2, 2);
  pts(0, 0) = 1.0;
  pts(0, 1) = 2.0;
  pts(1, 0) = 3.0;
  pts(1, 1) = -1.0;
  k::KernelParams p;
  p.type = k::KernelType::kPolynomial;
  p.h = 1.0;
  p.degree = 2;
  p.coef0 = 1.0;
  k::KernelMatrix km(pts, p);
  // (x.y + 1)^2 = (3 - 2 + 1)^2 = 4.
  EXPECT_NEAR(km.entry(0, 1), 4.0, 1e-12);
}

TEST(Kernel, ElementEvalCounter) {
  la::Matrix pts = random_points(10, 2, 16);
  k::KernelMatrix km(pts, {});
  EXPECT_EQ(km.element_evals(), 0);
  km.extract({0, 1}, {2, 3, 4});
  EXPECT_EQ(km.element_evals(), 6);
  km.dense();
  EXPECT_EQ(km.element_evals(), 106);
}

TEST(Kernel, NameStrings) {
  EXPECT_EQ(k::kernel_name(k::KernelType::kGaussian), "gaussian");
  EXPECT_EQ(k::kernel_name(k::KernelType::kLaplacian), "laplacian");
  EXPECT_EQ(k::kernel_name(k::KernelType::kPolynomial), "polynomial");
  EXPECT_EQ(k::kernel_name(k::KernelType::kMatern32), "matern32");
  EXPECT_EQ(k::kernel_name(k::KernelType::kMatern52), "matern52");
  EXPECT_EQ(k::kernel_name(k::KernelType::kDot), "dot");
  EXPECT_EQ(k::kernel_name(k::KernelType::kSum), "sum");
  EXPECT_EQ(k::kernel_name(k::KernelType::kProduct), "product");
  for (int i = 0; i < k::kNumKernelTypes; ++i) {
    const auto t = static_cast<k::KernelType>(i);
    EXPECT_EQ(k::kernel_is_composite(t),
              t == k::KernelType::kSum || t == k::KernelType::kProduct)
        << k::kernel_name(t);
  }
}

// --- kernel zoo: reference values for the new families ---------------------

namespace {

/// Two fixed points in 2-D: squared distance 13, dot product 1.
la::Matrix two_points() {
  la::Matrix pts(2, 2);
  pts(0, 0) = 1.0;
  pts(0, 1) = -2.0;
  pts(1, 0) = 3.0;
  pts(1, 1) = 1.0;
  return pts;
}

k::KernelParams atom(k::KernelType type, double h, double weight = 1.0) {
  k::KernelParams p;
  p.type = type;
  p.h = h;
  p.weight = weight;
  return p;
}

}  // namespace

TEST(KernelZoo, Matern32Entry) {
  const double h = 0.8;
  k::KernelMatrix km(two_points(), atom(k::KernelType::kMatern32, h));
  const double t = std::sqrt(3.0 * 13.0) / h;
  EXPECT_NEAR(km.entry(0, 1), (1.0 + t) * std::exp(-t), 1e-15);
  EXPECT_NEAR(km.entry(0, 0), 1.0, 1e-15);  // r = 0 -> unit diagonal
}

TEST(KernelZoo, Matern52Entry) {
  const double h = 1.1;
  k::KernelMatrix km(two_points(), atom(k::KernelType::kMatern52, h));
  const double t = std::sqrt(5.0 * 13.0) / h;
  EXPECT_NEAR(km.entry(0, 1), (1.0 + t + t * t / 3.0) * std::exp(-t), 1e-15);
  EXPECT_NEAR(km.entry(1, 1), 1.0, 1e-15);
}

TEST(KernelZoo, DotEntry) {
  k::KernelMatrix km(two_points(), atom(k::KernelType::kDot, 2.0));
  EXPECT_NEAR(km.entry(0, 1), 1.0 / 4.0, 1e-15);
  EXPECT_NEAR(km.entry(0, 0), 5.0 / 4.0, 1e-15);  // ||x0||^2 / h^2
}

TEST(KernelZoo, SumCompositeIsWeightedSumOfParts) {
  k::KernelParams p;
  p.type = k::KernelType::kSum;
  p.terms.push_back(atom(k::KernelType::kGaussian, 1.0));
  p.terms.push_back(atom(k::KernelType::kMatern32, 0.9, /*weight=*/0.5));

  la::Matrix pts = random_points(20, 3, 17);
  k::KernelMatrix km(pts, p);
  k::KernelMatrix g(pts, atom(k::KernelType::kGaussian, 1.0));
  k::KernelMatrix m(pts, atom(k::KernelType::kMatern32, 0.9));
  for (int i = 0; i < 20; i += 3) {
    for (int j = 0; j < 20; j += 5) {
      EXPECT_DOUBLE_EQ(km.entry(i, j),
                       g.entry(i, j) + 0.5 * m.entry(i, j))
          << i << "," << j;
    }
  }
}

TEST(KernelZoo, ProductCompositeIsProductOfParts) {
  k::KernelParams p;
  p.type = k::KernelType::kProduct;
  p.terms.push_back(atom(k::KernelType::kGaussian, 1.4));
  p.terms.push_back(atom(k::KernelType::kDot, 2.0, /*weight=*/3.0));

  la::Matrix pts = random_points(15, 4, 18);
  k::KernelMatrix km(pts, p);
  k::KernelMatrix g(pts, atom(k::KernelType::kGaussian, 1.4));
  k::KernelMatrix d(pts, atom(k::KernelType::kDot, 2.0));
  for (int i = 0; i < 15; i += 2) {
    for (int j = 0; j < 15; j += 3) {
      EXPECT_DOUBLE_EQ(km.entry(i, j),
                       g.entry(i, j) * (3.0 * d.entry(i, j)))
          << i << "," << j;
    }
  }
}

// --- kernel spec grammar: parse, print, validate ---------------------------

TEST(KernelSpec, ParsesAtomsWithParameters) {
  k::KernelParams p = k::parse_kernel_spec("matern52:h=0.7");
  EXPECT_EQ(p.type, k::KernelType::kMatern52);
  EXPECT_DOUBLE_EQ(p.h, 0.7);
  EXPECT_TRUE(p.terms.empty());

  p = k::parse_kernel_spec("polynomial:h=2:degree=3:coef0=1.5");
  EXPECT_EQ(p.type, k::KernelType::kPolynomial);
  EXPECT_EQ(p.degree, 3);
  EXPECT_DOUBLE_EQ(p.coef0, 1.5);
}

TEST(KernelSpec, ParsesComposites) {
  k::KernelParams p =
      k::parse_kernel_spec("sum(gaussian:h=1,matern32:h=0.9:w=0.5)");
  EXPECT_EQ(p.type, k::KernelType::kSum);
  ASSERT_EQ(p.terms.size(), 2u);
  EXPECT_EQ(p.terms[0].type, k::KernelType::kGaussian);
  EXPECT_EQ(p.terms[1].type, k::KernelType::kMatern32);
  EXPECT_DOUBLE_EQ(p.terms[1].weight, 0.5);

  // Nested composites parse too.
  p = k::parse_kernel_spec("product(sum(gaussian:h=1,dot:h=2),laplacian:h=3)");
  EXPECT_EQ(p.type, k::KernelType::kProduct);
  ASSERT_EQ(p.terms.size(), 2u);
  EXPECT_EQ(p.terms[0].type, k::KernelType::kSum);
}

TEST(KernelSpec, PrintParseRoundTripIsBitExact) {
  // parse(print(p)) must reproduce every field bit for bit — precision-17
  // printing guarantees the doubles survive the text round trip.
  const char* specs[] = {
      "gaussian:h=1.2",
      "matern52:h=0.9",
      "dot:h=1.5",
      "polynomial:h=2:degree=3:coef0=0.25",
      "sum(gaussian:h=1,matern32:h=0.9:w=0.5)",
      "product(gaussian:h=1.4,dot:h=2:w=3)",
      "sum(product(matern52:h=0.7,dot:h=1):w=2,laplacian:h=0.3)",
  };
  std::function<void(const k::KernelParams&, const k::KernelParams&)> same =
      [&](const k::KernelParams& a, const k::KernelParams& b) {
        EXPECT_EQ(a.type, b.type);
        EXPECT_EQ(a.h, b.h);
        EXPECT_EQ(a.degree, b.degree);
        EXPECT_EQ(a.coef0, b.coef0);
        EXPECT_EQ(a.weight, b.weight);
        ASSERT_EQ(a.terms.size(), b.terms.size());
        for (std::size_t i = 0; i < a.terms.size(); ++i) {
          same(a.terms[i], b.terms[i]);
        }
      };
  for (const char* s : specs) {
    SCOPED_TRACE(s);
    k::KernelParams p = k::parse_kernel_spec(s);
    const std::string printed = k::kernel_spec(p);
    k::KernelParams back = k::parse_kernel_spec(printed);
    same(p, back);
    // Canonical form is a fixed point of print(parse(.)).
    EXPECT_EQ(k::kernel_spec(back), printed);
  }
}

TEST(KernelSpec, AwkwardDoublesSurviveTheTextRoundTrip) {
  k::KernelParams p = atom(k::KernelType::kGaussian, 0.1 + 0.2);  // 0.30000..4
  k::KernelParams back = k::parse_kernel_spec(k::kernel_spec(p));
  EXPECT_EQ(back.h, p.h);  // bitwise, not NEAR
}

TEST(KernelSpec, RejectionsNameTheProblem) {
  const struct {
    const char* spec;
    const char* needle;
  } cases[] = {
      {"sum(gaussian:h=1:w=-2,dot:h=1)", "positive"},  // negative weight
      {"whoosh:h=1", "unknown kernel family 'whoosh'"},
      {"gaussian:h=1 trailing", "trailing characters"},
      {"gaussian:h=0.7x", "not a finite number"},
      {"gaussian:h=-1", "h must be positive"},
      {"sum", "needs a '(term,term,...)' list"},
      {"sum(gaussian:h=1", "expected ',' or ')'"},
      {"sum(gaussian:h=1):h=2", "only accepts 'w'"},
      {"polynomial:h=1:degree=2.5", "must be an integer"},
      {"gaussian:h=", "missing value"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.spec);
    try {
      (void)k::parse_kernel_spec(c.spec);
      ADD_FAILURE() << "spec was accepted: " << c.spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
          << e.what();
    }
  }
}

TEST(KernelSpec, DepthCapRefusesPathologicalNesting) {
  std::string deep;
  for (int i = 0; i < 20; ++i) deep += "sum(";
  deep += "gaussian:h=1";
  for (int i = 0; i < 20; ++i) deep += ")";
  EXPECT_THROW((void)k::parse_kernel_spec(deep), std::invalid_argument);
}

TEST(KernelSpec, ValidateRejectsHandBuiltContradictions) {
  // An atom carrying composite terms (only buildable by hand or by a
  // corrupted model file — the parser cannot produce it).
  k::KernelParams bad = atom(k::KernelType::kGaussian, 1.0);
  bad.terms.push_back(atom(k::KernelType::kDot, 1.0));
  EXPECT_THROW(k::validate_kernel_params(bad), std::invalid_argument);

  // A childless composite.
  k::KernelParams empty;
  empty.type = k::KernelType::kSum;
  EXPECT_THROW(k::validate_kernel_params(empty), std::invalid_argument);
}

// --- Tile transform: kernel_tile_from_products ----------------------------

namespace {

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// Distance in ulps between two finite doubles of the same sign.
std::int64_t ulp_distance(double a, double b) {
  const auto ia = static_cast<std::int64_t>(bits_of(std::fabs(a)));
  const auto ib = static_cast<std::int64_t>(bits_of(std::fabs(b)));
  return std::llabs(ia - ib);
}

struct TileCase {
  std::string label;
  k::KernelParams params;
  std::int64_t max_ulps;  // bound against kernel_from_products
};

std::vector<TileCase> tile_cases() {
  k::KernelParams sum;
  sum.type = k::KernelType::kSum;
  sum.terms = {atom(k::KernelType::kGaussian, 1.3),
               atom(k::KernelType::kMatern32, 0.9, /*weight=*/0.5)};
  k::KernelParams product;
  product.type = k::KernelType::kProduct;
  product.terms = {atom(k::KernelType::kLaplacian, 2.0),
                   atom(k::KernelType::kMatern52, 1.1, /*weight=*/3.0)};
  k::KernelParams poly = atom(k::KernelType::kPolynomial, 1.7);
  poly.degree = 3;
  poly.coef0 = 0.5;
  // exp is within 1 ulp of std::exp, so the exp-only families are too; the
  // Matérn prefactor and the composites' sums/products add at most one
  // rounding each on top; dot and polynomial never call exp.
  return {
      {"gaussian", atom(k::KernelType::kGaussian, 1.3), 1},
      {"laplacian", atom(k::KernelType::kLaplacian, 0.8), 1},
      {"matern32", atom(k::KernelType::kMatern32, 0.9), 2},
      {"matern52", atom(k::KernelType::kMatern52, 1.1), 2},
      {"dot", atom(k::KernelType::kDot, 2.0), 0},
      {"polynomial", poly, 0},
      {"sum", sum, 3},
      {"product", product, 4},
  };
}

double sqnorm(const la::Matrix& pts, int i) {
  double s = 0.0;
  for (int c = 0; c < pts.cols(); ++c) s += pts(i, c) * pts(i, c);
  return s;
}

}  // namespace

TEST(TileTransform, MatchesReferenceOnRaggedWidthsForEveryFamily) {
  const int rows = 3, d = 4;
  la::Matrix x = random_points(rows, d, 31);
  for (const TileCase& tc : tile_cases()) {
    for (int width : {1, 7, 8, 9, 127, 128, 129}) {
      la::Matrix y = random_points(width, d, 32 + width);
      const int ld = width + 5;  // padding after each row must stay untouched
      std::vector<double> nx(rows), ny(width);
      std::vector<double> dots(static_cast<std::size_t>(rows) * ld, -7.0);
      for (int i = 0; i < rows; ++i) nx[i] = sqnorm(x, i);
      for (int j = 0; j < width; ++j) ny[j] = sqnorm(y, j);
      for (int i = 0; i < rows; ++i) {
        for (int j = 0; j < width; ++j) {
          double dot = 0.0;
          for (int c = 0; c < d; ++c) dot += x(i, c) * y(j, c);
          dots[static_cast<std::size_t>(i) * ld + j] = dot;
        }
      }

      std::vector<double> scalar = dots;
      k::detail::kernel_tile_from_products_with(
          "scalar", tc.params, rows, width, scalar.data(), ld, nx.data(),
          ny.data());
      for (int i = 0; i < rows; ++i) {
        for (int j = 0; j < ld; ++j) {
          const std::size_t at = static_cast<std::size_t>(i) * ld + j;
          if (j >= width) {
            ASSERT_EQ(scalar[at], -7.0) << tc.label << " wrote past cols";
            continue;
          }
          const double ref =
              k::kernel_from_products(tc.params, dots[at], nx[i], ny[j]);
          EXPECT_LE(ulp_distance(scalar[at], ref), tc.max_ulps)
              << tc.label << " width " << width << " at (" << i << "," << j
              << "): tile " << scalar[at] << " vs reference " << ref;
          // Position independence: the same triple alone in a 1x1 tile.
          double alone = dots[at];
          k::detail::kernel_tile_from_products_with(
              "scalar", tc.params, 1, 1, &alone, 1, &nx[i], &ny[j]);
          EXPECT_EQ(bits_of(alone), bits_of(scalar[at])) << tc.label;
        }
      }

      // Every tier the host runs gives the scalar tier's bits, tails too.
      for (const std::string& isa : k::detail::supported_tile_isas()) {
        std::vector<double> tier = dots;
        k::detail::kernel_tile_from_products_with(isa, tc.params, rows, width,
                                                  tier.data(), ld, nx.data(),
                                                  ny.data());
        for (std::size_t at = 0; at < tier.size(); ++at) {
          ASSERT_EQ(bits_of(tier[at]), bits_of(scalar[at]))
              << tc.label << " tier " << isa << " width " << width
              << " flat index " << at;
        }
      }

      // The public entry runs the best tier.
      std::vector<double> best = dots;
      k::kernel_tile_from_products(tc.params, rows, width, best.data(), ld,
                                   nx.data(), ny.data());
      EXPECT_EQ(std::memcmp(best.data(), scalar.data(),
                            best.size() * sizeof(double)),
                0)
          << tc.label;
    }
  }
}

TEST(TileTransform, ExpIsWithinOneUlpOverTheWholeNegativeRange) {
  // Gaussian with h = 1 and dot = ny = 0 evaluates exp(-nx / 2) exactly at
  // the argument -a for nx = 2a.
  const int m = 200003;
  std::vector<double> nx(m), g(m, 0.0);
  const double ny = 0.0;
  for (int i = 0; i < m; ++i) nx[i] = 2.0 * (745.0 * i / (m - 1));
  const k::KernelParams p = atom(k::KernelType::kGaussian, 1.0);
  std::vector<double> scalar = g;
  k::detail::kernel_tile_from_products_with("scalar", p, m, 1, scalar.data(),
                                            1, nx.data(), &ny);
  std::int64_t worst = 0;
  for (int i = 0; i < m; ++i) {
    worst = std::max(worst, ulp_distance(scalar[i], std::exp(-nx[i] / 2.0)));
  }
  EXPECT_LE(worst, 1);
  // The subnormal tail (-745 < x < -708) included, every tier rounds alike.
  for (const std::string& isa : k::detail::supported_tile_isas()) {
    std::vector<double> tier = g;
    k::detail::kernel_tile_from_products_with(isa, p, m, 1, tier.data(), 1,
                                              nx.data(), &ny);
    for (int i = 0; i < m; ++i) {
      ASSERT_EQ(bits_of(tier[i]), bits_of(scalar[i]))
          << isa << " at -" << nx[i] / 2.0;
    }
  }
}

TEST(TileTransform, EdgeArguments) {
  for (const TileCase& tc : tile_cases()) {
    if (tc.max_ulps == 0) continue;  // dot/polynomial: no exp, exact above
    for (const std::string& isa : k::detail::supported_tile_isas()) {
      // d^2 = 0 exactly, and d^2 = 2 - 2(1 + 2^-52) < 0 from rounding: both
      // clamp to r = 0, where every exp-based atom is exactly 1.
      const double one_up = 1.0 + std::ldexp(1.0, -52);
      double g[2] = {1.5, one_up};
      const double nx[2] = {1.5, 1.0};
      const double ny[2] = {1.5, 1.0};
      for (int i = 0; i < 2; ++i) {
        k::detail::kernel_tile_from_products_with(isa, tc.params, 1, 1, &g[i],
                                                  1, &nx[i], &ny[i]);
        EXPECT_EQ(g[i], k::kernel_from_products(tc.params, i == 0 ? 1.5
                                                                  : one_up,
                                                nx[i], ny[i]))
            << tc.label << " " << isa << " case " << i;
        if (!k::kernel_is_composite(tc.params.type)) {
          EXPECT_EQ(g[i], 1.0) << tc.label << " " << isa;
        }
      }
      // Deep in the underflow range: no NaN, only 0 or a value within
      // 1e-300 of it.  For an atom, nx is chosen so that its exp argument is
      // exactly -a (dot = ny = 0); a composite just gets huge distances.
      std::vector<double> far;
      const double h = tc.params.h;
      for (double a : {709.0, 720.0, 740.0, 745.0, 745.13, 745.2, 746.0, 800.0,
                       1e4, 1e100}) {
        switch (tc.params.type) {
          case k::KernelType::kGaussian: far.push_back(a * 2.0 * h * h); break;
          case k::KernelType::kLaplacian: far.push_back(a * h * a * h); break;
          case k::KernelType::kMatern32: far.push_back(a * h * a * h / 3.0); break;
          case k::KernelType::kMatern52: far.push_back(a * h * a * h / 5.0); break;
          default: break;
        }
      }
      if (far.empty()) far = {1e7, 1e100, 1e300};
      std::vector<double> tile(far.size(), 0.0);
      const double zero = 0.0;
      k::detail::kernel_tile_from_products_with(
          isa, tc.params, static_cast<int>(far.size()), 1, tile.data(), 1,
          far.data(), &zero);
      for (std::size_t i = 0; i < far.size(); ++i) {
        EXPECT_FALSE(std::isnan(tile[i])) << tc.label << " " << isa;
        EXPECT_LE(std::fabs(tile[i]), 1e-300)
            << tc.label << " " << isa << " at nx = " << far[i];
      }
    }
  }
}

TEST(TileTransform, DiagonalStaysExactlyOnePlusLambda) {
  // 1-D points: the packed GEMM's x*x and the stored squared norm agree
  // bit for bit, so d^2 = 0 exactly on the diagonal.
  la::Matrix pts = random_points(37, 1, 33);
  k::KernelMatrix km(pts, {k::KernelType::kGaussian, 0.8, 2, 1.0}, 0.25);
  std::vector<int> idx(37);
  for (int i = 0; i < 37; ++i) idx[i] = i;
  la::Matrix sub = km.extract(idx, idx);
  la::Matrix full = km.dense();
  for (int i = 0; i < 37; ++i) {
    EXPECT_EQ(sub(i, i), 1.25);
    EXPECT_EQ(full(i, i), 1.25);
  }
}

TEST(TileTransform, BulkPathsShareBitsWithExtract) {
  // extract(), dense(), multiply() and cross() all run the same packed GEMM
  // inner products and the same tile transform, so they agree bit for bit
  // — the randomized HSS builder's extract-vs-multiply cancellation relies
  // on it.  n = 300 is not a multiple of the 8-lane width or 128-wide tiles.
  // extract(cols, rows) is also the bitwise transpose of extract(rows,
  // cols): the symmetric HSS format stores B01 only and applies B10 as its
  // transpose, which is exact only because of this.  Dimension 300 exceeds
  // the GEMM depth block (la::detail::kKC = 256), so there every inner
  // product spans two K panels.
  static_assert(la::detail::kKC < 300, "dimension 300 must span two K panels");
  const int n = 300;
  const double lambda = 0.7;
  k::KernelParams composite;
  composite.type = k::KernelType::kSum;
  composite.terms = {atom(k::KernelType::kGaussian, 1.2),
                     atom(k::KernelType::kMatern52, 0.9, /*weight=*/0.25)};
  std::vector<int> rows, cols;
  for (int i = n - 1; i >= 0; i -= 2) rows.push_back(i);  // 150, reversed
  for (int j = 0; j < n; j += 3) cols.push_back(j);       // 100
  for (int j = 1; j < n; j += 7) cols.push_back(j);       // 43 more
  // multiply() on identity columns e_j for every 11th extracted column j
  // (13 of them): column q of the product is K(:, j) + lambda e_j.
  std::vector<int> probe;
  for (std::size_t c = 0; c < cols.size(); c += 11) probe.push_back(static_cast<int>(c));
  la::Matrix unit(n, static_cast<int>(probe.size()));
  for (std::size_t q = 0; q < probe.size(); ++q) unit(cols[probe[q]], static_cast<int>(q)) = 1.0;

  for (const int dim : {5, 300}) {
    const la::Matrix pts = random_points(n, dim, 34);
    // Atom bandwidths grow like sqrt(dim), as point distances do.
    const double h = std::sqrt(dim / 5.0);
    for (const k::KernelParams& params :
         {atom(k::KernelType::kGaussian, 1.1 * h),
          atom(k::KernelType::kLaplacian, 2.0 * h),
          atom(k::KernelType::kPolynomial, 2.0 * h),
          atom(k::KernelType::kMatern32, 1.1 * h),
          atom(k::KernelType::kMatern52, 0.9 * h),
          atom(k::KernelType::kDot, 2.0 * h), composite}) {
      k::KernelMatrix km(pts, params, lambda);
      const std::string what = std::string(k::kernel_name(params.type)) +
                               " dim " + std::to_string(dim);
      la::Matrix e = km.extract(rows, cols);
      const la::Matrix et = km.extract(cols, rows);
      const la::Matrix via_multiply = km.multiply(unit);
      const la::Matrix full = km.dense();
      const la::Matrix via_cross = km.cross(pts.rows_subset(rows));  // no lambda
      for (std::size_t r = 0; r < rows.size(); ++r) {
        const int ir = static_cast<int>(r);
        for (std::size_t c = 0; c < cols.size(); ++c) {
          const int i = rows[r], j = cols[c];
          const double v = e(ir, static_cast<int>(c));
          ASSERT_EQ(bits_of(v), bits_of(et(static_cast<int>(c), ir)))
              << what << " transposed extract at (" << i << "," << j << ")";
          ASSERT_EQ(bits_of(v), bits_of(full(i, j)))
              << what << " dense at (" << i << "," << j << ")";
          const double shifted = i == j ? via_cross(ir, j) + lambda : via_cross(ir, j);
          ASSERT_EQ(bits_of(v), bits_of(shifted))
              << what << " cross at (" << i << "," << j << ")";
        }
        for (std::size_t q = 0; q < probe.size(); ++q) {
          const int c = probe[q];
          ASSERT_EQ(bits_of(e(ir, c)), bits_of(via_multiply(rows[r], static_cast<int>(q))))
              << what << " multiply at (" << rows[r] << "," << cols[c] << ")";
        }
      }
    }
  }
}

// --- Eval budget: the matrix-free audit guard ------------------------------

TEST(EvalBudget, UnlimitedByDefault) {
  la::Matrix pts = random_points(40, 3, 21);
  k::KernelMatrix km(pts, {}, 0.1);
  EXPECT_EQ(km.eval_budget(), 0);
  (void)km.dense();  // 1600 evals, no budget, no throw
  EXPECT_EQ(km.element_evals(), 40 * 40);
}

TEST(EvalBudget, DenseSweepPastBudgetThrows) {
  la::Matrix pts = random_points(64, 3, 22);
  k::KernelMatrix km(pts, {}, 0.1);
  km.set_eval_budget(1000);  // well below 64^2 = 4096
  EXPECT_THROW((void)km.dense(), k::EvalBudgetExceeded);
}

TEST(EvalBudget, ExtractUnderBudgetSucceedsThenCumulativeThrows) {
  la::Matrix pts = random_points(64, 3, 24);
  k::KernelMatrix km(pts, {}, 0.1);
  km.set_eval_budget(1000);
  std::vector<int> rows(20), cols(20);
  for (int i = 0; i < 20; ++i) rows[i] = cols[i] = i;
  EXPECT_NO_THROW((void)km.extract(rows, cols));  // 400 spent
  EXPECT_NO_THROW((void)km.extract(rows, cols));  // 800 spent
  EXPECT_THROW((void)km.extract(rows, cols), k::EvalBudgetExceeded);  // 1200
  EXPECT_EQ(km.element_evals(), 800);  // the rejected request never ran
}

TEST(EvalBudget, MessageNamesTheNumbers) {
  la::Matrix pts = random_points(32, 2, 25);
  k::KernelMatrix km(pts, {}, 0.0);
  km.set_eval_budget(100);
  try {
    (void)km.dense();
    FAIL() << "dense() should have exceeded the budget";
  } catch (const k::EvalBudgetExceeded& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("budget 100"), std::string::npos) << msg;
    EXPECT_NE(msg.find("n = 32"), std::string::npos) << msg;
  }
}

TEST(EvalBudget, DeferredCheckpointCatchesParallelSpend) {
  // Inside a parallel region the guard must not throw (an exception
  // escaping an OpenMP region terminates); check_eval_budget() at the next
  // serial checkpoint reports the overdraft instead.
  la::Matrix pts = random_points(48, 3, 26);
  k::KernelMatrix km(pts, {}, 0.1);
  km.set_eval_budget(500);
  std::vector<int> rows(48), cols(48);
  for (int i = 0; i < 48; ++i) rows[i] = cols[i] = i;
#pragma omp parallel num_threads(2)
  {
#pragma omp single
    { (void)km.extract(rows, cols); }  // 2304 > 500, silently allowed here
  }
  EXPECT_GT(km.element_evals(), 500);
  EXPECT_THROW(km.check_eval_budget(), k::EvalBudgetExceeded);
}
