// Tile form of the kernel transform (kernel_tile_from_products): one family
// dispatch per tile and a vectorized exp, in AVX-512, AVX2+FMA and portable
// scalar tiers that agree bit for bit.  The tier is picked once per process
// from the host CPU, the way the packed GEMM core picks its microkernel.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "kernel/kernel.hpp"
#include "util/isa.hpp"

namespace khss::kernel {

namespace {

// Constants of exp_lanes (kernel_tile.inc).
constexpr double kExpMin = -746.0;  // e^x rounds to 0 below about -745.13
constexpr double kExpMax = 710.0;   // and overflows above about 709.78
constexpr double kLog2e = 0x1.71547652b82fep0;
// y + 1.5 * 2^52 rounds y to an integer, held in the low mantissa bits.
constexpr double kShifter = 0x1.8p52;
// ln 2 split so that k * kLn2Hi is exact for |k| < 2^11.
constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
// Taylor coefficients 1/13!, 1/12!, ..., 1/1!, 1/0! in Horner order; for
// |r| <= ln2/2 the truncation error is below 0.04 ulp.
constexpr int kExpPolyTerms = 14;
constexpr double kExpPoly[kExpPolyTerms] = {
    1.0 / 6227020800.0, 1.0 / 479001600.0, 1.0 / 39916800.0,
    1.0 / 3628800.0,    1.0 / 362880.0,    1.0 / 40320.0,
    1.0 / 5040.0,       1.0 / 720.0,       1.0 / 120.0,
    1.0 / 24.0,         1.0 / 6.0,         0.5,
    1.0,                1.0};

// Lane types.  Besides plain IEEE operations each provides
//   fnma(a, b, c)  c - a * b with one rounding (= fma(-a, b, c));
//   max / min      x86 semantics, a > b ? a : b (a < b ? a : b), so a NaN
//                  in the second operand passes through;
//   scale(p, kd)   p * 2^kd rounded once, for integral kd in [-1076, 1024]
//                  (or NaN).  Without AVX-512's scalef it applies 2^kd as
//                  two exact halves 2^k1 * 2^k2, k1 = round(kd / 2): p * 2^k1
//                  stays normal, so only the second product rounds.

// Bits of 2^k from ks = k + kShifter: the low 12 bits of ks's pattern are
// k mod 2^12, so adding the exponent bias and shifting them into the
// exponent field gives 2^k for -1022 <= k <= 1023.
KHSS_ALWAYS_INLINE std::uint64_t pow2_bits(std::uint64_t ks_bits) {
  return (ks_bits + 1023u) << 52;
}

struct ScalarLanes {
  using V = double;
  static constexpr int kWidth = 1;
  static V set1(double x) { return x; }
  static V load(const double* p) { return *p; }
  static void store(double* p, V v) { *p = v; }
  static V load_part(const double* p, int /*n*/) { return *p; }
  static void store_part(double* p, int /*n*/, V v) { *p = v; }
  static V add(V a, V b) { return a + b; }
  static V sub(V a, V b) { return a - b; }
  static V mul(V a, V b) { return a * b; }
  static V div(V a, V b) { return a / b; }
  static V sqrt(V a) { return std::sqrt(a); }
  static V fma(V a, V b, V c) { return std::fma(a, b, c); }
  static V fnma(V a, V b, V c) { return std::fma(-a, b, c); }
  static V neg(V a) { return -a; }
  static V max(V a, V b) { return a > b ? a : b; }
  static V min(V a, V b) { return a < b ? a : b; }
  static V pow2(V ks) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &ks, sizeof bits);
    bits = pow2_bits(bits);
    double out = 0.0;
    std::memcpy(&out, &bits, sizeof out);
    return out;
  }
  static V scale(V p, V kd) {
    const V k1s = std::fma(kd, 0.5, kShifter);
    const V k2s = (kd - (k1s - kShifter)) + kShifter;
    return (p * pow2(k1s)) * pow2(k2s);
  }
};

namespace scalar_tier {
using L = ScalarLanes;
#define KHSS_TILE_TGT
#include "kernel/kernel_tile.inc"
#undef KHSS_TILE_TGT
}  // namespace scalar_tier

#if defined(KHSS_ISA_MULTIVERSION)
struct Avx2Lanes {
  using V = __m256d;
  static constexpr int kWidth = 4;
  static KHSS_TGT_AVX2 KHSS_ALWAYS_INLINE __m256i part_mask(int n) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(n),
                              _mm256_set_epi64x(3, 2, 1, 0));
  }
  static KHSS_TGT_AVX2 KHSS_ALWAYS_INLINE V set1(double x) {
    return _mm256_set1_pd(x);
  }
  static KHSS_TGT_AVX2 KHSS_ALWAYS_INLINE V load(const double* p) {
    return _mm256_loadu_pd(p);
  }
  static KHSS_TGT_AVX2 KHSS_ALWAYS_INLINE void store(double* p, V v) {
    _mm256_storeu_pd(p, v);
  }
  static KHSS_TGT_AVX2 KHSS_ALWAYS_INLINE V load_part(const double* p, int n) {
    return _mm256_maskload_pd(p, part_mask(n));
  }
  static KHSS_TGT_AVX2 KHSS_ALWAYS_INLINE void store_part(double* p, int n,
                                                          V v) {
    _mm256_maskstore_pd(p, part_mask(n), v);
  }
  static KHSS_TGT_AVX2 KHSS_ALWAYS_INLINE V add(V a, V b) {
    return _mm256_add_pd(a, b);
  }
  static KHSS_TGT_AVX2 KHSS_ALWAYS_INLINE V sub(V a, V b) {
    return _mm256_sub_pd(a, b);
  }
  static KHSS_TGT_AVX2 KHSS_ALWAYS_INLINE V mul(V a, V b) {
    return _mm256_mul_pd(a, b);
  }
  static KHSS_TGT_AVX2 KHSS_ALWAYS_INLINE V div(V a, V b) {
    return _mm256_div_pd(a, b);
  }
  static KHSS_TGT_AVX2 KHSS_ALWAYS_INLINE V sqrt(V a) {
    return _mm256_sqrt_pd(a);
  }
  static KHSS_TGT_AVX2 KHSS_ALWAYS_INLINE V fma(V a, V b, V c) {
    return _mm256_fmadd_pd(a, b, c);
  }
  static KHSS_TGT_AVX2 KHSS_ALWAYS_INLINE V fnma(V a, V b, V c) {
    return _mm256_fnmadd_pd(a, b, c);
  }
  static KHSS_TGT_AVX2 KHSS_ALWAYS_INLINE V neg(V a) {
    return _mm256_xor_pd(a, _mm256_set1_pd(-0.0));
  }
  static KHSS_TGT_AVX2 KHSS_ALWAYS_INLINE V max(V a, V b) {
    return _mm256_max_pd(a, b);
  }
  static KHSS_TGT_AVX2 KHSS_ALWAYS_INLINE V min(V a, V b) {
    return _mm256_min_pd(a, b);
  }
  static KHSS_TGT_AVX2 KHSS_ALWAYS_INLINE V pow2(V ks) {
    const __m256i bits = _mm256_add_epi64(_mm256_castpd_si256(ks),
                                          _mm256_set1_epi64x(1023));
    return _mm256_castsi256_pd(_mm256_slli_epi64(bits, 52));
  }
  static KHSS_TGT_AVX2 KHSS_ALWAYS_INLINE V scale(V p, V kd) {
    const V shifter = set1(kShifter);
    const V k1s = fma(kd, set1(0.5), shifter);
    const V k2s = add(sub(kd, sub(k1s, shifter)), shifter);
    return mul(mul(p, pow2(k1s)), pow2(k2s));
  }
};

// The all-lanes zero-masked forms of sqrt/max/min/scalef are the plain
// instructions; they sidestep GCC 12's -Wmaybe-uninitialized false positive
// on the unmasked intrinsics' undefined pass-through operand.
struct Avx512Lanes {
  using V = __m512d;
  static constexpr int kWidth = 8;
  static constexpr __mmask8 kAll = 0xFF;
  static KHSS_TGT_AVX512 KHSS_ALWAYS_INLINE __mmask8 part_mask(int n) {
    return static_cast<__mmask8>((1u << n) - 1u);
  }
  static KHSS_TGT_AVX512 KHSS_ALWAYS_INLINE V set1(double x) {
    return _mm512_set1_pd(x);
  }
  static KHSS_TGT_AVX512 KHSS_ALWAYS_INLINE V load(const double* p) {
    return _mm512_loadu_pd(p);
  }
  static KHSS_TGT_AVX512 KHSS_ALWAYS_INLINE void store(double* p, V v) {
    _mm512_storeu_pd(p, v);
  }
  static KHSS_TGT_AVX512 KHSS_ALWAYS_INLINE V load_part(const double* p,
                                                        int n) {
    return _mm512_maskz_loadu_pd(part_mask(n), p);
  }
  static KHSS_TGT_AVX512 KHSS_ALWAYS_INLINE void store_part(double* p, int n,
                                                            V v) {
    _mm512_mask_storeu_pd(p, part_mask(n), v);
  }
  static KHSS_TGT_AVX512 KHSS_ALWAYS_INLINE V add(V a, V b) {
    return _mm512_add_pd(a, b);
  }
  static KHSS_TGT_AVX512 KHSS_ALWAYS_INLINE V sub(V a, V b) {
    return _mm512_sub_pd(a, b);
  }
  static KHSS_TGT_AVX512 KHSS_ALWAYS_INLINE V mul(V a, V b) {
    return _mm512_mul_pd(a, b);
  }
  static KHSS_TGT_AVX512 KHSS_ALWAYS_INLINE V div(V a, V b) {
    return _mm512_div_pd(a, b);
  }
  static KHSS_TGT_AVX512 KHSS_ALWAYS_INLINE V sqrt(V a) {
    return _mm512_maskz_sqrt_pd(kAll, a);
  }
  static KHSS_TGT_AVX512 KHSS_ALWAYS_INLINE V fma(V a, V b, V c) {
    return _mm512_fmadd_pd(a, b, c);
  }
  static KHSS_TGT_AVX512 KHSS_ALWAYS_INLINE V fnma(V a, V b, V c) {
    return _mm512_fnmadd_pd(a, b, c);
  }
  static KHSS_TGT_AVX512 KHSS_ALWAYS_INLINE V neg(V a) {
    return _mm512_xor_pd(a, _mm512_set1_pd(-0.0));
  }
  static KHSS_TGT_AVX512 KHSS_ALWAYS_INLINE V max(V a, V b) {
    return _mm512_maskz_max_pd(kAll, a, b);
  }
  static KHSS_TGT_AVX512 KHSS_ALWAYS_INLINE V min(V a, V b) {
    return _mm512_maskz_min_pd(kAll, a, b);
  }
  static KHSS_TGT_AVX512 KHSS_ALWAYS_INLINE V scale(V p, V kd) {
    return _mm512_maskz_scalef_pd(kAll, p, kd);
  }
};

namespace avx2_tier {
using L = Avx2Lanes;
#define KHSS_TILE_TGT KHSS_TGT_AVX2
#include "kernel/kernel_tile.inc"
#undef KHSS_TILE_TGT
}  // namespace avx2_tier

namespace avx512_tier {
using L = Avx512Lanes;
#define KHSS_TILE_TGT KHSS_TGT_AVX512
#include "kernel/kernel_tile.inc"
#undef KHSS_TILE_TGT
}  // namespace avx512_tier
#endif

using AtomFn = void (*)(const KernelParams&, int, int, double*, int,
                        const double*, const double*);

struct Tier {
  const char* name;
  AtomFn atom;
};

// Tiers this host can run, best first; [0] serves every bulk path.
const std::vector<Tier>& supported_tiers() {
  static const std::vector<Tier> tiers = [] {
    std::vector<Tier> v;
#if defined(KHSS_ISA_MULTIVERSION)
    if (util::cpu_has_avx512()) v.push_back({"avx512", avx512_tier::transform_atom});
    if (util::cpu_has_avx2()) v.push_back({"avx2", avx2_tier::transform_atom});
#endif
    v.push_back({"scalar", scalar_tier::transform_atom});
    return v;
  }();
  return tiers;
}

// Composites combine their terms' tiles row by row in term order, with the
// reference's own arithmetic: acc = 0, acc += w * k (sum) or acc = 1,
// acc *= w * k (product).
void transform(const Tier& tier, const KernelParams& p, int rows, int cols,
               double* g, int ld, const double* nx, const double* ny) {
  if (!kernel_is_composite(p.type)) {
    tier.atom(p, rows, cols, g, ld, nx, ny);
    return;
  }
  const bool sum = p.type == KernelType::kSum;
  std::vector<double> acc(cols), term(cols);
  for (int i = 0; i < rows; ++i) {
    double* grow = g + static_cast<std::size_t>(i) * ld;
    acc.assign(cols, sum ? 0.0 : 1.0);
    for (const KernelParams& t : p.terms) {
      term.assign(grow, grow + cols);
      transform(tier, t, 1, cols, term.data(), cols, nx + i, ny);
      for (int j = 0; j < cols; ++j) {
        if (sum) {
          acc[j] += t.weight * term[j];
        } else {
          acc[j] *= t.weight * term[j];
        }
      }
    }
    std::copy(acc.begin(), acc.end(), grow);
  }
}

const Tier& find_tier(const std::string& isa) {
  for (const Tier& t : supported_tiers()) {
    if (isa == t.name) return t;
  }
  return supported_tiers().front();
}

}  // namespace

void kernel_tile_from_products(const KernelParams& params, int rows, int cols,
                               double* g, int ld, const double* nx,
                               const double* ny) {
  transform(supported_tiers().front(), params, rows, cols, g, ld, nx, ny);
}

namespace detail {

std::vector<std::string> supported_tile_isas() {
  std::vector<std::string> names;
  for (const Tier& t : supported_tiers()) names.emplace_back(t.name);
  return names;
}

void kernel_tile_from_products_with(const std::string& isa,
                                    const KernelParams& params, int rows,
                                    int cols, double* g, int ld,
                                    const double* nx, const double* ny) {
  transform(find_tier(isa), params, rows, cols, g, ld, nx, ny);
}

}  // namespace detail

}  // namespace khss::kernel
