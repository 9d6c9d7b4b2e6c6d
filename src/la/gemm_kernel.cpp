#include "la/gemm_kernel.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "la/gemm_tune.hpp"
#include "util/isa.hpp"
#include "util/threads.hpp"

namespace khss::la::detail {

namespace {

// ---------------------------------------------------------------------------
// Register-tile templates.  MR/NR are compile-time properties of a kernel
// variant; the cache blocking (kc/mc/nc) is runtime.  Everything below is
// force-inlined into the ISA-attributed wrappers at the bottom so each
// variant auto-vectorizes for its target without intrinsics.
// ---------------------------------------------------------------------------

// Pack an mc x kc block of alpha*op(A) into MR-row panels: panel ir holds
// rows [ir, ir+MR) stored p-major (ap[p*MR + i]), short last panel
// zero-padded so the microkernel never branches on row count.
template <int MR>
KHSS_ALWAYS_INLINE void pack_a_t(int mc, int kc, double alpha, const double* a,
                                 int lda, bool ta, double* ap) {
  for (int ir = 0; ir < mc; ir += MR) {
    const int mr = mc - ir < MR ? mc - ir : MR;
    double* dst = ap + static_cast<std::size_t>(ir) * kc;
    if (!ta) {
      for (int p = 0; p < kc; ++p) {
        for (int i = 0; i < mr; ++i) {
          dst[p * MR + i] = alpha * a[static_cast<std::size_t>(ir + i) * lda + p];
        }
        for (int i = mr; i < MR; ++i) dst[p * MR + i] = 0.0;
      }
    } else {
      for (int p = 0; p < kc; ++p) {
        const double* arow = a + static_cast<std::size_t>(p) * lda + ir;
        for (int i = 0; i < mr; ++i) dst[p * MR + i] = alpha * arow[i];
        for (int i = mr; i < MR; ++i) dst[p * MR + i] = 0.0;
      }
    }
  }
}

// Pack a kc x nc block of op(B) into NR-column panels (bp[p*NR + j]), short
// last panel zero-padded.  Panels subdivide at NR boundaries, so packing an
// NR-aligned column sub-range produces exactly the bytes the full pack
// would place there — the threaded driver's cooperative pack rides on this.
template <int NR>
KHSS_ALWAYS_INLINE void pack_b_t(int kc, int nc, const double* b, int ldb,
                                 bool tb, double* bp) {
  for (int jr = 0; jr < nc; jr += NR) {
    const int nr = nc - jr < NR ? nc - jr : NR;
    double* dst = bp + static_cast<std::size_t>(jr) * kc;
    if (!tb) {
      for (int p = 0; p < kc; ++p) {
        const double* brow = b + static_cast<std::size_t>(p) * ldb + jr;
        for (int j = 0; j < nr; ++j) dst[p * NR + j] = brow[j];
        for (int j = nr; j < NR; ++j) dst[p * NR + j] = 0.0;
      }
    } else {
      for (int p = 0; p < kc; ++p) {
        for (int j = 0; j < nr; ++j) {
          dst[p * NR + j] = b[static_cast<std::size_t>(jr + j) * ldb + p];
        }
        for (int j = nr; j < NR; ++j) dst[p * NR + j] = 0.0;
      }
    }
  }
}

// MR x NR register microkernel over a depth-kc packed panel pair.  The
// accumulator block lives in registers for the whole kc loop; mr/nr trim
// only the final store, so edge tiles share the same code path (and the
// same flop order) as interior ones.
template <int MR, int NR>
KHSS_ALWAYS_INLINE void micro_kernel_t(int kc, const double* ap,
                                       const double* bp, double* c, int ldc,
                                       int mr, int nr) {
  double acc[MR][NR] = {};
  for (int p = 0; p < kc; ++p) {
    const double* arow = ap + static_cast<std::size_t>(p) * MR;
    const double* brow = bp + static_cast<std::size_t>(p) * NR;
    for (int i = 0; i < MR; ++i) {
      const double av = arow[i];
      for (int j = 0; j < NR; ++j) acc[i][j] += av * brow[j];
    }
  }
  if (mr == MR && nr == NR) {
    for (int i = 0; i < MR; ++i) {
      double* crow = c + static_cast<std::size_t>(i) * ldc;
      for (int j = 0; j < NR; ++j) crow[j] += acc[i][j];
    }
  } else {
    for (int i = 0; i < mr; ++i) {
      double* crow = c + static_cast<std::size_t>(i) * ldc;
      for (int j = 0; j < nr; ++j) crow[j] += acc[i][j];
    }
  }
}

// All jr/ir microkernels of one packed (mc x kc) A block against one packed
// (kc x nc) B panel range.
template <int MR, int NR>
KHSS_ALWAYS_INLINE void macro_kernel_t(int mc, int nc, int kc,
                                       const double* ap, const double* bp,
                                       double* c, int ldc) {
  for (int jr = 0; jr < nc; jr += NR) {
    const int nr = nc - jr < NR ? nc - jr : NR;
    const double* bpanel = bp + static_cast<std::size_t>(jr) * kc;
    for (int ir = 0; ir < mc; ir += MR) {
      const int mr = mc - ir < MR ? mc - ir : MR;
      micro_kernel_t<MR, NR>(kc, ap + static_cast<std::size_t>(ir) * kc,
                             bpanel, c + static_cast<std::size_t>(ir) * ldc + jr,
                             ldc, mr, nr);
    }
  }
}

// ---------------------------------------------------------------------------
// ISA variants.  Each wrapper carries a function target attribute so the
// inlined template bodies auto-vectorize for that ISA; the driver calls
// through a function-pointer table resolved once at startup, keeping all
// OpenMP orchestration out of target-attributed code (outlined parallel
// regions do not reliably inherit target attributes).
// ---------------------------------------------------------------------------

using PackAFn = void (*)(int, int, double, const double*, int, bool, double*);
using PackBFn = void (*)(int, int, const double*, int, bool, double*);
using MacroFn = void (*)(int, int, int, const double*, const double*, double*,
                         int);

struct KernelOps {
  const char* name;
  int mr;
  int nr;
  PackAFn pack_a;
  PackBFn pack_b;
  MacroFn macro;
};

#define KHSS_KOPS(SUF, MR_, NR_, TGT)                                        \
  TGT void pack_a_##SUF(int mc, int kc, double alpha, const double* a,       \
                        int lda, bool ta, double* ap) {                      \
    pack_a_t<MR_>(mc, kc, alpha, a, lda, ta, ap);                            \
  }                                                                          \
  TGT void pack_b_##SUF(int kc, int nc, const double* b, int ldb, bool tb,   \
                        double* bp) {                                        \
    pack_b_t<NR_>(kc, nc, b, ldb, tb, bp);                                   \
  }                                                                          \
  TGT void macro_##SUF(int mc, int nc, int kc, const double* ap,             \
                       const double* bp, double* c, int ldc) {               \
    macro_kernel_t<MR_, NR_>(mc, nc, kc, ap, bp, c, ldc);                    \
  }

KHSS_KOPS(generic, 4, 8, )

#if defined(KHSS_ISA_MULTIVERSION)
KHSS_KOPS(avx2, 4, 8, KHSS_TGT_AVX2)

// Explicit zmm microkernel for the AVX-512 variants.  GCC's autovectorizer
// turns the scalar MRxNR template into an outer-loop SLP form that drags a
// vpermt2pd shuffle network through every k-step (~13x slower than the AVX2
// tile on the same host), so these tiles are written with intrinsics: two
// zmm accumulator columns per row, embedded-broadcast FMAs, masked tail
// stores.  Per C element the flop order is the same sequential k loop as the
// scalar template, and edge tiles share the interior code path.
template <int MR>
KHSS_TGT_AVX512 KHSS_ALWAYS_INLINE void micro_kernel_zmm(
    int kc, const double* ap, const double* bp, double* c, int ldc, int mr,
    int nr) {
  __m512d acc[MR][2];
  for (int i = 0; i < MR; ++i) {
    acc[i][0] = _mm512_setzero_pd();
    acc[i][1] = _mm512_setzero_pd();
  }
  for (int p = 0; p < kc; ++p) {
    const double* arow = ap + static_cast<std::size_t>(p) * MR;
    const double* brow = bp + static_cast<std::size_t>(p) * 16;
    const __m512d b0 = _mm512_loadu_pd(brow);
    const __m512d b1 = _mm512_loadu_pd(brow + 8);
    for (int i = 0; i < MR; ++i) {
      const __m512d av = _mm512_set1_pd(arow[i]);
      acc[i][0] = _mm512_fmadd_pd(av, b0, acc[i][0]);
      acc[i][1] = _mm512_fmadd_pd(av, b1, acc[i][1]);
    }
  }
  if (nr == 16) {
    for (int i = 0; i < mr; ++i) {
      double* crow = c + static_cast<std::size_t>(i) * ldc;
      _mm512_storeu_pd(crow, _mm512_add_pd(_mm512_loadu_pd(crow), acc[i][0]));
      _mm512_storeu_pd(crow + 8,
                       _mm512_add_pd(_mm512_loadu_pd(crow + 8), acc[i][1]));
    }
  } else {
    const __mmask8 m0 = static_cast<__mmask8>(nr >= 8 ? 0xFF : (1u << nr) - 1u);
    const __mmask8 m1 =
        static_cast<__mmask8>(nr > 8 ? (1u << (nr - 8)) - 1u : 0u);
    for (int i = 0; i < mr; ++i) {
      double* crow = c + static_cast<std::size_t>(i) * ldc;
      _mm512_mask_storeu_pd(
          crow, m0, _mm512_add_pd(_mm512_maskz_loadu_pd(m0, crow), acc[i][0]));
      _mm512_mask_storeu_pd(
          crow + 8, m1,
          _mm512_add_pd(_mm512_maskz_loadu_pd(m1, crow + 8), acc[i][1]));
    }
  }
}

template <int MR>
KHSS_TGT_AVX512 void macro_kernel_zmm_t(int mc, int nc, int kc,
                                        const double* ap, const double* bp,
                                        double* c, int ldc) {
  for (int jr = 0; jr < nc; jr += 16) {
    const int nr = nc - jr < 16 ? nc - jr : 16;
    const double* bpanel = bp + static_cast<std::size_t>(jr) * kc;
    for (int ir = 0; ir < mc; ir += MR) {
      const int mr = mc - ir < MR ? mc - ir : MR;
      micro_kernel_zmm<MR>(kc, ap + static_cast<std::size_t>(ir) * kc, bpanel,
                           c + static_cast<std::size_t>(ir) * ldc + jr, ldc,
                           mr, nr);
    }
  }
}

// 8x16 fills 16 of 32 zmm with accumulators (plus one B row pair and an A
// broadcast); 6x16 trades two accumulator rows for more rename headroom —
// which wins is host-dependent, so the autotuner sweeps both.
#define KHSS_KOPS_ZMM(SUF, MR_)                                              \
  KHSS_TGT_AVX512 void pack_a_##SUF(int mc, int kc, double alpha,            \
                                    const double* a, int lda, bool ta,       \
                                    double* ap) {                            \
    pack_a_t<MR_>(mc, kc, alpha, a, lda, ta, ap);                            \
  }                                                                          \
  KHSS_TGT_AVX512 void pack_b_##SUF(int kc, int nc, const double* b,         \
                                    int ldb, bool tb, double* bp) {          \
    pack_b_t<16>(kc, nc, b, ldb, tb, bp);                                    \
  }                                                                          \
  void macro_##SUF(int mc, int nc, int kc, const double* ap,                 \
                   const double* bp, double* c, int ldc) {                   \
    macro_kernel_zmm_t<MR_>(mc, nc, kc, ap, bp, c, ldc);                     \
  }

KHSS_KOPS_ZMM(avx512_8x16, 8)
KHSS_KOPS_ZMM(avx512_6x16, 6)

#undef KHSS_KOPS_ZMM
#endif

#undef KHSS_KOPS

const KernelOps kOpsGeneric{"generic-4x8", 4, 8, pack_a_generic,
                            pack_b_generic, macro_generic};
#if defined(KHSS_ISA_MULTIVERSION)
const KernelOps kOpsAvx2{"avx2-4x8", 4, 8, pack_a_avx2, pack_b_avx2,
                         macro_avx2};
const KernelOps kOpsAvx512_8x16{"avx512-8x16", 8, 16, pack_a_avx512_8x16,
                                pack_b_avx512_8x16, macro_avx512_8x16};
const KernelOps kOpsAvx512_6x16{"avx512-6x16", 6, 16, pack_a_avx512_6x16,
                                pack_b_avx512_6x16, macro_avx512_6x16};
#endif

// Supported variants, best first; [0] is the startup default.
const std::vector<const KernelOps*>& supported_ops() {
  static const std::vector<const KernelOps*> ops = [] {
    std::vector<const KernelOps*> v;
#if defined(KHSS_ISA_MULTIVERSION)
    if (util::cpu_has_avx512()) {
      v.push_back(&kOpsAvx512_8x16);
      v.push_back(&kOpsAvx512_6x16);
    }
    if (util::cpu_has_avx2()) v.push_back(&kOpsAvx2);
#endif
    v.push_back(&kOpsGeneric);
    return v;
  }();
  return ops;
}

const KernelOps* find_ops(const std::string& name) {
  for (const KernelOps* ops : supported_ops()) {
    if (name == ops->name) return ops;
  }
  return nullptr;
}

int clamp_blocking(int v) { return std::max(8, std::min(4096, v)); }

GemmBlocking clamped(const GemmBlocking& blk) {
  return {clamp_blocking(blk.kc), clamp_blocking(blk.mc),
          clamp_blocking(blk.nc)};
}

// Process-wide kernel + blocking, resolved lazily on first use (magic
// static) from the pinned defaults / env override / autotuner cache — see
// gemm_tune.cpp for the resolution order.  The set_* hooks mutate it; they
// are documented as not thread-safe against in-flight GEMMs.
struct ActiveConfig {
  const KernelOps* ops;
  GemmBlocking blk;
};

ActiveConfig resolve_active() {
  const GemmConfig rc = resolve_gemm_config();
  ActiveConfig out;
  const KernelOps* named =
      rc.kernel.empty() ? nullptr : find_ops(rc.kernel);
  out.ops = named != nullptr ? named : supported_ops().front();
  out.blk = clamped(rc.blocking);
  return out;
}

ActiveConfig& active() {
  static ActiveConfig cfg = resolve_active();
  return cfg;
}

// ---------------------------------------------------------------------------
// Workspaces.  thread_local on the *calling* thread: concurrent std::thread
// callers (the race harness hammers this) each own their buffers, and the
// threaded driver hands its team slots out of the calling thread's pool by
// explicit pointer — never a function-static shared buffer.
// ---------------------------------------------------------------------------

// Packed panels are zero-padded out to whole MR-row / NR-column tiles, so
// buffers hold round_up(mc, MR) x kc and kc x round_up(nc, NR) doubles.
// Padding by the largest register tile of any variant covers every kernel,
// including mid-process set_gemm_kernel switches.
constexpr int kMaxMR = 8;
constexpr int kMaxNR = 16;

std::size_t apack_elems(const GemmBlocking& blk) {
  return static_cast<std::size_t>(blk.mc + kMaxMR) * blk.kc;
}

std::size_t bpack_elems(const GemmBlocking& blk) {
  return static_cast<std::size_t>(blk.kc) * (blk.nc + kMaxNR);
}

struct PackBuffers {
  std::vector<double> a;  // mc x kc, alpha folded in, MR-row panels
  std::vector<double> b;  // kc x nc, NR-column panels
};

PackBuffers& serial_buffers(const GemmBlocking& blk) {
  thread_local PackBuffers bufs;
  const std::size_t aneed = apack_elems(blk);
  const std::size_t bneed = bpack_elems(blk);
  if (bufs.a.size() < aneed) bufs.a.resize(aneed);
  if (bufs.b.size() < bneed) bufs.b.resize(bneed);
  return bufs;
}

struct TeamWorkspace {
  std::vector<double> a;  // nthreads slots of mc x kc (slot 0 doubles as the
                          // shared block in single-MC-block mode)
  std::vector<double> b;  // one shared kc x nc packed panel
};

TeamWorkspace& team_buffers(int nthreads, const GemmBlocking& blk) {
  thread_local TeamWorkspace ws;
  const std::size_t aneed = apack_elems(blk) * static_cast<std::size_t>(nthreads);
  const std::size_t bneed = bpack_elems(blk);
  if (ws.a.size() < aneed) ws.a.resize(aneed);
  if (ws.b.size() < bneed) ws.b.resize(bneed);
  return ws;
}

// ---------------------------------------------------------------------------
// Drivers.  Decomposition: jc (nc) -> pc (kc, sequential: C accumulation
// order is fixed) -> ic (mc) -> jr/ir microkernels.  The threaded driver
// uses the *same* decomposition and packing contents; only the ownership of
// disjoint output tiles varies with the thread count, so its results are
// bit-identical to the serial driver's.
// ---------------------------------------------------------------------------

void gemm_driver_serial(int m, int n, int k, double alpha, const double* a,
                        int lda, bool ta, const double* b, int ldb, bool tb,
                        double* c, int ldc, const KernelOps& ops,
                        const GemmBlocking& blk) {
  PackBuffers& bufs = serial_buffers(blk);
  double* apack = bufs.a.data();
  double* bpack = bufs.b.data();

  for (int jc = 0; jc < n; jc += blk.nc) {
    const int nc = n - jc < blk.nc ? n - jc : blk.nc;
    for (int pc = 0; pc < k; pc += blk.kc) {
      const int kc = k - pc < blk.kc ? k - pc : blk.kc;
      ops.pack_b(kc, nc,
                 tb ? b + static_cast<std::size_t>(jc) * ldb + pc
                    : b + static_cast<std::size_t>(pc) * ldb + jc,
                 ldb, tb, bpack);
      for (int ic = 0; ic < m; ic += blk.mc) {
        const int mc = m - ic < blk.mc ? m - ic : blk.mc;
        ops.pack_a(mc, kc, alpha,
                   ta ? a + static_cast<std::size_t>(pc) * lda + ic
                      : a + static_cast<std::size_t>(ic) * lda + pc,
                   lda, ta, apack);
        ops.macro(mc, nc, kc, apack, bpack,
                  c + static_cast<std::size_t>(ic) * ldc + jc, ldc);
      }
    }
  }
}

void gemm_driver_threaded(int m, int n, int k, double alpha, const double* a,
                          int lda, bool ta, const double* b, int ldb, bool tb,
                          double* c, int ldc, const KernelOps& ops,
                          const GemmBlocking& blk, int nthreads) {
  TeamWorkspace& ws = team_buffers(nthreads, blk);
  double* apool = ws.a.data();
  double* bpack = ws.b.data();
  const std::size_t aslot = apack_elems(blk);
  const int mblocks = (m + blk.mc - 1) / blk.mc;
  // Shape-only mode split: with several MC macro-rows each thread owns whole
  // rows (private packed A); with a single one, A is packed cooperatively
  // into the shared slot and threads own NR column panels instead.
  const bool split_rows = mblocks > 1;

#pragma omp parallel num_threads(nthreads) default(shared)
  {
    double* apriv = apool + static_cast<std::size_t>(util::thread_id()) * aslot;
    for (int jc = 0; jc < n; jc += blk.nc) {
      const int nc = n - jc < blk.nc ? n - jc : blk.nc;
      for (int pc = 0; pc < k; pc += blk.kc) {
        const int kc = k - pc < blk.kc ? k - pc : blk.kc;
        const double* bsrc = tb ? b + static_cast<std::size_t>(jc) * ldb + pc
                                : b + static_cast<std::size_t>(pc) * ldb + jc;
        const double* asrc = ta ? a + static_cast<std::size_t>(pc) * lda
                                : a + pc;
        // Cooperative B pack, one NR panel per item: panels are disjoint
        // writes and NR-aligned sub-packs byte-match the full pack, so the
        // buffer contents never depend on the thread count.  The implicit
        // barrier publishes the panel to the whole team.
#pragma omp for schedule(static)
        for (int jr = 0; jr < nc; jr += ops.nr) {
          const int nr = nc - jr < ops.nr ? nc - jr : ops.nr;
          ops.pack_b(kc, nr,
                     tb ? bsrc + static_cast<std::size_t>(jr) * ldb : bsrc + jr,
                     ldb, tb, bpack + static_cast<std::size_t>(jr) * kc);
        }
        if (split_rows) {
#pragma omp for schedule(static)
          for (int icb = 0; icb < mblocks; ++icb) {
            const int ic = icb * blk.mc;
            const int mc = m - ic < blk.mc ? m - ic : blk.mc;
            ops.pack_a(mc, kc, alpha,
                       ta ? asrc + ic : asrc + static_cast<std::size_t>(ic) * lda,
                       lda, ta, apriv);
            ops.macro(mc, nc, kc, apriv, bpack,
                      c + static_cast<std::size_t>(ic) * ldc + jc, ldc);
          }
        } else {
          // Single MC block (m <= mc): pack it once, cooperatively, into
          // the shared slot (MR-aligned row sub-packs byte-match the full
          // pack), then split the column panels.
#pragma omp for schedule(static)
          for (int ir = 0; ir < m; ir += ops.mr) {
            const int mr = m - ir < ops.mr ? m - ir : ops.mr;
            ops.pack_a(mr, kc, alpha,
                       ta ? asrc + ir : asrc + static_cast<std::size_t>(ir) * lda,
                       lda, ta, apool + static_cast<std::size_t>(ir) * kc);
          }
#pragma omp for schedule(static)
          for (int jr = 0; jr < nc; jr += ops.nr) {
            const int nr = nc - jr < ops.nr ? nc - jr : ops.nr;
            ops.macro(m, nr, kc, apool,
                      bpack + static_cast<std::size_t>(jr) * kc,
                      c + jc + jr, ldc);
          }
        }
        // Implicit barrier of the last worksharing loop: every tile of this
        // (jc, pc) step lands before the next step repacks the shared panel.
      }
    }
  }
}

}  // namespace

void gemm_packed_serial(int m, int n, int k, double alpha, const double* a,
                        int lda, bool ta, const double* b, int ldb, bool tb,
                        double* c, int ldc) {
  if (m <= 0 || n <= 0 || k <= 0 || alpha == 0.0) return;
  const ActiveConfig& cfg = active();
  gemm_driver_serial(m, n, k, alpha, a, lda, ta, b, ldb, tb, c, ldc, *cfg.ops,
                     cfg.blk);
}

void gemm_packed(int m, int n, int k, double alpha, const double* a, int lda,
                 bool ta, const double* b, int ldb, bool tb, double* c,
                 int ldc) {
  if (m <= 0 || n <= 0 || k <= 0 || alpha == 0.0) return;
  const ActiveConfig& cfg = active();
  const int nthreads = util::max_threads();
  const long flops = 2L * m * n * k;
  // Nested callers (an active parallel region above us) already own the
  // fan-out; tiny products would pay more in fork/join than they compute.
  // Either way the serial driver produces identical bits, so this gate
  // affects speed only.
  if (nthreads <= 1 || flops < kGemmThreadFlops || util::in_parallel()) {
    gemm_driver_serial(m, n, k, alpha, a, lda, ta, b, ldb, tb, c, ldc,
                       *cfg.ops, cfg.blk);
    return;
  }
  gemm_driver_threaded(m, n, k, alpha, a, lda, ta, b, ldb, tb, c, ldc,
                       *cfg.ops, cfg.blk, nthreads);
}

void gemm_packed_with(const std::string& kernel, const GemmBlocking& blk,
                      int m, int n, int k, double alpha, const double* a,
                      int lda, bool ta, const double* b, int ldb, bool tb,
                      double* c, int ldc) {
  if (m <= 0 || n <= 0 || k <= 0 || alpha == 0.0) return;
  const KernelOps* ops = find_ops(kernel);
  if (ops == nullptr) ops = supported_ops().front();
  gemm_driver_serial(m, n, k, alpha, a, lda, ta, b, ldb, tb, c, ldc, *ops,
                     clamped(blk));
}

const char* gemm_kernel_name() { return active().ops->name; }

std::vector<std::string> supported_gemm_kernels() {
  std::vector<std::string> names;
  for (const KernelOps* ops : supported_ops()) names.emplace_back(ops->name);
  return names;
}

GemmBlocking gemm_blocking() { return active().blk; }

void set_gemm_blocking(const GemmBlocking& blk) { active().blk = clamped(blk); }

bool set_gemm_kernel(const std::string& name) {
  const KernelOps* ops = find_ops(name);
  if (ops == nullptr) return false;
  active().ops = ops;
  return true;
}

}  // namespace khss::la::detail
