#pragma once
// Packed, register-tiled GEMM core (DESIGN.md "Compute core").
//
// This is the cache-blocked replacement for the naive triple-loop kernels:
// a BLIS-style MR x NR register microkernel under KC/MC/NC cache blocking
// with A/B packing buffers.  Two entry points on raw row-major buffers with
// explicit leading dimensions:
//
//   gemm_packed_serial  strictly serial — for callers that already fanned
//                       work out over their own threads (blocked TRSM panel
//                       loops, per-node hierarchical blocks inside tasks).
//   gemm_packed         threads *inside* the blocked driver when the caller
//                       is not itself inside an active parallel region and
//                       the product is large enough; otherwise identical to
//                       the serial entry.  The macro-tile decomposition is
//                       fixed by the shape and the active blocking alone —
//                       each output tile is computed by exactly one thread
//                       with the same per-tile accumulation order the serial
//                       driver uses — so results are bit-identical to the
//                       serial entry for every thread count.
//
// The microkernel/packing routines are compiled per ISA tier when the
// toolchain supports function target attributes: a baseline version, an
// AVX2+FMA 4x8 tile, and AVX-512 8x16 / 6x16 tiles, one variant picked once
// at startup via __builtin_cpu_supports.  Dispatch depends only on the host
// CPU (plus an explicit config override), never on shapes or thread counts,
// so run-to-run determinism on one machine is unaffected.
//
// Blocking (KC/MC/NC) is a runtime parameter resolved once per process from
// the pinned defaults below, the KHSS_GEMM_BLOCKING env override, or the
// autotuner cache file (see gemm_tune.hpp for the resolution order).

#include <string>
#include <vector>

namespace khss::la::detail {

// Pinned default blocking (see DESIGN.md "Compute core" for the re-tuning
// recipe).  The register tile MR x NR is a property of the selected kernel
// variant, not of the blocking: MR*NR accumulators must fit the vector
// register file with room for one B row and an A broadcast.  kKC sizes the
// packed A/B panel depth, kMC bounds the packed A block (kMC x kKC ~
// L2-resident), kNC bounds the packed B panel width (kKC x kNC).
inline constexpr int kMR = 4;  // baseline/AVX2 register tile (AVX-512: 8x16)
inline constexpr int kNR = 8;
inline constexpr int kKC = 256;
inline constexpr int kMC = 128;
inline constexpr int kNC = 256;

/// gemm() skips packing when op(B) holds at most this many entries (n*k,
/// leaf-sized blocks).  The cutoff deliberately ignores the row count m:
/// per-row results of both paths are independent of the rows they share a
/// call with, so a shape-only, m-free dispatch keeps gemm() bit-identical
/// under any row split — the serving path's panel/batch invariance contract
/// rides on this.
inline constexpr long kSmallGemmOps = 1024;

/// gemm_packed() threads internally only when 2*m*n*k reaches this many
/// flops; below it the fork/join overhead dominates.  The threshold is a
/// constant, so the threaded/serial choice is shape-only — and the two
/// paths produce identical bits anyway, so the choice is invisible.
inline constexpr long kGemmThreadFlops = 1L << 21;

/// Cache-blocking parameters of the packed driver, clamped to sane ranges
/// when installed (see set_gemm_blocking).
struct GemmBlocking {
  int kc = kKC;
  int mc = kMC;
  int nc = kNC;
};

/// C(m x n, ldc) += alpha * op(A) * op(B), serial, packed.
/// A stores op(A)'s source with leading dimension lda: element (i, p) of
/// op(A) is a[i*lda + p] when ta == false and a[p*lda + i] when ta == true
/// (same convention for B with tb).  Callers handle beta by pre-scaling C.
void gemm_packed_serial(int m, int n, int k, double alpha, const double* a,
                        int lda, bool ta, const double* b, int ldb, bool tb,
                        double* c, int ldc);

/// Same contract as gemm_packed_serial, bit-identical results, but threads
/// over MC macro-rows (or NR column panels when only one MC block exists)
/// of the fixed blocked decomposition when the caller is not inside an
/// active parallel region and the product is large enough.  Shared packed-B
/// panels are built cooperatively; each thread packs A into its own buffer.
void gemm_packed(int m, int n, int k, double alpha, const double* a, int lda,
                 bool ta, const double* b, int ldb, bool tb, double* c,
                 int ldc);

/// Tuning-only entry: run the serial driver with an explicit kernel variant
/// and blocking, bypassing the resolved process-wide configuration (the
/// autotuner sweeps candidates through this without touching — or waiting
/// on — the lazily-initialized active config).  Unknown/unsupported kernel
/// names fall back to the best supported variant.
void gemm_packed_with(const std::string& kernel, const GemmBlocking& blk,
                      int m, int n, int k, double alpha, const double* a,
                      int lda, bool ta, const double* b, int ldb, bool tb,
                      double* c, int ldc);

/// Name of the active kernel variant: "avx512-8x16", "avx512-6x16",
/// "avx2-4x8" or "generic-4x8".
const char* gemm_kernel_name();

/// Kernel variant names this host can run, best first (autotuner domain).
std::vector<std::string> supported_gemm_kernels();

/// Active blocking after resolution (triggers resolution on first call).
GemmBlocking gemm_blocking();

/// Install a blocking override (test hook + config resolution).  Values are
/// clamped to [8, 4096].  Changing the blocking changes which decomposition
/// the packed driver uses — results stay bit-identical across thread counts
/// *within* one blocking, not across different blockings.  Not thread-safe;
/// call before spinning up concurrent GEMM users.
void set_gemm_blocking(const GemmBlocking& blk);

/// Install a kernel variant by name; returns false (and changes nothing)
/// when the name is unknown or unsupported on this host.  Same caveats as
/// set_gemm_blocking.
bool set_gemm_kernel(const std::string& name);

}  // namespace khss::la::detail
