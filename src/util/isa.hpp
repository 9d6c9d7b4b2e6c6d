#pragma once
// ISA tiers shared by the hand-vectorized kernels (the packed GEMM core in
// la/gemm_kernel.cpp, the kernel-tile transform in kernel/kernel_tile.cpp
// and the Householder sweeps in la/qr.cpp).
//
// Each vectorized variant is an ordinary function carrying a target
// attribute, so the library itself builds for the baseline ISA and the
// variant is picked once per process from the CPU the code runs on
// (__builtin_cpu_supports) — never from shapes, thread counts or settings.

#if defined(__GNUC__)
#define KHSS_ALWAYS_INLINE inline __attribute__((always_inline))
// Starts a function on a 64-byte boundary.  Put it on every function that
// holds a hot loop, so that an edit elsewhere in the binary, which moves
// the function, cannot change how its loop lines up with cache lines and
// fetch blocks, and with it the loop's speed.
#define KHSS_ALIGN_HOT __attribute__((aligned(64)))
#else
#define KHSS_ALWAYS_INLINE inline
#define KHSS_ALIGN_HOT
#endif

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define KHSS_ISA_MULTIVERSION 1
#define KHSS_TGT_AVX2 __attribute__((target("avx2,fma")))
#define KHSS_TGT_AVX512 __attribute__((target("avx512f,avx512vl,avx512dq")))
// AVX2 without FMA, for kernels that must compute the baseline ISA's bits:
// in C++ GCC contracts a * b + c into an FMA by default wherever the target
// has one, so this target leaves it out.
#define KHSS_TGT_AVX2_NOFMA __attribute__((target("avx2")))
#endif

namespace khss::util {

/// True when the host runs AVX2 and FMA code (and the toolchain can emit it).
inline bool cpu_has_avx2() {
#if defined(KHSS_ISA_MULTIVERSION)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

/// True when the host runs the AVX-512 F/VL/DQ subset the kernels use.
inline bool cpu_has_avx512() {
#if defined(KHSS_ISA_MULTIVERSION)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512dq");
#else
  return false;
#endif
}

}  // namespace khss::util
