// Function-multiversioning guard shared by every SIMD kernel.
//
// TRIDENT_KERNEL_CLONES compiles a function once per ISA (AVX-512, AVX2,
// baseline SSE2) and lets the dynamic loader's ifunc resolver pick the best
// clone at load time, so one binary runs everywhere but uses the wide units
// where they exist.  Kernels that carry it must be bit-identical across the
// clones (strict FP: their translation units build with -ffp-contract=off).
//
// The clones exist on x86-64 GCC only, and are left out:
//   * under ThreadSanitizer — its interceptors run before the loader
//     resolves ifuncs, and the target_clones resolver then faults inside
//     libtsan;
//   * under TRIDENT_NO_KERNEL_CLONES (the -DTRIDENT_SIMD=OFF build), so CI
//     can prove the maths does not depend on the multiversioned clones.
// Where they are left out, every kernel compiles at the baseline ISA only;
// TRIDENT_HAVE_KERNEL_CLONES tells code that dispatches on CPU features by
// hand (the int8 vpmaddwd tier, the ISA names in the metrics) which case
// it is in.
#pragma once

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(TRIDENT_NO_KERNEL_CLONES)
#define TRIDENT_HAVE_KERNEL_CLONES 1
#define TRIDENT_KERNEL_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define TRIDENT_KERNEL_CLONES
#endif
