// Internal: per-ISA kernel tables assembled by the kernel TUs.
//
// Each kernels_<isa>.cpp defines its table; an ISA that cannot be
// compiled on this target (e.g. NEON on x86) exposes a null pointer and
// dispatch treats it as unavailable. Only dispatch.cpp and the
// equivalence tests include this header.
#pragma once

#include "simd/simd.h"

namespace dpz::simd {

/// Always present.
const KernelTable& scalar_table();

/// The one implementation of KernelTable::dot_ordered_rows, shared by
/// every table: its chains are strictly serial, so there are no lanes
/// to vectorize, and defining it once in the scalar TU (built with
/// -ffp-contract=off) keeps aarch64 from contracting it to FMA.
void dot_ordered_rows_scalar(const double* a, std::size_t lda,
                             std::size_t rows, const double* y,
                             std::size_t begin, std::size_t end,
                             double* acc);

/// The scalar radix-3 and radix-5 stages (KernelTable::radix3_stage,
/// radix5_stage), which the NEON table shares: those stages are a small
/// share of an FFT, so only AVX2 carries its own.
void radix3_stage_scalar(double* a, std::size_t n, std::size_t len,
                         const double* w, bool conj);
void radix5_stage_scalar(double* a, std::size_t n, std::size_t len,
                         const double* w, bool conj);

/// Null when the TU was built without AVX2 support.
const KernelTable* avx2_table();

/// Null when the TU was built without NEON support.
const KernelTable* neon_table();

}  // namespace dpz::simd
