// Runtime CPU-feature detection and kernel-table dispatch.
//
// Detection runs once (CPUID leaf 7 + XGETBV on x86-64, AT_HWCAP on
// aarch64) under a magic-static; the selected table is then a single
// acquire load per kernels() call. DPZ_FORCE_ISA (or set_force_isa,
// which the CLI's --isa flag calls) pins the choice; forcing an ISA the
// CPU or binary cannot execute throws InvalidArgument instead of
// crashing on an illegal instruction.
#include <atomic>
#include <cstdlib>

#include "obs/names.h"
#include "obs/trace.h"
#include "simd/kernel_tables.h"
#include "simd/simd.h"
#include "util/error.h"

#if defined(__x86_64__)
#include <cpuid.h>
#endif
#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#endif

namespace dpz::simd {

namespace {

#if defined(__x86_64__)
std::uint64_t xgetbv0() {
  std::uint32_t eax = 0;
  std::uint32_t edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0U));
  return (static_cast<std::uint64_t>(edx) << 32) | eax;
}
#endif

/// The table an ISA dispatches to, or null when this binary has no
/// implementation for it (e.g. NEON in an x86 build).
const KernelTable* table_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return &scalar_table();
    case Isa::kAvx2:
      return avx2_table();
    case Isa::kNeon:
      return neon_table();
  }
  return nullptr;
}

struct Dispatch {
  CpuFeatures features;           // CPU caps masked by the binary
  std::optional<Isa> env_forced;  // DPZ_FORCE_ISA at first use
  std::atomic<const KernelTable*> table{nullptr};
  std::atomic<std::uint8_t> isa{0};

  // Runs once under the magic-static; a throw (bad DPZ_FORCE_ISA value
  // or unsupported forced ISA) propagates to the caller and the next
  // kernels() call retries.
  Dispatch() {
    const obs::ScopedSpan span(obs::Span::kSimdDispatch);
    features = detect_cpu_features();
    // An ISA the binary cannot execute is indistinguishable from a CPU
    // that lacks it: mask it out before selection.
    if (avx2_table() == nullptr) features.avx2 = false;
    if (neon_table() == nullptr) features.neon = false;

    if (const char* env = std::getenv("DPZ_FORCE_ISA")) {
      const std::optional<Isa> parsed = parse_isa(env);
      if (!parsed.has_value())
        throw InvalidArgument(std::string("DPZ_FORCE_ISA: unknown ISA '") +
                              env + "' (want scalar, avx2, or neon)");
      env_forced = parsed;
    }
    const Isa selected = select_isa(features, env_forced);
    table.store(table_for(selected), std::memory_order_release);
    isa.store(static_cast<std::uint8_t>(selected),
              std::memory_order_release);
  }
};

Dispatch& dispatch_state() {
  static Dispatch d;
  return d;
}

}  // namespace

CpuFeatures detect_cpu_features() {
  CpuFeatures f;
#if defined(__x86_64__)
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0) {
    const bool osxsave = (ecx & (1U << 27)) != 0;
    const bool avx = (ecx & (1U << 28)) != 0;
    // YMM state must be OS-enabled (XCR0 bits 1 and 2) before any
    // 256-bit instruction is legal to issue.
    const bool ymm_enabled = osxsave && (xgetbv0() & 0x6U) == 0x6U;
    unsigned eax7 = 0;
    unsigned ebx7 = 0;
    unsigned ecx7 = 0;
    unsigned edx7 = 0;
    if (avx && ymm_enabled &&
        __get_cpuid_count(7, 0, &eax7, &ebx7, &ecx7, &edx7) != 0)
      f.avx2 = (ebx7 & (1U << 5)) != 0;
  }
#elif defined(__aarch64__)
#if defined(__linux__) && defined(HWCAP_ASIMD)
  f.neon = (getauxval(AT_HWCAP) & HWCAP_ASIMD) != 0;
#else
  f.neon = true;  // Advanced SIMD is architecturally mandatory
#endif
#endif
  return f;
}

Isa select_isa(const CpuFeatures& features, std::optional<Isa> forced) {
  if (forced.has_value()) {
    switch (*forced) {
      case Isa::kScalar:
        return Isa::kScalar;
      case Isa::kAvx2:
        if (!features.avx2)
          throw InvalidArgument(
              "forced ISA 'avx2' is not supported on this CPU/binary");
        return Isa::kAvx2;
      case Isa::kNeon:
        if (!features.neon)
          throw InvalidArgument(
              "forced ISA 'neon' is not supported on this CPU/binary");
        return Isa::kNeon;
    }
    throw InvalidArgument("forced ISA value is out of range");
  }
  if (features.avx2) return Isa::kAvx2;
  if (features.neon) return Isa::kNeon;
  return Isa::kScalar;
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

std::optional<Isa> parse_isa(const std::string& name) {
  if (name == "scalar") return Isa::kScalar;
  if (name == "avx2") return Isa::kAvx2;
  if (name == "neon") return Isa::kNeon;
  return std::nullopt;
}

std::vector<Isa> available_isas() {
  Dispatch& d = dispatch_state();
  std::vector<Isa> out{Isa::kScalar};
  if (d.features.avx2) out.push_back(Isa::kAvx2);
  if (d.features.neon) out.push_back(Isa::kNeon);
  return out;
}

Isa active_isa() {
  return static_cast<Isa>(
      dispatch_state().isa.load(std::memory_order_acquire));
}

void set_force_isa(std::optional<Isa> isa) {
  Dispatch& d = dispatch_state();
  // Validate (and resolve the effective choice) before publishing.
  const std::optional<Isa> effective =
      isa.has_value() ? isa : d.env_forced;
  const Isa selected = select_isa(d.features, effective);
  d.table.store(table_for(selected), std::memory_order_release);
  d.isa.store(static_cast<std::uint8_t>(selected),
              std::memory_order_release);
}

const KernelTable& kernels() {
  return *dispatch_state().table.load(std::memory_order_acquire);
}

const KernelTable& kernel_table(Isa isa) {
  Dispatch& d = dispatch_state();
  const Isa selected = select_isa(d.features, isa);
  return *table_for(selected);
}

}  // namespace dpz::simd
