#pragma once
// Scoped floating-point mode for the wavefield update (DESIGN.md §16).
//
// Fields ahead of a wavefront decay through the subnormal range, and on
// x86-64 every SSE/AVX op that reads or produces a subnormal takes a
// microcode assist. ScopedFlushDenormals sets flush-to-zero (FTZ, MXCSR
// bit 15) and denormals-are-zero (DAZ, bit 6) for its lifetime and puts
// the caller's control bits back on exit, also when an exception unwinds.
// On other targets every function here is a no-op and the arithmetic stays
// IEEE gradual underflow.
//
// The MXCSR accesses are volatile asm with a memory clobber, so loads and
// stores stay on their side of a mode switch. Arithmetic on values held
// only in registers can still be scheduled across it (GCC does not order
// FP arithmetic against ldmxcsr), so a scope should enclose out-of-line
// calls that read and write the fields, not inline expressions.

#include <cstdint>

namespace awp {

// MXCSR bits 6..15: DAZ, the six exception masks, rounding, FTZ. Bits 0..5
// are the sticky exception flags, which a mode switch leaves alone.
inline constexpr std::uint32_t kFpControlMask = 0xFFC0u;
inline constexpr std::uint32_t kFlushDenormalBits = (1u << 15) | (1u << 6);

// The calling thread's FP control bits (0 on targets without MXCSR).
inline std::uint32_t fpControl() {
#if defined(__x86_64__)
  std::uint32_t csr = 0;
  asm volatile("stmxcsr %0" : "=m"(csr) : : "memory");
  return csr & kFpControlMask;
#else
  return 0;
#endif
}

// Replace the calling thread's FP control bits; the sticky flags stay.
inline void setFpControl(std::uint32_t control) {
#if defined(__x86_64__)
  std::uint32_t csr = 0;
  asm volatile("stmxcsr %0" : "=m"(csr) : : "memory");
  csr = (csr & ~kFpControlMask) | (control & kFpControlMask);
  asm volatile("ldmxcsr %0" : : "m"(csr) : "memory");
#else
  (void)control;
#endif
}

// Runs its scope with the given control bits, then restores the caller's.
class ScopedFpControl {
 public:
  explicit ScopedFpControl(std::uint32_t control) : saved_(fpControl()) {
    setFpControl(control);
  }
  ~ScopedFpControl() { setFpControl(saved_); }

  ScopedFpControl(const ScopedFpControl&) = delete;
  ScopedFpControl& operator=(const ScopedFpControl&) = delete;

 private:
  std::uint32_t saved_;
};

// Runs its scope with FTZ and DAZ added to the caller's control bits.
class ScopedFlushDenormals : public ScopedFpControl {
 public:
  ScopedFlushDenormals() : ScopedFpControl(fpControl() | kFlushDenormalBits) {}
};

}  // namespace awp
