#include "cycle/kernel.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>

#include "util/error.hpp"

namespace awp::cycle {

StiffnessKernel::StiffnessKernel(const KernelConfig& config)
    : config_(config) {
  AWP_CHECK(config_.nx > 0 && config_.nz > 0);
  AWP_CHECK(config_.cell > 0.0 && config_.mu > 0.0);
  AWP_CHECK(config_.loadingFactor > 0.0 && config_.interaction >= 0.0);
  AWP_CHECK(config_.radius >= 0);
  kLoad_ = config_.loadingFactor * config_.mu / config_.cell;

  const int r = config_.radius;
  for (int dk = -r; dk <= r; ++dk)
    for (int di = -r; di <= r; ++di) {
      if (di == 0 && dk == 0) continue;
      const double d2 = static_cast<double>(di * di + dk * dk);
      if (d2 > static_cast<double>(r * r)) continue;
      const double dist = config_.cell * std::sqrt(d2);
      const double w = config_.interaction * config_.mu * config_.cell *
                       config_.cell / (dist * dist * dist);
      taps_.push_back({di, dk, w});
    }

  // Per-node self term: −(kLoad + in-bounds off-diagonal row sum). Row
  // sums shrink at the fault edges exactly as the in-bounds taps do, so
  // the uniform-slip mode unloads through kLoad at every node.
  const auto nx = static_cast<int>(config_.nx);
  const auto nz = static_cast<int>(config_.nz);
  self_.assign(config_.nx * config_.nz, 0.0);
  for (int k = 0; k < nz; ++k)
    for (int i = 0; i < nx; ++i) {
      double row = 0.0;
      for (const Tap& tap : taps_) {
        const int si = i + tap.di;
        const int sk = k + tap.dk;
        if (si < 0 || si >= nx || sk < 0 || sk >= nz) continue;
        row += tap.w;
      }
      self_[static_cast<std::size_t>(i + nx * k)] = -(kLoad_ + row);
    }
}

AWP_HOT void StiffnessKernel::stressingRate(const std::vector<double>& v,
                                            double vpl,
                                            std::vector<double>& out) const {
  const auto nx = static_cast<std::ptrdiff_t>(config_.nx);
  const auto nz = static_cast<std::ptrdiff_t>(config_.nz);
  assert(v.size() == self_.size() && out.size() == self_.size());
  assert(v.data() != out.data());
  const double* vp = v.data();
  double* op = out.data();
  for (std::size_t n = 0; n < self_.size(); ++n)
    op[n] = self_[n] * (vp[n] - vpl);
  // Tap-major: every node still adds its in-bounds taps in taps_ order, so
  // each sum is bit-identical to a node-at-a-time loop, while the inner
  // loop runs over one contiguous strike row of in-bounds nodes.
  for (const Tap& tap : taps_) {
    const std::ptrdiff_t i0 = std::max<std::ptrdiff_t>(0, -tap.di);
    const std::ptrdiff_t len = std::min(nx, nx - tap.di) - i0;
    if (len <= 0) continue;
    const std::ptrdiff_t k0 = std::max<std::ptrdiff_t>(0, -tap.dk);
    const std::ptrdiff_t k1 = std::min(nz, nz - tap.dk);
    const double w = tap.w;
    for (std::ptrdiff_t k = k0; k < k1; ++k) {
      double* row = op + nx * k + i0;
      const double* src = vp + nx * (k + tap.dk) + i0 + tap.di;
#pragma GCC ivdep
      for (std::ptrdiff_t i = 0; i < len; ++i) row[i] += w * (src[i] - vpl);
    }
  }
}

}  // namespace awp::cycle
