#pragma once
// Per-layer probes run inside the traced benchmark process: the host
// roofline (STREAM triad bandwidth and multiply-add peak, both on one
// thread, like the kernel probe they bound), the FD kernels on one rank's
// subdomain, and the halo exchange on a workload's decomposition.

#include <cstddef>

#include "common.hpp"
#include "grid/staggered_grid.hpp"

namespace perfbench {

struct KernelProbeSpec {
  awp::grid::GridDims global;  // the workload's global grid
  int ranks = 4;               // its decomposition (probe uses rank 0)
  double h = 1000.0;
  bool attenuation = false;
};

// Roofline probes. Triad arrays are each >= 4x the summed last-level cache
// unless `smoke` asks for the reduced size; the sizes used are reported.
void probeHost(Result& out, bool smoke);

// updateVelocity/updateStress on one thread over rank 0's subdomain; the
// grid state is restored before every repetition. Also reports computed
// flops/bytes per cell and the fraction of the host roofline reached
// (needs host.triad_gbs and host.fma_gflops in `out` already).
void probeKernels(Result& out, const KernelProbeSpec& spec, bool smoke);

// HaloExchanger velocity + stress exchanges timed alone on the
// decomposition, one exchange pair per step.
void probeHalo(Result& out, const KernelProbeSpec& spec, bool smoke);

}  // namespace perfbench
