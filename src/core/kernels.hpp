#pragma once
// The AWP-ODC finite-difference kernels: 4th-order-in-space, 2nd-order-in-
// time velocity–stress updates on the staggered grid (§II.B), including
// the coarse-grained memory-variable attenuation (§II.A). Two kernels:
//   * production (core::updateVelocity/updateStress) — vectorizable rows
//     over raw pointers with stored 1/μ ("only the reciprocal form is used
//     in frequently invoked subroutines", §IV.B), behind one bounds check
//     per call;
//   * reference (core::reference) — the scalar accessor-based rows, with
//     every access bounds-asserted. It is the bit-exactness oracle for the
//     production rows and keeps the pre-v6.0 per-use divisions (1/μ
//     recomputed at every point) for the §IV.B reciprocal measurement.
// Both honor the §IV.B kblock/jblock tiling and the §IV.D hybrid pool, and
// produce bit-identical fields.
//
// Staggering convention (h = grid spacing):
//   xx, yy, zz at (i, j, k);  u at (i-1/2, j, k);  v at (i, j+1/2, k);
//   w at (i, j, k+1/2);  xy at (i-1/2, j+1/2, k);  xz at (i-1/2, j, k+1/2);
//   yz at (i, j+1/2, k+1/2).

#include "grid/staggered_grid.hpp"
#include "util/thread_pool.hpp"

namespace awp::core {

struct KernelOptions {
  bool useReciprocals = true;
  bool cacheBlocked = false;
  // "For a typical loop length of 125, the optimal solution was found to
  // be 16/8" (§IV.B).
  int kblock = 16;
  int jblock = 8;
  // §IV.D hybrid mode: when set, the k loop is split across the pool's
  // threads ("multiple OpenMP threads, spawned from a single MPI process,
  // directly access shared memory within a node"). Non-owning.
  ThreadPool* pool = nullptr;
};

// Raw-index update region (half-open). Defaults to the full interior.
struct Region {
  std::size_t i0, i1, j0, j1, k0, k1;
  static Region interior(const grid::StaggeredGrid& g) {
    return Region{grid::kHalo, grid::kHalo + g.dims().nx,
                  grid::kHalo, grid::kHalo + g.dims().ny,
                  grid::kHalo, grid::kHalo + g.dims().nz};
  }
};

enum class VelocityComponent { U = 0, V, W };
enum class StressGroup { Normal = 0, XY, XZ, YZ };

// Update one velocity component over a region from the current stresses.
// Throws awp::Error when the region plus the 2-cell stencil reach leaves
// the grid's raw arrays (so does updateStress).
void updateVelocity(grid::StaggeredGrid& g, VelocityComponent comp,
                    const KernelOptions& opts, const Region& r);
// All three components over the full interior.
void updateVelocity(grid::StaggeredGrid& g, const KernelOptions& opts);

// Update one stress group over a region from the current velocities. With
// useReciprocals off the rows are the reference kernel's (the per-use
// division arithmetic exists only there).
void updateStress(grid::StaggeredGrid& g, StressGroup group,
                  const KernelOptions& opts, const Region& r);
// All stress components over the full interior.
void updateStress(grid::StaggeredGrid& g, const KernelOptions& opts);

namespace reference {
// The scalar reference kernel: same signatures and results, accessor-based
// rows. Tests compare the production kernel against it bit for bit, and
// bench_kernels measures the §IV.B reciprocal gain on it.
void updateVelocity(grid::StaggeredGrid& g, VelocityComponent comp,
                    const KernelOptions& opts, const Region& r);
void updateStress(grid::StaggeredGrid& g, StressGroup group,
                  const KernelOptions& opts, const Region& r);
}  // namespace reference

// Useful-flop estimates per interior grid point per full time step, for
// sustained-performance accounting (§V.B).
double velocityFlopsPerPoint();
double stressFlopsPerPoint(bool attenuation);
double flopsPerPointPerStep(bool attenuation);

}  // namespace awp::core
