// Physics and parallel-correctness tests for the AWM wave solver: wave
// speeds, radiation symmetry, free surface, absorbing boundaries,
// attenuation, kernel-variant equivalence, bit-equivalence of the
// production kernel with the scalar reference kernel, decomposition
// invariance, and checkpoint/restart.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <optional>
#include <random>
#include <span>

#include "core/kernels.hpp"
#include "core/solver.hpp"
#include "util/fp_mode.hpp"
#include "util/thread_pool.hpp"
#include "vcluster/cluster.hpp"

namespace awp::core {
namespace {

using grid::kHalo;
using vcluster::CartTopology;
using vcluster::Dims3;
using vcluster::ThreadCluster;

vmodel::Material rock() { return {5196.0f, 3000.0f, 2700.0f}; }

SolverConfig baseConfig(std::size_t n = 32) {
  SolverConfig c;
  c.globalDims = {n, n, n};
  c.h = 100.0;
  c.absorbing = AbsorbingType::Sponge;
  c.spongeWidth = 8;
  return c;
}

// Run a single-rank solver with an explosion at the center and return the
// gathered traces at the requested surface receivers.
std::vector<SeismogramTrace> runExplosion(
    const SolverConfig& config, Dims3 dims, std::size_t steps,
    const std::vector<std::pair<std::size_t, std::size_t>>& receivers,
    double f0 = 4.0) {
  std::vector<SeismogramTrace> out;
  ThreadCluster::run(dims.total(), [&](vcluster::Communicator& comm) {
    CartTopology topo(dims);
    WaveSolver solver(comm, topo, config, rock());
    const auto n = config.globalDims.nx;
    const double dt = solver.config().dt;
    solver.addSource(explosionPointSource(
        n / 2, n / 2, config.globalDims.nz / 2,
        rickerWavelet(f0, 1.5 / f0, dt, steps, 1e16)));
    int r = 0;
    for (auto [gi, gj] : receivers)
      solver.addReceiver("r" + std::to_string(r++), gi, gj);
    solver.run(steps);
    auto traces = solver.receivers().gather(comm);
    if (comm.rank() == 0) out = std::move(traces);
  });
  return out;
}

TEST(SourceHelpers, RickerPeaksAtDelay) {
  const auto w = rickerWavelet(2.0, 0.5, 0.01, 200);
  std::size_t peak = 0;
  for (std::size_t i = 0; i < w.size(); ++i)
    if (w[i] > w[peak]) peak = i;
  EXPECT_NEAR(static_cast<double>(peak) * 0.01, 0.5, 0.011);
}

TEST(SourceHelpers, MomentMagnitude) {
  // "a total seismic moment of 1.0e21 Nm (Mw = 8.0)" (§VII.A).
  EXPECT_NEAR(momentMagnitude(1.0e21), 8.0, 0.04);
  EXPECT_NEAR(momentMagnitude(1.12e20), 7.33, 0.05);
}

TEST(Solver, AutoDtSatisfiesCfl) {
  ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{1, 1, 1});
    WaveSolver solver(comm, topo, baseConfig(16), rock());
    const double dt = solver.config().dt;
    EXPECT_NEAR(dt, 0.45 * 100.0 / 5196.0, 1e-6);
  });
}

TEST(Solver, PWaveArrivesAtTheRightTime) {
  // Explosion at the center of a 48^3 box; receiver on the surface right
  // above. The first P arrival should be near r / vp.
  auto config = baseConfig(48);
  const std::size_t steps = 260;
  const auto traces =
      runExplosion(config, Dims3{1, 1, 1}, steps, {{24, 24}}, 5.0);
  ASSERT_EQ(traces.size(), 1u);
  const auto& w = traces[0].w;

  // First time |w| exceeds 5% of its peak.
  float peak = 0.0f;
  for (float v : w) peak = std::max(peak, std::abs(v));
  ASSERT_GT(peak, 0.0f);
  std::size_t first = 0;
  while (first < w.size() && std::abs(w[first]) < 0.05f * peak) ++first;

  const double dt = 0.45 * 100.0 / 5196.0;
  const double distance = 23.5 * 100.0;  // center to surface plane
  const double expected = distance / 5196.0 + 0.15;  // + source onset ramp
  const double measured = static_cast<double>(first) * dt;
  EXPECT_NEAR(measured, expected, 0.15);
}

TEST(Solver, ExplosionRadiationIsSymmetric) {
  // The interior operator is exactly mirror-symmetric (the asymmetry of a
  // truncated staggered lattice only enters through the boundaries), so an
  // explosion at the center of an odd grid must radiate bitwise-
  // symmetrically as long as no wave has touched a boundary. Mirror pairs
  // respect the staggering: w sits at integer (i, j) and mirrors cell-to-
  // cell about i = 16; u sits at i - 1/2, so the mirror of node i = 10
  // (x = 9.5) is node i = 23 (x = 22.5); same for v in y (j = 10 -> 21).
  ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{1, 1, 1});
    auto config = baseConfig(33);
    config.absorbing = AbsorbingType::None;
    config.freeSurface = false;
    WaveSolver solver(comm, topo, config, rock());
    const double dt = solver.config().dt;
    // Emission finishes by ~step 50; the wavefront needs ~36 steps from
    // the source to a face, so nothing reaches a boundary within 60 steps.
    solver.addSource(explosionPointSource(
        16, 16, 16, rickerWavelet(6.0, 0.25, dt, 60, 1e16)));
    bool sawSignal = false;
    for (int n = 0; n < 45; ++n) {
      solver.step();
      auto& g = solver.grid();
      const std::size_t K = kHalo + 16;
      ASSERT_EQ(g.w(kHalo + 10, kHalo + 16, K),
                g.w(kHalo + 22, kHalo + 16, K));
      ASSERT_EQ(g.u(kHalo + 10, kHalo + 16, K),
                -g.u(kHalo + 23, kHalo + 16, K));
      ASSERT_EQ(g.w(kHalo + 16, kHalo + 10, K),
                g.w(kHalo + 16, kHalo + 22, K));
      ASSERT_EQ(g.v(kHalo + 16, kHalo + 10, K),
                -g.v(kHalo + 16, kHalo + 21, K));
      if (std::abs(g.w(kHalo + 10, kHalo + 16, K)) > 0.0f)
        sawSignal = true;
    }
    EXPECT_TRUE(sawSignal);
  });
}

TEST(Solver, FreeSurfaceKeepsTractionImagesExact) {
  ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{1, 1, 1});
    auto config = baseConfig(24);
    WaveSolver solver(comm, topo, config, rock());
    const double dt = solver.config().dt;
    solver.addSource(explosionPointSource(
        12, 12, 12, rickerWavelet(4.0, 0.4, dt, 100, 1e15)));
    solver.run(100);
    auto& g = solver.grid();
    const std::size_t T = kHalo + g.dims().nz - 1;
    for (std::size_t j = kHalo; j < kHalo + g.dims().ny; ++j)
      for (std::size_t i = kHalo; i < kHalo + g.dims().nx; ++i) {
        ASSERT_EQ(g.xz(i, j, T), 0.0f);
        ASSERT_EQ(g.yz(i, j, T), 0.0f);
        ASSERT_EQ(g.zz(i, j, T + 1), -g.zz(i, j, T));
      }
  });
}

TEST(Solver, SurfaceMotionIsNonZeroWithFreeSurface) {
  auto config = baseConfig(32);
  const auto traces = runExplosion(config, Dims3{1, 1, 1}, 160, {{16, 16}});
  float peak = 0.0f;
  for (float v : traces[0].w) peak = std::max(peak, std::abs(v));
  EXPECT_GT(peak, 0.0f);
}

double residualEnergyAfterExit(AbsorbingType type, int width) {
  // Deep source so the wavefront hits the sides and bottom; run long
  // enough for everything to leave a 32^3 box, then measure what's left.
  double residual = 0.0, peak = 0.0;
  ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{1, 1, 1});
    auto config = baseConfig(32);
    config.absorbing = type;
    config.spongeWidth = width;
    config.pml.width = width;
    WaveSolver solver(comm, topo, config, rock());
    const double dt = solver.config().dt;
    solver.addSource(explosionPointSource(
        16, 16, 16, rickerWavelet(5.0, 0.3, dt, 60, 1e15)));
    for (int s = 0; s < 400; ++s) {
      solver.step();
      peak = std::max(peak, solver.grid().kineticEnergy());
    }
    residual = solver.grid().kineticEnergy();
  });
  return residual / peak;
}

TEST(Absorbing, SpongeDrainsEnergy) {
  const double none = residualEnergyAfterExit(AbsorbingType::None, 0);
  const double sponge = residualEnergyAfterExit(AbsorbingType::Sponge, 8);
  EXPECT_LT(sponge, 0.05);
  EXPECT_LT(sponge, none * 0.5);
}

TEST(Absorbing, PmlAbsorbsBetterThanSponge) {
  // §II.D: "the ability of the sponge layers to absorb reflections is
  // poorer than PMLs".
  const double sponge = residualEnergyAfterExit(AbsorbingType::Sponge, 8);
  const double pml = residualEnergyAfterExit(AbsorbingType::Pml, 8);
  EXPECT_LT(pml, sponge);
  EXPECT_LT(pml, 0.02);
}

TEST(Attenuation, LowQReducesAmplitude) {
  auto runWithQ = [&](bool attenuation, double q) {
    float peak = 0.0f;
    ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
      CartTopology topo(Dims3{1, 1, 1});
      auto config = baseConfig(40);
      config.attenuation.enabled = attenuation;
      config.attenuation.fMin = 0.5;
      config.attenuation.fMax = 10.0;
      WaveSolver solver(comm, topo, config, rock());
      if (attenuation) {
        solver.grid().qsInv.fill(static_cast<float>(2.0 / q));
        solver.grid().qpInv.fill(static_cast<float>(2.0 / q));
      }
      const double dt = solver.config().dt;
      solver.addSource(explosionPointSource(
          20, 20, 8, rickerWavelet(5.0, 0.3, dt, 80, 1e15)));
      solver.addReceiver("top", 20, 20);
      solver.run(250);
      const auto traces = solver.receivers().gather(comm);
      if (comm.rank() == 0)
        for (float v : traces[0].w) peak = std::max(peak, std::abs(v));
    });
    return peak;
  };
  const float elastic = runWithQ(false, 0.0);
  const float q10 = runWithQ(true, 10.0);
  const float q50 = runWithQ(true, 50.0);
  ASSERT_GT(elastic, 0.0f);
  // Attenuation reduces amplitude, more so for lower Q.
  EXPECT_LT(q10, 0.9f * elastic);
  EXPECT_LT(q10, q50);
  // Sanity: Q=10 over ~3.1 km at ~5 Hz with vp ~5.2 km/s predicts roughly
  // exp(-pi f r / (Q c)) ~ 0.4; allow a generous band for the
  // coarse-grained scheme.
  EXPECT_GT(q10, 0.15f * elastic);
  EXPECT_LT(q10, 0.8f * elastic);
}

TEST(Attenuation, FlushToZeroKeepsSurfacePgv) {
  // Pinned to the build whose wavefield update ran IEEE gradual underflow
  // (DESIGN.md §16): an attenuated explosion on 2x2 ranks, read through
  // the gathered PGV-H map. Tolerance 1e-6 relative, about 16 float32
  // ulps: the flush perturbs only values under FLT_MIN ahead of the
  // wavefront, so a larger move is a real change. The flush left the peak
  // unchanged and moved the map norm by 2.4e-9 relative
  // (0.026402261897140723 before).
  double peak = 0.0, norm = 0.0;
  ThreadCluster::run(4, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{2, 2, 1});
    auto config = baseConfig(48);
    config.attenuation.enabled = true;
    config.attenuation.fMin = 0.5;
    config.attenuation.fMax = 10.0;
    WaveSolver solver(comm, topo, config, rock());
    solver.addSource(explosionPointSource(
        11, 13, 12, rickerWavelet(5.0, 0.3, solver.config().dt, 80, 1e15)));
    solver.run(120);
    const auto map = solver.surface().gatherPgvh(comm, topo);
    if (comm.rank() != 0) return;
    for (float v : map) {
      peak = std::max(peak, static_cast<double>(v));
      norm += static_cast<double>(v) * v;
    }
    norm = std::sqrt(norm);
  });
  const double wantPeak = 0.0012542317854240537;
  const double wantNorm = 0.026402261897140723;
  EXPECT_NEAR(peak, wantPeak, 1e-6 * wantPeak);
  EXPECT_NEAR(norm, wantNorm, 1e-6 * wantNorm);
}

TEST(Kernels, VariantsAgree) {
  // All §IV.B variants must produce the same physics.
  auto runVariant = [&](bool recip, bool blocked) {
    std::vector<float> result;
    ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
      CartTopology topo(Dims3{1, 1, 1});
      auto config = baseConfig(24);
      config.kernels.useReciprocals = recip;
      config.kernels.cacheBlocked = blocked;
      WaveSolver solver(comm, topo, config, rock());
      const double dt = solver.config().dt;
      solver.addSource(explosionPointSource(
          12, 12, 12, rickerWavelet(4.0, 0.4, dt, 60, 1e15)));
      solver.run(60);
      const auto& u = solver.grid().u;
      result.assign(u.data(), u.data() + u.size());
    });
    return result;
  };
  const auto reference = runVariant(true, false);
  float refPeak = 0.0f;
  for (float v : reference) refPeak = std::max(refPeak, std::abs(v));
  ASSERT_GT(refPeak, 0.0f);

  for (auto [recip, blocked] :
       {std::array<bool, 2>{false, false}, {true, true}}) {
    const auto got = runVariant(recip, blocked);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t n = 0; n < got.size(); ++n)
      ASSERT_NEAR(got[n], reference[n], 1e-5f * refPeak)
          << "variant recip=" << recip << " blocked=" << blocked;
  }
}

// --- Production kernel vs the scalar reference kernel -----------------------
// Every field of the production kernel's output must equal the reference
// kernel's byte for byte (memcmp, no tolerance), on randomized fields and
// materials, including the halo cells the stencils read.

grid::StaggeredGrid randomGrid(grid::GridDims dims, bool attenuation,
                               unsigned seed) {
  grid::AttenuationConfig q;
  q.enabled = attenuation;
  grid::StaggeredGrid g(dims, 100.0, 0.005, q);
  std::mt19937 rng(seed);
  auto fill = [&](Array3f& f, float lo, float hi) {
    std::uniform_real_distribution<float> dist(lo, hi);
    for (float& x : f) x = dist(rng);
  };
  for (Array3f* f : {&g.u, &g.v, &g.w}) fill(*f, -1.0f, 1.0f);
  for (Array3f* f : {&g.xx, &g.yy, &g.zz, &g.xy, &g.xz, &g.yz})
    fill(*f, -1e6f, 1e6f);
  fill(g.rho, 1500.0f, 3000.0f);
  fill(g.lam, 1e9f, 3e10f);
  fill(g.mu, 1e9f, 3e10f);
  for (std::size_t n = 0; n < g.mu.size(); ++n)
    g.mui.data()[n] = 1.0f / g.mu.data()[n];
  if (attenuation) {
    for (Array3f* f : {&g.rxx, &g.ryy, &g.rzz, &g.rxy, &g.rxz, &g.ryz})
      fill(*f, -1e3f, 1e3f);
    fill(g.tauSigma, 0.01f, 1.0f);
    fill(g.qpInv, 0.0f, 0.1f);
    fill(g.qsInv, 0.0f, 0.1f);
  }
  return g;
}

// memcmp of every field either kernel may write.
void expectBitIdentical(const grid::StaggeredGrid& got,
                        const grid::StaggeredGrid& want,
                        const std::string& what) {
  const std::pair<const char*, Array3f grid::StaggeredGrid::*> fields[] = {
      {"u", &grid::StaggeredGrid::u},     {"v", &grid::StaggeredGrid::v},
      {"w", &grid::StaggeredGrid::w},     {"xx", &grid::StaggeredGrid::xx},
      {"yy", &grid::StaggeredGrid::yy},   {"zz", &grid::StaggeredGrid::zz},
      {"xy", &grid::StaggeredGrid::xy},   {"xz", &grid::StaggeredGrid::xz},
      {"yz", &grid::StaggeredGrid::yz},   {"rxx", &grid::StaggeredGrid::rxx},
      {"ryy", &grid::StaggeredGrid::ryy}, {"rzz", &grid::StaggeredGrid::rzz},
      {"rxy", &grid::StaggeredGrid::rxy}, {"rxz", &grid::StaggeredGrid::rxz},
      {"ryz", &grid::StaggeredGrid::ryz}};
  for (const auto& [name, member] : fields) {
    const Array3f& a = got.*member;
    const Array3f& b = want.*member;
    ASSERT_EQ(a.size(), b.size()) << what << " field " << name;
    if (a.empty()) continue;  // attenuation off: no memory variables
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
        << what << ": field " << name << " differs from the reference";
  }
}

// Apply each velocity component and each stress group in turn with the
// production kernel (options `opts`) and with the reference kernel
// (default options), comparing every field after every call.
void checkAgainstReference(grid::GridDims dims, bool attenuation,
                           const KernelOptions& opts, const Region* region,
                           const std::string& what) {
  grid::StaggeredGrid fast = randomGrid(dims, attenuation, 20100545u);
  grid::StaggeredGrid ref = fast;
  const Region r = region != nullptr ? *region : Region::interior(fast);
  const KernelOptions plain;
  for (auto comp : {VelocityComponent::U, VelocityComponent::V,
                    VelocityComponent::W}) {
    updateVelocity(fast, comp, opts, r);
    reference::updateVelocity(ref, comp, plain, r);
    expectBitIdentical(fast, ref,
                       what + " velocity " +
                           std::to_string(static_cast<int>(comp)));
  }
  for (auto group : {StressGroup::Normal, StressGroup::XY, StressGroup::XZ,
                     StressGroup::YZ}) {
    updateStress(fast, group, opts, r);
    reference::updateStress(ref, group, plain, r);
    expectBitIdentical(fast, ref,
                       what + " stress " +
                           std::to_string(static_cast<int>(group)));
  }
}

TEST(FastKernel, BitIdenticalToReferenceOnOddRows) {
  // Odd i-extents run the vector body, the vectorized epilogue and the
  // scalar remainder in every combination.
  for (std::size_t nx : {1u, 3u, 5u, 17u})
    for (bool atten : {false, true})
      checkAgainstReference({nx, 4, 3}, atten, KernelOptions{}, nullptr,
                            "nx=" + std::to_string(nx) +
                                " atten=" + std::to_string(atten));
}

TEST(FastKernel, BitIdenticalOnSubRegions) {
  // Regions as the overlap and PML paths use them: strips that do not
  // start at the interior origin, down to the last cell the stencil reach
  // allows.
  const grid::GridDims dims{13, 6, 5};
  const std::size_t sx = dims.nx + 2 * kHalo;
  const Region strips[] = {
      {kHalo + 1, kHalo + 4, kHalo, kHalo + 2, kHalo + 1, kHalo + 5},
      {kHalo + 3, kHalo + 12, kHalo + 2, kHalo + 6, kHalo, kHalo + 1},
      {kHalo, sx - 2, kHalo + 5, kHalo + 6, kHalo + 4, kHalo + 5}};
  int n = 0;
  for (const Region& r : strips)
    for (bool atten : {false, true})
      checkAgainstReference(dims, atten, KernelOptions{}, &r,
                            "strip " + std::to_string(n++));
}

TEST(FastKernel, BitIdenticalWithBlockingPoolAndDivisions) {
  const grid::GridDims dims{17, 9, 7};
  KernelOptions blocked;
  blocked.cacheBlocked = true;
  blocked.kblock = 2;  // tiles that do not divide the extents
  blocked.jblock = 4;
  ThreadPool pool(3);
  KernelOptions hybrid;
  hybrid.pool = &pool;
  KernelOptions both = blocked;
  both.pool = &pool;
  for (bool atten : {false, true}) {
    checkAgainstReference(dims, atten, blocked, nullptr, "blocked");
    checkAgainstReference(dims, atten, hybrid, nullptr, "hybrid");
    checkAgainstReference(dims, atten, both, nullptr, "blocked+hybrid");
  }
  // Divisions per use exist only in the reference rows; the production
  // entry point must route to them unchanged.
  KernelOptions divisions;
  divisions.useReciprocals = false;
  grid::StaggeredGrid fast = randomGrid(dims, true, 7u);
  grid::StaggeredGrid ref = fast;
  updateStress(fast, divisions);
  for (auto group : {StressGroup::Normal, StressGroup::XY, StressGroup::XZ,
                     StressGroup::YZ})
    reference::updateStress(ref, group, divisions, Region::interior(ref));
  expectBitIdentical(fast, ref, "divisions");
}

// --- Flush-to-zero deviation (DESIGN.md §16) --------------------------------
// An attenuated explosion driven straight through the production kernels
// in lockstep on two grids: one in IEEE gradual underflow, one inside
// ScopedFlushDenormals as WaveSolver::step runs them.

using FieldPtr = Array3f grid::StaggeredGrid::*;
constexpr FieldPtr kVelocities[] = {&grid::StaggeredGrid::u,
                                    &grid::StaggeredGrid::v,
                                    &grid::StaggeredGrid::w};
// Stresses and their memory variables share units.
constexpr FieldPtr kStresses[] = {
    &grid::StaggeredGrid::xx,  &grid::StaggeredGrid::yy,
    &grid::StaggeredGrid::zz,  &grid::StaggeredGrid::xy,
    &grid::StaggeredGrid::xz,  &grid::StaggeredGrid::yz,
    &grid::StaggeredGrid::rxx, &grid::StaggeredGrid::ryy,
    &grid::StaggeredGrid::rzz, &grid::StaggeredGrid::rxy,
    &grid::StaggeredGrid::rxz, &grid::StaggeredGrid::ryz};

struct FieldStats {
  std::size_t subnormals = 0;  // summed over steps
  double peak = 0.0;           // max |plain| over steps
  double deviation = 0.0;      // max |plain - flushed| over steps
};

void accumulate(FieldStats& s, const grid::StaggeredGrid& plain,
                const grid::StaggeredGrid& flushed,
                std::span<const FieldPtr> fields,
                std::size_t& flushedSubnormals) {
  for (FieldPtr m : fields)
    for (std::size_t n = 0; n < (plain.*m).size(); ++n) {
      const float a = (plain.*m).data()[n];
      const float b = (flushed.*m).data()[n];
      s.subnormals += std::fpclassify(a) == FP_SUBNORMAL ? 1 : 0;
      flushedSubnormals += std::fpclassify(b) == FP_SUBNORMAL ? 1 : 0;
      s.peak = std::max(s.peak, std::abs(static_cast<double>(a)));
      s.deviation = std::max(
          s.deviation, std::abs(static_cast<double>(a) - b));
    }
}

TEST(FlushToZero, DeviationFromIeeeStaysBelowFloatResolutionOfThePeak) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "ScopedFlushDenormals is a no-op on this target";
#endif
  // The source sits 8 cells from one corner, so after 60 steps the far
  // side of the box is still ahead of the wavefront, where fields decay
  // through the subnormal range.
  grid::AttenuationConfig q;
  q.enabled = true;
  q.fMin = 0.5;
  q.fMax = 10.0;
  const double dt = 0.005;
  const std::size_t steps = 60;
  grid::StaggeredGrid plain({48, 40, 40}, 100.0, dt, q);
  plain.setUniformMaterial(rock());
  grid::StaggeredGrid flushed = plain;
  const auto stf = rickerWavelet(5.0, 0.2, dt, steps, 1.0e6);
  const std::size_t c = kHalo + 8;
  const KernelOptions opts;
  FieldStats vel, str;
  std::size_t flushedSubnormals = 0;
  for (std::size_t n = 0; n < steps; ++n) {
    for (grid::StaggeredGrid* g : {&plain, &flushed}) {
      {
        std::optional<ScopedFlushDenormals> ftz;
        if (g == &flushed) ftz.emplace();
        updateVelocity(*g, opts);
        updateStress(*g, opts);
      }
      for (Array3f* f : {&g->xx, &g->yy, &g->zz}) (*f)(c, c, c) += stf[n];
    }
    accumulate(vel, plain, flushed, kVelocities, flushedSubnormals);
    accumulate(str, plain, flushed, kStresses, flushedSubnormals);
  }
  EXPECT_GT(vel.subnormals, 0u);
  EXPECT_GT(str.subnormals, 0u);
  EXPECT_EQ(flushedSubnormals, 0u);
  EXPECT_GT(vel.deviation, 0.0) << "the flush changed nothing";
  // Tolerance: half an ulp of the peak, 2^-24 * peak. Below it, no float32
  // value at the scale of the peak -- what PGV, slip and Mw read -- can
  // tell the two runs apart. The flush perturbs only values under FLT_MIN
  // ahead of the wavefront; this run measures 1.5e-19 (velocity) and
  // 5e-20 (stress) of the peak, eleven decades inside the bound.
  const double halfUlp = std::ldexp(1.0, -24);
  EXPECT_LT(vel.deviation, halfUlp * vel.peak);
  EXPECT_LT(str.deviation, halfUlp * str.peak);
}

TEST(FastKernel, RegionBreachingTheStencilReachThrows) {
  grid::StaggeredGrid g = randomGrid({8, 6, 5}, true, 3u);
  const Region in = Region::interior(g);
  Region lowI = in;
  lowI.i0 = 1;  // reads i-2 = -1
  Region highJ = in;
  highJ.j1 = g.sy() - 1;  // reads j+2 = sy
  Region highK = in;
  highK.k1 = g.sz();
  Region inverted = in;
  inverted.i0 = inverted.i1 + 1;
  for (const Region& r : {lowI, highJ, highK, inverted}) {
    EXPECT_THROW(updateVelocity(g, VelocityComponent::U, KernelOptions{}, r),
                 Error);
    EXPECT_THROW(updateStress(g, StressGroup::YZ, KernelOptions{}, r), Error);
  }
  // A material array of the wrong shape is refused the same way.
  g.mui.resize(g.sx() - 1, g.sy(), g.sz());
  EXPECT_THROW(updateStress(g, StressGroup::XY, KernelOptions{}, in), Error);
}

// The decomposition-invariance suite: the same problem must produce the
// same seismograms regardless of rank count, exchange mode, reduced
// communication, or overlap. This is what makes the §IV optimizations
// safe. Attenuated cases on an odd-sized domain put rank boundaries at odd
// global offsets, where the coarse-grained relaxation-time pattern must
// follow the global index, not the rank-local one.
struct ParallelCase {
  Dims3 dims;
  grid::HaloExchanger::Mode mode;
  bool reduced;
  bool overlap;
  std::size_t n = 24;
  bool attenuated = false;
};

class ParallelEquivalence : public ::testing::TestWithParam<ParallelCase> {};

std::vector<SeismogramTrace> runCase(const ParallelCase& pc) {
  auto config = baseConfig(pc.n);
  config.commMode = pc.mode;
  config.reducedComm = pc.reduced;
  config.overlap = pc.overlap;
  config.attenuation.enabled = pc.attenuated;
  std::vector<SeismogramTrace> out;
  ThreadCluster::run(pc.dims.total(), [&](vcluster::Communicator& comm) {
    CartTopology topo(pc.dims);
    WaveSolver solver(comm, topo, config, rock());
    if (pc.attenuated) {  // Qs = 10, Qp = 20
      solver.grid().qsInv.fill(2.0f / 10.0f);
      solver.grid().qpInv.fill(2.0f / 20.0f);
    }
    const double dt = solver.config().dt;
    solver.addSource(explosionPointSource(
        13, 11, 12, rickerWavelet(4.0, 0.4, dt, 80, 1e15)));
    solver.addSource(strikeSlipPointSource(
        7, 15, 10, rickerWavelet(3.0, 0.5, dt, 80, 5e15)));
    solver.addReceiver("a", 6, 6);
    solver.addReceiver("b", 18, 12);
    solver.run(90);
    auto traces = solver.receivers().gather(comm);
    if (comm.rank() == 0) out = std::move(traces);
  });
  // Sort by name for stable comparison.
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return out;
}

TEST_P(ParallelEquivalence, MatchesSingleRankReference) {
  const ParallelCase& pc = GetParam();
  const auto reference =
      runCase({Dims3{1, 1, 1}, grid::HaloExchanger::Mode::Asynchronous, true,
               false, pc.n, pc.attenuated});
  const auto got = runCase(pc);
  ASSERT_EQ(got.size(), reference.size());
  for (std::size_t t = 0; t < got.size(); ++t) {
    ASSERT_EQ(got[t].name, reference[t].name);
    ASSERT_EQ(got[t].u.size(), reference[t].u.size());
    for (std::size_t n = 0; n < got[t].u.size(); ++n) {
      ASSERT_FLOAT_EQ(got[t].u[n], reference[t].u[n]);
      ASSERT_FLOAT_EQ(got[t].v[n], reference[t].v[n]);
      ASSERT_FLOAT_EQ(got[t].w[n], reference[t].w[n]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DecompositionAndCommModes, ParallelEquivalence,
    ::testing::Values(
        ParallelCase{Dims3{2, 1, 1},
                     grid::HaloExchanger::Mode::Asynchronous, true, false},
        ParallelCase{Dims3{2, 2, 1},
                     grid::HaloExchanger::Mode::Asynchronous, true, false},
        ParallelCase{Dims3{2, 2, 2},
                     grid::HaloExchanger::Mode::Asynchronous, true, false},
        ParallelCase{Dims3{1, 2, 2},
                     grid::HaloExchanger::Mode::Synchronous, true, false},
        ParallelCase{Dims3{2, 2, 1},
                     grid::HaloExchanger::Mode::Asynchronous, false, false},
        ParallelCase{Dims3{2, 2, 1},
                     grid::HaloExchanger::Mode::Asynchronous, true, true},
        ParallelCase{Dims3{3, 2, 1},
                     grid::HaloExchanger::Mode::Synchronous, false, true},
        ParallelCase{Dims3{2, 1, 1},
                     grid::HaloExchanger::Mode::Asynchronous, true, false, 25,
                     true},
        ParallelCase{Dims3{3, 1, 1},
                     grid::HaloExchanger::Mode::Asynchronous, true, false, 25,
                     true}));

TEST(Checkpoint, RestartReproducesUninterruptedRun) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("awp_ckpt_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  auto makeSolver = [&](vcluster::Communicator& comm,
                        const CartTopology& topo,
                        io::CheckpointStore* store) {
    auto config = baseConfig(20);
    auto solver = std::make_unique<WaveSolver>(comm, topo, config, rock());
    const double dt = solver->config().dt;
    solver->addSource(explosionPointSource(
        10, 10, 10, rickerWavelet(4.0, 0.4, dt, 60, 1e15)));
    if (store != nullptr) solver->attachCheckpoints(store, 20);
    return solver;
  };

  std::vector<float> uninterrupted, restarted;
  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{2, 1, 1});
    io::CheckpointStore store(dir.string());
    auto solver = makeSolver(comm, topo, &store);
    solver->run(40);
    if (comm.rank() == 0) {
      const auto& u = solver->grid().u;
      uninterrupted.assign(u.data(), u.data() + u.size());
    }
  });
  ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{2, 1, 1});
    io::CheckpointStore store(dir.string());
    auto solver = makeSolver(comm, topo, &store);
    solver->restart();  // resumes after step 20
    EXPECT_EQ(solver->currentStep(), 21u);
    solver->run(40 - solver->currentStep());
    if (comm.rank() == 0) {
      const auto& u = solver->grid().u;
      restarted.assign(u.data(), u.data() + u.size());
    }
  });
  std::filesystem::remove_all(dir);

  ASSERT_EQ(uninterrupted.size(), restarted.size());
  for (std::size_t n = 0; n < uninterrupted.size(); ++n)
    ASSERT_EQ(uninterrupted[n], restarted[n]);
}

TEST(Solver, FlopsAccountingGrowsLinearly) {
  ThreadCluster::run(1, [&](vcluster::Communicator& comm) {
    CartTopology topo(Dims3{1, 1, 1});
    WaveSolver solver(comm, topo, baseConfig(16), rock());
    solver.run(10);
    const double f10 = solver.flopsExecuted();
    solver.run(10);
    EXPECT_NEAR(solver.flopsExecuted(), 2.0 * f10, 1.0);
    EXPECT_GT(f10, 0.0);
  });
}

}  // namespace
}  // namespace awp::core
