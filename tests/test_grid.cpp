// Tests for the staggered grid and the halo-exchange machinery.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "grid/field_id.hpp"
#include "util/error.hpp"
#include "grid/halo.hpp"
#include "grid/staggered_grid.hpp"
#include "mesh/partitioner.hpp"
#include "vcluster/cluster.hpp"
#include "vmodel/material.hpp"

namespace awp::grid {
namespace {

vmodel::Material rock() { return {5000.0f, 2887.0f, 2700.0f}; }

TEST(StaggeredGrid, AllocatesWithHalos) {
  StaggeredGrid g({10, 8, 6}, 100.0, 0.01);
  EXPECT_EQ(g.sx(), 14u);
  EXPECT_EQ(g.sy(), 12u);
  EXPECT_EQ(g.sz(), 10u);
  EXPECT_EQ(g.u.size(), 14u * 12 * 10);
}

TEST(StaggeredGrid, UniformMaterialDerivesReciprocals) {
  StaggeredGrid g({4, 4, 4}, 100.0, 0.01);
  g.setUniformMaterial(rock());
  const float mu = g.mu(3, 3, 3);
  EXPECT_GT(mu, 0.0f);
  EXPECT_FLOAT_EQ(g.mui(3, 3, 3), 1.0f / mu);
}

TEST(StaggeredGrid, StableDtScalesWithH) {
  StaggeredGrid a({4, 4, 4}, 100.0, 1.0);
  a.setUniformMaterial(rock());
  StaggeredGrid b({4, 4, 4}, 200.0, 1.0);
  b.setUniformMaterial(rock());
  EXPECT_NEAR(b.stableDt() / a.stableDt(), 2.0, 1e-6);
  EXPECT_NEAR(a.stableDt(), 0.45 * 100.0 / 5000.0, 1e-6);
}

TEST(StaggeredGrid, AttenuationTausSpanTheBand) {
  AttenuationConfig att;
  att.enabled = true;
  att.fMin = 0.1;
  att.fMax = 2.0;
  StaggeredGrid g({8, 8, 8}, 100.0, 0.01, att);
  float tMin = 1e9f, tMax = 0.0f;
  for (float t : g.tauSigma) {
    tMin = std::min(tMin, t);
    tMax = std::max(tMax, t);
  }
  EXPECT_NEAR(tMin, 1.0 / (2.0 * M_PI * 2.0), 1e-4);
  EXPECT_NEAR(tMax, 1.0 / (2.0 * M_PI * 0.1), 1e-3);
}

TEST(StaggeredGrid, SaveRestoreRoundTrip) {
  StaggeredGrid g({6, 5, 4}, 100.0, 0.01);
  g.setUniformMaterial(rock());
  for (std::size_t n = 0; n < g.u.size(); ++n) {
    g.u.data()[n] = static_cast<float>(n) * 0.5f;
    g.xy.data()[n] = static_cast<float>(n) * -0.25f;
  }
  const auto state = g.saveState();

  StaggeredGrid g2({6, 5, 4}, 100.0, 0.01);
  g2.setUniformMaterial(rock());
  g2.restoreState(state);
  for (std::size_t n = 0; n < g.u.size(); ++n) {
    ASSERT_EQ(g2.u.data()[n], g.u.data()[n]);
    ASSERT_EQ(g2.xy.data()[n], g.xy.data()[n]);
  }
  // Size mismatch is rejected.
  StaggeredGrid g3({4, 4, 4}, 100.0, 0.01);
  EXPECT_THROW(g3.restoreState(state), Error);
}

TEST(StaggeredGrid, MeshBlockFlipsDepthAxis) {
  // Mesh k = 0 is the surface; grid k increases upward.
  mesh::MeshBlock block;
  block.spec.x = {0, 2};
  block.spec.y = {0, 2};
  block.spec.z = {0, 3};
  block.points.resize(12);
  for (std::size_t k = 0; k < 3; ++k)
    for (std::size_t j = 0; j < 2; ++j)
      for (std::size_t i = 0; i < 2; ++i) {
        auto& m = block.at(i, j, k);
        m.vs = 1000.0f + 100.0f * static_cast<float>(k);  // faster deeper
        m.vp = 2.0f * m.vs;
        m.rho = 2500.0f;
      }
  StaggeredGrid g({2, 2, 3}, 100.0, 0.01);
  g.setMaterial(block);
  // Top interior plane (k = kHalo + 2) must be the surface (mesh k = 0).
  const float muTop = g.mu(kHalo, kHalo, kHalo + 2);
  const float muBottom = g.mu(kHalo, kHalo, kHalo);
  EXPECT_LT(muTop, muBottom);
}

// Fill a field with a function of GLOBAL coordinates on each rank, run the
// exchange, and verify that halo cells contain the neighbor's values.
TEST(HaloExchange, FullExchangeFillsFaces) {
  const GridDims global{12, 10, 8};
  const vcluster::CartTopology topo(vcluster::Dims3{2, 2, 2});
  const mesh::MeshSpec spec{global.nx, global.ny, global.nz, 1.0, 0, 0};

  vcluster::ThreadCluster::run(topo.size(), [&](vcluster::Communicator&
                                                    comm) {
    const auto sub = mesh::subdomainFor(topo, spec, comm.rank());
    StaggeredGrid g({sub.x.count(), sub.y.count(), sub.z.count()}, 1.0,
                    0.1);
    auto value = [](std::size_t gi, std::size_t gj, std::size_t gk) {
      return static_cast<float>(gi + 100 * gj + 10000 * gk);
    };
    for (std::size_t k = 0; k < sub.z.count(); ++k)
      for (std::size_t j = 0; j < sub.y.count(); ++j)
        for (std::size_t i = 0; i < sub.x.count(); ++i)
          g.u(i + kHalo, j + kHalo, k + kHalo) =
              value(sub.x.begin + i, sub.y.begin + j, sub.z.begin + k);

    HaloExchanger ex(comm, topo, HaloExchanger::Mode::Asynchronous,
                     /*reduced=*/false);
    ex.exchangeVelocities(g);

    // Check the -x halo planes (if a neighbor exists there).
    if (topo.neighbor(comm.rank(), 0, -1) >= 0) {
      for (std::size_t k = 0; k < sub.z.count(); ++k)
        for (std::size_t j = 0; j < sub.y.count(); ++j)
          for (std::size_t p = 0; p < kHalo; ++p) {
            const float got = g.u(p, j + kHalo, k + kHalo);
            const float want =
                value(sub.x.begin - kHalo + p, sub.y.begin + j,
                      sub.z.begin + k);
            ASSERT_EQ(got, want);
          }
    }
    // Check the +y halo planes.
    if (topo.neighbor(comm.rank(), 1, 1) >= 0) {
      for (std::size_t k = 0; k < sub.z.count(); ++k)
        for (std::size_t p = 0; p < kHalo; ++p)
          for (std::size_t i = 0; i < sub.x.count(); ++i) {
            const float got =
                g.u(i + kHalo, kHalo + sub.y.count() + p, k + kHalo);
            const float want = value(sub.x.begin + i, sub.y.end + p,
                                     sub.z.begin + k);
            ASSERT_EQ(got, want);
          }
    }
  });
}

TEST(HaloExchange, SynchronousAndAsynchronousAgree) {
  const GridDims global{9, 9, 9};
  const vcluster::CartTopology topo(vcluster::Dims3{3, 1, 3});
  const mesh::MeshSpec spec{global.nx, global.ny, global.nz, 1.0, 0, 0};

  for (auto mode : {HaloExchanger::Mode::Synchronous,
                    HaloExchanger::Mode::Asynchronous}) {
    vcluster::ThreadCluster::run(
        topo.size(), [&](vcluster::Communicator& comm) {
          const auto sub = mesh::subdomainFor(topo, spec, comm.rank());
          StaggeredGrid g({sub.x.count(), sub.y.count(), sub.z.count()},
                          1.0, 0.1);
          for (std::size_t k = 0; k < sub.z.count(); ++k)
            for (std::size_t j = 0; j < sub.y.count(); ++j)
              for (std::size_t i = 0; i < sub.x.count(); ++i)
                g.xx(i + kHalo, j + kHalo, k + kHalo) =
                    static_cast<float>((sub.x.begin + i) * 7 +
                                       (sub.z.begin + k));
          HaloExchanger ex(comm, topo, mode, /*reduced=*/false);
          ex.exchangeStresses(g);
          if (topo.neighbor(comm.rank(), 0, 1) >= 0) {
            const float got =
                g.xx(kHalo + sub.x.count(), kHalo, kHalo);
            ASSERT_EQ(got,
                      static_cast<float>(sub.x.end * 7 + sub.z.begin));
          }
        });
  }
}

TEST(HaloExchange, ReducedSendsFewerBytes) {
  const GridDims global{16, 16, 16};
  const vcluster::CartTopology topo(vcluster::Dims3{2, 2, 2});
  const mesh::MeshSpec spec{global.nx, global.ny, global.nz, 1.0, 0, 0};

  std::uint64_t fullBytes = 0, reducedBytes = 0;
  for (bool reduced : {false, true}) {
    std::atomic<std::uint64_t> bytes{0};
    vcluster::ThreadCluster::run(
        topo.size(), [&](vcluster::Communicator& comm) {
          const auto sub = mesh::subdomainFor(topo, spec, comm.rank());
          StaggeredGrid g({sub.x.count(), sub.y.count(), sub.z.count()},
                          1.0, 0.1);
          HaloExchanger ex(comm, topo,
                           HaloExchanger::Mode::Asynchronous, reduced);
          ex.exchangeVelocities(g);
          ex.exchangeStresses(g);
          bytes.fetch_add(ex.stats().bytes);
        });
    (reduced ? reducedBytes : fullBytes) = bytes.load();
  }
  // §IV.A: the stress tensor exchange shrinks by ~62%, the overall volume
  // by ~50%.
  EXPECT_LT(reducedBytes, fullBytes);
  EXPECT_NEAR(static_cast<double>(reducedBytes) / fullBytes, 0.5, 0.05);
}

TEST(HaloExchange, ReducedStillDeliversNeededPlanes) {
  // xx only travels in x under the reduced tables; verify the planes a
  // velocity stencil needs (2 on the minus side, 1 on the plus side).
  const GridDims global{12, 6, 6};
  const vcluster::CartTopology topo(vcluster::Dims3{2, 1, 1});
  const mesh::MeshSpec spec{global.nx, global.ny, global.nz, 1.0, 0, 0};
  vcluster::ThreadCluster::run(2, [&](vcluster::Communicator& comm) {
    const auto sub = mesh::subdomainFor(topo, spec, comm.rank());
    StaggeredGrid g({sub.x.count(), sub.y.count(), sub.z.count()}, 1.0,
                    0.1);
    for (std::size_t k = 0; k < sub.z.count(); ++k)
      for (std::size_t j = 0; j < sub.y.count(); ++j)
        for (std::size_t i = 0; i < sub.x.count(); ++i)
          g.xx(i + kHalo, j + kHalo, k + kHalo) =
              static_cast<float>(sub.x.begin + i) + 1.0f;
    HaloExchanger ex(comm, topo, HaloExchanger::Mode::Asynchronous,
                     /*reduced=*/true);
    ex.exchangeStresses(g);
    if (comm.rank() == 1) {
      // Minus side: both halo planes filled (need.minus == 2).
      ASSERT_EQ(g.xx(0, kHalo, kHalo), 5.0f);  // global i = 4
      ASSERT_EQ(g.xx(1, kHalo, kHalo), 6.0f);  // global i = 5
    } else {
      // Plus side: only the first halo plane filled (need.plus == 1).
      ASSERT_EQ(g.xx(kHalo + 6, kHalo, kHalo), 7.0f);  // global i = 6
      ASSERT_EQ(g.xx(kHalo + 7, kHalo, kHalo), 0.0f);  // untouched
    }
  });
}

TEST(FieldNeeds, ReducedTotalsMatchTheClaimedSavings) {
  // Velocities: 27 of 36 planes; stresses: 27 of 72 (xx alone 3 of 12 —
  // the 75% reduction the paper quotes for xx).
  int velocity = 0, stress = 0;
  for (FieldId f : kVelocityFields) {
    const auto n = reducedNeed(f);
    velocity += n.x.total() + n.y.total() + n.z.total();
  }
  for (FieldId f : kStressFields) {
    const auto n = reducedNeed(f);
    stress += n.x.total() + n.y.total() + n.z.total();
  }
  EXPECT_EQ(velocity, 27);
  EXPECT_EQ(stress, 27);
  const auto xx = reducedNeed(FieldId::XX);
  EXPECT_EQ(xx.x.total() + xx.y.total() + xx.z.total(), 3);  // 12 -> 3
}

TEST(StaggeredGrid, KineticEnergyOfUniformField) {
  StaggeredGrid g({4, 4, 4}, 2.0, 0.01);
  g.setUniformMaterial(rock());
  for (std::size_t n = 0; n < g.u.size(); ++n) g.u.data()[n] = 1.0f;
  // E = 1/2 rho v^2 * volume over 64 interior cells of h^3 = 8.
  EXPECT_NEAR(g.kineticEnergy(), 0.5 * 2700.0 * 1.0 * 64 * 8.0, 1.0);
}

}  // namespace
}  // namespace awp::grid
