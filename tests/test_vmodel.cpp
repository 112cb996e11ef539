// Tests for the synthetic community velocity model substrate.

#include <gtest/gtest.h>

#include "vmodel/cvm.hpp"
#include "vmodel/material.hpp"

namespace awp::vmodel {
namespace {

TEST(Material, QRelationsMatchPaper) {
  // §VII.B: Qs = 50 Vs (Vs in km/s), Qp = 2 Qs.
  EXPECT_DOUBLE_EQ(qsOf(2000.0), 100.0);
  EXPECT_DOUBLE_EQ(qpOf(2000.0), 200.0);
  EXPECT_DOUBLE_EQ(qsOf(400.0), 20.0);
}

TEST(Material, BrocherDensityPlausible) {
  // Soft sediments ~1.9-2.1 g/cc, hard rock ~2.6-2.9 g/cc.
  EXPECT_GT(brocherDensity(1500.0), 1500.0);
  EXPECT_LT(brocherDensity(1500.0), 2400.0);
  EXPECT_GT(brocherDensity(6000.0), 2500.0);
  EXPECT_LT(brocherDensity(6000.0), 3100.0);
  // Monotone over the crustal range.
  EXPECT_LT(brocherDensity(2000.0), brocherDensity(5000.0));
}

TEST(Material, LameParameters) {
  Material m{2000.0f, 1000.0f, 2500.0f};
  EXPECT_DOUBLE_EQ(muOf(m), 2500.0 * 1e6);
  EXPECT_DOUBLE_EQ(lambdaOf(m), 2500.0 * (4e6 - 2e6));
}

TEST(LayeredModel, VsIncreasesWithDepth) {
  const auto bg = LayeredModel::socalBackground();
  double prev = 0.0;
  for (double z : {0.0, 1000.0, 5000.0, 20000.0, 60000.0}) {
    const double vs = bg.vsAtDepth(z);
    EXPECT_GE(vs, prev);
    prev = vs;
  }
  EXPECT_GT(bg.vsAtDepth(0.0), 1000.0);  // rock at surface
}

TEST(LayeredModel, InterpolatesBetweenLayerTops) {
  const LayeredModel m({{0.0, 1000.0}, {1000.0, 2000.0}});
  EXPECT_DOUBLE_EQ(m.vsAtDepth(500.0), 1500.0);
  EXPECT_DOUBLE_EQ(m.vsAtDepth(5000.0), 2000.0);  // constant below
}

TEST(Basin, DepthProfile) {
  Basin b{"test", 0.0, 0.0, 10000.0, 5000.0, 3000.0, 400.0};
  EXPECT_DOUBLE_EQ(b.depthAt(0.0, 0.0), 3000.0);
  EXPECT_DOUBLE_EQ(b.depthAt(20000.0, 0.0), 0.0);  // outside
  EXPECT_GT(b.depthAt(5000.0, 0.0), 0.0);
  EXPECT_LT(b.depthAt(5000.0, 0.0), 3000.0);
}

class SocalCvm : public ::testing::Test {
 protected:
  SocalCvm() : cvm_(CommunityVelocityModel::socal(200e3, 100e3, 45e3)) {}
  CommunityVelocityModel cvm_;
};

TEST_F(SocalCvm, BasinsAreSlower) {
  ASSERT_FALSE(cvm_.basins().empty());
  for (const auto& b : cvm_.basins()) {
    const auto inBasin = cvm_.sample(b.cx, b.cy, 100.0);
    // Far corner, same depth.
    const auto outside = cvm_.sample(1000.0, 99000.0, 100.0);
    EXPECT_LT(inBasin.vs, outside.vs) << b.name;
  }
}

TEST_F(SocalCvm, VsMinClampHolds) {
  for (const auto& b : cvm_.basins()) {
    const auto m = cvm_.sample(b.cx, b.cy, 0.0);
    EXPECT_GE(m.vs, 400.0f);
  }
}

TEST_F(SocalCvm, MaterialsConsistent) {
  for (double z : {0.0, 500.0, 3000.0, 20000.0}) {
    const auto m = cvm_.sample(60e3, 40e3, z);
    EXPECT_GT(m.vp, m.vs);
    EXPECT_GT(m.rho, 1000.0f);
    EXPECT_LT(m.rho, 3500.0f);
  }
}

TEST_F(SocalCvm, IsosurfaceDeeperUnderBasins) {
  const auto& la = cvm_.basins()[0];
  const double inBasin = cvm_.depthToIsosurface(la.cx, la.cy, 2500.0);
  const double outside = cvm_.depthToIsosurface(1000.0, 99000.0, 2500.0);
  EXPECT_GT(inBasin, outside);
}

TEST_F(SocalCvm, HasFig21Sites) {
  bool foundSB = false, foundLA = false;
  for (const auto& s : cvm_.sites()) {
    if (s.name == "San Bernardino") foundSB = true;
    if (s.name == "Downtown LA") foundLA = true;
  }
  EXPECT_TRUE(foundSB);
  EXPECT_TRUE(foundLA);
}

TEST_F(SocalCvm, SanBernardinoHugsFault) {
  // The SBB analogue must sit within a few km of the fault trace
  // (y = faultY) — the Fig 21 geography the science result depends on.
  for (const auto& b : cvm_.basins()) {
    if (b.name == "San Bernardino") {
      EXPECT_LT(std::abs(b.cy - 45e3), 5e3);
    }
  }
}

}  // namespace
}  // namespace awp::vmodel
