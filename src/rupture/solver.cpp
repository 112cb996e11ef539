#include "rupture/solver.hpp"

#include <cmath>
#include <cstring>
#include <string>

#include "core/source.hpp"
#include "health/preflight.hpp"
#include "telemetry/registry.hpp"
#include "util/error.hpp"
#include "util/fp_mode.hpp"

namespace awp::rupture {

using grid::kHalo;

double FaultHistory::seismicMoment() const {
  double m0 = 0.0;
  for (std::size_t n = 0; n < finalSlip.size(); ++n)
    m0 += static_cast<double>(rigidity[n]) * finalSlip[n] * h * h;
  return m0;
}

double FaultHistory::momentMagnitude() const {
  return core::momentMagnitude(seismicMoment());
}

double FaultHistory::averageSlip() const {
  double s = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < finalSlip.size(); ++i)
    if (ruptureTime[i] >= 0.0f) {
      s += finalSlip[i];
      ++n;
    }
  return n > 0 ? s / static_cast<double>(n) : 0.0;
}

double FaultHistory::superShearFraction(double vs) const {
  std::size_t super = 0, total = 0;
  for (std::size_t k = 0; k < nz; ++k)
    for (std::size_t i = 1; i + 1 < nx; ++i) {
      const float t0 = ruptureTime[i - 1 + nx * k];
      const float t1 = ruptureTime[i + 1 + nx * k];
      if (t0 < 0.0f || t1 < 0.0f) continue;
      const double dtDx = std::abs(t1 - t0) / (2.0 * h);
      if (dtDx <= 0.0) continue;
      const double vr = 1.0 / dtDx;
      ++total;
      if (vr > vs) ++super;
    }
  return total > 0 ? static_cast<double>(super) / total : 0.0;
}

DynamicRuptureSolver::DynamicRuptureSolver(vcluster::Communicator& comm,
                                           const vcluster::CartTopology& topo,
                                           const RuptureConfig& config,
                                           const vmodel::VelocityModel& model)
    : comm_(comm),
      topo_(topo),
      config_(config),
      friction_(config.friction) {
  AWP_CHECK(comm.size() == topo.size());
  AWP_CHECK(config_.fi1 > config_.fi0 && config_.fk1 > config_.fk0);
  AWP_CHECK(config_.fi1 <= config_.globalDims.nx &&
            config_.fk1 <= config_.globalDims.nz);
  AWP_CHECK_MSG(config_.faultJ + 2 < config_.globalDims.ny,
                "fault plane too close to the +y boundary");

  geom_.global = config_.globalDims;
  const mesh::MeshSpec spec{config_.globalDims.nx, config_.globalDims.ny,
                            config_.globalDims.nz, config_.h, 0.0, 0.0};
  geom_.local = mesh::subdomainFor(topo_, spec, comm_.rank());

  // Sample the velocity model into this rank's block (the rupture model
  // uses a 1D average structure along the SAF, §VII.A).
  mesh::MeshBlock block;
  block.spec = geom_.local;
  block.points.resize(block.spec.pointCount());
  for (std::size_t k = 0; k < block.spec.z.count(); ++k) {
    // Mesh block k is a depth slice index (0 = surface).
    const double depth = static_cast<double>(k) * config_.h;
    for (std::size_t j = 0; j < block.spec.y.count(); ++j)
      for (std::size_t i = 0; i < block.spec.x.count(); ++i) {
        const double x =
            static_cast<double>(block.spec.x.begin + i) * config_.h;
        const double y =
            static_cast<double>(block.spec.y.begin + j) * config_.h;
        block.at(i, j, k) = model.sample(x, y, depth);
      }
  }

  const grid::GridDims local{block.spec.x.count(), block.spec.y.count(),
                             block.spec.z.count()};
  double dt = config_.dt;
  if (dt <= 0.0) {
    grid::StaggeredGrid probe(local, config_.h, 1.0);
    probe.setMaterial(block);
    dt = comm_.allreduce(probe.stableDt(), vcluster::ReduceOp::Min);
    config_.dt = dt;
  }
  grid_ = std::make_unique<grid::StaggeredGrid>(local, config_.h, dt);
  grid_->setMaterial(block);

  halo_ = std::make_unique<grid::HaloExchanger>(
      comm_, topo_, grid::HaloExchanger::Mode::Asynchronous,
      /*reduced=*/true);
  halo_->exchangeMaterial(*grid_);
  freeSurface_ = std::make_unique<core::FreeSurface>(geom_);
  sponge_ = std::make_unique<core::SpongeLayer>(geom_, *grid_,
                                                config_.spongeWidth);

  // Initial stress over the full fault extent (global), then bind the
  // locally owned nodes. The stress model grid covers [fi0, fi1) x
  // [fk0, fk1).
  if (config_.stressOverride) {
    const auto& ov = *config_.stressOverride;
    if (ov.nx != config_.fi1 - config_.fi0 ||
        ov.nz != config_.fk1 - config_.fk0)
      throw Error("rupture: stress override is " + std::to_string(ov.nx) +
                  "x" + std::to_string(ov.nz) + ", fault extent wants " +
                  std::to_string(config_.fi1 - config_.fi0) + "x" +
                  std::to_string(config_.fk1 - config_.fk0));
    stress_ = ov;
  } else {
    stress_ = buildInitialStress(config_.fi1 - config_.fi0,
                                 config_.fk1 - config_.fk0, config_.h,
                                 config_.stress, friction_);
  }

  for (std::size_t gk = config_.fk0; gk < config_.fk1; ++gk)
    for (std::size_t gi = config_.fi0; gi < config_.fi1; ++gi) {
      std::size_t li, lj, lk;
      if (!geom_.owns(gi, config_.faultJ, gk, li, lj, lk)) continue;
      LocalNode n;
      n.gi = gi;
      n.gk = gk;
      n.li = li;
      n.lj = lj;
      n.lk = lk;
      n.tau0 = static_cast<float>(
          stress_.tauAt(gi - config_.fi0, gk - config_.fk0));
      n.sigmaN = static_cast<float>(
          stress_.sigmaAt(gi - config_.fi0, gk - config_.fk0));
      n.depth = static_cast<float>(
          static_cast<double>(config_.globalDims.nz - 1 - gk) * config_.h);
      n.mu = grid_->mu(li, lj, lk);
      nodes_.push_back(n);
    }

  if (config_.preflight) {
    health::RupturePreflightContext pf;
    pf.muS = config_.friction.muS;
    pf.muD = config_.friction.muD;
    pf.dc = config_.friction.dc;
    pf.dcSurface = config_.friction.dcSurface;
    pf.cohesion = config_.friction.cohesion;
    pf.maxSupercriticalFraction = config_.maxSupercriticalFraction;
    pf.nodes.reserve(nodes_.size());
    for (const LocalNode& n : nodes_)
      pf.nodes.push_back({n.gi, n.gk, n.tau0, n.sigmaN, n.depth});
    health::collectiveRupturePreflight(comm_, pf);  // throws when Fatal
  }
}

void DynamicRuptureSolver::recordSlipRates() {
  const bool record =
      step_ % static_cast<std::size_t>(config_.timeDecimation) == 0;
  if (record) ++recordedSteps_;
  const float dt = static_cast<float>(grid_->dt());
  const float t = static_cast<float>(step_) * dt;

  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    LocalNode& node = nodes_[n];
    // Velocity discontinuity across the plane: the split-node slip rate.
    const float rateX = grid_->u(node.li, node.lj + 1, node.lk) -
                        grid_->u(node.li, node.lj, node.lk);
    const float rateZ = grid_->w(node.li, node.lj + 1, node.lk) -
                        grid_->w(node.li, node.lj, node.lk);
    const float rate = std::sqrt(rateX * rateX + rateZ * rateZ);
    node.slipPath += rate * dt;
    node.slipX += rateX * dt;
    node.slipZ += rateZ * dt;
    node.peakRate = std::max(node.peakRate, rate);
    if (node.ruptureTime < 0.0f &&
        rate > static_cast<float>(config_.slipRateThreshold))
      node.ruptureTime = t;
    if (record) {
      historyX_.push_back(rateX);
      historyZ_.push_back(rateZ);
    }
  }
}

void DynamicRuptureSolver::faultCondition() {
  for (LocalNode& node : nodes_) {
    const float txTotal = node.tau0 + grid_->xy(node.li, node.lj, node.lk);
    const float tzTotal = grid_->yz(node.li, node.lj, node.lk);
    const float mag = std::sqrt(txTotal * txTotal + tzTotal * tzTotal);
    const float strength = static_cast<float>(
        friction_.strength(node.slipPath, node.depth, node.sigmaN));
    if (mag > strength && mag > 0.0f) {
      const float scale = strength / mag;
      grid_->xy(node.li, node.lj, node.lk) = txTotal * scale - node.tau0;
      grid_->yz(node.li, node.lj, node.lk) = tzTotal * scale;
    }
  }
}

void DynamicRuptureSolver::step() {
  telemetry::stepMark(step_);
  telemetry::count(telemetry::Counter::CellsUpdated, grid_->dims().count());
  const core::Region r = core::Region::interior(*grid_);
  // The wavefield update flushes subnormals; the slip-rate record between
  // the two blocks runs in the caller's IEEE mode (DESIGN.md §16).
  {
    ScopedFlushDenormals ftz;
    telemetry::ScopedSpan span(telemetry::Phase::VelocityKernel);
    core::updateVelocity(*grid_, config_.kernels);
    halo_->exchangeVelocities(*grid_);
    freeSurface_->applyVelocityImages(*grid_);
  }
  {
    telemetry::ScopedSpan span(telemetry::Phase::Rupture);
    recordSlipRates();
  }
  {
    ScopedFlushDenormals ftz;
    {
      telemetry::ScopedSpan span(telemetry::Phase::StressKernel);
      core::updateStress(*grid_, core::StressGroup::Normal, config_.kernels,
                         r);
      core::updateStress(*grid_, core::StressGroup::XY, config_.kernels, r);
      core::updateStress(*grid_, core::StressGroup::XZ, config_.kernels, r);
      core::updateStress(*grid_, core::StressGroup::YZ, config_.kernels, r);
    }
    {
      telemetry::ScopedSpan span(telemetry::Phase::Rupture);
      faultCondition();
    }
    {
      telemetry::ScopedSpan span(telemetry::Phase::StressKernel);
      freeSurface_->applyStressImages(*grid_);
      halo_->exchangeStresses(*grid_);
    }
    {
      telemetry::ScopedSpan span(telemetry::Phase::Absorb);
      sponge_->apply(*grid_);
    }
  }
  ++step_;
}

void DynamicRuptureSolver::run(std::size_t nSteps) {
  for (std::size_t n = 0; n < nSteps; ++n) step();
}

FaultHistory DynamicRuptureSolver::gather() {
  // Serialize local nodes: gi, gk, finalSlip, peak, rtime, mu, histories.
  const std::size_t histLen = recordedSteps_;
  std::vector<std::byte> payload;
  auto put = [&](const void* p, std::size_t bytes) {
    const auto* b = static_cast<const std::byte*>(p);
    payload.insert(payload.end(), b, b + bytes);
  };
  const std::uint64_t count = nodes_.size();
  const std::uint64_t hl = histLen;
  put(&count, sizeof(count));
  put(&hl, sizeof(hl));
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const LocalNode& node = nodes_[n];
    const std::uint64_t gi = node.gi, gk = node.gk;
    put(&gi, sizeof(gi));
    put(&gk, sizeof(gk));
    const float vals[5] = {node.slipPath, node.peakRate, node.ruptureTime,
                           node.mu, node.slipX};
    put(vals, sizeof(vals));
    // Histories are stored time-major across nodes (appended per step);
    // extract this node's series.
    std::vector<float> hx(histLen), hz(histLen);
    for (std::size_t t = 0; t < histLen; ++t) {
      hx[t] = historyX_[t * nodes_.size() + n];
      hz[t] = historyZ_[t * nodes_.size() + n];
    }
    put(hx.data(), hx.size() * sizeof(float));
    put(hz.data(), hz.size() * sizeof(float));
  }

  const auto gathered = comm_.gatherBytes(0, payload);
  FaultHistory out;
  if (comm_.rank() != 0) return out;

  out.nx = config_.fi1 - config_.fi0;
  out.nz = config_.fk1 - config_.fk0;
  out.h = config_.h;
  out.dt = grid_->dt();
  out.timeDecimation = config_.timeDecimation;
  const std::size_t nNodes = out.nx * out.nz;
  out.finalSlip.assign(nNodes, 0.0f);
  out.peakSlipRate.assign(nNodes, 0.0f);
  out.ruptureTime.assign(nNodes, -1.0f);
  out.rigidity.assign(nNodes, 0.0f);

  // First pass to learn the history length (identical on all ranks).
  std::size_t histLenGlobal = 0;
  for (const auto& blob : gathered) {
    if (blob.size() < 16) continue;
    std::uint64_t hlv;
    std::memcpy(&hlv, blob.data() + 8, sizeof(hlv));
    histLenGlobal = std::max<std::size_t>(histLenGlobal, hlv);
  }
  out.recordedSteps = histLenGlobal;
  out.slipRateX.assign(nNodes * histLenGlobal, 0.0f);
  out.slipRateZ.assign(nNodes * histLenGlobal, 0.0f);

  for (const auto& blob : gathered) {
    if (blob.empty()) continue;
    std::size_t at = 0;
    auto get = [&](void* p, std::size_t bytes) {
      AWP_CHECK(at + bytes <= blob.size());
      std::memcpy(p, blob.data() + at, bytes);
      at += bytes;
    };
    std::uint64_t cnt, hlv;
    get(&cnt, sizeof(cnt));
    get(&hlv, sizeof(hlv));
    for (std::uint64_t n = 0; n < cnt; ++n) {
      std::uint64_t gi, gk;
      get(&gi, sizeof(gi));
      get(&gk, sizeof(gk));
      float vals[5];
      get(vals, sizeof(vals));
      const std::size_t idx =
          (gi - config_.fi0) + out.nx * (gk - config_.fk0);
      out.finalSlip[idx] = vals[0];
      out.peakSlipRate[idx] = vals[1];
      out.ruptureTime[idx] = vals[2];
      out.rigidity[idx] = vals[3];
      std::vector<float> hx(hlv), hz(hlv);
      get(hx.data(), hx.size() * sizeof(float));
      get(hz.data(), hz.size() * sizeof(float));
      for (std::size_t t = 0; t < hlv; ++t) {
        out.slipRateX[idx * histLenGlobal + t] = hx[t];
        out.slipRateZ[idx * histLenGlobal + t] = hz[t];
      }
    }
  }
  return out;
}

}  // namespace awp::rupture
