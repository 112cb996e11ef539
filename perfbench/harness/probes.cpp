#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <vector>

#include "core/kernels.hpp"
#include "core/solver.hpp"
#include "mesh/partitioner.hpp"
#include "vcluster/cart.hpp"
#include "vcluster/cluster.hpp"

namespace perfbench {

namespace ag = awp::grid;
namespace ac = awp::core;

namespace {

// Compulsory traffic of one kernel launch, each array streamed once:
// velocity reads rho + 6 stresses + 3 velocities and writes 3 velocities;
// stress reads 3 velocities + lam/mu/1/mu + 6 stresses and writes 6;
// attenuation adds 6 memory variables read+written plus tauSigma, qsInv,
// qpInv read.
constexpr double kVelocityBytes = (10 + 3) * 4.0;
constexpr double kStressBytes = (12 + 6) * 4.0;
constexpr double kAttenuationBytes = (12 + 3) * 4.0;

volatile double g_sink = 0.0;

double triadSeconds(std::vector<double>& a, const std::vector<double>& b,
                    const std::vector<double>& c, double s) {
  const double t0 = nowSeconds();
  const std::size_t n = a.size();
  double* __restrict pa = a.data();
  const double* __restrict pb = b.data();
  const double* __restrict pc = c.data();
  for (std::size_t i = 0; i < n; ++i) pa[i] = pb[i] + s * pc[i];
  const double t = nowSeconds() - t0;
  g_sink = g_sink + pa[n / 2];
  return t;
}

// Independent multiply-add chains on the vector width this build targets
// (the repository's flags select no -march, so this is the peak the
// kernels themselves can reach).
using v4f = float __attribute__((vector_size(16)));

double fmaSeconds(std::size_t iters, double& flops) {
  constexpr int kChains = 12;
  v4f acc[kChains];
  const float seed = static_cast<float>(g_sink) * 0.0f;
  for (int c = 0; c < kChains; ++c)
    acc[c] = v4f{1.0f + seed, 1.0f, 1.0f, 1.0f} * static_cast<float>(c + 1);
  const v4f m = v4f{0.9999f, 0.9999f, 0.9999f, 0.9999f} + seed;
  const v4f a = v4f{1e-4f, 1e-4f, 1e-4f, 1e-4f} + seed;
  const double t0 = nowSeconds();
  for (std::size_t it = 0; it < iters; ++it)
    for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * m + a;
  const double t = nowSeconds() - t0;
  float total = 0.0f;
  for (int c = 0; c < kChains; ++c)
    for (int l = 0; l < 4; ++l) total += acc[c][l];
  g_sink = g_sink + total;
  flops = static_cast<double>(iters) * kChains * 4 * 2;
  return t;
}

awp::mesh::SubdomainSpec rankZeroBlock(const KernelProbeSpec& spec,
                                       const awp::vcluster::CartTopology& t) {
  return awp::mesh::subdomainFor(
      t, {spec.global.nx, spec.global.ny, spec.global.nz, spec.h, 0, 0}, 0);
}

const awp::vmodel::Material kRock{6000.0f, 3464.0f, 2700.0f};

}  // namespace

void probeHost(Result& out, bool smoke) {
  const std::size_t llc = lastLevelCacheBytes();
  std::size_t bytes = std::max<std::size_t>(4 * llc, std::size_t{64} << 20);
  if (smoke) bytes = std::size_t{64} << 20;
  const std::size_t n = bytes / sizeof(double);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  Samples triad;
  for (int rep = 0; rep < 3; ++rep)
    triad.add(3.0 * static_cast<double>(n) * sizeof(double) /
              triadSeconds(a, b, c, 0.5 + rep) / 1e9);
  out.timing("host.triad_gbs", triad, "GB/s");
  out.value("host.triad_array_mib",
            static_cast<double>(n * sizeof(double)) / (1 << 20), "MiB");
  out.value("host.llc_mib", static_cast<double>(llc) / (1 << 20), "MiB");

  Samples fma;
  for (int rep = 0; rep < 5; ++rep) {
    double flops = 0.0;
    const double t = fmaSeconds(smoke ? 2'000'000 : 20'000'000, flops);
    fma.add(flops / t / 1e9);
  }
  out.timing("host.fma_gflops", fma, "Gflop/s");
}

void probeKernels(Result& out, const KernelProbeSpec& spec, bool smoke) {
  const awp::vcluster::CartTopology topo(
      awp::vcluster::CartTopology::balancedDims(spec.ranks, spec.global.nx,
                                                spec.global.ny,
                                                spec.global.nz));
  const auto block = rankZeroBlock(spec, topo);
  const ag::GridDims local{block.x.count(), block.y.count(), block.z.count()};
  ag::AttenuationConfig att;
  att.enabled = spec.attenuation;
  ag::StaggeredGrid g(local, spec.h, 0.45 * spec.h / kRock.vp, att);
  g.setUniformMaterial(kRock);
  g.setDt(g.stableDt());

  // A deterministic, non-trivial starting state well away from denormals.
  SeedRng rng(7);
  for (auto f : {ag::FieldId::U, ag::FieldId::V, ag::FieldId::W,
                 ag::FieldId::XX, ag::FieldId::YY, ag::FieldId::ZZ,
                 ag::FieldId::XY, ag::FieldId::XZ, ag::FieldId::YZ})
    for (float& x : g.field(f)) x = static_cast<float>(rng.uniform() - 0.5);
  const std::vector<std::byte> initial = g.saveState();

  const ac::KernelOptions opts = ac::SolverConfig{}.kernels;
  const double cells = static_cast<double>(local.count());
  Samples vel, str;
  const int reps = smoke ? 3 : 15;
  for (int rep = 0; rep < reps; ++rep) {
    g.restoreState(initial);
    double t0 = nowSeconds();
    ac::updateVelocity(g, opts);
    vel.add((nowSeconds() - t0) / cells * 1e9);
    t0 = nowSeconds();
    ac::updateStress(g, opts);
    str.add((nowSeconds() - t0) / cells * 1e9);
  }
  out.timing("core.velocity_ns_per_cell", vel, "ns");
  out.timing("core.stress_ns_per_cell", str, "ns");

  const double flops = ac::flopsPerPointPerStep(spec.attenuation);
  const double bytes = kVelocityBytes + kStressBytes +
                       (spec.attenuation ? kAttenuationBytes : 0.0);
  out.value("core.flops_per_cell", flops, "flop");
  out.value("core.bytes_per_cell", bytes, "B_computed");
  out.value("core.probe_cells", cells, "count");

  const double nsPerCell = vel.median() + str.median();
  const double achievedGflops = flops / nsPerCell;
  const auto bw = out.metrics.find("host.triad_gbs");
  const auto peak = out.metrics.find("host.fma_gflops");
  if (bw != out.metrics.end() && peak != out.metrics.end()) {
    const double roof = std::min(peak->second.value,
                                 bw->second.value * flops / bytes);
    out.value("core.roofline_frac", achievedGflops / roof, "ratio");
  }
  out.value("core.kernel_gflops", achievedGflops, "Gflop/s");
}

void probeHalo(Result& out, const KernelProbeSpec& spec, bool smoke) {
  const awp::vcluster::CartTopology topo(
      awp::vcluster::CartTopology::balancedDims(spec.ranks, spec.global.nx,
                                                spec.global.ny,
                                                spec.global.nz));
  ac::SolverConfig config;
  config.globalDims = spec.global;
  config.h = spec.h;
  config.attenuation.enabled = spec.attenuation;
  const int reps = smoke ? 5 : 40;
  std::vector<double> perStepUs;
  std::uint64_t bytes = 0, messages = 0;
  std::mutex mu;
  awp::vcluster::ThreadCluster::run(
      spec.ranks, [&](awp::vcluster::Communicator& comm) {
        ac::WaveSolver solver(comm, topo, config, kRock);
        auto& ex = solver.exchanger();
        ex.resetStats();
        std::vector<double> times;
        for (int rep = 0; rep < reps; ++rep) {
          comm.barrier();
          const double t0 = nowSeconds();
          ex.exchangeVelocities(solver.grid());
          ex.exchangeStresses(solver.grid());
          times.push_back((nowSeconds() - t0) * 1e6);
        }
        std::lock_guard<std::mutex> lock(mu);
        bytes += ex.stats().bytes;
        messages += ex.stats().messages;
        if (comm.rank() == 0) perStepUs = std::move(times);
      });
  Samples s;
  s.values = perStepUs;
  out.timing("grid.halo_exchange_us", s, "us");
  out.value("grid.halo_bytes_per_step", static_cast<double>(bytes) / reps,
            "B");
  out.value("grid.halo_messages_per_step",
            static_cast<double>(messages) / reps, "count");
}

}  // namespace perfbench
