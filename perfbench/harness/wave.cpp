// wave_attenuated: one fixed-step AWM run with Q attenuation on a CVM mesh
// — sponge, free surface, aggregated surface output at the M8 cadence and
// periodic checkpoints. Each rank's fields exceed its L2 cache, so this is
// the sustained-rate run of §V.B: FD kernels, the attenuation update, halo
// exchange and output do nearly all the work, and rupture does none.

#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>

#include "core/solver.hpp"
#include "io/checkpoint.hpp"
#include "io/checksum.hpp"
#include "mesh/generator.hpp"
#include "mesh/partitioner.hpp"
#include "probes.hpp"
#include "vcluster/cluster.hpp"
#include "vmodel/cvm.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace awp;

namespace {

// The seed selects one of kVariants recorded source placements
// (reference.json holds each one's outputs).
constexpr std::uint64_t kVariants = 8;

struct Geometry {
  // Each rank's fields (about 100 B per cell) exceed its L2 cache.
  grid::GridDims dims{128, 64, 40};
  double h = 800.0;
  std::size_t steps = 60;
  int checkpointEvery = 30;
};

struct Placement {
  std::size_t si, sj, sk;  // source
  std::size_t ri, rj;      // receiver
};

Placement placementFor(std::uint64_t variant, const Geometry& g) {
  SeedRng rng(0x5eed0000 + variant);
  const std::size_t margin = 28;  // clear of the 20-cell sponge
  Placement p{};
  p.si = rng.range(margin, g.dims.nx - margin - 1);
  p.sj = rng.range(margin, g.dims.ny - margin - 1);
  p.sk = g.dims.nz - 1 - rng.range(6, 12);  // k grows upward to the surface
  p.ri = p.si + 6;
  p.rj = p.sj + 3;
  return p;
}

}  // namespace

Result runWaveAttenuated(const Options& opts, Tracer& tracer) {
  Geometry g;
  if (opts.smoke) {
    g.dims = {96, 64, 32};
    g.steps = 40;
    g.checkpointEvery = 20;
  }
  const int ranks = opts.ranks;
  const std::uint64_t variant = opts.seed % kVariants;
  const Placement place = placementFor(variant, g);
  const fs::path work = fs::path(opts.workDir) / "wave";
  const vcluster::CartTopology topo(vcluster::CartTopology::balancedDims(
      ranks, g.dims.nx, g.dims.ny, g.dims.nz));
  const mesh::MeshSpec meshSpec{g.dims.nx, g.dims.ny, g.dims.nz, g.h, 0, 0};

  Result result;
  Samples setupS, ttsU, ttsT, mcups;
  std::vector<Samples> queryUs;
  telemetry::Session session({ranks, std::size_t{1} << 16});
  int tracedReps = 0;

  // Set-up-only passes (index < 0) add set-up samples without a run.
  auto rep = [&](int index, bool traced) {
    const bool setupOnly = index < 0;
    fs::remove_all(work);
    fs::create_directories(work / "ckpt");
    const std::string meshPath = (work / "mesh.bin").string();
    const std::string partsDir = (work / "parts").string();
    const std::string surfacePath = (work / "surface.bin").string();
    io::CheckpointStore store((work / "ckpt").string());

    double setupSeconds = 0.0, runSeconds = 0.0;
    std::vector<float> pgvh;
    std::vector<float> trace;
    std::string md5;
    if (!setupOnly) ++result.attempted;
    try {
      const double s0 = nowSeconds();
      // Velocity model and mesh build, partition and checksum, then solver
      // construction (preflight + CFL) and output wiring: the set-up.
      const double lx = g.dims.nx * g.h, ly = g.dims.ny * g.h;
      const auto cvm =
          vmodel::CommunityVelocityModel::socal(lx, ly, 0.55 * ly);
      vcluster::ThreadCluster::run(ranks, [&](vcluster::Communicator& comm) {
        {
          std::optional<Tracer::Scope> s;
          if (comm.rank() == 0) s.emplace(&tracer, "mesh.generate");
          mesh::generateMesh(comm, cvm, meshSpec, meshPath);
        }
        mesh::MeshBlock block;
        {
          std::optional<Tracer::Scope> s;
          if (comm.rank() == 0) s.emplace(&tracer, "mesh.partition");
          mesh::prePartitionMesh(comm, meshPath, topo, partsDir);
          block = mesh::readPrePartitioned(partsDir, comm.rank());
        }
        {
          std::optional<Tracer::Scope> s;
          if (comm.rank() == 0) s.emplace(&tracer, "io.md5");
          const auto sum = io::parallelMd5(
              comm, std::as_bytes(std::span<const vmodel::Material>(
                        block.points)));
          if (comm.rank() == 0) md5 = sum.collectionHex;
        }

        core::SolverConfig config;
        config.globalDims = g.dims;
        config.h = g.h;
        config.attenuation.enabled = true;
        std::optional<Tracer::Scope> construct;
        if (comm.rank() == 0) construct.emplace(&tracer, "core.solver_setup");
        core::WaveSolver solver(comm, topo, config, block);
        const double dt = solver.dt();
        solver.addSource(core::strikeSlipPointSource(
            place.si, place.sj, place.sk,
            core::rickerWavelet(0.5, 2.4, dt, g.steps, 1.0e16)));
        solver.addReceiver("r0", place.ri, place.rj);
        io::SharedFile surface(surfacePath, io::SharedFile::Mode::Write);
        core::SurfaceOutputConfig so;
        so.file = &surface;
        so.sampleEverySteps = 20;  // the M8 cadence
        so.spatialDecimation = 2;
        so.flushEverySamples = 5;
        solver.attachSurfaceOutput(so);
        solver.attachCheckpoints(&store, g.checkpointEvery);
        construct.reset();

        comm.barrier();
        const double r0 = nowSeconds();
        if (comm.rank() == 0) setupSeconds = r0 - s0;
        if (setupOnly) return;
        {
          std::optional<Tracer::Scope> s;
          if (comm.rank() == 0) s.emplace(&tracer, "core.solver_run");
          solver.run(g.steps);
        }
        comm.barrier();
        const double r1 = nowSeconds();
        auto map = solver.surface().gatherPgvh(comm, topo);
        auto traces = solver.receivers().gather(comm);
        if (comm.rank() == 0) {
          runSeconds = r1 - r0;
          pgvh = std::move(map);
          if (!traces.empty()) trace = traces.front().u;
        }
      });
    } catch (const std::exception&) {
      if (!setupOnly) ++result.failed;
      return;
    }
    setupS.add(setupSeconds);
    if (setupOnly) return;
    (traced ? ttsT : ttsU).add(runSeconds);
    if (traced) ++tracedReps;
    if (!traced)
      mcups.add(static_cast<double>(g.dims.count()) * g.steps / runSeconds /
                1e6);

    double norm = 0.0;
    bool finite = true;
    for (float v : pgvh) {
      finite = finite && std::isfinite(v);
      norm += static_cast<double>(v) * v;
    }
    for (float v : trace) finite = finite && std::isfinite(v);
    norm = std::sqrt(norm);
    result.check("wave.finite", finite && !pgvh.empty() && !trace.empty(),
                 "PGV map and receiver trace present and finite (rep " +
                     std::to_string(index) + ")");

    Observation obs;
    obs.values["variant"] = static_cast<double>(variant);
    obs.values["pgv_map_norm"] = norm;
    // The receiver trace, decimated to every 5th step for the reference.
    for (std::size_t i = 0; i < trace.size(); i += 5)
      obs.values["trace_u_" + std::to_string(1000 + i).substr(1)] = trace[i];
    obs.texts["mesh_md5"] = md5;
    result.observed.push_back(std::move(obs));

    // The surface product's read: its wavefield frames.
    if (!traced) queryUs.emplace_back();
    frameReads(result, traced ? nullptr : &queryUs.back(), surfacePath,
               analysis::surfaceLayoutFor(topo, g.dims, 2));
  };

  // Each untraced repetition is preceded by a set-up-only pass, so the
  // set-up median has more samples and spans the whole run. Traced
  // repetitions skip it, so per-layer set-up spans count one set-up each.
  recordRepetitions(result, repeatFor(opts, tracer, &session,
                                      [&](int index, bool traced) {
                                        if (!traced) rep(-1, false);
                                        rep(index, traced);
                                      }));
  fs::remove_all(work);

  result.check("wave.has_successful_repetition", !result.observed.empty(),
               "at least one fixed-step run completed");

  result.timing("setup_s", setupS, "s");
  result.timing("time_to_solution_s", ttsU.empty() ? ttsT : ttsU, "s");
  result.timing("sustained_mcups", mcups, "Mcell/s");
  result.queryLatencies(queryUs);

  if (opts.trace) {
    spanMetrics(result, tracer,
                {"mesh.generate", "mesh.partition", "io.md5",
                 "core.solver_setup", "core.solver_run"},
                tracedReps);
    telemetryMetrics(result, session, ranks, tracedReps);
    overheadMetric(result, ttsU, ttsT);
    const KernelProbeSpec probe{g.dims, ranks, g.h, true};
    probeHost(result, opts.smoke);
    probeKernels(result, probe, opts.smoke);
    probeHalo(result, probe, opts.smoke);
    zeroMetrics(result, kM8StageMetrics);
    zeroMetrics(result, {{"rupture.run_s", "s"}});
    zeroMetrics(result, kCycleMetrics);
    zeroMetrics(result, kSchedMetrics);
    zeroMetrics(result, kServeMetrics);
  }
  return result;
}

}  // namespace perfbench
