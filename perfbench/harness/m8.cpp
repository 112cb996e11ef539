// m8_pipeline: the paper's two-step M8 workflow at laptop scale, with the
// stage list and geometry of examples/m8_end_to_end, every stage on the
// same rank count. Rupture does most of the work; no attenuation, sched,
// serve or cycle code runs.

#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>

#include "analysis/pgv.hpp"
#include "core/solver.hpp"
#include "fault/injector.hpp"
#include "io/checksum.hpp"
#include "mesh/generator.hpp"
#include "mesh/partitioner.hpp"
#include "probes.hpp"
#include "rupture/solver.hpp"
#include "source/dsrcg.hpp"
#include "source/petasrcp.hpp"
#include "vcluster/cluster.hpp"
#include "workflow/archive.hpp"
#include "workflow/e2eaw.hpp"
#include "workflow/transfer.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace awp;

namespace {

// Inputs the seed selects. The rupture stress seed comes from one of
// kVariants recorded variants (reference.json holds each one's outputs).
constexpr std::uint64_t kVariants = 8;
constexpr std::uint64_t kBaseStressSeed = 20100545;
constexpr int kSetupBatch = 200;
constexpr int kSetupSamples = 5;

struct Geometry {
  grid::GridDims dims{96, 48, 20};
  double h = 1250.0;
  std::size_t dfrSteps = 480;
  std::size_t awmSteps = 240;
};

// Work done once before the timed region: velocity model, fault trace and
// decomposition.
struct Setup {
  std::unique_ptr<vmodel::CommunityVelocityModel> cvm;
  std::unique_ptr<source::FaultTrace> trace;
  std::unique_ptr<vcluster::CartTopology> topo;
};

void resetDirs(const fs::path& work) {
  fs::remove_all(work);
  for (const char* d : {"input", "output", "archive"})
    fs::create_directories(work / d);
}

Setup makeSetup(const Geometry& g, int ranks) {
  Setup s;
  const double lx = g.dims.nx * g.h, ly = g.dims.ny * g.h;
  const double faultY = 0.55 * ly;
  s.cvm = std::make_unique<vmodel::CommunityVelocityModel>(
      vmodel::CommunityVelocityModel::socal(lx, ly, faultY));
  s.trace = std::make_unique<source::FaultTrace>(
      source::FaultTrace::bent(0.12 * lx, faultY, 0.88 * lx, faultY, 12, 3e3));
  s.topo = std::make_unique<vcluster::CartTopology>(
      vcluster::CartTopology::balancedDims(ranks, g.dims.nx, g.dims.ny,
                                           g.dims.nz));
  return s;
}

rupture::RuptureConfig ruptureConfig(std::uint64_t stressSeed) {
  rupture::RuptureConfig rc;
  rc.globalDims = {130, 30, 34};
  rc.h = 700.0;
  rc.faultJ = 14;
  rc.fi0 = 13;
  rc.fi1 = 117;
  rc.fk1 = rc.globalDims.nz - 1;
  rc.fk0 = rc.fk1 - 20;
  rc.stress.nucX = 0.15 * (rc.fi1 - rc.fi0) * rc.h;
  rc.stress.nucZ = 8000.0;
  rc.stress.nucRadius = 2500.0;
  rc.stress.corrX = 12e3;
  rc.stress.corrZ = 4e3;
  rc.stress.seed = stressSeed;
  rc.timeDecimation = 2;
  rc.slipRateThreshold = 0.01;
  return rc;
}

struct RepOutputs {
  bool ok = false;
  double tts = 0.0, dfrSeconds = 0.0, awmSeconds = 0.0;
  double mw = 0.0, meanSlip = 0.0, peak = 0.0, peakDistKm = 0.0;
  std::string md5;
  std::uint64_t bytesMoved = 0;
};

}  // namespace

Result runM8Pipeline(const Options& opts, Tracer& tracer) {
  Geometry g;
  if (opts.smoke) {
    g.dfrSteps = 60;
    g.awmSteps = 40;
  }
  const int ranks = opts.ranks;
  const std::uint64_t variant = opts.seed % kVariants;
  const auto rc = ruptureConfig(kBaseStressSeed + variant);
  const fs::path work = fs::path(opts.workDir) / "m8";

  Result result;
  Samples setupS, ttsU, ttsT, mcups;
  std::vector<Samples> queryUs;

  // Set-up takes about a microsecond here, so each sample times a batch of
  // kSetupBatch builds. Every repetition starts with kSetupSamples such
  // samples, so their median, like the time-to-solution median, spans the
  // whole run rather than the host's state in its first milliseconds.
  Setup setup;
  auto measureSetup = [&] {
    for (int b = 0; b < kSetupSamples; ++b) {
      const double t0 = nowSeconds();
      for (int i = 0; i < kSetupBatch; ++i) setup = makeSetup(g, ranks);
      setupS.add((nowSeconds() - t0) / kSetupBatch);
    }
  };

  telemetry::Session session({ranks, std::size_t{1} << 16});
  const double rupCells = static_cast<double>(rc.globalDims.count());
  const double awmCells = static_cast<double>(g.dims.count());
  int tracedReps = 0;

  auto rep = [&](int index, bool traced) {
    measureSetup();
    resetDirs(work);
    const auto& topo = *setup.topo;
    const std::string meshPath = (work / "input" / "mesh.bin").string();
    const std::string partsDir = (work / "input" / "parts").string();
    const std::string srcDir = (work / "input" / "source").string();
    const std::string surfacePath = (work / "output" / "surface.bin").string();
    const mesh::MeshSpec meshSpec{g.dims.nx, g.dims.ny, g.dims.nz, g.h, 0, 0};

    // The smoke test's injected failure: every transfer chunk of the first
    // repetition is lost, so the E2EaW stage fails after its retries.
    std::unique_ptr<fault::FaultInjector> injector;
    std::unique_ptr<fault::ScopedInjection> scoped;
    if (opts.injectFault && index == 0) {
      fault::FaultPlan plan;
      plan.transientIoError("transfer.chunk", -1, 1, 1000);
      injector = std::make_unique<fault::FaultInjector>(std::move(plan));
      scoped = std::make_unique<fault::ScopedInjection>(*injector);
    }

    RepOutputs out;
    rupture::FaultHistory fault;
    std::vector<float> pgvhMap;
    double dt = 0.0;
    workflow::Pipeline pipeline;

    pipeline.addStage("CVM2MESH", [&] {
      vcluster::ThreadCluster::run(ranks, [&](vcluster::Communicator& comm) {
        std::optional<Tracer::Scope> s;
        if (comm.rank() == 0) s.emplace(&tracer, "mesh.generate");
        mesh::generateMesh(comm, *setup.cvm, meshSpec, meshPath);
      });
      return std::string("mesh");
    });
    pipeline.addStage("PetaMeshP", [&] {
      vcluster::ThreadCluster::run(ranks, [&](vcluster::Communicator& comm) {
        mesh::MeshBlock block;
        {
          std::optional<Tracer::Scope> s;
          if (comm.rank() == 0) s.emplace(&tracer, "mesh.partition");
          mesh::prePartitionMesh(comm, meshPath, topo, partsDir);
          block = mesh::readPrePartitioned(partsDir, comm.rank());
        }
        std::optional<Tracer::Scope> s;
        if (comm.rank() == 0) s.emplace(&tracer, "io.md5");
        const auto sum = io::parallelMd5(
            comm, std::as_bytes(std::span<const vmodel::Material>(
                      block.points)));
        if (comm.rank() == 0) out.md5 = sum.collectionHex;
      });
      return out.md5;
    });
    pipeline.addStage("DFR", [&] {
      const double t0 = nowSeconds();
      vcluster::ThreadCluster::run(ranks, [&](vcluster::Communicator& comm) {
        vcluster::CartTopology rtopo(vcluster::Dims3{ranks, 1, 1});
        rupture::DynamicRuptureSolver dfr(
            comm, rtopo, rc, vmodel::LayeredModel::socalBackground());
        {
          std::optional<Tracer::Scope> s;
          if (comm.rank() == 0) s.emplace(&tracer, "rupture.run");
          dfr.run(g.dfrSteps);
        }
        auto h = dfr.gather();
        if (comm.rank() == 0) fault = std::move(h);
      });
      out.dfrSeconds = nowSeconds() - t0;
      return std::string("rupture");
    });
    pipeline.addStage("dSrcG+PetaSrcP", [&] {
      auto s = tracer.span("source.prepare");
      dt = 0.45 * g.h / 6800.0;
      source::WaveModelTarget target{g.dims, g.h, dt};
      source::FilterConfig filter;
      filter.cutoffHz = 0.4 / dt / 10.0;
      const auto sources = source::fromRupture(fault, *setup.trace, target,
                                               filter);
      source::partitionSources(sources, topo, g.dims, 400, srcDir);
      return std::to_string(sources.size());
    });
    pipeline.addStage("AWM", [&] {
      const double t0 = nowSeconds();
      vcluster::ThreadCluster::run(ranks, [&](vcluster::Communicator& comm) {
        const auto block = mesh::readPrePartitioned(partsDir, comm.rank());
        core::SolverConfig config;
        config.globalDims = g.dims;
        config.h = g.h;
        config.dt = dt;
        core::WaveSolver solver(comm, topo, config, block);
        const auto info = source::readPartitionInfo(srcDir);
        for (int seg = 0; seg < info.segments; ++seg)
          for (auto& src : source::loadSegment(srcDir, comm.rank(), seg))
            solver.addSource(std::move(src));
        io::SharedFile surface(surfacePath, io::SharedFile::Mode::Write);
        core::SurfaceOutputConfig so;
        so.file = &surface;
        so.sampleEverySteps = 20;  // the M8 decimation choice
        so.spatialDecimation = 2;
        so.flushEverySamples = 5;
        solver.attachSurfaceOutput(so);
        {
          std::optional<Tracer::Scope> s;
          if (comm.rank() == 0) s.emplace(&tracer, "core.solver_run");
          solver.run(g.awmSteps);
        }
        std::optional<Tracer::Scope> s;
        if (comm.rank() == 0) s.emplace(&tracer, "analysis.pgvh_gather");
        auto map = solver.surface().gatherPgvh(comm, topo);
        if (comm.rank() == 0) pgvhMap = std::move(map);
      });
      out.awmSeconds = nowSeconds() - t0;
      return std::string("wave");
    });
    pipeline.addStage("E2EaW", [&] {
      auto s = tracer.span("workflow.transfer");
      workflow::TransferChannel channel(workflow::TransferConfig{});
      const auto report = channel.transfer(
          (work / "output").string(), (work / "archive").string(),
          {"surface.bin"});
      if (!report.allVerified) throw Error("transfer verification failed");
      workflow::ArchiveRegistry registry;
      registry.ingestFile((work / "archive" / "surface.bin").string(),
                          "mini-m8", "surface.bin", 2);
      out.bytesMoved = report.bytesMoved;
      return std::string("archived");
    });

    const double t0 = nowSeconds();
    out.ok = pipeline.run();
    out.tts = nowSeconds() - t0;
    scoped.reset();

    for (const auto& r : pipeline.results()) {
      ++result.attempted;
      if (!r.ok) ++result.failed;  // failed, or skipped after a failure
    }
    if (!out.ok) return;

    const auto peak = analysis::mapPeak(pgvhMap, g.dims.nx, g.dims.ny);
    out.mw = fault.momentMagnitude();
    out.meanSlip = fault.averageSlip();
    out.peak = peak.value;
    out.peakDistKm =
        analysis::distanceToTrace(peak.i * g.h, peak.j * g.h, *setup.trace) /
        1e3;
    (traced ? ttsT : ttsU).add(out.tts);
    if (!traced)
      mcups.add((rupCells * g.dfrSteps + awmCells * g.awmSteps) /
                (out.dfrSeconds + out.awmSeconds) / 1e6);
    if (traced) {
      ++tracedReps;
      result.value("workflow.bytes_moved",
                   static_cast<double>(out.bytesMoved), "B");
    }

    Observation obs;
    obs.values["variant"] = static_cast<double>(variant);
    obs.values["mw"] = out.mw;
    obs.values["mean_slip_m"] = out.meanSlip;
    obs.values["peak_pgvh_ms"] = out.peak;
    obs.values["peak_distance_km"] = out.peakDistKm;
    obs.texts["mesh_md5"] = out.md5;
    result.observed.push_back(std::move(obs));
    result.check("m8.outputs_finite",
                 std::isfinite(out.mw) && std::isfinite(out.meanSlip) &&
                     std::isfinite(out.peak),
                 "Mw, mean slip and peak PGVH are finite (rep " +
                     std::to_string(index) + ")");

    // The archived product's read: its wavefield frames.
    if (!traced) queryUs.emplace_back();
    frameReads(result, traced ? nullptr : &queryUs.back(),
               (work / "archive" / "surface.bin").string(),
               analysis::surfaceLayoutFor(topo, g.dims, 2));
  };

  recordRepetitions(
      result,
      repeatFor(opts, tracer, &session, rep, opts.injectFault ? 1 : 0));
  fs::remove_all(work);

  result.check("m8.has_successful_repetition", !result.observed.empty(),
               "at least one repetition completed every stage");

  result.timing("setup_s", setupS, "s");
  result.timing("time_to_solution_s", ttsU.empty() ? ttsT : ttsU, "s");
  result.timing("sustained_mcups", mcups, "Mcell/s");
  result.queryLatencies(queryUs);

  if (opts.trace) {
    spanMetrics(result, tracer,
                {"mesh.generate", "mesh.partition", "io.md5", "rupture.run",
                 "source.prepare", "core.solver_run", "analysis.pgvh_gather",
                 "workflow.transfer"},
                tracedReps);
    const double rupS = result.metrics["rupture.run_s"].value;
    result.value("rupture.ns_per_cell_step",
                 rupS * ranks * 1e9 / (rupCells * g.dfrSteps), "ns");
    telemetryMetrics(result, session, ranks, tracedReps);
    overheadMetric(result, ttsU, ttsT);
    const KernelProbeSpec probe{g.dims, ranks, g.h, false};
    probeHost(result, opts.smoke);
    probeKernels(result, probe, opts.smoke);
    probeHalo(result, probe, opts.smoke);
    zeroMetrics(result, {{"core.solver_setup_s", "s"}});
    zeroMetrics(result, kCycleMetrics);
    zeroMetrics(result, kSchedMetrics);
    zeroMetrics(result, kServeMetrics);
  }
  return result;
}

}  // namespace perfbench
