// hazard_service: one ScenarioService publishing through a ProductServer,
// fed by a seeded earthquake-cycle sequence (bridged into high-priority
// rupture scenarios) and a routine wave ensemble in which about one spec
// in four repeats an earlier one, while one closed-loop client issues
// exceedance queries beside the tile-publish writes. Exercises cycle,
// sched and serve, including the cache, coalescing and priority paths.
//
// Busy threads: the service's rank threads (coreBudget = ranks - 2), the
// cycle thread and the query client; the submitting main thread and the
// dispatcher only wait.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <thread>

#include "cycle/bridge.hpp"
#include "cycle/solver.hpp"
#include "fault/injector.hpp"
#include "probes.hpp"
#include "sched/service.hpp"
#include "serve/layout.hpp"
#include "serve/server.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace awp;

namespace {

constexpr int kPostSettleQueries = 600;
constexpr int kBruteForceQueries = 8;

struct Sizes {
  grid::GridDims dims{48, 32, 16};
  int ensemble = 16;
  std::size_t cycleNx = 96, cycleNz = 24;
  int cycleEvents = 3;
  double cycleYears = 60.0;
};

cycle::CycleConfig cycleConfig(const Sizes& s, std::uint64_t seed) {
  cycle::CycleConfig c;
  c.nx = s.cycleNx;
  c.nz = s.cycleNz;
  c.cell = 500.0;
  c.friction.L = 0.005;
  c.interaction = 0.05;
  c.stencilRadius = 6;
  c.vpl = 1.0e-8;
  c.heterogeneity = 0.3;
  c.corrX = 4000.0;
  c.corrZ = 2000.0;
  c.seed = seed;
  c.years = s.cycleYears;
  c.maxEvents = s.cycleEvents;
  return c;
}

// The routine ensemble: a seeded order of a fixed set of run lengths (so
// every seed asks for the same total work), seeded source strengths, and
// every fourth submission a repeat of a seeded earlier spec (a renamed
// duplicate that the cache or in-flight coalescing must absorb).
std::vector<sched::ScenarioSpec> ensembleFor(const Sizes& s, SeedRng& rng,
                                             int& duplicates) {
  const int unique = s.ensemble - s.ensemble / 4;
  std::vector<std::uint64_t> steps;
  for (int i = 0; i < unique; ++i)
    steps.push_back(30 + static_cast<std::uint64_t>(30 * i / std::max(1, unique - 1)));
  for (std::size_t i = steps.size(); i > 1; --i)
    std::swap(steps[i - 1], steps[rng.range(0, i - 1)]);
  std::vector<sched::ScenarioSpec> specs;
  duplicates = 0;
  for (int i = 0; i < s.ensemble; ++i) {
    sched::ScenarioSpec spec;
    if (i % 4 == 3) {
      spec = specs[rng.range(0, specs.size() - 1)];
      ++duplicates;
    } else {
      spec.kind = sched::ScenarioKind::Wave;
      spec.dims = s.dims;
      spec.h = 600.0;
      spec.nranks = 2;
      spec.steps = steps.back();
      steps.pop_back();
      spec.sourceAmplitude = 1.0e14 * static_cast<double>(rng.range(1, 100));
      spec.useCvm = true;
    }
    spec.name = "ensemble-" + std::to_string(i);
    spec.priority = 0;
    specs.push_back(spec);
  }
  return specs;
}

serve::ExceedanceQuery makeQuery(SeedRng& rng, const Sizes& s,
                                 const std::vector<std::string>& digests) {
  serve::ExceedanceQuery q;
  q.digests = digests;
  static const float kThresholds[] = {1.0e-9f, 1.0e-7f, 1.0e-5f};
  q.threshold = kThresholds[rng.range(0, 2)];
  if (rng.range(0, 3) == 0) {
    q.extent = serve::Extent{0, 0, s.dims.nx, s.dims.ny};  // full map
  } else {
    const std::size_t w = rng.range(4, 16), h = rng.range(4, 12);
    const std::size_t x0 = rng.range(0, s.dims.nx - w);
    const std::size_t y0 = rng.range(0, s.dims.ny - h);
    q.extent = serve::Extent{x0, y0, x0 + w, y0 + h};
  }
  return q;
}

struct Service {
  std::unique_ptr<sched::ArtifactCache> tiles;
  std::unique_ptr<serve::ProductServer> server;
  std::unique_ptr<sched::ScenarioService> service;
  std::unique_ptr<cycle::CycleSolver> cycle;
};

Service startService(const fs::path& dir, int budget,
                     const cycle::CycleConfig& cc) {
  Service s;
  s.tiles = std::make_unique<sched::ArtifactCache>();
  serve::ServeConfig scfg;
  scfg.tileEdge = 16;
  scfg.windowSamples = 4;
  s.server = std::make_unique<serve::ProductServer>(s.tiles.get(), scfg);
  sched::ServiceConfig cfg;
  cfg.coreBudget = budget;
  cfg.queueCapacity = 64;
  cfg.admitPolicy = sched::AdmissionQueue::AdmitPolicy::Block;
  cfg.workDir = dir.string();
  cfg.publisher = s.server.get();
  cfg.dispatcherTelemetrySlot = budget;  // private span lane
  s.service = std::make_unique<sched::ScenarioService>(cfg);
  s.cycle = std::make_unique<cycle::CycleSolver>(cc);
  return s;
}

// Pin the calling thread to its own telemetry lane (slot `slot` of the
// installed session), so concurrent non-rank threads never share one.
void claimLane(int slot) {
  fault::setThreadRank(0);
  telemetry::setThreadSlotBase(slot);
  telemetry::resetThreadSpans();
}

std::vector<float> canonicalMap(const sched::ScenarioProducts& products,
                                const sched::ScenarioSpec& spec) {
  std::vector<float> map(spec.dims.nx * spec.dims.ny, 0.0f);
  const sched::ArtifactBlob* blob = products.find("pgvh.bin");
  if (blob == nullptr || blob->bytes.size() != map.size() * sizeof(float))
    return {};
  std::vector<float> record(map.size());
  std::memcpy(record.data(), blob->bytes.data(), blob->bytes.size());
  const serve::SurfaceLayout layout(spec.dims.nx, spec.dims.ny, spec.dims.nz,
                                    spec.nranks);
  layout.recordToRowMajor(record.data(), map.data());
  return map;
}

}  // namespace

Result runHazardService(const Options& opts, Tracer& tracer) {
  Sizes sizes;
  if (opts.smoke) {
    sizes.ensemble = 4;
    sizes.cycleNx = 24;
    sizes.cycleNz = 8;
    sizes.cycleEvents = 1;
    sizes.cycleYears = 40.0;
  }
  // One rank thread each is taken by the cycle engine and the client.
  const int budget = std::max(1, opts.ranks - 2);
  const int lanes = budget + 3;  // ranks, dispatcher, cycle, client
  const fs::path work = fs::path(opts.workDir) / "hazard";
  const cycle::CycleConfig cc = cycleConfig(sizes, opts.seed);
  cycle::BridgeConfig bridge;
  bridge.h = 600.0;
  bridge.steps = 16;
  bridge.nranks = std::min(2, budget);
  bridge.priority = 5;

  Result result;
  Samples setupS, ttsU, ttsT, mcups;
  std::vector<Samples> queryUs;
  Samples waveRun, ruptureRun, queueMax, kernelUs;
  double retries = 0, hitsAndCoalesced = 0, duplicatesTotal = 0;
  double windowPublishes = 0, stored = 0, logical = 0;
  double queries = 0, tilesScanned = 0, cycleSteps = 0, cycleEvents = 0;
  double publishes = 0, waveRunSum = 0, ruptureRunSum = 0;
  telemetry::Session session({lanes, std::size_t{1} << 16});
  int tracedReps = 0;

  auto rep = [&](int index, bool traced) {
    SeedRng rng(opts.seed * 1000003);
    fs::remove_all(work);
    // Service start-up is cheap, so each untraced repetition also
    // measures one extra start-up, outside the time to solution.
    if (!traced) {
      const double t0 = nowSeconds();
      Service s = startService(work / "warm", budget, cc);
      setupS.add(nowSeconds() - t0);
      s.service->shutdown();
    }
    const double s0 = nowSeconds();
    Service svc = startService(work / "svc", budget, cc);
    setupS.add(nowSeconds() - s0);

    int duplicates = 0;
    const auto specs = ensembleFor(sizes, rng, duplicates);
    std::vector<std::string> digests;
    for (const auto& spec : specs) {
      const std::string h = spec.hashHex();
      if (std::find(digests.begin(), digests.end(), h) == digests.end())
        digests.push_back(h);
    }

    std::atomic<bool> settled{false};
    std::atomic<std::uint64_t> queryFailures{0}, queryCount{0};
    std::vector<double> latencies;
    std::uint64_t scanned = 0;
    cycle::CycleRunSummary summary;
    cycle::CycleCatalog catalog;
    std::string cycleError;

    const double t0 = nowSeconds();
    std::thread cycleThread([&] {
      if (traced) claimLane(budget + 1);
      try {
        {
          auto s = tracer.span("cycle.sequence");
          summary = svc.cycle->run();
        }
        auto s = tracer.span("cycle.bridge");
        catalog = cycle::submitCatalog(*svc.service, cc, summary,
                                       svc.cycle->events(), bridge);
      } catch (const std::exception& e) {
        cycleError = e.what();
      }
    });
    SeedRng clientRng(opts.seed * 7877);
    std::thread client([&] {
      if (traced) claimLane(budget + 2);
      // Reads start with the first published tile, then run beside the
      // remaining publishes.
      while (!settled.load()) {
        const serve::ServerStats st = svc.server->stats();
        if (st.windowPublishes + st.completionPublishes > 0) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      int after = 0;
      while (after < kPostSettleQueries) {
        if (settled.load()) ++after;
        const auto query = makeQuery(clientRng, sizes, digests);
        const double q0 = nowSeconds();
        try {
          const auto res = svc.server->exceedance(query);
          scanned += res.tilesScanned;
        } catch (const std::exception&) {
          ++queryFailures;
        }
        latencies.push_back((nowSeconds() - q0) * 1e6);
        ++queryCount;
      }
    });

    std::vector<sched::JobHandle> jobs;
    int notCompleted = 0;
    try {
      for (const auto& spec : specs) jobs.push_back(svc.service->submit(spec));
      for (const auto& job : jobs)
        if (job->wait() != sched::JobPhase::Completed) ++notCompleted;
    } catch (...) {
      settled.store(true);
      cycleThread.join();
      client.join();
      throw;
    }
    cycleThread.join();
    const double tts = nowSeconds() - t0;
    settled.store(true);
    client.join();

    const std::size_t bridged = catalog.rows.size();
    result.attempted += jobs.size() + bridged + queryCount.load();
    result.failed += static_cast<std::uint64_t>(notCompleted) +
                     queryFailures.load();
    for (const auto& row : catalog.rows)
      if (row.phase != "completed") ++result.failed;
    if (!cycleError.empty()) {
      ++result.attempted;
      ++result.failed;
    }

    // Correctness: every scenario completed, at least one cycle event
    // bridged (so the cycle -> bridge -> priority rupture path ran), one
    // catalog row per detected event, and sampled exceedance answers equal
    // a brute-force fold of the canonical pgvh.bin products.
    bool rowsOk = cycleError.empty() && summary.eventsDetected >= 1 &&
                  bridged == static_cast<std::size_t>(summary.eventsDetected) &&
                  svc.cycle->events().size() == bridged;
    for (const auto& row : catalog.rows)
      rowsOk = rowsOk && row.phase == "completed";
    result.check("hazard.all_completed", notCompleted == 0 && rowsOk,
                 std::to_string(jobs.size()) + " ensemble jobs, " +
                     std::to_string(bridged) + " catalog rows for " +
                     std::to_string(summary.eventsDetected) +
                     " detected events (rep " + std::to_string(index) + ")");

    std::map<std::string, std::vector<float>> maps;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (maps.count(jobs[i]->hash) != 0) continue;
      std::lock_guard<std::mutex> lock(jobs[i]->mutex);
      maps[jobs[i]->hash] = canonicalMap(jobs[i]->products, specs[i]);
    }
    bool bruteOk = true;
    SeedRng checkRng(opts.seed * 31);
    for (int k = 0; k < kBruteForceQueries && bruteOk; ++k) {
      const auto query = makeQuery(checkRng, sizes, digests);
      const auto res = svc.server->exceedance(query);
      const auto& e = query.extent;
      bruteOk = res.width == e.width() && res.height == e.height();
      for (std::size_t y = e.y0; y < e.y1 && bruteOk; ++y)
        for (std::size_t x = e.x0; x < e.x1 && bruteOk; ++x) {
          float want = 0.0f;
          std::uint32_t count = 0;
          for (const auto& d : digests) {
            const auto& m = maps[d];
            if (m.empty()) {
              bruteOk = false;
              break;
            }
            const float v = m[x + sizes.dims.nx * y];
            want = std::max(want, v);
            if (v > query.threshold) ++count;
          }
          const std::size_t at = (x - e.x0) + res.width * (y - e.y0);
          bruteOk = bruteOk && res.maxOver[at] == want &&
                    res.exceedCount[at] == count;
        }
    }
    result.check("hazard.exceedance_matches_brute_force", bruteOk,
                 std::to_string(kBruteForceQueries) +
                     " sampled queries against canonical pgvh.bin folds (rep " +
                     std::to_string(index) + ")");

    svc.service->shutdown();
    const sched::ServiceReport report = svc.service->report();

    (traced ? ttsT : ttsU).add(tts);
    double waveCells = 0.0;
    std::vector<double> waveRuns, ruptureRuns;
    for (const auto& row : report.jobs) {
      if (row.cacheHit || row.coalesced || row.phase != "completed") continue;
      if (row.kind == "wave") waveRuns.push_back(row.runSeconds);
      else ruptureRuns.push_back(row.runSeconds);
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      std::lock_guard<std::mutex> lock(jobs[i]->mutex);
      if (!jobs[i]->cacheHit && !jobs[i]->coalesced)
        waveCells += static_cast<double>(specs[i].dims.count()) *
                     static_cast<double>(specs[i].steps);
    }
    if (!traced) {
      mcups.add(waveCells / tts / 1e6);
      queryUs.push_back(Samples{std::move(latencies)});
      return;
    }
    ++tracedReps;
    for (double v : waveRuns) waveRun.add(v);
    for (double v : ruptureRuns) ruptureRun.add(v);
    waveRunSum += std::accumulate(waveRuns.begin(), waveRuns.end(), 0.0);
    ruptureRunSum +=
        std::accumulate(ruptureRuns.begin(), ruptureRuns.end(), 0.0);
    queueMax.add(report.queueLatencyMax);
    retries += static_cast<double>(report.retries);
    hitsAndCoalesced += static_cast<double>(report.cacheHits + report.coalesced);
    duplicatesTotal += duplicates;
    const serve::ServerStats st = svc.server->stats();
    windowPublishes += static_cast<double>(st.windowPublishes);
    publishes += static_cast<double>(st.windowPublishes + st.completionPublishes);
    const sched::CacheStats cs = svc.tiles->stats();
    stored += static_cast<double>(cs.storedBytes);
    logical += static_cast<double>(cs.logicalBytes);
    queries += static_cast<double>(queryCount.load());
    tilesScanned += static_cast<double>(scanned);
    cycleSteps += static_cast<double>(summary.steps);
    cycleEvents += summary.eventsDetected;

    // The stiffness kernel alone, on this sequence's fault.
    std::vector<double> v(cc.nx * cc.nz, 2.0e-9), rate(cc.nx * cc.nz);
    const int applies = opts.smoke ? 20 : 200;
    const double k0 = nowSeconds();
    for (int a = 0; a < applies; ++a)
      svc.cycle->kernel().stressingRate(v, cc.vpl, rate);
    kernelUs.add((nowSeconds() - k0) * 1e6 / applies);
  };

  recordRepetitions(
      result, repeatFor(opts, tracer, &session, rep));
  fs::remove_all(work);

  result.timing("setup_s", setupS, "s");
  result.timing("time_to_solution_s", ttsU.empty() ? ttsT : ttsU, "s");
  result.timing("sustained_mcups", mcups, "Mcell/s");
  result.queryLatencies(queryUs);

  if (opts.trace) {
    const double reps = std::max(tracedReps, 1);
    spanMetrics(result, tracer, {"cycle.sequence"}, tracedReps);
    result.value("cycle.kernel_us_per_apply", kernelUs.median(), "us");
    result.value("cycle.steps", cycleSteps / reps, "count");
    result.value("cycle.events", cycleEvents / reps, "count");
    result.value("sched.queue_max_s", queueMax.median(), "s");
    result.value("sched.wave_run_p50_s", waveRun.median(), "s");
    result.value("sched.rupture_run_p50_s", ruptureRun.median(), "s");
    result.value("sched.cache_hit_ratio",
                 duplicatesTotal > 0 ? hitsAndCoalesced / duplicatesTotal : 0,
                 "ratio");
    result.value("sched.duplicate_submissions", duplicatesTotal / reps,
                 "count");
    result.value("sched.retries", retries / reps, "count");
    result.value("rupture.run_s", ruptureRunSum / reps, "s");
    result.value("core.solver_run_s", waveRunSum / reps, "s");
    telemetryMetrics(result, session, budget, tracedReps);
    const double publishS =
        result.metrics["phase.serve_publish_s"].value * reps;
    result.value("serve.publish_us",
                 publishes > 0 ? publishS / publishes * 1e6 : 0.0, "us");
    result.value("serve.window_publishes", windowPublishes / reps, "count");
    result.value("serve.stored_over_logical",
                 logical > 0 ? stored / logical : 0.0, "ratio");
    result.value("serve.tiles_scanned_per_query",
                 queries > 0 ? tilesScanned / queries : 0.0, "count");
    overheadMetric(result, ttsU, ttsT);
    const KernelProbeSpec probe{sizes.dims, 2, 600.0, false};
    probeHost(result, opts.smoke);
    probeKernels(result, probe, opts.smoke);
    probeHalo(result, probe, opts.smoke);
    zeroMetrics(result, kMeshMetrics);
    zeroMetrics(result, kM8StageMetrics);
    zeroMetrics(result, {{"core.solver_setup_s", "s"}});
  }
  return result;
}

}  // namespace perfbench
