#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>

#include "workloads.hpp"

namespace perfbench {

namespace at = awp::telemetry;

const std::vector<std::pair<std::string, std::string>> kCycleMetrics = {
    {"cycle.kernel_us_per_apply", "us"}, {"cycle.sequence_s", "s"},
    {"cycle.steps", "count"}, {"cycle.events", "count"}};
const std::vector<std::pair<std::string, std::string>> kSchedMetrics = {
    {"sched.queue_max_s", "s"},       {"sched.wave_run_p50_s", "s"},
    {"sched.rupture_run_p50_s", "s"}, {"sched.cache_hit_ratio", "ratio"},
    {"sched.duplicate_submissions", "count"}, {"sched.retries", "count"}};
const std::vector<std::pair<std::string, std::string>> kServeMetrics = {
    {"serve.publish_us", "us"},
    {"serve.window_publishes", "count"},
    {"serve.stored_over_logical", "ratio"},
    {"serve.tiles_scanned_per_query", "count"}};
const std::vector<std::pair<std::string, std::string>> kMeshMetrics = {
    {"mesh.generate_s", "s"}, {"mesh.partition_s", "s"}, {"io.md5_s", "s"}};
const std::vector<std::pair<std::string, std::string>> kM8StageMetrics = {
    {"source.prepare_s", "s"},
    {"analysis.pgvh_gather_s", "s"},
    {"workflow.transfer_s", "s"},
    {"workflow.bytes_moved", "B"},
    {"rupture.ns_per_cell_step", "ns"}};

Repetitions repeatFor(const Options& opts, Tracer& tracer,
                      at::Session* session,
                      const std::function<void(int, bool)>& rep, int extra) {
  const int minimum = (opts.trace ? 2 : 1) + extra;
  const double start = nowSeconds();
  double last = 0.0;
  int done = 0;
  Repetitions reps;
  for (;;) {
    if (done >= minimum) {
      if (opts.smoke) break;
      // Stop when the next repetition would overrun the budget.
      if (nowSeconds() - start + last > opts.seconds) break;
    }
    const bool traced = opts.trace && done % 2 == 1;
    tracer.setIteration(done);
    tracer.setEnabled(traced);
    const double t0 = nowSeconds();
    {
      std::optional<at::ScopedSession> scoped;
      if (traced && session != nullptr) scoped.emplace(*session);
      rep(done, traced);
    }
    tracer.setEnabled(false);
    last = nowSeconds() - t0;
    if (done == 0) reps.firstPeakRssMb = peakRssMb();
    ++done;
  }
  reps.count = done;
  return reps;
}

void recordRepetitions(Result& out, const Repetitions& reps) {
  out.repetitions = reps.count;
  out.value("peak_rss_mb", reps.firstPeakRssMb, "MiB");
}

void telemetryMetrics(Result& out, const at::Session& session, int rankSlots,
                      int reps) {
  const double div = std::max(reps, 1);
  const int slots = session.nranks() + 1;  // + the off-rank slot
  for (std::size_t p = 0; p < at::kPhaseCount; ++p) {
    double ns = 0.0;
    for (int s = 0; s < slots; ++s)
      ns += static_cast<double>(
          session.slot(s).phaseNs(static_cast<at::Phase>(p)));
    out.value("phase." + std::string(at::kPhaseJsonNames[p]) + "_s",
              ns * 1e-9 / div, "s");
  }
  double maxBusy = 0.0, sumBusy = 0.0;
  for (int s = 0; s < rankSlots; ++s) {
    double busy = 0.0;
    for (std::size_t p = 0; p < at::kPhaseCount; ++p)
      busy += static_cast<double>(
          session.slot(s).phaseNs(static_cast<at::Phase>(p)));
    maxBusy = std::max(maxBusy, busy);
    sumBusy += busy;
  }
  out.value("core.rank_imbalance",
            sumBusy > 0.0 ? maxBusy / (sumBusy / rankSlots) : 0.0, "ratio");

  auto counter = [&](at::Counter c) {
    double v = 0.0;
    for (int s = 0; s < slots; ++s)
      v += static_cast<double>(session.slot(s).counterValue(c));
    return v / div;
  };
  auto phase = [&](at::Phase p) {
    double ns = 0.0;
    for (int s = 0; s < slots; ++s)
      ns += static_cast<double>(session.slot(s).phaseNs(p));
    return ns * 1e-9 / div;
  };
  out.value("io.output_s", phase(at::Phase::Output), "s");
  out.value("io.checkpoint_s", phase(at::Phase::Checkpoint), "s");
  out.value("io.checkpoint_bytes", counter(at::Counter::CheckpointBytes), "B");
  out.value("core.cells_updated", counter(at::Counter::CellsUpdated),
            "count");
}

void spanMetrics(Result& out, const Tracer& tracer,
                 const std::vector<std::string>& names, int reps) {
  const auto self = tracer.selfSeconds();
  const double div = std::max(reps, 1);
  for (const std::string& name : names) {
    const auto it = self.find(name);
    out.value(name + "_s", it == self.end() ? 0.0 : it->second / div, "s");
  }
}

void zeroMetrics(Result& out,
                 const std::vector<std::pair<std::string, std::string>>& m) {
  for (const auto& [name, unit] : m) out.value(name, 0.0, unit);
}

void frameReads(Result& out, Samples* latencies, const std::string& path,
                const awp::analysis::SurfaceLayout& layout) {
  const std::size_t samples =
      layout.sampleCount(std::filesystem::file_size(path));
  if (samples == 0) {
    ++out.attempted;
    ++out.failed;
    return;
  }
  const std::size_t reads = (kFrameReads + samples - 1) / samples * samples;
  for (std::size_t r = 0; r < reads; ++r) {
    const std::size_t s = r % samples;
    ++out.attempted;
    try {
      const double t0 = nowSeconds();
      const auto frame = awp::analysis::readSurfaceSnapshot(path, layout, s);
      const double t1 = nowSeconds();
      if (latencies != nullptr) latencies->add((t1 - t0) * 1e6);
      bool finite = frame.size() == layout.gnx * layout.gny;
      for (float v : frame) finite = finite && std::isfinite(v);
      if (!finite) ++out.failed;
    } catch (const std::exception&) {
      ++out.failed;
    }
  }
}

void overheadMetric(Result& out, const Samples& untraced,
                    const Samples& traced) {
  const double u = untraced.median();
  out.value("telemetry.overhead_frac",
            u > 0.0 ? traced.median() / u - 1.0 : 0.0, "ratio");
}

}  // namespace perfbench
