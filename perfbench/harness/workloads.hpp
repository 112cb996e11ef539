#pragma once
// The three benchmark workloads. Each repeats its unit of work until the
// run's time budget is spent and returns end-to-end metrics (untraced
// repetitions) and, in a traced run, per-layer metrics (traced
// repetitions, alternated with untraced ones so the tracing overhead is
// measured in the same process).

#include <functional>
#include <memory>

#include "common.hpp"
#include "analysis/products.hpp"
#include "telemetry/registry.hpp"

namespace perfbench {

Result runM8Pipeline(const Options& opts, Tracer& tracer);
Result runWaveAttenuated(const Options& opts, Tracer& tracer);
Result runHazardService(const Options& opts, Tracer& tracer);

struct Repetitions {
  int count = 0;
  // Peak resident set once the first repetition has finished: set-up plus
  // one unit of work, independent of how many repetitions fit the budget.
  double firstPeakRssMb = 0.0;
};

// Repetition loop: calls rep(index, traced) until opts.seconds elapse,
// predicting from the previous repetition whether another still fits.
// Untraced runs make at least one repetition; traced runs alternate
// untraced/traced and make at least one of each. Smoke runs make exactly
// that minimum (`extra` more, e.g. for an injected-fault repetition).
// Traced repetitions run with the tracer enabled and `session` installed.
Repetitions repeatFor(const Options& opts, Tracer& tracer,
                      awp::telemetry::Session* session,
                      const std::function<void(int, bool)>& rep,
                      int extra = 0);

// Records the repetition count and peak_rss_mb into `out`.
void recordRepetitions(Result& out, const Repetitions& reps);

// Per-layer metrics read from the telemetry session: phase.<name>_s self
// time summed over every slot, core.rank_imbalance over the given rank
// slots, and the io.* counters; every value divided by `reps`.
void telemetryMetrics(Result& out, const awp::telemetry::Session& session,
                      int rankSlots, int reps);

// Benchmark-side span self times, divided by `reps`, as <name>_s metrics.
void spanMetrics(Result& out, const Tracer& tracer,
                 const std::vector<std::string>& names, int reps);

// Per-layer metric names of the layers only some workloads call.
extern const std::vector<std::pair<std::string, std::string>> kCycleMetrics;
extern const std::vector<std::pair<std::string, std::string>> kSchedMetrics;
extern const std::vector<std::pair<std::string, std::string>> kServeMetrics;
extern const std::vector<std::pair<std::string, std::string>> kMeshMetrics;
extern const std::vector<std::pair<std::string, std::string>> kM8StageMetrics;

// Zero-valued per-layer metrics for layers a workload never calls, so
// every workload prints the same names and absence reads as 0.
void zeroMetrics(Result& out,
                 const std::vector<std::pair<std::string, std::string>>& m);

// The read of m8's and wave's surface product: readSurfaceSnapshot of
// each sampled step in turn, i.e. the velocity-magnitude frames of the
// Fig 22-style wavefield movie (the dPDA products). Each frame read is one
// query. Whole passes over the record are made until kFrameReads frames
// are read, the fewest for which a repetition's p99 has ten samples
// beyond it. Latencies go to `latencies` when that is non-null; every read
// counts as attempted, and fails when it throws or reads a non-finite
// value.
constexpr std::size_t kFrameReads = 1000;
void frameReads(Result& out, Samples* latencies, const std::string& path,
                const awp::analysis::SurfaceLayout& layout);

// telemetry.overhead_frac: traced over untraced time-to-solution medians.
void overheadMetric(Result& out, const Samples& untraced,
                    const Samples& traced);

}  // namespace perfbench
