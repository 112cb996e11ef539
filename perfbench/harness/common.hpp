#pragma once
// Shared pieces of the benchmark harness: the run options every workload
// receives, sample sets reported as median + tail percentile + count, the
// benchmark-side span tracer, and the result record main.cpp renders.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;        // reduced sizes, one repetition
  bool injectFault = false;  // schedule one failing operation (smoke test)
  std::string workDir;       // working space inside the checkout
  int ranks = 4;             // rank threads; never above nproc
};

// Deterministic generator for everything the seed drives (splitmix64).
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  // Uniform integer in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi);
  double uniform();  // [0, 1)

 private:
  std::uint64_t state_;
};

double nowSeconds();  // steady clock

// Repeated measurements of one quantity.
struct Samples {
  std::vector<double> values;
  void add(double v) { values.push_back(v); }
  [[nodiscard]] bool empty() const { return values.empty(); }
  [[nodiscard]] double median() const;
};

// The highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond
// it (0 when there are fewer than 40 samples).
double tailPercentileRank(std::size_t n);
double percentileOf(const std::vector<double>& values, double p);

struct Metric {
  double value = 0.0;
  std::string unit;
  // Timings: the sample distribution behind `value` (empty otherwise).
  std::size_t n = 0;
  double median = 0.0;
  double tailP = 0.0;      // percentile rank of `tail` (0 = not enough)
  double tail = 0.0;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

// Outputs of one successful repetition. run.py compares every one with
// reference.json within the stated tolerances.
struct Observation {
  std::map<std::string, double> values;
  std::map<std::string, std::string> texts;
};

struct Result {
  std::map<std::string, Metric> metrics;
  std::vector<Observation> observed;  // one per successful repetition
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int repetitions = 0;

  void timing(const std::string& name, const Samples& s,
              const std::string& unit, double scale = 1.0);
  // query_p50_us / query_p99_us: the median over repetitions of each
  // repetition's percentile, so one repetition hit by host contention
  // does not move the figure; n, median and tail describe all samples.
  void queryLatencies(const std::vector<Samples>& perRepetition);
  void value(const std::string& name, double v, const std::string& unit);
  void check(const std::string& name, bool ok, const std::string& detail);
};

// Benchmark-side spans around calls into each layer. Disabled tracers
// record nothing; spans are kept in memory and written when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t startNs = 0, endNs = -1;
    int parent = -1;  // index into spans(), -1 = root
    int iteration = 0;
    int thread = 0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    int index_ = -1;
  };

  Tracer();
  // Toggled between repetitions only (no span may be open).
  void setEnabled(bool enabled) { enabled_.store(enabled); }
  [[nodiscard]] bool enabled() const { return enabled_.load(); }
  [[nodiscard]] Scope span(const char* name) { return Scope(this, name); }
  void setIteration(int iteration);
  // Self time per span name: duration minus the part covered by children.
  [[nodiscard]] std::map<std::string, double> selfSeconds() const;
  void writeJsonl(const std::string& path) const;
  [[nodiscard]] std::size_t size() const;

 private:
  int open(const char* name);
  void close(int index);

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int iteration_ = 0;
};

// Peak resident set size of this process [MiB].
double peakRssMb();

// Host and build fingerprint as a JSON object.
std::string fingerprintJson();
// Summed last-level cache size [bytes] (0 when unknown).
std::size_t lastLevelCacheBytes();
unsigned hostThreads();

std::string jsonNumber(double v);

}  // namespace perfbench
