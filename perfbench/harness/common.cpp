#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cpuid.h>
#include <cstring>
#include <fstream>
#include <sstream>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

#include "telemetry/json.hpp"
#include "util/stats.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::uint64_t SeedRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t SeedRng::range(std::uint64_t lo, std::uint64_t hi) {
  return lo + next() % (hi - lo + 1);
}

double SeedRng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Samples::median() const {
  return values.empty() ? 0.0 : awp::median(values);
}

double tailPercentileRank(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0})
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  return 0.0;
}

double percentileOf(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : awp::percentile(values, p);
}

void Result::timing(const std::string& name, const Samples& s,
                    const std::string& unit, double scale) {
  Metric m;
  m.unit = unit;
  m.n = s.values.size();
  m.median = s.median() * scale;
  m.tailP = tailPercentileRank(m.n);
  if (m.tailP > 0.0) m.tail = percentileOf(s.values, m.tailP) * scale;
  m.value = m.median;
  metrics[name] = m;
}

void Result::queryLatencies(const std::vector<Samples>& perRepetition) {
  Samples pooled, p50, p99;
  for (const Samples& rep : perRepetition) {
    if (rep.empty()) continue;
    pooled.values.insert(pooled.values.end(), rep.values.begin(),
                         rep.values.end());
    p50.add(percentileOf(rep.values, 50.0));
    p99.add(percentileOf(rep.values, 99.0));
  }
  timing("query_p50_us", pooled, "us");
  metrics["query_p50_us"].value = p50.median();
  timing("query_p99_us", pooled, "us");
  metrics["query_p99_us"].value = p99.median();
}

void Result::value(const std::string& name, double v,
                   const std::string& unit) {
  Metric m;
  m.value = v;
  m.unit = unit;
  metrics[name] = m;
}

void Result::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks.push_back(Check{name, ok, detail});
}

// --- tracer ---------------------------------------------------------------

namespace {
thread_local std::vector<int> tlsStack;
std::atomic<int> nextThreadId{0};
thread_local int tlsThreadId = nextThreadId.fetch_add(1);
}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer::Scope::Scope(Tracer* tracer, const char* name) {
  if (tracer != nullptr && tracer->enabled()) {
    tracer_ = tracer;
    index_ = tracer->open(name);
  }
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

void Tracer::setIteration(int iteration) {
  std::lock_guard<std::mutex> lock(mu_);
  iteration_ = iteration;
}

int Tracer::open(const char* name) {
  const auto t = std::chrono::steady_clock::now() - epoch_;
  Span s;
  s.name = name;
  s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(t).count();
  s.parent = tlsStack.empty() ? -1 : tlsStack.back();
  s.thread = tlsThreadId;
  std::lock_guard<std::mutex> lock(mu_);
  s.iteration = iteration_;
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  tlsStack.push_back(index);
  return index;
}

void Tracer::close(int index) {
  const auto t = std::chrono::steady_clock::now() - epoch_;
  tlsStack.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].endNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t).count();
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::int64_t> childNs(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0 && s.endNs >= 0)
      childNs[static_cast<std::size_t>(s.parent)] += s.endNs - s.startNs;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.endNs < 0) continue;
    self[s.name] += static_cast<double>(s.endNs - s.startNs - childNs[i]) *
                    1e-9;
  }
  return self;
}

void Tracer::writeJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\""
        << awp::telemetry::escapeJson(s.name) << "\",\"start_ns\":"
        << s.startNs << ",\"end_ns\":" << s.endNs
        << ",\"parent\":" << s.parent << ",\"iteration\":" << s.iteration
        << ",\"thread\":" << s.thread << "}\n";
  }
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

// --- host ---------------------------------------------------------------

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

unsigned hostThreads() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

std::size_t lastLevelCacheBytes() {
  // glibc answers these from CPUID; the figure is one instance, so a
  // multi-socket host would under-count (this harness targets one socket).
  for (int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 0;
}

namespace {

std::string cpuModel() {
  unsigned regs[12] = {};
  unsigned maxExt = __get_cpuid_max(0x80000000u, nullptr);
  if (maxExt < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char text[49] = {};
  std::memcpy(text, regs, 48);
  std::string s(text);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

std::string isaFlags() {
  std::string out;
  auto add = [&out](bool has, const char* name) {
    if (!has) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
  __builtin_cpu_init();
  add(__builtin_cpu_supports("sse4.2"), "sse4_2");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx512bw"), "avx512bw");
  add(__builtin_cpu_supports("avx512vl"), "avx512vl");
  return out;
}

std::string q(const std::string& s) {
  return "\"" + awp::telemetry::escapeJson(s) + "\"";
}

}  // namespace

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string fingerprintJson() {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::ostringstream os;
  os << "{\"cpu_model\":" << q(cpuModel()) << ",\"isa\":" << q(isaFlags())
     << ",\"nproc\":" << hostThreads()
     << ",\"l1d_bytes\":" << sysconf(_SC_LEVEL1_DCACHE_SIZE)
     << ",\"l2_bytes\":" << sysconf(_SC_LEVEL2_CACHE_SIZE)
     << ",\"l3_bytes\":" << sysconf(_SC_LEVEL3_CACHE_SIZE)
#if defined(__clang__)
     << ",\"compiler\":" << q(std::string("clang ") + __clang_version__)
#else
     << ",\"compiler\":" << q(std::string("gcc ") + __VERSION__)
#endif
     << ",\"build_type\":" << q(PERFBENCH_BUILD_TYPE)
     << ",\"cxx_flags\":" << q(PERFBENCH_CXX_FLAGS)
     << ",\"ndebug\":" << (ndebug ? "true" : "false") << "}";
  return os.str();
}

}  // namespace perfbench
