// perfbench: the repository's benchmark harness. One process drives one
// workload through the public functions of each module, checks its
// outputs, and prints one JSON document as its last line (run.py turns it
// into the benchmark's one-line result).
//
//   perfbench --workload <m8_pipeline|wave_attenuated|hazard_service>
//             --seed <n> --seconds <s> --trace <0|1> --work <dir>
//             [--smoke] [--inject-fault]

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "telemetry/json.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds "
               "<s> --trace <0|1> --work <dir> [--smoke] [--inject-fault]\n";
  return 2;
}

std::string q(const std::string& s) {
  return "\"" + awp::telemetry::escapeJson(s) + "\"";
}

std::string render(const Options& opts, const Result& r,
                   const std::string& spanFile, std::size_t spans) {
  std::ostringstream os;
  os << "{\"workload\":" << q(opts.workload) << ",\"seed\":" << opts.seed
     << ",\"trace\":" << (opts.trace ? 1 : 0)
     << ",\"smoke\":" << (opts.smoke ? "true" : "false")
     << ",\"ranks\":" << opts.ranks
     << ",\"fingerprint\":" << fingerprintJson()
     << ",\"repetitions\":" << r.repetitions
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    os << (first ? "" : ",") << q(name) << ":{\"value\":"
       << jsonNumber(m.value) << ",\"unit\":" << q(m.unit);
    if (m.n > 0)
      os << ",\"n\":" << m.n << ",\"median\":" << jsonNumber(m.median)
         << ",\"tail_p\":" << jsonNumber(m.tailP)
         << ",\"tail\":" << jsonNumber(m.tail);
    os << "}";
    first = false;
  }
  os << "},\"checks\":[";
  first = true;
  for (const Check& c : r.checks) {
    os << (first ? "" : ",") << "{\"name\":" << q(c.name)
       << ",\"ok\":" << (c.ok ? "true" : "false")
       << ",\"detail\":" << q(c.detail) << "}";
    first = false;
  }
  os << "],\"observed\":[";
  for (std::size_t i = 0; i < r.observed.size(); ++i) {
    os << (i == 0 ? "{" : ",{");
    first = true;
    for (const auto& [name, v] : r.observed[i].values) {
      os << (first ? "" : ",") << q(name) << ":" << jsonNumber(v);
      first = false;
    }
    for (const auto& [name, v] : r.observed[i].texts) {
      os << (first ? "" : ",") << q(name) << ":" << q(v);
      first = false;
    }
    os << "}";
  }
  os << "],\"span_file\":" << q(spanFile) << ",\"spans\":" << spans << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) return {};
      return argv[++i];
    };
    if (a == "--workload") opts.workload = next();
    else if (a == "--seed") opts.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (a == "--seconds") opts.seconds = std::atof(next().c_str());
    else if (a == "--trace") opts.trace = next() == "1";
    else if (a == "--work") opts.workDir = next();
    else if (a == "--smoke") opts.smoke = true;
    else if (a == "--inject-fault") opts.injectFault = true;
    else return usage("unknown argument " + a);
  }
  if (opts.workDir.empty()) return usage("--work is required");
  if (!(opts.seconds > 0.0)) return usage("--seconds must be positive");
  // Never more busy rank threads than the host has processors.
  opts.ranks = static_cast<int>(std::min(4u, hostThreads()));

  Result (*run)(const Options&, Tracer&) = nullptr;
  if (opts.workload == "m8_pipeline") run = runM8Pipeline;
  else if (opts.workload == "wave_attenuated") run = runWaveAttenuated;
  else if (opts.workload == "hazard_service") run = runHazardService;
  else return usage("unknown workload '" + opts.workload + "'");

  std::filesystem::remove_all(opts.workDir);
  std::filesystem::create_directories(opts.workDir);
  Tracer tracer;
  Result result;
  try {
    result = run(opts, tracer);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: workload aborted: " << e.what() << "\n";
    std::filesystem::remove_all(opts.workDir);
    return 1;
  }
  result.value("failed_frac",
               result.attempted == 0
                   ? 1.0
                   : static_cast<double>(result.failed) /
                         static_cast<double>(result.attempted),
               "ratio");

  std::string spanFile;
  if (opts.trace) {
    // Beside the per-process work directory, which is removed at exit.
    const auto dir = std::filesystem::path(opts.workDir).parent_path() / "traces";
    std::filesystem::create_directories(dir);
    spanFile = (dir / (opts.workload + "-seed" + std::to_string(opts.seed) +
                       ".spans.jsonl"))
                   .string();
    tracer.writeJsonl(spanFile);
  }
  std::filesystem::remove_all(opts.workDir);
  std::cout << render(opts, result, spanFile, tracer.size()) << std::endl;
  return 0;
}
