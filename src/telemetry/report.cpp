#include "telemetry/report.hpp"

#include <cstring>
#include <sstream>

#include "telemetry/json.hpp"
#include "util/error.hpp"

namespace awp::telemetry {

namespace {

constexpr double kNsPerSecond = 1e9;

}  // namespace

ClusterReport aggregate(vcluster::Communicator& comm, const Session& session,
                        std::uint64_t step, double wallSeconds) {
  const RankSummary mine = session.slot(comm.rank()).summary();
  const auto payloads = comm.gatherBytes(
      0, std::span<const std::byte>(
             reinterpret_cast<const std::byte*>(&mine), sizeof(mine)));

  ClusterReport report;
  if (comm.rank() != 0) return report;  // !valid(): root-only result

  std::vector<RankSummary> summaries;
  summaries.reserve(payloads.size());
  for (const auto& bytes : payloads) {
    AWP_CHECK(bytes.size() == sizeof(RankSummary));
    RankSummary s;
    std::memcpy(&s, bytes.data(), sizeof(s));
    summaries.push_back(s);
  }
  const int nranks = static_cast<int>(summaries.size());
  AWP_CHECK(nranks > 0);

  report.nranks = nranks;
  report.step = step;
  report.wallSeconds = wallSeconds;

  report.phases.resize(kPhaseCount);
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    PhaseStat& stat = report.phases[p];
    stat.phase = static_cast<Phase>(p);
    double sum = 0.0, replay = 0.0;
    double minV = 0.0, maxV = 0.0;
    int minRank = 0, maxRank = 0;
    for (int r = 0; r < nranks; ++r) {
      const double sec =
          static_cast<double>(summaries[r].phaseNs[p]) / kNsPerSecond;
      replay += static_cast<double>(summaries[r].replayNs[p]) / kNsPerSecond;
      sum += sec;
      if (r == 0 || sec < minV) { minV = sec; minRank = r; }
      if (r == 0 || sec > maxV) { maxV = sec; maxRank = r; }
    }
    (void)minRank;
    stat.sumSeconds = sum;
    stat.minSeconds = minV;
    stat.maxSeconds = maxV;
    stat.meanSeconds = sum / nranks;
    stat.imbalance = stat.meanSeconds > 0.0 ? maxV / stat.meanSeconds : 1.0;
    stat.maxRank = maxRank;
    stat.replaySeconds = replay;
    report.usefulSeconds += stat.meanSeconds;
    report.replaySeconds += replay / nranks;
  }
  report.coverage =
      wallSeconds > 0.0
          ? (report.usefulSeconds + report.replaySeconds) / wallSeconds
          : 0.0;

  // Off-rank work (launcher-thread transfer legs) has no rank to attribute
  // times to, but its counters are real work: fold them into the totals.
  const RankSummary offRank = session.offRankSlot().summary();

  report.counters.resize(kCounterCount);
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    CounterStat& stat = report.counters[c];
    stat.counter = static_cast<Counter>(c);
    for (int r = 0; r < nranks; ++r) {
      const std::uint64_t v = summaries[r].counters[c];
      stat.total += v;
      if (r == 0 || v < stat.min) stat.min = v;
      if (r == 0 || v > stat.max) { stat.max = v; stat.maxRank = r; }
    }
    stat.total += offRank.counters[c];
  }

  for (int r = 0; r < nranks; ++r) {
    report.spansRecorded += summaries[r].spansRecorded;
    report.spansDropped += summaries[r].spansDropped;
  }
  report.spansRecorded += offRank.spansRecorded;
  report.spansDropped += offRank.spansDropped;
  return report;
}

std::string toJson(const ClusterReport& report) {
  JsonWriter w;
  w.beginObject()
      .field("schema", "awp-telemetry-report")
      .field("version", 1)
      .field("nranks", report.nranks)
      .field("step", report.step)
      .field("wall_seconds", report.wallSeconds)
      .field("useful_seconds", report.usefulSeconds)
      .field("replay_seconds", report.replaySeconds)
      .field("coverage", report.coverage)
      .field("spans_recorded", report.spansRecorded)
      .field("spans_dropped", report.spansDropped);
  w.key("phases").beginObject();
  for (const PhaseStat& s : report.phases) {
    w.key(toString(s.phase))
        .beginObject()
        .field("sum_seconds", s.sumSeconds)
        .field("min_seconds", s.minSeconds)
        .field("max_seconds", s.maxSeconds)
        .field("mean_seconds", s.meanSeconds)
        .field("imbalance", s.imbalance)
        .field("max_rank", s.maxRank)
        .field("replay_seconds", s.replaySeconds)
        .endObject();
  }
  w.endObject();
  w.key("counters").beginObject();
  for (const CounterStat& s : report.counters) {
    w.key(toString(s.counter))
        .beginObject()
        .field("total", s.total)
        .field("min", s.min)
        .field("max", s.max)
        .field("max_rank", s.maxRank)
        .endObject();
  }
  w.endObject().endObject();
  return w.str();
}

void writeReportFile(const std::string& path, const ClusterReport& report) {
  AWP_CHECK_MSG(report.valid(), "telemetry: writeReportFile on empty report");
  writeTextAtomically(path, toJson(report));
}

void writeTraceFile(const std::string& path, const RankTelemetry& rankTel) {
  std::ostringstream os;
  for (const SpanRecord& rec : rankTel.traceSnapshot()) {
    os << "{\"rank\": " << rankTel.rank()
       << ", \"phase\": \"" << toString(rec.phase) << "\""
       << ", \"step\": " << rec.step
       << ", \"start_ns\": " << rec.startNs
       << ", \"duration_ns\": " << rec.durationNs
       << ", \"depth\": " << rec.depth
       << ", \"replay\": " << (rec.replay ? "true" : "false") << "}\n";
  }
  writeTextAtomically(path, os.str());
}

namespace {

using Type = JsonField::Type;

constexpr JsonField kRootFields[] = {{"nranks", Type::Number, 1},
                                     {"wall_seconds", Type::Number, 0},
                                     {"useful_seconds", Type::Number, 0},
                                     {"replay_seconds", Type::Number, 0},
                                     {"coverage", Type::Number, 0},
                                     {"step", Type::Number, 0},
                                     {"spans_recorded", Type::Number, 0},
                                     {"spans_dropped", Type::Number, 0}};

// Relative slack for min<=mean<=max comparisons across text round-trips.
constexpr double kEps = 1e-9;

constexpr JsonField kPhaseFields[] = {{"sum_seconds", Type::Number, 0},
                                      {"min_seconds", Type::Number, 0},
                                      {"max_seconds", Type::Number, 0},
                                      {"mean_seconds", Type::Number, 0},
                                      {"replay_seconds", Type::Number, 0},
                                      {"imbalance", Type::Number, 1 - kEps},
                                      {"max_rank", Type::Number, 0}};

constexpr JsonField kCounterFields[] = {{"total", Type::Number, 0},
                                        {"min", Type::Number, 0},
                                        {"max", Type::Number, 0},
                                        {"max_rank", Type::Number, 0}};

// a > b beyond the kEps slack; false when either is NaN.
bool exceeds(double a, double b) { return a > b * (1.0 + kEps) + kEps; }

}  // namespace

std::vector<std::string> validateReportJson(const std::string& text) {
  std::vector<std::string> out;
  JsonValue root;
  if (!parseDocument(text, "awp-telemetry-report", 1, root, out)) return out;
  checkFields(root, "report", kRootFields, out);
  const double nranks = numberOf(root, "nranks");

  const JsonValue* phases = root.find("phases");
  if (phases == nullptr || !phases->isObject()) {
    out.push_back("missing 'phases' object");
  } else {
    for (std::string_view name : kPhaseJsonNames) {
      const std::string context = "phase '" + std::string(name) + "'";
      const JsonValue* entry = phases->find(std::string(name));
      if (entry == nullptr || !entry->isObject()) {
        out.push_back("missing " + context);
        continue;
      }
      checkFields(*entry, context, kPhaseFields, out);
      const double sum = numberOf(*entry, "sum_seconds");
      const double minV = numberOf(*entry, "min_seconds");
      const double maxV = numberOf(*entry, "max_seconds");
      const double mean = numberOf(*entry, "mean_seconds");
      if (exceeds(minV, mean))
        out.push_back(context + ": min_seconds exceeds mean_seconds");
      if (exceeds(mean, maxV))
        out.push_back(context + ": mean_seconds exceeds max_seconds");
      if (exceeds(maxV, sum))
        out.push_back(context + ": max_seconds exceeds sum_seconds");
      if (numberOf(*entry, "max_rank") >= nranks)
        out.push_back(context + ": max_rank out of range");
    }
  }

  const JsonValue* counters = root.find("counters");
  if (counters == nullptr || !counters->isObject()) {
    out.push_back("missing 'counters' object");
  } else {
    for (std::string_view name : kCounterJsonNames) {
      const std::string context = "counter '" + std::string(name) + "'";
      const JsonValue* entry = counters->find(std::string(name));
      if (entry == nullptr || !entry->isObject()) {
        out.push_back("missing " + context);
        continue;
      }
      checkFields(*entry, context, kCounterFields, out);
      if (numberOf(*entry, "min") > numberOf(*entry, "max"))
        out.push_back(context + ": min exceeds max");
      if (numberOf(*entry, "max_rank") >= nranks)
        out.push_back(context + ": max_rank out of range");
    }
  }

  return out;
}

}  // namespace awp::telemetry
