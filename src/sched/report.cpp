#include "sched/report.hpp"

#include "telemetry/json.hpp"
#include "util/error.hpp"

namespace awp::sched {

std::string toJson(const ServiceReport& report) {
  telemetry::JsonWriter w;
  w.beginObject()
      .field("schema", "awp-sched-service-report")
      .field("version", 1)
      .field("wall_seconds", report.wallSeconds)
      .field("core_budget", report.coreBudget)
      .field("submitted", report.submitted)
      .field("completed", report.completed)
      .field("failed", report.failed)
      .field("rejected", report.rejected)
      .field("cache_hits", report.cacheHits)
      .field("coalesced", report.coalesced)
      .field("retries", report.retries)
      .field("respawns", report.respawns)
      .field("respawn_escalations", report.respawnEscalations)
      .field("executed_attempts", report.executedAttempts)
      .field("throughput_per_second", report.throughputPerSecond);
  w.key("queue_latency_seconds")
      .beginObject()
      .field("min", report.queueLatencyMin)
      .field("mean", report.queueLatencyMean)
      .field("max", report.queueLatencyMax)
      .endObject();
  const CacheStats& c = report.cache;
  w.key("artifact_cache")
      .beginObject()
      .field("hits", c.hits)
      .field("misses", c.misses)
      .field("computes", c.computes)
      .field("disk_loads", c.diskLoads)
      .field("memory_hits", c.memoryHits)
      .field("memory_misses", c.memoryMisses)
      .field("disk_hits", c.diskHits)
      .field("disk_misses", c.diskMisses)
      .field("puts", c.puts)
      .field("dedup_hits", c.dedupHits)
      .field("logical_bytes", c.logicalBytes)
      .field("stored_bytes", c.storedBytes)
      .field("entries", c.entries)
      .endObject();
  w.key("retry_sites").beginObject();
  for (const auto& [site, s] : report.retrySites) {
    w.key(site)
        .beginObject()
        .field("calls", s.calls)
        .field("attempts", s.attempts)
        .field("failures", s.failures)
        .field("exhausted", s.exhausted)
        .endObject();
  }
  w.endObject();
  w.key("jobs").beginArray();
  for (const JobRow& j : report.jobs) {
    w.beginObject()
        .field("name", j.name)
        .field("kind", j.kind)
        .field("hash", j.hash)
        .field("priority", j.priority)
        .field("phase", j.phase)
        .field("attempts", j.attempts)
        .field("retries", j.retries)
        .field("respawns", j.respawns)
        .field("cache_hit", j.cacheHit)
        .field("coalesced", j.coalesced)
        .field("completed_steps", j.completedSteps)
        .field("queue_seconds", j.queueSeconds)
        .field("run_seconds", j.runSeconds)
        .field("error", j.error)
        .endObject();
  }
  w.endArray().endObject();
  return w.str();
}

void writeServiceReportFile(const std::string& path,
                            const ServiceReport& report) {
  AWP_CHECK_MSG(report.valid(), "sched: writeServiceReportFile without data");
  telemetry::writeTextAtomically(path, toJson(report));
}

namespace {

using telemetry::JsonField;
using telemetry::JsonValue;
using telemetry::numberOf;
using telemetry::textOf;
using Type = JsonField::Type;

constexpr JsonField kRootFields[] = {
    {"wall_seconds", Type::Number, 0},
    {"core_budget", Type::Number, 1},
    {"submitted", Type::Number, 0},
    {"completed", Type::Number, 0},
    {"failed", Type::Number, 0},
    {"rejected", Type::Number, 0},
    {"cache_hits", Type::Number, 0},
    {"coalesced", Type::Number, 0},
    {"retries", Type::Number, 0},
    {"respawns", Type::Number, 0},
    {"respawn_escalations", Type::Number, 0},
    {"executed_attempts", Type::Number, 0},
    {"throughput_per_second", Type::Number, 0}};

constexpr JsonField kLatencyFields[] = {{"min", Type::Number, 0},
                                        {"mean", Type::Number, 0},
                                        {"max", Type::Number, 0}};

constexpr JsonField kCacheFields[] = {{"hits", Type::Number, 0},
                                      {"misses", Type::Number, 0},
                                      {"computes", Type::Number, 0},
                                      {"disk_loads", Type::Number, 0}};

// Tier/dedup accounting joined the schema later; checked only when "puts"
// is present so pre-existing handcrafted reports stay valid.
constexpr JsonField kCacheTierFields[] = {{"memory_hits", Type::Number, 0},
                                          {"memory_misses", Type::Number, 0},
                                          {"disk_hits", Type::Number, 0},
                                          {"disk_misses", Type::Number, 0},
                                          {"puts", Type::Number, 0},
                                          {"dedup_hits", Type::Number, 0},
                                          {"logical_bytes", Type::Number, 0},
                                          {"stored_bytes", Type::Number, 0},
                                          {"entries", Type::Number, 0}};

constexpr JsonField kRetrySiteFields[] = {{"calls", Type::Number, 0},
                                          {"attempts", Type::Number, 0},
                                          {"failures", Type::Number, 0},
                                          {"exhausted", Type::Number, 0}};

constexpr JsonField kJobFields[] = {
    {"name", Type::String},
    {"kind", Type::String},
    {"hash", Type::Hex32},
    {"phase", Type::String},
    {"priority", Type::Number},
    {"attempts", Type::Number, 0},
    {"retries", Type::Number, 0},
    {"respawns", Type::Number, 0},
    {"cache_hit", Type::Bool},
    {"coalesced", Type::Bool},
    {"completed_steps", Type::Number, 0},
    {"queue_seconds", Type::Number, 0},
    {"run_seconds", Type::Number, 0}};

bool knownPhaseName(std::string_view name) {
  return name == "queued" || name == "running" || name == "completed" ||
         name == "failed" || name == "rejected";
}

}  // namespace

std::vector<std::string> validateServiceReportJson(const std::string& text) {
  std::vector<std::string> out;
  JsonValue root;
  if (!telemetry::parseDocument(text, "awp-sched-service-report", 1, root,
                                out))
    return out;
  checkFields(root, "report", kRootFields, out);
  // Every submission has exactly one terminal outcome.
  if (numberOf(root, "completed") + numberOf(root, "failed") +
          numberOf(root, "rejected") + numberOf(root, "cache_hits") +
          numberOf(root, "coalesced") >
      numberOf(root, "submitted") + 0.5)
    out.push_back("report: outcomes exceed submissions");

  constexpr double kEps = 1e-9;
  const JsonValue* lat = root.find("queue_latency_seconds");
  if (lat == nullptr || !lat->isObject()) {
    out.push_back("missing 'queue_latency_seconds' object");
  } else {
    checkFields(*lat, "queue_latency", kLatencyFields, out);
    const double minV = numberOf(*lat, "min");
    const double mean = numberOf(*lat, "mean");
    const double maxV = numberOf(*lat, "max");
    if (minV > mean * (1.0 + kEps) + kEps)
      out.push_back("queue_latency: min exceeds mean");
    if (mean > maxV * (1.0 + kEps) + kEps)
      out.push_back("queue_latency: mean exceeds max");
  }

  const JsonValue* cache = root.find("artifact_cache");
  if (cache == nullptr || !cache->isObject()) {
    out.push_back("missing 'artifact_cache' object");
  } else {
    checkFields(*cache, "artifact_cache", kCacheFields, out);
    // When present the tiers must reconcile with the totals and dedup can
    // only shrink.
    if (cache->find("puts") != nullptr) {
      checkFields(*cache, "artifact_cache", kCacheTierFields, out);
      const auto n = [&](const char* key) { return numberOf(*cache, key); };
      if (n("memory_hits") + n("disk_hits") > n("hits") + 0.5)
        out.push_back("artifact_cache: tier hits exceed total hits");
      if (n("dedup_hits") > n("puts") + 0.5)
        out.push_back("artifact_cache: dedup_hits exceed puts");
      if (n("stored_bytes") > n("logical_bytes") + 0.5)
        out.push_back("artifact_cache: stored_bytes exceed logical_bytes");
    }
  }

  // Retry-site stats are part of the v1 schema but tolerated as absent so
  // pre-existing handcrafted reports stay valid; when present every entry
  // must be internally consistent.
  const JsonValue* retry = root.find("retry_sites");
  if (retry != nullptr) {
    if (!retry->isObject()) {
      out.push_back("'retry_sites' is not an object");
    } else {
      for (const auto& [site, stats] : retry->members) {
        const std::string context = "retry_sites['" + site + "']";
        if (!stats.isObject()) {
          out.push_back(context + ": not an object");
          continue;
        }
        checkFields(stats, context, kRetrySiteFields, out);
        const auto n = [&](const char* key) { return numberOf(stats, key); };
        if (n("attempts") < n("calls"))
          out.push_back(context + ": attempts below calls");
        if (n("failures") > n("attempts"))
          out.push_back(context + ": failures exceed attempts");
        if (n("exhausted") > n("calls"))
          out.push_back(context + ": exhausted exceeds calls");
      }
    }
  }

  const JsonValue* jobs = root.find("jobs");
  if (jobs == nullptr || !jobs->isArray()) {
    out.push_back("missing 'jobs' array");
    return out;
  }
  for (std::size_t i = 0; i < jobs->items.size(); ++i) {
    const JsonValue& j = jobs->items[i];
    const std::string context = "job[" + std::to_string(i) + "]";
    if (!j.isObject()) {
      out.push_back(context + ": not an object");
      continue;
    }
    checkFields(j, context, kJobFields, out);
    const std::string_view kind = textOf(j, "kind");
    if (kind != "wave" && kind != "rupture")
      out.push_back(context + ": unknown kind '" + std::string(kind) + "'");
    const std::string_view phase = textOf(j, "phase");
    if (!knownPhaseName(phase))
      out.push_back(context + ": unknown phase '" + std::string(phase) + "'");
    const double attempts = numberOf(j, "attempts");
    if (numberOf(j, "retries") > attempts)
      out.push_back(context + ": retries exceed attempts");
    // An in-place respawn happens inside a running attempt, so a job that
    // never started an attempt cannot have absorbed one.
    if (numberOf(j, "respawns") > 0.5 && attempts < 0.5)
      out.push_back(context + ": respawns without attempts");
  }
  return out;
}

}  // namespace awp::sched
