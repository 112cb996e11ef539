#include "fault/injector.hpp"

namespace awp::fault {

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hashSite(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

thread_local int t_rank = -1;

}  // namespace

const char* toString(FaultKind kind) {
  switch (kind) {
    case FaultKind::TransientIoError: return "TransientIoError";
    case FaultKind::ShortWrite: return "ShortWrite";
    case FaultKind::NoSpace: return "NoSpace";
    case FaultKind::BitFlip: return "BitFlip";
    case FaultKind::MessageDrop: return "MessageDrop";
    case FaultKind::MessageDuplicate: return "MessageDuplicate";
    case FaultKind::RankStall: return "RankStall";
    case FaultKind::FieldPoison: return "FieldPoison";
    case FaultKind::RankDeath: return "RankDeath";
  }
  return "?";
}

FaultPlan& FaultPlan::add(FaultSpec spec) {
  specs_.push_back(std::move(spec));
  return *this;
}

FaultPlan& FaultPlan::transientIoError(std::string site, int rank,
                                       std::uint64_t occurrence,
                                       std::uint64_t count) {
  return add({std::move(site), FaultKind::TransientIoError, rank, occurrence,
              count, 0.0});
}

FaultPlan& FaultPlan::bitFlip(std::string site, int rank,
                              std::uint64_t occurrence) {
  return add(
      {std::move(site), FaultKind::BitFlip, rank, occurrence, 1, 0.0});
}

FaultPlan& FaultPlan::stall(std::string site, int rank,
                            std::uint64_t occurrence, double seconds) {
  return add(
      {std::move(site), FaultKind::RankStall, rank, occurrence, 1, seconds});
}

FaultPlan& FaultPlan::poison(std::string site, int rank,
                             std::uint64_t occurrence) {
  return add(
      {std::move(site), FaultKind::FieldPoison, rank, occurrence, 1, 0.0});
}

FaultPlan& FaultPlan::rankDeath(int rank, std::uint64_t occurrence,
                                std::uint64_t count) {
  return add({"rank_death", FaultKind::RankDeath, rank, occurrence, count,
              0.0});
}

FaultPlan& FaultPlan::buddyDrop(int rank, std::uint64_t occurrence,
                                std::uint64_t count) {
  return add({"buddy_drop", FaultKind::MessageDrop, rank, occurrence, count,
              0.0});
}

FaultPlan& FaultPlan::brokerDeath(int broker, std::uint64_t occurrence) {
  return add({"broker_death", FaultKind::RankDeath, broker, occurrence, 1,
              0.0});
}

FaultPlan& FaultPlan::brokerDeathInFlight(int broker,
                                          std::uint64_t occurrence) {
  return add({"broker_death_in_flight", FaultKind::RankDeath, broker,
              occurrence, 1, 0.0});
}

FaultPlan& FaultPlan::fabricDrop(int broker, std::uint64_t occurrence,
                                 std::uint64_t count) {
  return add({"fabric_drop", FaultKind::MessageDrop, broker, occurrence,
              count, 0.0});
}

FaultPlan& FaultPlan::fabricDuplicate(int broker, std::uint64_t occurrence) {
  return add({"fabric_drop", FaultKind::MessageDuplicate, broker, occurrence,
              1, 0.0});
}

FaultPlan& FaultPlan::fabricDelay(int broker, std::uint64_t occurrence,
                                  double seconds, std::uint64_t count) {
  return add({"fabric_delay", FaultKind::RankStall, broker, occurrence,
              count, seconds});
}

FaultPlan& FaultPlan::servePublishDrop(int origin, std::uint64_t occurrence,
                                       std::uint64_t count) {
  return add({"serve_publish_drop", FaultKind::MessageDrop, origin,
              occurrence, count, 0.0});
}

FaultPlan& FaultPlan::serveNotifyDelay(int origin, std::uint64_t occurrence,
                                       double seconds, std::uint64_t count) {
  return add({"serve_notify_delay", FaultKind::RankStall, origin, occurrence,
              count, seconds});
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : specs_(plan.specs()), seed_(seed) {}

std::optional<FaultAction> FaultInjector::check(std::string_view site,
                                                int rank) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto key = std::make_pair(std::string(site), rank);
  const std::uint64_t op = ++opCounts_[key];
  auto& siteStats = stats_[key.first];
  ++siteStats.operations;

  for (const auto& spec : specs_) {
    if (spec.site != site) continue;
    if (spec.rank != -1 && spec.rank != rank) continue;
    if (op < spec.occurrence || op >= spec.occurrence + spec.count) continue;
    FaultAction action;
    action.kind = spec.kind;
    action.stallSeconds = spec.stallSeconds;
    // Deterministic bit choice: a pure function of the plan seed and the
    // (site, rank, occurrence) coordinates, independent of thread timing.
    action.flipBit = mix64(seed_ ^ hashSite(site) ^
                           (static_cast<std::uint64_t>(rank + 1) << 32) ^ op);
    ++siteStats.injected;
    injected_.fetch_add(1, std::memory_order_relaxed);
    return action;
  }
  return std::nullopt;
}

std::map<std::string, SiteStats> FaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

namespace detail {
std::atomic<FaultInjector*> g_injector{nullptr};
}

void installInjector(FaultInjector* injector) {
  detail::g_injector.store(injector, std::memory_order_release);
}

void setThreadRank(int rank) { t_rank = rank; }
int threadRank() { return t_rank; }

}  // namespace awp::fault
