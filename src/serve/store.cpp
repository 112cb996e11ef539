#include "serve/store.hpp"

#include <cstring>

#include "telemetry/registry.hpp"
#include "util/error.hpp"
#include "util/md5.hpp"

namespace awp::serve {

TileStore::TileStore(sched::ArtifactCache* cache, int tileEdge)
    : cache_(cache), tileEdge_(tileEdge) {
  AWP_CHECK(cache_ != nullptr);
  AWP_CHECK_MSG(tileEdge_ >= 1, "serve: tile edge must be >= 1");
}

PublishOutcome TileStore::publish(const TileKey& key, std::uint64_t version,
                                  const float* payload, std::size_t count) {
  PublishOutcome out;
  std::vector<std::byte> bytes(count * sizeof(float));
  std::memcpy(bytes.data(), payload, bytes.size());
  const auto md5 = Md5::hash(bytes.data(), bytes.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end() && version <= it->second.version)
      return out;  // duplicate or stale publish: absorbed, never regress
  }
  // Store the chunk before exposing the version: a concurrent reader that
  // sees the new record must be able to load its payload.
  const bool stored = cache_->putDedup(chunkCacheKey(md5), std::move(bytes));
  out.chunkStored = stored;
  if (!stored) telemetry::count(telemetry::Counter::ServeChunkDedups);
  auto decoded =
      std::make_shared<const std::vector<float>>(payload, payload + count);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& rec = index_[key];
    if (version <= rec.version) return out;  // racer advanced it first
    rec.version = version;
    rec.chunkMd5 = md5;
    rec.payloadFloats = static_cast<std::uint32_t>(count);
    rec.payload = std::move(decoded);
  }
  out.advanced = true;
  telemetry::count(telemetry::Counter::ServeTilesPublished);
  telemetry::count(telemetry::Counter::ServeTileBytes,
                   count * sizeof(float));
  return out;
}

AWP_HOT bool TileStore::lookup(const TileKey& key, TileRecord* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  *out = it->second;
  return true;
}

AWP_HOT std::uint64_t TileStore::latestVersion(const TileKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  return it == index_.end() ? 0 : it->second.version;
}

std::optional<std::vector<float>> TileStore::load(const TileKey& key) const {
  TileRecord rec;
  if (!lookup(key, &rec)) return std::nullopt;
  auto bytes = cache_->get(chunkCacheKey(rec.chunkMd5));
  if (!bytes.has_value() ||
      bytes->size() != rec.payloadFloats * sizeof(float))
    return std::nullopt;  // torn cache entry reads as absent, never wrong
  std::vector<float> floats(rec.payloadFloats);
  std::memcpy(floats.data(), bytes->data(), bytes->size());
  return floats;
}

std::size_t TileStore::tileCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

}  // namespace awp::serve
