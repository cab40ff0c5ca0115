#include "sched/sharded_cache_backend.h"

#include <stdexcept>

namespace nnr::sched {

namespace {

/// 64-bit finalizer (the murmur3/splitmix avalanche): every input bit
/// flips each output bit with ~1/2 probability — what the χ² uniformity
/// bound needs from hrw_score.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

std::uint64_t shard_tag(std::string_view url) noexcept {
  // FNV-1a 64 over the URL string.
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : url) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t hrw_score(const CellKey& key, std::uint64_t tag) noexcept {
  // Chained mixing rather than xor-of-mixes: score(key, tag) must not
  // decompose into f(key) ^ g(tag), which would make every key prefer the
  // same tag ordering.
  return mix64(key.hi ^ mix64(key.lo ^ mix64(tag)));
}

std::size_t pick_shard(const CellKey& key,
                       const std::vector<std::uint64_t>& tags) {
  if (tags.empty()) {
    throw std::invalid_argument("pick_shard: empty shard map");
  }
  std::size_t best = 0;
  std::uint64_t best_score = hrw_score(key, tags[0]);
  for (std::size_t i = 1; i < tags.size(); ++i) {
    const std::uint64_t score = hrw_score(key, tags[i]);
    // Ties break on the tag (a shard identity), not the slot index, so a
    // permuted shard map elects the same winner.
    if (score > best_score ||
        (score == best_score && tags[i] > tags[best])) {
      best = i;
      best_score = score;
    }
  }
  return best;
}

std::vector<std::string> split_cache_urls(const std::string& list) {
  std::vector<std::string> urls;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t end = list.find(',', start);
    if (end == std::string::npos) end = list.size();
    std::string token = list.substr(start, end - start);
    const auto first = token.find_first_not_of(" \t");
    if (first != std::string::npos) {
      const auto last = token.find_last_not_of(" \t");
      urls.push_back(token.substr(first, last - first + 1));
    }
    start = end + 1;
  }
  return urls;
}

ShardedCacheBackend::ShardedCacheBackend(const std::vector<std::string>& urls,
                                         RemoteCacheOptions options)
    : urls_(urls) {
  if (urls.empty()) {
    throw std::invalid_argument("sharded cache: empty shard map");
  }
  const std::uint64_t seed_base = options.jitter_seed != 0
                                      ? options.jitter_seed
                                      : net::default_jitter_seed();
  shards_.reserve(urls.size());
  tags_.reserve(urls.size());
  for (std::size_t i = 0; i < urls.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (urls[j] == urls[i]) {
        throw std::invalid_argument(
            "sharded cache: duplicate shard url '" + urls[i] + "'");
      }
    }
    // Decorrelate the shard clients' jitter streams even under a pinned
    // seed — one seed per shard slot, derived deterministically.
    options.jitter_seed = seed_base + 0x9E37ull * (i + 1);
    shards_.push_back(std::make_unique<RemoteCacheBackend>(urls[i], options));
    tags_.push_back(shard_tag(urls[i]));
  }
}

std::size_t ShardedCacheBackend::shard_for(const CellKey& key) const {
  return pick_shard(key, tags_);
}

const std::string& ShardedCacheBackend::shard_url(std::size_t index) const {
  return urls_.at(index);
}

RemoteCacheBackend& ShardedCacheBackend::shard(std::size_t index) {
  return *shards_.at(index);
}

bool ShardedCacheBackend::shard_marked_down(std::size_t index) const {
  return shards_.at(index)->retry_in_ms() > 0;
}

std::optional<core::RunResult> ShardedCacheBackend::load(const CellKey& key,
                                                         CacheStats* run,
                                                         bool count_miss) {
  return shards_[shard_for(key)]->load(key, run, count_miss);
}

bool ShardedCacheBackend::store(const CellKey& key,
                                const core::RunResult& result,
                                CacheStats* run) {
  return shards_[shard_for(key)]->store(key, result, run);
}

std::optional<CacheClaim> ShardedCacheBackend::try_claim(const CellKey& key) {
  return shards_[shard_for(key)]->try_claim(key);
}

std::optional<CacheClaim> ShardedCacheBackend::claim(const CellKey& key) {
  return shards_[shard_for(key)]->claim(key);
}

GcStats ShardedCacheBackend::gc() {
  GcStats total;
  for (const auto& shard : shards_) {
    const GcStats g = shard->gc();
    total.removed_tmp += g.removed_tmp;
    total.removed_locks += g.removed_locks;
    total.evicted += g.evicted;
    total.evicted_bytes += g.evicted_bytes;
    total.entries += g.entries;
    total.bytes += g.bytes;
  }
  return total;
}

CacheStats ShardedCacheBackend::stats() const {
  CacheStats total;
  for (const auto& shard : shards_) {
    const CacheStats s = shard->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.corrupt += s.corrupt;
    total.stores += s.stores;
    total.bytes_read += s.bytes_read;
    total.bytes_written += s.bytes_written;
  }
  return total;
}

std::string ShardedCacheBackend::describe() const {
  std::string joined;
  for (const std::string& url : urls_) {
    if (!joined.empty()) joined += ',';
    joined += url;
  }
  return joined;
}

std::optional<std::string> ShardedCacheBackend::verify_disjoint() {
  std::vector<std::optional<RemoteCacheBackend::ShardInfo>> infos;
  infos.reserve(shards_.size());
  for (const auto& shard : shards_) {
    // nullopt (unreachable, or a pre-kShardInfo daemon answering kError)
    // skips the check for that slot: the guard degrades like the cache.
    infos.push_back(shard->shard_info());
  }
  for (std::size_t i = 0; i < infos.size(); ++i) {
    if (!infos[i].has_value()) continue;
    for (std::size_t j = 0; j < i; ++j) {
      if (infos[j].has_value() &&
          infos[j]->dir_uid == infos[i]->dir_uid) {
        return "shards " + urls_[j] + " and " + urls_[i] +
               " report the same cache directory (dir uid " +
               std::to_string(infos[i]->dir_uid) +
               "): the shard map is not dir-disjoint";
      }
    }
  }
  return std::nullopt;
}

}  // namespace nnr::sched
