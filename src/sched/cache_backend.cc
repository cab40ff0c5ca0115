#include "sched/cache_backend.h"

#include <cstdlib>
#include <stdexcept>

#include "core/env.h"
#include "sched/fs_cache_backend.h"
#include "sched/sharded_cache_backend.h"

namespace nnr::sched {

namespace {

std::string env_string(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr ? value : "";
}

RemoteCacheOptions remote_cache_options_from_env() {
  RemoteCacheOptions options;
  const std::int64_t ttl = core::env_int("NNR_CACHE_LEASE_MS", 0);
  if (ttl > 0) options.lease_ttl_ms = static_cast<std::uint32_t>(ttl);
  // Timeout/backoff knobs, primarily for chaos and CI runs where the
  // defaults (tuned for slow real daemons) would stretch every injected
  // fault into a multi-second stall. Documented in docs/nnr_run.md.
  const std::int64_t io_ms = core::env_int("NNR_CACHE_IO_TIMEOUT_MS", 0);
  if (io_ms > 0) options.io_timeout_ms = static_cast<int>(io_ms);
  const std::int64_t connect_ms =
      core::env_int("NNR_CACHE_CONNECT_TIMEOUT_MS", 0);
  if (connect_ms > 0) options.connect_timeout_ms = static_cast<int>(connect_ms);
  const std::int64_t backoff_ms = core::env_int("NNR_CACHE_BACKOFF_MS", 0);
  if (backoff_ms > 0) options.reconnect_backoff_ms = static_cast<int>(backoff_ms);
  const std::int64_t backoff_max_ms =
      core::env_int("NNR_CACHE_BACKOFF_MAX_MS", 0);
  if (backoff_max_ms > 0) {
    options.reconnect_backoff_max_ms = static_cast<int>(backoff_max_ms);
  }
  return options;
}

}  // namespace

CacheConfig cache_config_from_env() {
  CacheConfig config;
  config.dir = env_string("NNR_CACHE_DIR");
  config.url = env_string("NNR_CACHE_URL");
  config.budget = core::env_int("NNR_CACHE_BUDGET", 0);
  return config;
}

std::unique_ptr<ShardedCacheBackend> make_sharded_cache_backend(
    const std::vector<std::string>& urls) {
  return std::make_unique<ShardedCacheBackend>(
      urls, remote_cache_options_from_env());
}

std::unique_ptr<CacheBackend> make_cache_backend(const CacheConfig& config) {
  if (!config.url.empty()) {
    const std::vector<std::string> urls = split_cache_urls(config.url);
    if (urls.empty()) {
      throw std::invalid_argument("cache url list '" + config.url +
                                  "' contains no urls");
    }
    return make_sharded_cache_backend(urls);
  }
  if (!config.dir.empty()) {
    return std::make_unique<FsCacheBackend>(config.dir, config.budget);
  }
  return nullptr;
}

}  // namespace nnr::sched
