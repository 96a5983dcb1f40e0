// cache.hpp — rendered GET responses, valid while what they read holds.
//
// The serving hot loop used to re-load, re-Play and re-render a design
// page on every hit.  This cache keys each cacheable GET by its route +
// canonical query and remembers what the render depended on:
//
//   - the registry generation (model definitions the page may use);
//   - its read set: every store entry the render read, each with the
//     per-entry stamp it had (library/catalog.hpp), absences and
//     listings included.
//
// An entry is served while the generation is unchanged and every stamp
// in its read set is still current, so a commit re-renders exactly the
// pages that read what it changed; any other page stays a hit.  Nothing
// is loaded or fingerprinted to decide.
//
// Every cached 200 carries a strong ETag (FNV-1a over status, media
// type and body), so a client that presents If-None-Match gets a 304
// without a byte of body moving.  Entries are LRU-bounded by count and
// total body bytes.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "library/catalog.hpp"
#include "web/http.hpp"

namespace powerplay::web {

struct ResponseCacheOptions {
  std::size_t max_entries = 256;
  std::size_t max_bytes = 8u << 20;  ///< sum of cached body bytes
};

/// Counters for /healthz.
struct ResponseCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;     ///< responses_cached
  /// Hits on an entry rendered before the latest commit: the store
  /// moved on, but nothing the page read.
  std::uint64_t revalidations = 0;
  std::uint64_t not_modified = 0;   ///< 304s answered from an ETag match
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
};

class ResponseCache {
 public:
  struct Entry {
    Response response;           ///< includes the etag header
    std::string etag;            ///< strong, quoted
    std::uint64_t revision = 0;  ///< library revision at render
    std::uint64_t model_revision = 0;  ///< registry generation at render
    library::ReadSet reads;      ///< store entries the render read
  };

  explicit ResponseCache(ResponseCacheOptions options = {});

  /// The entry under `key` (null if none), regardless of staleness: the
  /// caller checks it against the registry generation and the store.
  [[nodiscard]] std::shared_ptr<const Entry> find(const std::string& key);

  void insert(const std::string& key, Entry entry);

  /// Strong quoted ETag over the bytes a client would observe.
  static std::string make_etag(const Response& response);

  // Stats hooks the app calls on its own cache decisions (hit / miss /
  // 304 are app-level outcomes; the cache only sees find/insert).
  /// `after_commit`: the entry predates the store's current revision.
  void count_hit(bool after_commit);
  void count_miss();
  void count_not_modified();

  [[nodiscard]] ResponseCacheStats stats() const;

 private:
  void evict_locked();

  ResponseCacheOptions options_;
  mutable std::mutex mutex_;
  /// LRU list of keys, most recent first; map values point into it.
  std::list<std::string> order_;
  struct Slot {
    std::shared_ptr<const Entry> entry;
    std::list<std::string>::iterator lru;
  };
  std::unordered_map<std::string, Slot> entries_;
  std::size_t bytes_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
  // Outcome counters, bumped outside mutex_.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> revalidations_{0};
  std::atomic<std::uint64_t> not_modified_{0};
};

/// True when the request's If-None-Match header matches `etag` (exact
/// entry in a comma-separated list, or "*").
bool if_none_match(const Request& request, const std::string& etag);

}  // namespace powerplay::web
