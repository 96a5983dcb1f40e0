#include "web/cache.hpp"

#include "engine/fingerprint.hpp"

namespace powerplay::web {

ResponseCache::ResponseCache(ResponseCacheOptions options)
    : options_(options) {}

std::shared_ptr<const ResponseCache::Entry> ResponseCache::find(
    const std::string& key) {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  order_.splice(order_.begin(), order_, it->second.lru);  // touch
  return it->second.entry;
}

void ResponseCache::insert(const std::string& key, Entry entry) {
  const std::size_t size = entry.response.body.size();
  if (options_.max_entries == 0 || size > options_.max_bytes) return;
  auto shared = std::make_shared<const Entry>(std::move(entry));
  std::lock_guard lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_ -= it->second.entry->response.body.size();
    order_.erase(it->second.lru);
    entries_.erase(it);
  }
  order_.push_front(key);
  entries_.emplace(key, Slot{std::move(shared), order_.begin()});
  bytes_ += size;
  insertions_ += 1;
  evict_locked();
}

void ResponseCache::evict_locked() {
  while (!order_.empty() && (entries_.size() > options_.max_entries ||
                             bytes_ > options_.max_bytes)) {
    const std::string& victim = order_.back();
    auto it = entries_.find(victim);
    bytes_ -= it->second.entry->response.body.size();
    entries_.erase(it);
    order_.pop_back();
    evictions_ += 1;
  }
}

std::string ResponseCache::make_etag(const Response& response) {
  engine::Fnv1a h;
  h.size(static_cast<std::size_t>(response.status));
  h.text(response.content_type);
  h.text(response.body);
  return '"' + engine::fingerprint_hex(h.digest()) + '"';
}

void ResponseCache::count_hit(bool after_commit) {
  hits_.fetch_add(1, std::memory_order_relaxed);
  if (after_commit) revalidations_.fetch_add(1, std::memory_order_relaxed);
}
void ResponseCache::count_miss() {
  misses_.fetch_add(1, std::memory_order_relaxed);
}
void ResponseCache::count_not_modified() {
  not_modified_.fetch_add(1, std::memory_order_relaxed);
}

ResponseCacheStats ResponseCache::stats() const {
  std::lock_guard lock(mutex_);
  ResponseCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_;
  s.revalidations = revalidations_.load(std::memory_order_relaxed);
  s.not_modified = not_modified_.load(std::memory_order_relaxed);
  s.evictions = evictions_;
  s.entries = entries_.size();
  s.bytes = bytes_;
  return s;
}

bool if_none_match(const Request& request, const std::string& etag) {
  auto it = request.headers.find("if-none-match");
  if (it == request.headers.end() || etag.empty()) return false;
  const std::string& header = it->second;
  if (header == "*") return true;
  // Comma-separated list of quoted tags; exact (strong) comparison.
  std::size_t pos = 0;
  while (pos < header.size()) {
    std::size_t comma = header.find(',', pos);
    if (comma == std::string::npos) comma = header.size();
    std::size_t b = pos;
    std::size_t e = comma;
    while (b < e && header[b] == ' ') ++b;
    while (e > b && header[e - 1] == ' ') --e;
    if (header.compare(b, e - b, etag) == 0) return true;
    pos = comma + 1;
  }
  return false;
}

}  // namespace powerplay::web
