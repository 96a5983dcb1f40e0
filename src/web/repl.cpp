#include "web/repl.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "library/journal.hpp"
#include "library/replica.hpp"

namespace powerplay::web {

namespace {

/// Parse a decimal header value; `fallback` when absent or malformed
/// (lag accounting degrades gracefully, it never fails a poll).
std::uint64_t header_u64(const Response& response, const std::string& name,
                         std::uint64_t fallback) {
  const auto it = response.headers.find(name);
  if (it == response.headers.end() || it->second.empty()) return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return fallback;
  return v;
}

}  // namespace

ReplicationFollower::ReplicationFollower(library::LibraryStore& store,
                                         std::shared_ptr<Transport> transport,
                                         Options options)
    : store_(store),
      transport_(std::move(transport)),
      options_(options),
      breaker_(options.breaker) {}

ReplicationFollower::~ReplicationFollower() { stop(); }

void ReplicationFollower::start() {
  if (running_.exchange(true)) return;
  {
    std::lock_guard lock(mutex_);
    caught_up_ = false;
    caught_up_at_ = std::chrono::steady_clock::now();
  }
  thread_ = std::thread([this] { run(); });
}

void ReplicationFollower::stop() {
  running_.store(false);
  {
    std::lock_guard lock(mutex_);
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::uint64_t ReplicationFollower::promote() {
  stop();
  return store_.promote();
}

ReplicationStats ReplicationFollower::stats() const {
  std::lock_guard lock(mutex_);
  ReplicationStats out = stats_;
  if (caught_up_) {
    out.lag_ms = 0;
  } else {
    const auto behind = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - caught_up_at_);
    out.lag_ms = static_cast<std::uint64_t>(
        std::max<std::chrono::milliseconds::rep>(behind.count(), 0));
  }
  return out;
}

bool ReplicationFollower::wait_for_seq(std::uint64_t seq,
                                       std::chrono::milliseconds timeout) {
  // Wait on the published stats, not on the store's cursor: records
  // move the cursor as they apply, before poll_once publishes the batch,
  // so a caller reading stats() on return could see the batch before.
  std::unique_lock lock(mutex_);
  return cv_.wait_for(lock, timeout, [&] {
    return stats_.synced && stats_.cursor_seq >= seq;
  });
}

bool ReplicationFollower::sleep_interruptible(
    std::chrono::milliseconds duration) {
  std::unique_lock lock(mutex_);
  cv_.wait_for(lock, duration, [this] { return !running_.load(); });
  return running_.load();
}

Response ReplicationFollower::roundtrip(const Request& request) {
  return transport_->roundtrip(request);
}

void ReplicationFollower::run() {
  int failures = 0;
  while (running_.load()) {
    if (!breaker_.allow()) {
      // Circuit open: the primary has failed repeatedly.  Wait out the
      // cooldown instead of burning round trips.
      if (!sleep_interruptible(options_.breaker.cooldown)) break;
      continue;
    }
    try {
      if (store_.replication_cursor().valid) {
        poll_once();
      } else {
        bootstrap();
      }
      breaker_.record_success();
      failures = 0;
    } catch (const std::exception&) {
      breaker_.record_failure();
      {
        std::lock_guard lock(mutex_);
        ++stats_.transport_errors;
        caught_up_ = false;  // we can no longer vouch for freshness
      }
      if (!running_.load()) break;
      const int retry = std::min(failures, 10);
      ++failures;
      if (!sleep_interruptible(options_.retry.backoff(retry))) break;
    }
  }
}

void ReplicationFollower::bootstrap() {
  Request req;
  req.method = "GET";
  req.target = "/repl/snapshot";
  const Response resp = roundtrip(req);
  if (resp.status != 200) {
    throw HttpError("replication snapshot: HTTP " +
                    std::to_string(resp.status));
  }
  library::ReplSnapshot snapshot;
  if (!library::parse_snapshot(resp.body, &snapshot)) {
    // Truncated or bit-flipped in flight; the checksum footer caught it.
    throw HttpError("replication snapshot: corrupt body");
  }
  store_.install_replication_snapshot(snapshot);
  {
    std::lock_guard lock(mutex_);
    ++stats_.resyncs_total;
    stats_.synced = true;
    stats_.cursor_epoch = snapshot.epoch;
    stats_.cursor_seq = snapshot.seq;
  }
  cv_.notify_all();  // wake wait_for_seq
}

void ReplicationFollower::poll_once() {
  const library::ReplCursor cursor = store_.replication_cursor();
  Request req;
  req.method = "GET";
  req.target = "/repl/journal?epoch=" + std::to_string(cursor.epoch) +
               "&after=" + std::to_string(cursor.seq) +
               "&wait_ms=" + std::to_string(options_.poll_wait.count()) +
               "&max_bytes=" + std::to_string(options_.max_batch_bytes);
  const Response resp = roundtrip(req);

  if (resp.status == 409 || resp.status == 410) {
    // 409: the stream we were reading no longer exists (rotation,
    // recovery or promotion over there).  410: our position was
    // compacted away.  Either way the cursor is worthless — durably
    // forget it and re-bootstrap on the next pass.
    store_.invalidate_replication_cursor();
    std::lock_guard lock(mutex_);
    if (resp.status == 410) ++stats_.gaps_detected;
    stats_.synced = false;
    caught_up_ = false;
    return;
  }
  if (resp.status != 200) {
    throw HttpError("replication feed: HTTP " + std::to_string(resp.status));
  }

  const library::Journal::ReadResult feed =
      library::Journal::parse(resp.body);
  if (!feed.header_ok) {
    throw HttpError("replication feed: malformed stream");
  }
  // A torn tail just means the delivery was cut short: apply the intact
  // prefix, the next poll re-fetches the rest.
  std::uint64_t applied = 0;
  std::uint64_t duplicates = 0;
  bool resync = false;
  for (const library::JournalRecord& record : feed.records) {
    const auto outcome = store_.apply_replicated(record);
    if (outcome == library::LibraryStore::ReplApply::kApplied) {
      ++applied;
    } else if (outcome == library::LibraryStore::ReplApply::kDuplicate) {
      ++duplicates;
    } else {
      // A gap or foreign epoch inside an authenticated batch: refuse
      // the rest and fall back to the always-correct full re-sync.
      resync = true;
      break;
    }
  }
  if (applied > 0) store_.flush_replication_cursor();
  if (resync) store_.invalidate_replication_cursor();

  const library::ReplCursor now_cursor = store_.replication_cursor();
  const std::uint64_t primary_last =
      header_u64(resp, "x-repl-last-seq", now_cursor.seq);
  const std::uint64_t pending =
      header_u64(resp, "x-repl-pending-bytes", 0);

  {
    std::lock_guard lock(mutex_);
    ++stats_.polls;
    stats_.records_applied += applied;
    stats_.duplicates_skipped += duplicates;
    if (resync) ++stats_.gaps_detected;
    stats_.synced = now_cursor.valid;
    stats_.cursor_epoch = now_cursor.epoch;
    stats_.cursor_seq = now_cursor.seq;
    stats_.lag_records = now_cursor.valid && primary_last > now_cursor.seq
                             ? primary_last - now_cursor.seq
                             : 0;
    stats_.lag_bytes = pending;
    caught_up_ = now_cursor.valid && stats_.lag_records == 0;
    if (caught_up_) caught_up_at_ = std::chrono::steady_clock::now();
  }
  cv_.notify_all();  // wake wait_for_seq
}

}  // namespace powerplay::web
