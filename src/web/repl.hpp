// repl.hpp — the follower half of journal-shipping replication.
//
// A ReplicationFollower owns one background thread that keeps a local
// LibraryStore converged with a primary site over the /repl/* protocol
// (app.cpp serves the primary half):
//
//   bootstrap:  GET /repl/snapshot            -> install wholesale
//   catch-up:   GET /repl/journal?epoch=E&after=S&wait_ms=W&max_bytes=B
//               -> apply each shipped record (idempotent, gap-detecting)
//
// The journal feed long-polls: when the follower is caught up the
// primary parks the request until the next commit, so steady-state
// replication lag is one network round trip, not one poll interval.
// Any epoch change on the primary (rotation, crash recovery, a
// promotion elsewhere) answers 409, and the follower re-bootstraps from
// a fresh snapshot — full state transfer is always correct, whatever
// divergence preceded it.
//
// Transport failures reuse the resilience kit RemoteLibrary introduced:
// exponential backoff with deterministic jitter between reconnect
// attempts, and a circuit breaker so a dead primary costs a bounded
// poll rate instead of a tight error loop.  The Transport seam means
// chaos tests wrap the wire in a seeded FaultTransport — drops,
// truncated feed bodies and duplicate batch deliveries all exercise the
// same rejection paths real networks would.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>

#include "library/store.hpp"
#include "web/client.hpp"
#include "web/remote.hpp"

namespace powerplay::web {

/// Progress + lag counters, surfaced on the follower's /healthz.
struct ReplicationStats {
  bool synced = false;  ///< holds a valid cursor into the primary's stream
  std::uint64_t cursor_epoch = 0;
  std::uint64_t cursor_seq = 0;
  std::uint64_t records_applied = 0;
  std::uint64_t duplicates_skipped = 0;  ///< replayed frames rejected
  std::uint64_t gaps_detected = 0;       ///< out-of-order/compacted tails
  std::uint64_t resyncs_total = 0;       ///< snapshot bootstraps (incl. 1st)
  std::uint64_t transport_errors = 0;
  std::uint64_t polls = 0;  ///< feed round trips completed
  /// How far behind the primary's last acknowledged write we are.
  std::uint64_t lag_records = 0;
  std::uint64_t lag_bytes = 0;
  std::uint64_t lag_ms = 0;  ///< 0 when caught up; else time since we were
};

/// Follower tuning (top-level so it can be a default argument;
/// nested-class member initializers cannot — see BreakerOptions).
struct ReplicationOptions {
  /// Long-poll park time requested from the primary per feed call.
  std::chrono::milliseconds poll_wait{1000};
  /// Batch size cap requested per feed call.
  std::size_t max_batch_bytes = 1u << 20;
  /// Reconnect backoff schedule (max_attempts is ignored: a follower
  /// never gives up, it just keeps paying max_backoff).
  RetryPolicy retry{};
  BreakerOptions breaker{};
};

class ReplicationFollower {
 public:
  using Options = ReplicationOptions;

  /// `store` must outlive the follower and, while running, must not be
  /// written locally (the app enforces this by redirecting writes).
  ReplicationFollower(library::LibraryStore& store,
                      std::shared_ptr<Transport> transport,
                      Options options = {});
  ~ReplicationFollower();

  ReplicationFollower(const ReplicationFollower&) = delete;
  ReplicationFollower& operator=(const ReplicationFollower&) = delete;

  void start();
  /// Stop the apply thread (idempotent).  Interrupts any backoff sleep;
  /// an in-flight feed round trip finishes first.
  void stop();

  /// Failover: stop following and give the store a fresh epoch above
  /// everything either side has seen.  Returns the new epoch.  The
  /// caller flips the app's role to primary.
  std::uint64_t promote();

  [[nodiscard]] ReplicationStats stats() const;
  [[nodiscard]] bool running() const { return running_.load(); }

  /// Test/ops helper: block until the published cursor (stats()) reaches
  /// `seq` (true) or `timeout` lapses (false).  stats() read after a true
  /// return already counts the batch that reached `seq`.
  bool wait_for_seq(std::uint64_t seq, std::chrono::milliseconds timeout);

 private:
  void run();
  void bootstrap();   ///< snapshot install; throws on failure
  void poll_once();   ///< one feed round trip; throws on failure
  [[nodiscard]] Response roundtrip(const Request& request);
  /// Sleep that stop() can interrupt; false when stopping.
  bool sleep_interruptible(std::chrono::milliseconds duration);

  library::LibraryStore& store_;
  std::shared_ptr<Transport> transport_;
  Options options_;
  CircuitBreaker breaker_;
  std::thread thread_;
  std::atomic<bool> running_{false};

  mutable std::mutex mutex_;  ///< guards stats_ and the sleep cv
  std::condition_variable cv_;
  ReplicationStats stats_;
  bool caught_up_ = false;
  std::chrono::steady_clock::time_point caught_up_at_{};
};

}  // namespace powerplay::web
