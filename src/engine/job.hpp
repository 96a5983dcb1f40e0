// job.hpp — asynchronous job manager for long-running evaluations.
//
// A sweep over a big grid is too slow to answer inline on a mid-90s
// modem — and too useful to serialize behind one request.  The web app
// enqueues the work here and answers immediately with a job id; the
// client polls /job?id= for progress and fetches the grid (table, CSV
// or JSON) when done.  A job's result stays typed: the runner only
// computes, and the reader's thread renders the one format it asks for.
//
// Jobs are drained by their own small runner-thread pool, deliberately
// separate from the point Executor: a job *waits* on the points it fans
// out, so running jobs on the same pool that executes their points
// could deadlock once every thread held a waiting job.
//
// Lifecycle hardening: every job can be cancelled (POST /job/cancel)
// and is subject to an optional wall-clock deadline.  Both are
// cooperative — the Progress callback handed to the work function
// throws JobCancelled / JobDeadlineExceeded, so a sweep stops within
// one sweep-point granularity and its runner is freed.  drain() is the
// graceful-shutdown path: stop admitting work, cancel everything, wait.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace powerplay::engine {

enum class JobStatus { kQueued, kRunning, kDone, kFailed, kCancelled };

std::string to_string(JobStatus status);

/// Thrown (out of the Progress callback) inside a job whose cancel flag
/// was set; the runner marks the job kCancelled.
class JobCancelled : public std::runtime_error {
 public:
  JobCancelled() : std::runtime_error("job cancelled") {}
};

/// Thrown inside a job that outran its wall-clock deadline; the runner
/// marks the job kFailed with this message.
class JobDeadlineExceeded : public std::runtime_error {
 public:
  JobDeadlineExceeded() : std::runtime_error("deadline exceeded") {}
};

/// What cancel() found and did.
enum class CancelOutcome {
  kNoSuchJob,
  kAlreadyFinished,  ///< done/failed/cancelled: nothing to do
  kCancelled,        ///< was queued; now terminally cancelled
  kRequested,        ///< running; will stop at its next progress point
};

/// The forms a finished job's result can be read in: the text table of
/// the /job poll, the CSV of ?format=csv and the JSON of ?format=json.
enum class JobFormat { kTable, kCsv, kJson };

/// What a finished job hands back: its typed result (a grid's columns,
/// a Monte Carlo sample, ...), immutable and shared, rendered into one
/// format only when a reader asks for it.  Copying a JobResult (as
/// every JobManager::get does) copies a pointer, never rendered bytes,
/// and the retained history holds points, not formats.
class JobResult {
 public:
  /// A typed result and its renderers.  Immutable once built, so
  /// render() may run on any number of threads at once.
  class Body {
   public:
    Body() = default;
    Body(const Body&) = delete;
    Body& operator=(const Body&) = delete;
    virtual ~Body() = default;
    [[nodiscard]] virtual bool has(JobFormat format) const = 0;
    [[nodiscard]] virtual std::string render(JobFormat format) const = 0;
  };

  /// No result: every format is absent.
  JobResult() = default;
  explicit JobResult(std::shared_ptr<const Body> body)
      : body_(std::move(body)) {}
  /// Text rendered up front, for work that already holds it (an
  /// in-process replay, a test); an empty `json` means none.
  JobResult(std::string table, std::string csv, std::string json = {});

  [[nodiscard]] bool has(JobFormat format) const {
    return body_ != nullptr && body_->has(format);
  }
  /// The result in `format`, rendered now; "" when !has(format).
  [[nodiscard]] std::string render(JobFormat format) const {
    return has(format) ? body_->render(format) : std::string();
  }
  /// The shared body (null for no result): two snapshots of one job
  /// point at the same one.
  [[nodiscard]] const Body* body() const { return body_.get(); }

 private:
  std::shared_ptr<const Body> body_;
};

/// Immutable copy of a job's state at one poll.
struct JobSnapshot {
  std::uint64_t id = 0;
  std::string user;
  std::string description;
  JobStatus status = JobStatus::kQueued;
  std::size_t done = 0;   ///< points completed so far
  std::size_t total = 0;  ///< points overall (0 until the job starts)
  std::string error;      ///< set when status == kFailed / kCancelled
  JobResult result;       ///< set when status == kDone (shared, unrendered)
};

struct JobStats {
  std::size_t queued = 0;
  std::size_t running = 0;
  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;  ///< cancelled records still retained
  /// Cumulative since construction (survive history trimming):
  std::uint64_t cancelled_total = 0;
  std::uint64_t deadline_expired_total = 0;
};

struct JobOptions {
  std::size_t runner_count = 1;
  /// Bounds the finished-job history: the oldest done/failed/cancelled
  /// records are dropped once the table exceeds it, so a polling client
  /// should fetch results promptly (nullopt afterwards).
  std::size_t retained_jobs = 256;
  /// Wall-clock budget per job, measured from the moment a runner picks
  /// it up.  Zero = unlimited.
  std::chrono::milliseconds deadline{0};
};

class JobManager {
 public:
  /// Progress callback a job's work function calls as points finish.
  /// Throws JobCancelled / JobDeadlineExceeded when the job must stop —
  /// work functions let those propagate.  Batched sweeps call this once
  /// per lane block (with the block's point count), not once per point,
  /// so cancellation and deadlines take effect at batch granularity.
  using Progress = std::function<void(std::size_t done, std::size_t total)>;
  /// The work itself; runs on a runner thread.  Throwing marks the job
  /// failed with the exception message.
  using Work = std::function<JobResult(const Progress& progress)>;

  explicit JobManager(JobOptions options);
  explicit JobManager(std::size_t runner_count = 1,
                      std::size_t retained_jobs = 256);
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Enqueue; returns the job id immediately.  After drain() the job is
  /// admitted but immediately cancelled ("server shutting down").
  std::uint64_t submit(std::string user, std::string description, Work work);

  [[nodiscard]] std::optional<JobSnapshot> get(std::uint64_t id) const;

  /// All of one user's jobs, newest first.
  [[nodiscard]] std::vector<JobSnapshot> list(const std::string& user) const;

  /// Cooperative cancellation: a queued job is cancelled outright; a
  /// running one has its flag raised and stops at its next sweep point.
  CancelOutcome cancel(std::uint64_t id);

  [[nodiscard]] JobStats stats() const;

  /// Block until no job is queued or running (tests, shutdown).
  void wait_idle();

  /// Graceful shutdown: stop admitting work, cancel every queued job,
  /// raise every running job's cancel flag, and wait until the runners
  /// are idle.  Runner threads stay alive (the destructor joins them).
  void drain();

 private:
  struct Record {
    JobSnapshot snapshot;
    Work work;
    /// Shared with the running job's Progress closure; survives record
    /// trimming so a late progress call never dangles.
    std::shared_ptr<std::atomic<bool>> cancel;
  };

  void runner_loop();
  void trim_finished_locked();
  void cancel_queued_locked(Record& record, const char* reason);

  JobOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable job_ready_;  ///< runners wait here
  std::condition_variable idle_;       ///< wait_idle() waits here
  bool stopping_ = false;
  bool draining_ = false;
  std::uint64_t next_id_ = 1;
  std::uint64_t cancelled_total_ = 0;
  std::uint64_t deadline_total_ = 0;
  std::map<std::uint64_t, Record> jobs_;  ///< keyed by id (insertion order)
  std::deque<std::uint64_t> pending_;     ///< ids awaiting a runner
  std::size_t active_ = 0;                ///< jobs currently running
  std::vector<std::thread> runners_;
};

}  // namespace powerplay::engine
