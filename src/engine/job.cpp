#include "engine/job.hpp"

#include <algorithm>
#include <array>
#include <utility>

namespace powerplay::engine {

std::string to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kQueued:
      return "queued";
    case JobStatus::kRunning:
      return "running";
    case JobStatus::kDone:
      return "done";
    case JobStatus::kFailed:
      return "failed";
    case JobStatus::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

namespace {

/// Pre-rendered text: each format served as given.
class TextBody final : public JobResult::Body {
 public:
  TextBody(std::string table, std::string csv, std::string json)
      : text_{std::move(table), std::move(csv), std::move(json)} {}
  bool has(JobFormat format) const override {
    return format != JobFormat::kJson || !text(format).empty();
  }
  std::string render(JobFormat format) const override { return text(format); }

 private:
  const std::string& text(JobFormat format) const {
    return text_[static_cast<std::size_t>(format)];
  }
  std::array<std::string, 3> text_;
};

bool is_finished(JobStatus status) {
  return status == JobStatus::kDone || status == JobStatus::kFailed ||
         status == JobStatus::kCancelled;
}

}  // namespace

JobResult::JobResult(std::string table, std::string csv, std::string json)
    : body_(std::make_shared<const TextBody>(
          std::move(table), std::move(csv), std::move(json))) {}

JobManager::JobManager(JobOptions options) : options_(options) {
  if (options_.runner_count == 0) options_.runner_count = 1;
  if (options_.retained_jobs == 0) options_.retained_jobs = 1;
  runners_.reserve(options_.runner_count);
  for (std::size_t i = 0; i < options_.runner_count; ++i) {
    runners_.emplace_back([this] { runner_loop(); });
  }
}

JobManager::JobManager(std::size_t runner_count, std::size_t retained_jobs)
    : JobManager(JobOptions{runner_count, retained_jobs,
                            std::chrono::milliseconds{0}}) {}

JobManager::~JobManager() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
    pending_.clear();  // queued-but-unstarted jobs die with the process
    for (auto& [id, record] : jobs_) {
      if (record.cancel) record.cancel->store(true);
    }
  }
  job_ready_.notify_all();
  for (std::thread& t : runners_) t.join();
}

std::uint64_t JobManager::submit(std::string user, std::string description,
                                 Work work) {
  std::uint64_t id = 0;
  {
    std::lock_guard lock(mutex_);
    id = next_id_++;
    Record record;
    record.snapshot.id = id;
    record.snapshot.user = std::move(user);
    record.snapshot.description = std::move(description);
    record.snapshot.status = JobStatus::kQueued;
    record.work = std::move(work);
    record.cancel = std::make_shared<std::atomic<bool>>(false);
    auto [it, inserted] = jobs_.emplace(id, std::move(record));
    if (draining_) {
      cancel_queued_locked(it->second, "cancelled: server shutting down");
    } else {
      pending_.push_back(id);
    }
    trim_finished_locked();
  }
  job_ready_.notify_one();
  return id;
}

std::optional<JobSnapshot> JobManager::get(std::uint64_t id) const {
  std::lock_guard lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second.snapshot;
}

std::vector<JobSnapshot> JobManager::list(const std::string& user) const {
  std::lock_guard lock(mutex_);
  std::vector<JobSnapshot> out;
  for (auto it = jobs_.rbegin(); it != jobs_.rend(); ++it) {
    if (it->second.snapshot.user == user) out.push_back(it->second.snapshot);
  }
  return out;
}

void JobManager::cancel_queued_locked(Record& record, const char* reason) {
  record.snapshot.status = JobStatus::kCancelled;
  record.snapshot.error = reason;
  record.work = nullptr;  // release any captured state now
  ++cancelled_total_;
}

CancelOutcome JobManager::cancel(std::uint64_t id) {
  std::lock_guard lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return CancelOutcome::kNoSuchJob;
  JobSnapshot& snap = it->second.snapshot;
  switch (snap.status) {
    case JobStatus::kQueued: {
      auto pending = std::find(pending_.begin(), pending_.end(), id);
      if (pending != pending_.end()) pending_.erase(pending);
      cancel_queued_locked(it->second, "cancelled before start");
      trim_finished_locked();
      if (pending_.empty() && active_ == 0) idle_.notify_all();
      return CancelOutcome::kCancelled;
    }
    case JobStatus::kRunning:
      it->second.cancel->store(true);
      return CancelOutcome::kRequested;
    case JobStatus::kDone:
    case JobStatus::kFailed:
    case JobStatus::kCancelled:
      break;
  }
  return CancelOutcome::kAlreadyFinished;
}

JobStats JobManager::stats() const {
  std::lock_guard lock(mutex_);
  JobStats s;
  for (const auto& [id, record] : jobs_) {
    switch (record.snapshot.status) {
      case JobStatus::kQueued:
        ++s.queued;
        break;
      case JobStatus::kRunning:
        ++s.running;
        break;
      case JobStatus::kDone:
        ++s.done;
        break;
      case JobStatus::kFailed:
        ++s.failed;
        break;
      case JobStatus::kCancelled:
        ++s.cancelled;
        break;
    }
  }
  s.cancelled_total = cancelled_total_;
  s.deadline_expired_total = deadline_total_;
  return s;
}

void JobManager::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return pending_.empty() && active_ == 0; });
}

void JobManager::drain() {
  {
    std::lock_guard lock(mutex_);
    draining_ = true;
    for (std::uint64_t id : pending_) {
      auto it = jobs_.find(id);
      if (it == jobs_.end()) continue;
      cancel_queued_locked(it->second, "cancelled: server shutting down");
    }
    pending_.clear();
    for (auto& [id, record] : jobs_) {
      if (record.snapshot.status == JobStatus::kRunning) {
        record.cancel->store(true);
      }
    }
    trim_finished_locked();
  }
  wait_idle();
}

void JobManager::runner_loop() {
  for (;;) {
    std::uint64_t id = 0;
    Work work;
    std::shared_ptr<std::atomic<bool>> cancel;
    {
      std::unique_lock lock(mutex_);
      job_ready_.wait(lock,
                      [this] { return stopping_ || !pending_.empty(); });
      if (stopping_) return;
      id = pending_.front();
      pending_.pop_front();
      auto it = jobs_.find(id);
      if (it == jobs_.end()) continue;  // trimmed while queued
      it->second.snapshot.status = JobStatus::kRunning;
      work = std::move(it->second.work);
      cancel = it->second.cancel;
      ++active_;
    }

    const auto started = std::chrono::steady_clock::now();
    const auto deadline = options_.deadline;
    const Progress progress = [this, id, cancel, started,
                               deadline](std::size_t done,
                                         std::size_t total) {
      {
        std::lock_guard lock(mutex_);
        auto it = jobs_.find(id);
        if (it != jobs_.end()) {
          // Parallel sweeps count `done` outside this lock, so a late
          // block can report a smaller value: progress only moves up.
          JobSnapshot& snap = it->second.snapshot;
          snap.done = std::max(snap.done, done);
          snap.total = total;
        }
      }
      if (cancel->load()) throw JobCancelled();
      if (deadline.count() > 0 &&
          std::chrono::steady_clock::now() - started >= deadline) {
        throw JobDeadlineExceeded();
      }
    };

    enum class Outcome { kOk, kCancelled, kDeadline, kError };
    Outcome outcome = Outcome::kOk;
    JobResult result;
    std::string error;
    try {
      result = work(progress);
      // A cancel that raced the final point still wins: the client
      // asked for the job to stop, so don't hand back a result.
      if (cancel->load()) {
        outcome = Outcome::kCancelled;
        error = JobCancelled().what();
      }
    } catch (const JobCancelled& e) {
      outcome = Outcome::kCancelled;
      error = e.what();
    } catch (const JobDeadlineExceeded& e) {
      outcome = Outcome::kDeadline;
      error = e.what();
    } catch (const std::exception& e) {
      outcome = Outcome::kError;
      error = e.what();
    } catch (...) {
      outcome = Outcome::kError;
      error = "unknown error";
    }

    {
      std::lock_guard lock(mutex_);
      auto it = jobs_.find(id);
      if (it != jobs_.end()) {
        JobSnapshot& snap = it->second.snapshot;
        switch (outcome) {
          case Outcome::kOk:
            snap.status = JobStatus::kDone;
            snap.result = std::move(result);
            if (snap.total == 0) snap.total = snap.done;
            snap.done = snap.total;
            break;
          case Outcome::kCancelled:
            snap.status = JobStatus::kCancelled;
            snap.error = std::move(error);
            break;
          case Outcome::kDeadline:
            snap.status = JobStatus::kFailed;
            snap.error = std::move(error);
            break;
          case Outcome::kError:
            snap.status = JobStatus::kFailed;
            snap.error = std::move(error);
            break;
        }
      }
      if (outcome == Outcome::kCancelled) ++cancelled_total_;
      if (outcome == Outcome::kDeadline) ++deadline_total_;
      --active_;
      trim_finished_locked();
      if (pending_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

void JobManager::trim_finished_locked() {
  // The bound applies to finished records only: queued/running jobs are
  // never evicted, and a deep backlog must not push out fresh results
  // before their poller has fetched them.
  std::size_t finished = 0;
  for (const auto& [id, record] : jobs_) {
    if (is_finished(record.snapshot.status)) ++finished;
  }
  for (auto it = jobs_.begin();
       finished > options_.retained_jobs && it != jobs_.end();) {
    if (is_finished(it->second.snapshot.status)) {
      it = jobs_.erase(it);  // std::map is id-ordered: oldest first
      --finished;
    } else {
      ++it;
    }
  }
}

}  // namespace powerplay::engine
