// Unit tests of the parallel evaluation engine: executor, fingerprint,
// Play cache, columnar sweeps (bit-identical to serial), and the async
// job manager.
#include "engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/job.hpp"
#include "model/user_model.hpp"
#include "models/berkeley_library.hpp"
#include "reference.hpp"
#include "studies/vq.hpp"

namespace powerplay::engine {
namespace {

const model::ModelRegistry& lib() {
  static const model::ModelRegistry registry = models::berkeley_library();
  return registry;
}

sheet::Design adder_design() {
  sheet::Design d("adders");
  d.globals().set("vdd", 1.5);
  d.globals().set("f", 1e6);
  auto& a = d.add_row("A", lib().find_shared("ripple_adder"));
  a.params.set("bitwidth", 16.0);
  auto& b = d.add_row("B", lib().find_shared("ripple_adder"));
  b.params.set("bitwidth", 32.0);
  return d;
}

// --- Executor ---------------------------------------------------------------

TEST(Executor, RunsEverySubmittedTask) {
  Executor ex({4, 16});
  std::atomic<int> sum{0};
  TaskGroup group(ex);
  for (int i = 1; i <= 100; ++i) {
    group.run([&sum, i] { sum += i; });
  }
  group.wait();
  EXPECT_EQ(sum.load(), 5050);
  const ExecutorStats s = ex.stats();
  EXPECT_EQ(s.submitted, 100u);
  EXPECT_EQ(s.executed, 100u);
  EXPECT_EQ(s.thread_count, 4u);
}

TEST(Executor, BoundedQueueAppliesBackPressure) {
  // One slow worker + capacity 2: submitting 10 quick tasks must block
  // rather than grow the queue past its bound.  We can only observe the
  // invariant indirectly: queue depth never exceeds capacity.
  Executor ex({1, 2});
  std::atomic<std::size_t> max_depth{0};
  TaskGroup group(ex);
  for (int i = 0; i < 10; ++i) {
    group.run([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const std::size_t depth = ex.stats().queue_depth;
      std::size_t seen = max_depth.load();
      while (depth > seen && !max_depth.compare_exchange_weak(seen, depth)) {
      }
    });
  }
  group.wait();
  EXPECT_LE(max_depth.load(), 2u);
}

TEST(Executor, TaskGroupPropagatesFirstException) {
  Executor ex({2, 8});
  TaskGroup group(ex);
  group.run([] { throw std::runtime_error("boom"); });
  group.run([] {});
  EXPECT_THROW(group.wait(), std::runtime_error);
}

TEST(Executor, ParallelForCoversAllIndices) {
  Executor ex({3, 8});
  std::vector<std::atomic<int>> hits(64);
  parallel_for(ex, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// --- Fingerprint ------------------------------------------------------------

TEST(Fingerprint, StableAcrossIdenticalDesigns) {
  EXPECT_EQ(fingerprint(adder_design()), fingerprint(adder_design()));
}

TEST(Fingerprint, SensitiveToEverythingPlayReads) {
  const std::uint64_t base = fingerprint(adder_design());

  sheet::Design g = adder_design();
  g.globals().set("vdd", 1.8);
  EXPECT_NE(fingerprint(g), base);

  sheet::Design p = adder_design();
  p.find_row("A")->params.set("bitwidth", 24.0);
  EXPECT_NE(fingerprint(p), base);

  sheet::Design e = adder_design();
  e.find_row("B")->enabled = false;
  EXPECT_NE(fingerprint(e), base);

  sheet::Design f = adder_design();
  f.globals().set_formula("derived", "vdd * 2");
  EXPECT_NE(fingerprint(f), base);

  sheet::Design r = adder_design();
  r.remove_row("B");
  EXPECT_NE(fingerprint(r), base);
}

TEST(Fingerprint, HexRendering) {
  EXPECT_EQ(fingerprint_hex(0), "0000000000000000");
  EXPECT_EQ(fingerprint_hex(0xdeadbeefull), "00000000deadbeef");
}

// --- PlayCache --------------------------------------------------------------

TEST(PlayCache, HitMissAndLruEviction) {
  PlayCache cache(2);
  auto result = [](const char* name) {
    auto r = std::make_shared<sheet::PlayResult>();
    r->design_name = name;
    return std::shared_ptr<const sheet::PlayResult>(r);
  };
  EXPECT_EQ(cache.find(1), nullptr);  // miss
  cache.insert(1, result("one"));
  cache.insert(2, result("two"));
  EXPECT_NE(cache.find(1), nullptr);  // hit, promotes 1 over 2
  cache.insert(3, result("three"));   // evicts 2 (LRU)
  EXPECT_EQ(cache.find(2), nullptr);
  EXPECT_NE(cache.find(1), nullptr);
  EXPECT_NE(cache.find(3), nullptr);

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.size, 2u);
  EXPECT_EQ(s.capacity, 2u);
}

TEST(EvalEngine, RepeatedPlayOfUnchangedDesignIsACacheHit) {
  EvalEngine engine;
  const sheet::Design d = adder_design();
  const auto first = engine.play(d);
  const auto second = engine.play(d);
  EXPECT_EQ(first.get(), second.get());  // same shared result object
  const CacheStats s = engine.cache().stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);

  // Any edit changes the fingerprint and misses.
  sheet::Design edited = adder_design();
  edited.globals().set("vdd", 3.3);
  (void)engine.play(edited);
  EXPECT_EQ(engine.cache().stats().misses, 2u);
}

// A model redefined under its old name (POST /newmodel, a federation
// mirror sync) is a new instance: neither the plan cache nor the Play
// memo may keep answering with the old equations.
TEST(EvalEngine, RedefinedModelMissesBothCaches) {
  model::ModelRegistry reg;
  const auto define = [&reg](const std::string& watts) {
    model::UserModelDefinition def;
    def.name = "m";
    def.power_direct = watts;
    reg.add_or_replace(std::make_shared<model::UserModel>(def));
    sheet::Design d("user_design");
    d.globals().set("vdd", 1.0);
    d.globals().set("f", 1e6);
    d.add_row("M", reg.find_shared("m"));
    return d;
  };
  const std::vector<double> vdds = {1.0, 2.0};
  EvalEngine engine;
  const sheet::Design old_design = define("1");
  EXPECT_DOUBLE_EQ(
      engine.sweep_columnar(old_design, "", "vdd", vdds).cols.power_w[1], 1.0);
  EXPECT_DOUBLE_EQ(engine.play(old_design)->total.total_power().si(), 1.0);

  const sheet::Design d = define("2");
  EXPECT_NE(structure_fingerprint(d), structure_fingerprint(old_design));
  EXPECT_NE(fingerprint(d), fingerprint(old_design));
  const sheet::ColumnarSweep swept = engine.sweep_columnar(d, "", "vdd", vdds);
  reference::expect_same_columns(
      swept.cols,
      sheet::to_columns("vdd", sheet::sweep_global(d, "vdd", vdds)).cols);
  EXPECT_DOUBLE_EQ(swept.cols.power_w[1], 2.0);
  EXPECT_DOUBLE_EQ(engine.play(d)->total.total_power().si(), 2.0);
  EXPECT_DOUBLE_EQ(engine.play_compiled(d).total.total_power().si(), 2.0);
}

// --- Columnar sweeps -------------------------------------------------------

TEST(EngineSweep, GlobalSweepBitIdenticalToSerial) {
  EvalEngine engine({{4, 64}, 1024});
  const sheet::Design d = studies::make_luminance_impl2(lib());
  const std::vector<double> vdds = sheet::linspace(1.0, 3.0, 9);
  const sheet::ColumnarSweep serial =
      sheet::to_columns("vdd", sheet::sweep_global(d, "vdd", vdds));
  const sheet::ColumnarSweep parallel = engine.sweep_columnar(d, "", "vdd", vdds);
  EXPECT_EQ(parallel.values, serial.values);
  reference::expect_same_columns(parallel.cols, serial.cols);
}

TEST(EngineSweep, GridSweepBitIdenticalToSerial) {
  EvalEngine engine({{4, 64}, 1024});
  const sheet::Design d = studies::make_luminance_impl2(lib());
  const auto vdds = sheet::linspace(1.0, 3.0, 8);
  const auto rates = sheet::linspace(1e6, 4e6, 8);
  const sheet::ColumnarGrid serial = sheet::to_columns(
      sheet::sweep_grid(d, "vdd", vdds, "pixel_rate", rates));
  const sheet::ColumnarGrid parallel =
      engine.sweep_grid_columnar(d, "vdd", vdds, "pixel_rate", rates);
  reference::expect_same_columns(parallel.cols, serial.cols);
}

TEST(EngineSweep, RowParamSweepMatchesSerial) {
  EvalEngine engine;
  const sheet::Design d = adder_design();
  const std::vector<double> widths = {8, 16, 24, 32};
  const sheet::ColumnarSweep serial = sheet::to_columns(
      "bitwidth", sheet::sweep_row_param(d, "A", "bitwidth", widths));
  const sheet::ColumnarSweep parallel =
      engine.sweep_columnar(d, "A", "bitwidth", widths);
  reference::expect_same_columns(parallel.cols, serial.cols);
}

TEST(EngineSweep, ProgressReportsOncePerLaneBlock) {
  EvalEngine engine;
  const sheet::Design d = adder_design();
  std::atomic<std::size_t> calls{0};
  std::atomic<std::size_t> final_done{0};
  (void)engine.sweep_columnar(d, "", "vdd", sheet::linspace(1, 2, 130),
                              [&](std::size_t done, std::size_t total) {
                                ++calls;
                                if (done == total) final_done = done;
                              });
  EXPECT_EQ(calls.load(), 3u);
  EXPECT_EQ(final_done.load(), 130u);
}

// --- Sweep validation (the silent-create bugfix) ----------------------------

TEST(SweepValidation, UnknownGlobalThrowsInsteadOfCreating) {
  const sheet::Design d = adder_design();
  EXPECT_THROW(sheet::sweep_global(d, "vdd_typo", {1, 2}), expr::ExprError);
  EXPECT_THROW(sheet::sweep_grid(d, "vdd", {1}, "freq_typo", {1e6}),
               expr::ExprError);
  EvalEngine engine;
  EXPECT_THROW((void)engine.sweep_columnar(d, "", "vdd_typo", {1, 2}),
               expr::ExprError);
}

TEST(SweepValidation, UnknownRowParamThrows) {
  const sheet::Design d = adder_design();
  EXPECT_THROW(sheet::sweep_row_param(d, "A", "bitwidht", {8}),
               expr::ExprError);
  // Model-declared parameters are sweepable even when not yet bound.
  const auto points = sheet::sweep_row_param(d, "A", "alpha", {0.5, 1.0});
  EXPECT_EQ(points.size(), 2u);
}

// --- grid_csv ---------------------------------------------------------------

TEST(GridCsv, LongFormMachineReadable) {
  const sheet::Design d = adder_design();
  const auto grid = sheet::sweep_grid(d, "vdd", {1.0, 2.0}, "f", {1e6});
  const std::string csv = sheet::grid_csv(sheet::to_columns(grid));
  EXPECT_NE(csv.find("vdd,f,total_power_w,energy_per_op_j\n"),
            std::string::npos);
  // 2x1 grid -> header + 2 data lines.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  // P = C vdd^2 f quadruples from vdd=1 to vdd=2.
  const auto p00 = grid.results[0][0].total.total_power().si();
  const auto p10 = grid.results[1][0].total.total_power().si();
  EXPECT_NEAR(p10 / p00, 4.0, 1e-9);
}

// --- JobManager -------------------------------------------------------------

/// A typed result offering a table and a CSV (no JSON) that counts how
/// often it is rendered.
class CountingResult final : public JobResult::Body {
 public:
  bool has(JobFormat format) const override {
    return format != JobFormat::kJson;
  }
  std::string render(JobFormat format) const override {
    renders_.fetch_add(1);
    return format == JobFormat::kTable ? "table-text" : "csv-text";
  }
  [[nodiscard]] int renders() const { return renders_.load(); }

 private:
  mutable std::atomic<int> renders_{0};
};

TEST(JobManager, LifecycleAndSnapshot) {
  JobManager jobs(1, 16);
  const auto body = std::make_shared<const CountingResult>();
  const std::uint64_t id = jobs.submit(
      "dl", "demo", [body](const JobManager::Progress& progress) {
        progress(3, 3);
        return JobResult(body);
      });
  jobs.wait_idle();
  const auto snap = jobs.get(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->status, JobStatus::kDone);
  EXPECT_EQ(snap->done, 3u);
  EXPECT_EQ(snap->total, 3u);
  EXPECT_EQ(snap->user, "dl");

  const auto listed = jobs.list("dl");
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].id, id);
  EXPECT_TRUE(jobs.list("nobody").empty());
  EXPECT_FALSE(jobs.get(id + 999).has_value());

  // Every snapshot shares the job's one result; none rendered it.
  EXPECT_EQ(snap->result.body(), body.get());
  EXPECT_EQ(listed[0].result.body(), body.get());
  EXPECT_EQ(body->renders(), 0);
  // A reader renders the format it asks for, and only that one.
  EXPECT_EQ(snap->result.render(JobFormat::kTable), "table-text");
  EXPECT_EQ(body->renders(), 1);
  EXPECT_EQ(snap->result.render(JobFormat::kCsv), "csv-text");
  EXPECT_FALSE(snap->result.has(JobFormat::kJson));
  EXPECT_EQ(snap->result.render(JobFormat::kJson), "");
  EXPECT_EQ(body->renders(), 2);
}

TEST(JobResult, PreRenderedTextServesEachFormatAsGiven) {
  const JobResult none;
  EXPECT_FALSE(none.has(JobFormat::kTable));
  EXPECT_EQ(none.render(JobFormat::kCsv), "");
  const JobResult two{"t", "c"};
  EXPECT_EQ(two.render(JobFormat::kTable), "t");
  EXPECT_EQ(two.render(JobFormat::kCsv), "c");
  EXPECT_FALSE(two.has(JobFormat::kJson));
  const JobResult three{"t", "c", "{}"};
  EXPECT_TRUE(three.has(JobFormat::kJson));
  EXPECT_EQ(three.render(JobFormat::kJson), "{}");
}

TEST(JobManager, ProgressNeverGoesBackwardsUnderOutOfOrderReports) {
  // Parallel sweeps count `done` with a fetch_add outside the job lock,
  // so reports reach the callback out of order.  Several threads each
  // report a descending run of counts while reading the snapshot back:
  // the visible progress must never move down, and a finished job must
  // read done == total even when its last report was a stale one.
  constexpr std::size_t kTotal = 144;
  constexpr std::size_t kThreads = 6;
  JobManager jobs(1, 16);
  std::atomic<std::uint64_t> job_id{0};
  std::atomic<bool> monotone{true};
  const std::uint64_t id = jobs.submit(
      "race", "out of order", [&](const JobManager::Progress& progress) {
        while (job_id.load() == 0) std::this_thread::yield();
        std::vector<std::thread> reporters;
        for (std::size_t t = 0; t < kThreads; ++t) {
          reporters.emplace_back([&, t] {
            std::size_t seen = 0;
            for (std::size_t v = kTotal - t; v > kThreads; v -= kThreads) {
              progress(v, kTotal);
              const auto snap = jobs.get(job_id.load());
              if (!snap || snap->done < seen || snap->done < v) {
                monotone.store(false);
              }
              if (snap) seen = snap->done;
            }
          });
        }
        for (std::thread& r : reporters) r.join();
        progress(64, kTotal);  // a late block's stale count
        const auto snap = jobs.get(job_id.load());
        if (!snap || snap->done != kTotal) monotone.store(false);
        return JobResult{"t", "c"};
      });
  job_id.store(id);
  jobs.wait_idle();
  EXPECT_TRUE(monotone.load());
  const auto done = jobs.get(id);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->status, JobStatus::kDone);
  EXPECT_EQ(done->done, kTotal);
  EXPECT_EQ(done->total, kTotal);

  // A job whose largest report fell short still ends done == total.
  const std::uint64_t short_id = jobs.submit(
      "race", "short", [](const JobManager::Progress& progress) {
        progress(64, kTotal);
        return JobResult{"t", "c"};
      });
  jobs.wait_idle();
  const auto short_done = jobs.get(short_id);
  ASSERT_TRUE(short_done.has_value());
  EXPECT_EQ(short_done->status, JobStatus::kDone);
  EXPECT_EQ(short_done->done, kTotal);
  EXPECT_EQ(short_done->total, kTotal);
}

TEST(JobManager, FailedJobCarriesError) {
  JobManager jobs;
  const std::uint64_t id =
      jobs.submit("dl", "bad", [](const JobManager::Progress&) -> JobResult {
        throw std::runtime_error("sweep exploded");
      });
  jobs.wait_idle();
  const auto snap = jobs.get(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->status, JobStatus::kFailed);
  EXPECT_EQ(snap->error, "sweep exploded");
  EXPECT_EQ(jobs.stats().failed, 1u);
}

TEST(JobManager, CancelQueuedJobNeverRuns) {
  JobManager jobs(1, 16);
  std::atomic<bool> release{false};
  std::atomic<bool> victim_ran{false};
  jobs.submit("dl", "blocker", [&](const JobManager::Progress&) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return JobResult{};
  });
  const std::uint64_t victim =
      jobs.submit("dl", "victim", [&](const JobManager::Progress&) {
        victim_ran = true;
        return JobResult{};
      });
  EXPECT_EQ(jobs.cancel(victim), CancelOutcome::kCancelled);
  release = true;
  jobs.wait_idle();
  const auto snap = jobs.get(victim);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->status, JobStatus::kCancelled);
  EXPECT_FALSE(victim_ran.load());
  EXPECT_EQ(jobs.stats().cancelled_total, 1u);
  // Cancelling a finished job is a no-op.
  EXPECT_EQ(jobs.cancel(victim), CancelOutcome::kAlreadyFinished);
  EXPECT_EQ(jobs.cancel(9999), CancelOutcome::kNoSuchJob);
}

TEST(JobManager, CancelRunningJobStopsAtNextProgressPoint) {
  JobManager jobs(1, 16);
  std::atomic<bool> started{false};
  const std::uint64_t id =
      jobs.submit("dl", "long", [&](const JobManager::Progress& progress) {
        for (std::size_t i = 0;; ++i) {
          started = true;
          progress(i, 0);  // throws JobCancelled once the flag is up
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return JobResult{};
      });
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(jobs.cancel(id), CancelOutcome::kRequested);
  jobs.wait_idle();  // returns promptly: the runner was freed
  const auto snap = jobs.get(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->status, JobStatus::kCancelled);
  EXPECT_EQ(snap->error, "job cancelled");
  EXPECT_EQ(jobs.stats().cancelled_total, 1u);
}

TEST(JobManager, DeadlineExpiryFailsTheJob) {
  JobOptions options;
  options.runner_count = 1;
  options.deadline = std::chrono::milliseconds(30);
  JobManager jobs(options);
  const std::uint64_t id =
      jobs.submit("dl", "runaway", [](const JobManager::Progress& progress) {
        for (std::size_t i = 0;; ++i) {
          progress(i, 0);  // throws JobDeadlineExceeded past the budget
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return JobResult{};
      });
  jobs.wait_idle();
  const auto snap = jobs.get(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->status, JobStatus::kFailed);
  EXPECT_EQ(snap->error, "deadline exceeded");
  EXPECT_EQ(jobs.stats().deadline_expired_total, 1u);
}

TEST(JobManager, DrainCancelsEverythingAndRejectsNewWork) {
  JobManager jobs(1, 16);
  std::atomic<bool> started{false};
  const std::uint64_t running =
      jobs.submit("dl", "running", [&](const JobManager::Progress& progress) {
        for (std::size_t i = 0;; ++i) {
          started = true;
          progress(i, 0);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return JobResult{};
      });
  const std::uint64_t queued = jobs.submit(
      "dl", "queued", [](const JobManager::Progress&) { return JobResult{}; });
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  jobs.drain();
  EXPECT_EQ(jobs.get(running)->status, JobStatus::kCancelled);
  EXPECT_EQ(jobs.get(queued)->status, JobStatus::kCancelled);
  // Post-drain submissions are admitted but immediately cancelled.
  const std::uint64_t late = jobs.submit(
      "dl", "late", [](const JobManager::Progress&) { return JobResult{}; });
  const auto snap = jobs.get(late);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->status, JobStatus::kCancelled);
  EXPECT_EQ(jobs.stats().cancelled_total, 3u);
}

TEST(JobManager, CancelledSweepFreesItsRunner) {
  // End-to-end through the engine: the Progress wrapper's exception has
  // to propagate out of parallel_for / TaskGroup and stop the sweep
  // within one lane block's granularity.
  EvalEngine engine({{2, 64}, 1024});
  JobManager jobs(1, 16);
  const sheet::Design d = adder_design();
  std::atomic<bool> started{false};
  const std::uint64_t id = jobs.submit(
      "dl", "sweep", [&](const JobManager::Progress& progress) {
        // 400 lane blocks, one progress call (and sleep) each.
        const auto points = engine.sweep_columnar(
            d, "", "vdd",
            sheet::linspace(1.0, 3.0,
                            static_cast<int>(
                                400 * sheet::BatchPlanInstance::kLaneWidth)),
            [&](std::size_t done, std::size_t total) {
              started = true;
              progress(done, total);
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            });
        return JobResult{"done", "done"};
      });
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  jobs.cancel(id);
  jobs.wait_idle();
  const auto snap = jobs.get(id);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->status, JobStatus::kCancelled);
  // The freed runner picks up new work.
  const std::uint64_t next = jobs.submit(
      "dl", "after", [](const JobManager::Progress&) { return JobResult{}; });
  jobs.wait_idle();
  EXPECT_EQ(jobs.get(next)->status, JobStatus::kDone);
}

TEST(JobManager, RetainedHistoryIsBounded) {
  JobManager jobs(1, 4);
  for (int i = 0; i < 10; ++i) {
    jobs.submit("dl", "j" + std::to_string(i),
                [](const JobManager::Progress&) { return JobResult{}; });
  }
  jobs.wait_idle();
  // Submission trims finished records down to the retention bound; the
  // last submit may still have been running at its own trim point, so
  // allow the bound itself.
  EXPECT_LE(jobs.list("dl").size(), 4u);
  // The newest job is always still visible.
  const auto listed = jobs.list("dl");
  ASSERT_FALSE(listed.empty());
  EXPECT_EQ(listed.front().description, "j9");
}

}  // namespace
}  // namespace powerplay::engine
