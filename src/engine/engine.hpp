// engine.hpp — the parallel evaluation engine.
//
// One EvalEngine per process (the web app owns one): a thread-pool
// executor for Playing independent sweep points concurrently, a
// memoized Play cache so an unchanged design — a reloaded page, a
// revisited sweep point, a second user opening a shared design — costs
// a hash instead of a fixed-point evaluation, and a plan cache of
// compiled EvalPlans (sheet/plan.hpp) keyed by structural fingerprint
// so the compile cost is paid once per design *shape*, not per edit.
//
// Sweeps are clone-free: instead of copying the whole design per point
// (the serial paths in sheet/sweep.hpp), each worker holds one
// PlanInstance over the shared plan and re-binds the swept parameter's
// slot per point.  Results are bit-identical to the serial loops.
// Per-point Play-cache keys are derived — the design fingerprint
// computed once per sweep, folded with the swept parameter's identity
// and value — so keying costs nanoseconds per point and repeated
// sweeps (re-submitted jobs, multiple users) hit the cache.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "engine/cache.hpp"
#include "engine/executor.hpp"
#include "engine/fingerprint.hpp"
#include "sheet/batch.hpp"
#include "sheet/plan.hpp"
#include "sheet/sweep.hpp"

namespace powerplay::engine {

struct EngineOptions {
  ExecutorOptions executor;
  std::size_t cache_capacity = 4096;
  /// Compiled plans are small but designs have few shapes; a modest
  /// LRU keeps every actively edited design's plan resident.
  std::size_t plan_cache_capacity = 256;
};

/// Compiled evaluation plans, keyed by structure_fingerprint().
using PlanCache = LruCache<sheet::EvalPlan>;

/// Process-lifetime counters for the lane-batched columnar paths
/// (served on /healthz).  `scalar_fallback_points` counts points a
/// columnar call evaluated through the whole-point scalar path
/// (non-slot-addressable bindings, degenerate batches, blocks degraded
/// by an error); `lane_replays` counts programs the batch interpreter had
/// to replay lane-by-lane (divergent conditionals, would-throw
/// conditions).
struct BatchCounters {
  std::uint64_t points = 0;
  std::uint64_t blocks = 0;
  std::uint64_t scalar_fallback_points = 0;
  std::uint64_t lane_replays = 0;
  /// Row-blocks served by the captured-terms fast path (one model
  /// evaluate per block, per-lane operating-point arithmetic only).
  std::uint64_t term_capture_rows = 0;
};

class EvalEngine {
 public:
  explicit EvalEngine(EngineOptions options = {});

  [[nodiscard]] Executor& executor() { return executor_; }
  [[nodiscard]] PlayCache& cache() { return cache_; }
  [[nodiscard]] PlanCache& plans() { return plans_; }

  /// Compiled plan for `design`, from the plan cache when a
  /// structurally identical design was compiled before.
  [[nodiscard]] std::shared_ptr<const sheet::EvalPlan> plan_for(
      const sheet::Design& design);

  /// Memoized Play: fingerprint, probe the cache, run the compiled
  /// plan on miss.  The returned result is shared and immutable.
  [[nodiscard]] std::shared_ptr<const sheet::PlayResult> play(
      const sheet::Design& design);

  /// Engine-backed sweeps: parallel over the executor, memoized per
  /// point, one PlanInstance per worker chunk (no design clones).
  /// Same signatures, validation, errors and results as the serial
  /// entry points in sheet/sweep.hpp.
  [[nodiscard]] std::vector<sheet::SweepPoint> sweep_global(
      const sheet::Design& design, const std::string& param,
      const std::vector<double>& values,
      const sheet::SweepProgress& progress = {});

  [[nodiscard]] std::vector<sheet::SweepPoint> sweep_row_param(
      const sheet::Design& design, const std::string& row,
      const std::string& param, const std::vector<double>& values,
      const sheet::SweepProgress& progress = {});

  [[nodiscard]] sheet::GridSweep sweep_grid(
      const sheet::Design& design, const std::string& x_param,
      const std::vector<double>& xs, const std::string& y_param,
      const std::vector<double>& ys,
      const sheet::SweepProgress& progress = {});

  /// Arbitrary-dimension point evaluation — the substrate of the
  /// exploration workloads (Monte Carlo, Pareto search, surrogate
  /// training): Play the design once per row of `points`, where row i
  /// binds params[j] = points[i][j] for every j.  Unknown parameters are
  /// all reported in one ExprError (sheet::require_globals).  Results
  /// come back in point order, each computed independently of worker
  /// count, so output bytes are identical at 1 and N threads.
  [[nodiscard]] std::vector<sheet::PlayResult> play_points(
      const sheet::Design& design, const std::vector<std::string>& params,
      const std::vector<std::vector<double>>& points,
      const sheet::SweepProgress& progress = {});

  /// Columnar grid sweep on the lane-batched substrate
  /// (sheet/batch.hpp): points partition into kLaneWidth lane blocks
  /// by point index — a thread-count-independent split — and each
  /// worker streams its blocks' metrics straight into the shared
  /// column arrays.  No per-point PlayResult is materialized and the
  /// Play cache is bypassed entirely; values are bit-identical to
  /// sweep_grid (tests/batch_test.cpp asserts this differentially).
  /// Same validation and errors as sweep_grid.
  [[nodiscard]] sheet::ColumnarGrid sweep_grid_columnar(
      const sheet::Design& design, const std::string& x_param,
      const std::vector<double>& xs, const std::string& y_param,
      const std::vector<double>& ys,
      const sheet::SweepProgress& progress = {});

  /// Columnar counterpart of play_points: same validation, errors and
  /// point order, four metric columns instead of PlayResults.  The
  /// batched explore workloads (Monte Carlo, Pareto, surrogate
  /// training) run on this.  Deterministic at any thread count.
  [[nodiscard]] sheet::PointColumns play_points_columnar(
      const sheet::Design& design, const std::vector<std::string>& params,
      const std::vector<std::vector<double>>& points,
      const sheet::SweepProgress& progress = {});

  /// Snapshot of the process-lifetime batch counters.
  [[nodiscard]] BatchCounters batch_counters() const;

 private:
  /// Play `inst` (slots already bound for the point) under Play-cache
  /// key `key`: probe first, insert on miss.
  [[nodiscard]] std::shared_ptr<const sheet::PlayResult> play_bound(
      sheet::PlanInstance& inst, std::uint64_t key);

  /// Point-index ranges sized so each worker chunk amortizes one
  /// PlanInstance over many points.
  [[nodiscard]] std::size_t chunk_count(std::size_t points) const;

  /// Shared columnar-path driver: partition `total` points into lane
  /// blocks, run them over the executor, accumulate batch counters.
  /// `fill_lanes(block, base, width, lanes)` loads the slot lane
  /// values for one block.
  template <typename FillLanes>
  void run_columnar(const sheet::Design& design,
                    const std::vector<expr::SlotId>& slots,
                    std::size_t total, sheet::PointColumns& out,
                    const sheet::SweepProgress& progress,
                    FillLanes&& fill_lanes);

  Executor executor_;
  PlayCache cache_;
  PlanCache plans_;

  std::atomic<std::uint64_t> batch_points_{0};
  std::atomic<std::uint64_t> batch_blocks_{0};
  std::atomic<std::uint64_t> batch_fallback_points_{0};
  std::atomic<std::uint64_t> batch_lane_replays_{0};
  std::atomic<std::uint64_t> batch_term_capture_rows_{0};
};

}  // namespace powerplay::engine
