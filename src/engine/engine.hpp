// engine.hpp — the parallel evaluation engine.
//
// One EvalEngine per process (the web app owns one): a thread-pool
// executor that evaluates independent sweep points concurrently, a plan
// cache of compiled EvalPlans (sheet/plan.hpp) keyed by structural
// fingerprint so the compile cost is paid once per design *shape*, not
// per edit or per renamed copy, and a memoized Play cache.
//
// Interactive Play (every design page, CSV export and CLI play) runs
// play_compiled: a fresh PlanInstance over the cached plan, bound to
// the design.  It does not use the memo: a retained result weighs
// kilobytes per design state, far more than a plan per design shape.
//
// Every sweep and point set runs on one substrate: the lane-batched
// columnar path (sheet/batch.hpp).  Points partition into 64-lane
// blocks by point index, each worker plays its blocks through one
// BatchPlanInstance over the shared plan, re-binding the swept slots
// per lane, and four metric columns come back instead of per-point
// PlayResults.  Results are bit-identical to the serial interpreter
// loops in sheet/sweep.hpp at any thread count.  Sweeps bypass the
// Play cache.
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
/// (single-point blocks, blocks degraded by an error); `lane_replays` counts programs the batch interpreter had
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

  /// Press Play on the compiled plan: a fresh PlanInstance over
  /// plan_for(design), bound with bind_from.  Bit-identical to
  /// design.play(), errors included; retains nothing but the plan.
  [[nodiscard]] sheet::PlayResult play_compiled(const sheet::Design& design);

  /// Memoized Play: fingerprint, probe the cache, play_compiled on a
  /// miss.  The returned result is shared and immutable.  No production
  /// route uses it (see the header comment); perfbench's engine.play_us
  /// layer measures it.
  [[nodiscard]] std::shared_ptr<const sheet::PlayResult> play(
      const sheet::Design& design);

  /// Columnar one-parameter sweep: global `param` when `row` is empty,
  /// otherwise parameter `param` of row `row`.  Same validation and
  /// errors as sheet::sweep_global / sheet::sweep_row_param.  A row
  /// parameter the row does not bind (a model default or a macro
  /// global) is materialized on one clone per sweep, so the plan has a
  /// slot for it.
  [[nodiscard]] sheet::ColumnarSweep sweep_columnar(
      const sheet::Design& design, const std::string& row,
      const std::string& param, const std::vector<double>& values,
      const sheet::SweepProgress& progress = {});

  /// Columnar grid sweep: point (i, j) binds x_param = xs[i] and
  /// y_param = ys[j].  Each worker streams its blocks' metrics straight
  /// into the shared column arrays.  Same validation and errors as
  /// sheet::sweep_grid.
  [[nodiscard]] sheet::ColumnarGrid sweep_grid_columnar(
      const sheet::Design& design, const std::string& x_param,
      const std::vector<double>& xs, const std::string& y_param,
      const std::vector<double>& ys,
      const sheet::SweepProgress& progress = {});

  /// Arbitrary-dimension point evaluation — the substrate of the
  /// exploration workloads (Monte Carlo, Pareto search, inverse
  /// queries, surrogate training): point i binds params[j] =
  /// points[i][j] for every j.  Unknown parameters are all reported in
  /// one ExprError (sheet::require_globals).  Columns come back in point
  /// order.
  [[nodiscard]] sheet::PointColumns play_points_columnar(
      const sheet::Design& design, const std::vector<std::string>& params,
      const std::vector<std::vector<double>>& points,
      const sheet::SweepProgress& progress = {});

  /// Snapshot of the process-lifetime batch counters.
  [[nodiscard]] BatchCounters batch_counters() const;

 private:
  /// Block-index ranges sized so each worker chunk amortizes one
  /// BatchPlanInstance over many blocks.
  [[nodiscard]] std::size_t chunk_count(std::size_t blocks) const;

  /// The one sweep loop: partition `total` points into lane blocks,
  /// run them over the executor on `plan` (compiled from `design`),
  /// accumulate batch counters.  `fill_lanes(base, width, lanes)` loads
  /// the slot lane values for one block.
  template <typename FillLanes>
  void run_columnar(std::shared_ptr<const sheet::EvalPlan> plan,
                    const sheet::Design& design,
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
