// batch.hpp — lane-block (point-per-lane) plan evaluation with
// columnar results.
//
// PlanInstance plays one sweep point at a time and materializes a full
// PlayResult per point: per-row RowResults, shown-parameter vectors,
// cap-term lists — deep copies the grid/Monte-Carlo workloads throw
// away after reading four doubles.  BatchPlanInstance evaluates a
// whole *lane block* of points through sheet-ordered row passes:
// slot storage is structure-of-arrays (expr::BatchExec), each row's
// formulas evaluate across the block at once, and per-row estimates
// accumulate into per-lane metric columns — no per-point result
// objects, no Play-cache probe, no locked shared state on the hot
// path.
//
// Intermodel plans (rowpower/totalpower/... — InfoPad's EQ 19
// converter) run the fixed point inside the block: each node keeps
// per-row, per-lane estimates and lane-uniform `present` flags, the
// extension ops read them through BatchExec's kExt hooks, and the node
// iterates the way PlanInstance::run_node does — settle-rank reuse,
// model::combine order, name-sorted totalpower/totalarea sums, a
// per-lane intermodel_used flag and the 1e-9*max(1,|total|)
// convergence test — freezing each lane's result at the iteration
// where that lane converges and iterating while any lane is active.
// Which rows evaluate at an iteration depends only on the static
// settle ranks, so every lane runs the same row schedule the scalar
// path runs for that point.  Blocks of width <= 1 take the scalar
// PlanInstance per point (`BatchStats::scalar_fallback_points`).  Any
// error raised during a batch pass — including a lane that hits
// Design::kMaxIterations — degrades the whole block to the scalar
// path, so the error that surfaces (and its message) is exactly the
// one the scalar sweep would raise for the lowest failing point index.
//
// Tolerance contract: within a lane every operation runs in the same
// order on the same doubles as the scalar path, with no cross-lane
// reassociation and no fused multiply-adds introduced (each opcode and
// each accumulator update is a separate load/compute/store), so batch
// results are expected bit-identical to PlanInstance::play — which
// tests/batch_test.cpp asserts differentially.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "expr/batch.hpp"
#include "sheet/plan.hpp"

namespace powerplay::sheet {

/// Columnar point results: column i holds the four result metrics of
/// point i.  This is everything the sweep/explore consumers read off a
/// PlayResult, at 32 bytes per point instead of a full result tree.
struct PointColumns {
  std::vector<double> power_w;   ///< total power (dynamic + static), W
  std::vector<double> energy_j;  ///< energy per operation, J
  std::vector<double> area_m2;   ///< total area, m^2
  std::vector<double> delay_s;   ///< critical-path delay, s

  void resize(std::size_t n) {
    power_w.assign(n, 0.0);
    energy_j.assign(n, 0.0);
    area_m2.assign(n, 0.0);
    delay_s.assign(n, 0.0);
  }
  [[nodiscard]] std::size_t size() const { return power_w.size(); }
  /// Column i := the four metrics of a whole-point Play.
  void set(std::size_t i, const PlayResult& r) {
    power_w[i] = r.total.total_power().si();
    energy_j[i] = r.total.energy_per_op.si();
    area_m2[i] = r.total.area.si();
    delay_s[i] = r.total.delay.si();
  }
};

/// A one-parameter sweep in columnar form: column i is the point at
/// values[i].
struct ColumnarSweep {
  std::string param;
  std::vector<double> values;
  PointColumns cols;
};

/// A grid sweep in columnar form: point (i, j) of the xs x ys grid is
/// column i * ys.size() + j (row-major, y fastest — the same point
/// order as GridSweep and the engine's chunked loops).
struct ColumnarGrid {
  std::string x_param;
  std::string y_param;
  std::vector<double> xs;
  std::vector<double> ys;
  PointColumns cols;
};

/// Batch evaluation counters, cumulative per instance.
struct BatchStats {
  std::uint64_t points = 0;  ///< points evaluated (batch + fallback)
  std::uint64_t blocks = 0;  ///< lane blocks executed on the batch path
  /// Points that took the whole-point scalar PlanInstance path
  /// (width <= 1, or a block degraded by an error).
  std::uint64_t scalar_fallback_points = 0;
  /// Programs replayed lane-by-lane inside the batch interpreter
  /// (divergent conditionals, would-throw conditions).
  std::uint64_t lane_replays = 0;
  /// Row-blocks served by the captured-terms fast path: one full model
  /// evaluate per block, per-lane replay of the EQ 1 operating-point
  /// arithmetic only (operating-point-only models with lane-invariant
  /// structural parameters).
  std::uint64_t term_capture_rows = 0;
};

/// Per-thread batch evaluation scratch over a shared EvalPlan: the SoA
/// slot lanes, per-node and per-row lane estimates (allocated once and
/// reused across blocks), and a scalar PlanInstance for the fallback
/// paths.  Not copyable, like PlanInstance (the BatchExec extension
/// hooks point back at it).
class BatchPlanInstance {
 public:
  /// Lane-block width: points per batch.  64 lanes keep the whole SoA
  /// working set of a typical design in L1/L2 while giving the lane
  /// loops enough trip count to vectorize.
  static constexpr std::size_t kLaneWidth = 64;

  explicit BatchPlanInstance(std::shared_ptr<const EvalPlan> plan);

  BatchPlanInstance(const BatchPlanInstance&) = delete;
  BatchPlanInstance& operator=(const BatchPlanInstance&) = delete;

  /// Refresh every value slot from a structurally identical design
  /// (both the batch base values and the scalar fallback instance).
  void bind_from(const Design& design);

  /// Evaluate `width` points (width <= kLaneWidth): point l binds
  /// slots[s] = lane_values[s][l] for every s.  Results land in
  /// columns [base, base + width) of `out`, which must be resized by
  /// the caller.  Throws exactly what a scalar sweep over the same
  /// points would throw (lowest failing point first).
  void play_block(const std::vector<expr::SlotId>& slots,
                  const std::vector<std::vector<double>>& lane_values,
                  std::size_t width, PointColumns& out, std::size_t base);

  /// Cumulative counters (lane_replays read live off the interpreter).
  [[nodiscard]] BatchStats stats() const {
    BatchStats s = stats_;
    s.lane_replays = exec_.lane_replays();
    return s;
  }
  [[nodiscard]] const EvalPlan& plan() const { return *plan_; }

 private:
  using Lanes = std::vector<double>;
  using LaneFlags = std::vector<std::uint8_t>;

  /// The five combined metrics of one estimate, one double per lane.
  struct LaneEstimates {
    Lanes dynamic_w = Lanes(kLaneWidth);
    Lanes static_w = Lanes(kLaneWidth);
    Lanes energy_j = Lanes(kLaneWidth);
    Lanes area_m2 = Lanes(kLaneWidth);
    Lanes delay_s = Lanes(kLaneWidth);
  };

  /// Per-node batch scratch: the lane-wise counterpart of
  /// PlanInstance's NodeFrame, plus the node's per-lane result, frozen
  /// at the iteration where each lane converged.
  struct NodeFrame {
    std::vector<LaneEstimates> rows;  ///< latest estimate, per row
    LaneFlags present;                ///< per row; lane-uniform
    LaneFlags used = LaneFlags(kLaneWidth);    ///< intermodel_used
    LaneFlags active = LaneFlags(kLaneWidth);  ///< still iterating
    Lanes last_total = Lanes(kLaneWidth);      ///< previous total power
    LaneEstimates out;
  };

  /// Play one node's fixed point over the block.  Lanes with
  /// active_in[l] == 0 are don't-cares (their point already converged
  /// in an enclosing node): they are not evaluated where that can be
  /// avoided and never block convergence.
  void run_node_batch(std::uint32_t node_id, std::size_t width,
                      const std::uint8_t* active_in);
  /// Captured-terms fast path for one primitive row (see batch.cpp).
  /// Returns false when the row must run the general per-lane evaluate.
  bool run_row_fast(const EvalPlan::PlanRow& row, const EvalPlan::Node& node,
                    std::size_t width, LaneEstimates& est);
  void play_block_scalar(const std::vector<expr::SlotId>& slots,
                         const std::vector<std::vector<double>>& lane_values,
                         std::size_t width, PointColumns& out,
                         std::size_t base);

  /// kExt hooks: the batched counterpart of PlanInstance::ext over
  /// lanes [from, to), writing out[l - from].
  void ext(std::uint32_t site, std::size_t from, std::size_t to, double* out);
  static void ext_block(void* ctx, std::uint32_t site, std::uint32_t,
                        double* out, std::size_t width);
  static double ext_lane(void* ctx, std::uint32_t site, std::uint32_t,
                         std::size_t lane);

  std::shared_ptr<const EvalPlan> plan_;
  expr::BatchExec exec_;
  std::vector<NodeFrame> frames_;  ///< parallel to plan nodes
  LaneEstimates sum_;              ///< one iteration's combine, any node
  LaneFlags all_lanes_ = LaneFlags(kLaneWidth, 1);
  PlanInstance scalar_;            ///< whole-point fallback path
  BatchStats stats_;
};

/// The sweep formatters: each output form has exactly one.  Serial
/// PlayResult sweeps (sweep.hpp) render through to_columns.
std::string grid_table(const ColumnarGrid& grid);
std::string grid_csv(const ColumnarGrid& grid);
std::string sweep_table(const ColumnarSweep& sweep);
std::string sweep_csv(const ColumnarSweep& sweep);

/// Machine-readable columnar payload for the job API: axes plus the
/// power/energy columns as JSON arrays, streamed straight from the
/// column storage.
std::string grid_json(const ColumnarGrid& grid);

}  // namespace powerplay::sheet
