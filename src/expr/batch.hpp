// batch.hpp — point-per-lane batch execution of compiled expressions.
//
// ExecState (compile.hpp) evaluates one point at a time: sweeps and
// Monte Carlo runs re-bind a slot and re-run every program per point,
// so the interpreter dispatch, the memo bookkeeping and the call
// marshalling are all paid N times for N points.  BatchExec executes
// the same Module across a whole *lane block* of points at once:
// every slot's storage is a lane-major double array (structure of
// arrays), arithmetic opcodes become tight loops over the lanes that
// the compiler auto-vectorizes, and formula memoization happens once
// per block instead of once per point.
//
// Semantics contract: lane `l` of a batch observes exactly the
// operation sequence the scalar ExecState would run for that point —
// the same opcodes on the same doubles in the same order, with no
// reassociation across lanes and no fused ops inside a lane (each
// opcode is a separate load/compute/store loop) — so batch results are
// bit-identical to per-point scalar execution.  Two situations break
// the lanes-move-together model and trigger a *per-lane replay* of the
// current program through a scalar interpreter over the lane storage:
//
//  * lane-divergent control flow: a kJumpIfZero whose condition is not
//    uniform across the block (a conditional splitting the batch);
//  * any would-throw condition (kThrow reached, a zero divisor or
//    modulus in any lane, a throwing function call, an unbound slot) —
//    errors must surface per point, not per block.
//
// Replays are counted (`lane_replays`) and feed the engine's
// batch_scalar_fallbacks_total health counter.  Errors raised during a
// replay propagate to the caller; the sheet-level batch runner then
// degrades the whole block to the scalar PlanInstance path so the
// error that surfaces is the one the scalar sweep would have raised.
//
// kExt (the sheet plan's intermodel ops: rowpower, totalpower, ...)
// runs through two caller-supplied hooks: a block hook that fills one
// double per lane in lockstep execution, and a lane hook that answers
// a single lane inside a per-lane replay.  Both read the caller's
// per-lane state, so a lane sees exactly the value the scalar
// ExecState hook would return for that point.
#pragma once

#include <cstdint>
#include <vector>

#include "expr/compile.hpp"

namespace powerplay::expr {

/// Batch (lane-block) execution state over a shared immutable Module.
/// One BatchExec per worker thread, reset() per block; the lane width
/// is chosen by the caller (sheet::BatchPlanInstance::kLaneWidth).
class BatchExec {
 public:
  explicit BatchExec(const Module& module);

  BatchExec(const BatchExec&) = delete;
  BatchExec& operator=(const BatchExec&) = delete;

  /// Start a fresh batch of `width` lanes: every kValue slot is filled
  /// from its base value, all memo stamps and overrides are dropped.
  void reset(std::size_t width);

  /// Refresh the base value of a kValue slot (plan bind_from); takes
  /// effect at the next reset().
  void rebind_value(SlotId slot, double value);

  /// Override one lane of a slot (sweep point binding).  The caller
  /// must bind every lane of a swept slot, as the override flag is
  /// per slot, not per lane.
  void bind_lane(SlotId slot, std::size_t lane, double value);

  /// Invalidate the formula memos of one epoch domain (block-wide).
  void begin_epoch(std::uint32_t domain) { ++domain_epoch_[domain]; }

  [[nodiscard]] std::size_t width() const { return width_; }

  /// Lane values of `slot`, evaluating its formula across the block on
  /// first read in the current epoch.  The pointer stays valid until
  /// the next reset().  Throws exactly the scalar errors (unbound
  /// slot, circular definition, formula errors via replay).
  const double* slot_lanes(SlotId slot);

  /// One lane of a slot — the model-parameter read path.  Evaluates
  /// the whole slot batched when the memo is stale.
  double slot_value_lane(SlotId slot, std::size_t lane) {
    return slot_lanes(slot)[lane];
  }

  /// Extension hooks for Op::kExt.  `block` writes one double per lane
  /// to out[0, width); `lane` answers one lane of a per-lane replay.
  /// A kExt reached with no hooks installed throws.
  using ExtBlockFn = void (*)(void* ctx, std::uint32_t a, std::uint32_t b,
                              double* out, std::size_t width);
  using ExtLaneFn = double (*)(void* ctx, std::uint32_t a, std::uint32_t b,
                               std::size_t lane);
  void set_ext(ExtBlockFn block, ExtLaneFn lane, void* ctx) {
    ext_block_ = block;
    ext_lane_ = lane;
    ext_ctx_ = ctx;
  }

  /// Programs that had to be replayed lane-by-lane (divergent branch
  /// or would-throw condition) since construction.
  [[nodiscard]] std::uint64_t lane_replays() const { return lane_replays_; }

 private:
  /// Internal control-flow signal: the current program cannot continue
  /// lockstep across the lanes; rerun it per lane.  Never escapes
  /// execute_program().
  struct NeedLaneReplay {};

  /// Run `p` across all lanes, writing the block result to `out`
  /// (width_ doubles).  Replays per lane on divergence.
  void execute_program(std::uint32_t program, double* out);
  void run_batch(const Program& p, double* out);
  double run_lane(const Program& p, std::size_t lane);

  /// Arena stack entry `i`, recomputed after any push (the arena may
  /// reallocate as it grows).
  double* entry(std::size_t i) { return stack_.data() + i * width_; }
  double* push() {
    if ((sp_ + 1) * width_ > stack_.size()) stack_.resize((sp_ + 1) * width_);
    return stack_.data() + (sp_++) * width_;
  }

  const Module* module_;
  ExtBlockFn ext_block_ = nullptr;
  ExtLaneFn ext_lane_ = nullptr;
  void* ext_ctx_ = nullptr;
  std::size_t width_ = 0;
  std::vector<double> base_;    ///< per-slot base value (kValue slots)
  std::vector<double> values_;  ///< slot-major lanes: [slot * width_ + lane]
  std::vector<std::uint8_t> overridden_;
  std::vector<std::uint32_t> stamp_;  ///< formula memo stamps, block-wide
  std::vector<std::uint8_t> in_flight_;
  std::vector<SlotId> flight_order_;  ///< for the cycle message
  std::vector<std::uint32_t> domain_epoch_;
  std::vector<double> stack_;  ///< lane-entry arena, reused across blocks
  std::size_t sp_ = 0;         ///< arena depth, in lane entries
  std::vector<double> scalar_stack_;  ///< per-lane replay stack
  std::uint64_t lane_replays_ = 0;
};

}  // namespace powerplay::expr
