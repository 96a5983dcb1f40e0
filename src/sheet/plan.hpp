// plan.hpp — compiled evaluation plans for whole designs.
//
// Design::play (design.cpp) is the reference interpreter: per Play it
// rebuilds scopes, walks shared_ptr ASTs through string-keyed maps, and
// re-evaluates every row on every fixed-point iteration.  An EvalPlan
// compiles a Design once into expr bytecode (expr/compile.hpp): every
// global and row parameter becomes an interned slot, every formula a
// slot-bound program, intermodel calls (rowpower/totalpower/...) become
// extension ops resolved to row indices at compile time, and macros are
// flattened into a static node tree whose scope chains mirror the
// interpreter's env-erasure rules.
//
// A dependency graph extracted from the intermodel references gives
// each row a *settle rank*: evaluating rows in sheet order, a row whose
// transitive inputs involve no intermodel cycle reproduces the same
// value from iteration `rank` onward, so later iterations reuse it
// instead of re-evaluating — rows outside any cycle evaluate exactly
// once when the design has no intermodel terms at all, and the
// fixed-point work is confined to the strongly-connected components.
// Because rows are still visited in sheet order and the per-iteration
// totals are assembled from the same doubles, the convergence
// trajectory — and therefore every result bit and the reported
// iteration count — is identical to the interpreter's.
//
// PlanInstance is the mutable per-thread scratch: slot values, memo
// epochs, and per-node visible-estimate frames.  Sweeps re-bind one
// slot per point instead of cloning the design; the plan itself is
// immutable and shared across threads (engine/engine.hpp caches plans
// by structural fingerprint).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "expr/compile.hpp"
#include "sheet/design.hpp"

namespace powerplay::sheet {

/// Evaluation counters for tests and tuning: `row_evaluations` counts
/// actual (non-reused) row evaluations across all nodes and iterations.
struct PlanStats {
  int iterations = 0;
  std::size_t row_evaluations = 0;
};

class PlanInstance;

/// Immutable compiled form of a Design.  Compile once, run many; the
/// plan holds shared ownership of the models and macro designs it
/// references, so it stays valid after the source Design is gone (the
/// engine's plan cache relies on this).  Design-local custom functions
/// are captured by value at compile time and, like the play cache, are
/// assumed pure and identified by name.
class EvalPlan {
 public:
  /// Settle rank of rows inside an intermodel cycle (or reading one):
  /// they re-evaluate on every fixed-point iteration.
  static constexpr std::uint32_t kIterativeRank = 0xffffffffu;

  static std::shared_ptr<const EvalPlan> compile(const Design& design);

  /// One precomputed model-side parameter read: a name the row's model
  /// may ask the ParamReader for, resolved (row locals first, then the
  /// node's scope chain, then the spec default) at compile time so a
  /// Play does one binary search per read instead of a spec scan plus
  /// two slot searches.
  struct Read {
    std::string name;
    const model::ParamSpec* spec = nullptr;  ///< into model->params()
    expr::SlotId slot = 0;
    bool has_slot = false;
  };

  /// Slot of a top-level global / a root row's local parameter, for
  /// sweep re-binding.  nullopt when the name is not bound there.
  [[nodiscard]] std::optional<expr::SlotId> global_slot(
      const std::string& name) const;
  [[nodiscard]] std::optional<expr::SlotId> row_param_slot(
      const std::string& row, const std::string& param) const;

  /// Introspection for tests.
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const expr::Module& module() const { return module_; }
  [[nodiscard]] std::uint32_t row_rank(const std::string& row) const;

 private:
  friend class PlanInstance;
  friend class BatchPlanInstance;
  friend struct PlanBuilder;

  EvalPlan() = default;

  /// Where a slot's literal value comes from in the source design, so
  /// bind_from() can refresh values from a structurally identical
  /// design without recompiling.
  struct SlotSource {
    std::uint32_t node = 0;
    std::int32_t row = -1;  ///< -1: node global, else row index
    std::string name;
    bool valid = false;     ///< only value slots are refreshable
  };

  /// One compiled intermodel call site.
  struct ExtSite {
    enum class Kind : std::uint8_t {
      kRowPower,
      kRowArea,
      kRowEnergy,
      kRowDelay,
      kTotalPower,
      kTotalArea,
      kDisabledZero,  ///< target row disabled: flag + constant zero
      kMissingRow,    ///< no such row: throws, naming the node's design
    };
    Kind kind;
    std::uint32_t node = 0;  ///< owning node (its visible frame)
    /// Row index for the kRow* kinds; for kMissingRow, the index of the
    /// call's text in missing_calls_.
    std::uint32_t target_row = 0;
  };

  struct PlanRow {
    std::string name;
    std::string model_name;
    bool enabled = true;
    bool is_macro = false;
    model::ModelPtr model;        ///< shared ownership (primitive rows)
    std::uint32_t sub_node = 0;   ///< macro rows: node id of the sub-plan
    std::uint32_t domain = 0;     ///< row-eval memo epoch domain
    std::uint32_t rank = 1;       ///< settle rank (kIterativeRank = every iter)
    /// Local parameters in local_names() order (sorted), slot-bound.
    std::vector<std::pair<std::string, expr::SlotId>> param_slots;
    /// Union of the model's declared parameters and the locally bound
    /// extras, pre-resolved, sorted by name (primitive rows only).
    std::vector<Read> reads;
  };

  /// One design in the macro tree (node 0 = the root design).
  struct Node {
    std::string design_name;
    std::vector<std::size_t> path;  ///< macro row indices from the root
    /// Non-empty: play throws at node entry, "design '<name>': " + this
    /// (a surviving global formula calls an intermodel function — same
    /// eager validation, and the same message, as the interpreter).
    std::string poison;
    std::uint32_t globals_domain = 0;
    std::vector<PlanRow> rows;  ///< sheet order, disabled rows included
    /// Enabled row indices ordered by row name — the iteration order of
    /// the interpreter's visible std::map, which totalpower/totalarea
    /// summation must reproduce exactly (float addition order).
    std::vector<std::uint32_t> name_sorted_enabled;
    /// Names visible through the node's scope chain *outside* row
    /// locals (surviving globals, then env layers), first-binding-wins,
    /// sorted by name for lookup.  Model parameter reads resolve here
    /// after the row's own param_slots.
    std::vector<std::pair<std::string, expr::SlotId>> chain_names;
  };

  /// Call `bind(slot, value)` for every value slot whose binding in
  /// `design` (structurally identical to the compiled one) is a literal:
  /// the slot-source walk behind both instances' bind_from.
  template <typename Bind>
  void for_each_literal(const Design& design, Bind&& bind) const;

  expr::Module module_;
  std::vector<Node> nodes_;
  std::vector<ExtSite> ext_sites_;
  std::vector<SlotSource> slot_sources_;  ///< parallel to module_.slots
  /// Text of each intermodel call naming a missing row, e.g.
  /// `rowpower("X")`, for the kMissingRow sites.
  std::vector<std::string> missing_calls_;
};

template <typename Bind>
void EvalPlan::for_each_literal(const Design& design, Bind&& bind) const {
  for (expr::SlotId i = 0; i < static_cast<expr::SlotId>(slot_sources_.size());
       ++i) {
    const SlotSource& src = slot_sources_[i];
    if (!src.valid) continue;
    const Design* d = &design;
    bool ok = true;
    for (const std::size_t ri : nodes_[src.node].path) {
      if (ri >= d->rows().size() || !d->rows()[ri].is_macro()) {
        ok = false;
        break;
      }
      d = d->rows()[ri].macro.get();
    }
    if (!ok) continue;
    if (src.row >= 0 && static_cast<std::size_t>(src.row) >= d->rows().size()) {
      continue;
    }
    const expr::Scope& scope =
        src.row < 0 ? d->globals()
                    : d->rows()[static_cast<std::size_t>(src.row)].params;
    const auto found = scope.lookup(src.name);
    if (!found) continue;
    if (const double* literal = std::get_if<double>(found->binding)) {
      bind(i, *literal);
    }
  }
}

/// Mutable evaluation scratch over a shared EvalPlan: slot values, memo
/// epochs, and per-node visible frames.  One instance per thread; not
/// copyable (the ExecState extension hook points back at it).
class PlanInstance {
 public:
  explicit PlanInstance(std::shared_ptr<const EvalPlan> plan);

  PlanInstance(const PlanInstance&) = delete;
  PlanInstance& operator=(const PlanInstance&) = delete;

  /// Refresh every value slot and the root design's name from a
  /// structurally identical design (same structural fingerprint; literal
  /// values and the root name may differ) and drop sweep overrides.
  /// Lets one cached plan serve edited and renamed designs.
  void bind_from(const Design& design);

  /// Override one slot with a literal (sweep point re-binding).
  void bind(expr::SlotId slot, double value);

  /// Press Play.  Bit-identical to Design::play() on the design the
  /// instance is bound to: same doubles, same errors, same iterations.
  [[nodiscard]] PlayResult play();

  /// Counters from the most recent play().
  [[nodiscard]] const PlanStats& stats() const { return stats_; }

  [[nodiscard]] const EvalPlan& plan() const { return *plan_; }

 private:
  /// Per-node scratch mirroring the interpreter's `visible` map and
  /// sticky intermodel_used flag, plus the latest evaluation of each
  /// row for settle-rank reuse.
  struct NodeFrame {
    bool intermodel_used = false;
    std::vector<model::Estimate> estimates;  ///< latest value, per row
    std::vector<std::uint8_t> present;       ///< in the visible map?
    std::vector<RowResult> cached;           ///< latest RowResult, per row
    std::vector<std::uint8_t> has_cached;
  };

  static double ext_thunk(void* ctx, std::uint32_t site, std::uint32_t b);
  double ext(std::uint32_t site);
  PlayResult run_node(std::uint32_t node_id);
  /// The name a node's results and errors carry: the bound design's
  /// for the root, the macro design's otherwise.
  [[nodiscard]] const std::string& node_name(std::uint32_t node_id) const;

  std::shared_ptr<const EvalPlan> plan_;
  std::string root_name_;
  expr::ExecState state_;
  std::vector<NodeFrame> frames_;
  PlanStats stats_;
};

}  // namespace powerplay::sheet
