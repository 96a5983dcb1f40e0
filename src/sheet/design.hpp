// design.hpp — the PowerPlay design spreadsheet ("playground").
//
// A Design is the spreadsheet of Figures 2 and 5: an ordered list of rows,
// each an instance of a library model or a nested sub-design (macro),
// plus a set of global parameters.  Row parameters may be literals or
// expressions over inherited parameters ("Subcircuits may be defined to
// inherit global parameters"), and over other rows' results through the
// intermodel functions:
//
//   rowpower("Name")   — total power of row "Name" [W]
//   rowarea("Name")    — area of row "Name" [m^2]
//   rowenergy("Name")  — energy per operation of row "Name" [J]
//   rowdelay("Name")   — delay of row "Name" [s]
//   totalpower()       — sum of all rows' total power [W]
//   totalarea()        — sum of all rows' areas [m^2]
//
// Pressing Play evaluates every row hierarchically.  Intermodel terms are
// resolved by fixed-point iteration: rows are recomputed against the
// previous sweep's results until total power converges (a DC-DC converter
// fed from totalpower() converges whenever its efficiency exceeds 50%).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "expr/eval.hpp"
#include "model/model.hpp"

namespace powerplay::sheet {

class Design;

/// One spreadsheet row: a model instance or a macro (sub-design).
struct Row {
  std::string name;
  model::ModelPtr model;                  ///< set for primitive rows
  std::shared_ptr<const Design> macro;    ///< set for macro rows
  expr::Scope params;                     ///< local bindings (literals/formulas)
  std::string note;                       ///< free-form documentation
  /// Disabled rows stay on the sheet (alternatives under consideration)
  /// but are skipped by Play and invisible to the intermodel functions.
  bool enabled = true;

  [[nodiscard]] bool is_macro() const { return macro != nullptr; }
  [[nodiscard]] std::string model_name() const;
};

struct PlayResult;

/// Result of evaluating one row.
struct RowResult {
  std::string name;
  std::string model_name;
  model::Estimate estimate;
  /// Evaluated values of the row's local parameters, for display.
  std::vector<std::pair<std::string, double>> shown_params;
  /// Drill-down results for macro rows (the Figure 5 hyperlink targets).
  std::shared_ptr<const PlayResult> sub_result;
};

/// Result of one Play press.
struct PlayResult {
  std::string design_name;
  std::vector<RowResult> rows;
  model::Estimate total;
  int iterations = 0;  ///< fixed-point sweeps used (1 = no intermodel terms)

  [[nodiscard]] const RowResult* find_row(const std::string& name) const;
};

class Design {
 public:
  explicit Design(std::string name, std::string description = {});

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& description() const { return description_; }
  void set_description(std::string d) { description_ = std::move(d); }

  /// Global parameters (supply voltage, clock frequency, ...).
  expr::Scope& globals() { return globals_; }
  [[nodiscard]] const expr::Scope& globals() const { return globals_; }

  /// Append a primitive row.  Row names must be unique within a design
  /// (they are the intermodel-function keys); throws ExprError otherwise.
  Row& add_row(std::string row_name, model::ModelPtr m);

  /// Append a macro row instantiating a sub-design.
  Row& add_macro(std::string row_name, std::shared_ptr<const Design> sub);

  void remove_row(const std::string& row_name);

  [[nodiscard]] Row* find_row(const std::string& row_name);
  [[nodiscard]] const Row* find_row(const std::string& row_name) const;
  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }
  [[nodiscard]] std::vector<Row>& rows() { return rows_; }

  /// Register a custom function usable in this design's parameter
  /// formulas (e.g. an activity model: alpha = dbt_alpha(...)).  Custom
  /// functions are design-local and shadow nothing: registering a name
  /// that collides with a builtin or intermodel function throws.
  void add_function(const std::string& name, expr::Function fn);

  /// Look up a custom function registered above; nullptr when absent.
  /// The plan compiler (plan.hpp) resolves design-local calls through
  /// this at compile time.
  [[nodiscard]] const expr::Function* find_function(
      const std::string& name) const {
    const auto it = functions_.find(name);
    return it == functions_.end() ? nullptr : &it->second;
  }

  /// Names of the custom functions registered above (sorted).  The
  /// evaluation engine folds these into its cache fingerprint: a
  /// std::function has no hashable content, so custom functions are
  /// identified by name and assumed pure.
  [[nodiscard]] std::vector<std::string> function_names() const;

  /// The Play button.  `env` is the enclosing scope when this design is
  /// evaluated as a macro; top-level designs pass nullptr.
  [[nodiscard]] PlayResult play(const expr::Scope* env = nullptr) const;

  /// Maximum fixed-point sweeps before Play reports divergence.
  static constexpr int kMaxIterations = 50;

 private:
  std::string name_;
  std::string description_;
  expr::Scope globals_;
  std::vector<Row> rows_;
  std::map<std::string, expr::Function> functions_;
};

}  // namespace powerplay::sheet
