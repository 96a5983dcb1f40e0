#include "sheet/design.hpp"

#include <algorithm>
#include <limits>
#include <cmath>

namespace powerplay::sheet {

using model::Estimate;

namespace {

const std::vector<std::string>& intermodel_function_names() {
  static const std::vector<std::string> names = {
      "rowpower", "rowarea", "rowenergy", "rowdelay", "totalpower",
      "totalarea"};
  return names;
}

bool is_intermodel(const std::string& fn) {
  const auto& names = intermodel_function_names();
  return std::find(names.begin(), names.end(), fn) != names.end();
}

std::string need_row_name(const std::vector<expr::Value>& args,
                          const char* fn) {
  if (args.size() != 1 || !std::holds_alternative<std::string>(args[0])) {
    throw expr::ExprError(std::string(fn) +
                          ": expects a single row-name string argument, "
                          "e.g. " +
                          fn + "(\"Read Bank\")");
  }
  return std::get<std::string>(args[0]);
}

}  // namespace

std::string Row::model_name() const {
  if (is_macro()) return "macro:" + macro->name();
  return model->name();
}

const RowResult* PlayResult::find_row(const std::string& name) const {
  for (const RowResult& r : rows) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

Design::Design(std::string name, std::string description)
    : name_(std::move(name)), description_(std::move(description)) {}

Row& Design::add_row(std::string row_name, model::ModelPtr m) {
  if (m == nullptr) {
    throw expr::ExprError("add_row('" + row_name + "'): null model");
  }
  if (find_row(row_name) != nullptr) {
    throw expr::ExprError("design '" + name_ + "' already has a row named '" +
                          row_name + "'");
  }
  rows_.push_back(Row{std::move(row_name), std::move(m), nullptr, {}, {}, true});
  return rows_.back();
}

Row& Design::add_macro(std::string row_name,
                       std::shared_ptr<const Design> sub) {
  if (sub == nullptr) {
    throw expr::ExprError("add_macro('" + row_name + "'): null design");
  }
  if (find_row(row_name) != nullptr) {
    throw expr::ExprError("design '" + name_ + "' already has a row named '" +
                          row_name + "'");
  }
  rows_.push_back(Row{std::move(row_name), nullptr, std::move(sub), {}, {}, true});
  return rows_.back();
}

void Design::remove_row(const std::string& row_name) {
  auto it = std::find_if(rows_.begin(), rows_.end(),
                         [&](const Row& r) { return r.name == row_name; });
  if (it == rows_.end()) {
    throw expr::ExprError("design '" + name_ + "' has no row named '" +
                          row_name + "'");
  }
  rows_.erase(it);
}

Row* Design::find_row(const std::string& row_name) {
  for (Row& r : rows_) {
    if (r.name == row_name) return &r;
  }
  return nullptr;
}

const Row* Design::find_row(const std::string& row_name) const {
  for (const Row& r : rows_) {
    if (r.name == row_name) return &r;
  }
  return nullptr;
}

void Design::add_function(const std::string& name, expr::Function fn) {
  if (expr::FunctionTable::builtins().contains(name) || is_intermodel(name)) {
    throw expr::ExprError("add_function('" + name +
                          "'): name collides with a builtin or intermodel "
                          "function");
  }
  functions_[name] = std::move(fn);
}

std::vector<std::string> Design::function_names() const {
  std::vector<std::string> names;
  names.reserve(functions_.size());
  for (const auto& [nm, fn] : functions_) names.push_back(nm);
  return names;  // std::map iteration order is already sorted
}

PlayResult Design::play(const expr::Scope* env) const {
  // Working copy of the globals.  Names the instantiation environment
  // binds locally are erased from the copy so explicit overrides beat the
  // macro's own defaults, while unset names still fall through the chain
  // ("subcircuits may be defined to inherit global parameters").
  expr::Scope globals = globals_;
  globals.set_parent(env);
  if (env != nullptr) {
    for (const std::string& nm : env->local_names()) globals.erase(nm);
  }

  // Design-global formulas must not call intermodel functions: a macro's
  // inner evaluation could not resolve them against the right design.
  // Row-local parameters are evaluated eagerly below, so they may.
  for (const std::string& nm : globals.local_names()) {
    auto found = globals.lookup(nm);
    if (const auto* f = std::get_if<expr::ExprPtr>(found->binding)) {
      for (const std::string& fn : expr::referenced_functions(**f)) {
        if (is_intermodel(fn)) {
          throw expr::ExprError(
              "design '" + name_ + "': global parameter '" + nm +
              "' calls intermodel function '" + fn +
              "' — intermodel terms are only allowed in row parameters");
        }
      }
    }
  }

  // Results visible to the intermodel functions.  Within a sweep, rows
  // evaluated earlier are already fresh; later rows still show the
  // previous sweep (zero on the first), which the fixed-point iteration
  // then resolves.
  std::map<std::string, Estimate> visible;
  bool intermodel_used = false;

  auto row_estimate = [&](const std::string& row_name,
                          const char* fn) -> const Estimate& {
    intermodel_used = true;
    const Row* target = find_row(row_name);
    if (target == nullptr) {
      throw expr::ExprError(std::string(fn) + "(\"" + row_name +
                            "\"): no such row in design '" + name_ + "'");
    }
    if (!target->enabled) {
      static const Estimate kDisabled{};
      return kDisabled;
    }
    static const Estimate kZero{};
    auto it = visible.find(row_name);
    return it == visible.end() ? kZero : it->second;
  };

  expr::FunctionTable fns = expr::FunctionTable::with_builtins();
  fns.register_function("rowpower", [&](const std::vector<expr::Value>& a) {
    return row_estimate(need_row_name(a, "rowpower"), "rowpower")
        .total_power()
        .si();
  });
  fns.register_function("rowarea", [&](const std::vector<expr::Value>& a) {
    return row_estimate(need_row_name(a, "rowarea"), "rowarea").area.si();
  });
  fns.register_function("rowenergy", [&](const std::vector<expr::Value>& a) {
    return row_estimate(need_row_name(a, "rowenergy"), "rowenergy")
        .energy_per_op.si();
  });
  fns.register_function("rowdelay", [&](const std::vector<expr::Value>& a) {
    return row_estimate(need_row_name(a, "rowdelay"), "rowdelay").delay.si();
  });
  fns.register_function("totalpower", [&](const std::vector<expr::Value>& a) {
    if (!a.empty()) throw expr::ExprError("totalpower: takes no arguments");
    intermodel_used = true;
    double sum = 0;
    for (const auto& [nm, est] : visible) sum += est.total_power().si();
    return sum;
  });
  fns.register_function("totalarea", [&](const std::vector<expr::Value>& a) {
    if (!a.empty()) throw expr::ExprError("totalarea: takes no arguments");
    intermodel_used = true;
    double sum = 0;
    for (const auto& [nm, est] : visible) sum += est.area.si();
    return sum;
  });
  for (const auto& [nm, fn] : functions_) fns.register_function(nm, fn);

  PlayResult out;
  out.design_name = name_;

  // The per-row evaluation scope (row locals over the design globals) is
  // invariant across fixed-point sweeps — copy the params maps once per
  // Play, not once per iteration.
  std::vector<expr::Scope> sources;
  sources.reserve(rows_.size());
  for (const Row& row : rows_) {
    expr::Scope source = row.params;
    source.set_parent(&globals);
    sources.push_back(std::move(source));
  }

  double last_total = std::numeric_limits<double>::quiet_NaN();
  for (int iter = 1; iter <= kMaxIterations; ++iter) {
    out.rows.clear();
    std::vector<Estimate> estimates;
    estimates.reserve(rows_.size());

    for (std::size_t ri = 0; ri < rows_.size(); ++ri) {
      const Row& row = rows_[ri];
      if (!row.enabled) continue;
      // Evaluate the row's local parameters eagerly (they may call the
      // intermodel functions); the flattened literal scope is what the
      // model — or the macro's nested Play — sees.
      expr::Scope locals(&globals);
      expr::Evaluator ev(sources[ri], fns);

      RowResult rr;
      rr.name = row.name;
      rr.model_name = row.model_name();
      for (const std::string& nm : row.params.local_names()) {
        const double v = ev.variable(nm);
        locals.set(nm, v);
        rr.shown_params.emplace_back(nm, v);
      }

      if (row.is_macro()) {
        auto sub = std::make_shared<PlayResult>(row.macro->play(&locals));
        rr.estimate = sub->total;
        rr.sub_result = std::move(sub);
      } else {
        model::ScopeParamReader reader(locals, fns, &row.model->params());
        rr.estimate = row.model->evaluate(reader);
      }
      visible[row.name] = rr.estimate;
      estimates.push_back(rr.estimate);
      out.rows.push_back(std::move(rr));
    }

    out.total = model::combine(estimates);
    out.iterations = iter;

    if (!intermodel_used) break;
    const double total = out.total.total_power().si();
    if (iter > 1) {
      const double tol = 1e-9 * std::max(1.0, std::fabs(total));
      if (std::fabs(total - last_total) <= tol) break;
    }
    last_total = total;
    if (iter == kMaxIterations) {
      throw expr::ExprError(
          "design '" + name_ + "': Play did not converge after " +
          std::to_string(kMaxIterations) +
          " sweeps — check for a diverging intermodel loop (e.g. a DC-DC "
          "converter with efficiency <= 50% feeding itself through "
          "totalpower())");
    }
  }
  return out;
}

}  // namespace powerplay::sheet
