#include "sheet/plan.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "model/param.hpp"

namespace powerplay::sheet {

using expr::SlotId;
using model::Estimate;

namespace {

bool is_intermodel(const std::string& fn) {
  return fn == "rowpower" || fn == "rowarea" || fn == "rowenergy" ||
         fn == "rowdelay" || fn == "totalpower" || fn == "totalarea";
}

std::optional<SlotId> search_sorted(
    const std::vector<std::pair<std::string, SlotId>>& v,
    const std::string& name) {
  const auto it = std::lower_bound(
      v.begin(), v.end(), name,
      [](const auto& p, const std::string& n) { return p.first < n; });
  if (it != v.end() && it->first == name) return it->second;
  return std::nullopt;
}

/// ScopeParamReader's exact resolution logic over plan slots: row locals
/// first, then the node's scope chain, then the spec default, validated
/// against the spec on every read (param.cpp is the reference).  The
/// row's pre-resolved read table answers declared and locally-bound
/// names with one binary search; anything else can only live on the
/// chain (a spec-less global an expression model reads ad hoc).
class PlanParamReader final : public model::ParamReader {
 public:
  PlanParamReader(expr::ExecState& state,
                  const std::vector<EvalPlan::Read>& reads,
                  const std::vector<std::pair<std::string, SlotId>>& chain)
      : state_(&state), reads_(&reads), chain_(&chain) {}

  [[nodiscard]] double get(const std::string& name) const override {
    if (const EvalPlan::Read* r = find_read(name)) {
      double value;
      if (r->has_slot) {
        value = state_->slot_value(r->slot);
      } else if (r->spec != nullptr) {
        value = r->spec->default_value;
      } else {
        throw expr::ExprError("unbound parameter '" + name + "'");
      }
      if (r->spec != nullptr) r->spec->validate(value);
      return value;
    }
    if (const auto slot = search_sorted(*chain_, name)) {
      return state_->slot_value(*slot);
    }
    throw expr::ExprError("unbound parameter '" + name + "'");
  }

  [[nodiscard]] double get_or(const std::string& name,
                              double fallback) const override {
    if (const EvalPlan::Read* r = find_read(name)) {
      double value;
      if (r->has_slot) {
        value = state_->slot_value(r->slot);
      } else if (r->spec != nullptr && !std::isnan(r->spec->default_value)) {
        // A NaN default marks "no default" (macro parameters): fall back.
        value = r->spec->default_value;
      } else {
        return fallback;
      }
      if (r->spec != nullptr) r->spec->validate(value);
      return value;
    }
    if (const auto slot = search_sorted(*chain_, name)) {
      return state_->slot_value(*slot);
    }
    return fallback;
  }

 private:
  [[nodiscard]] const EvalPlan::Read* find_read(
      const std::string& name) const {
    const auto it = std::lower_bound(
        reads_->begin(), reads_->end(), name,
        [](const EvalPlan::Read& r, const std::string& n) {
          return r.name < n;
        });
    if (it != reads_->end() && it->name == name) return &*it;
    return nullptr;
  }

  expr::ExecState* state_;
  const std::vector<EvalPlan::Read>* reads_;
  const std::vector<std::pair<std::string, SlotId>>* chain_;
};

}  // namespace

// ---------------------------------------------------------------------------
// PlanBuilder
// ---------------------------------------------------------------------------

/// Transient compile state: the only place that may hold pointers into
/// the source design.  Everything the finished plan needs is copied into
/// EvalPlan before compile() returns.
struct PlanBuilder {
  using ExtSite = EvalPlan::ExtSite;
  using Kind = EvalPlan::ExtSite::Kind;
  using Node = EvalPlan::Node;
  using PlanRow = EvalPlan::PlanRow;

  explicit PlanBuilder(EvalPlan& p) : plan(p) {}

  EvalPlan& plan;

  struct BNode {
    const Design* design = nullptr;
    std::int32_t parent_node = -1;
    std::int32_t parent_row = -1;
    std::vector<std::string> surviving;  ///< globals after env erasure, sorted
  };
  std::vector<BNode> bnodes;  ///< parallel to plan.nodes_

  /// Compilation context: which scope a formula resolves names in.
  /// row == -1 means the node's globals scope.
  struct Ctx {
    std::uint32_t node = 0;
    std::int32_t row = -1;
  };

  /// Static intermodel dependencies of one row (targets of its param
  /// formulas' ext sites), for the settle-rank analysis.
  struct Dep {
    std::set<std::uint32_t> rows;
    bool all = false;  ///< totalpower/totalarea: reads every enabled row
  };
  std::vector<std::vector<Dep>> deps;  ///< [node][row]

  std::map<std::tuple<std::uint32_t, std::int32_t, std::string>, SlotId>
      slot_ids;
  std::map<std::tuple<std::uint32_t, std::int32_t, std::string>, SlotId>
      unbound_ids;
  std::map<std::pair<std::int64_t, std::string>, std::uint32_t> fn_ids;

  struct Job {
    expr::ExprPtr formula;
    Ctx ctx;
    std::uint32_t program = 0;
  };
  std::vector<Job> jobs;

  std::uint32_t next_domain = 0;

  std::uint32_t add_node(const Design& d, std::int32_t parent_node,
                         std::int32_t parent_row, std::vector<std::size_t> path,
                         int depth) {
    if (depth > 64) {
      // The interpreter would blow the stack on a self-containing macro;
      // failing the compile with a message is strictly kinder.
      throw expr::ExprError("design '" + d.name() +
                            "': macro nesting deeper than 64 levels "
                            "(recursive macro?)");
    }
    const auto id = static_cast<std::uint32_t>(plan.nodes_.size());
    plan.nodes_.emplace_back();
    bnodes.emplace_back();
    deps.emplace_back();
    plan.nodes_[id].design_name = d.name();
    plan.nodes_[id].path = std::move(path);
    plan.nodes_[id].globals_domain = next_domain++;
    bnodes[id].design = &d;
    bnodes[id].parent_node = parent_node;
    bnodes[id].parent_row = parent_row;

    // Names the instantiating row binds locally are erased from the
    // macro's globals (explicit overrides beat the macro's defaults).
    std::vector<std::string> surviving;
    if (parent_node >= 0) {
      const Row& inst =
          bnodes[parent_node].design->rows()[static_cast<std::size_t>(
              parent_row)];
      for (const std::string& nm : d.globals().local_names()) {
        if (!inst.params.has_local(nm)) surviving.push_back(nm);
      }
    } else {
      surviving = d.globals().local_names();
    }
    bnodes[id].surviving = std::move(surviving);

    // Same eager check as Design::play, same message, same first-hit
    // order (sorted names, formula's reference order) — thrown when the
    // node plays, which matches the interpreter's timing exactly.
    for (const std::string& nm : bnodes[id].surviving) {
      const auto found = bnodes[id].design->globals().lookup(nm);
      if (const auto* f = std::get_if<expr::ExprPtr>(found->binding)) {
        for (const std::string& fn : expr::referenced_functions(**f)) {
          if (is_intermodel(fn)) {
            plan.nodes_[id].poison =
                "global parameter '" + nm + "' calls intermodel function '" +
                fn + "' — intermodel terms are only allowed in row parameters";
            break;
          }
        }
      }
      if (!plan.nodes_[id].poison.empty()) break;
    }

    deps[id].resize(d.rows().size());
    for (std::size_t ri = 0; ri < d.rows().size(); ++ri) {
      const Row& row = d.rows()[ri];
      PlanRow pr;
      pr.name = row.name;
      pr.model_name = row.model_name();
      pr.enabled = row.enabled;
      pr.is_macro = row.is_macro();
      pr.model = row.model;
      pr.domain = next_domain++;
      plan.nodes_[id].rows.push_back(std::move(pr));
      if (row.is_macro()) {
        std::vector<std::size_t> sub_path = plan.nodes_[id].path;
        sub_path.push_back(ri);
        const std::uint32_t sub =
            add_node(*row.macro, static_cast<std::int32_t>(id),
                     static_cast<std::int32_t>(ri), std::move(sub_path),
                     depth + 1);
        plan.nodes_[id].rows[ri].sub_node = sub;
      }
    }

    // Enabled rows in name order: the iteration order of the
    // interpreter's `visible` std::map (row names are unique), which the
    // totalpower/totalarea float summation must reproduce.
    std::vector<std::uint32_t> order;
    for (std::uint32_t ri = 0;
         ri < static_cast<std::uint32_t>(plan.nodes_[id].rows.size()); ++ri) {
      if (plan.nodes_[id].rows[ri].enabled) order.push_back(ri);
    }
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return plan.nodes_[id].rows[a].name <
                       plan.nodes_[id].rows[b].name;
              });
    plan.nodes_[id].name_sorted_enabled = std::move(order);
    return id;
  }

  SlotId make_slot(const std::string& name, const expr::Scope::Binding& binding,
                   Ctx owner, std::uint32_t domain) {
    const auto id = static_cast<SlotId>(plan.module_.slots.size());
    expr::SlotInfo info;
    info.name = name;
    EvalPlan::SlotSource src;
    src.node = owner.node;
    src.row = owner.row;
    src.name = name;
    if (const double* literal = std::get_if<double>(&binding)) {
      info.kind = expr::SlotKind::kValue;
      info.initial = *literal;
      src.valid = true;
    } else {
      info.kind = expr::SlotKind::kFormula;
      info.domain = domain;
      info.program = static_cast<std::uint32_t>(plan.module_.programs.size());
      plan.module_.programs.emplace_back();  // reserved, filled by run_jobs
      jobs.push_back(Job{std::get<expr::ExprPtr>(binding), owner, info.program});
    }
    plan.module_.slots.push_back(std::move(info));
    plan.slot_sources_.push_back(std::move(src));
    return id;
  }

  SlotId global_slot(std::uint32_t node, const std::string& name) {
    const auto key = std::make_tuple(node, std::int32_t{-1}, name);
    if (const auto it = slot_ids.find(key); it != slot_ids.end()) {
      return it->second;
    }
    const auto found = bnodes[node].design->globals().lookup(name);
    const SlotId id = make_slot(name, *found->binding, Ctx{node, -1},
                                plan.nodes_[node].globals_domain);
    slot_ids.emplace(key, id);
    return id;
  }

  SlotId row_param_slot(std::uint32_t node, std::uint32_t row,
                        const std::string& name) {
    const auto key =
        std::make_tuple(node, static_cast<std::int32_t>(row), name);
    if (const auto it = slot_ids.find(key); it != slot_ids.end()) {
      return it->second;
    }
    const auto found =
        bnodes[node].design->rows()[row].params.lookup(name);
    const SlotId id =
        make_slot(name, *found->binding, Ctx{node, static_cast<std::int32_t>(row)},
                  plan.nodes_[node].rows[row].domain);
    slot_ids.emplace(key, id);
    return id;
  }

  [[nodiscard]] bool has_surviving(std::uint32_t node,
                                   const std::string& name) const {
    const auto& v = bnodes[node].surviving;
    return std::binary_search(v.begin(), v.end(), name);
  }

  /// Static name resolution, mirroring the interpreter's chain at play
  /// time: row locals, this node's surviving globals, then per enclosing
  /// level the instantiating row's (eagerly evaluated) params and that
  /// design's surviving globals.
  SlotId resolve(Ctx ctx, const std::string& name) {
    if (ctx.row >= 0) {
      const Row& r =
          bnodes[ctx.node].design->rows()[static_cast<std::size_t>(ctx.row)];
      if (r.params.has_local(name)) {
        return row_param_slot(ctx.node, static_cast<std::uint32_t>(ctx.row),
                              name);
      }
    }
    std::int32_t n = static_cast<std::int32_t>(ctx.node);
    while (n >= 0) {
      if (has_surviving(static_cast<std::uint32_t>(n), name)) {
        return global_slot(static_cast<std::uint32_t>(n), name);
      }
      const BNode& bn = bnodes[static_cast<std::size_t>(n)];
      if (bn.parent_node < 0) break;
      const Row& inst = bnodes[bn.parent_node]
                            .design->rows()[static_cast<std::size_t>(
                                bn.parent_row)];
      if (inst.params.has_local(name)) {
        return row_param_slot(static_cast<std::uint32_t>(bn.parent_node),
                              static_cast<std::uint32_t>(bn.parent_row), name);
      }
      n = bn.parent_node;
    }
    // Unbound: one lazily-throwing slot per (context, name), like the
    // tree walk keying unresolved names on the lookup context.
    const auto key = std::make_tuple(ctx.node, ctx.row, name);
    if (const auto it = unbound_ids.find(key); it != unbound_ids.end()) {
      return it->second;
    }
    const auto id = static_cast<SlotId>(plan.module_.slots.size());
    expr::SlotInfo info;
    info.name = name;
    info.kind = expr::SlotKind::kUnbound;
    plan.module_.slots.push_back(std::move(info));
    plan.slot_sources_.emplace_back();
    unbound_ids.emplace(key, id);
    return id;
  }

  std::optional<std::uint32_t> function_index(std::uint32_t node,
                                              const std::string& name) {
    // Builtins and design-local functions share one namespace with no
    // collisions (add_function enforces it), so lookup order is free.
    if (const expr::Function* fn = bnodes[node].design->find_function(name)) {
      const auto key = std::make_pair(static_cast<std::int64_t>(node), name);
      if (const auto it = fn_ids.find(key); it != fn_ids.end()) {
        return it->second;
      }
      const auto index =
          static_cast<std::uint32_t>(plan.module_.functions.size());
      plan.module_.functions.push_back(*fn);
      fn_ids.emplace(key, index);
      return index;
    }
    if (const expr::Function* fn = expr::FunctionTable::builtins().find(name)) {
      const auto key = std::make_pair(std::int64_t{-1}, name);
      if (const auto it = fn_ids.find(key); it != fn_ids.end()) {
        return it->second;
      }
      const auto index =
          static_cast<std::uint32_t>(plan.module_.functions.size());
      plan.module_.functions.push_back(*fn);
      fn_ids.emplace(key, index);
      return index;
    }
    return std::nullopt;
  }

  std::uint32_t add_site(ExtSite site) {
    const auto index = static_cast<std::uint32_t>(plan.ext_sites_.size());
    plan.ext_sites_.push_back(site);
    return index;
  }

  /// Lower an intermodel call.  Returns false for ordinary functions.
  /// The error paths reproduce design.cpp's runtime lambdas: argument
  /// expressions evaluate before the arity check throws, a missing row
  /// throws its message (the interpreter's flag-set-then-throw is
  /// unobservable because the exception aborts the Play), a disabled row
  /// is a flag-setting zero, totalpower/totalarea check arity before
  /// touching the flag.
  bool special_call(Ctx ctx, const expr::CallNode& c, expr::Compiler& comp) {
    if (!is_intermodel(c.name)) return false;
    const Design& d = *bnodes[ctx.node].design;
    const bool takes_row = c.name != "totalpower" && c.name != "totalarea";
    if (!takes_row) {
      if (!c.args.empty()) {
        for (const expr::ExprPtr& arg : c.args) {
          if (std::get_if<expr::StringNode>(&arg->node) == nullptr) {
            comp.compile(*arg);
          }
        }
        comp.emit_throw(c.name + ": takes no arguments");
        return true;
      }
      ExtSite site;
      site.kind = c.name == "totalpower" ? Kind::kTotalPower : Kind::kTotalArea;
      site.node = ctx.node;
      comp.emit(expr::Op::kExt, add_site(site));
      if (ctx.row >= 0) deps[ctx.node][static_cast<std::size_t>(ctx.row)].all = true;
      return true;
    }
    const expr::StringNode* s =
        c.args.size() == 1 ? std::get_if<expr::StringNode>(&c.args[0]->node)
                           : nullptr;
    if (s == nullptr) {
      for (const expr::ExprPtr& arg : c.args) {
        if (std::get_if<expr::StringNode>(&arg->node) == nullptr) {
          comp.compile(*arg);
        }
      }
      comp.emit_throw(c.name +
                      ": expects a single row-name string argument, e.g. " +
                      c.name + "(\"Read Bank\")");
      return true;
    }
    const Row* target = d.find_row(s->value);
    if (target == nullptr) {
      // Thrown by ext() rather than baked into a kThrow text: the
      // message names the node's design, and the root's name comes from
      // the bound design, not from the one the plan was compiled from.
      ExtSite site;
      site.kind = Kind::kMissingRow;
      site.node = ctx.node;
      site.target_row = static_cast<std::uint32_t>(plan.missing_calls_.size());
      plan.missing_calls_.push_back(c.name + "(\"" + s->value + "\")");
      comp.emit(expr::Op::kExt, add_site(site));
      return true;
    }
    const auto target_row = static_cast<std::uint32_t>(target - d.rows().data());
    ExtSite site;
    site.node = ctx.node;
    site.target_row = target_row;
    if (!target->enabled) {
      site.kind = Kind::kDisabledZero;
    } else if (c.name == "rowpower") {
      site.kind = Kind::kRowPower;
    } else if (c.name == "rowarea") {
      site.kind = Kind::kRowArea;
    } else if (c.name == "rowenergy") {
      site.kind = Kind::kRowEnergy;
    } else {
      site.kind = Kind::kRowDelay;
    }
    comp.emit(expr::Op::kExt, add_site(site));
    if (target->enabled && ctx.row >= 0) {
      deps[ctx.node][static_cast<std::size_t>(ctx.row)].rows.insert(target_row);
    }
    return true;
  }

  void run_jobs() {
    while (!jobs.empty()) {
      const Job job = std::move(jobs.back());
      jobs.pop_back();
      expr::Compiler* active = nullptr;
      expr::Compiler::Hooks hooks;
      hooks.variable = [this, &job](const std::string& name) {
        return resolve(job.ctx, name);
      };
      hooks.function = [this, &job](const std::string& name) {
        return function_index(job.ctx.node, name);
      };
      hooks.special_call = [this, &job, &active](const expr::CallNode& c) {
        return special_call(job.ctx, c, *active);
      };
      expr::Compiler comp(plan.module_, std::move(hooks));
      active = &comp;
      plan.module_.programs[job.program] = comp.build(*job.formula);
    }
  }

  [[nodiscard]] std::vector<std::pair<std::string, SlotId>> build_chain(
      std::uint32_t node) {
    std::map<std::string, SlotId> chain;  // first binding wins
    const auto add_globals = [&](std::uint32_t n) {
      for (const std::string& nm : bnodes[n].surviving) {
        chain.try_emplace(nm, slot_ids.at(std::make_tuple(n, std::int32_t{-1}, nm)));
      }
    };
    std::int32_t cur = static_cast<std::int32_t>(node);
    add_globals(static_cast<std::uint32_t>(cur));
    while (bnodes[static_cast<std::size_t>(cur)].parent_node >= 0) {
      const std::int32_t pn = bnodes[static_cast<std::size_t>(cur)].parent_node;
      const std::int32_t pr = bnodes[static_cast<std::size_t>(cur)].parent_row;
      const Row& inst =
          bnodes[pn].design->rows()[static_cast<std::size_t>(pr)];
      for (const std::string& nm : inst.params.local_names()) {
        chain.try_emplace(nm, slot_ids.at(std::make_tuple(
                                  static_cast<std::uint32_t>(pn), pr, nm)));
      }
      add_globals(static_cast<std::uint32_t>(pn));
      cur = pn;
    }
    return {chain.begin(), chain.end()};
  }

  /// Settle-rank analysis.  A row's value at iteration i is a pure
  /// function of its intermodel inputs: an earlier-indexed dep is read
  /// from the current iteration, a later-or-equal one from the previous
  /// (+1).  Rows on a dependency cycle — or transitively reading one —
  /// re-evaluate every iteration; everything else is bitwise stable from
  /// its rank onward and gets reused.
  void compute_ranks(std::uint32_t node) {
    auto& rows = plan.nodes_[node].rows;
    const std::size_t n = rows.size();
    if (n == 0) return;
    std::vector<std::vector<std::uint8_t>> adj(n,
                                               std::vector<std::uint8_t>(n, 0));
    for (std::size_t r = 0; r < n; ++r) {
      const Dep& dp = deps[node][r];
      if (dp.all) {
        for (std::size_t t = 0; t < n; ++t) {
          if (rows[t].enabled) adj[r][t] = 1;
        }
      }
      for (const std::uint32_t t : dp.rows) adj[r][t] = 1;
    }
    auto reach = adj;
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!reach[i][k]) continue;
        for (std::size_t j = 0; j < n; ++j) {
          reach[i][j] = static_cast<std::uint8_t>(reach[i][j] | reach[k][j]);
        }
      }
    }
    std::vector<std::uint8_t> iterative(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (reach[i][i]) {
        iterative[i] = 1;
        continue;
      }
      for (std::size_t j = 0; j < n; ++j) {
        if (reach[i][j] && reach[j][j]) {
          iterative[i] = 1;
          break;
        }
      }
    }
    std::vector<std::uint32_t> rank(n, 0);
    const std::function<std::uint32_t(std::size_t)> compute =
        [&](std::size_t r) -> std::uint32_t {
      if (iterative[r]) return EvalPlan::kIterativeRank;
      if (rank[r] != 0) return rank[r];
      std::uint32_t best = 1;
      for (std::size_t j = 0; j < n; ++j) {
        if (!adj[r][j]) continue;
        // j cannot be iterative here (that would make r iterative too),
        // so the recursion is over a DAG and the +1 cannot overflow.
        best = std::max(best, compute(j) + (j >= r ? 1u : 0u));
      }
      rank[r] = best;
      return best;
    };
    for (std::size_t r = 0; r < n; ++r) rows[r].rank = compute(r);
  }
};

// ---------------------------------------------------------------------------
// EvalPlan
// ---------------------------------------------------------------------------

std::shared_ptr<const EvalPlan> EvalPlan::compile(const Design& design) {
  std::shared_ptr<EvalPlan> plan(new EvalPlan());
  PlanBuilder b(*plan);
  b.add_node(design, -1, -1, {}, 0);
  // Intern every bound global and row parameter eagerly: sweeps re-bind
  // by slot and model reads resolve names with no design in sight.
  for (std::uint32_t n = 0; n < static_cast<std::uint32_t>(plan->nodes_.size());
       ++n) {
    for (const std::string& nm : b.bnodes[n].surviving) b.global_slot(n, nm);
    const Design* d = b.bnodes[n].design;
    for (std::uint32_t ri = 0; ri < static_cast<std::uint32_t>(d->rows().size());
         ++ri) {
      for (const std::string& nm : d->rows()[ri].params.local_names()) {
        b.row_param_slot(n, ri, nm);
      }
    }
  }
  b.run_jobs();
  for (std::uint32_t n = 0; n < static_cast<std::uint32_t>(plan->nodes_.size());
       ++n) {
    Node& node = plan->nodes_[n];
    const Design* d = b.bnodes[n].design;
    for (std::uint32_t ri = 0; ri < static_cast<std::uint32_t>(node.rows.size());
         ++ri) {
      auto& slots = node.rows[ri].param_slots;
      // local_names() is sorted, so the slot vector is too.
      for (const std::string& nm : d->rows()[ri].params.local_names()) {
        slots.emplace_back(
            nm, b.slot_ids.at(std::make_tuple(
                    n, static_cast<std::int32_t>(ri), nm)));
      }
    }
    node.chain_names = b.build_chain(n);
    for (PlanRow& row : node.rows) {
      if (row.is_macro || row.model == nullptr) continue;
      for (const auto& [nm, slot] : row.param_slots) {
        row.reads.push_back(EvalPlan::Read{nm, nullptr, slot, true});
      }
      for (const model::ParamSpec& s : row.model->params()) {
        const auto it = std::find_if(
            row.reads.begin(), row.reads.end(),
            [&](const EvalPlan::Read& r) { return r.name == s.name; });
        if (it != row.reads.end()) {
          it->spec = &s;
          continue;
        }
        EvalPlan::Read rd{s.name, &s, 0, false};
        if (const auto slot = search_sorted(node.chain_names, s.name)) {
          rd.slot = *slot;
          rd.has_slot = true;
        }
        row.reads.push_back(std::move(rd));
      }
      std::sort(row.reads.begin(), row.reads.end(),
                [](const EvalPlan::Read& a, const EvalPlan::Read& b2) {
                  return a.name < b2.name;
                });
    }
    b.compute_ranks(n);
  }
  plan->module_.domain_count = std::max(1u, b.next_domain);
  return plan;
}

std::optional<SlotId> EvalPlan::global_slot(const std::string& name) const {
  // The root chain is exactly the root globals (nothing above erases).
  return search_sorted(nodes_[0].chain_names, name);
}

std::optional<SlotId> EvalPlan::row_param_slot(const std::string& row,
                                               const std::string& param) const {
  for (const PlanRow& r : nodes_[0].rows) {
    if (r.name == row) return search_sorted(r.param_slots, param);
  }
  return std::nullopt;
}

std::uint32_t EvalPlan::row_rank(const std::string& row) const {
  for (const PlanRow& r : nodes_[0].rows) {
    if (r.name == row) return r.rank;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// PlanInstance
// ---------------------------------------------------------------------------

PlanInstance::PlanInstance(std::shared_ptr<const EvalPlan> plan)
    : plan_(std::move(plan)),
      root_name_(plan_->nodes_[0].design_name),
      state_(plan_->module_) {
  state_.set_ext(&PlanInstance::ext_thunk, this);
  frames_.resize(plan_->nodes_.size());
  for (std::size_t n = 0; n < frames_.size(); ++n) {
    const std::size_t rows = plan_->nodes_[n].rows.size();
    frames_[n].estimates.resize(rows);
    frames_[n].present.assign(rows, 0);
    frames_[n].cached.resize(rows);
    frames_[n].has_cached.assign(rows, 0);
  }
}

void PlanInstance::bind(SlotId slot, double value) { state_.bind(slot, value); }

void PlanInstance::bind_from(const Design& design) {
  plan_->for_each_literal(design, [this](SlotId slot, double value) {
    state_.rebind_value(slot, value);
  });
  root_name_ = design.name();
}

const std::string& PlanInstance::node_name(std::uint32_t node_id) const {
  return node_id == 0 ? root_name_ : plan_->nodes_[node_id].design_name;
}

double PlanInstance::ext_thunk(void* ctx, std::uint32_t site, std::uint32_t) {
  return static_cast<PlanInstance*>(ctx)->ext(site);
}

double PlanInstance::ext(std::uint32_t site_index) {
  const EvalPlan::ExtSite& site = plan_->ext_sites_[site_index];
  const EvalPlan::Node& node = plan_->nodes_[site.node];
  NodeFrame& frame = frames_[site.node];
  frame.intermodel_used = true;
  static const Estimate kZero{};
  using Kind = EvalPlan::ExtSite::Kind;
  switch (site.kind) {
    case Kind::kDisabledZero:
      return 0.0;
    case Kind::kMissingRow:
      throw expr::ExprError(plan_->missing_calls_[site.target_row] +
                            ": no such row in design '" +
                            node_name(site.node) + "'");
    case Kind::kRowPower:
      return (frame.present[site.target_row] ? frame.estimates[site.target_row]
                                             : kZero)
          .total_power()
          .si();
    case Kind::kRowArea:
      return (frame.present[site.target_row] ? frame.estimates[site.target_row]
                                             : kZero)
          .area.si();
    case Kind::kRowEnergy:
      return (frame.present[site.target_row] ? frame.estimates[site.target_row]
                                             : kZero)
          .energy_per_op.si();
    case Kind::kRowDelay:
      return (frame.present[site.target_row] ? frame.estimates[site.target_row]
                                             : kZero)
          .delay.si();
    case Kind::kTotalPower: {
      double sum = 0;
      for (const std::uint32_t ri : node.name_sorted_enabled) {
        if (frame.present[ri]) sum += frame.estimates[ri].total_power().si();
      }
      return sum;
    }
    case Kind::kTotalArea: {
      double sum = 0;
      for (const std::uint32_t ri : node.name_sorted_enabled) {
        if (frame.present[ri]) sum += frame.estimates[ri].area.si();
      }
      return sum;
    }
  }
  return 0.0;  // unreachable
}

PlayResult PlanInstance::run_node(std::uint32_t node_id) {
  const EvalPlan::Node& node = plan_->nodes_[node_id];
  if (!node.poison.empty()) {
    throw expr::ExprError("design '" + node_name(node_id) + "': " +
                          node.poison);
  }

  NodeFrame& frame = frames_[node_id];
  frame.intermodel_used = false;
  std::fill(frame.present.begin(), frame.present.end(), 0);
  std::fill(frame.has_cached.begin(), frame.has_cached.end(), 0);
  state_.begin_epoch(node.globals_domain);

  PlayResult out;
  out.design_name = node_name(node_id);

  std::vector<Estimate> estimates;
  estimates.reserve(node.rows.size());

  double last_total = std::numeric_limits<double>::quiet_NaN();
  for (int iter = 1; iter <= Design::kMaxIterations; ++iter) {
    estimates.clear();
    for (std::size_t ri = 0; ri < node.rows.size(); ++ri) {
      const EvalPlan::PlanRow& row = node.rows[ri];
      if (!row.enabled) continue;
      if (frame.has_cached[ri] && static_cast<std::uint32_t>(iter) > row.rank) {
        // Settled: every input the row reads is bitwise what it was last
        // iteration, so the cached evaluation is exact.
        estimates.push_back(frame.estimates[ri]);
        continue;
      }
      ++stats_.row_evaluations;
      state_.begin_epoch(row.domain);

      RowResult rr;
      rr.name = row.name;
      rr.model_name = row.model_name;
      rr.shown_params.reserve(row.param_slots.size());
      for (const auto& [nm, slot] : row.param_slots) {
        rr.shown_params.emplace_back(nm, state_.slot_value(slot));
      }

      if (row.is_macro) {
        auto sub = std::make_shared<PlayResult>(run_node(row.sub_node));
        rr.estimate = sub->total;
        rr.sub_result = std::move(sub);
      } else {
        PlanParamReader reader(state_, row.reads, node.chain_names);
        rr.estimate = row.model->evaluate(reader);
      }
      frame.estimates[ri] = rr.estimate;
      frame.present[ri] = 1;
      estimates.push_back(rr.estimate);
      frame.cached[ri] = std::move(rr);
      frame.has_cached[ri] = 1;
    }

    out.total = model::combine(estimates);
    out.iterations = iter;

    if (!frame.intermodel_used) break;
    const double total = out.total.total_power().si();
    if (iter > 1) {
      const double tol = 1e-9 * std::max(1.0, std::fabs(total));
      if (std::fabs(total - last_total) <= tol) break;
    }
    last_total = total;
    if (iter == Design::kMaxIterations) {
      throw expr::ExprError(
          "design '" + node_name(node_id) + "': Play did not converge after " +
          std::to_string(Design::kMaxIterations) +
          " sweeps — check for a diverging intermodel loop (e.g. a DC-DC "
          "converter with efficiency <= 50% feeding itself through "
          "totalpower())");
    }
  }

  out.rows.reserve(node.name_sorted_enabled.size());
  for (std::size_t ri = 0; ri < node.rows.size(); ++ri) {
    // Moving is safe: has_cached resets at the top of every run_node and
    // iteration 1 always rebuilds before anything reads the slot again.
    if (node.rows[ri].enabled) out.rows.push_back(std::move(frame.cached[ri]));
  }
  return out;
}

PlayResult PlanInstance::play() {
  stats_ = PlanStats{};
  PlayResult out = run_node(0);
  stats_.iterations = out.iterations;
  return out;
}

}  // namespace powerplay::sheet
