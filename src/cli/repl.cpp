#include "cli/repl.hpp"

#include <memory>
#include <optional>
#include <sstream>

#include "engine/engine.hpp"
#include "explore/inverse.hpp"
#include "explore/mc.hpp"
#include "explore/pareto.hpp"
#include "explore/surrogate.hpp"
#include "models/berkeley_library.hpp"
#include "sheet/report.hpp"
#include "sheet/sweep.hpp"
#include "web/federation.hpp"

namespace powerplay::cli {

namespace {

constexpr const char* kHelp = R"(commands:
  library [category]             list models
  doc <model>                    model documentation + parameters
  new <design>                   start a fresh design sheet
  open <design>                  load a stored design
  save                           persist the current design
  global <name> <value|expr>     set a design global
  add <row> <model>              append a model instance row
  addmacro <row> <design>        append a stored design as a macro
  set <row> <param> <value|expr> set a row parameter
  enable <row> / disable <row>   include/exclude a row from Play
  play                           recompute and print the spreadsheet
  csv                            print the spreadsheet as CSV
  sweep <global> <from> <to> <n> linear what-if sweep
  explore mc <samples> <seed> <name=dist;...>
                                 Monte Carlo power distribution
                                 (dist: uniform(a,b) normal(mu,sigma)
                                  choice(v1,v2,...))
  explore pareto <obj1,obj2,...> <samples> <seed> <name=dist;...>
                                 sampled Pareto frontier (objectives:
                                 power/area/energy/delay or a param,
                                 optionally min:/max: prefixed)
  explore inverse <param> <lo> <hi> <metric> <limit>
                                 largest param value with metric <= limit
  explore fit <model> <basis> <samples> <seed> <name=dist;...>
                                 fit + save a surrogate model
                                 (basis: poly1 | poly2 | log)
  fed add <host:port>            join a peer to the federated network
  fed remove <host:port>         forget a peer (mirrored models stay)
  fed hosts                      per-host health/breaker table
  fed sync                       mirror every peer's shareable models
  fed models [query]             federated search (merged + ranked)
  fed fetch <model>              fetch + import from the healthiest peer
  designs                        list stored designs
  quit                           exit
)";

/// Bind `text` as a literal when it parses as a number, else a formula.
void bind_value(expr::Scope& scope, const std::string& name,
          const std::string& text) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos == text.size()) {
      scope.set(name, v);
      return;
    }
  } catch (const std::exception&) {
    // fall through to formula binding
  }
  scope.set_formula(name, text);
}

class Session {
 public:
  Session(std::ostream& out, library::LibraryStore store)
      : out_(out), store_(std::move(store)) {
    models::add_berkeley_models(registry_);
    store_.load_all_models(registry_);
  }

  /// Returns false when the session should end.
  bool dispatch(const std::string& line, int& failures) {
    std::istringstream is(line);
    std::string cmd;
    is >> cmd;
    if (cmd.empty() || cmd[0] == '#') return true;
    try {
      if (cmd == "quit" || cmd == "exit") return false;
      if (cmd == "help") {
        out_ << kHelp;
      } else if (cmd == "library") {
        cmd_library(is);
      } else if (cmd == "doc") {
        cmd_doc(is);
      } else if (cmd == "new") {
        design_.emplace(take(is, "design name"));
      } else if (cmd == "open") {
        design_.emplace(
            *store_.load_design(take(is, "design name"), registry_));
      } else if (cmd == "save") {
        store_.save_design(current());
        out_ << "saved '" << current().name() << "'\n";
      } else if (cmd == "global") {
        const std::string name = take(is, "global name");
        bind_value(current().globals(), name, rest(is, "value"));
      } else if (cmd == "add") {
        const std::string row = take(is, "row name");
        const std::string model = take(is, "model name");
        current().add_row(row, registry_.find_shared(model) != nullptr
                                   ? registry_.find_shared(model)
                                   : throw expr::ExprError(
                                         "unknown model '" + model + "'"));
      } else if (cmd == "addmacro") {
        const std::string row = take(is, "row name");
        const std::string name = take(is, "design name");
        current().add_macro(row, store_.load_design(name, registry_));
      } else if (cmd == "set") {
        const std::string row_name = take(is, "row name");
        const std::string param = take(is, "parameter");
        sheet::Row* row = current().find_row(row_name);
        if (row == nullptr) {
          throw expr::ExprError("no row named '" + row_name + "'");
        }
        bind_value(row->params, param, rest(is, "value"));
      } else if (cmd == "enable" || cmd == "disable") {
        const std::string row_name = take(is, "row name");
        sheet::Row* row = current().find_row(row_name);
        if (row == nullptr) {
          throw expr::ExprError("no row named '" + row_name + "'");
        }
        row->enabled = (cmd == "enable");
      } else if (cmd == "play") {
        out_ << sheet::to_table(engine_.play_compiled(current()));
      } else if (cmd == "csv") {
        out_ << sheet::to_csv(engine_.play_compiled(current()));
      } else if (cmd == "sweep") {
        const std::string name = take(is, "global name");
        const double from = number(is, "from");
        const double to = number(is, "to");
        const int points = sheet::axis_points(number(is, "points"), "points");
        out_ << sheet::sweep_table(engine_.sweep_columnar(
            current(), "", name, sheet::linspace(from, to, points)));
      } else if (cmd == "explore") {
        cmd_explore(is);
      } else if (cmd == "fed") {
        cmd_fed(is);
      } else if (cmd == "designs") {
        for (const std::string& d : store_.list_designs()) {
          out_ << d << '\n';
        }
      } else {
        throw expr::ExprError("unknown command '" + cmd +
                              "' (try 'help')");
      }
    } catch (const std::exception& e) {
      out_ << "error: " << e.what() << '\n';
      ++failures;
    }
    return true;
  }

 private:
  sheet::Design& current() {
    if (!design_) {
      throw expr::ExprError("no open design (use 'new' or 'open')");
    }
    return *design_;
  }

  static std::string take(std::istringstream& is, const char* what) {
    std::string out;
    if (!(is >> out)) {
      throw expr::ExprError(std::string("missing ") + what);
    }
    return out;
  }

  static double number(std::istringstream& is, const char* what) {
    const std::string text = take(is, what);
    try {
      return std::stod(text);
    } catch (const std::exception&) {
      throw expr::ExprError(std::string("bad number for ") + what + ": '" +
                            text + "'");
    }
  }

  /// Remainder of the line (trimmed) — lets formulas contain spaces.
  static std::string rest(std::istringstream& is, const char* what) {
    std::string out;
    std::getline(is, out);
    const auto begin = out.find_first_not_of(" \t");
    if (begin == std::string::npos) {
      throw expr::ExprError(std::string("missing ") + what);
    }
    return out.substr(begin);
  }

  void cmd_explore(std::istringstream& is) {
    const std::string mode = take(is, "explore mode (mc|pareto|inverse|fit)");
    if (mode == "mc") {
      explore::McSpec spec;
      spec.samples = static_cast<std::size_t>(number(is, "samples"));
      spec.seed = static_cast<std::uint64_t>(number(is, "seed"));
      spec.params = explore::parse_dist_params(rest(is, "distributions"));
      out_ << explore::mc_table(
          explore::run_monte_carlo(engine_, current(), spec));
    } else if (mode == "pareto") {
      explore::ParetoSpec spec;
      const std::string objectives = take(is, "objectives");
      spec.samples = static_cast<std::size_t>(number(is, "samples"));
      spec.seed = static_cast<std::uint64_t>(number(is, "seed"));
      spec.dists = explore::parse_dist_params(rest(is, "distributions"));
      std::vector<std::string> names;
      for (const explore::DistParam& p : spec.dists) {
        names.push_back(p.name);
      }
      std::istringstream objs(objectives);
      std::string objective;
      while (std::getline(objs, objective, ',')) {
        if (objective.empty()) continue;
        spec.objectives.push_back(
            explore::parse_objective(objective, names));
      }
      out_ << explore::pareto_table(
          explore::run_pareto(engine_, current(), spec));
    } else if (mode == "inverse") {
      explore::InverseSpec spec;
      spec.param = take(is, "parameter");
      spec.lo = number(is, "lo");
      spec.hi = number(is, "hi");
      spec.metric = take(is, "metric");
      spec.limit = number(is, "limit");
      out_ << explore::inverse_table(
          spec, explore::solve_inverse(engine_, current(), spec));
    } else if (mode == "fit") {
      explore::FitSpec spec;
      spec.model_name = take(is, "model name");
      spec.basis = take(is, "basis");
      spec.samples = static_cast<std::size_t>(number(is, "samples"));
      spec.seed = static_cast<std::uint64_t>(number(is, "seed"));
      spec.params = explore::parse_dist_params(rest(is, "distributions"));
      const explore::FitResult fit =
          explore::fit_surrogate(engine_, current(), spec);
      store_.save_model(fit.definition);
      registry_.add_or_replace(
          std::make_shared<model::UserModel>(fit.definition));
      out_ << explore::fit_table(fit);
      out_ << "saved model '" << fit.definition.name << "'\n";
    } else {
      throw expr::ExprError("unknown explore mode '" + mode +
                            "' (mc|pareto|inverse|fit)");
    }
  }

  void cmd_library(std::istringstream& is) {
    std::string category;
    is >> category;
    for (const std::string& name : registry_.names()) {
      const model::Model& m = registry_.at(name);
      if (!category.empty() &&
          model::to_string(m.category()) != category) {
        continue;
      }
      out_ << name << "  [" << model::to_string(m.category()) << "]\n";
    }
  }

  /// Lazy federation client: peers join on first `fed add`, and every
  /// synced or fetched definition lands in this session's store and
  /// registry via the mirror sink.
  web::FederatedLibrary& fed() {
    if (fed_ == nullptr) {
      fed_ = std::make_unique<web::FederatedLibrary>();
      fed_->set_mirror_sink([this](const model::UserModelDefinition& def) {
        store_.save_model(def);
        registry_.add_or_replace(std::make_shared<model::UserModel>(def));
      });
    }
    return *fed_;
  }

  void cmd_fed(std::istringstream& is) {
    const std::string sub =
        take(is, "fed subcommand (add|remove|hosts|sync|models|fetch)");
    if (sub == "add") {
      const std::uint16_t port =
          web::parse_peer_spec(take(is, "peer HOST:PORT"));
      fed().add_host(port);
      out_ << "added 127.0.0.1:" << port << '\n';
    } else if (sub == "remove") {
      const std::uint16_t port =
          web::parse_peer_spec(take(is, "peer HOST:PORT"));
      const std::string key = "127.0.0.1:" + std::to_string(port);
      out_ << (fed().remove_host(key) ? "removed " : "unknown host ") << key
           << '\n';
    } else if (sub == "hosts") {
      for (const web::FedHostStats& h : fed().hosts()) {
        const char* breaker =
            h.breaker == web::CircuitBreaker::State::kOpen ? "open"
            : h.breaker == web::CircuitBreaker::State::kHalfOpen
                ? "half-open"
                : "closed";
        out_ << h.key << "  breaker=" << breaker << " health=" << h.health
             << " requests=" << h.requests << " failures=" << h.failures
             << " mirrored=" << h.mirrored_models << '\n';
      }
    } else if (sub == "sync") {
      out_ << fed().sync_now() << " host(s) synced\n";
    } else if (sub == "models") {
      std::string query;
      is >> query;
      const web::FedSearchResult r =
          fed().search(query, web::Deadline::never());
      for (const web::FedModelEntry& m : r.models) {
        out_ << m.name << "  replicas=" << m.replicas
             << (m.stale ? " (stale)" : "") << '\n';
      }
      for (const web::FedHostOutcome& h : r.hosts) {
        if (h.status == web::HostStatus::kServed) continue;
        out_ << "# " << h.host << ": " << web::to_string(h.status)
             << (h.error.empty() ? "" : " (" + h.error + ")") << '\n';
      }
      if (r.partial) out_ << "# partial result\n";
    } else if (sub == "fetch") {
      const web::FedFetchResult r =
          fed().fetch_model(take(is, "model name"), web::Deadline::never());
      out_ << "imported '" << r.def.name << "' from " << r.origin;
      if (r.hedged) out_ << (r.hedge_won ? " (hedge won)" : " (hedged)");
      if (r.from_mirror) {
        out_ << " (stale mirror, " << r.staleness_ms << " ms old)";
      }
      out_ << '\n';
    } else {
      throw expr::ExprError("unknown fed subcommand '" + sub +
                            "' (try 'help')");
    }
  }

  void cmd_doc(std::istringstream& is) {
    const model::Model& m = registry_.at(take(is, "model name"));
    out_ << m.name() << " [" << model::to_string(m.category()) << "]\n"
         << m.documentation() << "\nparameters:\n";
    for (const model::ParamSpec& s : m.params()) {
      out_ << "  " << s.name << " = " << s.default_value;
      if (!s.unit.empty()) out_ << " [" << s.unit << "]";
      if (!s.description.empty()) out_ << "  -- " << s.description;
      out_ << '\n';
    }
  }

  std::ostream& out_;
  library::LibraryStore store_;
  model::ModelRegistry registry_;
  /// Compiled-plan engine behind play, csv, sweep and explore: one plan
  /// cache shared across the session.
  engine::EvalEngine engine_;
  std::optional<sheet::Design> design_;
  std::unique_ptr<web::FederatedLibrary> fed_;
};

}  // namespace

int run_repl(std::istream& in, std::ostream& out, library::LibraryStore store,
             const ReplOptions& options) {
  Session session(out, std::move(store));
  int failures = 0;
  std::string line;
  if (options.echo_prompt) out << "powerplay> " << std::flush;
  while (std::getline(in, line)) {
    if (!session.dispatch(line, failures)) break;
    if (options.echo_prompt) out << "powerplay> " << std::flush;
  }
  return failures;
}

}  // namespace powerplay::cli
