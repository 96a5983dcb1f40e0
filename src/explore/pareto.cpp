#include "explore/pareto.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "units/units.hpp"

namespace powerplay::explore {

bool is_metric(const std::string& name) {
  return name == "power" || name == "area" || name == "energy" ||
         name == "delay";
}

double metric_column(const sheet::PointColumns& cols, std::size_t i,
                     const std::string& name) {
  if (name == "power") return cols.power_w[i];
  if (name == "area") return cols.area_m2[i];
  if (name == "energy") return cols.energy_j[i];
  return cols.delay_s[i];
}

Objective parse_objective(const std::string& text,
                          const std::vector<std::string>& param_names) {
  Objective o;
  std::string name = text;
  bool forced = false;
  if (name.rfind("min:", 0) == 0) {
    o.maximize = false;
    forced = true;
    name = name.substr(4);
  } else if (name.rfind("max:", 0) == 0) {
    o.maximize = true;
    forced = true;
    name = name.substr(4);
  }
  o.name = name;
  const bool param = std::find(param_names.begin(), param_names.end(),
                               name) != param_names.end();
  if (!param && !is_metric(name)) {
    throw expr::ExprError(
        "pareto: unknown objective '" + name +
        "' — use power/area/energy/delay or one of the explored "
        "parameters, optionally prefixed min:/max:");
  }
  if (!forced) o.maximize = param;  // knobs maximize, costs minimize
  return o;
}

std::vector<std::size_t> pareto_frontier(
    const std::vector<std::vector<double>>& rows,
    const std::vector<bool>& maximize) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != maximize.size()) {
      throw expr::ExprError(
          "pareto_frontier: row width must match objective count");
    }
    bool dominated = false;
    for (std::size_t j = 0; j < rows.size() && !dominated; ++j) {
      if (j == i) continue;
      bool no_worse = true;
      bool strictly_better = false;
      for (std::size_t k = 0; k < maximize.size(); ++k) {
        const double a = maximize[k] ? rows[j][k] : -rows[j][k];
        const double b = maximize[k] ? rows[i][k] : -rows[i][k];
        if (a < b) {
          no_worse = false;
          break;
        }
        if (a > b) strictly_better = true;
      }
      dominated = no_worse && strictly_better;
    }
    if (!dominated) out.push_back(i);
  }
  return out;
}

ParetoResult run_pareto(engine::EvalEngine& engine,
                        const sheet::Design& design, const ParetoSpec& spec,
                        const sheet::SweepProgress& progress) {
  const bool grid = !spec.axes.empty();
  const bool sampled = !spec.dists.empty();
  if (grid == sampled) {
    throw expr::ExprError(
        "pareto: give either grid axes or sampling distributions");
  }
  if (spec.objectives.empty()) {
    throw expr::ExprError("pareto: at least one objective required");
  }

  ParetoResult out;
  out.objectives = spec.objectives;

  if (grid) {
    std::size_t total = 1;
    for (const ParetoAxis& axis : spec.axes) {
      if (axis.values.empty()) {
        throw expr::ExprError("pareto: axis '" + axis.param +
                              "' has no values");
      }
      out.param_names.push_back(axis.param);
      if (total > ParetoSpec::kMaxPoints / axis.values.size()) {
        throw expr::ExprError("pareto: grid exceeds " +
                              std::to_string(ParetoSpec::kMaxPoints) +
                              " points");
      }
      total *= axis.values.size();
    }
    // Cartesian product in row-major axis order: the last axis varies
    // fastest, so point order (and every downstream byte) is fixed.
    out.points.assign(total, {});
    for (std::size_t i = 0; i < total; ++i) {
      std::size_t rest = i;
      std::vector<double> point(spec.axes.size());
      for (std::size_t j = spec.axes.size(); j-- > 0;) {
        const auto& vals = spec.axes[j].values;
        point[j] = vals[rest % vals.size()];
        rest /= vals.size();
      }
      out.points[i] = std::move(point);
    }
  } else {
    if (spec.samples == 0) {
      throw expr::ExprError("pareto: sample count must be positive");
    }
    if (spec.samples > ParetoSpec::kMaxPoints) {
      throw expr::ExprError("pareto: sample count exceeds " +
                            std::to_string(ParetoSpec::kMaxPoints));
    }
    for (const DistParam& p : spec.dists) out.param_names.push_back(p.name);
    out.points = sample_points(spec.dists, spec.samples, spec.seed);
  }

  // Columnar batch evaluation: everything downstream (objective rows,
  // frontier filter, renderers) reads four metric columns, so the
  // per-point PlayResult trees never materialize.
  sheet::PointColumns cols = engine.play_points_columnar(
      design, out.param_names, out.points, progress);

  const std::size_t count = cols.size();
  out.objective_values.reserve(count);
  std::vector<bool> maximize;
  for (const Objective& o : out.objectives) maximize.push_back(o.maximize);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<double> row;
    row.reserve(out.objectives.size());
    for (const Objective& o : out.objectives) {
      const auto it = std::find(out.param_names.begin(),
                                out.param_names.end(), o.name);
      row.push_back(it != out.param_names.end()
                        ? out.points[i][static_cast<std::size_t>(
                              it - out.param_names.begin())]
                        : metric_column(cols, i, o.name));
    }
    out.objective_values.push_back(std::move(row));
  }
  out.power_w = std::move(cols.power_w);
  out.area_m2 = std::move(cols.area_m2);
  out.frontier = pareto_frontier(out.objective_values, maximize);
  return out;
}

std::string pareto_table(const ParetoResult& r) {
  std::ostringstream os;
  os << "pareto frontier: " << r.frontier.size() << " of "
     << r.points.size() << " points non-dominated\nobjectives:";
  for (const Objective& o : r.objectives) {
    os << ' ' << (o.maximize ? "max:" : "min:") << o.name;
  }
  os << "\n";
  for (const std::string& name : r.param_names) os << name << '\t';
  for (const Objective& o : r.objectives) os << o.name << '\t';
  os << "\n";
  os << std::setprecision(9);
  for (const std::size_t i : r.frontier) {
    for (const double v : r.points[i]) os << v << '\t';
    for (const double v : r.objective_values[i]) os << v << '\t';
    os << "\n";
  }
  return os.str();
}

std::string pareto_csv(const ParetoResult& r) {
  std::string out;
  for (const std::string& name : r.param_names) out += name + ',';
  for (const Objective& o : r.objectives) out += o.name + ',';
  out += "total_power_w,area_m2,frontier\n";
  std::vector<char> on(r.points.size(), 0);
  for (const std::size_t i : r.frontier) on[i] = 1;
  const auto field = [&out](double v) {
    units::append_double(out, v, 9);
    out += ',';
  };
  for (std::size_t i = 0; i < r.points.size(); ++i) {
    for (const double v : r.points[i]) field(v);
    for (const double v : r.objective_values[i]) field(v);
    field(r.power_w[i]);
    field(r.area_m2[i]);
    out += on[i] != 0 ? "1\n" : "0\n";
  }
  return out;
}

std::string pareto_json(const ParetoResult& r) {
  std::string out = "[";
  bool first = true;
  for (const std::size_t i : r.frontier) {
    if (!first) out += ',';
    first = false;
    out += '{';
    for (std::size_t j = 0; j < r.param_names.size(); ++j) {
      out += '"' + r.param_names[j] + "\":";
      units::append_double(out, r.points[i][j], 17);
      out += ',';
    }
    for (std::size_t j = 0; j < r.objectives.size(); ++j) {
      out += std::string("\"") + (r.objectives[j].maximize ? "max:" : "min:") +
             r.objectives[j].name + "\":";
      units::append_double(out, r.objective_values[i][j], 17);
      out += ',';
    }
    out += "\"total_power_w\":";
    units::append_double(out, r.power_w[i], 17);
    out += '}';
  }
  out += ']';
  return out;
}

}  // namespace powerplay::explore
