#include "sheet/sweep.hpp"

#include <cmath>

namespace powerplay::sheet {

void require_global(const Design& design, const std::string& param,
                    const char* caller) {
  if (!design.globals().lookup(param).has_value()) {
    throw expr::ExprError(std::string(caller) + ": design '" + design.name() +
                          "' has no global parameter named '" + param +
                          "' — sweeping it would create a binding no row "
                          "reads");
  }
}

void require_globals(const Design& design,
                     const std::vector<std::string>& params,
                     const char* caller) {
  std::string unknown;
  std::size_t missing = 0;
  for (const std::string& param : params) {
    if (design.globals().lookup(param).has_value()) continue;
    if (!unknown.empty()) unknown += ", ";
    unknown += "'" + param + "'";
    ++missing;
  }
  if (missing == 0) return;
  throw expr::ExprError(
      std::string(caller) + ": design '" + design.name() + "' has no global " +
      (missing == 1 ? "parameter named " : "parameters named ") + unknown +
      " — sweeping them would create bindings no row reads");
}

void require_row_param(const Design& design, const Row& row,
                       const std::string& param) {
  if (row.params.has_local(param)) return;
  if (row.is_macro()) {
    if (row.macro->globals().lookup(param).has_value()) return;
  } else if (row.model->find_param(param) != nullptr) {
    return;
  }
  throw expr::ExprError("sweep_row_param: row '" + row.name + "' (" +
                        row.model_name() + ") in design '" + design.name() +
                        "' has no parameter named '" + param + "'");
}

std::vector<SweepPoint> sweep_global(const Design& design,
                                     const std::string& param,
                                     const std::vector<double>& values) {
  require_global(design, param, "sweep_global");
  Design work = design;
  std::vector<SweepPoint> out;
  out.reserve(values.size());
  for (double v : values) {
    work.globals().set(param, v);
    out.push_back(SweepPoint{v, work.play()});
  }
  return out;
}

std::vector<SweepPoint> sweep_row_param(const Design& design,
                                        const std::string& row,
                                        const std::string& param,
                                        const std::vector<double>& values) {
  Design work = design;
  Row* r = work.find_row(row);
  if (r == nullptr) {
    throw expr::ExprError("sweep_row_param: no row named '" + row +
                          "' in design '" + design.name() + "'");
  }
  require_row_param(design, *r, param);
  std::vector<SweepPoint> out;
  out.reserve(values.size());
  for (double v : values) {
    r->params.set(param, v);
    out.push_back(SweepPoint{v, work.play()});
  }
  return out;
}

GridSweep sweep_grid(const Design& design, const std::string& x_param,
                     const std::vector<double>& xs,
                     const std::string& y_param,
                     const std::vector<double>& ys) {
  if (x_param == y_param) {
    throw expr::ExprError("sweep_grid: the two parameters must differ");
  }
  require_globals(design, {x_param, y_param}, "sweep_grid");
  GridSweep out;
  out.x_param = x_param;
  out.y_param = y_param;
  out.xs = xs;
  out.ys = ys;
  Design work = design;
  out.results.reserve(xs.size());
  for (double x : xs) {
    work.globals().set(x_param, x);
    std::vector<PlayResult> row;
    row.reserve(ys.size());
    for (double y : ys) {
      work.globals().set(y_param, y);
      row.push_back(work.play());
    }
    out.results.push_back(std::move(row));
  }
  return out;
}

ColumnarGrid to_columns(const GridSweep& grid) {
  ColumnarGrid out{grid.x_param, grid.y_param, grid.xs, grid.ys, {}};
  out.cols.resize(grid.xs.size() * grid.ys.size());
  for (std::size_t i = 0; i < grid.xs.size(); ++i) {
    for (std::size_t j = 0; j < grid.ys.size(); ++j) {
      out.cols.set(i * grid.ys.size() + j, grid.results[i][j]);
    }
  }
  return out;
}

ColumnarSweep to_columns(const std::string& param,
                         const std::vector<SweepPoint>& points) {
  ColumnarSweep out{param, {}, {}};
  out.values.reserve(points.size());
  out.cols.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    out.values.push_back(points[i].value);
    out.cols.set(i, points[i].result);
  }
  return out;
}

int axis_points(double value, const std::string& what) {
  if (!(value >= 1 && value <= kMaxAxisPoints) || value != std::floor(value)) {
    throw expr::ExprError(what + " must be an integer in [1, " +
                          std::to_string(kMaxAxisPoints) + "]");
  }
  return static_cast<int>(value);
}

std::vector<double> linspace(double from, double to, int points) {
  if (points < 2) return {from};
  std::vector<double> out;
  out.reserve(points);
  const double step = (to - from) / (points - 1);
  for (int i = 0; i < points; ++i) out.push_back(from + step * i);
  return out;
}

std::vector<double> geomspace(double from, double to, int points) {
  if (from <= 0 || to <= 0) {
    throw expr::ExprError("geomspace: endpoints must be positive");
  }
  if (points < 2) return {from};
  std::vector<double> out;
  out.reserve(points);
  const double ratio = std::pow(to / from, 1.0 / (points - 1));
  double v = from;
  for (int i = 0; i < points; ++i) {
    out.push_back(v);
    v *= ratio;
  }
  return out;
}

}  // namespace powerplay::sheet
