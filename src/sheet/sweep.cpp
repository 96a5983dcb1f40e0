#include "sheet/sweep.hpp"

#include <atomic>
#include <cmath>
#include <sstream>

#include "units/units.hpp"

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

namespace {

PlayResult play_point(const Design& work, const PlayFn& play) {
  return play ? play(work) : work.play();
}

}  // namespace

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

std::vector<SweepPoint> sweep_global(engine::Executor& executor,
                                     const Design& design,
                                     const std::string& param,
                                     const std::vector<double>& values,
                                     const PlayFn& play,
                                     const SweepProgress& progress) {
  require_global(design, param, "sweep_global");
  std::vector<SweepPoint> out(values.size());
  std::atomic<std::size_t> done{0};
  engine::parallel_for(executor, values.size(), [&](std::size_t i) {
    Design work = design;
    work.globals().set(param, values[i]);
    out[i] = SweepPoint{values[i], play_point(work, play)};
    const std::size_t finished = done.fetch_add(1) + 1;
    if (progress) progress(finished, values.size());
  });
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

std::vector<SweepPoint> sweep_row_param(engine::Executor& executor,
                                        const Design& design,
                                        const std::string& row,
                                        const std::string& param,
                                        const std::vector<double>& values,
                                        const PlayFn& play,
                                        const SweepProgress& progress) {
  const Row* r = design.find_row(row);
  if (r == nullptr) {
    throw expr::ExprError("sweep_row_param: no row named '" + row +
                          "' in design '" + design.name() + "'");
  }
  require_row_param(design, *r, param);
  std::vector<SweepPoint> out(values.size());
  std::atomic<std::size_t> done{0};
  engine::parallel_for(executor, values.size(), [&](std::size_t i) {
    Design work = design;
    work.find_row(row)->params.set(param, values[i]);
    out[i] = SweepPoint{values[i], play_point(work, play)};
    const std::size_t finished = done.fetch_add(1) + 1;
    if (progress) progress(finished, values.size());
  });
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

GridSweep sweep_grid(engine::Executor& executor, const Design& design,
                     const std::string& x_param,
                     const std::vector<double>& xs,
                     const std::string& y_param,
                     const std::vector<double>& ys,
                     const PlayFn& play,
                     const SweepProgress& progress) {
  if (x_param == y_param) {
    throw expr::ExprError("sweep_grid: the two parameters must differ");
  }
  require_globals(design, {x_param, y_param}, "sweep_grid");
  GridSweep out;
  out.x_param = x_param;
  out.y_param = y_param;
  out.xs = xs;
  out.ys = ys;
  out.results.assign(xs.size(), std::vector<PlayResult>(ys.size()));
  const std::size_t total = xs.size() * ys.size();
  std::atomic<std::size_t> done{0};
  engine::parallel_for(executor, total, [&](std::size_t k) {
    const std::size_t i = k / ys.size();
    const std::size_t j = k % ys.size();
    Design work = design;
    work.globals().set(x_param, xs[i]);
    work.globals().set(y_param, ys[j]);
    out.results[i][j] = play_point(work, play);
    const std::size_t finished = done.fetch_add(1) + 1;
    if (progress) progress(finished, total);
  });
  return out;
}

std::string grid_table(const GridSweep& grid) {
  std::ostringstream os;
  os << grid.x_param << " \\ " << grid.y_param;
  for (double y : grid.ys) os << '\t' << y;
  os << '\n';
  for (std::size_t i = 0; i < grid.xs.size(); ++i) {
    os << grid.xs[i];
    for (std::size_t j = 0; j < grid.ys.size(); ++j) {
      os << '\t'
         << units::format_si(
                grid.results[i][j].total.total_power().si(), "W");
    }
    os << '\n';
  }
  return os.str();
}

std::string grid_csv(const GridSweep& grid) {
  std::string out = grid.x_param + ',' + grid.y_param +
                    ",total_power_w,energy_per_op_j\n";
  const auto field = [&out](double v, char end) {
    units::append_double(out, v, 9);
    out += end;
  };
  for (std::size_t i = 0; i < grid.xs.size(); ++i) {
    for (std::size_t j = 0; j < grid.ys.size(); ++j) {
      const PlayResult& r = grid.results[i][j];
      field(grid.xs[i], ',');
      field(grid.ys[j], ',');
      field(r.total.total_power().si(), ',');
      field(r.total.energy_per_op.si(), '\n');
    }
  }
  return out;
}

std::string sweep_csv(const std::string& param,
                      const std::vector<SweepPoint>& points) {
  std::string out = param + ",total_power_w,energy_per_op_j\n";
  const auto field = [&out](double v, char end) {
    units::append_double(out, v, 9);
    out += end;
  };
  for (const SweepPoint& p : points) {
    field(p.value, ',');
    field(p.result.total.total_power().si(), ',');
    field(p.result.total.energy_per_op.si(), '\n');
  }
  return out;
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

std::string sweep_table(const std::string& param,
                        const std::vector<SweepPoint>& points) {
  std::ostringstream os;
  os << param << "\ttotal power\n";
  for (const SweepPoint& p : points) {
    os << p.value << '\t'
       << units::format_si(p.result.total.total_power().si(), "W") << '\n';
  }
  return os.str();
}

}  // namespace powerplay::sheet
