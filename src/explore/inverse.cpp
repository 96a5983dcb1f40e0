#include "explore/inverse.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "explore/pareto.hpp"
#include "units/units.hpp"

namespace powerplay::explore {

namespace {

std::string num(double v) {
  std::ostringstream os;
  os << std::setprecision(9) << v;
  return os.str();
}

}  // namespace

InverseResult solve_inverse(engine::EvalEngine& engine,
                            const sheet::Design& design,
                            const InverseSpec& spec,
                            const sheet::SweepProgress& progress) {
  if (!(spec.lo < spec.hi)) {
    throw expr::ExprError("inverse: bracket requires lo < hi (got [" +
                          num(spec.lo) + ", " + num(spec.hi) + "])");
  }
  if (!is_metric(spec.metric)) {
    throw expr::ExprError("inverse: unknown metric '" + spec.metric +
                          "' — use power, area, energy or delay");
  }
  const std::size_t probes = std::max<std::size_t>(spec.probe_points, 3);
  // Progress accounting: the probe batch plus a generous bisection
  // allowance (a 2^-64 bracket shrink is beyond any tol_rel we accept).
  const std::size_t budget = probes + 64;
  std::size_t done = 0;
  const auto tick = [&](std::size_t n) {
    done = std::min(done + n, budget);
    if (progress) progress(done, budget);
  };

  // Monotonicity probe: equally spaced, endpoints included, evaluated
  // in parallel through the engine.
  std::vector<std::vector<double>> grid(probes);
  for (std::size_t i = 0; i < probes; ++i) {
    grid[i] = {spec.lo + (spec.hi - spec.lo) * static_cast<double>(i) /
                             static_cast<double>(probes - 1)};
  }
  const sheet::PointColumns probed =
      engine.play_points_columnar(design, {spec.param}, grid);
  tick(probes);
  std::vector<double> f(probes);
  for (std::size_t i = 0; i < probes; ++i) {
    f[i] = metric_column(probed, i, spec.metric);
  }

  bool non_decreasing = true;
  bool non_increasing = true;
  std::size_t bad_up = 0;
  std::size_t bad_down = 0;
  for (std::size_t i = 0; i + 1 < probes; ++i) {
    if (f[i + 1] < f[i]) {
      if (non_decreasing) bad_up = i;
      non_decreasing = false;
    }
    if (f[i + 1] > f[i]) {
      if (non_increasing) bad_down = i;
      non_increasing = false;
    }
  }
  if (!non_decreasing && !non_increasing) {
    throw expr::ExprError(
        "inverse: " + spec.metric + " is not monotone in '" + spec.param +
        "' over [" + num(spec.lo) + ", " + num(spec.hi) + "]: " +
        spec.metric + "(" + num(grid[bad_up][0]) + ")=" + num(f[bad_up]) +
        " falls to " + spec.metric + "(" + num(grid[bad_up + 1][0]) + ")=" +
        num(f[bad_up + 1]) + " but " + spec.metric + "(" +
        num(grid[bad_down][0]) + ")=" + num(f[bad_down]) + " rises to " +
        spec.metric + "(" + num(grid[bad_down + 1][0]) + ")=" +
        num(f[bad_down + 1]) + " — bisection has no single answer; sweep "
        "the bracket instead");
  }

  InverseResult out;
  out.increasing = non_decreasing;

  // The probes, then one point per bisection step.
  std::size_t evaluations = probes;
  const auto eval = [&](double x) {
    ++evaluations;
    return metric_column(
        engine.play_points_columnar(design, {spec.param}, {{x}}), 0,
        spec.metric);
  };
  const auto ok = [&](double fx) {
    return spec.upper_bound ? fx <= spec.limit : fx >= spec.limit;
  };

  const bool ok_lo = ok(f.front());
  const bool ok_hi = ok(f.back());
  if (!ok_lo && !ok_hi) {
    // Monotone metric, both endpoints infeasible: the whole bracket is.
    out.feasible = false;
    if (progress) progress(budget, budget);
    return out;
  }
  out.feasible = true;

  // The feasible set of a monotone metric under a one-sided constraint
  // is a sub-interval anchored at a feasible endpoint.  If the endpoint
  // we are optimizing toward is feasible, it is the answer; otherwise
  // bisect the feasibility boundary keeping `a` feasible.
  if (spec.maximize && ok_hi) {
    out.param_value = spec.hi;
    out.metric_value = f.back();
    out.evaluations = evaluations;
    if (progress) progress(budget, budget);
    return out;
  }
  if (!spec.maximize && ok_lo) {
    out.param_value = spec.lo;
    out.metric_value = f.front();
    out.evaluations = evaluations;
    if (progress) progress(budget, budget);
    return out;
  }

  double a = spec.maximize ? spec.lo : spec.hi;      // feasible end
  double b = spec.maximize ? spec.hi : spec.lo;      // infeasible end
  double fa = spec.maximize ? f.front() : f.back();
  const double span = spec.hi - spec.lo;
  std::size_t iters = 0;
  while (iters < spec.max_iters &&
         std::abs(b - a) >
             spec.tol_rel * std::max({std::abs(a), std::abs(b), span})) {
    const double mid = a + (b - a) / 2;
    if (mid == a || mid == b) break;  // double resolution exhausted
    const double fm = eval(mid);
    ++iters;
    tick(1);
    if (ok(fm)) {
      a = mid;
      fa = fm;
    } else {
      b = mid;
    }
  }
  out.param_value = a;
  out.metric_value = fa;
  out.iterations = iters;
  out.evaluations = evaluations;
  if (progress) progress(budget, budget);
  return out;
}

std::string inverse_table(const InverseSpec& spec, const InverseResult& r) {
  std::ostringstream os;
  os << "inverse query: " << (spec.maximize ? "largest " : "smallest ")
     << spec.param << " with " << spec.metric
     << (spec.upper_bound ? " <= " : " >= ")
     << units::format_si(spec.limit, spec.metric == "power" ? "W" : "")
     << " over [" << num(spec.lo) << ", " << num(spec.hi) << "]\n";
  if (!r.feasible) {
    os << "result\tinfeasible (no point in the bracket meets the "
          "constraint)\n";
    return os.str();
  }
  os << spec.param << "\t" << std::setprecision(12) << r.param_value << "\n";
  os << spec.metric << "\t" << r.metric_value << "\n";
  os << "metric direction\t"
     << (r.increasing ? "non-decreasing" : "non-increasing") << "\n";
  os << "evaluations\t" << r.evaluations << " (" << r.iterations
     << " bisection steps)\n";
  return os.str();
}

std::string inverse_csv(const InverseSpec& spec, const InverseResult& r) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "param,feasible," << spec.param << ',' << spec.metric
     << ",evaluations\n";
  os << spec.param << ',' << (r.feasible ? 1 : 0) << ',' << r.param_value
     << ',' << r.metric_value << ',' << r.evaluations << '\n';
  return os.str();
}

}  // namespace powerplay::explore
