#include "explore/mc.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "units/units.hpp"

namespace powerplay::explore {

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    throw expr::ExprError("percentile: empty sample");
  }
  if (!(p >= 0 && p <= 100)) {
    throw expr::ExprError("percentile: level must be in [0, 100]");
  }
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

McResult run_monte_carlo(engine::EvalEngine& engine,
                         const sheet::Design& design, const McSpec& spec,
                         const sheet::SweepProgress& progress) {
  if (spec.params.empty()) {
    throw expr::ExprError("monte carlo: no parameters given");
  }
  if (spec.samples == 0) {
    throw expr::ExprError("monte carlo: sample count must be positive");
  }
  McResult out;
  out.samples = spec.samples;
  out.seed = spec.seed;
  out.budget_w = spec.budget_w;
  for (const DistParam& p : spec.params) out.param_names.push_back(p.name);

  out.points = sample_points(spec.params, spec.samples, spec.seed);
  // Columnar batch evaluation: points partition into lane blocks by
  // index, so the metric columns — like the counter-based sample
  // matrix feeding them — are bit-identical at any thread count.
  sheet::PointColumns cols = engine.play_points_columnar(
      design, out.param_names, out.points, progress);
  out.power_w = std::move(cols.power_w);
  out.energy_j = std::move(cols.energy_j);

  // Reductions run over the sample-ordered vector (and a sorted copy),
  // never in completion order, so the summary is as thread-count-proof
  // as the samples themselves.
  double sum = 0;
  for (const double w : out.power_w) sum += w;
  const auto n = static_cast<double>(out.power_w.size());
  out.mean_w = sum / n;
  double var = 0;
  for (const double w : out.power_w) {
    var += (w - out.mean_w) * (w - out.mean_w);
  }
  out.stddev_w = std::sqrt(var / n);

  std::vector<double> sorted = out.power_w;
  std::sort(sorted.begin(), sorted.end());
  for (const double level : kPercentiles) {
    out.percentiles_w.emplace_back(level, percentile(sorted, level));
  }
  if (spec.budget_w > 0) {
    std::size_t over = 0;
    for (const double w : out.power_w) {
      if (w > spec.budget_w) ++over;
    }
    out.exceed_fraction = static_cast<double>(over) / n;
  }
  return out;
}

std::string mc_table(const McResult& r) {
  std::ostringstream os;
  os << "monte carlo: " << r.samples << " samples, seed " << r.seed << "\n";
  os << "parameters:";
  for (const std::string& name : r.param_names) os << ' ' << name;
  os << "\n";
  os << "mean power\t" << units::format_si(r.mean_w, "W") << "\n";
  os << "stddev\t" << units::format_si(r.stddev_w, "W") << "\n";
  for (const auto& [level, watts] : r.percentiles_w) {
    os << "p" << level << "\t" << units::format_si(watts, "W") << "\n";
  }
  if (r.budget_w > 0) {
    os << "budget\t" << units::format_si(r.budget_w, "W") << "\n";
    os << "exceedance\t" << std::setprecision(6) << r.exceed_fraction * 100
       << "%\n";
  }
  return os.str();
}

std::string mc_csv(const McResult& r) {
  std::string out;
  for (const std::string& name : r.param_names) out += name + ',';
  out += "total_power_w,energy_per_op_j\n";
  const auto field = [&out](double v, char end) {
    units::append_double(out, v, 9);
    out += end;
  };
  for (std::size_t i = 0; i < r.power_w.size(); ++i) {
    for (const double v : r.points[i]) field(v, ',');
    field(r.power_w[i], ',');
    field(r.energy_j[i], '\n');
  }
  return out;
}

std::string mc_json(const McResult& r) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"samples\":" << r.samples << ",\"seed\":" << r.seed
     << ",\"mean_w\":" << r.mean_w << ",\"stddev_w\":" << r.stddev_w
     << ",\"percentiles_w\":{";
  bool first = true;
  for (const auto& [level, watts] : r.percentiles_w) {
    if (!first) os << ",";
    first = false;
    os << "\"p" << level << "\":" << watts;
  }
  os << "}";
  if (r.budget_w > 0) {
    os << ",\"budget_w\":" << r.budget_w
       << ",\"exceed_fraction\":" << r.exceed_fraction;
  }
  os << "}";
  return os.str();
}

}  // namespace powerplay::explore
