// pareto.hpp — Pareto-frontier extraction over user-chosen objectives.
//
// A sweep answers "what is the power at each point"; a Pareto search
// answers "which points are worth looking at": evaluate a grid (the
// cartesian product of explicit axes) or a sampled cloud (dist.hpp)
// and keep the non-dominated set under objectives like minimize power,
// minimize area, maximize pixel_rate.  Built-in metric objectives
// (power/area/energy/delay, read off each point's PlayResult) default
// to minimize; parameter objectives (throughput knobs) default to
// maximize; both accept explicit `min:`/`max:` prefixes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "explore/dist.hpp"

namespace powerplay::explore {

struct Objective {
  std::string name;      ///< "power", "area", "energy", "delay", or a param
  bool maximize = false;
};

/// True for the built-in PlayResult metrics: power/area/energy/delay.
[[nodiscard]] bool is_metric(const std::string& name);

/// Read built-in metric `name` (SI units) of point `i` from batch result
/// columns (sheet/batch.hpp).  `name` must satisfy is_metric().
[[nodiscard]] double metric_column(const sheet::PointColumns& cols,
                                   std::size_t i, const std::string& name);

/// Parse "power", "min:area", "max:pixel_rate".  `param_names` decides
/// the default direction (parameters maximize, metrics minimize) and
/// validates parameter objectives; unknown names throw.
[[nodiscard]] Objective parse_objective(
    const std::string& text, const std::vector<std::string>& param_names);

/// One explicit grid axis.
struct ParetoAxis {
  std::string param;
  std::vector<double> values;
};

struct ParetoSpec {
  /// Grid mode: cartesian product of these axes (capped — see
  /// kMaxPoints).  Mutually exclusive with sampling mode.
  std::vector<ParetoAxis> axes;
  /// Sampling mode: `samples` draws from these distributions.
  std::vector<DistParam> dists;
  std::size_t samples = 0;
  std::uint64_t seed = 1;
  std::vector<Objective> objectives;  ///< at least one

  static constexpr std::size_t kMaxPoints = 65536;
};

struct ParetoResult {
  std::vector<std::string> param_names;
  std::vector<Objective> objectives;
  std::vector<std::vector<double>> points;           ///< [i][param]
  std::vector<std::vector<double>> objective_values; ///< [i][objective]
  std::vector<double> power_w;                       ///< always recorded
  std::vector<double> area_m2;
  std::vector<std::size_t> frontier;  ///< non-dominated indices, ascending
};

/// Dominance filter over raw objective rows (exposed for direct unit
/// testing): returns the indices of the non-dominated rows, ascending.
/// Row A dominates row B when A is no worse in every column and
/// strictly better in at least one (directions per `maximize`).
/// Duplicate rows never dominate each other, so ties all survive.
[[nodiscard]] std::vector<std::size_t> pareto_frontier(
    const std::vector<std::vector<double>>& rows,
    const std::vector<bool>& maximize);

[[nodiscard]] ParetoResult run_pareto(
    engine::EvalEngine& engine, const sheet::Design& design,
    const ParetoSpec& spec, const sheet::SweepProgress& progress = {});

/// Frontier-only table for the /job view.
[[nodiscard]] std::string pareto_table(const ParetoResult& r);

/// Every evaluated point with a 0/1 `frontier` column.
[[nodiscard]] std::string pareto_csv(const ParetoResult& r);

/// Frontier points as a JSON array of objects.
[[nodiscard]] std::string pareto_json(const ParetoResult& r);

}  // namespace powerplay::explore
