// reference.hpp — the serial per-point reference the engine's columnar
// paths are tested against: a fresh compiled PlanInstance per point, no
// executor, no lane blocks, no memo.  Point i binds params[j] =
// points[i][j]; the first failing point's error propagates unchanged.
#pragma once

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sheet/batch.hpp"
#include "sheet/plan.hpp"

namespace powerplay::reference {

/// Bit-for-bit equality of two column sets, point by point.
inline void expect_same_columns(const sheet::PointColumns& got,
                                const sheet::PointColumns& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.power_w[i], want.power_w[i]) << i;
    EXPECT_EQ(got.energy_j[i], want.energy_j[i]) << i;
    EXPECT_EQ(got.area_m2[i], want.area_m2[i]) << i;
    EXPECT_EQ(got.delay_s[i], want.delay_s[i]) << i;
  }
}

inline std::vector<sheet::PlayResult> play_points(
    const sheet::Design& design, const std::vector<std::string>& params,
    const std::vector<std::vector<double>>& points) {
  const auto plan = sheet::EvalPlan::compile(design);
  std::vector<sheet::PlayResult> out;
  out.reserve(points.size());
  for (const std::vector<double>& point : points) {
    sheet::PlanInstance inst(plan);
    inst.bind_from(design);
    for (std::size_t j = 0; j < params.size(); ++j) {
      inst.bind(*plan->global_slot(params[j]), point.at(j));
    }
    out.push_back(inst.play());
  }
  return out;
}

}  // namespace powerplay::reference
