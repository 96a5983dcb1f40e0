// Differential tests of the lane-batched columnar evaluation paths
// (sheet/batch.hpp, the engine's sweep_columnar, sweep_grid_columnar
// and play_points_columnar) against the serial references — the
// interpreter sweeps and a fresh PlanInstance per point
// (tests/reference.hpp): sweeps, grids and point sets must come back
// bit-identical, lane-divergent conditionals must replay without
// changing a bit, intermodel plans
// must run the fixed point inside the lane block (lanes converging at
// different iterations, non-convergence degrading to the scalar error,
// nested intermodel macros), degenerate batches must skip the lane
// machinery, and the batched substrate must stay byte-deterministic
// across thread counts (the web_tsan target runs this file under
// ThreadSanitizer).
#include "sheet/batch.hpp"

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "explore/dist.hpp"
#include "models/berkeley_library.hpp"
#include "reference.hpp"
#include "sheet/sweep.hpp"
#include "studies/infopad.hpp"
#include "studies/vq.hpp"

namespace powerplay::engine {
namespace {

const model::ModelRegistry& lib() {
  static const model::ModelRegistry registry = models::berkeley_library();
  return registry;
}

// Conditional + custom-function formulas over two swept globals: the
// ternaries lower to kJumpIfZero, so blocks whose lanes straddle the
// thresholds exercise the lane-replay path.
sheet::Design branchy_design() {
  sheet::Design d("branchy");
  d.globals().set("vdd", 1.5);
  d.globals().set("f", 1e6);
  d.add_function("boost",
                 [](const std::vector<expr::Value>& args) {
                   return std::get<double>(args.at(0)) * 1.25;
                 });
  auto& reg = d.add_row("reg", lib().find_shared("register"));
  reg.params.set_formula("bits", "vdd < 1.5 ? 8 : 16");
  auto& add = d.add_row("add", lib().find_shared("ripple_adder"));
  add.params.set_formula("bitwidth", "f > 2e6 ? boost(16) : 16");
  return d;
}

// Intermodel fixed point (converter fed by rowpower) with the load
// riding on a swept global.
sheet::Design converter_design() {
  sheet::Design d("conv");
  d.globals().set("vdd", 6.0);
  d.globals().set("p_base", 1.0);
  auto& load = d.add_row("Load", lib().find_shared("datasheet_component"));
  load.params.set_formula("p_typical", "p_base");
  auto& conv = d.add_row("Conv", lib().find_shared("dcdc_converter"));
  conv.params.set("efficiency", 0.8);
  conv.params.set_formula("p_load", "rowpower(\"Load\")");
  return d;
}

// A converter whose load is totalpower() — its own dissipation
// included — so the fixed point is a geometric series with ratio
// (1 - eff) / eff: a per-lane efficiency gives per-lane iteration
// counts, and eff <= 0.5 never converges.
sheet::Design self_fed_converter(const std::string& name = "self_fed") {
  sheet::Design d(name);
  d.globals().set("vdd", 6.0);
  d.globals().set("p_base", 1.0);
  d.globals().set("eff", 0.8);
  d.add_row("Load", lib().find_shared("datasheet_component"))
      .params.set_formula("p_typical", "p_base");
  auto& conv = d.add_row("Conv", lib().find_shared("dcdc_converter"));
  conv.params.set_formula("efficiency", "eff");
  conv.params.set_formula("p_load", "totalpower()");
  return d;
}

void expect_columns_match_plays(const sheet::PointColumns& cols,
                                const std::vector<sheet::PlayResult>& plays) {
  ASSERT_EQ(cols.size(), plays.size());
  for (std::size_t i = 0; i < plays.size(); ++i) {
    EXPECT_EQ(cols.power_w[i], plays[i].total.total_power().si()) << i;
    EXPECT_EQ(cols.energy_j[i], plays[i].total.energy_per_op.si()) << i;
    EXPECT_EQ(cols.area_m2[i], plays[i].total.area.si()) << i;
    EXPECT_EQ(cols.delay_s[i], plays[i].total.delay.si()) << i;
  }
}

// --- grids -------------------------------------------------------------------

TEST(BatchGrid, ColumnarGridBitIdenticalToScalarSweep) {
  EvalEngine engine;
  const sheet::Design d = studies::make_luminance_impl2(lib());
  const auto vdds = sheet::linspace(1.0, 3.0, 16);
  const auto rates = sheet::linspace(1e6, 4e6, 16);

  const sheet::GridSweep scalar =
      sheet::sweep_grid(d, "vdd", vdds, "pixel_rate", rates);
  const sheet::ColumnarGrid batched =
      engine.sweep_grid_columnar(d, "vdd", vdds, "pixel_rate", rates);

  ASSERT_EQ(batched.cols.size(), vdds.size() * rates.size());
  for (std::size_t i = 0; i < vdds.size(); ++i) {
    for (std::size_t j = 0; j < rates.size(); ++j) {
      const std::size_t k = i * rates.size() + j;
      const sheet::PlayResult& r = scalar.results[i][j];
      EXPECT_EQ(batched.cols.power_w[k], r.total.total_power().si());
      EXPECT_EQ(batched.cols.energy_j[k], r.total.energy_per_op.si());
      EXPECT_EQ(batched.cols.area_m2[k], r.total.area.si());
      EXPECT_EQ(batched.cols.delay_s[k], r.total.delay.si());
    }
  }

  // Given bit-identical values the engine's columns and the serial
  // results render to the same bytes.
  EXPECT_EQ(sheet::grid_table(batched),
            sheet::grid_table(sheet::to_columns(scalar)));
  EXPECT_EQ(sheet::grid_csv(batched),
            sheet::grid_csv(sheet::to_columns(scalar)));
  EXPECT_FALSE(sheet::grid_json(batched).empty());

  const BatchCounters c = engine.batch_counters();
  EXPECT_EQ(c.points, vdds.size() * rates.size());
  EXPECT_GT(c.blocks, 0u);
  EXPECT_EQ(c.scalar_fallback_points, 0u);
  // The luminance rows are all operating-point-only models with
  // lane-invariant structural parameters, so the dense sweep must run
  // on the captured-terms fast path (the bench's >= 5x depends on it).
  EXPECT_GT(c.term_capture_rows, 0u);
}

TEST(BatchGrid, ValidationMatchesScalarSweep) {
  EvalEngine engine;
  const sheet::Design d = studies::make_luminance_impl2(lib());
  const auto values = sheet::linspace(1.0, 2.0, 4);
  EXPECT_THROW(
      (void)engine.sweep_grid_columnar(d, "vdd", values, "vdd", values),
      expr::ExprError);
  EXPECT_THROW(
      (void)engine.sweep_grid_columnar(d, "vdd", values, "nope", values),
      expr::ExprError);
}

// --- one-axis sweeps ----------------------------------------------------------

TEST(BatchSweep, OneAxisSweepsBitIdenticalToSerialAtOneAndEightThreads) {
  // A global, and a model-default row parameter the row does not bind
  // (materialized on one clone per sweep); 130 points = two full lane
  // blocks and a single-point block.
  EngineOptions one;
  one.executor.thread_count = 1;
  EngineOptions eight;
  eight.executor.thread_count = 8;
  EvalEngine e1(one);
  EvalEngine e8(eight);
  const sheet::Design d = branchy_design();
  ASSERT_FALSE(d.find_row("add")->params.has_local("alpha"));
  const auto vdds = sheet::linspace(1.0, 2.0, 130);
  const auto alphas = sheet::linspace(0.05, 1.0, 130);
  const sheet::ColumnarSweep global =
      sheet::to_columns("vdd", sheet::sweep_global(d, "vdd", vdds));
  const sheet::ColumnarSweep row = sheet::to_columns(
      "alpha", sheet::sweep_row_param(d, "add", "alpha", alphas));
  for (EvalEngine* engine : {&e1, &e8}) {
    reference::expect_same_columns(
        engine->sweep_columnar(d, "", "vdd", vdds).cols, global.cols);
    reference::expect_same_columns(
        engine->sweep_columnar(d, "add", "alpha", alphas).cols, row.cols);
  }
  EXPECT_EQ(sheet::sweep_csv(e8.sweep_columnar(d, "add", "alpha", alphas)),
            sheet::sweep_csv(sheet::to_columns(
                "alpha", sheet::sweep_row_param(d, "add", "alpha", alphas))));
}

// --- point batches -----------------------------------------------------------

TEST(BatchPoints, ColumnarMatchesPlayPointsOnBranchyFormulas) {
  EvalEngine engine;
  const sheet::Design d = branchy_design();
  std::vector<std::vector<double>> points;
  for (double vdd = 1.0; vdd <= 2.0; vdd += 0.04) {
    for (double f = 5e5; f <= 4e6; f += 2.5e5) {
      points.push_back({vdd, f});
    }
  }
  const auto plays = reference::play_points(d, {"vdd", "f"}, points);
  const auto cols = engine.play_points_columnar(d, {"vdd", "f"}, points);
  expect_columns_match_plays(cols, plays);
}

TEST(BatchPoints, DifferentialFuzzTenThousandRandomPoints) {
  // >= 10k counter-RNG points across both branch thresholds; every
  // point must come back bit-equal to the scalar compiled plan.
  EvalEngine engine;
  const sheet::Design d = branchy_design();
  const auto dists =
      explore::parse_dist_params("vdd=uniform(1.0,2.0);f=uniform(5e5,4e6)");
  const auto points = explore::sample_points(dists, 10240, 99);
  const auto plays = reference::play_points(d, {"vdd", "f"}, points);
  const auto cols = engine.play_points_columnar(d, {"vdd", "f"}, points);
  expect_columns_match_plays(cols, plays);
}

TEST(BatchPoints, LaneDivergentConditionalReplaysWithoutDrift) {
  // One 64-lane block whose lanes straddle the `vdd < 1.5` threshold:
  // the batch interpreter must detect the divergent branch, replay
  // lane-by-lane, and still reproduce the scalar doubles.
  EvalEngine engine;
  const sheet::Design d = branchy_design();
  std::vector<std::vector<double>> points;
  for (std::size_t i = 0; i < 64; ++i) {
    points.push_back({i % 2 == 0 ? 1.2 : 1.8, 1e6});
  }
  const auto plays = reference::play_points(d, {"vdd", "f"}, points);
  const auto cols = engine.play_points_columnar(d, {"vdd", "f"}, points);
  expect_columns_match_plays(cols, plays);
  const BatchCounters c = engine.batch_counters();
  EXPECT_GT(c.lane_replays, 0u);
  EXPECT_EQ(c.scalar_fallback_points, 0u);
}

TEST(BatchPoints, IntermodelPlansBatchTheFixedPoint) {
  // The converter design needs the fixed point (rowpower): the columnar
  // call runs it inside the lane blocks and must answer bit-identically
  // to the scalar per-point fixed point, with no point falling back.
  EvalEngine engine;
  const sheet::Design d = converter_design();
  std::vector<std::vector<double>> points;
  for (std::size_t i = 0; i < 100; ++i) {
    points.push_back({5.0 + 0.02 * static_cast<double>(i),
                      0.5 + 0.01 * static_cast<double>(i)});
  }
  const auto plays = reference::play_points(d, {"vdd", "p_base"}, points);
  const auto cols = engine.play_points_columnar(d, {"vdd", "p_base"}, points);
  expect_columns_match_plays(cols, plays);
  const BatchCounters c = engine.batch_counters();
  EXPECT_GT(c.blocks, 0u);
  EXPECT_EQ(c.scalar_fallback_points, 0u);
}

// --- the intermodel fixed point in lane blocks ------------------------------

const char* const kInfoPadDists =
    "radio_w=uniform(0.2,0.6);lcd_w=normal(0.446,0.05);"
    "conv_eff=uniform(0.7,0.9)";

TEST(BatchFixedPoint, InfoPadTenThousandPointsBitIdenticalToScalar) {
  // The paper's Fig 5 design with its EQ 19 converter row, radio, LCD
  // and converter efficiency varied per point the way explore jobs do.
  EvalEngine engine;
  const sheet::Design d = studies::make_infopad_what_if(lib());
  const std::vector<std::string> params{"radio_w", "lcd_w", "conv_eff"};
  const auto points =
      explore::sample_points(explore::parse_dist_params(kInfoPadDists), 10240,
                             7);
  const auto plays = reference::play_points(d, params, points);
  const auto cols = engine.play_points_columnar(d, params, points);
  expect_columns_match_plays(cols, plays);
  const BatchCounters c = engine.batch_counters();
  EXPECT_EQ(c.blocks, points.size() / sheet::BatchPlanInstance::kLaneWidth);
  EXPECT_EQ(c.scalar_fallback_points, 0u);
  // Both macro sub-trees read no swept global: captured terms per block.
  EXPECT_GT(c.term_capture_rows, 0u);
}

TEST(BatchFixedPoint, InfoPadBitIdenticalAcrossThreadCounts) {
  EngineOptions one;
  one.executor.thread_count = 1;
  EngineOptions eight;
  eight.executor.thread_count = 8;
  EvalEngine e1(one);
  EvalEngine e8(eight);
  const sheet::Design d = studies::make_infopad_what_if(lib());
  const std::vector<std::string> params{"radio_w", "lcd_w", "conv_eff"};
  const auto points =
      explore::sample_points(explore::parse_dist_params(kInfoPadDists), 1000,
                             3);
  const auto a = e1.play_points_columnar(d, params, points);
  const auto b = e8.play_points_columnar(d, params, points);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.power_w[i], b.power_w[i]) << i;
    EXPECT_EQ(a.energy_j[i], b.energy_j[i]) << i;
    EXPECT_EQ(a.area_m2[i], b.area_m2[i]) << i;
    EXPECT_EQ(a.delay_s[i], b.delay_s[i]) << i;
  }
}

TEST(BatchFixedPoint, LanesConvergingAtDifferentIterations) {
  EvalEngine engine;
  const sheet::Design d = self_fed_converter();
  std::vector<std::vector<double>> points;
  for (std::size_t i = 0; i < 192; ++i) {
    const double t = static_cast<double>(i) / 191.0;
    points.push_back({0.65 + 0.34 * t, 0.5 + static_cast<double>(i % 7)});
  }
  // The scalar plan really does need different iteration counts.
  const auto plan = sheet::EvalPlan::compile(d);
  sheet::PlanInstance inst(plan);
  inst.bind_from(d);
  std::vector<int> iterations;
  for (const double eff : {0.65, 0.8, 0.99}) {
    inst.bind(*plan->global_slot("eff"), eff);
    (void)inst.play();
    iterations.push_back(inst.stats().iterations);
  }
  EXPECT_GT(iterations[0], iterations[1]);
  EXPECT_GT(iterations[1], iterations[2]);

  const auto plays = reference::play_points(d, {"eff", "p_base"}, points);
  const auto cols = engine.play_points_columnar(d, {"eff", "p_base"}, points);
  expect_columns_match_plays(cols, plays);
  const BatchCounters c = engine.batch_counters();
  EXPECT_EQ(c.blocks, 3u);
  EXPECT_EQ(c.scalar_fallback_points, 0u);
}

TEST(BatchFixedPoint, ConditionalIntermodelCallReplaysPerLane) {
  // Only lanes with sel > 0.5 call totalpower(): the conditional splits
  // the block, so the extension op runs through the per-lane replay
  // hook, and only those lanes mark the node as intermodel-used.
  sheet::Design d = self_fed_converter("per_lane_use");
  d.globals().set("sel", 1.0);
  d.find_row("Conv")->params.set_formula("p_load",
                                         "sel > 0.5 ? totalpower() : 1.5");
  EvalEngine engine;
  std::vector<std::vector<double>> points;
  for (std::size_t i = 0; i < 128; ++i) {
    points.push_back({static_cast<double>(i % 3) * 0.4,
                      0.7 + 0.002 * static_cast<double>(i)});
  }
  const auto plays = reference::play_points(d, {"sel", "eff"}, points);
  const auto cols = engine.play_points_columnar(d, {"sel", "eff"}, points);
  expect_columns_match_plays(cols, plays);
  const BatchCounters c = engine.batch_counters();
  EXPECT_EQ(c.blocks, 2u);
  EXPECT_GT(c.lane_replays, 0u);
  EXPECT_EQ(c.scalar_fallback_points, 0u);
}

TEST(BatchFixedPoint, NonConvergingLaneDegradesToTheScalarError) {
  // eff = 0.5 makes the series ratio 1: that lane never settles, the
  // block degrades, and the error is the scalar one for the lowest
  // failing point.
  EvalEngine engine;
  const sheet::Design d = self_fed_converter();
  std::vector<std::vector<double>> points;
  for (std::size_t i = 0; i < 128; ++i) {
    const bool diverges = i == 70 || i == 90;
    points.push_back({diverges ? 0.5 : 0.9});
  }
  std::string scalar_error;
  try {
    (void)reference::play_points(d, {"eff"}, points);
  } catch (const expr::ExprError& e) {
    scalar_error = e.what();
  }
  ASSERT_NE(scalar_error.find("did not converge"), std::string::npos)
      << scalar_error;
  std::string batch_error;
  try {
    (void)engine.play_points_columnar(d, {"eff"}, points);
  } catch (const expr::ExprError& e) {
    batch_error = e.what();
  }
  EXPECT_EQ(batch_error, scalar_error);

  // The block before the failing one still batched cleanly.
  points.resize(64);
  const auto plays = reference::play_points(d, {"eff"}, points);
  const auto cols = engine.play_points_columnar(d, {"eff"}, points);
  expect_columns_match_plays(cols, plays);
}

TEST(BatchFixedPoint, NestedIntermodelMacroInsideIntermodelParent) {
  // The macro has its own self-fed converter, the parent's converter
  // reads the macro row through rowpower and totalpower, and the macro
  // row reads the parent's converter back: the macro row is iterative,
  // so the sub-node's fixed point reruns inside every parent iteration,
  // per lane.
  const sheet::Design sub = self_fed_converter("power_island");
  sheet::Design d("nested");
  d.globals().set("vdd", 6.0);
  d.globals().set("eff_root", 0.85);
  d.globals().set("p_root", 2.0);
  auto& island =
      d.add_macro("Island", std::make_shared<const sheet::Design>(sub));
  island.params.set_formula("eff", "eff_root - 0.1");
  island.params.set_formula("p_base",
                            "p_root * 0.5 + 0.01 * rowpower(\"Main Conv\")");
  d.add_row("Radio", lib().find_shared("datasheet_component"))
      .params.set_formula("p_typical", "p_root / 4");
  auto& conv = d.add_row("Main Conv", lib().find_shared("dcdc_converter"));
  conv.params.set_formula("efficiency", "eff_root");
  conv.params.set_formula("p_load",
                          "totalpower() - rowpower(\"Main Conv\") + "
                          "0.1 * rowpower(\"Island\")");

  EvalEngine engine;
  std::vector<std::vector<double>> points;
  for (std::size_t i = 0; i < 160; ++i) {
    const double t = static_cast<double>(i) / 159.0;
    points.push_back({0.78 + 0.2 * t, 0.5 + static_cast<double>(i % 5)});
  }
  EXPECT_EQ(sheet::EvalPlan::compile(d)->row_rank("Island"),
            sheet::EvalPlan::kIterativeRank);
  const auto plays = reference::play_points(d, {"eff_root", "p_root"}, points);
  const auto cols =
      engine.play_points_columnar(d, {"eff_root", "p_root"}, points);
  expect_columns_match_plays(cols, plays);
  const BatchCounters c = engine.batch_counters();
  EXPECT_EQ(c.blocks, 3u);
  EXPECT_EQ(c.scalar_fallback_points, 0u);
}

TEST(BatchPoints, ErrorsMatchTheScalarPath) {
  // A block where some lanes divide by zero: the batch path degrades
  // the block to the scalar loop, so the error that escapes is exactly
  // the scalar sweep's (message included).
  EvalEngine engine;
  sheet::Design d("divzero");
  d.globals().set("vdd", 1.5);
  d.globals().set("f", 1e6);
  d.globals().set("denom", 1.0);
  d.add_row("reg", lib().find_shared("register"))
      .params.set_formula("bits", "16 / denom");
  std::vector<std::vector<double>> points;
  for (std::size_t i = 0; i < 64; ++i) {
    points.push_back({static_cast<double>(i % 4)});
  }
  std::string scalar_error;
  try {
    (void)reference::play_points(d, {"denom"}, points);
  } catch (const expr::ExprError& e) {
    scalar_error = e.what();
  }
  ASSERT_FALSE(scalar_error.empty());
  std::string batch_error;
  try {
    (void)engine.play_points_columnar(d, {"denom"}, points);
  } catch (const expr::ExprError& e) {
    batch_error = e.what();
  }
  EXPECT_EQ(batch_error, scalar_error);
}

// --- degenerate batches ------------------------------------------------------

TEST(BatchPoints, EmptyAndSinglePointBatchesTakeTheScalarPath) {
  EvalEngine engine;
  const sheet::Design d = branchy_design();

  const auto empty = engine.play_points_columnar(d, {"vdd", "f"}, {});
  EXPECT_EQ(empty.size(), 0u);

  const std::vector<std::vector<double>> one{{1.4, 2e6}};
  const auto plays = reference::play_points(d, {"vdd", "f"}, one);
  const auto cols = engine.play_points_columnar(d, {"vdd", "f"}, one);
  expect_columns_match_plays(cols, plays);

  // A 1x1 grid is a single point too.
  const sheet::ColumnarGrid grid =
      engine.sweep_grid_columnar(d, "vdd", {1.5}, "f", {1e6});
  ASSERT_EQ(grid.cols.size(), 1u);
  const sheet::GridSweep scalar =
      sheet::sweep_grid(d, "vdd", {1.5}, "f", {1e6});
  EXPECT_EQ(grid.cols.power_w[0],
            scalar.results[0][0].total.total_power().si());

  // Degenerate batches never ran a lane block; they are all fallbacks.
  const BatchCounters c = engine.batch_counters();
  EXPECT_EQ(c.blocks, 0u);
  EXPECT_EQ(c.points, 2u);
  EXPECT_EQ(c.scalar_fallback_points, 2u);
}

TEST(BatchGrid, EmptyAxesProduceEmptyColumns) {
  EvalEngine engine;
  const sheet::Design d = branchy_design();
  const sheet::ColumnarGrid grid =
      engine.sweep_grid_columnar(d, "vdd", {}, "f", {1e6, 2e6});
  EXPECT_EQ(grid.cols.size(), 0u);
  EXPECT_EQ(sheet::grid_csv(grid), "vdd,f,total_power_w,energy_per_op_j\n");
}

// --- progress at batch granularity ------------------------------------------

TEST(BatchGrid, ProgressReportsOncePerLaneBlock) {
  EvalEngine engine;
  const sheet::Design d = studies::make_luminance_impl2(lib());
  const auto vdds = sheet::linspace(1.0, 3.0, 16);
  const auto rates = sheet::linspace(1e6, 4e6, 16);
  std::atomic<std::size_t> calls{0};
  std::atomic<std::size_t> reported{0};
  (void)engine.sweep_grid_columnar(
      d, "vdd", vdds, "pixel_rate", rates,
      [&](std::size_t done, std::size_t total) {
        calls.fetch_add(1);
        EXPECT_EQ(total, vdds.size() * rates.size());
        if (done == total) reported.fetch_add(1);
      });
  const std::size_t total = vdds.size() * rates.size();
  const std::size_t blocks =
      (total + sheet::BatchPlanInstance::kLaneWidth - 1) /
      sheet::BatchPlanInstance::kLaneWidth;
  EXPECT_EQ(calls.load(), blocks);
  EXPECT_EQ(reported.load(), 1u);
}

// --- thread-count determinism ------------------------------------------------

TEST(BatchPoints, BatchedPointsBitIdenticalAcrossThreadCounts) {
  // Lane blocks partition by point index, never by worker, so the
  // batched Monte Carlo substrate returns the same bytes at 1 and 8
  // threads.
  EngineOptions one;
  one.executor.thread_count = 1;
  EngineOptions eight;
  eight.executor.thread_count = 8;
  EvalEngine e1(one);
  EvalEngine e8(eight);
  const sheet::Design d = branchy_design();
  const auto dists =
      explore::parse_dist_params("vdd=uniform(1.0,2.0);f=choice(1e6,2e6,4e6)");
  const auto points = explore::sample_points(dists, 1000, 11);
  const auto a = e1.play_points_columnar(d, {"vdd", "f"}, points);
  const auto b = e8.play_points_columnar(d, {"vdd", "f"}, points);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.power_w[i], b.power_w[i]) << i;
    EXPECT_EQ(a.energy_j[i], b.energy_j[i]) << i;
    EXPECT_EQ(a.area_m2[i], b.area_m2[i]) << i;
    EXPECT_EQ(a.delay_s[i], b.delay_s[i]) << i;
  }
}

}  // namespace
}  // namespace powerplay::engine
