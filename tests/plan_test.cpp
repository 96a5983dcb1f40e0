// Differential tests of compiled evaluation plans against the
// interpreter, the engine's plan-backed Play and columnar sweeps
// against the serial clone-per-sweep loops, plan-cache keying, and
// concurrent PlanInstances sharing one plan (the web_tsan target runs
// this file under ThreadSanitizer).
#include "sheet/plan.hpp"

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "models/berkeley_library.hpp"
#include "reference.hpp"
#include "sheet/sweep.hpp"
#include "studies/infopad.hpp"
#include "studies/vq.hpp"

namespace powerplay::sheet {
namespace {

const model::ModelRegistry& lib() {
  static const model::ModelRegistry registry = models::berkeley_library();
  return registry;
}

void expect_same_estimate(const model::Estimate& a, const model::Estimate& b) {
  EXPECT_EQ(a.switched_capacitance.si(), b.switched_capacitance.si());
  EXPECT_EQ(a.energy_per_op.si(), b.energy_per_op.si());
  EXPECT_EQ(a.dynamic_power.si(), b.dynamic_power.si());
  EXPECT_EQ(a.static_power.si(), b.static_power.si());
  EXPECT_EQ(a.area.si(), b.area.si());
  EXPECT_EQ(a.delay.si(), b.delay.si());
}

void expect_same_result(const PlayResult& a, const PlayResult& b) {
  EXPECT_EQ(a.design_name, b.design_name);
  EXPECT_EQ(a.iterations, b.iterations);
  expect_same_estimate(a.total, b.total);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].name, b.rows[i].name);
    EXPECT_EQ(a.rows[i].model_name, b.rows[i].model_name);
    expect_same_estimate(a.rows[i].estimate, b.rows[i].estimate);
    ASSERT_EQ(a.rows[i].shown_params, b.rows[i].shown_params);
    ASSERT_EQ(a.rows[i].sub_result != nullptr,
              b.rows[i].sub_result != nullptr);
    if (a.rows[i].sub_result != nullptr) {
      expect_same_result(*a.rows[i].sub_result, *b.rows[i].sub_result);
    }
  }
}

void expect_plan_matches_interpreter(const Design& d) {
  PlanInstance inst(EvalPlan::compile(d));
  inst.bind_from(d);
  expect_same_result(d.play(), inst.play());
}

/// Same rows and globals under another name.
Design renamed(const Design& src, const std::string& name) {
  Design d(name, src.description());
  d.globals() = src.globals();
  d.rows() = src.rows();
  return d;
}

std::string play_error(const Design& d) {
  try {
    (void)d.play();
  } catch (const expr::ExprError& e) {
    return e.what();
  }
  return {};
}

std::string plan_error(const Design& d) {
  try {
    PlanInstance inst(EvalPlan::compile(d));
    inst.bind_from(d);
    (void)inst.play();
  } catch (const expr::ExprError& e) {
    return e.what();
  }
  return {};
}

// --- differential over the paper's study designs ----------------------------

TEST(PlanDifferential, VqLuminanceImplementations) {
  expect_plan_matches_interpreter(studies::make_luminance_impl1(lib()));
  expect_plan_matches_interpreter(studies::make_luminance_impl2(lib()));
}

TEST(PlanDifferential, InfopadSystemWithNestedMacros) {
  // Three levels of macro nesting, shared sub-designs, intermodel rows.
  expect_plan_matches_interpreter(studies::make_custom_chipset(lib()));
  expect_plan_matches_interpreter(studies::make_processor_subsystem(lib()));
  expect_plan_matches_interpreter(studies::make_infopad(lib()));
}

TEST(PlanDifferential, CustomFunctionsAndGlobalFormulas) {
  Design d("custom");
  d.globals().set("vdd", 1.5);
  d.globals().set_formula("f", "base_rate() * 2");
  d.add_function("base_rate", [](const std::vector<expr::Value>&) {
    return 5e5;
  });
  auto& row = d.add_row("r", lib().find_shared("register"));
  row.params.set_formula("bits", "max(4, min(16, vdd * 8))");
  expect_plan_matches_interpreter(d);
}

// --- error-message equality -------------------------------------------------

TEST(PlanDifferential, ErrorMessagesMatchTheInterpreter) {
  // Global formula calling an intermodel function (poisoned design).
  Design poisoned("p");
  poisoned.globals().set("vdd", 1.5);
  poisoned.globals().set("f", 1e6);
  poisoned.globals().set_formula("x", "totalpower()");
  poisoned.add_row("r", lib().find_shared("register"));

  // Circular parameter definitions.
  Design circular("c");
  circular.globals().set("vdd", 1.5);
  circular.globals().set_formula("a", "b * 2");
  circular.globals().set_formula("b", "a + 1");
  auto& crow = circular.add_row("r", lib().find_shared("register"));
  crow.params.set_formula("bits", "a");

  // Unbound parameter.
  Design unbound("u");
  unbound.globals().set("vdd", 1.5);
  unbound.globals().set("f", 1e6);
  unbound.add_row("r", lib().find_shared("register"))
      .params.set_formula("bits", "no_such_param");

  // rowpower with a numeric argument (arity/shape error).
  Design badcall("b");
  badcall.globals().set("vdd", 6.0);
  badcall.add_row("Conv", lib().find_shared("dcdc_converter"))
      .params.set_formula("p_load", "rowpower(3)");

  // rowpower of a missing row.
  Design missing("m");
  missing.globals().set("vdd", 6.0);
  missing.add_row("Conv", lib().find_shared("dcdc_converter"))
      .params.set_formula("p_load", "rowpower(\"Nope\")");

  // totalpower with arguments.
  Design args("a");
  args.globals().set("vdd", 6.0);
  args.add_row("Conv", lib().find_shared("dcdc_converter"))
      .params.set_formula("p_load", "totalpower(1)");

  for (const Design* d :
       {&poisoned, &circular, &unbound, &badcall, &missing, &args}) {
    const std::string expect = play_error(*d);
    ASSERT_FALSE(expect.empty()) << d->name();
    EXPECT_EQ(expect, plan_error(*d)) << d->name();
  }
}

// --- engine: plan-backed play and clone-free sweeps -------------------------

TEST(PlanEngine, PlayMatchesInterpreter) {
  engine::EvalEngine engine;
  const Design d = studies::make_luminance_impl2(lib());
  expect_same_result(d.play(), *engine.play(d));
}

TEST(PlanEngine, PlanCacheHitsOnStructurallyIdenticalDesigns) {
  engine::EvalEngine engine;
  Design d = studies::make_luminance_impl2(lib());
  (void)engine.play(d);
  EXPECT_EQ(engine.plans().stats().misses, 1u);

  // A literal edit keeps the structure: same plan, fresh Play.
  d.globals().set("vdd", 2.2);
  expect_same_result(d.play(), *engine.play(d));
  EXPECT_EQ(engine.plans().stats().misses, 1u);
  EXPECT_EQ(engine.plans().stats().hits, 1u);

  // A structural edit (new binding) compiles a new plan.
  d.globals().set("extra", 1.0);
  (void)engine.play(d);
  EXPECT_EQ(engine.plans().stats().misses, 2u);

  // A renamed copy is no new structure: a plan hit, and the result is
  // named after the copy.
  const Design copy = renamed(d, "Luminance_2_copy");
  const PlayResult r = engine.play_compiled(copy);
  EXPECT_EQ(engine.plans().stats().misses, 2u);
  EXPECT_EQ(engine.plans().stats().hits, 2u);
  EXPECT_EQ(r.design_name, "Luminance_2_copy");
  expect_same_result(copy.play(), r);
}

// One plan serves every renamed copy of a design, so the root name its
// results and errors carry comes from the design bound at Play time —
// for the scalar instance and for the batch path's scalar replay.
TEST(PlanEngine, SharedPlanErrorsNameTheBoundDesign) {
  // Global formula calling an intermodel function.
  Design poisoned("poisoned");
  poisoned.globals().set("vdd", 1.5);
  poisoned.globals().set("f", 1e6);
  poisoned.globals().set_formula("x", "totalpower()");
  poisoned.add_row("r", lib().find_shared("register"));

  // rowpower of a missing row.
  Design missing("missing");
  missing.globals().set("vdd", 6.0);
  missing.add_row("Conv", lib().find_shared("dcdc_converter"))
      .params.set_formula("p_load", "rowpower(\"Nope\")");

  // A converter at 50% efficiency feeding itself never converges.
  Design diverging("diverging");
  diverging.globals().set("vdd", 6.0);
  diverging.add_row("Load", lib().find_shared("datasheet_component"))
      .params.set("p_typical", 3.0);
  auto& conv = diverging.add_row("Conv", lib().find_shared("dcdc_converter"));
  conv.params.set("efficiency", 0.5);
  conv.params.set_formula("p_load", "totalpower()");

  for (const Design* d : {&poisoned, &missing, &diverging}) {
    engine::EvalEngine engine;
    const Design copy = renamed(*d, d->name() + "_copy");
    const std::string original = play_error(*d);
    const std::string expect = play_error(copy);
    ASSERT_NE(expect.find("'" + copy.name() + "'"), std::string::npos)
        << expect;
    EXPECT_THROW((void)engine.play_compiled(*d), expr::ExprError);
    try {
      (void)engine.play_compiled(copy);
      ADD_FAILURE() << copy.name() << " played";
    } catch (const expr::ExprError& e) {
      EXPECT_EQ(e.what(), expect);
    }
    try {
      (void)engine.sweep_columnar(copy, "", "vdd", {5.0, 6.0, 7.0});
      ADD_FAILURE() << copy.name() << " swept";
    } catch (const expr::ExprError& e) {
      EXPECT_EQ(e.what(), expect);
    }
    // The original still names itself after the copy reused its plan.
    try {
      (void)engine.play_compiled(*d);
    } catch (const expr::ExprError& e) {
      EXPECT_EQ(e.what(), original);
    }
    EXPECT_EQ(engine.plans().stats().misses, 1u) << d->name();
  }
}

TEST(PlanEngine, SweepGlobalMatchesSerial) {
  engine::EvalEngine engine;
  const Design d = studies::make_luminance_impl2(lib());
  const auto values = linspace(1.0, 3.0, 7);
  const ColumnarSweep serial = to_columns("vdd", sweep_global(d, "vdd", values));
  const ColumnarSweep compiled = engine.sweep_columnar(d, "", "vdd", values);
  EXPECT_EQ(compiled.param, "vdd");
  EXPECT_EQ(compiled.values, serial.values);
  reference::expect_same_columns(compiled.cols, serial.cols);
  EXPECT_THROW((void)engine.sweep_columnar(d, "", "no_such", values),
               expr::ExprError);
}

TEST(PlanEngine, SweepRowParamMatchesSerial) {
  engine::EvalEngine engine;
  Design d("adders");
  d.globals().set("vdd", 1.5);
  d.globals().set("f", 1e6);
  d.add_row("A", lib().find_shared("ripple_adder"))
      .params.set("bitwidth", 16.0);
  d.add_row("B", lib().find_shared("ripple_adder"))
      .params.set("bitwidth", 32.0);
  const std::vector<double> widths = {8, 16, 24, 32};

  // Locally bound parameter: pure slot re-binding.
  ColumnarSweep serial =
      to_columns("bitwidth", sweep_row_param(d, "A", "bitwidth", widths));
  ColumnarSweep compiled = engine.sweep_columnar(d, "A", "bitwidth", widths);
  reference::expect_same_columns(compiled.cols, serial.cols);

  // Model-declared parameter the row does not bind: the engine clones
  // once per sweep to materialize the binding, results still match.
  Design def("defaults");
  def.globals().set("vdd", 1.5);
  def.globals().set("f", 1e6);
  def.add_row("r", lib().find_shared("register"));
  serial = to_columns("bits", sweep_row_param(def, "r", "bits", {4, 8, 12}));
  compiled = engine.sweep_columnar(def, "r", "bits", {4, 8, 12});
  reference::expect_same_columns(compiled.cols, serial.cols);

  EXPECT_THROW((void)engine.sweep_columnar(d, "missing", "x", {1}),
               expr::ExprError);
  EXPECT_THROW((void)engine.sweep_columnar(d, "A", "no_such", {1}),
               expr::ExprError);
}

TEST(PlanEngine, SweepGridMatchesSerial) {
  engine::EvalEngine engine;
  const Design d = studies::make_luminance_impl2(lib());
  const auto vdds = linspace(1.0, 3.0, 4);
  const auto rates = linspace(1e6, 4e6, 4);
  const ColumnarGrid serial =
      to_columns(sweep_grid(d, "vdd", vdds, "pixel_rate", rates));
  const ColumnarGrid compiled =
      engine.sweep_grid_columnar(d, "vdd", vdds, "pixel_rate", rates);
  reference::expect_same_columns(compiled.cols, serial.cols);

  // Re-running the identical sweep gives the identical columns.
  const ColumnarGrid again =
      engine.sweep_grid_columnar(d, "vdd", vdds, "pixel_rate", rates);
  reference::expect_same_columns(again.cols, compiled.cols);
}

TEST(PlanEngine, SweepProgressReportsOncePerLaneBlock) {
  engine::EvalEngine engine;
  const Design d = studies::make_luminance_impl2(lib());
  std::atomic<std::size_t> calls{0};
  std::atomic<std::size_t> final_done{0};
  // Three lane blocks, the last one partial.
  const auto values = linspace(1.0, 2.0, 150);
  (void)engine.sweep_columnar(d, "", "vdd", values,
                              [&](std::size_t done, std::size_t total) {
                                calls.fetch_add(1);
                                if (done == total) final_done.fetch_add(1);
                              });
  EXPECT_EQ(calls.load(), 3u);
  EXPECT_EQ(final_done.load(), 1u);
}

// --- concurrency: one plan, many instances ----------------------------------

TEST(PlanConcurrency, InstancesShareOnePlanAcrossThreads) {
  const Design d = studies::make_luminance_impl2(lib());
  const auto plan = EvalPlan::compile(d);
  const PlayResult reference = d.play();
  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      PlanInstance inst(plan);
      inst.bind_from(d);
      for (int i = 0; i < 25; ++i) {
        const PlayResult r = inst.play();
        if (r.total.total_power().si() != reference.total.total_power().si() ||
            r.iterations != reference.iterations) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(PlanConcurrency, EngineSweepsRunConcurrentlyOverSharedPlan) {
  engine::EvalEngine engine;
  const Design d = studies::make_luminance_impl2(lib());
  // Four lane blocks, so several workers play over the one plan.
  const auto vdds = linspace(1.0, 3.0, 16);
  const auto rates = linspace(1e6, 4e6, 16);
  const auto grid =
      engine.sweep_grid_columnar(d, "vdd", vdds, "pixel_rate", rates);
  ASSERT_EQ(grid.cols.size(), 256u);
  EXPECT_GT(grid.cols.power_w[0], 0.0);
  reference::expect_same_columns(
      grid.cols,
      to_columns(sweep_grid(d, "vdd", vdds, "pixel_rate", rates)).cols);
}

}  // namespace
}  // namespace powerplay::sheet
