// Tests for the design spreadsheet: Play, inheritance, intermodel
// interaction, macros, reports and sweeps.
#include "sheet/budget.hpp"
#include "sheet/design.hpp"
#include "sheet/plan.hpp"
#include "sheet/report.hpp"
#include "sheet/sweep.hpp"

#include <gtest/gtest.h>

#include "model/user_model.hpp"
#include "models/berkeley_library.hpp"

namespace powerplay::sheet {
namespace {

const model::ModelRegistry& lib() {
  static const model::ModelRegistry registry = models::berkeley_library();
  return registry;
}

Design adder_design() {
  Design d("adders");
  d.globals().set("vdd", 1.5);
  d.globals().set("f", 1e6);
  auto& a = d.add_row("A", lib().find_shared("ripple_adder"));
  a.params.set("bitwidth", 16.0);
  auto& b = d.add_row("B", lib().find_shared("ripple_adder"));
  b.params.set("bitwidth", 32.0);
  return d;
}

TEST(Design, RowManagement) {
  Design d("t");
  d.add_row("x", lib().find_shared("register"));
  EXPECT_NE(d.find_row("x"), nullptr);
  EXPECT_EQ(d.find_row("y"), nullptr);
  EXPECT_THROW(d.add_row("x", lib().find_shared("register")),
               expr::ExprError);
  EXPECT_THROW(d.add_row("z", nullptr), expr::ExprError);
  d.remove_row("x");
  EXPECT_EQ(d.find_row("x"), nullptr);
  EXPECT_THROW(d.remove_row("x"), expr::ExprError);
}

TEST(Design, PlayComputesEveryRowAndTotal) {
  const PlayResult r = adder_design().play();
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.iterations, 1);  // no intermodel terms
  EXPECT_GT(r.rows[0].estimate.total_power().si(), 0.0);
  // 32-bit adder burns exactly twice the 16-bit one (EQ 3).
  EXPECT_NEAR(r.rows[1].estimate.total_power().si(),
              2 * r.rows[0].estimate.total_power().si(), 1e-15);
  EXPECT_NEAR(r.total.total_power().si(),
              r.rows[0].estimate.total_power().si() +
                  r.rows[1].estimate.total_power().si(),
              1e-15);
  EXPECT_NE(r.find_row("A"), nullptr);
  EXPECT_EQ(r.find_row("missing"), nullptr);
}

TEST(Design, GlobalsInheritedByRows) {
  Design d("inherit");
  d.globals().set("vdd", 2.0);
  d.globals().set("f", 1e6);
  d.add_row("r", lib().find_shared("register")).params.set("bits", 8.0);
  const PlayResult r = d.play();
  // Register at vdd=2: C = 8*15fF, E = C*V^2.
  EXPECT_NEAR(r.rows[0].estimate.energy_per_op.si(), 8 * 15e-15 * 4.0,
              1e-18);
}

TEST(Design, RowOverridesGlobal) {
  Design d("override");
  d.globals().set("vdd", 2.0);
  d.globals().set("f", 1e6);
  auto& row = d.add_row("r", lib().find_shared("register"));
  row.params.set("bits", 8.0);
  row.params.set("vdd", 1.0);
  const PlayResult r = d.play();
  EXPECT_NEAR(r.rows[0].estimate.energy_per_op.si(), 8 * 15e-15, 1e-18);
}

TEST(Design, RowFormulasUseGlobals) {
  Design d("formulas");
  d.globals().set("vdd", 1.5);
  d.globals().set("pixel_rate", 2e6);
  auto& row = d.add_row("bank", lib().find_shared("sram"));
  row.params.set("words", 2048.0);
  row.params.set("bits", 8.0);
  row.params.set_formula("f", "pixel_rate/16");
  const PlayResult r = d.play();
  bool found = false;
  for (const auto& [name, value] : r.rows[0].shown_params) {
    if (name == "f") {
      EXPECT_DOUBLE_EQ(value, 125e3);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Design, ModelDefaultsApplyWhenRowSilent) {
  Design d("defaults");
  d.globals().set("vdd", 1.5);
  d.globals().set("f", 1e6);
  d.add_row("r", lib().find_shared("register"));  // bits defaults to 8
  const PlayResult r = d.play();
  EXPECT_NEAR(r.rows[0].estimate.energy_per_op.si(), 8 * 15e-15 * 2.25,
              1e-18);
}

// --- Intermodel interaction ---------------------------------------------------

TEST(Intermodel, RowpowerFeedsConverter) {
  Design d("conv");
  d.globals().set("vdd", 6.0);
  auto& load = d.add_row("Load", lib().find_shared("datasheet_component"));
  load.params.set("p_typical", 1.0);
  auto& conv = d.add_row("Conv", lib().find_shared("dcdc_converter"));
  conv.params.set("efficiency", 0.8);
  conv.params.set_formula("p_load", "rowpower(\"Load\")");
  const PlayResult r = d.play();
  EXPECT_GE(r.iterations, 2);
  EXPECT_NEAR(r.find_row("Conv")->estimate.total_power().si(), 0.25, 1e-9);
  EXPECT_NEAR(r.total.total_power().si(), 1.25, 1e-9);
}

TEST(Intermodel, SelfReferentialTotalpowerConverges) {
  // Converter fed from totalpower() *including itself*: fixed point
  // P_c = (P_load + P_c)(1-eta)/eta converges for eta > 0.5.
  Design d("self");
  d.globals().set("vdd", 6.0);
  auto& load = d.add_row("Load", lib().find_shared("datasheet_component"));
  load.params.set("p_typical", 3.0);
  auto& conv = d.add_row("Conv", lib().find_shared("dcdc_converter"));
  conv.params.set("efficiency", 0.8);
  conv.params.set_formula("p_load",
                          "totalpower() - rowpower(\"Conv\")");
  const PlayResult r = d.play();
  EXPECT_NEAR(r.find_row("Conv")->estimate.total_power().si(), 0.75, 1e-6);
  EXPECT_NEAR(r.total.total_power().si(), 3.75, 1e-6);
}

TEST(Intermodel, DivergingLoopReported) {
  // eta = 0.3 makes the self-feeding converter a divergence.
  Design d("diverge");
  d.globals().set("vdd", 6.0);
  auto& load = d.add_row("Load", lib().find_shared("datasheet_component"));
  load.params.set("p_typical", 1.0);
  auto& conv = d.add_row("Conv", lib().find_shared("dcdc_converter"));
  conv.params.set("efficiency", 0.3);
  conv.params.set_formula("p_load", "totalpower()");
  EXPECT_THROW(d.play(), expr::ExprError);
}

TEST(Intermodel, UnknownRowNameRejected) {
  Design d("bad");
  d.globals().set("vdd", 6.0);
  auto& conv = d.add_row("Conv", lib().find_shared("dcdc_converter"));
  conv.params.set_formula("p_load", "rowpower(\"Nope\")");
  EXPECT_THROW(d.play(), expr::ExprError);
}

TEST(Intermodel, TotalareaFeedsInterconnect) {
  Design d("wires");
  d.globals().set("vdd", 1.5);
  d.globals().set("f", 1e6);
  auto& a = d.add_row("A", lib().find_shared("array_multiplier"));
  a.params.set("bitwidthA", 16.0);
  a.params.set("bitwidthB", 16.0);
  auto& w = d.add_row("Wires", lib().find_shared("interconnect"));
  w.params.set("n_blocks", 1000.0);
  w.params.set_formula("active_area", "totalarea() - rowarea(\"Wires\")");
  const PlayResult r = d.play();
  const double mult_area = r.find_row("A")->estimate.area.si();
  EXPECT_GT(mult_area, 0.0);
  EXPECT_GT(r.find_row("Wires")->estimate.total_power().si(), 0.0);
}

TEST(Intermodel, GlobalFormulaMayNotUseIntermodelFunctions) {
  Design d("badglobal");
  d.globals().set("vdd", 1.5);
  d.globals().set_formula("x", "totalpower()");
  d.add_row("r", lib().find_shared("register"));
  EXPECT_THROW(d.play(), expr::ExprError);
}

TEST(Intermodel, RowenergyAccessor) {
  Design d("energy");
  d.globals().set("vdd", 1.5);
  d.globals().set("f", 1e6);
  auto& a = d.add_row("A", lib().find_shared("register"));
  a.params.set("bits", 8.0);
  // A user model converting another row's energy/op into a direct power.
  model::UserModelDefinition def;
  def.name = "echo";
  def.params = {{"e", "", 0, "J", 0, 1, false}};
  def.power_direct = "e * 1e6";
  auto echo = std::make_shared<model::UserModel>(def);
  auto& b = d.add_row("B", echo);
  b.params.set_formula("e", "rowenergy(\"A\")");
  const PlayResult r = d.play();
  EXPECT_NEAR(r.find_row("B")->estimate.total_power().si(),
              r.find_row("A")->estimate.energy_per_op.si() * 1e6, 1e-15);
}

TEST(Intermodel, RowdelayAccessor) {
  Design d("timing");
  d.globals().set("vdd", 1.5);
  d.globals().set("f", 1e6);
  auto& a = d.add_row("A", lib().find_shared("ripple_adder"));
  a.params.set("bitwidth", 32.0);
  // A row whose frequency is capped by another row's critical path:
  // f = min(f, 0.8 / delay(A)).
  auto& b = d.add_row("B", lib().find_shared("register"));
  b.params.set("bits", 8.0);
  b.params.set_formula("f", "min(100e6, 0.8 / rowdelay(\"A\"))");
  const PlayResult r = d.play();
  const double delay_a = r.find_row("A")->estimate.delay.si();
  ASSERT_GT(delay_a, 0.0);
  for (const auto& [name, value] : r.find_row("B")->shown_params) {
    if (name == "f") {
      EXPECT_NEAR(value, std::min(100e6, 0.8 / delay_a), 1.0);
    }
  }
}

TEST(CustomFunctions, RegisteredFunctionUsableInFormulas) {
  Design d("custom");
  d.globals().set("vdd", 1.5);
  d.globals().set("f", 1e6);
  d.add_function("double_it", [](const std::vector<expr::Value>& args) {
    return std::get<double>(args.at(0)) * 2.0;
  });
  auto& row = d.add_row("A", lib().find_shared("register"));
  row.params.set_formula("bits", "double_it(4)");
  const PlayResult r = d.play();
  for (const auto& [name, value] : r.find_row("A")->shown_params) {
    if (name == "bits") {
      EXPECT_DOUBLE_EQ(value, 8.0);
    }
  }
}

TEST(CustomFunctions, SurviveDesignCopy) {
  Design d("copyable");
  d.globals().set("vdd", 1.5);
  d.add_function("three", [](const std::vector<expr::Value>&) {
    return 3.0;
  });
  auto& row = d.add_row("A", lib().find_shared("register"));
  row.params.set_formula("bits", "three() + 1");
  const Design copy = d;
  EXPECT_NO_THROW(copy.play());
}

TEST(Report, DelayColumnWhenRequested) {
  ReportOptions opt;
  opt.show_delay = true;
  const std::string table = to_table(adder_design().play(), opt);
  EXPECT_NE(table.find("Delay"), std::string::npos);
  EXPECT_NE(table.find("ns"), std::string::npos);
}

// --- Macros ---------------------------------------------------------------------

std::shared_ptr<const Design> register_macro() {
  auto d = std::make_shared<Design>("regmacro");
  d->globals().set("vdd", 1.5);
  d->globals().set("f", 1e6);
  d->add_row("reg", lib().find_shared("register")).params.set("bits", 8.0);
  return d;
}

TEST(Macro, SubDesignTotalsRollUp) {
  Design top("top");
  top.globals().set("vdd", 1.5);
  top.add_macro("M", register_macro());
  const PlayResult r = top.play();
  ASSERT_NE(r.rows[0].sub_result, nullptr);
  EXPECT_NEAR(r.rows[0].estimate.total_power().si(),
              r.rows[0].sub_result->total.total_power().si(), 1e-18);
}

TEST(Macro, InstantiationOverridesMacroGlobals) {
  Design top("top");
  top.globals().set("vdd", 1.5);
  auto& m = top.add_macro("M", register_macro());
  m.params.set("f", 2e6);  // macro default was 1 MHz
  const PlayResult r = top.play();
  const PlayResult base = register_macro()->play();
  EXPECT_NEAR(r.rows[0].estimate.total_power().si(),
              2 * base.total.total_power().si(), 1e-15);
}

TEST(Macro, UnsetMacroGlobalsInheritFromDesign) {
  auto sub = std::make_shared<Design>("sub");
  // No vdd in the macro: it must flow from the instantiating design.
  sub->globals().set("f", 1e6);
  sub->add_row("reg", lib().find_shared("register")).params.set("bits", 8.0);

  Design top("top");
  top.globals().set("vdd", 2.0);
  top.add_macro("M", sub);
  const PlayResult r = top.play();
  EXPECT_NEAR(r.rows[0].estimate.energy_per_op.si(), 8 * 15e-15 * 4.0, 1e-18);
}

TEST(Macro, NestedTwoLevels) {
  auto leaf = register_macro();
  auto mid = std::make_shared<Design>("mid");
  mid->globals().set("vdd", 1.5);
  mid->add_macro("L", leaf);
  Design top("top");
  top.globals().set("vdd", 1.5);
  top.add_macro("M", mid);
  const PlayResult r = top.play();
  ASSERT_NE(r.rows[0].sub_result, nullptr);
  ASSERT_NE(r.rows[0].sub_result->rows[0].sub_result, nullptr);
  EXPECT_GT(r.total.total_power().si(), 0.0);
}

TEST(Design, DisabledRowsSkippedByPlay) {
  Design d = adder_design();
  const double both = d.play().total.total_power().si();
  d.find_row("B")->enabled = false;
  const auto r = d.play();
  EXPECT_EQ(r.rows.size(), 1u);
  EXPECT_NEAR(r.total.total_power().si(), both / 3.0, 1e-15);
  d.find_row("B")->enabled = true;
  EXPECT_NEAR(d.play().total.total_power().si(), both, 1e-15);
}

TEST(Design, DisabledRowsInvisibleToIntermodel) {
  Design d("alt");
  d.globals().set("vdd", 6.0);
  auto& load = d.add_row("Load", lib().find_shared("datasheet_component"));
  load.params.set("p_typical", 1.0);
  auto& alt = d.add_row("AltLoad", lib().find_shared("datasheet_component"));
  alt.params.set("p_typical", 5.0);
  alt.enabled = false;  // the dismissed alternative stays on the sheet
  auto& conv = d.add_row("Conv", lib().find_shared("dcdc_converter"));
  conv.params.set("efficiency", 0.8);
  conv.params.set_formula(
      "p_load", "rowpower(\"Load\") + rowpower(\"AltLoad\")");
  const auto r = d.play();
  EXPECT_NEAR(r.find_row("Conv")->estimate.total_power().si(), 0.25, 1e-9);
}

// --- Budgets --------------------------------------------------------------------

TEST(Budget, SlackAndOverruns) {
  const PlayResult r = adder_design().play();
  const double pa = r.find_row("A")->estimate.total_power().si();
  const auto report = check_budget(
      r, {{"A", units::Power{pa * 2}}, {"B", units::Power{pa}}});
  ASSERT_EQ(report.lines.size(), 2u);
  EXPECT_FALSE(report.lines[0].over);
  EXPECT_NEAR(report.lines[0].slack.si(), pa, 1e-15);
  // B burns 2*pa against a budget of pa: over.
  EXPECT_TRUE(report.lines[1].over);
  EXPECT_TRUE(report.any_over);
  EXPECT_FALSE(report.pass());
}

TEST(Budget, DesignTotalAllowance) {
  const PlayResult r = adder_design().play();
  const double total = r.total.total_power().si();
  EXPECT_TRUE(check_budget(r, {}, units::Power{total * 1.1}).pass());
  EXPECT_FALSE(check_budget(r, {}, units::Power{total * 0.9}).pass());
}

TEST(Budget, UnknownRowRejected) {
  const PlayResult r = adder_design().play();
  EXPECT_THROW(check_budget(r, {{"Ghost", units::Power{1}}}),
               expr::ExprError);
}

TEST(Budget, TableShowsPassFail) {
  const PlayResult r = adder_design().play();
  const auto ok = check_budget(r, {}, units::Power{1.0});
  EXPECT_NE(budget_table(ok).find("PASS"), std::string::npos);
  const auto bad = check_budget(r, {{"A", units::Power{0}}});
  const std::string t = budget_table(bad);
  EXPECT_NE(t.find("FAIL"), std::string::npos);
  EXPECT_NE(t.find("OVER by"), std::string::npos);
}

// --- Reports --------------------------------------------------------------------

TEST(Report, TableContainsRowsAndTotal) {
  const std::string table = to_table(adder_design().play());
  EXPECT_NE(table.find("A"), std::string::npos);
  EXPECT_NE(table.find("B"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
  EXPECT_NE(table.find("ripple_adder"), std::string::npos);
  EXPECT_NE(table.find("W"), std::string::npos);
}

TEST(Report, CsvHasHeaderAndAllRows) {
  const std::string csv = to_csv(adder_design().play());
  EXPECT_NE(csv.find("row,model,power_w"), std::string::npos);
  // Header + 2 rows + total = 4 lines.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

TEST(Report, BreakdownListsEq1Terms) {
  const PlayResult r = adder_design().play();
  const std::string b = to_breakdown(r.rows[0]);
  EXPECT_NE(b.find("adder bit-slices"), std::string::npos);
  EXPECT_NE(b.find("energy/op"), std::string::npos);
}

TEST(Report, SummaryLine) {
  const std::string s = summary_line(adder_design().play());
  EXPECT_NE(s.find("adders:"), std::string::npos);
  EXPECT_NE(s.find("2 rows"), std::string::npos);
}

TEST(Timing, SummaryFindsCriticalPathAcrossStages) {
  Design d("pipe");
  d.globals().set("vdd", 1.5);
  d.globals().set("f", 1e6);
  auto& a = d.add_row("Mult", lib().find_shared("array_multiplier"));
  a.params.set("bitwidthA", 16.0);
  a.params.set("bitwidthB", 16.0);
  a.params.set("stage", 0.0);
  auto& b = d.add_row("Add", lib().find_shared("ripple_adder"));
  b.params.set("bitwidth", 32.0);
  b.params.set("stage", 1.0);
  auto& c = d.add_row("Reg", lib().find_shared("register"));
  c.params.set("stage", 1.0);
  const auto summary = timing_summary(d.play());
  ASSERT_EQ(summary.stages.size(), 2u);
  EXPECT_EQ(summary.stages[0].critical_row, "Mult");
  EXPECT_EQ(summary.stages[1].critical_row, "Add");
  // Multiplier: (16+16)*1.2ns = 38.4ns > adder 28.8ns.
  EXPECT_EQ(summary.critical_row, "Mult");
  EXPECT_NEAR(summary.critical_path.si(), 38.4e-9, 1e-12);
  EXPECT_NEAR(summary.max_clock.si(), 1.0 / 38.4e-9, 1.0);
  EXPECT_NE(timing_table(summary).find("Mult"), std::string::npos);
}

TEST(Timing, EmptyDelayGivesZeroClock) {
  Design d("nodelay");
  d.globals().set("vdd", 6.0);
  d.add_row("L", lib().find_shared("datasheet_component"));
  const auto summary = timing_summary(d.play());
  EXPECT_DOUBLE_EQ(summary.max_clock.si(), 0.0);
}

TEST(Report, EmptyDesignPlays) {
  Design d("empty");
  const auto r = d.play();
  EXPECT_TRUE(r.rows.empty());
  EXPECT_DOUBLE_EQ(r.total.total_power().si(), 0.0);
  EXPECT_NE(to_table(r).find("TOTAL"), std::string::npos);
}

// --- Sweeps ---------------------------------------------------------------------

TEST(Sweep, GlobalVoltageSweepIsQuadratic) {
  const Design d = adder_design();
  const auto points = sweep_global(d, "vdd", {1.0, 2.0});
  ASSERT_EQ(points.size(), 2u);
  EXPECT_NEAR(points[1].result.total.total_power().si() /
                  points[0].result.total.total_power().si(),
              4.0, 1e-9);
}

TEST(Sweep, OriginalDesignUntouched) {
  Design d = adder_design();
  sweep_global(d, "vdd", {3.0});
  const PlayResult r = d.play();
  // Still at the original 1.5 V.
  const double expect_e = 16 * 33e-15 * 2.25;
  EXPECT_NEAR(r.rows[0].estimate.energy_per_op.si(), expect_e, 1e-18);
}

TEST(Sweep, RowParamSweep) {
  const Design d = adder_design();
  const auto points = sweep_row_param(d, "A", "bitwidth", {8, 16, 24});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_NEAR(points[2].result.find_row("A")->estimate.total_power().si() /
                  points[0].result.find_row("A")->estimate.total_power().si(),
              3.0, 1e-9);
  EXPECT_THROW(sweep_row_param(d, "missing", "x", {1}), expr::ExprError);
}

TEST(Sweep, RangeHelpers) {
  EXPECT_EQ(linspace(0, 10, 5), (std::vector<double>{0, 2.5, 5, 7.5, 10}));
  const auto g = geomspace(1, 8, 4);
  ASSERT_EQ(g.size(), 4u);
  EXPECT_NEAR(g[1], 2.0, 1e-12);
  EXPECT_NEAR(g[3], 8.0, 1e-12);
  EXPECT_THROW(geomspace(0, 8, 3), expr::ExprError);
}

TEST(Sweep, GridSweepIsSeparableForCmosSheets) {
  // P = C * vdd^2 * f: the grid must factor exactly.
  const Design d = adder_design();
  const auto grid = sheet::sweep_grid(d, "vdd", {1.0, 2.0}, "f",
                                      {1e6, 4e6});
  ASSERT_EQ(grid.results.size(), 2u);
  ASSERT_EQ(grid.results[0].size(), 2u);
  const double base = grid.results[0][0].total.total_power().si();
  EXPECT_NEAR(grid.results[1][0].total.total_power().si(), 4 * base, 1e-12);
  EXPECT_NEAR(grid.results[0][1].total.total_power().si(), 4 * base, 1e-12);
  EXPECT_NEAR(grid.results[1][1].total.total_power().si(), 16 * base,
              1e-12);
}

TEST(Sweep, GridRejectsSameParameterTwice) {
  EXPECT_THROW(sheet::sweep_grid(adder_design(), "vdd", {1}, "vdd", {2}),
               expr::ExprError);
}

TEST(Sweep, GridTableRendering) {
  const auto grid =
      sheet::sweep_grid(adder_design(), "vdd", {1.0, 1.5}, "f", {1e6});
  const std::string t = sheet::grid_table(sheet::to_columns(grid));
  EXPECT_NE(t.find("vdd"), std::string::npos);
  EXPECT_NE(t.find("1.5"), std::string::npos);
  EXPECT_NE(t.find("W"), std::string::npos);
}

TEST(Sweep, TableRendering) {
  const auto points = sweep_global(adder_design(), "vdd", {1.0, 1.5});
  const std::string t = sweep_table(to_columns("vdd", points));
  EXPECT_NE(t.find("vdd"), std::string::npos);
  EXPECT_NE(t.find("1.5"), std::string::npos);
}

// --- Compiled evaluation plans ----------------------------------------------

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

/// Compile, bind, play, and require bit-identity with the interpreter.
PlanStats expect_plan_matches_interpreter(const Design& d) {
  const PlayResult reference = d.play();
  PlanInstance inst(EvalPlan::compile(d));
  inst.bind_from(d);
  const PlayResult compiled = inst.play();
  expect_same_result(reference, compiled);
  return inst.stats();
}

TEST(Plan, NoIntermodelDesignEvaluatesEveryRowExactlyOnce) {
  const PlanStats s = expect_plan_matches_interpreter(adder_design());
  EXPECT_EQ(s.iterations, 1);
  EXPECT_EQ(s.row_evaluations, 2u);
}

TEST(Plan, BackwardReferenceSettlesWithoutReevaluation) {
  // Conv reads Load, which sits *earlier* in sheet order: by the time
  // Conv evaluates in sweep 1 the value it reads is already final, so
  // neither row re-evaluates in the confirmation sweep.
  Design d("conv");
  d.globals().set("vdd", 6.0);
  auto& load = d.add_row("Load", lib().find_shared("datasheet_component"));
  load.params.set("p_typical", 1.0);
  auto& conv = d.add_row("Conv", lib().find_shared("dcdc_converter"));
  conv.params.set("efficiency", 0.8);
  conv.params.set_formula("p_load", "rowpower(\"Load\")");
  const PlanStats s = expect_plan_matches_interpreter(d);
  EXPECT_EQ(s.iterations, 2);
  EXPECT_EQ(s.row_evaluations, 2u);

  const auto plan = EvalPlan::compile(d);
  EXPECT_EQ(plan->row_rank("Load"), 1u);
  EXPECT_EQ(plan->row_rank("Conv"), 1u);
}

TEST(Plan, ForwardReferenceNeedsOneExtraEvaluation) {
  // Conv reads a row *later* in sheet order, so its first sweep sees a
  // stale zero and only the second sweep is final: 2 iterations, and
  // only Conv re-evaluates in the second one (2 + 1 = 3 evaluations).
  Design d("fwd");
  d.globals().set("vdd", 6.0);
  auto& conv = d.add_row("Conv", lib().find_shared("dcdc_converter"));
  conv.params.set("efficiency", 0.8);
  conv.params.set_formula("p_load", "rowpower(\"Load\")");
  auto& load = d.add_row("Load", lib().find_shared("datasheet_component"));
  load.params.set("p_typical", 1.0);
  const PlanStats s = expect_plan_matches_interpreter(d);
  // Sweep 1 reads a stale zero, sweep 2 changes the total, sweep 3
  // confirms convergence — but only sweep 2 re-evaluates Conv (rank 2);
  // the confirmation sweep reuses everything: 2 + 1 + 0 = 3.
  EXPECT_EQ(s.iterations, 3);
  EXPECT_EQ(s.row_evaluations, 3u);

  const auto plan = EvalPlan::compile(d);
  EXPECT_EQ(plan->row_rank("Load"), 1u);
  EXPECT_EQ(plan->row_rank("Conv"), 2u);
}

TEST(Plan, IntermodelCycleConfinesIterationToTheScc) {
  // Self-feeding converter: Conv is its own SCC and re-evaluates every
  // sweep; Load is outside the cycle and evaluates exactly once.
  Design d("self");
  d.globals().set("vdd", 6.0);
  auto& load = d.add_row("Load", lib().find_shared("datasheet_component"));
  load.params.set("p_typical", 3.0);
  auto& conv = d.add_row("Conv", lib().find_shared("dcdc_converter"));
  conv.params.set("efficiency", 0.8);
  conv.params.set_formula("p_load", "totalpower() - rowpower(\"Conv\")");
  const PlanStats s = expect_plan_matches_interpreter(d);
  // The fixed point lands in sweep 1 here (totalpower() already sees
  // Load's fresh value, and Conv's self-term cancels), sweep 2 confirms.
  EXPECT_EQ(s.iterations, 2);
  // Load once, Conv once per iteration.
  EXPECT_EQ(s.row_evaluations, 1u + static_cast<std::size_t>(s.iterations));

  const auto plan = EvalPlan::compile(d);
  EXPECT_EQ(plan->row_rank("Load"), 1u);
  EXPECT_EQ(plan->row_rank("Conv"), EvalPlan::kIterativeRank);
}

TEST(Plan, DivergenceReportsTheInterpreterMessage) {
  Design d("diverge");
  d.globals().set("vdd", 6.0);
  auto& load = d.add_row("Load", lib().find_shared("datasheet_component"));
  load.params.set("p_typical", 1.0);
  auto& conv = d.add_row("Conv", lib().find_shared("dcdc_converter"));
  conv.params.set("efficiency", 0.3);
  conv.params.set_formula("p_load", "totalpower()");

  std::string expect_error;
  try {
    (void)d.play();
    FAIL() << "interpreter accepted a diverging loop";
  } catch (const expr::ExprError& e) {
    expect_error = e.what();
  }
  PlanInstance inst(EvalPlan::compile(d));
  inst.bind_from(d);
  try {
    (void)inst.play();
    FAIL() << "plan accepted a diverging loop";
  } catch (const expr::ExprError& e) {
    EXPECT_EQ(expect_error, e.what());
  }
}

TEST(Plan, DisabledRowsAreSkippedAndInvisible) {
  Design d = adder_design();
  d.find_row("B")->enabled = false;
  const PlanStats s = expect_plan_matches_interpreter(d);
  EXPECT_EQ(s.row_evaluations, 1u);

  // rowpower() of a disabled row reads zero, exactly as the interpreter.
  Design e("disabled-ref");
  e.globals().set("vdd", 6.0);
  auto& off = e.add_row("Off", lib().find_shared("datasheet_component"));
  off.params.set("p_typical", 9.0);
  off.enabled = false;
  auto& conv = e.add_row("Conv", lib().find_shared("dcdc_converter"));
  conv.params.set("efficiency", 0.8);
  conv.params.set_formula("p_load", "rowpower(\"Off\") + 1");
  expect_plan_matches_interpreter(e);
}

TEST(Plan, MacroRowsRunTheSubDesignPlan) {
  auto sub = std::make_shared<Design>("sub");
  sub->globals().set("vdd", 1.2);
  sub->globals().set("f", 1e6);
  sub->add_row("reg", lib().find_shared("register")).params.set("bits", 8.0);
  Design d("top");
  d.globals().set("vdd", 2.0);
  d.globals().set("f", 1e6);
  auto& m = d.add_macro("core", sub);
  m.params.set("vdd", 1.0);  // instantiation override beats sub default
  d.add_row("io", lib().find_shared("register")).params.set("bits", 16.0);
  const PlanStats s = expect_plan_matches_interpreter(d);
  EXPECT_EQ(s.iterations, 1);
  // core (which plays sub's one row) + io: 1 + 1 + 1.
  EXPECT_EQ(s.row_evaluations, 3u);
}

TEST(Plan, SweepSlotRebindMatchesCloneAndSet) {
  const Design d = adder_design();
  const auto plan = EvalPlan::compile(d);
  const auto slot = plan->global_slot("vdd");
  ASSERT_TRUE(slot.has_value());
  PlanInstance inst(plan);
  inst.bind_from(d);
  for (double v : {1.0, 2.0, 3.0}) {
    Design clone = d;
    clone.globals().set("vdd", v);
    inst.bind(*slot, v);
    expect_same_result(clone.play(), inst.play());
  }
  // bind_from drops the override.
  inst.bind_from(d);
  expect_same_result(d.play(), inst.play());
}

TEST(Plan, UnboundSlotLookupsReturnNullopt) {
  const auto plan = EvalPlan::compile(adder_design());
  EXPECT_FALSE(plan->global_slot("nope").has_value());
  EXPECT_FALSE(plan->row_param_slot("A", "nope").has_value());
  EXPECT_FALSE(plan->row_param_slot("missing", "bitwidth").has_value());
  EXPECT_TRUE(plan->row_param_slot("A", "bitwidth").has_value());
}

}  // namespace
}  // namespace powerplay::sheet
