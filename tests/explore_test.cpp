// Tests for the design-space exploration engine (src/explore): the
// counter RNG and distribution syntax, percentile edge cases, Pareto
// dominance, inverse bisection, surrogate fits (differential against
// the exact compiled plan), and the web face (POST /design/explore,
// job progress fractions, healthz counters, fit persistence across a
// store reopen).
#include "explore/dist.hpp"

#include <cmath>
#include <filesystem>
#include <thread>

#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "explore/inverse.hpp"
#include "explore/mc.hpp"
#include "explore/pareto.hpp"
#include "explore/surrogate.hpp"
#include "model/user_model.hpp"
#include "models/berkeley_library.hpp"
#include "reference.hpp"
#include "studies/vq.hpp"
#include "web/app.hpp"
#include "web/client.hpp"
#include "web/server.hpp"

namespace powerplay::explore {
namespace {

const model::ModelRegistry& lib() {
  static const model::ModelRegistry registry = models::berkeley_library();
  return registry;
}

engine::EvalEngine& eng() {
  static engine::EvalEngine engine;
  return engine;
}

// --- distributions and the counter RNG --------------------------------------

TEST(Dist, ParsesAllThreeKinds) {
  const Distribution u = parse_distribution("uniform(1.35, 1.65)");
  EXPECT_EQ(u.kind, DistKind::kUniform);
  EXPECT_DOUBLE_EQ(u.a, 1.35);
  EXPECT_DOUBLE_EQ(u.b, 1.65);
  EXPECT_DOUBLE_EQ(u.mean(), 1.5);

  const Distribution n = parse_distribution("normal(1.5, 0.05)");
  EXPECT_EQ(n.kind, DistKind::kNormal);
  EXPECT_DOUBLE_EQ(n.mean(), 1.5);

  const Distribution c = parse_distribution("choice(1e6, 2e6, 4e6)");
  EXPECT_EQ(c.kind, DistKind::kChoice);
  EXPECT_EQ(c.choices.size(), 3u);
  EXPECT_NEAR(c.mean(), 7e6 / 3, 1e-3);
}

TEST(Dist, ConstantExpressionArguments) {
  const Distribution u = parse_distribution("uniform(1.5*0.9, 1.5*1.1)");
  EXPECT_NEAR(u.a, 1.35, 1e-12);
  EXPECT_NEAR(u.b, 1.65, 1e-12);
}

TEST(Dist, RejectsBadSyntax) {
  EXPECT_THROW(parse_distribution("uniform(2, 1)"), expr::ExprError);
  EXPECT_THROW(parse_distribution("normal(1, -0.1)"), expr::ExprError);
  EXPECT_THROW(parse_distribution("choice()"), expr::ExprError);
  EXPECT_THROW(parse_distribution("triangular(1, 2)"), expr::ExprError);
  EXPECT_THROW(parse_distribution("uniform(x, 2)"), expr::ExprError);
  EXPECT_THROW(parse_distribution("1.5"), expr::ExprError);
}

TEST(Dist, ParseDistParamsListsAllEntries) {
  const auto params =
      parse_dist_params("vdd=uniform(1.35,1.65);f=choice(1e6,2e6)");
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "vdd");
  EXPECT_EQ(params[1].name, "f");
  EXPECT_THROW(parse_dist_params(""), expr::ExprError);
  EXPECT_THROW(parse_dist_params("novalue"), expr::ExprError);
}

TEST(Dist, CounterRngIsPureAndInRange) {
  // Pure hash: same counters, same double — no hidden state.
  EXPECT_EQ(u01(7, 11, 3), u01(7, 11, 3));
  EXPECT_NE(u01(7, 11, 3), u01(7, 11, 4));
  EXPECT_NE(u01(7, 11, 3), u01(7, 12, 3));
  EXPECT_NE(u01(7, 11, 3), u01(8, 11, 3));
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const double u = u01(1, i, 0);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Dist, SampleMatrixIsDeterministic) {
  const auto params =
      parse_dist_params("vdd=normal(1.5,0.05);f=uniform(1e6,4e6)");
  const auto a = sample_points(params, 64, 42);
  const auto b = sample_points(params, 64, 42);
  EXPECT_EQ(a, b);
  // Row i does not depend on how many rows are drawn.
  const auto longer = sample_points(params, 128, 42);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(a[i], longer[i]);
}

// --- percentiles -------------------------------------------------------------

TEST(Percentile, SingleElement) {
  const std::vector<double> one{3.5};
  EXPECT_DOUBLE_EQ(percentile(one, 0), 3.5);
  EXPECT_DOUBLE_EQ(percentile(one, 50), 3.5);
  EXPECT_DOUBLE_EQ(percentile(one, 100), 3.5);
}

TEST(Percentile, EndpointsAndInterpolation) {
  const std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 4);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 1.75);
}

TEST(Percentile, TiesCollapse) {
  const std::vector<double> v{1, 1, 1, 1, 9};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 1);
  EXPECT_DOUBLE_EQ(percentile(v, 75), 1);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 9);
}

TEST(Percentile, RejectsEmptyAndOutOfRange) {
  EXPECT_THROW((void)percentile({}, 50), expr::ExprError);
  const std::vector<double> v{1, 2};
  EXPECT_THROW((void)percentile(v, -1), expr::ExprError);
  EXPECT_THROW((void)percentile(v, 101), expr::ExprError);
}

// --- Monte Carlo -------------------------------------------------------------

TEST(MonteCarlo, BitIdenticalAcrossThreadCounts) {
  // The acceptance criterion: the same seed yields byte-identical
  // samples and reductions at 1 and 8 worker threads.
  McSpec spec;
  spec.params = parse_dist_params(
      "vdd=uniform(1.35,1.65);pixel_rate=choice(1e6,2e6,4e6)");
  spec.samples = 200;
  spec.seed = 7;

  engine::EngineOptions one;
  one.executor.thread_count = 1;
  engine::EngineOptions eight;
  eight.executor.thread_count = 8;
  engine::EvalEngine e1(one);
  engine::EvalEngine e8(eight);
  const sheet::Design design = studies::make_luminance_impl2(lib());

  const McResult a = run_monte_carlo(e1, design, spec);
  const McResult b = run_monte_carlo(e8, design, spec);
  ASSERT_EQ(a.power_w.size(), b.power_w.size());
  for (std::size_t i = 0; i < a.power_w.size(); ++i) {
    EXPECT_EQ(a.power_w[i], b.power_w[i]) << "sample " << i;
    EXPECT_EQ(a.points[i], b.points[i]) << "sample " << i;
  }
  EXPECT_EQ(a.mean_w, b.mean_w);
  EXPECT_EQ(a.stddev_w, b.stddev_w);
  EXPECT_EQ(mc_csv(a), mc_csv(b));
}

TEST(MonteCarlo, BudgetExceedanceAndSummary) {
  McSpec spec;
  spec.params = parse_dist_params("vdd=uniform(1.2,1.8)");
  spec.samples = 100;
  spec.seed = 3;
  const sheet::Design design = studies::make_luminance_impl2(lib());
  McResult r = run_monte_carlo(eng(), design, spec);
  // Budget at the median: roughly half the samples exceed it.
  spec.budget_w = r.percentiles_w[5].second;  // p50
  r = run_monte_carlo(eng(), design, spec);
  EXPECT_GT(r.exceed_fraction, 0.3);
  EXPECT_LT(r.exceed_fraction, 0.7);
  EXPECT_GT(r.mean_w, 0);
  EXPECT_GT(r.stddev_w, 0);
  // Percentiles are ascending in level and value.
  for (std::size_t i = 1; i < r.percentiles_w.size(); ++i) {
    EXPECT_LE(r.percentiles_w[i - 1].second, r.percentiles_w[i].second);
  }
}

TEST(MonteCarlo, ValidatesAllUnknownParamsAtOnce) {
  McSpec spec;
  spec.params =
      parse_dist_params("nope1=uniform(0,1);vdd=uniform(1,2);"
                        "nope2=uniform(0,1)");
  spec.samples = 4;
  const sheet::Design design = studies::make_luminance_impl2(lib());
  try {
    (void)run_monte_carlo(eng(), design, spec);
    FAIL() << "expected ExprError";
  } catch (const expr::ExprError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'nope1'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'nope2'"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("'vdd'"), std::string::npos) << msg;
  }
}

// --- Pareto ------------------------------------------------------------------

TEST(Pareto, DuplicatesNeverDominateEachOther) {
  const std::vector<std::vector<double>> rows{{1, 1}, {1, 1}, {2, 2}};
  const auto f = pareto_frontier(rows, {false, false});
  EXPECT_EQ(f, (std::vector<std::size_t>{0, 1}));
}

TEST(Pareto, SingleObjective) {
  const auto f = pareto_frontier({{3}, {1}, {2}, {1}}, {false});
  EXPECT_EQ(f, (std::vector<std::size_t>{1, 3}));
  const auto g = pareto_frontier({{3}, {1}, {2}}, {true});
  EXPECT_EQ(g, (std::vector<std::size_t>{0}));
}

TEST(Pareto, DominatedChainLeavesOneSurvivor) {
  const std::vector<std::vector<double>> rows{{1, 1}, {2, 2}, {3, 3}};
  EXPECT_EQ(pareto_frontier(rows, {false, false}),
            (std::vector<std::size_t>{0}));
  EXPECT_EQ(pareto_frontier(rows, {true, true}),
            (std::vector<std::size_t>{2}));
}

TEST(Pareto, MixedDirectionsKeepTradeoffCurve) {
  // Minimize col 0, maximize col 1: {1,9} and {2,10} trade off; {2,8}
  // is dominated by {1,9}.
  const std::vector<std::vector<double>> rows{{1, 9}, {2, 10}, {2, 8}};
  EXPECT_EQ(pareto_frontier(rows, {false, true}),
            (std::vector<std::size_t>{0, 1}));
}

TEST(Pareto, ObjectiveParsingDirectionsAndErrors) {
  const std::vector<std::string> params{"pixel_rate"};
  EXPECT_FALSE(parse_objective("power", params).maximize);
  EXPECT_TRUE(parse_objective("pixel_rate", params).maximize);
  EXPECT_TRUE(parse_objective("max:power", params).maximize);
  EXPECT_FALSE(parse_objective("min:pixel_rate", params).maximize);
  EXPECT_THROW(parse_objective("bogus", params), expr::ExprError);
}

TEST(Pareto, GridRunFindsPowerRateTradeoff) {
  // Power grows with pixel_rate, so (min power, max pixel_rate) puts
  // every grid point on the frontier along the rate axis per vdd-best.
  ParetoSpec spec;
  spec.axes.push_back({"vdd", {1.2, 1.5, 1.8}});
  spec.axes.push_back({"pixel_rate", {1e6, 2e6}});
  spec.objectives = {parse_objective("power", {"vdd", "pixel_rate"}),
                     parse_objective("pixel_rate", {"vdd", "pixel_rate"})};
  const sheet::Design design = studies::make_luminance_impl2(lib());
  const ParetoResult r = run_pareto(eng(), design, spec);
  EXPECT_EQ(r.points.size(), 6u);
  ASSERT_FALSE(r.frontier.empty());
  // The cheapest point at the highest rate must be vdd=1.2, rate=2e6.
  bool found = false;
  for (const std::size_t i : r.frontier) {
    if (r.points[i][0] == 1.2 && r.points[i][1] == 2e6) found = true;
    // vdd=1.8 at a rate also served by vdd=1.2 is dominated.
    EXPECT_NE(r.points[i][0], 1.8);
  }
  EXPECT_TRUE(found);
  EXPECT_NE(pareto_csv(r).find("frontier"), std::string::npos);
  EXPECT_EQ(pareto_json(r).front(), '[');
}

// --- inverse -----------------------------------------------------------------

TEST(Inverse, FindsLargestRateUnderPowerBudget) {
  const sheet::Design design = studies::make_luminance_impl2(lib());
  // Measure power at 2 MHz, then ask for the largest rate within that
  // budget over [1, 4] MHz: the answer must come back ~2 MHz.
  const auto probe =
      reference::play_points(design, {"pixel_rate"}, {{2e6}});
  const double budget = probe.front().total.total_power().si();

  InverseSpec spec;
  spec.param = "pixel_rate";
  spec.lo = 1e6;
  spec.hi = 4e6;
  spec.metric = "power";
  spec.limit = budget;
  const InverseResult r = solve_inverse(eng(), design, spec);
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(r.increasing);
  EXPECT_NEAR(r.param_value, 2e6, 2e6 * 1e-6);
  EXPECT_LE(r.metric_value, budget * (1 + 1e-12));
  EXPECT_LE(r.iterations, spec.max_iters);
  EXPECT_GT(r.evaluations, 0u);
}

TEST(Inverse, EndpointAndInfeasibleCases) {
  const sheet::Design design = studies::make_luminance_impl2(lib());
  InverseSpec spec;
  spec.param = "vdd";
  spec.lo = 1.2;
  spec.hi = 1.8;
  spec.limit = 1.0;  // 1 W: everything feasible
  const InverseResult top = solve_inverse(eng(), design, spec);
  EXPECT_TRUE(top.feasible);
  EXPECT_DOUBLE_EQ(top.param_value, 1.8);

  spec.limit = 1e-12;  // 1 pW: nothing feasible
  const InverseResult none = solve_inverse(eng(), design, spec);
  EXPECT_FALSE(none.feasible);

  spec.lo = 2.0;  // inverted bracket
  EXPECT_THROW((void)solve_inverse(eng(), design, spec), expr::ExprError);
}

TEST(Inverse, RejectsNonMonotoneMetric) {
  // A user model whose power is (knob-1)^2 + eps, with knob bound to a
  // design global: non-monotone over [0, 2], so the probe must refuse.
  model::UserModelDefinition def;
  def.name = "parabola";
  def.params.push_back({"knob", "", 1.0, "", -1e9, 1e9, false});
  def.power_direct = "(knob-1)*(knob-1) + 0.001";
  model::ModelRegistry registry = models::berkeley_library();
  registry.add_or_replace(std::make_shared<model::UserModel>(def));

  sheet::Design d("bowl");
  d.globals().set("vdd", 1.5);
  d.globals().set("x", 0.5);
  auto& row = d.add_row("P", registry.find_shared("parabola"));
  row.params.set_formula("knob", "x");

  InverseSpec spec;
  spec.param = "x";
  spec.lo = 0;
  spec.hi = 2;
  spec.limit = 0.5;
  try {
    (void)solve_inverse(eng(), d, spec);
    FAIL() << "expected non-monotone rejection";
  } catch (const expr::ExprError& e) {
    EXPECT_NE(std::string(e.what()).find("not monotone"),
              std::string::npos)
        << e.what();
  }
  // Restricted to a monotone half of the bowl it solves fine.
  spec.lo = 1.0;
  const InverseResult r = solve_inverse(eng(), d, spec);
  EXPECT_TRUE(r.feasible);
}

// --- surrogate ---------------------------------------------------------------

TEST(Surrogate, DifferentialAgainstExactPlan) {
  const sheet::Design design = studies::make_luminance_impl2(lib());
  FitSpec spec;
  spec.model_name = "lum2_surrogate";
  spec.params = parse_dist_params(
      "vdd=uniform(1.35,1.65);pixel_rate=uniform(1e6,4e6)");
  spec.samples = 128;
  spec.seed = 5;
  const FitResult fit = fit_surrogate(eng(), design, spec);
  EXPECT_GT(fit.diagnostics.r2, 0.99);
  EXPECT_EQ(fit.diagnostics.train_count + fit.diagnostics.holdout_count,
            spec.samples);
  ASSERT_FALSE(fit.definition.power_direct.empty());

  // The materialized UserModel (expression path) must agree with
  // surrogate_predict (the fit's own arithmetic) and with the exact
  // compiled plan within the reported holdout bound, on the holdout
  // points themselves.
  const model::UserModel as_model(fit.definition);
  const auto points = sample_points(spec.params, spec.samples, spec.seed);
  const auto plays =
      reference::play_points(design, {"vdd", "pixel_rate"}, points);
  std::size_t holdout_seen = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i % 4 != 3) continue;  // the deterministic holdout split
    ++holdout_seen;
    const double exact = plays[i].total.total_power().si();
    const double predicted = surrogate_predict(fit, points[i]);

    model::MapParamReader reader;
    reader.set("vdd", points[i][0]);
    reader.set("pixel_rate", points[i][1]);
    const double via_model =
        as_model.evaluate(reader).total_power().si();
    // Expression arithmetic vs the fit's own loop: identical up to fp
    // association noise.
    EXPECT_NEAR(via_model, predicted,
                std::abs(predicted) * 1e-9 + 1e-18);
    // And both sit within the reported max relative error of the plan.
    EXPECT_LE(std::abs(predicted - exact),
              std::abs(exact) * fit.diagnostics.max_rel_err * (1 + 1e-9) +
                  1e-30);
  }
  EXPECT_EQ(holdout_seen, fit.diagnostics.holdout_count);
  EXPECT_TRUE(is_surrogate_doc(fit.definition.documentation));
  EXPECT_EQ(fit.definition.documentation.find('\n'), std::string::npos);
}

TEST(Surrogate, LogBasisAndValidation) {
  const sheet::Design design = studies::make_luminance_impl2(lib());
  FitSpec spec;
  spec.model_name = "lum2_log";
  spec.params = parse_dist_params("pixel_rate=uniform(1e6,8e6)");
  spec.samples = 64;
  spec.basis = "log";
  const FitResult fit = fit_surrogate(eng(), design, spec);
  EXPECT_GT(fit.diagnostics.r2, 0.99);

  spec.basis = "spline";
  EXPECT_THROW((void)fit_surrogate(eng(), design, spec), expr::ExprError);
  spec.basis = "log";
  spec.params = parse_dist_params("pixel_rate=uniform(-1e6,1e6)");
  EXPECT_THROW((void)fit_surrogate(eng(), design, spec), expr::ExprError);
  spec.params = parse_dist_params("pixel_rate=uniform(1e6,8e6)");
  spec.samples = 3;  // fewer training points than basis terms
  EXPECT_THROW((void)fit_surrogate(eng(), design, spec), expr::ExprError);
}

// --- the web face ------------------------------------------------------------

namespace fs = std::filesystem;
using web::Params;
using web::Response;

struct ExploreWebFixture : ::testing::Test {
  fs::path dir;
  std::unique_ptr<web::PowerPlayApp> app;
  std::unique_ptr<web::HttpServer> server;

  void SetUp() override {
    static int counter = 0;
    dir = fs::temp_directory_path() /
          ("pp_explore_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++));
    fs::create_directories(dir);
    open();
    // A small design: one register row at the profile defaults
    // (globals vdd=1.5, f=1e6).
    (void)post("/design/add", {{"user", "dl"},
                         {"model", "register"},
                         {"design", "D"},
                         {"row", "R"},
                         {"p_bits", "8"},
                         {"p_f", "1000000"}});
  }

  void open() {
    app = std::make_unique<web::PowerPlayApp>(library::LibraryStore(dir));
    server = std::make_unique<web::HttpServer>(
        0, [this](const web::Request& r) { return app->handle(r); });
    server->start();
  }

  void reopen() {
    server->stop();
    app->shutdown();
    server.reset();
    app.reset();
    open();
  }

  void TearDown() override {
    server->stop();
    server.reset();
    app.reset();
    fs::remove_all(dir);
  }

  [[nodiscard]] Response get(const std::string& target) const {
    return web::http_get(server->port(), target);
  }
  [[nodiscard]] Response post(const std::string& path,
                              const Params& form) const {
    return web::http_post_form(server->port(), path, form);
  }

  /// Submit an explore job and poll it to completion; returns the
  /// final /job body.
  std::string run_job(const Params& form) {
    const Response submit = post("/design/explore", form);
    EXPECT_EQ(submit.status, 200) << submit.body;
    const std::string id =
        submit.body.substr(4, submit.body.find('\n') - 4);
    for (int i = 0; i < 500; ++i) {
      const Response poll = get("/job?id=" + id);
      if (poll.body.find("status: done") != std::string::npos ||
          poll.body.find("status: failed") != std::string::npos ||
          poll.body.find("status: cancelled") != std::string::npos) {
        return poll.body;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "job " << id << " never finished";
    return {};
  }

  [[nodiscard]] std::string job_id(const std::string& body) const {
    const auto pos = body.find("id: ");
    return body.substr(pos + 4, body.find('\n', pos) - pos - 4);
  }

  /// The result table of the job whose /job body is `body`.
  [[nodiscard]] std::string table(const std::string& body) const {
    return get("/job?id=" + job_id(body) + "&format=table").body;
  }
};

TEST_F(ExploreWebFixture, MonteCarloJobWithProgressAndJson) {
  const std::string body = run_job({{"user", "dl"},
                                    {"name", "D"},
                                    {"mode", "mc"},
                                    {"params", "vdd=uniform(1.35,1.65)"},
                                    {"samples", "64"},
                                    {"seed", "9"}});
  EXPECT_NE(body.find("status: done"), std::string::npos) << body;
  EXPECT_NE(body.find("progress: 64/64"), std::string::npos) << body;
  EXPECT_NE(body.find("progress_fraction: 1.000"), std::string::npos)
      << body;
  EXPECT_NE(table(body).find("p50"), std::string::npos) << table(body);

  const std::string id = job_id(body);
  const Response csv = get("/job?id=" + id + "&format=csv");
  EXPECT_EQ(csv.body.rfind("vdd,total_power_w,energy_per_op_j\n", 0), 0u)
      << csv.body;
  const Response json = get("/job?id=" + id + "&format=json");
  EXPECT_NE(json.headers.at("content-type").find("application/json"),
            std::string::npos);
  EXPECT_NE(json.body.find("\"progress\":1.000"), std::string::npos)
      << json.body;
  EXPECT_NE(json.body.find("\"mean_w\":"), std::string::npos) << json.body;

  const Response jobs = get("/jobs?user=dl");
  EXPECT_NE(jobs.body.find(" 1.000 explore mc D"), std::string::npos)
      << jobs.body;
  const Response jobs_json = get("/jobs?user=dl&format=json");
  EXPECT_EQ(jobs_json.body.front(), '[');
  EXPECT_NE(jobs_json.body.find("\"done\":64"), std::string::npos)
      << jobs_json.body;

  const Response health = get("/healthz");
  EXPECT_NE(health.body.find("explore_jobs_total: 1"), std::string::npos)
      << health.body;
  EXPECT_NE(health.body.find("mc_points_total: 64"), std::string::npos)
      << health.body;
}

TEST_F(ExploreWebFixture, ValidationNamesEveryUnknownParam) {
  const Response r = post("/design/explore",
                          {{"user", "dl"},
                           {"name", "D"},
                           {"mode", "mc"},
                           {"params",
                            "oops1=uniform(0,1);oops2=uniform(0,1)"}});
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("'oops1'"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("'oops2'"), std::string::npos) << r.body;

  EXPECT_EQ(post("/design/explore", {{"user", "dl"},
                                     {"name", "D"},
                                     {"mode", "teleport"}})
                .status,
            400);
  EXPECT_EQ(post("/design/explore", {{"user", "dl"},
                                     {"name", "NoSuch"},
                                     {"mode", "mc"},
                                     {"params", "vdd=uniform(1,2)"}})
                .status,
            404);
}

TEST_F(ExploreWebFixture, AxisPointsMustBeAnIntegerInRange) {
  const auto submit = [this](const std::string& points) {
    return post("/design/explore",
                {{"user", "dl"},
                 {"name", "D"},
                 {"mode", "pareto"},
                 {"axes", "vdd=1.2:1.8:" + points + ";f=1e6:2e6:2"},
                 {"objectives", "power,max:f"}})
        .status;
  };
  EXPECT_EQ(submit("3"), 200);
  // Out of range, fractional, and the non-finite or huge values stod
  // accepts: each must answer 400 before any cast to int.
  for (const char* bad : {"0", "257", "2.5", "nan", "inf", "-inf", "1e300"}) {
    EXPECT_EQ(submit(bad), 400) << bad;
  }
  app->jobs().wait_idle();
}

TEST_F(ExploreWebFixture, ParetoAndInverseJobs) {
  const std::string pareto = run_job({{"user", "dl"},
                                      {"name", "D"},
                                      {"mode", "pareto"},
                                      {"axes", "vdd=1.2:1.8:3;f=1e6:2e6:2"},
                                      {"objectives", "power,max:f"}});
  EXPECT_NE(pareto.find("status: done"), std::string::npos) << pareto;
  EXPECT_NE(table(pareto).find("pareto frontier"), std::string::npos)
      << table(pareto);
  const Response pjson = get("/job?id=" + job_id(pareto) + "&format=json");
  EXPECT_NE(pjson.body.find("\"result\":["), std::string::npos)
      << pjson.body;

  const std::string inverse = run_job({{"user", "dl"},
                                       {"name", "D"},
                                       {"mode", "inverse"},
                                       {"param", "vdd"},
                                       {"lo", "1.2"},
                                       {"hi", "1.8"},
                                       {"metric", "power"},
                                       {"limit", "1"}});
  EXPECT_NE(inverse.find("status: done"), std::string::npos) << inverse;
  EXPECT_NE(table(inverse).find("inverse query"), std::string::npos)
      << table(inverse);
  EXPECT_NE(table(inverse).find("vdd\t1.8"), std::string::npos)
      << table(inverse);
}

TEST_F(ExploreWebFixture, FitPersistsAcrossReopenAndServesPredictions) {
  const std::string body = run_job({{"user", "dl"},
                                    {"name", "D"},
                                    {"mode", "fit"},
                                    {"model", "d_power"},
                                    {"params", "vdd=uniform(1.2,1.8)"},
                                    {"samples", "64"},
                                    {"basis", "poly2"}});
  EXPECT_NE(body.find("status: done"), std::string::npos) << body;
  EXPECT_NE(table(body).find("r2"), std::string::npos) << table(body);

  // The fitted model serves over HTTP like any library model, with its
  // diagnostics in the documentation line.
  const Response doc = get("/doc?user=dl&name=d_power");
  EXPECT_EQ(doc.status, 200);
  EXPECT_NE(doc.body.find("[surrogate]"), std::string::npos) << doc.body;
  EXPECT_NE(doc.body.find("r2="), std::string::npos) << doc.body;
  const Response predict = get("/model?user=dl&name=d_power&p_vdd=1.5");
  EXPECT_EQ(predict.status, 200);
  EXPECT_NE(predict.body.find("Result"), std::string::npos) << predict.body;

  const Response h1 = get("/healthz");
  EXPECT_NE(h1.body.find("surrogate_fits_total: 1"), std::string::npos)
      << h1.body;
  EXPECT_NE(h1.body.find("surrogate_hits_total:"), std::string::npos)
      << h1.body;

  // Journal-backed persistence: a fresh app over the same store still
  // has the surrogate.
  reopen();
  const Response again = get("/doc?user=dl&name=d_power");
  EXPECT_EQ(again.status, 200);
  EXPECT_NE(again.body.find("[surrogate]"), std::string::npos)
      << again.body;
  const Response api = get("/api/model?name=d_power");
  EXPECT_EQ(api.status, 200);
}

}  // namespace
}  // namespace powerplay::explore
