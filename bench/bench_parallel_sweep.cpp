// bench_parallel_sweep — serial interpreter vs. compiled plan vs.
// scalar plan on the executor vs. the engine's lane-batched columnar
// sweep on the 8x8 vdd x pixel_rate grid of the VQ luminance chip
// (impl 2), plus the columnar path against the scalar plan on a dense
// 64x64 grid, plus the InfoPad (Fig 5) intermodel fixed point: a 64x64
// conv_eff x radio_w grid through play_points_columnar against the
// scalar plan.  The scalar baseline is bench-local: every point one
// compiled PlanInstance Play, fanned out over the same executor, no
// memo and no lane blocks.  Emits BENCH_engine.json (argv[1] overrides
// the output path) with the timings, speedups and spreads, and asserts
// every path is bit-identical to the serial interpreter loop (and the
// columnar paths bit-identical to the scalar plan).
//
// `--smoke [path]` runs only the dense and InfoPad sections with small
// rep counts for ctest: gated on columnar-vs-scalar bit-identity and a
// >= 3x batch-vs-scalar speedup on both, not wall clock.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "models/berkeley_library.hpp"
#include "sheet/batch.hpp"
#include "sheet/plan.hpp"
#include "sheet/sweep.hpp"
#include "studies/infopad.hpp"
#include "studies/vq.hpp"

#ifndef PP_BUILD_TYPE
#define PP_BUILD_TYPE "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;
using powerplay::sheet::PointColumns;

/// One row's timings across the repetitions: best-of is the reported
/// figure, the slowest rep its spread.
struct Timing {
  double best = 1e300;
  double worst = 0.0;

  template <typename Fn>
  void time(Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    const double dt =
        std::chrono::duration<double>(Clock::now() - t0).count();
    best = std::min(best, dt);
    worst = std::max(worst, dt);
  }
};

/// Every point of the xs x ys grid, y fastest (the columnar grid order).
std::vector<std::vector<double>> grid_points(const std::vector<double>& xs,
                                             const std::vector<double>& ys) {
  std::vector<std::vector<double>> out;
  out.reserve(xs.size() * ys.size());
  for (const double x : xs) {
    for (const double y : ys) out.push_back({x, y});
  }
  return out;
}

/// The scalar baseline: one compiled PlanInstance Play per point, in
/// chunks over the engine's executor (one instance per chunk), on the
/// engine's cached plan.  No Play cache, no lane blocks.
PointColumns scalar_points(powerplay::engine::EvalEngine& engine,
                           const powerplay::sheet::Design& design,
                           const std::vector<std::string>& params,
                           const std::vector<std::vector<double>>& points) {
  using namespace powerplay;
  const auto plan = engine.plan_for(design);
  std::vector<expr::SlotId> slots;
  for (const std::string& p : params) slots.push_back(*plan->global_slot(p));
  PointColumns out;
  out.resize(points.size());
  const std::size_t n = points.size();
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min(n, engine.executor().thread_count() * 2));
  engine::parallel_for(engine.executor(), chunks, [&](std::size_t c) {
    sheet::PlanInstance inst(plan);
    inst.bind_from(design);
    for (std::size_t i = c * n / chunks; i < (c + 1) * n / chunks; ++i) {
      for (std::size_t j = 0; j < slots.size(); ++j) {
        inst.bind(slots[j], points[i][j]);
      }
      out.set(i, inst.play());
    }
  });
  return out;
}

/// Every double of every column equal, bit for bit.
bool columns_identical(const PointColumns& a, const PointColumns& b) {
  return a.power_w == b.power_w && a.energy_j == b.energy_j &&
         a.area_m2 == b.area_m2 && a.delay_s == b.delay_s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace powerplay;
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  const std::string out_path =
      smoke ? (argc > 2 ? argv[2] : std::string("BENCH_engine_smoke.json"))
            : (argc > 1 ? argv[1] : std::string("BENCH_engine.json"));

  constexpr int kGrid = 8;
  constexpr int kDense = 64;
  const int kReps = smoke ? 2 : 5;
  // Size the pool to the machine: oversubscribing a small host charges
  // context switches to the parallel rows that no deployment would pay.
  const std::size_t kThreads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  const auto lib = models::berkeley_library();
  const sheet::Design design = studies::make_luminance_impl2(lib);
  const std::vector<std::string> axes{"vdd", "pixel_rate"};
  const std::vector<double> vdds = sheet::linspace(1.0, 3.0, kGrid);
  const std::vector<double> rates = sheet::linspace(1e6, 4e6, kGrid);

  std::printf("bench_parallel_sweep: %dx%d grid (vdd x pixel_rate), "
              "%zu engine threads, best of %d%s\n\n",
              kGrid, kGrid, kThreads, kReps, smoke ? " [smoke]" : "");

  // The four paths are measured round-robin inside each repetition, not
  // as four back-to-back phases: on a shared host the clock drifts over
  // the run, and a phase measured a second later than the baseline
  // would absorb (or dodge) that drift.  Interleaving lands any slow
  // spell on every row equally, and best-of-reps then discards it.
  engine::EngineOptions options;
  options.executor = {kThreads, 256};
  engine::EvalEngine engine(options);
  const std::vector<std::vector<double>> points = grid_points(vdds, rates);
  sheet::GridSweep serial_grid;
  sheet::GridSweep compiled_grid;
  compiled_grid.x_param = "vdd";
  compiled_grid.y_param = "pixel_rate";
  compiled_grid.xs = vdds;
  compiled_grid.ys = rates;
  PointColumns scalar_grid;
  sheet::ColumnarGrid batch_grid;
  Timing t_serial;
  Timing t_compiled;
  Timing t_scalar;
  Timing t_batch;
  bool identical = true;
  if (!smoke) {
    for (int rep = 0; rep < kReps; ++rep) {
      // Serial baseline: the reference interpreter, clone per sweep.
      t_serial.time([&] {
        serial_grid =
            sheet::sweep_grid(design, "vdd", vdds, "pixel_rate", rates);
      });

      // Compiled plan, serial: one PlanInstance, the swept slots re-bound
      // per point — the interpreter-vs-bytecode comparison with no
      // threading in the way.
      t_compiled.time([&] {
        const auto plan = sheet::EvalPlan::compile(design);
        const auto vdd_slot = *plan->global_slot("vdd");
        const auto rate_slot = *plan->global_slot("pixel_rate");
        sheet::PlanInstance inst(plan);
        inst.bind_from(design);
        compiled_grid.results.assign(
            vdds.size(), std::vector<sheet::PlayResult>(rates.size()));
        for (std::size_t i = 0; i < vdds.size(); ++i) {
          inst.bind(vdd_slot, vdds[i]);
          for (std::size_t j = 0; j < rates.size(); ++j) {
            inst.bind(rate_slot, rates[j]);
            compiled_grid.results[i][j] = inst.play();
          }
        }
      });

      // Scalar plan on the executor: one compiled Play per point, fanned
      // out over the thread pool, plan warm.
      t_scalar.time(
          [&] { scalar_grid = scalar_points(engine, design, axes, points); });

      // The engine's columnar sweep: lane blocks over the same pool.
      t_batch.time([&] {
        batch_grid =
            engine.sweep_grid_columnar(design, "vdd", vdds, "pixel_rate", rates);
      });
    }
    const PointColumns serial_cols = sheet::to_columns(serial_grid).cols;
    identical =
        columns_identical(serial_cols, sheet::to_columns(compiled_grid).cols) &&
        columns_identical(serial_cols, scalar_grid) &&
        columns_identical(serial_cols, batch_grid.cols);
  }

  // Dense 64x64 section: the columnar path against the scalar plan on
  // the executor, plan warm for both, interleaved per rep like the 8x8
  // section.  The comparison isolates what lane blocks remove: the
  // per-point Play and its PlayResult deep copy.
  const std::vector<double> dvdds = sheet::linspace(1.0, 3.0, kDense);
  const std::vector<double> drates = sheet::linspace(1e6, 4e6, kDense);
  const std::vector<std::vector<double>> dpoints = grid_points(dvdds, drates);
  engine::EvalEngine dense_engine(options);
  PointColumns dense_scalar;
  sheet::ColumnarGrid batch_cold_grid;
  sheet::ColumnarGrid batch_warm_grid;
  Timing t_dense_scalar;
  Timing t_batch_cold;
  Timing t_batch_warm;
  const int kDenseReps = smoke ? 2 : kReps;
  (void)dense_engine.plan_for(design);
  for (int rep = 0; rep < kDenseReps; ++rep) {
    t_dense_scalar.time([&] {
      dense_scalar = scalar_points(dense_engine, design, axes, dpoints);
    });

    // Batch, cold plan: the plan cache is cleared so the rep pays one
    // plan compile before its lane blocks — the first-request cost of
    // the columnar path.
    dense_engine.plans().clear();
    t_batch_cold.time([&] {
      batch_cold_grid = dense_engine.sweep_grid_columnar(
          design, "vdd", dvdds, "pixel_rate", drates);
    });

    // Batch, warm plan: the steady-state columnar sweep.
    t_batch_warm.time([&] {
      batch_warm_grid = dense_engine.sweep_grid_columnar(
          design, "vdd", dvdds, "pixel_rate", drates);
    });
  }
  const bool batch_identical =
      columns_identical(batch_cold_grid.cols, dense_scalar) &&
      columns_identical(batch_warm_grid.cols, dense_scalar);
  const double speedup_batch_vs_scalar =
      t_dense_scalar.best / t_batch_warm.best;

  // InfoPad section: the Fig 5 terminal with radio, LCD and converter
  // efficiency lifted into globals, its EQ 19 converter row settling
  // by fixed point.  Scalar rows: the scalar plan on the executor, every
  // point a real compiled Play — what a Monte Carlo job over fresh
  // samples would pay without lane blocks.  Batch rows:
  // play_points_columnar, the fixed point run lane-masked inside each
  // 64-lane block.  Interleaved per rep.
  const sheet::Design infopad = studies::make_infopad_what_if(lib);
  const std::vector<std::string> ip_params{"conv_eff", "radio_w"};
  const std::vector<std::vector<double>> ip_points =
      grid_points(sheet::linspace(0.7, 0.95, kDense),
                  sheet::linspace(0.2, 0.6, kDense));
  engine::EvalEngine ip_engine(options);
  PointColumns ip_scalar;
  PointColumns ip_batch;
  Timing ip_scalar_t;
  Timing ip_batch_t;
  (void)ip_engine.plan_for(infopad);
  for (int rep = 0; rep < kDenseReps; ++rep) {
    ip_scalar_t.time([&] {
      ip_scalar = scalar_points(ip_engine, infopad, ip_params, ip_points);
    });
    ip_batch_t.time([&] {
      ip_batch = ip_engine.play_points_columnar(infopad, ip_params, ip_points);
    });
  }
  const bool ip_identical = columns_identical(ip_batch, ip_scalar);
  const engine::BatchCounters ip_counters = ip_engine.batch_counters();
  const double speedup_infopad = ip_scalar_t.best / ip_batch_t.best;

  const double speedup_compiled = t_serial.best / t_compiled.best;
  const double speedup_scalar = t_serial.best / t_scalar.best;
  const double speedup_batch = t_serial.best / t_batch.best;

  if (!smoke) {
    std::printf("serial interpreter: %9.3f ms\n", t_serial.best * 1e3);
    std::printf("compiled (serial) : %9.3f ms   speedup %.2fx\n",
                t_compiled.best * 1e3, speedup_compiled);
    std::printf("scalar (parallel) : %9.3f ms   speedup %.2fx\n",
                t_scalar.best * 1e3, speedup_scalar);
    std::printf("batch (columnar)  : %9.3f ms   speedup %.2fx\n",
                t_batch.best * 1e3, speedup_batch);
    std::printf("bit-identical     : %s\n\n", identical ? "yes" : "NO");
  }
  std::printf("dense %dx%d grid:\n", kDense, kDense);
  std::printf("scalar (parallel) : %9.3f ms   (worst %.3f)\n",
              t_dense_scalar.best * 1e3, t_dense_scalar.worst * 1e3);
  std::printf("batch (cold plan) : %9.3f ms   vs scalar %.2fx\n",
              t_batch_cold.best * 1e3, t_dense_scalar.best / t_batch_cold.best);
  std::printf("batch (warm plan) : %9.3f ms   vs scalar %.2fx\n",
              t_batch_warm.best * 1e3, speedup_batch_vs_scalar);
  std::printf("batch identical   : %s\n\n", batch_identical ? "yes" : "NO");
  std::printf("infopad %dx%d grid (conv_eff x radio_w):\n", kDense, kDense);
  std::printf("scalar (parallel) : %9.3f ms   (worst %.3f)\n",
              ip_scalar_t.best * 1e3, ip_scalar_t.worst * 1e3);
  std::printf("batch fixed point : %9.3f ms   (worst %.3f)   speedup %.2fx\n",
              ip_batch_t.best * 1e3, ip_batch_t.worst * 1e3,
              speedup_infopad);
  std::printf("batch fallbacks   : %llu of %llu points\n",
              static_cast<unsigned long long>(ip_counters.scalar_fallback_points),
              static_cast<unsigned long long>(ip_counters.points));
  std::printf("infopad identical : %s\n", ip_identical ? "yes" : "NO");

  std::ostringstream json;
  json << "{\n"
       << "  \"benchmark\": \"parallel_sweep\",\n"
       << "  \"design\": \"" << design.name() << "\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"build_type\": \"" << PP_BUILD_TYPE << "\",\n"
       << "  \"engine_threads\": " << kThreads << ",\n"
       << "  \"repetitions\": " << kReps << ",\n"
       << "  \"timing\": \"best of repetitions; *_worst_ms is the slowest "
          "rep (spread)\",\n"
       << "  \"scalar_baseline\": \"one compiled PlanInstance Play per "
          "point over the engine executor, plan warm, no memo\",\n";
  if (!smoke) {
    json << "  \"grid\": [" << kGrid << ", " << kGrid << "],\n"
         << "  \"axes\": [\"vdd\", \"pixel_rate\"],\n"
         << "  \"serial_ms\": " << t_serial.best * 1e3 << ",\n"
         << "  \"compiled_serial_ms\": " << t_compiled.best * 1e3 << ",\n"
         << "  \"scalar_parallel_ms\": " << t_scalar.best * 1e3 << ",\n"
         << "  \"batch_ms\": " << t_batch.best * 1e3 << ",\n"
         << "  \"speedup_compiled\": " << speedup_compiled << ",\n"
         << "  \"speedup_scalar_parallel\": " << speedup_scalar << ",\n"
         << "  \"speedup_batch\": " << speedup_batch << ",\n"
         << "  \"bit_identical\": " << (identical ? "true" : "false")
         << ",\n";
  }
  json << "  \"dense_grid\": [" << kDense << ", " << kDense << "],\n"
       << "  \"dense_scalar_ms\": " << t_dense_scalar.best * 1e3 << ",\n"
       << "  \"dense_scalar_worst_ms\": " << t_dense_scalar.worst * 1e3
       << ",\n"
       << "  \"batch_cold_ms\": " << t_batch_cold.best * 1e3 << ",\n"
       << "  \"batch_warm_ms\": " << t_batch_warm.best * 1e3 << ",\n"
       << "  \"batch_warm_worst_ms\": " << t_batch_warm.worst * 1e3 << ",\n"
       << "  \"batch_lane_width\": "
       << sheet::BatchPlanInstance::kLaneWidth << ",\n"
       << "  \"speedup_batch_vs_scalar\": " << speedup_batch_vs_scalar
       << ",\n"
       << "  \"batch_bit_identical\": "
       << (batch_identical ? "true" : "false") << ",\n"
       << "  \"infopad_design\": \"" << infopad.name() << "\",\n"
       << "  \"infopad_grid\": [" << kDense << ", " << kDense << "],\n"
       << "  \"infopad_axes\": [\"conv_eff\", \"radio_w\"],\n"
       << "  \"infopad_repetitions\": " << kDenseReps << ",\n"
       << "  \"infopad_scalar_ms\": " << ip_scalar_t.best * 1e3 << ",\n"
       << "  \"infopad_scalar_worst_ms\": " << ip_scalar_t.worst * 1e3
       << ",\n"
       << "  \"infopad_batch_ms\": " << ip_batch_t.best * 1e3 << ",\n"
       << "  \"infopad_batch_worst_ms\": " << ip_batch_t.worst * 1e3
       << ",\n"
       << "  \"infopad_batch_fallback_points\": "
       << ip_counters.scalar_fallback_points << ",\n"
       << "  \"speedup_infopad_batch\": " << speedup_infopad << ",\n"
       << "  \"infopad_bit_identical\": "
       << (ip_identical ? "true" : "false") << "\n"
       << "}\n";

  std::ofstream out(out_path);
  out << json.str();
  std::printf("\nwrote %s\n", out_path.c_str());

  bool ok = identical && batch_identical && ip_identical;
  if (smoke && speedup_batch_vs_scalar < 3.0) {
    std::printf("SMOKE FAIL: batch %.2fx vs scalar plan (< 3x)\n",
                speedup_batch_vs_scalar);
    ok = false;
  }
  if (smoke && speedup_infopad < 3.0) {
    std::printf("SMOKE FAIL: infopad batch %.2fx vs scalar plan (< 3x)\n",
                speedup_infopad);
    ok = false;
  }
  return ok ? 0 : 1;
}
