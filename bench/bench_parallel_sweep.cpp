// bench_parallel_sweep — serial interpreter vs. compiled-plan vs.
// engine-backed sweep on the 8x8 vdd x pixel_rate grid of the VQ
// luminance chip (impl 2), plus the memoized-Play warm path, plus the
// lane-batched columnar path against the warm scalar engine on a dense
// 64x64 grid, plus the InfoPad (Fig 5) intermodel fixed point: a 64x64
// conv_eff x radio_w grid through play_points_columnar against scalar
// play_points on a warm plan.  Emits BENCH_engine.json (argv[1]
// overrides the output path) with the timings, speedups, spreads and
// cache hit-rate, and asserts every path is bit-identical to the serial
// interpreter loop (and the columnar paths bit-identical to the scalar
// engine).
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

bool bit_identical(const powerplay::sheet::GridSweep& a,
                   const powerplay::sheet::GridSweep& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    if (a.results[i].size() != b.results[i].size()) return false;
    for (std::size_t j = 0; j < a.results[i].size(); ++j) {
      if (a.results[i][j].total.total_power().si() !=
              b.results[i][j].total.total_power().si() ||
          a.results[i][j].total.energy_per_op.si() !=
              b.results[i][j].total.energy_per_op.si()) {
        return false;
      }
    }
  }
  return true;
}

/// Columnar-vs-scalar differential: every power/energy double of the
/// batched grid must equal the scalar engine's bit for bit.
bool columns_identical(const powerplay::sheet::ColumnarGrid& cols,
                       const powerplay::sheet::GridSweep& grid) {
  if (cols.cols.size() != grid.xs.size() * grid.ys.size()) return false;
  for (std::size_t i = 0; i < grid.xs.size(); ++i) {
    for (std::size_t j = 0; j < grid.ys.size(); ++j) {
      const std::size_t k = i * grid.ys.size() + j;
      if (cols.cols.power_w[k] !=
              grid.results[i][j].total.total_power().si() ||
          cols.cols.energy_j[k] !=
              grid.results[i][j].total.energy_per_op.si()) {
        return false;
      }
    }
  }
  return true;
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
  // context switches to the engine rows that no deployment would pay.
  const std::size_t kThreads =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  const auto lib = models::berkeley_library();
  const sheet::Design design = studies::make_luminance_impl2(lib);
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
  engine::EvalEngine engine({{kThreads, 256}, 4096});
  sheet::GridSweep serial_grid;
  sheet::GridSweep compiled_grid;
  compiled_grid.x_param = "vdd";
  compiled_grid.y_param = "pixel_rate";
  compiled_grid.xs = vdds;
  compiled_grid.ys = rates;
  sheet::GridSweep cold_grid;
  sheet::GridSweep warm_grid;
  Timing t_serial;
  Timing t_compiled;
  Timing t_cold;
  Timing t_warm;
  bool identical = true;
  if (!smoke) {
    for (int rep = 0; rep < kReps; ++rep) {
      // Serial baseline: the reference interpreter, clone per point.
      t_serial.time([&] {
        serial_grid =
            sheet::sweep_grid(design, "vdd", vdds, "pixel_rate", rates);
      });

      // Compiled plan, serial: one PlanInstance, the swept slots re-bound
      // per point — the interpreter-vs-bytecode comparison with no
      // threading or memoization in the way.
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

      // Engine, cold cache: a standing engine (the web app keeps one for
      // the process lifetime) with Play and plan caches cleared before
      // the rep, so every point is a real compiled Play fanned out over
      // the executor and the plan is recompiled — the first-request
      // cost, without charging thread spawn to each sweep.
      engine.cache().clear();
      engine.plans().clear();
      t_cold.time([&] {
        cold_grid =
            engine.sweep_grid(design, "vdd", vdds, "pixel_rate", rates);
      });

      // Engine, warm cache: the same sweep again — the cold rep above
      // filled the cache, so every point is a derived key + cache hit.
      t_warm.time([&] {
        warm_grid =
            engine.sweep_grid(design, "vdd", vdds, "pixel_rate", rates);
      });
    }
    identical = bit_identical(serial_grid, compiled_grid) &&
                bit_identical(serial_grid, cold_grid) &&
                bit_identical(serial_grid, warm_grid);
  }

  // Dense 64x64 section: the lane-batched columnar path against the
  // warm scalar engine.  A separate engine whose Play cache holds the
  // whole dense grid (8192 > 64*64) so "warm" really is all hits, and
  // the comparison isolates what the batch path removes: per-point
  // cache probes under the global cache mutex and PlayResult deep
  // copies.  Interleaved per rep like the 8x8 section.
  const std::vector<double> dvdds = sheet::linspace(1.0, 3.0, kDense);
  const std::vector<double> drates = sheet::linspace(1e6, 4e6, kDense);
  engine::EvalEngine dense_engine({{kThreads, 256}, 8192});
  sheet::GridSweep dense_grid;
  sheet::ColumnarGrid batch_cold_grid;
  sheet::ColumnarGrid batch_warm_grid;
  Timing t_dense_warm;
  Timing t_batch_cold;
  Timing t_batch_warm;
  const int kDenseReps = smoke ? 2 : kReps;
  // Fill the Play cache (and compile the plan) before timing.
  dense_grid =
      dense_engine.sweep_grid(design, "vdd", dvdds, "pixel_rate", drates);
  for (int rep = 0; rep < kDenseReps; ++rep) {
    t_dense_warm.time([&] {
      dense_grid =
          dense_engine.sweep_grid(design, "vdd", dvdds, "pixel_rate", drates);
    });

    // Batch, cold plan: the plan cache is cleared so the rep pays one
    // plan compile before its lane blocks — the first-request cost of
    // the columnar path (it never touches the Play cache at all).
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
  const bool batch_identical = columns_identical(batch_cold_grid, dense_grid) &&
                               columns_identical(batch_warm_grid, dense_grid);
  const double speedup_batch_vs_warm = t_dense_warm.best / t_batch_warm.best;

  // InfoPad section: the Fig 5 terminal with radio, LCD and converter
  // efficiency lifted into globals, its EQ 19 converter row settling
  // by fixed point.  Scalar rows: play_points with the plan warm and
  // the Play cache cleared before each rep, so every point is a real
  // compiled scalar Play — what a Monte Carlo job over fresh samples
  // pays.  Batch rows: play_points_columnar, the fixed point run
  // lane-masked inside each 64-lane block.  Interleaved per rep.
  const sheet::Design infopad = studies::make_infopad_what_if(lib);
  const std::vector<std::string> ip_params{"conv_eff", "radio_w"};
  std::vector<std::vector<double>> ip_points;
  for (const double eff : sheet::linspace(0.7, 0.95, kDense)) {
    for (const double radio : sheet::linspace(0.2, 0.6, kDense)) {
      ip_points.push_back({eff, radio});
    }
  }
  engine::EvalEngine ip_engine({{kThreads, 256}, 8192});
  std::vector<sheet::PlayResult> ip_scalar;
  sheet::PointColumns ip_batch;
  Timing ip_scalar_t;
  Timing ip_batch_t;
  (void)ip_engine.plan_for(infopad);
  for (int rep = 0; rep < kDenseReps; ++rep) {
    ip_engine.cache().clear();
    ip_scalar_t.time(
        [&] { ip_scalar = ip_engine.play_points(infopad, ip_params, ip_points); });
    ip_batch_t.time([&] {
      ip_batch = ip_engine.play_points_columnar(infopad, ip_params, ip_points);
    });
  }
  bool ip_identical = ip_batch.size() == ip_scalar.size();
  for (std::size_t i = 0; ip_identical && i < ip_scalar.size(); ++i) {
    const sheet::PlayResult& r = ip_scalar[i];
    ip_identical = ip_batch.power_w[i] == r.total.total_power().si() &&
                   ip_batch.energy_j[i] == r.total.energy_per_op.si() &&
                   ip_batch.area_m2[i] == r.total.area.si() &&
                   ip_batch.delay_s[i] == r.total.delay.si();
  }
  const engine::BatchCounters ip_counters = ip_engine.batch_counters();
  const double speedup_infopad = ip_scalar_t.best / ip_batch_t.best;

  const engine::CacheStats cache = engine.cache().stats();
  const double hit_rate =
      cache.hits + cache.misses == 0
          ? 0.0
          : static_cast<double>(cache.hits) /
                static_cast<double>(cache.hits + cache.misses);

  const double speedup_compiled = t_serial.best / t_compiled.best;
  const double speedup_cold = t_serial.best / t_cold.best;
  const double speedup_warm = t_serial.best / t_warm.best;

  if (!smoke) {
    std::printf("serial interpreter: %9.3f ms\n", t_serial.best * 1e3);
    std::printf("compiled (serial) : %9.3f ms   speedup %.2fx\n",
                t_compiled.best * 1e3, speedup_compiled);
    std::printf("engine (cold)     : %9.3f ms   speedup %.2fx\n",
                t_cold.best * 1e3, speedup_cold);
    std::printf("engine (warm)     : %9.3f ms   speedup %.2fx\n",
                t_warm.best * 1e3, speedup_warm);
    std::printf("cache             : %zu hits / %zu misses "
                "(hit rate %.1f%%), %zu/%zu entries\n",
                cache.hits, cache.misses, 100.0 * hit_rate, cache.size,
                cache.capacity);
    std::printf("bit-identical     : %s\n\n", identical ? "yes" : "NO");
  }
  std::printf("dense %dx%d grid:\n", kDense, kDense);
  std::printf("engine (warm)     : %9.3f ms\n", t_dense_warm.best * 1e3);
  std::printf("batch (cold plan) : %9.3f ms   vs warm %.2fx\n",
              t_batch_cold.best * 1e3, t_dense_warm.best / t_batch_cold.best);
  std::printf("batch (warm plan) : %9.3f ms   vs warm %.2fx\n",
              t_batch_warm.best * 1e3, speedup_batch_vs_warm);
  std::printf("batch identical   : %s\n\n", batch_identical ? "yes" : "NO");
  std::printf("infopad %dx%d grid (conv_eff x radio_w):\n", kDense, kDense);
  std::printf("scalar plan       : %9.3f ms   (worst %.3f)\n",
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
          "rep (spread)\",\n";
  if (!smoke) {
    json << "  \"grid\": [" << kGrid << ", " << kGrid << "],\n"
         << "  \"axes\": [\"vdd\", \"pixel_rate\"],\n"
         << "  \"serial_ms\": " << t_serial.best * 1e3 << ",\n"
         << "  \"compiled_serial_ms\": " << t_compiled.best * 1e3 << ",\n"
         << "  \"engine_cold_ms\": " << t_cold.best * 1e3 << ",\n"
         << "  \"engine_warm_ms\": " << t_warm.best * 1e3 << ",\n"
         << "  \"speedup_compiled\": " << speedup_compiled << ",\n"
         << "  \"speedup_cold\": " << speedup_cold << ",\n"
         << "  \"speedup_warm\": " << speedup_warm << ",\n"
         << "  \"cache_hits\": " << cache.hits << ",\n"
         << "  \"cache_misses\": " << cache.misses << ",\n"
         << "  \"cache_hit_rate\": " << hit_rate << ",\n"
         << "  \"bit_identical\": " << (identical ? "true" : "false")
         << ",\n";
  }
  json << "  \"dense_grid\": [" << kDense << ", " << kDense << "],\n"
       << "  \"dense_warm_ms\": " << t_dense_warm.best * 1e3 << ",\n"
       << "  \"batch_cold_ms\": " << t_batch_cold.best * 1e3 << ",\n"
       << "  \"batch_warm_ms\": " << t_batch_warm.best * 1e3 << ",\n"
       << "  \"batch_lane_width\": "
       << sheet::BatchPlanInstance::kLaneWidth << ",\n"
       << "  \"speedup_batch_vs_warm\": " << speedup_batch_vs_warm << ",\n"
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
  if (smoke && speedup_batch_vs_warm < 3.0) {
    std::printf("SMOKE FAIL: batch %.2fx vs warm scalar (< 3x)\n",
                speedup_batch_vs_warm);
    ok = false;
  }
  if (smoke && speedup_infopad < 3.0) {
    std::printf("SMOKE FAIL: infopad batch %.2fx vs scalar plan (< 3x)\n",
                speedup_infopad);
    ok = false;
  }
  return ok ? 0 : 1;
}
