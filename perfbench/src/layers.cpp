// layers.cpp — the per-layer half of the traced replay.
//
// Each layer is timed around calls into its module's public functions,
// on the same generated library and the same designs the workloads use;
// no span lives inside src/.  Timings are medians over repetitions, so
// one preempted call does not move them.
#include <atomic>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "engine/job.hpp"
#include "explore/mc.hpp"
#include "sheet/batch.hpp"
#include "sheet/plan.hpp"
#include "web/http.hpp"

namespace perfbench {

using namespace powerplay;
namespace fs = std::filesystem;

namespace {

/// Median wall time of `reps` calls of `fn`, in microseconds.
template <typename Fn>
double median_us(std::size_t reps, Fn&& fn) {
  std::vector<double> us;
  us.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    fn(i);
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(std::move(us));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The explore workload's jobs through an in-process JobManager and
/// EvalEngine sized as the site sizes them, two closed-loop submitters.
void replay_jobs(const std::map<std::string, sheet::Design>& designs,
                 std::uint64_t seed, std::size_t jobs_per_client,
                 LayerMetrics& m) {
  engine::EvalEngine engine;
  engine::JobManager jobs{engine::JobOptions{}};
  const engine::BatchCounters before = engine.batch_counters();
  const engine::CacheStats memo_before = engine.cache().stats();

  std::mutex mutex;
  std::vector<double> queue_ms, run_ms;
  double result_bytes = 0;
  std::atomic<std::size_t> depth_max{0};

  auto client = [&](std::size_t c) {
    OpStream ops(Workload::kExplore, seed, 100 + c);
    for (std::size_t k = 0; k < jobs_per_client; ++k) {
      const Op op = ops.next();
      const JobSpec spec = job_spec(op.kind, op.target);
      const sheet::Design& design = designs.at(spec.form.at("name"));
      auto started = std::make_shared<std::atomic<std::int64_t>>(0);
      auto finished = std::make_shared<std::atomic<std::int64_t>>(0);
      auto bytes = std::make_shared<std::atomic<std::size_t>>(0);
      const std::int64_t submitted = now_ns();
      const std::uint64_t id = jobs.submit(
          "explorer", "replay",
          [&, spec, started, finished, bytes](
              const engine::JobManager::Progress& progress) {
            started->store(now_ns());
            const JobOutput o = run_job_locally(
                spec, design, engine, [&](std::size_t done, std::size_t total) {
                  const std::size_t d = engine.executor().stats().queue_depth;
                  std::size_t seen = depth_max.load();
                  while (d > seen && !depth_max.compare_exchange_weak(seen, d)) {
                  }
                  progress(done, total);
                });
            bytes->store(o.table.size() + o.csv.size() + o.json.size());
            finished->store(now_ns());
            return engine::JobResult{o.table, o.csv, o.json};
          });
      while (true) {
        const auto snap = jobs.get(id);
        if (snap && snap->status != engine::JobStatus::kQueued &&
            snap->status != engine::JobStatus::kRunning) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      std::lock_guard lock(mutex);
      queue_ms.push_back(static_cast<double>(started->load() - submitted) * 1e-6);
      run_ms.push_back(static_cast<double>(finished->load() - started->load()) *
                       1e-6);
      result_bytes += static_cast<double>(bytes->load());
    }
  };
  std::thread a(client, 0);
  std::thread b(client, 1);
  a.join();
  b.join();

  const engine::BatchCounters after = engine.batch_counters();
  const engine::CacheStats memo_after = engine.cache().stats();
  const double points = static_cast<double>(after.points - before.points);
  const double blocks = static_cast<double>(after.blocks - before.blocks);
  // Only the Luminance grids run on the batch path; a block covers every
  // primitive row of the design once.
  std::size_t lum_rows = 0;
  for (const sheet::Row& r : designs.at(LibraryNames::kExploreLum).rows()) {
    if (!r.is_macro() && r.enabled) ++lum_rows;
  }
  m["engine.job.queue_ms.p50"] = median(queue_ms);
  m["engine.job.run_ms.p50"] = median(run_ms);
  m["engine.job.result_bytes"] =
      ratio(result_bytes, static_cast<double>(queue_ms.size()));
  m["engine.executor.queue_depth.max"] = static_cast<double>(depth_max.load());
  m["engine.batch.fallback_share"] = ratio(
      static_cast<double>(after.scalar_fallback_points -
                          before.scalar_fallback_points),
      points);
  m["engine.batch.lane_replays_per_block"] = ratio(
      static_cast<double>(after.lane_replays - before.lane_replays), blocks);
  m["engine.batch.term_capture_share"] = ratio(
      static_cast<double>(after.term_capture_rows - before.term_capture_rows),
      blocks * static_cast<double>(lum_rows));
  m["engine.memo.hit_ratio"] = ratio(
      static_cast<double>(memo_after.hits - memo_before.hits),
      static_cast<double>(memo_after.hits - memo_before.hits +
                          memo_after.misses - memo_before.misses));
}

}  // namespace

LayerMetrics replay_layers(const LayerInputs& in) {
  const std::size_t reps = in.quick ? 5 : 200;
  LayerMetrics m;

  // web: the request parser over the requests the workload sent.
  {
    std::vector<double> us;
    for (const std::string& wire : in.request_wires) {
      web::RequestParser parser;
      const std::int64_t t0 = now_ns();
      if (parser.feed(wire.data(), wire.size()) !=
          web::RequestParser::State::kReady) {
        throw std::runtime_error("replay: a sent request does not parse");
      }
      const web::Request r = parser.take();
      us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      if (r.target.empty()) throw std::runtime_error("replay: empty target");
    }
    m["web.parse_us"] = median(us);
  }

  // library: open (with the journal tail's recovery) on fresh copies.
  const auto reg = make_registry();
  std::vector<double> open_ms;
  std::unique_ptr<library::LibraryStore> store;
  for (int k = 0; k < 3; ++k) {
    const fs::path copy = in.scratch / ("open" + std::to_string(k));
    copy_tree(in.base, copy);
    const std::int64_t t0 = now_ns();
    store = std::make_unique<library::LibraryStore>(copy);
    open_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  m["library.open_ms"] = median(open_ms);

  const struct {
    const char* tag;
    const char* design;
  } kDesigns[] = {{"lum2", LibraryNames::kPlayLum},
                  {"infopad", LibraryNames::kPlayInfoPad}};
  std::map<std::string, sheet::Design> loaded;
  for (const auto& d : kDesigns) {
    m[std::string("library.load_design_us.") + d.tag] = median_us(
        reps, [&](std::size_t) { (void)store->load_design(d.design, *reg); });
    loaded.emplace(d.tag, *store->load_design(d.design, *reg));
  }
  m["library.list_designs_us"] =
      median_us(reps, [&](std::size_t) { (void)store->list_designs(); });

  // Saves: each one a real edit, as /design/setrow makes it.
  for (const auto& d : kDesigns) {
    sheet::Design copy = loaded.at(d.tag);
    const std::string tag = d.tag;
    sheet::Row& row = tag == "lum2" ? *copy.find_row("Hold Register")
                                    : *copy.find_row("Support Electronics");
    const char* param = tag == "lum2" ? "bits" : "p_typical";
    const library::DurabilityStats before = store->durability();
    const std::size_t saves = in.quick ? 5 : 100;
    m["library.save_design_us." + tag] = median_us(saves, [&](std::size_t i) {
      row.params.set(param, tag == "lum2" ? 8.0 + static_cast<double>(i % 40)
                                          : 0.5 + 0.001 * static_cast<double>(i));
      store->save_design(copy);
    });
    if (tag == "infopad") {
      const library::DurabilityStats after = store->durability();
      m["library.records_per_save"] =
          ratio(static_cast<double>(after.journal_appends - before.journal_appends),
                static_cast<double>(saves));
      m["library.snapshot_writes_per_save"] =
          ratio(static_cast<double>(after.snapshot_writes - before.snapshot_writes),
                static_cast<double>(saves));
    }
  }

  // sheet: the interpreter, the compiled plan and the lane batch.
  for (const auto& [tag, design] : loaded) {
    m["sheet.play_us." + tag] =
        median_us(reps, [&](std::size_t) { (void)design.play(); });
    m["sheet.plan_compile_us." + tag] = median_us(
        reps, [&](std::size_t) { (void)sheet::EvalPlan::compile(design); });
    sheet::PlanInstance inst(sheet::EvalPlan::compile(design));
    m["sheet.plan_play_us." + tag] =
        median_us(reps, [&](std::size_t) { (void)inst.play(); });
  }
  {
    const sheet::Design& lum = loaded.at("lum2");
    const auto plan = sheet::EvalPlan::compile(lum);
    sheet::BatchPlanInstance batch(plan);
    batch.bind_from(lum);
    const std::vector<expr::SlotId> slots = {*plan->global_slot("vdd"),
                                             *plan->global_slot("pixel_rate")};
    const std::size_t w = sheet::BatchPlanInstance::kLaneWidth;
    std::vector<std::vector<double>> lanes(2, std::vector<double>(w));
    for (std::size_t l = 0; l < w; ++l) {
      lanes[0][l] = 1.0 + 0.03 * static_cast<double>(l);
      lanes[1][l] = 1e6 + 4e4 * static_cast<double>(l);
    }
    sheet::PointColumns cols;
    cols.resize(w);
    m["sheet.batch_block_us.lum2"] = median_us(
        reps, [&](std::size_t) { batch.play_block(slots, lanes, w, cols, 0); });
  }

  // engine: memoized Play on the InfoPad sheet, cold (memo miss, plan
  // cached) and warm (memo hit).
  std::map<std::string, sheet::Design> explore_designs;
  for (const char* name :
       {LibraryNames::kExploreLum, LibraryNames::kExploreInfoPad}) {
    explore_designs.emplace(name, *store->load_design(name, *reg));
  }
  {
    engine::EvalEngine engine;
    sheet::Design d = loaded.at("infopad");
    (void)engine.play(d);  // compile the plan once
    m["engine.play_us.cold"] = median_us(reps, [&](std::size_t i) {
      d.globals().set("vdd", 5.0 + 1e-6 * static_cast<double>(i + 1));
      (void)engine.play(d);
    });
    m["engine.play_us.warm"] =
        median_us(reps, [&](std::size_t) { (void)engine.play(d); });

    // sheet: rendering one 64x64 grid job's three payloads.
    const sheet::Design& lum = explore_designs.at(LibraryNames::kExploreLum);
    const auto xs = sheet::linspace(1.0, 3.3, 64);
    const auto ys = sheet::linspace(1e6, 4e6, 64);
    const sheet::ColumnarGrid g =
        engine.sweep_grid_columnar(lum, "vdd", xs, "pixel_rate", ys);
    m["sheet.grid_render_us"] =
        median_us(in.quick ? 2 : 20, [&](std::size_t) {
          (void)sheet::grid_table(g);
          (void)sheet::grid_csv(g);
          (void)sheet::grid_json(g);
        });

    // explore: the Monte Carlo entry point called directly.
    const JobSpec mc = job_spec(OpKind::kMonteCarlo, 0);
    explore::McSpec spec;
    spec.params = explore::parse_dist_params(mc.form.at("params"));
    spec.samples = 1000;
    const sheet::Design& ipd = explore_designs.at(LibraryNames::kExploreInfoPad);
    const double us = median_us(in.quick ? 1 : 7, [&](std::size_t i) {
      spec.seed = 1000 + i;
      (void)explore::run_monte_carlo(engine, ipd, spec);
    });
    m["explore.mc_points_per_s.infopad"] = ratio(1000.0, us * 1e-6);
  }

  replay_jobs(explore_designs, in.seed, in.quick ? 2 : 30, m);
  store.reset();
  fs::remove_all(in.scratch);
  return m;
}

}  // namespace perfbench
