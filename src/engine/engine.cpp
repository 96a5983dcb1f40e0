#include "engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>

namespace powerplay::engine {

namespace {

// The plan interns every root global and every root-row local binding
// (EvalPlan::compile), and stored designs have no parent scope, so a
// name that passed sheet::require_global(s) always has a slot.
expr::SlotId slot_of(const std::optional<expr::SlotId>& slot,
                     const std::string& name) {
  if (!slot) {
    throw std::logic_error("EvalEngine: no plan slot for '" + name + "'");
  }
  return *slot;
}

}  // namespace

EvalEngine::EvalEngine(EngineOptions options)
    : executor_(options.executor),
      cache_(options.cache_capacity),
      plans_(options.plan_cache_capacity) {}

std::shared_ptr<const sheet::EvalPlan> EvalEngine::plan_for(
    const sheet::Design& design) {
  const std::uint64_t key = structure_fingerprint(design);
  if (auto cached = plans_.find(key)) return cached;
  auto fresh = sheet::EvalPlan::compile(design);
  plans_.insert(key, fresh);
  return fresh;
}

sheet::PlayResult EvalEngine::play_compiled(const sheet::Design& design) {
  sheet::PlanInstance inst(plan_for(design));
  inst.bind_from(design);
  return inst.play();
}

std::shared_ptr<const sheet::PlayResult> EvalEngine::play(
    const sheet::Design& design) {
  const std::uint64_t key = fingerprint(design);
  if (auto cached = cache_.find(key)) return cached;
  auto fresh =
      std::make_shared<const sheet::PlayResult>(play_compiled(design));
  cache_.insert(key, fresh);
  return fresh;
}

std::size_t EvalEngine::chunk_count(std::size_t blocks) const {
  // Enough chunks to keep every worker busy with some slack for uneven
  // block costs, few enough that one BatchPlanInstance amortizes over
  // many blocks.  One worker gets one chunk: no load to balance, and a
  // single instance serves the whole sweep.
  if (executor_.thread_count() <= 1) return 1;
  const std::size_t target = executor_.thread_count() * 2;
  return std::max<std::size_t>(1, std::min(blocks, target));
}

template <typename FillLanes>
void EvalEngine::run_columnar(std::shared_ptr<const sheet::EvalPlan> plan,
                              const sheet::Design& design,
                              const std::vector<expr::SlotId>& slots,
                              std::size_t total, sheet::PointColumns& out,
                              const sheet::SweepProgress& progress,
                              FillLanes&& fill_lanes) {
  constexpr std::size_t kW = sheet::BatchPlanInstance::kLaneWidth;
  out.resize(total);
  if (total == 0) return;
  const std::size_t blocks = (total + kW - 1) / kW;
  std::atomic<std::size_t> done{0};
  const std::size_t chunks = chunk_count(blocks);
  parallel_for(executor_, chunks, [&](std::size_t c) {
    sheet::BatchPlanInstance inst(plan);
    inst.bind_from(design);
    std::vector<std::vector<double>> lanes(slots.size(),
                                           std::vector<double>(kW, 0.0));
    for (std::size_t b = c * blocks / chunks; b < (c + 1) * blocks / chunks;
         ++b) {
      const std::size_t base = b * kW;
      const std::size_t width = std::min(kW, total - base);
      fill_lanes(base, width, lanes);
      inst.play_block(slots, lanes, width, out, base);
      // One progress call (and so one cancellation / deadline check in
      // job-driven sweeps) per lane block, not per point.
      if (progress) progress(done.fetch_add(width) + width, total);
    }
    const sheet::BatchStats s = inst.stats();
    batch_points_.fetch_add(s.points, std::memory_order_relaxed);
    batch_blocks_.fetch_add(s.blocks, std::memory_order_relaxed);
    batch_fallback_points_.fetch_add(s.scalar_fallback_points,
                                     std::memory_order_relaxed);
    batch_lane_replays_.fetch_add(s.lane_replays, std::memory_order_relaxed);
    batch_term_capture_rows_.fetch_add(s.term_capture_rows,
                                       std::memory_order_relaxed);
  });
}

sheet::ColumnarSweep EvalEngine::sweep_columnar(
    const sheet::Design& design, const std::string& row,
    const std::string& param, const std::vector<double>& values,
    const sheet::SweepProgress& progress) {
  const sheet::Row* r = nullptr;
  if (row.empty()) {
    sheet::require_global(design, param, "sweep_global");
  } else {
    r = design.find_row(row);
    if (r == nullptr) {
      throw expr::ExprError("sweep_row_param: no row named '" + row +
                            "' in design '" + design.name() + "'");
    }
    sheet::require_row_param(design, *r, param);
  }
  sheet::ColumnarSweep out;
  out.param = param;
  out.values = values;
  if (values.empty()) return out;

  // When the row does not bind the parameter (it rides on a model
  // default or a macro global), the serial path's Scope::set *creates*
  // the binding — a structural change.  One clone per sweep, not per
  // point, materializes it so the plan has a slot for it.
  std::optional<sheet::Design> materialized;
  if (r != nullptr && !r->params.has_local(param)) {
    materialized.emplace(design);
    materialized->find_row(row)->params.set(param, values[0]);
  }
  const sheet::Design& src = materialized ? *materialized : design;
  auto plan = plan_for(src);
  const expr::SlotId slot =
      r == nullptr ? slot_of(plan->global_slot(param), param)
                   : slot_of(plan->row_param_slot(row, param),
                             row + "." + param);
  run_columnar(std::move(plan), src, {slot}, values.size(), out.cols,
               progress,
               [&](std::size_t base, std::size_t width,
                   std::vector<std::vector<double>>& lanes) {
                 std::copy_n(values.begin() + static_cast<std::ptrdiff_t>(base),
                             width, lanes[0].begin());
               });
  return out;
}

sheet::ColumnarGrid EvalEngine::sweep_grid_columnar(
    const sheet::Design& design, const std::string& x_param,
    const std::vector<double>& xs, const std::string& y_param,
    const std::vector<double>& ys, const sheet::SweepProgress& progress) {
  if (x_param == y_param) {
    throw expr::ExprError("sweep_grid: the two parameters must differ");
  }
  sheet::require_globals(design, {x_param, y_param}, "sweep_grid");
  sheet::ColumnarGrid out;
  out.x_param = x_param;
  out.y_param = y_param;
  out.xs = xs;
  out.ys = ys;
  auto plan = plan_for(design);
  const std::vector<expr::SlotId> slots{
      slot_of(plan->global_slot(x_param), x_param),
      slot_of(plan->global_slot(y_param), y_param)};
  run_columnar(std::move(plan), design, slots, xs.size() * ys.size(),
               out.cols, progress,
               [&](std::size_t base, std::size_t width,
                   std::vector<std::vector<double>>& lanes) {
                 for (std::size_t l = 0; l < width; ++l) {
                   const std::size_t k = base + l;
                   lanes[0][l] = xs[k / ys.size()];
                   lanes[1][l] = ys[k % ys.size()];
                 }
               });
  return out;
}

sheet::PointColumns EvalEngine::play_points_columnar(
    const sheet::Design& design, const std::vector<std::string>& params,
    const std::vector<std::vector<double>>& points,
    const sheet::SweepProgress& progress) {
  sheet::require_globals(design, params, "play_points");
  for (const std::vector<double>& point : points) {
    if (point.size() != params.size()) {
      throw expr::ExprError(
          "play_points: every point must bind exactly " +
          std::to_string(params.size()) + " parameter value(s)");
    }
  }
  sheet::PointColumns out;
  if (points.empty()) return out;
  auto plan = plan_for(design);
  std::vector<expr::SlotId> slots;
  slots.reserve(params.size());
  for (const std::string& param : params) {
    slots.push_back(slot_of(plan->global_slot(param), param));
  }
  run_columnar(std::move(plan), design, slots, points.size(), out, progress,
               [&](std::size_t base, std::size_t width,
                   std::vector<std::vector<double>>& lanes) {
                 for (std::size_t l = 0; l < width; ++l) {
                   const std::vector<double>& point = points[base + l];
                   for (std::size_t j = 0; j < slots.size(); ++j) {
                     lanes[j][l] = point[j];
                   }
                 }
               });
  return out;
}

BatchCounters EvalEngine::batch_counters() const {
  BatchCounters c;
  c.points = batch_points_.load(std::memory_order_relaxed);
  c.blocks = batch_blocks_.load(std::memory_order_relaxed);
  c.scalar_fallback_points =
      batch_fallback_points_.load(std::memory_order_relaxed);
  c.lane_replays = batch_lane_replays_.load(std::memory_order_relaxed);
  c.term_capture_rows =
      batch_term_capture_rows_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace powerplay::engine
