#include "sheet/batch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "model/param.hpp"
#include "units/units.hpp"

namespace powerplay::sheet {

using expr::SlotId;
using model::Estimate;

namespace {

std::optional<SlotId> search_sorted(
    const std::vector<std::pair<std::string, SlotId>>& v,
    const std::string& name) {
  const auto it = std::lower_bound(
      v.begin(), v.end(), name,
      [](const auto& p, const std::string& n) { return p.first < n; });
  if (it != v.end() && it->first == name) return it->second;
  return std::nullopt;
}

/// PlanParamReader's resolution logic (plan.cpp is the reference),
/// pinned to one lane of the batch state: row reads and chain lookups
/// answer from slot_value_lane, spec validation runs per lane exactly
/// as the scalar path validates per point.
class BatchLaneReader final : public model::ParamReader {
 public:
  BatchLaneReader(expr::BatchExec& exec,
                  const std::vector<EvalPlan::Read>& reads,
                  const std::vector<std::pair<std::string, SlotId>>& chain,
                  std::size_t lane)
      : exec_(&exec), reads_(&reads), chain_(&chain), lane_(lane) {}

  [[nodiscard]] double get(const std::string& name) const override {
    if (const EvalPlan::Read* r = find_read(name)) {
      double value;
      if (r->has_slot) {
        value = exec_->slot_value_lane(r->slot, lane_);
      } else if (r->spec != nullptr) {
        value = r->spec->default_value;
      } else {
        throw expr::ExprError("unbound parameter '" + name + "'");
      }
      if (r->spec != nullptr) r->spec->validate(value);
      return value;
    }
    if (const auto slot = search_sorted(*chain_, name)) {
      return exec_->slot_value_lane(*slot, lane_);
    }
    throw expr::ExprError("unbound parameter '" + name + "'");
  }

  [[nodiscard]] double get_or(const std::string& name,
                              double fallback) const override {
    if (const EvalPlan::Read* r = find_read(name)) {
      double value;
      if (r->has_slot) {
        value = exec_->slot_value_lane(r->slot, lane_);
      } else if (r->spec != nullptr && !std::isnan(r->spec->default_value)) {
        value = r->spec->default_value;
      } else {
        return fallback;
      }
      if (r->spec != nullptr) r->spec->validate(value);
      return value;
    }
    if (const auto slot = search_sorted(*chain_, name)) {
      return exec_->slot_value_lane(*slot, lane_);
    }
    return fallback;
  }

 private:
  [[nodiscard]] const EvalPlan::Read* find_read(
      const std::string& name) const {
    const auto it = std::lower_bound(
        reads_->begin(), reads_->end(), name,
        [](const EvalPlan::Read& r, const std::string& n) {
          return r.name < n;
        });
    if (it != reads_->end() && it->name == name) return &*it;
    return nullptr;
  }

  expr::BatchExec* exec_;
  const std::vector<EvalPlan::Read>* reads_;
  const std::vector<std::pair<std::string, SlotId>>* chain_;
  std::size_t lane_;
};

}  // namespace

BatchPlanInstance::BatchPlanInstance(std::shared_ptr<const EvalPlan> plan)
    : plan_(std::move(plan)), exec_(plan_->module_), scalar_(plan_) {
  exec_.set_ext(&BatchPlanInstance::ext_block, &BatchPlanInstance::ext_lane,
                this);
  frames_.resize(plan_->nodes_.size());
  for (std::size_t n = 0; n < frames_.size(); ++n) {
    frames_[n].rows.resize(plan_->nodes_[n].rows.size());
    frames_[n].present.assign(plan_->nodes_[n].rows.size(), 0);
  }
}

void BatchPlanInstance::bind_from(const Design& design) {
  plan_->for_each_literal(design, [this](SlotId slot, double value) {
    exec_.rebind_value(slot, value);
  });
  scalar_.bind_from(design);
}

void BatchPlanInstance::play_block_scalar(
    const std::vector<SlotId>& slots,
    const std::vector<std::vector<double>>& lane_values, std::size_t width,
    PointColumns& out, std::size_t base) {
  for (std::size_t l = 0; l < width; ++l) {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      scalar_.bind(slots[s], lane_values[s][l]);
    }
    out.set(base + l, scalar_.play());
    ++stats_.scalar_fallback_points;
  }
}

void BatchPlanInstance::ext_block(void* ctx, std::uint32_t site,
                                  std::uint32_t, double* out,
                                  std::size_t width) {
  static_cast<BatchPlanInstance*>(ctx)->ext(site, 0, width, out);
}

double BatchPlanInstance::ext_lane(void* ctx, std::uint32_t site,
                                   std::uint32_t, std::size_t lane) {
  double v = 0.0;
  static_cast<BatchPlanInstance*>(ctx)->ext(site, lane, lane + 1, &v);
  return v;
}

void BatchPlanInstance::ext(std::uint32_t site_index, std::size_t from,
                            std::size_t to, double* out) {
  // PlanInstance::ext, lane by lane: an absent row reads as the zero
  // estimate, and the totals sum the present rows in name order.
  using Kind = EvalPlan::ExtSite::Kind;
  const EvalPlan::ExtSite& site = plan_->ext_sites_[site_index];
  if (site.kind == Kind::kMissingRow) {
    // The block degrades to the scalar replay, which raises the error
    // with the bound design's name.
    throw expr::ExprError("batch: no such row");
  }
  NodeFrame& frame = frames_[site.node];
  std::fill(frame.used.begin() + static_cast<std::ptrdiff_t>(from),
            frame.used.begin() + static_cast<std::ptrdiff_t>(to), 1);
  const auto value = [kind = site.kind](const LaneEstimates& e,
                                        std::size_t l) {
    switch (kind) {
      case Kind::kRowArea:
      case Kind::kTotalArea:
        return e.area_m2[l];
      case Kind::kRowEnergy:
        return e.energy_j[l];
      case Kind::kRowDelay:
        return e.delay_s[l];
      default:
        return e.dynamic_w[l] + e.static_w[l];
    }
  };
  const std::size_t n = to - from;
  std::fill_n(out, n, 0.0);
  if (site.kind == Kind::kTotalPower || site.kind == Kind::kTotalArea) {
    for (const std::uint32_t ri :
         plan_->nodes_[site.node].name_sorted_enabled) {
      if (!frame.present[ri]) continue;
      for (std::size_t i = 0; i < n; ++i) {
        out[i] += value(frame.rows[ri], from + i);
      }
    }
  } else if (site.kind != Kind::kDisabledZero &&
             frame.present[site.target_row]) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = value(frame.rows[site.target_row], from + i);
    }
  }
}

void BatchPlanInstance::run_node_batch(std::uint32_t node_id,
                                       std::size_t width,
                                       const std::uint8_t* active_in) {
  const EvalPlan::Node& node = plan_->nodes_[node_id];
  // Any throw degrades the block to the scalar replay, which raises the
  // named error.
  if (!node.poison.empty()) throw expr::ExprError(node.poison);

  NodeFrame& frame = frames_[node_id];
  std::fill(frame.present.begin(), frame.present.end(), 0);
  std::fill_n(frame.used.begin(), width, 0);
  std::copy_n(active_in, width, frame.active.begin());
  exec_.begin_epoch(node.globals_domain);

  // PlanInstance::run_node over the whole block.  The row schedule of
  // an iteration depends only on the static settle ranks, so it is the
  // same for every lane; lanes differ only in when they converge.
  for (int iter = 1;; ++iter) {
    for (std::size_t ri = 0; ri < node.rows.size(); ++ri) {
      const EvalPlan::PlanRow& row = node.rows[ri];
      // Settled rows keep their latest estimates (iteration 1 evaluates
      // every row, and every rank is >= 1).
      if (!row.enabled || static_cast<std::uint32_t>(iter) > row.rank) {
        continue;
      }
      exec_.begin_epoch(row.domain);
      // Evaluate the row's shown parameters across the block first, as
      // the scalar path does per point: their errors surface before the
      // model runs, and the memo is warm for the model's reads.
      for (const auto& [nm, slot] : row.param_slots) {
        (void)exec_.slot_lanes(slot);
      }

      LaneEstimates& est = frame.rows[ri];
      if (row.is_macro) {
        run_node_batch(row.sub_node, width, frame.active.data());
        est = frames_[row.sub_node].out;
      } else if (!run_row_fast(row, node, width, est)) {
        // The model itself is scalar C++ — run it per active lane over
        // the batched parameter reads.
        for (std::size_t l = 0; l < width; ++l) {
          if (!frame.active[l]) continue;
          BatchLaneReader reader(exec_, row.reads, node.chain_names, l);
          const Estimate e = row.model->evaluate(reader);
          est.dynamic_w[l] = e.dynamic_power.si();
          est.static_w[l] = e.static_power.si();
          est.energy_j[l] = e.energy_per_op.si();
          est.area_m2[l] = e.area.si();
          est.delay_s[l] = e.delay.si();
        }
      }
      frame.present[ri] = 1;
    }

    // model::combine over the enabled rows in sheet order: field-wise
    // sums, delay as a running max, one separate add per field, so
    // every lane reproduces the scalar doubles.
    std::fill_n(sum_.dynamic_w.begin(), width, 0.0);
    std::fill_n(sum_.static_w.begin(), width, 0.0);
    std::fill_n(sum_.energy_j.begin(), width, 0.0);
    std::fill_n(sum_.area_m2.begin(), width, 0.0);
    std::fill_n(sum_.delay_s.begin(), width, 0.0);
    for (std::size_t ri = 0; ri < node.rows.size(); ++ri) {
      if (!node.rows[ri].enabled) continue;
      const LaneEstimates& e = frame.rows[ri];
      for (std::size_t l = 0; l < width; ++l) {
        sum_.dynamic_w[l] += e.dynamic_w[l];
        sum_.static_w[l] += e.static_w[l];
        sum_.energy_j[l] += e.energy_j[l];
        sum_.area_m2[l] += e.area_m2[l];
        sum_.delay_s[l] = std::max(sum_.delay_s[l], e.delay_s[l]);
      }
    }

    // Freeze every active lane at this iteration's totals, then retire
    // the lanes whose scalar loop would stop here.
    bool any_active = false;
    for (std::size_t l = 0; l < width; ++l) {
      if (!frame.active[l]) continue;
      frame.out.dynamic_w[l] = sum_.dynamic_w[l];
      frame.out.static_w[l] = sum_.static_w[l];
      frame.out.energy_j[l] = sum_.energy_j[l];
      frame.out.area_m2[l] = sum_.area_m2[l];
      frame.out.delay_s[l] = sum_.delay_s[l];
      if (!frame.used[l]) {
        frame.active[l] = 0;
        continue;
      }
      const double total = sum_.dynamic_w[l] + sum_.static_w[l];
      if (iter > 1) {
        const double tol = 1e-9 * std::max(1.0, std::fabs(total));
        if (std::fabs(total - frame.last_total[l]) <= tol) {
          frame.active[l] = 0;
          continue;
        }
      }
      frame.last_total[l] = total;
      if (iter == Design::kMaxIterations) {
        // The message never surfaces: the block degrades and the scalar
        // replay raises the real non-convergence error.
        throw expr::ExprError("batch: lane did not converge");
      }
      any_active = true;
    }
    if (!any_active) return;
  }
}

// Captured-terms fast path.  For an operating-point-only model whose
// non-vdd/f reads are bitwise lane-invariant across the block, the EQ 1
// breakdown (cap_terms, static_terms, area, delay) is the same in every
// lane: one full evaluate at lane 0 captures it, and the remaining
// lanes replay only the operating-point arithmetic through
// evaluate_terms — the function make_estimate itself runs — so each
// lane's doubles are exactly what a full per-lane evaluate would
// produce.  Error parity: the lane-0 evaluate validates every
// lane-invariant read once for all lanes, the per-lane vdd/f checks
// below mirror the reader's and param()'s NaN/range rules, and every
// has_slot read is forced through slot_lanes (surfacing per-lane
// formula errors), so the fast path throws whenever the scalar path
// would.  Any throw makes play_block degrade the block to the scalar
// path, which re-raises the true scalar error; a spurious fast-path
// throw therefore only costs speed, never correctness.
bool BatchPlanInstance::run_row_fast(const EvalPlan::PlanRow& row,
                                     const EvalPlan::Node& node,
                                     std::size_t width, LaneEstimates& est) {
  if (width <= 1 || !row.model->operating_point_only()) return false;
  const EvalPlan::Read* vdd_read = nullptr;
  const EvalPlan::Read* f_read = nullptr;
  for (const EvalPlan::Read& r : row.reads) {
    if (r.name == model::kParamVdd) {
      vdd_read = &r;
      continue;
    }
    if (r.name == model::kParamFreq) {
      f_read = &r;
      continue;
    }
    if (!r.has_slot) continue;  // spec default: the same double in every lane
    const double* lanes = exec_.slot_lanes(r.slot);
    const auto bits0 = std::bit_cast<std::uint64_t>(lanes[0]);
    for (std::size_t l = 1; l < width; ++l) {
      if (std::bit_cast<std::uint64_t>(lanes[l]) != bits0) return false;
    }
  }
  // Built-in models declare vdd and f, so the plan pre-resolves both
  // with their specs; anything unusual takes the general path.
  if (vdd_read == nullptr || f_read == nullptr || vdd_read->spec == nullptr ||
      f_read->spec == nullptr) {
    return false;
  }
  const double* vdd_lanes =
      vdd_read->has_slot ? exec_.slot_lanes(vdd_read->slot) : nullptr;
  const double* f_lanes =
      f_read->has_slot ? exec_.slot_lanes(f_read->slot) : nullptr;

  BatchLaneReader reader0(exec_, row.reads, node.chain_names, 0);
  const Estimate e0 = row.model->evaluate(reader0);
  const double area = e0.area.si();
  const double delay = e0.delay.si();

  est.dynamic_w[0] = e0.dynamic_power.si();
  est.static_w[0] = e0.static_power.si();
  est.energy_j[0] = e0.energy_per_op.si();
  est.area_m2[0] = area;
  est.delay_s[0] = delay;

  if (vdd_lanes == nullptr && f_lanes == nullptr) {
    // Uniform operating point too: every lane is the lane-0 evaluate.
    for (std::size_t l = 1; l < width; ++l) {
      est.dynamic_w[l] = e0.dynamic_power.si();
      est.static_w[l] = e0.static_power.si();
      est.energy_j[l] = e0.energy_per_op.si();
      est.area_m2[l] = area;
      est.delay_s[l] = delay;
    }
    ++stats_.term_capture_rows;
    return true;
  }

  const model::ParamSpec& vdd_spec = *vdd_read->spec;
  const model::ParamSpec& f_spec = *f_read->spec;
  for (std::size_t l = 1; l < width; ++l) {
    const double vdd = vdd_lanes != nullptr ? vdd_lanes[l]
                                            : vdd_spec.default_value;
    const double f = f_lanes != nullptr ? f_lanes[l] : f_spec.default_value;
    // Mirror of BatchLaneReader::get_or + Model::param for this lane's
    // operating point: same NaN and range rules, so throw-vs-not
    // matches the scalar path (the message never surfaces — a throw
    // degrades the block and the scalar replay raises the real error).
    if (std::isnan(vdd) || std::isnan(f)) {
      throw expr::ExprError("batch: unbound operating point");
    }
    vdd_spec.validate(vdd);
    f_spec.validate(f);
    const model::EstimateCore core = model::evaluate_terms(
        e0.cap_terms, e0.static_terms,
        model::OperatingPoint{units::Voltage{vdd}, units::Frequency{f}});
    est.dynamic_w[l] = core.dynamic_power.si();
    est.static_w[l] = core.static_power.si();
    est.energy_j[l] = core.energy_per_op.si();
    est.area_m2[l] = area;
    est.delay_s[l] = delay;
  }
  ++stats_.term_capture_rows;
  return true;
}

void BatchPlanInstance::play_block(
    const std::vector<SlotId>& slots,
    const std::vector<std::vector<double>>& lane_values, std::size_t width,
    PointColumns& out, std::size_t base) {
  if (width == 0) return;
  stats_.points += width;
  if (width <= 1) {
    // A degenerate block gains nothing from lane arrays.
    play_block_scalar(slots, lane_values, width, out, base);
    return;
  }
  exec_.reset(width);
  for (std::size_t s = 0; s < slots.size(); ++s) {
    for (std::size_t l = 0; l < width; ++l) {
      exec_.bind_lane(slots[s], l, lane_values[s][l]);
    }
  }
  try {
    run_node_batch(0, width, all_lanes_.data());
  } catch (...) {
    // Something in this block throws (or a lane never converges).
    // Degrade the whole block to the scalar path: points replay in lane
    // order, so the error that escapes is the one the scalar sweep
    // would raise (and a spurious batch-only failure would be absorbed
    // entirely).
    play_block_scalar(slots, lane_values, width, out, base);
    return;
  }
  ++stats_.blocks;
  const LaneEstimates& root = frames_[0].out;
  for (std::size_t l = 0; l < width; ++l) {
    out.power_w[base + l] = root.dynamic_w[l] + root.static_w[l];
    out.energy_j[base + l] = root.energy_j[l];
    out.area_m2[base + l] = root.area_m2[l];
    out.delay_s[base + l] = root.delay_s[l];
  }
}

// ---------------------------------------------------------------------------
// Columnar rendering
// ---------------------------------------------------------------------------

std::string grid_table(const ColumnarGrid& grid) {
  // Axis values print as an ostream's default (%.6g) would.
  std::string out = grid.x_param + " \\ " + grid.y_param;
  out.reserve(out.size() + (grid.ys.size() + 1) * (grid.xs.size() + 1) * 12);
  for (double y : grid.ys) {
    out += '\t';
    units::append_double(out, y, 6);
  }
  out += '\n';
  for (std::size_t i = 0; i < grid.xs.size(); ++i) {
    units::append_double(out, grid.xs[i], 6);
    for (std::size_t j = 0; j < grid.ys.size(); ++j) {
      out += '\t';
      units::append_si(out, grid.cols.power_w[i * grid.ys.size() + j], "W");
    }
    out += '\n';
  }
  return out;
}

std::string grid_csv(const ColumnarGrid& grid) {
  std::string out = grid.x_param + ',' + grid.y_param +
                    ",total_power_w,energy_per_op_j\n";
  out.reserve(out.size() + grid.cols.size() * 64);
  const auto field = [&out](double v, char end) {
    units::append_double(out, v, 9);
    out += end;
  };
  for (std::size_t i = 0; i < grid.xs.size(); ++i) {
    for (std::size_t j = 0; j < grid.ys.size(); ++j) {
      const std::size_t k = i * grid.ys.size() + j;
      field(grid.xs[i], ',');
      field(grid.ys[j], ',');
      field(grid.cols.power_w[k], ',');
      field(grid.cols.energy_j[k], '\n');
    }
  }
  return out;
}

std::string sweep_table(const ColumnarSweep& sweep) {
  std::string out = sweep.param + "\ttotal power\n";
  for (std::size_t i = 0; i < sweep.values.size(); ++i) {
    units::append_double(out, sweep.values[i], 6);
    out += '\t';
    units::append_si(out, sweep.cols.power_w[i], "W");
    out += '\n';
  }
  return out;
}

std::string sweep_csv(const ColumnarSweep& sweep) {
  std::string out = sweep.param + ",total_power_w,energy_per_op_j\n";
  const auto field = [&out](double v, char end) {
    units::append_double(out, v, 9);
    out += end;
  };
  for (std::size_t i = 0; i < sweep.values.size(); ++i) {
    field(sweep.values[i], ',');
    field(sweep.cols.power_w[i], ',');
    field(sweep.cols.energy_j[i], '\n');
  }
  return out;
}

std::string grid_json(const ColumnarGrid& grid) {
  std::string out;
  out.reserve(128 + (grid.xs.size() + grid.ys.size() + 2 * grid.cols.size()) *
                        24);
  const auto array = [&out](const std::vector<double>& v) {
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i != 0) out += ',';
      units::append_double(out, v[i], 17);
    }
    out += ']';
  };
  out += "{\"x_param\":\"" + grid.x_param + "\",\"y_param\":\"" +
         grid.y_param + "\",\"xs\":";
  array(grid.xs);
  out += ",\"ys\":";
  array(grid.ys);
  out += ",\"power_w\":";
  array(grid.cols.power_w);
  out += ",\"energy_j\":";
  array(grid.cols.energy_j);
  out += '}';
  return out;
}

}  // namespace powerplay::sheet
