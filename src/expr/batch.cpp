#include "expr/batch.hpp"

#include <cmath>
#include <cstring>

namespace powerplay::expr {

BatchExec::BatchExec(const Module& module)
    : module_(&module),
      base_(module.slots.size(), 0.0),
      domain_epoch_(module.domain_count, 1) {
  for (std::size_t i = 0; i < module.slots.size(); ++i) {
    if (module.slots[i].kind == SlotKind::kValue) {
      base_[i] = module.slots[i].initial;
    }
  }
  scalar_stack_.reserve(32);
  flight_order_.reserve(8);
}

void BatchExec::reset(std::size_t width) {
  width_ = width;
  const std::size_t slots = module_->slots.size();
  values_.assign(slots * width, 0.0);
  for (std::size_t s = 0; s < slots; ++s) {
    if (module_->slots[s].kind == SlotKind::kValue) {
      double* v = values_.data() + s * width;
      for (std::size_t l = 0; l < width; ++l) v[l] = base_[s];
    }
  }
  overridden_.assign(slots, 0);
  stamp_.assign(slots, 0);
  in_flight_.assign(slots, 0);
  flight_order_.clear();
  for (auto& e : domain_epoch_) e = 1;
  sp_ = 0;
}

void BatchExec::rebind_value(SlotId slot, double value) { base_[slot] = value; }

void BatchExec::bind_lane(SlotId slot, std::size_t lane, double value) {
  values_[slot * width_ + lane] = value;
  overridden_[slot] = 1;
}

const double* BatchExec::slot_lanes(SlotId slot) {
  double* v = values_.data() + slot * width_;
  if (overridden_[slot]) return v;
  const SlotInfo& info = module_->slots[slot];
  switch (info.kind) {
    case SlotKind::kValue:
      return v;
    case SlotKind::kFormula: {
      const std::uint32_t epoch = domain_epoch_[info.domain];
      if (stamp_[slot] == epoch) return v;
      if (in_flight_[slot]) {
        // Same chain format as ExecState::formula_value.
        std::string cycle;
        for (const SlotId s : flight_order_) {
          cycle += module_->slots[s].name;
          cycle += " -> ";
        }
        cycle += info.name;
        throw ExprError("circular parameter definition: " + cycle);
      }
      in_flight_[slot] = 1;
      flight_order_.push_back(slot);
      try {
        execute_program(info.program, v);
      } catch (...) {
        in_flight_[slot] = 0;
        flight_order_.pop_back();
        throw;
      }
      in_flight_[slot] = 0;
      flight_order_.pop_back();
      stamp_[slot] = epoch;
      return v;
    }
    case SlotKind::kUnbound:
      break;
  }
  throw ExprError("unbound parameter '" + info.name + "'");
}

void BatchExec::execute_program(std::uint32_t program, double* out) {
  const Program& p = module_->programs[program];
  try {
    run_batch(p, out);
  } catch (const NeedLaneReplay&) {
    // The lanes diverged (or one of them would throw): run the program
    // once per lane through the scalar interpreter over the same lane
    // storage.  Lane order matters only when an error escapes — the
    // sheet layer then degrades the block to the whole-point scalar
    // path, which restores the exact scalar error ordering.
    ++lane_replays_;
    for (std::size_t l = 0; l < width_; ++l) out[l] = run_lane(p, l);
  }
}

void BatchExec::run_batch(const Program& p, double* out) {
  const std::size_t base = sp_;
  const std::size_t w = width_;
  try {
    const Instr* code = p.code.data();
    const auto n = static_cast<std::uint32_t>(p.code.size());
    for (std::uint32_t pc = 0; pc < n;) {
      const Instr ins = code[pc];
      switch (ins.op) {
        case Op::kConst: {
          double* top = push();
          const double c = module_->constants[ins.a];
          for (std::size_t l = 0; l < w; ++l) top[l] = c;
          ++pc;
          break;
        }
        case Op::kSlot: {
          // Evaluate the slot first (it may run nested programs on the
          // arena), then push: push() can grow the arena and would
          // invalidate a pointer taken earlier.
          const double* src = slot_lanes(ins.a);
          double* top = push();
          std::memcpy(top, src, w * sizeof(double));
          ++pc;
          break;
        }
        case Op::kThrow:
          // All lanes are at this pc, so all would throw; replay so the
          // error surfaces through the per-lane path.
          throw NeedLaneReplay{};
        case Op::kNeg: {
          double* a = entry(sp_ - 1);
          for (std::size_t l = 0; l < w; ++l) a[l] = -a[l];
          ++pc;
          break;
        }
        case Op::kNot: {
          double* a = entry(sp_ - 1);
          for (std::size_t l = 0; l < w; ++l) a[l] = a[l] == 0.0 ? 1.0 : 0.0;
          ++pc;
          break;
        }
        case Op::kAdd: {
          const double* r = entry(sp_ - 1);
          double* a = entry(sp_ - 2);
          for (std::size_t l = 0; l < w; ++l) a[l] += r[l];
          --sp_;
          ++pc;
          break;
        }
        case Op::kSub: {
          const double* r = entry(sp_ - 1);
          double* a = entry(sp_ - 2);
          for (std::size_t l = 0; l < w; ++l) a[l] -= r[l];
          --sp_;
          ++pc;
          break;
        }
        case Op::kMul: {
          const double* r = entry(sp_ - 1);
          double* a = entry(sp_ - 2);
          for (std::size_t l = 0; l < w; ++l) a[l] *= r[l];
          --sp_;
          ++pc;
          break;
        }
        case Op::kDiv: {
          const double* r = entry(sp_ - 1);
          for (std::size_t l = 0; l < w; ++l) {
            if (r[l] == 0.0) throw NeedLaneReplay{};
          }
          double* a = entry(sp_ - 2);
          for (std::size_t l = 0; l < w; ++l) a[l] /= r[l];
          --sp_;
          ++pc;
          break;
        }
        case Op::kMod: {
          const double* r = entry(sp_ - 1);
          for (std::size_t l = 0; l < w; ++l) {
            if (r[l] == 0.0) throw NeedLaneReplay{};
          }
          double* a = entry(sp_ - 2);
          for (std::size_t l = 0; l < w; ++l) a[l] = std::fmod(a[l], r[l]);
          --sp_;
          ++pc;
          break;
        }
        case Op::kPow: {
          const double* r = entry(sp_ - 1);
          double* a = entry(sp_ - 2);
          for (std::size_t l = 0; l < w; ++l) a[l] = std::pow(a[l], r[l]);
          --sp_;
          ++pc;
          break;
        }
        case Op::kLess: {
          const double* r = entry(sp_ - 1);
          double* a = entry(sp_ - 2);
          for (std::size_t l = 0; l < w; ++l) a[l] = a[l] < r[l] ? 1.0 : 0.0;
          --sp_;
          ++pc;
          break;
        }
        case Op::kLessEq: {
          const double* r = entry(sp_ - 1);
          double* a = entry(sp_ - 2);
          for (std::size_t l = 0; l < w; ++l) a[l] = a[l] <= r[l] ? 1.0 : 0.0;
          --sp_;
          ++pc;
          break;
        }
        case Op::kGreater: {
          const double* r = entry(sp_ - 1);
          double* a = entry(sp_ - 2);
          for (std::size_t l = 0; l < w; ++l) a[l] = a[l] > r[l] ? 1.0 : 0.0;
          --sp_;
          ++pc;
          break;
        }
        case Op::kGreaterEq: {
          const double* r = entry(sp_ - 1);
          double* a = entry(sp_ - 2);
          for (std::size_t l = 0; l < w; ++l) a[l] = a[l] >= r[l] ? 1.0 : 0.0;
          --sp_;
          ++pc;
          break;
        }
        case Op::kEqual: {
          const double* r = entry(sp_ - 1);
          double* a = entry(sp_ - 2);
          for (std::size_t l = 0; l < w; ++l) a[l] = a[l] == r[l] ? 1.0 : 0.0;
          --sp_;
          ++pc;
          break;
        }
        case Op::kNotEqual: {
          const double* r = entry(sp_ - 1);
          double* a = entry(sp_ - 2);
          for (std::size_t l = 0; l < w; ++l) a[l] = a[l] != r[l] ? 1.0 : 0.0;
          --sp_;
          ++pc;
          break;
        }
        case Op::kJump:
          pc = ins.a;
          break;
        case Op::kJumpIfZero: {
          const double* v = entry(sp_ - 1);
          const bool zero = v[0] == 0.0;
          for (std::size_t l = 1; l < w; ++l) {
            if ((v[l] == 0.0) != zero) throw NeedLaneReplay{};
          }
          --sp_;
          pc = zero ? ins.a : pc + 1;
          break;
        }
        case Op::kCall: {
          const CallSite& site = module_->call_sites[ins.a];
          const std::size_t argbase = sp_ - site.numeric_argc;
          std::vector<double> results(w);
          std::vector<Value> args;
          args.reserve(site.args.size());
          for (std::size_t l = 0; l < w; ++l) {
            args.clear();
            std::size_t next = argbase;
            for (const CallArg& a : site.args) {
              if (a.is_string) {
                args.emplace_back(module_->strings[a.string_index]);
              } else {
                args.emplace_back(stack_[(next++) * w + l]);
              }
            }
            try {
              results[l] = module_->functions[site.function](args);
            } catch (...) {
              // A throwing call must surface per point: replay.
              throw NeedLaneReplay{};
            }
          }
          sp_ = argbase;
          double* top = push();
          std::memcpy(top, results.data(), w * sizeof(double));
          ++pc;
          break;
        }
        case Op::kExt: {
          if (ext_block_ == nullptr) {
            throw ExprError("internal error: intermodel op with no hook");
          }
          double* top = push();
          ext_block_(ext_ctx_, ins.a, ins.b, top, w);
          ++pc;
          break;
        }
      }
    }
    std::memcpy(out, entry(sp_ - 1), w * sizeof(double));
    sp_ = base;
  } catch (...) {
    sp_ = base;
    throw;
  }
}

double BatchExec::run_lane(const Program& p, std::size_t lane) {
  // The scalar interpreter over lane storage: op for op the same
  // sequence as ExecState::run, so a replayed lane computes (or
  // throws) exactly what the scalar path would for that point.
  const std::size_t base = scalar_stack_.size();
  auto& st = scalar_stack_;
  try {
    const Instr* code = p.code.data();
    const auto n = static_cast<std::uint32_t>(p.code.size());
    for (std::uint32_t pc = 0; pc < n;) {
      const Instr ins = code[pc];
      switch (ins.op) {
        case Op::kConst:
          st.push_back(module_->constants[ins.a]);
          ++pc;
          break;
        case Op::kSlot:
          st.push_back(slot_value_lane(ins.a, lane));
          ++pc;
          break;
        case Op::kThrow:
          throw ExprError(module_->messages[ins.a]);
        case Op::kNeg:
          st.back() = -st.back();
          ++pc;
          break;
        case Op::kNot:
          st.back() = st.back() == 0.0 ? 1.0 : 0.0;
          ++pc;
          break;
        case Op::kAdd: {
          const double r = st.back();
          st.pop_back();
          st.back() += r;
          ++pc;
          break;
        }
        case Op::kSub: {
          const double r = st.back();
          st.pop_back();
          st.back() -= r;
          ++pc;
          break;
        }
        case Op::kMul: {
          const double r = st.back();
          st.pop_back();
          st.back() *= r;
          ++pc;
          break;
        }
        case Op::kDiv: {
          const double r = st.back();
          st.pop_back();
          if (r == 0.0) throw ExprError("division by zero");
          st.back() /= r;
          ++pc;
          break;
        }
        case Op::kMod: {
          const double r = st.back();
          st.pop_back();
          if (r == 0.0) throw ExprError("modulo by zero");
          st.back() = std::fmod(st.back(), r);
          ++pc;
          break;
        }
        case Op::kPow: {
          const double r = st.back();
          st.pop_back();
          st.back() = std::pow(st.back(), r);
          ++pc;
          break;
        }
        case Op::kLess: {
          const double r = st.back();
          st.pop_back();
          st.back() = st.back() < r ? 1.0 : 0.0;
          ++pc;
          break;
        }
        case Op::kLessEq: {
          const double r = st.back();
          st.pop_back();
          st.back() = st.back() <= r ? 1.0 : 0.0;
          ++pc;
          break;
        }
        case Op::kGreater: {
          const double r = st.back();
          st.pop_back();
          st.back() = st.back() > r ? 1.0 : 0.0;
          ++pc;
          break;
        }
        case Op::kGreaterEq: {
          const double r = st.back();
          st.pop_back();
          st.back() = st.back() >= r ? 1.0 : 0.0;
          ++pc;
          break;
        }
        case Op::kEqual: {
          const double r = st.back();
          st.pop_back();
          st.back() = st.back() == r ? 1.0 : 0.0;
          ++pc;
          break;
        }
        case Op::kNotEqual: {
          const double r = st.back();
          st.pop_back();
          st.back() = st.back() != r ? 1.0 : 0.0;
          ++pc;
          break;
        }
        case Op::kJump:
          pc = ins.a;
          break;
        case Op::kJumpIfZero: {
          const double v = st.back();
          st.pop_back();
          pc = v == 0.0 ? ins.a : pc + 1;
          break;
        }
        case Op::kCall: {
          const CallSite& site = module_->call_sites[ins.a];
          std::vector<Value> args;
          args.reserve(site.args.size());
          const std::size_t argbase = st.size() - site.numeric_argc;
          std::size_t next = argbase;
          for (const CallArg& a : site.args) {
            if (a.is_string) {
              args.emplace_back(module_->strings[a.string_index]);
            } else {
              args.emplace_back(st[next++]);
            }
          }
          st.resize(argbase);
          st.push_back(module_->functions[site.function](args));
          ++pc;
          break;
        }
        case Op::kExt:
          if (ext_lane_ == nullptr) {
            throw ExprError("internal error: intermodel op with no hook");
          }
          st.push_back(ext_lane_(ext_ctx_, ins.a, ins.b, lane));
          ++pc;
          break;
      }
    }
    const double result = st.back();
    st.resize(base);
    return result;
  } catch (...) {
    st.resize(base);
    throw;
  }
}

}  // namespace powerplay::expr
