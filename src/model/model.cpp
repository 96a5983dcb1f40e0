#include "model/model.hpp"

#include <atomic>
#include <cmath>

namespace powerplay::model {

std::string to_string(Category c) {
  switch (c) {
    case Category::kComputation: return "computation";
    case Category::kStorage: return "storage";
    case Category::kController: return "controller";
    case Category::kInterconnect: return "interconnect";
    case Category::kProcessor: return "processor";
    case Category::kAnalog: return "analog";
    case Category::kConverter: return "converter";
    case Category::kSystem: return "system";
    case Category::kMacro: return "macro";
  }
  return "?";
}

std::uint64_t Model::next_instance_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

const ParamSpec* Model::find_param(const std::string& name) const {
  for (const ParamSpec& s : params_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

double Model::param(const ParamReader& p, const std::string& name) const {
  const ParamSpec* spec = find_param(name);
  if (spec == nullptr) {
    throw expr::ExprError("model '" + name_ + "' has no parameter '" + name +
                          "'");
  }
  const double value = p.get_or(name, spec->default_value);
  if (std::isnan(value)) {
    throw expr::ExprError("model '" + name_ + "': parameter '" + name +
                          "' is required but unbound");
  }
  spec->validate(value);
  return value;
}

OperatingPoint Model::operating_point(const ParamReader& p) const {
  return OperatingPoint{units::Voltage{param(p, kParamVdd)},
                        units::Frequency{param(p, kParamFreq)}};
}

}  // namespace powerplay::model
