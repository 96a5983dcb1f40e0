#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::below(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("Rng::below(0)");
  return next() % n;
}

std::uint64_t stream_seed(std::uint64_t seed, const std::string& workload,
                          std::uint64_t stream) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a of the workload name
  for (const char c : workload) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  Rng mix(seed ^ h);
  mix.next();
  Rng out(mix.next() ^ (stream * 0xd1b54a32d192ed03ull));
  return out.next();
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

double Zipf::head_mass(std::size_t k) const {
  if (k == 0) return 0;
  return cdf_[std::min(k, cdf_.size()) - 1];
}

bool parse_workload(const std::string& name, Workload& out) {
  if (name == "browse") {
    out = Workload::kBrowse;
  } else if (name == "edit") {
    out = Workload::kEdit;
  } else if (name == "explore") {
    out = Workload::kExplore;
  } else {
    return false;
  }
  return true;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kBrowse: return "browse";
    case Workload::kEdit: return "edit";
    case Workload::kExplore: return "explore";
  }
  return "?";
}

const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::kDesignPage: return "design_page";
    case OpKind::kDesignCsv: return "design_csv";
    case OpKind::kApiDesign: return "api_design";
    case OpKind::kModelForm: return "model_form";
    case OpKind::kMenu: return "menu";
    case OpKind::kLibrary: return "library";
    case OpKind::kOtherEdit: return "other_edit";
    case OpKind::kNewUser: return "new_user";
    case OpKind::kInfoPadSetRow: return "infopad_setrow";
    case OpKind::kInfoPadPlay: return "infopad_play";
    case OpKind::kLumSetRow: return "lum2_setrow";
    case OpKind::kLumPlay: return "lum2_play";
    case OpKind::kGridSweep: return "grid_sweep";
    case OpKind::kMonteCarlo: return "monte_carlo";
    case OpKind::kPareto: return "pareto";
  }
  return "?";
}

const std::vector<MixEntry>& op_mix(Workload w) {
  // No request trace of PowerPlay's users exists to weight the op kinds
  // by, so every share the workload description does not fix is equal.
  // Browse: 1 op in 50 is another user's edit (forcing fingerprint
  // revalidation), 1 in 100 a never-seen user; the six page kinds split
  // the rest.
  constexpr double kPage = (1.0 - 0.02 - 0.01) / 6;
  static const std::vector<MixEntry> kBrowse = {
      {OpKind::kDesignPage, kPage}, {OpKind::kDesignCsv, kPage},
      {OpKind::kApiDesign, kPage},  {OpKind::kModelForm, kPage},
      {OpKind::kMenu, kPage},       {OpKind::kLibrary, kPage},
      {OpKind::kOtherEdit, 0.02},   {OpKind::kNewUser, 0.01}};
  // Edit: InfoPad takes 3 ops in 4 so the median sits in its mode;
  // set-row and Play split each design's share.
  static const std::vector<MixEntry> kEdit = {
      {OpKind::kInfoPadSetRow, 0.375}, {OpKind::kInfoPadPlay, 0.375},
      {OpKind::kLumSetRow, 0.125},     {OpKind::kLumPlay, 0.125}};
  // Explore: one third each, so no job type sits near half.
  static const std::vector<MixEntry> kExplore = {
      {OpKind::kGridSweep, 1.0 / 3},
      {OpKind::kMonteCarlo, 1.0 / 3},
      {OpKind::kPareto, 1.0 / 3}};
  switch (w) {
    case Workload::kBrowse: return kBrowse;
    case Workload::kEdit: return kEdit;
    case Workload::kExplore: return kExplore;
  }
  return kBrowse;
}

double round_sig(double v, int digits) {
  if (v == 0 || !std::isfinite(v)) return v;
  const double scale =
      std::pow(10.0, digits - 1 - static_cast<int>(std::floor(std::log10(std::fabs(v)))));
  return std::round(v * scale) / scale;
}

namespace {

constexpr std::size_t kBrowseDesigns = Shape::kVariants + 3;

OpKind pick(const std::vector<MixEntry>& mix, Rng& rng) {
  const double u = rng.uniform();
  double acc = 0;
  for (const MixEntry& e : mix) {
    acc += e.share;
    if (u < acc) return e.kind;
  }
  return mix.back().kind;
}

double in_range(Rng& rng, double lo, double hi) {
  return round_sig(lo + (hi - lo) * rng.uniform(), 4);
}

}  // namespace

OpStream::OpStream(Workload w, std::uint64_t seed, std::uint64_t stream)
    : workload_(w),
      rng_(stream_seed(seed, workload_name(w), stream)),
      zipf_(kBrowseDesigns, Shape::kZipfS) {}

Op OpStream::next() {
  Op op;
  op.kind = pick(op_mix(workload_), rng_);
  switch (op.kind) {
    case OpKind::kDesignPage:
    case OpKind::kDesignCsv:
    case OpKind::kApiDesign:
      op.user = static_cast<std::uint32_t>(rng_.below(Shape::kDesigners));
      op.target = static_cast<std::uint32_t>(zipf_.sample(rng_));
      break;
    case OpKind::kModelForm:
      op.user = static_cast<std::uint32_t>(rng_.below(Shape::kDesigners));
      op.target = static_cast<std::uint32_t>(rng_.below(Shape::kModelForms));
      break;
    case OpKind::kMenu:
    case OpKind::kLibrary:
      op.user = static_cast<std::uint32_t>(rng_.below(Shape::kDesigners));
      break;
    case OpKind::kOtherEdit:
      op.target =
          static_cast<std::uint32_t>(rng_.below(Shape::kOtherEditDesigns));
      op.value = in_range(rng_, 1.1, 3.3);
      break;
    case OpKind::kNewUser:
      break;
    case OpKind::kInfoPadSetRow:
      op.choice = static_cast<std::uint32_t>(rng_.below(2));
      op.value = op.choice == 0 ? in_range(rng_, 0.5, 1.0)
                                : in_range(rng_, 0.5, 1.1);
      break;
    case OpKind::kInfoPadPlay:
      op.choice = static_cast<std::uint32_t>(rng_.below(3));
      op.value = op.choice == 0   ? in_range(rng_, 0.2, 0.6)
                 : op.choice == 1 ? in_range(rng_, 0.3, 0.6)
                                  : in_range(rng_, 0.7, 0.95);
      break;
    case OpKind::kLumSetRow:
      op.choice = static_cast<std::uint32_t>(rng_.below(2));
      op.value = static_cast<double>(8 + rng_.below(41));  // bits 8..48
      break;
    case OpKind::kLumPlay:
      op.choice = static_cast<std::uint32_t>(rng_.below(2));
      op.value = op.choice == 0 ? in_range(rng_, 1.1, 3.3)
                                : in_range(rng_, 1.0e6, 4.0e6);
      break;
    case OpKind::kGridSweep:
      op.target = static_cast<std::uint32_t>(rng_.below(Shape::kGridSpecs));
      break;
    case OpKind::kMonteCarlo:
      op.target = static_cast<std::uint32_t>(rng_.below(Shape::kMcSpecs));
      break;
    case OpKind::kPareto:
      op.target = static_cast<std::uint32_t>(rng_.below(Shape::kParetoSpecs));
      break;
  }
  return op;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50);
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0 && spans[i].parent != spans[i].id) {
      children[spans[i].parent].push_back(i);
    }
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& parent = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    const auto kids = children.find(parent.id);
    if (kids == children.end()) {
      out[i] = parent.end_ns - parent.start_ns;
      continue;
    }
    for (const std::size_t k : kids->second) {
      const Span& child = spans[k];
      const std::int64_t a = std::max(child.start_ns, parent.start_ns);
      const std::int64_t b = std::min(child.end_ns, parent.end_ns);
      if (a < b) covered.emplace_back(a, b);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t cur_a = 0;
    std::int64_t cur_b = 0;
    bool open = false;
    for (const auto& [a, b] : covered) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) union_ns += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) union_ns += cur_b - cur_a;
    out[i] = (parent.end_ns - parent.start_ns) - union_ns;
  }
  return out;
}

}  // namespace perfbench
