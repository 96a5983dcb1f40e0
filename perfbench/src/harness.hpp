// harness.hpp — the benchmark's pure logic: seeded op streams, the
// Zipf design picker, percentiles and span self time.  Nothing here
// touches PowerPlay, sockets or clocks, so tests/harness_test.cpp can pin
// it down on fixed inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: tiny, fast, and the same sequence on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// Independent stream for (seed, workload, stream index).
std::uint64_t stream_seed(std::uint64_t seed, const std::string& workload,
                          std::uint64_t stream);

/// Zipf(s) over ranks 0..n-1: P(k) proportional to 1/(k+1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(Rng& rng) const;
  /// Probability mass of ranks [0, k).
  [[nodiscard]] double head_mass(std::size_t k) const;

 private:
  std::vector<double> cdf_;
};

// --- workloads --------------------------------------------------------

enum class Workload { kBrowse, kEdit, kExplore };
bool parse_workload(const std::string& name, Workload& out);
const char* workload_name(Workload w);

/// Every op kind of every workload.  The mix tables below fix each
/// kind's share; no kind sits near half, so a median never falls in the
/// gap between two op types.
enum class OpKind {
  // browse
  kDesignPage,   ///< GET /design?user&name
  kDesignCsv,    ///< GET /design/csv?name
  kApiDesign,    ///< GET /api/design?name
  kModelForm,    ///< GET /model?user&name&p_* (Fig 4 form compute)
  kMenu,         ///< GET /menu?user
  kLibrary,      ///< GET /library?user
  kOtherEdit,    ///< POST /design/play by another user on their own design
  kNewUser,      ///< GET /menu?user=<never seen> (identification flow)
  // edit
  kInfoPadSetRow,  ///< POST /design/setrow on the InfoPad copy
  kInfoPadPlay,    ///< POST /design/play on the InfoPad copy
  kLumSetRow,      ///< POST /design/setrow on the Luminance_2 copy
  kLumPlay,        ///< POST /design/play on the Luminance_2 copy
  // explore
  kGridSweep,    ///< 64x64 vdd x pixel_rate sweep on a Luminance copy
  kMonteCarlo,   ///< InfoPad Monte Carlo, 1000 samples
  kPareto,       ///< InfoPad Pareto grid
};
const char* op_name(OpKind kind);

struct MixEntry {
  OpKind kind;
  double share;
};
/// The fixed op mix of a workload (shares sum to 1).
const std::vector<MixEntry>& op_mix(Workload w);

/// Sizes the generated library and the traffic share.
struct Shape {
  static constexpr std::size_t kDesigners = 32;     ///< browse users
  static constexpr std::size_t kVariants = 1000;    ///< generated designs
  static constexpr double kZipfS = 1.1;
  static constexpr std::size_t kModelForms = 2;     ///< distinct /model queries
  static constexpr std::size_t kOtherEditDesigns = 8;
  static constexpr std::size_t kGridSpecs = 16;
  static constexpr std::size_t kMcSpecs = 8;
  static constexpr std::size_t kParetoSpecs = 4;
};

/// One generated user action.  `target` indexes the design (browse:
/// Zipf rank; explore: spec index), `user` the designer, `choice` picks
/// the edited row/parameter, `value` the new value (already rounded to
/// the text the request carries).
struct Op {
  OpKind kind = OpKind::kDesignPage;
  std::uint32_t user = 0;
  std::uint32_t target = 0;
  std::uint32_t choice = 0;
  double value = 0;
};

/// The deterministic op stream of one client connection.
class OpStream {
 public:
  OpStream(Workload w, std::uint64_t seed, std::uint64_t stream);
  Op next();

 private:
  Workload workload_;
  Rng rng_;
  Zipf zipf_;
};

/// Round to `digits` significant decimal digits (the value an edit
/// request carries as text, so site and mirror parse the same double).
double round_sig(double v, int digits);

// --- statistics -------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 for
/// an empty one.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// One traced interval.  Spans of one op share `op`; a child names its
/// parent span by id (0 = root).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span, in input order: its duration minus the part
/// of its interval covered by its children (overlapping children count
/// once; child time outside the parent's interval does not count).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
