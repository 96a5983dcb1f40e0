// bench.hpp — pieces shared by the driver, the site process and the
// per-layer replay (see README.md for what each measures and why).
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "harness.hpp"
#include "library/store.hpp"
#include "model/registry.hpp"
#include "sheet/design.hpp"
#include "web/http.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Headers that tie a site-side span to the client request it served.
/// Only the traced phase sends them; the site records nothing without.
inline constexpr const char* kSpanHeader = "x-bench-span";

// --- the site process (site.cpp) ------------------------------------------

/// `ppbench site --data DIR [--spans FILE]`: open the store, load the
/// registry, listen, render every design once, then print
/// "ready <port>" and serve until stdin closes.
int site_main(int argc, char** argv);

// --- the generated library (driver.cpp) ------------------------------------

/// Names the workloads address.  Browse ranks map to `browse_designs`
/// (rank 0 is the hottest Zipf rank).
struct LibraryNames {
  std::vector<std::string> browse_designs;
  std::vector<std::string> designers;
  static constexpr const char* kRefUser = "zzref";
  static constexpr const char* kNewRefUser = "zznewref";
  static constexpr const char* kPlayer = "player";
  static constexpr const char* kExplorer = "explorer";
  static constexpr const char* kPlayInfoPad = "play_infopad";
  static constexpr const char* kPlayLum = "play_lum2";
  static constexpr const char* kExploreInfoPad = "explore_infopad";
  static constexpr const char* kExploreLum = "explore_lum2";
  static std::string other_edit_design(std::size_t i) {
    return "shared_edit_" + std::to_string(i);
  }
  static std::string other_editor(std::size_t conn) {
    return "editor" + std::to_string(conn);
  }
};
LibraryNames library_names();

/// The built-in model registry every design here draws from.
std::shared_ptr<powerplay::model::ModelRegistry> make_registry();

/// Write the whole library (paper designs, Shape::kVariants seeded
/// variants, the edit and explore users' own copies, profiles) into a
/// fresh store at `root`.  The store is closed without a flush, so the
/// next open replays a journal tail, as a restart after a crash would.
void generate_library(const std::filesystem::path& root, std::uint64_t seed);

/// Recursive copy of a store directory (each setup opens a fresh copy).
void copy_tree(const std::filesystem::path& from,
               const std::filesystem::path& to);

// --- explore job specs (driver.cpp) ---------------------------------------

/// One explore op as the site receives it: the POST route and its form.
struct JobSpec {
  OpKind kind = OpKind::kGridSweep;
  std::string route;                      ///< /design/sweep or /design/explore
  std::map<std::string, std::string> form;
  std::string result_format;              ///< "csv" or "json"
};
JobSpec job_spec(OpKind kind, std::uint32_t index);

/// The job's table, CSV and JSON as the site's job would render them,
/// computed by the benchmark's own EvalEngine on its own copy of the
/// design: the site's reply must match these bytes exactly.
struct JobOutput {
  std::string table, csv, json;
};
JobOutput run_job_locally(const JobSpec& spec,
                          const powerplay::sheet::Design& design,
                          powerplay::engine::EvalEngine& engine,
                          const powerplay::sheet::SweepProgress& progress = {});

// --- per-layer replay (layers.cpp) ----------------------------------------

/// Metric name -> value; every name is in BENCHMARK.json's per_layer.
using LayerMetrics = std::map<std::string, double>;

struct LayerInputs {
  std::filesystem::path base;           ///< generated library (read-only)
  std::filesystem::path scratch;        ///< where replay copies may go
  std::vector<std::string> request_wires;  ///< sample of sent requests
  std::uint64_t seed = 1;
  bool quick = false;                   ///< correctness mode: few reps
};
LayerMetrics replay_layers(const LayerInputs& in);

}  // namespace perfbench
