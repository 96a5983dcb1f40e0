// driver.hpp — the site child process and the closed-loop load driver.
#pragma once

#include <sys/types.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// The site under test in its own process (`ppbench site`).  The
/// constructor returns once the site printed "ready"; setup_s() is the
/// wall time from fork to that line.  Stopping closes the site's stdin
/// and waits for it to exit.
class SiteProcess {
 public:
  /// `spans` non-empty: the site records a handler span for every
  /// request that carries kSpanHeader and writes them there on exit.
  SiteProcess(const std::filesystem::path& data, const std::string& spans);
  ~SiteProcess();
  SiteProcess(const SiteProcess&) = delete;
  SiteProcess& operator=(const SiteProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] double setup_s() const { return setup_s_; }
  /// The site's own split of set-up (ms): store open with recovery,
  /// registry load and listen, warm-up pass.
  [[nodiscard]] const std::array<double, 3>& setup_phases_ms() const {
    return phases_ms_;
  }
  /// User + system CPU the site has used so far.
  [[nodiscard]] double cpu_s() const;
  /// Peak resident set size so far (VmHWM).
  [[nodiscard]] double rss_peak_mb() const;
  void stop();

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
  double setup_s_ = 0;
  std::array<double, 3> phases_ms_{};
};

/// Filesystem type name of the directory holding `dir` (tmpfs, ext4...).
std::string fs_type(const std::filesystem::path& dir);
/// The 1-minute load average, as /proc/loadavg prints it.
std::string load_average();

/// Machine-wide CPU time split from /proc/stat, in clock ticks.
struct CpuTicks {
  double total = 0;
  double steal = 0;  ///< time the hypervisor ran something else
};
CpuTicks cpu_ticks();

struct PhaseStats {
  std::uint64_t ops = 0;
  std::vector<double> latency_ms;  ///< successful ops only
  std::vector<std::int64_t> start_ns;  ///< when each of those ops began
  std::uint64_t bytes = 0;         ///< response body bytes
  /// Latencies by op kind (OpKind as int), for the per-kind summary.
  std::map<int, std::vector<double>> by_kind;
};

/// One connection's results.  Phase 0 is warm-up (not timed); 1 holds
/// the measured untraced ops, 2 the measured traced ones (a traced run
/// traces every other op of each connection).
struct ClientStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  std::array<PhaseStats, 3> phase;
  std::uint64_t jobs = 0;
  std::uint64_t polls = 0;
  std::uint64_t progress_short_at_done = 0;
  std::vector<Span> spans;          ///< traced phase: op and http spans
  std::vector<std::string> wires;   ///< sample of sent requests
};

class Driver {
 public:
  struct Config {
    Workload workload = Workload::kBrowse;
    std::uint64_t seed = 1;
    std::size_t clients = 1;
    /// Trace every other measured op and keep a sample of the requests.
    bool trace = false;
  };
  /// Phase boundaries on the steady clock.
  struct Phases {
    std::int64_t measure_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Shared;

  explicit Driver(Config cfg);
  ~Driver();

  /// Load the mirrors from a private copy of the library and compute
  /// the expected explore results.
  void prepare_checks(const std::filesystem::path& mirror_root);
  /// Browse: fetch every reference page from the freshly set-up site.
  void capture_references(std::uint16_t port);
  /// Run every client's closed loop until phases.end_ns.
  std::vector<ClientStats> drive(std::uint16_t port, const Phases& phases);

 private:
  Config cfg_;
  std::unique_ptr<Shared> shared_;
};

}  // namespace perfbench
