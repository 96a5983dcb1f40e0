// driver.cpp — the load generator and the end-to-end metrics.
//
// One process generates the library, starts the site (site.cpp) in a
// child process several times to time set-up, then drives it from a few
// keep-alive connections in a closed loop: each connection sends its
// next op only after the previous reply has been checked.  Every reply
// is checked for correctness (README.md, "Correctness"); a mismatch is a
// failed op.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "driver.hpp"
#include "explore/mc.hpp"
#include "explore/pareto.hpp"
#include "library/textio.hpp"
#include "models/berkeley_library.hpp"
#include "sheet/sweep.hpp"
#include "studies/infopad.hpp"
#include "studies/vq.hpp"
#include "units/units.hpp"
#include "web/client.hpp"

namespace perfbench {

using namespace powerplay;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// The generated library
// ---------------------------------------------------------------------------

namespace {

std::string variant_name(std::size_t k) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "v%04zu", k);
  return buf;
}

std::string designer_name(std::size_t u) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "designer%02zu", u);
  return buf;
}

/// Same rows and globals under another name (a user's own copy).
sheet::Design renamed(const sheet::Design& src, const std::string& name) {
  sheet::Design d(name, src.description());
  d.globals() = src.globals();
  d.rows() = src.rows();
  return d;
}

/// InfoPad under `name` with the radio, LCD and converter-efficiency
/// figures lifted into globals (radio_w, lcd_w, conv_eff) that their
/// rows read, so explore jobs can vary them and a Play with a new g_*
/// value changes the sheet.  Still the Fig 5 macro tree with the EQ 19
/// converter row.
sheet::Design infopad_with_globals(const model::ModelRegistry& lib,
                                   const std::string& name) {
  sheet::Design d = renamed(studies::make_infopad(lib), name);
  d.globals().set("radio_w", studies::kRadioWatts);
  d.globals().set("lcd_w", studies::kDisplayWatts);
  d.globals().set("conv_eff", studies::kConverterEfficiency);
  d.find_row("Radio Subsystem")->params.set_formula("p_typical", "radio_w");
  d.find_row("Display LCDs")->params.set_formula("p_typical", "lcd_w");
  d.find_row("Voltage Converters")
      ->params.set_formula("efficiency", "conv_eff");
  return d;
}

void save_profile(library::LibraryStore& store, const std::string& user,
                  std::vector<std::string> designs) {
  library::UserProfile p = store.ensure_user(user);
  p.designs = std::move(designs);
  store.save_user(p);
}

}  // namespace

LibraryNames library_names() {
  LibraryNames n;
  n.browse_designs = {"InfoPad_System", "Luminance_2", "Luminance_1"};
  for (std::size_t k = 0; k < Shape::kVariants; ++k) {
    n.browse_designs.push_back(variant_name(k));
  }
  for (std::size_t u = 0; u < Shape::kDesigners; ++u) {
    n.designers.push_back(designer_name(u));
  }
  return n;
}

std::shared_ptr<model::ModelRegistry> make_registry() {
  auto reg = std::make_shared<model::ModelRegistry>();
  models::add_berkeley_models(*reg);
  return reg;
}

void generate_library(const fs::path& root, std::uint64_t seed) {
  fs::remove_all(root);
  const auto reg = make_registry();
  library::LibraryStore store(root);
  const sheet::Design lum2 = studies::make_luminance_impl2(*reg);
  const sheet::Design infopad = studies::make_infopad(*reg);
  store.save_design(studies::make_luminance_impl1(*reg));
  store.save_design(lum2);
  store.save_design(infopad);

  // Variants: three Luminance_2 copies to one InfoPad copy, each with
  // seeded operating points.
  Rng rng(stream_seed(seed, "library", 0));
  for (std::size_t k = 0; k < Shape::kVariants; ++k) {
    if (k % 4 == 3) {
      sheet::Design d = renamed(infopad, variant_name(k));
      d.find_row("Radio Subsystem")
          ->params.set("p_typical", round_sig(0.2 + 0.4 * rng.uniform(), 4));
      d.find_row("Voltage Converters")
          ->params.set("efficiency", round_sig(0.7 + 0.25 * rng.uniform(), 4));
      store.save_design(d);
    } else {
      sheet::Design d = renamed(lum2, variant_name(k));
      d.globals().set("vdd", round_sig(1.1 + 2.2 * rng.uniform(), 4));
      d.globals().set("pixel_rate", round_sig(1e6 + 3e6 * rng.uniform(), 4));
      store.save_design(d);
    }
  }

  const LibraryNames names = library_names();
  for (std::size_t u = 0; u < Shape::kDesigners; ++u) {
    save_profile(store, names.designers[u],
                 {variant_name(u * 31 % Shape::kVariants),
                  variant_name((u * 31 + 7) % Shape::kVariants)});
  }
  for (std::size_t i = 0; i < Shape::kOtherEditDesigns; ++i) {
    store.save_design(renamed(lum2, LibraryNames::other_edit_design(i)));
  }
  for (std::size_t c = 0; c < Shape::kOtherEditDesigns / 2; ++c) {
    save_profile(store, LibraryNames::other_editor(c),
                 {LibraryNames::other_edit_design(2 * c),
                  LibraryNames::other_edit_design(2 * c + 1)});
  }
  store.save_design(infopad_with_globals(*reg, LibraryNames::kPlayInfoPad));
  store.save_design(renamed(lum2, LibraryNames::kPlayLum));
  save_profile(store, LibraryNames::kPlayer,
               {LibraryNames::kPlayInfoPad, LibraryNames::kPlayLum});
  store.save_design(infopad_with_globals(*reg, LibraryNames::kExploreInfoPad));
  store.save_design(renamed(lum2, LibraryNames::kExploreLum));
  save_profile(store, LibraryNames::kExplorer,
               {LibraryNames::kExploreInfoPad, LibraryNames::kExploreLum});
  save_profile(store, LibraryNames::kRefUser, {});
}

void copy_tree(const fs::path& from, const fs::path& to) {
  fs::remove_all(to);
  fs::create_directories(to.parent_path());
  fs::copy(from, to, fs::copy_options::recursive);
}

// ---------------------------------------------------------------------------
// Explore job specs
// ---------------------------------------------------------------------------

namespace {

std::string num(double v) { return library::number_text(v); }

/// Grid axes "name=from:to:points;..." as /design/explore reads them:
/// each axis a linspace(from, to, points).
std::vector<explore::ParetoAxis> parse_axes(const std::string& text) {
  std::vector<explore::ParetoAxis> out;
  std::istringstream items(text);
  std::string item;
  while (std::getline(items, item, ';')) {
    const auto eq = item.find('=');
    const auto c1 = item.find(':', eq);
    const auto c2 = item.find(':', c1 + 1);
    out.push_back({item.substr(0, eq),
                   sheet::linspace(std::stod(item.substr(eq + 1, c1 - eq - 1)),
                                   std::stod(item.substr(c1 + 1, c2 - c1 - 1)),
                                   std::stoi(item.substr(c2 + 1)))});
  }
  return out;
}

}  // namespace

JobSpec job_spec(OpKind kind, std::uint32_t index) {
  JobSpec s;
  s.kind = kind;
  s.form["user"] = LibraryNames::kExplorer;
  const double i = static_cast<double>(index);
  switch (kind) {
    case OpKind::kGridSweep:
      s.route = "/design/sweep";
      s.form["name"] = LibraryNames::kExploreLum;
      s.form["x_param"] = "vdd";
      s.form["x_from"] = num(1.0 + 0.05 * i);
      s.form["x_to"] = "3.3";
      s.form["x_points"] = "64";
      s.form["y_param"] = "pixel_rate";
      s.form["y_from"] = "1000000";
      s.form["y_to"] = num(4.0e6 + 1.0e5 * i);
      s.form["y_points"] = "64";
      s.result_format = "csv";
      break;
    case OpKind::kMonteCarlo:
      s.route = "/design/explore";
      s.form["name"] = LibraryNames::kExploreInfoPad;
      s.form["mode"] = "mc";
      s.form["params"] =
          "radio_w=uniform(0.2,0.6);lcd_w=normal(0.446,0.05);"
          "conv_eff=uniform(0.7,0.9)";
      s.form["samples"] = "1000";
      s.form["seed"] = std::to_string(index + 1);
      s.form["budget"] = "3.3";
      s.result_format = "json";
      break;
    case OpKind::kPareto:
      s.route = "/design/explore";
      s.form["name"] = LibraryNames::kExploreInfoPad;
      s.form["mode"] = "pareto";
      s.form["axes"] = "conv_eff=0.7:0.95:16;radio_w=0.2:" +
                       num(0.6 + 0.05 * i) + ":16";
      s.form["objectives"] = "power,max:radio_w";
      s.result_format = "json";
      break;
    default:
      throw std::logic_error("job_spec: not an explore op");
  }
  return s;
}

JobOutput run_job_locally(const JobSpec& spec, const sheet::Design& design,
                          engine::EvalEngine& engine,
                          const sheet::SweepProgress& progress) {
  const auto& f = spec.form;
  switch (spec.kind) {
    case OpKind::kGridSweep: {
      const auto xs = sheet::linspace(std::stod(f.at("x_from")),
                                      std::stod(f.at("x_to")), 64);
      const auto ys = sheet::linspace(std::stod(f.at("y_from")),
                                      std::stod(f.at("y_to")), 64);
      const sheet::ColumnarGrid g = engine.sweep_grid_columnar(
          design, "vdd", xs, "pixel_rate", ys, progress);
      return {sheet::grid_table(g), sheet::grid_csv(g), sheet::grid_json(g)};
    }
    case OpKind::kMonteCarlo: {
      explore::McSpec mc;
      mc.params = explore::parse_dist_params(f.at("params"));
      mc.samples = std::stoul(f.at("samples"));
      mc.seed = std::stoull(f.at("seed"));
      mc.budget_w = std::stod(f.at("budget"));
      const explore::McResult r =
          explore::run_monte_carlo(engine, design, mc, progress);
      return {explore::mc_table(r), explore::mc_csv(r), explore::mc_json(r)};
    }
    case OpKind::kPareto: {
      explore::ParetoSpec ps;
      ps.axes = parse_axes(f.at("axes"));
      std::vector<std::string> names;
      for (const explore::ParetoAxis& a : ps.axes) names.push_back(a.param);
      std::istringstream objectives(f.at("objectives"));
      std::string objective;
      while (std::getline(objectives, objective, ',')) {
        ps.objectives.push_back(explore::parse_objective(objective, names));
      }
      const explore::ParetoResult r =
          explore::run_pareto(engine, design, ps, progress);
      return {explore::pareto_table(r), explore::pareto_csv(r),
              explore::pareto_json(r)};
    }
    default:
      throw std::logic_error("run_job_locally: not an explore op");
  }
}

// ---------------------------------------------------------------------------
// The site child process
// ---------------------------------------------------------------------------

SiteProcess::SiteProcess(const fs::path& data, const std::string& spans) {
  int in_pipe[2];
  int out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0 || ::pipe2(out_pipe, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  const std::string exe = fs::read_symlink("/proc/self/exe").string();
  std::vector<std::string> args = {exe, "site", "--data", data.string()};
  if (!spans.empty()) {
    args.push_back("--spans");
    args.push_back(spans);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const std::int64_t start = now_ns();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // Child: only async-signal-safe calls until exec.
    ::dup2(in_pipe[0], 0);
    ::dup2(out_pipe[1], 1);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  stdin_fd_ = in_pipe[1];
  stdout_fd_ = out_pipe[0];

  // Wait for "ready <port>\n".
  std::string line;
  while (line.find('\n') == std::string::npos) {
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, 120'000) <= 0) {
      stop();
      throw std::runtime_error("site did not become ready");
    }
    char buf[128];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof buf);
    if (n <= 0) {
      stop();
      throw std::runtime_error("site exited during set-up");
    }
    line.append(buf, static_cast<std::size_t>(n));
  }
  setup_s_ = static_cast<double>(now_ns() - start) * 1e-9;
  unsigned port = 0;
  if (std::sscanf(line.c_str(), "ready %u %lf %lf %lf", &port, &phases_ms_[0],
                  &phases_ms_[1], &phases_ms_[2]) != 4) {
    stop();
    throw std::runtime_error("unexpected site output: " + line);
  }
  port_ = static_cast<std::uint16_t>(port);
}

SiteProcess::~SiteProcess() { stop(); }

double SiteProcess::cpu_s() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  // Fields 3..13 precede utime (14) and stime (15).
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double SiteProcess::rss_peak_mb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

void SiteProcess::stop() {
  if (pid_ <= 0) return;
  if (stdin_fd_ >= 0) ::close(stdin_fd_);
  stdin_fd_ = -1;
  int status = 0;
  bool exited = false;
  for (int i = 0; i < 3000 && !exited; ++i) {  // up to 30 s
    exited = ::waitpid(pid_, &status, WNOHANG) == pid_;
    if (!exited) ::usleep(10'000);
  }
  if (!exited) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
  pid_ = -1;
}

// ---------------------------------------------------------------------------
// Facts recorded with every run
// ---------------------------------------------------------------------------

std::string fs_type(const fs::path& dir) {
  struct statfs sf {};
  if (::statfs(dir.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0x01021994ul: return "tmpfs";
    case 0xEF53ul: return "ext4";
    case 0x794c7630ul: return "overlayfs";
    case 0x9123683Eul: return "btrfs";
    case 0x58465342ul: return "xfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  std::string first;
  in >> first;
  return first.empty() ? "0" : first;
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  double v = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Load generation and checking
// ---------------------------------------------------------------------------

namespace {

std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
  std::size_t pos = 0;
  while ((pos = text.find(from, pos)) != std::string::npos) {
    text.replace(pos, from.size(), to);
    pos += to.size();
  }
  return text;
}

/// The TOTAL row render_design emits for `result`.
std::string total_row(const sheet::PlayResult& result) {
  const double energy = result.total.energy_per_op.si();
  return "<tr><td>TOTAL</td><td></td><td></td><td>" +
         (energy > 0 ? units::format_si(energy, "J") : std::string("-")) +
         "</td><td>" + units::format_si(result.total.total_power().si(), "W") +
         "</td></tr>";
}

/// The Fig 4 form compute: the array multiplier at 16 bits and 1.5 V,
/// or 32 bits and 3.3 V (i < Shape::kModelForms).
std::string model_form_target(std::size_t i, const std::string& user) {
  const char* bits = i == 0 ? "16" : "32";
  return "/model?user=" + user + "&name=array_multiplier&p_bitwidthA=" +
         bits + "&p_bitwidthB=" + bits + "&p_vdd=" + (i == 0 ? "1.5" : "3.3") +
         "&p_f=2000000";
}

web::Response must_get(web::HttpConnection& conn, const std::string& target) {
  web::Response r = conn.get(target);
  if (r.status != 200) {
    throw std::runtime_error("GET " + target + " answered " +
                             std::to_string(r.status));
  }
  return r;
}

}  // namespace

/// Everything the clients read but never write during the load.
struct Driver::Shared {
  LibraryNames names;
  // Browse references, captured from the site at set-up.  Pages that
  // name their user were fetched as kRefUser (or kNewRefUser).
  std::vector<std::string> ref_design, ref_csv, ref_api, ref_model;
  std::vector<std::string> ref_menu;  // per designer
  std::string ref_library, ref_new_menu;
  // Explore: specs and the benchmark's own results for them.
  std::map<std::pair<int, std::uint32_t>, JobSpec> specs;
  std::map<std::pair<int, std::uint32_t>, std::string> expected;
  // Mirrors of every edited or explored design, as generated.
  std::map<std::string, sheet::Design> designs;
};

namespace {

/// Checks edit replies against the benchmark's own Design::play on a
/// helper thread, in op order, so the closed loop never waits for the
/// benchmark's own Play between two ops.
class MirrorChecker {
 public:
  explicit MirrorChecker(std::map<std::string, sheet::Design> mirrors)
      : mirrors_(std::move(mirrors)), thread_([this] { loop(); }) {}
  ~MirrorChecker() { stop(); }
  MirrorChecker(const MirrorChecker&) = delete;
  MirrorChecker& operator=(const MirrorChecker&) = delete;

  /// Apply `edit` to the mirror of `design`, then expect its TOTAL row
  /// in `reply`.
  void push(std::string design, std::function<void(sheet::Design&)> edit,
            std::string reply) {
    std::lock_guard lock(mutex_);
    queue_.push_back({std::move(design), std::move(edit), std::move(reply)});
    cv_.notify_one();
  }

  /// Finish every pushed check; fold the failures into `out`.
  void finish(ClientStats& out) {
    stop();
    out.failed += failed_;
    if (out.first_failure.empty() && !first_failure_.empty()) {
      out.first_failure = first_failure_;
    }
  }

 private:
  struct Check {
    std::string design;
    std::function<void(sheet::Design&)> edit;
    std::string reply;
  };

  void stop() {
    {
      std::lock_guard lock(mutex_);
      done_ = true;
      cv_.notify_one();
    }
    if (thread_.joinable()) thread_.join();
  }

  void loop() {
    std::unique_lock lock(mutex_);
    while (true) {
      cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
      if (queue_.empty()) return;
      Check c = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      std::string why;
      try {
        sheet::Design& mirror = mirrors_.at(c.design);
        c.edit(mirror);
        if (c.reply.find(total_row(mirror.play())) == std::string::npos) {
          why = "TOTAL differs from the benchmark's own Design::play";
        }
      } catch (const std::exception& e) {
        why = e.what();
      }
      lock.lock();
      if (!why.empty()) {
        failed_ += 1;
        if (first_failure_.empty()) first_failure_ = c.design + ": " + why;
      }
    }
  }

  std::map<std::string, sheet::Design> mirrors_;  // only the thread touches
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Check> queue_;
  bool done_ = false;
  std::uint64_t failed_ = 0;
  std::string first_failure_;
  std::thread thread_;  // last: starts once the members above exist
};

/// One connection's closed loop.
class Client {
 public:
  Client(const Driver::Config& cfg, const Driver::Shared& shared,
         std::size_t conn, std::uint16_t port)
      : cfg_(cfg),
        shared_(shared),
        conn_(conn),
        http_(port),
        ops_(cfg.workload, cfg.seed, conn),
        checker_(shared.designs) {}

  /// Run ops until `end_ns`; phase boundaries decide where each op's
  /// latency lands.
  void run(const Driver::Phases& phases, ClientStats& out) {
    while (true) {
      const std::int64_t start = now_ns();
      if (start >= phases.end_ns) break;
      // Traced and untraced ops alternate, so drift over the run and
      // host interference fall on both sets alike.
      const bool measured = start >= phases.measure_ns;
      tracing_ = cfg_.trace && measured && measured_ops_++ % 2 == 1;
      const int phase = !measured ? 0 : tracing_ ? 2 : 1;
      op_span_ = tracing_ ? next_span_id() : 0;
      const Op op = ops_.next();
      bytes_ = 0;
      first_send_ns_ = 0;
      last_reply_ns_ = 0;
      bool ok = false;
      std::string why;
      try {
        ok = execute(op, out, why);
      } catch (const std::exception& e) {
        why = e.what();
        http_.close();
      }
      // An op's latency runs from its first request to its last reply:
      // the user's wait, without the harness's own checking work.
      const std::int64_t end = last_reply_ns_ > 0 ? last_reply_ns_ : now_ns();
      const std::int64_t begin = first_send_ns_ > 0 ? first_send_ns_ : start;
      out.attempted += 1;
      if (!ok) {
        out.failed += 1;
        if (out.first_failure.empty()) {
          out.first_failure = std::string(op_name(op.kind)) + ": " + why;
        }
      }
      if (phase > 0) {
        PhaseStats& ps = out.phase[phase];
        ps.ops += 1;
        if (ok) {
          const double ms = static_cast<double>(end - begin) * 1e-6;
          ps.latency_ms.push_back(ms);
          ps.start_ns.push_back(begin);
          ps.by_kind[static_cast<int>(op.kind)].push_back(ms);
        }
        ps.bytes += bytes_;
        if (tracing_) {
          out.spans.push_back({op_span_, 0, op_span_, "op", begin, end});
        }
      }
    }
    checker_.finish(out);
  }

 private:
  std::uint64_t next_span_id() {
    return (static_cast<std::uint64_t>(conn_ + 1) << 48) | ++span_counter_;
  }

  web::Response send(web::Request req, ClientStats& out) {
    std::uint64_t id = 0;
    if (tracing_) {
      id = next_span_id();
      req.headers[kSpanHeader] = std::to_string(id);
    }
    if (cfg_.trace && out.wires.size() < 2000) {
      out.wires.push_back(web::to_wire(req));
    }
    const std::int64_t start = now_ns();
    web::Response r = http_.roundtrip(req);
    last_reply_ns_ = now_ns();
    if (first_send_ns_ == 0) first_send_ns_ = start;
    if (tracing_) {
      out.spans.push_back({id, op_span_, op_span_, "http", start, last_reply_ns_});
    }
    bytes_ += r.body.size();
    return r;
  }

  web::Response get(const std::string& target, ClientStats& out) {
    web::Request req;
    req.target = target;
    return send(std::move(req), out);
  }

  web::Response post(const std::string& path,
                     const std::map<std::string, std::string>& form,
                     ClientStats& out) {
    web::Request req;
    req.method = "POST";
    req.target = path;
    req.headers["content-type"] = "application/x-www-form-urlencoded";
    req.body = web::to_query(form);
    return send(std::move(req), out);
  }

  static bool body_is(const web::Response& r, const std::string& expected,
                      std::string& why) {
    if (r.status != 200) {
      why = "status " + std::to_string(r.status);
      return false;
    }
    if (r.body != expected) {
      why = "body differs from reference";
      return false;
    }
    return true;
  }

  /// POST an edit; the checker applies it to the mirror and checks the
  /// re-rendered sheet's TOTAL row against the mirror's own Play.
  bool edit(const std::string& route, const std::string& user,
            const std::string& design,
            std::map<std::string, std::string> form,
            std::function<void(sheet::Design&)> apply, ClientStats& out,
            std::string& why) {
    form["user"] = user;
    form["name"] = design;
    web::Response r = post(route, form, out);
    if (r.status != 200) {
      why = "status " + std::to_string(r.status);
      return false;
    }
    checker_.push(design, std::move(apply), std::move(r.body));
    return true;
  }

  bool execute(const Op& op, ClientStats& out, std::string& why) {
    const LibraryNames& n = shared_.names;
    const std::string user =
        op.user < n.designers.size() ? n.designers[op.user] : "";
    switch (op.kind) {
      case OpKind::kDesignPage:
        return body_is(
            get("/design?user=" + user + "&name=" +
                    n.browse_designs[op.target], out),
            replace_all(shared_.ref_design[op.target],
                        LibraryNames::kRefUser, user),
            why);
      case OpKind::kDesignCsv:
        return body_is(
            get("/design/csv?name=" + n.browse_designs[op.target], out),
            shared_.ref_csv[op.target], why);
      case OpKind::kApiDesign:
        return body_is(
            get("/api/design?name=" + n.browse_designs[op.target], out),
            shared_.ref_api[op.target], why);
      case OpKind::kModelForm:
        return body_is(get(model_form_target(op.target, user), out),
                       replace_all(shared_.ref_model[op.target],
                                   LibraryNames::kRefUser, user),
                       why);
      case OpKind::kMenu:
        return body_is(get("/menu?user=" + user, out),
                       shared_.ref_menu[op.user], why);
      case OpKind::kLibrary:
        return body_is(get("/library?user=" + user, out),
                       replace_all(shared_.ref_library,
                                   LibraryNames::kRefUser, user),
                       why);
      case OpKind::kOtherEdit: {
        const double v = op.value;
        return edit("/design/play", LibraryNames::other_editor(conn_),
                    LibraryNames::other_edit_design(2 * conn_ + op.target % 2),
                    {{"g_vdd", num(v)}},
                    [v](sheet::Design& d) { d.globals().set("vdd", v); }, out,
                    why);
      }
      case OpKind::kNewUser: {
        const std::string fresh = "newuser_" + std::to_string(conn_) + "_" +
                                  std::to_string(++new_users_);
        return body_is(get("/menu?user=" + fresh, out),
                       replace_all(shared_.ref_new_menu,
                                   LibraryNames::kNewRefUser, fresh),
                       why);
      }
      case OpKind::kInfoPadSetRow:
      case OpKind::kLumSetRow: {
        // InfoPad set-rows leave the rows that read the globals alone,
        // so every Play below still changes the sheet.
        static const char* const kInfoPadRows[][2] = {
            {"Support Electronics", "p_typical"},
            {"Other IO Devices", "p_typical"}};
        static const char* const kLumRows[][2] = {
            {"Look Up Table", "bits"}, {"Hold Register", "bits"}};
        const bool infopad = op.kind == OpKind::kInfoPadSetRow;
        const std::string row =
            infopad ? kInfoPadRows[op.choice][0] : kLumRows[op.choice][0];
        const std::string param =
            infopad ? kInfoPadRows[op.choice][1] : kLumRows[op.choice][1];
        const double v = op.value;
        return edit("/design/setrow", LibraryNames::kPlayer,
                    infopad ? LibraryNames::kPlayInfoPad
                            : LibraryNames::kPlayLum,
                    {{"row", row}, {"param", param}, {"value", num(v)}},
                    [row, param, v](sheet::Design& d) {
                      d.find_row(row)->params.set(param, v);
                    },
                    out, why);
      }
      case OpKind::kInfoPadPlay:
      case OpKind::kLumPlay: {
        static const char* const kInfoPadGlobals[] = {"radio_w", "lcd_w",
                                                      "conv_eff"};
        static const char* const kLumGlobals[] = {"vdd", "pixel_rate"};
        const bool infopad = op.kind == OpKind::kInfoPadPlay;
        const std::string global =
            infopad ? kInfoPadGlobals[op.choice] : kLumGlobals[op.choice];
        const double v = op.value;
        return edit("/design/play", LibraryNames::kPlayer,
                    infopad ? LibraryNames::kPlayInfoPad
                            : LibraryNames::kPlayLum,
                    {{"g_" + global, num(v)}},
                    [global, v](sheet::Design& d) { d.globals().set(global, v); },
                    out, why);
      }
      case OpKind::kGridSweep:
      case OpKind::kMonteCarlo:
      case OpKind::kPareto:
        return job(op, out, why);
    }
    why = "unknown op";
    return false;
  }

  /// Submit, poll /job until done, fetch the result, compare it with the
  /// benchmark's own EvalEngine result for the same spec.
  bool job(const Op& op, ClientStats& out, std::string& why) {
    const auto key = std::make_pair(static_cast<int>(op.kind), op.target);
    const JobSpec& spec = shared_.specs.at(key);
    const web::Response submitted = post(spec.route, spec.form, out);
    unsigned long long id = 0;
    if (submitted.status != 200 ||
        std::sscanf(submitted.body.c_str(), "id: %llu", &id) != 1) {
      why = "submit answered " + std::to_string(submitted.status);
      return false;
    }
    const std::string poll = "/job?id=" + std::to_string(id);
    const std::int64_t give_up = now_ns() + 60'000'000'000;
    while (true) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const web::Response r = get(poll, out);
      out.polls += 1;
      if (r.status != 200) {
        why = "poll answered " + std::to_string(r.status);
        return false;
      }
      if (r.body.find("status: done\n") != std::string::npos) {
        unsigned long long done = 0;
        unsigned long long total = 0;
        const auto at = r.body.find("progress: ");
        if (at != std::string::npos &&
            std::sscanf(r.body.c_str() + at, "progress: %llu/%llu", &done,
                        &total) == 2 &&
            done < total) {
          out.progress_short_at_done += 1;  // the known progress race
        }
        break;
      }
      if (r.body.find("status: failed") != std::string::npos ||
          r.body.find("status: cancelled") != std::string::npos) {
        why = "job did not finish: " + r.body.substr(0, 200);
        return false;
      }
      if (now_ns() > give_up) {
        why = "job still running after 60 s";
        return false;
      }
    }
    out.jobs += 1;
    const web::Response result =
        get(poll + "&format=" + spec.result_format, out);
    const std::string& expected = shared_.expected.at(key);
    if (result.status != 200) {
      why = "result answered " + std::to_string(result.status);
      return false;
    }
    const bool same =
        spec.result_format == "csv"
            ? result.body == expected
            : result.body.size() > expected.size() &&
                  result.body.compare(result.body.size() - expected.size(),
                                      expected.size(), expected) == 0;
    if (!same) why = "result differs from the benchmark's own EvalEngine";
    return same;
  }

  const Driver::Config& cfg_;
  const Driver::Shared& shared_;
  std::size_t conn_;
  web::HttpConnection http_;
  OpStream ops_;
  MirrorChecker checker_;
  std::uint64_t new_users_ = 0;
  std::uint64_t measured_ops_ = 0;
  std::uint64_t span_counter_ = 0;
  std::uint64_t op_span_ = 0;
  std::size_t bytes_ = 0;
  std::int64_t first_send_ns_ = 0;
  std::int64_t last_reply_ns_ = 0;
  bool tracing_ = false;
};

}  // namespace

Driver::Driver(Config cfg) : cfg_(std::move(cfg)), shared_(new Shared) {
  shared_->names = library_names();
}

Driver::~Driver() = default;

void Driver::prepare_checks(const fs::path& mirror_root) {
  // The mirrors: every design an op edits or explores, loaded the way
  // the site loads it.
  const auto reg = make_registry();
  library::LibraryStore store(mirror_root);
  std::vector<std::string> names = {
      LibraryNames::kPlayInfoPad, LibraryNames::kPlayLum,
      LibraryNames::kExploreInfoPad, LibraryNames::kExploreLum};
  for (std::size_t i = 0; i < Shape::kOtherEditDesigns; ++i) {
    names.push_back(LibraryNames::other_edit_design(i));
  }
  for (const std::string& n : names) {
    shared_->designs.emplace(n, *store.load_design(n, *reg));
  }

  if (cfg_.workload == Workload::kExplore) {
    engine::EvalEngine engine;
    for (const MixEntry& e : op_mix(Workload::kExplore)) {
      const std::uint32_t count =
          e.kind == OpKind::kGridSweep    ? Shape::kGridSpecs
          : e.kind == OpKind::kMonteCarlo ? Shape::kMcSpecs
                                          : Shape::kParetoSpecs;
      for (std::uint32_t i = 0; i < count; ++i) {
        const JobSpec spec = job_spec(e.kind, i);
        const sheet::Design& d = shared_->designs.at(spec.form.at("name"));
        const JobOutput o = run_job_locally(spec, d, engine);
        const auto key = std::make_pair(static_cast<int>(e.kind), i);
        shared_->specs.emplace(key, spec);
        // CSV bodies compare whole; JSON job views end with the result.
        shared_->expected.emplace(
            key, spec.result_format == "csv" ? o.csv
                                             : ",\"result\":" + o.json + "}\n");
      }
    }
  }
}

void Driver::capture_references(std::uint16_t port) {
  if (cfg_.workload != Workload::kBrowse) return;
  Shared& s = *shared_;
  const std::size_t n = s.names.browse_designs.size();
  s.ref_design.resize(n);
  s.ref_csv.resize(n);
  s.ref_api.resize(n);
  const std::string ref = LibraryNames::kRefUser;
  std::vector<std::thread> threads;
  std::mutex error_mutex;
  std::string error;
  for (std::size_t t = 0; t < cfg_.clients; ++t) {
    threads.emplace_back([&, t] {
      try {
        web::HttpConnection conn(port);
        for (std::size_t i = t; i < n; i += cfg_.clients) {
          const std::string& d = s.names.browse_designs[i];
          s.ref_design[i] =
              must_get(conn, "/design?user=" + ref + "&name=" + d).body;
          s.ref_csv[i] = must_get(conn, "/design/csv?name=" + d).body;
          s.ref_api[i] = must_get(conn, "/api/design?name=" + d).body;
        }
      } catch (const std::exception& e) {
        std::lock_guard lock(error_mutex);
        error = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (!error.empty()) throw std::runtime_error("reference capture: " + error);

  web::HttpConnection conn(port);
  for (std::size_t i = 0; i < Shape::kModelForms; ++i) {
    s.ref_model.push_back(must_get(conn, model_form_target(i, ref)).body);
  }
  for (const std::string& u : s.names.designers) {
    s.ref_menu.push_back(must_get(conn, "/menu?user=" + u).body);
  }
  s.ref_library = must_get(conn, "/library?user=" + ref).body;
  s.ref_new_menu =
      must_get(conn, std::string("/menu?user=") + LibraryNames::kNewRefUser)
          .body;
}

std::vector<ClientStats> Driver::drive(std::uint16_t port,
                                       const Phases& phases) {
  std::vector<ClientStats> stats(cfg_.clients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < cfg_.clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        Client client(cfg_, *shared_, c, port);
        client.run(phases, stats[c]);
      } catch (const std::exception& e) {
        stats[c].failed += 1;
        stats[c].first_failure = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return stats;
}

}  // namespace perfbench
