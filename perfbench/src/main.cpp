// ppbench — the PowerPlay end-to-end benchmark (README.md).
//
//   ppbench run --workload browse|edit|explore --seed N --seconds S
//               --trace 0|1 --work DIR --out DIR
//   ppbench check --work DIR --out DIR
//   ppbench site --data DIR [--spans FILE]       (started by `run`)
//
// `run` prints one line of machine facts, then as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
// the metrics are the end-to-end set, with --trace 1 the per-layer set
// from the traced replay.  It exits 1 when any reply was wrong.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "driver.hpp"
#include "engine/executor.hpp"
#include "engine/job.hpp"
#include "web/cache.hpp"
#include "web/client.hpp"
#include "web/server.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using powerplay::web::HttpConnection;

struct Args {
  std::string command;
  Workload workload = Workload::kBrowse;
  std::uint64_t seed = 1;
  double seconds = 25;  // BENCHMARK.json run_seconds
  bool trace = false;
  fs::path work;
  fs::path out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "ppbench: %s\nusage: ppbench run --workload W --seed N "
               "--seconds S --trace 0|1 --work DIR --out DIR\n"
               "       ppbench check --work DIR --out DIR\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) usage("missing command");
  a.command = argv[1];
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) usage(std::string(argv[i]) + " needs a value");
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        if (!parse_workload(value, a.workload)) usage("unknown workload " + value);
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = value == "1";
      } else if (flag == "--work") {
        a.work = value;
      } else if (flag == "--out") {
        a.out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (a.work.empty() || a.out.empty()) usage("--work and --out are required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

/// Connections per workload.  Edit uses one: two clients editing the
/// same library serialize on its exclusive lock and swing throughput
/// (README.md, "Choices").
std::size_t client_count(Workload w) {
  switch (w) {
    case Workload::kBrowse: return 4;
    case Workload::kEdit: return 1;
    case Workload::kExplore: return 2;
  }
  return 1;
}

/// The measured phase splits into this many equal windows.  Each
/// end-to-end timing is the better quartile of its per-window values
/// (the 3rd best of 10): interference from outside the site (hypervisor
/// steal, neighbours) only ever makes a window slower, so the least
/// disturbed windows are the steadiest estimate of the program's speed.
constexpr std::int64_t kWindows = 10;

/// The better quartile of per-window values: the lower one for a cost,
/// the upper one for a rate.
double better_quartile(const std::vector<double>& per_window, bool higher_is_better) {
  return percentile(per_window, higher_is_better ? 75 : 25);
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"ops_per_s", "1/s"},
    {"p50_ms", "ms"},         {"p90_ms", "ms"},
    {"cpu_ms_per_op", "ms"},  {"rss_peak_mb", "MB"}};

constexpr MetricSpec kPerLayer[] = {
    {"web.handle_us.p50", "us"},
    {"web.transport_us.p50", "us"},
    {"web.parse_us", "us"},
    {"web.cache.hit_ratio", "ratio"},
    {"web.cache.revalidations_per_op", "count"},
    {"web.cache.evictions_per_op", "count"},
    {"web.response_bytes_per_op", "B"},
    {"library.open_ms", "ms"},
    {"library.load_design_us.lum2", "us"},
    {"library.load_design_us.infopad", "us"},
    {"library.save_design_us.lum2", "us"},
    {"library.save_design_us.infopad", "us"},
    {"library.records_per_save", "count"},
    {"library.snapshot_writes_per_save", "count"},
    {"library.list_designs_us", "us"},
    {"sheet.play_us.lum2", "us"},
    {"sheet.play_us.infopad", "us"},
    {"sheet.plan_play_us.lum2", "us"},
    {"sheet.plan_play_us.infopad", "us"},
    {"sheet.plan_compile_us.lum2", "us"},
    {"sheet.plan_compile_us.infopad", "us"},
    {"sheet.batch_block_us.lum2", "us"},
    {"sheet.grid_render_us", "us"},
    {"engine.play_us.cold", "us"},
    {"engine.play_us.warm", "us"},
    {"engine.memo.hit_ratio", "ratio"},
    {"engine.batch.fallback_share", "ratio"},
    {"engine.batch.lane_replays_per_block", "count"},
    {"engine.batch.term_capture_share", "ratio"},
    {"engine.job.queue_ms.p50", "ms"},
    {"engine.job.run_ms.p50", "ms"},
    {"engine.job.polls_per_job", "count"},
    {"engine.job.result_bytes", "B"},
    {"engine.executor.queue_depth.max", "count"},
    {"engine.job.progress_short_at_done", "count"},
    {"explore.mc_points_per_s.infopad", "1/s"},
    {"trace.overhead_pct", "%"},
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

template <std::size_t N>
std::string metrics_json(const MetricSpec (&specs)[N],
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(specs[i].name);
    if (it == values.end()) {
      throw std::logic_error(std::string("metric not measured: ") +
                             specs[i].name);
    }
    if (i > 0) out += ", ";
    out += json_string(specs[i].name) + ": {\"value\": " +
           json_number(it->second) + ", \"unit\": " +
           json_string(specs[i].unit) + "}";
  }
  return out + "}";
}

/// /healthz as name -> value (numeric lines only).
std::map<std::string, double> healthz(std::uint16_t port) {
  HttpConnection conn(port);
  const auto r = conn.get("/healthz");
  std::map<std::string, double> out;
  std::istringstream lines(r.body);
  std::string line;
  while (std::getline(lines, line)) {
    const auto colon = line.find(": ");
    if (colon == std::string::npos) continue;
    try {
      out[line.substr(0, colon)] = std::stod(line.substr(colon + 2));
    } catch (const std::logic_error&) {
    }
  }
  return out;
}

void sleep_until_ns(std::int64_t t) {
  const std::int64_t left = t - now_ns();
  if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left));
}

std::vector<Span> read_site_spans(const fs::path& path) {
  std::vector<Span> spans;
  std::ifstream in(path);
  Span s;
  while (in >> s.id >> s.parent >> s.name >> s.start_ns >> s.end_ns) {
    spans.push_back(s);
  }
  return spans;
}

void write_spans(const fs::path& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "id\tparent\top\tname\tstart_ns\tend_ns\n";
  for (const Span& s : spans) {
    out << s.id << '\t' << s.parent << '\t' << s.op << '\t' << s.name << '\t'
        << s.start_ns << '\t' << s.end_ns << '\n';
  }
}

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  std::map<std::string, double> metrics;
};

/// One run of one workload: set-up (several times), load, metrics.
RunResult run_workload(const Args& a, bool quick) {
  const std::size_t clients = client_count(a.workload);
  // Set-ups before the load (the last one serves it) and after it: the
  // median over both ends of the run is robust to a burst at either.
  const std::size_t setups_before = a.trace ? 1 : 4;
  const std::size_t setups_after = a.trace ? 0 : 3;
  const std::size_t setups = setups_before + setups_after;
  const double warm_s = quick ? 0.2 : 1.0;
  const fs::path base = a.work / "base";
  fs::create_directories(a.work);
  fs::create_directories(a.out);
  const std::string loadavg = load_average();  // before our own load

  generate_library(base, a.seed);
  Driver::Config cfg;
  cfg.workload = a.workload;
  cfg.seed = a.seed;
  cfg.clients = clients;
  cfg.trace = a.trace;
  Driver driver(cfg);
  copy_tree(base, a.work / "mirror");
  driver.prepare_checks(a.work / "mirror");
  fs::remove_all(a.work / "mirror");

  const std::string tag = std::string(workload_name(a.workload)) + "-" +
                          std::to_string(a.seed);
  const fs::path site_spans = a.out / ("site-spans-" + tag + ".tsv");
  std::vector<double> setup_s;
  std::unique_ptr<SiteProcess> site;
  auto set_up = [&] {
    if (site) {
      site->stop();
      site.reset();
    }
    copy_tree(base, a.work / "site");
    site = std::make_unique<SiteProcess>(a.work / "site",
                                         a.trace ? site_spans.string() : "");
    setup_s.push_back(site->setup_s());
    const auto& ph = site->setup_phases_ms();
    std::fprintf(stderr,
                 "ppbench: set-up %.1f ms (open %.1f, registry+listen %.1f, "
                 "warm-up %.1f)\n",
                 site->setup_s() * 1e3, ph[0], ph[1], ph[2]);
  };
  for (std::size_t k = 0; k < setups_before; ++k) set_up();
  driver.capture_references(site->port());

  Driver::Phases phases;
  const std::int64_t t0 = now_ns();
  phases.measure_ns = t0 + static_cast<std::int64_t>(warm_s * 1e9);
  const std::int64_t run_ns = static_cast<std::int64_t>(a.seconds * 1e9);
  phases.end_ns = phases.measure_ns + run_ns;

  std::vector<ClientStats> stats;
  std::thread load([&] { stats = driver.drive(site->port(), phases); });
  // The site's CPU clock at every window boundary of the measured phase.
  const std::int64_t window_ns = run_ns / kWindows;
  std::vector<double> cpu_at;
  sleep_until_ns(phases.measure_ns);
  const CpuTicks ticks0 = cpu_ticks();
  std::map<std::string, double> h0, h1;
  if (a.trace) {
    h0 = healthz(site->port());
  } else {
    for (std::int64_t w = 0; w <= kWindows; ++w) {
      sleep_until_ns(phases.measure_ns + w * window_ns);
      cpu_at.push_back(site->cpu_s());
    }
  }
  load.join();
  const CpuTicks ticks1 = cpu_ticks();
  if (a.trace) h1 = healthz(site->port());
  const double rss = site->rss_peak_mb();
  for (std::size_t k = 0; k < setups_after; ++k) set_up();
  site->stop();
  site.reset();

  // Facts recorded with every run, so that runs compare across
  // commits; steal is the share of CPU time the hypervisor took from
  // this machine while the load ran.
  const double steal_pct =
      ticks1.total > ticks0.total
          ? 100.0 * (ticks1.steal - ticks0.steal) / (ticks1.total - ticks0.total)
          : 0.0;
  std::printf(
      "{\"facts\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"loadavg_1m\": %s, \"build_type\": %s, "
      "\"compiler\": %s, \"data_fs\": %s, \"clients\": %zu, "
      "\"site_workers\": %zu, \"site_queue\": %zu, \"executor_threads\": %zu, "
      "\"job_runners\": %zu, \"response_cache_entries\": %zu, "
      "\"setups\": %zu, \"steal_pct\": %s}}\n",
      json_string(workload_name(a.workload)).c_str(),
      static_cast<unsigned long long>(a.seed), json_number(a.seconds).c_str(),
      a.trace ? 1 : 0, std::thread::hardware_concurrency(),
      loadavg.c_str(), json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(__VERSION__).c_str(), json_string(fs_type(a.work)).c_str(),
      clients, powerplay::web::ServerOptions{}.worker_count,
      powerplay::web::ServerOptions{}.queue_capacity,
      powerplay::engine::ExecutorOptions{}.thread_count,
      powerplay::engine::JobOptions{}.runner_count,
      powerplay::web::ResponseCacheOptions{}.max_entries, setups,
      json_number(steal_pct).c_str());
  std::fflush(stdout);

  RunResult res;
  std::array<PhaseStats, 3> phase;
  std::uint64_t jobs = 0, polls = 0, short_done = 0;
  std::vector<Span> spans;
  std::vector<std::string> wires;
  for (ClientStats& c : stats) {
    res.attempted += c.attempted;
    res.failed += c.failed;
    if (res.first_failure.empty()) res.first_failure = c.first_failure;
    for (int p = 0; p < 3; ++p) {
      phase[p].ops += c.phase[p].ops;
      phase[p].bytes += c.phase[p].bytes;
      phase[p].latency_ms.insert(phase[p].latency_ms.end(),
                                 c.phase[p].latency_ms.begin(),
                                 c.phase[p].latency_ms.end());
      phase[p].start_ns.insert(phase[p].start_ns.end(),
                               c.phase[p].start_ns.begin(),
                               c.phase[p].start_ns.end());
      for (const auto& [kind, ms] : c.phase[p].by_kind) {
        auto& into = phase[p].by_kind[kind];
        into.insert(into.end(), ms.begin(), ms.end());
      }
    }
    jobs += c.jobs;
    polls += c.polls;
    short_done += c.progress_short_at_done;
    spans.insert(spans.end(), c.spans.begin(), c.spans.end());
    wires.insert(wires.end(), c.wires.begin(), c.wires.end());
  }
  auto& m = res.metrics;
  if (!a.trace) {
    const PhaseStats& p = phase[1];
    std::vector<std::vector<double>> in_window(kWindows);
    for (std::size_t i = 0; i < p.latency_ms.size(); ++i) {
      const std::int64_t w = (p.start_ns[i] - phases.measure_ns) / window_ns;
      if (w >= 0 && w < kWindows) in_window[w].push_back(p.latency_ms[i]);
    }
    std::vector<double> ops_per_s, p50, p90, cpu_per_op;
    for (std::int64_t w = 0; w < kWindows; ++w) {
      const auto& lat = in_window[w];
      const double ops = static_cast<double>(lat.size());
      ops_per_s.push_back(ops / (static_cast<double>(window_ns) * 1e-9));
      p50.push_back(percentile(lat, 50));
      p90.push_back(percentile(lat, 90));
      cpu_per_op.push_back(ops > 0 ? (cpu_at[w + 1] - cpu_at[w]) * 1e3 / ops : 0);
      std::fprintf(stderr,
                   "ppbench:   window %2lld: %7.1f ops/s  p50 %8.4f ms  "
                   "p90 %8.4f ms  cpu %7.4f ms/op\n",
                   static_cast<long long>(w), ops_per_s.back(), p50.back(),
                   p90.back(), cpu_per_op.back());
    }
    m["setup_s"] = median(setup_s);
    m["ops_per_s"] = better_quartile(ops_per_s, true);
    m["p50_ms"] = better_quartile(p50, false);
    m["p90_ms"] = better_quartile(p90, false);
    m["cpu_ms_per_op"] = better_quartile(cpu_per_op, false);
    m["rss_peak_mb"] = rss;
    // The same timings over the whole measured phase and as the median
    // window, so a slow-down confined to a few windows, which the better
    // quartile cannot show, stays visible in the run's output.
    std::vector<double> all_ms;
    for (const auto& lat : in_window) all_ms.insert(all_ms.end(), lat.begin(), lat.end());
    const double all_ops = static_cast<double>(all_ms.size());
    std::printf(
        "{\"whole_run\": {\"ops_per_s\": %s, \"p50_ms\": %s, \"p90_ms\": %s, "
        "\"cpu_ms_per_op\": %s}, \"window_median\": {\"ops_per_s\": %s, "
        "\"p50_ms\": %s, \"p90_ms\": %s, \"cpu_ms_per_op\": %s}}\n",
        json_number(all_ops / (static_cast<double>(kWindows * window_ns) * 1e-9)).c_str(),
        json_number(percentile(all_ms, 50)).c_str(),
        json_number(percentile(all_ms, 90)).c_str(),
        json_number(all_ops > 0 ? (cpu_at[kWindows] - cpu_at[0]) * 1e3 / all_ops : 0).c_str(),
        json_number(median(ops_per_s)).c_str(), json_number(median(p50)).c_str(),
        json_number(median(p90)).c_str(), json_number(median(cpu_per_op)).c_str());
    std::fflush(stdout);
    for (const auto& [kind, ms] : p.by_kind) {
      std::fprintf(stderr, "ppbench:   %-15s %7zu ops  p50 %8.3f ms  p90 %8.3f ms\n",
                   op_name(static_cast<OpKind>(kind)), ms.size(),
                   percentile(ms, 50), percentile(ms, 90));
    }
    std::fprintf(stderr,
                 "ppbench: %s seed %llu: %llu ops measured (%zu latency "
                 "samples; %.0f beyond p90), setups %s s\n",
                 workload_name(a.workload),
                 static_cast<unsigned long long>(a.seed),
                 static_cast<unsigned long long>(p.ops), p.latency_ms.size(),
                 std::floor(0.1 * static_cast<double>(p.latency_ms.size())),
                 [&] {
                   std::string s;
                   for (double v : setup_s) s += json_number(v).substr(0, 6) + " ";
                   return s;
                 }().c_str());
  } else {
    // Spans: client op and http spans joined with the site's handler
    // spans; an http span's self time is the transport around handle().
    std::vector<Span> site_side = read_site_spans(site_spans);
    std::vector<Span> all = spans;
    all.insert(all.end(), site_side.begin(), site_side.end());
    write_spans(a.out / ("spans-" + tag + ".tsv"), all);
    const std::vector<std::int64_t> self = self_times(all);
    std::vector<double> handle_us, transport_us;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (all[i].name == "web.handle") {
        handle_us.push_back(static_cast<double>(all[i].end_ns - all[i].start_ns) * 1e-3);
      } else if (all[i].name == "http") {
        transport_us.push_back(static_cast<double>(self[i]) * 1e-3);
      }
    }
    // The /healthz deltas and reply bytes cover every measured op,
    // traced or not.
    const double measured_ops = static_cast<double>(phase[1].ops + phase[2].ops);
    auto delta = [&](const char* key) { return h1[key] - h0[key]; };
    const double hits = delta("response_cache_hits");
    const double misses = delta("response_cache_misses");
    m["web.handle_us.p50"] = median(handle_us);
    m["web.transport_us.p50"] = median(transport_us);
    m["web.cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
    m["web.cache.revalidations_per_op"] =
        measured_ops > 0 ? delta("response_cache_revalidations") / measured_ops : 0;
    m["web.cache.evictions_per_op"] =
        measured_ops > 0 ? delta("response_cache_evictions") / measured_ops : 0;
    m["web.response_bytes_per_op"] =
        measured_ops > 0
            ? static_cast<double>(phase[1].bytes + phase[2].bytes) / measured_ops
            : 0;
    m["engine.job.polls_per_job"] =
        jobs > 0 ? static_cast<double>(polls) / static_cast<double>(jobs) : 0;
    m["engine.job.progress_short_at_done"] = static_cast<double>(short_done);
    // Both sets ran interleaved over the same period (every other op).
    const double untraced_p50 = percentile(phase[1].latency_ms, 50);
    const double traced_p50 = percentile(phase[2].latency_ms, 50);
    m["trace.overhead_pct"] =
        untraced_p50 > 0 ? (traced_p50 / untraced_p50 - 1.0) * 100.0 : 0;

    LayerInputs in;
    in.base = base;
    in.scratch = a.work / "layers";
    in.request_wires = std::move(wires);
    in.seed = a.seed;
    in.quick = quick;
    for (const auto& [k, v] : replay_layers(in)) m[k] = v;
  }
  fs::remove_all(a.work / "site");
  fs::remove_all(base);
  return res;
}

std::string result_line(const RunResult& r, bool trace) {
  const std::string metrics =
      trace ? metrics_json(kPerLayer, r.metrics) : metrics_json(kEndToEnd, r.metrics);
  return std::string("{\"correct\": ") + (r.failed == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + metrics + "}";
}

int run_main(const Args& a) {
  const RunResult r = run_workload(a, false);
  std::fprintf(stderr, "ppbench: attempted %llu, succeeded %llu, failed %llu\n",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.attempted - r.failed),
               static_cast<unsigned long long>(r.failed));
  if (r.failed > 0) {
    std::fprintf(stderr, "ppbench: first failure: %s\n", r.first_failure.c_str());
  }
  std::printf("%s\n", result_line(r, a.trace).c_str());
  return r.failed == 0 ? 0 : 1;
}

/// Correctness only: every workload briefly, untraced and traced, plus
/// the per-layer replay with few repetitions.  No timing is judged.
int check_main(Args a) {
  bool ok = true;
  for (const Workload w : {Workload::kBrowse, Workload::kEdit, Workload::kExplore}) {
    a.workload = w;
    a.seconds = 1.0;
    a.trace = true;
    const RunResult r = run_workload(a, true);
    std::printf("check %s: attempted %llu, succeeded %llu, failed %llu, "
                "%zu per-layer metrics\n",
                workload_name(w), static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.attempted - r.failed),
                static_cast<unsigned long long>(r.failed), r.metrics.size());
    if (r.failed > 0 || r.attempted == 0) {
      std::printf("check %s: first failure: %s\n", workload_name(w),
                  r.first_failure.c_str());
      ok = false;
    }
    (void)metrics_json(kPerLayer, r.metrics);  // every layer metric present
  }
  std::printf("check: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    if (argc >= 2 && std::strcmp(argv[1], "site") == 0) {
      return site_main(argc, argv);
    }
    const Args a = parse_args(argc, argv);
    if (a.command == "run") return run_main(a);
    if (a.command == "check") return check_main(a);
    usage("unknown command " + a.command);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ppbench: %s\n", e.what());
    return 1;
  }
}
