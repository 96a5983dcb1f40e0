// Concurrency tests of the web application: many client threads
// hammering a live HttpServer with a mix of per-user mutations and
// shared-library reads, plus the async sweep-job flow end to end.
// These are the tests the `web_tsan` target runs under ThreadSanitizer
// (POWERPLAY_SANITIZE=thread) to prove the session/library locking and
// the engine's executor, cache and job manager are race-free.
#include "web/app.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "explore/inverse.hpp"
#include "explore/mc.hpp"
#include "explore/pareto.hpp"
#include "explore/surrogate.hpp"
#include "sheet/report.hpp"
#include "sheet/sweep.hpp"
#include "studies/infopad.hpp"
#include "studies/vq.hpp"
#include "web/client.hpp"
#include "web/server.hpp"

namespace powerplay::web {
namespace {

namespace fs = std::filesystem;

/// Work for a job that holds its runner until open() (or the gate's
/// destruction, so a failed assertion never leaves the runner parked).
class RunnerGate {
 public:
  RunnerGate() : state_(std::make_shared<State>()) {}
  ~RunnerGate() { open(); }
  RunnerGate(const RunnerGate&) = delete;
  RunnerGate& operator=(const RunnerGate&) = delete;

  [[nodiscard]] engine::JobManager::Work work() const {
    return [state = state_](const engine::JobManager::Progress&) {
      std::unique_lock lock(state->mutex);
      state->cv.wait(lock, [&] { return state->open; });
      return engine::JobResult{};
    };
  }

  void open() {
    {
      std::lock_guard lock(state_->mutex);
      state_->open = true;
    }
    state_->cv.notify_all();
  }

 private:
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool open = false;
  };
  std::shared_ptr<State> state_;
};

struct ConcurrencyFixture : ::testing::Test {
  fs::path dir;
  std::unique_ptr<PowerPlayApp> app;
  std::unique_ptr<HttpServer> server;

  void SetUp() override {
    static int counter = 0;
    dir = fs::temp_directory_path() /
          ("pp_conc_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++));
    fs::create_directories(dir);
    app = std::make_unique<PowerPlayApp>(library::LibraryStore(dir));
    ServerOptions options;
    options.worker_count = 8;  // real request concurrency
    server = std::make_unique<HttpServer>(
        0, [this](const Request& r) { return app->handle(r); }, options);
    app->set_stats_source([this] { return server->stats(); });
    server->start();
  }

  void TearDown() override {
    server->stop();
    fs::remove_all(dir);
  }

  [[nodiscard]] Response get(const std::string& target) const {
    return http_get(server->port(), target);
  }
  [[nodiscard]] Response post(const std::string& path,
                              const Params& form) const {
    return http_post_form(server->port(), path, form);
  }

  /// Submit a job and poll it until it is done; returns its id.
  std::string run_job(const std::string& path, const Params& form) const {
    const Response submit = post(path, form);
    EXPECT_EQ(submit.status, 200) << submit.body;
    const std::string id = submit.body.substr(4, submit.body.find('\n') - 4);
    for (int i = 0; i < 1000; ++i) {
      if (get("/job?id=" + id).body.find("status: done") !=
          std::string::npos) {
        return id;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ADD_FAILURE() << "job " << id << " never finished";
    return id;
  }

  /// The one-register design "D" at the profile defaults (vdd, f).
  [[nodiscard]] sheet::Design register_design() const {
    EXPECT_EQ(post("/design/add", {{"user", "dl"},
                                   {"model", "register"},
                                   {"design", "D"},
                                   {"row", "R"},
                                   {"p_bits", "8"},
                                   {"p_f", "1000000"}})
                  .status,
              200);
    return sheet::Design(*app->store().load_design("D", app->registry()));
  }
};

/// What the three reads of a done job must return, byte for byte:
/// the table body, the CSV body and the JSON `result` (empty: the
/// reply has no `result`).
struct Rendered {
  std::string table;
  std::string csv;
  std::string json;
};

/// The JSON reply's `result` value, or "" when it has none.
std::string json_result(const std::string& body) {
  const auto at = body.find(",\"result\":");
  if (at == std::string::npos) return {};
  EXPECT_EQ(body.substr(body.size() - 2), "}\n");
  return body.substr(at + 10, body.size() - 2 - at - 10);
}

// N client threads, each its own user, interleaving per-user mutations
// (design add/play) with shared reads (library, export API).  Every
// response must be well-formed and belong to the requesting user — a
// cross-user bleed or a torn spreadsheet fails the integrity asserts.
TEST_F(ConcurrencyFixture, ParallelUsersKeepResponseIntegrity) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([this, t, &failures] {
      const std::string user = "user" + std::to_string(t);
      const std::string design = "chip" + std::to_string(t);
      for (int round = 0; round < kRounds; ++round) {
        // Per-user mutation: grow this user's private design.
        const Response add =
            post("/design/add", {{"user", user},
                                 {"model", "register"},
                                 {"design", design},
                                 {"row", "R" + std::to_string(round)},
                                 {"p_bits", "8"},
                                 {"p_f", "1000000"}});
        if (add.status != 200 ||
            add.body.find(design) == std::string::npos ||
            add.body.find("R" + std::to_string(round)) ==
                std::string::npos) {
          ++failures;
        }
        // Per-user recompute with a user-specific voltage.
        const Response play = post(
            "/design/play",
            {{"user", user}, {"name", design}, {"g_vdd", "2.0"}});
        if (play.status != 200 ||
            play.body.find("TOTAL") == std::string::npos) {
          ++failures;
        }
        // Shared reads, concurrent with everyone's mutations.
        const Response menu = get("/menu?user=" + user);
        if (menu.status != 200 ||
            menu.body.find(user) == std::string::npos) {
          ++failures;
        }
        const Response lib = get("/library?user=" + user);
        if (lib.status != 200 ||
            lib.body.find("register") == std::string::npos) {
          ++failures;
        }
        // The export API lists every stored design, this user's included.
        const Response api = get("/api/designs");
        if (api.status != 200 ||
            api.body.find(design) == std::string::npos) {
          ++failures;
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);

  // Every user's design survived with all of its rows.
  for (int t = 0; t < kThreads; ++t) {
    const std::string design = "chip" + std::to_string(t);
    ASSERT_TRUE(app->store().has_design(design)) << design;
    const auto d = app->store().load_design(design, app->registry());
    EXPECT_EQ(d->rows().size(), static_cast<std::size_t>(kRounds));
  }
}

// The async job flow over live HTTP: submit a grid sweep, poll until
// done, fetch the CSV, and see it listed for the user.
TEST_F(ConcurrencyFixture, SweepJobRunsToCompletion) {
  ASSERT_EQ(post("/design/add", {{"user", "dl"},
                                 {"model", "register"},
                                 {"design", "Grid"},
                                 {"row", "Reg"},
                                 {"p_bits", "8"},
                                 {"p_f", "1000000"}})
                .status,
            200);

  const Response submit = post("/design/sweep", {{"user", "dl"},
                                                 {"name", "Grid"},
                                                 {"x_param", "vdd"},
                                                 {"x_from", "1.0"},
                                                 {"x_to", "3.0"},
                                                 {"x_points", "4"},
                                                 {"y_param", "f"},
                                                 {"y_from", "1e6"},
                                                 {"y_to", "4e6"},
                                                 {"y_points", "4"}});
  ASSERT_EQ(submit.status, 200) << submit.body;
  ASSERT_EQ(submit.body.rfind("id: ", 0), 0u) << submit.body;
  const std::string id =
      submit.body.substr(4, submit.body.find('\n') - 4);

  // Poll until done (the grid is tiny; generous timeout for slow CI).
  std::string status;
  for (int i = 0; i < 500; ++i) {
    const Response poll = get("/job?id=" + id);
    ASSERT_EQ(poll.status, 200) << poll.body;
    const auto line = poll.body.find("status: ");
    ASSERT_NE(line, std::string::npos);
    status = poll.body.substr(line + 8,
                              poll.body.find('\n', line) - line - 8);
    if (status == "done" || status == "failed") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(status, "done");

  const Response done = get("/job?id=" + id);
  EXPECT_NE(done.body.find("progress: 16/16"), std::string::npos)
      << done.body;
  // The result table is the grid matrix headed "x \ y".
  const Response table = get("/job?id=" + id + "&format=table");
  EXPECT_NE(table.body.find("vdd \\ f"), std::string::npos) << table.body;

  const Response csv = get("/job?id=" + id + "&format=csv");
  EXPECT_EQ(csv.status, 200);
  EXPECT_EQ(csv.content_type, "text/csv");
  EXPECT_EQ(csv.body.rfind("vdd,f,total_power_w,energy_per_op_j\n", 0),
            0u)
      << csv.body;
  // Header + 4x4 data lines.
  EXPECT_EQ(std::count(csv.body.begin(), csv.body.end(), '\n'), 17);

  const Response jobs = get("/jobs?user=dl");
  EXPECT_EQ(jobs.status, 200);
  EXPECT_NE(jobs.body.find("sweep Grid: vdd x f"), std::string::npos)
      << jobs.body;
  EXPECT_TRUE(get("/jobs?user=nobody").body.empty());
}

TEST_F(ConcurrencyFixture, SweepJobValidation) {
  post("/design/add", {{"user", "dl"},
                       {"model", "register"},
                       {"design", "V"},
                       {"row", "R"},
                       {"p_bits", "4"},
                       {"p_f", "1000000"}});
  // Typo'd global rejected at submit time, not as a failed job.
  EXPECT_EQ(post("/design/sweep", {{"user", "dl"},
                                   {"name", "V"},
                                   {"x_param", "vdd_typo"},
                                   {"x_from", "1"},
                                   {"x_to", "2"},
                                   {"x_points", "3"}})
                .status,
            400);
  // Unknown design.
  EXPECT_EQ(post("/design/sweep", {{"user", "dl"},
                                   {"name", "NoSuch"},
                                   {"x_param", "vdd"},
                                   {"x_from", "1"},
                                   {"x_to", "2"},
                                   {"x_points", "3"}})
                .status,
            404);
  // Grid + row is a contradiction.
  EXPECT_EQ(post("/design/sweep", {{"user", "dl"},
                                   {"name", "V"},
                                   {"x_param", "vdd"},
                                   {"x_from", "1"},
                                   {"x_to", "2"},
                                   {"x_points", "2"},
                                   {"y_param", "f"},
                                   {"y_from", "1e6"},
                                   {"y_to", "2e6"},
                                   {"y_points", "2"},
                                   {"row", "R"}})
                .status,
            400);
  // Point counts must be integers in [1, 256]; stod accepts "nan",
  // "inf" and "1e300", which must answer 400 before any cast to int.
  for (const char* points : {"0", "257", "2.5", "nan", "inf", "1e300"}) {
    EXPECT_EQ(post("/design/sweep", {{"user", "dl"},
                                     {"name", "V"},
                                     {"x_param", "vdd"},
                                     {"x_from", "1"},
                                     {"x_to", "2"},
                                     {"x_points", points}})
                  .status,
              400)
        << points;
  }
  // Bad and missing job ids.
  EXPECT_EQ(get("/job?id=notanumber").status, 400);
  EXPECT_EQ(get("/job?id=999999").status, 404);
}

// The three kinds of 1-D sweep job — a global, a row parameter the row
// binds, and a model-default row parameter the row does not bind — run
// on the columnar engine.  Each job's CSV must be byte-for-byte the
// serial interpreter sweep rendered by sheet::sweep_csv.
TEST_F(ConcurrencyFixture, OneDimensionalSweepJobCsvMatchesSerialSweep) {
  ASSERT_EQ(post("/design/add", {{"user", "dl"},
                                 {"model", "register"},
                                 {"design", "Line"},
                                 {"row", "Reg"},
                                 {"p_bits", "16"},
                                 {"p_f", "2000000"}})
                .status,
            200);
  const auto design = app->store().load_design("Line", app->registry());
  ASSERT_TRUE(design->find_row("Reg")->params.has_local("bits"));
  ASSERT_FALSE(design->find_row("Reg")->params.has_local("alpha"));

  const auto csv_of = [this](Params form) {
    form.emplace("user", "dl");
    form.emplace("name", "Line");
    const Response submit = post("/design/sweep", form);
    EXPECT_EQ(submit.status, 200) << submit.body;
    const std::string id = submit.body.substr(4, submit.body.find('\n') - 4);
    for (int i = 0; i < 500; ++i) {
      if (get("/job?id=" + id).body.find("status: done") !=
          std::string::npos) {
        return get("/job?id=" + id + "&format=csv").body;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "job " << id << " never finished";
    return std::string();
  };

  // 65 points: one full lane block plus a single-point block.
  EXPECT_EQ(csv_of({{"x_param", "vdd"},
                    {"x_from", "1.0"},
                    {"x_to", "3.0"},
                    {"x_points", "65"}}),
            sheet::sweep_csv(sheet::to_columns(
                "vdd", sheet::sweep_global(*design, "vdd",
                                           sheet::linspace(1.0, 3.0, 65)))));
  EXPECT_EQ(csv_of({{"row", "Reg"},
                    {"x_param", "bits"},
                    {"x_from", "4"},
                    {"x_to", "64"},
                    {"x_points", "16"}}),
            sheet::sweep_csv(sheet::to_columns(
                "bits", sheet::sweep_row_param(*design, "Reg", "bits",
                                               sheet::linspace(4, 64, 16)))));
  EXPECT_EQ(csv_of({{"row", "Reg"},
                    {"x_param", "alpha"},
                    {"x_from", "0.05"},
                    {"x_to", "1"},
                    {"x_points", "100"}}),
            sheet::sweep_csv(sheet::to_columns(
                "alpha",
                sheet::sweep_row_param(*design, "Reg", "alpha",
                                       sheet::linspace(0.05, 1, 100)))));
}

// Several users submit sweep jobs at once while others keep reading;
// all jobs finish, none bleed across user listings.
TEST_F(ConcurrencyFixture, ParallelSweepJobs) {
  constexpr int kUsers = 4;
  for (int t = 0; t < kUsers; ++t) {
    const std::string user = "swp" + std::to_string(t);
    ASSERT_EQ(post("/design/add", {{"user", user},
                                   {"model", "register"},
                                   {"design", "D" + std::to_string(t)},
                                   {"row", "R"},
                                   {"p_bits", "8"},
                                   {"p_f", "1000000"}})
                  .status,
              200);
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kUsers; ++t) {
    clients.emplace_back([this, t, &failures] {
      const std::string user = "swp" + std::to_string(t);
      const Response submit =
          post("/design/sweep", {{"user", user},
                                 {"name", "D" + std::to_string(t)},
                                 {"x_param", "vdd"},
                                 {"x_from", "1.0"},
                                 {"x_to", "3.0"},
                                 {"x_points", "5"}});
      if (submit.status != 200) {
        ++failures;
        return;
      }
      const std::string id =
          submit.body.substr(4, submit.body.find('\n') - 4);
      for (int i = 0; i < 500; ++i) {
        const Response poll = get("/job?id=" + id);
        if (poll.body.find("status: done") != std::string::npos) {
          const Response jobs = get("/jobs?user=" + user);
          // Exactly this user's one job appears in their listing.
          if (jobs.body.find("sweep D" + std::to_string(t)) ==
                  std::string::npos ||
              jobs.body.find("sweep D" +
                             std::to_string((t + 1) % kUsers)) !=
                  std::string::npos) {
            ++failures;
          }
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      ++failures;  // timed out
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  app->jobs().wait_idle();
}

// Hammer over the lane-batched columnar grid path: several users each
// submit a multi-block grid sweep (crossing the 64-lane block width)
// and poll to completion while workers stream column blocks
// concurrently.  Every table, CSV and JSON payload must come back
// well-formed, and /healthz must account for the batched points.
TEST_F(ConcurrencyFixture, BatchedSweepJobHammer) {
  constexpr int kUsers = 4;
  for (int t = 0; t < kUsers; ++t) {
    const std::string user = "bat" + std::to_string(t);
    ASSERT_EQ(post("/design/add", {{"user", user},
                                   {"model", "register"},
                                   {"design", "B" + std::to_string(t)},
                                   {"row", "R"},
                                   {"p_bits", "8"},
                                   {"p_f", "1000000"}})
                  .status,
              200);
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kUsers; ++t) {
    clients.emplace_back([this, t, &failures] {
      const std::string user = "bat" + std::to_string(t);
      // 12x12 = 144 points: several lane blocks per job, user-specific
      // axis ranges so no two jobs share cached state.
      const double lo = 1.0 + 0.1 * t;
      const Response submit = post(
          "/design/sweep",
          {{"user", user},
           {"name", "B" + std::to_string(t)},
           {"x_param", "vdd"},
           {"x_from", std::to_string(lo)},
           {"x_to", std::to_string(lo + 2.0)},
           {"x_points", "12"},
           {"y_param", "f"},
           {"y_from", "1e6"},
           {"y_to", "4e6"},
           {"y_points", "12"}});
      if (submit.status != 200) {
        ++failures;
        return;
      }
      const std::string id =
          submit.body.substr(4, submit.body.find('\n') - 4);
      for (int i = 0; i < 500; ++i) {
        const Response poll = get("/job?id=" + id);
        if (poll.body.find("status: done") != std::string::npos) {
          if (poll.body.find("progress: 144/144") == std::string::npos) {
            ++failures;
          }
          const Response csv = get("/job?id=" + id + "&format=csv");
          // Header + 144 data lines off the column arrays.
          if (csv.status != 200 ||
              std::count(csv.body.begin(), csv.body.end(), '\n') != 145) {
            ++failures;
          }
          const Response json = get("/job?id=" + id + "&format=json");
          if (json.status != 200 ||
              json.body.find("\"power_w\":[") == std::string::npos) {
            ++failures;
          }
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      ++failures;  // timed out
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  app->jobs().wait_idle();

  // The batch substrate served all four grids and /healthz says so.
  const Response health = get("/healthz");
  for (const char* key :
       {"batch_points_total", "batch_lane_width: 64",
        "batch_scalar_fallbacks_total", "columnar_bytes_streamed_total"}) {
    EXPECT_NE(health.body.find(key), std::string::npos) << key;
  }
  const auto counters = app->engine().batch_counters();
  EXPECT_GE(counters.points, static_cast<std::uint64_t>(kUsers) * 144u);
  EXPECT_GT(counters.blocks, 0u);
}

// N threads, each hammering a mixed read workload over ONE persistent
// keep-alive connection.  Every response must be well-formed and match
// its request; the server must actually have reused connections rather
// than silently falling back to close-per-request.
TEST_F(ConcurrencyFixture, KeepAliveHammer) {
  constexpr int kThreads = 6;
  constexpr int kRounds = 20;
  // Seed a design so the read mix has real pages to render.
  ASSERT_EQ(post("/design/add", {{"user", "ka"},
                                 {"model", "register"},
                                 {"design", "KA"},
                                 {"row", "R0"},
                                 {"p_bits", "8"},
                                 {"p_f", "1000000"}})
                .status,
            200);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([this, t, &failures] {
      try {
        HttpConnection conn(server->port());
        for (int round = 0; round < kRounds; ++round) {
          const Response lib = conn.get("/library?user=ka");
          if (lib.status != 200 ||
              lib.body.find("register") == std::string::npos) {
            ++failures;
          }
          const Response design = conn.get("/design?user=ka&name=KA");
          if (design.status != 200 ||
              design.body.find("TOTAL") == std::string::npos) {
            ++failures;
          }
          const Response api = conn.get("/api/designs");
          if (api.status != 200 ||
              api.body.find("KA") == std::string::npos) {
            ++failures;
          }
          (void)t;
        }
      } catch (const HttpError&) {
        ++failures;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server->connections_reused(), static_cast<std::uint64_t>(kThreads));
  EXPECT_GE(server->requests_served(),
            static_cast<std::uint64_t>(kThreads * kRounds * 3));
}

// The response cache serves byte-identical pages with a stable strong
// ETag, answers If-None-Match with 304, and a mutation observably
// invalidates the entry: fresh body, new ETag.
TEST_F(ConcurrencyFixture, ResponseCacheInvalidationOnMutation) {
  ASSERT_EQ(post("/design/add", {{"user", "cv"},
                                 {"model", "register"},
                                 {"design", "CV"},
                                 {"row", "R0"},
                                 {"p_bits", "8"},
                                 {"p_f", "1000000"}})
                .status,
            200);

  const std::string target = "/design/csv?user=cv&name=CV";
  const Response first = get(target);
  ASSERT_EQ(first.status, 200);
  const std::string etag = first.headers.at("etag");
  ASSERT_FALSE(etag.empty());

  // Warm hit: byte-identical body, same ETag.
  const Response second = get(target);
  EXPECT_EQ(second.body, first.body);
  EXPECT_EQ(second.headers.at("etag"), etag);

  // Conditional GET with the matching tag: 304, empty body.
  Request conditional;
  conditional.target = target;
  conditional.headers["if-none-match"] = etag;
  const Response not_modified =
      http_request(server->port(), conditional);
  EXPECT_EQ(not_modified.status, 304);
  EXPECT_TRUE(not_modified.body.empty());
  EXPECT_EQ(not_modified.headers.at("etag"), etag);

  // Mutate the design: the cached entry must not survive.
  ASSERT_EQ(post("/design/play",
                 {{"user", "cv"}, {"name", "CV"}, {"g_vdd", "2.5"}})
                .status,
            200);
  const Response after = get(target);
  ASSERT_EQ(after.status, 200);
  EXPECT_NE(after.body, first.body);       // fresh render, new voltage
  EXPECT_NE(after.headers.at("etag"), etag);  // and a new strong ETag
  // The old tag no longer matches: a conditional GET gets a full 200.
  const Response revalidate = http_request(server->port(), conditional);
  EXPECT_EQ(revalidate.status, 200);
  EXPECT_EQ(revalidate.body, after.body);

  // An unrelated commit (a different user's design) bumps the store
  // revision but not a stamp this page read: the entry stays a hit,
  // keeping body and ETag stable.
  ASSERT_EQ(post("/design/add", {{"user", "bystander"},
                                 {"model", "register"},
                                 {"design", "Elsewhere"},
                                 {"row", "R0"}})
                .status,
            200);
  const Response still = get(target);
  EXPECT_EQ(still.body, after.body);
  EXPECT_EQ(still.headers.at("etag"), after.headers.at("etag"));

  // /healthz reports the new serving counters.
  const Response health = get("/healthz");
  for (const char* key :
       {"connections_reused", "parser_resumes", "responses_cached",
        "etag_304s", "response_cache_entries", "response_cache_bytes"}) {
    EXPECT_NE(health.body.find(key), std::string::npos) << key;
  }
}

/// The TOTAL row of a design page as rendered, or "" when it has none.
std::string total_row(const std::string& page) {
  const auto at = page.find("<td>TOTAL</td>");
  if (at == std::string::npos) return {};
  return page.substr(at, page.find("</tr>", at) - at);
}

// Readers of cached design and menu pages run beside /design/play
// writers.  Once a writer's POST has returned, no later GET of that
// design shows an older TOTAL: the writer's own next GET shows the
// TOTAL its POST rendered, and a reader's GET never shows a TOTAL from
// before the last edit that had returned when the GET was sent.
TEST_F(ConcurrencyFixture, CachedPagesNeverLagACompletedEdit) {
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kEdits = 20;
  struct Track {
    std::mutex mutex;
    /// TOTAL rows in commit order: the first design's (at the profile's
    /// vdd of 1.5 V), then one per returned edit.  Strictly rising vdd
    /// from 2.1 V makes each one new.
    std::vector<std::string> totals;
  };
  std::array<Track, kWriters> tracks;
  for (int w = 0; w < kWriters; ++w) {
    const Response add = post("/design/add",
                              {{"user", "hw" + std::to_string(w)},
                               {"model", "register"},
                               {"design", "HM" + std::to_string(w)},
                               {"row", "R"},
                               {"p_bits", "8"}});
    ASSERT_EQ(add.status, 200) << add.body;
    tracks[w].totals.push_back(total_row(add.body));
  }

  std::atomic<int> writers_left{kWriters};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      const std::string user = "hw" + std::to_string(w);
      const std::string design = "HM" + std::to_string(w);
      const std::string page = "/design?user=" + user + "&name=" + design;
      try {
        HttpConnection conn(server->port());
        for (int k = 1; k <= kEdits; ++k) {
          const Response play =
              post("/design/play", {{"user", user},
                                    {"name", design},
                                    {"g_vdd", std::to_string(2.0 + 0.1 * k)}});
          const std::string total = total_row(play.body);
          if (play.status != 200 || total.empty()) {
            ++failures;
            continue;
          }
          {
            std::lock_guard lock(tracks[w].mutex);
            tracks[w].totals.push_back(total);
          }
          if (total_row(conn.get(page).body) != total) ++failures;
        }
      } catch (const HttpError&) {
        ++failures;
      }
      --writers_left;
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      const std::string reader = "rd" + std::to_string(r);
      try {
        HttpConnection conn(server->port());
        for (int i = 0; i < 5 || writers_left.load() > 0; ++i) {
          const int w = (r + i) % kWriters;
          const std::string design = "HM" + std::to_string(w);
          Track& track = tracks[w];
          std::size_t returned = 0;
          {
            std::lock_guard lock(track.mutex);
            returned = track.totals.size();
          }
          const Response page =
              conn.get("/design?user=" + reader + "&name=" + design);
          const std::string total = total_row(page.body);
          bool stale = page.status != 200 || total.empty();
          {
            std::lock_guard lock(track.mutex);
            for (std::size_t g = 0; g + 1 < returned; ++g) {
              stale = stale || track.totals[g] == total;
            }
          }
          if (stale) ++failures;
          const Response menu = conn.get("/menu?user=hw" + std::to_string(w));
          if (menu.status != 200 ||
              menu.body.find(design) == std::string::npos) {
            ++failures;
          }
        }
      } catch (const HttpError&) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  for (const Track& track : tracks) {
    EXPECT_EQ(track.totals.size(), static_cast<std::size_t>(kEdits + 1));
  }
  // The readers were served from the cache between edits.
  const std::string health = get("/healthz").body;
  const auto hits_at = health.find("\nresponse_cache_hits: ");
  ASSERT_NE(hits_at, std::string::npos);
  EXPECT_GT(std::stoull(health.substr(hits_at + 22)), 0u);
}

// Readers of InfoPad variants run beside a writer that edits the
// shared Luminance_2 macro itself through /design/setrow, and beside a
// second writer pressing Play on its own InfoPad copy.  Every read must
// render the tree of one whole Luminance_2 generation, never one older
// than the last edit that had returned when the read was sent; the copy
// edits, which skip the macros the store holds, never revert the macro.
TEST_F(ConcurrencyFixture, HeldMacrosNeverLagACompletedMacroEdit) {
  constexpr int kVariants = 3;
  constexpr int kReaders = 4;
  constexpr int kEdits = 15;
  const model::ModelRegistry& reg = app->registry();
  const sheet::Design pad = studies::make_infopad(reg);
  const auto variant = [&](int v) {
    sheet::Design d("Pad_v" + std::to_string(v), pad.description());
    d.globals() = pad.globals();
    d.globals().set("vdd", 3.0 + 0.5 * v);
    d.rows() = pad.rows();
    return d;
  };
  app->store().save_design(pad);
  for (int v = 0; v <= kVariants; ++v) app->store().save_design(variant(v));

  // The CSV of every variant with Luminance_2's hold register at
  // 24 + g bits: generation g is what edit g commits (0 = as saved).
  std::vector<std::array<std::string, kVariants>> expected;
  std::vector<std::string> lum_csv;
  for (int g = 0; g <= kEdits; ++g) {
    sheet::Design lum = studies::make_luminance_impl2(reg);
    lum.find_row("Hold Register")->params.set("bits", 24.0 + g);
    const auto shared_lum = std::make_shared<const sheet::Design>(lum);
    sheet::Design chipset = studies::make_custom_chipset(reg);
    chipset.find_row("Luminance Chip")->macro = shared_lum;
    chipset.find_row("Chrominance Chip")->macro = shared_lum;
    const auto shared_chipset =
        std::make_shared<const sheet::Design>(chipset);
    auto& row = expected.emplace_back();
    for (int v = 0; v < kVariants; ++v) {
      sheet::Design d = variant(v);
      d.find_row("Custom Hardware")->macro = shared_chipset;
      row[v] = sheet::to_csv(d.play());
    }
    lum_csv.push_back(sheet::to_csv(lum.play()));
  }

  std::atomic<int> returned{0};  // macro edits that have returned
  std::atomic<bool> writing{true};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int g = 1; g <= kEdits; ++g) {
      const Response edit =
          post("/design/setrow", {{"user", "lw"},
                                  {"name", "Luminance_2"},
                                  {"row", "Hold Register"},
                                  {"param", "bits"},
                                  {"value", std::to_string(24 + g)}});
      if (edit.status != 200) ++failures;
      returned.store(g);
    }
    writing.store(false);
  });
  threads.emplace_back([&] {
    const std::string copy = "Pad_v" + std::to_string(kVariants);
    for (int k = 0; writing.load(); ++k) {
      const Response play =
          post("/design/play", {{"user", "cw"},
                                {"name", copy},
                                {"g_vdd", std::to_string(2.0 + 0.01 * k)}});
      if (play.status != 200) ++failures;
    }
  });
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      try {
        HttpConnection conn(server->port());
        for (int i = 0; i < 5 || writing.load(); ++i) {
          const int v = (r + i) % kVariants;
          const int floor = returned.load();
          const Response csv =
              conn.get("/design/csv?name=Pad_v" + std::to_string(v));
          bool fresh = false;
          for (int g = floor; g <= kEdits; ++g) {
            fresh = fresh || csv.body == expected[g][v];
          }
          if (csv.status != 200 || !fresh) ++failures;
          const Response page = conn.get("/design?user=rd" +
                                         std::to_string(r) + "&name=Pad_v" +
                                         std::to_string(v));
          if (page.status != 200) ++failures;
        }
      } catch (const HttpError&) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(get("/design/csv?name=Luminance_2").body, lum_csv[kEdits]);
  for (int v = 0; v < kVariants; ++v) {
    EXPECT_EQ(get("/design/csv?name=Pad_v" + std::to_string(v)).body,
              expected[kEdits][v]);
  }
}

// /healthz reports the engine, cache, job-lifecycle and store-
// durability counters.
TEST_F(ConcurrencyFixture, HealthzReportsEngineStats) {
  const Response r = get("/healthz");
  EXPECT_EQ(r.status, 200);
  for (const char* key :
       {"cache_hits", "cache_misses", "cache_evictions", "cache_size",
        "engine_threads", "engine_tasks_executed", "engine_queue_depth",
        "jobs_queued", "jobs_running", "jobs_done", "jobs_failed",
        "jobs_cancelled", "jobs_cancelled_total",
        "jobs_deadline_expired_total", "journal_appends",
        "journal_replayed", "journal_rotations", "snapshot_writes",
        "quarantined_files"}) {
    EXPECT_NE(r.body.find(key), std::string::npos) << key;
  }
}

// Every job kind keeps its typed result and renders on read: each of
// the three reads equals the renderers run over the engine's own
// result for the same spec, and a kind with no JSON form still leaves
// `result` out of the JSON reply.
TEST_F(ConcurrencyFixture, EveryJobKindRendersOnReadByteForByte) {
  const sheet::Design d = register_design();
  engine::EvalEngine& engine = app->engine();
  const auto expect_reads = [this](const std::string& id,
                                   const Rendered& want) {
    SCOPED_TRACE("job " + id);
    const Response poll = get("/job?id=" + id);
    ASSERT_NE(poll.body.find("status: done"), std::string::npos);
    const Response table = get("/job?id=" + id + "&format=table");
    EXPECT_EQ(table.status, 200);
    EXPECT_EQ(table.body, want.table);
    const Response csv = get("/job?id=" + id + "&format=csv");
    EXPECT_EQ(csv.status, 200);
    EXPECT_EQ(csv.body, want.csv);
    const Response json = get("/job?id=" + id + "&format=json");
    EXPECT_EQ(json.status, 200);
    EXPECT_EQ(json_result(json.body), want.json);
    if (want.json.empty()) {
      EXPECT_EQ(json.body.find("\"result\""), std::string::npos)
          << json.body;
    }
  };

  const std::vector<double> xs = sheet::linspace(1.0, 3.0, 8);
  const std::vector<double> ys = sheet::linspace(1e6, 4e6, 8);
  const sheet::ColumnarGrid grid =
      engine.sweep_grid_columnar(d, "vdd", xs, "f", ys);
  expect_reads(run_job("/design/sweep", {{"user", "dl"},
                                         {"name", "D"},
                                         {"x_param", "vdd"},
                                         {"x_from", "1"},
                                         {"x_to", "3"},
                                         {"x_points", "8"},
                                         {"y_param", "f"},
                                         {"y_from", "1e6"},
                                         {"y_to", "4e6"},
                                         {"y_points", "8"}}),
               {sheet::grid_table(grid), sheet::grid_csv(grid),
                sheet::grid_json(grid)});

  const sheet::ColumnarSweep global =
      engine.sweep_columnar(d, "", "vdd", xs);
  expect_reads(run_job("/design/sweep", {{"user", "dl"},
                                         {"name", "D"},
                                         {"x_param", "vdd"},
                                         {"x_from", "1"},
                                         {"x_to", "3"},
                                         {"x_points", "8"}}),
               {sheet::sweep_table(global), sheet::sweep_csv(global), ""});

  const std::vector<double> bits = sheet::linspace(4, 32, 8);
  const sheet::ColumnarSweep row = engine.sweep_columnar(d, "R", "bits", bits);
  expect_reads(run_job("/design/sweep", {{"user", "dl"},
                                         {"name", "D"},
                                         {"row", "R"},
                                         {"x_param", "bits"},
                                         {"x_from", "4"},
                                         {"x_to", "32"},
                                         {"x_points", "8"}}),
               {sheet::sweep_table(row), sheet::sweep_csv(row), ""});

  explore::McSpec mc;
  mc.params = explore::parse_dist_params(
      "vdd=uniform(1.35,1.65);f=choice(1e6,2e6,4e6)");
  mc.samples = 200;
  mc.seed = 3;
  mc.budget_w = 1e-4;
  const explore::McResult mc_result = explore::run_monte_carlo(engine, d, mc);
  expect_reads(
      run_job("/design/explore",
              {{"user", "dl"},
               {"name", "D"},
               {"mode", "mc"},
               {"params", "vdd=uniform(1.35,1.65);f=choice(1e6,2e6,4e6)"},
               {"samples", "200"},
               {"seed", "3"},
               {"budget", "1e-4"}}),
      {explore::mc_table(mc_result), explore::mc_csv(mc_result),
       explore::mc_json(mc_result)});

  explore::ParetoSpec pareto;
  pareto.axes = {{"vdd", sheet::linspace(1.2, 1.8, 3)},
                 {"f", sheet::linspace(1e6, 2e6, 2)}};
  pareto.objectives = {explore::parse_objective("power", {"vdd", "f"}),
                       explore::parse_objective("max:f", {"vdd", "f"})};
  const explore::ParetoResult front = explore::run_pareto(engine, d, pareto);
  expect_reads(run_job("/design/explore",
                       {{"user", "dl"},
                        {"name", "D"},
                        {"mode", "pareto"},
                        {"axes", "vdd=1.2:1.8:3;f=1e6:2e6:2"},
                        {"objectives", "power,max:f"}}),
               {explore::pareto_table(front), explore::pareto_csv(front),
                explore::pareto_json(front)});

  explore::InverseSpec inverse;
  inverse.param = "vdd";
  inverse.lo = 1.2;
  inverse.hi = 1.8;
  inverse.limit = 1e-5;
  const explore::InverseResult answer =
      explore::solve_inverse(engine, d, inverse);
  expect_reads(run_job("/design/explore", {{"user", "dl"},
                                           {"name", "D"},
                                           {"mode", "inverse"},
                                           {"param", "vdd"},
                                           {"lo", "1.2"},
                                           {"hi", "1.8"},
                                           {"limit", "1e-5"}}),
               {explore::inverse_table(inverse, answer),
                explore::inverse_csv(inverse, answer), ""});

  explore::FitSpec fit;
  fit.model_name = "d_power";
  fit.params = explore::parse_dist_params("vdd=uniform(1.2,1.8)");
  fit.samples = 64;
  const explore::FitResult fitted = explore::fit_surrogate(engine, d, fit);
  expect_reads(run_job("/design/explore",
                       {{"user", "dl"},
                        {"name", "D"},
                        {"mode", "fit"},
                        {"model", "d_power"},
                        {"params", "vdd=uniform(1.2,1.8)"},
                        {"samples", "64"}}),
               {explore::fit_table(fitted), explore::fit_csv(fitted), ""});
}

// A done grid job holds its columns, not rendered text: a get() hands
// out the shared result without rendering or copying bytes, and grid
// CSV/JSON bytes count as streamed when a reader renders them.
TEST_F(ConcurrencyFixture, DoneGridJobIsSharedAndRenderedOnlyOnRead) {
  (void)register_design();
  const std::string id = run_job("/design/sweep", {{"user", "dl"},
                                                   {"name", "D"},
                                                   {"x_param", "vdd"},
                                                   {"x_from", "1"},
                                                   {"x_to", "3"},
                                                   {"x_points", "64"},
                                                   {"y_param", "f"},
                                                   {"y_from", "1e6"},
                                                   {"y_to", "4e6"},
                                                   {"y_points", "64"}});
  const auto streamed = [this] {
    const std::string body = get("/healthz").body;
    const std::string key = "columnar_bytes_streamed_total: ";
    const auto at = body.find(key);
    EXPECT_NE(at, std::string::npos);
    return std::stoull(body.substr(at + key.size()));
  };
  const std::uint64_t before = streamed();
  const auto first = app->jobs().get(std::stoull(id));
  const auto second = app->jobs().get(std::stoull(id));
  ASSERT_TRUE(first.has_value() && second.has_value());
  ASSERT_NE(first->result.body(), nullptr);
  EXPECT_EQ(first->result.body(), second->result.body());
  EXPECT_EQ(streamed(), before);  // no get rendered anything

  const std::string csv = get("/job?id=" + id + "&format=csv").body;
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 64 * 64 + 1);
  EXPECT_EQ(streamed(), before + csv.size());
  (void)get("/job?id=" + id + "&format=table");  // not CSV or JSON
  EXPECT_EQ(streamed(), before + csv.size());
}

// Eight readers render all three formats of one done job at once (the
// renders run on the HTTP workers): every reply is whole and equal.
TEST_F(ConcurrencyFixture, ConcurrentReadersOfOneDoneJob) {
  (void)register_design();
  const std::string id = run_job("/design/sweep", {{"user", "dl"},
                                                   {"name", "D"},
                                                   {"x_param", "vdd"},
                                                   {"x_from", "1"},
                                                   {"x_to", "3"},
                                                   {"x_points", "16"},
                                                   {"y_param", "f"},
                                                   {"y_from", "1e6"},
                                                   {"y_to", "4e6"},
                                                   {"y_points", "16"}});
  const std::vector<std::string> targets = {
      "/job?id=" + id + "&format=table", "/job?id=" + id + "&format=csv",
      "/job?id=" + id + "&format=json"};
  std::vector<std::string> want;
  for (const std::string& t : targets) want.push_back(get(t).body);
  ASSERT_NE(json_result(want[2]), "");

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 6; ++round) {
        for (std::size_t k = 0; k < targets.size(); ++k) {
          const std::size_t f = (k + static_cast<std::size_t>(t)) % 3;
          const Response r = get(targets[f]);
          if (r.status != 200 || r.body != want[f]) ++mismatches;
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Cancel over live HTTP: only the owner may cancel, the terminal
// status is visible via GET /job, and /healthz counts it.
TEST_F(ConcurrencyFixture, JobCancelOverHttp) {
  ASSERT_EQ(post("/design/add", {{"user", "dl"},
                                 {"model", "register"},
                                 {"design", "C"},
                                 {"row", "R"},
                                 {"p_bits", "8"},
                                 {"p_f", "1000000"}})
                .status,
            200);
  // Park the single runner on a job that waits for the test: both grid
  // jobs below queue behind it, so the second — the cancel target — is
  // deterministically still queued when the cancel arrives.
  RunnerGate gate;
  (void)app->jobs().submit("dl", "parked runner", gate.work());
  ASSERT_EQ(post("/design/sweep", {{"user", "dl"},    {"name", "C"},
                                   {"x_param", "vdd"}, {"x_from", "1.0"},
                                   {"x_to", "3.0"},    {"x_points", "64"},
                                   {"y_param", "f"},   {"y_from", "1e6"},
                                   {"y_to", "4e6"},    {"y_points", "64"}})
                .status,
            200);
  const Response submit =
      post("/design/sweep", {{"user", "dl"},    {"name", "C"},
                             {"x_param", "vdd"}, {"x_from", "0.7"},
                             {"x_to", "2.9"},    {"x_points", "64"},
                             {"y_param", "f"},   {"y_from", "2e6"},
                             {"y_to", "5e6"},    {"y_points", "64"}});
  ASSERT_EQ(submit.status, 200) << submit.body;
  const std::string id = submit.body.substr(4, submit.body.find('\n') - 4);

  // Another user may not cancel it.
  EXPECT_EQ(post("/job/cancel", {{"user", "mallory"}, {"id", id}}).status,
            403);

  const Response cancel = post("/job/cancel", {{"user", "dl"}, {"id", id}});
  ASSERT_EQ(cancel.status, 200) << cancel.body;
  EXPECT_NE(cancel.body.find("status: cancel"), std::string::npos)
      << cancel.body;  // "cancelled": still queued behind the parked job
  gate.open();

  // The job reaches the terminal cancelled state and frees its runner.
  std::string status;
  for (int i = 0; i < 500; ++i) {
    const Response poll = get("/job?id=" + id);
    const auto line = poll.body.find("status: ");
    ASSERT_NE(line, std::string::npos);
    status =
        poll.body.substr(line + 8, poll.body.find('\n', line) - line - 8);
    if (status != "queued" && status != "running") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(status, "cancelled");
  app->jobs().wait_idle();

  // Cancelling again reports the job already finished.
  const Response again = post("/job/cancel", {{"user", "dl"}, {"id", id}});
  EXPECT_NE(again.body.find("already finished"), std::string::npos)
      << again.body;
  // Unknown and malformed ids.
  EXPECT_EQ(post("/job/cancel", {{"user", "dl"}, {"id", "424242"}}).status,
            404);
  EXPECT_EQ(post("/job/cancel", {{"user", "dl"}, {"id", "nope"}}).status,
            400);

  const Response health = get("/healthz");
  EXPECT_NE(health.body.find("jobs_cancelled_total: 1"),
            std::string::npos)
      << health.body;
}

// A /jobs listing is status only: a done 64x64 grid's result stays on
// /job?id=N&format=json, so a listing costs bytes per job, not per point.
TEST_F(ConcurrencyFixture, JobsListingIsStatusOnly) {
  (void)register_design();
  const std::string id = run_job("/design/sweep", {{"user", "dl"},
                                                   {"name", "D"},
                                                   {"x_param", "vdd"},
                                                   {"x_from", "1"},
                                                   {"x_to", "3"},
                                                   {"x_points", "64"},
                                                   {"y_param", "f"},
                                                   {"y_from", "1e6"},
                                                   {"y_to", "4e6"},
                                                   {"y_points", "64"}});
  const Response list = get("/jobs?user=dl&format=json");
  ASSERT_EQ(list.status, 200);
  EXPECT_NE(list.body.find("{\"id\":" + id + ","), std::string::npos)
      << list.body;
  EXPECT_NE(list.body.find("\"status\":\"done\""), std::string::npos)
      << list.body;
  EXPECT_EQ(list.body.find("\"result\""), std::string::npos);
  EXPECT_LT(list.body.size(), 1024u);  // one job
  EXPECT_NE(json_result(get("/job?id=" + id + "&format=json").body), "");
}

// A job's poll is status only.  Once done it links the three result
// formats; before then the table or CSV is a 400, and so is a format
// the app does not know.
TEST_F(ConcurrencyFixture, JobResultFormatsAreReadOneAtATime) {
  (void)register_design();
  RunnerGate gate;
  const std::string parked =
      std::to_string(app->jobs().submit("dl", "parked runner", gate.work()));
  for (const char* format : {"table", "csv"}) {
    const Response early =
        get("/job?id=" + parked + "&format=" + std::string(format));
    EXPECT_EQ(early.status, 400) << format;
    EXPECT_NE(early.body.find("available once done"), std::string::npos)
        << early.body;
  }
  EXPECT_EQ(get("/job?id=" + parked + "&format=xml").status, 400);
  EXPECT_EQ(get("/job?id=" + parked).body.find("table: "), std::string::npos);
  gate.open();

  const std::string id = run_job("/design/sweep", {{"user", "dl"},
                                                   {"name", "D"},
                                                   {"x_param", "vdd"},
                                                   {"x_from", "1"},
                                                   {"x_to", "3"},
                                                   {"x_points", "4"}});
  const Response done = get("/job?id=" + id);
  ASSERT_EQ(done.status, 200);
  EXPECT_NE(done.body.find("table: /job?id=" + id + "&format=table\n"),
            std::string::npos)
      << done.body;
  EXPECT_NE(done.body.find("csv: /job?id=" + id + "&format=csv\n"),
            std::string::npos)
      << done.body;
  EXPECT_NE(done.body.find("json: /job?id=" + id + "&format=json\n"),
            std::string::npos)
      << done.body;
  // No poll carries the result table itself.
  EXPECT_EQ(done.body.find("total power"), std::string::npos) << done.body;
  const Response table = get("/job?id=" + id + "&format=table");
  EXPECT_EQ(table.status, 200);
  EXPECT_EQ(table.content_type, "text/plain");
  EXPECT_EQ(table.body.rfind("vdd\ttotal power\n", 0), 0u) << table.body;
  EXPECT_EQ(get("/job?id=" + id + "&format=xml").status, 400);
}

}  // namespace
}  // namespace powerplay::web
