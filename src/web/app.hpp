// app.hpp — the PowerPlay web application: routes and pages.
//
// Implements the interaction flow of the paper's "PowerPlay
// Implementation" section with C++ handlers in place of Perl scripts:
// identification, the main menu, the model library and its input forms
// (Figure 4), design spreadsheets with Play (Figures 2/5), user-defined
// models, the Design Agent, async sweep and exploration jobs, and the
// remote model-access protocol (Figures 6/7).  Each URL is declared
// once, as a row of the route table (kRoutes in app.cpp) naming its
// method, handler and policy; docs/WEB_API.md documents every route.
//
// Concurrency: there is no global app mutex.  Each user's requests are
// serialized by a session lock (one of a fixed set of stripes, picked by
// hash of the user name); the shared library (store + registry) sits
// behind a read/write lock taken shared by read-only routes and
// exclusive by the few mutating ones, so concurrent users rarely
// serialize behind each other (docs/engine.md).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <array>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string_view>

#include "engine/engine.hpp"
#include "engine/job.hpp"
#include "flow/design_agent.hpp"
#include "library/store.hpp"
#include "model/registry.hpp"
#include "web/cache.hpp"
#include "web/federation.hpp"
#include "web/http.hpp"
#include "web/repl.hpp"
#include "web/server.hpp"

namespace powerplay::web {

/// App-level serving knobs (separate from the engine/job sizing).
struct AppOptions {
  /// Cache rendered GET responses (ETag + 304 handling); disable for
  /// benchmarking the cold path.
  bool response_cache = true;
  ResponseCacheOptions cache;
};

class PowerPlayApp {
 public:
  /// `store` is this site's library; the registry starts from the
  /// built-in characterized library plus every stored user model.
  /// `engine_options` sizes the evaluation thread pool and Play cache;
  /// `job_options` sizes the job runner pool and sets the per-job
  /// wall-clock deadline; `app_options` sizes the response cache.
  explicit PowerPlayApp(library::LibraryStore store,
                        engine::EngineOptions engine_options = {},
                        engine::JobOptions job_options = {},
                        AppOptions app_options = {});

  /// Graceful shutdown: drain the job runners (cancelling queued and
  /// running jobs), then flush/compact the store's journal.  Call after
  /// the HttpServer has stopped accepting requests.
  void shutdown();

  /// Dispatch one request through the route table: 404 for an unknown
  /// path, 405 (with Allow) for a known path asked with another method.
  /// HEAD is served wherever GET is, without the body bytes.
  /// Thread-safe: requests for distinct users run concurrently; only
  /// library writes take the exclusive lock.
  Response handle(const Request& request);

  [[nodiscard]] model::ModelRegistry& registry() { return registry_; }
  [[nodiscard]] library::LibraryStore& store() { return store_; }
  [[nodiscard]] engine::EvalEngine& engine() { return engine_; }
  [[nodiscard]] engine::JobManager& jobs() { return jobs_; }

  /// Let /healthz report the serving HttpServer's counters (wired by
  /// whoever owns both the app and the server; optional).
  using StatsSource = std::function<ServerStats()>;
  void set_stats_source(StatsSource source) {
    std::lock_guard lock(stats_mutex_);
    stats_source_ = std::move(source);
  }

  // --- replication -----------------------------------------------------
  //
  // Every app serves the primary half of the protocol (/repl/snapshot
  // and the /repl/journal long-poll feed) — a follower can itself be
  // followed, and a freshly promoted node is already serving.  The role
  // only changes what happens to *writes*: a follower answers every
  // mutating route with 307 to the primary, so browsers and API clients
  // transparently retarget while reads scale out locally.

  enum class ReplRole { kPrimary, kFollower };

  /// Follower mode needs the primary's base URL (e.g.
  /// "http://127.0.0.1:8080") for the 307 Location headers.
  void set_role(ReplRole role, std::string primary_url = {});
  [[nodiscard]] ReplRole role() const { return role_.load(); }

  /// Follower lag/progress counters for /healthz (wired by whoever owns
  /// both the app and the ReplicationFollower; optional).
  using ReplStatsSource = std::function<ReplicationStats()>;
  void set_repl_stats_source(ReplStatsSource source);

  /// POST /repl/promote delegates here when set; the hook must stop the
  /// follower, promote the store and flip the role, returning the new
  /// epoch (examples/powerplay_server.cpp wires exactly that).  Without
  /// a hook, a follower app promotes its own store directly.
  using PromoteHook = std::function<std::uint64_t()>;
  void set_promote_hook(PromoteHook hook);

  // --- federation ------------------------------------------------------
  //
  // The federated model network (docs/federation.md): /fed/* routes fan
  // out to peer sites with health scoring, hedging, and partial-failure
  // degradation.  The mirror sink journals synced remote definitions
  // into this site's store, so they survive crashes and partitions.

  /// Turn federation on (idempotent; returns the existing instance on
  /// repeat calls).  Wires the mirror sink into the library.
  FederatedLibrary& enable_federation(FederationOptions options = {});
  /// Null until enable_federation() has been called.
  [[nodiscard]] FederatedLibrary* federation() { return federation_.get(); }

  /// Per-request wall-clock budget propagated as the Deadline of every
  /// outbound federated call (typically the server's io_timeout, wired
  /// by whoever owns both).  Zero = use the federation default.
  void set_request_budget(std::chrono::milliseconds budget) {
    request_budget_ms_.store(budget.count());
  }

 private:
  using UserProfile = library::UserProfile;

  // Route handlers, one per row of the route table (kRoutes in
  // app.cpp).  Rows whose handler takes a UserProfile check the user's
  // password before it runs.
  Response page_healthz(const Params& q);
  Response repl_snapshot(const Params& q);
  Response repl_journal(const Params& q);
  Response do_repl_promote(const Params& q);
  Response page_root(const Params& q);
  Response page_menu(UserProfile profile, const Params& q);
  Response page_library(const Params& q);
  Response page_model(const Params& q);
  Response do_design_add(UserProfile profile, const Params& q);
  Response page_design(const Params& q);
  Response do_design_play(UserProfile profile, const Params& q);
  Response do_design_setrow(UserProfile profile, const Params& q);
  Response do_design_sweep(UserProfile profile, const Params& q);
  Response do_design_explore(UserProfile profile, const Params& q);
  Response page_job(const Params& q);
  Response page_jobs(const Params& q);
  Response do_job_cancel(UserProfile profile, const Params& q);
  Response page_new_model(const Params& q);
  Response do_new_model(UserProfile profile, const Params& q);
  Response page_doc(const Params& q);
  Response page_agent(const Params& q);
  Response do_set_password(UserProfile profile, const Params& q);
  Response page_help(const Params& q);
  Response design_csv(const Params& q);

  Response api_models(const Params& q);
  Response api_model(const Params& q);
  Response api_designs(const Params& q);
  Response api_design(const Params& q);

  [[nodiscard]] Deadline request_deadline() const;
  /// The federation, or HttpError (a 400) when it is not enabled.
  FederatedLibrary& federated();
  Response fed_models(const Params& q);
  Response fed_model(const Params& q);
  Response fed_hosts_page(const Params& q);
  Response do_fed_hosts(const Params& q);

  Response redirect_to_primary(const Request& request);

  /// Authentication failure (403, vs HttpError's 400).
  class AccessDenied : public std::runtime_error {
   public:
    using std::runtime_error::runtime_error;
  };

  /// The profile for q["user"] — stored, or library::default_profile
  /// for a first visit, never saved here — with its password enforced.
  [[nodiscard]] UserProfile authorized_user(const Params& q) const;

  /// Play `design` on its compiled plan and render its spreadsheet
  /// page.  The write routes pass the design they just saved.
  Response render_design(const std::string& user, const sheet::Design& design,
                         const std::string& message = {});

  /// One (method, path) row: handler, lock, cache, follower and
  /// password policy.  Defined in app.cpp beside the table.
  struct Route;
  static const Route kRoutes[];

  /// Load into the registry every stored model whose entry moved since
  /// the registry last read it (at construction, or a follower's
  /// replicated model record), and bump model_revision_ if any did.
  /// Takes the exclusive library lock.
  void sync_models();
  /// Register `def` (validated by construction) and bump
  /// model_revision_; with `save`, journal it first.  Needs the
  /// exclusive library lock.
  void define_model_locked(const model::UserModelDefinition& def, bool save,
                           bool proprietary = false);

  /// Call `route`'s handler, checking the password first if it takes
  /// the user's profile.
  Response run(const Route& route, const Params& q);

  /// handle() for `method` (a HEAD is dispatched as its GET).
  Response dispatch(const Request& request, std::string_view method);

  /// The cached-GET fast path for a cached row: lookup checked against
  /// the registry generation and the entry's read set, If-None-Match
  /// handling, and fill-on-miss recording the render's read set.
  Response serve_cached(const Route& route, const Request& request,
                        const std::string& path, const Params& q);

  /// Store + registry lock: shared for reads, exclusive for the rows
  /// that write the library (see kRoutes).
  mutable std::shared_mutex library_mutex_;
  /// Per-user session locks, striped by hash of the user name: bounded
  /// by construction, however many distinct users a site sees.
  std::array<std::mutex, 256> session_locks_;
  mutable std::mutex stats_mutex_;
  StatsSource stats_source_;
  /// Role is read on every request; the strings/hooks behind it are
  /// cold and sit behind repl_mutex_.
  std::atomic<ReplRole> role_{ReplRole::kPrimary};
  mutable std::mutex repl_mutex_;
  std::string primary_url_;
  ReplStatsSource repl_stats_source_;
  PromoteHook promote_hook_;

  /// Created by enable_federation(); its sync thread is stopped first
  /// thing in shutdown() so no mirror sink fires during compaction.
  std::unique_ptr<FederatedLibrary> federation_;
  std::atomic<std::int64_t> request_budget_ms_{0};

  library::LibraryStore store_;
  model::ModelRegistry registry_;
  flow::DesignAgent agent_;
  engine::EvalEngine engine_;
  engine::JobManager jobs_;

  /// Rendered-GET cache (null when AppOptions::response_cache is off).
  std::unique_ptr<ResponseCache> cache_;
  /// Registry generation: bumped when a model definition is (re)saved.
  /// A redefinition changes Play results without changing any stored
  /// design, so cached pages must key on this too.
  std::atomic<std::uint64_t> model_revision_{1};
  /// The catalog's model changes() count, and each stored model's
  /// stamp, as of the registry's last sync_models().  model_stamps_
  /// needs the exclusive library lock.
  std::atomic<std::uint64_t> models_seen_{0};
  std::map<std::string, std::uint64_t> model_stamps_;

  // Exploration counters for /healthz.  surrogate_hits_total_ is bumped
  // from const page handlers, hence mutable.
  std::atomic<std::uint64_t> explore_jobs_total_{0};
  std::atomic<std::uint64_t> mc_points_total_{0};
  std::atomic<std::uint64_t> surrogate_fits_total_{0};
  mutable std::atomic<std::uint64_t> surrogate_hits_total_{0};
  /// Bytes of columnar sweep payload (csv + json) rendered by batched
  /// grid jobs, for /healthz.
  std::atomic<std::uint64_t> columnar_bytes_streamed_total_{0};
};

}  // namespace powerplay::web
