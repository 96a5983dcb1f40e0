#include "web/app.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <string_view>
#include <variant>

#include "explore/inverse.hpp"
#include "explore/mc.hpp"
#include "explore/pareto.hpp"
#include "explore/surrogate.hpp"
#include "flow/standard_flows.hpp"
#include "library/textio.hpp"
#include "models/berkeley_library.hpp"
#include "sheet/report.hpp"
#include "sheet/sweep.hpp"
#include "web/html.hpp"

namespace powerplay::web {

using library::UserProfile;
using model::Category;
using units::format_area;
using units::format_si;

namespace {

std::string need(const Params& q, const std::string& key) {
  const std::string v = get_or(q, key);
  if (v.empty()) throw HttpError("missing parameter '" + key + "'");
  return v;
}

std::uint64_t parse_u64_param(const std::string& text,
                              const std::string& what) {
  if (text.empty()) throw HttpError("missing numeric value for " + what);
  std::uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9' || v > (~0ull - 9) / 10) {
      throw HttpError("bad numeric value for " + what + ": '" + text + "'");
    }
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

double parse_double(const std::string& text, const std::string& what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return v;
  } catch (const std::exception&) {
    throw HttpError("bad numeric value for " + what + ": '" + text + "'");
  }
}

/// Render one PlayResult as the Figure 2/5 HTML spreadsheet, with row
/// names hyperlinked to documentation and macros drilled down inline.
void append_spreadsheet(const sheet::PlayResult& result,
                        const std::string& user, std::string& out,
                        int depth = 0) {
  HtmlTable t;
  t.header({"Row", "Model", "Parameters", "Energy/op", "Power"});
  for (const sheet::RowResult& row : result.rows) {
    std::string params;
    for (const auto& [name, value] : row.shown_params) {
      if (!params.empty()) params += ", ";
      params += name + "=" + library::number_text(value);
    }
    std::string model_cell = row.model_name;
    if (row.sub_result == nullptr) {
      model_cell = HtmlTable::raw_cell(
          link("/doc", {{"name", row.model_name}, {"user", user}},
               row.model_name));
    }
    t.row({row.name, model_cell, params,
           row.estimate.energy_per_op.si() > 0
               ? format_si(row.estimate.energy_per_op.si(), "J")
               : "-",
           format_si(row.estimate.total_power().si(), "W")});
  }
  t.row({"TOTAL", "", "",
         result.total.energy_per_op.si() > 0
             ? format_si(result.total.energy_per_op.si(), "J")
             : "-",
         format_si(result.total.total_power().si(), "W")});
  out += t.str();
  for (const sheet::RowResult& row : result.rows) {
    if (row.sub_result != nullptr && depth < 8) {
      out += "<h3>" + html_escape(row.name) + " (macro drill-down)</h3>\n";
      append_spreadsheet(*row.sub_result, user, out, depth + 1);
    }
  }
}

/// A route's library lock.  kUnlocked skips the session lock too: the
/// store synchronizes itself, and a /repl/journal long-poll or a /fed/
/// fan-out may park for seconds, which under the shared library lock
/// would stall every writer behind an idle peer.
enum Lock : std::uint8_t { kUnlocked, kShared, kExclusive };

/// What a replication follower does with a route: serve it, or 307 it
/// to the primary (always, or only for a surrogate fit, the one explore
/// mode that commits to the library).
enum Follower : std::uint8_t { kServe, kRedirect, kRedirectFit };

}  // namespace

/// One row of the route table: a (method, path) and everything handle()
/// enforces for it.
struct PowerPlayApp::Route {
  using Page = Response (PowerPlayApp::*)(const Params&);
  /// A handler that gets the caller's profile, password checked.
  using UserPage = Response (PowerPlayApp::*)(UserProfile, const Params&);

  std::string_view method;
  std::string_view path;
  Lock lock;
  Follower follower;
  /// GET rows whose bytes depend only on the query, the registry and
  /// the store entries the render reads, so they are response-cached
  /// by (path, canonical query) and served while those entries hold.
  bool cached;
  std::variant<Page, UserPage> handler;
};

// clang-format off
const PowerPlayApp::Route PowerPlayApp::kRoutes[] = {
  // {method, path, lock, follower, cached, handler}
  {"GET",  "/healthz",        kShared,    kServe,       false, &PowerPlayApp::page_healthz},
  {"GET",  "/",               kShared,    kServe,       true,  &PowerPlayApp::page_root},
  {"GET",  "/menu",           kShared,    kServe,       true,  &PowerPlayApp::page_menu},
  {"GET",  "/library",        kShared,    kServe,       true,  &PowerPlayApp::page_library},
  {"GET",  "/model",          kShared,    kServe,       true,  &PowerPlayApp::page_model},
  {"GET",  "/doc",            kShared,    kServe,       true,  &PowerPlayApp::page_doc},
  {"GET",  "/agent",          kShared,    kServe,       true,  &PowerPlayApp::page_agent},
  {"GET",  "/help",           kShared,    kServe,       true,  &PowerPlayApp::page_help},
  {"GET",  "/design",         kShared,    kServe,       true,  &PowerPlayApp::page_design},
  {"GET",  "/design/csv",     kShared,    kServe,       true,  &PowerPlayApp::design_csv},
  {"POST", "/design/add",     kExclusive, kRedirect,    false, &PowerPlayApp::do_design_add},
  {"POST", "/design/play",    kExclusive, kRedirect,    false, &PowerPlayApp::do_design_play},
  {"POST", "/design/setrow",  kExclusive, kRedirect,    false, &PowerPlayApp::do_design_setrow},
  {"POST", "/design/sweep",   kShared,    kServe,       false, &PowerPlayApp::do_design_sweep},
  {"POST", "/design/explore", kShared,    kRedirectFit, false, &PowerPlayApp::do_design_explore},
  {"GET",  "/job",            kShared,    kServe,       false, &PowerPlayApp::page_job},
  {"GET",  "/jobs",           kShared,    kServe,       false, &PowerPlayApp::page_jobs},
  {"POST", "/job/cancel",     kShared,    kServe,       false, &PowerPlayApp::do_job_cancel},
  {"GET",  "/newmodel",       kShared,    kServe,       true,  &PowerPlayApp::page_new_model},
  {"POST", "/newmodel",       kExclusive, kRedirect,    false, &PowerPlayApp::do_new_model},
  {"POST", "/setpw",          kExclusive, kRedirect,    false, &PowerPlayApp::do_set_password},
  {"GET",  "/api/models",     kShared,    kServe,       true,  &PowerPlayApp::api_models},
  {"GET",  "/api/model",      kShared,    kServe,       true,  &PowerPlayApp::api_model},
  {"GET",  "/api/designs",    kShared,    kServe,       true,  &PowerPlayApp::api_designs},
  {"GET",  "/api/design",     kShared,    kServe,       true,  &PowerPlayApp::api_design},
  {"GET",  "/repl/snapshot",  kUnlocked,  kServe,       false, &PowerPlayApp::repl_snapshot},
  {"GET",  "/repl/journal",   kUnlocked,  kServe,       false, &PowerPlayApp::repl_journal},
  {"POST", "/repl/promote",   kUnlocked,  kServe,       false, &PowerPlayApp::do_repl_promote},
  {"GET",  "/fed/models",     kUnlocked,  kServe,       false, &PowerPlayApp::fed_models},
  {"GET",  "/fed/model",      kUnlocked,  kServe,       false, &PowerPlayApp::fed_model},
  {"GET",  "/fed/hosts",      kUnlocked,  kServe,       false, &PowerPlayApp::fed_hosts_page},
  {"POST", "/fed/hosts",      kUnlocked,  kServe,       false, &PowerPlayApp::do_fed_hosts},
};
// clang-format on

// "User identification is necessary to ensure privacy": load the
// profile (a first visit gets the default one, unsaved) and, when the
// user set a password, require the matching `pw` field.  Read-only on
// both roles: only the handlers that write a profile save it.
UserProfile PowerPlayApp::authorized_user(const Params& q) const {
  const std::string user = need(q, "user");
  std::optional<UserProfile> stored = store_.load_user(user);
  UserProfile profile =
      stored ? std::move(*stored) : library::default_profile(user);
  if (profile.has_password() &&
      !profile.check_password(get_or(q, "pw"))) {
    throw AccessDenied("wrong or missing password for user '" + user + "'");
  }
  return profile;
}

PowerPlayApp::PowerPlayApp(library::LibraryStore store,
                           engine::EngineOptions engine_options,
                           engine::JobOptions job_options,
                           AppOptions app_options)
    : store_(std::move(store)),
      engine_(engine_options),
      jobs_(job_options) {
  if (app_options.response_cache) {
    cache_ = std::make_unique<ResponseCache>(app_options.cache);
  }
  models::add_berkeley_models(registry_);
  sync_models();
  // The Design Agent and its tool-backed library entry.  agent_ lives in
  // this object, so the ToolFlowModel's pointer stays valid for the
  // app's lifetime.
  agent_ = flow::make_standard_agent(registry_);
  registry_.add_or_replace(flow::make_sram_toolflow_model(agent_));
}

void PowerPlayApp::shutdown() {
  // Stop the federation sync thread first: its mirror sink takes the
  // exclusive library lock, and nothing may race the compaction below.
  if (federation_ != nullptr) federation_->stop_sync();
  // Order matters: jobs work on private design clones, and the one kind
  // that writes (a surrogate fit committing its model) takes the library
  // lock only transiently — so drain first, and no job can hold or wait
  // on the lock when we compact the journal under it.
  jobs_.drain();
  std::unique_lock lib(library_mutex_);
  store_.flush();
}

Response PowerPlayApp::handle(const Request& request) {
  if (request.method != "HEAD") return dispatch(request, request.method);
  // HEAD runs the GET row, response cache included; the reply keeps the
  // GET's status, headers and Content-Length but carries no body bytes.
  Response response = dispatch(request, "GET");
  response.head_only = true;
  return response;
}

Response PowerPlayApp::dispatch(const Request& request,
                                std::string_view method) {
  Target target = request.parsed_target();
  const Params q = request.all_params(std::move(target.query));
  try {
    const Route* route =
        std::find_if(std::begin(kRoutes), std::end(kRoutes),
                     [&](const Route& row) {
                       return row.path == target.path && row.method == method;
                     });
    if (route == std::end(kRoutes)) {
      std::string allow;
      for (const Route& row : kRoutes) {
        if (row.path != target.path) continue;
        if (!allow.empty()) allow += ", ";
        allow += row.method;
        if (row.method == "GET") allow += ", HEAD";
      }
      return allow.empty() ? Response::not_found(target.path)
                           : Response::method_not_allowed(allow);
    }

    // A follower serves reads (through the response cache, invalidated
    // by applied records via the store revision) but owns no write
    // authority: writes go to the primary, method preserved, via 307.
    if (role_.load() == ReplRole::kFollower &&
        (route->follower == kRedirect ||
         (route->follower == kRedirectFit && get_or(q, "mode") == "fit"))) {
      return redirect_to_primary(request);
    }
    if (route->lock == kUnlocked) return run(*route, q);
    // Replicated model records reach the store behind the registry's
    // back; every locked row reads the registry.
    if (store_.catalog().changes(library::EntryKind::kModel) !=
        models_seen_.load()) {
      sync_models();
    }

    // Shard 1: each user's own requests are serialized (profile and
    // design edits are read-modify-write over their files).  Users hash
    // onto a fixed set of lock stripes, so two users rarely wait on each
    // other here, and a request takes exactly one stripe, so striping
    // cannot deadlock.
    std::unique_lock<std::mutex> session_guard;
    if (const auto user = q.find("user");
        user != q.end() && !user->second.empty()) {
      session_guard = std::unique_lock(
          session_locks_[std::hash<std::string>{}(user->second) %
                         session_locks_.size()]);
    }

    // Shard 2: the shared library, exclusive for the rows that write it.
    if (route->lock == kExclusive) {
      std::unique_lock lib(library_mutex_);
      return run(*route, q);
    }
    std::shared_lock lib(library_mutex_);
    if (route->cached && cache_ != nullptr) {
      return serve_cached(*route, request, target.path, q);
    }
    return run(*route, q);
  } catch (const AccessDenied& e) {
    Response r;
    r.status = 403;
    r.content_type = "text/plain";
    r.body = std::string("forbidden: ") + e.what() + "\n";
    return r;
  } catch (const HttpError& e) {
    return Response::bad_request(e.what());
  } catch (const library::BadStoreName& e) {
    return Response::bad_request(e.what());
  } catch (const expr::ExprError& e) {
    // User-facing input problems (unknown model, bad parameter value,
    // unparsable formula) rather than server faults.
    return Response::bad_request(e.what());
  } catch (const std::exception& e) {
    return Response::server_error(e.what());
  }
}

void PowerPlayApp::sync_models() {
  const library::Catalog& catalog = store_.catalog();
  std::unique_lock lib(library_mutex_);
  // Read before the scan: a record landing during it moves the count
  // again, and the next request rescans.
  const std::uint64_t changes = catalog.changes(library::EntryKind::kModel);
  if (changes == models_seen_.load()) return;  // another request synced
  bool moved = false;
  for (const std::string& name : store_.list_models()) {
    const std::uint64_t stamp =
        catalog.stamp(library::EntryKind::kModel, name);
    std::uint64_t& seen = model_stamps_[name];
    if (seen == stamp) continue;
    seen = stamp;
    try {
      if (const auto def = store_.load_model(name)) {
        registry_.add_or_replace(std::make_shared<model::UserModel>(*def));
        moved = true;
      }
    } catch (const std::exception&) {
      // A definition that does not parse or build stays out of the
      // registry; failing here would fail every request that syncs.
    }
  }
  models_seen_.store(changes);
  if (moved) model_revision_.fetch_add(1);
}

void PowerPlayApp::define_model_locked(const model::UserModelDefinition& def,
                                       bool save, bool proprietary) {
  // Validate by construction: a bad equation throws before anything is
  // saved.
  auto user_model = std::make_shared<model::UserModel>(def);
  if (save) {
    store_.save_model(def, proprietary);
    model_stamps_[def.name] =
        store_.catalog().stamp(library::EntryKind::kModel, def.name);
  }
  registry_.add_or_replace(std::move(user_model));
  // A redefinition changes Play results without changing any stored
  // design; bump the registry generation so cached pages rendered
  // against the old definition are not served again.
  model_revision_.fetch_add(1);
}

Response PowerPlayApp::run(const Route& route, const Params& q) {
  if (const auto* page = std::get_if<Route::Page>(&route.handler)) {
    return (this->**page)(q);
  }
  return (this->*std::get<Route::UserPage>(route.handler))(
      authorized_user(q), q);
}

// The cached-GET fast path.  Runs under the shared library lock, so no
// writing route interleaves; on a follower, applied replication records
// can still land concurrently.  Every stamp in the read set was read
// before the bytes it covers, so such a record makes the new entry
// stale at once rather than letting it mask the change.
Response PowerPlayApp::serve_cached(const Route& route, const Request& request,
                                    const std::string& path, const Params& q) {
  const std::string key = path + '?' + to_query(q);
  const std::uint64_t revision = store_.revision();
  const std::uint64_t model_rev = model_revision_.load();
  const library::Catalog& catalog = store_.catalog();

  if (const auto entry = cache_->find(key);
      entry != nullptr && entry->model_revision == model_rev &&
      catalog.current(entry->reads)) {
    cache_->count_hit(/*after_commit=*/entry->revision != revision);
    if (if_none_match(request, entry->etag)) {
      cache_->count_not_modified();
      return Response::not_modified(entry->etag);
    }
    return entry->response;
  }

  cache_->count_miss();
  library::ReadScope reads(catalog);
  Response response = run(route, q);
  if (response.status != 200) return response;

  const std::string etag = ResponseCache::make_etag(response);
  response.headers["etag"] = etag;

  ResponseCache::Entry entry;
  entry.etag = etag;
  entry.revision = revision;
  entry.model_revision = model_rev;
  entry.reads = reads.take();
  entry.response = response;
  cache_->insert(key, std::move(entry));

  if (if_none_match(request, etag)) {
    cache_->count_not_modified();
    return Response::not_modified(etag);
  }
  return response;
}

// ---------------------------------------------------------------------------
// Pages
// ---------------------------------------------------------------------------

// Liveness/ops endpoint: plain text so load balancers and shell one-
// liners can read it; includes the server's resilience counters when a
// stats source has been wired.
Response PowerPlayApp::page_healthz(const Params&) {
  std::ostringstream os;
  os << "ok\n";
  os << "models: " << registry_.size() << "\n";
  os << "designs: " << store_.list_designs().size() << "\n";
  StatsSource source;
  {
    std::lock_guard lock(stats_mutex_);
    source = stats_source_;
  }
  if (source) {
    const ServerStats s = source();
    os << "requests_served: " << s.requests_served << "\n";
    os << "requests_shed: " << s.requests_shed << "\n";
    os << "timeouts: " << s.timeouts << "\n";
    os << "connections_reused: " << s.connections_reused << "\n";
    os << "parser_resumes: " << s.parser_resumes << "\n";
  }
  if (cache_ != nullptr) {
    const ResponseCacheStats rc = cache_->stats();
    os << "responses_cached: " << rc.insertions << "\n";
    os << "response_cache_hits: " << rc.hits << "\n";
    os << "response_cache_misses: " << rc.misses << "\n";
    os << "response_cache_revalidations: " << rc.revalidations << "\n";
    os << "etag_304s: " << rc.not_modified << "\n";
    os << "response_cache_evictions: " << rc.evictions << "\n";
    os << "response_cache_entries: " << rc.entries << "\n";
    os << "response_cache_bytes: " << rc.bytes << "\n";
  }
  // The Play memo (no production route uses it; the lines stay for
  // readers that parse them by name), then the plan cache that every
  // Play and sweep probes.
  const engine::CacheStats cache = engine_.cache().stats();
  os << "cache_hits: " << cache.hits << "\n";
  os << "cache_misses: " << cache.misses << "\n";
  os << "cache_evictions: " << cache.evictions << "\n";
  os << "cache_size: " << cache.size << "/" << cache.capacity << "\n";
  const engine::CacheStats plans = engine_.plans().stats();
  os << "plan_cache_hits: " << plans.hits << "\n";
  os << "plan_cache_misses: " << plans.misses << "\n";
  os << "plan_cache_evictions: " << plans.evictions << "\n";
  os << "plan_cache_size: " << plans.size << "/" << plans.capacity << "\n";
  const engine::ExecutorStats exec = engine_.executor().stats();
  os << "engine_threads: " << exec.thread_count << "\n";
  os << "engine_tasks_executed: " << exec.executed << "\n";
  os << "engine_queue_depth: " << exec.queue_depth << "\n";
  const engine::JobStats jobs = jobs_.stats();
  os << "jobs_queued: " << jobs.queued << "\n";
  os << "jobs_running: " << jobs.running << "\n";
  os << "jobs_done: " << jobs.done << "\n";
  os << "jobs_failed: " << jobs.failed << "\n";
  os << "jobs_cancelled: " << jobs.cancelled << "\n";
  os << "jobs_cancelled_total: " << jobs.cancelled_total << "\n";
  os << "jobs_deadline_expired_total: " << jobs.deadline_expired_total
     << "\n";
  // Lane-batched columnar evaluation (engine::BatchCounters): points
  // through the batch substrate, the fixed lane width, and how much of
  // the flow fell back to scalar (fallback points + lane replays).
  const engine::BatchCounters batch = engine_.batch_counters();
  os << "batch_points_total: " << batch.points << "\n";
  os << "batch_lane_width: " << sheet::BatchPlanInstance::kLaneWidth << "\n";
  os << "batch_scalar_fallbacks_total: "
     << batch.scalar_fallback_points + batch.lane_replays << "\n";
  os << "columnar_bytes_streamed_total: "
     << columnar_bytes_streamed_total_.load() << "\n";
  os << "explore_jobs_total: " << explore_jobs_total_.load() << "\n";
  os << "mc_points_total: " << mc_points_total_.load() << "\n";
  os << "surrogate_fits_total: " << surrogate_fits_total_.load() << "\n";
  os << "surrogate_hits_total: " << surrogate_hits_total_.load() << "\n";
  const library::DurabilityStats store = store_.durability();
  os << "journal_appends: " << store.journal_appends << "\n";
  os << "journal_replayed: " << store.journal_replayed << "\n";
  os << "journal_rotations: " << store.journal_rotations << "\n";
  os << "snapshot_writes: " << store.snapshot_writes << "\n";
  os << "quarantined_files: " << store.quarantined_files << "\n";
  // Replication position, on both roles: a primary reports its stream
  // head (what followers chase), a follower reports how far behind it is.
  const bool follower = role_.load() == ReplRole::kFollower;
  os << "repl_role: " << (follower ? "follower" : "primary") << "\n";
  os << "repl_epoch: " << store_.epoch() << "\n";
  ReplStatsSource repl_source;
  {
    std::lock_guard lock(repl_mutex_);
    repl_source = repl_stats_source_;
  }
  if (repl_source) {
    const ReplicationStats rs = repl_source();
    os << "repl_synced: " << (rs.synced ? 1 : 0) << "\n";
    os << "repl_cursor: " << rs.cursor_epoch << ":" << rs.cursor_seq << "\n";
    os << "repl_records_applied: " << rs.records_applied << "\n";
    os << "repl_duplicates_skipped: " << rs.duplicates_skipped << "\n";
    os << "repl_gaps_detected: " << rs.gaps_detected << "\n";
    os << "repl_resyncs_total: " << rs.resyncs_total << "\n";
    os << "repl_transport_errors: " << rs.transport_errors << "\n";
    os << "repl_polls: " << rs.polls << "\n";
    os << "repl_lag_records: " << rs.lag_records << "\n";
    os << "repl_lag_bytes: " << rs.lag_bytes << "\n";
    os << "repl_lag_ms: " << rs.lag_ms << "\n";
  } else {
    os << "repl_last_seq: " << store_.last_seq() << "\n";
  }
  if (federation_ != nullptr) {
    // Lock order: library shared (held here) -> federation mutex.  The
    // inverse never happens: the sink runs outside the federation lock.
    const FederationStats fed = federation_->stats();
    os << "fed_hosts: " << fed.hosts << "\n";
    os << "fed_hosts_available: " << fed.hosts_available << "\n";
    os << "fed_searches: " << fed.searches << "\n";
    os << "fed_fetches: " << fed.fetches << "\n";
    os << "fed_hedges: " << fed.hedges << "\n";
    os << "fed_hedge_wins: " << fed.hedge_wins << "\n";
    os << "fed_partial_results: " << fed.partial_results << "\n";
    os << "fed_degraded_seen: " << fed.degraded_seen << "\n";
    os << "fed_skipped_open: " << fed.skipped_open << "\n";
    os << "fed_sync_runs: " << fed.sync_runs << "\n";
    os << "fed_sync_models: " << fed.sync_models << "\n";
    os << "fed_sync_failures: " << fed.sync_failures << "\n";
    os << "fed_mirror_serves: " << fed.mirror_serves << "\n";
  }
  return Response::ok_text(os.str());
}

// ---------------------------------------------------------------------------
// Federation routes (docs/federation.md)
// ---------------------------------------------------------------------------

FederatedLibrary& PowerPlayApp::enable_federation(FederationOptions options) {
  if (federation_ != nullptr) return *federation_;
  federation_ = std::make_unique<FederatedLibrary>(std::move(options));
  // The mirror sink: journal every new/changed remote definition into
  // this site's store (so synced models survive crashes and partitions)
  // and register it for local evaluation.  A follower's store belongs to
  // its replication stream, so only the registry is updated there — the
  // primary's own sync journals the model and replication delivers it.
  federation_->set_mirror_sink([this](const model::UserModelDefinition& def) {
    std::unique_lock lib(library_mutex_);
    define_model_locked(def, /*save=*/role_.load() == ReplRole::kPrimary);
  });
  return *federation_;
}

FederatedLibrary& PowerPlayApp::federated() {
  if (federation_ == nullptr) {
    throw HttpError("federation not enabled on this site");
  }
  return *federation_;
}

Deadline PowerPlayApp::request_deadline() const {
  const auto budget = request_budget_ms_.load();
  return budget > 0 ? Deadline::after(std::chrono::milliseconds(budget))
                    : Deadline::never();
}

// GET /fed/models[?q=substr] — fan-out search, merged and ranked, with
// the per-host verdict lines that make partial results explicit.
Response PowerPlayApp::fed_models(const Params& q) {
  const FedSearchResult result =
      federated().search(get_or(q, "q"), request_deadline());
  std::ostringstream os;
  os << "# federated models: " << result.models.size()
     << (result.partial ? " (partial)" : "")
     << (result.stale ? " (stale)" : "") << "\n";
  for (const FedModelEntry& m : result.models) {
    os << m.name << " replicas=" << m.replicas
       << (m.stale ? " stale" : "") << "\n";
  }
  os << "# hosts\n";
  for (const FedHostOutcome& h : result.hosts) {
    os << h.host << " " << to_string(h.status) << " items=" << h.items;
    if (h.stale) os << " stale-mirror";
    if (!h.error.empty()) os << " error=\"" << h.error << "\"";
    os << "\n";
  }
  Response r = Response::ok_text(os.str());
  r.headers["x-fed-partial"] = result.partial ? "1" : "0";
  r.headers["x-fed-stale"] = result.stale ? "1" : "0";
  return r;
}

// GET /fed/model?name=N — hedged, health-routed fetch; the body is the
// definition in library serialization format, provenance in headers.
Response PowerPlayApp::fed_model(const Params& q) {
  FederatedLibrary& federation = federated();
  const std::string name = get_or(q, "name");
  if (name.empty()) return Response::bad_request("missing name");
  FedFetchResult result;
  try {
    result = federation.fetch_model(name, request_deadline());
  } catch (const HttpError& e) {
    Response r;
    r.status = 502;
    r.content_type = "text/plain";
    r.body = std::string(e.what()) + "\n";
    return r;
  }
  Response r = Response::ok_text(library::to_text(result.def));
  r.headers["x-fed-origin"] = result.origin;
  r.headers["x-fed-hedged"] = result.hedged ? "1" : "0";
  r.headers["x-fed-hedge-won"] = result.hedge_won ? "1" : "0";
  r.headers["x-fed-from-mirror"] = result.from_mirror ? "1" : "0";
  r.headers["x-fed-staleness-ms"] = std::to_string(result.staleness_ms);
  return r;
}

// GET /fed/hosts — health table for ops.
Response PowerPlayApp::fed_hosts_page(const Params&) {
  std::ostringstream os;
  os << "# federated hosts\n";
  for (const FedHostStats& h : federated().hosts()) {
    os << h.key << " breaker=";
    switch (h.breaker) {
      case CircuitBreaker::State::kClosed:
        os << "closed";
        break;
      case CircuitBreaker::State::kOpen:
        os << "open";
        break;
      case CircuitBreaker::State::kHalfOpen:
        os << "half-open";
        break;
    }
    os << " health=" << h.health << " ewma_ms=" << h.ewma_latency_ms
       << " p95_ms=" << h.p95_latency_ms << " err=" << h.error_rate
       << " inflight=" << h.in_flight << " requests=" << h.requests
       << " failures=" << h.failures << " hedges=" << h.hedges
       << " hedge_wins=" << h.hedge_wins << " skipped=" << h.skipped_open
       << " mirrored=" << h.mirrored_models
       << " synced=" << (h.synced ? 1 : 0)
       << " staleness_ms=" << h.staleness_ms << "\n";
  }
  return Response::ok_text(os.str());
}

// POST /fed/hosts?add=host:port | remove=host:port — admin membership.
Response PowerPlayApp::do_fed_hosts(const Params& q) {
  FederatedLibrary& federation = federated();
  const std::string add = get_or(q, "add");
  const std::string remove = get_or(q, "remove");
  if (!add.empty()) {
    const std::uint16_t port = parse_peer_spec(add);
    federation.add_host(port);
    return Response::ok_text("added 127.0.0.1:" + std::to_string(port) +
                             "\n");
  }
  if (!remove.empty()) {
    const std::uint16_t port = parse_peer_spec(remove);
    const std::string key = "127.0.0.1:" + std::to_string(port);
    if (!federation.remove_host(key)) {
      return Response::not_found(key);
    }
    return Response::ok_text("removed " + key + "\n");
  }
  return Response::bad_request("need add= or remove=");
}

// ---------------------------------------------------------------------------
// Replication (the primary half; web/repl.cpp is the follower half)
// ---------------------------------------------------------------------------

void PowerPlayApp::set_role(ReplRole role, std::string primary_url) {
  {
    std::lock_guard lock(repl_mutex_);
    primary_url_ = std::move(primary_url);
  }
  role_.store(role);
}

void PowerPlayApp::set_repl_stats_source(ReplStatsSource source) {
  std::lock_guard lock(repl_mutex_);
  repl_stats_source_ = std::move(source);
}

void PowerPlayApp::set_promote_hook(PromoteHook hook) {
  std::lock_guard lock(repl_mutex_);
  promote_hook_ = std::move(hook);
}

Response PowerPlayApp::redirect_to_primary(const Request& request) {
  std::string base;
  {
    std::lock_guard lock(repl_mutex_);
    base = primary_url_;
  }
  if (base.empty()) {
    Response r;
    r.status = 503;
    r.content_type = "text/plain";
    r.body = "read-only follower: no primary configured for redirect\n";
    return r;
  }
  // 307 keeps the method (a POSTed form stays a POST at the primary),
  // unlike the 302 most browsers rewrite to GET.
  Response r;
  r.status = 307;
  r.content_type = "text/plain";
  r.headers["location"] = base + request.target;
  r.body = "follower is read-only; retry at the primary\n";
  return r;
}

Response PowerPlayApp::repl_snapshot(const Params&) {
  const library::ReplSnapshot snapshot = store_.export_replication_snapshot();
  Response r;
  r.status = 200;
  r.content_type = "text/plain";
  r.headers["x-repl-epoch"] = std::to_string(snapshot.epoch);
  r.headers["x-repl-last-seq"] = std::to_string(snapshot.seq);
  r.body = library::encode_snapshot(snapshot);
  return r;
}

Response PowerPlayApp::repl_journal(const Params& q) {
  const std::uint64_t epoch = parse_u64_param(need(q, "epoch"), "epoch");
  const std::uint64_t after = parse_u64_param(need(q, "after"), "after");
  // Clamp the park time well below the server's 15s socket io_timeout so
  // an empty long-poll always answers before the connection reaps.
  const std::uint64_t wait_ms =
      std::min<std::uint64_t>(parse_u64_param(get_or(q, "wait_ms", "0"),
                                              "wait_ms"),
                              10000);
  std::uint64_t max_bytes =
      parse_u64_param(get_or(q, "max_bytes", "1048576"), "max_bytes");
  max_bytes = std::min<std::uint64_t>(max_bytes, 4u << 20);

  library::LibraryStore::ReplFeed feed =
      store_.read_replication_feed(epoch, after, max_bytes);
  if (feed.epoch_ok && !feed.gap && feed.records.empty() && wait_ms > 0) {
    store_.wait_for_commit(epoch, after, std::chrono::milliseconds(wait_ms));
    feed = store_.read_replication_feed(epoch, after, max_bytes);
  }

  if (!feed.epoch_ok) {
    // The stream the follower was reading no longer exists (rotation,
    // recovery, or promotion).  Tell it which epoch is live so the
    // mismatch is diagnosable, and let it re-bootstrap.
    Response r;
    r.status = 409;
    r.content_type = "text/plain";
    r.headers["x-repl-epoch"] = std::to_string(feed.epoch);
    r.body = "epoch mismatch: stream is at epoch " +
             std::to_string(feed.epoch) + "\n";
    return r;
  }
  if (feed.gap) {
    Response r;
    r.status = 410;
    r.content_type = "text/plain";
    r.headers["x-repl-epoch"] = std::to_string(feed.epoch);
    r.body = "gone: records after " + std::to_string(after) +
             " were compacted away\n";
    return r;
  }

  Response r;
  r.status = 200;
  r.content_type = "application/octet-stream";
  r.headers["x-repl-epoch"] = std::to_string(feed.epoch);
  r.headers["x-repl-last-seq"] = std::to_string(feed.last_seq);
  r.headers["x-repl-pending-bytes"] = std::to_string(feed.pending_bytes);
  r.body = library::Journal::encode_stream(feed.epoch, after + 1,
                                           feed.records);
  return r;
}

Response PowerPlayApp::do_repl_promote(const Params&) {
  PromoteHook hook;
  {
    std::lock_guard lock(repl_mutex_);
    hook = promote_hook_;
  }
  std::uint64_t epoch = 0;
  if (hook) {
    epoch = hook();
  } else if (role_.load() == ReplRole::kFollower) {
    epoch = store_.promote();
  } else {
    // Already the primary: promotion is idempotent, report the epoch.
    epoch = store_.epoch();
  }
  set_role(ReplRole::kPrimary);
  return Response::ok_text("role: primary\nepoch: " + std::to_string(epoch) +
                           "\n");
}

Response PowerPlayApp::page_root(const Params&) {
  HtmlPage page("PowerPlay");
  page.paragraph(
      "Early power exploration.  WWW browsers do not supply user names, "
      "so please identify yourself:");
  HtmlForm form("/menu", "GET");
  form.text_field("Username", "user", "");
  form.submit("Enter");
  page.raw(form.str());
  return Response::ok_html(page.str());
}

Response PowerPlayApp::page_menu(UserProfile profile, const Params&) {
  const std::string& user = profile.username;

  HtmlPage page("PowerPlay Main Menu");
  page.paragraph("User: " + user);
  std::string defaults = "Defaults: ";
  for (const auto& [name, value] : profile.defaults) {
    defaults += name + "=" + library::number_text(value) + "  ";
  }
  page.paragraph(defaults);
  page.raw("<ul>");
  page.raw("<li>" + link("/library", {{"user", user}}, "Model library") +
           "</li>");
  page.raw("<li>" + link("/newmodel", {{"user", user}}, "Define a new model") +
           "</li>");
  page.raw("<li>" + link("/help", {{"user", user}}, "Tutorial and help") +
           "</li>");
  page.raw("</ul>");
  page.heading("Your designs", 3);
  page.raw("<ul>");
  for (const std::string& d : profile.designs) {
    page.raw("<li>" +
             link("/design", {{"user", user}, {"name", d}}, d) + "</li>");
  }
  page.raw("</ul>");
  page.paragraph(
      "Open any stored design by name (designs are shared for re-use):");
  HtmlForm open("/design", "GET");
  open.hidden("user", user);
  open.text_field("Design name", "name", "");
  open.submit("Open / create");
  page.raw(open.str());
  return Response::ok_html(page.str());
}

Response PowerPlayApp::page_library(const Params& q) {
  const std::string user = need(q, "user");
  HtmlPage page("PowerPlay Model Library");
  for (Category c :
       {Category::kComputation, Category::kStorage, Category::kController,
        Category::kInterconnect, Category::kProcessor, Category::kAnalog,
        Category::kConverter, Category::kSystem, Category::kMacro}) {
    const auto models = registry_.by_category(c);
    if (models.empty()) continue;
    page.heading(model::to_string(c), 3);
    page.raw("<ul>");
    for (const model::Model* m : models) {
      page.raw("<li>" +
               link("/model", {{"user", user}, {"name", m->name()}},
                    m->name()) +
               " (" + link("/doc", {{"user", user}, {"name", m->name()}},
                           "doc") +
               ")</li>");
    }
    page.raw("</ul>");
  }
  page.raw(link("/menu", {{"user", user}}, "Back to menu"));
  return Response::ok_html(page.str());
}

Response PowerPlayApp::page_model(const Params& q) {
  const std::string user = need(q, "user");
  const std::string name = need(q, "name");
  const model::Model& m = registry_.at(name);
  if (explore::is_surrogate_doc(m.documentation())) {
    surrogate_hits_total_.fetch_add(1);
  }

  HtmlPage page("Model: " + name);
  page.paragraph(m.documentation());

  // Input form pre-filled with defaults or the submitted values.
  HtmlForm form("/model", "GET");
  form.hidden("user", user);
  form.hidden("name", name);
  bool have_values = false;
  model::MapParamReader reader;
  for (const model::ParamSpec& spec : m.params()) {
    const std::string field = "p_" + spec.name;
    std::string value = get_or(q, field);
    if (!value.empty()) {
      have_values = true;
      reader.set(spec.name, parse_double(value, spec.name));
    } else {
      value = library::number_text(spec.default_value);
      reader.set(spec.name, spec.default_value);
    }
    form.text_field(spec.name + " [" + spec.unit + "] — " + spec.description,
                    field, value);
  }
  form.submit("Compute");
  page.raw(form.str());

  if (have_values) {
    const model::Estimate e = m.evaluate(reader);
    page.heading("Result", 3);
    HtmlTable t;
    t.header({"Csw/op", "Energy/op", "Dynamic", "Static", "Total", "Area",
              "Delay"});
    t.row({format_si(e.switched_capacitance.si(), "F"),
           format_si(e.energy_per_op.si(), "J"),
           format_si(e.dynamic_power.si(), "W"),
           format_si(e.static_power.si(), "W"),
           format_si(e.total_power().si(), "W"),
           format_area(e.area.si()), format_si(e.delay.si(), "s")});
    page.raw(t.str());

    // Save into a design spreadsheet.
    page.heading("Add to design", 3);
    HtmlForm add("/design/add", "POST");
    add.hidden("user", user);
    add.hidden("model", name);
    for (const model::ParamSpec& spec : m.params()) {
      add.hidden("p_" + spec.name,
                 get_or(q, "p_" + spec.name,
                        library::number_text(spec.default_value)));
    }
    add.text_field("Design name", "design", "");
    add.text_field("Row name", "row", name);
    add.submit("Add to design");
    page.raw(add.str());
  }
  page.raw(link("/library", {{"user", user}}, "Back to library"));
  return Response::ok_html(page.str());
}

Response PowerPlayApp::do_design_add(UserProfile profile, const Params& q) {
  const std::string& user = profile.username;
  const std::string model_name = need(q, "model");
  const std::string design_name = need(q, "design");
  const std::string row_name = need(q, "row");
  library::validate_store_name(design_name);

  const model::Model& m = registry_.at(model_name);
  sheet::Design design =
      store_.has_design(design_name)
          ? sheet::Design(*store_.load_design(design_name, registry_))
          : sheet::Design(design_name);
  if (!store_.has_design(design_name)) {
    // New sheets start from the user's defaults as globals.
    for (const auto& [nm, value] : profile.defaults) {
      design.globals().set(nm, value);
    }
  }

  sheet::Row& row = design.add_row(row_name, registry_.find_shared(model_name));
  for (const model::ParamSpec& spec : m.params()) {
    const std::string field = "p_" + spec.name;
    const std::string value = get_or(q, field);
    // Only record explicit overrides that differ from the defaults so
    // globals (vdd, f) keep flowing through inheritance.
    if (!value.empty() &&
        parse_double(value, spec.name) != spec.default_value) {
      row.params.set(spec.name, parse_double(value, spec.name));
    }
  }
  // Render (which presses Play) before saving: an edit whose Play fails
  // answers 400 and is not committed.
  Response page = render_design(user, design, "added row '" + row_name + "'");
  store_.save_design(design);
  // Listing the design is the write that saves a first-time user's
  // profile.
  if (std::find(profile.designs.begin(), profile.designs.end(),
                design_name) == profile.designs.end()) {
    profile.designs.push_back(design_name);
    store_.save_user(profile);
  }
  return page;
}

Response PowerPlayApp::page_design(const Params& q) {
  const std::string user = need(q, "user");
  const std::string name = need(q, "name");
  library::validate_store_name(name);
  if (!store_.has_design(name)) {
    HtmlPage page("Design: " + name);
    page.paragraph("No rows yet — add instances from the model library.");
    page.raw(link("/library", {{"user", user}}, "Model library"));
    return Response::ok_html(page.str());
  }
  return render_design(user, *store_.load_design(name, registry_));
}

Response PowerPlayApp::render_design(const std::string& user,
                                     const sheet::Design& design,
                                     const std::string& message) {
  const std::string& design_name = design.name();
  const sheet::PlayResult result = engine_.play_compiled(design);

  HtmlPage page(design_name + " summary");
  if (!message.empty()) page.paragraph("[" + message + "]");
  if (!design.description().empty()) {
    page.paragraph(design.description());
  }

  // Editable globals + Play button (the paper's "user can change any
  // parameter from the top page ... When the Play button is pressed
  // power is calculated for the entire design").
  HtmlForm play("/design/play", "POST");
  play.hidden("user", user);
  play.hidden("name", design_name);
  for (const std::string& nm : design.globals().local_names()) {
    auto found = design.globals().lookup(nm);
    if (const double* literal = std::get_if<double>(found->binding)) {
      play.text_field(nm, "g_" + nm, library::number_text(*literal));
    } else {
      const auto& f = std::get<expr::ExprPtr>(*found->binding);
      play.text_field(nm + " (formula)", "g_" + nm, expr::to_source(*f));
    }
  }
  play.submit("PLAY");
  page.raw(play.str());

  std::string sheet_html;
  append_spreadsheet(result, user, sheet_html);
  page.raw(sheet_html);
  page.paragraph("Computed in " + std::to_string(result.iterations) +
                 " sweep(s).");
  page.raw(link("/menu", {{"user", user}}, "Back to menu"));
  return Response::ok_html(page.str());
}

Response PowerPlayApp::do_design_play(UserProfile profile, const Params& q) {
  const std::string& user = profile.username;
  const std::string name = need(q, "name");
  library::validate_store_name(name);
  if (!store_.has_design(name)) {
    return Response::not_found("design '" + name + "'");
  }
  sheet::Design design(*store_.load_design(name, registry_));
  for (const auto& [key, value] : q) {
    if (key.rfind("g_", 0) != 0 || value.empty()) continue;
    const std::string param = key.substr(2);
    // Accept either a number or a formula.
    try {
      design.globals().set(param, parse_double(value, param));
    } catch (const HttpError&) {
      design.globals().set_formula(param, value);
    }
  }
  // Play (inside render) before saving: a failed Play commits nothing.
  Response page = render_design(user, design, "recomputed");
  store_.save_design(design);
  return page;
}

Response PowerPlayApp::do_design_setrow(UserProfile profile, const Params& q) {
  const std::string& user = profile.username;
  const std::string name = need(q, "name");
  const std::string row_name = need(q, "row");
  const std::string param = need(q, "param");
  const std::string value = need(q, "value");
  library::validate_store_name(name);
  sheet::Design design(*store_.load_design(name, registry_));
  sheet::Row* row = design.find_row(row_name);
  if (row == nullptr) {
    return Response::not_found("row '" + row_name + "'");
  }
  try {
    row->params.set(param, parse_double(value, param));
  } catch (const HttpError&) {
    row->params.set_formula(param, value);
  }
  // Play (inside render) before saving: a failed Play commits nothing.
  Response page = render_design(
      user, design, "set " + row_name + "." + param + " = " + value);
  store_.save_design(design);
  return page;
}

// ---------------------------------------------------------------------------
// Async sweep jobs (the parallel evaluation engine's web face)
// ---------------------------------------------------------------------------

namespace {

/// One sweep axis from the form: param + linspace(from, to, points).
struct SweepAxis {
  std::string param;
  std::vector<double> values;
};

/// A finished job's typed result and a renderer for each format it
/// offers (null: not offered).  The runner only builds it; the HTTP
/// worker serving a read renders the one format asked for, each time.
/// `streamed_bytes`, when set, counts the CSV and JSON bytes rendered.
template <typename T>
class TypedResult final : public engine::JobResult::Body {
 public:
  using Render = std::string (*)(const T&);

  TypedResult(T value, Render table, Render csv, Render json,
              std::atomic<std::uint64_t>* streamed_bytes)
      : value_(std::move(value)),
        renders_{table, csv, json},
        streamed_bytes_(streamed_bytes) {}

  bool has(engine::JobFormat format) const override {
    return render_for(format) != nullptr;
  }
  std::string render(engine::JobFormat format) const override {
    const Render render = render_for(format);
    if (render == nullptr) return {};
    std::string out = render(value_);
    if (streamed_bytes_ != nullptr && format != engine::JobFormat::kTable) {
      streamed_bytes_->fetch_add(out.size());
    }
    return out;
  }

 private:
  Render render_for(engine::JobFormat format) const {
    return renders_[static_cast<std::size_t>(format)];
  }

  const T value_;
  const std::array<Render, 3> renders_;
  std::atomic<std::uint64_t>* const streamed_bytes_;
};

template <typename T>
engine::JobResult typed_result(
    T value, typename TypedResult<T>::Render table,
    typename TypedResult<T>::Render csv,
    typename TypedResult<T>::Render json = nullptr,
    std::atomic<std::uint64_t>* streamed_bytes = nullptr) {
  return engine::JobResult(std::make_shared<const TypedResult<T>>(
      std::move(value), table, csv, json, streamed_bytes));
}

/// An axis point count: sheet::axis_points over the parsed text.
int parse_axis_points(const std::string& text, const std::string& what) {
  return sheet::axis_points(parse_double(text, what), what);
}

/// The reply to a job submission: its id, where to poll it, and where
/// to read each of `formats` once it is done.
Response job_submitted(std::uint64_t id,
                       std::initializer_list<const char*> formats) {
  std::ostringstream os;
  os << "id: " << id << "\nstatus: queued\npoll: /job?id=" << id << "\n";
  for (const char* f : formats) {
    os << f << ": /job?id=" << id << "&format=" << f << "\n";
  }
  return Response::ok_text(os.str());
}

SweepAxis parse_axis(const Params& q, const std::string& prefix) {
  SweepAxis axis;
  axis.param = need(q, prefix + "_param");
  const double from =
      parse_double(need(q, prefix + "_from"), prefix + "_from");
  const double to = parse_double(need(q, prefix + "_to"), prefix + "_to");
  const int points = parse_axis_points(get_or(q, prefix + "_points", "8"),
                                       prefix + "_points");
  axis.values = sheet::linspace(from, to, points);
  return axis;
}

}  // namespace

Response PowerPlayApp::do_design_sweep(UserProfile profile, const Params& q) {
  const std::string& user = profile.username;
  const std::string name = need(q, "name");
  library::validate_store_name(name);
  if (!store_.has_design(name)) {
    return Response::not_found("design '" + name + "'");
  }
  const SweepAxis x = parse_axis(q, "x");
  const std::string row = get_or(q, "row");
  const bool grid = !get_or(q, "y_param").empty();
  if (grid && !row.empty()) {
    throw HttpError("grid sweeps take global parameters only; drop 'row' "
                    "or 'y_param'");
  }

  // Snapshot the design now, under the app's locks; the job then runs
  // entirely on this private clone with no store or registry access.
  sheet::Design snapshot(*store_.load_design(name, registry_));

  // Validate the sweep spec up front so a typo answers 400 here rather
  // than a failed job later.
  std::ostringstream describe;
  engine::JobManager::Work work;
  if (grid) {
    const SweepAxis y = parse_axis(q, "y");
    if (x.param == y.param) {
      throw HttpError("sweep axes must name two different parameters");
    }
    // All unknown names in one reply: a request with two typos gets
    // both called out, not one per round trip.
    sheet::require_globals(snapshot, {x.param, y.param}, "sweep");
    describe << "sweep " << name << ": " << x.param << " x " << y.param
             << " (" << x.values.size() << "x" << y.values.size()
             << " grid)";
    work = [this, snapshot = std::move(snapshot), x,
            y](const engine::JobManager::Progress& progress) {
      // Lane-batched columnar sweep: workers stream block metrics into
      // shared column arrays (no per-point PlayResults), progress and
      // cancellation/deadline checks fire once per lane block, and the
      // renderers serialize straight off the columns on read.
      return typed_result(
          engine_.sweep_grid_columnar(snapshot, x.param, x.values, y.param,
                                      y.values, progress),
          sheet::grid_table, sheet::grid_csv, sheet::grid_json,
          &columnar_bytes_streamed_total_);
    };
  } else {
    if (row.empty()) {
      sheet::require_globals(snapshot, {x.param}, "sweep");
      describe << "sweep " << name << ": " << x.param;
    } else {
      if (snapshot.find_row(row) == nullptr) {
        return Response::not_found("row '" + row + "'");
      }
      describe << "sweep " << name << ": " << row << "." << x.param;
    }
    describe << " (" << x.values.size() << " points)";
    work = [this, snapshot = std::move(snapshot), row,
            x](const engine::JobManager::Progress& progress) {
      return typed_result(
          engine_.sweep_columnar(snapshot, row, x.param, x.values, progress),
          sheet::sweep_table, sheet::sweep_csv);
    };
  }

  return job_submitted(jobs_.submit(user, describe.str(), std::move(work)),
                       {"csv"});
}

// ---------------------------------------------------------------------------
// Design-space exploration jobs (src/explore behind POST /design/explore)
// ---------------------------------------------------------------------------

namespace {

/// "vdd=1:2:8;f=1e6:4e6:4" — semicolon-separated grid axes, each a
/// linspace(from, to, points).
std::vector<explore::ParetoAxis> parse_explore_axes(const std::string& text) {
  std::vector<explore::ParetoAxis> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find(';', pos);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    const std::size_t c1 = item.find(':', eq + 1);
    const std::size_t c2 =
        c1 == std::string::npos ? std::string::npos : item.find(':', c1 + 1);
    if (eq == std::string::npos || eq == 0 || c2 == std::string::npos) {
      throw HttpError("bad axis '" + item +
                      "' — expected name=from:to:points");
    }
    explore::ParetoAxis axis;
    axis.param = item.substr(0, eq);
    const double from = parse_double(item.substr(eq + 1, c1 - eq - 1),
                                     axis.param + " from");
    const double to =
        parse_double(item.substr(c1 + 1, c2 - c1 - 1), axis.param + " to");
    const int points = parse_axis_points(item.substr(c2 + 1),
                                         "axis '" + axis.param + "' points");
    axis.values = sheet::linspace(from, to, points);
    out.push_back(std::move(axis));
  }
  if (out.empty()) throw HttpError("no grid axes given");
  return out;
}

/// An inverse job's answer with the question it answers (both render).
struct InverseAnswer {
  explore::InverseSpec spec;
  explore::InverseResult result;
};

std::size_t parse_sample_count(const Params& q, std::size_t fallback) {
  const std::uint64_t v = parse_u64_param(
      get_or(q, "samples", std::to_string(fallback)), "samples");
  if (v < 1 || v > explore::ParetoSpec::kMaxPoints) {
    throw HttpError("samples must be in [1, " +
                    std::to_string(explore::ParetoSpec::kMaxPoints) + "]");
  }
  return static_cast<std::size_t>(v);
}

}  // namespace

Response PowerPlayApp::do_design_explore(UserProfile profile, const Params& q) {
  const std::string& user = profile.username;
  const std::string name = need(q, "name");
  library::validate_store_name(name);
  if (!store_.has_design(name)) {
    return Response::not_found("design '" + name + "'");
  }
  const std::string mode = need(q, "mode");
  const std::uint64_t seed =
      parse_u64_param(get_or(q, "seed", "1"), "seed");

  // Snapshot the design under the app's locks; the job runs on this
  // private clone.  Every spec is validated *here* (unknown parameters
  // all named in one reply) so a typo answers 400, not a failed job.
  sheet::Design snapshot(*store_.load_design(name, registry_));

  std::ostringstream describe;
  engine::JobManager::Work work;
  if (mode == "mc") {
    explore::McSpec spec;
    spec.params = explore::parse_dist_params(need(q, "params"));
    spec.samples = parse_sample_count(q, 1000);
    spec.seed = seed;
    spec.budget_w = parse_double(get_or(q, "budget", "0"), "budget");
    std::vector<std::string> names;
    for (const explore::DistParam& p : spec.params) names.push_back(p.name);
    sheet::require_globals(snapshot, names, "explore mc");
    describe << "explore mc " << name << ": " << spec.samples
             << " samples over";
    for (const std::string& n : names) describe << ' ' << n;
    work = [this, snapshot = std::move(snapshot), spec = std::move(spec)](
               const engine::JobManager::Progress& progress) {
      explore::McResult r =
          explore::run_monte_carlo(engine_, snapshot, spec, progress);
      mc_points_total_.fetch_add(r.samples);
      return typed_result(std::move(r), explore::mc_table, explore::mc_csv,
                          explore::mc_json);
    };
  } else if (mode == "pareto") {
    explore::ParetoSpec spec;
    const std::string axes = get_or(q, "axes");
    if (!axes.empty()) {
      spec.axes = parse_explore_axes(axes);
    } else {
      spec.dists = explore::parse_dist_params(need(q, "params"));
      spec.samples = parse_sample_count(q, 1024);
      spec.seed = seed;
    }
    std::vector<std::string> names;
    for (const explore::ParetoAxis& a : spec.axes) names.push_back(a.param);
    for (const explore::DistParam& p : spec.dists) names.push_back(p.name);
    sheet::require_globals(snapshot, names, "explore pareto");
    std::istringstream objs(need(q, "objectives"));
    std::string objective;
    while (std::getline(objs, objective, ',')) {
      if (objective.empty()) continue;
      spec.objectives.push_back(explore::parse_objective(objective, names));
    }
    if (spec.objectives.empty()) {
      throw HttpError("no objectives given");
    }
    describe << "explore pareto " << name << ":";
    for (const explore::Objective& o : spec.objectives) {
      describe << ' ' << (o.maximize ? "max:" : "min:") << o.name;
    }
    work = [this, snapshot = std::move(snapshot), spec = std::move(spec)](
               const engine::JobManager::Progress& progress) {
      return typed_result(
          explore::run_pareto(engine_, snapshot, spec, progress),
          explore::pareto_table, explore::pareto_csv, explore::pareto_json);
    };
  } else if (mode == "inverse") {
    explore::InverseSpec spec;
    spec.param = need(q, "param");
    spec.lo = parse_double(need(q, "lo"), "lo");
    spec.hi = parse_double(need(q, "hi"), "hi");
    spec.metric = get_or(q, "metric", "power");
    spec.limit = parse_double(need(q, "limit"), "limit");
    const std::string bound = get_or(q, "bound", "le");
    if (bound != "le" && bound != "ge") {
      throw HttpError("bound must be 'le' (metric <= limit) or 'ge'");
    }
    spec.upper_bound = bound == "le";
    const std::string goal = get_or(q, "goal", "max");
    if (goal != "max" && goal != "min") {
      throw HttpError("goal must be 'max' or 'min'");
    }
    spec.maximize = goal == "max";
    if (!(spec.lo < spec.hi)) {
      throw HttpError("inverse bracket requires lo < hi");
    }
    if (!explore::is_metric(spec.metric)) {
      throw HttpError("unknown metric '" + spec.metric +
                      "' — use power, area, energy or delay");
    }
    sheet::require_globals(snapshot, {spec.param}, "explore inverse");
    describe << "explore inverse " << name << ": "
             << (spec.maximize ? "largest " : "smallest ") << spec.param
             << " with " << spec.metric
             << (spec.upper_bound ? " <= " : " >= ") << spec.limit;
    work = [this, snapshot = std::move(snapshot), spec = std::move(spec)](
               const engine::JobManager::Progress& progress) {
      return typed_result(
          InverseAnswer{spec,
                        explore::solve_inverse(engine_, snapshot, spec,
                                               progress)},
          [](const InverseAnswer& a) {
            return explore::inverse_table(a.spec, a.result);
          },
          [](const InverseAnswer& a) {
            return explore::inverse_csv(a.spec, a.result);
          });
    };
  } else if (mode == "fit") {
    explore::FitSpec spec;
    spec.model_name = need(q, "model");
    library::validate_store_name(spec.model_name);
    spec.params = explore::parse_dist_params(need(q, "params"));
    spec.samples = parse_sample_count(q, 256);
    spec.seed = seed;
    spec.basis = get_or(q, "basis", "poly2");
    if (spec.basis != "poly1" && spec.basis != "poly2" &&
        spec.basis != "log") {
      throw HttpError("basis must be poly1, poly2 or log");
    }
    spec.holdout_fraction =
        parse_double(get_or(q, "holdout", "0.25"), "holdout");
    if (!(spec.holdout_fraction > 0 && spec.holdout_fraction <= 0.5)) {
      throw HttpError("holdout must be in (0, 0.5]");
    }
    std::vector<std::string> names;
    for (const explore::DistParam& p : spec.params) names.push_back(p.name);
    sheet::require_globals(snapshot, names, "explore fit");
    describe << "explore fit " << name << " -> model " << spec.model_name
             << " (" << spec.basis << ", " << spec.samples << " samples)";
    work = [this, snapshot = std::move(snapshot), spec = std::move(spec)](
               const engine::JobManager::Progress& progress) {
      explore::FitResult fit =
          explore::fit_surrogate(engine_, snapshot, spec, progress);
      // Commit to the shared library exactly like POST /newmodel:
      // journaled save (so the model survives reopen and replicates to
      // followers), registry swap, revision bump so cached pages
      // re-render.
      {
        std::unique_lock lib(library_mutex_);
        define_model_locked(fit.definition, /*save=*/true);
      }
      surrogate_fits_total_.fetch_add(1);
      return typed_result(std::move(fit), explore::fit_table,
                          explore::fit_csv);
    };
  } else {
    throw HttpError("unknown explore mode '" + mode +
                    "' — use mc, pareto, inverse or fit");
  }

  explore_jobs_total_.fetch_add(1);
  return job_submitted(jobs_.submit(user, describe.str(), std::move(work)),
                       {"csv", "json"});
}

namespace {

std::uint64_t parse_job_id(const std::string& id_text) {
  try {
    std::size_t pos = 0;
    const std::uint64_t id = std::stoull(id_text, &pos);
    if (pos != id_text.size()) throw std::invalid_argument(id_text);
    return id;
  } catch (const std::exception&) {
    throw HttpError("bad job id '" + id_text + "'");
  }
}

/// points_done / points_total as a decimal fraction; 0 before start.
double job_fraction(const engine::JobSnapshot& snap) {
  if (snap.total == 0) return 0.0;
  return static_cast<double>(snap.done) / static_cast<double>(snap.total);
}

std::string fraction_text(double fraction) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << fraction;
  return os.str();
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// One job's status as a JSON object, plus its `result` (rendered now)
/// when asked for, the job is done and the result has a JSON form.
std::string job_json(const engine::JobSnapshot& snap, bool with_result) {
  std::ostringstream os;
  os << "{\"id\":" << snap.id << ",\"user\":\"" << json_escape(snap.user)
     << "\",\"description\":\"" << json_escape(snap.description)
     << "\",\"status\":\"" << engine::to_string(snap.status)
     << "\",\"done\":" << snap.done << ",\"total\":" << snap.total
     << ",\"progress\":" << fraction_text(job_fraction(snap));
  if (snap.status == engine::JobStatus::kFailed ||
      snap.status == engine::JobStatus::kCancelled) {
    os << ",\"error\":\"" << json_escape(snap.error) << "\"";
  }
  std::string out = os.str();
  if (with_result && snap.status == engine::JobStatus::kDone &&
      snap.result.has(engine::JobFormat::kJson)) {
    out += ",\"result\":";
    out += snap.result.render(engine::JobFormat::kJson);
  }
  out += '}';
  return out;
}

}  // namespace

// GET /job?id=N answers the status lines only; a done job's result is
// read in one format — table, csv or json — rendered for that read.
Response PowerPlayApp::page_job(const Params& q) {
  const std::string id_text = need(q, "id");
  const std::uint64_t id = parse_job_id(id_text);
  const auto snap = jobs_.get(id);
  if (!snap.has_value()) {
    return Response::not_found("job " + id_text);
  }
  const std::string format = get_or(q, "format");
  if (format == "json") {
    Response r;
    r.content_type = "application/json";
    r.body = job_json(*snap, true) + "\n";
    return r;
  }
  if (!format.empty()) {
    const bool csv = format == "csv";
    if (!csv && format != "table") {
      throw HttpError("unknown format '" + format +
                      "' — use table, csv or json");
    }
    if (snap->status != engine::JobStatus::kDone) {
      return Response::bad_request("job " + id_text + " is " +
                                   engine::to_string(snap->status) + "; " +
                                   (csv ? "CSV" : "the table") +
                                   " is available once done");
    }
    Response r = Response::ok_text(snap->result.render(
        csv ? engine::JobFormat::kCsv : engine::JobFormat::kTable));
    if (csv) r.content_type = "text/csv";
    return r;
  }
  std::ostringstream os;
  os << "id: " << snap->id << "\n";
  os << "user: " << snap->user << "\n";
  os << "description: " << snap->description << "\n";
  os << "status: " << engine::to_string(snap->status) << "\n";
  os << "progress: " << snap->done << "/" << snap->total << "\n";
  os << "progress_fraction: " << fraction_text(job_fraction(*snap)) << "\n";
  if (snap->status == engine::JobStatus::kFailed ||
      snap->status == engine::JobStatus::kCancelled) {
    os << "error: " << snap->error << "\n";
  }
  if (snap->status == engine::JobStatus::kDone) {
    for (const char* f : {"table", "csv", "json"}) {
      os << f << ": /job?id=" << id << "&format=" << f << "\n";
    }
  }
  return Response::ok_text(os.str());
}

Response PowerPlayApp::do_job_cancel(UserProfile profile, const Params& q) {
  const std::string& user = profile.username;
  const std::string id_text = need(q, "id");
  const std::uint64_t id = parse_job_id(id_text);
  const auto snap = jobs_.get(id);
  if (!snap.has_value()) {
    return Response::not_found("job " + id_text);
  }
  if (snap->user != user) {
    throw AccessDenied("job " + id_text + " belongs to another user");
  }
  std::ostringstream os;
  os << "id: " << id << "\n";
  switch (jobs_.cancel(id)) {
    case engine::CancelOutcome::kCancelled:
      os << "status: cancelled\n";
      break;
    case engine::CancelOutcome::kRequested:
      // The job stops at its next sweep point; poll /job for the
      // terminal status.
      os << "status: cancelling\n";
      os << "poll: /job?id=" << id << "\n";
      break;
    case engine::CancelOutcome::kAlreadyFinished:
      os << "status: " << engine::to_string(snap->status) << "\n";
      os << "note: job had already finished\n";
      break;
    case engine::CancelOutcome::kNoSuchJob:
      return Response::not_found("job " + id_text);
  }
  return Response::ok_text(os.str());
}

Response PowerPlayApp::page_jobs(const Params& q) {
  const std::string user = need(q, "user");
  if (get_or(q, "format") == "json") {
    std::string body = "[";
    bool first = true;
    for (const engine::JobSnapshot& snap : jobs_.list(user)) {
      if (!first) body += ",";
      first = false;
      body += job_json(snap, false);
    }
    body += "]\n";
    Response r;
    r.content_type = "application/json";
    r.body = std::move(body);
    return r;
  }
  std::ostringstream os;
  for (const engine::JobSnapshot& snap : jobs_.list(user)) {
    os << snap.id << " " << engine::to_string(snap.status) << " "
       << snap.done << "/" << snap.total << " "
       << fraction_text(job_fraction(snap)) << " " << snap.description
       << "\n";
  }
  return Response::ok_text(os.str());
}

Response PowerPlayApp::page_new_model(const Params& q) {
  const std::string user = need(q, "user");
  HtmlPage page("Define a new model");
  page.paragraph(
      "Equations may use your declared parameters plus the implicit "
      "globals vdd [V] and f [Hz].  Declare parameters as "
      "name=default pairs separated by spaces, e.g. 'bitwidth=16 "
      "alpha=0.5'.  Leave equation fields blank if unused.");
  HtmlForm form("/newmodel", "POST");
  form.hidden("user", user);
  form.text_field("Model name", "name", "");
  form.text_field("Category", "category", "computation");
  form.text_field("Documentation", "doc", "");
  form.text_field("Parameters (name=default ...)", "params", "");
  form.text_field("C full-swing [F]", "c_fullswing", "");
  form.text_field("C partial-swing [F]", "c_partialswing", "");
  form.text_field("V swing [V]", "v_swing", "");
  form.text_field("Static current [A]", "static_current", "");
  form.text_field("Direct power [W]", "power_direct", "");
  form.text_field("Area [m^2]", "area", "");
  form.text_field("Delay [s]", "delay", "");
  form.text_field("Proprietary (1 = do not share)", "proprietary", "0");
  form.submit("Create model");
  page.raw(form.str());
  return Response::ok_html(page.str());
}

Response PowerPlayApp::do_new_model(UserProfile profile, const Params& q) {
  const std::string& user = profile.username;
  model::UserModelDefinition def;
  def.name = need(q, "name");
  library::validate_store_name(def.name);
  def.category = library::category_from_string(
      get_or(q, "category", "computation"));
  def.documentation = get_or(q, "doc");

  // "name=default" pairs.
  std::istringstream is(get_or(q, "params"));
  std::string pair;
  while (is >> pair) {
    const std::size_t eq = pair.find('=');
    model::ParamSpec spec;
    if (eq == std::string::npos) {
      spec.name = pair;
      spec.default_value = 0;
    } else {
      spec.name = pair.substr(0, eq);
      spec.default_value =
          parse_double(pair.substr(eq + 1), "default of " + spec.name);
    }
    def.params.push_back(std::move(spec));
  }
  def.c_fullswing = get_or(q, "c_fullswing");
  def.c_partialswing = get_or(q, "c_partialswing");
  def.v_swing = get_or(q, "v_swing");
  def.static_current = get_or(q, "static_current");
  def.power_direct = get_or(q, "power_direct");
  def.area = get_or(q, "area");
  def.delay = get_or(q, "delay");

  // Construction surfaces equation errors to the form user.
  const bool proprietary = get_or(q, "proprietary", "0") == "1";
  define_model_locked(def, /*save=*/true, proprietary);

  HtmlPage page("Model created");
  page.paragraph("Model '" + def.name + "' is now in the shared library" +
                 std::string(proprietary ? " (proprietary: not exported)."
                                         : "."));
  page.raw(link("/model", {{"user", user}, {"name", def.name}},
                "Open its input form"));
  return Response::ok_html(page.str());
}

Response PowerPlayApp::page_doc(const Params& q) {
  const std::string user = need(q, "user");
  const std::string name = need(q, "name");
  const model::Model& m = registry_.at(name);
  if (explore::is_surrogate_doc(m.documentation())) {
    surrogate_hits_total_.fetch_add(1);
  }
  HtmlPage page("Documentation: " + name);
  page.paragraph("Category: " + model::to_string(m.category()));
  page.paragraph(m.documentation());
  page.heading("Parameters", 3);
  HtmlTable t;
  t.header({"Name", "Description", "Default", "Unit"});
  for (const model::ParamSpec& s : m.params()) {
    t.row({s.name, s.description, library::number_text(s.default_value),
           s.unit});
  }
  page.raw(t.str());
  page.raw(link("/model", {{"user", user}, {"name", name}},
                "Open input form"));
  return Response::ok_html(page.str());
}

Response PowerPlayApp::page_agent(const Params& q) {
  const std::string user = need(q, "user");
  const std::string request = get_or(q, "request", "power");
  HtmlPage page("Design Agent");
  page.paragraph(
      "The Design Agent translates a hyperlink request for data into a "
      "sequence of tool invocations determined by the chosen design "
      "context.");
  page.heading("Flows for request '" + request + "'", 3);
  HtmlTable t;
  t.header({"Context", "Tool sequence"});
  for (const std::string& ctx : flow::kStandardContexts) {
    std::string seq;
    for (const std::string& tool : agent_.resolve(request, ctx)) {
      if (!seq.empty()) seq += " -> ";
      seq += tool;
    }
    t.row({ctx, seq});
  }
  page.raw(t.str());
  page.heading("Registered tools", 3);
  page.raw("<ul>");
  for (const std::string& name : agent_.tool_names()) {
    page.raw("<li>" + html_escape(name) + "</li>");
  }
  page.raw("</ul>");
  page.raw(link("/model", {{"user", user}, {"name", "sram_toolflow"}},
                "Try the tool-backed SRAM entry"));
  return Response::ok_html(page.str());
}

Response PowerPlayApp::design_csv(const Params& q) {
  const std::string name = need(q, "name");
  library::validate_store_name(name);
  if (!store_.has_design(name)) {
    return Response::not_found("design '" + name + "'");
  }
  const auto design = store_.load_design(name, registry_);
  Response r;
  r.content_type = "text/csv";
  r.body = sheet::to_csv(engine_.play_compiled(*design));
  return r;
}

Response PowerPlayApp::page_help(const Params& q) {
  const std::string user = get_or(q, "user", "guest");
  HtmlPage page("PowerPlay Help & Tutorial");
  page.heading("Quick tutorial", 3);
  page.raw("<ol>");
  page.raw("<li>Identify yourself on the front page; your defaults and "
           "designs are kept on this server.</li>");
  page.raw("<li>Browse the " +
           link("/library", {{"user", user}}, "model library") +
           " and open any model's input form; set parameters and press "
           "Compute — feedback is immediate, so cycle through options "
           "freely.</li>");
  page.raw("<li>When satisfied, add the instance to a design spreadsheet "
           "with a row name.</li>");
  page.raw("<li>On the design page, edit globals (supply voltage, clock) "
           "and press PLAY to recompute every row; totals and per-module "
           "power update together.</li>");
  page.raw("<li>Row parameters accept formulas over the globals "
           "(<code>pixel_rate/16</code>) and over other rows "
           "(<code>rowpower(&quot;Read Bank&quot;)</code>, "
           "<code>totalpower()</code>) — that is how a DC-DC converter "
           "row sizes itself from its loads.</li>");
  page.raw("<li>Define your own models from the " +
           link("/newmodel", {{"user", user}}, "new-model form") +
           "; they join the shared library immediately (mark them "
           "proprietary to keep them off the network API).</li>");
  page.raw("</ol>");
  page.heading("Formula reference", 3);
  page.paragraph(
      "Operators: + - * / % ^, comparisons, && || !, ?:.  Functions: "
      "abs, sqrt, exp, ln, log2, log10, ceil, floor, round, pow, min, "
      "max, if.  Intermodel: rowpower/rowarea/rowenergy/rowdelay"
      "(\"Row\"), totalpower(), totalarea().");
  page.heading("More", 3);
  page.raw("<ul><li>" + link("/agent", {{"user", user}}, "Design Agent") +
           " — tool flows per design context</li><li>" +
           link("/api/models", {}, "Network model-access API") +
           " — share this library with other sites</li></ul>");
  return Response::ok_html(page.str());
}

Response PowerPlayApp::do_set_password(UserProfile profile, const Params& q) {
  // Changing a password requires the current one (authorized_user).
  profile.set_password(get_or(q, "newpw"));
  store_.save_user(profile);
  HtmlPage page("Password updated");
  page.paragraph(profile.has_password()
                     ? "Access to user '" + profile.username +
                           "' now requires the password."
                     : "Password removed; access is open again.");
  page.raw(link("/menu", {{"user", profile.username},
                          {"pw", get_or(q, "newpw")}},
                "Back to menu"));
  return Response::ok_html(page.str());
}

// ---------------------------------------------------------------------------
// Remote model-access protocol
// ---------------------------------------------------------------------------

Response PowerPlayApp::api_models(const Params&) {
  std::string out;
  for (const std::string& name : store_.list_models()) {
    if (!store_.is_proprietary(name)) out += name + "\n";
  }
  return Response::ok_text(out);
}

Response PowerPlayApp::api_model(const Params& q) {
  const std::string name = need(q, "name");
  library::validate_store_name(name);
  auto def = store_.load_model(name);
  if (!def) return Response::not_found("model '" + name + "'");
  if (store_.is_proprietary(name)) {
    Response r;
    r.status = 403;
    r.content_type = "text/plain";
    r.body = "model '" + name + "' is proprietary\n";
    return r;
  }
  return Response::ok_text(library::to_text(*def));
}

Response PowerPlayApp::api_designs(const Params&) {
  std::string out;
  for (const std::string& name : store_.list_designs()) out += name + "\n";
  return Response::ok_text(out);
}

Response PowerPlayApp::api_design(const Params& q) {
  const std::string name = need(q, "name");
  library::validate_store_name(name);
  if (!store_.has_design(name)) {
    return Response::not_found("design '" + name + "'");
  }
  const auto design = store_.load_design(name, registry_);
  return Response::ok_text(library::to_text(*design));
}

}  // namespace powerplay::web
