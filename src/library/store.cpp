#include "library/store.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "library/durable.hpp"
#include "library/textio.hpp"

namespace powerplay::library {

namespace fs = std::filesystem;

namespace {

constexpr char kJournalFile[] = "journal.ppwal";
constexpr char kCursorFile[] = "repl.cursor";

/// kind -> (directory, extension); the journal speaks these kinds.
/// Indexed by EntryKind.
struct KindLayout {
  EntryKind entry;
  const char* kind;
  const char* dir;
  const char* extension;
};
constexpr KindLayout kKinds[] = {
    {EntryKind::kModel, "model", "models", ".ppmodel"},
    {EntryKind::kDesign, "design", "designs", ".ppdesign"},
    {EntryKind::kUser, "user", "users", ".ppuser"},
};

const KindLayout& layout_of(EntryKind kind) {
  return kKinds[static_cast<std::size_t>(kind)];
}

EntryKind entry_kind(const std::string& kind) {
  for (const KindLayout& layout : kKinds) {
    if (kind == layout.kind) return layout.entry;
  }
  throw FormatError("unknown journal record kind '" + kind + "'");
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw FormatError("cannot read file: " + path.string());
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool all_digits(const std::string& s, std::size_t begin, std::size_t end) {
  if (begin >= end) return false;
  for (std::size_t i = begin; i < end; ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
  }
  return true;
}

/// In-flight temp files from atomic_write_file are named
/// "<name>.<ext>.tmp<pid>.<seq>"; such a file is garbage by
/// construction (a completed write renamed it away).  Match that exact
/// shape — a known store extension, then ".tmp", digits, '.', digits at
/// end of name — because store names may themselves contain ".tmp"
/// (e.g. an entry "rev.tmp" materializes as "rev.tmp.ppdesign") and
/// must never be swept as garbage.
bool is_temp_file(const fs::path& path) {
  const std::string name = path.filename().string();
  const std::size_t tmp = name.rfind(".tmp");
  if (tmp == std::string::npos) return false;
  const std::size_t dot = name.find('.', tmp + 4);
  if (dot == std::string::npos) return false;
  if (!all_digits(name, tmp + 4, dot) ||
      !all_digits(name, dot + 1, name.size())) {
    return false;
  }
  const auto base_ends_with = [&](const std::string& ext) {
    return tmp >= ext.size() &&
           name.compare(tmp - ext.size(), ext.size(), ext) == 0;
  };
  for (const KindLayout& layout : kKinds) {
    if (base_ends_with(layout.extension)) return true;
  }
  return base_ends_with(".ppwal");
}

}  // namespace

void validate_store_name(const std::string& name) {
  if (name.empty()) throw BadStoreName("empty name");
  if (name.front() == '.') {
    throw BadStoreName("name must not start with '.': '" + name + "'");
  }
  for (char c : name) {
    if (c == '/' || c == '\\' || c == '\0') {
      throw BadStoreName("name contains a path separator: '" + name + "'");
    }
  }
}

// ---------------------------------------------------------------------------
// UserProfile
// ---------------------------------------------------------------------------

std::string password_digest(const std::string& password) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : password) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

bool UserProfile::check_password(const std::string& password) const {
  if (!has_password()) return true;
  return password_digest(password) == password_hash;
}

void UserProfile::set_password(const std::string& password) {
  password_hash = password.empty() ? "" : password_digest(password);
}

std::string to_text(const UserProfile& profile) {
  std::string out = "user " + quoted(profile.username) + " {\n";
  for (const auto& [name, value] : profile.defaults) {
    out += "  default " + quoted(name) + " " + number_text(value) + "\n";
  }
  for (const std::string& d : profile.designs) {
    out += "  design " + quoted(d) + "\n";
  }
  if (profile.has_password()) {
    out += "  password " + quoted(profile.password_hash) + "\n";
  }
  out += "}\n";
  return out;
}

UserProfile parse_user_profile(const std::string& text) {
  TokCursor cur(tokenize_document(text));
  UserProfile profile;
  cur.expect_ident("user");
  profile.username = cur.take_string();
  cur.expect(TokKind::kLBrace);
  while (cur.peek().kind != TokKind::kRBrace) {
    if (cur.accept_ident("default")) {
      const std::string name = cur.take_string();
      profile.defaults[name] = cur.take_number();
    } else if (cur.accept_ident("design")) {
      profile.designs.push_back(cur.take_string());
    } else if (cur.accept_ident("password")) {
      profile.password_hash = cur.take_string();
    } else {
      cur.fail("unknown user attribute");
    }
  }
  cur.expect(TokKind::kRBrace);
  return profile;
}

// ---------------------------------------------------------------------------
// LibraryStore
// ---------------------------------------------------------------------------

LibraryStore::LibraryStore(fs::path root, StoreOptions options)
    : root_(std::move(root)),
      options_(options),
      counters_(std::make_unique<Counters>()),
      catalog_(std::make_unique<Catalog>()),
      signal_(std::make_unique<CommitSignal>()),
      commit_mutex_(std::make_unique<std::mutex>()) {
  fs::create_directories(root_ / "models");
  fs::create_directories(root_ / "designs");
  fs::create_directories(root_ / "users");
  fs::create_directories(root_ / "quarantine");
  journal_ = std::make_unique<Journal>(root_ / kJournalFile);
  recover();
  std::lock_guard lock(*commit_mutex_);
  load_replication_cursor_locked();
}

fs::path LibraryStore::path_for(EntryKind kind,
                                const std::string& name) const {
  const KindLayout& layout = layout_of(kind);
  return root_ / layout.dir / (name + layout.extension);
}

// ---------------------------------------------------------------------------
// Durability: commit path, recovery, quarantine
// ---------------------------------------------------------------------------

void LibraryStore::commit(const JournalRecord& record) {
  // Append→apply→rotate must be atomic with respect to other commits:
  // distinct users' writes reach here concurrently, and a rotate()
  // issued while another thread's record is appended (fsync'd, ack'd)
  // but not yet applied would truncate that record's only durable copy.
  std::lock_guard lock(*commit_mutex_);
  journal_->append(record);  // fsync'd: the mutation is now acknowledged
  counters_->journal_appends.fetch_add(1);
  apply(record);
  counters_->revision.fetch_add(1);  // invalidates revision-keyed caches
  if (journal_->tail_bytes() > options_.journal_rotate_bytes) {
    // Every record up to here was applied to a fsync'd snapshot the
    // moment it was appended, so the tail is redundant: compact it.
    // (The rotation bumps the epoch; followers past the tail re-sync
    // from a snapshot, which is exactly the state they already hold.)
    journal_->rotate();
    counters_->journal_rotations.fetch_add(1);
  }
  notify_position_moved();
}

void LibraryStore::apply(const JournalRecord& record) {
  // The catalog moves on the side of the file change that makes a
  // concurrent reader's recorded stamp stale early, never late: a new
  // stamp only once the new bytes are in place, and an entry leaves
  // the catalog before its file goes.
  const EntryKind kind = entry_kind(record.kind);
  const fs::path path = path_for(kind, record.name);
  if (record.op == JournalRecord::Op::kPut) {
    atomic_write_file(path, with_checksum_footer(record.contents));
    counters_->snapshot_writes.fetch_add(1);
    catalog_->put(kind, record.name);
  } else {
    catalog_->erase(kind, record.name);
    std::error_code ec;
    fs::remove(path, ec);  // absent already = idempotent replay
    fsync_dir(path.parent_path());
  }
}

void LibraryStore::quarantine(const fs::path& path, bool copy) const {
  const fs::path qdir = root_ / "quarantine";
  std::error_code ec;
  fs::create_directories(qdir, ec);
  fs::path dest = qdir / path.filename();
  for (int i = 1; fs::exists(dest); ++i) {
    dest = qdir / (path.filename().string() + "." + std::to_string(i));
  }
  if (copy) {
    fs::copy_file(path, dest, ec);
  } else {
    fs::rename(path, dest, ec);
  }
  if (ec) return;  // never delete: on failure the original stays put
  fsync_dir(qdir);
  if (!copy) fsync_dir(path.parent_path());
  counters_->quarantined_files.fetch_add(1);
}

std::optional<std::string> LibraryStore::read_verified(
    EntryKind kind, const std::string& name) const {
  const fs::path path = path_for(kind, name);
  const std::string raw = read_file(path);
  std::string contents;
  if (verify_snapshot(raw, &contents) != SnapshotState::kOk) {
    catalog_->erase(kind, name);
    quarantine(path);
    return std::nullopt;
  }
  return contents;
}

void LibraryStore::recover() {
  // 1. Sweep the materialized trees: drop stale temp files, verify
  //    every snapshot's footer, quarantine what fails and catalog the
  //    rest.
  for (const KindLayout& layout : kKinds) {
    const fs::path dir = root_ / layout.dir;
    std::vector<fs::path> entries;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file()) entries.push_back(entry.path());
    }
    for (const fs::path& path : entries) {
      if (is_temp_file(path)) {
        std::error_code ec;
        fs::remove(path, ec);  // an unrenamed write that never committed
        continue;
      }
      if (path.extension() != layout.extension) continue;
      if (verify_snapshot(read_file(path), nullptr) == SnapshotState::kOk) {
        catalog_->put(layout.entry, path.stem().string());
      } else {
        quarantine(path);
      }
    }
  }

  // 2. A journal file that is not a journal (or lost its header) is
  //    preserved in quarantine and replaced by a fresh one.
  if (!journal_->header_valid()) {
    quarantine(journal_->path(), /*copy=*/true);
    journal_->rotate();
    counters_->journal_rotations.fetch_add(1);
  }

  // 3. Replay every intact record: each acknowledged mutation lands in
  //    its snapshot (idempotent re-apply).  A torn tail is exactly the
  //    unacknowledged in-flight write of the crash — dropped.
  const Journal::ReadResult replay = journal_->read_all();
  for (const JournalRecord& record : replay.records) {
    apply(record);
    counters_->journal_replayed.fetch_add(1);
  }

  // 4. Compact: the replayed (and any torn) bytes are now redundant.
  //    Also upgrades a legacy (v1, unstamped) journal to the current
  //    framing — appends refuse v1 files, so the rotation is mandatory.
  //    Either way the rotation bumps the epoch, which is the correct
  //    signal to any follower: this store's history just changed shape.
  if (!replay.records.empty() || replay.torn || journal_->version() == 1) {
    journal_->rotate();
    counters_->journal_rotations.fetch_add(1);
  }
}

DurabilityStats LibraryStore::durability() const {
  DurabilityStats out;
  out.journal_appends = counters_->journal_appends.load();
  out.journal_replayed = counters_->journal_replayed.load();
  out.journal_rotations = counters_->journal_rotations.load();
  out.snapshot_writes = counters_->snapshot_writes.load();
  out.quarantined_files = counters_->quarantined_files.load();
  return out;
}

void LibraryStore::flush() {
  std::lock_guard lock(*commit_mutex_);
  if (journal_->tail_bytes() > 0) {
    journal_->rotate();
    counters_->journal_rotations.fetch_add(1);
    notify_position_moved();
  }
  if (repl_cursor_dirty_) {
    atomic_write_file(cursor_path(), encode_cursor(repl_cursor_));
    repl_cursor_dirty_ = false;
  }
}

// ---------------------------------------------------------------------------
// Replication
// ---------------------------------------------------------------------------

void LibraryStore::notify_position_moved() const {
  // Lock-then-notify so a waiter cannot check the predicate, miss this
  // update, and then sleep through the wakeup.
  { std::lock_guard lock(signal_->mutex); }
  signal_->cv.notify_all();
}

fs::path LibraryStore::cursor_path() const { return root_ / kCursorFile; }

void LibraryStore::load_replication_cursor_locked() {
  const fs::path path = cursor_path();
  if (!fs::exists(path)) return;
  const ReplCursor cursor = parse_cursor(read_file(path));
  if (cursor.valid) {
    repl_cursor_ = cursor;
  } else {
    // Corrupt cursor: preserve the evidence and fall back to a full
    // re-bootstrap (always safe, never wrong).
    quarantine(path);
  }
}

std::uint64_t LibraryStore::epoch() const { return journal_->epoch(); }

std::uint64_t LibraryStore::last_seq() const { return journal_->last_seq(); }

LibraryStore::ReplFeed LibraryStore::read_replication_feed(
    std::uint64_t epoch, std::uint64_t after_seq,
    std::size_t max_bytes) const {
  // One read_all() gives a consistent (header, records) view even while
  // commits land concurrently.
  const Journal::ReadResult tail = journal_->read_all();
  ReplFeed feed;
  feed.epoch = tail.epoch;
  feed.last_seq =
      tail.records.empty() ? tail.base_seq - 1 : tail.records.back().seq;
  if (!tail.header_ok || tail.epoch != epoch) return feed;  // re-bootstrap
  feed.epoch_ok = true;
  if (after_seq + 1 < tail.base_seq) {
    feed.gap = true;  // already compacted away (cannot happen with the
    return feed;      // epoch check, but refuse defensively)
  }
  std::size_t batch_bytes = 0;
  for (const JournalRecord& record : tail.records) {
    if (record.seq <= after_seq) continue;
    const std::size_t frame = Journal::frame_bytes(record);
    if (!feed.records.empty() && batch_bytes + frame > max_bytes) {
      feed.pending_bytes += frame;  // ships in the next batch
      continue;
    }
    batch_bytes += frame;
    feed.records.push_back(record);
  }
  return feed;
}

bool LibraryStore::wait_for_commit(std::uint64_t epoch,
                                   std::uint64_t after_seq,
                                   std::chrono::milliseconds timeout) const {
  const auto moved = [&] {
    return journal_->epoch() != epoch || journal_->last_seq() > after_seq;
  };
  std::unique_lock lock(signal_->mutex);
  return signal_->cv.wait_for(lock, timeout, moved);
}

ReplSnapshot LibraryStore::export_replication_snapshot() {
  std::lock_guard lock(*commit_mutex_);  // freeze the position
  ReplSnapshot snapshot;
  snapshot.epoch = journal_->epoch();
  snapshot.seq = journal_->last_seq();
  for (const KindLayout& layout : kKinds) {
    for (const std::string& name : catalog_->names(layout.entry)) {
      const auto contents = read_verified(layout.entry, name);
      if (!contents) continue;  // corrupt: quarantined, not shipped
      JournalRecord entry;
      entry.op = JournalRecord::Op::kPut;
      entry.kind = layout.kind;
      entry.name = name;
      entry.contents = *contents;
      snapshot.entries.push_back(std::move(entry));
    }
  }
  return snapshot;
}

LibraryStore::ReplApply LibraryStore::apply_replicated(
    const JournalRecord& record) {
  std::lock_guard lock(*commit_mutex_);
  if (!repl_cursor_.valid || record.epoch != repl_cursor_.epoch) {
    return ReplApply::kEpochMismatch;
  }
  if (record.seq <= repl_cursor_.seq) return ReplApply::kDuplicate;
  if (record.seq != repl_cursor_.seq + 1) return ReplApply::kGap;
  // The shipped record's own durability story: apply() materializes it
  // with an atomic fsync'd write *before* the cursor moves, and the
  // cursor file itself is flushed lazily — after a crash the cursor is
  // merely stale, and the records it re-fetches are skipped or
  // re-applied idempotently.
  apply(record);
  counters_->revision.fetch_add(1);
  repl_cursor_.seq = record.seq;
  repl_cursor_dirty_ = true;
  notify_position_moved();
  return ReplApply::kApplied;
}

ReplCursor LibraryStore::replication_cursor() const {
  std::lock_guard lock(*commit_mutex_);
  return repl_cursor_;
}

void LibraryStore::flush_replication_cursor() {
  std::lock_guard lock(*commit_mutex_);
  if (!repl_cursor_dirty_) return;
  atomic_write_file(cursor_path(), encode_cursor(repl_cursor_));
  repl_cursor_dirty_ = false;
}

void LibraryStore::invalidate_replication_cursor() {
  std::lock_guard lock(*commit_mutex_);
  repl_cursor_ = ReplCursor{};
  repl_cursor_dirty_ = false;
  std::error_code ec;
  if (fs::remove(cursor_path(), ec)) fsync_dir(root_);
}

void LibraryStore::install_replication_snapshot(const ReplSnapshot& snapshot) {
  std::lock_guard lock(*commit_mutex_);
  // Durably forget the old cursor first: a crash anywhere inside the
  // install then finds no cursor and re-bootstraps from scratch, never
  // resuming a half-installed state.
  repl_cursor_ = ReplCursor{};
  repl_cursor_dirty_ = false;
  std::error_code ec;
  if (fs::remove(cursor_path(), ec)) fsync_dir(root_);

  // Replace the materialized trees wholesale (entries absent from the
  // snapshot must not survive).
  for (const KindLayout& layout : kKinds) {
    for (const std::string& name : catalog_->names(layout.entry)) {
      catalog_->erase(layout.entry, name);
      fs::remove(path_for(layout.entry, name), ec);
    }
    fsync_dir(root_ / layout.dir);
  }
  for (const JournalRecord& entry : snapshot.entries) {
    apply(entry);
  }

  // The local journal described the discarded state; start fresh.
  journal_->rotate();
  counters_->journal_rotations.fetch_add(1);

  repl_cursor_ = ReplCursor{snapshot.epoch, snapshot.seq, true};
  atomic_write_file(cursor_path(), encode_cursor(repl_cursor_));
  counters_->revision.fetch_add(1);
  notify_position_moved();
}

std::uint64_t LibraryStore::promote() {
  std::lock_guard lock(*commit_mutex_);
  const std::uint64_t fresh =
      std::max(journal_->epoch(), repl_cursor_.epoch) + 1;
  journal_->rotate_to_epoch(fresh, repl_cursor_.seq + 1);
  counters_->journal_rotations.fetch_add(1);
  repl_cursor_ = ReplCursor{};
  repl_cursor_dirty_ = false;
  std::error_code ec;
  if (fs::remove(cursor_path(), ec)) fsync_dir(root_);
  notify_position_moved();
  return fresh;
}

void LibraryStore::save_model(const model::UserModelDefinition& def,
                              bool proprietary) {
  validate_store_name(def.name);
  std::string text;
  if (proprietary) text += "# proprietary\n";
  text += to_text(def);
  commit({JournalRecord::Op::kPut, "model", def.name, std::move(text)});
}

std::optional<model::UserModelDefinition> LibraryStore::load_model(
    const std::string& name) const {
  validate_store_name(name);
  if (!catalog_->contains(EntryKind::kModel, name)) return std::nullopt;
  const auto text = read_verified(EntryKind::kModel, name);
  if (!text) return std::nullopt;  // corrupt: quarantined, reported absent
  return parse_user_model(*text);
}

std::vector<std::string> LibraryStore::list_models() const {
  return catalog_->names(EntryKind::kModel);
}

bool LibraryStore::is_proprietary(const std::string& name) const {
  validate_store_name(name);
  if (!catalog_->contains(EntryKind::kModel, name)) return false;
  const std::string text = read_file(path_for(EntryKind::kModel, name));
  return text.rfind("# proprietary\n", 0) == 0;
}

void LibraryStore::load_all_models(model::ModelRegistry& registry) const {
  for (const std::string& name : list_models()) {
    auto def = load_model(name);
    if (!def) continue;  // quarantined by read_verified
    registry.add_or_replace(std::make_shared<model::UserModel>(*def));
  }
}

bool LibraryStore::remove_model(const std::string& name) {
  validate_store_name(name);
  if (!catalog_->contains(EntryKind::kModel, name)) return false;
  commit({JournalRecord::Op::kDelete, "model", name, ""});
  return true;
}

bool LibraryStore::remove_design(const std::string& name) {
  validate_store_name(name);
  if (!catalog_->contains(EntryKind::kDesign, name)) return false;
  commit({JournalRecord::Op::kDelete, "design", name, ""});
  return true;
}

bool LibraryStore::remove_user(const std::string& username) {
  validate_store_name(username);
  if (!catalog_->contains(EntryKind::kUser, username)) return false;
  commit({JournalRecord::Op::kDelete, "user", username, ""});
  return true;
}

void LibraryStore::save_design(const sheet::Design& design) {
  std::vector<const sheet::Design*> visited;
  save_design_rec(design, visited);
}

void LibraryStore::save_design_rec(const sheet::Design& design,
                                   std::vector<const sheet::Design*>& visited) {
  validate_store_name(design.name());
  // Save macros the design references first so a later load resolves.
  // A sub-design shared within the tree is written once per save, and
  // one the store already holds, whole, is not written at all.
  for (const sheet::Row& row : design.rows()) {
    if (!row.is_macro()) continue;
    const sheet::Design* sub = row.macro.get();
    if (std::find(visited.begin(), visited.end(), sub) != visited.end()) {
      continue;
    }
    visited.push_back(sub);
    if (!holds_tree(*sub)) save_design_rec(*sub, visited);
  }
  commit({JournalRecord::Op::kPut, "design", design.name(), to_text(design)});
}

bool LibraryStore::holds_tree(const sheet::Design& design) const {
  return catalog_->held_design(design.name()).design.get() == &design &&
         std::all_of(design.rows().begin(), design.rows().end(),
                     [&](const sheet::Row& row) {
                       return !row.is_macro() || holds_tree(*row.macro);
                     });
}

bool LibraryStore::has_design(const std::string& name) const {
  validate_store_name(name);
  return catalog_->contains(EntryKind::kDesign, name);
}

std::shared_ptr<const sheet::Design> LibraryStore::load_design(
    const std::string& name, const model::ModelRegistry& lib) const {
  std::vector<std::string> in_flight;
  return load_design_rec(name, lib, in_flight, /*sub=*/false);
}

std::shared_ptr<const sheet::Design> LibraryStore::load_design_rec(
    const std::string& name, const model::ModelRegistry& lib,
    std::vector<std::string>& in_flight, bool sub) const {
  validate_store_name(name);
  if (std::find(in_flight.begin(), in_flight.end(), name) !=
      in_flight.end()) {
    std::string cycle;
    for (const std::string& n : in_flight) cycle += n + " -> ";
    throw FormatError("design reference cycle: " + cycle + name);
  }
  const Catalog::Held held = catalog_->held_design(name);
  if (held.stamp == 0) {
    throw FormatError("no stored design named '" + name + "'");
  }
  in_flight.push_back(name);
  // Resolves a macro reference; `named` stays true while every resolved
  // sub-design carries the name it was referenced by, which lets a held
  // design be revalidated by its rows' macro names.
  bool named = true;
  const auto resolve = [&](const std::string& ref) {
    auto design = load_design_rec(ref, lib, in_flight, /*sub=*/true);
    named = named && design->name() == ref;
    return design;
  };
  // A held design still stands for the stored tree while every model
  // row points at the registry's current model of that name and every
  // macro row at the current held sub-design.  Checking the macros
  // resolves them, which records their stamps as a disk read would.
  if (held.design != nullptr &&
      std::all_of(held.design->rows().begin(), held.design->rows().end(),
                  [&](const sheet::Row& row) {
                    return row.is_macro()
                               ? resolve(row.macro->name()) == row.macro
                               : lib.find_shared(row.model->name()) ==
                                     row.model;
                  })) {
    in_flight.pop_back();
    return held.design;
  }
  const auto text = read_verified(EntryKind::kDesign, name);
  if (!text) {
    throw FormatError("stored design '" + name +
                      "' was corrupt and has been quarantined");
  }
  named = true;
  auto design =
      std::make_shared<const sheet::Design>(parse_design(*text, lib, resolve));
  in_flight.pop_back();
  // Only sub-designs are held: they are the ones loaded again as parts
  // of other designs, and they bound the memory held to the macro set.
  if (sub && named && design->name() == name) {
    catalog_->hold_design(name, held.stamp, design);
  }
  return design;
}

std::vector<std::string> LibraryStore::list_designs() const {
  return catalog_->names(EntryKind::kDesign);
}

void LibraryStore::save_user(const UserProfile& profile) {
  validate_store_name(profile.username);
  commit({JournalRecord::Op::kPut, "user", profile.username,
          to_text(profile)});
}

std::optional<UserProfile> LibraryStore::load_user(
    const std::string& username) const {
  validate_store_name(username);
  if (!catalog_->contains(EntryKind::kUser, username)) return std::nullopt;
  const auto text = read_verified(EntryKind::kUser, username);
  if (!text) return std::nullopt;
  return parse_user_profile(*text);
}

UserProfile default_profile(const std::string& username) {
  UserProfile fresh;
  fresh.username = username;
  fresh.defaults = {{"vdd", 1.5}, {"f", 1.0e6}};
  return fresh;
}

UserProfile LibraryStore::ensure_user(const std::string& username) {
  if (auto existing = load_user(username)) return *existing;
  UserProfile fresh = default_profile(username);
  save_user(fresh);
  return fresh;
}

std::vector<std::string> LibraryStore::list_users() const {
  return catalog_->names(EntryKind::kUser);
}

// ---------------------------------------------------------------------------
// fsck
// ---------------------------------------------------------------------------

FsckReport fsck_store(const fs::path& root) {
  FsckReport report;
  for (const KindLayout& layout : kKinds) {
    const fs::path dir = root / layout.dir;
    if (!fs::exists(dir)) continue;
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file() &&
          entry.path().extension() == layout.extension &&
          !is_temp_file(entry.path())) {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    for (const fs::path& path : files) {
      ++report.files_checked;
      std::string raw;
      try {
        raw = read_file(path);
      } catch (const FormatError&) {
        ++report.corrupt;
        report.problems.push_back("unreadable: " + path.string());
        continue;
      }
      switch (verify_snapshot(raw, nullptr)) {
        case SnapshotState::kOk:
          break;
        case SnapshotState::kMissingFooter:
          ++report.corrupt;
          report.problems.push_back("missing checksum footer: " +
                                    path.string());
          break;
        case SnapshotState::kCorrupt:
          ++report.corrupt;
          report.problems.push_back("checksum mismatch: " + path.string());
          break;
      }
    }
  }

  const fs::path journal_path = root / kJournalFile;
  if (fs::exists(journal_path)) {
    report.journal_present = true;
    std::string bytes;
    try {
      bytes = read_file(journal_path);
    } catch (const FormatError&) {
      report.journal_header_ok = false;
      report.problems.push_back("unreadable journal: " +
                                journal_path.string());
      return report;
    }
    const Journal::ReadResult parsed = Journal::parse(bytes);
    report.journal_records = parsed.records.size();
    report.journal_header_ok = parsed.header_ok;
    report.journal_torn = parsed.torn;
    report.journal_version = parsed.version;
    report.journal_epoch = parsed.epoch;
    report.journal_base_seq = parsed.base_seq;
    report.journal_last_seq = parsed.records.empty()
                                  ? parsed.base_seq - 1
                                  : parsed.records.back().seq;
    if (!parsed.header_ok) {
      report.problems.push_back("invalid journal header: " +
                                journal_path.string());
    } else if (parsed.torn) {
      report.problems.push_back(
          "torn journal tail after " + std::to_string(parsed.valid_bytes) +
          " bytes: " + journal_path.string());
    }
    // Epoch/sequence continuity: every record must be stamped with the
    // header epoch and consecutive seqs from base_seq (shipped replay
    // relies on exactly this invariant).
    for (std::size_t i = 0; i < parsed.records.size(); ++i) {
      const JournalRecord& record = parsed.records[i];
      const std::uint64_t want_seq = parsed.base_seq + i;
      if (record.epoch != parsed.epoch || record.seq != want_seq) {
        report.journal_sequence_ok = false;
        report.problems.push_back(
            "journal continuity broken at record " + std::to_string(i) +
            ": stamped (" + std::to_string(record.epoch) + ", " +
            std::to_string(record.seq) + "), expected (" +
            std::to_string(parsed.epoch) + ", " +
            std::to_string(want_seq) + ")");
        break;
      }
    }
  }

  const fs::path cursor_path = root / kCursorFile;
  if (fs::exists(cursor_path)) {
    report.cursor_present = true;
    std::string raw;
    try {
      raw = read_file(cursor_path);
    } catch (const FormatError&) {
      raw.clear();
    }
    const ReplCursor cursor = parse_cursor(raw);
    report.cursor_ok = cursor.valid;
    report.cursor_epoch = cursor.epoch;
    report.cursor_seq = cursor.seq;
    if (!cursor.valid) {
      report.problems.push_back("corrupt replication cursor: " +
                                cursor_path.string());
    }
  }
  return report;
}

}  // namespace powerplay::library
