// store.hpp — one site's persistent PowerPlay library.
//
// "The username is passed to a Perl script which retrieves the individual
// user's defaults from the PowerPlay server's local file system.  These
// user defaults include the relevant hardware libraries and any
// previously generated designs."  A LibraryStore is that local file
// system: shared user-defined models, saved designs (re-usable as macros
// unless marked proprietary), and per-user profiles.
//
// Layout under the root directory:
//   models/<name>.ppmodel     — serialized UserModelDefinition
//   designs/<name>.ppdesign   — serialized Design
//   users/<name>.ppuser       — serialized UserProfile
//   journal.ppwal             — write-ahead journal (journal.hpp)
//   quarantine/               — corrupt files moved aside, never deleted
//
// Durability (docs/persistence.md): every mutation is appended to the
// journal and fsync'd *first* (the ack point), then materialized with
// an atomic temp+fsync+rename+dirsync write carrying a checksum footer.
// Opening a store runs recovery: corrupt snapshots are quarantined,
// every intact journal record is replayed, and the journal is
// compacted.  A crash at any write boundary therefore loses nothing
// that was acknowledged, and a torn file is never visible at a final
// path nor silently served.
//
// Which entries exist is answered from memory: recovery builds a
// Catalog (catalog.hpp) from the snapshots it verifies, and every
// apply() of a record — commit, replay, replicated apply, snapshot
// install — keeps it current.  Existence checks and listings never
// touch the filesystem; only reading an entry's contents does.
//
// Sub-designs are held parsed.  When load_design resolves a macro
// reference, the catalog keeps the parsed design beside the entry's
// stamp, and the next resolution of that name is served from memory
// while the stamp is current, every model row still points at the
// registry's model of that name and every macro row at the current
// held sub-design.  The put or erase that renews the stamp drops the
// held design, so a held macro is not re-read from disk until its stamp
// moves or the store reopens.  save_design writes no record for a
// sub-design whose whole tree the store holds: it is stored byte for
// byte already.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "library/catalog.hpp"
#include "library/journal.hpp"
#include "library/replica.hpp"
#include "library/serialize.hpp"
#include "library/textio.hpp"
#include "model/registry.hpp"
#include "sheet/design.hpp"

namespace powerplay::library {

/// Per-user state: defaults applied to new design sheets plus the names
/// of the user's saved designs.
struct UserProfile {
  std::string username;
  std::map<std::string, double> defaults;   ///< e.g. {"vdd": 1.5}
  std::vector<std::string> designs;         ///< saved design names
  /// FNV-1a hash of the access password ("PowerPlay can provide
  /// password-restricted access"); empty = open access.
  std::string password_hash;

  [[nodiscard]] bool has_password() const { return !password_hash.empty(); }
  [[nodiscard]] bool check_password(const std::string& password) const;
  void set_password(const std::string& password);
};

/// FNV-1a 64-bit, hex-encoded — era-appropriate integrity, not modern
/// crypto; run a private instance behind the firewall for real secrecy,
/// as the paper itself advises.
std::string password_digest(const std::string& password);

/// The profile a user has before anything of theirs is saved: the
/// first-visit defaults (vdd 1.5 V, f 1 MHz), no designs, no password.
UserProfile default_profile(const std::string& username);

std::string to_text(const UserProfile& profile);
UserProfile parse_user_profile(const std::string& text);

/// Durability knobs.  Defaults suit tests and small sites.
struct StoreOptions {
  /// Rotate (compact) the journal once its record tail exceeds this;
  /// every record is already applied to a fsync'd snapshot by then.
  std::uint64_t journal_rotate_bytes = 1u << 20;
};

/// Counters for /healthz and the recovery tests.
struct DurabilityStats {
  std::uint64_t journal_appends = 0;   ///< records committed (ack'd)
  std::uint64_t journal_replayed = 0;  ///< records re-applied at open
  std::uint64_t journal_rotations = 0;
  std::uint64_t snapshot_writes = 0;   ///< atomic materialized writes
  std::uint64_t quarantined_files = 0; ///< corrupt files moved aside
};

class LibraryStore {
 public:
  /// Opens (creating directories as needed) the store at `root` and
  /// runs crash recovery: verify snapshot checksums (quarantining
  /// corrupt files), replay the journal, compact it.
  explicit LibraryStore(std::filesystem::path root, StoreOptions options = {});

  /// Move-only: the journal holds an open, fsync'd file descriptor.
  LibraryStore(LibraryStore&&) = default;
  LibraryStore& operator=(LibraryStore&&) = default;

  [[nodiscard]] const std::filesystem::path& root() const { return root_; }

  // --- shared models ---------------------------------------------------
  void save_model(const model::UserModelDefinition& def,
                  bool proprietary = false);
  [[nodiscard]] std::optional<model::UserModelDefinition> load_model(
      const std::string& name) const;
  [[nodiscard]] std::vector<std::string> list_models() const;
  /// True if the model was saved with the proprietary flag — such entries
  /// are withheld from the remote model-access protocol.
  [[nodiscard]] bool is_proprietary(const std::string& name) const;

  /// Load every stored model into `registry` (on top of the built-ins).
  void load_all_models(model::ModelRegistry& registry) const;

  /// Journaled deletion; false if no such entry existed.  Like saves,
  /// the removal is acknowledged in the journal before the snapshot
  /// file goes away, so replay reproduces it after a crash.
  bool remove_model(const std::string& name);
  bool remove_design(const std::string& name);
  bool remove_user(const std::string& username);

  // --- designs -----------------------------------------------------------
  /// Commit `design` and every sub-design in its tree, each once, except
  /// sub-designs whose whole tree is the one the store holds.
  void save_design(const sheet::Design& design);
  /// Load by name, resolving macro references recursively from this
  /// store (held sub-designs are served from memory; see the file
  /// comment).  The top-level design is held only while it is also a
  /// sub-design.  Throws FormatError on missing designs or reference
  /// cycles.
  [[nodiscard]] std::shared_ptr<const sheet::Design> load_design(
      const std::string& name, const model::ModelRegistry& lib) const;
  [[nodiscard]] std::vector<std::string> list_designs() const;
  [[nodiscard]] bool has_design(const std::string& name) const;

  // --- users ---------------------------------------------------------------
  void save_user(const UserProfile& profile);
  [[nodiscard]] std::optional<UserProfile> load_user(
      const std::string& username) const;
  /// Load if present, otherwise save and return default_profile().
  UserProfile ensure_user(const std::string& username);
  [[nodiscard]] std::vector<std::string> list_users() const;

  // --- durability ------------------------------------------------------
  [[nodiscard]] DurabilityStats durability() const;
  /// Monotonic mutation counter: bumped once per committed mutation
  /// (model/design/user save or removal).  Response caches key rendered
  /// pages by this value — any commit observably advances it, so a
  /// stale page can never be served as current.  Starts at 1 after
  /// recovery; replayed records do not bump it again (they were counted
  /// as the original commits).
  [[nodiscard]] std::uint64_t revision() const {
    return counters_->revision.load();
  }
  /// The per-entry stamps behind every existence check and listing.  A
  /// ReadScope over it records what a render read; Catalog::current
  /// tells whether any of that has changed since.
  [[nodiscard]] const Catalog& catalog() const { return *catalog_; }
  /// Graceful shutdown: compact (rotate) the journal so the next open
  /// replays nothing.  Safe to call at any quiesced point.
  void flush();

  // --- replication -----------------------------------------------------
  //
  // The store is the replication engine's ground truth on both sides of
  // the wire.  A primary serves its commit stream via
  // read_replication_feed() / export_replication_snapshot(); a follower
  // applies it via install_replication_snapshot() + apply_replicated(),
  // tracking progress in a durable cursor (`repl.cursor`, flushed once
  // per batch — idempotent re-apply covers the crash window between an
  // apply and its cursor flush).  See journal.hpp for the (epoch, seq)
  // cursor semantics.

  /// Current journal position: the stream this store would serve.
  [[nodiscard]] std::uint64_t epoch() const;
  [[nodiscard]] std::uint64_t last_seq() const;

  /// One batch of the commit stream for a follower at `after_seq` of
  /// `epoch`.  Strict epoch equality: any mismatch (rotation, recovery,
  /// promotion — ours or a predecessor's) makes the tail unservable and
  /// the follower must re-bootstrap.
  struct ReplFeed {
    bool epoch_ok = false;  ///< false: follower must re-bootstrap
    bool gap = false;       ///< requested records already compacted away
    std::uint64_t epoch = 0;
    std::uint64_t last_seq = 0;        ///< newest seq this store holds
    std::uint64_t pending_bytes = 0;   ///< frame bytes beyond this batch
    std::vector<JournalRecord> records;
  };
  [[nodiscard]] ReplFeed read_replication_feed(std::uint64_t epoch,
                                               std::uint64_t after_seq,
                                               std::size_t max_bytes) const;

  /// Long-poll support: block until this store's position moves past
  /// (epoch, after_seq) — a commit, rotation or promotion — or the
  /// timeout lapses.  Returns true when the position moved.
  bool wait_for_commit(std::uint64_t epoch, std::uint64_t after_seq,
                       std::chrono::milliseconds timeout) const;

  /// Full contents frozen at the current cursor (commits are held off
  /// while the snapshot is assembled).
  [[nodiscard]] ReplSnapshot export_replication_snapshot();

  enum class ReplApply {
    kApplied,        ///< materialized; cursor advanced (flush pending)
    kDuplicate,      ///< seq <= cursor: already applied, skipped
    kGap,            ///< seq skips ahead: refused, re-sync required
    kEpochMismatch,  ///< wrong/unknown stream: re-bootstrap required
  };
  /// Idempotent, gap-detecting replay of one shipped record.  Only
  /// kApplied mutates anything.
  ReplApply apply_replicated(const JournalRecord& record);

  /// The durable follower cursor (invalid when this store is not
  /// following anything / has never bootstrapped).
  [[nodiscard]] ReplCursor replication_cursor() const;
  /// Persist the in-memory cursor (atomic write).  Called once per
  /// applied batch, not per record.
  void flush_replication_cursor();
  /// Durably forget the cursor (before a re-bootstrap, so a crash
  /// mid-install cannot resume from a half-installed state).
  void invalidate_replication_cursor();

  /// Replace the entire store contents with `snapshot` and set the
  /// cursor to its position.  The local journal rotates (its records
  /// described a state that no longer exists).
  void install_replication_snapshot(const ReplSnapshot& snapshot);

  /// Failover: start a fresh epoch strictly above both the local journal
  /// epoch and any followed stream's, continue seq numbering past the
  /// cursor, and durably drop the cursor (this store no longer follows).
  /// Returns the new epoch.
  std::uint64_t promote();

 private:
  struct Counters {
    std::atomic<std::uint64_t> revision{1};
    std::atomic<std::uint64_t> journal_appends{0};
    std::atomic<std::uint64_t> journal_replayed{0};
    std::atomic<std::uint64_t> journal_rotations{0};
    std::atomic<std::uint64_t> snapshot_writes{0};
    std::atomic<std::uint64_t> quarantined_files{0};
  };

  [[nodiscard]] std::filesystem::path path_for(EntryKind kind,
                                               const std::string& name) const;

  /// The write path: journal append + fsync (ack), then materialize,
  /// then rotate the journal if it outgrew the threshold.
  void commit(const JournalRecord& record);
  /// Materialize one record: atomic snapshot write (with checksum
  /// footer) or durable removal, and the matching catalog update.
  void apply(const JournalRecord& record);
  /// Startup crash recovery (see class comment).
  void recover();
  /// Move a corrupt file into quarantine/ (never delete); with
  /// `copy` the original stays in place (used for the journal, whose
  /// descriptor is open).
  void quarantine(const std::filesystem::path& path, bool copy = false) const;
  /// Read + checksum-verify an entry's snapshot; a corrupt file is
  /// quarantined, dropped from the catalog and reported as nullopt.
  [[nodiscard]] std::optional<std::string> read_verified(
      EntryKind kind, const std::string& name) const;

  /// `sub`: the design is resolved as a macro of another, so the
  /// parsed result is held.
  std::shared_ptr<const sheet::Design> load_design_rec(
      const std::string& name, const model::ModelRegistry& lib,
      std::vector<std::string>& in_flight, bool sub) const;
  void save_design_rec(const sheet::Design& design,
                       std::vector<const sheet::Design*>& visited);
  /// True when `design` and every sub-design below it are the objects
  /// the catalog holds under their names.
  [[nodiscard]] bool holds_tree(const sheet::Design& design) const;

  /// Wakes long-poll waiters whenever the journal position moves.
  /// Heap-held (like the counters) so the store stays movable.
  struct CommitSignal {
    mutable std::mutex mutex;
    mutable std::condition_variable cv;
  };
  void notify_position_moved() const;
  [[nodiscard]] std::filesystem::path cursor_path() const;
  void load_replication_cursor_locked();

  std::filesystem::path root_;
  StoreOptions options_;
  std::unique_ptr<Journal> journal_;
  std::unique_ptr<Counters> counters_;
  /// Heap-held so the store stays movable; const reads quarantine
  /// through it.
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<CommitSignal> signal_;
  /// Serializes commit()/flush(): rotation must never run between
  /// another thread's journal append and its apply() — the tail it
  /// truncates would hold that record's only durable copy.  Heap-held
  /// so the store stays movable.  Also guards repl_cursor_.
  std::unique_ptr<std::mutex> commit_mutex_;
  ReplCursor repl_cursor_;
  bool repl_cursor_dirty_ = false;
};

/// Read-only integrity check of a store directory: verify every
/// snapshot's checksum footer and the journal's framing.  Unlike
/// opening a LibraryStore, fsck never moves, rewrites or rotates
/// anything — safe to run against a live or post-crash store.
struct FsckReport {
  std::size_t files_checked = 0;
  std::size_t corrupt = 0;          ///< bad/missing footer or checksum
  std::uint64_t journal_records = 0;
  bool journal_present = false;
  bool journal_header_ok = true;
  bool journal_torn = false;        ///< trailing bytes form no record
  /// Replication framing: 2 for the current format, 1 for a legacy file
  /// awaiting its upgrade rotation.
  int journal_version = 0;
  std::uint64_t journal_epoch = 0;
  std::uint64_t journal_base_seq = 0;
  /// The durable cursor (epoch, last_seq) the journal attests to.
  std::uint64_t journal_last_seq = 0;
  /// Every record stamped with the header epoch and contiguous
  /// sequence numbers from base_seq — the invariant shipped replay
  /// relies on.
  bool journal_sequence_ok = true;
  /// The follower cursor file (`repl.cursor`), when present.
  bool cursor_present = false;
  bool cursor_ok = true;            ///< parses and checksum-verifies
  std::uint64_t cursor_epoch = 0;
  std::uint64_t cursor_seq = 0;
  std::vector<std::string> problems;  ///< one human-readable line each

  [[nodiscard]] bool clean() const {
    return corrupt == 0 && journal_header_ok && !journal_torn &&
           journal_sequence_ok && cursor_ok;
  }
};

FsckReport fsck_store(const std::filesystem::path& root);

/// A name that cannot name a store entry.  A FormatError, so store
/// callers need not tell it apart; the web app answers it with 400.
class BadStoreName : public FormatError {
 public:
  using FormatError::FormatError;
};

/// Validate a name destined for a filename: nonempty, no path
/// separators, no leading dot.  Throws BadStoreName otherwise.
void validate_store_name(const std::string& name);

}  // namespace powerplay::library
