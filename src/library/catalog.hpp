// catalog.hpp — the store's in-memory index of what it holds.
//
// A LibraryStore answers "does this entry exist?" and "which entries of
// this kind exist?" from a Catalog instead of the filesystem.  Each
// entry carries a stamp, drawn from one monotonic counter whenever the
// entry's file is (re)written; each kind also carries a listing stamp,
// renewed whenever an entry of that kind appears or disappears.  A stamp
// of 0 means "absent".  Because stamps are never reused, an unchanged
// stamp proves the entry (or the set of names) is byte-for-byte what it
// was when the stamp was read.
//
// A design entry may also hold its parsed object beside the stamp (see
// LibraryStore::load_design).  The held object belongs to the stamp:
// the put or erase that renews or removes the stamp drops it, so a held
// object is never newer or older than the entry it stands for.
//
// A ReadScope records every stamp the current thread reads from one
// catalog — the read set of a render.  The response cache keeps a
// page's read set and serves the page again for as long as every stamp
// in it is still current (Catalog::current).
#pragma once

#include <array>
#include <atomic>
#include <compare>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

namespace powerplay::sheet {
class Design;
}

namespace powerplay::library {

enum class EntryKind : std::uint8_t { kModel, kDesign, kUser };

/// One recorded read: the stamp `name` of `kind` had when it was read.
/// An empty name stands for the kind's listing.
struct EntryRead {
  EntryKind kind;
  std::string name;
  std::uint64_t stamp;

  friend auto operator<=>(const EntryRead&, const EntryRead&) = default;
};
using ReadSet = std::vector<EntryRead>;

class Catalog {
 public:
  /// The entry's current stamp, 0 when absent.
  [[nodiscard]] std::uint64_t stamp(EntryKind kind,
                                    const std::string& name) const;
  [[nodiscard]] bool contains(EntryKind kind, const std::string& name) const {
    return stamp(kind, name) != 0;
  }
  /// Sorted names of every entry of `kind` (reads the listing stamp).
  [[nodiscard]] std::vector<std::string> names(EntryKind kind) const;

  /// True when every stamp in `reads` is still the current one.
  [[nodiscard]] bool current(const ReadSet& reads) const;

  /// Bumped by every put or erase of an entry of `kind`: a cheap "did
  /// anything of this kind move?" probe.  Records nothing.
  [[nodiscard]] std::uint64_t changes(EntryKind kind) const {
    return kinds_[static_cast<std::size_t>(kind)].changes.load();
  }

  /// The design entry's stamp (recorded like stamp()) and the parsed
  /// design held beside it, null when none is held.
  struct Held {
    std::uint64_t stamp = 0;
    std::shared_ptr<const sheet::Design> design;
  };
  [[nodiscard]] Held held_design(const std::string& name) const;
  /// Hold `design` beside entry `name` if its stamp is still `stamp`
  /// (the stamp read before the bytes it was parsed from).
  void hold_design(const std::string& name, std::uint64_t stamp,
                   std::shared_ptr<const sheet::Design> design);

  /// The entry's file was just (re)written: give it a fresh stamp.
  void put(EntryKind kind, const std::string& name);
  /// The entry is gone (deleted, quarantined or replaced wholesale).
  void erase(EntryKind kind, const std::string& name);

 private:
  friend class ReadScope;
  struct Entry {
    std::uint64_t stamp = 0;
    std::shared_ptr<const sheet::Design> held;
  };
  struct Kind {
    std::map<std::string, Entry> entries;
    std::uint64_t listing = 0;
    std::atomic<std::uint64_t> changes{0};
  };
  /// The stamp of `name` (the listing's when empty); needs mutex_.
  [[nodiscard]] std::uint64_t lookup_locked(EntryKind kind,
                                            const std::string& name) const;
  void note(EntryKind kind, const std::string& name,
            std::uint64_t stamp) const;

  mutable std::shared_mutex mutex_;
  std::uint64_t last_stamp_ = 0;
  std::array<Kind, 3> kinds_;
};

/// Records, for its lifetime, every stamp this thread reads from
/// `catalog` (entries, absences and listings).  Scopes nest; only the
/// innermost records.
class ReadScope {
 public:
  explicit ReadScope(const Catalog& catalog);
  ~ReadScope();
  ReadScope(const ReadScope&) = delete;
  ReadScope& operator=(const ReadScope&) = delete;

  /// The reads so far, sorted and without duplicates.
  [[nodiscard]] ReadSet take();

 private:
  friend class Catalog;
  const Catalog& catalog_;
  ReadScope* outer_;
  ReadSet reads_;
};

}  // namespace powerplay::library
