#include "library/catalog.hpp"

#include <algorithm>
#include <mutex>

#include "sheet/design.hpp"

namespace powerplay::library {

namespace {

/// The innermost open ReadScope of this thread, if any.
thread_local ReadScope* t_scope = nullptr;

}  // namespace

void Catalog::note(EntryKind kind, const std::string& name,
                   std::uint64_t stamp) const {
  if (t_scope != nullptr && &t_scope->catalog_ == this) {
    t_scope->reads_.push_back({kind, name, stamp});
  }
}

std::uint64_t Catalog::lookup_locked(EntryKind kind,
                                     const std::string& name) const {
  const Kind& k = kinds_[static_cast<std::size_t>(kind)];
  if (name.empty()) return k.listing;
  const auto it = k.entries.find(name);
  return it == k.entries.end() ? 0 : it->second.stamp;
}

std::uint64_t Catalog::stamp(EntryKind kind, const std::string& name) const {
  std::uint64_t stamp = 0;
  {
    std::shared_lock lock(mutex_);
    stamp = lookup_locked(kind, name);
  }
  note(kind, name, stamp);
  return stamp;
}

std::vector<std::string> Catalog::names(EntryKind kind) const {
  std::vector<std::string> out;
  std::uint64_t listing = 0;
  {
    std::shared_lock lock(mutex_);
    const Kind& k = kinds_[static_cast<std::size_t>(kind)];
    out.reserve(k.entries.size());
    for (const auto& entry : k.entries) out.push_back(entry.first);
    listing = k.listing;
  }
  note(kind, "", listing);
  return out;
}

bool Catalog::current(const ReadSet& reads) const {
  std::shared_lock lock(mutex_);
  return std::all_of(reads.begin(), reads.end(), [&](const EntryRead& r) {
    return lookup_locked(r.kind, r.name) == r.stamp;
  });
}

Catalog::Held Catalog::held_design(const std::string& name) const {
  Held out;
  {
    std::shared_lock lock(mutex_);
    const Kind& k = kinds_[static_cast<std::size_t>(EntryKind::kDesign)];
    if (const auto it = k.entries.find(name); it != k.entries.end()) {
      out = {it->second.stamp, it->second.held};
    }
  }
  note(EntryKind::kDesign, name, out.stamp);
  return out;
}

void Catalog::hold_design(const std::string& name, std::uint64_t stamp,
                          std::shared_ptr<const sheet::Design> design) {
  std::unique_lock lock(mutex_);
  Kind& k = kinds_[static_cast<std::size_t>(EntryKind::kDesign)];
  if (const auto it = k.entries.find(name);
      it != k.entries.end() && it->second.stamp == stamp) {
    it->second.held.swap(design);  // the replaced one dies after unlock
  }
}

void Catalog::put(EntryKind kind, const std::string& name) {
  std::shared_ptr<const sheet::Design> dropped;  // dies after unlock
  std::unique_lock lock(mutex_);
  Kind& k = kinds_[static_cast<std::size_t>(kind)];
  const auto [it, added] = k.entries.try_emplace(name);
  it->second.stamp = ++last_stamp_;
  dropped.swap(it->second.held);
  if (added) k.listing = ++last_stamp_;
  k.changes.fetch_add(1);
}

void Catalog::erase(EntryKind kind, const std::string& name) {
  std::shared_ptr<const sheet::Design> dropped;  // dies after unlock
  std::unique_lock lock(mutex_);
  Kind& k = kinds_[static_cast<std::size_t>(kind)];
  const auto it = k.entries.find(name);
  if (it == k.entries.end()) return;
  dropped.swap(it->second.held);
  k.entries.erase(it);
  k.listing = ++last_stamp_;
  k.changes.fetch_add(1);
}

ReadScope::ReadScope(const Catalog& catalog)
    : catalog_(catalog), outer_(t_scope) {
  t_scope = this;
}

ReadScope::~ReadScope() { t_scope = outer_; }

ReadSet ReadScope::take() {
  std::sort(reads_.begin(), reads_.end());
  reads_.erase(std::unique(reads_.begin(), reads_.end()), reads_.end());
  return std::move(reads_);
}

}  // namespace powerplay::library
