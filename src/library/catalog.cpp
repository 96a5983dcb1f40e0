#include "library/catalog.hpp"

#include <algorithm>
#include <mutex>

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
  const auto it = k.stamps.find(name);
  return it == k.stamps.end() ? 0 : it->second;
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
    out.reserve(k.stamps.size());
    for (const auto& entry : k.stamps) out.push_back(entry.first);
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

void Catalog::put(EntryKind kind, const std::string& name) {
  std::unique_lock lock(mutex_);
  Kind& k = kinds_[static_cast<std::size_t>(kind)];
  const auto [it, added] = k.stamps.try_emplace(name, 0);
  it->second = ++last_stamp_;
  if (added) k.listing = ++last_stamp_;
}

void Catalog::erase(EntryKind kind, const std::string& name) {
  std::unique_lock lock(mutex_);
  Kind& k = kinds_[static_cast<std::size_t>(kind)];
  if (k.stamps.erase(name) > 0) k.listing = ++last_stamp_;
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
