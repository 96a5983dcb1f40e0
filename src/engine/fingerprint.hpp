// fingerprint.hpp — content fingerprint of a design for result memoing.
//
// Two designs that Play identically must hash identically; anything Play
// reads — global bindings (literal bits or formula source), row names,
// models (by name and Model::instance_id, so a redefined model is a new
// key), enabled flags, row parameters, macro sub-designs, and the names
// of design-local custom functions — feeds the hash.  Fields Play never
// reads (descriptions, row notes) are excluded, so editing a comment
// does not evict a cached result.
//
// FNV-1a 64-bit, the same family the library store uses for password
// digests: cheap, dependency-free, and good enough for a cache key (a
// collision costs a wrong table, not a security hole — see
// docs/engine.md for the collision budget discussion).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "sheet/design.hpp"

namespace powerplay::engine {

/// Streaming FNV-1a 64-bit hasher with length/type framing so that
/// ("ab","c") and ("a","bc") cannot collide structurally.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n);
  void number(double v);            ///< exact bit pattern (bit-identical key)
  void size(std::size_t n);
  void text(const std::string& s);  ///< length-prefixed
  void tag(char c);                 ///< structural separator

  [[nodiscard]] std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;  // FNV offset basis
};

/// Content fingerprint of everything `design.play()` reads.
std::uint64_t fingerprint(const sheet::Design& design);

/// Structural fingerprint: like fingerprint(), but literal bindings
/// contribute only their existence (kind tag), not their value bits,
/// and the root design's own name is left out.  Two designs with equal
/// structural fingerprints compile to the same EvalPlan — same slots,
/// programs, row graph — differing only in the literal values and the
/// root name PlanInstance::bind_from refreshes, which is exactly the
/// plan cache's key invariant.  Formula bindings hash fully (a
/// formula's shape is compiled into the plan).
std::uint64_t structure_fingerprint(const sheet::Design& design);

/// Hex rendering for logs and /healthz.
std::string fingerprint_hex(std::uint64_t fp);

}  // namespace powerplay::engine
