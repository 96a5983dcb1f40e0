#include "engine/fingerprint.hpp"

#include <cstring>

#include "expr/ast.hpp"

namespace powerplay::engine {

void Fnv1a::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ull;  // FNV prime
  }
}

void Fnv1a::number(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  bytes(&bits, sizeof(bits));
}

void Fnv1a::size(std::size_t n) {
  const auto wide = static_cast<std::uint64_t>(n);
  bytes(&wide, sizeof(wide));
}

void Fnv1a::text(const std::string& s) {
  size(s.size());
  bytes(s.data(), s.size());
}

void Fnv1a::tag(char c) { bytes(&c, 1); }

namespace {

// Structural AST hash, equivalent to hashing expr::to_source but with
// no string building: fingerprinting runs once per sweep point, so it
// sits on the cache's hot path.  Two formulas hash equal iff their
// canonical sources are equal (same shapes, names and literals).
void hash_expr(const expr::Expr& e, Fnv1a& h) {
  std::visit(
      [&h](const auto& node) {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, expr::NumberNode>) {
          h.tag('n');
          h.number(node.value);
        } else if constexpr (std::is_same_v<T, expr::VariableNode>) {
          h.tag('v');
          h.text(node.name);
        } else if constexpr (std::is_same_v<T, expr::StringNode>) {
          h.tag('s');
          h.text(node.value);
        } else if constexpr (std::is_same_v<T, expr::UnaryNode>) {
          h.tag('u');
          h.tag(static_cast<char>(node.op));
          hash_expr(*node.operand, h);
        } else if constexpr (std::is_same_v<T, expr::BinaryNode>) {
          h.tag('b');
          h.tag(static_cast<char>(node.op));
          hash_expr(*node.lhs, h);
          hash_expr(*node.rhs, h);
        } else if constexpr (std::is_same_v<T, expr::ConditionalNode>) {
          h.tag('?');
          hash_expr(*node.condition, h);
          hash_expr(*node.then_branch, h);
          hash_expr(*node.else_branch, h);
        } else if constexpr (std::is_same_v<T, expr::CallNode>) {
          h.tag('c');
          h.text(node.name);
          h.size(node.args.size());
          for (const expr::ExprPtr& arg : node.args) hash_expr(*arg, h);
        }
      },
      e.node);
}

/// Hashing modes: full content (Play-cache key), or structure only
/// (plan-cache key: literal values are refreshed by bind_from, so they
/// must not split the key).
enum class Mode { kContent, kStructure };

void hash_scope(const expr::Scope& scope, Fnv1a& h, Mode mode) {
  const auto names = scope.local_names();  // sorted: order-independent key
  h.size(names.size());
  for (const std::string& name : names) {
    h.text(name);
    const auto found = scope.lookup(name);
    if (const double* literal = std::get_if<double>(found->binding)) {
      h.tag('#');
      if (mode == Mode::kContent) h.number(*literal);
    } else {
      h.tag('=');
      hash_expr(*std::get<expr::ExprPtr>(*found->binding), h);
    }
  }
}

void hash_design(const sheet::Design& design, Fnv1a& h, Mode mode,
                 bool root) {
  h.tag('D');
  // The root's own name is no part of its structure: renamed copies
  // share one plan, which takes the name from the design it is bound to
  // (PlanInstance::bind_from).  A Play result carries the name, so the
  // content key keeps it; macro names stay in both keys.
  if (mode == Mode::kContent || !root) h.text(design.name());
  hash_scope(design.globals(), h, mode);
  // Custom functions can only be identified by name (a std::function has
  // no stable content); the engine assumes they are pure — docs/engine.md.
  const auto fns = design.function_names();
  h.size(fns.size());
  for (const std::string& fn : fns) h.text(fn);
  h.size(design.rows().size());
  for (const sheet::Row& row : design.rows()) {
    h.tag(row.enabled ? 'R' : 'r');
    h.text(row.name);
    hash_scope(row.params, h, mode);
    if (row.is_macro()) {
      hash_design(*row.macro, h, mode, false);
    } else {
      h.tag('M');
      h.text(row.model->name());
      // A redefined model keeps its name but is a new instance: keying
      // on the instance keeps the old equations out of plans and results.
      h.size(row.model->instance_id());
    }
  }
}

}  // namespace

std::uint64_t fingerprint(const sheet::Design& design) {
  Fnv1a h;
  hash_design(design, h, Mode::kContent, true);
  return h.digest();
}

std::uint64_t structure_fingerprint(const sheet::Design& design) {
  Fnv1a h;
  hash_design(design, h, Mode::kStructure, true);
  return h.digest();
}

std::string fingerprint_hex(std::uint64_t fp) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[fp & 0xf];
    fp >>= 4;
  }
  return out;
}

}  // namespace powerplay::engine
