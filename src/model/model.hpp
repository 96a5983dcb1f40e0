// model.hpp — the Model interface: PowerPlay's unit of library content.
//
// "PowerPlay allows any block to be modeled using any combination of
// C_sw,i, V_swing,i and I as a function of any input parameters to give
// maximum flexibility."  A Model owns its metadata (name, category,
// documentation text shown behind the spreadsheet hyperlink, parameter
// specs with defaults), and maps resolved parameters to an EQ 1 Estimate.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/estimate.hpp"
#include "model/param.hpp"

namespace powerplay::model {

/// Component classes, mirroring the paper's Models section.
enum class Category {
  kComputation,
  kStorage,
  kController,
  kInterconnect,
  kProcessor,
  kAnalog,
  kConverter,
  kSystem,   ///< data-sheet / measured components (displays, radios, ...)
  kMacro,    ///< hierarchical composition of other models
};

std::string to_string(Category c);

/// Abstract model.  Concrete models live in src/models (the built-in
/// UC-Berkeley-style library) and src/model/user_model.hpp (equation
/// models defined at run time through the web form).
class Model {
 public:
  Model(std::string name, Category category, std::string documentation,
        std::vector<ParamSpec> params)
      : name_(std::move(name)),
        category_(category),
        documentation_(std::move(documentation)),
        params_(std::move(params)),
        instance_id_(next_instance_id()) {}
  virtual ~Model() = default;

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Category category() const { return category_; }

  /// Process-unique id of this Model object, assigned at construction.
  /// Evaluation caches key on it (engine/fingerprint.hpp): a model
  /// redefined under the same name is a new object with a new id, and
  /// unlike the object's address an id is never handed out again.
  [[nodiscard]] std::uint64_t instance_id() const { return instance_id_; }

  /// Prose shown on the model's documentation page: which paper equation
  /// it implements, assumptions, characterization provenance.
  [[nodiscard]] const std::string& documentation() const {
    return documentation_;
  }

  /// Declared parameters (used to render the Figure 4 input form and to
  /// provide defaults + validation).
  [[nodiscard]] const std::vector<ParamSpec>& params() const {
    return params_;
  }

  [[nodiscard]] const ParamSpec* find_param(const std::string& name) const;

  /// Map parameters to an EQ 1 estimate.  Implementations must read
  /// every tunable through `p` so sheet expressions can override it.
  [[nodiscard]] virtual Estimate evaluate(const ParamReader& p) const = 0;

  /// True when the EQ 1 breakdown evaluate() returns (cap_terms,
  /// static_terms, area, delay) does not depend on vdd or f: the
  /// operating point enters exclusively through operating_point(p) ->
  /// make_estimate, and every other read is a declared parameter.
  /// Lane-batched execution (sheet/batch.cpp) uses this to capture the
  /// terms once per lane block and replay only the operating-point
  /// arithmetic (evaluate_terms) per lane.  Models whose terms read
  /// vdd or f directly — converters deriving loss from the input rail,
  /// processors folding vdd into scaling laws, data-sheet components —
  /// must leave this false.
  [[nodiscard]] virtual bool operating_point_only() const { return false; }

  /// Read one declared parameter: the reader's binding if present, else
  /// the spec default; validated against the spec either way.  This is
  /// the single read path every built-in model uses, so defaults and
  /// range checks behave identically for spreadsheet scopes, web forms
  /// and direct MapParamReader calls.
  [[nodiscard]] double param(const ParamReader& p,
                             const std::string& name) const;

  /// The EQ 1 operating point read through `param` (vdd, f).
  [[nodiscard]] OperatingPoint operating_point(const ParamReader& p) const;

 private:
  static std::uint64_t next_instance_id();

  std::string name_;
  Category category_;
  std::string documentation_;
  std::vector<ParamSpec> params_;
  std::uint64_t instance_id_;
};

using ModelPtr = std::shared_ptr<const Model>;

}  // namespace powerplay::model
