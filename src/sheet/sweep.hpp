// sweep.hpp — what-if exploration over a design.
//
// "The table is parameterized; that is, parameters such as bit-widths and
// supply voltages can be varied dynamically."  A sweep re-Plays the
// design across a set of values for one global parameter and collects the
// results — the engine behind voltage/frequency trade-off curves and the
// instant what-if loop of the Figure 4 form.
//
// The entry points here are the serial interpreter reference: one
// design clone per sweep, re-set and re-Played per point.  The figure
// benches, the examples and the tests use them directly; the web app's
// jobs and the CLI run the engine's lane-batched columnar sweeps
// (engine/engine.hpp), which are bit-identical to these loops.  Both
// render through the one set of columnar formatters in sheet/batch.hpp
// (serial results via to_columns).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sheet/batch.hpp"
#include "sheet/design.hpp"

namespace powerplay::sheet {

struct SweepPoint {
  double value;
  PlayResult result;
};

/// Optional completion callback for the engine's sweeps (drives the
/// async job API's progress counter).  Called as progress(done_so_far,
/// total), once per lane block; may run on any executor thread.
using SweepProgress = std::function<void(std::size_t, std::size_t)>;

/// Validation shared with the engine's columnar sweeps: a sweep over a
/// name Scope::set would silently *create* returns N identical points
/// (the classic typo trap), so require an existing global binding up
/// front.  `caller` prefixes the error message ("sweep_global", ...).
void require_global(const Design& design, const std::string& param,
                    const char* caller);

/// Multi-parameter form: checks every name and reports *all* unknown
/// parameters in one ExprError (a multi-axis explore request with two
/// typos should fail with a complete message, not one name at a time).
void require_globals(const Design& design,
                     const std::vector<std::string>& params,
                     const char* caller);

/// A row parameter is sweepable when the row already binds it, when the
/// row's model declares it, or (macro rows) when the sub-design has it
/// as a global; throws ExprError otherwise.
void require_row_param(const Design& design, const Row& row,
                       const std::string& param);

/// Re-Play `design` once per value of global parameter `param`.
/// The design itself is not modified.  Throws ExprError when `param`
/// is not an existing global (a silent Scope::set would otherwise
/// *create* the parameter and return N identical points for a typo).
std::vector<SweepPoint> sweep_global(const Design& design,
                                     const std::string& param,
                                     const std::vector<double>& values);

/// Same, over a row-local parameter (rows addressed by name).  The
/// parameter must already be bound on the row, be one of the row
/// model's declared parameters, or (for macro rows) a global of the
/// sub-design; otherwise ExprError.
std::vector<SweepPoint> sweep_row_param(const Design& design,
                                        const std::string& row,
                                        const std::string& param,
                                        const std::vector<double>& values);

/// Two-parameter grid sweep (e.g. the classic voltage x frequency
/// exploration plane).  result[i][j] is the Play at xs[i], ys[j].
struct GridSweep {
  std::string x_param;
  std::string y_param;
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<std::vector<PlayResult>> results;  ///< [x][y]
};
GridSweep sweep_grid(const Design& design, const std::string& x_param,
                     const std::vector<double>& xs,
                     const std::string& y_param,
                     const std::vector<double>& ys);

/// The four metric columns of serial sweep results, in point order
/// (grid point (i, j) at column i * ys.size() + j).
ColumnarGrid to_columns(const GridSweep& grid);
ColumnarSweep to_columns(const std::string& param,
                         const std::vector<SweepPoint>& points);

/// Most points one sweep axis may ask for (web forms and the CLI).
constexpr int kMaxAxisPoints = 256;

/// A sweep axis's point count: an integer in [1, kMaxAxisPoints].  The
/// check runs on the double before the cast (the text may have been
/// "nan", "inf" or "1e300", which no int holds).  Throws ExprError
/// "<what> must be an integer in [1, 256]" otherwise.
int axis_points(double value, const std::string& what);

/// Inclusive linear range helper: {from, from+step, ..., to}.
std::vector<double> linspace(double from, double to, int points);

/// Geometric range helper: {from, from*ratio, ...} up to and incl. `to`.
std::vector<double> geomspace(double from, double to, int points);

}  // namespace powerplay::sheet
