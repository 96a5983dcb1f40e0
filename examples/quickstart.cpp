// quickstart — the smallest useful PowerPlay session, in code:
// pick models from the characterized library, compose a design sheet
// with parameter formulas, press Play, read the spreadsheet, then do a
// supply-voltage what-if.
//
//   $ ./quickstart
#include <cstdio>

#include "models/berkeley_library.hpp"
#include "sheet/design.hpp"
#include "sheet/report.hpp"
#include "sheet/sweep.hpp"

int main() {
  using namespace powerplay;

  // 1. The shared library of pre-characterized models.
  const model::ModelRegistry lib = models::berkeley_library();

  // 2. A design sheet with global parameters every row inherits.
  sheet::Design mac("mac_unit",
                    "16x16 multiply-accumulate datapath with coefficient "
                    "store");
  mac.globals().set("vdd", 1.5);       // volts
  mac.globals().set("clock", 10e6);    // Hz

  // 3. Rows: model instances with parameter overrides.  Parameters can
  //    be literals or formulas over the globals.
  auto& mult = mac.add_row("Multiplier", lib.find_shared("array_multiplier"));
  mult.params.set("bitwidthA", 16.0);
  mult.params.set("bitwidthB", 16.0);
  mult.params.set_formula("f", "clock");

  auto& acc = mac.add_row("Accumulator", lib.find_shared("ripple_adder"));
  acc.params.set("bitwidth", 32.0);
  acc.params.set_formula("f", "clock");

  auto& coeffs = mac.add_row("Coefficient RAM", lib.find_shared("sram"));
  coeffs.params.set("words", 256.0);
  coeffs.params.set("bits", 16.0);
  coeffs.params.set_formula("f", "clock / 2");  // new coefficient every
                                                // other cycle

  auto& out = mac.add_row("Output Register", lib.find_shared("register"));
  out.params.set("bits", 32.0);
  out.params.set_formula("f", "clock");

  // 4. Play.
  const sheet::PlayResult result = mac.play();
  std::printf("%s\n", sheet::to_table(result).c_str());
  std::printf("%s\n\n", sheet::summary_line(result).c_str());

  // 5. What-if: how does total power respond to voltage scaling?
  std::printf("Supply what-if:\n%s",
              sheet::sweep_table(sheet::to_columns(
                                     "vdd", sheet::sweep_global(
                                                mac, "vdd",
                                                {1.1, 1.5, 2.0, 2.5, 3.3})))
                  .c_str());
  return 0;
}
