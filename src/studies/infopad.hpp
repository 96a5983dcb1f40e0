// infopad.hpp — the paper's system-level example: the InfoPad portable
// multimedia terminal (Figure 5).
//
// Figure 5's spreadsheet has one row per subsystem (Custom Hardware,
// Radio Subsystem, Display LCDs, uProcessor Subsystem, Support
// Electronics, Voltage Converters, Other IO Devices).  Each row may use a
// different abstraction — "the power dissipation data for the LCDs came
// from actual measurements, the data for the custom hardware is modeled
// for one configuration and measured for another" — and the Voltage
// Converters row is *computed from the other rows* (EQ 19 intermodel
// interaction).  The Custom Hardware row is a macro whose drill-down
// contains the luminance decompression chip of Figures 1-3, reproducing
// the paper's hyperlink chain ("the luminance chip discussed earlier is
// a subcircuit of the custom hardware subsection").
//
// The mW values of the printed figure are illegible in the available
// scan; the constants below are reconstructions from the InfoPad
// literature (Sheng et al. 1992, Chandrakasan et al. 1994) and are
// documented as such in EXPERIMENTS.md.  The reproduced artifact is the
// *structure*: mixed-abstraction rows, hierarchy, and the converter row
// computed from its loads.
#pragma once

#include "model/registry.hpp"
#include "sheet/design.hpp"

namespace powerplay::studies {

/// Reconstructed data-sheet constants [W].
inline constexpr double kRadioWatts = 0.390;
inline constexpr double kDisplayWatts = 0.446;
inline constexpr double kSupportWatts = 0.750;
inline constexpr double kOtherIoWatts = 0.800;
inline constexpr double kConverterEfficiency = 0.80;  // legible in Figure 5

/// Custom chipset sub-design: luminance + chrominance decompression
/// macros, a video controller, and a frame-buffer SRAM.
sheet::Design make_custom_chipset(const model::ModelRegistry& lib);

/// Processor subsystem sub-design: embedded core (EQ 11 model) + DRAM.
sheet::Design make_processor_subsystem(const model::ModelRegistry& lib);

/// The full InfoPad terminal spreadsheet.  The Voltage Converters row's
/// p_load is the expression
///   totalpower() - rowpower("Voltage Converters")
/// resolved by the Play engine's fixed-point iteration.
sheet::Design make_infopad(const model::ModelRegistry& lib);

/// make_infopad with the radio, LCD and converter-efficiency figures
/// lifted into globals (radio_w, lcd_w, conv_eff) that their rows read,
/// so sweeps and Monte Carlo runs can vary them.  Same numbers, same
/// macro tree, same EQ 19 converter row.
sheet::Design make_infopad_what_if(const model::ModelRegistry& lib);

}  // namespace powerplay::studies
