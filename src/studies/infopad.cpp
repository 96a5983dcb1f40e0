#include "studies/infopad.hpp"

#include "studies/vq.hpp"

namespace powerplay::studies {

sheet::Design make_custom_chipset(const model::ModelRegistry& lib) {
  sheet::Design d("Custom_Chipset",
                  "InfoPad custom low-power chipset: video decompression "
                  "(luminance + chrominance), video controller, frame "
                  "buffer.");
  d.globals().set(model::kParamVdd, kSupplyVolts);
  d.globals().set("pixel_rate", kPixelRateHz);
  // Chrominance runs at a quarter of the luminance pixel rate (4:1
  // chroma subsampling in the InfoPad video chain).  Defined as a global
  // formula so the override below stays acyclic.
  d.globals().set_formula("chroma_rate", "pixel_rate/4");

  // The fabricated chip used the Figure 3 (grouped-LUT) architecture.
  auto luminance = std::make_shared<const sheet::Design>(
      make_luminance_impl2(lib));
  d.add_macro("Luminance Chip", luminance).note =
      "Figure 3 architecture (the fabricated choice)";

  auto& chroma = d.add_macro("Chrominance Chip", luminance);
  chroma.params.set_formula("pixel_rate", "chroma_rate");
  chroma.note = "same datapath at 4:1 subsampled rate";

  auto& ctrl = d.add_row("Video Controller",
                         lib.find_shared("random_logic_controller"));
  ctrl.params.set("n_inputs", 10.0);
  ctrl.params.set("n_outputs", 14.0);
  ctrl.params.set("n_minterms", 96.0);
  ctrl.params.set_formula("f", "pixel_rate/16");
  ctrl.note = "line/frame sequencing state machine";

  auto& fb = d.add_row("Frame Buffer", lib.find_shared("sram"));
  fb.params.set("words", 8192.0);
  fb.params.set("bits", 6.0);
  fb.params.set_formula("f", "pixel_rate/8");
  fb.note = "reconstruction buffer, burst access";
  return d;
}

sheet::Design make_processor_subsystem(const model::ModelRegistry& lib) {
  sheet::Design d("uProcessor_Subsystem",
                  "Embedded control processor (data-book EQ 11 model) "
                  "plus its DRAM.");
  d.globals().set(model::kParamVdd, 3.3);

  auto& cpu = d.add_row("Embedded CPU", lib.find_shared("processor_average"));
  cpu.params.set("alpha", 0.7);  // idles between pen/network events
  cpu.note = "data-book P_AVG gated by a 70% activity factor (EQ 11)";

  auto& mem = d.add_row("Main Memory", lib.find_shared("dram"));
  mem.params.set("words", 262144.0);
  mem.params.set("bits", 32.0);
  mem.params.set("f", 2.0e6);
  mem.note = "1 MB DRAM, ~2M accesses/s";
  return d;
}

sheet::Design make_infopad(const model::ModelRegistry& lib) {
  sheet::Design d("InfoPad_System",
                  "Portable multimedia terminal power breakdown "
                  "(Figure 5): mixed-abstraction rows with the voltage "
                  "converters computed from the other subsystems.");
  d.globals().set(model::kParamVdd, 6.0);  // battery rail (bookkeeping)

  auto chipset =
      std::make_shared<const sheet::Design>(make_custom_chipset(lib));
  d.add_macro("Custom Hardware", chipset).note =
      "hyperlinks to the chipset spreadsheet (Figure 2 drill-down)";

  auto& radio = d.add_row("Radio Subsystem",
                          lib.find_shared("datasheet_component"));
  radio.params.set("p_typical", kRadioWatts);
  radio.note = "commercial radio modem, data-sheet figure";

  auto& lcd =
      d.add_row("Display LCDs", lib.find_shared("datasheet_component"));
  lcd.params.set("p_typical", kDisplayWatts);
  lcd.note = "measured on the actual panels";

  auto cpu = std::make_shared<const sheet::Design>(
      make_processor_subsystem(lib));
  d.add_macro("uProcessor Subsystem", cpu);

  auto& support = d.add_row("Support Electronics",
                            lib.find_shared("datasheet_component"));
  support.params.set("p_typical", kSupportWatts);
  support.note = "glue logic, codecs, pen digitizer electronics";

  auto& other =
      d.add_row("Other IO Devices", lib.find_shared("datasheet_component"));
  other.params.set("p_typical", kOtherIoWatts);
  other.note = "pen, speech I/O, speaker";

  auto& conv =
      d.add_row("Voltage Converters", lib.find_shared("dcdc_converter"));
  conv.params.set("efficiency", kConverterEfficiency);
  conv.params.set_formula(
      "p_load", "totalpower() - rowpower(\"Voltage Converters\")");
  conv.note = "EQ 19: dissipation computed from the delivered load "
              "(intermodel interaction)";
  return d;
}

sheet::Design make_infopad_what_if(const model::ModelRegistry& lib) {
  sheet::Design d = make_infopad(lib);
  d.globals().set("radio_w", kRadioWatts);
  d.globals().set("lcd_w", kDisplayWatts);
  d.globals().set("conv_eff", kConverterEfficiency);
  d.find_row("Radio Subsystem")->params.set_formula("p_typical", "radio_w");
  d.find_row("Display LCDs")->params.set_formula("p_typical", "lcd_w");
  d.find_row("Voltage Converters")
      ->params.set_formula("efficiency", "conv_eff");
  return d;
}

}  // namespace powerplay::studies
