#include "units/units.hpp"

#include <algorithm>
#include <array>
#include <charconv>

namespace powerplay::units {

namespace {

struct Prefix {
  double scale;
  const char* symbol;
};

// Ordered largest-to-smallest; chosen so mantissa lands in [1, 1000).
constexpr std::array<Prefix, 11> kPrefixes{{
    {1e12, "T"},
    {1e9, "G"},
    {1e6, "M"},
    {1e3, "k"},
    {1e0, ""},
    {1e-3, "m"},
    {1e-6, "u"},
    {1e-9, "n"},
    {1e-12, "p"},
    {1e-15, "f"},
    {1e-18, "a"},
}};

/// Append `mantissa` in fixed notation with as many fraction digits as
/// leave `significant_digits` digits in all (a leading "0." counts
/// none): printf("%.*f") byte for byte, whatever the length.
void append_mantissa(std::string& out, double mantissa,
                     int significant_digits) {
  int integer_digits = 1;
  double m = std::fabs(mantissa);
  if (m < 1.0) integer_digits = 0;
  while (m >= 10.0 && std::isfinite(m)) {
    m /= 10.0;
    ++integer_digits;
  }
  const int frac = std::max(0, significant_digits - integer_digits);
  char buf[128];
  auto r = std::to_chars(buf, buf + sizeof buf, mantissa,
                         std::chars_format::fixed, frac);
  if (r.ec == std::errc{}) {
    out.append(buf, r.ptr);
    return;
  }
  // Hundreds of integer digits (a huge value) or of fraction digits.
  std::string wide(static_cast<std::size_t>(integer_digits + frac) + 8, '\0');
  r = std::to_chars(wide.data(), wide.data() + wide.size(), mantissa,
                    std::chars_format::fixed, frac);
  out.append(wide.data(), r.ptr);
}

}  // namespace

void append_si(std::string& out, double raw_si, std::string_view unit,
               int significant_digits) {
  const Prefix* chosen = nullptr;  // none for 0, inf and nan
  if (raw_si == 0.0) {
    out += '0';
  } else if (!std::isfinite(raw_si)) {
    append_mantissa(out, raw_si, significant_digits);
  } else {
    const double magnitude = std::fabs(raw_si);
    chosen = &kPrefixes.back();
    for (const Prefix& p : kPrefixes) {
      if (magnitude >= p.scale) {
        chosen = &p;
        break;
      }
    }
    append_mantissa(out, raw_si / chosen->scale, significant_digits);
  }
  out += ' ';
  if (chosen != nullptr) out += chosen->symbol;
  out += unit;
}

std::string format_si(double raw_si, const std::string& unit,
                      int significant_digits) {
  std::string out;
  append_si(out, raw_si, unit, significant_digits);
  return out;
}

std::string format_area(double si_m2, int significant_digits) {
  // Prefixes on squared units scale by the square of the length prefix:
  // 1 mm^2 = 1e-6 m^2, 1 um^2 = 1e-12 m^2, 1 nm^2 = 1e-18 m^2.
  if (si_m2 == 0.0) return "0 m^2";
  struct AreaUnit {
    double scale;
    const char* symbol;
  };
  constexpr std::array<AreaUnit, 4> kUnits{{{1.0, "m^2"},
                                            {1e-6, "mm^2"},
                                            {1e-12, "um^2"},
                                            {1e-18, "nm^2"}}};
  const double magnitude = std::fabs(si_m2);
  const AreaUnit* chosen = &kUnits.back();
  for (const AreaUnit& u : kUnits) {
    if (magnitude >= u.scale) {
      chosen = &u;
      break;
    }
  }
  std::string out;
  append_mantissa(out, si_m2 / chosen->scale, significant_digits);
  out += ' ';
  out += chosen->symbol;
  return out;
}

void append_double(std::string& out, double v, int precision) {
  // %.{p}g is at most p digits plus sign, point and a 5-char exponent,
  // so 64 bytes hold every precision up to 50.
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v,
                               std::chars_format::general, precision);
  out.append(buf, r.ptr);
}

std::string to_string(Voltage v) { return format_si(v.si(), "V"); }
std::string to_string(Capacitance c) { return format_si(c.si(), "F"); }
std::string to_string(Power p) { return format_si(p.si(), "W"); }
std::string to_string(Energy e) { return format_si(e.si(), "J"); }
std::string to_string(Frequency f) { return format_si(f.si(), "Hz"); }
std::string to_string(Current i) { return format_si(i.si(), "A"); }
std::string to_string(Time t) { return format_si(t.si(), "s"); }
std::string to_string(Area a) { return format_area(a.si()); }

}  // namespace powerplay::units
