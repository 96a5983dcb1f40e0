// Tests for the dimensional-analysis layer: every power computation in
// the library rides on these operators, so their algebra must be exact.
#include "units/units.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace powerplay::units {
namespace {

using namespace units::literals;

TEST(Units, LiteralsProduceSiValues) {
  EXPECT_DOUBLE_EQ((1.5_V).si(), 1.5);
  EXPECT_DOUBLE_EQ((250.0_mV).si(), 0.25);
  EXPECT_DOUBLE_EQ((253.0_fF).si(), 253e-15);
  EXPECT_DOUBLE_EQ((2.0_pF).si(), 2e-12);
  EXPECT_DOUBLE_EQ((100.0_uW).si(), 1e-4);
  EXPECT_DOUBLE_EQ((2_MHz).si(), 2e6);
  EXPECT_DOUBLE_EQ((3.0_nJ).si(), 3e-9);
  EXPECT_DOUBLE_EQ((10_ns).si(), 1e-8);
  EXPECT_DOUBLE_EQ((1.0_mm2).si(), 1e-6);
}

TEST(Units, CapacitanceTimesVoltageSquaredIsEnergy) {
  const Capacitance c = 100.0_fF;
  const Voltage v = 2.0_V;
  const Energy e = c * v * v;
  EXPECT_DOUBLE_EQ(e.si(), 100e-15 * 4.0);
}

TEST(Units, EnergyTimesFrequencyIsPower) {
  const Energy e = 1.0_pJ;
  const Frequency f = 2_MHz;
  const Power p = e * f;
  EXPECT_DOUBLE_EQ(p.si(), 2e-6);
}

TEST(Units, CurrentTimesVoltageIsPower) {
  const Power p = 2_mA * 3.0_V;
  EXPECT_DOUBLE_EQ(p.si(), 6e-3);
}

TEST(Units, PowerDividedByVoltageIsCurrent) {
  const Current i = Power{6.0} / Voltage{3.0};
  EXPECT_DOUBLE_EQ(i.si(), 2.0);
}

TEST(Units, OhmsLawRoundTrip) {
  const Resistance r = Voltage{5.0} / Current{0.01};
  EXPECT_DOUBLE_EQ(r.si(), 500.0);
  const Conductance g = 1.0 / r;
  EXPECT_DOUBLE_EQ(g.si(), 0.002);
}

TEST(Units, AdditiveOperators) {
  Power p = 1.0_mW;
  p += 2.0_mW;
  EXPECT_DOUBLE_EQ(p.si(), 3e-3);
  p -= 1.0_mW;
  EXPECT_DOUBLE_EQ(p.si(), 2e-3);
  EXPECT_DOUBLE_EQ((-p).si(), -2e-3);
  EXPECT_DOUBLE_EQ((p * 2.0).si(), 4e-3);
  EXPECT_DOUBLE_EQ((2.0 * p).si(), 4e-3);
  EXPECT_DOUBLE_EQ((p / 2.0).si(), 1e-3);
}

TEST(Units, ComparisonOperators) {
  EXPECT_LT(1.0_uW, 1.0_mW);
  EXPECT_GT(2.0_V, 250.0_mV);
  EXPECT_EQ(Power{0.001}, 1.0_mW);
}

TEST(Units, DimensionlessRatio) {
  const Scalar ratio = Voltage{3.0} / Voltage{1.5};
  EXPECT_DOUBLE_EQ(ratio.si(), 2.0);
}

TEST(UnitsFormat, PicksEngineeringPrefix) {
  EXPECT_EQ(format_si(6.438e-5, "W"), "64.38 uW");
  EXPECT_EQ(format_si(1.5, "V"), "1.500 V");
  EXPECT_EQ(format_si(2e6, "Hz"), "2.000 MHz");
  EXPECT_EQ(format_si(253e-15, "F"), "253.0 fF");
  EXPECT_EQ(format_si(0.0, "W"), "0 W");
}

TEST(UnitsFormat, NegativeValues) {
  EXPECT_EQ(format_si(-1.5e-3, "A"), "-1.500 mA");
}

TEST(UnitsFormat, VerySmallFallsToSmallestPrefix) {
  EXPECT_EQ(format_si(2e-19, "F"), "0.2000 aF");
}

TEST(UnitsFormat, ToStringOverloads) {
  EXPECT_EQ(to_string(Power{1e-4}), "100.0 uW");
  EXPECT_EQ(to_string(Capacitance{1e-12}), "1.000 pF");
  EXPECT_EQ(to_string(Frequency{125e3}), "125.0 kHz");
  EXPECT_EQ(to_string(Voltage{1.5}), "1.500 V");
}

TEST(UnitsFormat, AreaUsesSquaredPrefixes) {
  EXPECT_EQ(format_area(2.458e-6), "2.458 mm^2");
  EXPECT_EQ(format_area(1.5e-10), "150.0 um^2");
  EXPECT_EQ(format_area(9e-18), "9.000 nm^2");
  EXPECT_EQ(format_area(2.0), "2.000 m^2");
  EXPECT_EQ(format_area(0.0), "0 m^2");
  EXPECT_EQ(to_string(Area{1e-6}), "1.000 mm^2");
}

// append_double is printf %.{p}g, so an ostream at setprecision(p) is
// its oracle: the CSV/JSON renderers switched from one to the other
// and must not change a byte.
TEST(UnitsFormat, AppendDoubleMatchesOstreamOracle) {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1e9, 123456789012.0, -9007199254740993.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(), 2.2250738585072009e-308,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN()};
  std::mt19937_64 rng(20240611);
  std::uniform_real_distribution<double> mantissa(-10.0, 10.0);
  std::uniform_int_distribution<int> exponent(-320, 308);
  std::uniform_int_distribution<std::uint64_t> integer(1'000'000'000ULL,
                                                       1ULL << 62);
  for (int i = 0; i < 4000; ++i) {
    // Decimal magnitudes across the whole range, denormals included.
    values.push_back(mantissa(rng) * std::pow(10.0, exponent(rng)));
    // Raw bit patterns: every exponent field, NaN payloads, infinities.
    values.push_back(std::bit_cast<double>(rng()));
    // Integers >= 1e9 (the %g switch to exponent form).
    values.push_back(static_cast<double>(integer(rng)));
  }
  ASSERT_GE(values.size(), 10000u);
  for (const int precision : {6, 9, 17}) {
    for (const double v : values) {
      std::ostringstream oracle;
      oracle.precision(precision);
      oracle << 'x' << v;
      std::string got = "x";
      append_double(got, v, precision);
      ASSERT_EQ(got, oracle.str())
          << "precision " << precision << ", bits 0x" << std::hex
          << std::bit_cast<std::uint64_t>(v);
    }
  }
}

/// The snprintf("%.*f") formatter format_si and format_area were built
/// on before append_si: the oracle the to_chars version must match.
std::string snprintf_mantissa(double mantissa, int significant_digits,
                              const char* suffix) {
  int integer_digits = 1;
  double m = std::fabs(mantissa);
  if (m < 1.0) integer_digits = 0;
  while (m >= 10.0) {
    m /= 10.0;
    ++integer_digits;
  }
  const int frac = std::max(0, significant_digits - integer_digits);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f %s", frac, mantissa, suffix);
  return buf;
}

std::string snprintf_si(double raw_si, const std::string& unit, int digits) {
  if (raw_si == 0.0) return "0 " + unit;
  if (!std::isfinite(raw_si)) return std::to_string(raw_si) + " " + unit;
  constexpr std::pair<double, const char*> kPrefixes[] = {
      {1e12, "T"},  {1e9, "G"},   {1e6, "M"},   {1e3, "k"},
      {1e0, ""},    {1e-3, "m"},  {1e-6, "u"},  {1e-9, "n"},
      {1e-12, "p"}, {1e-15, "f"}, {1e-18, "a"}};
  const auto* chosen = &kPrefixes[10];
  for (const auto& p : kPrefixes) {
    if (std::fabs(raw_si) >= p.first) {
      chosen = &p;
      break;
    }
  }
  return snprintf_mantissa(raw_si / chosen->first, digits,
                           (chosen->second + unit).c_str());
}

std::string snprintf_area(double si_m2, int digits) {
  if (si_m2 == 0.0) return "0 m^2";
  constexpr std::pair<double, const char*> kUnits[] = {
      {1.0, "m^2"}, {1e-6, "mm^2"}, {1e-12, "um^2"}, {1e-18, "nm^2"}};
  const auto* chosen = &kUnits[3];
  for (const auto& u : kUnits) {
    if (std::fabs(si_m2) >= u.first) {
      chosen = &u;
      break;
    }
  }
  return snprintf_mantissa(si_m2 / chosen->first, digits, chosen->second);
}

TEST(UnitsFormat, AppendSiMatchesSnprintfOracle) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  std::vector<double> values = {0.0,   -0.0,  kInf,         -kInf,
                                kNaN,  -kNaN, kDenorm,      -kDenorm,
                                1e-310, std::numeric_limits<double>::min()};
  // Every prefix boundary and the rounding carries just below it: the
  // scale itself, one ulp either side, and mantissas of 9.9995, 99.995
  // and 999.95 (which round up into the next decade).
  for (int e = -24; e <= 15; ++e) {
    const double scale = std::pow(10.0, e);
    for (const double k : {1.0, 9.9995, 99.995, 999.95, 999.949999, 999.5,
                           0.5, 1.00005, 9.99949, 12.345, 123.45}) {
      const double v = k * scale;
      for (const double w : {v, std::nextafter(v, 0.0),
                             std::nextafter(v, kInf)}) {
        values.push_back(w);
        values.push_back(-w);
      }
    }
  }
  std::mt19937_64 rng(20261019);
  std::uniform_real_distribution<double> mantissa(-10.0, 10.0);
  std::uniform_int_distribution<int> exponent(-330, 45);
  std::uniform_int_distribution<int> cents(0, 99999);
  for (int i = 0; i < 6000; ++i) {
    // Decimal magnitudes across the prefixes, denormals included.
    values.push_back(mantissa(rng) * std::pow(10.0, exponent(rng)));
    // Values on a 5-digit decimal grid, where ties and carries live.
    values.push_back(cents(rng) * std::pow(10.0, exponent(rng) / 8 - 5));
  }
  ASSERT_GE(values.size(), 10000u);
  for (const int digits : {4, 1, 3, 6}) {
    for (const double v : values) {
      std::string got = "x";
      append_si(got, v, "W", digits);
      ASSERT_EQ(got, "x" + snprintf_si(v, "W", digits))
          << "digits " << digits << ", bits 0x" << std::hex
          << std::bit_cast<std::uint64_t>(v);
      ASSERT_EQ(format_si(v, "Hz", digits), snprintf_si(v, "Hz", digits));
      if (!std::isinf(v)) {  // the snprintf area formatter never returned
        ASSERT_EQ(format_area(v, digits), snprintf_area(v, digits))
            << "digits " << digits << ", bits 0x" << std::hex
            << std::bit_cast<std::uint64_t>(v);
      }
    }
  }
}

// Past the oracle: a value too large for its 64-byte buffer is written
// whole, and an infinite area no longer spins in the digit count.
TEST(UnitsFormat, HugeValuesAreNotTruncated) {
  const std::string big = format_si(1e300, "W");
  EXPECT_EQ(big.size(), 289u + 3u);
  EXPECT_EQ(big.substr(0, 3), "100");
  EXPECT_EQ(big.substr(big.size() - 3), " TW");
  EXPECT_EQ(format_si(0.5, "W", 200), "500." + std::string(197, '0') + " mW");
  EXPECT_EQ(format_area(std::numeric_limits<double>::infinity()), "inf m^2");
  EXPECT_EQ(format_area(-std::numeric_limits<double>::infinity()),
            "-inf m^2");
}

TEST(Units, ThermalVoltageConstant) {
  EXPECT_NEAR(kThermalVoltage300K.si(), 0.02585, 1e-6);
}

}  // namespace
}  // namespace powerplay::units
