// units.hpp — compile-time dimensional analysis for PowerPlay.
//
// Every physical quantity that flows through the estimation engine is a
// strongly typed wrapper over a double holding the value in SI base units.
// Dimensions are tracked as template exponents over (metre, kilogram,
// second, ampere), so expressions like `capacitance * voltage * voltage`
// produce an Energy at compile time and mixing incompatible quantities is
// a type error.  This removes the classic early-estimation failure mode
// (fF vs pF, microwatt vs milliwatt) from the entire code base.
#pragma once

#include <cmath>
#include <compare>
#include <string>
#include <string_view>

namespace powerplay::units {

/// A physical quantity with dimension m^M · kg^KG · s^S · A^AMP,
/// stored in SI base units.
template <int M, int KG, int S, int AMP>
class Quantity {
 public:
  constexpr Quantity() = default;
  constexpr explicit Quantity(double raw_si) : value_(raw_si) {}

  /// Value in SI base units (volts, farads, watts, ... as appropriate).
  [[nodiscard]] constexpr double si() const { return value_; }

  constexpr Quantity operator-() const { return Quantity{-value_}; }
  constexpr Quantity& operator+=(Quantity other) {
    value_ += other.value_;
    return *this;
  }
  constexpr Quantity& operator-=(Quantity other) {
    value_ -= other.value_;
    return *this;
  }
  constexpr Quantity& operator*=(double k) {
    value_ *= k;
    return *this;
  }
  constexpr Quantity& operator/=(double k) {
    value_ /= k;
    return *this;
  }

  friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity{a.value_ + b.value_};
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity{a.value_ - b.value_};
  }
  friend constexpr Quantity operator*(Quantity a, double k) {
    return Quantity{a.value_ * k};
  }
  friend constexpr Quantity operator*(double k, Quantity a) {
    return Quantity{a.value_ * k};
  }
  friend constexpr Quantity operator/(Quantity a, double k) {
    return Quantity{a.value_ / k};
  }
  friend constexpr auto operator<=>(Quantity a, Quantity b) = default;

 private:
  double value_ = 0.0;
};

/// Dimensionless ratio; implicitly usable as a double via si().
using Scalar = Quantity<0, 0, 0, 0>;

template <int M1, int KG1, int S1, int A1, int M2, int KG2, int S2, int A2>
constexpr Quantity<M1 + M2, KG1 + KG2, S1 + S2, A1 + A2> operator*(
    Quantity<M1, KG1, S1, A1> a, Quantity<M2, KG2, S2, A2> b) {
  return Quantity<M1 + M2, KG1 + KG2, S1 + S2, A1 + A2>{a.si() * b.si()};
}

template <int M1, int KG1, int S1, int A1, int M2, int KG2, int S2, int A2>
constexpr Quantity<M1 - M2, KG1 - KG2, S1 - S2, A1 - A2> operator/(
    Quantity<M1, KG1, S1, A1> a, Quantity<M2, KG2, S2, A2> b) {
  return Quantity<M1 - M2, KG1 - KG2, S1 - S2, A1 - A2>{a.si() / b.si()};
}

template <int M, int KG, int S, int A>
constexpr Quantity<-M, -KG, -S, -A> operator/(double k,
                                              Quantity<M, KG, S, A> q) {
  return Quantity<-M, -KG, -S, -A>{k / q.si()};
}

// ---------------------------------------------------------------------------
// Named quantities (SI dimensions).
// ---------------------------------------------------------------------------

using Time = Quantity<0, 0, 1, 0>;              ///< second
using Frequency = Quantity<0, 0, -1, 0>;        ///< hertz
using Current = Quantity<0, 0, 0, 1>;           ///< ampere
using Charge = Quantity<0, 0, 1, 1>;            ///< coulomb
using Voltage = Quantity<2, 1, -3, -1>;         ///< volt
using Energy = Quantity<2, 1, -2, 0>;           ///< joule
using Power = Quantity<2, 1, -3, 0>;            ///< watt
using Capacitance = Quantity<-2, -1, 4, 2>;     ///< farad
using Resistance = Quantity<2, 1, -3, -2>;      ///< ohm
using Conductance = Quantity<-2, -1, 3, 2>;     ///< siemens (transconductance)
using Area = Quantity<2, 0, 0, 0>;              ///< square metre
using Length = Quantity<1, 0, 0, 0>;            ///< metre

// ---------------------------------------------------------------------------
// Literals.  `using namespace powerplay::units::literals;`
// ---------------------------------------------------------------------------
namespace literals {

// Voltage
constexpr Voltage operator""_V(long double v) { return Voltage{double(v)}; }
constexpr Voltage operator""_V(unsigned long long v) { return Voltage{double(v)}; }
constexpr Voltage operator""_mV(long double v) { return Voltage{double(v) * 1e-3}; }
constexpr Voltage operator""_mV(unsigned long long v) { return Voltage{double(v) * 1e-3}; }

// Capacitance
constexpr Capacitance operator""_F(long double v) { return Capacitance{double(v)}; }
constexpr Capacitance operator""_uF(long double v) { return Capacitance{double(v) * 1e-6}; }
constexpr Capacitance operator""_nF(long double v) { return Capacitance{double(v) * 1e-9}; }
constexpr Capacitance operator""_pF(long double v) { return Capacitance{double(v) * 1e-12}; }
constexpr Capacitance operator""_pF(unsigned long long v) { return Capacitance{double(v) * 1e-12}; }
constexpr Capacitance operator""_fF(long double v) { return Capacitance{double(v) * 1e-15}; }
constexpr Capacitance operator""_fF(unsigned long long v) { return Capacitance{double(v) * 1e-15}; }

// Power
constexpr Power operator""_W(long double v) { return Power{double(v)}; }
constexpr Power operator""_W(unsigned long long v) { return Power{double(v)}; }
constexpr Power operator""_mW(long double v) { return Power{double(v) * 1e-3}; }
constexpr Power operator""_mW(unsigned long long v) { return Power{double(v) * 1e-3}; }
constexpr Power operator""_uW(long double v) { return Power{double(v) * 1e-6}; }
constexpr Power operator""_uW(unsigned long long v) { return Power{double(v) * 1e-6}; }

// Energy
constexpr Energy operator""_J(long double v) { return Energy{double(v)}; }
constexpr Energy operator""_mJ(long double v) { return Energy{double(v) * 1e-3}; }
constexpr Energy operator""_uJ(long double v) { return Energy{double(v) * 1e-6}; }
constexpr Energy operator""_nJ(long double v) { return Energy{double(v) * 1e-9}; }
constexpr Energy operator""_pJ(long double v) { return Energy{double(v) * 1e-12}; }
constexpr Energy operator""_pJ(unsigned long long v) { return Energy{double(v) * 1e-12}; }

// Frequency
constexpr Frequency operator""_Hz(long double v) { return Frequency{double(v)}; }
constexpr Frequency operator""_Hz(unsigned long long v) { return Frequency{double(v)}; }
constexpr Frequency operator""_kHz(long double v) { return Frequency{double(v) * 1e3}; }
constexpr Frequency operator""_kHz(unsigned long long v) { return Frequency{double(v) * 1e3}; }
constexpr Frequency operator""_MHz(long double v) { return Frequency{double(v) * 1e6}; }
constexpr Frequency operator""_MHz(unsigned long long v) { return Frequency{double(v) * 1e6}; }
constexpr Frequency operator""_GHz(long double v) { return Frequency{double(v) * 1e9}; }

// Current
constexpr Current operator""_A(long double v) { return Current{double(v)}; }
constexpr Current operator""_A(unsigned long long v) { return Current{double(v)}; }
constexpr Current operator""_mA(long double v) { return Current{double(v) * 1e-3}; }
constexpr Current operator""_mA(unsigned long long v) { return Current{double(v) * 1e-3}; }
constexpr Current operator""_uA(long double v) { return Current{double(v) * 1e-6}; }
constexpr Current operator""_uA(unsigned long long v) { return Current{double(v) * 1e-6}; }
constexpr Current operator""_nA(long double v) { return Current{double(v) * 1e-9}; }

// Time
constexpr Time operator""_s(long double v) { return Time{double(v)}; }
constexpr Time operator""_s(unsigned long long v) { return Time{double(v)}; }
constexpr Time operator""_ms(long double v) { return Time{double(v) * 1e-3}; }
constexpr Time operator""_us(long double v) { return Time{double(v) * 1e-6}; }
constexpr Time operator""_ns(long double v) { return Time{double(v) * 1e-9}; }
constexpr Time operator""_ns(unsigned long long v) { return Time{double(v) * 1e-9}; }

// Area
constexpr Area operator""_m2(long double v) { return Area{double(v)}; }
constexpr Area operator""_mm2(long double v) { return Area{double(v) * 1e-6}; }
constexpr Area operator""_mm2(unsigned long long v) { return Area{double(v) * 1e-6}; }
constexpr Area operator""_um2(long double v) { return Area{double(v) * 1e-12}; }
constexpr Area operator""_um2(unsigned long long v) { return Area{double(v) * 1e-12}; }

// Resistance / conductance
constexpr Resistance operator""_Ohm(long double v) { return Resistance{double(v)}; }
constexpr Resistance operator""_kOhm(long double v) { return Resistance{double(v) * 1e3}; }
constexpr Conductance operator""_S(long double v) { return Conductance{double(v)}; }
constexpr Conductance operator""_mS(long double v) { return Conductance{double(v) * 1e-3}; }

}  // namespace literals

// ---------------------------------------------------------------------------
// Physical constants used by the analog models (EQ 14-17).
// ---------------------------------------------------------------------------

/// Thermal voltage kT/q at 300 K, ~25.85 mV.
constexpr Voltage kThermalVoltage300K{0.02585};

// ---------------------------------------------------------------------------
// Formatting: engineering notation with SI prefixes ("64.38 uW").
// ---------------------------------------------------------------------------

/// Append a raw SI value with an SI prefix and the given unit symbol,
/// e.g. "64.38 uW" for (6.438e-5, "W"): the mantissa in [1, 1000) with
/// `significant_digits` digits, as printf("%.*f") writes it.
void append_si(std::string& out, double raw_si, std::string_view unit,
               int significant_digits = 4);

/// append_si into a fresh string: format_si(6.438e-5, "W") == "64.38 uW".
std::string format_si(double raw_si, const std::string& unit,
                      int significant_digits = 4);

/// Areas need their own formatter: length prefixes square, so
/// 2.46e-6 m^2 formats as "2.458 mm^2", not "2.458 um^2".
std::string format_area(double si_m2, int significant_digits = 4);

/// Append `v` exactly as printf("%.{precision}g") — and so an ostream at
/// setprecision(precision) — would write it, without the stream
/// machinery: the machine-readable CSV/JSON result renderers.
void append_double(std::string& out, double v, int precision);

std::string to_string(Voltage v);
std::string to_string(Capacitance c);
std::string to_string(Power p);
std::string to_string(Energy e);
std::string to_string(Frequency f);
std::string to_string(Current i);
std::string to_string(Time t);
std::string to_string(Area a);

}  // namespace powerplay::units
