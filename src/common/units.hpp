#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/error.hpp"

/// \file units.hpp
/// Plain-typedef unit conventions used throughout the library.
///
/// The library deals with three distinct time scales:
///  - circuit time        : seconds (double), nanosecond-scale transients
///  - DRAM command timing : memory-controller clock cycles (Cycles)
///  - retention time      : seconds (double), millisecond-to-second scale
///
/// All voltages are volts, capacitances farads, resistances ohms, currents
/// amperes, charge coulombs, energy joules, area square micrometres.  We use
/// `double` with documented units rather than wrapper types: the analytical
/// model multiplies quantities across unit domains constantly (V*F -> C,
/// C/A -> s) and the naming convention below keeps call sites readable.
///
/// Naming convention: variables carry their unit as a suffix when ambiguity
/// is possible (`t_s`, `retention_ms`, `cap_f`, `area_um2`).

namespace vrl {

/// Memory-controller clock cycles (DRAM command timing domain).
using Cycles = std::uint64_t;

/// Signed cycle delta, for bookkeeping that may go negative transiently.
using CycleDelta = std::int64_t;

namespace units {

// -- Time -------------------------------------------------------------------
inline constexpr double kSecond = 1.0;
inline constexpr double kMilli = 1e-3;
inline constexpr double kMicro = 1e-6;
inline constexpr double kNano = 1e-9;
inline constexpr double kPico = 1e-12;

// -- Capacitance ------------------------------------------------------------
inline constexpr double kFemtoFarad = 1e-15;
inline constexpr double kPicoFarad = 1e-12;

// -- Length / area ----------------------------------------------------------
inline constexpr double kMicroMeter = 1e-6;
inline constexpr double kNanoMeter = 1e-9;

}  // namespace units

/// Convert seconds to an integral number of clock cycles, rounding up:
/// a DRAM timing parameter must always be met or exceeded.
constexpr Cycles SecondsToCyclesCeil(double seconds, double clock_period_s) {
  if (seconds <= 0.0) {
    return 0;
  }
  const double cycles = seconds / clock_period_s;
  const auto floor_cycles = static_cast<Cycles>(cycles);
  return (static_cast<double>(floor_cycles) >= cycles) ? floor_cycles
                                                       : floor_cycles + 1;
}

/// Convert cycles to seconds.
constexpr double CyclesToSeconds(Cycles cycles, double clock_period_s) {
  return static_cast<double>(cycles) * clock_period_s;
}

/// `windows` windows of `window` cycles.  \throws vrl::ConfigError when
/// that overflows Cycles.
inline Cycles WindowsToCycles(Cycles window, std::size_t windows) {
  Cycles cycles = 0;
  if (__builtin_mul_overflow(window, windows, &cycles)) {
    throw ConfigError(std::to_string(windows) + " windows of " +
                      std::to_string(window) +
                      " cycles overflow the 64-bit cycle count");
  }
  return cycles;
}

}  // namespace vrl
