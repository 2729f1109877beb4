// Edge-case coverage for the circuit engine, waveform container and the
// small common utilities — the paths the happy-path suites do not reach.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <string>

#include "circuit/dram_circuits.hpp"
#include "circuit/spice_export.hpp"
#include "circuit/transient.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "common/technology.hpp"
#include "common/units.hpp"

namespace vrl {
namespace {

using circuit::kGround;
using circuit::MosType;
using circuit::Netlist;
using circuit::NodeId;
using circuit::RunTransient;
using circuit::TransientOptions;

// ---------------------------------------------------------------------------
// Transient engine edges
// ---------------------------------------------------------------------------

TEST(TransientEdge, StoreEveryDecimatesSamples) {
  Netlist n;
  const NodeId top = n.Node("top");
  n.AddResistor(top, kGround, 1e3);
  n.AddCapacitor(top, kGround, 1e-12);
  n.SetInitialCondition(top, 1.0);

  TransientOptions options;
  options.t_stop_s = 1e-9;
  options.dt_s = 1e-12;  // 1000 steps
  options.store_every = 100;
  const auto wave = RunTransient(n, options, {"top"});
  // Initial sample + every 100th + the final step.
  EXPECT_LE(wave.sample_count(), 12u);
  EXPECT_GE(wave.sample_count(), 11u);
}

TEST(TransientEdge, PwlMidRunStepIsTracked) {
  // Source steps 0 -> 1 V at 0.5 ns; the RC output follows with its own
  // time constant from that point.
  Netlist n;
  const NodeId src = n.Node("src");
  const NodeId out = n.Node("out");
  n.AddVpwl(src, kGround, {{0.0, 0.0}, {0.5e-9, 0.0}, {0.52e-9, 1.0}});
  n.AddResistor(src, out, 1e3);
  n.AddCapacitor(out, kGround, 1e-12);

  TransientOptions options;
  options.t_stop_s = 4e-9;
  options.dt_s = 1e-12;
  const auto wave = RunTransient(n, options, {"out"});
  EXPECT_NEAR(wave.ValueAt("out", 0.45e-9), 0.0, 1e-3);
  const double rc = 1e-9;
  const double t_after = 1.5e-9 - 0.52e-9;
  EXPECT_NEAR(wave.ValueAt("out", 1.5e-9), 1.0 - std::exp(-t_after / rc),
              5e-3);
}

TEST(TransientEdge, NewtonIterationLimitThrows) {
  // A nonlinear circuit cannot converge in a single damped iteration from a
  // far-off initial state.
  Netlist n;
  const NodeId vd = n.Node("vd");
  const NodeId out = n.Node("out");
  n.AddVdc(vd, kGround, 1.2);
  n.AddMosfet(MosType::kNmos, vd, vd, out, {0.4, 5e-3, 0.0});
  n.AddResistor(out, kGround, 10e3);
  n.AddCapacitor(out, kGround, 1e-15);

  TransientOptions options;
  options.t_stop_s = 1e-10;
  options.dt_s = 1e-11;
  options.max_newton_iterations = 1;
  options.v_abstol = 1e-12;
  EXPECT_THROW(RunTransient(n, options, {"out"}), NumericalError);
}

TEST(TransientEdge, DcRejectsNonGroundReferencedSource) {
  Netlist n;
  const NodeId a = n.Node("a");
  const NodeId b = n.Node("b");
  n.AddVdc(a, b, 1.0);
  n.AddResistor(a, b, 1e3);
  EXPECT_THROW(circuit::SolveDc(n, circuit::DcOptions{}), ConfigError);
}

TEST(TransientEdge, UnknownProbeThrows) {
  Netlist n;
  n.AddResistor(n.Node("a"), kGround, 1e3);
  TransientOptions options;
  EXPECT_THROW(RunTransient(n, options, {"nope"}), ConfigError);
}

// ---------------------------------------------------------------------------
// Circuit input validation: every bad value is rejected where it enters,
// with a ConfigError naming the field, before any step is taken.
// ---------------------------------------------------------------------------

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

struct BadInput {
  const char* field;  ///< Must appear in the error message.
  std::function<void()> apply;
};

void ExpectConfigErrorsNamingTheirField(const std::vector<BadInput>& cases) {
  for (const BadInput& c : cases) {
    SCOPED_TRACE(c.field);
    try {
      c.apply();
      ADD_FAILURE() << "no ConfigError";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << e.what();
    }
  }
}

TEST(NetlistEdge, RejectsNonFiniteAndNonPositiveDeviceValues) {
  Netlist n;
  const NodeId a = n.Node("a");
  const NodeId b = n.Node("b");
  const auto mos = [&](double vt, double beta, double lambda) {
    return [&n, a, b, vt, beta, lambda] {
      n.AddMosfet(MosType::kNmos, a, b, kGround, {vt, beta, lambda});
    };
  };
  std::vector<BadInput> cases;
  for (const double bad : {kNan, kInf, -kInf, 0.0, -1.0}) {
    cases.push_back({"resistor ohms", [&n, a, bad] {
                       n.AddResistor(a, kGround, bad);
                     }});
    cases.push_back({"capacitor farads", [&n, a, bad] {
                       n.AddCapacitor(a, kGround, bad);
                     }});
    cases.push_back({"MOSFET beta", mos(0.4, bad, 0.0)});
    cases.push_back({"MOSFET vt", mos(bad, 1e-3, 0.0)});
  }
  for (const double bad : {kNan, kInf, -kInf}) {
    cases.push_back({"MOSFET lambda", mos(0.4, 1e-3, bad)});
    cases.push_back({"DC source volts", [&n, b, bad] {
                       n.AddVdc(b, kGround, bad);
                     }});
    cases.push_back({"PWL breakpoint time_s", [&n, b, bad] {
                       n.AddVpwl(b, kGround, {{0.0, 0.0}, {bad, 1.0}});
                     }});
    cases.push_back({"PWL breakpoint volts", [&n, b, bad] {
                       n.AddVpwl(b, kGround, {{0.0, bad}});
                     }});
    cases.push_back({"initial condition volts", [&n, a, bad] {
                       n.SetInitialCondition(a, bad);
                     }});
  }
  ExpectConfigErrorsNamingTheirField(cases);
  // Nothing was added by a rejected call.
  EXPECT_TRUE(n.resistors().empty());
  EXPECT_TRUE(n.capacitors().empty());
  EXPECT_TRUE(n.mosfets().empty());
  EXPECT_TRUE(n.sources().empty());
  EXPECT_TRUE(n.initial_conditions().empty());
}

TEST(TransientEdge, RejectsNonFiniteAndOutOfRangeOptions) {
  Netlist n;
  n.AddResistor(n.Node("a"), kGround, 1e3);
  n.AddCapacitor(n.Node("a"), kGround, 1e-15);
  using Set = std::function<void(TransientOptions&)>;
  const auto run = [&n](const Set& set) {
    return [&n, set] {
      TransientOptions options;
      set(options);
      RunTransient(n, options, {"a"});
    };
  };
  std::vector<BadInput> cases;
  for (const double bad : {kNan, kInf, -kInf, 0.0, -1e-12}) {
    cases.push_back({"dt_s", run([bad](TransientOptions& o) { o.dt_s = bad; })});
    cases.push_back(
        {"t_stop_s", run([bad](TransientOptions& o) { o.t_stop_s = bad; })});
    cases.push_back(
        {"v_abstol", run([bad](TransientOptions& o) { o.v_abstol = bad; })});
    cases.push_back({"newton_damping", run([bad](TransientOptions& o) {
                       o.newton_damping = bad;
                     })});
  }
  // ceil(t_stop / dt) beyond std::size_t, and an overflowing ratio.
  cases.push_back({"t_stop_s / dt_s", run([](TransientOptions& o) {
                     o.t_stop_s = 1e10;
                     o.dt_s = 1e-12;
                   })});
  cases.push_back({"t_stop_s / dt_s", run([](TransientOptions& o) {
                     o.t_stop_s = 1e300;
                     o.dt_s = 1e-300;
                   })});
  for (const int bad : {0, -1, std::numeric_limits<int>::min()}) {
    cases.push_back({"max_newton_iterations", run([bad](TransientOptions& o) {
                       o.max_newton_iterations = bad;
                     })});
  }
  cases.push_back({"store_every", run([](TransientOptions& o) {
                     o.store_every = 0;
                   })});
  ExpectConfigErrorsNamingTheirField(cases);
}

TEST(TransientEdge, DcRejectsNonFiniteAndOutOfRangeOptions) {
  Netlist n;
  n.AddResistor(n.Node("a"), kGround, 1e3);
  using Set = std::function<void(circuit::DcOptions&)>;
  const auto solve = [&n](const Set& set) {
    return [&n, set] {
      circuit::DcOptions options;
      set(options);
      circuit::SolveDc(n, options);
    };
  };
  std::vector<BadInput> cases;
  for (const double bad : {kNan, kInf, -kInf, 0.0, -1e-9}) {
    cases.push_back({"DcOptions::v_abstol",
                     solve([bad](circuit::DcOptions& o) { o.v_abstol = bad; })});
    cases.push_back({"DcOptions::newton_damping",
                     solve([bad](circuit::DcOptions& o) {
                       o.newton_damping = bad;
                     })});
  }
  for (const double bad : {kNan, kInf, -kInf}) {
    cases.push_back({"DcOptions::time_s",
                     solve([bad](circuit::DcOptions& o) { o.time_s = bad; })});
  }
  for (const int bad : {0, -3}) {
    cases.push_back({"DcOptions::max_newton_iterations",
                     solve([bad](circuit::DcOptions& o) {
                       o.max_newton_iterations = bad;
                     })});
  }
  ExpectConfigErrorsNamingTheirField(cases);
}

// ---------------------------------------------------------------------------
// Spice export on a large (banded-path) array netlist
// ---------------------------------------------------------------------------

TEST(SpiceExportEdge, ArrayDeckHasOneDevicePerCell) {
  TechnologyParams tech;
  tech.columns = 32;
  auto array = circuit::BuildChargeSharingArray(tech, DataPattern::kRandom);
  std::ostringstream os;
  circuit::WriteSpiceDeck(array.netlist, circuit::SpiceExportOptions{}, os);
  const std::string deck = os.str();
  std::size_t mosfets = 0;
  for (std::size_t pos = 0; (pos = deck.find("\nM", pos)) != std::string::npos;
       ++pos) {
    ++mosfets;
  }
  EXPECT_EQ(mosfets, 32u);  // one access transistor per bitline
}

// ---------------------------------------------------------------------------
// Waveform and table edges
// ---------------------------------------------------------------------------

TEST(WaveformEdge, ValueAtClampsBeforeFirstSample) {
  circuit::Waveform wave;
  wave.AddSignal("x");
  wave.Append(1.0, {5.0});
  wave.Append(2.0, {7.0});
  EXPECT_DOUBLE_EQ(wave.ValueAt("x", 0.0), 5.0);
  EXPECT_DOUBLE_EQ(wave.ValueAt("x", 3.0), 7.0);
}

TEST(WaveformEdge, FallingCrossingDetected) {
  circuit::Waveform wave;
  wave.AddSignal("x");
  wave.Append(0.0, {1.0});
  wave.Append(1.0, {0.0});
  EXPECT_NEAR(wave.CrossingTime("x", 0.25, /*rising=*/false), 0.75, 1e-12);
  EXPECT_LT(wave.CrossingTime("x", 0.25, /*rising=*/true), 0.0);
}

TEST(TextTableEdge, EmptyTablePrintsHeaderOnly) {
  TextTable t({"a", "bb"});
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("a  bb"), std::string::npos);
  EXPECT_EQ(t.row_count(), 0u);
}

TEST(FmtEdge, HandlesNegativeAndZero) {
  EXPECT_EQ(Fmt(-1.25, 1), "-1.2");  // round-half-even of snprintf
  EXPECT_EQ(Fmt(0.0, 2), "0.00");
  EXPECT_EQ(FmtPercent(-0.5, 0), "-50%");
}

TEST(UnitsEdge, ExactMultipleDoesNotRoundUp) {
  EXPECT_EQ(SecondsToCyclesCeil(5e-9, 2.5e-9), 2u);
  EXPECT_EQ(SecondsToCyclesCeil(5.000001e-9, 2.5e-9), 3u);
}

TEST(NetlistEdge, NodeNameOutOfRangeThrows) {
  Netlist n;
  EXPECT_THROW(n.NodeName(99), ConfigError);
}

}  // namespace
}  // namespace vrl
