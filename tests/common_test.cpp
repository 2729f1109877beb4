#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/data_pattern.hpp"
#include "common/error.hpp"
#include "common/interpolation.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/technology.hpp"
#include "common/tridiagonal.hpp"
#include "common/units.hpp"

namespace vrl {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, IsDeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DiffersAcrossSeeds) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformDoubleMeanIsHalf) {
  Rng rng(123);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.UniformDouble();
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntRespectsBound) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.UniformInt(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit over 1000 draws
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(99);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, LogNormalIsPositive) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.LogNormal(0.0, 1.0), 0.0);
  }
}

TEST(Rng, BernoulliProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(4.0);
  }
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(3);
  Rng a = parent.Fork(0);
  Rng b = parent.Fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

// Known-answer pins: the sequence itself, not just two equal instances.
// Every seeded experiment in the repo replays these draws.

TEST(Rng, RawOutputsArePinned) {
  const std::uint64_t seed0[] = {
      0x99ec5f36cb75f2b4ULL, 0xbf6e1f784956452aULL, 0x1a5f849d4933e6e0ULL,
      0x6aa594f1262d2d2cULL, 0xbba5ad4a1f842e59ULL, 0xffef8375d9ebcacaULL,
      0x6c160deed2f54c98ULL, 0x8920ad648fc30a3fULL};
  const std::uint64_t seed42[] = {
      0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL, 0xae17533239e499a1ULL,
      0xecb8ad4703b360a1ULL, 0xfde6dc7fe2ec5e64ULL, 0xc50da53101795238ULL,
      0xb82154855a65ddb2ULL, 0xd99a2743ebe60087ULL};
  Rng a(0);
  Rng b(42);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a(), seed0[i]) << i;
    EXPECT_EQ(b(), seed42[i]) << i;
  }
}

TEST(Rng, UniformDoublesArePinned) {
  const double expected[] = {0x1.66b1f5ee9df2ep-1, 0x1.1d70f6593d20ap-2,
                             0x1.ade3a6932a58fp-1, 0x1.f65270e63d00ep-1};
  Rng rng(7);
  for (const double e : expected) {
    EXPECT_EQ(rng.UniformDouble(), e);
  }
}

TEST(Rng, BernoulliDrawsArePinned) {
  Rng rng(17);
  std::uint64_t mask = 0;
  for (int i = 0; i < 64; ++i) {
    if (rng.Bernoulli(0.3)) {
      mask |= std::uint64_t{1} << i;
    }
  }
  EXPECT_EQ(mask, 0x3821cb21c523a400ULL);
}

TEST(Rng, ForkedStreamIsPinned) {
  const std::uint64_t expected[] = {0x783ad5b21e0bc4abULL,
                                    0x2d29e3740b645d48ULL,
                                    0xc4e7a50b84879a5cULL,
                                    0x733049880d2d6aecULL};
  Rng parent(3);
  Rng fork = parent.Fork(3);
  for (const std::uint64_t e : expected) {
    EXPECT_EQ(fork(), e);
  }
  // Fork advances the parent by exactly one draw.
  EXPECT_EQ(parent(), 0xa3fd1dea5e1864eeULL);
}

TEST(DataPattern, RandomCellValuesArePinned) {
  std::uint64_t mask[2] = {0, 0};
  for (std::size_t i = 0; i < 128; ++i) {
    if (CellValue(DataPattern::kRandom, i)) {
      mask[i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }
  EXPECT_EQ(mask[0], 0xf8f8f5cd9eb98084ULL);
  EXPECT_EQ(mask[1], 0x1e5bbe96da98dbe5ULL);
}

// ---------------------------------------------------------------------------
// Tridiagonal solver
// ---------------------------------------------------------------------------

TEST(Tridiagonal, SolvesIdentity) {
  TridiagonalSystem sys;
  sys.diag = {1.0, 1.0, 1.0};
  sys.lower = {0.0, 0.0};
  sys.upper = {0.0, 0.0};
  sys.rhs = {3.0, -2.0, 5.0};
  const auto x = SolveTridiagonal(sys);
  ASSERT_EQ(x.size(), 3u);
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], -2.0);
  EXPECT_DOUBLE_EQ(x[2], 5.0);
}

TEST(Tridiagonal, SolvesKnownSystem) {
  // [2 1 0; 1 2 1; 0 1 2] x = [4; 8; 8] -> x = [1; 2; 3]
  TridiagonalSystem sys;
  sys.diag = {2.0, 2.0, 2.0};
  sys.lower = {1.0, 1.0};
  sys.upper = {1.0, 1.0};
  sys.rhs = {4.0, 8.0, 8.0};
  const auto x = SolveTridiagonal(sys);
  ASSERT_EQ(x.size(), 3u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(Tridiagonal, SingleElement) {
  TridiagonalSystem sys;
  sys.diag = {4.0};
  sys.rhs = {8.0};
  const auto x = SolveTridiagonal(sys);
  ASSERT_EQ(x.size(), 1u);
  EXPECT_DOUBLE_EQ(x[0], 2.0);
}

TEST(Tridiagonal, EmptySystemReturnsEmpty) {
  TridiagonalSystem sys;
  EXPECT_TRUE(SolveTridiagonal(sys).empty());
}

TEST(Tridiagonal, ThrowsOnDimensionMismatch) {
  TridiagonalSystem sys;
  sys.diag = {1.0, 1.0};
  sys.lower = {0.0};
  sys.upper = {0.0};
  sys.rhs = {1.0};  // wrong size
  EXPECT_THROW(SolveTridiagonal(sys), NumericalError);
}

TEST(Tridiagonal, ThrowsOnSingular) {
  TridiagonalSystem sys;
  sys.diag = {0.0};
  sys.rhs = {1.0};
  EXPECT_THROW(SolveTridiagonal(sys), NumericalError);
}

TEST(Tridiagonal, CouplingSystemReducesToScalingWithoutCoupling) {
  // k2 = 0 -> v = k1 * lself.
  const std::vector<double> lself{0.5, 0.6, 0.7};
  const auto v = SolveCouplingSystem(0.2, 0.0, lself);
  ASSERT_EQ(v.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(v[i], 0.2 * lself[i], 1e-14);
  }
}

TEST(Tridiagonal, CouplingIncreasesUniformSenseVoltage) {
  // With equal Lself everywhere and positive K2, the coupled solution
  // exceeds the uncoupled one in the interior (neighbours pull together).
  const std::vector<double> lself(9, 0.6);
  const double k1 = 0.1;
  const double k2 = 0.03;
  const auto coupled = SolveCouplingSystem(k1, k2, lself);
  const auto uncoupled = SolveCouplingSystem(k1, 0.0, lself);
  EXPECT_GT(coupled[4], uncoupled[4]);
}

TEST(Tridiagonal, CouplingMatchesDenseSolveSmallCase) {
  // Hand-check against the explicit 2x2 inverse:
  // [1 -k2; -k2 1] v = k1*l  ->  v0 = k1*(l0 + k2*l1)/(1-k2^2)
  const double k1 = 0.15;
  const double k2 = 0.05;
  const std::vector<double> l{0.4, 0.8};
  const auto v = SolveCouplingSystem(k1, k2, l);
  const double denom = 1.0 - k2 * k2;
  EXPECT_NEAR(v[0], k1 * (l[0] + k2 * l[1]) / denom, 1e-14);
  EXPECT_NEAR(v[1], k1 * (l[1] + k2 * l[0]) / denom, 1e-14);
}

// The coupling matrix built the general way, as SolveCouplingSystem did
// before it kept a factor: the bit-for-bit reference.
std::vector<double> ReferenceCouplingSolve(double k1, double k2,
                                           const std::vector<double>& lself) {
  const std::size_t n = lself.size();
  TridiagonalSystem system;
  system.diag.assign(n, 1.0);
  system.lower.assign(n - 1, -k2);
  system.upper.assign(n - 1, -k2);
  system.rhs.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    system.rhs[i] = k1 * lself[i];
  }
  return SolveTridiagonal(system);
}

TEST(CouplingFactor, SolvesBitIdenticallyToTheGeneralSolver) {
  Rng rng(2024);
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{16},
        std::size_t{31}, std::size_t{32}, std::size_t{33}, std::size_t{128},
        std::size_t{1024}}) {
    for (int trial = 0; trial < 8; ++trial) {
      const double k1 = rng.Uniform(1e-6, 0.5);
      const double k2 = rng.Uniform(0.0, 0.45);
      std::vector<double> lself(n);
      for (double& l : lself) {
        l = rng.Uniform(-1.0, 1.0);
      }
      const auto expected = ReferenceCouplingSolve(k1, k2, lself);

      std::vector<double> rhs(n);
      for (std::size_t i = 0; i < n; ++i) {
        rhs[i] = k1 * lself[i];
      }
      std::vector<double> x(n);
      const CouplingFactor factor(k2, n);
      ASSERT_EQ(factor.size(), n);
      factor.Solve(rhs, x);
      const auto convenience = SolveCouplingSystem(k1, k2, lself);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(x[i], expected[i]) << "n=" << n << " i=" << i;
        EXPECT_EQ(convenience[i], expected[i]) << "n=" << n << " i=" << i;
      }
      factor.Solve(rhs, rhs);  // in place
      EXPECT_EQ(rhs, x);
    }
  }
}

TEST(CouplingFactor, EmptyFactorSolvesNothing) {
  const CouplingFactor factor(0.1, 0);
  EXPECT_EQ(factor.size(), 0u);
  std::vector<double> none;
  factor.Solve(none, none);
  EXPECT_TRUE(SolveCouplingSystem(0.2, 0.1, {}).empty());
}

TEST(CouplingFactor, RejectsZeroPivotAndSizeMismatch) {
  // [1 -1; -1 1] is singular: the second pivot is exactly zero.
  try {
    const CouplingFactor singular(1.0, 2);
    ADD_FAILURE() << "expected a zero-pivot error";
  } catch (const NumericalError& e) {
    EXPECT_NE(std::string(e.what()).find("CouplingFactor: zero pivot"),
              std::string::npos)
        << e.what();
  }
  const CouplingFactor factor(0.1, 3);
  std::vector<double> rhs(2, 1.0);
  std::vector<double> x(3);
  EXPECT_THROW(factor.Solve(rhs, x), NumericalError);
}

// ---------------------------------------------------------------------------
// PiecewiseLinear
// ---------------------------------------------------------------------------

TEST(PiecewiseLinear, InterpolatesBetweenSamples) {
  PiecewiseLinear f({0.0, 1.0, 2.0}, {0.0, 10.0, 40.0});
  EXPECT_DOUBLE_EQ(f(0.5), 5.0);
  EXPECT_DOUBLE_EQ(f(1.5), 25.0);
}

TEST(PiecewiseLinear, ClampsOutsideRange) {
  PiecewiseLinear f({0.0, 1.0}, {2.0, 3.0});
  EXPECT_DOUBLE_EQ(f(-5.0), 2.0);
  EXPECT_DOUBLE_EQ(f(9.0), 3.0);
}

TEST(PiecewiseLinear, InverseLookupFindsCrossing) {
  PiecewiseLinear f({0.0, 1.0, 2.0}, {0.0, 10.0, 40.0});
  EXPECT_DOUBLE_EQ(f.InverseLookup(5.0), 0.5);
  EXPECT_DOUBLE_EQ(f.InverseLookup(25.0), 1.5);
}

TEST(PiecewiseLinear, InverseLookupClamps) {
  PiecewiseLinear f({0.0, 1.0}, {1.0, 2.0});
  EXPECT_DOUBLE_EQ(f.InverseLookup(0.0), 0.0);
  EXPECT_DOUBLE_EQ(f.InverseLookup(5.0), 1.0);
}

TEST(PiecewiseLinear, RejectsNonMonotoneX) {
  EXPECT_THROW(PiecewiseLinear({0.0, 0.0}, {1.0, 2.0}), NumericalError);
  EXPECT_THROW(PiecewiseLinear({1.0, 0.0}, {1.0, 2.0}), NumericalError);
}

TEST(PiecewiseLinear, RejectsEmptyOrMismatched) {
  EXPECT_THROW(PiecewiseLinear({}, {}), NumericalError);
  EXPECT_THROW(PiecewiseLinear({1.0}, {1.0, 2.0}), NumericalError);
}

TEST(PiecewiseLinear, InverseLookupRejectsDecreasingY) {
  PiecewiseLinear f({0.0, 1.0}, {2.0, 1.0});
  EXPECT_THROW(f.InverseLookup(1.5), NumericalError);
}

TEST(BisectRoot, FindsSqrtTwo) {
  const double root =
      BisectRoot(0.0, 2.0, 1e-12, [](double x) { return x * x - 2.0; });
  EXPECT_NEAR(root, std::sqrt(2.0), 1e-10);
}

TEST(BisectRoot, ThrowsWhenNotBracketed) {
  EXPECT_THROW(
      BisectRoot(0.0, 1.0, 1e-12, [](double x) { return x * x + 1.0; }),
      NumericalError);
}

// ---------------------------------------------------------------------------
// TextTable
// ---------------------------------------------------------------------------

TEST(TextTable, PrintsAlignedColumns) {
  TextTable t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-name", "22"});
  std::ostringstream os;
  t.Print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, RejectsArityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), ConfigError);
}

TEST(TextTable, CsvEscapesSpecialCells) {
  TextTable t({"x"});
  t.AddRow({"va,l\"ue"});
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_NE(os.str().find("\"va,l\"\"ue\""), std::string::npos);
}

TEST(FmtHelpers, FormatValues) {
  EXPECT_EQ(Fmt(0.9671, 2), "0.97");
  EXPECT_EQ(Fmt(3.0, 0), "3");
  EXPECT_EQ(FmtPercent(0.341, 1), "34.1%");
}

// ---------------------------------------------------------------------------
// Units
// ---------------------------------------------------------------------------

TEST(Units, SecondsToCyclesRoundsUp) {
  EXPECT_EQ(SecondsToCyclesCeil(1.25e-9, 1.25e-9), 1u);
  EXPECT_EQ(SecondsToCyclesCeil(1.26e-9, 1.25e-9), 2u);
  EXPECT_EQ(SecondsToCyclesCeil(0.0, 1.25e-9), 0u);
  EXPECT_EQ(SecondsToCyclesCeil(-1.0, 1.25e-9), 0u);
}

TEST(Units, RoundTripCycles) {
  const double period = 1.25e-9;
  EXPECT_DOUBLE_EQ(CyclesToSeconds(8, period), 1e-8);
}

// ---------------------------------------------------------------------------
// TechnologyParams
// ---------------------------------------------------------------------------

TEST(TechnologyParams, DefaultValidates) {
  TechnologyParams tech;
  EXPECT_NO_THROW(tech.Validate());
}

TEST(TechnologyParams, DerivedQuantities) {
  TechnologyParams tech;
  tech.rows = 1000;
  tech.cbl_per_row = 0.05e-15;
  tech.cbl_fixed = 5e-15;
  EXPECT_NEAR(tech.Cbl(), 55e-15, 1e-20);
  EXPECT_DOUBLE_EQ(tech.Veq(), 0.6);
  EXPECT_GT(tech.Cbb(), 0.0);
  EXPECT_GT(tech.Cbw(), 0.0);
}

TEST(TechnologyParams, RejectsNonPhysical) {
  TechnologyParams tech;
  tech.vdd = -1.0;
  EXPECT_THROW(tech.Validate(), ConfigError);

  tech = TechnologyParams{};
  tech.rows = 0;
  EXPECT_THROW(tech.Validate(), ConfigError);

  tech = TechnologyParams{};
  tech.cs = 0.0;
  EXPECT_THROW(tech.Validate(), ConfigError);
}

TEST(TechnologyParams, WithGeometryChangesOnlyGeometry) {
  TechnologyParams tech;
  const auto big = tech.WithGeometry(16384, 128);
  EXPECT_EQ(big.rows, 16384u);
  EXPECT_EQ(big.columns, 128u);
  EXPECT_DOUBLE_EQ(big.vdd, tech.vdd);
  EXPECT_GT(big.Cbl(), tech.Cbl());
  EXPECT_EQ(big.GeometryLabel(), "16384x128");
}

TEST(WholeNumbers, TakeTheWholeTextOrNothing) {
  EXPECT_EQ(ParseWholeUnsigned("42"), 42u);
  EXPECT_EQ(ParseWholeUnsigned("0x1F", 0), 31u);  // base 0: C prefixes
  EXPECT_EQ(ParseWholeUnsigned("017", 0), 15u);
  for (const char* text : {"", "-1", "+1", " 1", "1 ", "1x", "0x", "1.0",
                           "18446744073709551616"}) {
    EXPECT_FALSE(ParseWholeUnsigned(text, 0).has_value()) << text;
  }
  EXPECT_EQ(ParseWholeUnsigned("1F", 16), 31u);
  EXPECT_FALSE(ParseWholeUnsigned("0x1F", 16).has_value());  // digits only
  EXPECT_EQ(ParseWholeDouble("-2.5e-1"), -0.25);
  for (const char* text : {"", " 1", "1 ", "1e", "nan", "inf", "1e999"}) {
    EXPECT_FALSE(ParseWholeDouble(text).has_value()) << text;
  }
}

}  // namespace
}  // namespace vrl
