#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "trace/address.hpp"
#include "trace/io.hpp"
#include "trace/stats.hpp"
#include "trace/synthetic.hpp"

namespace vrl::trace {
namespace {

AddressGeometry SmallGeometry() {
  AddressGeometry g;
  g.banks = 4;
  g.rows = 64;
  g.columns = 8;
  return g;
}

// ---------------------------------------------------------------------------
// AddressMapper
// ---------------------------------------------------------------------------

TEST(AddressMapper, RoundTripsAllCoordinates) {
  const AddressMapper mapper(SmallGeometry());
  for (std::size_t bank = 0; bank < 4; ++bank) {
    for (std::size_t row = 0; row < 64; row += 13) {
      for (std::size_t col = 0; col < 8; ++col) {
        const auto addr = mapper.Encode({bank, row, col});
        const auto c = mapper.Decode(addr);
        EXPECT_EQ(c.bank, bank);
        EXPECT_EQ(c.row, row);
        EXPECT_EQ(c.column, col);
      }
    }
  }
}

TEST(AddressMapper, ConsecutiveLinesInterleaveBanks) {
  const AddressMapper mapper(SmallGeometry());
  for (std::uint64_t a = 0; a < 16; ++a) {
    EXPECT_EQ(mapper.Decode(a).bank, a % 4);
  }
}

TEST(AddressMapper, SequentialStreamStaysInRowAcrossBanks) {
  // banks * columns consecutive lines share a row index.
  const AddressMapper mapper(SmallGeometry());
  const std::uint64_t lines_per_row = 4 * 8;
  for (std::uint64_t a = 0; a < lines_per_row; ++a) {
    EXPECT_EQ(mapper.Decode(a).row, 0u);
  }
  EXPECT_EQ(mapper.Decode(lines_per_row).row, 1u);
}

TEST(AddressMapper, WrapsOutOfRangeAddresses) {
  const AddressMapper mapper(SmallGeometry());
  const auto total = SmallGeometry().TotalLines();
  const auto c1 = mapper.Decode(5);
  const auto c2 = mapper.Decode(5 + total);
  EXPECT_EQ(c1.bank, c2.bank);
  EXPECT_EQ(c1.row, c2.row);
  EXPECT_EQ(c1.column, c2.column);
}

TEST(AddressMapper, EncodeRejectsOutOfRange) {
  const AddressMapper mapper(SmallGeometry());
  EXPECT_THROW(mapper.Encode({4, 0, 0}), ConfigError);
  EXPECT_THROW(mapper.Encode({0, 64, 0}), ConfigError);
  EXPECT_THROW(mapper.Encode({0, 0, 8}), ConfigError);
}

TEST(AddressMapper, ShiftDecodeMatchesDivision) {
  // Power-of-two geometries decode by masks and shifts, the rest by
  // division; both must agree with the division formula everywhere.
  const auto by_division = [](const AddressGeometry& g, std::uint64_t a) {
    const std::uint64_t wrapped = a % g.TotalLines();
    AddressMapper::Coordinates c;
    c.bank = static_cast<std::size_t>(wrapped % g.banks);
    const std::uint64_t rest = wrapped / g.banks;
    c.column = static_cast<std::size_t>(rest % g.columns);
    c.row = static_cast<std::size_t>(rest / g.columns % g.rows);
    return c;
  };
  const AddressGeometry geometries[] = {
      {8, 8192, 32}, {1, 1, 1},  {4, 64, 8},     {16, 65536, 128},
      {1, 1024, 1},  {6, 8192, 32}, {8, 1000, 32}, {8, 8192, 24},
      {3, 5, 7},
  };
  Rng rng(3);
  for (const AddressGeometry& g : geometries) {
    SCOPED_TRACE(std::to_string(g.banks) + "x" + std::to_string(g.rows) +
                 "x" + std::to_string(g.columns));
    const AddressMapper mapper(g);
    const std::uint64_t total = g.TotalLines();
    std::vector<std::uint64_t> addresses = {
        0,         1,         g.banks - 1, g.banks,      total - 1,
        total,     total + 1, 2 * total - 1, ~std::uint64_t{0},
        ~std::uint64_t{0} - total};
    for (int i = 0; i < 2000; ++i) {
      addresses.push_back(rng());
      addresses.push_back(rng.UniformInt(4 * total));
    }
    for (const std::uint64_t a : addresses) {
      const auto got = mapper.Decode(a);
      const auto want = by_division(g, a);
      EXPECT_EQ(got.bank, want.bank) << a;
      EXPECT_EQ(got.row, want.row) << a;
      EXPECT_EQ(got.column, want.column) << a;
    }
  }
}

TEST(MapToRequestsTest, PreservesOrderAndTypes) {
  const AddressMapper mapper(SmallGeometry());
  std::vector<TraceRecord> records{
      {10, 0, false}, {20, 1, true}, {30, 2, false}};
  const auto requests = MapToRequests(records, mapper);
  ASSERT_EQ(requests.size(), 3u);
  EXPECT_EQ(requests[0].arrival, 10u);
  EXPECT_EQ(requests[1].type, dram::RequestType::kWrite);
  EXPECT_EQ(requests[2].bank, 2u);
}

/// Draws `workload` over `duration` cycles both ways from the same seed,
/// GenerateStreams against splitting the mapped GenerateTrace, and expects
/// the same streams slot for slot, each slot decoding to its mapped
/// request's full arrival, and the same caller Rng state after.  Returns
/// the number of empty banks.
std::size_t ExpectStreamsEqualSplitTrace(
    const SyntheticWorkloadParams& workload, const AddressGeometry& geometry,
    Cycles duration) {
  const AddressMapper mapper(geometry);
  Rng direct_rng(5);
  Rng split_rng(5);
  const dram::RequestStreams direct =
      GenerateStreams(workload, mapper, duration, direct_rng);
  const std::vector<dram::Request> requests = MapToRequests(
      GenerateTrace(workload, geometry, duration, split_rng), mapper);
  const dram::RequestStreams split(requests, geometry.banks, geometry.rows);
  EXPECT_EQ(direct_rng(), split_rng()) << workload.name;
  EXPECT_EQ(direct.rows(), geometry.rows);
  EXPECT_EQ(direct.size(), split.size()) << workload.name;
  std::size_t empty = 0;
  if (direct.banks() != geometry.banks || split.banks() != geometry.banks) {
    ADD_FAILURE() << workload.name << ": " << direct.banks() << " banks";
    return empty;
  }
  for (std::size_t b = 0; b < geometry.banks; ++b) {
    EXPECT_EQ(direct.offset(b), split.offset(b)) << workload.name;
    const dram::BankStream got = direct.stream(b);
    std::vector<dram::Request> want;
    std::copy_if(requests.begin(), requests.end(), std::back_inserter(want),
                 [b](const dram::Request& r) { return r.bank == b; });
    EXPECT_EQ(got.size(), want.size()) << workload.name << " bank " << b;
    EXPECT_EQ(split.stream(b).size(), want.size()) << workload.name;
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      const bool write = want[i].type == dram::RequestType::kWrite;
      if (got.arrival(i) != want[i].arrival || got[i].row() != want[i].row ||
          got[i].write() != write ||
          split.stream(b).arrival(i) != want[i].arrival ||
          split.stream(b)[i].row() != want[i].row ||
          split.stream(b)[i].write() != write) {
        ADD_FAILURE() << workload.name << " bank " << b << " slot " << i;
        break;
      }
    }
    empty += got.empty() ? 1 : 0;
  }
  EXPECT_EQ(direct.offset(geometry.banks), direct.size());
  return empty;
}

TEST(GenerateStreamsTest, EqualsSplittingTheMappedTraceForEverySuiteWorkload) {
  // A power-of-two geometry (mask decode) and one that divides.
  for (const AddressGeometry& geometry :
       {SmallGeometry(), AddressGeometry{3, 20, 5}}) {
    for (const SyntheticWorkloadParams& workload : EvaluationSuite()) {
      EXPECT_EQ(ExpectStreamsEqualSplitTrace(workload, geometry, 200'000),
                0u)
          << workload.name;
    }
  }
}

TEST(GenerateStreamsTest, ShortHorizonLeavesBanksEmpty) {
  // swaptions draws one request per 1000 cycles on average: a few over
  // 3000 cycles, none over 0.
  const SyntheticWorkloadParams swaptions = SuiteWorkload("swaptions");
  EXPECT_GT(ExpectStreamsEqualSplitTrace(swaptions, SmallGeometry(), 3000),
            0u);
  EXPECT_EQ(ExpectStreamsEqualSplitTrace(swaptions, SmallGeometry(), 0),
            SmallGeometry().banks);
}

TEST(GenerateStreamsTest, ArrivalsStraddling2To32And2To33DecodeExactly) {
  // About 200 requests over 3 * 2^32 cycles: every bank's stream crosses
  // 2^32 and 2^33.
  SyntheticWorkloadParams sparse;
  sparse.name = "sparse";
  sparse.mean_gap_cycles = static_cast<double>(Cycles{1} << 26);
  const Cycles duration = 3 * (Cycles{1} << 32);
  EXPECT_EQ(ExpectStreamsEqualSplitTrace(sparse, SmallGeometry(), duration),
            0u);
  const AddressMapper mapper(SmallGeometry());
  Rng rng(5);
  const dram::RequestStreams streams =
      GenerateStreams(sparse, mapper, duration, rng);
  for (std::size_t b = 0; b < streams.banks(); ++b) {
    const dram::BankStream stream = streams.stream(b);
    ASSERT_FALSE(stream.empty());
    EXPECT_LT(stream.arrival(0), Cycles{1} << 32) << "bank " << b;
    EXPECT_GT(stream.arrival(stream.size() - 1), Cycles{1} << 33)
        << "bank " << b;
  }
}

TEST(GenerateStreamsTest, RejectsWhatGenerateTraceRejects) {
  const AddressMapper mapper(SmallGeometry());
  SyntheticWorkloadParams params;
  params.mean_gap_cycles = 0.5;
  Rng rng(1);
  EXPECT_THROW(GenerateStreams(params, mapper, 1000, rng), ConfigError);
  params = SyntheticWorkloadParams{};
  params.streams = 0;
  EXPECT_THROW(GenerateStreams(params, mapper, 1000, rng), ConfigError);
}

// ---------------------------------------------------------------------------
// Trace I/O
// ---------------------------------------------------------------------------

std::vector<TraceRecord> SampleRecords() {
  return {{0, 0x10, false}, {100, 0xABCDEF, true}, {250, 7, false}};
}

TEST(TraceIo, TextRoundTrip) {
  std::stringstream ss;
  WriteText(ss, SampleRecords());
  const auto back = ReadText(ss);
  ASSERT_EQ(back.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back[i].cycle, SampleRecords()[i].cycle);
    EXPECT_EQ(back[i].address, SampleRecords()[i].address);
    EXPECT_EQ(back[i].is_write, SampleRecords()[i].is_write);
  }
}

TEST(TraceIo, BinaryRoundTrip) {
  std::stringstream ss;
  WriteBinary(ss, SampleRecords());
  const auto back = ReadBinary(ss);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[1].address, 0xABCDEFu);
  EXPECT_TRUE(back[1].is_write);
}

TEST(TraceIo, TextSkipsCommentsAndBlanks) {
  std::stringstream ss("# header\n\n10 R 0x20\n   \n20 W 0x30 # inline\n");
  const auto records = ReadText(ss);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].address, 0x20u);
  EXPECT_TRUE(records[1].is_write);
}

TEST(TraceIo, TextRejectsMalformed) {
  std::stringstream bad_op("10 X 0x20\n");
  EXPECT_THROW(ReadText(bad_op), ParseError);
  std::stringstream bad_addr("10 R zzz\n");
  EXPECT_THROW(ReadText(bad_addr), ParseError);
  std::stringstream missing("10\n");
  EXPECT_THROW(ReadText(missing), ParseError);
  // strtoull-style leniency: trailing garbage and a wrapped minus.
  for (const char* line : {"10 R 0x10zz\n", "10 R 12abc\n", "10 R -5\n",
                           "-3 R 0x20\n", "12abc R 0x20\n",
                           "10 R 0x10000000000000000\n"}) {
    std::stringstream bad(line);
    EXPECT_THROW(ReadText(bad), ParseError) << line;
  }
  std::stringstream prefixes("10 R 0x10\n11 W 017\n12 R 42\n");
  const auto records = ReadText(prefixes);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].address, 16u);
  EXPECT_EQ(records[1].address, 15u);  // C octal prefix
  EXPECT_EQ(records[2].address, 42u);
}

TEST(TraceIo, TruncatedFinalLineIsDiagnosedNotDropped) {
  // An interrupted writer leaves a final line without a newline; if it no
  // longer parses, the reader must say "truncated", not "malformed".
  std::stringstream torn("10 R 0x20\n20 W");
  try {
    ReadText(torn);
    FAIL() << "expected ParseError for the torn tail";
  } catch (const ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("truncated final line"),
              std::string::npos)
        << error.what();
  }
  // A *complete* final record without a trailing newline is still fine.
  std::stringstream no_newline("10 R 0x20\n20 W 0x30");
  EXPECT_EQ(ReadText(no_newline).size(), 2u);

  std::stringstream ram_torn("0x100 R\n0x200");
  EXPECT_THROW(ReadRamulatorTrace(ram_torn, 4), ParseError);
}

TEST(TraceIo, BinaryRejectsBadMagic) {
  std::stringstream ss("NOTATRACE........");
  EXPECT_THROW(ReadBinary(ss), ParseError);
}

TEST(TraceIo, BinaryRejectsTruncated) {
  std::stringstream ss;
  WriteBinary(ss, SampleRecords());
  std::string data = ss.str();
  data.resize(data.size() - 4);
  std::stringstream truncated(data);
  EXPECT_THROW(ReadBinary(truncated), ParseError);
}

TEST(TraceIo, RamulatorImportStampsCycles) {
  std::stringstream ss("0x100 R\n0x200 W\n0x300 READ\n");
  const auto records = ReadRamulatorTrace(ss, 4);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].cycle, 0u);
  EXPECT_EQ(records[1].cycle, 4u);
  EXPECT_EQ(records[2].cycle, 8u);
  EXPECT_EQ(records[1].address, 0x200u);
  EXPECT_TRUE(records[1].is_write);
  EXPECT_FALSE(records[2].is_write);
}

TEST(TraceIo, RamulatorImportRejectsMalformed) {
  std::stringstream bad_op("0x100 X\n");
  EXPECT_THROW(ReadRamulatorTrace(bad_op, 4), ParseError);
  std::stringstream bad_addr("zzz R\n");
  EXPECT_THROW(ReadRamulatorTrace(bad_addr, 4), ParseError);
  for (const char* line : {"0x10zz R\n", "12abc R\n", "-5 R\n"}) {
    std::stringstream bad(line);
    EXPECT_THROW(ReadRamulatorTrace(bad, 4), ParseError) << line;
  }
  std::stringstream ok("0x1 R\n");
  EXPECT_THROW(ReadRamulatorTrace(ok, 0), ParseError);
}

TEST(TraceIo, RamulatorImportSkipsComments) {
  std::stringstream ss("# ramulator trace\n\n0x10 W\n");
  const auto records = ReadRamulatorTrace(ss, 2);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].is_write);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = "/tmp/vrl_trace_test.txt";
  WriteTextFile(path, SampleRecords());
  const auto back = ReadTextFile(path);
  EXPECT_EQ(back.size(), 3u);
  EXPECT_THROW(ReadTextFile("/nonexistent/dir/file.txt"), ParseError);
}

// ---------------------------------------------------------------------------
// Synthetic generator
// ---------------------------------------------------------------------------

TEST(Synthetic, GeneratesSortedTraceWithinDuration) {
  Rng rng(1);
  SyntheticWorkloadParams params;
  params.mean_gap_cycles = 50.0;
  const auto records = GenerateTrace(params, SmallGeometry(), 100000, rng);
  EXPECT_GT(records.size(), 1000u);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_GE(records[i].cycle, records[i - 1].cycle);
  }
  EXPECT_LT(records.back().cycle, 100000u);
}

TEST(Synthetic, IsDeterministicPerSeed) {
  Rng rng_a(9);
  Rng rng_b(9);
  SyntheticWorkloadParams params;
  const auto a = GenerateTrace(params, SmallGeometry(), 50000, rng_a);
  const auto b = GenerateTrace(params, SmallGeometry(), 50000, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].address, b[i].address);
    EXPECT_EQ(a[i].cycle, b[i].cycle);
  }
}

TEST(Synthetic, RespectsFootprint) {
  Rng rng(2);
  SyntheticWorkloadParams params;
  params.footprint_fraction = 0.25;
  params.sequential_prob = 0.0;
  const auto geometry = SmallGeometry();
  const auto records = GenerateTrace(params, geometry, 200000, rng);
  const auto limit = static_cast<std::uint64_t>(
      0.25 * static_cast<double>(geometry.TotalLines()));
  for (const auto& r : records) {
    EXPECT_LT(r.address, limit);
  }
}

TEST(Synthetic, WriteFractionApproximatelyRespected) {
  Rng rng(3);
  SyntheticWorkloadParams params;
  params.write_fraction = 0.4;
  params.mean_gap_cycles = 10.0;
  const auto records = GenerateTrace(params, SmallGeometry(), 400000, rng);
  const auto stats = ComputeStats(records, SmallGeometry());
  EXPECT_NEAR(stats.WriteFraction(), 0.4, 0.02);
}

TEST(Synthetic, IntensityMatchesMeanGap) {
  Rng rng(4);
  SyntheticWorkloadParams params;
  params.mean_gap_cycles = 100.0;
  const auto records = GenerateTrace(params, SmallGeometry(), 1000000, rng);
  EXPECT_NEAR(static_cast<double>(records.size()), 10000.0, 500.0);
}

TEST(Synthetic, PhasesWidenRowCoverage) {
  // A small footprint that migrates eventually touches much more of the
  // address space than a static one.
  Rng rng_a(8);
  Rng rng_b(8);
  SyntheticWorkloadParams stationary;
  stationary.footprint_fraction = 0.1;
  stationary.mean_gap_cycles = 20.0;
  SyntheticWorkloadParams phased = stationary;
  phased.phase_cycles = 50000;

  const auto geometry = SmallGeometry();
  const auto a = GenerateTrace(stationary, geometry, 800000, rng_a);
  const auto b = GenerateTrace(phased, geometry, 800000, rng_b);
  EXPECT_GT(ComputeStats(b, geometry).RowCoverage(),
            2.0 * ComputeStats(a, geometry).RowCoverage());
}

TEST(Synthetic, PhasedAddressesStayInBounds) {
  Rng rng(9);
  SyntheticWorkloadParams params;
  params.footprint_fraction = 0.9;
  params.phase_cycles = 10000;
  const auto geometry = SmallGeometry();
  const auto records = GenerateTrace(params, geometry, 300000, rng);
  for (const auto& r : records) {
    EXPECT_LT(r.address, geometry.TotalLines());
  }
}

TEST(Synthetic, RejectsBadParams) {
  Rng rng(5);
  SyntheticWorkloadParams params;
  params.footprint_fraction = 0.0;
  EXPECT_THROW(GenerateTrace(params, SmallGeometry(), 1000, rng), ConfigError);
  params = SyntheticWorkloadParams{};
  params.mean_gap_cycles = 0.5;
  EXPECT_THROW(GenerateTrace(params, SmallGeometry(), 1000, rng), ConfigError);
  params = SyntheticWorkloadParams{};
  params.sequential_prob = 1.5;
  EXPECT_THROW(GenerateTrace(params, SmallGeometry(), 1000, rng), ConfigError);
}

TEST(Synthetic, SuiteHasFourteenWorkloads) {
  const auto suite = EvaluationSuite();
  EXPECT_EQ(suite.size(), 14u);
  for (const auto& w : suite) {
    EXPECT_NO_THROW(w.Validate());
  }
}

TEST(Synthetic, SuiteLookupByName) {
  const auto bgsave = SuiteWorkload("bgsave");
  EXPECT_DOUBLE_EQ(bgsave.footprint_fraction, 1.0);
  EXPECT_THROW(SuiteWorkload("no-such-workload"), ConfigError);
}

TEST(Synthetic, BgsaveCoversMoreRowsThanSwaptions) {
  // The workload axis that matters for VRL-Access.
  Rng rng(6);
  const auto geometry = SmallGeometry();
  const auto bgsave =
      GenerateTrace(SuiteWorkload("bgsave"), geometry, 500000, rng);
  const auto swaptions =
      GenerateTrace(SuiteWorkload("swaptions"), geometry, 500000, rng);
  const auto cover_bg = ComputeStats(bgsave, geometry).RowCoverage();
  const auto cover_sw = ComputeStats(swaptions, geometry).RowCoverage();
  EXPECT_GT(cover_bg, 2.0 * cover_sw);
}

// ---------------------------------------------------------------------------
// TraceStats
// ---------------------------------------------------------------------------

TEST(Stats, EmptyTrace) {
  const auto stats = ComputeStats({}, SmallGeometry());
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_DOUBLE_EQ(stats.WriteFraction(), 0.0);
  EXPECT_DOUBLE_EQ(stats.RowCoverage(), 0.0);
}

TEST(Stats, CountsUniqueRows) {
  const AddressMapper mapper(SmallGeometry());
  std::vector<TraceRecord> records;
  // Two distinct rows in bank 0, one accessed twice.
  records.push_back({0, mapper.Encode({0, 3, 0}), false});
  records.push_back({5, mapper.Encode({0, 3, 1}), false});
  records.push_back({9, mapper.Encode({0, 4, 0}), true});
  const auto stats = ComputeStats(records, SmallGeometry());
  EXPECT_EQ(stats.unique_rows, 2u);
  EXPECT_EQ(stats.span_cycles, 9u);
  EXPECT_EQ(stats.writes, 1u);
}

}  // namespace
}  // namespace vrl::trace
