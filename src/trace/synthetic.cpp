#include "trace/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace vrl::trace {

void SyntheticWorkloadParams::Validate() const {
  if (mean_gap_cycles < 1.0) {
    throw ConfigError("SyntheticWorkloadParams: mean gap must be >= 1 cycle");
  }
  if (footprint_fraction <= 0.0 || footprint_fraction > 1.0) {
    throw ConfigError("SyntheticWorkloadParams: footprint in (0, 1]");
  }
  if (sequential_prob < 0.0 || sequential_prob > 1.0 ||
      write_fraction < 0.0 || write_fraction > 1.0) {
    throw ConfigError("SyntheticWorkloadParams: probabilities in [0, 1]");
  }
  if (streams == 0) {
    throw ConfigError("SyntheticWorkloadParams: need at least one stream");
  }
}

namespace {

/// The draw every generator shares: validates, forks the workload's own
/// stream off `rng`, reserves the expected record count plus 10% in
/// `sink`, then push_backs each record in cycle order.  `Sink` is a
/// std::vector<TraceRecord> or anything with its reserve and push_back.
template <typename Sink>
void DrawTrace(const SyntheticWorkloadParams& params,
               const AddressGeometry& geometry, Cycles duration, Rng& rng,
               Sink& sink) {
  params.Validate();
  geometry.Validate();
  Rng stream = rng.Fork(params.seed_salt ^ 0x5eedF00dULL);

  const std::uint64_t total_lines = geometry.TotalLines();
  const auto footprint_lines = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             params.footprint_fraction * static_cast<double>(total_lines)));

  sink.reserve(static_cast<std::size_t>(
      static_cast<double>(duration) / params.mean_gap_cycles * 1.1));

  double t = 0.0;
  std::vector<std::uint64_t> lines(params.streams);
  for (auto& line : lines) {
    line = stream.UniformInt(footprint_lines);
  }
  while (true) {
    t += stream.Exponential(1.0 / params.mean_gap_cycles);
    const auto cycle = static_cast<Cycles>(t);
    if (cycle >= duration) {
      break;
    }
    // Phase behaviour: the footprint window slides by half its size each
    // phase, wrapping over the full address space.
    std::uint64_t phase_offset = 0;
    if (params.phase_cycles > 0) {
      const std::uint64_t phase = cycle / params.phase_cycles;
      phase_offset = phase * (footprint_lines / 2) % total_lines;
    }
    std::uint64_t& line =
        lines[params.streams == 1 ? 0 : stream.UniformInt(params.streams)];
    if (stream.Bernoulli(params.sequential_prob)) {
      line = (line + 1) % footprint_lines;
    } else {
      line = stream.UniformInt(footprint_lines);
    }
    TraceRecord rec;
    rec.cycle = cycle;
    rec.address = (line + phase_offset) % total_lines;
    rec.is_write = stream.Bernoulli(params.write_fraction);
    sink.push_back(rec);
  }
}

/// A DrawTrace sink that decodes each record into its bank's stream.
class StreamSink {
 public:
  explicit StreamSink(const AddressMapper& mapper)
      : mapper_(mapper),
        builder_(mapper.geometry().banks, mapper.geometry().rows) {}

  /// Consecutive lines interleave across the banks (bank bits fastest), so
  /// each stream expects an even share.  A large reservation stays
  /// untouched address space until written, so its slack is not resident.
  void reserve(std::size_t records) {
    const std::size_t banks = mapper_.geometry().banks;
    for (std::size_t b = 0; b < banks; ++b) {
      builder_.Reserve(b, records / banks + 1);
    }
  }

  void push_back(const TraceRecord& rec) {
    const AddressMapper::Coordinates c = mapper_.Decode(rec.address);
    builder_.Append(c.bank, rec.cycle, c.row, rec.is_write);
  }

  dram::RequestStreams Take() {
    return dram::RequestStreams(std::move(builder_));
  }

 private:
  const AddressMapper& mapper_;
  dram::RequestStreamBuilder builder_;
};

}  // namespace

std::vector<TraceRecord> GenerateTrace(const SyntheticWorkloadParams& params,
                                       const AddressGeometry& geometry,
                                       Cycles duration, Rng& rng) {
  std::vector<TraceRecord> records;
  DrawTrace(params, geometry, duration, rng, records);
  return records;
}

dram::RequestStreams GenerateStreams(const SyntheticWorkloadParams& params,
                                     const AddressMapper& mapper,
                                     Cycles duration, Rng& rng) {
  StreamSink sink(mapper);
  DrawTrace(params, mapper.geometry(), duration, rng, sink);
  return sink.Take();
}

std::vector<SyntheticWorkloadParams> EvaluationSuite() {
  // Intensity/footprint/locality assignments follow the qualitative memory
  // behaviour of PARSEC-3.0 (Bienia et al., PACT 2008): streaming kernels
  // (streamcluster, vips, x264, dedup) sweep large regions sequentially;
  // canneal is a large random-access workload; blackscholes/swaptions are
  // compute-bound with tiny footprints.  `bgsave` models a server snapshot:
  // a full sequential sweep of memory with heavy writes.
  const auto make = [](const char* name, double gap, double fp, double seq,
                       double wr, std::uint64_t salt) {
    SyntheticWorkloadParams p;
    p.name = name;
    p.mean_gap_cycles = gap;
    p.footprint_fraction = fp;
    p.sequential_prob = seq;
    p.write_fraction = wr;
    p.seed_salt = salt;
    return p;
  };
  return {
      make("blackscholes", 800.0, 0.05, 0.60, 0.25, 1),
      make("bodytrack", 400.0, 0.15, 0.55, 0.30, 2),
      make("canneal", 150.0, 0.90, 0.15, 0.20, 3),
      make("dedup", 250.0, 0.60, 0.80, 0.55, 4),
      make("facesim", 300.0, 0.45, 0.65, 0.35, 5),
      make("ferret", 350.0, 0.35, 0.40, 0.30, 6),
      make("fluidanimate", 300.0, 0.30, 0.70, 0.40, 7),
      make("freqmine", 500.0, 0.20, 0.50, 0.25, 8),
      make("raytrace", 400.0, 0.55, 0.45, 0.10, 9),
      make("streamcluster", 120.0, 0.70, 0.90, 0.15, 10),
      make("swaptions", 1000.0, 0.03, 0.50, 0.30, 11),
      make("vips", 250.0, 0.50, 0.85, 0.45, 12),
      make("x264", 200.0, 0.40, 0.75, 0.50, 13),
      make("bgsave", 100.0, 1.00, 0.97, 0.50, 14),
  };
}

SyntheticWorkloadParams SuiteWorkload(const std::string& name) {
  for (const auto& w : EvaluationSuite()) {
    if (w.name == name) {
      return w;
    }
  }
  throw ConfigError("SuiteWorkload: unknown workload '" + name + "'");
}

}  // namespace vrl::trace
