// Performance-ledger benchmark: runs one paper pipeline ("workload") per
// process, prints every ledger metric by name with its unit, and checks the
// simulated outputs.
//
//   vrl_bench --workload NAME [--seed N] [--threads N] [--seconds S]
//             [--trace FILE] [--expect HEX,HEX,...]
//   vrl_bench --list
//
// A pass -- the workload's set-up, then a closed batch of legs:
// simulations, campaign legs or circuit geometries -- repeats until the next
// pass would end more than S seconds after the process started (at least
// one pass).  setup_s and run_s are the median set-up and batch times: on a
// shared host, bursts of contention lasting seconds move a median of many
// short passes far less than one long measurement.  Each pass is also scaled
// by a reference kernel timed just before and after it (see Reference).
//
// A leg fails when it throws, when its result digest (FNV-1a over the raw
// result fields) differs from the pin passed with --expect, or when it
// breaks an invariant that holds for every seed (zero audit violations,
// every request served, ...).  Every pass must reproduce the first pass's
// digests.  vrl_bench exits 1 when a leg, a pass or a paper-claim check
// fails and 2 on a usage error.
//
// --trace FILE traces every second pass: it records spans from this file
// around every call into a library layer, keeps them in per-task buffers,
// and writes them at exit as Chrome trace_event JSON.  The per-layer
// metrics are computed from those spans, and the tracing overhead from the
// traced and untraced passes.  README.md describes the workloads, the
// metrics and how to bless the pins.

#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "circuit/dram_circuits.hpp"
#include "circuit/transient.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/experiments.hpp"
#include "core/vrl_system.hpp"
#include "dram/auditor.hpp"
#include "dram/controller.hpp"
#include "dram/policy_registry.hpp"
#include "model/refresh_model.hpp"
#include "model/single_cell.hpp"
#include "power/power_model.hpp"
#include "retention/distribution.hpp"
#include "retention/profile.hpp"
#include "retention/vrt.hpp"
#include "telemetry/recorder.hpp"
#include "trace/address.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace vrl;
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// ---------------------------------------------------------------------------
// Policy names
// ---------------------------------------------------------------------------

/// The one place a dram::PolicyRegistry name becomes a core::PolicyKind:
/// the core APIs the ledger drives still take the legacy enum.
core::PolicyKind PolicyKindOf(const std::string& registry_name) {
  return core::PolicyFromName(registry_name);
}

/// Metric-name form of a registry name ("VRL-Access" -> "vrl-access").
std::string MetricToken(std::string name) {
  for (char& c : name) {
    if (c >= 'A' && c <= 'Z') {
      c = static_cast<char>(c - 'A' + 'a');
    }
  }
  return name;
}

const char* const kFig4Policies[] = {"RAIDR", "VRL", "VRL-Access"};

// ---------------------------------------------------------------------------
// Metric catalogue
// ---------------------------------------------------------------------------

struct MetricDef {
  std::string name;
  const char* unit;
};

/// Printed by every run.  wall_s, setup_s and run_s are in reference-speed
/// seconds; the host_ variants are as measured.
const MetricDef kCommonMetrics[] = {
    {"wall_s", "s"},         {"setup_s", "s"},
    {"run_s", "s"},          {"host_wall_s", "s"},
    {"host_setup_s", "s"},   {"host_run_s", "s"},
    {"reference_ms", "ms"},  {"peak_rss_mb", "MB"},
    {"passes", "count"},     {"failed_share", "ratio"},
};

/// Paper-accuracy metrics: each is printed by the one workload that
/// computes it.
const MetricDef kAccuracyMetrics[] = {
    {"vrl_err_pp", "pp"},
    {"vrl_access_err_pp", "pp"},
    {"refresh_power_err_pp", "pp"},
    {"darp_latency_vs_jedec", "ratio"},
    {"adaptive_overhead_vs_jedec", "ratio"},
    {"unrecovered_failures", "count"},
    {"model_vs_spice_max_err_pct", "%"},
};

/// Every per-layer metric, printed by every traced run so one workload's
/// table lines up with another's.  Layer and operation time is a share of
/// the traced thread time (`.share` of the batch, `.setup_share` of the
/// set-up): a share reads the same on a fast or a slow host, and a layer a
/// workload never calls reads 0 without posing as a measured time.  The two
/// thread-time totals turn any share back into seconds.  A layer's speed
/// is its work per second of its own thread time (`_per_s`).  Counts and
/// thread times are per traced pass.
const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> out = {
        {"bench.trace_overhead", "ratio"},
        {"trace.records_per_s", "1/s"},
        {"dram.requests_per_s", "1/s"},
        {"dram.audit_commands_per_s", "1/s"},
        {"fault.refresh_ops_per_s", "1/s"},
        {"circuit.steps_per_s", "1/s"},
        {"core.share", "ratio"},
        {"trace.share", "ratio"},
        {"trace.generate.share", "ratio"},
        {"trace.map.share", "ratio"},
        {"dram.share", "ratio"},
        {"dram.policy_factory.share", "ratio"},
        {"dram.controller_build.share", "ratio"},
        {"dram.flat_run.share", "ratio"},
        {"dram.hier_run.share", "ratio"},
        {"dram.command_log.share", "ratio"},
        {"dram.audit.share", "ratio"},
        {"power.share", "ratio"},
        {"fault.share", "ratio"},
        {"fault.leg.jedec.share", "ratio"},
        {"fault.leg.plain.share", "ratio"},
        {"fault.leg.adaptive.share", "ratio"},
        {"circuit.share", "ratio"},
        {"model.share", "ratio"},
        {"model.analytical.share", "ratio"},
        {"model.single_cell.share", "ratio"},
        {"telemetry.share", "ratio"},
        {"parallel.idle_share", "ratio"},
        {"parallel.longest_task_share", "ratio"},
        {"retention.setup_share", "ratio"},
        {"core.setup_share", "ratio"},
        {"circuit.setup_share", "ratio"},
        {"bench.layer_coverage", "ratio"},
        {"bench.batch_thread_s", "s"},
        {"bench.setup_thread_s", "s"},
        {"trace.records", "count"},
        {"dram.requests", "count"},
        {"dram.refresh_ops", "count"},
        {"dram.row_hit_ratio", "ratio"},
        {"dram.hier.stalls", "count"},
        {"dram.hier.stall_cycles", "cycles"},
        {"dram.refresh.grant_ratio", "ratio"},
        {"dram.audit_commands", "count"},
        {"dram.audit_violations", "count"},
        {"fault.refresh_ops", "count"},
        {"fault.detected_failures", "count"},
        {"circuit.steps", "count"},
    };
    for (const char* policy : kFig4Policies) {
      out.push_back({"dram.flat_run." + MetricToken(policy) + ".share",
                     "ratio"});
    }
    for (const dram::PolicyInfo& info :
         dram::PolicyRegistry::Global().entries()) {
      out.push_back({"dram.hier_run." + MetricToken(info.name) + ".share",
                     "ratio"});
    }
    return out;
  }();
  return defs;
}

// ---------------------------------------------------------------------------
// Result digests
// ---------------------------------------------------------------------------

/// FNV-1a over raw field bytes: any change to any simulated number changes
/// the digest.
class Digest {
 public:
  template <typename T>
    requires std::is_arithmetic_v<T>
  void Add(T value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    }
  }
  void Add(const std::string& text) {
    Add(text.size());
    for (const char c : text) {
      Add(c);
    }
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string DigestOf(const core::WorkloadResult& r) {
  Digest d;
  d.Add(r.workload);
  for (const double v :
       {r.raidr_overhead, r.vrl_overhead, r.vrl_access_overhead,
        r.raidr_refresh_power_mw, r.vrl_refresh_power_mw,
        r.vrl_access_refresh_power_mw}) {
    d.Add(v);
  }
  return d.Hex();
}

void AddStats(Digest& d, const dram::SimulationStats& stats) {
  d.Add(stats.simulated_cycles);
  d.Add(stats.per_bank.size());
  for (const dram::BankStats& b : stats.per_bank) {
    for (const std::size_t v :
         {b.reads, b.writes, b.row_hits, b.row_misses, b.activations,
          b.full_refreshes, b.partial_refreshes}) {
      d.Add(v);
    }
    for (const Cycles v : {b.refresh_busy_cycles, b.access_busy_cycles,
                           b.total_request_latency, b.last_completion}) {
      d.Add(v);
    }
    for (const std::uint64_t v : b.latency_hist) {
      d.Add(v);
    }
  }
}

std::string DigestOf(const fault::CampaignReport& r) {
  Digest d;
  for (const std::size_t v : {r.refreshes, r.partial_refreshes,
                              r.detected_failures, r.corrected_failures,
                              r.unrecovered_failures}) {
    d.Add(v);
  }
  d.Add(r.min_margin);
  d.Add(r.refresh_busy_cycles);
  d.Add(r.simulated_cycles);
  d.Add(r.events.size());
  for (const fault::SensingFailureEvent& e : r.events) {
    d.Add(e.row);
    d.Add(e.at_cycle);
    d.Add(e.at_s);
    d.Add(e.margin);
    d.Add(e.was_full);
    d.Add(e.corrected);
  }
  const fault::AdaptiveStats& a = r.adaptive;
  for (const std::size_t v :
       {a.failures_signalled, a.demotions, a.promotions,
        a.forced_full_refreshes, a.fallback_entries, a.fallback_exits,
        a.saturated_failures, a.rows_demoted_now}) {
    d.Add(v);
  }
  d.Add(a.in_fallback);
  return d.Hex();
}

// ---------------------------------------------------------------------------
// Span log
// ---------------------------------------------------------------------------

struct Span {
  std::string name;    ///< "<layer>.<operation>", e.g. "dram.flat_run".
  std::string detail;  ///< Optional qualifier, e.g. the policy token.
  std::size_t task = 0;
  std::ptrdiff_t parent = -1;  ///< Index in the merged log; -1 = root.
  double start_s = 0.0;
  double end_s = 0.0;
  double self_s = 0.0;  ///< Duration minus child coverage (after Merge).

  std::string Layer() const { return name.substr(0, name.find('.')); }
};

/// Spans from this file's own code, one buffer per task.  Task 0 is the
/// main thread; a fan-out of n items claims n fresh tasks, and item i only
/// ever writes its own buffer, so recording needs no lock.  A disabled log
/// records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), buffers_(1) {}

  bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(SpanLog* log, std::size_t task, std::string name,
          std::string detail)
        : log_(log->enabled_ ? log : nullptr), task_(task) {
      if (log_ == nullptr) {
        return;
      }
      Buffer& buffer = log_->buffers_[task_];
      Span span;
      span.name = std::move(name);
      span.detail = std::move(detail);
      span.task = task_;
      span.parent = buffer.open.empty()
                        ? -1
                        : static_cast<std::ptrdiff_t>(buffer.open.back());
      span.start_s = log_->Now();
      index_ = buffer.spans.size();
      buffer.open.push_back(index_);
      buffer.spans.push_back(std::move(span));
    }
    ~Scope() {
      if (log_ == nullptr) {
        return;
      }
      Buffer& buffer = log_->buffers_[task_];
      buffer.spans[index_].end_s = log_->Now();
      buffer.open.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t task_;
    std::size_t index_ = 0;
  };

  Scope Open(std::size_t task, std::string name, std::string detail = {}) {
    return Scope(this, task, std::move(name), std::move(detail));
  }

  /// Claims `items` tasks whose root spans hang under the main thread's
  /// innermost open span; returns the task of item 0.  Call on the main
  /// thread before the fan-out starts.
  std::size_t BeginFanout(std::size_t items) {
    const std::size_t first = buffers_.size();
    const std::ptrdiff_t parent =
        buffers_[0].open.empty()
            ? -1
            : static_cast<std::ptrdiff_t>(buffers_[0].open.back());
    buffers_.resize(first + items);
    for (std::size_t t = first; t < buffers_.size(); ++t) {
      buffers_[t].main_parent = parent;
    }
    return first;
  }

  /// Every span, buffers in task order, with global parent links and self
  /// times.
  std::vector<Span> Merge() const {
    std::vector<Span> out;
    for (const Buffer& buffer : buffers_) {
      const auto offset = static_cast<std::ptrdiff_t>(out.size());
      for (Span span : buffer.spans) {
        span.parent = span.parent >= 0 ? offset + span.parent
                                       : buffer.main_parent;
        out.push_back(std::move(span));
      }
    }
    std::vector<std::vector<std::pair<double, double>>> children(out.size());
    for (const Span& span : out) {
      if (span.parent >= 0) {
        children[static_cast<std::size_t>(span.parent)].emplace_back(
            span.start_s, span.end_s);
      }
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      double covered = 0.0;
      double reach = out[i].start_s;
      for (const auto& [start, end] : kids) {
        const double from = std::max(start, reach);
        const double to = std::min(end, out[i].end_s);
        if (to > from) {
          covered += to - from;
          reach = to;
        }
      }
      out[i].self_s = (out[i].end_s - out[i].start_s) - covered;
    }
    return out;
  }

 private:
  struct Buffer {
    std::vector<Span> spans;  ///< parent = index in this buffer, or -1.
    std::vector<std::size_t> open;
    std::ptrdiff_t main_parent = -1;  ///< Root spans' parent in buffer 0.
  };

  double Now() const { return SecondsBetween(origin_, Clock::now()); }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Buffer> buffers_;
};

void WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw ConfigError("vrl_bench: cannot open trace file '" + path + "'");
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name =
        s.detail.empty() ? s.name : s.name + "." + s.detail;
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%td,\"self_us\":%.3f}}",
                  i == 0 ? "" : ",", name.c_str(), s.Layer().c_str(), s.task,
                  s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, i, s.parent,
                  s.self_s * 1e6);
    out << buf;
  }
  out << "\n]}\n";
  if (!out) {
    throw ConfigError("vrl_bench: failed writing trace file '" + path + "'");
  }
}

// ---------------------------------------------------------------------------
// Run context and the pass loop
// ---------------------------------------------------------------------------

/// Layer work counts the traced run gathers (one slot per fan-out item,
/// summed afterwards, so parallel tasks never share a slot).
struct LayerCounts {
  double trace_records = 0;
  double requests = 0;
  double refresh_ops = 0;
  double row_hits = 0;
  double row_accesses = 0;
  double stalls = 0;
  double stall_cycles = 0;
  double proposals = 0;
  double granted = 0;
  double audit_commands = 0;
  double audit_violations = 0;
  double fault_refresh_ops = 0;
  double fault_detected = 0;
  double circuit_steps = 0;

  void Add(const LayerCounts& o) {
    trace_records += o.trace_records;
    requests += o.requests;
    refresh_ops += o.refresh_ops;
    row_hits += o.row_hits;
    row_accesses += o.row_accesses;
    stalls += o.stalls;
    stall_cycles += o.stall_cycles;
    proposals += o.proposals;
    granted += o.granted;
    audit_commands += o.audit_commands;
    audit_violations += o.audit_violations;
    fault_refresh_ops += o.fault_refresh_ops;
    fault_detected += o.fault_detected;
    circuit_steps += o.circuit_steps;
  }

  void AddRun(const dram::SimulationStats& stats) {
    requests += static_cast<double>(stats.TotalReads() + stats.TotalWrites());
    refresh_ops += static_cast<double>(stats.TotalFullRefreshes() +
                                       stats.TotalPartialRefreshes());
    row_hits += static_cast<double>(stats.TotalRowHits());
    row_accesses +=
        static_cast<double>(stats.TotalRowHits() + stats.TotalRowMisses());
  }
};

struct Leg {
  std::string label;
  std::string digest;
  std::string error;  ///< Empty when the leg passed.
};

/// The checked result of one pass.
struct Outcome {
  std::vector<Leg> legs;
  std::vector<std::string> claim_failures;
  std::map<std::string, double> accuracy;  ///< kAccuracyMetrics values.

  void AddLeg(std::string label, std::string digest, std::string error) {
    legs.push_back({std::move(label), std::move(digest), std::move(error)});
  }
  void Claim(bool holds, const std::string& what) {
    if (!holds) {
      claim_failures.push_back(what);
    }
  }
};

// ---------------------------------------------------------------------------
// Host-speed references
// ---------------------------------------------------------------------------
//
// The shared host this ledger was built on (a 4-vCPU Intel Xeon VM) slows
// by up to half for seconds to minutes at a time, and not every kind of code
// slows alike: in one slow phase the circuit solver took 1.55x as long while
// the integer loop below took 1.2x.  So each workload names the reference
// kernel whose time tracked its own best (README.md has the measurement),
// and every pass is scaled by that kernel's time just around it.  Neither
// kernel shares code with the library, so no library change moves them.

volatile std::uint64_t integer_reference_sink = 1;
volatile double float_reference_sink = 1.0;

/// Integer ALU work: a xorshift and an LCG stream with dependent mixing.
double MeasureIntegerReference() {
  const auto t0 = Clock::now();
  std::uint64_t a = integer_reference_sink;
  std::uint64_t b = 2;
  std::uint64_t c = 3;
  std::uint64_t d = 4;
  for (int i = 0; i < 6'000'000; ++i) {
    a ^= a << 13;
    a ^= a >> 7;
    a ^= a << 17;
    b = b * 6364136223846793005ULL + 1442695040888963407ULL;
    c += (c >> 3) ^ b;
    d ^= (d << 5) + a;
  }
  integer_reference_sink = (a + b + c + d) | 1;
  return SecondsBetween(t0, Clock::now());
}

/// Floating-point work shaped like a transient solver's: Gaussian
/// elimination and back substitution on a diagonally dominant banded system
/// (640 rows, half bandwidth 5, a 56 KB working set), 600 times.
double MeasureFloatReference() {
  constexpr std::size_t n = 640;
  constexpr std::size_t h = 5;
  constexpr std::size_t w = 2 * h + 1;
  // Row r's entry in column c (|c - r| <= h).
  const auto at = [](std::size_t r, std::size_t c) { return r * w + c + h - r; };
  std::vector<double> band(n * w);
  std::vector<double> rhs(n);
  const double seed = float_reference_sink;
  const auto t0 = Clock::now();
  double sum = 0.0;
  for (std::size_t it = 0; it < 600; ++it) {
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < w; ++c) {
        band[r * w + c] = (c == h ? 4.0 : -0.5) +
                          1e-6 * static_cast<double>(r + it) * seed;
      }
      rhs[r] = 1.0 + static_cast<double>(r) * 1e-3;
    }
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t last = std::min(n - 1, k + h);
      for (std::size_t r = k + 1; r <= last; ++r) {
        const double f = band[at(r, k)] / band[at(k, k)];
        for (std::size_t c = k + 1; c <= last; ++c) {
          band[at(r, c)] -= f * band[at(k, c)];
        }
        rhs[r] -= f * rhs[k];
      }
    }
    for (std::size_t i = n; i-- > 0;) {
      double x = rhs[i];
      for (std::size_t c = i + 1; c <= std::min(n - 1, i + h); ++c) {
        x -= band[at(i, c)] * rhs[c];
      }
      rhs[i] = x / band[at(i, i)];
    }
    sum += rhs[7];
  }
  const double elapsed = SecondsBetween(t0, Clock::now());
  float_reference_sink = 1.0 + sum * 1e-300;
  return elapsed;
}

struct Reference {
  const char* name;
  double (*measure)();
  /// About the kernel's time on the ledger's host when idle, so that
  /// reference-speed seconds read like host seconds there.
  double nominal_s;
};

constexpr Reference kIntegerReference{"integer", MeasureIntegerReference,
                                      0.013};
constexpr Reference kFloatReference{"float", MeasureFloatReference, 0.015};

/// The peak resident set of this process since the last ResetPeakRss: the
/// kernel's VmHWM.  getrusage's ru_maxrss cannot be reset.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw ConfigError("vrl_bench: no VmHWM in /proc/self/status");
}

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!(clear << "5" << std::flush)) {
    throw ConfigError("vrl_bench: cannot reset VmHWM (/proc/self/clear_refs)");
  }
}

/// Medians over the untraced passes of a run.  The unprefixed times are in
/// reference-speed seconds: each pass's host seconds x the reference's
/// nominal time / its mean time just before and just after the pass.
struct Timings {
  double wall_s = 0.0;  ///< Set-up round + batch.
  double setup_s = 0.0;
  double run_s = 0.0;
  double host_wall_s = 0.0;
  double host_setup_s = 0.0;
  double host_run_s = 0.0;
  double reference_s = 0.0;  ///< Median over every reference timing.
  double peak_rss_mb = 0.0;
};

struct Context {
  std::uint64_t seed = 42;
  std::size_t threads = 1;
  const Reference* reference = &kIntegerReference;
  Clock::time_point deadline = Clock::now();
  SpanLog spans{false};
  Timings timings;
  double trace_overhead = 0.0;  ///< Traced / untraced median wall.
  std::size_t passes = 0;
  std::size_t traced_passes = 0;
  Outcome first;  ///< The first pass; later passes must match its digests.
  std::size_t later_failures = 0;  ///< Legs of later passes that differ.
  LayerCounts counts;              ///< This pass's.
  LayerCounts traced_counts;       ///< Summed over the traced passes.
  std::size_t fanout_threads = 0;  ///< Threads of the traced fan-outs.

  bool traced() const { return spans.enabled(); }
};

/// While alive, the context's span log is a disabled one: the code it
/// covers records nothing and takes the untraced library path.
class Untraced {
 public:
  explicit Untraced(Context& ctx) : ctx_(ctx) { std::swap(ctx_.spans, quiet_); }
  ~Untraced() { std::swap(ctx_.spans, quiet_); }
  Untraced(const Untraced&) = delete;
  Untraced& operator=(const Untraced&) = delete;

 private:
  Context& ctx_;
  SpanLog quiet_{false};
};

/// One set-up round: `setup` repeats until the round has lasted 10 ms (at
/// least once), each result destroyed before the next so memory does not
/// pile up, and the last is returned.  The mean repetition time goes to
/// `times`, so a set-up of a few hundred microseconds is timed as steadily
/// as one of half a second.  Only the first repetition is traced.
template <typename Fn>
auto SetupRound(Context& ctx, Fn&& setup, std::vector<double>& times) {
  std::optional<decltype(setup())> result;
  double busy = 0.0;
  std::size_t reps = 0;
  const auto start = Clock::now();
  do {
    result.reset();
    std::optional<Untraced> quiet;
    if (reps++ > 0) {
      quiet.emplace(ctx);
    }
    const auto t0 = Clock::now();
    {
      const auto span = ctx.spans.Open(0, "bench.setup");
      result.emplace(setup());
    }
    busy += SecondsBetween(t0, Clock::now());
  } while (SecondsBetween(start, Clock::now()) < 0.01);
  times.push_back(busy / static_cast<double>(reps));
  return std::move(*result);
}

/// Repeats one pass -- a set-up round and `run` on its result (both timed),
/// then `check` (untimed, results -> Outcome) -- until the next pass would
/// end past the deadline.  Setting up afresh in every pass makes setup_s,
/// like run_s, a median over the whole run rather than a snapshot of the
/// host's speed at start-up; peak_rss_mb is likewise the median peak of a
/// pass, which does not grow with the number of passes the host's speed
/// allowed.  A run that throws ends the loop as a failed leg; a set-up that
/// throws ends the process.
///
/// A traced process traces every second pass, from the second on, and runs
/// at least one of each.  The untraced passes give the timings; interleaved
/// with them, the traced ones give the tracing overhead with the host's
/// drift cancelled, and must reproduce the first, untraced, pass.
template <typename Setup, typename Run, typename Check>
void RunPasses(Context& ctx, Setup&& setup, Run&& run, Check&& check) {
  struct Pass {
    double setup_s;  ///< Host seconds.
    double run_s;
    double speed;  ///< Reference nominal / measured around the pass.
    double peak_rss_mb;
  };
  const bool tracing = ctx.traced();
  std::vector<double> setups;
  std::vector<Pass> plain;
  std::vector<double> traced_walls;  ///< In reference-speed seconds.
  std::vector<double> references{ctx.reference->measure()};
  bool threw = false;
  while (!threw) {
    const bool traced = tracing && setups.size() % 2 == 1;
    Outcome outcome;
    ctx.counts = {};
    ResetPeakRss();
    const auto t0 = Clock::now();
    double run_s = 0.0;
    {
      std::optional<Untraced> quiet;
      if (!traced) {
        quiet.emplace(ctx);
      }
      const auto state = SetupRound(ctx, setup, setups);
      const auto t1 = Clock::now();
      try {
        auto results = [&] {
          const auto span = ctx.spans.Open(0, "bench.pass");
          return run(state);
        }();
        run_s = SecondsBetween(t1, Clock::now());
        outcome = check(results);
      } catch (const std::exception& error) {
        run_s = SecondsBetween(t1, Clock::now());
        outcome.AddLeg("pass", "", std::string("threw: ") + error.what());
        threw = true;
      }
    }
    const double peak_rss_mb = PeakRssMb();
    // Freed heap goes back to the kernel, so the next pass's peak is its
    // own and not the allocator arenas' leftovers.
    malloc_trim(0);
    references.push_back(ctx.reference->measure());
    const double speed =
        ctx.reference->nominal_s /
        ((references.end()[-2] + references.end()[-1]) / 2.0);
    if (traced) {
      traced_walls.push_back((setups.back() + run_s) * speed);
      ctx.traced_counts.Add(ctx.counts);
    } else {
      plain.push_back({setups.back(), run_s, speed, peak_rss_mb});
    }
    if (setups.size() == 1) {
      ctx.first = std::move(outcome);
    } else {
      // A later pass must reproduce the first, leg for leg.
      for (std::size_t i = 0; i < ctx.first.legs.size(); ++i) {
        if (i >= outcome.legs.size() || !outcome.legs[i].error.empty() ||
            outcome.legs[i].digest != ctx.first.legs[i].digest) {
          ++ctx.later_failures;
        }
      }
    }
    const auto last = Clock::now() - t0;
    const bool both_kinds = !tracing || setups.size() >= 2;
    if (ctx.later_failures != 0 ||
        (both_kinds && Clock::now() + last > ctx.deadline)) {
      break;
    }
  }
  const auto median = [&](double (*of)(const Pass&), std::size_t from = 0) {
    std::vector<double> values;
    for (std::size_t i = from; i < plain.size(); ++i) {
      values.push_back(of(plain[i]));
    }
    return Median(values);
  };
  const auto wall = [](const Pass& p) { return (p.setup_s + p.run_s) * p.speed; };
  Timings& t = ctx.timings;
  t.wall_s = median(wall);
  t.setup_s = median([](const Pass& p) { return p.setup_s * p.speed; });
  t.run_s = median([](const Pass& p) { return p.run_s * p.speed; });
  t.host_wall_s = median([](const Pass& p) { return p.setup_s + p.run_s; });
  t.host_setup_s = median([](const Pass& p) { return p.setup_s; });
  t.host_run_s = median([](const Pass& p) { return p.run_s; });
  t.peak_rss_mb = median([](const Pass& p) { return p.peak_rss_mb; });
  t.reference_s = Median(references);
  ctx.passes = setups.size();
  ctx.traced_passes = traced_walls.size();
  if (!traced_walls.empty()) {
    // Against the warm untraced passes where there are any: the first pass
    // also pays for first-touch page faults and the allocator's growth.
    ctx.trace_overhead =
        Median(traced_walls) / median(wall, plain.size() > 1 ? 1 : 0);
  }
}

/// Retention profiling then the system's planning (binning, MPRSF): the
/// set-up every DRAM and fault workload shares.  Equivalent to
/// core::VrlSystem(config), split so each half is timed on its own.
core::VrlSystem BuildSystem(Context& ctx, const core::VrlConfig& config) {
  retention::RetentionProfile profile = [&] {
    const auto span = ctx.spans.Open(0, "retention.profile");
    Rng rng(config.seed);
    const retention::RetentionDistribution dist(config.retention);
    return retention::RetentionProfile::Generate(dist, config.tech.rows,
                                                 config.tech.columns, rng);
  }();
  const auto span = ctx.spans.Open(0, "core.system_build");
  return core::VrlSystem(config, std::move(profile));
}

/// Trace generation and mapping, with the same RNG derivation as
/// core::RunWorkload so traced and untraced passes replay identical requests.
std::vector<dram::Request> MakeRequests(
    Context& ctx, std::size_t task, const core::VrlSystem& system,
    const trace::SyntheticWorkloadParams& workload, Cycles horizon,
    LayerCounts& counts) {
  std::vector<trace::TraceRecord> records;
  {
    const auto span = ctx.spans.Open(task, "trace.generate", workload.name);
    Rng rng(system.config().seed ^ 0xABCD'1234ULL);
    records = trace::GenerateTrace(workload, system.Geometry(), horizon, rng);
  }
  counts.trace_records += static_cast<double>(records.size());
  const auto span = ctx.spans.Open(task, "trace.map", workload.name);
  const trace::AddressMapper mapper(system.Geometry());
  return trace::MapToRequests(records, mapper);
}

/// One controller run split at the layer boundaries of VrlSystem::Simulate
/// (policy factory, controller build, Run, command-log copy), which it
/// reproduces exactly.
dram::SimulationStats TracedSimulate(Context& ctx, std::size_t task,
                                     const core::VrlSystem& system,
                                     const std::string& policy,
                                     const std::vector<dram::Request>& requests,
                                     Cycles horizon,
                                     telemetry::Recorder* recorder,
                                     dram::CommandLog* audit,
                                     LayerCounts& counts) {
  const core::VrlConfig& config = system.config();
  dram::PolicyFactory factory;
  {
    const auto span = ctx.spans.Open(task, "dram.policy_factory");
    factory = system.MakePolicyFactory(PolicyKindOf(policy));
  }
  std::optional<dram::MemoryController> controller;
  {
    const auto span = ctx.spans.Open(task, "dram.controller_build");
    controller.emplace(config.TimingTableFor(), config.tech.rows, factory,
                       config.scheduler, config.page_policy,
                       config.subarrays);
    if (recorder != nullptr) {
      controller->AttachTelemetry(recorder);
    }
    if (audit != nullptr) {
      controller->EnableAudit();
    }
  }
  dram::SimulationStats stats;
  {
    const auto span =
        ctx.spans.Open(task, controller->hierarchical() ? "dram.hier_run"
                                                        : "dram.flat_run",
                       MetricToken(policy));
    stats = controller->Run(requests, horizon);
  }
  if (audit != nullptr) {
    const auto span = ctx.spans.Open(task, "dram.command_log");
    for (const dram::Command& cmd : controller->audit_log()->commands()) {
      audit->Append(cmd);
    }
  }
  if (const dram::ConstraintEngine* engine = controller->constraint_engine()) {
    const dram::ConstraintStats& s = engine->stats();
    counts.stalls += static_cast<double>(s.TotalStalls());
    counts.stall_cycles += static_cast<double>(
        s.trrd_stall_cycles + s.tfaw_stall_cycles + s.tccd_stall_cycles +
        s.trtrs_stall_cycles + s.bus_stall_cycles);
  }
  counts.AddRun(stats);
  return stats;
}

// ---------------------------------------------------------------------------
// fig4_suite: the Fig. 4 grid as core::RunEvaluationSuite runs it.
// ---------------------------------------------------------------------------

constexpr std::size_t kFig4Windows = 4;

/// core::RunWorkload (telemetry off) split at its layer boundaries.
core::WorkloadResult TracedWorkload(Context& ctx, std::size_t task,
                                    const core::VrlSystem& system,
                                    const trace::SyntheticWorkloadParams& w,
                                    const core::ExperimentOptions& options,
                                    LayerCounts& counts) {
  const auto span = ctx.spans.Open(task, "core.workload", w.name);
  const Cycles horizon = system.HorizonForWindows(options.windows);
  const auto requests = MakeRequests(ctx, task, system, w, horizon, counts);
  const power::PowerModel power_model(options.energy,
                                      system.config().tech.clock_period_s);
  core::WorkloadResult result;
  result.workload = w.name;
  double* const overheads[] = {&result.raidr_overhead, &result.vrl_overhead,
                               &result.vrl_access_overhead};
  double* const powers[] = {&result.raidr_refresh_power_mw,
                            &result.vrl_refresh_power_mw,
                            &result.vrl_access_refresh_power_mw};
  for (std::size_t p = 0; p < std::size(kFig4Policies); ++p) {
    const auto stats = TracedSimulate(ctx, task, system, kFig4Policies[p],
                                      requests, horizon, nullptr, nullptr,
                                      counts);
    *overheads[p] = stats.RefreshOverheadPerBank();
    const auto power_span = ctx.spans.Open(task, "power.compute");
    *powers[p] = power_model.Compute(stats).refresh_power_mw;
  }
  return result;
}

void RunFig4Suite(Context& ctx) {
  core::VrlConfig config;
  config.seed = ctx.seed;
  const auto setup = [&] { return BuildSystem(ctx, config); };
  core::ExperimentOptions options;
  options.windows = kFig4Windows;
  options.threads = ctx.threads;

  const auto run = [&](const core::VrlSystem& system) {
    if (!ctx.traced()) {
      return core::RunEvaluationSuite(system, options);
    }
    const auto suite = trace::EvaluationSuite();
    std::vector<core::WorkloadResult> results(suite.size());
    std::vector<LayerCounts> counts(suite.size());
    {
      const auto fanout = ctx.spans.Open(0, "parallel.fanout");
      const std::size_t first = ctx.spans.BeginFanout(suite.size());
      ParallelFor(
          "evaluation_suite", suite.size(),
          [&](std::size_t i) {
            results[i] = TracedWorkload(ctx, first + i, system, suite[i],
                                        options, counts[i]);
          },
          ctx.threads);
    }
    for (const LayerCounts& c : counts) {
      ctx.counts.Add(c);
    }
    ctx.fanout_threads = ctx.threads;
    return results;
  };
  const auto check = [](const std::vector<core::WorkloadResult>& results) {
    Outcome out;
    for (const core::WorkloadResult& r : results) {
      // RAIDR >= VRL >= VRL-Access in overhead, VRL <= RAIDR in power.
      const bool ordered = r.raidr_overhead > 0.0 &&
                           r.vrl_access_overhead > 0.0 &&
                           r.vrl_access_overhead <= r.vrl_overhead &&
                           r.vrl_overhead <= r.raidr_overhead &&
                           r.vrl_refresh_power_mw <= r.raidr_refresh_power_mw;
      out.AddLeg(r.workload, DigestOf(r),
                 ordered ? "" : "overhead ordering RAIDR >= VRL >= "
                                "VRL-Access broken");
    }
    const core::SuiteAverages avg = core::Average(results);
    const double vrl = std::abs((avg.vrl - 1.0) * 100.0 - (-23.0));
    const double vrl_access =
        std::abs((avg.vrl_access - 1.0) * 100.0 - (-34.0));
    const double power = std::abs((avg.vrl_power - 1.0) * 100.0 - (-12.0));
    out.accuracy["vrl_err_pp"] = vrl;
    out.accuracy["vrl_access_err_pp"] = vrl_access;
    out.accuracy["refresh_power_err_pp"] = power;
    // Bands a few points wide around the paper's claims (EXPERIMENTS.md).
    out.Claim(vrl <= 5.0, "VRL vs RAIDR more than 5 pp from the paper's -23%");
    out.Claim(vrl_access <= 10.0,
              "VRL-Access vs RAIDR more than 10 pp from the paper's -34%");
    out.Claim(power <= 5.0,
              "VRL refresh power more than 5 pp from the paper's -12%");
    return out;
  };
  RunPasses(ctx, setup, run, check);
}

// ---------------------------------------------------------------------------
// tournament_ddr4: every registry policy on the DDR4_2400 hierarchy, audited.
// ---------------------------------------------------------------------------

constexpr std::size_t kTournamentWorkloads = 2;
constexpr std::size_t kTournamentWindows = 1;
constexpr std::size_t kTournamentSubarrays = 4;

std::uint64_t CounterOf(const telemetry::MetricsSnapshot& snap,
                        const std::string& name) {
  const auto it = snap.metrics.find(name);
  return it == snap.metrics.end() ? 0 : it->second.count;
}

/// One audited (policy, trace) simulation, reduced to what the checks need.
struct TournamentLeg {
  std::string policy;
  std::string label;
  std::string digest;
  std::string error;
  double latency_sum = 0.0;  ///< Average latency x requests served.
  double served = 0.0;
};

void RunTournament(Context& ctx) {
  core::VrlConfig config;
  config.ApplyPreset(dram::TimingPreset::kDdr4_2400);
  config.subarrays = kTournamentSubarrays;
  config.seed = ctx.seed;
  const auto setup = [&] { return BuildSystem(ctx, config); };

  const auto run = [&](const core::VrlSystem& system) {
    const dram::TimingAuditor auditor(config.TimingTableFor());
    const power::PowerModel power_model({}, config.tech.clock_period_s);
    const Cycles horizon = system.HorizonForWindows(kTournamentWindows);
    auto workloads = trace::EvaluationSuite();
    workloads.resize(kTournamentWorkloads);
    std::vector<std::vector<dram::Request>> requests;
    for (const auto& w : workloads) {
      requests.push_back(MakeRequests(ctx, 0, system, w, horizon, ctx.counts));
    }
    std::vector<TournamentLeg> legs;
    for (const dram::PolicyInfo& info :
         dram::PolicyRegistry::Global().entries()) {
      const core::PolicyKind kind = PolicyKindOf(info.name);
      for (std::size_t t = 0; t < workloads.size(); ++t) {
        TournamentLeg& leg = legs.emplace_back();
        leg.policy = info.name;
        leg.label = info.name + "/" + workloads[t].name;
        try {
          telemetry::Recorder recorder;
          dram::CommandLog log;
          const dram::SimulationStats stats =
              ctx.traced() ? TracedSimulate(ctx, 0, system, info.name,
                                            requests[t], horizon, &recorder,
                                            &log, ctx.counts)
                           : system.Simulate(kind, requests[t], horizon,
                                             &recorder, &log);
          dram::AuditReport audit;
          {
            const auto span = ctx.spans.Open(0, "dram.audit");
            audit = auditor.Audit(log);
          }
          telemetry::MetricsSnapshot snap;
          {
            const auto span = ctx.spans.Open(0, "telemetry.snapshot");
            snap = recorder.Snapshot();
          }
          {
            const auto span = ctx.spans.Open(0, "power.compute");
            (void)power_model.Compute(stats);
          }
          ctx.counts.audit_commands +=
              static_cast<double>(audit.commands_checked);
          ctx.counts.audit_violations +=
              static_cast<double>(audit.violations.size());
          ctx.counts.proposals +=
              static_cast<double>(CounterOf(snap, "dram.refresh.proposals"));
          ctx.counts.granted +=
              static_cast<double>(CounterOf(snap, "dram.refresh.granted"));

          const std::size_t served = stats.TotalReads() + stats.TotalWrites();
          leg.served = static_cast<double>(served);
          leg.latency_sum = stats.AverageRequestLatency() * leg.served;
          Digest d;
          AddStats(d, stats);
          d.Add(audit.commands_checked);
          d.Add(audit.violations.size());
          leg.digest = d.Hex();
          if (!audit.clean()) {
            leg.error = std::to_string(audit.violations.size()) +
                        " timing violations, first " +
                        audit.violations.front().rule;
          } else if (served != requests[t].size()) {
            leg.error = "served " + std::to_string(served) + " of " +
                        std::to_string(requests[t].size()) + " requests";
          }
        } catch (const std::exception& error) {
          leg.error = std::string("threw: ") + error.what();
        }
      }
    }
    return legs;
  };
  const auto check = [](const std::vector<TournamentLeg>& legs) {
    Outcome out;
    std::map<std::string, std::pair<double, double>> latency;
    for (const TournamentLeg& leg : legs) {
      out.AddLeg(leg.label, leg.digest, leg.error);
      latency[leg.policy].first += leg.latency_sum;
      latency[leg.policy].second += leg.served;
    }
    const auto avg = [&](const std::string& name) {
      const auto& [sum, served] = latency[name];
      return served == 0.0 ? 0.0 : sum / served;
    };
    const double jedec = avg("JEDEC");
    out.accuracy["darp_latency_vs_jedec"] =
        jedec == 0.0 ? 0.0 : avg("DARP") / jedec;
    // The tournament's latency gate (bench/refresh_tournament
    // --gate-latency).
    out.Claim(jedec > 0.0 && avg("DARP") < jedec,
              "DARP does not beat JEDEC demand latency");
    out.Claim(jedec > 0.0 && avg("SARP") < jedec,
              "SARP does not beat JEDEC demand latency");
    return out;
  };
  RunPasses(ctx, setup, run, check);
}

// ---------------------------------------------------------------------------
// fault_vrt: the JEDEC / plain / adaptive resilience comparison under VRT.
// ---------------------------------------------------------------------------

constexpr std::size_t kFaultWindows = 4;
const char* const kFaultLegs[] = {"jedec", "plain", "adaptive"};

void RunFaultVrt(Context& ctx) {
  core::VrlConfig config;
  config.banks = 1;  // a campaign replays one bank's schedule
  config.seed = ctx.seed;
  const auto setup = [&] { return BuildSystem(ctx, config); };
  const core::PolicyKind kind = PolicyKindOf("VRL");
  const retention::VrtParams vrt;
  core::ExperimentOptions options;
  options.windows = kFaultWindows;
  options.threads = ctx.threads;
  options.fault_seed = ctx.seed;

  const auto run = [&](const core::VrlSystem& system) {
    telemetry::Recorder recorder;
    core::ExperimentOptions with_recorder = options;
    with_recorder.telemetry = &recorder;
    if (!ctx.traced()) {
      return core::RunResilienceComparison(system, kind, vrt, with_recorder);
    }
    // core::RunResilienceComparison split into its legs and shard merge.
    core::ResilienceResult result;
    const std::vector<core::ResilienceLeg> legs = core::ResilienceLegs(kind);
    fault::CampaignReport* const outs[] = {&result.jedec, &result.plain,
                                           &result.adaptive};
    telemetry::ShardedRecorder shards(legs.size(), recorder.options());
    {
      const auto fanout = ctx.spans.Open(0, "parallel.fanout");
      const std::size_t first = ctx.spans.BeginFanout(legs.size());
      ParallelFor(
          "resilience_comparison", legs.size(),
          [&](std::size_t i) {
            const auto span =
                ctx.spans.Open(first + i, "fault.leg", kFaultLegs[i]);
            *outs[i] = core::RunResilienceLeg(system, legs[i], vrt,
                                              with_recorder, &shards.shard(i));
          },
          ctx.threads);
    }
    {
      const auto span = ctx.spans.Open(0, "telemetry.merge");
      shards.MergeInto(recorder);
    }
    for (const fault::CampaignReport* r : outs) {
      ctx.counts.fault_refresh_ops += static_cast<double>(r->refreshes);
      ctx.counts.fault_detected += static_cast<double>(r->detected_failures);
    }
    ctx.fanout_threads = ctx.threads;
    return result;
  };
  const auto check = [](const core::ResilienceResult& result) {
    Outcome out;
    const fault::CampaignReport* const reports[] = {
        &result.jedec, &result.plain, &result.adaptive};
    for (std::size_t i = 0; i < std::size(reports); ++i) {
      const fault::CampaignReport& r = *reports[i];
      std::string error;
      if (r.refreshes == 0 || r.simulated_cycles == 0) {
        error = "campaign simulated nothing";
      } else if (i == 2 && r.unrecovered_failures != 0) {
        error = std::to_string(r.unrecovered_failures) +
                " unrecovered failures under the adaptive policy";
      }
      out.AddLeg(kFaultLegs[i], DigestOf(r), error);
    }
    out.accuracy["adaptive_overhead_vs_jedec"] =
        result.AdaptiveOverheadVsJedec();
    out.accuracy["unrecovered_failures"] =
        static_cast<double>(result.adaptive.unrecovered_failures);
    out.Claim(result.AdaptiveOverheadVsJedec() < 1.0,
              "adaptive VRL lost its refresh saving over JEDEC");
    return out;
  };
  RunPasses(ctx, setup, run, check);
}

// ---------------------------------------------------------------------------
// table1_circuit: the Table 1 grid (circuit, single-cell, analytical model).
// ---------------------------------------------------------------------------

constexpr std::size_t kTable1Geometries[6][2] = {
    {2048, 32},  {2048, 128},  {8192, 32},
    {8192, 128}, {16384, 32}, {16384, 128}};
/// The paper's SPICE column (cycles).
constexpr double kPaperSpiceCycles[6] = {7, 8, 9, 11, 14, 16};

/// One Table 1 geometry with its charge-sharing netlist built.
struct Table1Case {
  TechnologyParams tech;
  circuit::ChargeSharingArray array;
  circuit::TransientOptions options;
  double t_wl = 0.1e-9;
};

struct Table1Row {
  std::string geometry;  ///< TechnologyParams::GeometryLabel().
  std::size_t rows = 0;
  std::size_t columns = 0;
  Cycles circuit = 0;
  Cycles single = 0;
  Cycles ours = 0;
};

/// bench/table1_accuracy's circuit reference: the first sample after the
/// wordline at which the tracked cell has equilibrated with its bitline to
/// the analytical model's settle tolerance.
Cycles CircuitSettleCycles(const Table1Case& c, const circuit::Waveform& wave) {
  const std::size_t mid = c.tech.columns / 2;
  const double initial_gap = std::abs(c.tech.vdd - c.tech.Veq());
  const double tolerance = (1.0 - 0.95) * 0.05 * initial_gap;
  const auto& times = wave.times();
  const auto& cell = wave.Samples(c.array.cell_nodes[mid]);
  const auto& bitline = wave.Samples(c.array.bitline_nodes[mid]);
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (times[i] >= c.t_wl && std::abs(cell[i] - bitline[i]) <= tolerance) {
      return std::max<Cycles>(
          1, SecondsToCyclesCeil(times[i] - c.t_wl, c.tech.clock_period_s));
    }
  }
  throw NumericalError("table1: circuit never settled");
}

void RunTable1(Context& ctx) {
  const auto setup = [&] {
    std::vector<Table1Case> built;
    for (const auto& g : kTable1Geometries) {
      const auto span = ctx.spans.Open(0, "circuit.build");
      Table1Case c;
      c.tech = TechnologyParams{}.WithGeometry(g[0], g[1]);
      const double wl_rise =
          c.tech.wl_delay_per_column_s * static_cast<double>(c.tech.columns);
      c.array = circuit::BuildChargeSharingArray(
          c.tech, DataPattern::kAllOnes, 1.0, c.t_wl, wl_rise);
      c.options.t_stop_s = c.t_wl + wl_rise + 60e-9;
      c.options.dt_s = 20e-12;
      c.options.store_every = 1;
      built.push_back(std::move(c));
    }
    return built;
  };

  const auto run = [&](const std::vector<Table1Case>& cases) {
    std::vector<Table1Row> rows;
    for (const Table1Case& c : cases) {
      Table1Row& row = rows.emplace_back();
      row.geometry = c.tech.GeometryLabel();
      row.rows = c.tech.rows;
      row.columns = c.tech.columns;
      std::optional<circuit::Waveform> wave;
      {
        const auto span = ctx.spans.Open(0, "circuit.transient");
        const std::size_t mid = c.tech.columns / 2;
        wave = circuit::RunTransient(
            c.array.netlist, c.options,
            {c.array.cell_nodes[mid], c.array.bitline_nodes[mid]});
      }
      ctx.counts.circuit_steps += static_cast<double>(wave->sample_count());
      row.circuit = CircuitSettleCycles(c, *wave);
      {
        const auto span = ctx.spans.Open(0, "model.single_cell");
        row.single = model::SingleCellModel(c.tech).PreSensingCycles();
      }
      {
        const auto span = ctx.spans.Open(0, "model.analytical");
        const model::RefreshModel ours(c.tech);
        row.ours = ours.MinPreSensingCycles(
            0.95, ours.FullRefreshTimings().tau_post);
      }
    }
    return rows;
  };
  const auto check = [](const std::vector<Table1Row>& rows) {
    Outcome out;
    double max_err_pct = 0.0;
    for (std::size_t g = 0; g < rows.size(); ++g) {
      Digest d;
      d.Add(rows[g].rows);
      d.Add(rows[g].columns);
      d.Add(rows[g].circuit);
      d.Add(rows[g].single);
      d.Add(rows[g].ours);
      out.AddLeg(rows[g].geometry, d.Hex(), "");
      max_err_pct = std::max(
          max_err_pct, std::abs(static_cast<double>(rows[g].ours) -
                                kPaperSpiceCycles[g]) /
                           kPaperSpiceCycles[g] * 100.0);
    }
    out.accuracy["model_vs_spice_max_err_pct"] = max_err_pct;
    // The analytical model grows with bank size, as the paper's SPICE does.
    bool grows = true;
    for (std::size_t g = 2; g < rows.size(); ++g) {
      grows = grows && rows[g].ours >= rows[g - 2].ours;
    }
    out.Claim(grows, "analytical pre-sensing time shrinks with more rows");
    return out;
  };
  RunPasses(ctx, setup, run, check);
}

// ---------------------------------------------------------------------------
// Workload table and reporting
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  std::size_t threads;  ///< Default; > 1 only where the library fans out.
  void (*run)(Context&);
  const Reference* reference;
  const char* summary;
};

constexpr Workload kWorkloads[] = {
    {"fig4_suite", 2, RunFig4Suite, &kIntegerReference,
     "Fig. 4 grid: 14 traces x RAIDR/VRL/VRL-Access x 4 windows, flat 8-bank "
     "controller, telemetry off"},
    {"tournament_ddr4", 1, RunTournament, &kFloatReference,
     "7 registry policies x 2 traces x 1 window on DDR4_2400 (32 banks, 4 "
     "subarrays), command-logged and audited"},
    {"fault_vrt", 2, RunFaultVrt, &kIntegerReference,
     "JEDEC/plain/adaptive VRL campaign legs under VRT noise, 1 bank, 4 "
     "windows"},
    {"table1_circuit", 1, RunTable1, &kFloatReference,
     "Table 1 grid: 6 geometries x (transient circuit, single-cell, "
     "analytical model)"},
};

void PrintMetric(const std::string& name, double value, const char* unit) {
  std::printf("metric %s %.12g %s\n", name.c_str(), value, unit);
}

/// a / b, or 0 where b is 0: a layer or a count the workload never reaches.
double Per(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Per-layer metrics from the merged span log (see LayerMetrics).
std::map<std::string, double> LayerValues(const Context& ctx,
                                          const std::vector<Span>& spans) {
  // Self time by layer, by operation and by qualified operation, apart for
  // the spans under a bench.setup root and those under a bench.pass root.
  std::map<std::string, double> batch;
  std::map<std::string, double> setup;
  double batch_thread_s = 0.0;
  double setup_thread_s = 0.0;
  double busy = 0.0;
  double fanout_wall = 0.0;
  double longest_task_share = 0.0;
  std::vector<bool> in_setup(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double duration = s.end_s - s.start_s;
    if (s.parent < 0) {  // bench.setup and bench.pass roots
      in_setup[i] = s.name == "bench.setup";
      (in_setup[i] ? setup_thread_s : batch_thread_s) += duration;
      continue;
    }
    // Merge puts every parent before its children.
    const Span& parent = spans[static_cast<std::size_t>(s.parent)];
    in_setup[i] = in_setup[static_cast<std::size_t>(s.parent)];
    if (s.name == "parallel.fanout") {
      // Its self time (no task running) is inside the idle time below.
      fanout_wall += duration;
      continue;
    }
    if (s.task != 0 && parent.task == 0) {  // a fan-out task's root
      busy += duration;
      longest_task_share = std::max(
          longest_task_share, duration / (parent.end_s - parent.start_s));
    }
    const std::string layer = s.Layer();
    std::map<std::string, double>& into = in_setup[i] ? setup : batch;
    into[layer] += s.self_s;
    into[s.name] += s.self_s;
    if (!s.detail.empty() && layer != "trace" && layer != "core") {
      into[s.name + "." + s.detail] += s.self_s;
    }
  }
  // A fan-out offers each of its threads its whole wall time; what the
  // tasks leave of it is idle.
  const auto threads = static_cast<double>(ctx.fanout_threads);
  const double idle = threads * fanout_wall - busy;
  batch_thread_s += (threads - 1.0) * fanout_wall;

  std::map<std::string, double> v;
  double attributed = idle;  // 0 without a fan-out
  for (const auto& [key, self_s] : batch) {
    v[key + ".share"] = Per(self_s, batch_thread_s);
    if (key.find('.') == std::string::npos) {
      attributed += self_s;
    }
  }
  for (const auto& [key, self_s] : setup) {
    v[key + ".setup_share"] = Per(self_s, setup_thread_s);
  }
  v["parallel.idle_share"] = Per(idle, batch_thread_s);
  v["parallel.longest_task_share"] = longest_task_share;
  // The share of the batch's thread time that a library layer, or waiting
  // on one, accounts for; the rest is this program's own code.
  v["bench.layer_coverage"] = Per(attributed, batch_thread_s);
  v["bench.trace_overhead"] = ctx.trace_overhead;

  const auto passes = static_cast<double>(ctx.traced_passes);
  v["bench.batch_thread_s"] = Per(batch_thread_s, passes);
  v["bench.setup_thread_s"] = Per(setup_thread_s, passes);

  const LayerCounts& c = ctx.traced_counts;
  v["trace.records_per_s"] = Per(c.trace_records, batch["trace"]);
  v["dram.requests_per_s"] =
      Per(c.requests, batch["dram.flat_run"] + batch["dram.hier_run"]);
  v["dram.audit_commands_per_s"] = Per(c.audit_commands, batch["dram.audit"]);
  v["fault.refresh_ops_per_s"] = Per(c.fault_refresh_ops, batch["fault"]);
  v["circuit.steps_per_s"] =
      Per(c.circuit_steps, batch["circuit.transient"]);
  v["dram.row_hit_ratio"] = Per(c.row_hits, c.row_accesses);
  v["dram.refresh.grant_ratio"] = Per(c.granted, c.proposals);
  v["trace.records"] = Per(c.trace_records, passes);
  v["dram.requests"] = Per(c.requests, passes);
  v["dram.refresh_ops"] = Per(c.refresh_ops, passes);
  v["dram.hier.stalls"] = Per(c.stalls, passes);
  v["dram.hier.stall_cycles"] = Per(c.stall_cycles, passes);
  v["dram.audit_commands"] = Per(c.audit_commands, passes);
  v["dram.audit_violations"] = Per(c.audit_violations, passes);
  v["fault.refresh_ops"] = Per(c.fault_refresh_ops, passes);
  v["fault.detected_failures"] = Per(c.fault_detected, passes);
  v["circuit.steps"] = Per(c.circuit_steps, passes);
  return v;
}

int Report(const Workload& workload, Context& ctx,
           const std::vector<std::string>& expect,
           const std::string& trace_path) {
  std::vector<Leg>& legs = ctx.first.legs;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    Leg& leg = legs[i];
    if (leg.error.empty() && !expect.empty()) {
      if (i >= expect.size()) {
        leg.error = "no pin for this leg";
      } else if (leg.digest != expect[i]) {
        leg.error = "digest " + leg.digest + " != pinned " + expect[i];
      }
    }
    if (!leg.error.empty()) {
      ++failed;
    }
    std::printf("leg %zu %s %s %s\n", i, leg.label.c_str(),
                leg.digest.empty() ? "-" : leg.digest.c_str(),
                leg.error.empty() ? "ok" : ("FAIL " + leg.error).c_str());
  }
  const bool pins_fit = expect.empty() || expect.size() == legs.size();
  if (!pins_fit) {
    std::printf("check FAIL %zu pins for %zu legs\n", expect.size(),
                legs.size());
  }
  if (ctx.later_failures != 0) {
    std::printf("check FAIL %zu legs of later passes differ from pass 1\n",
                ctx.later_failures);
  }
  for (const std::string& claim : ctx.first.claim_failures) {
    std::printf("claim FAIL %s\n", claim.c_str());
  }

  // Pass 1 is checked against the pins and invariants, every later pass
  // against pass 1.
  const std::size_t attempted = legs.size() * ctx.passes;
  failed += ctx.later_failures;
  std::printf("workload %s seed %llu threads %zu\n", workload.name,
              static_cast<unsigned long long>(ctx.seed), ctx.threads);
  std::printf("legs attempted=%zu failed=%zu pins=%s\n", attempted, failed,
              expect.empty() ? "unchecked" : "checked");
  const Timings& t = ctx.timings;
  PrintMetric("wall_s", t.wall_s, "s");
  PrintMetric("setup_s", t.setup_s, "s");
  PrintMetric("run_s", t.run_s, "s");
  PrintMetric("host_wall_s", t.host_wall_s, "s");
  PrintMetric("host_setup_s", t.host_setup_s, "s");
  PrintMetric("host_run_s", t.host_run_s, "s");
  PrintMetric("reference_ms", t.reference_s * 1e3, "ms");
  PrintMetric("peak_rss_mb", t.peak_rss_mb, "MB");
  PrintMetric("passes", static_cast<double>(ctx.passes), "count");
  // Without pins a digest change goes unseen, so no failure share is
  // claimed.
  if (expect.empty()) {
    std::printf("metric failed_share unchecked ratio\n");
  } else {
    PrintMetric("failed_share",
                static_cast<double>(failed) /
                    static_cast<double>(std::max<std::size_t>(1, attempted)),
                "ratio");
  }
  for (const MetricDef& m : kAccuracyMetrics) {
    if (const auto it = ctx.first.accuracy.find(m.name);
        it != ctx.first.accuracy.end()) {
      PrintMetric(m.name, it->second, m.unit);
    }
  }
  if (ctx.traced()) {
    const std::vector<Span> spans = ctx.spans.Merge();
    const auto layers = LayerValues(ctx, spans);
    for (const MetricDef& m : LayerMetrics()) {
      const auto it = layers.find(m.name);
      PrintMetric(m.name, it == layers.end() ? 0.0 : it->second, m.unit);
    }
    WriteChromeTrace(trace_path, spans);
  }
  const bool ok = failed == 0 && pins_fit && ctx.first.claim_failures.empty();
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::uint64_t ParseUnsigned(const std::string& flag, const std::string& text) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    throw UsageError(flag + " needs a non-negative integer, got '" + text +
                     "'");
  }
  return value;
}

std::vector<std::string> ParsePins(const std::string& text) {
  std::vector<std::string> pins;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = text.find(',', start);
    std::string pin = text.substr(start, comma - start);
    if (pin.size() != 16 ||
        pin.find_first_not_of("0123456789abcdef") != std::string::npos) {
      throw UsageError("--expect needs comma-separated 16-digit lowercase "
                       "hex digests, got '" + pin + "'");
    }
    pins.push_back(std::move(pin));
    if (comma == std::string::npos) {
      return pins;
    }
    start = comma + 1;
  }
}

void PrintList() {
  std::printf("workloads:\n");
  for (const Workload& w : kWorkloads) {
    std::printf("  %-16s threads=%zu reference=%-7s  %s\n", w.name,
                w.threads, w.reference->name, w.summary);
  }
  std::printf("end-to-end metrics (every run):\n");
  for (const MetricDef& m : kCommonMetrics) {
    std::printf("  %s %s\n", m.name.c_str(), m.unit);
  }
  std::printf("accuracy metrics (the workload that computes them):\n");
  for (const MetricDef& m : kAccuracyMetrics) {
    std::printf("  %s %s\n", m.name.c_str(), m.unit);
  }
  std::printf("per-layer metrics (--trace runs):\n");
  for (const MetricDef& m : LayerMetrics()) {
    std::printf("  %s %s\n", m.name.c_str(), m.unit);
  }
}

int Main(int argc, char** argv) {
  const auto start = Clock::now();
  std::map<std::string, std::string> flags;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      list = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--threads" &&
        flag != "--seconds" && flag != "--trace" && flag != "--expect") {
      throw UsageError("unknown argument '" + flag + "'");
    }
    if (i + 1 >= argc) {
      throw UsageError(flag + " needs a value");
    }
    if (!flags.emplace(flag, argv[++i]).second) {
      throw UsageError(flag + " given twice");
    }
  }
  if (list) {
    if (!flags.empty()) {
      throw UsageError("--list takes no other flags");
    }
    PrintList();
    return 0;
  }
  if (!flags.contains("--workload")) {
    throw UsageError("--workload is required (see --list)");
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (flags["--workload"] == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    throw UsageError("unknown workload '" + flags["--workload"] +
                     "' (see --list)");
  }

  Context ctx;
  if (flags.contains("--seed")) {
    ctx.seed = ParseUnsigned("--seed", flags["--seed"]);
  }
  ctx.threads = workload->threads;
  ctx.reference = workload->reference;
  if (flags.contains("--threads")) {
    const std::uint64_t threads =
        ParseUnsigned("--threads", flags["--threads"]);
    const unsigned hardware = std::thread::hardware_concurrency();
    if (threads == 0 || (hardware != 0 && threads > hardware)) {
      throw UsageError("--threads must be in [1, " + std::to_string(hardware) +
                       "], got " + std::to_string(threads));
    }
    if (workload->threads == 1 && threads != 1) {
      throw UsageError(std::string(workload->name) +
                       " is serial; --threads must be 1");
    }
    ctx.threads = static_cast<std::size_t>(threads);
  }
  if (flags.contains("--seconds")) {
    const std::uint64_t seconds =
        ParseUnsigned("--seconds", flags["--seconds"]);
    if (seconds > 3600) {
      throw UsageError("--seconds must be at most 3600");
    }
    ctx.deadline = start + std::chrono::seconds(seconds);
  }
  std::vector<std::string> expect;
  if (flags.contains("--expect")) {
    expect = ParsePins(flags["--expect"]);
  }
  std::string trace_path;
  if (flags.contains("--trace")) {
    trace_path = flags["--trace"];
    if (trace_path.empty()) {
      throw UsageError("--trace needs a file name");
    }
  }
  ctx.spans = SpanLog(!trace_path.empty());

  workload->run(ctx);
  return Report(*workload, ctx, expect, trace_path);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const UsageError& error) {
    std::fprintf(stderr, "vrl_bench: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "vrl_bench: error: %s\n", error.what());
    return 1;
  }
}
