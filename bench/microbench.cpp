// Google-benchmark microbenchmarks for the library's computational kernels:
// the tridiagonal coupling solve (Eq. 8), the transient circuit engine, the
// analytical refresh physics, MPRSF computation, refresh-policy scheduling
// and trace generation.  Useful for tracking performance regressions of the
// simulator itself (not a paper experiment).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/reporting.hpp"
#include "circuit/dram_circuits.hpp"
#include "circuit/transient.hpp"
#include "common/rng.hpp"
#include "common/technology.hpp"
#include "common/tridiagonal.hpp"
#include "core/vrl_system.hpp"
#include "dram/refresh_policy.hpp"
#include "dram/scheduler.hpp"
#include "model/refresh_model.hpp"
#include "retention/mprsf.hpp"
#include "retention/profile.hpp"
#include "telemetry/recorder.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace vrl;

void BM_TridiagonalCouplingSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> lself(n, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveCouplingSystem(0.09, 0.03, lself));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_TridiagonalCouplingSolve)->Arg(32)->Arg(128)->Arg(1024);

void BM_TransientRcStep(benchmark::State& state) {
  circuit::Netlist netlist;
  const auto top = netlist.Node("top");
  netlist.AddResistor(top, circuit::kGround, 1e3);
  netlist.AddCapacitor(top, circuit::kGround, 1e-12);
  netlist.SetInitialCondition(top, 1.0);
  circuit::TransientOptions options;
  options.t_stop_s = 1e-9;
  options.dt_s = 1e-12;
  options.store_every = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuit::RunTransient(netlist, options, {"top"}));
  }
  state.SetItemsProcessed(state.iterations() * 1000);  // steps per run
}
BENCHMARK(BM_TransientRcStep);

void BM_TransientChargeSharingArray(benchmark::State& state) {
  TechnologyParams tech;
  tech.columns = static_cast<std::size_t>(state.range(0));
  auto array = circuit::BuildChargeSharingArray(tech, DataPattern::kAllOnes);
  circuit::TransientOptions options;
  options.t_stop_s = 2e-9;
  options.dt_s = 20e-12;
  options.store_every = 100;
  const std::vector<std::string> probes{array.bitline_nodes[0]};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        circuit::RunTransient(array.netlist, options, probes));
  }
}
BENCHMARK(BM_TransientChargeSharingArray)->Arg(32)->Arg(128);

void BM_ApplyRefresh(benchmark::State& state) {
  const model::RefreshModel refresh_model(TechnologyParams{});
  const double tau = refresh_model.PartialRefreshTimings().tau_post_s;
  double fraction = 0.8;
  for (auto _ : state) {
    const auto out = refresh_model.ApplyRefresh(fraction, tau);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ApplyRefresh);

void BM_ComputeMprsf(benchmark::State& state) {
  const model::RefreshModel refresh_model(TechnologyParams{});
  const retention::MprsfCalculator calc(
      refresh_model, refresh_model.PartialRefreshTimings().tau_post_s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(calc.ComputeMprsf(1.5, 0.256, 3));
  }
}
BENCHMARK(BM_ComputeMprsf);

/// The refresh buffers a tick loop owns and reuses, as the controller,
/// the fault campaign and the integrity replay do.
struct GrantBuffers {
  std::vector<dram::RefreshProposal> proposals;
  std::vector<dram::RefreshOp> ops;
};

/// One tREFI tick of `policy` granted through dram::GrantRefreshes with no
/// bank context: the tick loop the fault campaign and integrity replays
/// run.  Returns the granted ops' buffer.
const dram::RefreshOp* GrantTick(dram::RefreshPolicy& policy, Cycles now,
                                 dram::RefreshGrantStats* stats,
                                 GrantBuffers& buffers) {
  dram::RefreshGrantContext ctx;
  ctx.now = now;
  ctx.demand.now = now;
  dram::GrantRefreshes(policy, ctx, stats, buffers.ops, buffers.proposals);
  return buffers.ops.data();
}

/// An 8192-row VRL bank, every row in one bin with MPRSF 2.
dram::VrlPolicy MakeMicrobenchVrlPolicy() {
  const retention::RetentionProfile profile(
      std::vector<double>(8192, 1.0));
  const auto binning =
      retention::BinRows(profile, retention::StandardBinPeriods());
  return dram::VrlPolicy(
      dram::MakeRefreshPlan(binning, 2.5e-9,
                            std::vector<std::size_t>(8192, 2)),
      26, 15);
}

// The VRL refresh tick (Algorithm 1 proposed and granted), telemetry off.
// The denominator of the instrumentation and scheduler-coupled ratios in
// scripts/bench_baseline.py; the arm name predates the propose/grant
// contract and is kept so the committed baselines keep gating it.
void BM_VrlPolicyCollectDue(benchmark::State& state) {
  auto policy = MakeMicrobenchVrlPolicy();
  GrantBuffers buffers;
  Cycles now = 0;
  for (auto _ : state) {
    now += 3120;  // one tREFI tick
    benchmark::DoNotOptimize(GrantTick(policy, now, nullptr, buffers));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_VrlPolicyCollectDue);

// Instrumentation overhead on the scheduling hot path: the same tick with
// a telemetry recorder attached (cells resolved once, one counter add +
// optional lineage write per op).  Compare against BM_VrlPolicyCollectDue;
// docs/TELEMETRY.md records the measured delta (budget: <= 3%).
void BM_VrlPolicyCollectDueTelemetry(benchmark::State& state) {
  auto policy = MakeMicrobenchVrlPolicy();
  telemetry::RecorderOptions options;
  options.lineage_ops = state.range(0) == 1;
  options.enable_tracing = state.range(0) == 2;
  telemetry::Recorder recorder(options);
  policy.set_telemetry(&recorder);
  GrantBuffers buffers;
  Cycles now = 0;
  for (auto _ : state) {
    now += 3120;  // one tREFI tick
    benchmark::DoNotOptimize(GrantTick(policy, now, nullptr, buffers));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_VrlPolicyCollectDueTelemetry)
    ->Arg(0)   // counters + histograms only
    ->Arg(1)   // plus per-op lineage records
    ->Arg(2);  // plus transitions-only tracing (no per-op lineage)

// The same tick with the grant accounting the memory controller keeps
// (dram::RefreshGrantStats).  The ratio against BM_VrlPolicyCollectDue is
// what that accounting costs; bench_baseline gates it as
// propose_grant_shim_overhead.
void BM_VrlPolicyGrantRefreshes(benchmark::State& state) {
  auto policy = MakeMicrobenchVrlPolicy();
  dram::RefreshGrantStats stats;
  GrantBuffers buffers;
  Cycles now = 0;
  for (auto _ : state) {
    now += 3120;  // one tREFI tick
    benchmark::DoNotOptimize(GrantTick(policy, now, &stats, buffers));
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(stats);
}
BENCHMARK(BM_VrlPolicyGrantRefreshes);

// The scheduler-coupled family on the same tick loop: DARP (deferrable
// REFpb), SARP (subarray granularity) and VRL-Skip (charge-aware skip),
// all granted with no demand pressure so the measured cost is the
// propose/grant machinery itself.
void BM_ProposingPolicyGrant(benchmark::State& state) {
  constexpr std::size_t kRows = 8192;
  constexpr Cycles kWindow = 25'600'000;
  constexpr Cycles kDefer = 25'000;  // 8 x tREFI
  std::unique_ptr<dram::RefreshPolicy> policy;
  switch (state.range(0)) {
    case 0:
      policy = std::make_unique<dram::DarpPolicy>(kRows, kWindow, 26, kDefer);
      break;
    case 1:
      policy = std::make_unique<dram::SarpPolicy>(kRows, kWindow, 26, kDefer);
      break;
    default: {
      const retention::RetentionProfile profile(
          std::vector<double>(kRows, 1.0));
      const auto binning =
          retention::BinRows(profile, retention::StandardBinPeriods());
      const auto plan = dram::MakeRefreshPlan(
          binning, 2.5e-9, std::vector<std::size_t>(kRows, 2));
      policy = std::make_unique<dram::VrlSkipPolicy>(plan, 26, 15, kDefer);
      break;
    }
  }
  GrantBuffers buffers;
  Cycles now = 0;
  for (auto _ : state) {
    now += 3120;  // one tREFI tick
    benchmark::DoNotOptimize(GrantTick(*policy, now, nullptr, buffers));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ProposingPolicyGrant)
    ->Arg(0)   // DARP
    ->Arg(1)   // SARP
    ->Arg(2);  // VRL-Skip

// End-to-end instrumentation overhead: one full 64 ms window of the
// single-bank system under the streamcluster workload, detached vs.
// attached vs. attached-with-tracing.  The refresh-only idle window (no
// requests) is the worst case — nearly all per-op work is telemetry — so
// it is measured too.  Arm 2 keeps the span tracer hot across iterations
// (caps reached, lineage ring in steady state), which is exactly the
// long-run cost docs/TRACING.md budgets at <= 2%.  Arm 3 adds the per-op
// lineage firehose (RecorderOptions::lineage_ops) — deliberately outside
// the budget, measured so the docs can quote its price.  Arm 4 turns on
// the attribution profiler instead of tracing (telemetry + profile_phases)
// — scripts/bench_baseline.py ratios it against arm 1 to gate the <= 2%
// profiler budget (docs/PROFILING.md).
void BM_SimulateWindow(benchmark::State& state) {
  core::VrlConfig config;
  config.banks = 1;
  core::VrlSystem system(config);
  std::unique_ptr<telemetry::Recorder> recorder;
  if (state.range(0) != 0) {
    telemetry::RecorderOptions options;
    options.enable_tracing = state.range(0) == 2 || state.range(0) == 3;
    options.lineage_ops = state.range(0) == 3;
    options.profile_phases = state.range(0) == 4;
    recorder = std::make_unique<telemetry::Recorder>(options);
  }
  const Cycles horizon = system.HorizonForWindows(1);
  std::vector<dram::Request> requests;
  if (state.range(1) != 0) {
    Rng rng(3);
    const auto records = trace::GenerateTrace(
        trace::SuiteWorkload("streamcluster"), system.Geometry(), horizon,
        rng);
    requests =
        trace::MapToRequests(records, trace::AddressMapper(system.Geometry()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        system.Simulate("VRL-Access", requests, horizon, recorder.get()));
  }
}
BENCHMARK(BM_SimulateWindow)
    ->Args({0, 1})  // loaded, telemetry off
    ->Args({1, 1})  // loaded, telemetry on
    ->Args({2, 1})  // loaded, telemetry + tracing on
    ->Args({3, 1})  // loaded, + per-op lineage firehose
    ->Args({4, 1})  // loaded, telemetry + attribution profiler
    ->Args({0, 0})  // idle worst case, telemetry off
    ->Args({1, 0})  // idle worst case, telemetry on
    ->Args({2, 0})  // idle worst case, telemetry + tracing on
    ->Args({3, 0})  // idle worst case, + per-op lineage firehose
    ->Args({4, 0})  // idle worst case, telemetry + profiler
    ->Unit(benchmark::kMillisecond);

void BM_GenerateTrace(benchmark::State& state) {
  const trace::AddressGeometry geometry;
  const auto params = trace::SuiteWorkload("streamcluster");
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trace::GenerateTrace(params, geometry, 1'000'000, rng));
  }
}
BENCHMARK(BM_GenerateTrace);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the flag table passes every
// --benchmark_* argument through to google-benchmark and rejects anything
// else with one `error:` line and exit 2.
int main(int argc, char** argv) {
  std::vector<std::string> args = {argv[0]};
  vrl::bench::ParseFlags(
      argc, argv, 0,
      {{"--benchmark_*",
        [&args](const std::string& arg) { args.push_back(arg); }}});

  std::vector<char*> benchmark_argv;
  benchmark_argv.reserve(args.size());
  for (std::string& arg : args) {
    benchmark_argv.push_back(arg.data());
  }
  int benchmark_argc = static_cast<int>(benchmark_argv.size());
  benchmark::Initialize(&benchmark_argc, benchmark_argv.data());
  if (benchmark::ReportUnrecognizedArguments(benchmark_argc,
                                             benchmark_argv.data())) {
    return 2;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
