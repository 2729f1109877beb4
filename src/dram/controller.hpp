#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "dram/auditor.hpp"
#include "dram/bank.hpp"
#include "dram/refresh_policy.hpp"
#include "dram/request.hpp"
#include "dram/scheduler.hpp"
#include "dram/timing.hpp"
#include "dram/timing_table.hpp"
#include "dram/topology.hpp"

/// \file controller.hpp
/// The memory controller: per-bank request streams interleaved with tREFI
/// refresh ticks, each tick executing whatever refresh operations the bank's
/// policy declares due (the paper's §3.2 implementation point — VRL-DRAM
/// lives entirely in the controller).
///
/// One run loop serves every timing table.  It walks *bank groups*, each on
/// its own timeline, and at every decision instant serves the group's bank
/// that frees up first.  On a flat table (IsHierarchical() == false) each
/// bank is its own group, so a decision looks at one bank and the banks run
/// one after another — the flat model, pinned byte-for-byte by the
/// golden-master tests in tests/golden_master_test.cpp.  On a hierarchical
/// table all banks form one group, interleaved by decision instant so the
/// ConstraintEngine sees commands in approximate issue order and charges
/// tRRD/tFAW/tCCD/tRTRS/bus stalls where the hierarchy binds
/// (docs/TOPOLOGY.md).
///
/// Cost model.  A run pays per request and per refresh op, plus one
/// compare per bank and tREFI tick:
///  * Requests arrive as per-bank streams of 8-byte RequestSlots, one
///    vector per bank (RequestStreams, checked once when built); every
///    arrival the run reads goes through BankStream::arrival.  A
///    synthetic trace is drawn straight into them
///    (trace::GenerateStreams), with no record or Request vector beside
///    them; Run(vector) splits a Request vector, then runs.  RunStreams
///    only reads them, so the runs of several policies over one workload
///    share one draw (core::RunWorkload).  The run's own state is a
///    cursor per bank over that bank's stream, plus one served mark per
///    request under FR-FCFS (FCFS always serves a stream's head and needs
///    none).
///  * The loop caches each bank's decision instant and recomputes only the
///    served bank's.
///  * Refresh follows the next-proposal contract (refresh_policy.hpp): on a
///    tick below the bank policy's next_proposal() the controller skips
///    propose/grant and only advances the policy's clock.  Most ticks have
///    no row due, so they cost that one compare; a policy that leaves the
///    cycle at 0 (fault::AdaptiveVrlPolicy) is asked on every tick.
///  * The controller owns the proposal and op buffers GrantRefreshes
///    fills, so a tick allocates nothing.

namespace vrl::dram {

/// Aggregate results of one simulation.
struct SimulationStats {
  std::vector<BankStats> per_bank;
  Cycles simulated_cycles = 0;

  // -- Aggregates over banks ---------------------------------------------------
  std::size_t TotalReads() const;
  std::size_t TotalWrites() const;
  std::size_t TotalFullRefreshes() const;
  std::size_t TotalPartialRefreshes() const;
  Cycles TotalRefreshBusyCycles() const;
  std::size_t TotalActivations() const;
  std::size_t TotalRowHits() const;
  std::size_t TotalRowMisses() const;

  /// Refresh overhead of the paper's Fig. 4: cycles spent refreshing,
  /// averaged per bank.
  double RefreshOverheadPerBank() const;

  /// Mean request latency in cycles (0 when no requests were served).
  double AverageRequestLatency() const;
};

/// Factory producing one refresh policy per bank (each bank needs its own
/// deadline/counter state).
using PolicyFactory = std::function<std::unique_ptr<RefreshPolicy>(void)>;

class MemoryController {
 public:
  /// Flat construction: `banks` independent banks under one `timing`
  /// (a single-bank-equivalent table), each run as its own bank group.
  ///
  /// \param banks       number of banks
  /// \param rows        rows per bank
  /// \param timing      command timing
  /// \param factory     creates the refresh policy instance for each bank
  /// \param scheduler   request scheduling discipline
  /// \param page_policy row-buffer management of every bank
  /// \param subarrays   subarrays per bank (SALP; 1 = conventional bank)
  MemoryController(std::size_t banks, std::size_t rows,
                   const TimingParams& timing, const PolicyFactory& factory,
                   SchedulerKind scheduler = SchedulerKind::kFcfs,
                   RowBufferPolicy page_policy = RowBufferPolicy::kOpenPage,
                   std::size_t subarrays = 1);

  /// Hierarchical construction: the bank count is the table's topology
  /// product and each bank knows its channel/rank/bank-group address.  A
  /// degenerate table (TimingPreset::kSingleBankEquivalent) runs every bank
  /// as its own group, byte-for-byte the flat constructor; anything else
  /// runs all banks as one group with the table's inter-bank constraints
  /// enforced by a ConstraintEngine.  \throws vrl::ConfigError when `rows`
  /// exceeds RequestSlot::kMaxRows (2^31 - 1: a slot's row field is 31
  /// bits).
  MemoryController(const TimingTable& table, std::size_t rows,
                   const PolicyFactory& factory,
                   SchedulerKind scheduler = SchedulerKind::kFcfs,
                   RowBufferPolicy page_policy = RowBufferPolicy::kOpenPage,
                   std::size_t subarrays = 1);

  /// Runs the simulation: services `requests` (must be sorted by arrival)
  /// and executes refresh ticks until `horizon` cycles have elapsed (and at
  /// least until the last request completes).
  /// \throws vrl::ConfigError, before any request is served, when the
  /// requests are not arrival-sorted or one names a bank or row out of
  /// range.
  SimulationStats Run(const std::vector<Request>& requests, Cycles horizon);

  /// Run over requests already split into per-bank streams, which the run
  /// only reads: several runs may share one RequestStreams.
  /// \throws vrl::ConfigError when `streams` was not split for this
  /// controller's bank count, or for more rows than its banks have.
  SimulationStats RunStreams(const RequestStreams& streams, Cycles horizon);

  /// Attaches a telemetry recorder to the controller and every bank's
  /// refresh policy (docs/TELEMETRY.md): Run() then feeds the `dram.*`
  /// counters, the request-latency histogram and the scheduler pick
  /// counters, and the policies feed `policy.*`.  nullptr detaches.  The
  /// recorder is single-threaded — give each concurrently running
  /// controller its own (see telemetry::ShardedRecorder).
  void AttachTelemetry(telemetry::Recorder* recorder);
  telemetry::Recorder* telemetry() const { return telemetry_; }

  std::size_t banks() const { return banks_.size(); }

  const TimingTable& timing_table() const { return table_; }
  /// True when the table's inter-bank constraints are enforced (all banks
  /// run as one group under a ConstraintEngine).
  bool hierarchical() const { return engine_ != nullptr; }

  /// Turns on command logging: every PRE/ACT/RD/WR/REF the banks issue from
  /// now on lands in the returned log, for TimingAuditor replay.  Idempotent;
  /// the log lives as long as the controller.
  CommandLog& EnableAudit();

  /// The command log, or nullptr before EnableAudit().
  const CommandLog* audit_log() const { return audit_log_.get(); }

  /// Moves the commands logged so far out of the controller, leaving an
  /// empty log attached: the banks keep logging into it and EnableAudit()
  /// still returns it.  An empty log before EnableAudit().
  CommandLog TakeAuditLog();

  /// The inter-bank constraint engine (stall stats, per-rank activity), or
  /// nullptr when running flat.
  const ConstraintEngine* constraint_engine() const { return engine_.get(); }

 private:
  /// The per-run telemetry delta export of the banks' always-on stats.
  void ExportRunTelemetry(const SimulationStats& before,
                          const SimulationStats& stats,
                          std::uint64_t reordered_picks_n, Cycles end);
  /// Exports `dram.refresh.*` grant/deferral counters — only when the run
  /// saw non-urgent proposals (scheduler-coupled policies), so runs of the
  /// fixed-schedule policies register nothing new.
  void ExportGrantTelemetry(const RefreshGrantStats& grants);

  TimingTable table_;
  SchedulerKind scheduler_;
  std::vector<Bank> banks_;
  std::vector<BankAddress> addrs_;  ///< DecomposeBank of each bank.
  std::vector<std::unique_ptr<RefreshPolicy>> policies_;
  std::unique_ptr<ConstraintEngine> engine_;  ///< Hierarchical tables only.
  std::unique_ptr<CommandLog> audit_log_;     ///< Non-null after EnableAudit.
  telemetry::Recorder* telemetry_ = nullptr;
};

}  // namespace vrl::dram
