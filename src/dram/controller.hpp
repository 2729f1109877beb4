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
  /// enforced by a ConstraintEngine.
  MemoryController(const TimingTable& table, std::size_t rows,
                   const PolicyFactory& factory,
                   SchedulerKind scheduler = SchedulerKind::kFcfs,
                   RowBufferPolicy page_policy = RowBufferPolicy::kOpenPage,
                   std::size_t subarrays = 1);

  /// Runs the simulation: services `requests` (must be sorted by arrival)
  /// and executes refresh ticks until `horizon` cycles have elapsed (and at
  /// least until the last request completes).
  SimulationStats Run(const std::vector<Request>& requests, Cycles horizon);

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
  std::vector<std::unique_ptr<RefreshPolicy>> policies_;
  std::unique_ptr<ConstraintEngine> engine_;  ///< Hierarchical tables only.
  std::unique_ptr<CommandLog> audit_log_;     ///< Non-null after EnableAudit.
  telemetry::Recorder* telemetry_ = nullptr;
};

}  // namespace vrl::dram
