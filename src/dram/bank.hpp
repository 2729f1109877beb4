#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "dram/refresh_policy.hpp"
#include "dram/request.hpp"
#include "dram/timing.hpp"
#include "dram/topology.hpp"
#include "telemetry/metrics.hpp"

/// \file bank.hpp
/// One DRAM bank: row-buffer state machine plus busy-time bookkeeping.
///
/// The bank services column accesses against an open row; a different row
/// costs PRECHARGE + ACTIVATE first, and the precharge itself must honor
/// tRAS (minimum row-open time) and tWR (write recovery).  A refresh
/// operation closes the open row and occupies the bank for the operation's
/// tRFC — full or partial.
///
/// With `subarrays > 1` the bank models subarray-level parallelism (SALP /
/// MASA, Kim et al. ISCA 2012, cited in the paper): each subarray has its
/// own row buffer and busy timeline, so a refresh only blocks the subarray
/// that contains the refreshed row while accesses to other subarrays
/// proceed — the refresh-access parallelization of Chang et al. (HPCA
/// 2014).  The data bus is still shared: bursts serialize across
/// subarrays.

namespace vrl::dram {

class CommandLog;                       // auditor.hpp
enum class CommandKind : std::uint8_t;  // auditor.hpp

/// Row-buffer management policy.
enum class RowBufferPolicy {
  kOpenPage,    ///< Keep the row open after an access (default).
  kClosedPage,  ///< Auto-precharge after every access: conflicts become
                ///< row-empty activations, at the cost of losing row hits.
};

/// Per-bank statistics, in cycles and event counts.
struct BankStats {
  std::size_t reads = 0;
  std::size_t writes = 0;
  std::size_t row_hits = 0;
  std::size_t row_misses = 0;      ///< Includes row-empty activations.
  std::size_t activations = 0;

  std::size_t full_refreshes = 0;
  std::size_t partial_refreshes = 0;
  Cycles refresh_busy_cycles = 0;  ///< Total cycles spent refreshing.
  Cycles access_busy_cycles = 0;   ///< Total cycles servicing accesses.

  Cycles total_request_latency = 0;  ///< Sum of (completion - arrival).
  /// Request-latency distribution over telemetry::LatencyBucketEdges().
  /// Always-on like the rest of BankStats — an unconditional fixed-array
  /// bump here (where the latency is already at hand) is cheaper than a
  /// telemetry-gated recount in the controller, and the controller exports
  /// the run's delta as `dram.request_latency_cycles`.
  std::array<std::uint64_t, telemetry::kLatencyBucketCount> latency_hist{};
  Cycles last_completion = 0;

  std::size_t refreshes() const { return full_refreshes + partial_refreshes; }
};

class Bank {
 public:
  Bank(std::size_t rows, const TimingParams& timing,
       RowBufferPolicy policy = RowBufferPolicy::kOpenPage,
       std::size_t subarrays = 1);

  /// Services one request starting no earlier than its arrival and no
  /// earlier than its subarray's busy horizon.  Returns the completion
  /// cycle.
  Cycles ServiceRequest(const Request& request);

  /// Executes one refresh operation at or after `now`; returns completion.
  /// What it blocks follows the op's granularity: kSubarray occupies only
  /// the refreshed row's subarray (the legacy behaviour); kPerBank (REFpb)
  /// and kAllBank (REF) wait for every subarray, close every open row, and
  /// block the whole bank for the op's tRFC.  A REFpb additionally counts
  /// as an activation in the rank's tRRD/tFAW windows when a constraint
  /// engine is attached (JEDEC LPDDR4 §4.x: REFpb is scheduled like an
  /// ACTIVATE); an all-bank REF is not subject to those windows.
  Cycles ExecuteRefresh(const RefreshOp& op, Cycles now);

  /// First cycle at which *any* subarray is free (the controller's
  /// decision-instant hint; individual requests still wait for their own
  /// subarray inside ServiceRequest).
  Cycles busy_until() const {
    Cycles earliest = subarrays_.front().busy_until;
    for (const Subarray& sa : subarrays_) {
      earliest = std::min(earliest, sa.busy_until);
    }
    return earliest;
  }

  /// Busy horizon of one subarray (the refresh grant scheduler's collision
  /// probe).  \throws vrl::ConfigError on an out-of-range index.
  Cycles SubarrayBusyUntil(std::size_t sub) const;

  /// True if `row` is open in its subarray's row buffer (row-hit check for
  /// FR-FCFS scheduling).
  bool IsRowOpen(std::size_t row) const;

  /// The open row of single-subarray banks (legacy accessor used by tests;
  /// returns the first subarray's row buffer).
  std::optional<std::size_t> open_row() const {
    return subarrays_.front().open_row;
  }

  const BankStats& stats() const { return stats_; }
  std::size_t rows() const { return rows_; }
  std::size_t subarray_count() const { return subarrays_.size(); }

  /// Subarray index of a row.
  std::size_t SubarrayOf(std::size_t row) const {
    return row / rows_per_subarray_;
  }

  /// Attaches the inter-bank constraint engine and this bank's position in
  /// the hierarchy.  The engine floors every ACTIVATE, column command and
  /// data burst to its earliest legal cycle (tRRD/tFAW/tCCD/bus/tRTRS);
  /// null (the default) leaves the flat model's arithmetic untouched.
  void SetConstraintEngine(ConstraintEngine* engine, const BankAddress& addr) {
    engine_ = engine;
    addr_ = addr;
  }

  /// Attaches a command log: every PRE/ACT/RD/WR/REF this bank issues is
  /// appended under `bank`, the bank's flat index in the table's topology,
  /// for passive replay by the TimingAuditor.  Null (the default) disables
  /// logging.  Works with or without a constraint engine — flat runs can be
  /// audited too.  \throws vrl::ConfigError when the bank's rows exceed
  /// UINT32_MAX, its subarrays UINT16_MAX or `bank` UINT32_MAX (the widths
  /// of a logged Command).
  void SetAudit(CommandLog* log, std::size_t bank);

 private:
  struct Subarray {
    Cycles busy_until = 0;
    Cycles activated_at = 0;          ///< ACT time of the open row.
    Cycles write_recovery_until = 0;  ///< Last write completion + tWR.
    std::optional<std::size_t> open_row;
  };

  /// Earliest cycle a PRECHARGE of `sa` may start, honoring tRAS and tWR.
  Cycles EarliestPrecharge(const Subarray& sa, Cycles at) const;

  /// Appends one command to the attached log; a no-op without one.
  void Log(Cycles at, CommandKind kind, std::size_t sub, std::size_t row,
           Cycles trfc = 0,
           RefreshGranularity granularity = RefreshGranularity::kSubarray);

  std::size_t rows_;
  TimingParams timing_;
  RowBufferPolicy policy_;
  std::size_t rows_per_subarray_;
  std::vector<Subarray> subarrays_;
  Cycles bus_busy_until_ = 0;  ///< Shared data-bus horizon.
  BankStats stats_;
  ConstraintEngine* engine_ = nullptr;  ///< Optional inter-bank constraints.
  CommandLog* audit_ = nullptr;         ///< Optional command logging.
  std::uint32_t audit_bank_ = 0;        ///< Flat index logged with commands.
  BankAddress addr_;                    ///< Position in the hierarchy.
};

}  // namespace vrl::dram
