#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "dram/refresh_policy.hpp"
#include "dram/timing_table.hpp"
#include "dram/topology.hpp"

/// \file auditor.hpp
/// Passive timing conformance: a command log recorded during simulation and
/// an auditor that replays it against a TimingTable, reporting every window
/// violation.
///
/// The TimingAuditor is deliberately a from-scratch re-implementation of
/// the timing rules — it shares no scheduling code with the
/// ConstraintEngine, so a bug in the active engine (or in the bank state
/// machine) shows up as a reported violation instead of passing silently.
/// That makes timing correctness a *checkable property* of any run: enable
/// command logging (MemoryController::EnableAudit), simulate, audit, and
/// assert zero violations.  The audit report text is byte-deterministic —
/// CI diffs it across thread counts and uploads it as an artifact
/// (docs/TOPOLOGY.md).
///
/// Cost model: a logged command is a 24-byte record naming its bank by the
/// flat index of the table's topology, a finished run hands its log over
/// (MemoryController::TakeAuditLog) instead of copying it, and the replay
/// sorts (cycle, log index) keys and keeps its state in arrays indexed by
/// bank, subarray, rank and bus.

namespace vrl::dram {

/// DRAM bus commands the simulator issues.
enum class CommandKind : std::uint8_t {
  kActivate,
  kRead,
  kWrite,
  kPrecharge,
  kRefresh,
};

/// Short uppercase mnemonic ("ACT", "RD", "WR", "PRE", "REF").
std::string CommandName(CommandKind kind);

/// One logged command.  `at` is the issue cycle: for kRead/kWrite the
/// column-command cycle (the data burst occupies [at + tCAS, at + tCAS +
/// tBUS)); for kRefresh the cycle the refresh starts occupying its target —
/// the row's subarray at kSubarray granularity, the whole bank at kPerBank
/// (REFpb) or kAllBank (REF) — for `trfc` cycles.  A kPerBank refresh is
/// additionally subject to (and counts in) the rank's tRRD/tFAW activation
/// windows, mirroring how LPDDR4 schedules REFpb like an ACTIVATE.
///
/// `bank` is the flat bank index in the audited table's topology
/// (FlattenBank order).  The narrow fields never truncate: Bank::SetAudit
/// rejects a bank whose rows, subarrays or index do not fit, and
/// Bank::ExecuteRefresh a logged tRFC above UINT32_MAX.
struct Command {
  Cycles at = 0;
  std::uint32_t row = 0;
  std::uint32_t trfc = 0;      ///< kRefresh only: this op's refresh latency.
  std::uint32_t bank = 0;      ///< Flat bank index (FlattenBank order).
  std::uint16_t subarray = 0;  ///< Busy unit within the bank (SALP).
  CommandKind kind = CommandKind::kActivate;
  /// kRefresh only: command scope (see refresh_policy.hpp).
  RefreshGranularity granularity = RefreshGranularity::kSubarray;

  bool operator==(const Command&) const = default;
};
static_assert(sizeof(Command) == 24, "Command is a 24-byte log record");

/// Append-only command stream, recorded by the banks in issue order.
class CommandLog {
 public:
  void Append(const Command& command) { commands_.push_back(command); }
  /// Moves every command of `tail` to the end of this log, in order: a
  /// swap when this log is empty, one bulk insert otherwise.
  void AppendLog(CommandLog&& tail) {
    if (commands_.empty()) {
      commands_.swap(tail.commands_);
    } else {
      commands_.insert(commands_.end(), tail.commands_.begin(),
                       tail.commands_.end());
    }
    tail.commands_.clear();
  }
  const std::vector<Command>& commands() const { return commands_; }
  std::size_t size() const { return commands_.size(); }
  bool empty() const { return commands_.empty(); }
  void Clear() { commands_.clear(); }

 private:
  std::vector<Command> commands_;
};

/// One timing-rule violation found by the auditor.
struct TimingViolation {
  Cycles at = 0;        ///< Cycle of the offending (later) command.
  std::string rule;     ///< "tRRD_L", "tFAW", "bus-overlap", ...
  BankAddress addr;     ///< Of the offending command.
  std::string detail;   ///< Human-readable specifics (deterministic).
};

/// Result of one audit pass.
struct AuditReport {
  std::size_t commands_checked = 0;
  std::vector<TimingViolation> violations;

  bool clean() const { return violations.empty(); }

  /// Byte-deterministic text rendering:
  ///   # vrl timing audit v1
  ///   # preset=<label> commands=<n> violations=<k>
  ///   violation at=<cycle> rule=<rule> ch=<c> rk=<r> bg=<g> bk=<b> <detail>
  ///   ...
  ///   # end
  /// Violations are ordered by (cycle, rule, address).
  std::string ToText(const std::string& label) const;
};

/// Writes report.ToText(label) to `path`.  \throws vrl::ConfigError when
/// the file cannot be opened.
void WriteAuditReport(const AuditReport& report, const std::string& label,
                      const std::string& path);

/// Replays command logs against a timing table.
///
/// Checked rules (zero-valued constraints are skipped):
///  - per (bank, subarray): tRCD (ACT -> column), tRAS (ACT -> PRE), tRP
///    (PRE -> ACT), tWR (write burst end -> PRE), and refresh occupancy
///    (no command while a refresh op holds the subarray).
///  - per bank: bank-level refresh occupancy — a kPerBank (REFpb) or
///    kAllBank (REF) refresh blocks every subarray, so no command may touch
///    the bank inside its window, and the refresh itself may not start
///    while any subarray refresh is in flight.
///  - per rank: tRRD_S/tRRD_L between ACTs (bank group aware), the rolling
///    four-ACT tFAW window, tCCD_S/tCCD_L between column commands.  REFpb
///    commands participate in the ACT windows on both sides.
///  - data bus: burst non-overlap — per bank when the table keeps per-bank
///    data paths (the flat model), per channel when per_channel_bus — and
///    tRTRS turnaround between bursts of different ranks.
class TimingAuditor {
 public:
  /// Copies the table (the auditor outlives no one) and decomposes each of
  /// its flat bank indices once.
  explicit TimingAuditor(const TimingTable& table);

  /// Audits `log`; commands may be appended in any order (the auditor
  /// replays them by cycle, ties in log order).  \throws vrl::ConfigError
  /// when a command's bank index is not a bank of the table's topology.
  AuditReport Audit(const CommandLog& log) const;

  const TimingTable& table() const { return table_; }

 private:
  TimingTable table_;
  std::vector<BankAddress> addrs_;  ///< [flat bank] -> hierarchy address.
};

}  // namespace vrl::dram
