#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <string>
#include <utility>
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
/// flat index of the table's topology.  The log grows in fixed 16 Ki-command
/// chunks, so an append never copies what is already logged, and a released
/// log's chunks serve the next log on the same thread.  A finished run hands
/// its log over (MemoryController::TakeAuditLog) instead of copying it, and
/// the replay keeps its state in arrays indexed by bank, subarray, rank and
/// bus.  The replay order, (cycle, log index) keys, comes from an insertion
/// pass that is linear on a nearly sorted log: the banks append almost in
/// cycle order (in refresh_tournament's logs, at its defaults and at
/// --subarrays 1 --windows 2, 8-15% of adjacent keys are inverted and no key
/// moves back more than 81 places).  A key more than 256 places out of order
/// hands the rest to std::sort, so a log in any order still replays
/// correctly.

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
///
/// The commands live in fixed-size chunks of kChunkSize (a power of two),
/// each allocated at full capacity: an append never moves a recorded
/// command.  A released log's chunks go to the next log built on the same
/// thread, so a run of audited simulations writes into pages it has
/// touched before instead of faulting in fresh ones.  Command i is slot
/// i % kChunkSize of chunk i / kChunkSize.  Move-only; a move hands the
/// chunks over and leaves the source empty.
class CommandLog {
 public:
  static constexpr std::size_t kChunkShift = 14;  ///< 16 Ki commands.
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  class View;

  CommandLog() = default;
  CommandLog(CommandLog&& other) noexcept
      : chunks_(std::move(other.chunks_)),
        size_(std::exchange(other.size_, 0)) {}
  CommandLog& operator=(CommandLog&& other) noexcept {
    if (this != &other) {
      Clear();
      chunks_.swap(other.chunks_);
      std::swap(size_, other.size_);
    }
    return *this;
  }
  ~CommandLog() { Clear(); }

  void Append(const Command& command) {
    if ((size_ & (kChunkSize - 1)) == 0) {
      AddChunk();
    }
    chunks_.back().push_back(command);
    ++size_;
  }
  /// Moves every command of `tail` to the end of this log, in order: the
  /// chunks change hands when this log is empty, the commands are appended
  /// one by one otherwise.  `tail` is left empty.
  void AppendLog(CommandLog&& tail);

  /// Command `i` (< size()), in O(1).
  const Command& operator[](std::size_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }
  /// The commands as a read-only random-access range.
  View commands() const;
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Empties the log; its chunks go to the thread's spares.
  void Clear() noexcept;

 private:
  void AddChunk();

  std::vector<std::vector<Command>> chunks_;  ///< Each reserved to kChunkSize.
  std::size_t size_ = 0;
};

/// A CommandLog's commands in log order: range-for, size(), operator[],
/// random-access iterators and equality with another view or a vector of
/// commands.  Valid while the log lives; appends invalidate no command.
class CommandLog::View {
 public:
  class Iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Command;
    using difference_type = std::ptrdiff_t;
    using pointer = const Command*;
    using reference = const Command&;

    Iterator() = default;
    Iterator(const CommandLog* log, std::size_t index)
        : log_(log), index_(index) {}

    reference operator*() const { return (*log_)[index_]; }
    pointer operator->() const { return &(*log_)[index_]; }
    reference operator[](difference_type n) const { return *(*this + n); }
    Iterator& operator++() {
      ++index_;
      return *this;
    }
    Iterator operator++(int) { return {log_, index_++}; }
    Iterator& operator--() {
      --index_;
      return *this;
    }
    Iterator operator--(int) { return {log_, index_--}; }
    Iterator& operator+=(difference_type n) {
      index_ = static_cast<std::size_t>(static_cast<difference_type>(index_) +
                                        n);
      return *this;
    }
    Iterator& operator-=(difference_type n) { return *this += -n; }
    friend Iterator operator+(Iterator it, difference_type n) {
      return it += n;
    }
    friend Iterator operator+(difference_type n, Iterator it) {
      return it += n;
    }
    friend Iterator operator-(Iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const Iterator& a, const Iterator& b) {
      return static_cast<difference_type>(a.index_) -
             static_cast<difference_type>(b.index_);
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.index_ == b.index_;
    }
    friend auto operator<=>(const Iterator& a, const Iterator& b) {
      return a.index_ <=> b.index_;
    }

   private:
    const CommandLog* log_ = nullptr;
    std::size_t index_ = 0;
  };

  explicit View(const CommandLog& log) : log_(&log) {}

  Iterator begin() const { return {log_, 0}; }
  Iterator end() const { return {log_, log_->size()}; }
  std::size_t size() const { return log_->size(); }
  bool empty() const { return log_->empty(); }
  const Command& operator[](std::size_t i) const { return (*log_)[i]; }

  friend bool operator==(const View& view,
                         const std::vector<Command>& commands) {
    return view.size() == commands.size() &&
           std::equal(commands.begin(), commands.end(), view.begin());
  }
  friend bool operator==(const View& a, const View& b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  const CommandLog* log_;
};

inline CommandLog::View CommandLog::commands() const { return View(*this); }

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
