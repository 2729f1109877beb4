#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "retention/profile.hpp"

namespace vrl::telemetry {
class Counter;
class Histogram;
class Lineage;
class Recorder;
}  // namespace vrl::telemetry

/// \file refresh_policy.hpp
/// Refresh scheduling policies for one DRAM bank.
///
/// Every policy speaks one two-phase contract, consulted by the memory
/// controller at every tREFI tick (see GrantRefreshes in scheduler.hpp and
/// docs/POLICIES.md):
///  * Propose freezes the op into a caller-owned buffer: rows coming due
///    (popped from a DueQueue, one sorted FIFO per refresh period) become
///    proposals carrying the refresh op (row, tRFC, full/partial,
///    granularity — subarray, per-bank REFpb or all-bank REF), the cycle
///    the schedule wanted it and a deadline.
///  * OnGrant records the op (telemetry, lineage) and re-arms the row's
///    schedule one period after its due cycle; OnDefer leaves the proposal
///    outstanding, to be offered again on the next tick.
///  * A defer window of 0 makes every proposal urgent, so the scheduler
///    grants it on the tick it is proposed — the fixed-schedule policies
///    (JEDEC, RAIDR, VRL, VRL-Access) use that; DARP/SARP/VRL-Skip defer
///    around demand inside a non-zero window.
///  * next_proposal() is the first cycle Propose may return anything; the
///    controller skips propose/grant on every tick before it.  Most ticks
///    have nothing due (the Fig. 4 grid grants about one op per four
///    bank-ticks), so a skipped tick costs one compare.
/// Each granted op carries its own tRFC — variable refresh latency is the
/// paper's mechanism.
///
/// Implemented policies (all ProposingPolicy subclasses):
///  * FullLatencyPolicy — every op a full-latency restore at one refresh
///                        scope, on a per-row period table.  The registry
///                        builds the baselines from it: JEDEC (every row
///                        each 64 ms window), RAIDR (Liu et al., ISCA 2012:
///                        retention-binned periods), DARP (arXiv:1712.07754
///                        style: deferrable per-bank REFpb) and SARP
///                        (deferrable subarray refresh that overlaps demand
///                        to other subarrays).
///  * VrlPolicy         — the paper's Algorithm 1: per-row MPRSF counters;
///                        a full refresh every (mprsf+1)-th period,
///                        low-latency partial refreshes otherwise.
///  * VrlAccessPolicy   — VRL-Access: a read/write activation fully
///                        restores the row, so it also resets the row's
///                        partial-refresh counter.
///  * VrlSkipPolicy     — VRL-Access generalized into a charge-aware
///                        scheduler hint: recently-restored rows skip their
///                        scheduled refresh outright, and live proposals
///                        ride the same deferral window as DARP/SARP.

namespace vrl::dram {

class Bank;

/// Refresh command scope.  kSubarray (the legacy behaviour, and the
/// aggregate-initializer default) occupies only the target row's subarray;
/// kPerBank is a JEDEC REFpb blocking the whole bank and participating in
/// the rank's tRRD/tFAW activation windows; kAllBank is the classic REF,
/// blocking the whole bank without counting as an activation.
enum class RefreshGranularity : std::uint8_t {
  kSubarray = 0,
  kPerBank,
  kAllBank,
};

/// Short label for reports ("subarray", "per-bank", "all-bank").
std::string RefreshGranularityName(RefreshGranularity granularity);

/// One refresh operation to execute on a bank.
struct RefreshOp {
  std::size_t row = 0;
  Cycles trfc = 0;
  bool is_full = true;
  RefreshGranularity granularity = RefreshGranularity::kSubarray;
};

/// What the scheduler knows about pending demand when asking a policy for
/// proposals: the next not-yet-serviced request targeting this bank (the
/// demand queue is drained up to `now` before refresh decisions, so the
/// head of the remaining queue is the whole picture).
struct DemandView {
  static constexpr Cycles kNever = ~Cycles{0};
  Cycles now = 0;
  Cycles next_arrival = kNever;  ///< Arrival cycle of the next request.
  std::size_t next_row = 0;      ///< Row targeted by that request.
  bool has_next = false;
};

/// A refresh command offered by a policy.  `due` is the cycle the schedule
/// wanted it (slack accounting); `deadline` is the cycle by which it must be
/// granted.  From the deadline on the proposal is urgent: the scheduler may
/// not defer it further.
struct RefreshProposal {
  RefreshOp op;
  Cycles due = 0;
  Cycles deadline = 0;
};

class RefreshPolicy {
 public:
  virtual ~RefreshPolicy() = default;

  /// Phase one: replaces the contents of `out` with the refresh commands
  /// this policy wants considered at `now`, each with its op frozen.
  /// Proposals the scheduler deferred are offered again on later calls
  /// until granted.  `now` must be non-decreasing across calls.  The caller
  /// owns `out` and reuses it across ticks, so a tick allocates nothing
  /// once the buffer has grown to its working size.
  virtual void Propose(Cycles now, const DemandView& demand,
                       std::vector<RefreshProposal>& out) = 0;

  /// Phase two: the scheduler granted `proposal` for execution at cycle
  /// `at` (>= the proposal's due cycle).  The policy records the op and
  /// re-arms the row's schedule here.
  virtual void OnGrant(const RefreshProposal& proposal, Cycles at) = 0;

  /// Phase two, negative edge: the scheduler deferred `proposal` to a later
  /// tick.  Default no-op (deferred proposals simply stay outstanding).
  virtual void OnDefer(const RefreshProposal& proposal) { (void)proposal; }

  /// Notification that a row was activated by a read/write access.
  virtual void OnRowAccess(std::size_t row) { (void)row; }

  /// The next-proposal contract: Propose(now) returns nothing for any `now`
  /// below this cycle, so the memory controller calls SkipIdleTick instead
  /// of propose/grant on those ticks.  A policy keeps it current whenever
  /// its due rows or outstanding proposals change (ProposingPolicy does).
  /// 0, the default, means "ask every tick": a policy that does not
  /// maintain it is asked on every tick.
  Cycles next_proposal() const { return next_proposal_; }

  /// Stands in for Propose on a tick `now` below next_proposal(): proposes
  /// nothing, but advances the clock as Propose does (VRL-Skip's
  /// OnRowAccess reads last_now()), under the same monotonic check.
  void SkipIdleTick(Cycles now) { RequireMonotonicNow(now); }

  virtual std::string Name() const = 0;

  virtual std::size_t rows() const = 0;

  /// Caps the refresh proposals outstanding per tick, modelling the
  /// DDR-standard allowance to postpone refresh commands: rows left over
  /// stay due and are proposed first on the next tick.  0 = unlimited.
  /// Postponement trades burst length against extra decay time — validate
  /// aggressive caps with core::IntegrityChecker.
  void set_max_ops_per_tick(std::size_t cap) { max_ops_per_tick_ = cap; }
  std::size_t max_ops_per_tick() const { return max_ops_per_tick_; }

  /// Attaches a telemetry recorder (docs/TELEMETRY.md): every emitted
  /// refresh op updates the `policy.*` counters and slack histogram and —
  /// when the recorder traces refresh ops — appends a full/partial event.
  /// nullptr detaches.  The recorder must outlive the policy's use; one
  /// recorder may be shared by all banks' policies of a (single-threaded)
  /// simulation.  Flushes any batched per-op state into the previous
  /// recorder before switching.
  void set_telemetry(telemetry::Recorder* recorder);
  telemetry::Recorder* telemetry() const { return telemetry_; }

  /// Folds the batched per-op updates (see RecordOp) into the attached
  /// recorder's cells.  The simulation drivers (MemoryController::Run,
  /// fault::RunCampaign) call this before returning; anything driving
  /// GrantRefreshes directly must call it before snapshotting the recorder.
  /// No-op when detached.
  void FlushTelemetry();

 protected:
  bool AtCap(std::size_t emitted) const {
    return max_ops_per_tick_ != 0 && emitted >= max_ops_per_tick_;
  }

  /// Enforces the documented Propose contract: `now` must be
  /// non-decreasing across calls.  Every Propose implementation calls this
  /// first.  Inline, with the throw out of line: it runs on every tick.
  /// \throws vrl::ConfigError on a decreasing `now`.
  void RequireMonotonicNow(Cycles now) {
    if (now < last_now_) [[unlikely]] {
      ThrowNonMonotonicNow(now);
    }
    last_now_ = now;
  }

  /// Sets next_proposal() (see there; 0 = ask every tick).
  void set_next_proposal(Cycles cycle) { next_proposal_ = cycle; }

  /// The most recent Propose tick (event timestamps for notifications
  /// that arrive without their own clock, e.g. OnRowAccess).
  Cycles last_now() const { return last_now_; }

  /// Hook invoked after set_telemetry so wrappers can propagate the
  /// attachment (AdaptiveVrlPolicy forwards to its inner policy).
  virtual void OnTelemetryAttached() {}

  /// Records one emitted refresh op: full/partial counter, busy cycles,
  /// slack histogram (now - due) and, with lineage_ops, its lineage.  Per-op
  /// updates batch into policy-local accumulators (flushed by
  /// FlushTelemetry) so an op costs a handful of plain increments instead
  /// of registry-cell updates.  One branch when telemetry is detached.
  void RecordOp(const RefreshOp& op, Cycles now, Cycles due) {
    if (telemetry_ != nullptr) {
      RecordOpSlow(op, now, due);
    }
  }

  /// Records an MPRSF counter reset caused by a row activation
  /// (VRL-Access §3.2); `old_count` is the counter value before the reset.
  /// With RecorderOptions::lineage_ops this is the activation-reset
  /// transition of the refresh lineage (docs/TRACING.md).
  void RecordMprsfReset(std::size_t row, std::uint8_t old_count) {
    if (telemetry_ != nullptr && old_count != 0) {
      ++pending_mprsf_resets_;
      if (lineage_ops_) {
        RecordMprsfResetSlow(row, old_count);
      }
    }
  }

  /// The attached recorder's lineage ring (null when telemetry is
  /// detached) and this policy's interned cause label — for subclasses
  /// recording their own transitions (fault::AdaptiveVrlPolicy).
  telemetry::Lineage* lineage() const { return lineage_; }
  std::uint32_t cause_label() const { return cause_label_; }

 private:
  void RecordOpSlow(const RefreshOp& op, Cycles now, Cycles due);
  void RecordMprsfResetSlow(std::size_t row, std::uint8_t old_count);
  [[noreturn]] void ThrowNonMonotonicNow(Cycles now) const;

  std::size_t max_ops_per_tick_ = 0;
  Cycles last_now_ = 0;
  Cycles next_proposal_ = 0;

  telemetry::Recorder* telemetry_ = nullptr;
  // Cells resolved once at attachment; FlushTelemetry updates through
  // these pointers.
  telemetry::Counter* full_ops_ = nullptr;
  telemetry::Counter* partial_ops_ = nullptr;
  telemetry::Counter* busy_cycles_ = nullptr;
  telemetry::Counter* mprsf_resets_ = nullptr;
  telemetry::Histogram* slack_ = nullptr;
  telemetry::Lineage* lineage_ = nullptr;
  std::uint32_t cause_label_ = 0;  ///< Intern(Name()) in the lineage.
  bool lineage_ops_ = false;  ///< RecorderOptions::lineage_ops.
  // Batched per-op state, folded into the cells by FlushTelemetry().
  std::uint64_t pending_full_ = 0;
  std::uint64_t pending_partial_ = 0;
  std::uint64_t pending_busy_ = 0;
  std::uint64_t pending_mprsf_resets_ = 0;
  std::uint64_t pending_slack_sum_ = 0;
  std::vector<std::uint64_t> pending_slack_;  ///< Per-slack-bucket counts.
};

/// Per-row refresh period table shared by the retention-aware policies.
struct RowRefreshPlan {
  /// Refresh period of each row, in cycles.
  std::vector<Cycles> period_cycles;
  /// MPRSF of each row (used by VRL variants; empty for RAIDR).
  std::vector<std::uint8_t> mprsf;
};

/// Builds a RowRefreshPlan from a binned retention profile.  `mprsf` may be
/// empty (RAIDR) or one entry per row, already capped to the counter width.
RowRefreshPlan MakeRefreshPlan(const retention::BinningResult& binning,
                               double clock_period_s,
                               const std::vector<std::size_t>& mprsf = {});

/// The (next-due cycle, row) queue of ProposingPolicy: pops in ascending
/// (due, row) order, exactly as a min-heap of the pairs would.
///
/// A re-arm adds the row's own fixed period to its due cycle, and within
/// one period the staggered start is non-decreasing in the row index, so
/// the rows of one period come back in the order they left.  Each of the
/// first kMaxLanes distinct periods therefore gets a sorted FIFO (a ring
/// buffer), and top() is the least of the FIFO heads.  A push that would
/// break its FIFO's order — a deferred grant's re-arm, a VRL-Skip
/// reschedule, RearmOutstanding, or a row whose period has no FIFO — goes
/// to a small fallback min-heap that takes part in top() too.  Every
/// structure holds its own minimum at its head, so the pop sequence is the
/// heap's whatever the pushes and tick granularity.
class DueQueue {
 public:
  using Entry = std::pair<Cycles, std::size_t>;  ///< (due cycle, row)
  static constexpr std::size_t kMaxLanes = 8;

  /// `periods[row]` picks the row's FIFO.  The queue starts empty.
  explicit DueQueue(const std::vector<Cycles>& periods);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// The least (due, row) entry.  Requires !empty().
  const Entry& top() const {
    return min_lane_ == kHeap ? heap_.top() : lanes_[min_lane_].front();
  }
  void pop();
  void push(Cycles due, std::size_t row);

  /// Bulk form of push into an empty queue: adds (due_of(row), row) for
  /// every row of the periods table, each where push would put it, and
  /// looks for the least entry once at the end.  Every FIFO starts at its
  /// ring's slot 0 with room for all its rows, so an in-order entry is one
  /// append.  \throws vrl::ConfigError unless empty().
  template <typename DueOf>
  void Fill(DueOf due_of) {
    BeginFill();
    for (std::size_t row = 0; row < lane_of_.size(); ++row) {
      const Entry entry{due_of(row), row};
      if (lane_of_[row] != kHeap) {
        Lane& lane = lanes_[lane_of_[row]];
        if (lane.count == 0 || !(entry < lane.ring[lane.count - 1])) {
          lane.Put(lane.count++, entry);
          continue;
        }
      }
      heap_.push(entry);  // Out of order for its FIFO, or no FIFO.
    }
    size_ = lane_of_.size();
    FindMin();
  }

 private:
  static constexpr std::uint8_t kHeap = 0xFF;  ///< No FIFO / fallback heap.

  /// A growable ring buffer of entries in ascending order.  Its capacity
  /// is reserved up front but its slots are constructed only as the tail
  /// first reaches them, so a new ring costs no pass over its memory.  The
  /// tail never wraps before every slot exists, so it is at most
  /// ring.size() when written.
  struct Lane {
    std::vector<Entry> ring;  ///< The slots reached so far.
    std::size_t mask = 0;     ///< Power-of-two capacity - 1.
    std::size_t head = 0;
    std::size_t count = 0;

    const Entry& front() const { return ring[head]; }
    const Entry& back() const { return ring[(head + count - 1) & mask]; }
    /// Writes slot `i`, constructing it if the tail reaches it first.
    void Put(std::size_t i, const Entry& entry) {
      if (i < ring.size()) {
        ring[i] = entry;
      } else {
        ring.push_back(entry);
      }
    }
    void PushBack(const Entry& entry);
    void PopFront() {
      head = (head + 1) & mask;
      --count;
    }
  };

  /// Fill's set-up: throws unless empty(), then rewinds every FIFO to
  /// slot 0 of its ring.
  void BeginFill();
  /// Recomputes min_lane_ over the FIFO heads and the heap top.
  void FindMin();

  std::vector<std::uint8_t> lane_of_;  ///< Per row: FIFO index or kHeap.
  std::vector<Lane> lanes_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::size_t size_ = 0;
  std::uint8_t min_lane_ = kHeap;  ///< Where top() is (valid if !empty()).
};

/// Shared machinery for every shipped policy: a due queue plus the set of
/// outstanding proposals.  Rows come due from the queue, turn into
/// proposals with deadline = due + defer window, and stay outstanding
/// (re-offered every Propose) until granted.  A grant records telemetry and
/// re-arms the row one period after its *due* cycle, so deferral never
/// stretches the retention schedule.  Subclasses supply MakeOp.
///
/// It keeps next_proposal() current: 0 while any proposal is outstanding
/// (re-offered every tick), otherwise the due queue's least cycle.  Every
/// change to either — Propose, OnGrant, RearmOutstanding — recomputes it.
class ProposingPolicy : public RefreshPolicy {
 public:
  void Propose(Cycles now, const DemandView& demand,
               std::vector<RefreshProposal>& out) override;
  void OnGrant(const RefreshProposal& proposal, Cycles at) override;
  std::size_t rows() const override { return periods_.size(); }

  /// Proposals currently offered but not yet granted (tests/inspection).
  std::size_t outstanding() const { return outstanding_.size(); }
  Cycles defer_window() const { return defer_window_; }

 protected:
  /// \param periods      per-row refresh period in cycles (deadlines start
  ///                     staggered across the first period)
  /// \param defer_window cycles a proposal may be deferred past its due
  ///                     cycle before turning urgent (0 = always urgent)
  ProposingPolicy(std::vector<Cycles> periods, Cycles defer_window);

  /// Builds the refresh op for a row coming due (frozen at propose time).
  virtual RefreshOp MakeOp(std::size_t row) = 0;

  /// Charge-aware skip hook, consulted when (row, due) pops: returning a
  /// cycle > due reschedules the row there without proposing a refresh
  /// (VRL-Skip: the row was restored more recently than the schedule
  /// assumed).  Default never skips.
  virtual Cycles SkipUntil(std::size_t row, Cycles due) {
    (void)row;
    (void)due;
    return 0;
  }

  Cycles PeriodOf(std::size_t row) const { return periods_[row]; }

  /// Cancels row's outstanding proposal (if any) and reschedules it at
  /// `at`.  Returns true when a proposal was cancelled (VRL-Skip uses this
  /// when an access restores a row that is already proposed).
  bool RearmOutstanding(std::size_t row, Cycles at);

 private:
  /// Recomputes next_proposal() from the outstanding set and the queue.
  void UpdateNextProposal() {
    set_next_proposal(outstanding_.empty() && !due_.empty() ? due_.top().first
                                                             : 0);
  }

  std::vector<Cycles> periods_;
  Cycles defer_window_;
  DueQueue due_;
  std::vector<RefreshProposal> outstanding_;  ///< Creation order.
};

/// The full-latency baselines: every op restores its row fully at tRFC, at
/// one refresh scope, on a per-row period table.  JEDEC, RAIDR, DARP and
/// SARP differ only in the periods, the scope and the defer window (the
/// registry's table, docs/POLICIES.md).
class FullLatencyPolicy : public ProposingPolicy {
 public:
  /// \param name         Name(): the registry name, the lineage cause label
  /// \param periods      per-row refresh period in cycles
  /// \param trfc_full    tRFC of every op
  /// \param granularity  refresh scope of every op
  /// \param defer_window see ProposingPolicy (0 = always urgent)
  /// \throws vrl::ConfigError on no rows, a zero period or a zero tRFC.
  FullLatencyPolicy(std::string name, std::vector<Cycles> periods,
                    Cycles trfc_full, RefreshGranularity granularity,
                    Cycles defer_window);

  std::string Name() const override { return name_; }

 protected:
  RefreshOp MakeOp(std::size_t row) override {
    return {row, trfc_full_, true, granularity_};
  }

 private:
  std::string name_;
  Cycles trfc_full_;
  RefreshGranularity granularity_;
};

/// VRL-DRAM Algorithm 1.
class VrlPolicy : public ProposingPolicy {
 public:
  /// \param plan        per-row periods + MPRSF values (already nbits-capped)
  /// \param trfc_full   τ_full in cycles
  /// \param trfc_partial τ_partial in cycles
  VrlPolicy(RowRefreshPlan plan, Cycles trfc_full, Cycles trfc_partial)
      : VrlPolicy(std::move(plan), trfc_full, trfc_partial, 0) {}

  std::string Name() const override { return "VRL"; }

  /// Current partial-refresh counter of a row (tests/inspection).
  std::uint8_t RefreshCount(std::size_t row) const { return rcount_[row]; }

 protected:
  /// The same ladder with deferrable proposals (VRL-Skip).
  VrlPolicy(RowRefreshPlan plan, Cycles trfc_full, Cycles trfc_partial,
            Cycles defer_window);

  /// Algorithm 1: a full refresh when the row's counter has reached its
  /// MPRSF, a partial refresh otherwise.
  RefreshOp MakeOp(std::size_t row) override;
  /// Steps the granted row's counter (reset after a full, count a partial).
  void OnGrant(const RefreshProposal& proposal, Cycles at) override;

  std::vector<std::uint8_t> rcount_;  ///< Partial refreshes since a full.

 private:
  std::vector<std::uint8_t> mprsf_;
  Cycles trfc_full_;
  Cycles trfc_partial_;
};

/// VRL-Access: Algorithm 1 plus counter reset on row activation.
class VrlAccessPolicy : public VrlPolicy {
 public:
  using VrlPolicy::VrlPolicy;

  void OnRowAccess(std::size_t row) override;
  std::string Name() const override { return "VRL-Access"; }
};

/// VRL-Access generalized into a charge-aware scheduler hint: the VRL
/// full/partial ladder and access reset, plus per-row restore tracking.  A
/// row restored (accessed or refreshed) more recently than its scheduled due
/// cycle skips the refresh entirely and reschedules one period after the
/// restore; live proposals are deferrable like SARP's.  Skips are counted in
/// the `policy.skipped_refreshes` telemetry counter.
class VrlSkipPolicy : public VrlAccessPolicy {
 public:
  VrlSkipPolicy(RowRefreshPlan plan, Cycles trfc_full, Cycles trfc_partial,
                Cycles defer_window);

  void OnRowAccess(std::size_t row) override;
  std::string Name() const override { return "VRL-Skip"; }

  std::uint64_t skipped() const { return skipped_; }

 protected:
  Cycles SkipUntil(std::size_t row, Cycles due) override;
  void OnGrant(const RefreshProposal& proposal, Cycles at) override;
  void OnTelemetryAttached() override;

 private:
  static constexpr Cycles kNeverRestored = ~Cycles{0};

  void CountSkip();

  /// Cycle of the last full restore (access or granted refresh);
  /// kNeverRestored until the first one, keeping the staggered initial
  /// schedule authoritative.
  std::vector<Cycles> last_restore_;
  std::uint64_t skipped_ = 0;
  telemetry::Counter* skipped_cell_ = nullptr;
};

}  // namespace vrl::dram
