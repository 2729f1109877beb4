#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dram/refresh_policy.hpp"
#include "dram/request.hpp"
#include "dram/topology.hpp"

/// \file scheduler.hpp
/// Request scheduling disciplines for the memory controller.
///
///  * FCFS    — strict arrival order (simple, predictable).
///  * FR-FCFS — first-ready, first-come-first-served (Rixner et al., ISCA
///    2000): among the requests that have arrived, prefer ones hitting the
///    currently open row (they are "ready" — no precharge/activate needed),
///    oldest first within each class.  This is the standard high-throughput
///    open-page discipline and raises the row-buffer hit rate, which also
///    matters to VRL-Access (each activation resets a partial-refresh
///    counter; hits do not re-activate).
///
/// The refresh side of scheduling lives here too: GrantRefreshes is phase
/// two of the propose/grant refresh contract (refresh_policy.hpp,
/// docs/POLICIES.md) — it arbitrates a policy's proposals against the
/// demand queue and the hierarchy's constraint engine.

namespace vrl::dram {

enum class SchedulerKind { kFcfs, kFrFcfs };

/// Human-readable scheduler name.
std::string SchedulerName(SchedulerKind kind);

/// Round-trip inverse of SchedulerName.  Case-insensitive; '-' and '_' are
/// interchangeable and ignorable ("fr-fcfs", "FR_FCFS" and "frfcfs" all
/// parse).  \throws vrl::ConfigError on an unknown name.
SchedulerKind SchedulerFromName(std::string_view name);

/// Picks the next request to service from a bank's request stream,
/// consulting the bank's row buffers directly (covers banks with multiple
/// subarrays, each with its own open row): FCFS takes the oldest, FR-FCFS
/// the oldest open-row hit, else the oldest.  `pending` (non-empty) runs
/// from the oldest pending slot (unserved, the FCFS pick) to the first
/// slot not yet arrived;
/// `served` marks, in parallel with `pending`, the slots inside it already
/// served out of order, which are skipped.  FCFS never serves out of order
/// and reads no marks (`served` may be empty).  Returns the pick's offset
/// into `pending`.
std::size_t SelectNextRequest(SchedulerKind kind,
                              std::span<const RequestSlot> pending,
                              std::span<const std::uint8_t> served,
                              const Bank& bank);

/// Grant accounting across one run, exported by the controller as
/// `dram.refresh.*` telemetry when a scheduler-coupled policy was active
/// (i.e. at least one non-urgent proposal was seen — policies with a defer
/// window of 0 propose only urgent work and leave the export untouched).
struct RefreshGrantStats {
  std::uint64_t proposals = 0;
  std::uint64_t nonurgent_proposals = 0;
  std::uint64_t granted = 0;
  std::uint64_t deferred = 0;
  std::uint64_t urgent_grants = 0;  ///< Grants forced by a deadline.
};

/// Everything the grant decision may consult.  `bank`, `engine` and `addr`
/// are optional: without a bank there is no collision probe and every
/// proposal is granted on the tick it is proposed (the campaign and
/// integrity replays); without an engine the REFpb activation-window probe
/// is skipped.
struct RefreshGrantContext {
  Cycles now = 0;
  DemandView demand;
  const Bank* bank = nullptr;
  const ConstraintEngine* engine = nullptr;
  BankAddress addr;
};

/// Phase two of the propose/grant refresh contract: asks `policy` for its
/// proposals at `ctx.now` and grants or defers each one.
///
/// Grant rules, per proposal:
///  - urgent (deadline reached) — always granted; the retention schedule
///    outranks demand.
///  - non-urgent, demand imminent — deferred when the next demand request
///    would arrive before the refresh completes *and* would collide with
///    it: any demand collides with a bank-level refresh (kPerBank /
///    kAllBank), only same-subarray demand collides with a kSubarray
///    refresh (SARP's parallelism).
///  - non-urgent REFpb, activation window closed — deferred when the
///    constraint engine's PeekActivate cannot issue it at `ctx.now`
///    (tRRD/tFAW pressure from demand ACTs).
///  - otherwise granted.
///
/// Granted proposals reach `policy.OnGrant` (telemetry + re-arm) and their
/// ops replace the contents of `ops`, in proposal order; deferred ones reach
/// `policy.OnDefer` and stay outstanding inside the policy.  `stats` may be
/// null.  `proposals` is the scratch buffer `policy.Propose` fills.  The
/// caller owns both buffers and reuses them across ticks, so a tick
/// allocates nothing once they have grown to their working size.
void GrantRefreshes(RefreshPolicy& policy, const RefreshGrantContext& ctx,
                    RefreshGrantStats* stats, std::vector<RefreshOp>& ops,
                    std::vector<RefreshProposal>& proposals);

}  // namespace vrl::dram
