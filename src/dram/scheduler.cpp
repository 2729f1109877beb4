#include "dram/scheduler.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "dram/bank.hpp"
#include "dram/policy_registry.hpp"

namespace vrl::dram {

std::string SchedulerName(SchedulerKind kind) {
  for (const SchedulerInfo& entry : SchedulerEntries()) {
    if (entry.kind == kind) {
      return entry.name;
    }
  }
  return "?";
}

SchedulerKind SchedulerFromName(std::string_view name) {
  const std::string canon = CanonicalPolicyToken(name);
  std::string known;
  for (const SchedulerInfo& entry : SchedulerEntries()) {
    if (CanonicalPolicyToken(entry.name) == canon) {
      return entry.kind;
    }
    if (!known.empty()) {
      known += ", ";
    }
    known += entry.name;
  }
  throw ConfigError("SchedulerFromName: unknown scheduler '" +
                    std::string(name) + "' (expected one of: " + known + ")");
}

std::size_t SelectNextRequest(SchedulerKind kind,
                              std::span<const RequestSlot> pending,
                              std::span<const std::uint8_t> served,
                              const Bank& bank) {
  if (pending.empty()) {
    throw ConfigError("SelectNextRequest: no pending requests");
  }
  if (kind == SchedulerKind::kFcfs) {
    return 0;
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (served[i] == 0 && bank.IsRowOpen(pending[i].row())) {
      return i;
    }
  }
  return 0;
}

namespace {

/// The bank-level probes of one GrantRefreshes call.  No grant executes
/// before the call returns, so the bank's subarrays and the engine's
/// activation windows look the same to every proposal of the call: each
/// probe runs at most once, on the first proposal that needs it.
class GrantProbes {
 public:
  explicit GrantProbes(const RefreshGrantContext& ctx) : ctx_(ctx) {}

  /// Would granting `op` at `now` collide with the next demand request?
  bool CollidesWithDemand(const RefreshOp& op) {
    if (op.granularity == RefreshGranularity::kSubarray) {
      // Only demand to the refreshed subarray waits behind the refresh.
      const std::size_t sub = ctx_.bank->SubarrayOf(op.row);
      if (ctx_.bank->SubarrayOf(ctx_.demand.next_row) != sub) {
        return false;
      }
      const Cycles start =
          std::max(ctx_.now, ctx_.bank->SubarrayBusyUntil(sub));
      return ctx_.demand.next_arrival < start + op.trfc;
    }
    // Bank-level refresh blocks every subarray.
    return ctx_.demand.next_arrival < BankStart() + op.trfc;
  }

  /// Would the rank's ACT windows (tRRD/tFAW) stall a REFpb at `now`?
  bool ActWindowClosed() {
    if (!act_probed_) {
      act_closed_ = ctx_.engine->PeekActivate(ctx_.addr, ctx_.now) > ctx_.now;
      act_probed_ = true;
    }
    return act_closed_;
  }

 private:
  /// First cycle every subarray of the bank is free, from `now` on.
  Cycles BankStart() {
    if (!bank_probed_) {
      bank_start_ = ctx_.now;
      for (std::size_t s = 0; s < ctx_.bank->subarray_count(); ++s) {
        bank_start_ = std::max(bank_start_, ctx_.bank->SubarrayBusyUntil(s));
      }
      bank_probed_ = true;
    }
    return bank_start_;
  }

  const RefreshGrantContext& ctx_;
  bool bank_probed_ = false;
  Cycles bank_start_ = 0;
  bool act_probed_ = false;
  bool act_closed_ = false;
};

}  // namespace

void GrantRefreshes(RefreshPolicy& policy, const RefreshGrantContext& ctx,
                    RefreshGrantStats* stats, std::vector<RefreshOp>& ops,
                    std::vector<RefreshProposal>& proposals) {
  ops.clear();
  policy.Propose(ctx.now, ctx.demand, proposals);
  GrantProbes probes(ctx);
  for (const RefreshProposal& proposal : proposals) {
    const bool urgent = ctx.now >= proposal.deadline;
    if (stats != nullptr) {
      ++stats->proposals;
      if (!urgent) {
        ++stats->nonurgent_proposals;
      }
    }
    bool defer = false;
    if (!urgent && ctx.bank != nullptr) {
      if (ctx.demand.has_next && probes.CollidesWithDemand(proposal.op)) {
        defer = true;
      } else if (proposal.op.granularity == RefreshGranularity::kPerBank &&
                 ctx.engine != nullptr && probes.ActWindowClosed()) {
        // The rank's ACT windows (tRRD/tFAW) would stall this REFpb; try
        // again next tick instead of queueing behind demand ACTs.
        defer = true;
      }
    }
    if (defer) {
      policy.OnDefer(proposal);
      if (stats != nullptr) {
        ++stats->deferred;
      }
      continue;
    }
    policy.OnGrant(proposal, ctx.now);
    ops.push_back(proposal.op);
    if (stats != nullptr) {
      ++stats->granted;
      if (urgent && proposal.deadline > proposal.due) {
        // Deadline-forced grant of a genuinely deferrable proposal (with a
        // defer window of 0 the deadline equals the due cycle: not counted).
        // A high count means the defer window never found an idle gap.
        ++stats->urgent_grants;
      }
    }
  }
}

}  // namespace vrl::dram
