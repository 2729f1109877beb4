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
                              const std::vector<Request>& pending,
                              std::optional<std::size_t> open_row) {
  if (pending.empty()) {
    throw ConfigError("SelectNextRequest: no pending requests");
  }
  if (kind == SchedulerKind::kFcfs || !open_row.has_value()) {
    return 0;  // oldest
  }
  // FR-FCFS: oldest row hit, else oldest overall.
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (pending[i].row == *open_row) {
      return i;
    }
  }
  return 0;
}

std::size_t SelectNextRequest(SchedulerKind kind,
                              std::span<const RequestSlot> pending,
                              const Bank& bank) {
  if (pending.empty()) {
    throw ConfigError("SelectNextRequest: no pending requests");
  }
  if (kind == SchedulerKind::kFcfs) {
    return 0;
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (!pending[i].served && bank.IsRowOpen(pending[i].row)) {
      return i;
    }
  }
  return 0;
}

namespace {

/// Would granting `op` at `now` collide with the next demand request?
bool CollidesWithDemand(const RefreshOp& op, const RefreshGrantContext& ctx) {
  if (op.granularity == RefreshGranularity::kSubarray) {
    // Only demand to the refreshed subarray waits behind the refresh.
    const std::size_t sub = ctx.bank->SubarrayOf(op.row);
    if (ctx.bank->SubarrayOf(ctx.demand.next_row) != sub) {
      return false;
    }
    const Cycles start = std::max(ctx.now, ctx.bank->SubarrayBusyUntil(sub));
    return ctx.demand.next_arrival < start + op.trfc;
  }
  // Bank-level refresh blocks every subarray.
  Cycles start = ctx.now;
  for (std::size_t s = 0; s < ctx.bank->subarray_count(); ++s) {
    start = std::max(start, ctx.bank->SubarrayBusyUntil(s));
  }
  return ctx.demand.next_arrival < start + op.trfc;
}

}  // namespace

void GrantRefreshes(RefreshPolicy& policy, const RefreshGrantContext& ctx,
                    RefreshGrantStats* stats, std::vector<RefreshOp>& ops,
                    std::vector<RefreshProposal>& proposals) {
  ops.clear();
  policy.Propose(ctx.now, ctx.demand, proposals);
  for (const RefreshProposal& proposal : proposals) {
    const bool urgent = proposal.urgent || ctx.now >= proposal.deadline;
    if (stats != nullptr) {
      ++stats->proposals;
      if (!urgent) {
        ++stats->nonurgent_proposals;
      }
    }
    bool defer = false;
    if (!urgent && ctx.bank != nullptr) {
      if (ctx.demand.has_next && CollidesWithDemand(proposal.op, ctx)) {
        defer = true;
      } else if (proposal.op.granularity == RefreshGranularity::kPerBank &&
                 ctx.engine != nullptr &&
                 ctx.engine->PeekActivate(ctx.addr, ctx.now) > ctx.now) {
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
