#pragma once

// Shared test helpers: the full-latency baselines as the policy registry
// builds them, and one refresh tick through the propose/grant contract.

#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "dram/refresh_policy.hpp"
#include "dram/scheduler.hpp"

namespace vrl {

/// JEDEC: every row each `window`, subarray scope, never deferred.
inline dram::FullLatencyPolicy Jedec(std::size_t rows, Cycles window,
                                     Cycles trfc) {
  return {"JEDEC", std::vector<Cycles>(rows, window), trfc,
          dram::RefreshGranularity::kSubarray, 0};
}

/// RAIDR: the plan's binned periods, subarray scope, never deferred.
inline dram::FullLatencyPolicy Raidr(const dram::RowRefreshPlan& plan,
                                     Cycles trfc) {
  return {"RAIDR", plan.period_cycles, trfc,
          dram::RefreshGranularity::kSubarray, 0};
}

/// DARP: every row each `window` as per-bank REFpb, deferrable by `defer`.
inline dram::FullLatencyPolicy Darp(std::size_t rows, Cycles window,
                                    Cycles trfc, Cycles defer) {
  return {"DARP", std::vector<Cycles>(rows, window), trfc,
          dram::RefreshGranularity::kPerBank, defer};
}

/// SARP: every row each `window` at subarray scope, deferrable by `defer`.
inline dram::FullLatencyPolicy Sarp(std::size_t rows, Cycles window,
                                    Cycles trfc, Cycles defer) {
  return {"SARP", std::vector<Cycles>(rows, window), trfc,
          dram::RefreshGranularity::kSubarray, defer};
}

/// dram::GrantRefreshes with fresh buffers, returning the granted ops.
inline std::vector<dram::RefreshOp> Grant(
    dram::RefreshPolicy& policy, const dram::RefreshGrantContext& ctx,
    dram::RefreshGrantStats* stats = nullptr) {
  std::vector<dram::RefreshProposal> proposals;
  std::vector<dram::RefreshOp> ops;
  dram::GrantRefreshes(policy, ctx, stats, ops, proposals);
  return ops;
}

/// Grants `policy`'s proposals at `now` with no bank context, so every
/// proposal is granted on the spot (the campaign/integrity replay).
inline std::vector<dram::RefreshOp> GrantAll(dram::RefreshPolicy& policy,
                                             Cycles now) {
  dram::RefreshGrantContext ctx;
  ctx.now = now;
  ctx.demand.now = now;
  return Grant(policy, ctx);
}

}  // namespace vrl
