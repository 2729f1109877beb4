#pragma once

// Shared test helpers: one refresh tick through the propose/grant contract.

#include <vector>

#include "common/units.hpp"
#include "dram/refresh_policy.hpp"
#include "dram/scheduler.hpp"

namespace vrl {

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
