#pragma once

// Shared test helper: one refresh tick through the propose/grant contract.

#include <vector>

#include "common/units.hpp"
#include "dram/refresh_policy.hpp"
#include "dram/scheduler.hpp"

namespace vrl {

/// Grants `policy`'s proposals at `now` with no bank context, so every
/// proposal is granted on the spot (the campaign/integrity replay).
inline std::vector<dram::RefreshOp> GrantAll(dram::RefreshPolicy& policy,
                                             Cycles now) {
  dram::RefreshGrantContext ctx;
  ctx.now = now;
  ctx.demand.now = now;
  return dram::GrantRefreshes(policy, ctx);
}

}  // namespace vrl
