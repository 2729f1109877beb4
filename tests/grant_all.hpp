#pragma once

// Shared test helpers: the full-latency baselines as the policy registry
// builds them, one refresh tick through the propose/grant contract, and a
// wrapper that switches off a policy's idle-tick skip.

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
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

/// Forwards every call to the wrapped policy but keeps next_proposal() at
/// 0, so a controller or a campaign asks it on every tick.  Counts the
/// Propose calls it forwards.
class AskEveryTick : public dram::RefreshPolicy {
 public:
  explicit AskEveryTick(std::unique_ptr<dram::RefreshPolicy> inner)
      : inner_(std::move(inner)) {}

  void Propose(Cycles now, const dram::DemandView& demand,
               std::vector<dram::RefreshProposal>& out) override {
    ++proposes_;
    inner_->Propose(now, demand, out);
  }
  void OnGrant(const dram::RefreshProposal& proposal, Cycles at) override {
    inner_->OnGrant(proposal, at);
  }
  void OnDefer(const dram::RefreshProposal& proposal) override {
    inner_->OnDefer(proposal);
  }
  void OnRowAccess(std::size_t row) override { inner_->OnRowAccess(row); }
  std::string Name() const override { return inner_->Name(); }
  std::size_t rows() const override { return inner_->rows(); }

  std::size_t proposes() const { return proposes_; }

 private:
  std::unique_ptr<dram::RefreshPolicy> inner_;
  std::size_t proposes_ = 0;
};

/// Forwards every call to the wrapped policy and reports its
/// next_proposal(), so a caller skips the ticks the wrapped policy would
/// skip.  Counts the Propose calls that reach it.
class CountProposes : public dram::RefreshPolicy {
 public:
  explicit CountProposes(std::unique_ptr<dram::RefreshPolicy> inner)
      : inner_(std::move(inner)) {
    Sync();
  }

  void Propose(Cycles now, const dram::DemandView& demand,
               std::vector<dram::RefreshProposal>& out) override {
    ++proposes_;
    inner_->Propose(now, demand, out);
    Sync();
  }
  void OnGrant(const dram::RefreshProposal& proposal, Cycles at) override {
    inner_->OnGrant(proposal, at);
    Sync();
  }
  void OnDefer(const dram::RefreshProposal& proposal) override {
    inner_->OnDefer(proposal);
    Sync();
  }
  void OnRowAccess(std::size_t row) override {
    inner_->OnRowAccess(row);
    Sync();
  }
  std::string Name() const override { return inner_->Name(); }
  std::size_t rows() const override { return inner_->rows(); }

  std::size_t proposes() const { return proposes_; }

 private:
  void Sync() { set_next_proposal(inner_->next_proposal()); }

  std::unique_ptr<dram::RefreshPolicy> inner_;
  std::size_t proposes_ = 0;
};

}  // namespace vrl
