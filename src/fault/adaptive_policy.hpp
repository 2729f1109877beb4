#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "dram/refresh_policy.hpp"

/// \file adaptive_policy.hpp
/// Adaptive refresh degradation: the controller's reaction to online
/// sensing-failure detection.
///
/// VRL-DRAM's schedule is only as good as its retention profile, and real
/// DRAM violates the profile at runtime (VRT, temperature, aging — see
/// fault/injector.hpp).  AdaptiveVrlPolicy wraps any RefreshPolicy and
/// degrades gracefully instead of silently losing data:
///
///  * Row demotion ladder — on a detected sensing failure the row is
///    demoted one level (each level halves its MPRSF until it reaches 0,
///    then halves its refresh period, floored at `min_period`) and an
///    immediate full refresh is forced.  Demoted rows are scheduled by the
///    wrapper; the inner policy's proposals for them are suppressed.
///  * Re-promotion — a demoted row that stays failure-free for
///    `promote_after_clean_windows` base windows is promoted one level at
///    its next clean full refresh; at level 0 the inner policy resumes.
///  * Bank fallback — when detected failures within one base window reach
///    `fallback_enter_failures`, the whole bank falls back to the JEDEC
///    full-rate baseline (every row, full latency, base window).  The bank
///    returns to VRL only after `fallback_exit_clean_windows` consecutive
///    failure-free windows (hysteresis).  Demoted rows keep their own
///    (faster) schedules even in fallback.
///
/// The wrapper keeps next_proposal() current, so a campaign skips the
/// ticks on which neither it nor the inner policy has anything due.
///
/// Detection is fed by the failure monitor (fault::RunCampaign): every
/// executed refresh senses the row, and the monitor reports the outcome via
/// OnSensingFailure / OnCleanFullRefresh — the simulator analogue of an
/// ECC-scrub detecting a weak read.

namespace vrl::fault {

struct AdaptiveParams {
  /// Failure-free base windows before a demoted row is promoted one level.
  std::size_t promote_after_clean_windows = 4;
  /// Detected failures within one base window that trigger bank fallback
  /// (0 disables fallback).
  std::size_t fallback_enter_failures = 64;
  /// Consecutive failure-free base windows required to leave fallback.
  std::size_t fallback_exit_clean_windows = 4;

  void Validate() const;
};

/// Counters of the degradation state machine (surfaced through campaign
/// reports and VrlSystem::RunFaultCampaign).
struct AdaptiveStats {
  std::size_t failures_signalled = 0;
  std::size_t demotions = 0;
  std::size_t promotions = 0;
  std::size_t forced_full_refreshes = 0;
  std::size_t fallback_entries = 0;
  std::size_t fallback_exits = 0;
  std::size_t saturated_failures = 0;  ///< Failures with no demotion left.
  std::size_t rows_demoted_now = 0;
  bool in_fallback = false;

  bool operator==(const AdaptiveStats&) const = default;
};

/// What the controller could still do about a detected sensing failure.
enum class FailureResponse {
  kCorrected,  ///< ECC write-back + demotion + forced full refresh.
  kSaturated,  ///< Row already at maximum degradation — unrecoverable.
};

class AdaptiveVrlPolicy : public dram::RefreshPolicy {
 public:
  /// \param inner       the wrapped policy (owns scheduling of healthy rows)
  /// \param base_plan   per-row base periods (+ MPRSF; may be empty, then
  ///                    treated as 0) the demotion ladder starts from
  /// \param base_window base refresh window (fallback rate, window length)
  /// \param min_period  demotion-period floor, e.g. tREFI
  AdaptiveVrlPolicy(std::unique_ptr<dram::RefreshPolicy> inner,
                    dram::RowRefreshPlan base_plan, Cycles trfc_full,
                    Cycles trfc_partial, Cycles base_window,
                    Cycles min_period, AdaptiveParams params = {});

  /// Proposes forced write-backs first, then demoted rows' schedules, then
  /// the inner policy's proposals (or, in fallback, the full-rate
  /// baseline).  Every proposal is urgent.
  void Propose(Cycles now, const dram::DemandView& demand,
               std::vector<dram::RefreshProposal>& out) override;
  /// Records the op; forwards the grant of a forwarded inner proposal.
  void OnGrant(const dram::RefreshProposal& proposal, Cycles at) override;
  void OnRowAccess(std::size_t row) override;
  std::string Name() const override { return "Adaptive(" + inner_->Name() + ")"; }
  std::size_t rows() const override { return inner_->rows(); }

  // -- Detection feed ---------------------------------------------------------

  /// A refresh of `row` failed to sense at cycle `now`.  Demotes the row
  /// and forces an immediate full refresh; updates the bank failure-rate
  /// window and may enter fallback.
  FailureResponse OnSensingFailure(std::size_t row, Cycles now);

  /// A full refresh of `row` sensed cleanly at cycle `now` — the promotion
  /// opportunity for demoted rows.
  void OnCleanFullRefresh(std::size_t row, Cycles now);

  // -- Inspection -------------------------------------------------------------

  AdaptiveStats stats() const;
  bool InFallback() const { return in_fallback_; }
  /// Demotion-ladder level of a row (0 = healthy, inner policy schedules).
  std::size_t DemotionLevel(std::size_t row) const;
  /// Effective (mprsf, period) of a demoted row.
  /// \throws vrl::ConfigError when the row is not demoted.
  std::pair<std::uint8_t, Cycles> DemotedSetting(std::size_t row) const;

 protected:
  /// The wrapper records the ops *it* returns (the executed schedule);
  /// the inner policy stays detached so its suppressed proposals (demoted
  /// rows, fallback) never inflate the `policy.*` metrics.  Also resolves
  /// the `adaptive.*` cells.
  void OnTelemetryAttached() override;

 private:
  struct DemotedRow {
    std::size_t level = 0;
    std::uint8_t mprsf = 0;
    Cycles period = 0;
    std::uint8_t rcount = 0;
    std::uint64_t generation = 0;  ///< Lazy-delete tag for queue entries.
    std::size_t last_event_window = 0;
  };
  using DemotedQueue =
      std::priority_queue<std::tuple<Cycles, std::size_t, std::uint64_t>,
                          std::vector<std::tuple<Cycles, std::size_t,
                                                 std::uint64_t>>,
                          std::greater<>>;
  /// Full-rate (next-due cycle, row) schedule of the fallback mode.
  using FallbackQueue =
      std::priority_queue<std::pair<Cycles, std::size_t>,
                          std::vector<std::pair<Cycles, std::size_t>>,
                          std::greater<>>;

  /// Processes base-window boundaries up to `now`: failure-rate reset and
  /// fallback exit hysteresis.
  void RollWindows(Cycles now);
  /// Recomputes next_proposal(): 0 while a forced write-back is pending or
  /// in flight, or in fallback; otherwise the earliest of the inner
  /// policy's next_proposal(), the demoted queue's top and the next
  /// base-window boundary.  Called after every change to any of them.
  void UpdateNextProposal();
  /// (mprsf, period) after `level` demotions from the row's base setting;
  /// false when the ladder is exhausted (period would drop below the floor).
  bool SettingAtLevel(std::size_t row, std::size_t level,
                      std::uint8_t* mprsf, Cycles* period) const;
  void EnterFallback(Cycles now);
  void CheckRow(std::size_t row) const;

  std::unique_ptr<dram::RefreshPolicy> inner_;
  dram::RowRefreshPlan plan_;
  Cycles trfc_full_;
  Cycles trfc_partial_;
  Cycles base_window_;
  Cycles min_period_;
  AdaptiveParams params_;

  std::unordered_map<std::size_t, DemotedRow> demoted_;
  DemotedQueue demoted_due_;
  std::uint64_t next_generation_ = 1;

  std::vector<std::size_t> pending_forced_;
  std::vector<bool> pending_forced_flag_;
  /// Proposals of the latest Propose awaiting their grant: forced
  /// write-backs (counted at grant) and forwarded inner proposals.
  std::vector<std::size_t> forced_in_flight_;
  std::vector<dram::RefreshProposal> forwarded_;
  /// The inner policy's proposals of the latest Propose (reused buffer).
  std::vector<dram::RefreshProposal> inner_proposals_;

  bool in_fallback_ = false;
  FallbackQueue fallback_due_;
  std::size_t current_window_ = 0;
  std::size_t failures_this_window_ = 0;
  std::size_t clean_fallback_windows_ = 0;

  AdaptiveStats stats_;

  // Telemetry cells resolved by OnTelemetryAttached (null when detached).
  telemetry::Counter* demotions_ = nullptr;
  telemetry::Counter* promotions_ = nullptr;
  telemetry::Counter* forced_fulls_ = nullptr;
  telemetry::Counter* saturated_ = nullptr;
};

}  // namespace vrl::fault
