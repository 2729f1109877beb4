#include "fault/adaptive_policy.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/recorder.hpp"

namespace vrl::fault {

void AdaptiveParams::Validate() const {
  if (promote_after_clean_windows == 0) {
    throw ConfigError("AdaptiveParams: promote_after_clean_windows >= 1");
  }
  if (fallback_exit_clean_windows == 0) {
    throw ConfigError("AdaptiveParams: fallback_exit_clean_windows >= 1");
  }
}

AdaptiveVrlPolicy::AdaptiveVrlPolicy(
    std::unique_ptr<dram::RefreshPolicy> inner,
    dram::RowRefreshPlan base_plan, Cycles trfc_full, Cycles trfc_partial,
    Cycles base_window, Cycles min_period, AdaptiveParams params)
    : inner_(std::move(inner)),
      plan_(std::move(base_plan)),
      trfc_full_(trfc_full),
      trfc_partial_(trfc_partial),
      base_window_(base_window),
      min_period_(min_period),
      params_(params) {
  params_.Validate();
  if (!inner_) {
    throw ConfigError("AdaptiveVrlPolicy: null inner policy");
  }
  if (plan_.period_cycles.size() != inner_->rows()) {
    throw ConfigError(
        "AdaptiveVrlPolicy: base plan row count does not match the policy");
  }
  if (!plan_.mprsf.empty() &&
      plan_.mprsf.size() != plan_.period_cycles.size()) {
    throw ConfigError("AdaptiveVrlPolicy: malformed base plan MPRSF");
  }
  if (trfc_partial_ == 0 || trfc_partial_ >= trfc_full_) {
    throw ConfigError("AdaptiveVrlPolicy: need 0 < tau_partial < tau_full");
  }
  if (base_window_ == 0 || min_period_ == 0 || min_period_ > base_window_) {
    throw ConfigError(
        "AdaptiveVrlPolicy: need 0 < min_period <= base_window");
  }
  pending_forced_flag_.assign(inner_->rows(), false);
}

void AdaptiveVrlPolicy::CheckRow(std::size_t row) const {
  if (row >= inner_->rows()) {
    throw ConfigError("AdaptiveVrlPolicy: row " + std::to_string(row) +
                      " out of range");
  }
}

void AdaptiveVrlPolicy::OnTelemetryAttached() {
  if (telemetry() == nullptr) {
    demotions_ = nullptr;
    promotions_ = nullptr;
    forced_fulls_ = nullptr;
    saturated_ = nullptr;
    return;
  }
  demotions_ = &telemetry()->counter("adaptive.demotions");
  promotions_ = &telemetry()->counter("adaptive.promotions");
  forced_fulls_ = &telemetry()->counter("adaptive.forced_full_refreshes");
  saturated_ = &telemetry()->counter("adaptive.saturated_failures");
}

void AdaptiveVrlPolicy::RollWindows(Cycles now) {
  const auto window = static_cast<std::size_t>(now / base_window_);
  while (current_window_ < window) {
    if (in_fallback_) {
      if (failures_this_window_ == 0) {
        ++clean_fallback_windows_;
        if (clean_fallback_windows_ >= params_.fallback_exit_clean_windows) {
          in_fallback_ = false;
          ++stats_.fallback_exits;
          fallback_due_ = FallbackQueue();
          if (telemetry() != nullptr) {
            telemetry()->counter("adaptive.fallback_exits").Add();
            lineage()->Add(
                {telemetry::EventKind::kFallbackExit, now, 0, cause_label(),
                 static_cast<std::int64_t>(clean_fallback_windows_), 0.0});
          }
        }
      } else {
        clean_fallback_windows_ = 0;
      }
    }
    failures_this_window_ = 0;
    ++current_window_;
  }
}

bool AdaptiveVrlPolicy::SettingAtLevel(std::size_t row, std::size_t level,
                                       std::uint8_t* mprsf,
                                       Cycles* period) const {
  std::size_t m = plan_.mprsf.empty() ? 0 : plan_.mprsf[row];
  Cycles p = plan_.period_cycles[row];
  for (std::size_t i = 0; i < level; ++i) {
    if (m > 0) {
      m /= 2;
      continue;
    }
    if (p / 2 < min_period_) {
      return false;
    }
    p /= 2;
  }
  *mprsf = static_cast<std::uint8_t>(m);
  *period = p;
  return true;
}

void AdaptiveVrlPolicy::EnterFallback(Cycles now) {
  in_fallback_ = true;
  ++stats_.fallback_entries;
  if (telemetry() != nullptr) {
    telemetry()->counter("adaptive.fallback_entries").Add();
    lineage()->Add({telemetry::EventKind::kFallbackEnter, now, 0,
                    cause_label(),
                    static_cast<std::int64_t>(failures_this_window_), 0.0});
  }
  clean_fallback_windows_ = 0;
  fallback_due_ = FallbackQueue();
  const auto n = static_cast<Cycles>(inner_->rows());
  for (Cycles r = 0; r < n; ++r) {
    // Staggered like the steady-state policies so the full-rate refreshes
    // spread over the window instead of bursting.
    fallback_due_.emplace(now + base_window_ * r / n,
                          static_cast<std::size_t>(r));
  }
}

void AdaptiveVrlPolicy::Propose(Cycles now, const dram::DemandView& demand,
                                std::vector<dram::RefreshProposal>& out) {
  RequireMonotonicNow(now);
  RollWindows(now);
  forced_in_flight_.clear();
  forwarded_.clear();
  out.clear();
  // Every proposal is urgent (deadline = due): the scheduler grants them
  // all on this tick, and OnGrant records each one.
  const auto propose = [&out](dram::RefreshOp op, Cycles due) {
    out.push_back({op, due, due});
  };

  // Recovery write-backs outrank scheduled work.
  for (const std::size_t row : pending_forced_) {
    propose({row, trfc_full_, true}, now);
    pending_forced_flag_[row] = false;
    forced_in_flight_.push_back(row);
  }
  pending_forced_.clear();

  // Demoted rows run on wrapper-owned schedules (lazy-deleted by
  // generation tag when the row is promoted or re-demoted).
  while (!demoted_due_.empty() && std::get<0>(demoted_due_.top()) <= now) {
    const auto [when, row, generation] = demoted_due_.top();
    demoted_due_.pop();
    const auto it = demoted_.find(row);
    if (it == demoted_.end() || it->second.generation != generation) {
      continue;
    }
    auto& demoted = it->second;
    const bool full = demoted.rcount >= demoted.mprsf;
    propose({row, full ? trfc_full_ : trfc_partial_, full}, when);
    demoted.rcount =
        full ? std::uint8_t{0} : static_cast<std::uint8_t>(demoted.rcount + 1);
    demoted_due_.emplace(when + demoted.period, row, generation);
  }

  // The inner policy keeps ticking even in fallback so its per-row phases
  // stay aligned for re-entry.  Proposals the wrapper suppresses (demoted
  // rows, everything in fallback) are granted to it right here; forwarded
  // ones are granted when the wrapper's own grant arrives.
  inner_->Propose(now, demand, inner_proposals_);
  for (const dram::RefreshProposal& inner : inner_proposals_) {
    if (in_fallback_ || demoted_.find(inner.op.row) != demoted_.end()) {
      inner_->OnGrant(inner, now);
    } else {
      // The wrapper records forwarded ops with slack 0 (due = now); the
      // inner proposal keeps its own due cycle for the inner re-arm.
      propose(inner.op, now);
      forwarded_.push_back(inner);
    }
  }
  if (in_fallback_) {
    while (!fallback_due_.empty() && fallback_due_.top().first <= now) {
      const auto [when, row] = fallback_due_.top();
      fallback_due_.pop();
      fallback_due_.emplace(when + base_window_, row);
      if (demoted_.find(row) != demoted_.end()) {
        continue;  // has its own, faster schedule
      }
      propose({row, trfc_full_, true}, when);
    }
  }
  UpdateNextProposal();
}

void AdaptiveVrlPolicy::UpdateNextProposal() {
  if (in_fallback_ || !pending_forced_.empty() ||
      !forced_in_flight_.empty()) {
    set_next_proposal(0);
    return;
  }
  // The next base-window boundary keeps RollWindows on time; a stale
  // demoted-queue entry only brings a Propose forward.
  Cycles next = base_window_ * static_cast<Cycles>(current_window_ + 1);
  next = std::min(next, inner_->next_proposal());
  if (!demoted_due_.empty()) {
    next = std::min(next, std::get<0>(demoted_due_.top()));
  }
  set_next_proposal(next);
}

void AdaptiveVrlPolicy::OnGrant(const dram::RefreshProposal& proposal,
                                Cycles at) {
  const std::size_t row = proposal.op.row;
  RecordOp(proposal.op, at, proposal.due);
  // A row can be proposed twice on one tick (a forced write-back, then its
  // demoted or forwarded schedule); grants arrive in proposal order, so the
  // first grant of the row is the forced one.
  const auto forced =
      std::find(forced_in_flight_.begin(), forced_in_flight_.end(), row);
  if (forced != forced_in_flight_.end()) {
    forced_in_flight_.erase(forced);
    ++stats_.forced_full_refreshes;
    if (telemetry() != nullptr) {
      forced_fulls_->Add();
      lineage()->Add({telemetry::EventKind::kForcedFullRefresh, at,
                      static_cast<std::uint64_t>(row), cause_label(), 0,
                      0.0});
    }
    UpdateNextProposal();
    return;
  }
  const auto forwarded = std::find_if(
      forwarded_.begin(), forwarded_.end(),
      [row](const dram::RefreshProposal& inner) { return inner.op.row == row; });
  if (forwarded != forwarded_.end()) {
    inner_->OnGrant(*forwarded, at);
    forwarded_.erase(forwarded);
  }
  UpdateNextProposal();
}

void AdaptiveVrlPolicy::OnRowAccess(std::size_t row) {
  // The inner policy's clock stops on the ticks this wrapper skips; catch
  // it up first, as a Propose on every tick would have (VRL-Skip reads it).
  inner_->SkipIdleTick(last_now());
  inner_->OnRowAccess(row);
  const auto it = demoted_.find(row);
  if (it != demoted_.end()) {
    // The activation fully restored the row; partials are safe again.
    it->second.rcount = 0;
  }
  UpdateNextProposal();
}

FailureResponse AdaptiveVrlPolicy::OnSensingFailure(std::size_t row,
                                                    Cycles now) {
  CheckRow(row);
  // Demotions recompute the row's MPRSF/period setting; failures are rare
  // enough that a real RAII frame (two clock reads) is affordable here.
  const telemetry::ScopedPhase recompute_phase(
      telemetry() == nullptr ? nullptr : telemetry()->profiler(),
      "policy.mprsf_recompute");
  RollWindows(now);
  ++stats_.failures_signalled;
  ++failures_this_window_;
  if (!in_fallback_ && params_.fallback_enter_failures > 0 &&
      failures_this_window_ >= params_.fallback_enter_failures) {
    EnterFallback(now);
  }

  const auto it = demoted_.find(row);
  const std::size_t next_level =
      (it == demoted_.end() ? 0 : it->second.level) + 1;
  std::uint8_t mprsf = 0;
  Cycles period = 0;
  const bool forced_already = pending_forced_flag_[row];
  if (!SettingAtLevel(row, next_level, &mprsf, &period)) {
    // Ladder exhausted: nothing faster left to try.  Still force a full
    // refresh so whatever ECC salvaged is written back promptly.
    ++stats_.saturated_failures;
    if (saturated_ != nullptr) {
      saturated_->Add();
    }
    if (!forced_already) {
      pending_forced_.push_back(row);
      pending_forced_flag_[row] = true;
    }
    UpdateNextProposal();
    return FailureResponse::kSaturated;
  }

  DemotedRow demoted;
  demoted.level = next_level;
  demoted.mprsf = mprsf;
  demoted.period = period;
  demoted.rcount = 0;
  demoted.generation = next_generation_++;
  demoted.last_event_window = current_window_;
  demoted_[row] = demoted;
  demoted_due_.emplace(now + period, row, demoted.generation);
  if (!forced_already) {
    pending_forced_.push_back(row);
    pending_forced_flag_[row] = true;
  }
  ++stats_.demotions;
  if (telemetry() != nullptr) {
    demotions_->Add();
    // `value` carries the failure pressure (failures this window) that
    // drove the demotion, so the lineage answers *why*, not just *what*.
    lineage()->Add({telemetry::EventKind::kDemotion, now,
                    static_cast<std::uint64_t>(row), cause_label(),
                    static_cast<std::int64_t>(next_level),
                    static_cast<double>(failures_this_window_)});
  }
  UpdateNextProposal();
  return FailureResponse::kCorrected;
}

void AdaptiveVrlPolicy::OnCleanFullRefresh(std::size_t row, Cycles now) {
  CheckRow(row);
  RollWindows(now);
  // RollWindows may have moved the window boundary (and left fallback).
  UpdateNextProposal();
  const auto it = demoted_.find(row);
  if (it == demoted_.end()) {
    return;
  }
  auto& demoted = it->second;
  if (current_window_ <
      demoted.last_event_window + params_.promote_after_clean_windows) {
    return;
  }
  // Past the early-outs: this promotion commits, recomputing the setting.
  const telemetry::ScopedPhase recompute_phase(
      telemetry() == nullptr ? nullptr : telemetry()->profiler(),
      "policy.mprsf_recompute");
  ++stats_.promotions;
  const std::size_t new_level = demoted.level - 1;
  if (telemetry() != nullptr) {
    promotions_->Add();
    lineage()->Add({telemetry::EventKind::kPromotion, now,
                    static_cast<std::uint64_t>(row), cause_label(),
                    static_cast<std::int64_t>(new_level), 0.0});
  }
  if (demoted.level == 1) {
    demoted_.erase(it);  // back to the inner policy's schedule
    return;
  }
  std::uint8_t mprsf = 0;
  Cycles period = 0;
  SettingAtLevel(row, new_level, &mprsf, &period);  // lower level: never fails
  demoted.level = new_level;
  demoted.mprsf = mprsf;
  demoted.period = period;
  demoted.rcount = 0;
  demoted.generation = next_generation_++;
  demoted.last_event_window = current_window_;
  demoted_due_.emplace(now + period, row, demoted.generation);
  UpdateNextProposal();
}

AdaptiveStats AdaptiveVrlPolicy::stats() const {
  AdaptiveStats out = stats_;
  out.rows_demoted_now = demoted_.size();
  out.in_fallback = in_fallback_;
  return out;
}

std::size_t AdaptiveVrlPolicy::DemotionLevel(std::size_t row) const {
  CheckRow(row);
  const auto it = demoted_.find(row);
  return it == demoted_.end() ? 0 : it->second.level;
}

std::pair<std::uint8_t, Cycles> AdaptiveVrlPolicy::DemotedSetting(
    std::size_t row) const {
  CheckRow(row);
  const auto it = demoted_.find(row);
  if (it == demoted_.end()) {
    throw ConfigError("AdaptiveVrlPolicy: row is not demoted");
  }
  return {it->second.mprsf, it->second.period};
}

}  // namespace vrl::fault
