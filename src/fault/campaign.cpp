#include "fault/campaign.hpp"

#include <sstream>

#include "common/error.hpp"
#include "dram/scheduler.hpp"
#include "fault/charge_tracker.hpp"
#include "telemetry/recorder.hpp"

namespace vrl::fault {

const std::vector<double>& MarginBucketEdges() {
  static const std::vector<double> edges = {-0.5,  -0.2,  -0.1, -0.05,
                                            -0.02, -0.01, 0.0,  0.05,
                                            0.1,   0.2,   0.5};
  return edges;
}

void CampaignSetup::Validate() const {
  if (clock_period_s <= 0.0) {
    throw ConfigError("CampaignSetup: clock period must be positive");
  }
  if (t_refi == 0 || base_window < t_refi) {
    throw ConfigError("CampaignSetup: refresh interval/window inconsistent");
  }
  if (windows == 0) {
    throw ConfigError("CampaignSetup: need at least one window");
  }
  if (tau_post_full_s <= 0.0 || tau_post_partial_s <= 0.0) {
    throw ConfigError("CampaignSetup: tau_post budgets must be positive");
  }
}

TickSequence CampaignSetup::Ticks() const {
  Validate();
  const Cycles horizon = WindowsToCycles(base_window, windows);
  return {t_refi, static_cast<std::size_t>(horizon / t_refi) + 1,
          clock_period_s};
}

double CampaignReport::RefreshOverheadFraction() const {
  if (simulated_cycles == 0) {
    return 0.0;
  }
  return static_cast<double>(refresh_busy_cycles) /
         static_cast<double>(simulated_cycles);
}

CampaignReport RunCampaign(const model::RefreshModel& model,
                           const retention::RetentionProfile& truth,
                           dram::RefreshPolicy& policy,
                           const FaultRecording& faults,
                           const CampaignSetup& setup) {
  const TickSequence ticks = setup.Ticks();
  const std::size_t rows = truth.rows();
  if (policy.rows() != rows) {
    throw ConfigError("RunCampaign: policy row count mismatch");
  }
  // The recording fixes the instants and the bank it was drawn for (a VRT
  // flip's probability grows with the step), so it replays only into a
  // campaign of the same ticks and rows.
  if (!(faults.ticks() == ticks) || faults.rows() != rows) {
    std::ostringstream os;
    os.precision(17);
    os << "RunCampaign: fault recording of " << faults.ticks().count
       << " ticks every " << faults.ticks().period << " cycles of "
       << faults.ticks().clock_period_s << " s over " << faults.rows()
       << " rows; the campaign has " << ticks.count << " ticks every "
       << ticks.period << " cycles of " << ticks.clock_period_s
       << " s over " << rows << " rows";
    throw ConfigError(os.str());
  }
  auto* adaptive = dynamic_cast<AdaptiveVrlPolicy*>(&policy);

  telemetry::Recorder* rec = setup.telemetry;
  telemetry::Counter* detected = nullptr;
  telemetry::Counter* corrected_ctr = nullptr;
  telemetry::Counter* unrecovered = nullptr;
  telemetry::Histogram* margin_hist = nullptr;
  if (rec != nullptr) {
    policy.set_telemetry(rec);
    detected = &rec->counter("campaign.detected_failures");
    corrected_ctr = &rec->counter("campaign.corrected_failures");
    unrecovered = &rec->counter("campaign.unrecovered_failures");
    margin_hist = &rec->histogram("campaign.sense_margin",
                                  MarginBucketEdges());
  }

  ChargeTracker tracker(model, rows);
  CampaignReport report;
  const Cycles horizon = WindowsToCycles(setup.base_window, setup.windows);

  // Campaign spans: one track group, one "window" span per refresh window
  // (payloads: refreshes, detected failures).  Sensing failures land in the
  // lineage with the charge margin that triggered detection.
  telemetry::Tracer* tracer = rec == nullptr ? nullptr : rec->tracer();
  std::uint32_t trace_group = 0;
  if (tracer != nullptr) {
    trace_group = tracer->NewTrackGroup("campaign:" + policy.Name());
  }
  const std::uint32_t campaign_cause =
      rec == nullptr ? 0 : rec->lineage().Intern("campaign:" + policy.Name());
  // Attribution (--profile, docs/PROFILING.md): the per-tick fault replay
  // and the grant + ChargeTracker op loop are timed on a 1-in-N sample
  // (exact counts) and folded under one "campaign.run" frame at the end.
  telemetry::Profiler* profiler = rec == nullptr ? nullptr : rec->profiler();
  const telemetry::ScopedPhase campaign_phase(profiler, "campaign.run");
  telemetry::PhaseAccumulator faults_phase(profiler, "faults.advance");
  telemetry::PhaseAccumulator refresh_phase(profiler, "refresh_ops");

  std::size_t window_index = 0;
  std::size_t window_refreshes = 0;
  std::size_t window_detected = 0;
  const auto close_windows_until = [&](std::size_t w) {
    for (; window_index < w; ++window_index) {
      tracer->CompleteSpan(
          "window", setup.base_window * static_cast<Cycles>(window_index),
          setup.base_window * static_cast<Cycles>(window_index + 1),
          trace_group, 0,
          static_cast<std::int64_t>(report.refreshes - window_refreshes),
          static_cast<std::int64_t>(report.detected_failures -
                                    window_detected));
      window_refreshes = report.refreshes;
      window_detected = report.detected_failures;
    }
  };

  FaultState state(rows);
  ReplayCursor cursor(faults);
  std::vector<dram::RefreshProposal> proposals;
  std::vector<dram::RefreshOp> ops;
  for (std::size_t k = 0; k < ticks.count; ++k) {
    const Cycles tick = ticks.cycle(k);
    if (tracer != nullptr) {
      close_windows_until(static_cast<std::size_t>(tick / setup.base_window));
    }
    const double now_s = ticks.seconds(k);
    faults_phase.Start();
    cursor.ApplyThrough(k, state);
    faults_phase.Stop();
    refresh_phase.Start();
    if (tick < policy.next_proposal()) {
      // Nothing can come due before next_proposal(): only the policy's
      // clock advances (still one refresh_ops call in the profile).
      policy.SkipIdleTick(tick);
      refresh_phase.Stop();
      continue;
    }
    // Propose/grant with no bank context: every proposal is granted on the
    // tick it is proposed (the campaign replays physics, not bank timing).
    dram::RefreshGrantContext grant_ctx;
    grant_ctx.now = tick;
    grant_ctx.demand.now = tick;
    dram::GrantRefreshes(policy, grant_ctx, nullptr, ops, proposals);
    for (const auto& op : ops) {
      const double retention =
          truth.RowRetention(op.row) * state.RowScale(op.row);
      const auto sense = tracker.Refresh(
          op.row, now_s, retention, op.is_full,
          op.is_full ? setup.tau_post_full_s : setup.tau_post_partial_s);

      ++report.refreshes;
      if (!op.is_full) {
        ++report.partial_refreshes;
      }
      report.refresh_busy_cycles += op.trfc;

      if (margin_hist != nullptr) {
        margin_hist->Observe(sense.margin);
      }
      if (sense.sense_ok) {
        if (op.is_full && adaptive != nullptr) {
          adaptive->OnCleanFullRefresh(op.row, tick);
        }
        continue;
      }

      ++report.detected_failures;
      bool corrected = false;
      if (adaptive != nullptr) {
        corrected = adaptive->OnSensingFailure(op.row, tick) ==
                    FailureResponse::kCorrected;
      }
      if (corrected) {
        ++report.corrected_failures;
      } else {
        ++report.unrecovered_failures;
      }
      if (rec != nullptr) {
        detected->Add();
        (corrected ? corrected_ctr : unrecovered)->Add();
        rec->lineage().Add({telemetry::EventKind::kSensingFailure, tick,
                            static_cast<std::uint64_t>(op.row),
                            campaign_cause,
                            corrected ? std::int64_t{1} : std::int64_t{0},
                            sense.margin});
      }
      // Corrected: the ECC write-back rewrites the row at full charge.
      // Unrecovered: the data is gone; reset anyway so further failures
      // are counted distinctly (core::IntegrityChecker counts them).
      tracker.Restore(op.row, now_s);

      if (report.events.size() < kMaxLoggedEvents) {
        SensingFailureEvent event;
        event.row = op.row;
        event.at_cycle = tick;
        event.at_s = now_s;
        event.margin = sense.margin;
        event.was_full = op.is_full;
        event.corrected = corrected;
        report.events.push_back(event);
      }
    }
    refresh_phase.Stop();
  }

  if (tracer != nullptr) {
    close_windows_until(setup.windows);
  }
  report.min_margin = tracker.min_margin();
  report.simulated_cycles = horizon;
  if (adaptive != nullptr) {
    report.adaptive = adaptive->stats();
  }
  policy.FlushTelemetry();  // Batched per-op state, before callers snapshot.
  // Children of the open "campaign.run" frame; refresh_ops counts the
  // refresh operations it charged.
  faults_phase.Fold();
  refresh_phase.Fold(report.refreshes);
  if (rec != nullptr) {
    rec->counter("campaign.windows")
        .Add(static_cast<std::uint64_t>(setup.windows));
    rec->counter("campaign.simulated_cycles").Add(horizon);
    rec->gauge("campaign.min_margin").Set(report.min_margin);
  }
  return report;
}

}  // namespace vrl::fault
