#include "retention/mprsf.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <tuple>

#include "common/error.hpp"

namespace vrl::retention {

MprsfCalculator::MprsfCalculator(const model::RefreshModel& model,
                                 double tau_partial_s)
    : model_(model),
      tau_partial_s_(tau_partial_s),
      tau_full_s_(model.FullRefreshTimings().tau_post_s),
      leakage_(model.spec().full_target, model.MinReadableFraction()) {
  if (tau_partial_s_ <= 0.0) {
    throw ConfigError("MprsfCalculator: tau_partial must be positive");
  }
}

bool MprsfCalculator::Sustainable(double retention_s, double period_s,
                                  std::size_t partials) const {
  // Simulate enough periodic super-cycles for the trajectory to either fail
  // or demonstrably settle.  Each super-cycle is: [decay, partial] x m,
  // then [decay, full].
  constexpr int kSuperCycles = 8;
  constexpr double kSettleEps = 1e-9;

  double fraction = model_.spec().full_target;  // right after a full refresh
  double prev_cycle_start = fraction;
  for (int cycle = 0; cycle < kSuperCycles; ++cycle) {
    for (std::size_t k = 0; k < partials; ++k) {
      fraction = leakage_.FractionAfter(fraction, period_s, retention_s);
      const auto outcome = model_.ApplyRefresh(
          fraction, tau_partial_s_, model_.PartialRestoreCap(k + 1));
      if (!outcome.sense_ok) {
        return false;
      }
      fraction = outcome.fraction_after;
    }
    fraction = leakage_.FractionAfter(fraction, period_s, retention_s);
    const auto closing = model_.ApplyRefresh(fraction, tau_full_s_);
    if (!closing.sense_ok) {
      return false;
    }
    fraction = closing.fraction_after;
    if (std::abs(fraction - prev_cycle_start) < kSettleEps) {
      return true;  // periodic steady state reached without failure
    }
    prev_cycle_start = fraction;
  }
  return true;
}

std::size_t MprsfCalculator::ComputeMprsf(double retention_s, double period_s,
                                          std::size_t max_partials) const {
  if (retention_s < period_s) {
    throw ConfigError(
        "MprsfCalculator: row refreshed slower than its retention time");
  }
  // Sustainability is monotone: adding a partial refresh only ever lowers
  // the charge entering every subsequent refresh.  Scan upward.
  std::size_t mprsf = 0;
  for (std::size_t m = 1; m <= max_partials; ++m) {
    if (!Sustainable(retention_s, period_s, m)) {
      break;
    }
    mprsf = m;
  }
  return mprsf;
}

std::vector<std::size_t> MprsfCalculator::ComputeRowMprsf(
    const RetentionProfile& profile, const BinningResult& binning,
    std::size_t max_partials, std::size_t* evaluations) const {
  if (binning.row_bin.size() != profile.rows()) {
    throw ConfigError("ComputeRowMprsf: binning does not match profile");
  }
  // One index array ordered by (bin, retention): each bin is a contiguous,
  // retention-ascending range, so its weakest row is evaluated first.
  const std::vector<double>& retention = profile.row_retention();
  const std::vector<std::uint8_t>& bin = binning.row_bin;
  std::vector<std::size_t> order(profile.rows());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::tie(bin[a], retention[a]) < std::tie(bin[b], retention[b]);
  });

  std::vector<std::size_t> sorted(order.size());
  std::size_t calls = 0;
  for (std::size_t begin = 0, end = 0; begin < order.size(); begin = end) {
    while (end < order.size() && bin[order[end]] == bin[order[begin]]) {
      ++end;
    }
    const double period_s = binning.RowPeriod(order[begin]);
    FillNonDecreasingRuns(
        end - begin,
        [&](std::size_t i) {
          ++calls;
          return ComputeMprsf(retention[order[begin + i]], period_s,
                              max_partials);
        },
        sorted.data() + begin);
  }

  std::vector<std::size_t> mprsf(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    mprsf[order[k]] = sorted[k];
  }
  if (evaluations != nullptr) {
    *evaluations = calls;
  }
  return mprsf;
}

std::vector<MprsfCalculator::TrajectoryPoint>
MprsfCalculator::SimulateSchedule(double retention_s, double period_s,
                                  std::size_t partials_between_fulls,
                                  std::size_t periods) const {
  std::vector<TrajectoryPoint> points;
  double fraction = model_.spec().full_target;
  double t = 0.0;
  points.push_back({t, fraction, true, true, true});

  std::size_t since_full = 0;
  for (std::size_t p = 0; p < periods; ++p) {
    // Sample the decay within the period for a smooth plot.
    constexpr int kSamplesPerPeriod = 16;
    for (int s = 1; s <= kSamplesPerPeriod; ++s) {
      const double dt =
          period_s * static_cast<double>(s) / kSamplesPerPeriod;
      points.push_back({t + dt,
                        leakage_.FractionAfter(fraction, dt, retention_s),
                        false, true, false});
    }
    t += period_s;
    fraction = leakage_.FractionAfter(fraction, period_s, retention_s);

    const bool full = since_full >= partials_between_fulls;
    const double budget = full ? tau_full_s_ : tau_partial_s_;
    const double cap = full ? 1.0 : model_.PartialRestoreCap(since_full + 1);
    const auto outcome = model_.ApplyRefresh(fraction, budget, cap);
    fraction = outcome.fraction_after;
    points.push_back({t, fraction, true, outcome.sense_ok, full});
    if (!outcome.sense_ok) {
      break;  // data lost; trajectory ends
    }
    since_full = full ? 0 : since_full + 1;
  }
  return points;
}

namespace {

/// Fills out[lo, hi] given v_lo = eval(lo) and v_hi = eval(hi); false when
/// a midpoint breaks the ordering.
bool FillBetween(std::size_t lo, std::size_t hi, std::size_t v_lo,
                 std::size_t v_hi,
                 const std::function<std::size_t(std::size_t)>& eval,
                 std::size_t* out) {
  if (v_lo == v_hi || hi - lo <= 1) {
    std::fill(out + lo, out + hi, v_lo);
    out[hi] = v_hi;
    return true;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  const std::size_t v_mid = eval(mid);
  if (v_mid < v_lo || v_mid > v_hi) {
    return false;
  }
  return FillBetween(lo, mid, v_lo, v_mid, eval, out) &&
         FillBetween(mid, hi, v_mid, v_hi, eval, out);
}

}  // namespace

void FillNonDecreasingRuns(
    std::size_t n, const std::function<std::size_t(std::size_t)>& eval,
    std::size_t* out) {
  if (n == 0) {
    return;
  }
  const std::size_t v_lo = eval(0);
  const std::size_t v_hi = n == 1 ? v_lo : eval(n - 1);
  if (v_lo <= v_hi && FillBetween(0, n - 1, v_lo, v_hi, eval, out)) {
    return;
  }
  // The ordering does not hold: compute every element.
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = eval(i);
  }
}

}  // namespace vrl::retention
