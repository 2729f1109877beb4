#include "obs/watchdog.hpp"

#include <cctype>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "telemetry/export.hpp"

namespace vrl::obs {
namespace {

/// Numeric value of a counter/gauge metric, 0 when absent — the watchdog
/// must tolerate snapshots from runs that never touched a watched metric.
double MetricNumber(const telemetry::MetricsSnapshot& snapshot,
                    std::string_view name) {
  const auto it = snapshot.metrics.find(std::string(name));
  if (it == snapshot.metrics.end()) {
    return 0.0;
  }
  const telemetry::MetricValue& value = it->second;
  if (value.kind == telemetry::MetricKind::kCounter) {
    return static_cast<double>(value.count);
  }
  return value.value;
}

/// Rules-file field table — one row per WatchdogRules field, so the parser,
/// the spelling-tolerant lookup and the unknown-key error all stay in sync.
/// A row sets either a threshold (any finite number; negative disables
/// the rule) or a sample count (a whole number >= 1).
struct RuleField {
  std::string_view name;
  double WatchdogRules::*threshold = nullptr;
  std::size_t WatchdogRules::*count = nullptr;
};

constexpr RuleField kRuleFields[] = {
    {"max_sensing_failure_rate", &WatchdogRules::max_sensing_failure_rate},
    {"max_refresh_overhead", &WatchdogRules::max_refresh_overhead},
    {"min_partial_full_ratio", &WatchdogRules::min_partial_full_ratio},
    {"max_staleness_s", &WatchdogRules::max_staleness_s},
    {"max_worker_stale_s", &WatchdogRules::max_worker_stale_s},
    {"breach_samples", nullptr, &WatchdogRules::breach_samples},
    {"fail_samples", nullptr, &WatchdogRules::fail_samples},
    {"clear_samples", nullptr, &WatchdogRules::clear_samples},
};

/// Case- and separator-insensitive key form, mirroring
/// dram::PolicyRegistry's CanonicalPolicyToken so config UX matches.
std::string CanonicalRuleToken(std::string_view name) {
  std::string token;
  token.reserve(name.size());
  for (const char c : name) {
    if (c == '-' || c == '_') {
      continue;
    }
    token.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return token;
}

std::string RuleFieldNames() {
  std::string names;
  for (const RuleField& field : kRuleFields) {
    if (!names.empty()) {
      names += ", ";
    }
    names += field.name;
  }
  return names;
}

}  // namespace

std::string_view HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kOk:
      return "ok";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kFailing:
      return "failing";
  }
  return "?";
}

void WatchdogRules::Validate() const {
  if (breach_samples == 0 || clear_samples == 0) {
    throw ConfigError(
        "WatchdogRules: breach_samples and clear_samples must be >= 1");
  }
  if (fail_samples < breach_samples) {
    throw ConfigError("WatchdogRules: fail_samples must be >= breach_samples");
  }
}

WatchdogRules ParseWatchdogRules(std::string_view json) {
  // The rules file is one flat object of numeric fields, so a full JSON
  // parser would be dead weight; this walks "key": number pairs directly
  // and rejects anything else.
  WatchdogRules rules;
  std::size_t pos = 0;
  const auto skip_ws = [&] {
    while (pos < json.size() &&
           std::isspace(static_cast<unsigned char>(json[pos])) != 0) {
      ++pos;
    }
  };
  const auto expect = [&](char c) {
    skip_ws();
    if (pos >= json.size() || json[pos] != c) {
      throw ConfigError(std::string("ParseWatchdogRules: expected '") + c +
                        "' at offset " + std::to_string(pos));
    }
    ++pos;
  };
  expect('{');
  skip_ws();
  if (pos < json.size() && json[pos] == '}') {
    ++pos;
  } else {
    for (;;) {
      expect('"');
      const std::size_t key_end = json.find('"', pos);
      if (key_end == std::string_view::npos) {
        throw ConfigError("ParseWatchdogRules: unterminated key");
      }
      const std::string key(json.substr(pos, key_end - pos));
      pos = key_end + 1;
      expect(':');
      skip_ws();
      // The characters of a JSON number; common/parse.hpp then takes all of
      // them or nothing, so "nan", "inf" and hex floats never parse.
      const std::size_t number_end =
          json.find_first_not_of("0123456789+-.eE", pos);
      const std::string_view number_text =
          json.substr(pos, number_end - pos);
      pos += number_text.size();

      const std::string token = CanonicalRuleToken(key);
      const RuleField* match = nullptr;
      for (const RuleField& field : kRuleFields) {
        if (CanonicalRuleToken(field.name) == token) {
          match = &field;
          break;
        }
      }
      if (match == nullptr) {
        throw ConfigError("ParseWatchdogRules: unknown rule '" + key +
                          "' (expected one of: " + RuleFieldNames() + ")");
      }
      if (match->count != nullptr) {
        const std::optional<std::uint64_t> count =
            ParseWholeUnsigned(number_text);
        if (!count || *count == 0) {
          throw ConfigError("ParseWatchdogRules: '" + key +
                            "' needs a whole number >= 1, got '" +
                            std::string(number_text) + "'");
        }
        rules.*match->count = static_cast<std::size_t>(*count);
      } else {
        const std::optional<double> threshold = ParseWholeDouble(number_text);
        if (!threshold) {
          throw ConfigError("ParseWatchdogRules: expected a number for '" +
                            key + "', got '" + std::string(number_text) +
                            "'");
        }
        rules.*match->threshold = *threshold;
      }

      skip_ws();
      if (pos < json.size() && json[pos] == ',') {
        ++pos;
        continue;
      }
      expect('}');
      break;
    }
  }
  skip_ws();
  if (pos != json.size()) {
    throw ConfigError("ParseWatchdogRules: trailing content after object");
  }
  rules.Validate();
  return rules;
}

WatchdogRules LoadWatchdogRulesFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw ConfigError("LoadWatchdogRulesFile: cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return ParseWatchdogRules(buffer.str());
}

SloWatchdog::SloWatchdog(WatchdogRules rules) : rules_(std::move(rules)) {
  rules_.Validate();
}

HealthState SloWatchdog::Sample(const telemetry::MetricsSnapshot& snapshot,
                                double now_s,
                                telemetry::Lineage* alerts) {
  const double detected =
      MetricNumber(snapshot, "campaign.detected_failures");
  const double fulls = MetricNumber(snapshot, "policy.full_refreshes");
  const double partials = MetricNumber(snapshot, "policy.partial_refreshes");
  const double busy = MetricNumber(snapshot, "policy.refresh_busy_cycles");
  const double progress = MetricNumber(snapshot, "campaign.progress_cycles");

  bool breached = false;
  double breach_value = 0.0;
  const auto breach = [&](std::string_view rule, double value) {
    if (!breached) {
      std::ostringstream text;
      text << rule << "=" << telemetry::FormatDouble(value);
      last_breach_ = text.str();
      breach_value = value;
    }
    breached = true;
  };

  if (!have_previous_) {
    // First sample establishes the baseline; counters that pre-date the
    // watchdog must not read as one giant interval.
    have_previous_ = true;
    last_activity_s_ = now_s;
  } else {
    const double d_detected = detected - prev_detected_;
    const double d_fulls = fulls - prev_fulls_;
    const double d_partials = partials - prev_partials_;
    const double d_busy = busy - prev_busy_;
    const double d_progress = progress - prev_progress_;

    if (rules_.max_sensing_failure_rate >= 0.0) {
      const double ops = d_fulls + d_partials;
      const double rate = d_detected / (ops < 1.0 ? 1.0 : ops);
      if (rate > rules_.max_sensing_failure_rate) {
        breach("sensing_failure_rate", rate);
      }
    }
    if (rules_.max_refresh_overhead >= 0.0 && d_progress > 0.0) {
      const double overhead = d_busy / d_progress;
      if (overhead > rules_.max_refresh_overhead) {
        breach("refresh_overhead", overhead);
      }
    }
    if (rules_.min_partial_full_ratio >= 0.0 && d_fulls > 0.0) {
      const double ratio = d_partials / d_fulls;
      if (ratio < rules_.min_partial_full_ratio) {
        breach("partial_full_ratio", ratio);
      }
    }
    if (d_detected != 0.0 || d_fulls != 0.0 || d_partials != 0.0 ||
        d_progress != 0.0) {
      last_activity_s_ = now_s;
    }
    if (rules_.max_staleness_s >= 0.0) {
      const double staleness = now_s - last_activity_s_;
      if (staleness > rules_.max_staleness_s) {
        breach("staleness_s", staleness);
      }
    }
  }
  // Current-value rule (not a delta): the fleet glue publishes the stalest
  // worker's heartbeat age as a gauge, so this works from the first sample.
  if (rules_.max_worker_stale_s >= 0.0) {
    const double worker_age =
        MetricNumber(snapshot, "fleet.max_heartbeat_age_s");
    if (worker_age > rules_.max_worker_stale_s) {
      breach("worker_stale_s", worker_age);
    }
  }
  prev_detected_ = detected;
  prev_fulls_ = fulls;
  prev_partials_ = partials;
  prev_busy_ = busy;
  prev_progress_ = progress;

  // Hysteresis: consecutive breaches escalate, consecutive clean samples
  // step the state back down one level at a time.
  HealthState next = state_;
  if (breached) {
    clean_count_ = 0;
    ++breach_count_;
    if (breach_count_ >= rules_.fail_samples) {
      next = HealthState::kFailing;
    } else if (breach_count_ >= rules_.breach_samples) {
      next = next == HealthState::kFailing ? HealthState::kFailing
                                           : HealthState::kDegraded;
    }
  } else {
    breach_count_ = 0;
    ++clean_count_;
    if (clean_count_ >= rules_.clear_samples) {
      clean_count_ = 0;
      if (next == HealthState::kFailing) {
        next = HealthState::kDegraded;
      } else if (next == HealthState::kDegraded) {
        next = HealthState::kOk;
      }
    }
  }

  if (next != state_) {
    state_ = next;
    if (alerts != nullptr) {
      alerts->Add({telemetry::EventKind::kWatchdogTransition, 0, 0,
                   alerts->Intern("watchdog"),
                   static_cast<std::int64_t>(state_), breach_value});
    }
  }
  return state_;
}

}  // namespace vrl::obs
