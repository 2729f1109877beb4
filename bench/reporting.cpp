#include "bench/reporting.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string_view>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "telemetry/export.hpp"
#include "telemetry/profile_export.hpp"
#include "telemetry/trace_export.hpp"

namespace vrl::bench {
namespace {

void WriteCsvRow(std::ostream& os, const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) {
      os << ',';
    }
    const std::string& cell = cells[i];
    if (cell.find_first_of(",\"\n") != std::string::npos) {
      os << '"';
      for (const char c : cell) {
        if (c == '"') {
          os << '"';
        }
        os << c;
      }
      os << '"';
    } else {
      os << cell;
    }
  }
  os << '\n';
}

}  // namespace

std::uint64_t ParseCountFlag(const std::string& flag, const std::string& text,
                             FlagCheck check) {
  const auto value = ParseWholeUnsigned(text);
  if (!value) {
    throw ConfigError(flag + " needs a non-negative integer, got '" + text +
                      "'");
  }
  if (check == kPositive && *value == 0) {
    throw ConfigError(flag + " must be positive, got '" + text + "'");
  }
  return *value;
}

double ParseNumberFlag(const std::string& flag, const std::string& text,
                       FlagCheck check) {
  const auto value = ParseWholeDouble(text);
  if (!value) {
    throw ConfigError(flag + " needs a number, got '" + text + "'");
  }
  if (check == kPositive && *value <= 0.0) {
    throw ConfigError(flag + " must be positive, got '" + text + "'");
  }
  return *value;
}

Flag::Flag(std::string flag, std::string* text)
    : name(std::move(flag)),
      store([text](const std::string&, const std::string& v) { *text = v; }) {
}

Flag::Flag(std::string flag, std::function<void(const std::string&)> action)
    : name(std::move(flag)),
      store([action = std::move(action)](const std::string&,
                                         const std::string& v) { action(v); }),
      takes_value(!name.ends_with('*')) {}

Flag::Flag(std::string flag, double* number, FlagCheck check)
    : name(std::move(flag)),
      store([number, check](const std::string& f, const std::string& v) {
        *number = ParseNumberFlag(f, v, check);
      }) {}

Flag::Flag(std::string flag, bool* on)
    : name(std::move(flag)),
      store([on](const std::string&, const std::string&) { *on = true; }),
      takes_value(false) {}

std::vector<Flag> ReportFlags(ReportOptions* options, unsigned groups) {
  std::vector<Flag> rows;
  if ((groups & kOutput) != 0) {
    rows.emplace_back("--json", &options->json_path);
    rows.emplace_back("--csv", &options->csv_path);
  }
  if ((groups & kProfile) != 0) {
    rows.emplace_back("--profile", &options->profile);
    rows.emplace_back("--profile-out", [options](const std::string& path) {
      telemetry::ProfileFileWriter(path);  // Rejects an unknown extension.
      options->profile_path = path;
      options->profile = true;  // An output file implies profiling.
    });
    rows.emplace_back("--profile-scrub", &options->profile_scrub);
  }
  if ((groups & kTrace) != 0) {
    rows.emplace_back("--trace-out", [options](const std::string& path) {
      telemetry::TraceFileWriter(path);  // Rejects an unknown extension.
      options->trace_path = path;
    });
  }
  if ((groups & kMonitor) != 0) {
    rows.emplace_back("--serve", &options->serve).port = &options->serve_port;
    rows.emplace_back("--watchdog", &options->watchdog_path);
  }
  if ((groups & kPreset) != 0) {
    rows.emplace_back("--preset", [options](const std::string& name) {
      options->preset = dram::PresetFromName(name);
    });
  }
  if ((groups & kRuntime) != 0) {
    rows.emplace_back("--resume", &options->resume_path);
    rows.emplace_back("--workers", &options->workers);
    rows.emplace_back("--leg-timeout", &options->leg_timeout_s, kPositive);
    rows.emplace_back("--max-retries", &options->max_retries);
  }
  return rows;
}

void ParseFlagTable(int argc, char** argv, const std::vector<Flag>& table) {
  const auto is_flag = [](std::string_view name) {
    return name.starts_with("--");
  };
  const auto matches = [](std::string_view name, std::string_view arg) {
    if (name.ends_with('*')) {  // A pass-through matches by prefix.
      return arg.starts_with(name.substr(0, name.size() - 1));
    }
    return arg == name;
  };
  auto slot = table.begin();  // The next positional row to fill.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!is_flag(arg)) {
      slot = std::find_if(slot, table.end(),
                          [&](const Flag& row) { return !is_flag(row.name); });
      if (slot == table.end()) {
        throw ConfigError("unexpected argument '" + arg + "'");
      }
      slot->store(slot->name, arg);
      ++slot;
      continue;
    }
    const auto row = std::find_if(table.begin(), table.end(),
                                  [&](const Flag& r) {
                                    return matches(r.name, arg);
                                  });
    if (row == table.end()) {
      std::string accepted;
      for (const Flag& r : table) {
        if (is_flag(r.name)) {
          accepted += (accepted.empty() ? "" : ", ") + r.name;
        }
      }
      throw ConfigError("unknown flag '" + arg + "' (expected one of: " +
                        accepted + ")");
    }
    if (!row->takes_value) {  // A switch or a pass-through.
      row->store(row->name, arg);
      if (row->port != nullptr && i + 1 < argc) {
        const auto port = ParseWholeUnsigned(argv[i + 1]);
        if (port && *port <= 65535) {
          *row->port = static_cast<int>(*port);
          ++i;
        }
      }
    } else if (i + 1 < argc) {
      row->store(row->name, argv[++i]);
    } else {
      throw ConfigError(arg + " needs a value");
    }
  }
}

ReportOptions ParseFlags(int argc, char** argv, unsigned groups,
                         std::vector<Flag> rows) {
  ReportOptions options;
  std::vector<Flag> table = ReportFlags(&options, groups);
  std::move(rows.begin(), rows.end(), std::back_inserter(table));
  try {
    ParseFlagTable(argc, argv, table);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    std::exit(2);
  }
  return options;
}

runtime::RuntimeOptions MakeRuntimeOptions(const ReportOptions& options) {
  runtime::RuntimeOptions runtime;
  runtime.journal_path = options.resume_path;
  runtime.workers = options.workers;
  runtime.leg_timeout_s = options.leg_timeout_s;
  runtime.max_retries = options.max_retries;
  return runtime;
}

void AttachFleetObservability(obs::MonitorPlane* plane,
                              const std::string& campaign,
                              std::size_t legs_total,
                              telemetry::Recorder* runtime_telemetry,
                              runtime::RuntimeOptions* runtime_options) {
  if (plane == nullptr || runtime_options == nullptr) {
    return;
  }
  obs::MonitorServer* server = plane->server();
  if (server == nullptr) {
    return;
  }

  // Shared by the callbacks below; lives as long as any copy of the
  // options does.  All callbacks run on the driver thread (the supervisor
  // and runner contracts), so no locking here — the server's Publish* do
  // their own.
  struct FleetState {
    telemetry::FederatedRegistry federation;
    obs::LegProgress progress;
    std::size_t commits_seen = 0;  ///< on_leg fires per fresh commit only.
  };
  auto state = std::make_shared<FleetState>();
  state->progress.campaign = campaign;
  state->progress.total = legs_total;
  server->PublishLegProgress(state->progress);

  // /runs leg progress: done counts resumed + freshly committed legs,
  // on_leg fires only for the fresh ones — the difference is the resumed
  // prefix.  Works for --resume runs with or without workers.
  const auto previous_on_leg = runtime_options->on_leg;
  runtime_options->on_leg = [state, server, previous_on_leg](
                                std::size_t done, std::size_t total) {
    ++state->commits_seen;
    state->progress.total = total;
    state->progress.committed = done;
    state->progress.resumed = done - state->commits_seen;
    server->PublishLegProgress(state->progress);
    if (previous_on_leg) {
      previous_on_leg(done, total);
    }
  };

  if (runtime_options->workers == 0) {
    return;  // In-process execution has no fleet to federate.
  }

  runtime_options->on_worker_frame =
      [state, server](std::size_t worker,
                      const telemetry::WorkerFrame& frame) {
        state->federation.Absorb(std::to_string(worker), frame);
        server->PublishFederation(state->federation);
      };

  runtime_options->on_fleet = [state, server, plane, runtime_telemetry](
                                  const telemetry::FleetStatus& status) {
    server->PublishFleet(status);
    state->progress.running = status.legs_running;
    state->progress.pending = status.legs_pending;
    state->progress.staged = status.legs_staged;
    server->PublishLegProgress(state->progress);

    // Aggregate view for /metrics and the watchdog: the federation fold
    // (ShardedRecorder semantics — bit-identical for a given frame
    // sequence), the runtime's own counters, and the fleet liveness gauges
    // the max_worker_stale_s rule evaluates.  A throwaway Recorder keeps
    // the view off the experiment's telemetry (byte-identity contract).
    telemetry::Recorder view;
    view.metrics().Absorb(state->federation.Aggregate());
    if (runtime_telemetry != nullptr) {
      view.metrics().Absorb(runtime_telemetry->Snapshot());
    }
    double max_age = 0.0;
    for (const telemetry::FleetWorkerStatus& worker : status.active) {
      max_age = std::max(max_age, worker.heartbeat_age_s);
    }
    view.gauge("fleet.max_heartbeat_age_s").Set(max_age);
    view.gauge("fleet.workers_active")
        .Set(static_cast<double>(status.active.size()));
    view.gauge("fleet.pool_degraded").Set(status.pool_degraded ? 1.0 : 0.0);
    plane->Sample(view);
  };
}

std::unique_ptr<obs::MonitorPlane> MakeMonitorPlane(
    const ReportOptions& options, std::ostream& announce) {
  if (!options.serve && options.watchdog_path.empty()) {
    return nullptr;
  }
  obs::PlaneOptions plane_options;
  plane_options.serve = options.serve;
  plane_options.port = options.serve_port;
  plane_options.watchdog_path = options.watchdog_path;
  auto plane = std::make_unique<obs::MonitorPlane>(plane_options);
  if (const obs::MonitorServer* server = plane->server()) {
    announce << "monitor: serving on http://" << server->bind_address() << ':'
             << server->port() << std::endl;
  }
  return plane;
}

Report::Report(std::string name) : name_(std::move(name)) {}

void Report::AddMeta(std::string key, std::string value) {
  meta_.emplace_back(std::move(key), std::move(value));
}

void Report::AddMeta(std::string key, double value, int decimals) {
  AddMeta(std::move(key), Fmt(value, decimals));
}

void Report::AddMeta(std::string key, std::size_t value) {
  AddMeta(std::move(key), std::to_string(value));
}

TextTable& Report::AddTable(std::string name,
                            std::vector<std::string> headers) {
  tables_.emplace_back(std::move(name), TextTable(std::move(headers)));
  return tables_.back().second;
}

void Report::AddTelemetry(const telemetry::MetricsSnapshot& snapshot) {
  TextTable& table =
      AddTable("telemetry", {"name", "kind", "field", "value"});
  for (const auto& [name, value] : snapshot.metrics) {
    switch (value.kind) {
      case telemetry::MetricKind::kCounter:
        table.AddRow({name, "counter", "count", std::to_string(value.count)});
        break;
      case telemetry::MetricKind::kGauge:
        table.AddRow(
            {name, "gauge", "value", telemetry::FormatDouble(value.value)});
        break;
      case telemetry::MetricKind::kHistogram: {
        table.AddRow(
            {name, "histogram", "count", std::to_string(value.count)});
        table.AddRow({name, "histogram", "sum",
                      telemetry::FormatDouble(value.value)});
        for (std::size_t i = 0; i < value.counts.size(); ++i) {
          const std::string facet =
              i < value.edges.size()
                  ? "le_" + telemetry::FormatDouble(value.edges[i])
                  : std::string("le_inf");
          table.AddRow({name, "histogram", facet,
                        std::to_string(value.counts[i])});
        }
        break;
      }
    }
  }
}

void Report::AddProfile(const telemetry::Recorder& recorder) {
  const telemetry::Profiler* profiler = recorder.profiler();
  if (profiler == nullptr) {
    return;
  }
  const telemetry::ProfileSnapshot snapshot = profiler->Snapshot();
  TextTable& table = AddTable(
      "profile_tree",
      {"phase", "calls", "units", "incl_ms", "excl_ms", "excl_pct"});
  const double total = snapshot.RootInclusiveSeconds();
  for (const std::size_t index : snapshot.PreOrder()) {
    const telemetry::ProfileNode& node = snapshot.nodes[index];
    table.AddRow(
        {std::string(static_cast<std::size_t>(node.depth) * 2, ' ') +
             node.name,
         std::to_string(node.calls), std::to_string(node.units),
         Fmt(node.inclusive_s * 1e3, 3), Fmt(node.exclusive_s * 1e3, 3),
         total > 0.0 ? Fmt(100.0 * node.exclusive_s / total, 1) : "-"});
  }
  AddMeta("prof.frames", profiler->frames());
  AddMeta("prof.drops", profiler->drops());
}

void WriteProfileOutput(const ReportOptions& options,
                        const telemetry::Recorder& recorder) {
  if (options.profile_path.empty() || recorder.profiler() == nullptr) {
    return;
  }
  telemetry::WriteProfileFile(
      options.profile_path,
      recorder.profiler()->Snapshot(options.profile_scrub));
}

void Report::PrintText(std::ostream& os) const {
  os << name_ << '\n';
  for (const auto& [key, value] : meta_) {
    os << "  " << key << ": " << value << '\n';
  }
  for (const auto& [name, table] : tables_) {
    os << '\n';
    if (tables_.size() > 1 || name != "results") {
      os << "-- " << name << " --\n";
    }
    table.Print(os);
  }
}

void Report::WriteJson(std::ostream& os) const {
  using telemetry::JsonEscape;
  os << "{\"name\":\"" << JsonEscape(name_) << "\",\"meta\":{";
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    if (i > 0) {
      os << ',';
    }
    os << '"' << JsonEscape(meta_[i].first) << "\":\""
       << JsonEscape(meta_[i].second) << '"';
  }
  os << "},\"tables\":{";
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    const auto& [name, table] = tables_[t];
    if (t > 0) {
      os << ',';
    }
    os << '"' << JsonEscape(name) << "\":{\"headers\":[";
    const auto& headers = table.headers();
    for (std::size_t i = 0; i < headers.size(); ++i) {
      if (i > 0) {
        os << ',';
      }
      os << '"' << JsonEscape(headers[i]) << '"';
    }
    os << "],\"rows\":[";
    const auto& rows = table.rows();
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (r > 0) {
        os << ',';
      }
      os << '{';
      for (std::size_t i = 0; i < headers.size(); ++i) {
        if (i > 0) {
          os << ',';
        }
        os << '"' << JsonEscape(headers[i]) << "\":\""
           << JsonEscape(rows[r][i]) << '"';
      }
      os << '}';
    }
    os << "]}";
  }
  os << "}}\n";
}

void Report::WriteCsv(std::ostream& os) const {
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    const auto& [name, table] = tables_[t];
    if (t > 0) {
      os << '\n';
    }
    os << "# " << name_ << '.' << name << '\n';
    WriteCsvRow(os, table.headers());
    for (const auto& row : table.rows()) {
      WriteCsvRow(os, row);
    }
  }
}

void Report::Emit(const ReportOptions& options, std::ostream& text_out) const {
  const auto write_to = [this](const std::string& path, bool json,
                               std::ostream& stdout_os) {
    if (path == "-") {
      json ? WriteJson(stdout_os) : WriteCsv(stdout_os);
      return;
    }
    std::ofstream file(path);
    if (!file) {
      throw ConfigError("Report::Emit: cannot open '" + path + "'");
    }
    json ? WriteJson(file) : WriteCsv(file);
  };
  if (options.json_path != "-" && options.csv_path != "-") {
    PrintText(text_out);
  }
  if (!options.json_path.empty()) {
    write_to(options.json_path, true, text_out);
  }
  if (!options.csv_path.empty()) {
    write_to(options.csv_path, false, text_out);
  }
}

}  // namespace vrl::bench
