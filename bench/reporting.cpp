#include "bench/reporting.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string_view>
#include <system_error>

#include <unistd.h>

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

void CheckOutputPath(const std::string& flag, const std::string& path) {
  if (path.empty() || path == "-") {
    return;
  }
  const std::filesystem::path file(path);
  std::error_code error;
  const auto status = std::filesystem::status(file, error);
  if (std::filesystem::exists(status)) {
    if (std::filesystem::is_directory(status)) {
      throw ConfigError(flag + " " + path + ": is a directory");
    }
    if (::access(path.c_str(), W_OK) != 0) {
      throw ConfigError(flag + " " + path + ": file is not writable");
    }
    return;
  }
  const std::string dir =
      file.has_parent_path() ? file.parent_path().string() : ".";
  if (!std::filesystem::is_directory(dir, error) ||
      ::access(dir.c_str(), W_OK | X_OK) != 0) {
    throw ConfigError(flag + " " + path + ": directory " + dir +
                      " does not exist or is not writable");
  }
}

std::vector<Flag> ReportFlags(ReportOptions* options, unsigned groups) {
  std::vector<Flag> rows;
  // A file-valued row checks its path as it parses, so an unwritable one
  // fails before the run rather than after it.
  const auto path_row = [](const std::string& flag, std::string* path) {
    return Flag(flag, [flag, path](const std::string& value) {
      CheckOutputPath(flag, value);
      *path = value;
    });
  };
  if ((groups & kOutput) != 0) {
    rows.push_back(path_row("--json", &options->json_path));
    rows.push_back(path_row("--csv", &options->csv_path));
  }
  if ((groups & kProfile) != 0) {
    rows.emplace_back("--profile", &options->profile);
    rows.emplace_back("--profile-out", [options](const std::string& path) {
      telemetry::ProfileFileWriter(path);  // Rejects an unknown extension.
      CheckOutputPath("--profile-out", path);
      options->profile_path = path;
      options->profile = true;  // An output file implies profiling.
    });
    rows.emplace_back("--profile-scrub", &options->profile_scrub);
  }
  if ((groups & kTrace) != 0) {
    rows.emplace_back("--trace-out", [options](const std::string& path) {
      telemetry::TraceFileWriter(path);  // Rejects an unknown extension.
      CheckOutputPath("--trace-out", path);
      options->trace_path = path;
    });
  }
  if ((groups & kPreset) != 0) {
    rows.emplace_back("--preset", [options](const std::string& name) {
      options->preset = dram::PresetFromName(name);
    });
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
