#include "core/config_io.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/nodes.hpp"
#include "common/parse.hpp"

namespace vrl::core {
namespace {

std::string Trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) {
    return {};
  }
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

std::uint64_t ParseUnsigned(const std::string& key, const std::string& value) {
  if (const auto parsed = ParseWholeUnsigned(value)) {
    return *parsed;
  }
  throw ParseError("config: bad unsigned value '" + value + "' for " + key);
}

double ParseDouble(const std::string& key, const std::string& value) {
  if (const auto parsed = ParseWholeDouble(value)) {
    return *parsed;
  }
  throw ParseError("config: bad numeric value '" + value + "' for " + key);
}

}  // namespace

VrlConfig ParseVrlConfig(std::istream& is) {
  VrlConfig config;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) {
      line.erase(hash);
    }
    const std::string trimmed = Trim(line);
    if (trimmed.empty()) {
      continue;
    }
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos) {
      throw ParseError("config: line " + std::to_string(line_no) +
                       " is not 'key = value'");
    }
    const std::string key = Trim(trimmed.substr(0, eq));
    const std::string value = Trim(trimmed.substr(eq + 1));
    if (key.empty() || value.empty()) {
      throw ParseError("config: empty key or value on line " +
                       std::to_string(line_no));
    }

    if (key == "banks") {
      config.banks = static_cast<std::size_t>(ParseUnsigned(key, value));
    } else if (key == "nbits") {
      config.nbits = static_cast<std::size_t>(ParseUnsigned(key, value));
    } else if (key == "seed") {
      config.seed = ParseUnsigned(key, value);
    } else if (key == "spare_rows") {
      config.spare_rows = static_cast<std::size_t>(ParseUnsigned(key, value));
    } else if (key == "retention_guardband") {
      config.retention_guardband = ParseDouble(key, value);
    } else if (key == "scheduler") {
      if (value == "fcfs") {
        config.scheduler = dram::SchedulerKind::kFcfs;
      } else if (value == "fr-fcfs") {
        config.scheduler = dram::SchedulerKind::kFrFcfs;
      } else {
        throw ParseError("config: unknown scheduler '" + value + "'");
      }
    } else if (key == "subarrays") {
      config.subarrays = static_cast<std::size_t>(ParseUnsigned(key, value));
    } else if (key == "page_policy") {
      if (value == "open") {
        config.page_policy = dram::RowBufferPolicy::kOpenPage;
      } else if (value == "closed") {
        config.page_policy = dram::RowBufferPolicy::kClosedPage;
      } else {
        throw ParseError("config: unknown page_policy '" + value + "'");
      }
    } else if (key == "node") {
      config.tech = NodeByName(value).params;  // may throw ConfigError
    } else if (key == "rows") {
      config.tech.rows = static_cast<std::size_t>(ParseUnsigned(key, value));
    } else if (key == "columns") {
      config.tech.columns =
          static_cast<std::size_t>(ParseUnsigned(key, value));
    } else if (key == "partial_target") {
      config.spec.partial_target = ParseDouble(key, value);
    } else if (key == "full_target") {
      config.spec.full_target = ParseDouble(key, value);
    } else if (key == "compounding") {
      config.spec.partial_deficit_compounding = ParseDouble(key, value);
    } else {
      throw ParseError("config: unknown key '" + key + "' on line " +
                       std::to_string(line_no));
    }
  }
  config.Validate();
  return config;
}

VrlConfig LoadVrlConfigFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw ParseError("config: cannot open '" + path + "'");
  }
  return ParseVrlConfig(is);
}

void WriteVrlConfig(const VrlConfig& config, std::ostream& os) {
  os << "# vrl-dram configuration\n";
  os << "banks = " << config.banks << '\n';
  os << "nbits = " << config.nbits << '\n';
  os << "seed = " << config.seed << '\n';
  os << "spare_rows = " << config.spare_rows << '\n';
  os << "retention_guardband = " << config.retention_guardband << '\n';
  os << "scheduler = "
     << (config.scheduler == dram::SchedulerKind::kFcfs ? "fcfs" : "fr-fcfs")
     << '\n';
  os << "subarrays = " << config.subarrays << '\n';
  os << "page_policy = "
     << (config.page_policy == dram::RowBufferPolicy::kOpenPage ? "open"
                                                                : "closed")
     << '\n';
  os << "rows = " << config.tech.rows << '\n';
  os << "columns = " << config.tech.columns << '\n';
  os << "partial_target = " << config.spec.partial_target << '\n';
  os << "full_target = " << config.spec.full_target << '\n';
  os << "compounding = " << config.spec.partial_deficit_compounding << '\n';
}

}  // namespace vrl::core
