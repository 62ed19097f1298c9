#include "fleet/campaign.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "scenario/scenario.hpp"

namespace hs::fleet {
namespace {

/// Known fault-preset names, in the order to_string() documents them.
constexpr const char* kPresetNames[] = {
    "none",
    "day9-badge-swap",
    "battery-stress",
    "storage-stress",
    "infrastructure-stress",
    "clock-anomalies",
    "mesh-partition",
    "combined",
};

bool known_preset(const std::string& name) {
  return std::any_of(std::begin(kPresetNames), std::end(kPresetNames),
                     [&](const char* p) { return name == p; });
}

/// Known cascade-scenario names (scenario::scenario_preset resolves them).
constexpr const char* kCascadeNames[] = {"none", "power-storm", "generated"};

bool known_cascade(const std::string& name) {
  return std::any_of(std::begin(kCascadeNames), std::end(kCascadeNames),
                     [&](const char* p) { return name == p; });
}

Error parse_error(std::size_t line, const std::string& what) {
  return Error{"campaign line " + std::to_string(line) + ": " + what};
}

bool parse_int(const std::string& s, int& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) return false;
  out = static_cast<int>(v);
  return true;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return end == s.c_str() + s.size();
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t from = 0;
  while (from <= s.size()) {
    const std::size_t at = s.find(',', from);
    if (at == std::string::npos) {
      out.push_back(s.substr(from));
      break;
    }
    out.push_back(s.substr(from, at - from));
    from = at + 1;
  }
  return out;
}

bool parse_int_list(const std::string& s, std::vector<int>& out) {
  out.clear();
  for (const auto& item : split_list(s)) {
    int v = 0;
    if (!parse_int(item, v)) return false;
    out.push_back(v);
  }
  return !out.empty();
}

std::string join_ints(const std::vector<int>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(v[i]);
  }
  return out;
}

std::string join_strings(const std::vector<std::string>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += v[i];
  }
  return out;
}

}  // namespace

Status CampaignSpec::validate() const {
  if (name.empty()) return Error{"campaign: name must not be empty"};
  if (habitats < 1) return Error{"campaign: habitats must be >= 1"};
  if (days.empty() || crew.empty() || beacons.empty() || faults.empty() || cascade.empty() ||
      trace_sample.empty()) {
    return Error{"campaign: axes must be non-empty"};
  }
  for (const int d : days) {
    if (d < 1) return Error{"campaign: days must be >= 1, got " + std::to_string(d)};
  }
  for (const int c : crew) {
    if (c != 5 && c != 6) {
      return Error{"campaign: crew must be 5 or 6, got " + std::to_string(c)};
    }
  }
  for (const int b : beacons) {
    if (b < 9 || b > 27) {
      return Error{"campaign: beacons must be in [9, 27] (the layout puts at least one beacon "
                   "in each of the 9 covered rooms), got " +
                   std::to_string(b)};
    }
  }
  for (const int s : trace_sample) {
    if (s < 0 || s > 100) {
      return Error{"campaign: trace_sample must be in [0, 100], got " + std::to_string(s)};
    }
  }
  if (replication < 1) return Error{"campaign: replication must be >= 1"};
  for (const auto& f : faults) {
    if (!known_preset(f)) return Error{"campaign: unknown fault preset '" + f + "'"};
  }
  for (const auto& c : cascade) {
    if (!known_cascade(c)) return Error{"campaign: unknown cascade scenario '" + c + "'"};
  }
  return Status::success();
}

std::vector<HabitatSpec> CampaignSpec::expand() const {
  std::vector<HabitatSpec> out;
  out.reserve(static_cast<std::size_t>(habitats));
  for (int i = 0; i < habitats; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    HabitatSpec h;
    h.index = idx;
    h.seed = habitat_seed(base_seed, idx);
    h.days = days[idx % days.size()];
    h.crew = crew[idx % crew.size()];
    h.beacons = beacons[idx % beacons.size()];
    h.mesh = mesh;
    h.replication = replication;
    h.fault_preset = faults[idx % faults.size()];
    h.cascade = cascade[idx % cascade.size()];
    h.trace_sample = trace_sample[idx % trace_sample.size()];
    out.push_back(std::move(h));
  }
  return out;
}

std::string CampaignSpec::to_string() const {
  std::string out;
  out += "campaign " + name + "\n";
  out += "habitats " + std::to_string(habitats) + "\n";
  out += "seed " + std::to_string(base_seed) + "\n";
  out += "days " + join_ints(days) + "\n";
  out += "crew " + join_ints(crew) + "\n";
  out += "beacons " + join_ints(beacons) + "\n";
  out += "faults " + join_strings(faults) + "\n";
  out += "cascade " + join_strings(cascade) + "\n";
  out += "trace_sample " + join_ints(trace_sample) + "\n";
  out += std::string("mesh ") + (mesh ? "on" : "off") + "\n";
  out += "replication " + std::to_string(replication) + "\n";
  return out;
}

Expected<CampaignSpec> CampaignSpec::parse(const std::string& text) {
  CampaignSpec spec;
  bool named = false;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    std::string value;
    fields >> key >> value;
    std::string extra;
    if (fields >> extra) return parse_error(lineno, "trailing tokens after '" + value + "'");
    if (value.empty()) return parse_error(lineno, "'" + key + "' needs a value");
    if (key == "campaign") {
      spec.name = value;
      named = true;
    } else if (key == "habitats") {
      if (!parse_int(value, spec.habitats)) return parse_error(lineno, "bad count '" + value + "'");
    } else if (key == "seed") {
      if (!parse_u64(value, spec.base_seed)) return parse_error(lineno, "bad seed '" + value + "'");
    } else if (key == "days") {
      if (!parse_int_list(value, spec.days)) return parse_error(lineno, "bad list '" + value + "'");
    } else if (key == "crew") {
      if (!parse_int_list(value, spec.crew)) return parse_error(lineno, "bad list '" + value + "'");
    } else if (key == "beacons") {
      if (!parse_int_list(value, spec.beacons)) {
        return parse_error(lineno, "bad list '" + value + "'");
      }
    } else if (key == "faults") {
      spec.faults = split_list(value);
    } else if (key == "cascade") {
      spec.cascade = split_list(value);
    } else if (key == "trace_sample") {
      if (!parse_int_list(value, spec.trace_sample)) {
        return parse_error(lineno, "bad list '" + value + "'");
      }
    } else if (key == "mesh") {
      if (value == "on") {
        spec.mesh = true;
      } else if (value == "off") {
        spec.mesh = false;
      } else {
        return parse_error(lineno, "mesh wants on|off, got '" + value + "'");
      }
    } else if (key == "replication") {
      if (!parse_int(value, spec.replication)) {
        return parse_error(lineno, "bad count '" + value + "'");
      }
    } else {
      return parse_error(lineno, "unknown key '" + key + "'");
    }
  }
  if (!named) return Error{"campaign: missing 'campaign <name>' line"};
  if (auto ok = spec.validate(); !ok.ok()) return ok.error();
  return spec;
}

std::uint64_t habitat_seed(std::uint64_t base, std::size_t index) {
  // splitmix64 of (base + golden-ratio stride * (index + 1)): consecutive
  // indices land far apart, and index 0 does not collapse to the base.
  std::uint64_t z = base + 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(index) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Expected<faults::FaultPlan> fault_preset(const std::string& name, std::uint64_t seed) {
  if (name == "none") return faults::FaultPlan{};
  if (name == "day9-badge-swap") return faults::FaultPlan::day9_badge_swap();
  if (name == "battery-stress") return faults::FaultPlan::battery_stress();
  if (name == "storage-stress") return faults::FaultPlan::storage_stress();
  if (name == "infrastructure-stress") return faults::FaultPlan::infrastructure_stress();
  if (name == "clock-anomalies") return faults::FaultPlan::clock_anomalies();
  if (name == "mesh-partition") return faults::FaultPlan::mesh_partition();
  if (name == "combined") return faults::FaultPlan::combined(seed);
  return Error{"unknown fault preset '" + name + "'"};
}

core::MissionConfig make_mission_config(const HabitatSpec& spec) {
  core::MissionConfig config;
  config.seed = spec.seed;
  config.beacon_count = spec.beacons;
  config.script.mission_days = spec.days;
  // Campaign missions are instrumented from day 1: a 1-day habitat with the
  // default badge_start_day = 2 would record nothing.
  config.script.badge_start_day = 1;
  if (spec.crew == 5) {
    // Five effective crew: C departs at mission start, before any badge data.
    config.script.c_death_enabled = true;
    config.script.c_death_day = 1;
    config.script.c_death_time = 0;
  } else {
    // Six crew for the whole run, regardless of mission length.
    config.script.c_death_enabled = false;
  }
  config.mesh.enabled = spec.mesh;
  config.mesh.replication_factor = spec.replication;
  config.collect_from_mesh = spec.mesh;
  // Percentage -> parts-per-million keep threshold; the tracer's keep/drop
  // decision hashes only the trace id, so this stays thread-count pure.
  config.trace_keep_millionths = static_cast<std::uint32_t>(spec.trace_sample) * 10'000U;
  if (auto plan = fault_preset(spec.fault_preset, spec.seed); plan.has_value()) {
    config.fault_plan = std::move(*plan);
  }
  // The cascade's device faults ride the same injector as the preset's:
  // expansion is a pure function of (seed, scenario), so appending here
  // keeps the whole mission a pure function of the habitat spec.
  if (spec.cascade != "none") {
    if (auto scen = scenario::scenario_preset(spec.cascade, spec.seed); scen.has_value()) {
      if (auto expanded = scenario::expand_scenario(*scen, spec.seed); expanded.has_value()) {
        for (const auto& fault : expanded->cascade.plan.faults()) {
          config.fault_plan.add(fault);
        }
      }
    }
  }
  return config;
}

}  // namespace hs::fleet
