#include "exp/spec.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "util/strings.hpp"

namespace sdmbox::exp {

bool parse_u64(const std::string& v, std::uint64_t& out) {
  // strtoull alone would accept a sign (negating modulo 2^64) and saturate
  // out-of-range values, so demand a leading digit and check ERANGE.
  if (v.empty() || v[0] < '0' || v[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(v.c_str(), &end, 10);
  if (end != v.c_str() + v.size() || errno == ERANGE) return false;
  out = parsed;
  return true;
}

namespace {

/// %.17g round-trips doubles exactly; integral values render as integers so
/// the common case stays readable (mirrors the obs exporters' recipe).
std::string fmt_double(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) --e;
  return s.substr(b, e - b);
}

bool parse_bool(const std::string& v, bool& out) {
  if (v == "true" || v == "1") {
    out = true;
    return true;
  }
  if (v == "false" || v == "0") {
    out = false;
    return true;
  }
  return false;
}

bool parse_size(const std::string& v, std::size_t& out) {
  std::uint64_t u = 0;
  if (!parse_u64(v, u)) return false;
  out = static_cast<std::size_t>(u);
  return true;
}

bool parse_int(const std::string& v, int& out) {
  std::uint64_t u = 0;
  if (!parse_u64(v, u) || u > static_cast<std::uint64_t>(std::numeric_limits<int>::max()))
    return false;
  out = static_cast<int>(u);
  return true;
}

bool parse_double(const std::string& v, double& out) {
  if (v.empty()) return false;
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  if (end != v.c_str() + v.size()) return false;
  out = parsed;
  return true;
}

bool parse_strategy(const std::string& v, core::StrategyKind& out) {
  if (v == "hp") {
    out = core::StrategyKind::kHotPotato;
    return true;
  }
  if (v == "rand") {
    out = core::StrategyKind::kRandom;
    return true;
  }
  if (v == "lb") {
    out = core::StrategyKind::kLoadBalanced;
    return true;
  }
  return false;
}

const char* strategy_token(core::StrategyKind s) noexcept {
  switch (s) {
    case core::StrategyKind::kHotPotato: return "hp";
    case core::StrategyKind::kRandom: return "rand";
    case core::StrategyKind::kLoadBalanced: return "lb";
  }
  return "?";
}

bool parse_engine(const std::string& v, lp::SimplexEngine& out) {
  if (v == "sparse") {
    out = lp::SimplexEngine::kSparse;
    return true;
  }
  if (v == "dense") {
    out = lp::SimplexEngine::kDense;
    return true;
  }
  return false;
}

}  // namespace

const char* to_string(TopologyKind k) noexcept {
  switch (k) {
    case TopologyKind::kCampus: return "campus";
    case TopologyKind::kWaxman: return "waxman";
  }
  return "?";
}

const char* to_string(FaultScript f) noexcept {
  switch (f) {
    case FaultScript::kNone: return "none";
    case FaultScript::kChaos: return "chaos";
    case FaultScript::kGenerated: return "generated";
  }
  return "?";
}

std::string ScenarioSpec::validate() const {
  if (packets == 0) return "packets must be > 0";
  if (policies_per_class == 0) return "policies_per_class must be > 0";
  if (campus_edge_count == 0 || campus_core_count == 0)
    return "campus topology needs edge and core routers";
  if (waxman_edge_count == 0 || waxman_core_count == 0)
    return "waxman topology needs edge and core routers";
  if (!(epoch > 0) || !std::isfinite(epoch)) return "epoch must be a positive finite period";
  if (!(trace_sample >= 0 && trace_sample <= 1)) return "trace_sample must be in [0, 1]";
  if (!(wp_cache_hit_rate >= 0 && wp_cache_hit_rate <= 1))
    return "wp_cache_hit_rate must be in [0, 1]";
  if (!(reopt.epoch_period >= 0) || !std::isfinite(reopt.epoch_period))
    return "reopt_period must be a non-negative finite period";
  if (!(reopt.drift_threshold >= 0 && reopt.drift_threshold <= 1))
    return "reopt_threshold must be in [0, 1]";
  if (reopt.cooldown_epochs < 1) return "reopt_cooldown must be >= 1";
  if (label_switching && !flow_cache) return "label_switching requires flow_cache";
  if (verify && trace_sample <= 0) return "verify requires trace_sample > 0";
  return {};
}

std::string ScenarioSpec::to_text() const {
  std::ostringstream out;
  out << "topology = " << to_string(topology) << '\n';
  out << "off_path = " << (off_path ? "true" : "false") << '\n';
  out << "seed = " << seed << '\n';
  out << "campus_edge_count = " << campus_edge_count << '\n';
  out << "campus_core_count = " << campus_core_count << '\n';
  out << "waxman_edge_count = " << waxman_edge_count << '\n';
  out << "waxman_core_count = " << waxman_core_count << '\n';
  out << "packets = " << packets << '\n';
  out << "policies_per_class = " << policies_per_class << '\n';
  out << "strategy = " << strategy_token(strategy) << '\n';
  out << "fail_one = " << fail_one << '\n';
  out << "lp_engine = " << lp::to_string(lp_engine) << '\n';
  out << "lp_warm_start = " << (lp_warm_start ? "true" : "false") << '\n';
  out << "flow_cache = " << (flow_cache ? "true" : "false") << '\n';
  out << "label_switching = " << (label_switching ? "true" : "false") << '\n';
  out << "wp_cache_hit_rate = " << fmt_double(wp_cache_hit_rate) << '\n';
  out << "peer_health = " << (peer_health ? "true" : "false") << '\n';
  out << "faults = " << to_string(faults) << '\n';
  out << "chaos_seed = " << chaos_seed << '\n';
  out << "epoch = " << fmt_double(epoch) << '\n';
  out << "trace_sample = " << fmt_double(trace_sample) << '\n';
  out << "verify = " << (verify ? "true" : "false") << '\n';
  out << "spans = " << (spans ? "true" : "false") << '\n';
  out << "reopt_period = " << fmt_double(reopt.epoch_period) << '\n';
  out << "reopt_threshold = " << fmt_double(reopt.drift_threshold) << '\n';
  out << "reopt_cooldown = " << reopt.cooldown_epochs << '\n';
  out << "reopt_min_reports = " << reopt.min_reports << '\n';
  return out.str();
}

FieldStatus set_field(ScenarioSpec& s, const std::string& key, const std::string& value) {
  // Every value parser writes its field only on success, so a rejected value
  // leaves the spec untouched.
  bool ok = true;
  if (key == "topology") {
    if (value == "campus") {
      s.topology = TopologyKind::kCampus;
    } else if (value == "waxman") {
      s.topology = TopologyKind::kWaxman;
    } else {
      ok = false;
    }
  } else if (key == "off_path") {
    ok = parse_bool(value, s.off_path);
  } else if (key == "seed") {
    ok = parse_u64(value, s.seed);
  } else if (key == "campus_edge_count") {
    ok = parse_size(value, s.campus_edge_count);
  } else if (key == "campus_core_count") {
    ok = parse_size(value, s.campus_core_count);
  } else if (key == "waxman_edge_count") {
    ok = parse_size(value, s.waxman_edge_count);
  } else if (key == "waxman_core_count") {
    ok = parse_size(value, s.waxman_core_count);
  } else if (key == "packets") {
    ok = parse_u64(value, s.packets);
  } else if (key == "policies_per_class") {
    ok = parse_size(value, s.policies_per_class);
  } else if (key == "strategy") {
    ok = parse_strategy(value, s.strategy);
  } else if (key == "fail_one") {
    s.fail_one = value;
  } else if (key == "lp_engine") {
    ok = parse_engine(value, s.lp_engine);
  } else if (key == "lp_warm_start") {
    ok = parse_bool(value, s.lp_warm_start);
  } else if (key == "flow_cache") {
    ok = parse_bool(value, s.flow_cache);
  } else if (key == "label_switching") {
    ok = parse_bool(value, s.label_switching);
  } else if (key == "wp_cache_hit_rate") {
    ok = parse_double(value, s.wp_cache_hit_rate);
  } else if (key == "peer_health") {
    ok = parse_bool(value, s.peer_health);
  } else if (key == "faults") {
    if (value == "none") {
      s.faults = FaultScript::kNone;
    } else if (value == "chaos") {
      s.faults = FaultScript::kChaos;
    } else if (value == "generated") {
      s.faults = FaultScript::kGenerated;
    } else {
      ok = false;
    }
  } else if (key == "chaos_seed") {
    ok = parse_u64(value, s.chaos_seed);
  } else if (key == "epoch") {
    ok = parse_double(value, s.epoch);
  } else if (key == "trace_sample") {
    ok = parse_double(value, s.trace_sample);
  } else if (key == "verify") {
    ok = parse_bool(value, s.verify);
  } else if (key == "spans") {
    ok = parse_bool(value, s.spans);
  } else if (key == "reopt_period") {
    ok = parse_double(value, s.reopt.epoch_period);
  } else if (key == "reopt_threshold") {
    ok = parse_double(value, s.reopt.drift_threshold);
  } else if (key == "reopt_cooldown") {
    ok = parse_int(value, s.reopt.cooldown_epochs);
  } else if (key == "reopt_min_reports") {
    ok = parse_u64(value, s.reopt.min_reports);
  } else {
    return FieldStatus::kUnknownKey;
  }
  return ok ? FieldStatus::kOk : FieldStatus::kBadValue;
}

SpecParseResult parse_text(const std::string& text, const ScenarioSpec& defaults) {
  SpecParseResult result;
  ScenarioSpec& s = result.spec;
  s = defaults;

  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string stripped = trim(line);
    if (stripped.empty()) continue;
    const std::size_t eq = stripped.find('=');
    if (eq == std::string::npos) {
      result.errors.push_back("line " + std::to_string(lineno) + ": expected `key = value`");
      continue;
    }
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    switch (set_field(s, key, value)) {
      case FieldStatus::kOk: break;
      case FieldStatus::kUnknownKey:
        result.errors.push_back("line " + std::to_string(lineno) + ": unknown key `" + key + "`");
        break;
      case FieldStatus::kBadValue:
        result.errors.push_back("line " + std::to_string(lineno) + ": bad value `" + value +
                                "` for `" + key + "`");
        break;
    }
  }
  if (result.errors.empty()) {
    const std::string invalid = s.validate();
    if (!invalid.empty()) result.errors.push_back(invalid);
  }
  return result;
}

}  // namespace sdmbox::exp
