#include "exp/aggregate.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "obs/export.hpp"

namespace sdmbox::exp {

Aggregate aggregate_values(const std::vector<double>& values) {
  Aggregate a;
  a.count = values.size();
  if (values.empty()) return a;

  a.min = a.max = values.front();
  double sum = 0;
  for (const double v : values) {
    sum += v;
    a.min = std::min(a.min, v);
    a.max = std::max(a.max, v);
  }
  a.mean = sum / static_cast<double>(a.count);
  if (a.count < 2) return a;  // stddev / ci95 stay 0: one sample has no spread

  double sq = 0;
  for (const double v : values) {
    const double d = v - a.mean;
    sq += d * d;
  }
  a.stddev = std::sqrt(sq / static_cast<double>(a.count - 1));
  a.ci95 = 1.96 * a.stddev / std::sqrt(static_cast<double>(a.count));
  return a;
}

std::vector<MetricAggregate> aggregate_snapshots(const std::vector<MetricsSnapshot>& replicates) {
  // std::map keeps the output sorted by flattened key — the same order the
  // registry itself collects in, and the order the suite JSON pins.
  std::map<std::string, std::vector<double>> by_key;
  for (const MetricsSnapshot& snap : replicates) {
    for (const auto& [key, value] : snap) by_key[key].push_back(value);
  }
  std::vector<MetricAggregate> out;
  out.reserve(by_key.size());
  for (const auto& [key, values] : by_key) {
    out.push_back(MetricAggregate{key, aggregate_values(values)});
  }
  return out;
}

namespace {

void append_aggregate(std::string& out, const MetricAggregate& m) {
  out += "        {\"name\":\"";
  obs::json_escape(out, m.name);
  out += "\",\"count\":";
  obs::json_number(out, static_cast<double>(m.agg.count));
  out += ",\"mean\":";
  obs::json_number(out, m.agg.mean);
  out += ",\"stddev\":";
  obs::json_number(out, m.agg.stddev);
  out += ",\"min\":";
  obs::json_number(out, m.agg.min);
  out += ",\"max\":";
  obs::json_number(out, m.agg.max);
  out += ",\"ci95\":";
  obs::json_number(out, m.agg.ci95);
  out += '}';
}

}  // namespace

std::string suite_to_json(const std::string& suite_name, std::uint64_t base_seed,
                          std::size_t seeds_per_arm, const std::vector<ArmResult>& arms) {
  std::string out = "{\n  \"suite\": \"";
  obs::json_escape(out, suite_name);
  out += "\",\n  \"base_seed\": ";
  // Seeds are full-width 64-bit values (splitmix64 output): print them as
  // integers directly, not through the double-based recipe, which would
  // round anything past 2^53.
  out += std::to_string(base_seed);
  out += ",\n  \"seeds_per_arm\": ";
  out += std::to_string(seeds_per_arm);
  out += ",\n  \"arms\": [\n";
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const ArmResult& arm = arms[i];
    out += "    {\"arm\":\"";
    obs::json_escape(out, arm.name);
    out += "\",\n     \"spec\":\"";
    obs::json_escape(out, arm.spec.to_text());
    out += "\",\n     \"seeds\":[";
    for (std::size_t j = 0; j < arm.seeds.size(); ++j) {
      if (j) out += ',';
      out += std::to_string(arm.seeds[j]);
    }
    out += "],\n     \"metrics\":[\n";
    for (std::size_t j = 0; j < arm.metrics.size(); ++j) {
      append_aggregate(out, arm.metrics[j]);
      if (j + 1 < arm.metrics.size()) out += ',';
      out += '\n';
    }
    out += "     ]}";
    if (i + 1 < arms.size()) out += ',';
    out += '\n';
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace sdmbox::exp
