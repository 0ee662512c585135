#include "workload/traffic_matrix.hpp"

#include <algorithm>

namespace sdmbox::workload {

void TrafficMatrix::add_sample(policy::PolicyId p, int src_subnet, int dst_subnet,
                               double volume) {
  if (volume <= 0) return;
  total_[key1(p)] += volume;
  from_[key2(p, src_subnet)] += volume;
  pair_[key3(p, src_subnet, dst_subnet)] += volume;
  grand_total_ += volume;
}

namespace {

/// The per-flow measurement step shared by measure() and measure_stream():
/// keep the flow when sampled, first-match it, and add its volume scaled by
/// 1/sample_rate.
class Sampler {
public:
  Sampler(const policy::PolicyList& policies, const MeasureOptions& options)
      : policies_(policies), options_(options) {
    SDM_CHECK_MSG(options.sample_rate > 0 && options.sample_rate <= 1.0,
                  "sampling rate must be in (0, 1]");
    threshold_ =
        static_cast<std::uint64_t>(options.sample_rate * static_cast<double>(~std::uint64_t{0}));
  }

  void add(TrafficMatrix& tm, const FlowRecord& f) const {
    const double rate = options_.sample_rate;
    if (rate < 1.0 && f.id.hash(0x5a3f1e ^ options_.seed) > threshold_) return;  // not sampled
    const policy::Policy* p = policies_.first_match(f.id);
    if (p == nullptr) return;
    tm.add_sample(p->id, f.src_subnet, f.dst_subnet, static_cast<double>(f.packets) / rate);
  }

private:
  const policy::PolicyList& policies_;
  MeasureOptions options_;
  std::uint64_t threshold_ = 0;
};

}  // namespace

TrafficMatrix TrafficMatrix::measure(const policy::PolicyList& policies,
                                     std::span<const FlowRecord> flows,
                                     const MeasureOptions& options) {
  const Sampler sampler(policies, options);
  TrafficMatrix tm;
  for (const FlowRecord& f : flows) sampler.add(tm, f);
  return tm;
}

TrafficMatrix measure_stream(const policy::PolicyList& policies, FlowStream& stream,
                             const MeasureOptions& options) {
  const Sampler sampler(policies, options);
  TrafficMatrix tm;
  FlowRecord f;
  while (stream.next(f)) sampler.add(tm, f);
  return tm;
}

std::vector<std::pair<int, int>> TrafficMatrix::active_pairs(policy::PolicyId p) const {
  std::vector<std::pair<int, int>> out;
  for (const auto& [k, v] : pair_) {
    if ((k >> 48) == p.v && v > 0) {
      out.emplace_back(static_cast<int>((k >> 24) & 0xffffff), static_cast<int>(k & 0xffffff));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace sdmbox::workload
