#include "control/codec.hpp"

#include <cmath>

#include "control/wire.hpp"

namespace sdmbox::control {

namespace {
constexpr std::uint16_t kConfigMagic = 0x5dc0;  // SDm-Config
constexpr std::uint16_t kReportMagic = 0x5d20;  // SDm-Report

// Wire size of one element of each length-prefixed list.
constexpr std::size_t kIdBytes = 4;      // a policy id or a candidate node id
constexpr std::size_t kShareBytes = 12;  // target node id + weight
constexpr std::size_t kLineBytes = 16;   // policy + destination subnet + packets

/// One ratio entry's share list; false on an invalid target or a weight
/// that is negative or not finite (NaN passes `weight < 0`).
bool read_shares(ByteReader& r, std::vector<core::SplitRatioTable::Share>& shares) {
  const std::uint16_t n_shares = r.u16();
  if (!r.fits(n_shares, kShareBytes)) return false;
  shares.reserve(n_shares);
  for (std::uint16_t s = 0; s < n_shares && r.ok(); ++s) {
    const net::NodeId to{r.u32()};
    const double weight = r.f64();
    if (!to.valid() || !std::isfinite(weight) || weight < 0) return false;
    shares.push_back(core::SplitRatioTable::Share{to, weight});
  }
  return true;
}
}  // namespace

std::vector<std::uint8_t> encode_device_config(const core::DeviceConfig& config) {
  ByteWriter w;
  w.u16(kConfigMagic);
  w.u8(static_cast<std::uint8_t>(config.strategy));
  w.u64(config.version);
  w.u32(config.node.node.v);
  w.u8(config.node.is_proxy ? 1 : 0);
  // own functions as a bitmask
  std::uint64_t own = 0;
  for (const policy::FunctionId e : config.node.own_functions.to_vector()) {
    own |= std::uint64_t{1} << e.v;
  }
  w.u64(own);
  // relevant policies
  w.u32(static_cast<std::uint32_t>(config.node.relevant_policies.size()));
  for (const policy::PolicyId id : config.node.relevant_policies) w.u32(id.v);
  // candidate sets: count of non-empty functions, then per function
  std::uint8_t non_empty = 0;
  for (const auto& cands : config.node.candidates) non_empty += !cands.empty();
  w.u8(non_empty);
  for (std::uint8_t ev = 0; ev < policy::kMaxFunctions; ++ev) {
    const auto& cands = config.node.candidates[ev];
    if (cands.empty()) continue;
    w.u8(ev);
    w.u16(static_cast<std::uint16_t>(cands.size()));
    for (const net::NodeId c : cands) w.u32(c.v);
  }
  // split ratios: the aggregate (Eq. 2) section, then the detailed (Eq. 1)
  // one, each a count and its entries in key order
  const core::SplitRatioTable& ratios = config.node.ratios;
  for (const bool detailed : {false, true}) {
    const std::size_t n = detailed ? ratios.detailed_size()
                                   : ratios.size() - ratios.detailed_size();
    w.u32(static_cast<std::uint32_t>(n));
    ratios.for_each([&](policy::FunctionId e, policy::PolicyId p, int s, int d,
                        const std::vector<core::SplitRatioTable::Share>& shares) {
      if ((s >= 0) != detailed) return;
      w.u8(e.v);
      w.u32(p.v);
      if (detailed) {
        w.u32(static_cast<std::uint32_t>(s));
        w.u32(static_cast<std::uint32_t>(d));
      }
      w.u16(static_cast<std::uint16_t>(shares.size()));
      for (const auto& share : shares) {
        w.u32(share.to.v);
        w.f64(share.weight);
      }
    });
  }
  return w.take();
}

std::optional<core::DeviceConfig> decode_device_config(const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.u16() != kConfigMagic) return std::nullopt;
  core::DeviceConfig cfg;
  const std::uint8_t strategy = r.u8();
  if (strategy > static_cast<std::uint8_t>(core::StrategyKind::kLoadBalanced)) {
    return std::nullopt;
  }
  cfg.strategy = static_cast<core::StrategyKind>(strategy);
  cfg.version = r.u64();
  cfg.node.node = net::NodeId{r.u32()};
  if (!cfg.node.node.valid()) return std::nullopt;
  cfg.node.is_proxy = r.u8() != 0;
  const std::uint64_t own = r.u64();
  for (std::uint8_t ev = 0; ev < policy::kMaxFunctions; ++ev) {
    if ((own >> ev) & 1) cfg.node.own_functions.insert(policy::FunctionId{ev});
  }
  const std::uint32_t n_policies = r.u32();
  if (!r.ok() || !r.fits(n_policies, kIdBytes)) return std::nullopt;
  cfg.node.relevant_policies.reserve(n_policies);
  for (std::uint32_t i = 0; i < n_policies && r.ok(); ++i) {
    const policy::PolicyId p{r.u32()};
    if (!p.valid()) return std::nullopt;
    cfg.node.relevant_policies.push_back(p);
  }
  const std::uint8_t non_empty = r.u8();
  for (std::uint8_t i = 0; i < non_empty && r.ok(); ++i) {
    const std::uint8_t ev = r.u8();
    if (ev >= policy::kMaxFunctions) return std::nullopt;
    const std::uint16_t count = r.u16();
    if (!r.fits(count, kIdBytes)) return std::nullopt;
    auto& cands = cfg.node.candidates[ev];
    cands.reserve(count);
    for (std::uint16_t c = 0; c < count && r.ok(); ++c) {
      const net::NodeId cand{r.u32()};
      if (!cand.valid()) return std::nullopt;
      cands.push_back(cand);
    }
  }
  for (const bool detailed : {false, true}) {
    const std::uint32_t n_entries = r.u32();
    if (!r.ok() || n_entries > 10'000'000) return std::nullopt;
    for (std::uint32_t i = 0; i < n_entries && r.ok(); ++i) {
      const policy::FunctionId e{r.u8()};
      const policy::PolicyId p{r.u32()};
      // A detailed entry names two subnet indices: (-1, -1) is the
      // aggregate entry's key, which a detailed entry must not overwrite.
      const int s = detailed ? static_cast<std::int32_t>(r.u32()) : -1;
      const int d = detailed ? static_cast<std::int32_t>(r.u32()) : -1;
      std::vector<core::SplitRatioTable::Share> shares;
      if (e.v >= policy::kMaxFunctions || !p.valid() || (detailed && (s < 0 || d < 0)) ||
          !read_shares(r, shares)) {
        return std::nullopt;
      }
      if (r.ok()) cfg.node.ratios.set(e, p, std::move(shares), s, d);
    }
  }
  if (!r.done()) return std::nullopt;
  return cfg;
}

std::vector<std::uint8_t> encode_measurement_report(const MeasurementReport& report) {
  ByteWriter w;
  w.u16(kReportMagic);
  w.u32(static_cast<std::uint32_t>(report.src_subnet));
  w.u32(static_cast<std::uint32_t>(report.lines.size()));
  for (const auto& line : report.lines) {
    w.u32(line.policy);
    w.u32(static_cast<std::uint32_t>(line.dst_subnet));
    w.u64(line.packets);
  }
  return w.take();
}

std::optional<MeasurementReport> decode_measurement_report(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader r(bytes);
  if (r.u16() != kReportMagic) return std::nullopt;
  MeasurementReport report;
  report.src_subnet = static_cast<std::int32_t>(r.u32());
  const std::uint32_t n = r.u32();
  if (!r.ok() || !r.fits(n, kLineBytes)) return std::nullopt;
  report.lines.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    MeasurementReport::Line line;
    line.policy = r.u32();
    line.dst_subnet = static_cast<std::int32_t>(r.u32());
    line.packets = r.u64();
    report.lines.push_back(line);
  }
  if (!r.done()) return std::nullopt;
  return report;
}

}  // namespace sdmbox::control
