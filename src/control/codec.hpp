// Serialization of control-plane messages.
//
// DeviceConfig rides in kConfigPush packets (controller -> device);
// MeasurementReport rides in kMeasurementReport packets (proxy ->
// controller). Decoding is all-or-nothing and never throws: malformed bytes,
// including ids, subnet pairs or weights the split-ratio table would refuse,
// yield nullopt, never a partially-applied configuration.
#pragma once

#include <optional>
#include <vector>

#include "core/plan.hpp"

namespace sdmbox::control {

std::vector<std::uint8_t> encode_device_config(const core::DeviceConfig& config);
std::optional<core::DeviceConfig> decode_device_config(const std::vector<std::uint8_t>& bytes);

/// One proxy's traffic report: per-(policy, destination subnet) outbound
/// packet volumes over the last measurement period (§III.C).
struct MeasurementReport {
  int src_subnet = -1;
  struct Line {
    std::uint32_t policy;
    std::int32_t dst_subnet;
    std::uint64_t packets;
  };
  std::vector<Line> lines;
};

std::vector<std::uint8_t> encode_measurement_report(const MeasurementReport& report);
std::optional<MeasurementReport> decode_measurement_report(
    const std::vector<std::uint8_t>& bytes);

}  // namespace sdmbox::control
