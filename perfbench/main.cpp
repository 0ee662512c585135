// Repository benchmark binary (run through perfbench/run.py).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>]
//
// --trace 0 times one workload end to end with tracing off and prints the
// end-to-end metrics; --trace 1 runs the per-layer study (README.md) and
// prints the per-layer metrics. The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 only when every
// correctness check passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "obs/export.hpp"
#include "util/hash.hpp"

namespace perfbench {

// ---- spans ----------------------------------------------------------------

SpanLog::Scope::Scope(SpanLog& log, std::string name) : log_(log), t0_(Clock::now()) {
  if (!log_.enabled_) return;
  Span s;
  s.name = std::move(name);
  s.start_s = std::chrono::duration<double>(t0_ - log_.origin_).count();
  s.parent = log_.open_.empty() ? -1 : log_.open_.back();
  s.run = log_.run_;
  index_ = static_cast<int>(log_.spans_.size());
  log_.spans_.push_back(std::move(s));
  log_.open_.push_back(index_);
}

double SpanLog::Scope::stop() {
  if (elapsed_ >= 0) return elapsed_;
  const auto t1 = Clock::now();
  elapsed_ = std::chrono::duration<double>(t1 - t0_).count();
  if (index_ >= 0) {
    log_.spans_[static_cast<std::size_t>(index_)].end_s =
        std::chrono::duration<double>(t1 - log_.origin_).count();
    // Scopes nest lexically, so this span is the innermost open one.
    log_.open_.pop_back();
  }
  return elapsed_;
}

std::vector<double> SpanLog::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(1e3 * (s.end_s - s.start_s));
  }
  return out;
}

std::string SpanLog::to_json() const {
  std::string out = "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",";
    out += "{\"id\":" + std::to_string(i) + ",\"name\":\"" + sdmbox::obs::json_escape(s.name) +
           "\",\"start_s\":" + sdmbox::obs::json_number(s.start_s) +
           ",\"end_s\":" + sdmbox::obs::json_number(s.end_s) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"run\":" + std::to_string(s.run) + "}";
  }
  return out + "]}\n";
}

// ---- statistics -------------------------------------------------------------

namespace {

/// Linear-interpolated quantile q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::pair<int, double> tail_percentile(std::vector<double> v) {
  for (const int p : {99, 95, 90, 75}) {
    const double beyond = static_cast<double>(v.size()) * (100 - p) / 100.0;
    if (beyond >= 10) return {p, quantile(v, p / 100.0)};
  }
  return {50, median(std::move(v))};
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

bool is_optimized_build() {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  const std::string type = PERFBENCH_BUILD_TYPE;
  return ndebug && PERFBENCH_SANITIZED == 0 && (type == "Release" || type == "RelWithDebInfo");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload datapath_waxman|chaos_verify_waxman|replan_waxman "
               "--seed N --seconds S --trace 0|1 [--spans-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string spans_out;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "1") == 0;
      have_trace = true;
    } else if (a == "--spans-out") {
      spans_out = v;
    } else {
      return usage();
    }
  }
  const bool known = opt.workload == "datapath_waxman" || opt.workload == "chaos_verify_waxman" ||
                     opt.workload == "replan_waxman";
  if (!known || !have_trace || !(opt.seconds > 0)) return usage();

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d build=%s%s nproc=%u\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, PERFBENCH_BUILD_TYPE, PERFBENCH_SANITIZED ? "+sanitizer" : "",
              nproc);
  if (!is_optimized_build()) {
    std::fprintf(stderr, "perfbench: refusing to record from a %s%s build\n", PERFBENCH_BUILD_TYPE,
                 PERFBENCH_SANITIZED ? " sanitizer" : " unoptimized");
    return 2;
  }

  Result r;
  try {
    if (opt.trace) {
      SpanLog log(true, sdmbox::util::mix64(opt.seed ^ std::hash<std::string>{}(opt.workload)));
      r = run_layers(opt, log);
      if (!spans_out.empty()) {
        if (!sdmbox::obs::write_file(spans_out, log.to_json())) {
          r.problem("cannot write spans to " + spans_out);
        }
      }
      r.notes.push_back(std::to_string(log.spans().size()) + " spans recorded");
    } else if (opt.workload == "datapath_waxman") {
      r = run_datapath(opt);
    } else if (opt.workload == "chaos_verify_waxman") {
      r = run_chaos_verify(opt);
    } else {
      r = run_replan(opt);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& n : r.notes) std::printf("  %s\n", n.c_str());
  const double ratio =
      r.attempted == 0 ? 0 : static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  std::printf("  failed_ratio = %.6g (%llu of %llu)\n", ratio,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const std::string& p : r.problems) std::printf("  CHECK FAILED: %s\n", p.c_str());
  std::string metrics;
  for (const auto& [name, m] : r.metrics) {
    std::printf("  %-34s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + sdmbox::obs::json_number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              r.correct() ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return r.correct() ? 0 : 1;
}
