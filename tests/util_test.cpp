#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace sdmbox::util {
namespace {

// ---------------------------------------------------------------------------
// check.hpp
// ---------------------------------------------------------------------------

TEST(Check, PassingCheckDoesNothing) { SDM_CHECK(1 + 1 == 2); }

TEST(Check, FailingCheckThrowsContractViolation) {
  EXPECT_THROW(SDM_CHECK(false), ContractViolation);
}

TEST(Check, MessageIsIncluded) {
  try {
    SDM_CHECK_MSG(false, "the reason");
    FAIL() << "expected throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("the reason"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// hash.hpp
// ---------------------------------------------------------------------------

TEST(Hash, Mix64IsDeterministic) { EXPECT_EQ(mix64(42), mix64(42)); }

TEST(Hash, Mix64SpreadsNearbyInputs) {
  EXPECT_NE(mix64(1), mix64(2));
  EXPECT_NE(mix64(1) >> 32, mix64(2) >> 32);  // high bits differ too
}

TEST(Hash, CombineIsOrderSensitive) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

// ---------------------------------------------------------------------------
// rng.hpp
// ---------------------------------------------------------------------------

TEST(Rng, SameSeedSameSequence) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(7), b(8);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng r(1);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversRange) {
  Rng r(2);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng r(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(4);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextDoubleMeanNearHalf) {
  Rng r(5);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BernoulliRespectsProbability) {
  Rng r(6);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.next_bool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(7);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, PowerLawStaysInBounds) {
  Rng r(8);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.next_power_law(1, 5000, 1.6);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 5000u);
  }
}

TEST(Rng, PowerLawIsHeavyTailed) {
  // Small values dominate but the tail is visited.
  Rng r(9);
  int ones = 0;
  std::uint64_t max_seen = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const auto v = r.next_power_law(1, 5000, 1.6);
    ones += v == 1;
    max_seen = std::max(max_seen, v);
  }
  EXPECT_GT(ones, n / 3);        // mode at the minimum
  EXPECT_GT(max_seen, 1000u);    // tail reached
}

TEST(Rng, PowerLawAlphaControlsMean) {
  Rng r(10);
  double sum_a = 0, sum_b = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum_a += static_cast<double>(r.next_power_law(1, 5000, 1.3));
  for (int i = 0; i < n; ++i) sum_b += static_cast<double>(r.next_power_law(1, 5000, 2.2));
  EXPECT_GT(sum_a / n, sum_b / n);  // heavier tail -> larger mean
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng r(11);
  const auto s = r.sample_without_replacement(50, 20);
  EXPECT_EQ(s.size(), 20u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (const auto v : s) EXPECT_LT(v, 50u);
}

TEST(Rng, SampleAllElements) {
  Rng r(12);
  const auto s = r.sample_without_replacement(10, 10);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng a(14);
  Rng b = a.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 3);
}

// ---------------------------------------------------------------------------
// strings.hpp
// ---------------------------------------------------------------------------

TEST(Strings, WithThousands) {
  EXPECT_EQ(with_thousands(0), "0");
  EXPECT_EQ(with_thousands(999), "999");
  EXPECT_EQ(with_thousands(1000), "1,000");
  EXPECT_EQ(with_thousands(1234567), "1,234,567");
  EXPECT_EQ(with_thousands(1891652), "1,891,652");
}

TEST(Strings, FormatFixed) {
  EXPECT_EQ(format_fixed(1.6589, 2), "1.66");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
}

TEST(Strings, FormatMillions) {
  EXPECT_EQ(format_millions(1658900), "1.66M");
  EXPECT_EQ(format_millions(0), "0.00M");
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcde", 3), "abcde");  // no truncation
}

// ---------------------------------------------------------------------------
// log.hpp
// ---------------------------------------------------------------------------

TEST(Log, ParseLogLevelNamesAreCaseInsensitiveWithAliases) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::kTrace);
  EXPECT_EQ(parse_log_level("DEBUG"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("Info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("none"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("verbose"), std::nullopt);
  EXPECT_EQ(parse_log_level(""), std::nullopt);
}

}  // namespace
}  // namespace sdmbox::util
