// Tests for the JSON writer and the report exporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "plant/three_tank_system.h"
#include "reliability/analysis.h"
#include "sched/schedulability.h"
#include "sim/runtime.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/strings.h"

namespace lrt {
namespace {

TEST(JsonWriter, Primitives) {
  JsonWriter json;
  json.begin_object();
  json.key("s");
  json.value("text");
  json.key("d");
  json.value(0.5);
  json.key("i");
  json.value(std::int64_t{-7});
  json.key("b");
  json.value(true);
  json.key("n");
  json.null();
  json.end_object();
  EXPECT_EQ(std::move(json).str(),
            R"({"s":"text","d":0.5,"i":-7,"b":true,"n":null})");
}

TEST(JsonWriter, NestedContainers) {
  JsonWriter json;
  json.begin_object();
  json.key("list");
  json.begin_array();
  json.value(1);
  json.begin_object();
  json.key("x");
  json.value(2);
  json.end_object();
  json.begin_array();
  json.end_array();
  json.end_array();
  json.end_object();
  EXPECT_EQ(std::move(json).str(), R"({"list":[1,{"x":2},[]]})");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter json;
  json.begin_array();
  json.value("a\"b\\c\nd\te");
  json.value(std::string_view("\x01", 1));
  json.end_array();
  EXPECT_EQ(std::move(json).str(), "[\"a\\\"b\\\\c\\nd\\te\",\"\\u0001\"]");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
  JsonWriter json;
  json.begin_array();
  json.value(std::numeric_limits<double>::infinity());
  json.value(std::nan(""));
  json.end_array();
  EXPECT_EQ(std::move(json).str(), "[null,null]");
}

std::string printf_12g(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.12g", value);
  return buffer;
}

// format_double (and through it every JsonWriter number) is defined as
// printf's "%.12g": the report bytes on the wire depend on it.
TEST(JsonWriter, NumbersMatchPrintfTwelveSignificantDigits) {
  std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.5,
      0.1,
      1.0 / 3.0,
      0.999999999999,
      0.9999999999995,
      1e-5,
      9.99999999999e-6,
      1.00000000000001e-5,
      1e12,
      999999999999.0,
      999999999999.5,
      1e12 + 1.0,
      123456789012345.0,
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,
      std::numeric_limits<double>::epsilon(),
  };
  Xoshiro256 rng(20081);
  for (int i = 0; i < 100000; ++i) {
    // Uniform bit patterns cover every exponent; uniform reals cover the
    // [0,1] range SRGs and LRCs live in.
    const std::uint64_t bits = rng.next();
    double from_bits;
    std::memcpy(&from_bits, &bits, sizeof from_bits);
    if (std::isfinite(from_bits)) values.push_back(from_bits);
    values.push_back(rng.next_double());
    values.push_back(rng.uniform(-1e13, 1e13));
  }
  for (const double value : values) {
    const std::string expected = printf_12g(value);
    ASSERT_EQ(format_double(value), expected) << expected;
    JsonWriter json;
    json.value(value);
    ASSERT_EQ(std::move(json).str(), expected);
  }
  // Report summaries print non-finite values too (JSON writes null).
  for (const double value : {std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(format_double(value), printf_12g(value));
  }
}

// parse_json stores numbers as doubles: integers beyond 2^53 - 1 may
// already be rounded, so json_to_int refuses them.
TEST(JsonReader, IntegersBeyondDoublePrecisionAreRejected) {
  const auto to_int = [](std::string_view text) {
    const Result<JsonValue> document = parse_json(text);
    EXPECT_TRUE(document.ok()) << text;
    return json_to_int(*document, "n");
  };
  const Result<std::int64_t> max_exact = to_int("9007199254740991");
  ASSERT_TRUE(max_exact.ok()) << max_exact.status().to_string();
  EXPECT_EQ(*max_exact, (std::int64_t{1} << 53) - 1);
  EXPECT_EQ(*max_exact, kJsonMaxExactInt);
  const Result<std::int64_t> min_exact = to_int("-9007199254740991");
  ASSERT_TRUE(min_exact.ok());
  EXPECT_EQ(*min_exact, -kJsonMaxExactInt);

  // 2^53 itself is exact as a double, but 2^53 + 1 parses to the same
  // double, so neither can be trusted.
  for (const std::string_view text :
       {"9007199254740992", "9007199254740993", "-9007199254740992",
        "9223372036854775808", "-9223372036854775808", "1e300"}) {
    const Result<std::int64_t> value = to_int(text);
    ASSERT_FALSE(value.ok()) << text;
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument) << text;
  }
  EXPECT_FALSE(to_int("0.5").ok());
  EXPECT_FALSE(to_int("\"7\"").ok());
}

TEST(JsonExport, ReliabilityReport) {
  auto system = plant::make_three_tank_system({});
  const auto report = reliability::analyze(*system->implementation);
  const std::string json = reliability::to_json(*report);
  EXPECT_NE(json.find(R"("reliable":true)"), std::string::npos) << json;
  EXPECT_NE(json.find(R"("name":"u1")"), std::string::npos);
  EXPECT_NE(json.find(R"("srg":0.970299)"), std::string::npos);
  EXPECT_NE(json.find(R"("memory_free":true)"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(JsonExport, SchedulabilityReport) {
  auto system = plant::make_three_tank_system({});
  const auto report = sched::analyze_schedulability(*system->implementation);
  const std::string json = sched::to_json(*report, *system->implementation);
  EXPECT_NE(json.find(R"("schedulable":true)"), std::string::npos);
  EXPECT_NE(json.find(R"("host":"h3")"), std::string::npos);
  EXPECT_NE(json.find(R"("task":"read1")"), std::string::npos);
  EXPECT_NE(json.find(R"("start":)"), std::string::npos);
}

TEST(JsonExport, SimulationResult) {
  auto system = plant::make_three_tank_system({});
  sim::NullEnvironment env;
  sim::SimulationOptions options;
  options.periods = 1000;
  options.actuator_comms = {"u1", "u2"};
  const auto result = sim::simulate(*system->implementation, env, options);
  const std::string json = sim::to_json(*result);
  EXPECT_NE(json.find(R"("periods":1000)"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"u1")"), std::string::npos);
  EXPECT_NE(json.find(R"("ci_low":)"), std::string::npos);
  EXPECT_NE(json.find(R"("deadline_misses":0)"), std::string::npos);
}

}  // namespace
}  // namespace lrt
