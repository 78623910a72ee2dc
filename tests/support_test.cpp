// Unit tests for src/support: Status/Result, RNG, math helpers,
// string helpers, hashing, and the argument parser.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "support/argparse.h"
#include "support/hash.h"
#include "support/math_util.h"
#include "support/rng.h"
#include "support/status.h"
#include "support/strings.h"

namespace lrt {
namespace {

// --- Status / Result ---

TEST(Status, DefaultIsOk) {
  const Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status status = InvalidArgumentError("bad period");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad period");
  EXPECT_EQ(status.to_string(), "INVALID_ARGUMENT: bad period");
}

TEST(Status, AllFactoriesProduceDistinctCodes) {
  const std::vector<Status> statuses = {
      InvalidArgumentError("a"), NotFoundError("b"), AlreadyExistsError("c"),
      FailedPreconditionError("d"), OutOfRangeError("e"),
      UnsatisfiableError("f"), ParseError("g"), InternalError("h")};
  std::set<StatusCode> codes;
  for (const Status& status : statuses) codes.insert(status.code());
  EXPECT_EQ(codes.size(), statuses.size());
}

TEST(Result, HoldsValue) {
  const Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value_or(7), 42);
}

TEST(Result, HoldsError) {
  const Result<int> result = NotFoundError("missing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(7), 7);
}

Result<int> half_of_even(int x) {
  if (x % 2 != 0) return InvalidArgumentError("odd");
  return x / 2;
}

Result<int> quarter(int x) {
  LRT_ASSIGN_OR_RETURN(const int half, half_of_even(x));
  LRT_ASSIGN_OR_RETURN(const int q, half_of_even(half));
  return q;
}

TEST(Result, AssignOrReturnPropagates) {
  EXPECT_EQ(*quarter(8), 2);
  EXPECT_FALSE(quarter(6).ok());   // 3 is odd
  EXPECT_FALSE(quarter(7).ok());
}

// --- RNG ---

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(12345);
  Xoshiro256 b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, DoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Xoshiro256 rng(99);
  const int n = 200'000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  const double rate = static_cast<double>(hits) / n;
  EXPECT_NEAR(rate, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerateProbabilities) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, NextBelowStaysInRange) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Xoshiro256 parent(42);
  Xoshiro256 child = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next() == child.next()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

// --- math_util ---

TEST(MathUtil, LcmGcd) {
  const std::vector<std::int64_t> values = {2, 3, 4, 2};
  EXPECT_EQ(lcm_all(values), 12);
  EXPECT_EQ(gcd_all(values), 1);
  const std::vector<std::int64_t> harmonic = {100, 500};
  EXPECT_EQ(lcm_all(harmonic), 500);
  EXPECT_EQ(gcd_all(harmonic), 100);
  EXPECT_EQ(lcm_all({}), 1);
  EXPECT_EQ(gcd_all({}), 0);
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 5), 2);
  EXPECT_EQ(ceil_div(11, 5), 3);
  EXPECT_EQ(ceil_div(0, 5), 0);
}

TEST(MathUtil, ProbabilityPredicates) {
  EXPECT_TRUE(is_probability(0.0));
  EXPECT_TRUE(is_probability(1.0));
  EXPECT_FALSE(is_probability(-0.1));
  EXPECT_FALSE(is_probability(1.1));
  EXPECT_FALSE(is_probability(std::nan("")));
  EXPECT_FALSE(is_reliability(0.0));
  EXPECT_TRUE(is_reliability(1.0));
  EXPECT_TRUE(is_reliability(1e-9));
}

TEST(MathUtil, SeriesAndParallelComposition) {
  const std::vector<double> ps = {0.9, 0.8};
  EXPECT_NEAR(series_and(ps), 0.72, 1e-12);
  EXPECT_NEAR(parallel_or(ps), 1.0 - 0.1 * 0.2, 1e-12);
  EXPECT_DOUBLE_EQ(series_and({}), 1.0);
  EXPECT_DOUBLE_EQ(parallel_or({}), 0.0);
}

TEST(MathUtil, PaperReplicationExample) {
  // Paper Section 1: two hosts with SRG 0.8 => 1 - 0.2^2 = 0.96 >= 0.9.
  const std::vector<double> two_hosts = {0.8, 0.8};
  EXPECT_NEAR(parallel_or(two_hosts), 0.96, 1e-12);
  EXPECT_TRUE(approx_ge(parallel_or(two_hosts), 0.9));
}

TEST(MathUtil, ApproxComparisons) {
  EXPECT_TRUE(approx_equal(0.1 + 0.2, 0.3));
  EXPECT_FALSE(approx_equal(0.1, 0.2));
  EXPECT_TRUE(approx_ge(0.3, 0.3 + 1e-12));
  EXPECT_FALSE(approx_ge(0.2, 0.3));
}

// --- strings ---

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y \t\n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(Strings, IsIdentifier) {
  EXPECT_TRUE(is_identifier("t1"));
  EXPECT_TRUE(is_identifier("_private"));
  EXPECT_TRUE(is_identifier("Read_1"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("1task"));
  EXPECT_FALSE(is_identifier("a-b"));
  EXPECT_FALSE(is_identifier("a b"));
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double(0.970299), "0.970299");
}

// --- Wire-stable status code names ---

TEST(Status, CodeNamesRoundTrip) {
  const StatusCode codes[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kAlreadyExists,
      StatusCode::kFailedPrecondition, StatusCode::kOutOfRange,
      StatusCode::kUnsatisfiable, StatusCode::kParseError,
      StatusCode::kInternal,     StatusCode::kUnavailable,
      StatusCode::kDeadlineExceeded};
  for (const StatusCode code : codes) {
    const std::string_view name = status_code_name(code);
    EXPECT_EQ(status_code_from_name(name), code) << name;
  }
  EXPECT_EQ(status_code_name(StatusCode::kInvalidArgument),
            "kInvalidArgument");
  EXPECT_FALSE(status_code_from_name("INVALID_ARGUMENT").has_value());
  EXPECT_FALSE(status_code_from_name("").has_value());
}

// --- Hashing ---

TEST(Hash, BytesAreStableAndSeedChained) {
  const std::uint64_t first = hash_bytes("abc");
  EXPECT_EQ(first, hash_bytes("abc"));  // deterministic across calls
  EXPECT_NE(first, hash_bytes("abd"));
  EXPECT_NE(first, hash_bytes("abc", first));  // seed chains
  EXPECT_NE(hash_bytes(""), hash_bytes("", 1));
}

// --- ArgParser subcommands ---

TEST(ArgParser, SubcommandReceivesItsFlagValues) {
  // Regression: the nested parser used to be handed an argc computed
  // AFTER the parent's argc was overwritten with its compacted count,
  // so `lrtd serve --socket /x` silently kept every default.
  ArgParser parser("tool", "test tool");
  ArgParser& serve = parser.add_subcommand("serve", "run the server");
  std::string socket = "/tmp/default.sock";
  std::int64_t threads = 0;
  serve.add_string("--socket", &socket, "socket path");
  serve.add_int("--threads", &threads, "worker count");

  const char* argv[] = {"tool", "serve", "--socket", "/tmp/custom.sock",
                        "--threads", "7"};
  const Status status =
      parser.parse(6, const_cast<char**>(argv));
  ASSERT_TRUE(status.ok()) << status.to_string();
  EXPECT_EQ(parser.selected_subcommand(), "serve");
  EXPECT_EQ(parser.subcommand_parser(), &serve);
  EXPECT_EQ(socket, "/tmp/custom.sock");
  EXPECT_EQ(threads, 7);
}

TEST(ArgParser, ParentFlagsMayPrecedeTheSubcommand) {
  ArgParser parser("tool", "test tool");
  bool verbose = false;
  parser.add_flag("--verbose", &verbose, "chatty output");
  ArgParser& ping = parser.add_subcommand("ping", "ping the server");
  std::string socket;
  ping.add_string("--socket", &socket, "socket path");

  const char* argv[] = {"tool", "--verbose", "ping", "--socket", "/s"};
  const Status status = parser.parse(5, const_cast<char**>(argv));
  ASSERT_TRUE(status.ok()) << status.to_string();
  EXPECT_TRUE(verbose);
  EXPECT_EQ(parser.selected_subcommand(), "ping");
  EXPECT_EQ(socket, "/s");
}

TEST(ArgParser, MissingOrUnknownSubcommandIsAnError) {
  ArgParser parser("tool", "test tool");
  (void)parser.add_subcommand("serve", "run the server");

  const char* missing[] = {"tool"};
  EXPECT_FALSE(parser.parse(1, const_cast<char**>(missing)).ok());

  ArgParser again("tool", "test tool");
  (void)again.add_subcommand("serve", "run the server");
  const char* unknown[] = {"tool", "fly"};
  EXPECT_FALSE(again.parse(2, const_cast<char**>(unknown)).ok());
}

}  // namespace
}  // namespace lrt
