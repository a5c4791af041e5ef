// Unit tests for the util substrate: JSON, timing, CLI, PRNG, alignment.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "src/util/aligned.hpp"
#include "src/util/cli.hpp"
#include "src/util/json.hpp"
#include "src/util/macros.hpp"
#include "src/util/prng.hpp"
#include "src/util/timing.hpp"

namespace bspmv {
namespace {

// ------------------------------------------------------------- JSON ----

TEST(Json, ParsesPrimitives) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(Json::parse("-17").as_number(), -17.0);
  EXPECT_DOUBLE_EQ(Json::parse("6.02e23").as_number(), 6.02e23);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const Json j = Json::parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(j.is_object());
  const auto& arr = j.at("a").as_array();
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_DOUBLE_EQ(arr[0].as_number(), 1.0);
  EXPECT_TRUE(arr[2].at("b").as_bool());
  EXPECT_EQ(j.at("c").as_string(), "x");
}

TEST(Json, ParsesStringEscapes) {
  EXPECT_EQ(Json::parse(R"("a\nb\t\"q\"\\")").as_string(), "a\nb\t\"q\"\\");
  EXPECT_EQ(Json::parse(R"("A")").as_string(), "A");
}

TEST(Json, RoundTripsThroughDump) {
  Json j;
  j["bw"] = 3.36e9;
  j["name"] = "core2";
  j["flags"] = Json(Json::Array{Json(true), Json(1), Json("x")});
  j["nested"]["deep"] = 42;
  for (int indent : {-1, 0, 2, 4}) {
    const Json back = Json::parse(j.dump(indent));
    EXPECT_EQ(back, j) << "indent=" << indent;
  }
}

TEST(Json, DumpEscapesControlCharacters) {
  const Json j(std::string("a\x01b"));
  const Json back = Json::parse(j.dump());
  EXPECT_EQ(back.as_string(), "a\x01b");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), parse_error);
  EXPECT_THROW(Json::parse("{"), parse_error);
  EXPECT_THROW(Json::parse("[1,]"), parse_error);
  EXPECT_THROW(Json::parse("tru"), parse_error);
  EXPECT_THROW(Json::parse("1 2"), parse_error);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), parse_error);
  EXPECT_THROW(Json::parse("\"unterminated"), parse_error);
}

TEST(Json, TypeMismatchThrows) {
  const Json j = Json::parse("[1]");
  EXPECT_THROW(j.as_object(), parse_error);
  EXPECT_THROW(j.as_string(), parse_error);
  EXPECT_THROW(j.at("missing"), parse_error);
}

TEST(Json, AtThrowsOnMissingKey) {
  const Json j = Json::parse("{\"a\": 1}");
  EXPECT_THROW(j.at("b"), parse_error);
  EXPECT_TRUE(j.contains("a"));
  EXPECT_FALSE(j.contains("b"));
}

// ------------------------------------------------------------ Timing ----

TEST(Timing, TimerMeasuresNonNegative) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 1000; ++i) x += i;
  EXPECT_GE(t.elapsed(), 0.0);
}

// --------------------------------------------------------------- CLI ----

TEST(Cli, ParsesOptionsAndFlags) {
  CliParser cli;
  cli.add_option("scale", "small", "suite scale");
  cli.add_option("iters", "20", "iterations");
  cli.add_flag("verbose", "chatty output");
  const char* argv[] = {"prog", "--scale", "paper", "--iters=7", "--verbose",
                        "positional"};
  ASSERT_TRUE(cli.parse(6, argv));
  EXPECT_EQ(cli.get("scale"), "paper");
  EXPECT_EQ(cli.get_int("iters"), 7);
  EXPECT_TRUE(cli.get_flag("verbose"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(Cli, DefaultsApply) {
  CliParser cli;
  cli.add_option("x", "3.5", "a number");
  cli.add_flag("f", "a flag");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("x"), 3.5);
  EXPECT_FALSE(cli.get_flag("f"));
}

TEST(Cli, RejectsUnknownAndMalformed) {
  CliParser cli;
  cli.add_option("known", "1", "known");
  const char* bad1[] = {"prog", "--unknown", "2"};
  EXPECT_THROW(cli.parse(3, bad1), invalid_argument_error);
  CliParser cli2;
  cli2.add_option("known", "1", "known");
  const char* bad2[] = {"prog", "--known"};
  EXPECT_THROW(cli2.parse(2, bad2), invalid_argument_error);
  CliParser cli3;
  cli3.add_option("n", "0", "int");
  const char* bad3[] = {"prog", "--n", "abc"};
  ASSERT_TRUE(cli3.parse(3, bad3));
  EXPECT_THROW(cli3.get_int("n"), invalid_argument_error);
}

TEST(Cli, HelpStopsParsing) {
  CliParser cli;
  cli.add_option("x", "1", "x");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

// -------------------------------------------------------------- PRNG ----

TEST(Prng, DeterministicAcrossInstances) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 4);
}

TEST(Prng, BelowStaysInRange) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.below(17);
    ASSERT_LT(v, 17u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 17u);  // all residues hit
}

TEST(Prng, UniformInUnitInterval) {
  Xoshiro256 rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

// ----------------------------------------------------------- Aligned ----

TEST(Aligned, VectorDataIs64ByteAligned) {
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    aligned_vector<double> v(n, 1.0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
    aligned_vector<std::uint8_t> b(n, 0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % 64, 0u);
  }
}

TEST(Macros, CheckThrowsWithContext) {
  try {
    BSPMV_CHECK_MSG(1 == 2, "custom context");
    FAIL() << "should have thrown";
  } catch (const invalid_argument_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("custom context"), std::string::npos);
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace bspmv
