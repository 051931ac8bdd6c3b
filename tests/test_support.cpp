#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "support/cli.hpp"
#include "support/common.hpp"
#include "support/flat_map.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace alge {
namespace {

TEST(StrFmt, FormatsLikePrintf) {
  EXPECT_EQ(strfmt("x=%d y=%.2f s=%s", 3, 1.5, "hi"), "x=3 y=1.50 s=hi");
  EXPECT_EQ(strfmt(""), "");
}

TEST(Check, ThrowsInternalErrorWithMessage) {
  try {
    ALGE_CHECK(1 == 2, "math broke: %d", 42);
    FAIL() << "expected throw";
  } catch (const internal_error& e) {
    EXPECT_NE(std::string(e.what()).find("math broke: 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Require, ThrowsInvalidArgument) {
  EXPECT_THROW(ALGE_REQUIRE(false, "bad input"), invalid_argument_error);
  EXPECT_NO_THROW(ALGE_REQUIRE(true));
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, DoublesInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, NextBelowCoversRangeUniformly) {
  Rng r(11);
  std::vector<int> hits(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++hits[r.next_below(10)];
  for (int h : hits) {
    EXPECT_GT(h, n / 10 - n / 50);
    EXPECT_LT(h, n / 10 + n / 50);
  }
}

TEST(Rng, NextBelowRejectsZero) {
  Rng r(1);
  EXPECT_THROW(r.next_below(0), invalid_argument_error);
}

TEST(Stats, BasicMoments) {
  StatAccumulator s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Stats, EmptyAccumulatorThrows) {
  StatAccumulator s;
  EXPECT_THROW(s.mean(), invalid_argument_error);
  EXPECT_THROW(s.min(), invalid_argument_error);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, RelDiff) {
  EXPECT_DOUBLE_EQ(rel_diff(1.0, 1.0), 0.0);
  EXPECT_NEAR(rel_diff(1.0, 2.0), 0.5, 1e-15);
  EXPECT_NEAR(rel_diff(0.0, 0.0), 0.0, 1e-15);
}

TEST(Table, AlignedOutput) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(1.5);
  t.row().cell("b").cell(22);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(Table, CsvEscapes) {
  Table t({"a", "b"});
  t.row().cell("x,y").cell("say \"hi\"");
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n");
}

TEST(Table, RejectsOverfullRow) {
  Table t({"only"});
  t.row().cell("one");
  EXPECT_THROW(t.cell("two"), invalid_argument_error);
}

TEST(Table, RejectsCellBeforeRow) {
  Table t({"a"});
  EXPECT_THROW(t.cell("x"), invalid_argument_error);
}

TEST(Cli, ParsesFlagsBothStyles) {
  CliArgs cli;
  cli.add_flag("n", "10", "problem size");
  cli.add_flag("mode", "fast", "mode");
  const char* argv[] = {"prog", "--n=32", "--mode", "slow"};
  cli.parse(4, argv);
  EXPECT_EQ(cli.get_int("n"), 32);
  EXPECT_EQ(cli.get("mode"), "slow");
}

TEST(Cli, DefaultsApply) {
  CliArgs cli;
  cli.add_flag("x", "2.5", "");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("x"), 2.5);
}

TEST(Cli, RejectsUnknownFlag) {
  CliArgs cli;
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_THROW(cli.parse(2, argv), invalid_argument_error);
}

TEST(Cli, IntList) {
  CliArgs cli;
  cli.add_flag("p", "1,2,4", "");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  const auto v = cli.get_int_list("p");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[2], 4);
}

TEST(Cli, BoolParsing) {
  CliArgs cli;
  cli.add_flag("flag", "true", "");
  const char* argv[] = {"prog", "--flag=no"};
  cli.parse(2, argv);
  EXPECT_FALSE(cli.get_bool("flag"));
}

TEST(Cli, HelpRequested) {
  CliArgs cli;
  cli.add_flag("n", "1", "size");
  const char* argv[] = {"prog", "--help"};
  cli.parse(2, argv);
  EXPECT_TRUE(cli.help_requested());
  EXPECT_NE(cli.usage("prog").find("size"), std::string::npos);
}

TEST(Json, BuildAndDumpIsCanonical) {
  json::Value o = json::Value::object();
  o.set("name", "alge").set("count", 3).set("ok", true).set("none", nullptr);
  json::Value arr = json::Value::array();
  arr.push_back(1).push_back(2.5).push_back("x");
  o.set("list", std::move(arr));
  EXPECT_EQ(o.dump(),
            "{\"name\":\"alge\",\"count\":3,\"ok\":true,\"none\":null,"
            "\"list\":[1,2.5,\"x\"]}");
}

TEST(Json, ParseRoundTripsDump) {
  const std::string text =
      "{\"a\":[1,2,{\"b\":false}],\"s\":\"he\\\"llo\\n\",\"x\":-1.25e-3}";
  const json::Value v = json::parse(text);
  EXPECT_EQ(json::parse(v.dump()), v);
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_EQ(v.at("s").as_string(), "he\"llo\n");
  EXPECT_DOUBLE_EQ(v.at("x").as_double(), -1.25e-3);
}

TEST(Json, NumbersRoundTripExactly) {
  for (const double d : {0.1, 1.0 / 3.0, 1e18, 9007199254740992.0, -0.0,
                         3.141592653589793, 1.5625e-2}) {
    json::Value v(d);
    const double back = json::parse(v.dump()).as_double();
    EXPECT_EQ(back, d) << v.dump();
  }
  EXPECT_EQ(json::Value(48.0).dump(), "48");
  EXPECT_EQ(json::Value(-7).dump(), "-7");
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(json::parse("{"), json::json_error);
  EXPECT_THROW(json::parse("[1,]"), json::json_error);
  EXPECT_THROW(json::parse("\"unterminated"), json::json_error);
  EXPECT_THROW(json::parse("12 34"), json::json_error);
  EXPECT_THROW(json::parse("{\"a\":nul}"), json::json_error);
  EXPECT_THROW(json::Value(1.0).at("k"), json::json_error);
  EXPECT_THROW(json::parse("[1]").as_object(), json::json_error);
}

TEST(Json, MissingKeyThrowsFindReturnsNull) {
  const json::Value v = json::parse("{\"a\":1}");
  EXPECT_EQ(v.find("b"), nullptr);
  EXPECT_THROW(v.at("b"), json::json_error);
  EXPECT_DOUBLE_EQ(v.at("a").as_double(), 1.0);
}

TEST(Json, SetReplacesAnExistingKeyInPlace) {
  json::Value o = json::Value::object();
  o.set("a", 1).set("b", 2).set("a", 3);
  EXPECT_EQ(o.dump(), R"({"a":3,"b":2})");
  EXPECT_EQ(o.as_object().size(), 2u);
}

TEST(Json, ParseRefusesARepeatedKeyWithinOneObject) {
  EXPECT_THROW(json::parse(R"({"a":1,"a":2})"), json::json_error);
  EXPECT_THROW(json::parse(R"({"o":{"k":1,"k":1}})"), json::json_error);
  try {
    json::parse(R"({"a":1,"b":{"c":2},"b":3})");
    FAIL() << "expected json_error";
  } catch (const json::json_error& e) {
    EXPECT_NE(std::string(e.what()).find("\"b\""), std::string::npos)
        << e.what();
  }
  // The same key in sibling objects is not a repeat.
  EXPECT_NO_THROW(json::parse(R"([{"a":1},{"a":2}])"));
  EXPECT_NO_THROW(json::parse(R"({"a":{"a":1}})"));
}

// Every committed JSON document parses (so holds no repeated key) and
// survives dump/parse unchanged.
TEST(Json, CommittedDocumentsRoundTrip) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(ALGE_SOURCE_DIR)) {
    const std::string name = e.path().filename().string();
    if (name.starts_with("BENCH") && name.ends_with(".json")) {
      files.push_back(e.path());
    }
  }
  for (const auto& e : fs::recursive_directory_iterator(
           fs::path(ALGE_SOURCE_DIR) / "tests" / "golden")) {
    if (e.path().extension() == ".json") files.push_back(e.path());
  }
  ASSERT_GE(files.size(), 24u);
  for (const fs::path& path : files) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    // bench_diff's truncated-input fixture is not JSON by design.
    if (path.filename() == "malformed.json") {
      EXPECT_THROW(json::parse(text.str()), json::json_error);
      continue;
    }
    const json::Value v = json::parse(text.str());
    EXPECT_EQ(json::parse(v.dump()), v) << path;
  }
}


TEST(FlatU64Map, FindOrEmplaceInsertsOnce) {
  FlatU64Map<int> m;
  EXPECT_TRUE(m.empty());
  int& a = m.find_or_emplace(42, 7);
  EXPECT_EQ(a, 7);
  a = 9;
  EXPECT_EQ(m.find_or_emplace(42, 0), 9);  // existing value, init ignored
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(*m.find(42), 9);
  EXPECT_EQ(m.find(43), nullptr);
}

TEST(FlatU64Map, GrowthRehashesAllEntries) {
  FlatU64Map<std::uint64_t> m;
  // Far past several doublings; keys packed like the mailbox's (src, tag).
  const std::uint64_t n = 3000;
  for (std::uint64_t k = 0; k < n; ++k) {
    m.find_or_emplace((k << 32) | (k & 3), k * k);
  }
  EXPECT_EQ(m.size(), static_cast<std::size_t>(n));
  for (std::uint64_t k = 0; k < n; ++k) {
    const std::uint64_t* v = m.find((k << 32) | (k & 3));
    ASSERT_NE(v, nullptr) << "key " << k;
    EXPECT_EQ(*v, k * k);
  }
  EXPECT_EQ(m.find(std::uint64_t{n} << 32), nullptr);
}

TEST(FlatU64Map, ClearEmptiesButKeepsWorking) {
  FlatU64Map<int> m;
  for (std::uint64_t k = 0; k < 100; ++k) m.find_or_emplace(k, 1);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(5), nullptr);
  m.find_or_emplace(5, 77);
  EXPECT_EQ(*m.find(5), 77);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatU64Map, ForEachVisitsEveryEntry) {
  FlatU64Map<int> m;
  for (std::uint64_t k = 10; k < 20; ++k) {
    m.find_or_emplace(k, static_cast<int>(k));
  }
  std::size_t visited = 0;
  std::uint64_t key_sum = 0;
  int value_sum = 0;
  m.for_each([&](std::uint64_t k, int v) {
    ++visited;
    key_sum += k;
    value_sum += v;
  });
  EXPECT_EQ(visited, 10u);
  EXPECT_EQ(key_sum, 145u);  // 10 + 11 + ... + 19
  EXPECT_EQ(value_sum, 145);
}

}  // namespace
}  // namespace alge
