// Unit tests for the key-value Config store.
#include <gtest/gtest.h>

#include <stdexcept>

#include "common/cli.hpp"
#include "common/config.hpp"

namespace gnoc {
namespace {

// An argv tail of key=value tokens becomes a Config, typed on read.
// FlagSet::Parse is the one argv parser every driver uses.
TEST(ConfigTest, FromArgsParsesKeyValues) {
  FlagSet flags("prog", "test");
  flags.AddInt("width", 4, "mesh width")
      .AddDouble("rate", 0.1, "injection rate")
      .AddBool("verbose", false, "chatty");
  const char* argv[] = {"prog", "width=8", "rate=0.25", "verbose=true"};
  const Config cfg = flags.Parse(4, argv);
  EXPECT_EQ(cfg.GetInt("width", 0), 8);
  EXPECT_DOUBLE_EQ(cfg.GetDouble("rate", 0.0), 0.25);
  EXPECT_TRUE(cfg.GetBool("verbose", false));
}

TEST(ConfigTest, FromArgsRejectsBareTokens) {
  // A token without '=' is a typo (e.g. a swallowed shell quote), not a
  // boolean flag; it must fail loudly instead of silently becoming true.
  FlagSet flags("prog", "test");
  flags.AddBool("verbose", false, "chatty");
  const char* bare[] = {"prog", "verbose"};
  EXPECT_THROW(flags.Parse(2, bare), CliError);
  const char* empty_key[] = {"prog", "=8"};
  EXPECT_THROW(flags.Parse(2, empty_key), CliError);
}

TEST(ConfigTest, FromStringRejectsBareTokens) {
  // A token without '=' is a typo (e.g. a swallowed shell quote), not a
  // boolean flag; it must fail loudly instead of silently becoming true.
  EXPECT_THROW(Config::FromString("width=8 oops\n"), std::invalid_argument);
  EXPECT_THROW(Config::FromString("verbose"), std::invalid_argument);
  EXPECT_THROW(Config::FromString("=8"), std::invalid_argument);
}

TEST(ConfigTest, FromStringSkipsCommentsAndBlanks) {
  Config cfg = Config::FromString(
      "# a comment\n"
      "\n"
      "width=4 height=6\n"
      "name=test rate=0.25 verbose=true\n");
  EXPECT_EQ(cfg.GetInt("width", 0), 4);
  EXPECT_EQ(cfg.GetInt("height", 0), 6);
  EXPECT_EQ(cfg.GetString("name"), "test");
  EXPECT_DOUBLE_EQ(cfg.GetDouble("rate", 0.0), 0.25);
  EXPECT_TRUE(cfg.GetBool("verbose", false));
}

TEST(ConfigTest, FallbacksWhenAbsent) {
  Config cfg;
  EXPECT_EQ(cfg.GetInt("missing", 42), 42);
  EXPECT_DOUBLE_EQ(cfg.GetDouble("missing", 2.5), 2.5);
  EXPECT_TRUE(cfg.GetBool("missing", true));
  EXPECT_EQ(cfg.GetString("missing", "x"), "x");
}

TEST(ConfigTest, MalformedValuesThrow) {
  Config cfg;
  cfg.Set("n", "abc");
  cfg.Set("d", "1.5x");
  cfg.Set("b", "maybe");
  EXPECT_THROW(cfg.GetInt("n", 0), std::invalid_argument);
  EXPECT_THROW(cfg.GetDouble("d", 0.0), std::invalid_argument);
  EXPECT_THROW(cfg.GetBool("b", false), std::invalid_argument);
}

TEST(ConfigTest, BoolAliases) {
  Config cfg;
  for (const char* t : {"true", "1", "yes", "on", "TRUE", "On"}) {
    cfg.Set("k", t);
    EXPECT_TRUE(cfg.GetBool("k", false)) << t;
  }
  for (const char* f : {"false", "0", "no", "off", "FALSE"}) {
    cfg.Set("k", f);
    EXPECT_FALSE(cfg.GetBool("k", true)) << f;
  }
}

TEST(ConfigTest, TypedSetters) {
  Config cfg;
  cfg.SetInt("i", -12);
  cfg.SetDouble("d", 0.125);
  cfg.SetBool("b", true);
  EXPECT_EQ(cfg.GetInt("i", 0), -12);
  EXPECT_DOUBLE_EQ(cfg.GetDouble("d", 0.0), 0.125);
  EXPECT_TRUE(cfg.GetBool("b", false));
}

TEST(ConfigTest, MergeOverrides) {
  Config base;
  base.SetInt("a", 1);
  base.SetInt("b", 2);
  Config over;
  over.SetInt("b", 20);
  over.SetInt("c", 30);
  base.Merge(over);
  EXPECT_EQ(base.GetInt("a", 0), 1);
  EXPECT_EQ(base.GetInt("b", 0), 20);
  EXPECT_EQ(base.GetInt("c", 0), 30);
}

TEST(ConfigTest, KeysPreserveInsertionOrder) {
  Config cfg;
  cfg.SetInt("z", 1);
  cfg.SetInt("a", 2);
  cfg.SetInt("z", 3);
  ASSERT_EQ(cfg.keys().size(), 2u);
  EXPECT_EQ(cfg.keys()[0], "z");
  EXPECT_EQ(cfg.keys()[1], "a");
}

}  // namespace
}  // namespace gnoc
