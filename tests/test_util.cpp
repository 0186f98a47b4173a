// Unit tests for src/util: checks, RNG, statistics, tables, CLI parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace hetgrid {
namespace {

// ---------------------------------------------------------------- check

TEST(Check, PassingConditionDoesNothing) {
  EXPECT_NO_THROW(HG_CHECK(1 + 1 == 2, "fine"));
}

TEST(Check, FailingConditionThrowsPrecondition) {
  EXPECT_THROW(HG_CHECK(false, "boom " << 42), PreconditionError);
}

TEST(Check, MessageContainsExpressionAndPayload) {
  try {
    HG_CHECK(2 < 1, "payload=" << 7);
    FAIL() << "expected throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
    EXPECT_NE(what.find("payload=7"), std::string::npos);
    EXPECT_EQ(e.message(), "payload=7");
  }
}

TEST(Check, InternalCheckThrowsInternalError) {
  EXPECT_THROW(HG_INTERNAL_CHECK(false, "broken"), InternalError);
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.5, 3.5);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 3.5);
  }
}

TEST(Rng, UniformMeanIsAboutHalf) {
  Rng rng(99);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
  for (std::uint64_t v : seen) EXPECT_LT(v, 7u);
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(5);
  EXPECT_THROW(rng.below(0), PreconditionError);
}

TEST(Rng, RangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.range(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(2));
}

TEST(Rng, CycleTimesArePositiveAndBounded) {
  Rng rng(3);
  const auto t = rng.cycle_times(1000);
  EXPECT_EQ(t.size(), 1000u);
  for (double v : t) {
    EXPECT_GT(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Rng, CycleTimesRespectsEpsFloor) {
  Rng rng(3);
  for (double v : rng.cycle_times(1000, 0.25)) EXPECT_GE(v, 0.25);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto resorted = v;
  std::sort(resorted.begin(), resorted.end());
  EXPECT_EQ(resorted, sorted);
}

// ---------------------------------------------------------------- stats

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyThrowsOnMean) {
  RunningStats s;
  EXPECT_THROW(s.mean(), PreconditionError);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(RunningStats, CiShrinksWithSamples) {
  Rng rng(1);
  RunningStats small, large;
  for (int i = 0; i < 10; ++i) small.add(rng.uniform());
  for (int i = 0; i < 1000; ++i) large.add(rng.uniform());
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(Percentile, MedianOfOddSample) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
}

TEST(Percentile, Extremes) {
  std::vector<double> v{5.0, 1.0, 9.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 9.0);
}

TEST(Percentile, InterpolatesBetweenOrderStats) {
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 25.0), 2.5);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(percentile({}, 50.0), PreconditionError);
  EXPECT_THROW(percentile({1.0}, 101.0), PreconditionError);
}

TEST(MeanOf, SimpleAverage) {
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
}

TEST(HarmonicMean, MatchesClosedForm) {
  // harmonic mean of {1, 3} = 2 / (1 + 1/3) = 3/2 (the paper's Figure 3
  // aggregate-column computation).
  EXPECT_NEAR(harmonic_mean({1.0, 3.0}), 1.5, 1e-12);
  EXPECT_NEAR(harmonic_mean({2.0, 5.0}), 20.0 / 7.0, 1e-12);
}

TEST(HarmonicMean, RejectsNonPositive) {
  EXPECT_THROW(harmonic_mean({1.0, 0.0}), PreconditionError);
}

// ---------------------------------------------------------------- table

TEST(Table, AlignsColumnsAndPrintsTitle) {
  Table t("My Title");
  t.header({"a", "long_header"});
  t.row({"12345", "x"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("My Title"), std::string::npos);
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("12345"), std::string::npos);
}

TEST(Table, CsvFormat) {
  Table t;
  t.header({"x", "y"});
  t.row({"1", "2"});
  t.row({"3", "4"});
  std::ostringstream oss;
  t.print_csv(oss);
  EXPECT_EQ(oss.str(), "x,y\n1,2\n3,4\n");
}

TEST(Table, RejectsWrongWidthRow) {
  Table t;
  t.header({"x", "y"});
  EXPECT_THROW(t.row({"only-one"}), PreconditionError);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(static_cast<std::int64_t>(42)), "42");
}

// ---------------------------------------------------------------- cli

TEST(Cli, DefaultsApplyWhenAbsent) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv, {{"n", "5"}, {"x", "1.5"}});
  EXPECT_EQ(cli.get_int("n"), 5);
  EXPECT_DOUBLE_EQ(cli.get_double("x"), 1.5);
}

TEST(Cli, ParsesValues) {
  const char* argv[] = {"prog", "--n=12", "--name=hello", "--flag"};
  Cli cli(4, argv, {{"n", "0"}, {"name", ""}, {"flag", "0"}});
  EXPECT_EQ(cli.get_int("n"), 12);
  EXPECT_EQ(cli.get_string("name"), "hello");
  EXPECT_TRUE(cli.get_bool("flag"));
}

TEST(Cli, UnknownFlagThrows) {
  const char* argv[] = {"prog", "--typo=1"};
  EXPECT_THROW(Cli(2, argv, {{"n", "0"}}), PreconditionError);
}

TEST(Cli, NonIntegerThrowsOnIntAccess) {
  const char* argv[] = {"prog", "--n=abc"};
  Cli cli(2, argv, {{"n", "0"}});
  EXPECT_THROW(cli.get_int("n"), PreconditionError);
}

TEST(ParsePositiveList, ParsesCommaSeparatedDoubles) {
  EXPECT_EQ(parse_positive_list("1,2.5,0.125"),
            (std::vector<double>{1.0, 2.5, 0.125}));
  EXPECT_EQ(parse_positive_list("42"), (std::vector<double>{42.0}));
}

TEST(ParsePositiveList, RejectsBadInput) {
  EXPECT_THROW(parse_positive_list(""), PreconditionError);
  EXPECT_THROW(parse_positive_list("1,,2"), PreconditionError);
  EXPECT_THROW(parse_positive_list("1,abc"), PreconditionError);
  EXPECT_THROW(parse_positive_list("1,-2"), PreconditionError);
  EXPECT_THROW(parse_positive_list("0"), PreconditionError);
  EXPECT_THROW(parse_positive_list("1,2,"), PreconditionError);
}

TEST(Cli, DescribeListsAllFlags) {
  const char* argv[] = {"prog", "--n=3"};
  Cli cli(2, argv, {{"n", "0"}, {"m", "7"}});
  const std::string d = cli.describe();
  EXPECT_NE(d.find("n=3"), std::string::npos);
  EXPECT_NE(d.find("m=7"), std::string::npos);
}

}  // namespace
}  // namespace hetgrid
